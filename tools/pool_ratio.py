"""Acceptance criterion 7's pooled/serial ratio over several interleaved pairs.

Runs the criterion's workload unchanged: 256 chunks of 8 samples at 1e5 shots,
seed 3, after the same 1000-shot warm-up. Each pair times one serial
process_chunks call and then one with 4 workers, which run their chunk
ranges on min(4, os.cpu_count()) threads. It prints every pooled/serial
ratio, their median and that thread bound, and the median serial and pooled
seconds: a change that makes the serial side cheaper can raise the ratio while
the pooled run still gets faster. A single pair cannot tell a pool regression
from host noise; the median of several pairs, run on two source trees, can.

    PYTHONPATH=src python tools/pool_ratio.py [--pairs 5]
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

import numpy as np

import qwave
from qwave import make_chunks, process_chunks


def timed(plan_f, plan_g, workers):
    start = time.perf_counter()
    quad = process_chunks(plan_f, plan_g, shots=100_000, seed=3, workers=workers)
    return time.perf_counter() - start, quad


def same_outputs(a, b) -> bool:
    return all(np.array_equal(a.components[k], b.components[k]) for k in a.components) and (
        [m.csv_row() for m in a.metrics] == [m.csv_row() for m in b.metrics])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pairs", type=int, default=5,
                        help="serial/pooled pairs to time (default 5)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")
    # the workload of tests/test_acceptance.py::test_criterion_7_parallel_speedup_and_determinism
    rng = np.random.default_rng(42)
    plan_f = make_chunks(rng.uniform(0.1, 0.95, 256 * 8), 8)
    plan_g = make_chunks(rng.uniform(0.1, 0.95, 256 * 8), 8)
    process_chunks(plan_f, plan_g, shots=1000, seed=3, workers=1)  # warm-up
    threads = min(4, os.cpu_count() or 1)
    print(f"qwave from {os.path.dirname(qwave.__file__)}, 4 workers run on {threads} threads")
    ratios, serial_times, pooled_times = [], [], []
    for pair in range(1, args.pairs + 1):
        serial_s, serial = timed(plan_f, plan_g, 1)
        pooled_s, pooled = timed(plan_f, plan_g, 4)
        ratios.append(pooled_s / serial_s)
        serial_times.append(serial_s)
        pooled_times.append(pooled_s)
        print(f"pair {pair}: serial {serial_s:.3f} s, 4 workers {pooled_s:.3f} s, "
              f"ratio {ratios[-1]:.3f}, identical {same_outputs(serial, pooled)}")
    print(f"median ratio {statistics.median(ratios):.3f} over {len(ratios)} pairs "
          f"(criterion 7 needs <= 0.5), median serial {statistics.median(serial_times):.3f} s, "
          f"4 workers {statistics.median(pooled_times):.3f} s; os.cpu_count() = {os.cpu_count()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

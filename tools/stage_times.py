"""Each stage's share of the median `qwave.cli.main` call on a benchmark workload.

Wraps the stage functions an exact or shot `multiply` and a `convolve` call
pass through (argument parsing, input reads, normalization, chunking, the
chunk drivers and their engines, the encoder column, the shot readout and
its counter and row scores inside `process_chunks`, the FFT oracle inside
`convolve_plan`, the writer of every output file, manifest.txt included,
the CSV table text and the manifest text), then runs N real calls on a
benchmark workload's inputs (perfbench.bench_workloads, read only) after
one warm-up call. A stage called inside another, such as the
encoder inside `process_chunks`, counts in itself only; a generator stage,
the `convolve_blocks` engine, is timed over each step of its iterator, so
the work of each block counts in it and not in its consumer. "The rest of
main" is each call's time outside every stage. It prints each stage that ran
with its median time per call and that median's share of the median call;
the shares need not sum to 100%, since a median of sums is not a sum of
medians. On a shot workload it also prints `draw_counts`' draws per call
(rows x shots), its grid and sort calls per call (by `_grid_plan`) and its
median time per draw. `--shots N` runs a shot workload's argv at N shots
instead of its own, so a change to the shot counter's plan is timed
through `main`. Each wrapper adds well under a microsecond per stage call. The
qwave package timed is the one on the path, named on the first line, so two
trees compare by running this script with each tree's src first on
PYTHONPATH.

    PYTHONPATH=src python tools/stage_times.py --workload mul-exact-c8 --calls 800
    PYTHONPATH=src python tools/stage_times.py --workload mul-shots-c8 --calls 50 --shots 50000
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import inspect
import io
import os
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import qwave  # noqa: E402
import qwave.audio  # noqa: E402
import qwave.cli  # noqa: E402
import qwave.pipelines  # noqa: E402
import qwave.sampling  # noqa: E402
from perfbench.bench_workloads import WORKLOADS, make_inputs  # noqa: E402

# (label, owner, attribute): the callable main reaches through owner.attribute.
# qwave.cli imports its stages by name, so they are wrapped there; the engines
# reach the encoder through qwave.pipelines' names, process_chunks the shot
# readout and convolve_plan its engine through qwave.audio's, and the readout
# the counter and the row scores through qwave.sampling's. build_kernel is
# timed where qwave.cli calls it. Argument parsing is main's own parse
# (qwave.cli._parse_args) where the CLI has one, and argparse's parse_args,
# which main called directly before it, in any case: a stage called inside
# another under the same label counts once.
# The CSV table writer is one stage, whichever module calls it.
# Stages called from several threads at once would be timed wrongly, so run
# workloads with --workers 1, as the benchmark does.
STAGES = (
    ("argument parsing", qwave.cli, "_parse_args"),
    ("argument parsing", argparse.ArgumentParser, "parse_args"),
    ("reading, hashing and decoding the inputs", qwave.cli, "read_signal"),
    ("build_kernel", qwave.cli, "build_kernel"),
    ("normalize_for_encoding", qwave.cli, "normalize_for_encoding"),
    ("make_chunks", qwave.cli, "make_chunks"),
    ("process_chunks, outside the stages below", qwave.cli, "process_chunks"),
    ("shot_readout, outside the four stages below", qwave.audio, "shot_readout"),
    ("draw_counts", qwave.sampling, "draw_counts"),
    ("decode_rows", qwave.sampling, "decode_rows"),
    ("rmsd_rows", qwave.sampling, "rmsd_rows"),
    ("fidelity_rows", qwave.sampling, "fidelity_rows"),
    ("convolve_plan, outside convolve_blocks", qwave.cli, "convolve_plan"),
    ("convolve_blocks", qwave.audio, "convolve_blocks"),
    ("encoder_column", qwave.pipelines, "encoder_column"),
    ("output files (write_outputs)", qwave.cli, "write_outputs"),
    ("CSV tables (csv_table)", qwave.audio, "csv_table"),
    ("CSV tables (csv_table)", qwave.cli, "csv_table"),
    ("manifest text (_manifest_text)", qwave.cli, "_manifest_text"),
)


class StageClock:
    """Self time per stage label: a stage's time minus that of the stages it calls."""

    def __init__(self):
        self.totals = {}
        self.nested = []  # per open stage, the seconds spent in stages it called
        self.draws = [0, 0, 0]  # over the draw_counts calls: rows x shots, grid calls, sort calls

    def counting(self, fn):
        """draw_counts `fn`, adding each call's rows x shots and its kind to self.draws."""
        @functools.wraps(fn)
        def counted(cdf, shots, seeds):
            self.draws[0] += len(cdf) * shots
            self.draws[1 if qwave.sampling._grid_plan(cdf.shape[-1], shots)[0] else 2] += 1
            return fn(cdf, shots, seeds)
        return counted

    def wrap(self, label, fn):
        """fn timed as `label`; a generator function is timed step by step, not its call."""
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def timed_steps(*args, **kwargs):
                step = self.wrap(label, functools.partial(next, fn(*args, **kwargs)))
                while True:
                    try:
                        item = step()
                    except StopIteration:
                        return
                    yield item
            return timed_steps

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.nested.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.totals[label] = self.totals.get(label, 0.0) + elapsed - self.nested.pop()
                if self.nested:
                    self.nested[-1] += elapsed
        return timed


@contextlib.contextmanager
def wrapped(clock):
    """Every stage in STAGES that this qwave has, wrapped to report to `clock`."""
    present = [(label, owner, name, getattr(owner, name)) for label, owner, name in STAGES
               if hasattr(owner, name)]
    for label, owner, name, fn in present:
        counted = clock.counting(fn) if name == "draw_counts" else fn
        setattr(owner, name, clock.wrap(label, counted))
    try:
        yield
    finally:
        for _, owner, name, fn in present:
            setattr(owner, name, fn)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="mul-exact-c8", choices=sorted(WORKLOADS))
    parser.add_argument("--calls", type=int, default=800,
                        help="timed calls (default 800)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    parser.add_argument("--shots", type=int, default=None,
                        help="shots per call in place of a shot workload's own")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error(f"--calls must be >= 1, got {args.calls}")
    workload = WORKLOADS[args.workload]
    if args.shots is not None and (workload.shots is None or args.shots < 1):
        parser.error(f"--shots needs a shot workload and N >= 1, got {args.workload} "
                     f"and {args.shots}")
    clock = StageClock()
    calls, draws, stages = [], [], {label: [] for label, _, _ in STAGES}
    with tempfile.TemporaryDirectory() as work:
        paths, _ = make_inputs(workload, args.seed, work)
        call_argv = workload.argv(paths, os.path.join(work, "out"))
        if args.shots is not None:
            call_argv[call_argv.index("--shots") + 1] = str(args.shots)
        with wrapped(clock), contextlib.redirect_stdout(io.StringIO()):
            for i in range(args.calls + 1):  # call 0 is the warm-up
                clock.totals, clock.draws = {}, [0, 0, 0]
                start = time.perf_counter()
                code = qwave.cli.main(call_argv)
                elapsed = time.perf_counter() - start
                if code != 0:
                    sys.exit(f"stage_times: main exited {code} on {' '.join(call_argv)}")
                if i:
                    calls.append(elapsed)
                    draws.append(clock.draws)
                    for label in stages:
                        stages[label].append(clock.totals.get(label, 0.0))
    rest = [call - sum(stages[label][i] for label in stages) for i, call in enumerate(calls)]
    median_call = statistics.median(calls)
    shots = "" if args.shots is None else f" at {args.shots} shots"
    print(f"{args.workload}{shots}, {args.calls} calls, qwave from {os.path.dirname(qwave.__file__)}: "
          f"median call {median_call * 1e3:.3f} ms")
    print(f"{'stage':<44} {'median us':>10} {'share':>7}")
    rows = [(label, times) for label, times in stages.items() if any(times)]
    for label, times in rows + [("the rest of main", rest)]:
        median = statistics.median(times)
        print(f"{label:<44} {median * 1e6:>10.1f} {100.0 * median / median_call:>6.1f}%")
    per_call, grid_calls, sort_calls = (statistics.median(column) for column in zip(*draws))
    if per_call:
        per_draw = statistics.median(stages["draw_counts"]) / per_call
        print(f"draw_counts: {per_call:.0f} draws per call (rows x shots) in {grid_calls:.0f} "
              f"grid and {sort_calls:.0f} sort calls, {per_draw * 1e9:.2f} ns per draw")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

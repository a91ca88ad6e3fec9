"""Time `qwave.cli.main` on two source trees, alternating call by call in one process.

Each tree's `src/qwave` is imported as its own copy of the package, so both
run in the same interpreter, on the same inputs, moments apart: on a shared
host one tree's call time can drift by half or more within minutes, which
sequential runs cannot tell from a 20% change. The inputs are a benchmark
workload's (perfbench.bench_workloads, read only). After one warm-up call
per tree, each round runs one call per tree, the order swapped every round.
It prints each tree's median call time, the relative change of the second
tree against the first and the share of rounds in which the second was
faster, and each tree's minor page faults per timed call (getrusage), which
show a call that faults freed heap pages in again. It exits 1 if a call
fails or the two trees' outputs differ in any byte, except the input paths
in manifest.txt.

    python tools/ab_calls.py /path/to/parent /path/to/change --workload mul-exact-c8 --calls 1000
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import resource
import statistics
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.bench_workloads import WORKLOADS, make_inputs  # noqa: E402


def load_cli(tree):
    """qwave.cli imported from tree/src, as a copy apart from any already loaded."""
    src = os.path.join(os.path.abspath(tree), "src")
    for name in [m for m in sys.modules if m == "qwave" or m.startswith("qwave.")]:
        del sys.modules[name]  # modules already imported keep running from their own tree
    sys.path.insert(0, src)
    try:
        cli = importlib.import_module("qwave.cli")
    finally:
        sys.path.remove(src)
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"ab_calls: imported qwave from {cli.__file__}, not {src}")
    return cli


def timed_call(cli, argv) -> tuple:
    """(seconds, minor page faults) of one main(argv) call; a call that does not exit 0 ends the run."""
    with contextlib.redirect_stdout(io.StringIO()):
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - start
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    if code != 0:
        sys.exit(f"ab_calls: {cli.__file__} exited {code} on {' '.join(argv)}")
    return elapsed, faults


def outputs(out_dir) -> dict:
    """Every output file's bytes by name; manifest.txt without its input path lines."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        if name == "manifest.txt":
            data = b"".join(line for line in data.splitlines(keepends=True)
                            if not (line.startswith(b"input") and b"_sha256 " not in line))
        files[name] = data
    return files


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("first", help="source tree holding src/qwave, e.g. the parent")
    parser.add_argument("second", help="source tree holding src/qwave, e.g. the change")
    parser.add_argument("--workload", default="mul-exact-c8", choices=sorted(WORKLOADS))
    parser.add_argument("--calls", type=int, default=200,
                        help="timed calls per tree (default 200)")
    parser.add_argument("--seed", type=int, default=1, help="input seed (default 1)")
    args = parser.parse_args(argv)
    if args.calls < 1:
        parser.error(f"--calls must be >= 1, got {args.calls}")
    workload = WORKLOADS[args.workload]
    clis = [load_cli(args.first), load_cli(args.second)]
    with tempfile.TemporaryDirectory() as work:
        paths, _ = make_inputs(workload, args.seed, work)
        argvs = [workload.argv(paths, os.path.join(work, f"out{t}")) for t in (0, 1)]
        for cli, call in zip(clis, argvs):
            timed_call(cli, call)  # warm-up
        times, faults = ([], []), [0, 0]
        for i in range(args.calls):
            for t in ((0, 1) if i % 2 == 0 else (1, 0)):
                elapsed, faulted = timed_call(clis[t], argvs[t])
                times[t].append(elapsed)
                faults[t] += faulted
        first, second = (outputs(os.path.join(work, f"out{t}")) for t in (0, 1))
    medians = [statistics.median(t) for t in times]
    faster = sum(b < a for a, b in zip(*times))
    for label, cli, median, faulted in zip(("first", "second"), clis, medians, faults):
        print(f"{label}: {os.path.dirname(cli.__file__)}  median {median * 1e3:.3f} ms, "
              f"{faulted / args.calls:.2f} minor faults per call")
    print(f"{args.workload}, {args.calls} calls per tree: second vs first "
          f"{100.0 * (medians[1] / medians[0] - 1.0):+.1f}%, "
          f"second faster in {faster}/{args.calls} rounds")
    if first != second:
        differ = sorted(n for n in first.keys() | second.keys() if first.get(n) != second.get(n))
        print(f"outputs differ: {' '.join(differ)}", file=sys.stderr)
        return 1
    print(f"outputs identical: {' '.join(sorted(first))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

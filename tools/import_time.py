"""Time a fresh `import qwave.cli` on one or two source trees, with a blocking wait.

The benchmark's `setup_s` is the median over fresh interpreters that run
`python -c "import qwave.cli"` with the tree's src first on PYTHONPATH, each
timed around `subprocess.run(..., timeout=120)`. With a timeout,
`Popen._wait` does not block: it polls the child, sleeping 1, 2, 4, 8, 16
and 32 ms and then 50 ms at a time (`delay = min(delay * 2, remaining,
.05)` in Lib/subprocess.py). So it sees an exit only at a poll point,
0, 1, 3, 7, 15, 31, 63, 113, 163, 213 ... ms after the wait starts, and
`setup_s` moves in 50 ms steps: an import that ends anywhere between the
113 and 163 ms points reads about 0.168 s.

For each run this tool starts the same child twice: once timed with a
blocking `wait()`, which sees the exit when it happens, and once as the
benchmark times it. It prints, per tree, the median blocking time (and its
quartiles), the median polled time, and the median margin from the child's
exit to the next poll point: how much later the import may end before the
polled reading takes its next 50 ms step. With two trees the runs
alternate, the order swapped every run, and each tree gets one untimed
import first, so a tree whose cached bytecode is stale is not charged for
compiling it. The children inherit the environment, as the benchmark's
do; PYTHONDONTWRITEBYTECODE, when set, makes every import compile src.

    python tools/import_time.py /path/to/parent . --runs 15
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time


def child(tree):
    """(argv, env) of a fresh interpreter importing qwave.cli from tree/src, as the benchmark's."""
    env = dict(os.environ)
    src = os.path.join(tree, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return [sys.executable, "-c", "import qwave.cli"], env


def blocking(tree) -> tuple:
    """(seconds to the child's exit, seconds of them spent starting it), by a blocking wait."""
    argv, env = child(tree)
    start = time.perf_counter()
    process = subprocess.Popen(argv, cwd=tree, env=env)
    started = time.perf_counter()
    code = process.wait()
    end = time.perf_counter()
    if code != 0:
        sys.exit(f"import_time: importing qwave.cli from {tree} exited {code}")
    return end - start, started - start


def polled(tree) -> float:
    """Seconds to the child's exit as subprocess.run with a timeout sees it, as in the benchmark."""
    argv, env = child(tree)
    start = time.perf_counter()
    subprocess.run(argv, cwd=tree, env=env, check=True, timeout=120)
    return time.perf_counter() - start


def margin(total: float, spawn: float) -> float:
    """Seconds from an exit `total` after the start to the next poll of a wait begun at `spawn`.

    The polls follow Popen._wait's rule: one at once, then after sleeps of
    1, 2, 4 ... ms, each twice the last and at most 50 ms.
    """
    waited, point, delay = total - spawn, 0.0, 0.0005
    while point < waited:
        delay = min(delay * 2, 0.05)
        point += delay
    return point - waited


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", help="one or two source trees holding src/qwave")
    parser.add_argument("--runs", type=int, default=15, help="timed children of each kind per tree")
    args = parser.parse_args(argv)
    trees = [os.path.abspath(tree) for tree in args.trees]
    if len(trees) > 2 or args.runs < 1:
        parser.error("give one or two trees and --runs >= 1")
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "src", "qwave", "cli.py")):
            parser.error(f"{tree} holds no src/qwave/cli.py")
        blocking(tree)  # untimed: writes the tree's bytecode cache unless that is turned off
    readings = {tree: {"blocking": [], "margin": [], "polled": []} for tree in trees}
    for run in range(args.runs):
        for tree in trees[::-1] if run % 2 else trees:
            total, spawn = blocking(tree)
            readings[tree]["blocking"].append(total)
            readings[tree]["margin"].append(margin(total, spawn))
            readings[tree]["polled"].append(polled(tree))
    flag = os.environ.get("PYTHONDONTWRITEBYTECODE", "")
    print(f"{args.runs} runs per tree, PYTHONDONTWRITEBYTECODE={flag!r}, "
          f"os.cpu_count() = {os.cpu_count()}")
    for tree, got in readings.items():
        times = got["blocking"]
        q1, median, q3 = (statistics.quantiles(times, n=4, method="inclusive")
                          if len(times) > 1 else times * 3)
        print(f"{tree}: blocking wait median {median * 1e3:.1f} ms (quartiles {q1 * 1e3:.1f}-"
              f"{q3 * 1e3:.1f}), subprocess.run with a timeout median "
              f"{statistics.median(got['polled']) * 1e3:.1f} ms, margin to the next poll point "
              f"median {statistics.median(got['margin']) * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

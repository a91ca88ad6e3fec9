"""Run the benchmark on one or two source trees, alternating, and write BENCH_<label>.json.

For every pair of runs and every workload that the first tree's
BENCHMARK.json lists, each tree runs its own
`perfbench/run.py --workload W --seed S --seconds T --trace 0` in a fresh
subprocess, from its own root. The two trees alternate run by run and swap
order every pair, so a host whose speed drifts weighs on both alike. The
last stdout line of each run is its JSON result.

In the file the two trees are named "parent" and "change", one tree "tree". It
holds, for each tree, workload and end-to-end metric, the median,
the quartiles and the number of runs, and each workload's failed and
attempted calls; then, with two trees, each metric's relative change of the
second tree's median against the first's and the first tree's interquartile
range relative to its median, the spread a change must clear. It also
records each tree's git SHA (and whether its tracked files differ from it),
`os.cpu_count()`, `sys.flags.dont_write_bytecode` and the Python and numpy
versions. The children inherit the environment unchanged: a
PYTHONPYCACHEPREFIX would also hide the standard library's and numpy's
cached bytecode from every fresh interpreter and inflate `setup_s`, and
PYTHONDONTWRITEBYTECODE, when set, adds the compiling of `src/qwave` to it.
The tool writes nothing but the JSON file. It exits 1 if a run fails or
prints no result.

    python tools/bench_record.py /path/to/parent . --label pr33 --pairs 5 --seconds 8
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

def git_state(tree) -> dict:
    """The tree's HEAD SHA, and whether its tracked files differ from that commit."""
    def git(*args):
        out = subprocess.run(["git", "-C", tree, *args], capture_output=True, text=True,
                             timeout=60)
        return out.stdout.strip() if out.returncode == 0 else None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": git("rev-parse", "HEAD") or "unknown",
            "tracked_changes": None if status is None else bool(status)}


def run_once(tree, workload, seed, seconds) -> dict:
    """One benchmark run: its parsed JSON result, or {"error": reason}."""
    argv = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        out = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                             timeout=10 * seconds + 600)
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"exit {out.returncode}, no JSON result: {out.stderr.strip()[-300:]}"}
    if out.returncode != 0:
        result["error"] = f"exit {out.returncode}"
    return result


def summary(values) -> dict:
    """Median, quartiles (inclusive method) and count of a list of run values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", help="one or two source trees holding perfbench/run.py")
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--pairs", type=int, default=5, help="runs per tree and workload")
    parser.add_argument("--seconds", type=float, default=8.0, help="run.py --seconds")
    parser.add_argument("--seed", type=int, default=1, help="run.py --seed")
    parser.add_argument("--out-dir", default=".", help="where the file goes (default: .)")
    args = parser.parse_args(argv)
    trees = [os.path.abspath(tree) for tree in args.trees]
    if len(trees) > 2:
        parser.error("give one or two trees")
    names = ["parent", "change"] if len(trees) == 2 else ["tree"]
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")
    for tree in trees:
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            parser.error(f"{tree} holds no perfbench/run.py")
    out_path = os.path.join(os.path.abspath(args.out_dir), f"BENCH_{args.label}.json")
    if any(out_path.startswith(os.path.join(tree, "perfbench") + os.sep) for tree in trees):
        parser.error("the file may not go under a tree's perfbench/")
    with open(os.path.join(trees[0], "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]

    runs = {name: {w: [] for w in workloads} for name in names}
    failures = []
    for pair in range(args.pairs):
        order = list(zip(names, trees))
        if pair % 2:
            order.reverse()
        for workload in workloads:
            for name, tree in order:
                result = run_once(tree, workload, args.seed, args.seconds)
                print(f"pair {pair + 1}/{args.pairs} {workload} {name}: "
                      f"{result.get('error') or result['metrics']['wall_s']['value']}",
                      file=sys.stderr, flush=True)
                if "error" in result:
                    failures.append({"tree": name, "workload": workload, "pair": pair,
                                     "error": result["error"]})
                else:
                    runs[name][workload].append(result)

    record = {
        "label": args.label,
        "command": "perfbench/run.py --workload W --seed S --seconds T --trace 0",
        "seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
        "cpu_count": os.cpu_count(),
        "dont_write_bytecode": sys.flags.dont_write_bytecode,
        "python": platform.python_version(), "numpy": np.__version__,
        "trees": {name: git_state(tree) for name, tree in zip(names, trees)},
        "failed_runs": failures,
        "workloads": {},
    }
    for workload in workloads:
        entry = record["workloads"][workload] = {}
        for name in names:
            results = runs[name][workload]
            metrics = {}
            for metric in (results[0]["metrics"] if results else {}):
                values = [r["metrics"][metric]["value"] for r in results]
                metrics[metric] = {**summary(values),
                                   "unit": results[0]["metrics"][metric]["unit"]}
            entry[name] = {"metrics": metrics,
                           "failed_calls": sum(r["failed"] for r in results),
                           "attempted_calls": sum(r["attempted"] for r in results)}
        if len(names) == 2:
            first, second = (entry[name]["metrics"] for name in names)
            entry["relative_change"] = {
                m: {"median": second[m]["median"] / first[m]["median"] - 1.0,
                    f"{names[0]}_iqr": (first[m]["q3"] - first[m]["q1"]) / first[m]["median"]}
                for m in first if m in second and first[m]["median"]}
    with open(out_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=False)
        fh.write("\n")

    print(f"{'workload':<16} {'metric':<14} " + " ".join(f"{n:>14}" for n in names)
          + ("  change" if len(names) == 2 else ""))
    for workload, entry in record["workloads"].items():
        for metric in entry[names[0]]["metrics"]:
            medians = [entry[n]["metrics"].get(metric, {}).get("median", float("nan"))
                       for n in names]
            change = entry.get("relative_change", {}).get(metric)
            print(f"{workload:<16} {metric:<14} " + " ".join(f"{v:>14.6g}" for v in medians)
                  + (f" {100 * change['median']:+6.1f}%" if change else ""))
    print(f"wrote {out_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())

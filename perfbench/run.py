"""Benchmark for qwave: the real CLI, in one process, on seeded WAV inputs.

    python3 perfbench/run.py --workload mul-exact-c8 --seed 1 --seconds 25 --trace 0

The program is imported from the ``src`` directory beside this one, never
from an installed copy; without that source tree the run exits with an error
and prints no result. Each workload is a closed loop: one warm-up call, then
one ``qwave.cli.main(argv)`` call at a time, with ``--workers 1``, until
``--seconds`` have passed. Every call must exit 0 and write outputs
byte-identical to the warm-up's, and the warm-up's outputs are checked
against numpy references (bench_workloads.check_outputs).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced calls and reports the per-layer metrics from the traced
ones (bench_trace); the spans of the last traced call are written to
``.perfbench/``. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
SETUP_RUNS = 7
MIN_CALLS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "samples_per_s": "samples/s",
    "peak_rss_mb": "MiB",
    "rmsd_pct": "%",
}


def import_cli():
    if not os.path.isfile(os.path.join(SRC, "qwave", "cli.py")):
        sys.exit(f"perfbench: no qwave source tree at {SRC}")
    sys.path.insert(0, SRC)
    import qwave.cli

    if not os.path.abspath(qwave.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported qwave from {qwave.cli.__file__}, not {SRC}")
    return qwave.cli


# On a shared host the speed of a core drifts by tens of percent over tens
# of seconds, and by a different factor for interpreter-bound and for
# memory-bound work. On a 2-vCPU VM, five 25-second runs of mul-exact-c1024
# put its median raw call between 0.47 and 0.67 s; scaled as below, the same
# runs read 0.42-0.45 s. Each call time is taken at a reference speed:
# seconds * CAL_REF_S[workload] / (mean of the calibration loops timed just
# before and just after the call). The loop imitates the workload's work and
# runs no qwave code, so no change to qwave moves it: CAL_UPDATES controlled
# 2x2 updates on a state of the workload's size, as its encoder makes, plus,
# when the workload samples, 1e5 Philox uniforms binned through a CDF.
# CAL_REF_S only sets the scale: it is about the loop's time on that VM.
CAL_REF_S = {
    "mul-exact-c8": 0.0045,
    "mul-shots-c8": 0.0110,
    "conv-ma4-c8": 0.0045,
    "mul-exact-c1024": 0.0120,
}
CAL_UPDATES = 128
_CAL_CDF = np.cumsum(np.full(32, 1 / 32))


def _calibration_update(num_qubits: int) -> None:
    """Controlled 2x2 updates on a state of the workload's size, as its encoder does."""
    state = np.zeros(1 << num_qubits, dtype=np.complex128)
    state[0] = 1.0
    for x in range(CAL_UPDATES):
        v = 0.3 + 0.4 * ((x * 7) % 11) / 11
        theta = np.arccos(abs(v))
        c, s = np.cos(theta), np.sin(theta)
        mu = np.array([[c, -s], [s, c]], dtype=np.complex128)
        phi = np.array([[np.exp(1j * np.angle(v)), 0.0], [0.0, 1.0]], dtype=np.complex128)
        u = phi @ mu
        if np.abs(u @ u.conj().T - np.eye(2)).max() > 1e-9:
            raise ArithmeticError("calibration matrix is not unitary")
        controls = [(p + 2, (x >> p) & 1) for p in range(num_qubits - 2)]
        idx = np.arange(state.size)
        keep = (idx & 2) == 0
        for p, bit in controls:
            keep &= ((idx >> p) & 1) == bit
        lower = idx[keep]
        upper = lower | 2
        a0, a1 = state[lower].copy(), state[upper]
        state[lower] = u[0, 0] * a0 + u[0, 1] * a1
        state[upper] = u[1, 0] * a0 + u[1, 1] * a1


def _calibration_sample() -> None:
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([1, 2])))
    np.bincount(np.searchsorted(_CAL_CDF, rng.random(100_000), side="right"), minlength=33)


class Timings:
    """Raw call times, and the same times at the reference speed."""

    def __init__(self, workload):
        self.num_qubits = workload.chunk_size.bit_length() + 1  # register + 2 ancillae
        self.sampling = workload.shots is not None
        self.reference = CAL_REF_S[workload.name]
        self.raw, self.scaled = [], []
        self._before = self.calibration_s()

    def calibration_s(self) -> float:
        start = time.perf_counter()
        _calibration_update(self.num_qubits)
        if self.sampling:
            _calibration_sample()
        return time.perf_counter() - start

    def add(self, seconds: float) -> None:
        after = self.calibration_s()
        self.raw.append(seconds)
        self.scaled.append(seconds * 2 * self.reference / (self._before + after))
        self._before = after


def setup_times() -> list:
    """Fresh interpreters importing qwave.cli, the start-up every CLI run pays.

    Not scaled: process start-up (exec, file reads, dynamic loading) drifts
    unlike the calibration loop, and scaling widened its spread.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qwave.cli"],
                       cwd=ROOT, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def call(cli, argv) -> tuple:
    """One CLI call: (wall seconds, None or the reason it failed)."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        start = time.perf_counter_ns()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            return (time.perf_counter_ns() - start) / 1e9, f"{type(exc).__name__}: {exc}"
        wall = (time.perf_counter_ns() - start) / 1e9
    if code != 0:
        return wall, f"exit code {code}: {sink.getvalue().strip()[-300:]}"
    return wall, None


def digest(directory) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed, counts) -> dict:
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "workload_seed": seed,
        "repeats": counts,
        "note": "single process, --workers 1; pool scaling (acceptance criterion 7) "
                "needs >= 4 cores and is not measured here",
    }


class Run:
    """The closed loop for one workload, with its failure accounting."""

    def __init__(self, cli, workload, inputs, work):
        self.cli, self.workload, self.inputs, self.work = cli, workload, inputs, work
        self.attempted = 0
        self.failures = []  # (call label, reason)
        self.expected = None

    def one(self, label, out_name, tracer=None):
        """Run a call, check its outputs against the warm-up's; return its wall or None."""
        out_dir = os.path.join(self.work, out_name)
        argv = self.workload.argv(self.inputs, out_dir)
        self.attempted += 1
        if tracer is None:
            wall, error = call(self.cli, argv)
        else:
            with tracer.installed():
                wall, error = call(self.cli, argv)
        if error is None:
            found = digest(out_dir)
            if self.expected is None:
                self.expected = found
            elif found != self.expected:
                error = "outputs differ from the warm-up call's"
        if error is not None:
            self.failures.append((label, error))
            return None
        return wall


def run(cli, workload, seed, seconds, trace, work) -> dict:
    import bench_trace
    from bench_workloads import check_outputs, make_inputs

    inputs_dir = os.path.join(work, "inputs")
    os.makedirs(inputs_dir)
    inputs, signals = make_inputs(workload, seed, inputs_dir)
    setup = [] if trace else setup_times()
    loop = Run(cli, workload, inputs, work)
    loop.one("warm-up", "warm")

    walls, summaries, spans = Timings(workload), [], []
    tracer = bench_trace.Tracer() if trace else None
    deadline = time.perf_counter() + seconds
    rounds = 0
    while loop.expected is not None and (
            rounds < MIN_CALLS or time.perf_counter() < deadline):
        rounds += 1
        wall = loop.one(f"call {rounds}", "run")
        if wall is None:
            continue
        walls.add(wall)
        if tracer is not None:
            tracer.spans.clear()
            traced_wall = loop.one(f"traced call {rounds}", "traced", tracer)
            if traced_wall is not None:
                spans = list(tracer.spans)
                summaries.append(bench_trace.summarize_call(
                    spans, traced_wall, workload.chunk_entry_span))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems, err_lsb, rmsd = (["warm-up call failed"], float("nan"), float("nan"))
    if loop.expected is not None:
        problems, err_lsb, rmsd = check_outputs(
            workload, signals, os.path.join(work, "warm"))
    failed = len(loop.failures)
    if problems:
        # every successful call wrote the warm-up's bytes, so every one is wrong
        failed = loop.attempted
        loop.failures += [("outputs", p) for p in problems]

    counts = {"setup": len(setup), "timed_calls": len(walls.raw),
              "traced_calls": len(summaries), "attempted": loop.attempted}
    result = {"env": environment(seed, counts), "failures": loop.failures,
              "attempted": loop.attempted, "failed": failed, "metrics": {},
              # gated and printed, not bounded: a max of int16 rounding reads
              # 0.5 on every correct run, and a correct run fails no call
              "checks": {"out_err_lsb": (err_lsb, "LSB", workload.samples)}}
    if trace and summaries:
        metrics, count_problems = bench_trace.per_layer_metrics(summaries, walls.raw)
        if count_problems:
            result["failures"] += [("trace", p) for p in count_problems]
            result["failed"] = loop.attempted
        result["metrics"] = {m: (v, bench_trace.PER_LAYER_UNITS[m], len(summaries))
                             for m, v in metrics.items()}
        traced_wall = statistics.median(s["wall_s"] for s in summaries)
        self_total = sum(v for m, v in metrics.items() if m.endswith("self_s"))
        result["checks"]["trace.accounted_frac"] = (
            self_total / traced_wall, "ratio", len(summaries))
        result["ranking"] = sorted((m for m in metrics if m.endswith("self_s")),
                                   key=metrics.get, reverse=True)
        bench_trace.write_spans(
            os.path.join(WORK_DIR, f"spans-{workload.name}-seed{seed}.tsv"), spans)
    elif walls.raw and not trace:
        wall, n = statistics.median(walls.scaled), len(walls.raw)
        values = {
            "setup_s": (statistics.median(setup), SETUP_RUNS),
            "wall_s": (wall, n),
            "samples_per_s": (workload.samples / wall, n),
            "peak_rss_mb": (peak_rss_mb, 1),
            "rmsd_pct": (rmsd, workload.samples),
        }
        result["metrics"] = {m: (v, END_TO_END_UNITS[m], n) for m, (v, n) in values.items()}
        result["checks"]["wall_raw_s"] = (statistics.median(walls.raw), "s", n)
    attempted = result["attempted"]
    result["checks"]["ops_failed_frac"] = (result["failed"] / attempted, "ratio", attempted)
    return result


def report(workload, result) -> None:
    print(f"workload {workload.name}: {workload.why}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for label, reason in result["failures"]:
        print(f"FAILED {label}: {reason}")
    for name, (value, unit, n) in {**result["metrics"], **result["checks"]}.items():
        print(f"  {name:50s} {value:>16.6g} {unit:9s} n={n}")
    if "ranking" in result:
        print("  ranking by self time: " + " > ".join(result["ranking"][:6]))


def main(argv=None) -> int:
    from bench_workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = import_cli()
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR)
    try:
        result = run(cli, workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(workload, result)
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

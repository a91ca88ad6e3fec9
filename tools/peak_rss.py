"""Fresh-process peak RSS of one `multiply` and one `convolve` call per input length.

Writes 8 kHz mono 16-bit sine WAVs of each length (10, 60 and 300 s by
default) to a temporary directory, then for each length and each worker
count (--workers, 1 by default) runs one exact `qwave multiply f.wav g.wav`
and one `qwave convolve f.wav --kernel moving-average-4` call, at the
default chunk size of 8, each in a new interpreter. Each child reports its peak RSS after importing qwave.cli and
again after the call, and the call's wall time. The peak is the child's
VmHWM from /proc/self/status where there is one: getrusage's ru_maxrss also
counts the parent's peak, which an exec carries over on Linux. It
prints one row per call and, per command and worker count, the slope of the peak between the
shortest and the longest input in bytes per input sample: a run whose memory
does not grow with the input reads near 0. The qwave package measured is the
one the children import, named on the first line, so two trees compare by
running this script with each tree's src first on PYTHONPATH.

    PYTHONPATH=src python tools/peak_rss.py [--seconds 10 60 300] [--workers 1,2]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import wave

import numpy as np

RATE = 8000
# one call in a fresh interpreter: its argv follows the code, its report is
# the last line of its stdout
CHILD = """
import contextlib, io, json, resource, sys, time
import qwave.cli

def peak_kib():
    try:
        with open("/proc/self/status") as fh:
            return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

imported = peak_kib()
with contextlib.redirect_stdout(io.StringIO()):
    start = time.perf_counter()
    code = qwave.cli.main(sys.argv[1:])
    wall = time.perf_counter() - start
print(json.dumps({"code": code, "import_kib": imported, "peak_kib": peak_kib(), "wall_s": wall,
                  "qwave": qwave.cli.__file__}))
"""


def write_sine(path, seconds: int, hz: float) -> None:
    """A mono 16-bit WAV of 0.5 + 0.45 sin(2 pi hz t), non-negative as `multiply` needs.

    Written a second at a time, so this process stays small.
    """
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(RATE)
        for second in range(seconds):
            t = (second * RATE + np.arange(RATE)) / RATE
            pcm = np.round((0.5 + 0.45 * np.sin(2 * np.pi * hz * t)) * 32768).astype("<i2")
            fh.writeframes(pcm.tobytes())


def run_child(argv) -> dict:
    """The report of one main(argv) call in a new interpreter; a call that fails ends the run."""
    done = subprocess.run([sys.executable, "-c", CHILD, *argv], capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"peak_rss: {' '.join(argv)} failed:\n{done.stderr}")
    report = json.loads(done.stdout.splitlines()[-1])
    if report["code"] != 0:
        sys.exit(f"peak_rss: main exited {report['code']} on {' '.join(argv)}")
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=int, nargs="+", default=[10, 60, 300],
                        help="input lengths in seconds at 8 kHz (default 10 60 300)")
    parser.add_argument("--workers", default="1",
                        help="comma-separated worker counts, each run on every length "
                             "(default 1)")
    args = parser.parse_args(argv)
    if min(args.seconds) < 1:
        parser.error(f"--seconds must be >= 1, got {min(args.seconds)}")
    try:
        workers = sorted({int(w) for w in args.workers.split(",")})
    except ValueError:
        parser.error(f"--workers must list integers, got {args.workers!r}")
    if workers[0] < 1:
        parser.error(f"--workers must be >= 1, got {workers[0]}")
    lengths = sorted(set(args.seconds))
    peaks = {}
    with tempfile.TemporaryDirectory() as work:
        header = False
        for seconds in lengths:
            f, g = (os.path.join(work, f"{name}{seconds}.wav") for name in "fg")
            write_sine(f, seconds, 440.0)
            write_sine(g, seconds, 660.0)
            out = os.path.join(work, "out")
            for count in workers:
                for command, call in (("multiply", ["multiply", f, g]),
                                      ("convolve", ["convolve", f, "--kernel",
                                                    "moving-average-4"])):
                    report = run_child(call + ["--workers", str(count), "--out", out])
                    if not header:
                        print(f"qwave from {os.path.dirname(report['qwave'])}")
                        print(f"{'command':<9} {'workers':>7} {'seconds':>7} {'samples':>9} "
                              f"{'peak MiB':>9} {'import MiB':>10} {'call s':>7}")
                        header = True
                    peaks.setdefault((command, count), []).append(report["peak_kib"] * 1024)
                    print(f"{command:<9} {count:>7} {seconds:>7} {seconds * RATE:>9} "
                          f"{report['peak_kib'] / 1024:>9.1f} "
                          f"{report['import_kib'] / 1024:>10.1f} {report['wall_s']:>7.2f}")
    if len(lengths) > 1:
        span = (lengths[-1] - lengths[0]) * RATE
        for (command, count), values in peaks.items():
            print(f"{command} at {count} workers: {(values[-1] - values[0]) / span:.0f} bytes "
                  f"of peak RSS per input sample, {lengths[0]} s to {lengths[-1]} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

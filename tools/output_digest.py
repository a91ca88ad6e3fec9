"""sha256 of every output of a fixed set of CLI calls, to compare source trees.

The calls: the four benchmark workloads' argv on seeds 1 and 2 (inputs from
perfbench.bench_workloads.make_inputs), a low-pass-3 convolve at chunk size
16, a moving-average-5 convolve at chunk size 256, a convolve with a kernel
file, one with a Fourier-domain kernel file, a shift-scale convolve, an
identity and a shift-3 convolve, selftest, a three-seed shot-sweep of the
built-in pair and one of a 16-sample text pair, a pooled shot-mode
multiply (two workers, 1000 shots, seed 5), a shot-mode multiply of four
chunks of 128 at 300000 shots (D = 512 outcomes per chunk, so the sort
counter draws three batches per chunk, where the benchmark's shot workload
bins on the grid), a shift-scale multiply and a multiply of a
40000-sample pair at chunk size 32768 (one chunk holds more amplitudes than
an engine block, and the tail is padded), a moving-average-5 convolve of
that pair's first signal at chunk size 128 (313 chunks, the last one
partial, in three engine blocks of up to 128 rows), and a text-input
multiply and convolve whose samples include +0.0 and -0.0, which the
encoder writes as they are, so a zero's sign reaches the states and the
outputs unchanged, and a shot-sweep of a 16-sample text pair that holds
both zeros, which the assume-positive sign rule accepts. Last come
moving-average-5 convolves of the 40000-sample signal on threads: at chunk
size 8 on one worker, then on two and three, and at chunk size 128 on two.
Each pooled call's files must hash as its one-worker twin's do, its
manifest once its `workers` line reads 1; any that differs is named on
stderr and the exit status is 1.
They run in-process inside a temporary directory with relative paths, so
the manifests, which record input paths, compare across trees. Each output
file prints as `sha256  path`, and each call's stdout as `sha256
<call>/stdout (exit <code>)`. The qwave package used is named on stderr, so
stdout diffs clean between two trees.

Then every output file gets junk appended and every call runs again into
the same directories: outputs are rewritten in place, so each hash must
equal the first pass's. Any that differs is named on stderr and the exit
status is 1; stdout holds the first pass only.

    PYTHONPATH=src python tools/output_digest.py > change.txt
    PYTHONPATH=/path/to/parent/src python tools/output_digest.py > parent.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import qwave  # noqa: E402
from perfbench.bench_workloads import WORKLOADS, make_inputs  # noqa: E402
from qwave.cli import main as qwave_main  # noqa: E402


def calls() -> list:
    """(name, argv) of every call, after writing their inputs to the current directory."""
    out = []
    for seed in (1, 2):
        for name, workload in sorted(WORKLOADS.items()):
            label = f"{name}-s{seed}"
            os.makedirs(f"in/{label}")
            paths, _ = make_inputs(workload, seed, f"in/{label}")
            out.append((label, workload.argv(paths, f"out/{label}")))
    signal = "in/conv-ma4-c8-s1/input_0.wav"
    np.savetxt("in/kernel.txt", np.random.default_rng(0).uniform(-1.0, 1.0, 8))
    np.savetxt("in/bins.txt", np.random.default_rng(1).uniform(-1.0, 1.0, 16))
    for label, kernel, chunk_size, flags in (
            ("conv-lp3-c16", "low-pass-3", 16, []),
            ("conv-ma5-c256", "moving-average-5", 256, []),
            ("conv-file-c8", "in/kernel.txt", 8, []),
            ("conv-fourier-file-c8", "in/bins.txt", 8, ["--kernel-domain", "fourier"]),
            ("conv-shift-scale-c8", "moving-average-4", 8, ["--normalization", "shift-scale"]),
            ("conv-identity-c8", "identity", 8, []),
            ("conv-shift3-c8", "shift-3", 8, [])):
        out.append((label, ["convolve", signal, "--kernel", kernel, *flags,
                            "--chunk-size", str(chunk_size), "--out", f"out/{label}"]))
    out.append(("selftest", ["selftest"]))
    out.append(("shot-sweep", ["shot-sweep", "--num-seeds", "3",
                               "--shots-list", "10,1000,exact", "--out", "out/shot-sweep"]))
    for label, inputs, flags in (
            ("mul-pooled-shots-c8", "mul-shots-c8-s1",
             ["--workers", "2", "--shots", "1000", "--seed", "5"]),
            ("mul-shots-c128", "mul-shots-c8-s1",
             ["--chunk-size", "128", "--shots", "300000", "--seed", "11"]),
            ("mul-shift-scale-c8", "mul-exact-c8-s1", ["--normalization", "shift-scale"])):
        out.append((label, ["multiply", f"in/{inputs}/input_0.wav", f"in/{inputs}/input_1.wav",
                            *flags, "--out", f"out/{label}"]))
    rng = np.random.default_rng(2)
    for name in ("long_f.txt", "long_g.txt"):
        np.savetxt(f"in/{name}", rng.uniform(0.0, 1.0, 40000))
    out.append(("mul-exact-c32768", ["multiply", "in/long_f.txt", "in/long_g.txt",
                                     "--chunk-size", "32768", "--out", "out/mul-exact-c32768"]))
    out.append(("conv-ma5-c128", ["convolve", "in/long_f.txt", "--kernel", "moving-average-5",
                                  "--chunk-size", "128", "--out", "out/conv-ma5-c128"]))
    for name in ("zeros_f.txt", "zeros_g.txt"):
        samples = rng.uniform(0.0, 1.0, 300)
        samples[rng.random(300) < 0.2] = 0.0
        samples[rng.random(300) < 0.05] = -0.0
        np.savetxt(f"in/{name}", samples)
    out.append(("mul-text-signed-zeros-c16", ["multiply", "in/zeros_f.txt", "in/zeros_g.txt",
                                              "--chunk-size", "16",
                                              "--out", "out/mul-text-signed-zeros-c16"]))
    out.append(("conv-text-signed-zeros-c16", ["convolve", "in/zeros_f.txt",
                                               "--kernel", "moving-average-3", "--chunk-size", "16",
                                               "--out", "out/conv-text-signed-zeros-c16"]))
    for name in ("sweep_f.txt", "sweep_g.txt"):
        np.savetxt(f"in/{name}", rng.uniform(0.5, 1.0, 16))
    out.append(("shot-sweep-text", ["shot-sweep", "--signal-f", "in/sweep_f.txt",
                                    "--signal-g", "in/sweep_g.txt", "--num-seeds", "3",
                                    "--shots-list", "100,10000,exact",
                                    "--out", "out/shot-sweep-text"]))
    for name in ("sweep_zeros_f.txt", "sweep_zeros_g.txt"):
        samples = rng.uniform(0.5, 1.0, 16)
        samples[rng.permutation(16)[:4]] = [0.0, -0.0, 0.0, -0.0]
        np.savetxt(f"in/{name}", samples)
    out.append(("shot-sweep-signed-zeros", ["shot-sweep", "--signal-f", "in/sweep_zeros_f.txt",
                                            "--signal-g", "in/sweep_zeros_g.txt",
                                            "--num-seeds", "3", "--shots-list", "100,exact",
                                            "--out", "out/shot-sweep-signed-zeros"]))
    for label, chunk_size, workers in (("conv-ma5-c8", 8, 1), ("conv-ma5-c8-w2", 8, 2),
                                       ("conv-ma5-c8-w3", 8, 3), ("conv-ma5-c128-w2", 128, 2)):
        out.append((label, ["convolve", "in/long_f.txt", "--kernel", "moving-average-5",
                            "--chunk-size", str(chunk_size), "--workers", str(workers),
                            "--out", f"out/{label}"]))
    return out


# each pooled call, and the one-worker call whose files it must match
POOLED = {"conv-ma5-c8-w2": "conv-ma5-c8", "conv-ma5-c8-w3": "conv-ma5-c8",
          "conv-ma5-c128-w2": "conv-ma5-c128"}


def pooled_mismatches() -> list:
    """The files of each pooled call whose bytes differ from its one-worker twin's, the
    manifest's `workers` line set to 1 first."""
    bad = []
    for label, twin in POOLED.items():
        names = sorted(os.listdir(f"out/{label}"))
        if names != sorted(os.listdir(f"out/{twin}")):
            bad.append(f"out/{label}: files {names}")
            continue
        for name in names:
            with open(f"out/{label}/{name}", "rb") as fh, open(f"out/{twin}/{name}", "rb") as tw:
                data, want = fh.read(), tw.read()
            if name == "manifest.txt":
                workers = [line for line in data.split(b"\n") if line.startswith(b"workers = ")]
                data = data.replace(b"\n" + workers[0] + b"\n", b"\nworkers = 1\n", 1)
            if data != want:
                bad.append(f"out/{label}/{name}")
    return bad


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def output_files(label) -> list:
    out_dir = f"out/{label}"
    return [f"{out_dir}/{name}" for name in sorted(os.listdir(out_dir))
            ] if os.path.isdir(out_dir) else []


def digest_lines(argvs) -> list:
    """Run every call; `sha256  name` of its stdout, then of each output file."""
    lines = []
    for label, argv in argvs:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = qwave_main(argv)
        lines.append(f"{sha256(stdout.getvalue().encode())}  {label}/stdout (exit {code})")
        for path in output_files(label):
            with open(path, "rb") as fh:
                lines.append(f"{sha256(fh.read())}  {path}")
    return lines


def main() -> int:
    print(f"qwave from {os.path.dirname(qwave.__file__)}", file=sys.stderr)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            argvs = calls()
            first = digest_lines(argvs)
            print("\n".join(first))
            pooled = pooled_mismatches()
            for label, _ in argvs:
                for path in output_files(label):
                    with open(path, "ab") as fh:
                        fh.write(b"\x00stale output\xff" * 64)
            rewritten = digest_lines(argvs)
        finally:
            os.chdir(home)
    if pooled:
        print("pooled check FAILED: these files differ from their one-worker call's:",
              *(f"  {name}" for name in pooled), sep="\n", file=sys.stderr)
    else:
        print(f"pooled check passed: the files of all {len(POOLED)} pooled convolve calls "
              f"equal their one-worker call's", file=sys.stderr)
    if rewritten != first:
        print("rewrite check FAILED: after every call reran over its junk-padded outputs, "
              "these hashes differ from the first pass:", file=sys.stderr)
        for line in sorted(set(rewritten) - set(first)):
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"rewrite check passed: all {len(first)} hashes equal after rerunning every "
          f"call over its junk-padded outputs", file=sys.stderr)
    return 1 if pooled else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""A model-based property test of the command line.

Each example draws a `multiply` (exact or at a few shots) or a `convolve`
with a built-in kernel or a kernel file in either domain: a chunk size from
2 to 64, a length that often leaves the last chunk partial, int16, float32
or stereo WAV inputs or text ones, and a normalization mode. It calls
qwave.cli.main into a fresh directory and checks every output against the
model below, which uses numpy and the standard library and imports no
engine from qwave: each WAV (read with the `wave` module) within 1 LSB and
its header, every metrics.csv field and every manifest.txt line. Shot
counts are replayed from the closed-form probabilities on the Philox
streams [seed, chunk]. Both commands run at --workers 1, 2 and 3 with the
per-thread work floor lowered to one chunk, so the chunks really are split
over threads, and must write the same bytes each time.

A second test draws such a run with one fault in its argv or its input,
and checks that the run is refused with one stderr line naming the fault,
and that no --out directory is made.
"""

import contextlib
import hashlib
import io
import os
import platform
import sys
import tempfile
import wave
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import qwave
import qwave.audio
from qwave.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.bench_workloads import COMPONENTS, exact_components  # noqa: E402

TOP = 1.0 - 2.0**-15  # the largest sample a read keeps: one 16-bit step below full scale
BOUND = 1.0 - 1e-9  # a chunk whose peak is above this would be rescaled before encoding
METRICS_HEADER = ("chunk_index,shots,seed,rmsd_percent,fidelity_percent,"
                  "postselect_probability,scale_f,scale_g")
SAMPLER = "philox-inverse-cdf/1"
INPUT_KINDS = ("int16", "float32", "int16-stereo", "float32-stereo", "text")


@st.composite
def runs(draw, commands=("multiply", "multiply", "convolve")):
    """One CLI run: its command (one of `commands`), flags and the raw samples of each
    input file."""
    command = draw(st.sampled_from(commands))
    n = draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    chunks = draw(st.integers(1, 4))
    run = {
        "command": command,
        "chunk_size": n,
        "total": draw(st.integers((chunks - 1) * n + 1, chunks * n)),
        "normalization": draw(st.sampled_from(["assume-positive", "shift-scale"])),
        "rate": draw(st.sampled_from([8000, 11025, 48000])),
        "kinds": [draw(st.sampled_from(INPUT_KINDS))
                  for _ in range(2 if command == "multiply" else 1)],
        "seed": draw(st.integers(0, 2**32)),
    }
    if command == "multiply":
        run["shots"] = draw(st.one_of(st.none(), st.integers(1, 300)))
    else:
        name = draw(st.sampled_from(["identity", "shift", "moving-average", "low-pass",
                                     "time-file", "fourier-file"]))
        k = {"identity": None, "shift": st.integers(0, n - 1),
             "moving-average": st.integers(1, n), "low-pass": st.integers(0, n),
             "time-file": st.integers(1, n), "fourier-file": st.just(2 * n)}[name]
        run["kernel"] = name if k is None else f"{name}-{draw(k)}"
        run["kernel_domain"] = draw(st.sampled_from(
            ["auto", "fourier" if name == "low-pass" else "time"]))
        if name.endswith("-file"):  # taps or bins in [-1, 1], written as text
            seed = draw(st.integers(0, 2**32))
            run["taps"] = np.random.default_rng(seed).uniform(-1.0, 1.0, draw(k))
            run["kernel_domain"] = ("fourier" if name == "fourier-file"
                                    else draw(st.sampled_from(["auto", "time"])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    run["raw"] = [raw_samples(rng, kind, run["total"], run["normalization"] == "shift-scale")
                  for kind in run["kinds"]]
    return run


def raw_samples(rng, kind, total, signed):
    """What an input file of `kind` holds: int16 codes, float32 or float64 samples, with
    edges (zeros of both signs, full scale, past full scale for float WAVs) mixed in."""
    shape = (total, 2) if kind.endswith("stereo") else (total,)
    if kind.startswith("int16"):
        codes = rng.integers(-32768 if signed else 0, 32768, shape)
        edges = [0, 32767, 1, -32768, -1] if signed else [0, 32767, 1]
        return np.where(rng.random(shape) < 0.1, rng.choice(edges, shape), codes).astype("<i2")
    top = 1.25 if kind.startswith("float32") else 1.0  # text past [-1, 1] is refused
    values = rng.uniform(-top if signed else 0.0, top, shape)
    edges = [0.0, -0.0, 1.0, TOP, 1.0 - 2.0**-16, top] + ([-1.0, -top] if signed else [])
    values = np.where(rng.random(shape) < 0.1, rng.choice(edges, shape), values)
    return values.astype(np.float32) if kind.startswith("float32") else values


def write_input(path, kind, raw, rate) -> str:
    if kind == "text":
        np.savetxt(path + ".txt", raw)  # %.18e: every float64 reads back as it was
        return path + ".txt"
    wavfile.write(path + ".wav", rate, raw)
    return path + ".wav"


# -- the model ------------------------------------------------------------------------------

def decoded(kind, raw) -> np.ndarray:
    """The samples the CLI reads: int16 codes over 32768, floats clipped into [-1, TOP],
    stereo channels averaged."""
    if kind.startswith("int16"):
        samples = raw / 32768.0
    else:
        samples = np.clip(raw.astype(np.float64), -1.0, TOP)
    return samples.mean(axis=1) if samples.ndim == 2 else samples


def chunk_rows(samples, n, normalization) -> np.ndarray:
    """The encoded (chunks, n) rows: normalized, zero-padded to whole chunks."""
    if normalization == "shift-scale":
        samples = (samples + 1.0) * 0.5
    rows = np.zeros(-(-samples.size // n) * n)
    rows[: samples.size] = samples
    # no CLI input reaches the rescale bound: a read keeps samples at or below TOP
    assert np.abs(rows).max() <= BOUND
    return rows.reshape(-1, n)


def replay_counts(probs, shots, seed) -> np.ndarray:
    """Each row's counts: shot j lands on the first k with u_j < cdf[k], where u_j is the
    j-th uniform of the Philox stream [seed, row] and cdf the row's closed CDF."""
    counts = np.empty(probs.shape, dtype=np.int64)
    for i, row in enumerate(probs):
        cdf = np.cumsum(row / row.sum())
        cdf[-1] = 1.0
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, i])))
        draws = np.searchsorted(cdf, rng.random(shots), side="right")
        counts[i] = np.bincount(draws, minlength=row.size)
    return counts


def multiply_model(run, x, y) -> tuple:
    """({component: its samples before the write}, metrics.csv's float columns)."""
    n, total = run["chunk_size"], run["total"]
    exact = exact_components(x.reshape(-1), y.reshape(-1))
    # outcome 4x + 2*b_f + b_g of each chunk, its amplitude the component at x over sqrt(n)
    amps = np.stack([exact[c] for c in COMPONENTS], axis=1).reshape(len(x), 4 * n)
    probs = amps * amps / n
    ideal00 = np.abs(exact["00"]).reshape(-1, n)
    rmsd, fidelity = np.zeros(len(x)), np.full(len(x), 100.0)
    channels = {c: np.abs(exact[c]) for c in COMPONENTS}
    if run["shots"] is not None:
        counts = replay_counts(probs, run["shots"], run["seed"]).reshape(len(x), n, 4)
        totals = counts.sum(axis=2, keepdims=True)
        estimates = np.sqrt(counts / np.maximum(totals, 1))  # an unseen index decodes to 0
        channels = {c: estimates[:, :, k].reshape(-1) for k, c in enumerate(COMPONENTS)}
        rmsd = 100.0 * np.sqrt(np.mean((estimates[:, :, 0] - ideal00) ** 2, axis=1))
        frequencies = counts.reshape(len(x), -1) / run["shots"]
        fidelity = 100.0 * np.sum(np.sqrt(probs * frequencies), axis=1) ** 2
    if run["normalization"] == "shift-scale":
        channels = {c: 2.0 * v - 1.0 for c, v in channels.items()}
    prob00 = probs[:, 0::4].sum(axis=1)
    return {c: v[:total] for c, v in channels.items()}, [rmsd, fidelity, prob00]


def convolve_model(run, x) -> tuple:
    """(the convolved samples before the write, the kernel's domain): each chunk convolved
    with the kernel in a frame of twice the chunk size, its first chunk_size samples kept.
    A Fourier-domain kernel file holds the frame's bins; a time-domain one, the taps."""
    n = run["chunk_size"]
    name, _, k = run["kernel"].rpartition("-")
    if run["kernel"] == "identity":
        out, domain = x.copy(), "time"
    elif name in ("low-pass", "fourier-file"):
        bins = np.arange(2 * n)
        mask = run["taps"] if "taps" in run else np.minimum(bins, 2 * n - bins) <= int(k)
        out, domain = np.fft.ifft(np.fft.fft(x, 2 * n) * mask)[:, :n].real, "fourier"
    else:
        if name == "moving-average":
            taps = np.full(int(k), 1.0 / int(k))
        else:
            taps = np.eye(n)[int(k)] if name == "shift" else run["taps"]
        out = np.array([np.convolve(row, taps)[:n] for row in x])
        domain = "time"
    return out.reshape(-1)[: run["total"]], domain


def manifest_lines(run, argv, inputs, domain=None) -> list:
    """Every manifest.txt line of the run; a convolve's inputs are the signal and its
    kernel file, if it has one."""
    n, total = run["chunk_size"], run["total"]
    chunks = -(-total // n)
    lines = ["manifest_version = 4", f"tool = qwave {qwave.__version__}",
             f"python = {platform.python_version()}", f"numpy = {np.__version__}",
             f"command = {run['command']}"]
    roles = ["f", "g"] if run["command"] == "multiply" else ["f", "kernel"]
    for role, path in zip(roles, inputs):
        with open(path, "rb") as fh:
            lines += [f"input_{role} = {path}",
                      f"input_{role}_sha256 = {hashlib.sha256(fh.read()).hexdigest()}"]
    shift_scale = run["normalization"] == "shift-scale"
    if run["command"] == "multiply":
        lines += [f"sample_rate = {run['rate']}", f"chunk_size = {n}",
                  f"num_chunks = {chunks}", f"tail_padding = {chunks * n - total}",
                  f"shots = {run['shots'] or 'exact'}", f"seed = {run['seed']}",
                  f"sampler = {SAMPLER}", f"workers = {argv[argv.index('--workers') + 1]}",
                  f"normalization = {run['normalization']}",
                  f"normalization_shift = {1.0 if shift_scale else 0.0}",
                  f"normalization_scale = {0.5 if shift_scale else 1.0}",
                  "outputs = component_00.wav component_01.wav component_10.wav "
                  "component_11.wav manifest.txt metrics.csv"]
    else:
        kernel = inputs[1] if len(inputs) > 1 else run["kernel"]
        lines += [f"kernel = {kernel}", f"kernel_domain = {domain}",
                  f"sample_rate = {run['rate']}", f"chunk_size = {n}",
                  f"padded_length = {2 * n}", f"num_chunks = {chunks}",
                  f"tail_padding = {chunks * n - total}", "shots = exact", "seed = 0",
                  f"workers = {argv[argv.index('--workers') + 1]}",
                  f"normalization = {run['normalization']}",
                  "outputs = convolved.wav manifest.txt metrics.csv"]
    return lines


# -- the checks -----------------------------------------------------------------------------

def check_wav(path, want, rate):
    """A canonical 44-byte-header mono 16-bit WAV at `rate` whose codes lie within 1 LSB of
    the samples `want`, clipped to full scale."""
    with wave.open(str(path), "rb") as fh:
        assert (fh.getnchannels(), fh.getsampwidth(), fh.getframerate()) == (1, 2, rate)
        assert fh.getcomptype() == "NONE" and fh.getnframes() == want.size
        codes = np.frombuffer(fh.readframes(want.size), dtype="<i2")
    assert os.path.getsize(path) == 44 + 2 * want.size
    ideal = np.clip(np.clip(want, -1.0, 1.0) * 32768.0, -32768.0, 32767.0)
    assert np.abs(codes - ideal).max() <= 1.0, path


def call(argv) -> str:
    """main(argv)'s stdout; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return out.getvalue()


def run_cli(run, work):
    inputs = [write_input(os.path.join(work, f"in_{role}"), kind, raw, run["rate"])
              for role, kind, raw in zip("fg", run["kinds"], run["raw"])]
    rows = [chunk_rows(decoded(kind, raw), run["chunk_size"], run["normalization"])
            for kind, raw in zip(run["kinds"], run["raw"])]
    flags = ["--chunk-size", str(run["chunk_size"]), "--normalization", run["normalization"],
             "--sample-rate", str(run["rate"])]
    if run["command"] == "convolve":
        check_convolve(run, work, inputs, rows[0], flags)
    else:
        check_multiply(run, work, inputs, rows, flags)


def check_multiply(run, work, inputs, rows, flags):
    n = run["chunk_size"]
    channels, columns = multiply_model(run, *rows)
    flags = [*flags, "--seed", str(run["seed"])]
    if run["shots"] is not None:
        flags += ["--shots", str(run["shots"])]
    written = []
    for workers in (1, 2, 3):
        out = os.path.join(work, f"out_{workers}")
        argv = ["multiply", *inputs, *flags, "--workers", str(workers), "--out", out]
        # a floor of one chunk per thread, so two and three workers split the chunks
        with mock.patch.object(qwave.audio, "_MIN_RANGE_AMPLITUDES", 1), \
                mock.patch.object(qwave.audio, "_MIN_RANGE_DRAWS", 1):
            stdout = call(argv)
        shots = run["shots"] or "exact"
        assert stdout == "".join(
            f"{line}\n" for line in [f"multiply: {len(rows[0])} chunks x {n} samples, "
                                     f"shots={shots}",
                                     *(f"  component_{c}.wav" for c in COMPONENTS),
                                     f"  metrics.csv manifest.txt -> {out}"])
        assert sorted(os.listdir(out)) == [*(f"component_{c}.wav" for c in COMPONENTS),
                                           "manifest.txt", "metrics.csv"]
        for c in COMPONENTS:
            check_wav(os.path.join(out, f"component_{c}.wav"), channels[c], run["rate"])
        lines = Path(out, "metrics.csv").read_text().splitlines()
        assert lines[0] == METRICS_HEADER and len(lines) == len(rows[0]) + 1
        for i, line in enumerate(lines[1:]):
            fields = line.split(",")
            assert fields[:3] == [str(i), str(shots), str(run["seed"])]
            assert fields[6:] == ["1", "1"]  # no chunk is rescaled
            if run["shots"] is None:
                assert fields[3:5] == ["0", "100"]
            got = np.array(fields[3:6], dtype=np.float64)
            want = [column[i] for column in columns]
            np.testing.assert_allclose(got, want, rtol=1e-8, atol=1e-12)
        assert Path(out, "manifest.txt").read_text().splitlines() == manifest_lines(
            run, argv, inputs)
        written.append([Path(out, name).read_bytes() for name in sorted(os.listdir(out))
                        if name != "manifest.txt"])
    assert written[0] == written[1] == written[2]


def check_convolve(run, work, inputs, x, flags):
    kernel = run["kernel"]
    if "taps" in run:
        kernel = os.path.join(work, "kernel.txt")
        np.savetxt(kernel, run["taps"])
        inputs = [*inputs, kernel]
    want, domain = convolve_model(run, x)
    written = []
    for workers in (1, 2, 3):
        out = os.path.join(work, f"out_{workers}")
        argv = ["convolve", inputs[0], "--kernel", kernel, "--kernel-domain",
                run["kernel_domain"], *flags, "--workers", str(workers), "--out", out]
        # a floor of one chunk per thread, so two and three workers split the chunks
        with mock.patch.object(qwave.audio, "_MIN_RANGE_AMPLITUDES", 1):
            stdout = call(argv)
        assert stdout.startswith(f"convolve: {len(x)} chunks, kernel {kernel} "
                                 f"({domain} domain), worst rel l2 vs oracle ")
        assert stdout.endswith(f"\n  convolved.wav metrics.csv manifest.txt -> {out}\n")
        assert sorted(os.listdir(out)) == ["convolved.wav", "manifest.txt", "metrics.csv"]
        check_wav(os.path.join(out, "convolved.wav"), want, run["rate"])
        lines = Path(out, "metrics.csv").read_text().splitlines()
        assert lines[0] == "chunk_index,rel_l2_vs_oracle" and len(lines) == len(x) + 1
        for i, (line, row) in enumerate(zip(lines[1:], x)):
            index, rel = line.split(",")
            assert index == str(i)
            if row.any():
                assert 0.0 <= float(rel) < 1e-9
            else:
                assert rel == "0"  # an all-zero chunk's reference has no norm to divide by
        assert Path(out, "manifest.txt").read_text().splitlines() == manifest_lines(
            run, argv, inputs, domain)
        written.append([stdout.replace(out, "OUT").encode()] + [
            Path(out, name).read_bytes() for name in ("convolved.wav", "metrics.csv")])
    assert written[0] == written[1] == written[2]


@pytest.mark.filterwarnings("ignore:.*averaging 2 channels to mono:UserWarning")
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(run=runs())
def test_cli_outputs_match_the_numpy_model(tmp_path, run):
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        run_cli(run, work)


# -- refused runs ---------------------------------------------------------------------------

# (commands, the fault, a fragment of its one error line). A fault is flags appended to a
# valid argv, whose last value of a flag wins; "-" names a fault in the signal file instead.
FAULTS = [
    ("mc", ["--chunk-size", "3"], "--chunk-size must be a power of two >= 2, got 3"),
    ("mc", ["--chunk-size", str(2**40)], "--chunk-size 1099511627776 exceeds 2**(MAX_QUBITS-2)"),
    ("mc", ["--workers", "0"], "--workers must be >= 1, got 0"),
    ("mc", ["--sample-rate", "0"], "--sample-rate must be in [1, 2147483647], got 0"),
    ("mc", ["-", "missing.txt"], "missing.txt: no such file"),
    ("mc", ["-", "negative.txt", "--normalization", "assume-positive"],
     "assume-positive input has 1 negative samples, first at index 1 (value -0.25)"),
    ("m", ["--seed", "-1"], "--seed must be >= 0, got -1"),
    ("c", ["--shots", "10"], "convolve runs on the exact statevector"),
    ("c", ["--seed", "9"], "convolve draws no samples; --seed must be 0, got 9"),
    ("c", ["--kernel", " "], "--kernel ' ' is blank"),
    ("c", ["--kernel", "moving-average-65"], "moving-average width 65 must be in [1, "),
    ("c", ["--kernel", "low-pass-2", "--kernel-domain", "time"],
     "--kernel-domain time contradicts --kernel low-pass-2"),
    ("c", ["--kernel", "long.txt", "--kernel-domain", "time"], "kernel length 65 exceeds"),
    ("c", ["--kernel", "long.txt", "--kernel-domain", "fourier"],
     "Fourier-domain kernel must have exactly"),
]


@pytest.mark.parametrize("commands, extra, message", FAULTS,
                         ids=[" ".join(fault[1]) for fault in FAULTS])
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_refused_runs_print_one_error_line_and_make_no_out(tmp_path, capsys, commands, extra,
                                                           message, data):
    run = data.draw(runs(["multiply" if c == "m" else "convolve" for c in commands]))
    with tempfile.TemporaryDirectory(dir=tmp_path) as work:
        inputs = [write_input(os.path.join(work, f"in_{role}"), kind, raw, run["rate"])
                  for role, kind, raw in zip("fg", run["kinds"], run["raw"])]
        np.savetxt(os.path.join(work, "negative.txt"), [0.5, -0.25, 0.5])
        np.savetxt(os.path.join(work, "long.txt"), np.full(65, 0.5))  # longer than any chunk
        if extra[0] == "-":
            inputs[0], extra = os.path.join(work, extra[1]), extra[2:]
        extra = [os.path.join(work, a) if a.endswith(".txt") else a for a in extra]
        out = os.path.join(work, "out")
        argv = [run["command"], *inputs, "--chunk-size", str(run["chunk_size"]),
                "--normalization", run["normalization"], "--sample-rate", str(run["rate"])]
        if run["command"] == "convolve":
            argv += ["--kernel", "identity"]
        else:
            argv += ["--seed", str(run["seed"])]
        capsys.readouterr()
        assert main([*argv, *extra, "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert message in captured.err
        assert not os.path.exists(out)

"""End-to-end runs of the command-line interface."""

import builtins
import errno
import hashlib
import io
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

import qwave.audio
import qwave.cli
import qwave.pipelines
from qwave import (
    MAX_QUBITS,
    METRICS_CSV_HEADER,
    STANDARD_TEST_PAIR,
    AudioBuffer,
    SignalChunk,
    classical_circular_convolution,
    classical_dft,
    convolve_optimized,
    convolve_via_theorem,
    decode_component,
    extract_component,
    fidelity_percent,
    load_wav,
    make_chunks,
    normalize_for_encoding,
    pipelines,
    pointwise_multiply_state,
    process_chunks,
    rmsd_percent,
    run_selftest,
    sample_counts,
    write_wav,
)
from qwave.audio import CONVOLVE_CSV, build_kernel, csv_table
from qwave.cli import main
from reference import convolve_by_gates, per_channel_wav_bytes

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench.bench_workloads import WORKLOADS  # noqa: E402

RNG = np.random.default_rng(662)


def tone_wav(path, seconds=0.02, rate=8000, freq=440.0, base=0.5, depth=0.4):
    t = np.arange(int(seconds * rate)) / rate
    samples = base + depth * np.sin(2 * np.pi * freq * t)
    write_wav(path, AudioBuffer(samples, rate))
    return load_wav(path)


def read_lines(path):
    with open(path) as fh:
        return fh.read().splitlines()


def test_multiply_exact(tmp_path, capsys):
    f = tone_wav(tmp_path / "f.wav", freq=440)
    g = tone_wav(tmp_path / "g.wav", freq=554)
    out = tmp_path / "out"
    code = main(["multiply", str(tmp_path / "f.wav"), str(tmp_path / "g.wav"),
                 "--out", str(out)])
    assert code == 0
    product = load_wav(out / "component_00.wav")
    assert np.abs(product.samples - f.samples * g.samples).max() <= 1 / 32768 + 1e-9
    for name in ("component_01.wav", "component_10.wav", "component_11.wav",
                 "metrics.csv", "manifest.txt"):
        assert (out / name).exists()
    manifest = dict(
        line.split(" = ", 1) for line in read_lines(out / "manifest.txt")
    )
    assert manifest["command"] == "multiply"
    assert manifest["shots"] == "exact"
    assert manifest["chunk_size"] == "8"
    assert len(manifest["input_f_sha256"]) == 64
    assert "multiply" in capsys.readouterr().out


def test_multiply_shot_mode_deterministic(tmp_path):
    tone_wav(tmp_path / "f.wav")
    tone_wav(tmp_path / "g.wav", freq=660)
    args = ["multiply", str(tmp_path / "f.wav"), str(tmp_path / "g.wav"),
            "--shots", "2000", "--seed", "11"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("component_00.wav", "component_01.wav", "component_10.wav",
                 "component_11.wav", "metrics.csv", "manifest.txt"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_multiply_rejects_mismatched_lengths(tmp_path, capsys):
    tone_wav(tmp_path / "f.wav", seconds=0.02)
    tone_wav(tmp_path / "g.wav", seconds=0.03)
    code = main(["multiply", str(tmp_path / "f.wav"), str(tmp_path / "g.wav"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "differ in length" in capsys.readouterr().err


def test_multiply_rejects_negative_in_assume_positive(tmp_path, capsys):
    t = np.arange(160) / 8000
    write_wav(tmp_path / "f.wav", AudioBuffer(0.4 * np.sin(2 * np.pi * 440 * t), 8000))
    tone_wav(tmp_path / "g.wav")
    code = main(["multiply", str(tmp_path / "f.wav"), str(tmp_path / "g.wav"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "negative" in capsys.readouterr().err


def test_multiply_reads_checks_and_chunks_f_before_reading_g(tmp_path, capsys):
    # two faults, a negative sample in f and a missing g: f's is the one reported
    write_wav(tmp_path / "f.wav", AudioBuffer(np.array([0.5, -0.25, 0.5]), 8000))
    code = main(["multiply", str(tmp_path / "f.wav"), str(tmp_path / "missing_g.wav"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == ("error: assume-positive input has 1 negative samples, "
                                       "first at index 1 (value -0.25)\n")
    assert not (tmp_path / "out").exists()


def test_multiply_shift_scale_accepts_signed(tmp_path):
    t = np.arange(37) / 8000
    f = 0.4 * np.sin(2 * np.pi * 440 * t)
    g = RNG.uniform(-0.9, 0.9, t.size)
    # -1.0 encodes as 0.0 and 0.0 as 0.5: f*g of 0.0 and f*g~ of 0.5 are remapped
    # to -1.0 and 0.0, f~*g~ of 1.0 to full scale, which clips to the top code
    f[:2], g[:2] = (-1.0, 0.0), (-1.0, -1.0)
    write_wav(tmp_path / "f.wav", AudioBuffer(f, 8000))
    write_wav(tmp_path / "g.wav", AudioBuffer(g, 8000))
    plans = [make_chunks(normalize_for_encoding(load_wav(tmp_path / name), "shift-scale")[0], 8)
             for name in ("f.wav", "g.wav")]
    for shots in ("exact", "300"):
        out = tmp_path / shots
        code = main(["multiply", str(tmp_path / "f.wav"), str(tmp_path / "g.wav"),
                     "--normalization", "shift-scale", "--shots", shots, "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        quad = process_chunks(*plans, shots=None if shots == "exact" else 300, seed=1)
        for key, values in quad.components.items():
            assert (out / f"component_{key}.wav").read_bytes() == per_channel_wav_bytes(
                values, 8000, shift_scale=True), (shots, key)
    exact = {key: load_wav(tmp_path / "exact" / f"component_{key}.wav").samples
             for key in ("00", "01", "11")}
    assert exact["00"][0] == -1.0
    assert exact["01"][1] == pytest.approx(0.0, abs=1e-4)
    assert exact["11"][0] == 1.0 - 1 / 32768


def test_multiply_text_inputs(tmp_path):
    f = RNG.uniform(0.1, 0.9, 16)
    g = RNG.uniform(0.1, 0.9, 16)
    np.savetxt(tmp_path / "f.txt", f)
    np.savetxt(tmp_path / "g.txt", g)
    out = tmp_path / "out"
    code = main(["multiply", str(tmp_path / "f.txt"), str(tmp_path / "g.txt"),
                 "--chunk-size", "4", "--out", str(out)])
    assert code == 0
    product = load_wav(out / "component_00.wav")
    assert product.sample_rate == 8000
    assert np.abs(product.samples - f * g).max() <= 1 / 32768 + 1e-6


def test_convolve_identity(tmp_path):
    buf = tone_wav(tmp_path / "f.wav")
    out = tmp_path / "out"
    code = main(["convolve", str(tmp_path / "f.wav"), "--kernel", "identity",
                 "--out", str(out)])
    assert code == 0
    back = load_wav(out / "convolved.wav")
    assert np.abs(back.samples - buf.samples).max() <= 1 / 32768 + 1e-9
    lines = read_lines(out / "metrics.csv")
    assert lines[0] == "chunk_index,rel_l2_vs_oracle"
    worst = max(float(line.split(",")[1]) for line in lines[1:])
    assert worst < 1e-9


def test_convolve_moving_average(tmp_path):
    buf = tone_wav(tmp_path / "f.wav")
    out = tmp_path / "out"
    code = main(["convolve", str(tmp_path / "f.wav"),
                 "--kernel", "moving-average-2", "--out", str(out)])
    assert code == 0
    back = load_wav(out / "convolved.wav")
    # inside each chunk (away from the dropped tail) the output is the
    # 2-sample mean of the padded chunk signal
    expected = 0.5 * (buf.samples[8:10] + np.array([buf.samples[7], buf.samples[8]]))
    got = back.samples[8:10]
    assert np.abs(got[1] - expected[1]).max() <= 1 / 32768 + 1e-9


def test_convolve_low_pass_kernel_shape():
    kernel, domain, _, padded_len = build_kernel("low-pass-2", 8)
    assert domain == "fourier"
    assert kernel.size == padded_len == 16
    assert np.abs(kernel.imag).max() < 1e-12  # symmetric bins give a real kernel


def test_convolve_rejects_shot_mode(tmp_path, capsys):
    tone_wav(tmp_path / "f.wav")
    code = main(["convolve", str(tmp_path / "f.wav"), "--kernel", "identity",
                 "--shots", "100", "--out", str(tmp_path / "out")])
    assert code == 1
    assert "exact" in capsys.readouterr().err


def test_convolve_rejects_long_kernel(tmp_path, capsys):
    tone_wav(tmp_path / "f.wav")
    np.savetxt(tmp_path / "k.txt", np.ones(9) / 9)
    code = main(["convolve", str(tmp_path / "f.wav"), "--kernel",
                 str(tmp_path / "k.txt"), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "exceeds chunk size" in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--workers", "0"], "--workers must be >= 1, got 0"),
    (["--seed", "9"], "convolve draws no samples; --seed must be 0, got 9"),
    (["--workers", "3", "--seed", "9"], "convolve draws no samples"),
], ids=["workers", "seed", "both"])
def test_convolve_rejects_workers_and_seed_before_loading(tmp_path, capsys, flags, message):
    # the input does not exist: the flag check must fire before anything is read
    code = main(["convolve", str(tmp_path / "missing.txt"), "--kernel", "identity",
                 *flags, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_convolve_accepts_explicit_defaults_with_same_manifest(tmp_path):
    tone_wav(tmp_path / "f.wav")
    base = ["convolve", str(tmp_path / "f.wav"), "--kernel", "identity"]
    assert main(base + ["--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--workers", "1", "--seed", "0", "--out", str(tmp_path / "b")]) == 0
    manifest = (tmp_path / "a" / "manifest.txt").read_bytes()
    assert manifest == (tmp_path / "b" / "manifest.txt").read_bytes()
    assert b"\nseed = 0\nworkers = 1\n" in manifest


@pytest.mark.parametrize("command", ["multiply", "convolve", "shot-sweep"])
def test_manifest_names_python_numpy_and_sampler_byte_identically(tmp_path, command):
    # criterion 8 compares manifests across runs, so what they record of the
    # environment must be deterministic too
    tone_wav(tmp_path / "f.wav")
    tone_wav(tmp_path / "g.wav", freq=660)
    f, g = str(tmp_path / "f.wav"), str(tmp_path / "g.wav")
    argv = {"multiply": ["multiply", f, g, "--shots", "200", "--seed", "4"],
            "convolve": ["convolve", f, "--kernel", "moving-average-4"],
            "shot-sweep": ["shot-sweep", "--num-seeds", "2", "--shots-list", "10,exact"]}[command]
    for out in ("a", "b"):
        assert main(argv + ["--out", str(tmp_path / out)]) == 0
    blob = (tmp_path / "a" / "manifest.txt").read_bytes()
    assert blob == (tmp_path / "b" / "manifest.txt").read_bytes()
    manifest = dict(line.split(" = ", 1) for line in blob.decode().splitlines())
    assert manifest["manifest_version"] == "4"
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    # only the commands that can draw shots name the sampling rule
    assert manifest.get("sampler") == (None if command == "convolve" else "philox-inverse-cdf/1")


@pytest.mark.parametrize("run", ["multiply", "convolve-built-in", "convolve-time-file",
                                 "convolve-fourier-file", "shot-sweep-built-in",
                                 "shot-sweep-files"])
def test_manifest_lists_every_output_and_hashes_every_input_file(tmp_path, run):
    """The version and environment, the command, input_<role> and its sha256 per file
    read, the entries, then `outputs`: the sorted names of everything in --out."""
    tone_wav(tmp_path / "f.wav")
    np.savetxt(tmp_path / "g.txt", RNG.uniform(0.1, 0.9, 160))
    np.savetxt(tmp_path / "k.txt", RNG.uniform(-1.0, 1.0, 3))
    for name in ("s.txt", "t.txt"):
        np.savetxt(tmp_path / name, RNG.uniform(0.1, 0.9, 8))
    f, g, k, s, t = (str(tmp_path / name) for name in ("f.wav", "g.txt", "k.txt", "s.txt",
                                                       "t.txt"))
    bins = file_kernel(tmp_path / "k16.txt", "fourier", 16, RNG)
    sweep = ["shot-sweep", "--num-seeds", "2", "--shots-list", "10,exact"]
    argv, inputs = {
        "multiply": (["multiply", f, g], {"f": f, "g": g}),
        "convolve-built-in": (["convolve", f, "--kernel", "moving-average-4"], {"f": f}),
        "convolve-time-file": (["convolve", g, "--kernel", k, "--kernel-domain", "time"],
                               {"f": g, "kernel": k}),
        "convolve-fourier-file": (["convolve", f, "--kernel", bins, "--kernel-domain",
                                   "fourier"], {"f": f, "kernel": bins}),
        "shot-sweep-built-in": (sweep, {}),
        "shot-sweep-files": ([*sweep, "--signal-f", s, "--signal-g", t], {"f": s, "g": t}),
    }[run]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    lines = [line.split(" = ", 1) for line in read_lines(out / "manifest.txt")]
    keys, manifest = [key for key, _ in lines], dict(lines)
    assert keys[:5] == ["manifest_version", "tool", "python", "numpy", "command"]
    assert manifest["command"] == argv[0]
    hashed = [f"input_{role}{suffix}" for role in inputs for suffix in ("", "_sha256")]
    assert keys[5 : 5 + len(hashed)] == hashed
    assert [key for key in keys if key.startswith("input_")] == hashed
    for role, path in inputs.items():
        assert manifest[f"input_{role}"] == path
        with open(path, "rb") as fh:
            assert manifest[f"input_{role}_sha256"] == hashlib.sha256(fh.read()).hexdigest()
    assert ("signals" in manifest) == (run == "shot-sweep-built-in")
    assert keys[-1] == "outputs"
    assert manifest["outputs"].split(" ") == sorted(os.listdir(out))


@pytest.mark.parametrize("content", ["", "  \n\n"], ids=["empty", "blank-lines"])
def test_empty_text_input_is_a_shape_error(tmp_path, capsys, content):
    empty = tmp_path / "empty.txt"
    empty.write_text(content)
    code = main(["multiply", str(empty), str(empty), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: {empty}: contains no samples\n"
    assert not (tmp_path / "out").exists()


def test_empty_kernel_file_names_the_flag_and_file(tmp_path, capsys):
    tone_wav(tmp_path / "f.wav")
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's loadtxt warning must not surface
        code = main(["convolve", str(tmp_path / "f.wav"), "--kernel", str(empty),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: --kernel {empty}: contains no samples\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec", ["", "   "], ids=["empty", "spaces"])
def test_blank_kernel_is_refused_before_any_file_is_read(tmp_path, capsys, spec):
    # the signal does not exist, so a read would fail with "no such file"
    code = main(["convolve", str(tmp_path / "missing.wav"), "--kernel", spec,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: --kernel {spec!r} is blank; name a built-in or a kernel file\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values, domain, message", [
    ("1e-320 2e-320", "time", "cannot rescale a peak |value| of 3e-320"),
    ("1e308 1e308", "time", "cannot rescale a peak |value| of inf"),
    (" ".join(["1e308"] * 16), "fourier", "its inverse transform is not finite"),
], ids=["factor-overflows", "spectrum-overflows", "inverse-transform-overflows"])
def test_unencodable_kernel_file_names_the_file(tmp_path, capsys, values, domain, message):
    tone_wav(tmp_path / "f.wav")
    kernel = tmp_path / "kernel.txt"
    kernel.write_text(values + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's FFT overflow warnings
        code = main(["convolve", str(tmp_path / "f.wav"), "--kernel", str(kernel),
                     "--kernel-domain", domain, "--out", str(tmp_path / "out")])
    assert code == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith(f"error: --kernel {kernel}: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("values, domain, message", [
    ("1e308 1e308", "time", "cannot rescale a peak |value| of inf"),
    (" ".join(["1e308"] * 16), "fourier", "its inverse transform is not finite"),
    ("1.7e308", "time", "rel_l2_vs_oracle of chunk 0 is nan"),
], ids=["spectrum-overflows", "inverse-transform-overflows", "reference-overflows"])
def test_overflowing_kernel_prints_one_error_line(tmp_path, values, domain, message):
    """A fresh interpreter's whole stderr is the error line: no numpy warning precedes it."""
    signal = tmp_path / "sig.txt"
    signal.write_text(" ".join(["0.5"] * 16) + "\n")
    kernel = tmp_path / "kernel.txt"
    kernel.write_text(values + "\n")
    src = str(Path(qwave.audio.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "qwave.cli", "convolve", str(signal), "--kernel", str(kernel),
         "--kernel-domain", domain, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 1
    assert run.stdout == ""
    assert len(run.stderr.splitlines()) == 1
    assert run.stderr.startswith(f"error: --kernel {kernel}: {message}")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["multiply", "convolve"])
@pytest.mark.parametrize("channels", [1, 2], ids=["mono", "stereo"])
def test_zero_frame_wav_names_the_file(tmp_path, capsys, command, channels):
    empty = tmp_path / "empty.wav"
    wavfile.write(empty, 8000, np.zeros((0, channels) if channels > 1 else 0, np.int16))
    inputs = [str(empty)] * 2 if command == "multiply" else [str(empty), "--kernel", "identity"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no stereo-averaging warning first
        code = main([command, *inputs, "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {empty}: contains no samples\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("names", [["st", "mono"], ["st", "st2"], ["st", "st"]],
                         ids=["one-stereo-input", "two-stereo-inputs", "one-stereo-input-twice"])
def test_each_stereo_input_is_one_warning_line(tmp_path, capsys, names):
    """Each input averaged to mono is one `warning:` line on stderr, not Python's
    file:line warning and its source line, and main hands the caller its warning filters
    and showwarning back as it found them."""
    for name in ("st", "st2", "mono"):
        shape = 64 if name == "mono" else (64, 2)
        wavfile.write(tmp_path / f"{name}.wav", 8000, np.full(shape, 16384, np.int16))
    inputs = [str(tmp_path / f"{name}.wav") for name in names]
    state = warnings.filters[:], warnings.showwarning, warnings.defaultaction
    for _ in range(2):  # no line is deduplicated, in one call or the next
        assert main(["multiply", *inputs, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == "".join(
            f"warning: {path}: averaging 2 channels to mono\n"
            for path, name in zip(inputs, names) if name != "mono")
    assert (warnings.filters, warnings.showwarning, warnings.defaultaction) == state


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_float_wav_names_the_file_and_sample(tmp_path, capsys, bad):
    path = tmp_path / "f.wav"
    wavfile.write(path, 8000, np.array([0.5, bad, 0.25], dtype=np.float32))
    code = main(["multiply", str(path), str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: sample 1 is not finite ({bad})\n"
    assert not (tmp_path / "out").exists()


def test_unsupported_wav_format_names_the_file(tmp_path, capsys):
    path = tmp_path / "u8.wav"
    wavfile.write(path, 8000, np.full(16, 128, dtype=np.uint8))
    code = main(["convolve", str(path), "--kernel", "identity", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {path}: unsupported WAV sample format uint8; need int16 PCM or float32\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("blob, message", [
    (b"not a wav file\n", "not a little-endian RIFF WAVE file"),
    (b"RIFX" + bytes(4) + b"WAVE", "RIFX and RF64 are not read"),
    (b"RF64" + bytes(4) + b"WAVE", "RIFX and RF64 are not read"),
    (b"RIFF" + bytes(4) + b"WAVEdata" + bytes(4), "no 'fmt ' chunk"),
    (b"RIFF" + bytes(4) + b"WAVEfmt \x10\0\0\0\x01\0\x01\0@\x1f\0\0\x80>\0\0\x02\0\x10\0",
     "no 'data' chunk"),
    (b"RIFF" + bytes(4) + b"WAVEfmt \x10\0\0\0\x06\0\x01\0@\x1f\0\0@\x1f\0\0\x01\0\x08\0"
     b"data\x04\0\0\0abcd", "unsupported WAV format tag 0x0006"),
    (b"RIFF" + bytes(4) + b"WAVEfmt \x10\0\0\0\x01\0\x01\0@\x1f\0\0\x80>\0\0\x02\0\x10\0"
     b"data\x10\0\0\0abcd", "data chunk is truncated: its header says 16 bytes, "
                             "the file holds 4"),
], ids=["text", "rifx", "rf64", "no-fmt", "no-data", "alaw", "truncated"])
def test_malformed_wav_is_one_error_line(tmp_path, capsys, blob, message):
    path = tmp_path / "junk.wav"
    path.write_bytes(blob)
    code = main(["multiply", str(path), str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("content", ["word", "ragged", "wav"])
@pytest.mark.parametrize("route", ["multiply", "convolve-kernel", "shot-sweep"])
def test_malformed_numeric_text_is_one_error_line(tmp_path, capsys, route, content):
    """A word that is not a number, ragged rows, or WAV bytes in a file read as numeric text."""
    bad = tmp_path / "x.dat"
    if content == "wav":
        tone_wav(bad)
    else:
        bad.write_text({"word": "0.5 0.25\n0.5 abc\n", "ragged": "0.5 0.25\n0.5\n"}[content])
    np.savetxt(tmp_path / "f.txt", [0.5, 0.6, 0.7, 0.8])
    f_txt = str(tmp_path / "f.txt")
    argv, label = {
        "multiply": (["multiply", str(bad), f_txt], bad),
        "convolve-kernel": (["convolve", f_txt, "--kernel", str(bad)], f"--kernel {bad}"),
        "shot-sweep": (["shot-sweep", "--signal-f", str(bad), "--signal-g", f_txt], bad),
    }[route]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {label}: not numeric text (") and err.count("\n") == 1
    assert not out.exists()


def test_multiply_writes_metrics_csv_without_metrics_rows(tmp_path, monkeypatch):
    tone_wav(tmp_path / "f.wav")
    tone_wav(tmp_path / "g.wav", freq=660)
    inputs = [str(tmp_path / "f.wav"), str(tmp_path / "g.wav")]
    plan_f, plan_g = (make_chunks(load_wav(p).samples, 8) for p in inputs)
    expected = [METRICS_CSV_HEADER] + [
        m.csv_row() for m in process_chunks(plan_f, plan_g, shots=500, seed=3).metrics]

    def refuse(*args, **kwargs):
        raise AssertionError("metrics.csv must be written from the columns")

    monkeypatch.setattr(qwave.pipelines, "MetricsReport", refuse)
    assert main(["multiply", *inputs, "--shots", "500", "--seed", "3",
                 "--out", str(tmp_path / "out")]) == 0
    assert read_lines(tmp_path / "out" / "metrics.csv") == expected


@pytest.mark.parametrize("kernel, domain, own", [
    ("identity", "fourier", "time"),
    ("shift-1", "fourier", "time"),
    ("moving-average-2", "fourier", "time"),
    ("low-pass-1", "time", "fourier"),
])
def test_kernel_domain_contradicting_a_builtin_fails_before_loading(tmp_path, capsys, kernel,
                                                                    domain, own):
    # the input does not exist: the contradiction must fire before anything is read
    code = main(["convolve", str(tmp_path / "missing.wav"), "--kernel", kernel,
                 "--kernel-domain", domain, "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: --kernel-domain {domain} contradicts --kernel {kernel}, "
        f"a {own}-domain built-in\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kernel, own", [("moving-average-2", "time"), ("low-pass-1", "fourier")])
def test_kernel_domain_matching_a_builtin_keeps_the_outputs(tmp_path, kernel, own):
    tone_wav(tmp_path / "f.wav")
    base = ["convolve", str(tmp_path / "f.wav"), "--kernel", kernel]
    assert main(base + ["--out", str(tmp_path / "a")]) == 0
    assert main(base + ["--kernel-domain", own, "--out", str(tmp_path / "b")]) == 0
    for name in ("convolved.wav", "metrics.csv", "manifest.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert f"\nkernel_domain = {own}\n" in (tmp_path / "a" / "manifest.txt").read_text()


def one_chunk_convolve(samples, kernel, chunk_size):
    """convolved samples and metrics.csv text of convolve, one chunk's gates at a time."""
    padded_len = 2 * chunk_size
    num_chunks = -(-samples.size // chunk_size)
    padded = np.zeros(num_chunks * chunk_size)
    padded[: samples.size] = samples
    pieces, lines = [], ["chunk_index,rel_l2_vs_oracle"]
    for i in range(num_chunks):
        chunk = SignalChunk.from_values(padded[i * chunk_size : (i + 1) * chunk_size])
        result = convolve_by_gates(chunk, kernel, padded_len)
        spectrum = np.fft.fft(chunk.values, padded_len) * np.fft.fft(kernel, padded_len)
        reference = np.fft.ifft(spectrum)
        denom = float(np.linalg.norm(reference))
        rel = float(np.linalg.norm(result - reference)) / denom if denom else 0.0
        lines.append(f"{i},{rel:.10g}")
        pieces.append(result[:chunk_size].real / chunk.scale)
    return np.concatenate(pieces)[: samples.size], lines


# rel_l2_vs_oracle values at the edges of %.10g's forms: zero, subnormals,
# tiny and huge exponents, and ties at the tenth digit
_REL_L2 = st.one_of(
    st.floats(0.0, 1e300, allow_subnormal=True),
    st.floats(0.0, 1e-300, allow_subnormal=True),
    st.sampled_from([0.0, 5e-324, 2.2e-308, 1e-17, 1e-5, 1e-4, 0.5, 1.0, 9999999999.5, 1e16]),
)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 300).flatmap(lambda k: st.lists(_REL_L2, min_size=k, max_size=k)))
def test_convolve_metrics_csv_equals_str_format_rows(rel):
    # the rows str.format wrote before the one-pass %-format
    rows = map("{},{:.10g}\n".format, range(len(rel)), rel)
    table = csv_table(CONVOLVE_CSV, [range(len(rel)), np.array(rel)])
    assert table == "chunk_index,rel_l2_vs_oracle\n" + "".join(rows)


@pytest.mark.parametrize("chunk_size", [2, 8, 32])
@pytest.mark.parametrize("spec", ["identity", "moving-average-2", "shift-1", "low-pass-1",
                                  "file"])
def test_convolve_outputs_equal_one_chunk_formula(tmp_path, chunk_size, spec):
    buf = tone_wav(tmp_path / "f.wav", seconds=0.0123)
    if spec == "file":
        spec = str(tmp_path / "k.txt")
        np.savetxt(spec, RNG.uniform(-1, 1, chunk_size))
    kernel, _, _, _ = build_kernel(spec, chunk_size)
    out = tmp_path / "out"
    assert main(["convolve", str(tmp_path / "f.wav"), "--kernel", spec,
                 "--chunk-size", str(chunk_size), "--out", str(out)]) == 0
    convolved, lines = one_chunk_convolve(buf.samples, kernel, chunk_size)
    assert read_lines(out / "metrics.csv") == lines
    expected = tmp_path / "expected.wav"
    write_wav(expected, AudioBuffer(np.clip(convolved, -1.0, 1.0), buf.sample_rate))
    assert (out / "convolved.wav").read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("chunk_size", [8, 32])
@pytest.mark.parametrize("spec", ["moving-average-2", "low-pass-1", "file"])
def test_convolve_outputs_equal_one_chunk_formula_in_row_blocks(tmp_path, monkeypatch,
                                                                chunk_size, spec):
    # 80 amplitudes per block: convolve_blocks runs two chunks of 8 (32
    # amplitudes each) or one chunk of 32 per block, with a short last block
    monkeypatch.setattr(pipelines, "_CHUNK_BLOCK", 80)
    test_convolve_outputs_equal_one_chunk_formula(tmp_path, chunk_size, spec)


def file_kernel(path, domain, padded_len, rng):
    """A random kernel file: up to chunk_size time samples, or padded_len real bins."""
    size = padded_len if domain == "fourier" else int(rng.integers(1, padded_len // 2 + 1))
    np.savetxt(path, rng.uniform(-1.0, 1.0, size))
    return str(path)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 6), num_chunks=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["identity", "shift", "moving-average", "low-pass", "time",
                             "fourier"]), data=st.data())
def test_oracle_column_equals_brute_force_distance(n, num_chunks, seed, kind, data):
    chunk_size, padded_len = 1 << n, 2 << n
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        signal = AudioBuffer(rng.uniform(0.0, 1.0, num_chunks * chunk_size - 1), 8000)
        write_wav(work / "f.wav", signal)
        domain = kind if kind in ("time", "fourier") else "auto"
        spec = {
            "identity": lambda: "identity",
            "shift": lambda: f"shift-{data.draw(st.integers(0, chunk_size - 1))}",
            "moving-average": lambda: f"moving-average-{data.draw(st.integers(1, chunk_size))}",
            "low-pass": lambda: f"low-pass-{data.draw(st.integers(0, chunk_size))}",
            "time": lambda: file_kernel(work / "k.txt", "time", padded_len, rng),
            "fourier": lambda: file_kernel(work / "k.txt", "fourier", padded_len, rng),
        }[kind]()
        assert main(["convolve", str(work / "f.wav"), "--kernel", spec, "--kernel-domain",
                     domain, "--chunk-size", str(chunk_size), "--out", str(work / "out")]) == 0
        column = [float(line.split(",")[1]) for line in read_lines(work / "out/metrics.csv")[1:]]
        kernel, _, _, _ = build_kernel(spec, chunk_size, domain)
        plan = make_chunks(load_wav(work / "f.wav").samples, chunk_size)
    padded = np.zeros((plan.num_chunks, padded_len), dtype=np.complex128)
    padded[:, :chunk_size] = plan.values
    padded_kernel = np.zeros(padded_len, dtype=np.complex128)
    padded_kernel[: kernel.size] = kernel
    oracle = [classical_circular_convolution(row, padded_kernel) for row in padded]
    blocks = pipelines.convolve_blocks(plan.values, np.fft.fft(kernel, padded_len))
    results = np.concatenate([out for _, out in blocks])
    assert len(column) == plan.num_chunks
    for got, want, row in zip(column, oracle, results):
        denom = np.linalg.norm(want)
        brute = np.linalg.norm(row - want) / denom if denom else 0.0
        assert abs(got - brute) <= 1e-12
        assert got < 1e-9 and brute < 1e-9


@pytest.fixture
def oracles_forbidden(monkeypatch):
    """Make both brute-force oracles raise, through the row summer they share."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a brute-force oracle ran outside the tests")

    monkeypatch.setattr(pipelines, "_sum_rows", forbidden)
    for oracle in (lambda: classical_dft([1.0, 2.0]),
                   lambda: classical_circular_convolution([1.0, 2.0], [3.0, 4.0])):
        with pytest.raises(AssertionError, match="oracle"):
            oracle()


@pytest.mark.parametrize("spec", ["moving-average-4", "low-pass-2", "fourier-file"])
def test_convolve_runs_no_oracle(tmp_path, oracles_forbidden, spec):
    tone_wav(tmp_path / "f.wav")
    domain = "auto"
    if spec == "fourier-file":
        spec, domain = file_kernel(tmp_path / "k.txt", "fourier", 16, RNG), "fourier"
    assert main(["convolve", str(tmp_path / "f.wav"), "--kernel", spec, "--kernel-domain",
                 domain, "--out", str(tmp_path / "out")]) == 0


def test_one_chunk_convolutions_run_no_oracle(oracles_forbidden):
    f = SignalChunk(np.array([0.5, 0.25, 0.125, 0.75]))
    g = SignalChunk(np.array([0.25, 0.5, 0.0, 0.1]))
    assert convolve_via_theorem(f, g, 8).shape == (8,)
    assert convolve_optimized(f, g.values, 8).shape == (8,)


def test_kernel_specs():
    kernel, domain, _, _ = build_kernel("shift-3", 8)
    assert domain == "time"
    assert kernel.tolist() == [0, 0, 0, 1]
    kernel, _, _, _ = build_kernel("moving-average-4", 8)
    assert kernel == pytest.approx(np.full(4, 0.25))
    from qwave import ShapeError

    with pytest.raises(ShapeError):
        build_kernel("shift-8", 8)
    with pytest.raises(ShapeError):
        build_kernel("moving-average-x", 8)


@pytest.mark.parametrize("spec, tail", [
    ("shift-4_0", "4_0"), ("shift-+3", "+3"), ("shift- 3", " 3"), ("shift--1", "-1"),
    ("shift-", ""), ("moving-average-+2", "+2"), ("moving-average-2_0", "2_0"),
    ("low-pass-\u0663", "\u0663"), ("low-pass-\u00b2", "\u00b2"), ("low-pass-1e0", "1e0"),
])
def test_kernel_parameters_are_ascii_decimal_digits(tmp_path, capsys, spec, tail):
    # int() reads "4_0" as 40, "+2" as 2 and an Arabic-Indic three as 3
    message = f"bad kernel spec {spec!r}: {tail!r} is not an integer"
    with pytest.raises(qwave.ShapeError) as info:
        build_kernel(spec, 8)
    assert str(info.value) == message
    tone_wav(tmp_path / "f.wav")
    out = tmp_path / "out"
    assert main(["convolve", str(tmp_path / "f.wav"), "--kernel", spec, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("spec, message", [
    ("shift-8", "shift amount 8 must be in [0, 8)"),
    ("moving-average-0", "moving-average width 0 must be in [1, 8]"),
    ("moving-average-9", "moving-average width 9 must be in [1, 8]"),
    ("low-pass-9", "low-pass cutoff 9 must be in [0, 8]"),
])
def test_kernel_range_errors_name_the_bound(spec, message):
    with pytest.raises(qwave.ShapeError) as info:
        build_kernel(spec, 8)
    assert str(info.value) == message


def test_shot_sweep_default_pair(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["shot-sweep", "--shots-list", "100,1000,exact",
                 "--num-seeds", "3", "--seed", "5", "--out", str(out)])
    assert code == 0
    lines = read_lines(out / "sweep.csv")
    assert lines[0].startswith("shots,log10_shots,rmsd_percent_median")
    assert len(lines) == 4
    row100 = lines[1].split(",")
    row1000 = lines[2].split(",")
    assert float(row100[2]) > float(row1000[2])  # rmsd falls with shots
    assert lines[3].startswith("exact,,0,0,0,100,")
    assert (out / "manifest.txt").exists()
    assert "shots=100" in capsys.readouterr().out


def one_chunk_sweep_rows(f, g, shots_list, num_seeds, seed):
    """sweep.csv's shot rows built seed by seed with the one-chunk API."""
    product = pointwise_multiply_state(SignalChunk.from_values(f), SignalChunk.from_values(g))
    ideal = np.abs(extract_component(product, (0, 0)))
    rows = []
    for shots in shots_list:
        rmsds, fids = [], []
        for i in range(num_seeds):
            counts = sample_counts(product.state, shots, [seed, shots, i])
            rmsds.append(rmsd_percent(decode_component(counts, (0, 0)), ideal))
            fids.append(fidelity_percent(counts, product.state))
        rows.append(f"{shots},{np.log10(shots):.6g},{np.median(rmsds):.10g},"
                    f"{min(rmsds):.10g},{max(rmsds):.10g},{np.median(fids):.10g},"
                    f"{min(fids):.10g},{max(fids):.10g},{num_seeds}")
    return rows


@pytest.mark.parametrize("pair", ["built-in", "file-16"])
def test_shot_sweep_rows_equal_one_chunk_api(tmp_path, monkeypatch, pair):
    # blocks of 64 amplitudes: two seeds a block for the built-in pair, one for 16 samples
    monkeypatch.setattr(pipelines, "_CHUNK_BLOCK", 64)
    rng = np.random.default_rng(16)
    if pair == "built-in":
        f, g = STANDARD_TEST_PAIR
        inputs = []
    else:
        f, g = rng.uniform(0.05, 0.95, (2, 16))
        np.savetxt(tmp_path / "f.txt", f)
        np.savetxt(tmp_path / "g.txt", g)
        inputs = ["--signal-f", str(tmp_path / "f.txt"), "--signal-g", str(tmp_path / "g.txt")]
    out = tmp_path / "sweep"
    assert main(["shot-sweep", *inputs, "--shots-list", "7,100,5000", "--num-seeds", "4",
                 "--seed", "3", "--out", str(out)]) == 0
    assert read_lines(out / "sweep.csv")[1:] == one_chunk_sweep_rows(f, g, [7, 100, 5000], 4, 3)


def test_shot_sweep_memory_does_not_grow_with_seeds(tmp_path):
    """Seeds are drawn a block at a time, not as one (num_seeds, 4N) counts table."""
    rng = np.random.default_rng(13)
    for name in ("f.txt", "g.txt"):
        np.savetxt(tmp_path / name, rng.uniform(0.05, 0.95, 2**13))
    argv = ["shot-sweep", "--signal-f", str(tmp_path / "f.txt"),
            "--signal-g", str(tmp_path / "g.txt"), "--shots-list", "10"]
    assert main([*argv, "--num-seeds", "2", "--out", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert main([*argv, "--num-seeds", "64", "--out", str(tmp_path / "sweep")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the whole table would be 64 x 2**15 int64 counts, 16 MiB, before temporaries
    assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("argv,bound", [
    (["multiply", "f.wav", "g.wav"], 8.0),
    (["multiply", "f.wav", "g.wav", "--normalization", "shift-scale"], 8.0),
    (["convolve", "f.wav", "--kernel", "moving-average-4"], 3.25),
], ids=["multiply", "multiply-shift-scale", "convolve"])
def test_run_peak_memory_is_a_few_inputs(tmp_path, argv, bound):
    """A whole run's traced peak on 2**20 samples, in multiples of one input's float64 bytes."""
    samples = 1 << 20
    rng = np.random.default_rng(20)
    for name in ("f.wav", "g.wav"):
        write_wav(tmp_path / name, AudioBuffer(rng.uniform(0.05, 0.95, samples), 8000))
    argv = [str(tmp_path / arg) if arg.endswith(".wav") else arg for arg in argv]
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = peak / (8 * samples)
    assert ratio <= bound, f"peak {ratio:.2f}x one input's float64 samples"


@pytest.mark.parametrize("route", ["multiply-wav", "multiply-txt", "convolve-kernel",
                                   "shot-sweep"])
def test_missing_input_file_is_one_error_line(tmp_path, capsys, route):
    tone_wav(tmp_path / "f.wav")
    np.savetxt(tmp_path / "f.txt", [0.5, 0.6, 0.7, 0.8])
    f_wav, f_txt = str(tmp_path / "f.wav"), str(tmp_path / "f.txt")
    missing = str(tmp_path / ("missing.wav" if route == "multiply-wav" else "missing.txt"))
    argv = {
        "multiply-wav": ["multiply", missing, f_wav],
        "multiply-txt": ["multiply", f_txt, missing],
        "convolve-kernel": ["convolve", f_wav, "--kernel", missing],
        "shot-sweep": ["shot-sweep", "--signal-f", missing, "--signal-g", f_txt],
    }[route]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {missing}: no such file\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["multiply", "convolve", "shot-sweep"])
def test_unusable_paths_are_one_error_line(tmp_path, capsys, monkeypatch, command):
    """An --out that is a regular file, or an input or kernel that is a directory."""
    def refuse(*args, **kwargs):
        raise AssertionError("multiply ran its chunks before making --out")

    monkeypatch.setattr(qwave.cli, "process_chunks", refuse)
    np.savetxt(tmp_path / "f.txt", [0.5, 0.6, 0.7, 0.8])
    f_txt, folder = str(tmp_path / "f.txt"), str(tmp_path / "folder")
    os.mkdir(folder)
    inputs = {"multiply": ["multiply", f_txt, f_txt, "--chunk-size", "4"],
              "convolve": ["convolve", f_txt, "--kernel", "identity", "--chunk-size", "4"],
              "shot-sweep": ["shot-sweep", "--signal-f", f_txt, "--signal-g", f_txt,
                             "--shots-list", "10", "--num-seeds", "1"]}[command]
    taken = tmp_path / "taken"
    taken.write_bytes(b"kept")
    assert main([*inputs, "--out", str(taken)]) == 1
    assert capsys.readouterr().err == f"error: {taken}: File exists\n"
    assert taken.read_bytes() == b"kept"
    # a directory where a file is read: an input, or the kernel file
    unreadable = {"multiply": ["multiply", f_txt, folder],
                  "convolve": ["convolve", f_txt, "--kernel", folder],
                  "shot-sweep": ["shot-sweep", "--signal-f", folder, "--signal-g", f_txt]}
    out = tmp_path / "out"
    assert main([*unreadable[command], "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {folder}: Is a directory\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["multiply", "convolve", "shot-sweep"])
def test_existing_out_is_not_made_again(tmp_path, monkeypatch, command):
    np.savetxt(tmp_path / "f.txt", [0.5, 0.6, 0.7, 0.8])
    f_txt, out = str(tmp_path / "f.txt"), tmp_path / "out"
    argv = {"multiply": ["multiply", f_txt, f_txt, "--chunk-size", "4"],
            "convolve": ["convolve", f_txt, "--kernel", "identity", "--chunk-size", "4"],
            "shot-sweep": ["shot-sweep", "--shots-list", "10", "--num-seeds", "1"]}[command]
    assert main([*argv, "--out", str(out)]) == 0
    fresh = output_bytes(out)

    def refuse(*args, **kwargs):
        raise AssertionError("os.makedirs() was called on an existing --out")

    monkeypatch.setattr(os, "makedirs", refuse)
    assert main([*argv, "--out", str(out)]) == 0
    assert output_bytes(out) == fresh


def test_failed_write_is_one_error_line(tmp_path, capsys, monkeypatch):
    """An OSError that names no file, such as a full disk on write, is the reason alone."""
    np.savetxt(tmp_path / "f.txt", [0.5, 0.6, 0.7, 0.8])

    def full(path, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(qwave.audio, "write_file", full)
    argv = ["convolve", str(tmp_path / "f.txt"), "--kernel", "identity", "--chunk-size", "4"]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"error: {os.strerror(errno.ENOSPC)}\n"
    assert not (tmp_path / "out" / "manifest.txt").exists()  # the manifest is written last


def test_sample_rate_beyond_the_wav_header_is_one_error_line(tmp_path, capsys):
    np.savetxt(tmp_path / "f.txt", [0.5, 0.6, 0.7, 0.8])
    f_txt, out = str(tmp_path / "f.txt"), tmp_path / "out"
    missing = str(tmp_path / "missing.txt")
    # the flag is checked before any input is read: a missing input goes unnoticed
    for argv, rate in ((["multiply", f_txt, f_txt], 2**31), (["multiply", missing, missing], 0),
                       (["convolve", missing, "--kernel", missing], 2**31)):
        assert main([*argv, "--sample-rate", str(rate), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: --sample-rate must be in [1, {2**31 - 1}], got {rate}\n")
        assert not out.exists()
    # a WAV whose header carries such a rate is an error naming the file and the field
    write_wav(tmp_path / "f.wav", AudioBuffer(np.full(8, 0.5), 8000))
    blob = bytearray((tmp_path / "f.wav").read_bytes())
    for rate in (2**31, 0):
        blob[24:28] = rate.to_bytes(4, "little")
        (tmp_path / "f.wav").write_bytes(bytes(blob))
        assert main(["convolve", str(tmp_path / "f.wav"), "--kernel", "identity",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'f.wav'}: 'fmt ' chunk gives sample rate {rate}, "
            f"outside [1, {2**31 - 1}]\n")
        assert not out.exists()
    assert main(["multiply", f_txt, f_txt, "--sample-rate", str(2**31 - 1),
                 "--out", str(out)]) == 0
    assert load_wav(out / "component_00.wav").sample_rate == 2**31 - 1


@pytest.mark.parametrize("flags, message", [
    (["--shots-list", "10,abc"], "--shots-list: shots must be a positive integer or 'exact', got 'abc'"),
    (["--shots-list", "0"], "--shots-list: shots must be >= 1, got 0"),
    (["--shots-list", " , "], "--shots-list names no shot counts"),
    (["--num-seeds", "0"], "num-seeds must be >= 1, got 0"),
], ids=["non-integer", "zero", "empty", "num-seeds-zero"])
def test_shot_sweep_rejects_bad_arguments_before_writing(tmp_path, capsys, flags, message):
    out = tmp_path / "sweep"
    assert main(["shot-sweep", *flags, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--signal-f", "--signal-g"])
def test_shot_sweep_names_the_file_of_a_wrong_length(tmp_path, capsys, flag):
    good, bad = tmp_path / "f4.txt", tmp_path / "f3.txt"
    np.savetxt(good, [0.5, 0.6, 0.7, 0.8])
    np.savetxt(bad, [0.5, 0.6, 0.7])
    inputs = {"--signal-f": str(good), "--signal-g": str(good), flag: str(bad)}
    out = tmp_path / "sweep"
    assert main(["shot-sweep", *[x for kv in inputs.items() for x in kv],
                 "--shots-list", "10", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {flag} {bad}: chunk length must be a power of two >= 2, got 3\n")
    assert not out.exists()


def test_shot_sweep_refuses_a_length_mismatch_as_multiply_does(tmp_path, capsys):
    np.savetxt(tmp_path / "f4.txt", [0.5, 0.6, 0.7, 0.8])
    np.savetxt(tmp_path / "f8.txt", np.linspace(0.1, 0.8, 8))
    out = tmp_path / "sweep"
    assert main(["shot-sweep", "--signal-f", str(tmp_path / "f4.txt"),
                 "--signal-g", str(tmp_path / "f8.txt"), "--shots-list", "10",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: signals differ in length: 4 vs 8\n"
    assert not out.exists()


def test_shot_sweep_refuses_negative_samples_by_the_assume_positive_rule(tmp_path, capsys):
    signed, good = tmp_path / "signed.txt", tmp_path / "good.txt"
    np.savetxt(signed, [0.5, -0.25, 0.7, -0.1])
    np.savetxt(good, [0.5, 0.6, 0.7, 0.8])
    out = tmp_path / "sweep"
    assert main(["shot-sweep", "--signal-f", str(signed), "--signal-g", str(good),
                 "--shots-list", "10", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --signal-f {signed}: assume-positive input has 2 negative "
                          f"samples, first at index 1")
    assert err.count("\n") == 1
    assert not out.exists()


def test_shot_sweep_takes_negative_zero_as_positive_zero(tmp_path):
    # -0.0 is not below zero, and its sweep reads the same as +0.0's
    good = tmp_path / "good.txt"
    np.savetxt(good, [0.5, 0.6, 0.7, 0.8])
    sweeps = []
    for zero in (0.0, -0.0):
        path = tmp_path / f"zero_{zero}.txt"
        np.savetxt(path, [0.5, zero, 0.7, 0.3])
        out = tmp_path / f"sweep_{zero}"
        assert main(["shot-sweep", "--signal-f", str(path), "--signal-g", str(good),
                     "--shots-list", "100,exact", "--num-seeds", "3", "--out", str(out)]) == 0
        sweeps.append((out / "sweep.csv").read_bytes())
    assert "-0.0" in (tmp_path / "zero_-0.0.txt").read_text()
    assert sweeps[0] == sweeps[1]


def test_selftest_command(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


def test_selftest_trips_on_flipped_qft(monkeypatch):
    # convolve_via_theorem's inverse register QFT is np.fft.ifft; the forward
    # transform that qft-vs-dft checks is np.fft.fft and stays as it is
    real_fft = np.fft.fft

    def flipped(a, n=None, axis=-1, norm=None):
        return real_fft(a, n, axis, norm)

    monkeypatch.setattr(np.fft, "ifft", flipped)
    passed = {name: ok for name, ok, _ in run_selftest()}
    assert passed == {
        "qft-vs-dft": True,
        "product-vs-formula": True,
        "convolution-vs-classical": False,
    }


@pytest.mark.parametrize("command", [
    ["multiply", "missing_f.wav", "missing_g.wav"],
    ["convolve", "missing_f.wav", "--kernel", "identity"],
])
def test_chunk_size_above_qubit_limit_rejected_before_loading(tmp_path, capsys, command):
    # the inputs do not exist: the size check must fire before anything is read
    code = main(command + ["--chunk-size", str(2 ** 25), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "--chunk-size 33554432" in err
    assert f"MAX_QUBITS is {MAX_QUBITS}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["multiply", "missing_f.wav", "missing_g.wav"],
    ["convolve", "missing_f.wav", "--kernel", "low-pass-0"],
    ["convolve", "missing_f.wav", "--kernel", "shift-0"],
], ids=["multiply", "convolve-low-pass", "convolve-shift"])
@pytest.mark.parametrize("chunk_size", [0, -8, 3])
def test_bad_chunk_size_rejected_before_loading(tmp_path, capsys, command, chunk_size):
    # the inputs do not exist and the kernels are valid at any power-of-two
    # size: the error must come from the size check, before anything else
    code = main(command + ["--chunk-size", str(chunk_size), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err == f"error: --chunk-size must be a power of two >= 2, got {chunk_size}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [
    ["multiply", "missing_f.wav", "missing_g.wav", "--shots", "10"],
    ["shot-sweep", "--signal-f", "missing_f.txt", "--signal-g", "missing_g.txt"],
    ["shot-sweep"],
], ids=["multiply", "shot-sweep-files", "shot-sweep-default"])
def test_negative_seed_rejected_before_loading(tmp_path, capsys, command):
    code = main(command + ["--seed", "-1", "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [0, -2])
def test_multiply_rejects_workers_below_one_before_loading(tmp_path, capsys, workers):
    # the inputs do not exist: the flag check must fire before anything is read
    code = main(["multiply", "missing_f.wav", "missing_g.wav", "--workers", str(workers),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: --workers must be >= 1, got {workers}\n"
    assert not (tmp_path / "out").exists()


def test_calls_in_one_process_share_no_values(tmp_path):
    # main() reuses one parser; each call must still start from the defaults
    tone_wav(tmp_path / "f.wav")
    tone_wav(tmp_path / "g.wav", freq=660)
    inputs = [str(tmp_path / "f.wav"), str(tmp_path / "g.wav")]
    assert main(["multiply", *inputs, "--shots", "50", "--seed", "3",
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["convolve", inputs[0], "--kernel", "identity", "--out", str(tmp_path / "b")]) == 0
    assert main(["multiply", *inputs, "--out", str(tmp_path / "c")]) == 0
    manifests = [dict(line.split(" = ", 1) for line in read_lines(tmp_path / d / "manifest.txt"))
                 for d in "abc"]
    assert (manifests[0]["shots"], manifests[0]["seed"]) == ("50", "3")
    assert (manifests[1]["shots"], manifests[1]["seed"]) == ("exact", "0")
    assert (manifests[2]["shots"], manifests[2]["seed"]) == ("exact", "0")
    assert manifests[2]["chunk_size"] == "8"


def stale_case_argv(command, tmp_path, samples, tag):
    """argv of a `command` run on inputs of `samples` samples, minus --out."""
    rng = np.random.default_rng(samples)
    f, g = (tmp_path / f"{tag}_f.wav", tmp_path / f"{tag}_g.txt")
    write_wav(f, AudioBuffer(rng.uniform(0.05, 0.95, samples), 8000))
    np.savetxt(g, rng.uniform(0.05, 0.95, samples))
    if command == "multiply-exact":
        return ["multiply", str(f), str(g)]
    if command == "multiply-shots":
        return ["multiply", str(f), str(g), "--shots", "300", "--seed", "4"]
    if command == "convolve":
        return ["convolve", str(f), "--kernel", "moving-average-3"]
    # a sweep of `samples` // 256 shot counts on one 8-sample chunk
    np.savetxt(g, rng.uniform(0.05, 0.95, 8))
    shots = ",".join(str(10 * (k + 1)) for k in range(samples // 256)) + ",exact"
    return ["shot-sweep", "--signal-f", str(g), "--signal-g", str(g), "--num-seeds", "2",
            "--shots-list", shots]


def output_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["multiply-exact", "multiply-shots", "convolve",
                                     "shot-sweep"])
@pytest.mark.parametrize("stale", ["longer-run", "junk-padded"])
def test_rewrites_over_stale_outputs_equal_a_fresh_run(tmp_path, command, stale):
    """Outputs are rewritten in place, and a longer old file leaves none of its tail."""
    argv = stale_case_argv(command, tmp_path, 512, "short")
    assert main([*argv, "--out", str(tmp_path / "fresh")]) == 0
    fresh = output_bytes(tmp_path / "fresh")
    out = tmp_path / "stale"
    if stale == "longer-run":
        assert main([*stale_case_argv(command, tmp_path, 2000, "stale"), "--out", str(out)]) == 0
        old = output_bytes(out)
        assert sorted(old) == sorted(fresh)
        assert all(len(old[name]) > len(fresh[name]) for name in fresh)
    else:
        assert main([*argv, "--out", str(out)]) == 0
        for path in out.iterdir():
            with open(path, "ab") as fh:
                fh.write(b"\xffjunk" * 700)
    assert main([*argv, "--out", str(out)]) == 0
    assert output_bytes(out) == fresh


@pytest.mark.parametrize("command", ["multiply", "convolve", "convolve-kernel-file",
                                     "shot-sweep"])
def test_inputs_are_read_once_and_hashed_from_those_bytes(tmp_path, monkeypatch, command):
    """The manifest's sha256 is of the bytes parsed, and no input file is opened twice."""
    tone_wav(tmp_path / "f.wav")
    np.savetxt(tmp_path / "g.txt", RNG.uniform(0.1, 0.9, 160))
    np.savetxt(tmp_path / "k.txt", RNG.uniform(-1.0, 1.0, 3))
    for name in ("s.txt", "t.txt"):
        np.savetxt(tmp_path / name, RNG.uniform(0.1, 0.9, 8))
    inputs = [str(tmp_path / name) for name in ("f.wav", "g.txt", "k.txt", "s.txt", "t.txt")]
    f, g, k, s, t = inputs
    argv, read = {
        "multiply": (["multiply", f, g], {"f": f, "g": g}),
        "convolve": (["convolve", g, "--kernel", "shift-1"], {"f": g}),
        "convolve-kernel-file": (["convolve", g, "--kernel", k], {"f": g, "kernel": k}),
        "shot-sweep": (["shot-sweep", "--signal-f", s, "--signal-g", t, "--num-seeds", "1",
                        "--shots-list", "10"], {"f": s, "g": t}),
    }[command]
    opened = []

    def counting(real_open):
        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)
        return counting_open

    # every way a file is opened by name: the file object and the descriptor
    monkeypatch.setattr(builtins, "open", counting(builtins.open))
    monkeypatch.setattr(io, "open", counting(io.open))
    monkeypatch.setattr(os, "open", counting(os.open))
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    monkeypatch.undo()
    assert sorted(p for p in opened if p in inputs) == sorted(read.values())
    manifest = dict(line.split(" = ", 1) for line in read_lines(tmp_path / "out" / "manifest.txt"))
    for role, path in read.items():
        with open(path, "rb") as fh:
            assert manifest[f"input_{role}_sha256"] == hashlib.sha256(fh.read()).hexdigest()


# argvs for the parse: each benchmark workload's, then the forms argparse itself
# resolves (=, abbreviations, --, flags after the command) and its error paths
_PARSE_CORPUS = [
    *(w.argv(["f.wav", "g.wav"], "out") for _, w in sorted(WORKLOADS.items())),
    ["multiply", "f.wav", "g.wav", "--out=out"],
    ["multiply", "f.wav", "g.wav", "--chunk", "8", "--work", "1", "--out", "out"],
    ["multiply", "--out", "out", "--", "f.wav", "g.wav"],
    ["convolve", "--kernel", "identity", "--out", "out", "--", "f.wav"],
    ["multiply", "--", "f.wav", "g.wav", "--out", "out"],
    ["multiply", "f.wav", "g.wav", "--out", "out", "--bogus"],
    ["multiply", "f.wav", "g.wav", "--out", "out", "h.wav"],
    ["multiply", "f.wav", "g.wav", "--out", "out", "--version"],
    ["convolve", "f.wav", "--out", "out", "--ver"],
    ["multiply", "f.wav", "g.wav"],
    ["multiply", "f.wav", "g.wav", "--out", "out", "--shots", "x"],
    ["multiply", "f.wav", "g.wav", "--out", "out", "--chunk-size", "eight"],
    ["convolve", "f.wav", "--out", "out", "--kernel-domain", "space", "--kernel", "identity"],
    ["shot-sweep", "--out", "out", "--shots-list", "10,exact", "--num-seeds", "3"],
    ["multiply", "-h"],
    ["selftest"],
    ["selftest", "extra"],
    [],
    ["--version"],
    ["-h"],
    ["--version", "multiply", "f.wav", "g.wav", "--out", "out"],
    ["unknown", "f.wav"],
    ["Multiply", "f.wav", "g.wav", "--out", "out"],
]


def parse_outcome(parse, argv, capsys) -> tuple:
    """(Namespace or None, SystemExit code or None, stdout, stderr) of parse(argv)."""
    try:
        args, code = parse(argv), None
    except SystemExit as exc:
        args, code = None, exc.code
    return (args, code, *capsys.readouterr())


@pytest.mark.parametrize("argv", _PARSE_CORPUS, ids=" ".join)
def test_cli_parse_equals_the_full_parser(argv, capsys):
    """main's parse gives the Namespace, exit code and text that the full parser's gives."""
    full = parse_outcome(qwave.cli._build_parsers()[0].parse_args, list(argv), capsys)
    assert parse_outcome(qwave.cli._parse_args, list(argv), capsys) == full


def test_version(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "qwave" in capsys.readouterr().out

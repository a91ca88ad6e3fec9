"""The four benchmark workloads, their seeded inputs, and numpy references.

Every workload feeds 8 kHz mono int16 WAVs to the real CLI. Each input is a
positive tone, 0.5 + 0.35*sin plus small seeded noise, clipped to
[0.05, 0.95], so the default assume-positive normalization applies and no
decoded component reaches full scale. The references below are computed from
those inputs with plain numpy, independently of the qwave package.
"""

from __future__ import annotations

import csv
import os
import wave
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 8000
FULL_SCALE = 32768.0
CLI_SHOT_SEED = 7
KERNEL_WIDTH = 4  # conv-ma4-c8 runs the built-in moving-average-4 kernel
COMPONENTS = ("00", "01", "10", "11")

# An exact output may differ from the reference only by int16 rounding.
MAX_ERR_LSB = 1.0
# Acceptance criterion 4 holds the convolution routes to this oracle distance.
MAX_ORACLE_REL_L2 = 1e-9
# metrics.csv rmsd_percent is taken before int16 rounding, which adds about
# 0.001 percentage points of RMS; this tolerance leaves room for that only.
RMSD_AGREEMENT_PCT = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "multiply" or "convolve"
    samples: int
    chunk_size: int
    shots: int | None
    why: str

    @property
    def num_inputs(self) -> int:
        return 2 if self.command == "multiply" else 1

    @property
    def chunk_entry_span(self) -> str:
        """The traced call made once per chunk, whose starts time the chunks."""
        if self.command == "multiply":
            return "pipelines.pointwise_multiply_state"
        return "pipelines.convolve_optimized"

    @property
    def output_files(self) -> tuple:
        if self.command == "multiply":
            wavs = tuple(f"component_{c}.wav" for c in COMPONENTS)
        else:
            wavs = ("convolved.wav",)
        return wavs + ("manifest.txt", "metrics.csv")

    def argv(self, inputs, out_dir) -> list:
        if self.command == "multiply":
            argv = ["multiply", inputs[0], inputs[1]]
        else:
            argv = ["convolve", inputs[0], "--kernel", f"moving-average-{KERNEL_WIDTH}"]
        argv += ["--chunk-size", str(self.chunk_size), "--workers", "1", "--out", out_dir]
        if self.shots is not None:
            argv += ["--shots", str(self.shots), "--seed", str(CLI_SHOT_SEED)]
        return argv


# Clip lengths keep one call near 0.2-0.5 s on a 2-vCPU x86 VM, so a 25 s run
# times 50-110 calls and their median sees the machine at many moments.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mul-exact-c8", "multiply", 2000, 8, None,
                 "default exact path: 250 5-qubit chunks, cost is per-call encoder "
                 "overhead; never samples"),
        Workload("mul-shots-c8", "multiply", 512, 8, 100_000,
                 "1e5 shots per chunk: shot sampling dominates, the path a sampler "
                 "change moves"),
        Workload("conv-ma4-c8", "convolve", 1000, 8, None,
                 "moving-average-4 convolve: one-ancilla encoder, QFTs, classical "
                 "DFT and O(M^2) oracle per chunk"),
        Workload("mul-exact-c1024", "multiply", 2048, 1024, None,
                 "two 12-qubit chunks: state-sized index building in the O(N^2) "
                 "encoder dominates, chunk overhead vanishes"),
    )
}


def write_pcm(path, pcm: np.ndarray) -> None:
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(pcm.astype("<i2").tobytes())


def read_pcm(path) -> np.ndarray:
    with wave.open(path, "rb") as fh:
        if (fh.getnchannels(), fh.getsampwidth(), fh.getframerate()) != (1, 2, SAMPLE_RATE):
            raise ValueError(f"{path}: not 8 kHz mono int16")
        return np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2").astype(np.float64)


def make_inputs(workload: Workload, seed: int, directory) -> tuple:
    """Write the workload's input WAVs; return (paths, values as the CLI reads them)."""
    t = np.arange(workload.samples) / SAMPLE_RATE
    paths, signals = [], []
    for i in range(workload.num_inputs):
        rng = np.random.default_rng([seed, i])
        tone = (0.5 + 0.35 * np.sin(2 * np.pi * rng.uniform(110, 1800) * t
                                    + rng.uniform(0, 2 * np.pi))
                + rng.normal(0.0, 0.01, t.size))
        pcm = np.round(np.clip(tone, 0.05, 0.95) * FULL_SCALE).astype(np.int16)
        path = os.path.join(directory, f"input_{i}.wav")
        write_pcm(path, pcm)
        paths.append(path)
        signals.append(pcm / FULL_SCALE)
    return paths, signals


def exact_components(f, g) -> dict:
    """The four products f*g, f*g~, f~*g, f~*g~ with h~ = sqrt(1 - h^2)."""
    ft, gt = np.sqrt(1.0 - f * f), np.sqrt(1.0 - g * g)
    return {"00": f * g, "01": f * gt, "10": ft * g, "11": ft * gt}


def replayed_shot_components(exact: dict, chunk_size: int, shots: int, seed: int) -> dict:
    """Decode the counts the CLI's sampling rule draws, from closed-form probabilities.

    Chunk i samples basis state 4x + 2*b_f + b_g with probability
    component(x)^2 / N by inverting the CDF against `shots` Philox uniforms
    seeded (seed, i); each index decodes as sqrt(hits / total over its four
    patterns).
    """
    amps = np.stack([exact[c] for c in COMPONENTS], axis=1).reshape(-1, 4 * chunk_size)
    decoded = np.empty_like(amps)
    for i, row in enumerate(amps):
        probs = row * row / chunk_size
        cdf = np.cumsum(probs / probs.sum())
        cdf[-1] = 1.0
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, i])))
        draws = np.searchsorted(cdf, rng.random(shots), side="right")
        table = np.bincount(draws, minlength=cdf.size).reshape(-1, 4)
        totals = table.sum(axis=1, keepdims=True)
        decoded[i] = np.where(totals > 0, np.sqrt(table / np.maximum(totals, 1)), 0.0).reshape(-1)
    flat = decoded.reshape(-1, 4)
    return {c: flat[:, k] for k, c in enumerate(COMPONENTS)}


def moving_average_chunks(x, chunk_size: int) -> np.ndarray:
    """Each chunk convolved with the width-4 box, first chunk_size samples kept.

    With padding to 2*chunk_size the circular convolution has no wrap-around,
    so this equals the CLI's documented per-chunk result.
    """
    blocks = x.reshape(-1, chunk_size)
    out = np.zeros_like(blocks)
    for lag in range(KERNEL_WIDTH):
        out[:, lag:] += blocks[:, : chunk_size - lag] / KERNEL_WIDTH
    return out.reshape(-1)


def _codes(values) -> np.ndarray:
    """What write_wav's int16 rounding aims at, before rounding."""
    return np.clip(np.clip(values, -1.0, 1.0) * FULL_SCALE, -FULL_SCALE, FULL_SCALE - 1)


def _read_metrics(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_outputs(workload: Workload, signals, out_dir) -> tuple:
    """Compare one call's outputs with the numpy references.

    Returns (problems, out_err_lsb, rmsd_pct). out_err_lsb is the largest
    |written code - reference| over every output WAV, where the reference for
    shot mode replays the CLI's draws. rmsd_pct is the RMS distance, in
    percent of full scale, between the written component_00 (or convolved)
    output and its noise-free value: int16 rounding alone on the exact
    workloads, shot noise as well in shot mode.
    """
    missing = [n for n in workload.output_files
               if not os.path.isfile(os.path.join(out_dir, n))]
    if missing:
        return [f"missing outputs: {' '.join(missing)}"], float("nan"), float("nan")
    problems = []
    if workload.command == "multiply":
        exact = exact_components(*signals)
        written_ref = exact
        if workload.shots is not None:
            written_ref = replayed_shot_components(
                exact, workload.chunk_size, workload.shots, CLI_SHOT_SEED)
        clean, main_key = exact["00"], "00"
        names = {c: f"component_{c}.wav" for c in COMPONENTS}
    else:
        clean = moving_average_chunks(signals[0], workload.chunk_size)
        written_ref = {"convolved": clean}
        main_key, names = "convolved", {"convolved": "convolved.wav"}
    try:
        written = {key: read_pcm(os.path.join(out_dir, name)) for key, name in names.items()}
    except (ValueError, EOFError, wave.Error) as exc:
        return [f"unreadable output: {exc}"], float("nan"), float("nan")
    short = [names[k] for k, codes in written.items() if codes.size != workload.samples]
    if short:
        return [f"not {workload.samples} samples: {' '.join(short)}"], float("nan"), float("nan")
    main = written[main_key]
    err = max(float(np.abs(codes - _codes(written_ref[key])).max())
              for key, codes in written.items())
    if err > MAX_ERR_LSB:
        problems.append(f"output differs from the numpy reference by {err:.3f} LSB")
    deviation = main / FULL_SCALE - clean
    rmsd = float(100.0 * np.sqrt(np.mean(deviation * deviation)))

    rows = _read_metrics(os.path.join(out_dir, "metrics.csv"))
    num_chunks = -(-workload.samples // workload.chunk_size)
    if len(rows) != num_chunks:
        problems.append(f"metrics.csv has {len(rows)} rows for {num_chunks} chunks")
    elif workload.command == "multiply":
        expected = "exact" if workload.shots is None else str(workload.shots)
        if any(r["shots"] != expected for r in rows):
            problems.append(f"metrics.csv shots column is not {expected}")
        # chunks are equal in size, so the per-chunk RMS values pool exactly
        listed = float(np.sqrt(np.mean([float(r["rmsd_percent"]) ** 2 for r in rows])))
        if abs(listed - rmsd) > RMSD_AGREEMENT_PCT:
            problems.append(f"metrics.csv rmsd {listed:.5g}% disagrees with the "
                            f"written output's {rmsd:.5g}%")
    else:
        worst = max(float(r["rel_l2_vs_oracle"]) for r in rows)
        if not worst < MAX_ORACLE_REL_L2:
            problems.append(f"metrics.csv oracle distance {worst:.3e} is not below "
                            f"{MAX_ORACLE_REL_L2:g}")
    with open(os.path.join(out_dir, "manifest.txt")) as fh:
        if f"command = {workload.command}\n" not in fh.read():
            problems.append("manifest.txt does not record the command")
    return problems, err, rmsd

"""WAV ingestion, chunked processing, and quadraphonic output assembly.

Audio flows through as float64 in [-1, 1). 16-bit PCM reads divide by 32768
(so -32768 maps to -1.0 and 16384 to 0.5); writes round to int16 and clip the
top code. Positive-domain signals are split into power-of-two chunks, held as
the rows of one array; the chunks run through the two-ancilla product
pipeline together (exactly or with shot sampling), and the four decoded
channels are stitched back in chunk order.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile

from .encoding import EPSILON
from .errors import DomainError, FormatError, ShapeError
from .pipelines import COMPONENTS, product_blocks
from .sampling import (
    METRICS_CSV_HEADER,
    MetricsReport,
    decode_component,
    fidelity_percent,
    rmsd_percent,
    sample_counts,
)
from .statevector import Statevector

_PCM_FULL_SCALE = 32768.0
_MAX_FLOAT_SAMPLE = 1.0 - 2.0 ** -15  # one 16-bit step below full scale


@dataclass(frozen=True)
class AudioBuffer:
    """Mono float64 samples in [-1, 1] with their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ShapeError(f"expected non-empty mono samples, got shape {samples.shape}")
        if not np.all(np.isfinite(samples)):
            raise DomainError("samples contain non-finite values")
        peak = float(np.abs(samples).max())
        if peak > 1.0:
            raise DomainError(f"samples exceed full scale (peak {peak})")
        if self.sample_rate <= 0:
            raise ShapeError(f"sample rate must be positive, got {self.sample_rate}")
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return int(self.samples.size)


def load_wav(path) -> AudioBuffer:
    """Read a 16-bit PCM or 32-bit float WAV; stereo is averaged to mono.

    Float samples clip into [-1, 1); a NaN or infinite one is an error naming
    the file and the frame.
    """
    rate, data = wavfile.read(path)
    if data.shape[0] == 0:
        raise ShapeError(f"{path}: contains no samples")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / _PCM_FULL_SCALE
    elif data.dtype == np.float32:
        finite = np.isfinite(data)
        if not finite.all():
            first = tuple(np.argwhere(~finite)[0])  # (frame,) or (frame, channel)
            raise DomainError(f"{path}: sample {first[0]} is not finite ({data[first]})")
        samples = np.clip(data.astype(np.float64), -1.0, _MAX_FLOAT_SAMPLE)
    else:
        raise FormatError(
            f"{path}: unsupported WAV sample format {data.dtype}; need int16 PCM or float32"
        )
    if samples.ndim == 2:
        warnings.warn(f"{path}: averaging {samples.shape[1]} channels to mono")
        samples = samples.mean(axis=1)
    return AudioBuffer(samples, int(rate))


def write_wav(path, buffer: AudioBuffer) -> None:
    """Write 16-bit PCM; values at or above full scale clip to the top code."""
    scaled = np.round(buffer.samples * _PCM_FULL_SCALE)
    pcm = np.clip(scaled, -32768, 32767).astype(np.int16)
    wavfile.write(path, buffer.sample_rate, pcm)


@dataclass(frozen=True)
class NormalizationRecord:
    """How raw samples were mapped into [0, 1) before encoding.

    encoded = (sample + shift) * scale. The mapping is reported so callers
    can undo it; decoded outputs are not automatically inverted.
    """

    mode: str
    shift: float
    scale: float


def normalize_for_encoding(buffer: AudioBuffer, mode: str = "assume-positive"):
    """Map samples into the encodable domain, returning (values, record).

    "assume-positive" passes samples through and rejects any negative one.
    "shift-scale" maps [-1, 1) to [0, 1) via (s + 1) / 2.
    """
    samples = buffer.samples
    if mode == "assume-positive":
        negative = np.flatnonzero(samples < 0)
        if negative.size:
            i = int(negative[0])
            raise DomainError(
                f"assume-positive input has {negative.size} negative samples, "
                f"first at index {i} (value {samples[i]})"
            )
        return samples.copy(), NormalizationRecord(mode, 0.0, 1.0)
    if mode == "shift-scale":
        return (samples + 1.0) * 0.5, NormalizationRecord(mode, 1.0, 0.5)
    raise ShapeError(f"unknown normalization mode {mode!r}")


@dataclass(frozen=True)
class ChunkPlan:
    """Disjoint power-of-two chunks covering a signal, tail zero-padded.

    `values` is a (num_chunks, chunk_size) complex array with one chunk per
    row, each inside the SignalChunk magnitude bound; `scales[i]` is the
    factor row i was multiplied by (1.0 unless its peak was above the bound).
    Row i and scales[i] equal SignalChunk.from_values of that chunk's samples.
    """

    chunk_size: int
    total_samples: int
    values: np.ndarray
    scales: np.ndarray

    @property
    def num_chunks(self) -> int:
        return len(self.values)

    @property
    def tail_padding(self) -> int:
        return self.num_chunks * self.chunk_size - self.total_samples


def make_chunks(values, chunk_size: int = 8) -> ChunkPlan:
    """Split into consecutive chunk_size blocks, zero-padding the last.

    A chunk whose peak magnitude exceeds 1 - EPSILON is rescaled as
    SignalChunk.from_values does it, with the same bits. A NaN or infinite
    sample is a DomainError naming its index.
    """
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise ShapeError(f"expected a non-empty 1-D signal, got shape {values.shape}")
    if chunk_size < 2 or chunk_size & (chunk_size - 1):
        raise ShapeError(f"chunk_size must be a power of two >= 2, got {chunk_size}")
    total = values.size
    num_chunks = -(-total // chunk_size)
    rows = np.zeros((num_chunks, chunk_size), dtype=np.complex128)
    rows.reshape(-1)[:total] = values
    peaks = np.abs(rows).max(axis=1)
    if not np.isfinite(peaks).all():
        i = int(np.argmin(np.isfinite(np.abs(rows.reshape(-1)))))
        raise DomainError(f"sample {i} is not finite ({values[i]})")
    hot = peaks > 1.0 - EPSILON
    scales = np.ones(num_chunks)
    scales[hot] = (1.0 - EPSILON) / peaks[hot]
    rows[hot] *= scales[hot, None]
    return ChunkPlan(chunk_size, total, rows, scales)


@dataclass(frozen=True)
class QuadOutput:
    """The four decoded channels, concatenated over chunks, plus metrics."""

    components: dict
    metrics: tuple


def _component_key(component) -> str:
    return f"{component[0]}{component[1]}"


def _run_range(job):
    """Process one contiguous range of chunk pairs; module-level so pools can pickle it.

    Returns the range's decoded channels, shape (4, rows, N) in COMPONENTS
    order, and its (3, rows) rmsd, fidelity and prob00 columns. Exact mode
    reads all of them off each block of states; shot mode samples, decodes
    and scores one chunk at a time.
    """
    first, values_f, values_g, shots, base_seed = job
    num_chunks, big_n = values_f.shape
    num_qubits = big_n.bit_length() + 1  # index register plus two ancillae
    channels = np.empty((len(COMPONENTS), num_chunks, big_n))
    scores = np.empty((3, num_chunks))
    scores[0], scores[1] = 0.0, 100.0
    for lo, states in product_blocks(values_f, values_g):
        rows = slice(lo, lo + len(states))
        scores[2, rows] = np.sum(np.abs(states[:, :, 0, 0]) ** 2, axis=1)
        if shots is None:
            for j, (bf, bg) in enumerate(COMPONENTS):
                channels[j, rows] = np.abs(states[:, :, bf, bg] * np.sqrt(big_n))
            continue
        ideal00 = np.abs(states[:, :, 0, 0] * np.sqrt(big_n))
        for k, state_k in enumerate(states):
            i = lo + k
            state = Statevector(num_qubits, state_k.reshape(-1))
            counts = sample_counts(state, shots, [base_seed, first + i])
            for j, c in enumerate(COMPONENTS):
                channels[j, i] = decode_component(counts, c)
            scores[0, i] = rmsd_percent(channels[0, i], ideal00[k])
            scores[1, i] = fidelity_percent(counts, state)
    return channels, scores


def process_chunks(
    plan_f: ChunkPlan,
    plan_g: ChunkPlan,
    shots: int | None = None,
    seed: int = 0,
    workers: int = 1,
) -> QuadOutput:
    """Run every chunk pair through the product pipeline.

    shots=None computes components exactly from the statevector; an integer
    samples that many shots with a per-chunk stream derived from (seed,
    chunk_index), so results are byte-identical for any worker count. The
    chunks are split into at most `workers` contiguous ranges, one per pool
    worker; a single range runs in this process.
    """
    if plan_f.chunk_size != plan_g.chunk_size or plan_f.num_chunks != plan_g.num_chunks:
        raise ShapeError("chunk plans do not match")
    if plan_f.total_samples != plan_g.total_samples:
        raise ShapeError(
            f"signals differ in length: {plan_f.total_samples} vs {plan_g.total_samples}"
        )
    if workers < 1:
        raise ShapeError(f"workers must be >= 1, got {workers}")
    if shots is not None and shots < 1:
        raise ShapeError(f"shots must be >= 1 or None for exact mode, got {shots}")
    if seed < 0:
        raise ShapeError(f"seed must be >= 0, got {seed}")
    step = -(-plan_f.num_chunks // workers)
    jobs = [
        (lo, plan_f.values[lo : lo + step], plan_g.values[lo : lo + step], shots, seed)
        for lo in range(0, plan_f.num_chunks, step)
    ]
    if len(jobs) == 1:
        results = [_run_range(jobs[0])]
    else:
        with multiprocessing.Pool(len(jobs)) as pool:
            results = pool.map(_run_range, jobs)
    channels = np.concatenate([r[0] for r in results], axis=1).reshape(len(COMPONENTS), -1)
    columns = np.concatenate([r[1] for r in results], axis=1).tolist()
    label = "exact" if shots is None else shots
    metrics = tuple(
        MetricsReport(i, label, seed, *row)
        for i, row in enumerate(zip(*columns, plan_f.scales.tolist(), plan_g.scales.tolist()))
    )
    components = {_component_key(c): channels[j] for j, c in enumerate(COMPONENTS)}
    return QuadOutput(components, metrics)


def stitch_and_write(
    quad: QuadOutput,
    plan: ChunkPlan,
    sample_rate: int,
    out_dir,
    normalization: NormalizationRecord | None = None,
) -> dict:
    """Trim tail padding, write the four component WAVs and metrics.csv.

    Decoded magnitudes land in [0, 1] and are written as-is; after
    shift-scale normalization they are mapped back to [-1, 1) via 2v - 1
    for listening (a remap, not an inverse of the encoding product).
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for key, values in sorted(quad.components.items()):
        trimmed = values[: plan.total_samples].real.astype(np.float64)
        if normalization is not None and normalization.mode == "shift-scale":
            trimmed = 2.0 * trimmed - 1.0
        trimmed = np.clip(trimmed, -1.0, 1.0)
        path = os.path.join(out_dir, f"component_{key}.wav")
        write_wav(path, AudioBuffer(trimmed, sample_rate))
        paths[key] = path
    metrics_path = os.path.join(out_dir, "metrics.csv")
    with open(metrics_path, "w", newline="") as fh:
        fh.write(METRICS_CSV_HEADER + "\n")
        for report in quad.metrics:
            fh.write(report.csv_row() + "\n")
    paths["metrics"] = metrics_path
    return paths

"""WAV ingestion, chunked processing, and quadraphonic output assembly.

Audio flows through as float64 in [-1, 1). 16-bit PCM reads divide by 32768
(so -32768 maps to -1.0 and 16384 to 0.5); writes round to int16 and clip the
top code. The RIFF codec is this module's own: it reads 16-bit PCM and
32-bit float WAVs (plain or WAVE_FORMAT_EXTENSIBLE, any channel count) and
writes mono 16-bit PCM. Positive-domain signals are split into power-of-two
chunks, held as the rows of one array; the chunks run through the
two-ancilla product pipeline together (exactly or with shot sampling), and
the four decoded channels are stitched back in chunk order.
"""

from __future__ import annotations

import functools
import os
import struct
import warnings
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .encoding import EPSILON, rescale_rows
from .errors import DomainError, FormatError, ShapeError
from .pipelines import COMPONENTS, product_blocks
from .sampling import shot_readout

_PCM_FULL_SCALE = 32768.0
_MAX_FLOAT_SAMPLE = 1.0 - 2.0 ** -15  # one 16-bit step below full scale

# WAVE format tags, and the GUID tail that marks a WAVE_FORMAT_EXTENSIBLE
# subformat as one of them (the tag sits in the GUID's first four bytes)
_WAVE_PCM, _WAVE_FLOAT, _WAVE_EXTENSIBLE = 1, 3, 0xFFFE
_KSDATAFORMAT_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
# RIFF header, fmt chunk (PCM tag, mono, rate, byte rate, block align,
# bits) and data chunk header of a mono 16-bit PCM file: 44 bytes
_PCM16_HEADER = struct.Struct("<4sI4s4sIHHIIHH4sI")
# the largest sample rate whose byte rate (2 * rate) fits the header's uint32
_MAX_SAMPLE_RATE = 2**31 - 1
# the sample formats load_wav reads, with their little-endian numpy dtypes
_READ_DTYPES = {"int16": "<i2", "float32": "<f4"}
# The least work each thread's chunk range must hold before process_chunks
# splits a call: state amplitudes in exact mode (one product_blocks block),
# shot draws in shot mode. On a 2-vCPU host two threads lost to one below
# about 3e4 amplitudes or 1e6 draws per thread.
_MIN_RANGE_AMPLITUDES = 1 << 16
_MIN_RANGE_DRAWS = 1 << 20


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
        _check_rate(self.sample_rate)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return int(self.samples.size)


def _check_rate(rate: int) -> None:
    if not 1 <= rate <= _MAX_SAMPLE_RATE:
        raise ShapeError(f"sample rate must be in [1, {_MAX_SAMPLE_RATE}], got {rate}")


def load_wav(path) -> AudioBuffer:
    """Read a 16-bit PCM or 32-bit float WAV; stereo is averaged to mono.

    `path` is a file name or a binary file object, which errors name by its
    `name` attribute when it has one. Float samples clip into [-1, 1); a NaN
    or infinite one is an error naming the file and the frame. A file that
    is not little-endian RIFF WAVE, lacks its fmt or data chunk, has an
    unknown format tag, a sample rate outside [1, 2**31 - 1] or a data chunk
    shorter than its header says is a FormatError naming the file.
    """
    if hasattr(path, "read"):
        blob = path.read()
        path = getattr(path, "name", path)
    else:
        with open(path, "rb") as fh:
            blob = fh.read()
    sample_format, channels, rate, frames, data = _parse_wav(path, blob)
    if frames == 0:
        raise ShapeError(f"{path}: contains no samples")
    if sample_format not in _READ_DTYPES:
        raise FormatError(
            f"{path}: unsupported WAV sample format {sample_format}; need int16 PCM or float32"
        )
    data = np.frombuffer(data, _READ_DTYPES[sample_format], count=frames * channels)
    if channels > 1:
        data = data.reshape(frames, channels)
    if sample_format == "int16":
        samples = data.astype(np.float64) / _PCM_FULL_SCALE
    else:
        finite = np.isfinite(data)
        if not finite.all():
            first = tuple(np.argwhere(~finite)[0])  # (frame,) or (frame, channel)
            raise DomainError(f"{path}: sample {first[0]} is not finite ({data[first]})")
        samples = np.clip(data.astype(np.float64), -1.0, _MAX_FLOAT_SAMPLE)
    if samples.ndim == 2:
        warnings.warn(f"{path}: averaging {samples.shape[1]} channels to mono")
        samples = samples.mean(axis=1)
    return AudioBuffer(samples, rate)


def _parse_wav(path, blob: bytes):
    """(sample format, channels, rate, frames, data bytes) of a RIFF WAVE file.

    Chunks other than fmt and data (LIST, fact, ...) are skipped, with the
    pad byte after an odd-sized one. The sample format is numpy's name for
    the samples as scipy.io.wavfile reads them: uint8 up to 8 bits, int16,
    int32 or int64 by container width above that, floatNN for IEEE float.
    """
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a little-endian RIFF WAVE file "
                          f"(it starts {blob[:12]!r}; RIFX and RF64 are not read)")
    fmt = data = None
    pos = 12
    while pos + 8 <= len(blob) and (fmt is None or data is None):
        chunk_id, size = struct.unpack_from("<4sI", blob, pos)
        pos += 8
        if chunk_id == b"fmt " and fmt is None:
            fmt = blob[pos : pos + size]
        elif chunk_id == b"data" and data is None:
            data = blob[pos : pos + size]
            if len(data) < size:
                raise FormatError(f"{path}: data chunk is truncated: its header says "
                                  f"{size} bytes, the file holds {len(data)}")
        pos += size + (size & 1)
    if fmt is None:
        raise FormatError(f"{path}: no 'fmt ' chunk")
    if data is None:
        raise FormatError(f"{path}: no 'data' chunk")
    if len(fmt) < 16:
        raise FormatError(f"{path}: 'fmt ' chunk holds {len(fmt)} bytes, need 16")
    tag, channels, rate, _, block_align, bits = struct.unpack_from("<HHIIHH", fmt)
    if not 1 <= rate <= _MAX_SAMPLE_RATE:
        raise FormatError(f"{path}: 'fmt ' chunk gives sample rate {rate}, "
                          f"outside [1, {_MAX_SAMPLE_RATE}]")
    if tag == _WAVE_EXTENSIBLE and len(fmt) >= 40 and fmt[28:40] == _KSDATAFORMAT_TAIL:
        tag = int.from_bytes(fmt[24:28], "little")
    width = block_align // channels if channels else 0
    if width == 0:
        raise FormatError(f"{path}: 'fmt ' chunk gives {channels} channels "
                          f"in {block_align}-byte frames")
    if tag == _WAVE_PCM:
        sample_format = "uint8" if bits <= 8 else {2: "int16", 3: "int32", 4: "int32"}.get(
            width, "int64")
    elif tag == _WAVE_FLOAT:
        sample_format = f"float{8 * width}"
    else:
        raise FormatError(f"{path}: unsupported WAV format tag {tag:#06x}; "
                          f"need PCM (1) or IEEE float (3)")
    return sample_format, channels, rate, len(data) // (width * channels), data


def write_wav(path, buffer: AudioBuffer) -> None:
    """Write mono 16-bit PCM to a file name or binary file object.

    Values at or above full scale clip to the top code. The bytes equal
    scipy.io.wavfile.write's for the same int16 codes and rate; header and
    samples go out in one write, to a file name through write_file.
    """
    blob = _pcm16_file(_pcm16(buffer.samples), buffer.sample_rate)
    if hasattr(path, "write"):
        path.write(blob)
    else:
        write_file(path, blob)


def _pcm16(samples) -> np.ndarray:
    """int16 codes of float samples of any shape: rounded, the top code clipped."""
    return np.clip(np.round(samples * _PCM_FULL_SCALE), -32768, 32767).astype("<i2")


def _pcm16_file(pcm, rate: int) -> bytes:
    """A mono 16-bit PCM WAV file's bytes: the 44-byte header, then one row of codes."""
    header = _PCM16_HEADER.pack(b"RIFF", 36 + pcm.nbytes, b"WAVE", b"fmt ", 16, _WAVE_PCM,
                                1, rate, 2 * rate, 2, 16, b"data", pcm.nbytes)
    return header + pcm.tobytes()


def write_file(path, data: bytes) -> None:
    """Make the file at `path` hold exactly `data`; every qwave output goes through here.

    An existing file is rewritten in place and then cut to len(data), never
    truncated on open: on ext4, emptying a file that holds data and closing
    it once refilled (which starts its writeback) cost several times the
    write itself. A new file gets mode 0o666 & ~umask, as open(path, "wb")
    gives.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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

    A chunk whose peak magnitude exceeds 1 - EPSILON is rescaled by
    encoding.rescale_rows, as in SignalChunk.from_values. A NaN or infinite
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
    # One max over every magnitude: when it is within the bound no row is
    # rescaled and every scale is 1.0. A NaN or infinity fails the comparison
    # and takes the row-wise path below. |x + 0j| is |x| exactly, so a float64
    # signal's own magnitudes decide without the complex abs.
    if np.abs(values if values.dtype == np.float64 else rows).max() <= 1.0 - EPSILON:
        return ChunkPlan(chunk_size, total, rows, np.ones(num_chunks))
    peaks = np.abs(rows).max(axis=1)
    if not np.isfinite(peaks).all():
        i = int(np.argmin(np.isfinite(np.abs(rows.reshape(-1)))))
        raise DomainError(f"sample {i} is not finite ({values[i]})")
    return ChunkPlan(chunk_size, total, rows, rescale_rows(rows, peaks))


METRICS_CSV_HEADER = (
    "chunk_index,shots,seed,rmsd_percent,fidelity_percent,"
    "postselect_probability,scale_f,scale_g"
)
# The %-format of each metrics.csv field, shared by MetricsReport.csv_row and
# QuadOutput.metrics_csv: chunk_index, shots, seed, then the five float columns.
METRICS_CSV_FIELDS = ("%s", "%s", "%s", "%.10g", "%.10g", "%.10g", "%.10g", "%.10g")


@dataclass(frozen=True)
class MetricsReport:
    """One metrics.csv row for a processed chunk."""

    chunk_index: int
    shots: object  # int, or the string "exact"
    seed: object
    rmsd_percent: float
    fidelity_percent: float
    postselect_probability: float
    scale_f: float
    scale_g: float

    def csv_row(self) -> str:
        return ",".join(METRICS_CSV_FIELDS) % (
            self.chunk_index, self.shots, self.seed, self.rmsd_percent,
            self.fidelity_percent, self.postselect_probability, self.scale_f, self.scale_g,
        )


@dataclass(frozen=True)
class QuadOutput:
    """The four decoded channels, concatenated over chunks, plus metrics columns.

    `columns` is a (5, num_chunks) float array holding metrics.csv's rmsd,
    fidelity, post-selection probability, scale_f and scale_g columns;
    `shots` is the shot count or "exact". `metrics` builds the equivalent
    MetricsReport rows on first access.
    """

    components: dict
    shots: object
    seed: int
    columns: np.ndarray

    @functools.cached_property
    def metrics(self) -> tuple:
        return tuple(
            MetricsReport(i, self.shots, self.seed, *row)
            for i, row in enumerate(zip(*self.columns.tolist()))
        )

    def metrics_csv(self) -> str:
        """metrics.csv's text: the header, then MetricsReport.csv_row of each chunk.

        shots, seed and each column whose entries share one bit pattern (in
        exact mode, rmsd and fidelity always) are formatted once, into the
        row template; the chunk index and the other columns fill it in one %
        pass over the whole table. Bits, not ==, decide, so 0.0 and -0.0 are
        not taken for one value.
        """
        num_chunks = self.columns.shape[1]
        if not num_chunks:
            return METRICS_CSV_HEADER + "\n"
        fields = list(METRICS_CSV_FIELDS)
        fields[1] = _fixed_field(fields[1], self.shots)
        fields[2] = _fixed_field(fields[2], self.seed)
        bits = self.columns.view(np.int64)
        constant = (bits == bits[:, :1]).all(axis=1)
        for k in np.flatnonzero(constant):
            fields[3 + k] = _fixed_field(fields[3 + k], self.columns[k, 0].item())
        template = ",".join(fields) + "\n"
        table = zip(range(num_chunks), *self.columns[~constant].tolist())
        return METRICS_CSV_HEADER + "\n" + (template * num_chunks) % tuple(
            chain.from_iterable(table))


def _fixed_field(field: str, value) -> str:
    """`value` formatted by `field`, escaped to stand as literal text in a %-template."""
    return (field % (value,)).replace("%", "%%")


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
    chunks are split into min(workers, os.cpu_count()) contiguous ranges,
    fewer if a range would hold under _MIN_RANGE_AMPLITUDES state amplitudes
    (exact) or _MIN_RANGE_DRAWS shot draws, and run on that many threads
    (the Philox draw, the sorts and numpy's large array loops release the
    GIL; draw_counts' bincount holds it) or in this one when that is 1.
    Each range reads its decoded channels and rmsd, fidelity and prob00
    columns off a block of states at a time, so peak memory is one block of
    states and, in shot mode, one sampling batch (a few MiB; see
    qwave.sampling.draw_counts) per thread.
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
    num_chunks, big_n = plan_f.values.shape
    if shots is None:
        ranges = num_chunks * 4 * big_n // _MIN_RANGE_AMPLITUDES
    else:
        ranges = num_chunks * shots // _MIN_RANGE_DRAWS
    threads = max(1, min(workers, num_chunks, ranges))
    if threads > 1:  # os.cpu_count() costs microseconds; a one-thread call skips it
        threads = min(threads, os.cpu_count() or 1)
    step = -(-num_chunks // threads)
    channels = np.empty((len(COMPONENTS), num_chunks, big_n))
    scores = np.empty((3, num_chunks))
    scores[0], scores[1] = 0.0, 100.0

    def run(first):
        """Fill the channels and scores of chunks first .. first + step - 1."""
        last = first + step
        for lo, states in product_blocks(plan_f.values[first:last], plan_g.values[first:last]):
            rows = slice(first + lo, first + lo + len(states))
            # [t_f, t_g, chunk, x]: each component a contiguous (rows, N) slice
            block = states.transpose(2, 3, 0, 1)
            scores[2, rows] = np.sum(np.abs(block[0, 0]) ** 2, axis=1)
            if shots is None:
                # COMPONENTS order is 2 * t_f + t_g
                channels[:, rows] = np.abs(block.reshape(4, -1, big_n) * np.sqrt(big_n))
                continue
            seeds = [[seed, k] for k in range(rows.start, rows.stop)]
            readout = shot_readout(states, shots, seeds)
            channels[:, rows], scores[0, rows], scores[1, rows] = readout

    if threads == 1:
        run(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # its import costs every CLI start

        with ThreadPoolExecutor(threads) as pool:
            # reading each result re-raises the error a range ended with
            list(pool.map(run, range(0, num_chunks, step)))
    columns = np.vstack([scores, plan_f.scales, plan_g.scales])
    channels = channels.reshape(len(COMPONENTS), -1)
    components = {f"{bf}{bg}": channels[j] for j, (bf, bg) in enumerate(COMPONENTS)}
    return QuadOutput(components, "exact" if shots is None else shots, seed, columns)


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
    for listening (a remap, not an inverse of the encoding product). A
    channel holding a NaN or infinite sample is a DomainError raised before
    any file is written.
    """
    keys = sorted(quad.components)
    # every channel at once: one (channels, samples) block of float64
    block = np.array([quad.components[key][: plan.total_samples].real for key in keys],
                     dtype=np.float64)
    if normalization is not None and normalization.mode == "shift-scale":
        block = 2.0 * block - 1.0
    # checked before the clip, which would write +-inf as full scale; after it no peak exceeds 1
    if not np.isfinite(block).all():
        raise DomainError("samples contain non-finite values")
    np.clip(block, -1.0, 1.0, out=block)
    _check_rate(sample_rate)
    pcm = _pcm16(block)
    if not os.path.isdir(out_dir):  # one stat when the directory is there, as the CLI leaves it
        os.makedirs(out_dir, exist_ok=True)
    paths = {}
    for key, codes in zip(keys, pcm):
        paths[key] = os.path.join(out_dir, f"component_{key}.wav")
        write_file(paths[key], _pcm16_file(codes, sample_rate))
    metrics_path = os.path.join(out_dir, "metrics.csv")
    write_file(metrics_path, quad.metrics_csv().encode())
    paths["metrics"] = metrics_path
    return paths

"""Every file qwave reads or writes, and the chunked audio pipeline between them.

Signals come in as WAV or numeric text (read_signal); a run's WAVs, CSV
tables (csv_table) and manifest go out through one write_outputs call. Audio
is float64 in [-1, 1). 16-bit PCM reads multiply by 2**-15, exactly (-32768
maps to -1.0, 16384 to 0.5); writes round to int16 and clip the top code.
The RIFF codec is this module's own: it reads 16-bit PCM and 32-bit float
WAVs (plain or WAVE_FORMAT_EXTENSIBLE, any channel count) and writes mono
16-bit PCM. Positive-domain signals are split into power-of-two chunks, held as the
rows of one array; the chunks run through the two-ancilla product pipeline
together (exactly or with shot sampling), and the four decoded channels come
back as one (4, samples) block in chunk order.
"""

from __future__ import annotations

import functools
import hashlib
import io
import os
import struct
import warnings
from dataclasses import astuple, dataclass

import numpy as np

from .encoding import EPSILON, rescale_rows
from .errors import DomainError, FormatError, NormalizationError, ResourceLimitError, ShapeError
from .pipelines import COMPONENTS, convolve_blocks, kernel_spectrum, product_blocks
from .sampling import shot_readout
from .statevector import MAX_QUBITS

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
# The least work each thread's row range must hold before _run_ranges splits
# a call: state amplitudes on the exact engines (one product_blocks block),
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
        # one bounds test, which a NaN or an infinity fails too; only then is the error chosen
        if not (-1.0 <= samples.min() and samples.max() <= 1.0):
            if not np.isfinite(samples).all():
                raise DomainError("samples contain non-finite values")
            raise DomainError(f"samples exceed full scale (peak {float(np.abs(samples).max())})")
        check_rate(self.sample_rate)
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return int(self.samples.size)


def check_rate(rate: int, name: str = "sample rate") -> None:
    """A ShapeError naming `name` unless `rate` fits a WAV header: 1 <= rate <= 2**31 - 1."""
    if not 1 <= rate <= _MAX_SAMPLE_RATE:
        raise ShapeError(f"{name} must be in [1, {_MAX_SAMPLE_RATE}], got {rate}")


def check_chunk_size(chunk_size: int, name: str = "chunk_size") -> None:
    """An error naming `name` unless `chunk_size` is 2**n >= 2 and n + 2 <= MAX_QUBITS."""
    if chunk_size < 2 or chunk_size & (chunk_size - 1):
        raise ShapeError(f"{name} must be a power of two >= 2, got {chunk_size}")
    # multiply and convolve both hold a chunk of 2**n samples in n + 2 qubits
    limit = 1 << (MAX_QUBITS - 2)
    if chunk_size > limit:
        raise ResourceLimitError(
            f"{name} {chunk_size} exceeds 2**(MAX_QUBITS-2) = {limit}: a chunk "
            f"of 2**n samples needs n + 2 qubits and MAX_QUBITS is {MAX_QUBITS}")


def check_seed(seed: int, name: str = "seed") -> None:
    """A ShapeError naming `name` unless `seed` is >= 0, as numpy.random.SeedSequence needs."""
    if seed < 0:
        raise ShapeError(f"{name} must be >= 0, got {seed}")


def check_workers(workers: int, name: str = "workers") -> None:
    """A ShapeError naming `name` unless `workers` is >= 1."""
    if workers < 1:
        raise ShapeError(f"{name} must be >= 1, got {workers}")


def _read(path) -> bytes:
    """The bytes of the file at `path`, as open(path, "rb").read() gives them.

    One open, one fstat and one read of the size fstat gives; a file that
    reads short, or whose size reads 0 (a pipe), is read on to its end. A
    missing file or a directory is an OSError naming `path`, as from open().
    """
    fd = os.open(path, os.O_RDONLY)  # a missing file's FileNotFoundError carries its name
    try:
        size = os.fstat(fd).st_size
        blob = os.read(fd, size)
        if not blob or len(blob) < size:
            parts = [blob]
            while part := os.read(fd, 1 << 16):
                parts.append(part)
            blob = b"".join(parts)
        return blob
    except IsADirectoryError as exc:  # os.open opens a directory, and its read names no file
        raise IsADirectoryError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)


def read_signal(path, sample_rate: int) -> tuple:
    """(AudioBuffer, sha256 hex of the file), both from one read of its bytes.

    A .wav name (any case) decodes as in load_wav, at the file's own rate;
    any other is numeric text (one finite number a line) at `sample_rate`, in
    [-1, 1], clipped as float WAV samples are.
    """
    blob = _read(path)
    digest = hashlib.sha256(blob).hexdigest()
    if str(path).lower().endswith(".wav"):
        return _decode_wav(path, blob), digest
    values = _parse_numbers(blob, path)
    if np.abs(values).max() > 1.0:
        raise ShapeError(f"{path}: samples must lie in [-1, 1]")
    return AudioBuffer(np.clip(values, -1.0, _MAX_FLOAT_SAMPLE), sample_rate), digest


def _parse_numbers(blob: bytes, label) -> np.ndarray:
    """The one column of finite numbers in a text file's bytes; each error starts with `label`."""
    # decoded as open(path) would, with the default encoding and universal newlines
    try:
        with io.TextIOWrapper(io.BytesIO(blob)) as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            values = np.loadtxt(fh, dtype=np.float64, ndmin=1)
    except ValueError as exc:  # a word that is not a number, ragged rows, or not text
        raise ShapeError(f"{label}: not numeric text ({exc})") from None
    if values.size == 0:
        raise ShapeError(f"{label}: contains no samples")
    if values.ndim != 1:
        raise ShapeError(f"{label}: expected a single column of samples")
    if not np.all(np.isfinite(values)):
        raise ShapeError(f"{label}: samples must be finite")
    return values


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
        return _decode_wav(getattr(path, "name", path), path.read())
    return _decode_wav(path, _read(path))


def _decode_wav(path, blob: bytes) -> AudioBuffer:
    """load_wav of a file's bytes; errors name `path`."""
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
        samples = np.multiply(data, 1.0 / _PCM_FULL_SCALE, dtype=np.float64)  # exact
    else:
        finite = np.isfinite(data)
        if not finite.all():
            first = tuple(np.argwhere(~finite)[0])  # (frame,) or (frame, channel)
            raise DomainError(f"{path}: sample {first[0]} is not finite ({data[first]})")
        samples = np.clip(data.astype(np.float64), -1.0, _MAX_FLOAT_SAMPLE)
    if samples.ndim == 2:
        warnings.warn(f"{path}: averaging {samples.shape[1]} channels to mono")
        samples = samples.mean(axis=1)
    # codes over 32768, clipped floats and their channel means all lie in [-1, 1],
    # and _parse_wav refused a rate out of range, so AudioBuffer's bounds pass is skipped
    buffer = object.__new__(AudioBuffer)
    object.__setattr__(buffer, "samples", samples)
    object.__setattr__(buffer, "sample_rate", rate)
    return buffer


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


def _pcm16(samples, out=None) -> np.ndarray:
    """int16 codes of finite float samples of any shape: clipped to [-1, 1], rounded.

    The clip, scaling and rounding run in one float64 array: `out`, which
    may be `samples` itself, or else a new one. The clip stops at the top
    code's sample, 1 - 2**-15, so no code needs clipping after the exact
    scale by 32768 and no finite sample overflows it.
    """
    codes = np.clip(samples, -1.0, _MAX_FLOAT_SAMPLE, out=out)
    codes *= _PCM_FULL_SCALE
    np.rint(codes, out=codes)
    return codes.astype("<i2")


def _pcm16_file(pcm, rate: int) -> bytes:
    """A mono 16-bit PCM WAV file's bytes: the 44-byte header, then one row of codes."""
    header = _PCM16_HEADER.pack(b"RIFF", 36 + pcm.nbytes, b"WAVE", b"fmt ", 16, _WAVE_PCM,
                                1, rate, 2 * rate, 2, 16, b"data", pcm.nbytes)
    return header + pcm.tobytes()


def write_file(path, data: bytes) -> None:
    """Make the file at `path` hold exactly `data`; every qwave output goes through here.

    An existing file is rewritten in place and then, if it was longer, cut
    to len(data), never truncated on open: on ext4, emptying a file that
    holds data and closing it once refilled (which starts its writeback)
    cost several times the write itself. A new file gets mode 0o666 & ~umask,
    as open(path, "wb") gives.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if os.lseek(fd, 0, os.SEEK_END) > len(data):  # an lseek costs less than an ftruncate
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


def remap_for_listening(block: np.ndarray, record: NormalizationRecord) -> None:
    """Map decoded magnitudes in [0, 1] back to [-1, 1] via 2v - 1, in place.

    Only after shift-scale normalization; any other record leaves `block` as
    it is. A remap for listening, not an inverse of the encoded product.
    """
    if record.mode == "shift-scale":
        block *= 2.0
        block -= 1.0


def normalize_for_encoding(buffer: AudioBuffer, mode: str = "assume-positive"):
    """Map samples into the encodable domain, returning (values, record).

    "assume-positive" returns the buffer's own array, not a copy, and rejects
    any negative sample. "shift-scale" maps [-1, 1) to [0, 1) via (s + 1) / 2.
    """
    samples = buffer.samples
    if mode == "assume-positive":
        if samples.min() < 0:  # one pass; only a refused input is searched for its negatives
            negative = np.flatnonzero(samples < 0)
            i = int(negative[0])
            raise DomainError(
                f"assume-positive input has {negative.size} negative samples, "
                f"first at index {i} (value {samples[i]})"
            )
        return samples, NormalizationRecord(mode, 0.0, 1.0)
    if mode == "shift-scale":
        return (samples + 1.0) * 0.5, NormalizationRecord(mode, 1.0, 0.5)
    raise ShapeError(f"unknown normalization mode {mode!r}")


@dataclass(frozen=True)
class ChunkPlan:
    """Disjoint power-of-two chunks covering a signal, tail zero-padded.

    `values` is a (num_chunks, chunk_size) array with one chunk per row,
    each inside the SignalChunk magnitude bound: float64 for a real signal,
    complex128 for a complex one. `scales[i]` is the factor row i was
    multiplied by (1.0 unless its peak was above the bound). Row i, cast to
    complex128, and scales[i] equal SignalChunk.from_values of that chunk's
    samples bit for bit. The rows may be a view of make_chunks' input, so
    neither is written while the other is in use.
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
    sample is a DomainError naming its index. A chunk_size that check_chunk_size
    refuses is refused before any row is allocated. An input already in the
    rows' dtype that fills its last chunk is not copied: the rows are its
    reshape, copied only before a row is rescaled, so the input is never written.
    """
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise ShapeError(f"expected a non-empty 1-D signal, got shape {values.shape}")
    check_chunk_size(chunk_size)
    total = values.size
    num_chunks = -(-total // chunk_size)
    # float64 rows for a real signal: |x + 0j| is |x| and (x + 0j) * c is
    # x * c + 0j exactly, so every step downstream gives the real part of the
    # complex rows' result, in half the memory
    dtype = np.result_type(values.dtype, np.float64)
    shared = values.dtype == dtype and total == num_chunks * chunk_size
    if shared:
        rows = values.reshape(num_chunks, chunk_size)
    else:
        rows = np.zeros((num_chunks, chunk_size), dtype=dtype)
        rows.reshape(-1)[:total] = values
    # One peak over every magnitude, for real rows from their max and min with
    # no |rows| temporary: within the bound no row is rescaled and every scale
    # is 1.0. A NaN or infinity fails the comparison and takes the row-wise path.
    peak = np.abs(rows).max() if rows.dtype.kind == "c" else max(rows.max(), -rows.min())
    if peak <= 1.0 - EPSILON:
        return ChunkPlan(chunk_size, total, rows, np.ones(num_chunks))
    peaks = np.abs(rows).max(axis=1)
    if not np.isfinite(peaks).all():
        i = int(np.argmin(np.isfinite(np.abs(rows.reshape(-1)))))
        raise DomainError(f"sample {i} is not finite ({values[i]})")
    if shared:
        rows = rows.copy()  # rescale_rows writes the hot rows in place
    return ChunkPlan(chunk_size, total, rows, rescale_rows(rows, peaks))


# Every CSV table qwave writes: its header, and the %-format of each field for
# csv_table. multiply's metrics.csv (MetricsReport.csv_row writes one of its rows):
METRICS_CSV_HEADER = (
    "chunk_index,shots,seed,rmsd_percent,fidelity_percent,"
    "postselect_probability,scale_f,scale_g"
)
METRICS_CSV_FIELDS = ("%s", "%s", "%s", "%.10g", "%.10g", "%.10g", "%.10g", "%.10g")
# convolve's metrics.csv, and shot-sweep's sweep.csv, whose shots is a count or "exact"
CONVOLVE_CSV = ("chunk_index,rel_l2_vs_oracle", ("%d", "%.10g"))
SWEEP_CSV = ("shots,log10_shots,rmsd_percent_median,rmsd_percent_min,rmsd_percent_max,"
             "fidelity_percent_median,fidelity_percent_min,fidelity_percent_max,num_seeds",
             ("%s", "%.6g") + ("%.10g",) * 6 + ("%s",))


def csv_table(table, columns) -> str:
    """The text of a (header, fields) table: the header line, then row i of the columns.

    columns[0] is a sequence with one entry per row; each other column is a
    sequence as long, one value for every row, or a float64 array of one or
    more consecutive columns, one per row of the 2-D array (a 1-D one holds
    one). fields[k] %-formats the k-th column, and a None entry is an empty
    field. One value, and an array row whose entries share one bit pattern
    (one compare tests each array; bits, not ==, decide, so 0.0 and -0.0
    differ), are formatted once, into the row template; the other columns
    fill it in one % pass over the whole table.
    """
    header, fields = table
    num_rows = len(columns[0])
    if not num_rows:
        return header + "\n"
    flat = []
    for column in columns:
        if isinstance(column, np.ndarray):
            block = column.reshape(-1, column.shape[-1])
            bits = block.view(np.int64)
            constant = (bits == bits[:, :1]).all(axis=1).tolist()
            flat += [row[0].item() if same else row for row, same in zip(block, constant)]
        else:
            flat.append(column)
    template, varying = [], []
    for field, column in zip(fields, flat):
        if isinstance(column, np.ndarray):
            column = column.tolist()
        elif isinstance(column, list) and None in column:
            column = ["" if value is None else field % (value,) for value in column]
            field = "%s"
        if isinstance(column, (list, range)):
            template.append(field)
            varying.append(column)
        else:
            template.append((field % (column,)).replace("%", "%%"))
    row = ",".join(template) + "\n"
    # the % arguments live only through the % pass, not through the join, the call's peak
    return header + "\n" + (row * num_rows) % _row_major(varying, num_rows)


def _row_major(columns, num_rows: int) -> tuple:
    """The entries of `columns`, each num_rows long, row by row: one slice assignment a column."""
    values = [None] * (num_rows * len(columns))
    for k, column in enumerate(columns):
        values[k::len(columns)] = column
    return tuple(values)


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
        return ",".join(METRICS_CSV_FIELDS) % astuple(self)


@dataclass(frozen=True)
class QuadOutput:
    """The four decoded channels, concatenated over chunks, plus metrics columns.

    `channels` is a (4, samples) float64 block, one row per component in
    COMPONENTS order; `components` maps each key ("00", "01", "10", "11") to
    a view of its row. `columns` is a (5, num_chunks) float array holding
    metrics.csv's rmsd, fidelity, post-selection probability, scale_f and
    scale_g columns; `shots` is the shot count or "exact". `metrics` builds
    the equivalent MetricsReport rows on first access.
    """

    channels: np.ndarray
    shots: object
    seed: int
    columns: np.ndarray

    @property
    def components(self) -> dict:
        return {f"{bf}{bg}": row for (bf, bg), row in zip(COMPONENTS, self.channels)}

    @functools.cached_property
    def metrics(self) -> tuple:
        return tuple(
            MetricsReport(i, self.shots, self.seed, *row)
            for i, row in enumerate(zip(*self.columns.tolist()))
        )

    def metrics_csv(self) -> str:
        """metrics.csv's text: the header, then MetricsReport.csv_row of each chunk, by csv_table."""
        return csv_table((METRICS_CSV_HEADER, METRICS_CSV_FIELDS),
                         [range(self.columns.shape[1]), self.shots, self.seed, self.columns])


def _run_ranges(engine, write, num_rows: int, workers: int, amplitudes: int, draws=None):
    """write(rows, block) for each (lo, block) that engine(first, last) yields, as
    product_blocks and convolve_blocks do over the row slice first:last, with
    `rows` the block's slice of all num_rows rows.

    A row costs `draws` shot draws, or `amplitudes` amplitudes if draws is None.
    The rows run in min(workers, os.cpu_count()) contiguous ranges, fewer if one
    would hold under _MIN_RANGE_DRAWS or _MIN_RANGE_AMPLITUDES of them, on that
    many threads, or in this one when that is 1; a range's error is raised here.
    """
    ranges = (num_rows * amplitudes // _MIN_RANGE_AMPLITUDES if draws is None
              else num_rows * draws // _MIN_RANGE_DRAWS)
    threads = max(1, min(workers, num_rows, ranges))
    if threads > 1:  # os.cpu_count() costs microseconds; a one-thread call skips it
        threads = min(threads, os.cpu_count() or 1)
    step = -(-num_rows // threads)

    def run(first):
        for lo, block in engine(first, first + step):
            write(slice(first + lo, first + lo + len(block)), block)

    if threads == 1:
        return run(0)
    from concurrent.futures import ThreadPoolExecutor  # its import costs every CLI start

    with ThreadPoolExecutor(threads) as pool:  # reading each result re-raises a range's error
        list(pool.map(run, range(0, num_rows, step)))


def process_chunks(plan_f: ChunkPlan, plan_g: ChunkPlan, shots: int | None = None,
                   seed: int = 0, workers: int = 1) -> QuadOutput:
    """Run every chunk pair through the product pipeline.

    shots=None computes components exactly from the statevector; an integer
    samples that many shots with a per-chunk stream derived from (seed,
    chunk_index), so results are byte-identical for any worker count. The
    chunks run in contiguous ranges by _run_ranges, a chunk costing 4 * N
    state amplitudes (exact) or `shots` draws, on up to `workers` threads
    (the Philox draw, the sorts and numpy's large array loops release the
    GIL; draw_counts' bincount holds it). Each range reads its decoded
    channels and rmsd, fidelity and prob00 columns off a block of states at
    a time, so peak memory is one block of states and, in shot mode, one
    sampling batch (a few MiB; see qwave.sampling.draw_counts) per thread.
    The channels come back as one fresh (4, total_samples) block, the tail
    padding cut off, that no other array shares, so a caller may overwrite it.
    """
    if plan_f.total_samples != plan_g.total_samples:
        raise ShapeError(
            f"signals differ in length: {plan_f.total_samples} vs {plan_g.total_samples}")
    if plan_f.chunk_size != plan_g.chunk_size or plan_f.num_chunks != plan_g.num_chunks:
        raise ShapeError("chunk plans do not match")
    check_workers(workers)
    if shots is not None and shots < 1:
        raise ShapeError(f"shots must be >= 1 or None for exact mode, got {shots}")
    check_seed(seed)
    num_chunks, big_n = plan_f.values.shape
    channels = np.empty((len(COMPONENTS), num_chunks, big_n))
    # QuadOutput.columns: rmsd, fidelity and prob00, which the ranges fill, then the scales
    columns = np.empty((5, num_chunks))
    columns[0], columns[1] = 0.0, 100.0
    columns[3], columns[4] = plan_f.scales, plan_g.scales

    def write(rows, states):  # the channels and score columns of chunks `rows`
        # [t_f, t_g, chunk, x]: each component a contiguous (rows, N) slice
        block = states.transpose(2, 3, 0, 1)
        top = block[0, 0]  # real for real rows, where |x|**2 is x*x
        columns[2, rows] = (top * top if top.dtype.kind == "f" else np.abs(top) ** 2).sum(1)
        if shots is None:
            # the block is fresh, so it is scaled in place and its magnitudes
            # written straight into the channels, in COMPONENTS order (2 * t_f + t_g)
            block = block.reshape(4, -1, big_n)
            block *= np.sqrt(big_n)
            np.abs(block, out=channels[:, rows])
            return
        seeds = [[seed, k] for k in range(rows.start, rows.stop)]
        channels[:, rows], columns[0, rows], columns[1, rows] = shot_readout(states, shots, seeds)

    _run_ranges(lambda lo, hi: product_blocks(plan_f.values[lo:hi], plan_g.values[lo:hi]),
                write, num_chunks, workers, 4 * big_n, shots)
    channels = channels.reshape(len(COMPONENTS), -1)[:, : plan_f.total_samples]
    return QuadOutput(channels, "exact" if shots is None else shots, seed, columns)


def build_kernel(spec: str, chunk_size: int, domain: str = "auto", spec_name: str = "spec",
                 domain_name: str = "domain") -> tuple:
    """(time_domain_values, domain_label, file_sha256, padded_len) of a kernel spec.

    padded_len, 2 * chunk_size, is the frame convolve_plan runs each chunk in.
    Built-ins: identity, shift-K, moving-average-K (time domain) and
    low-pass-K (Fourier domain: keep bins within K of DC, inverse-transformed
    here before the pipeline); an explicit domain other than a built-in's own
    is an error. Anything else is read as a numeric file whose domain comes
    from `domain`: time (length <= chunk_size) or fourier (length ==
    padded_len exactly); file_sha256 is the hash of the bytes read, None
    for a built-in. Errors name the spec and the domain as `spec_name` and
    `domain_name`.
    """
    padded_len = 2 * chunk_size
    name = spec.strip()
    if not name:  # open() would read "" as a missing file
        raise ShapeError(f"{spec_name} {spec!r} is blank; name a built-in or a kernel file")
    builtin = _builtin_kernel(name, chunk_size, padded_len)
    if builtin is not None:
        if domain not in ("auto", builtin[1]):
            raise ShapeError(f"{domain_name} {domain} contradicts {spec_name} {name}, "
                             f"a {builtin[1]}-domain built-in")
        return (*builtin, None, padded_len)
    # numeric file
    blob = _read(name)
    values, digest = _parse_numbers(blob, f"{spec_name} {name}"), hashlib.sha256(blob).hexdigest()
    if domain == "fourier":
        if values.size != padded_len:
            raise ShapeError(f"{name}: Fourier-domain kernel must have exactly "
                             f"{padded_len} bins, got {values.size}")
        with np.errstate(over="ignore", invalid="ignore"):  # checked just below
            values = np.fft.ifft(values)
        if not np.all(np.isfinite(values)):
            raise ShapeError(f"{spec_name} {name}: its inverse transform is not finite")
        return values, "fourier", digest, padded_len
    if values.size > chunk_size:
        raise ShapeError(f"{name}: kernel length {values.size} exceeds chunk size {chunk_size}")
    return values, "time", digest, padded_len


def _builtin_kernel(name: str, chunk_size: int, padded_len: int):
    """(time_domain_values, domain_label) of a built-in kernel, or None for a file."""
    if name == "identity":
        return np.array([1.0]), "time"
    if name.startswith("shift-"):
        k = _kernel_param(name, "shift-")
        if not 0 <= k < chunk_size:
            raise ShapeError(f"shift amount {k} must be in [0, {chunk_size})")
        kernel = np.zeros(k + 1)
        kernel[k] = 1.0
        return kernel, "time"
    if name.startswith("moving-average-"):
        k = _kernel_param(name, "moving-average-")
        if not 1 <= k <= chunk_size:
            raise ShapeError(f"moving-average width {k} must be in [1, {chunk_size}]")
        return np.full(k, 1.0 / k), "time"
    if name.startswith("low-pass-"):
        k = _kernel_param(name, "low-pass-")
        if not 0 <= k <= padded_len // 2:
            raise ShapeError(f"low-pass cutoff {k} must be in [0, {padded_len // 2}]")
        bins = np.arange(padded_len)
        ghat = np.where(np.minimum(bins, padded_len - bins) <= k, 1.0, 0.0)
        return np.fft.ifft(ghat), "fourier"
    return None


def _kernel_param(name: str, prefix: str) -> int:
    tail = name[len(prefix):]
    # int() would also take signs, underscores, spaces and non-ASCII digits
    if not (tail.isascii() and tail.isdigit()):
        raise ShapeError(f"bad kernel spec {name!r}: {tail!r} is not an integer")
    return int(tail)


def _row_norms(x) -> np.ndarray:
    """The l2 norm of each row of a complex array, bit for bit a 1-D np.linalg.norm.

    np.vecdot sums each row with the same BLAS dot as that call, in the same
    order; np.linalg.norm(x, axis=-1) sums in another order and can move a
    printed digit.
    """
    return np.sqrt(np.vecdot(x.real, x.real, axis=-1) + np.vecdot(x.imag, x.imag, axis=-1))


def convolve_plan(plan: ChunkPlan, kernel, padded_len: int, workers: int = 1) -> tuple:
    """(samples, rel) of every chunk of `plan` convolved with `kernel` by convolve_blocks.

    rel is metrics.csv's rel_l2_vs_oracle: each row's l2 distance from the FFT
    circular convolution of the zero-padded row over that reference's norm, 0.0
    for an all-zero row; a non-finite one is a NormalizationError naming its chunk.
    samples: each row's first chunk_size real parts over its scale, cut to total_samples.
    Both come one engine block of rows at a time from _run_ranges, a row costing
    2 * padded_len amplitudes, on up to `workers` threads: the same bytes for any count.
    """
    check_workers(workers)
    samples = np.empty((plan.num_chunks, plan.chunk_size))
    rel = np.zeros(plan.num_chunks)
    spectrum = kernel_spectrum(kernel, padded_len, plan.chunk_size)  # both routes read it

    def write(rows, results):
        # a kernel tap near the float maximum overflows the reference, which the check
        # below refuses; errstate does not reach pool threads, so each block enters it
        with np.errstate(over="ignore", invalid="ignore"):
            # the oracle transforms the rows itself; each step overwrites `reference`
            reference = np.fft.fft(plan.values[rows], padded_len)
            reference *= spectrum
            np.fft.ifft(reference, out=reference)
            denom = _row_norms(reference)
            distance = _row_norms(np.subtract(results, reference, out=reference))
            np.divide(distance, denom, out=rel[rows], where=denom != 0)
            # chunks are disjoint and unwindowed, so the linear tail past chunk_size
            # has nowhere to go; it is dropped, not overlap-added
            np.divide(results[:, : plan.chunk_size].real, plan.scales[rows, None],
                      out=samples[rows])

    _run_ranges(lambda lo, hi: convolve_blocks(plan.values[lo:hi], spectrum), write,
                plan.num_chunks, workers, 2 * padded_len)
    bad = np.flatnonzero(~np.isfinite(rel))
    if bad.size:
        raise NormalizationError(f"rel_l2_vs_oracle of chunk {bad[0]} is {rel[bad[0]]}; "
                                 "the kernel overflows the reference convolution")
    return samples.reshape(-1)[: plan.total_samples], rel


def ensure_dir(path) -> None:
    """Make the directory `path` and its parents unless it is one: one stat when it is."""
    if not os.path.isdir(path):
        os.makedirs(path, exist_ok=True)


def write_outputs(out_dir, tables: dict, wavs=(), block=None, sample_rate=None) -> None:
    """Write every file of a run into `out_dir` (made by ensure_dir), in the order given.

    Row i of `block`, a fresh float64 (len(wavs), samples) array that
    _pcm16 clips to [-1, 1] and turns into 16-bit codes in place, becomes the
    mono 16-bit WAV wavs[i], as write_wav writes it; then each name in
    `tables` gets its text: a CSV table, or a CLI run's manifest.txt, last.
    A block without one row per WAV name or a sample_rate that check_rate
    refuses is a ShapeError, and a NaN or infinite sample a DomainError,
    all raised before anything is made or the block is touched.
    """
    rows = 0 if block is None else len(block)
    if rows != len(wavs):
        raise ShapeError(f"{rows} rows of samples for {len(wavs)} WAV names")
    pcm = ()
    if wavs:
        check_rate(sample_rate)
        if not np.isfinite(block).all():  # _pcm16's clip would write +-inf as full scale
            raise DomainError("samples contain non-finite values")
        pcm = _pcm16(block, out=block)
    ensure_dir(out_dir)
    for name, codes in zip(wavs, pcm):
        write_file(os.path.join(out_dir, name), _pcm16_file(codes, sample_rate))
    for name, text in tables.items():
        write_file(os.path.join(out_dir, name), text.encode())

"""Every file qwave reads or writes, and the rules for a run's arguments.

Signals come in as WAV or numeric text (read_signal), kernels as built-ins or
numeric files (build_kernel); a run's WAVs, CSV tables (csv_table) and
manifest go out through one write_outputs call. Audio is float64 in [-1, 1).
16-bit PCM reads multiply by 2**-15, exactly (-32768 maps to -1.0, 16384 to
0.5); writes round to int16 and clip the top code. The RIFF codec is this
module's own: it reads 16-bit PCM and 32-bit float WAVs (plain or
WAVE_FORMAT_EXTENSIBLE, any channel count) and writes mono 16-bit PCM.
"""

from __future__ import annotations

import hashlib
import io
import os
import struct
import warnings
from dataclasses import astuple, dataclass

import numpy as np

from .errors import DomainError, FormatError, ResourceLimitError, ShapeError
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

"""WAV I/O, normalization, chunking, and the parallel chunk pipeline."""

import concurrent.futures
import hashlib
import io
import os
import re
import struct
import tempfile
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from qwave import (
    COMPONENTS,
    EPSILON,
    AudioBuffer,
    DomainError,
    FormatError,
    METRICS_CSV_HEADER,
    NormalizationError,
    MetricsReport,
    NormalizationRecord,
    QuadOutput,
    ResourceLimitError,
    ShapeError,
    SignalChunk,
    convolve_blocks,
    decode_component,
    extract_component,
    fidelity_percent,
    load_wav,
    make_chunks,
    normalize_for_encoding,
    pipelines,
    postselect_probability,
    process_chunks,
    rmsd_percent,
    sample_counts,
    write_wav,
)
import qwave.audio
from qwave.audio import (
    CONVOLVE_CSV, METRICS_CSV_FIELDS, SWEEP_CSV, build_kernel, convolve_plan, csv_table,
    read_signal, remap_for_listening, write_outputs,
)
from qwave.encoding import rescale_rows
from reference import csv_table_by_zip, per_channel_wav_bytes, product_state_by_gates

RNG = np.random.default_rng(3141)


def positive_signal(size, rng=RNG):
    return rng.uniform(0.05, 0.95, size)


@pytest.fixture
def split_any_work(monkeypatch):
    """Let process_chunks give a thread a range of any size, so small calls use threads."""
    monkeypatch.setattr(qwave.audio, "_MIN_RANGE_AMPLITUDES", 1)
    monkeypatch.setattr(qwave.audio, "_MIN_RANGE_DRAWS", 1)


def test_wav_int16_roundtrip(tmp_path):
    pcm = RNG.integers(-32768, 32768, size=64, dtype=np.int16)
    buffer = AudioBuffer(pcm / 32768.0, 8000)
    path = tmp_path / "x.wav"
    write_wav(path, buffer)
    back = load_wav(path)
    assert back.sample_rate == 8000
    assert np.array_equal(np.round(back.samples * 32768).astype(np.int16), pcm)
    assert np.abs(back.samples - buffer.samples).max() == 0.0


@settings(max_examples=60, deadline=None)
@given(codes=st.lists(st.integers(-32768, 32767), min_size=1, max_size=64))
def test_wav_int16_codes_roundtrip_to_the_same_bytes(codes):
    original = io.BytesIO()
    wavfile.write(original, 8000, np.array(codes, dtype=np.int16))
    original.seek(0)
    again = io.BytesIO()
    write_wav(again, load_wav(original))
    assert again.getvalue() == original.getvalue()


@settings(max_examples=60, deadline=None)
@given(samples=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=64))
def test_wav_float_roundtrip_lands_on_the_clipped_int16_code(samples):
    samples = np.array(samples)
    written = io.BytesIO()
    write_wav(written, AudioBuffer(samples, 8000))
    written.seek(0)
    code = np.clip(np.round(samples * 32768), -32768, 32767) / 32768
    # equal as values: int16 has no -0, so -0.0 comes back as 0.0
    assert np.array_equal(load_wav(written).samples, code)


@settings(max_examples=80, deadline=None)
@given(codes=st.lists(st.integers(-32768, 32767), min_size=1, max_size=300),
       rate=st.sampled_from([8000, 44100, 96000]))
def test_write_wav_bytes_equal_scipy(codes, rate):
    pcm = np.array(codes, dtype=np.int16)
    expected = io.BytesIO()
    wavfile.write(expected, rate, pcm)
    written = io.BytesIO()
    write_wav(written, AudioBuffer(pcm / 32768.0, rate))
    assert written.getvalue() == expected.getvalue()


def scipy_load(path):
    """(rate, samples) the way load_wav read WAVs through scipy.io.wavfile."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", wavfile.WavFileWarning)  # chunks scipy skips
        rate, data = wavfile.read(path)
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    else:
        samples = np.clip(data.astype(np.float64), -1.0, 1.0 - 2.0 ** -15)
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return rate, samples


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("dtype", [np.int16, np.float32])
def test_load_wav_equals_scipy_read(tmp_path, dtype, channels):
    rng = np.random.default_rng(channels)
    shape = (37,) if channels == 1 else (37, channels)
    if dtype == np.int16:
        data = rng.integers(-32768, 32768, size=shape).astype(np.int16)
        data.flat[:2] = -32768, 32767  # both ends of the int16 range
    else:
        data = rng.uniform(-1.2, 1.2, size=shape).astype(np.float32)  # some clip
    path = tmp_path / "x.wav"
    wavfile.write(path, 22050, data)
    if channels == 1:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            buffer = load_wav(path)
    else:
        with pytest.warns(UserWarning, match=f"averaging {channels} channels to mono"):
            buffer = load_wav(path)
    rate, samples = scipy_load(path)
    assert buffer.sample_rate == rate
    assert buffer.samples.tobytes() == samples.tobytes()
    # the decoder skips AudioBuffer's bounds pass; the checked buffer takes its samples as they are
    checked = AudioBuffer(buffer.samples, buffer.sample_rate)
    assert buffer.samples.dtype == np.float64 and buffer.samples.ndim == 1
    assert checked.samples.tobytes() == buffer.samples.tobytes()


def riff(*chunks, form=b"WAVE"):
    """A RIFF file from (id, body) chunks, each odd-sized body followed by its pad byte."""
    body = b"".join(cid + struct.pack("<I", len(data)) + data + b"\0" * (len(data) & 1)
                    for cid, data in chunks)
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + form + body


def fmt_chunk(tag=1, channels=1, rate=8000, bits=16, extra=b""):
    block_align = channels * (-(-bits // 8))
    return b"fmt ", struct.pack("<HHIIHH", tag, channels, rate, rate * block_align,
                                block_align, bits) + extra


# WAVE_FORMAT_EXTENSIBLE tail: cbSize 22, valid bits, channel mask, then the
# subformat GUID {tag-0000-0010-8000-00AA00389B71}
def extensible(tag, bits, channels=1, rate=8000):
    guid = struct.pack("<I", tag) + b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
    return fmt_chunk(0xFFFE, channels, rate, bits,
                     struct.pack("<HHI", 22, bits, (1 << channels) - 1) + guid)


PCM = np.array([0, 1, -1, 16384, -32768, 32767, 123], dtype="<i2")
FLOATS = np.array([0.0, 0.5, -0.25, 1.5, -1.0], dtype="<f4")


@pytest.mark.parametrize("blob, expected", [
    (riff(fmt_chunk(), (b"data", PCM.tobytes())), PCM / 32768.0),
    (riff(fmt_chunk(extra=b"\0\0"), (b"data", PCM.tobytes())), PCM / 32768.0),
    (riff(extensible(1, 16), (b"data", PCM.tobytes())), PCM / 32768.0),
    (riff(extensible(3, 32), (b"fact", struct.pack("<I", 5)), (b"data", FLOATS.tobytes())),
     np.clip(FLOATS.astype(np.float64), -1.0, 1.0 - 2.0 ** -15)),
    (riff(fmt_chunk(), (b"LIST", b"INFOISFT\x05\0\0\0qwav\0"), (b"data", PCM.tobytes())),
     PCM / 32768.0),
    (riff((b"junk", b"abc"), fmt_chunk(), (b"data", PCM.tobytes())), PCM / 32768.0),
    (riff(fmt_chunk(), (b"data", PCM.tobytes()), (b"LIST", b"xyz")), PCM / 32768.0),
], ids=["plain", "fmt-18", "extensible-pcm", "extensible-float", "list-before-data",
        "odd-chunk-padded", "chunk-after-data"])
def test_load_wav_hand_built_files(tmp_path, blob, expected):
    path = tmp_path / "x.wav"
    path.write_bytes(blob)
    buffer = load_wav(path)
    assert buffer.sample_rate == 8000
    assert buffer.samples.tobytes() == expected.tobytes()
    # the reader from a file object takes the same bytes
    assert load_wav(io.BytesIO(blob)).samples.tobytes() == expected.tobytes()
    # and scipy reads these files the same way
    assert scipy_load(path)[1].tobytes() == expected.tobytes()


@pytest.mark.parametrize("blob", [
    riff(fmt_chunk(bits=8), (b"data", bytes(range(100, 116)))),
    riff(fmt_chunk(bits=24), (b"data", bytes(48))),
    riff(fmt_chunk(bits=32), (b"data", bytes(64))),
    riff(fmt_chunk(tag=3, bits=64), (b"data", bytes(128))),
    riff(extensible(1, 24), (b"data", bytes(48))),
], ids=["u8", "int24", "int32", "float64", "extensible-int24"])
def test_unsupported_sample_format_is_named_as_scipy_reads_it(tmp_path, blob):
    path = tmp_path / "u.wav"
    path.write_bytes(blob)
    name = wavfile.read(path)[1].dtype.name
    message = f"{path}: unsupported WAV sample format {name}; need int16 PCM or float32"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_wav(path)


@pytest.mark.parametrize("blob, message", [
    (b"not a wav file at all", "not a little-endian RIFF WAVE file"),
    (b"", "not a little-endian RIFF WAVE file"),
    (riff(fmt_chunk(), (b"data", PCM.tobytes()))[:8] + b"AVI " + bytes(8),
     "not a little-endian RIFF WAVE file"),
    (b"RIFX" + riff(fmt_chunk(), (b"data", PCM.tobytes()))[4:], "RIFX and RF64 are not read"),
    (b"RF64" + riff(fmt_chunk(), (b"data", PCM.tobytes()))[4:], "RIFX and RF64 are not read"),
    (riff((b"data", PCM.tobytes())), "no 'fmt ' chunk"),
    (riff(fmt_chunk(), (b"LIST", b"abcd")), "no 'data' chunk"),
    (riff(fmt_chunk(tag=6, bits=8), (b"data", bytes(16))),
     "unsupported WAV format tag 0x0006; need PCM (1) or IEEE float (3)"),
    (riff(extensible(6, 8), (b"data", bytes(16))), "unsupported WAV format tag 0x0006"),
    (riff(fmt_chunk(), (b"data", PCM.tobytes()))[:-3],
     "data chunk is truncated: its header says 14 bytes, the file holds 11"),
    (riff((b"fmt ", bytes(12)), (b"data", PCM.tobytes())), "'fmt ' chunk holds 12 bytes"),
    (riff(fmt_chunk(channels=0), (b"data", PCM.tobytes())), "gives 0 channels"),
    (riff(fmt_chunk(rate=0), (b"data", PCM.tobytes())),
     f"'fmt ' chunk gives sample rate 0, outside [1, {2**31 - 1}]"),
    (riff((b"fmt ", struct.pack("<HHIIHH", 1, 1, 2**31, 0, 2, 16)), (b"data", PCM.tobytes())),
     f"'fmt ' chunk gives sample rate {2**31}, outside [1, {2**31 - 1}]"),
], ids=["text", "empty", "avi", "rifx", "rf64", "no-fmt", "no-data", "alaw",
        "extensible-alaw", "truncated", "short-fmt", "no-channels", "rate-zero", "rate-2**31"])
def test_load_wav_rejects_malformed_files(tmp_path, blob, message):
    path = tmp_path / "bad.wav"
    path.write_bytes(blob)
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
        load_wav(path)
    # read_signal decodes the bytes it hashed, and its error names the same path
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*{re.escape(message)}"):
        read_signal(path, 8000)


@pytest.mark.parametrize("kind", ["int16", "float32-stereo", "upper-case-name", "text"])
def test_read_signal_equals_load_wav_and_sha256_of_the_bytes(tmp_path, kind):
    rng = np.random.default_rng(22)
    if kind == "text":
        path = tmp_path / "s.txt"
        values = np.concatenate([[-1.0, 1.0, -0.0, 0.0, 5e-324], rng.uniform(-1, 1, 40)])
        np.savetxt(path, values, fmt="%.17g")
        expected = AudioBuffer(np.clip(np.loadtxt(path), -1.0, 1.0 - 2**-15), 12345)
    else:
        path = tmp_path / ("S.WAV" if kind == "upper-case-name" else "s.wav")
        if kind == "float32-stereo":
            wavfile.write(path, 22050, rng.uniform(-1, 1, (40, 2)).astype(np.float32))
        else:
            wavfile.write(path, 22050, rng.integers(-32768, 32768, 40).astype(np.int16))
        with warnings.catch_warnings(record=True):
            expected = load_wav(path)
    with warnings.catch_warnings(record=True):
        buffer, digest = read_signal(path, 12345)
    assert buffer.samples.tobytes() == expected.samples.tobytes()
    assert buffer.sample_rate == expected.sample_rate
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", ["regular", "empty", "larger-than-a-pipe-read", "fifo",
                                  "directory", "missing"])
def test_read_gives_the_bytes_and_errors_of_open(tmp_path, kind):
    """audio._read, one os.read of the fstat size, reads as open(path, "rb").read() does."""
    path = tmp_path / "file"
    blob = {"regular": b"0.5\n0.25\n", "empty": b"",
            "larger-than-a-pipe-read": os.urandom(200_000), "fifo": os.urandom(150_000)}.get(kind)
    if kind == "directory":
        path.mkdir()
    elif kind == "fifo":  # st_size reads 0, so the read goes on to the writer's end
        os.mkfifo(path)
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            written = pool.submit(path.write_bytes, blob)
            assert qwave.audio._read(path) == blob
            written.result(timeout=10)
        return
    elif kind != "missing":
        path.write_bytes(blob)
    if blob is not None:
        assert qwave.audio._read(path) == blob
        return
    with pytest.raises(OSError) as expected:
        open(path, "rb").read()
    with pytest.raises(type(expected.value)) as got:
        qwave.audio._read(path)
    assert (got.value.errno, got.value.strerror, got.value.filename) == (
        expected.value.errno, expected.value.strerror, expected.value.filename)


def test_wav_halfscale_codes():
    # -32768 -> -1.0 and 16384 -> 0.5 exactly
    buffer = AudioBuffer(np.array([-32768, 16384]) / 32768.0, 8000)
    assert buffer.samples[0] == -1.0
    assert buffer.samples[1] == 0.5


def test_load_float32(tmp_path):
    data = np.array([0.25, -0.5, 1.0, 0.0], dtype=np.float32)
    path = tmp_path / "f.wav"
    wavfile.write(path, 16000, data)
    buffer = load_wav(path)
    assert buffer.sample_rate == 16000
    assert buffer.samples[0] == pytest.approx(0.25)
    assert buffer.samples[2] == pytest.approx(1.0 - 2.0 ** -15)  # clipped below 1


def test_load_rejects_unsupported_format(tmp_path):
    path = tmp_path / "u.wav"
    wavfile.write(path, 8000, np.zeros(16, dtype=np.uint8))
    with pytest.raises(FormatError):
        load_wav(path)


def test_stereo_downmix_warns(tmp_path):
    stereo = np.stack([np.full(32, 1000), np.full(32, 3000)], axis=1).astype(np.int16)
    path = tmp_path / "s.wav"
    wavfile.write(path, 8000, stereo)
    with pytest.warns(UserWarning):
        buffer = load_wav(path)
    assert buffer.samples.shape == (32,)
    assert buffer.samples[0] == pytest.approx(2000 / 32768.0)


def test_audio_buffer_validation():
    with pytest.raises(DomainError):
        AudioBuffer(np.array([0.0, 1.5]), 8000)
    with pytest.raises(DomainError):
        AudioBuffer(np.array([0.0, np.nan]), 8000)
    # a non-finite sample is named before the peak, whatever else the buffer holds
    for bad in ([0.0, np.inf], [-np.inf, 0.5], [np.nan, 1.5], [1.5, np.nan]):
        with pytest.raises(DomainError, match=r"^samples contain non-finite values$"):
            AudioBuffer(np.array(bad), 8000)
    for bad in ([0.0, 1.5], [-1.5, 0.25], [1.0 + 2**-52, -1.0]):
        message = f"samples exceed full scale (peak {float(np.abs(bad).max())})"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            AudioBuffer(np.array(bad), 8000)
    assert AudioBuffer(np.array([-1.0, 1.0, -0.0]), 8000).samples.tolist() == [-1.0, 1.0, -0.0]
    with pytest.raises(ShapeError):
        AudioBuffer(np.zeros((4, 2)), 8000)
    for rate in (0, 2**31):
        with pytest.raises(ShapeError, match=rf"must be in \[1, 2147483647\], got {rate}$"):
            AudioBuffer(np.zeros(4), rate)


def test_largest_sample_rate_round_trips():
    """2**31 - 1 is the largest rate whose byte rate fits the header's uint32."""
    blob = io.BytesIO()
    write_wav(blob, AudioBuffer(np.array([0.0, 0.5, -0.25]), 2**31 - 1))
    blob.seek(0)
    back = load_wav(blob)
    assert back.sample_rate == 2**31 - 1
    assert back.samples.tolist() == [0.0, 0.5, -0.25]


def test_normalize_assume_positive():
    buffer = AudioBuffer(np.array([0.0, 0.5, 0.9]), 8000)
    values, record = normalize_for_encoding(buffer, "assume-positive")
    assert np.array_equal(values, buffer.samples)
    assert record.mode == "assume-positive"
    bad = AudioBuffer(np.array([0.1, -0.2, 0.3]), 8000)
    with pytest.raises(DomainError, match="index 1"):
        normalize_for_encoding(bad, "assume-positive")


def test_normalize_shift_scale():
    buffer = AudioBuffer(np.array([-1.0, 0.0, 0.5]), 8000)
    values, record = normalize_for_encoding(buffer, "shift-scale")
    assert values == pytest.approx([0.0, 0.5, 0.75])
    assert (record.shift, record.scale) == (1.0, 0.5)
    with pytest.raises(ShapeError):
        normalize_for_encoding(buffer, "loudness")


def test_make_chunks_padding_and_scales():
    plan = make_chunks(positive_signal(20), chunk_size=8)
    assert plan.num_chunks == 3
    assert plan.tail_padding == 4
    assert plan.total_samples == 20
    assert plan.scales.tolist() == [1.0, 1.0, 1.0]
    assert np.abs(plan.values[2, 4:]).max() == 0.0
    for bad in (3, 6):
        with pytest.raises(ShapeError, match=f"^chunk_size must be a power of two >= 2, got {bad}$"):
            make_chunks(positive_signal(20), chunk_size=bad)


def test_make_chunks_rescales_hot_chunk():
    samples = np.full(8, 0.5)
    samples[3] = 1.0 - 1e-12  # above the encoding bound, below full scale
    plan = make_chunks(samples, chunk_size=8)
    assert plan.scales[0] < 1.0
    assert np.abs(plan.values[0]).max() <= 1 - 1e-9 + 1e-15


def test_make_chunks_rows_equal_from_values():
    rng = np.random.default_rng(17)
    samples = rng.uniform(0.0, 0.9, 8 * 6 + 3) * np.exp(1j * rng.uniform(-3, 3, 8 * 6 + 3))
    samples[19] = 1.0  # hot chunk 2 among cool ones
    samples[40] = -1.0 + 1e-12j  # hot chunk 5
    samples[50] = 0.999  # the zero-padded tail chunk, cool
    plan = make_chunks(samples, chunk_size=8)
    assert plan.values.shape == (7, 8) and plan.values.dtype == np.complex128
    assert plan.scales.shape == (7,)
    padded = np.concatenate([samples, np.zeros(5)])
    for i in range(7):
        chunk = SignalChunk.from_values(padded[8 * i : 8 * (i + 1)])
        assert np.array_equal(plan.values[i], chunk.values)
        assert plan.scales[i] == chunk.scale
    assert [i for i in range(7) if plan.scales[i] != 1.0] == [2, 5]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.5, np.nan)])
def test_make_chunks_rejects_non_finite_samples(bad):
    samples = np.full(24, 0.5, dtype=type(bad))
    samples[13] = bad  # chunk 1 of 3
    samples[21] = np.nan  # a later bad sample is not the one reported
    with pytest.raises(DomainError, match=r"sample 13 is not finite"):
        make_chunks(samples, chunk_size=8)


_BOUND = 1.0 - EPSILON
# one sample's magnitude: below the rescale bound, on it, one ulp above it,
# 1, above 1, and the non-finite ones make_chunks refuses
_SPIKES = (np.nextafter(_BOUND, 0.0), _BOUND, np.nextafter(_BOUND, 2.0), 1.0, 1.5, np.nan, np.inf)


@st.composite
def chunk_signals(draw):
    """1-D float64 or complex128 signals of small samples and ±0.0, with up to two spikes.

    Each part of a small sample is at most 0.7, so its magnitude stays under
    the bound; a spike sits on one part, with a signed zero on the other.
    """
    size = draw(st.integers(1, 40))
    small = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-0.7, 0.7))
    values = np.array(draw(st.lists(small, min_size=size, max_size=size)))
    if draw(st.booleans()):
        values = values.astype(np.complex128)
        values.imag = draw(st.lists(small, min_size=size, max_size=size))
    for spike in draw(st.lists(st.sampled_from(_SPIKES), max_size=2)):
        spike *= draw(st.sampled_from([1.0, -1.0]))
        i = draw(st.integers(0, size - 1))
        if values.dtype == np.float64:
            values[i] = spike
        else:
            zero = draw(st.sampled_from([0.0, -0.0]))
            values[i] = complex(zero, spike) if draw(st.booleans()) else complex(spike, zero)
    return values


def make_chunks_by_rows(values, chunk_size):
    """make_chunks' (rows, scales) the row-wise way: every row's peak through rescale_rows."""
    rows = np.zeros((-(-values.size // chunk_size), chunk_size), dtype=np.complex128)
    rows.reshape(-1)[: values.size] = values
    peaks = np.abs(rows).max(axis=1)
    if not np.isfinite(peaks).all():
        i = int(np.argmin(np.isfinite(np.abs(rows.reshape(-1)))))
        raise DomainError(f"sample {i} is not finite ({values[i]})")
    return rows, rescale_rows(rows, peaks)


@settings(max_examples=400, deadline=None)
@given(values=chunk_signals(), chunk_size=st.sampled_from([2, 4, 8, 16]))
@example(values=np.full(9, _BOUND), chunk_size=8)
@example(values=np.full(9, np.nextafter(_BOUND, 2.0)), chunk_size=8)
@example(values=np.array([-0.0, 0.0, -_BOUND, 0.5]), chunk_size=2)
@example(values=np.array([complex(-0.0, _BOUND), complex(_BOUND, -0.0), 0.1j]), chunk_size=4)
@example(values=np.array([0.5, np.nan, np.inf]), chunk_size=2)
@example(values=np.array([0.5, 1.0, 0.25, -0.5]), chunk_size=2)  # unpadded, row 0 rescaled
def test_make_chunks_equals_row_wise_rescale_bit_for_bit(values, chunk_size):
    """One max over the signal decides as the per-row peaks do: same bits, same errors.

    The rows keep the signal's dtype (float64 for a real one) and equal the
    complex128 row-wise reference once cast. They are a view of an unpadded
    input that no row rescales, and a copy otherwise; the read-only input is
    never written.
    """
    values.setflags(write=False)
    before = values.tobytes()
    try:
        rows, scales = make_chunks_by_rows(values, chunk_size)
    except DomainError as exc:
        with pytest.raises(DomainError) as raised:
            make_chunks(values, chunk_size)
        assert str(raised.value) == str(exc)
        return
    plan = make_chunks(values, chunk_size)
    assert plan.values.dtype == values.dtype
    assert plan.values.astype(np.complex128).tobytes() == rows.tobytes()
    assert plan.scales.tobytes() == scales.tobytes()
    assert values.tobytes() == before
    unpadded_and_unscaled = values.size % chunk_size == 0 and (scales == 1.0).all()
    assert np.shares_memory(plan.values, values) == unpadded_and_unscaled


# real samples where a complex lane could round or sign differently: signed
# zeros, subnormals, the rescale bound and the ulp above it, 1 - 2**-53 and
# magnitudes at and above 1, which rescale
_REAL_EDGES = (0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1060, 2.2250738585072014e-308,
               _BOUND, -_BOUND, np.nextafter(_BOUND, 2.0), 1.0 - 2.0 ** -53, 1.0, -1.0, 1.5)


@st.composite
def real_signal_pairs(draw):
    """(f, g, chunk_size): two float64 signals of one length, edges mixed in, often tail-padded."""
    chunk_size = draw(st.sampled_from([2, 4, 8]))
    size = draw(st.integers(1, 5 * chunk_size))
    sample = st.one_of(st.sampled_from(_REAL_EDGES), st.floats(-0.99, 0.99))
    f, g = (np.array(draw(st.lists(sample, min_size=size, max_size=size))) for _ in "fg")
    return f, g, chunk_size


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=real_signal_pairs(), data=st.data())
def test_real_rows_give_the_complex_rows_outputs_bit_for_bit(split_any_work, pair, data):
    """float64 rows run every engine to the same bits as the same rows cast to complex128."""
    f, g, chunk_size = pair
    real = make_chunks(f, chunk_size), make_chunks(g, chunk_size)
    cplx = make_chunks(f.astype(np.complex128), chunk_size), make_chunks(
        g.astype(np.complex128), chunk_size)
    assert real[0].values.dtype == np.float64 and cplx[0].values.dtype == np.complex128
    for plan_r, plan_c in zip(real, cplx):
        assert plan_r.values.astype(np.complex128).tobytes() == plan_c.values.tobytes()
        assert plan_r.scales.tobytes() == plan_c.scales.tobytes()
    for shots, seed in ((None, 0), (1000, 5), (1000, 6)):
        for workers in (1, 2):
            want = process_chunks(*cplx, shots=shots, seed=seed, workers=workers)
            got = process_chunks(*real, shots=shots, seed=seed, workers=workers)
            for key in want.components:
                assert got.components[key].tobytes() == want.components[key].tobytes()
            assert got.columns.tobytes() == want.columns.tobytes()
    # taps whose spectrum full_scale can scale to the bound (a subnormal peak's factor overflows)
    tap = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.01, 1.0), st.floats(-1.0, -0.01))
    taps = data.draw(st.lists(tap, min_size=1, max_size=chunk_size))
    for pad_to in (chunk_size, 2 * chunk_size):
        spectrum = np.fft.fft(taps, pad_to)
        want = np.concatenate([out for _, out in convolve_blocks(cplx[0].values, spectrum)])
        got = np.concatenate([out for _, out in convolve_blocks(real[0].values, spectrum)])
        assert got.dtype == np.complex128 and got.tobytes() == want.tobytes()


@st.composite
def convolve_cases(draw):
    """(plan, kernel, padded_len): rows that rescale, all-zero rows, tail padding, any kernel."""
    chunk_size = draw(st.sampled_from([2, 4, 8, 16, 32, 64]))
    num_chunks = draw(st.integers(1, 4))
    size = draw(st.integers((num_chunks - 1) * chunk_size + 1, num_chunks * chunk_size))
    # a chunk of each kind: within the bound, above it (make_chunks rescales it), or all zero
    peaks = draw(st.lists(st.sampled_from([0.9, 4.0, 0.0]), min_size=num_chunks,
                          max_size=num_chunks))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.uniform(-1.0, 1.0, (num_chunks, chunk_size)) * np.array(peaks)[:, None]
    plan = make_chunks(values.reshape(-1)[:size], chunk_size)
    padded_len = 2 * chunk_size
    if draw(st.booleans()):  # a time-domain kernel up to chunk_size taps wide
        kernel = rng.uniform(-1.0, 1.0, draw(st.integers(1, chunk_size)))
    else:  # a Fourier-domain kernel file's taps, as build_kernel reads them: complex
        kernel = np.fft.ifft(rng.uniform(-1.0, 1.0, padded_len))
    return plan, kernel, padded_len


@settings(max_examples=80, deadline=None)
@given(case=convolve_cases())
def test_convolve_plan_equals_the_engine_and_the_per_row_oracle_bit_for_bit(case):
    """convolve_plan's samples are the engine's rows unscaled; each rel is the 1-D norm ratio.

    At any engine block size: one block, one row per block, or blocks whose last is short.
    """
    plan, kernel, padded_len = case
    samples, rel = convolve_plan(plan, kernel, padded_len)
    for rows in (1, 2, 3):
        with mock.patch.object(pipelines, "_CHUNK_BLOCK", rows * 2 * padded_len):
            blocked = convolve_plan(plan, kernel, padded_len)
        assert blocked[0].tobytes() == samples.tobytes()
        assert blocked[1].tobytes() == rel.tobytes()
    spectrum = np.fft.fft(kernel, padded_len)
    results = np.concatenate([out for _, out in convolve_blocks(plan.values, spectrum)])
    want = (results[:, : plan.chunk_size].real / plan.scales[:, None]).reshape(-1)
    assert samples.tobytes() == want[: plan.total_samples].tobytes()
    assert rel.shape == (plan.num_chunks,)
    for i, row in enumerate(plan.values):
        ref = np.fft.ifft(np.fft.fft(row, padded_len) * np.fft.fft(kernel, padded_len))
        norm = np.linalg.norm(results[i] - ref) / np.linalg.norm(ref) if row.any() else 0.0
        assert rel[i].tobytes() == np.float64(norm).tobytes()


def test_convolve_plan_transforms_the_kernel_once(monkeypatch):
    """The engine and the oracle share one kernel spectrum: one 1-D np.fft.fft call per plan.

    Every other transform is of a block of rows, 2-D, in the engine or the
    oracle; three blocks of rows show the spectrum is not redone per block.
    """
    monkeypatch.setattr(pipelines, "_CHUNK_BLOCK", 2 * 2 * 16)  # two rows per block
    plan = make_chunks(np.full(40, 0.5), 8)
    fft, shapes = np.fft.fft, []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return fft(a, *args, **kwargs)

    monkeypatch.setattr(np.fft, "fft", counted)
    convolve_plan(plan, np.full(4, 0.25), 16)
    assert [shape for shape in shapes if len(shape) == 1] == [(16,)]
    assert len(shapes) == 1 + 2 * 3


def test_convolve_plan_refuses_a_kernel_that_overflows_the_oracle():
    """Taps of 1e307 encode but overflow the FFT reference; taps of 1e308 overflow the spectrum."""
    plan = make_chunks(np.full(20, 0.5), 8)
    with pytest.raises(NormalizationError, match="rel_l2_vs_oracle of chunk 0 is nan"):
        convolve_plan(plan, np.full(8, 1e307), 16)
    with pytest.raises(NormalizationError, match="cannot rescale a peak"):
        convolve_plan(plan, np.full(8, 1e308), 16)


def test_convolve_plan_names_the_first_overflowing_chunk_in_a_later_block(monkeypatch):
    """Zero rows convolve to a zero reference, whose rel is 0.0; chunk 3 overflows first."""
    monkeypatch.setattr(pipelines, "_CHUNK_BLOCK", 2 * 2 * 16)  # two rows per block
    plan = make_chunks(np.concatenate([np.zeros(24), np.full(16, 0.5)]), 8)
    with pytest.raises(NormalizationError, match="rel_l2_vs_oracle of chunk 3 is nan"):
        convolve_plan(plan, np.full(8, 1e307), 16)


def test_convolve_plan_memory_is_the_outputs_and_one_block():
    """No whole-signal complex array: 2**20 samples at chunk 8 peak under twice the samples."""
    plan = make_chunks(positive_signal(1 << 20, np.random.default_rng(27)), 8)
    tracemalloc.start()
    try:
        samples, _ = convolve_plan(plan, np.full(4, 0.25), 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert samples.size == 1 << 20
    assert peak <= 2 * samples.nbytes, f"peak {peak / samples.nbytes:.2f}x the samples"


def reference_quad(f, g, chunk_size, shots, seed):
    """process_chunks built the one-chunk way: one gate-by-gate product state per chunk."""
    channels = {c: [] for c in COMPONENTS}
    rows = []
    num_chunks = -(-f.size // chunk_size)
    padded_f, padded_g = np.zeros((2, num_chunks * chunk_size))
    padded_f[: f.size], padded_g[: g.size] = f, g
    for i in range(num_chunks):
        cut = slice(i * chunk_size, (i + 1) * chunk_size)
        chunk_f = SignalChunk.from_values(padded_f[cut])
        chunk_g = SignalChunk.from_values(padded_g[cut])
        product = product_state_by_gates(chunk_f, chunk_g)
        ideal = {c: np.abs(extract_component(product, c)) for c in COMPONENTS}
        prob00 = postselect_probability(product, (0, 0))
        if shots is None:
            decoded, rmsd, fidelity = ideal, 0.0, 100.0
        else:
            counts = sample_counts(product.state, shots, [seed, i])
            decoded = {c: decode_component(counts, c) for c in COMPONENTS}
            rmsd = rmsd_percent(decoded[(0, 0)], ideal[(0, 0)])
            fidelity = fidelity_percent(counts, product.state)
        for c in COMPONENTS:
            channels[c].append(decoded[c])
        rows.append(MetricsReport(i, "exact" if shots is None else shots, seed, rmsd,
                                  fidelity, prob00, chunk_f.scale, chunk_g.scale).csv_row())
    return {f"{bf}{bg}": np.concatenate(channels[(bf, bg)]) for bf, bg in COMPONENTS}, rows


@pytest.mark.parametrize("shots", [None, 3000], ids=["exact", "shots"])
@pytest.mark.parametrize("num_chunks,workers", [(5, 1), (5, 2), (5, 3), (2, 3)])
def test_process_chunks_equals_one_chunk_reference(split_any_work, shots, num_chunks, workers):
    rng = np.random.default_rng(num_chunks * 10 + workers)
    f = rng.uniform(0.0, 0.99, 8 * num_chunks - 3)
    g = rng.uniform(0.0, 0.99, 8 * num_chunks - 3)
    quad = process_chunks(make_chunks(f, 8), make_chunks(g, 8), shots=shots, seed=11,
                          workers=workers)
    channels, rows = reference_quad(f, g, 8, shots, 11)
    assert sorted(quad.components) == sorted(channels)
    for key, values in channels.items():  # the reference keeps the tail padding
        assert np.array_equal(quad.components[key], values[: f.size])
    assert [m.csv_row() for m in quad.metrics] == rows


def test_process_chunks_memory_bounded_by_block():
    """Peak memory is the outputs plus one block of chunks, not the whole signal."""
    samples, chunk_size = 2**17, 8
    num_chunks = samples // chunk_size
    # the signal's states hold 4 * samples amplitudes, 8x the block
    assert 8 * pipelines._CHUNK_BLOCK <= 4 * samples
    rng = np.random.default_rng(5)
    plan_f = make_chunks(rng.uniform(0.05, 0.95, samples), chunk_size)
    plan_g = make_chunks(rng.uniform(0.05, 0.95, samples), chunk_size)
    # four float64 channels, written in place; the metrics columns, five
    # float64 per chunk stacked from the three score rows (88 bytes per chunk
    # at the peak); a block's states, rho blocks and their temporaries at 64
    # bytes per amplitude. Batching all chunks at once peaks at 36 MiB here.
    bound = 4 * 8 * samples + 128 * num_chunks + 64 * pipelines._CHUNK_BLOCK
    tracemalloc.start()
    try:
        quad = process_chunks(plan_f, plan_g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert quad.components["00"].size == samples
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f} MiB"


def test_process_chunks_exact_recovers_products():
    f = positive_signal(24)
    g = positive_signal(24)
    quad = process_chunks(make_chunks(f, 8), make_chunks(g, 8))
    assert np.abs(quad.components["00"] - f * g).max() < 1e-12
    assert np.abs(
        quad.components["01"] - f * np.sqrt(1 - g ** 2)
    ).max() < 1e-12
    assert np.abs(
        quad.components["11"] - np.sqrt((1 - f ** 2) * (1 - g ** 2))
    ).max() < 1e-12
    assert len(quad.metrics) == 3
    assert quad.metrics[0].shots == "exact"
    assert quad.metrics[0].rmsd_percent == 0.0
    assert quad.metrics[0].fidelity_percent == 100.0


def test_process_chunks_shot_mode_metrics():
    f = positive_signal(16)
    g = positive_signal(16)
    quad = process_chunks(make_chunks(f, 8), make_chunks(g, 8), shots=20_000, seed=9)
    assert [m.chunk_index for m in quad.metrics] == [0, 1]
    for m in quad.metrics:
        assert m.shots == 20_000
        assert m.seed == 9
        assert 0.0 < m.rmsd_percent < 10.0
        assert 90.0 < m.fidelity_percent < 100.0
        assert 0.0 < m.postselect_probability < 1.0
    assert np.abs(quad.components["00"] - f * g).max() < 0.2


def test_process_chunks_identical_across_worker_counts(split_any_work):
    f = positive_signal(32)
    g = positive_signal(32)
    plan_f, plan_g = make_chunks(f, 8), make_chunks(g, 8)
    serial = process_chunks(plan_f, plan_g, shots=5000, seed=4, workers=1)
    pooled = process_chunks(plan_f, plan_g, shots=5000, seed=4, workers=2)
    for key in serial.components:
        assert np.array_equal(serial.components[key], pooled.components[key])
    assert [m.csv_row() for m in serial.metrics] == [m.csv_row() for m in pooled.metrics]


class RecordingExecutor:
    """ThreadPoolExecutor stand-in: records max_workers and maps in the calling thread.

    process_chunks imports the pool from concurrent.futures when it starts
    threads, so the tests patch it there.
    """

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("cpus, workers, started", [(3, 1000, [3]), (3, 2, [2]), (1, 8, []),
                                                    (None, 8, [])])
def test_pool_is_bounded_by_cpu_count(monkeypatch, split_any_work, cpus, workers, started):
    """Both modes run their chunk ranges on min(workers, cpus) threads."""
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(qwave.audio.os, "cpu_count", lambda: cpus)
    rng = np.random.default_rng(workers)
    plan_f = make_chunks(rng.uniform(0.05, 0.95, 8 * 20), 8)
    plan_g = make_chunks(rng.uniform(0.05, 0.95, 8 * 20), 8)
    pooled = process_chunks(plan_f, plan_g, shots=300, seed=2, workers=workers)
    assert RecordingExecutor.sizes == started
    exact = process_chunks(plan_f, plan_g, workers=workers)
    assert RecordingExecutor.sizes == started * 2
    monkeypatch.undo()
    serial = process_chunks(plan_f, plan_g, shots=300, seed=2, workers=1)
    for key in serial.components:
        assert np.array_equal(serial.components[key], pooled.components[key])
    assert pooled.columns.tobytes() == serial.columns.tobytes()
    serial_exact = process_chunks(plan_f, plan_g)
    for key in serial.components:
        assert np.array_equal(serial_exact.components[key], exact.components[key])
    assert exact.columns.tobytes() == serial_exact.columns.tobytes()


def test_one_worker_never_asks_the_core_count(monkeypatch, split_any_work):
    """workers=1 skips os.cpu_count(); with 4 workers one core still caps the threads at 1."""
    def refuse():
        raise AssertionError("os.cpu_count() was called")

    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(qwave.audio.os, "cpu_count", refuse)
    rng = np.random.default_rng(5)
    plan_f = make_chunks(rng.uniform(0.05, 0.95, 8 * 20), 8)
    plan_g = make_chunks(rng.uniform(0.05, 0.95, 8 * 20), 8)
    serial = [process_chunks(plan_f, plan_g, shots=shots, seed=2, workers=1)
              for shots in (None, 300)]
    monkeypatch.setattr(qwave.audio.os, "cpu_count", lambda: 1)
    pooled = [process_chunks(plan_f, plan_g, shots=shots, seed=2, workers=4)
              for shots in (None, 300)]
    assert RecordingExecutor.sizes == []
    for one, four in zip(serial, pooled):
        for key in one.components:
            assert one.components[key].tobytes() == four.components[key].tobytes()
        assert one.columns.tobytes() == four.columns.tobytes()


def test_threads_are_bounded_by_chunk_count(monkeypatch, split_any_work):
    """Two chunks make two ranges, so 8 CPUs and 1000 workers start two threads."""
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(qwave.audio.os, "cpu_count", lambda: 8)
    plan = make_chunks(np.linspace(0.1, 0.9, 2 * 2**10), 2**10)
    pooled = process_chunks(plan, plan, shots=50, seed=1, workers=1000)
    assert RecordingExecutor.sizes == [2]
    serial = process_chunks(plan, plan, shots=50, seed=1)
    assert pooled.columns.tobytes() == serial.columns.tobytes()


@pytest.mark.parametrize("shots, num_chunks, chunk_size, started", [
    # 250 chunks of 8, the benchmark's exact call: 8000 amplitudes, one range
    (None, 250, 8, []),
    (None, 2, 1024, []),
    # chunks of 8 hold 32 amplitudes: 2 ranges' worth, then one chunk short of 4
    (None, 2 * (qwave.audio._MIN_RANGE_AMPLITUDES // 32), 8, [2]),
    (None, 4 * (qwave.audio._MIN_RANGE_AMPLITUDES // 32) - 1, 8, [3]),
    (300, 20, 8, []),
    (qwave.audio._MIN_RANGE_DRAWS - 1, 2, 2, []),
    (qwave.audio._MIN_RANGE_DRAWS, 2, 2, [2]),
], ids=["exact-c8", "exact-c1024", "exact-2-ranges", "exact-3-ranges", "shots-small",
        "shots-below", "shots-2-ranges"])
def test_threads_start_only_for_ranges_with_enough_work(monkeypatch, shots, num_chunks,
                                                        chunk_size, started):
    """Each thread gets at least _MIN_RANGE_AMPLITUDES amplitudes or _MIN_RANGE_DRAWS draws."""
    monkeypatch.setattr(RecordingExecutor, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(qwave.audio.os, "cpu_count", lambda: 8)
    rng = np.random.default_rng(num_chunks)
    plan_f = make_chunks(rng.uniform(0.05, 0.95, num_chunks * chunk_size), chunk_size)
    plan_g = make_chunks(rng.uniform(0.05, 0.95, num_chunks * chunk_size), chunk_size)
    pooled = process_chunks(plan_f, plan_g, shots=shots, seed=4, workers=8)
    assert RecordingExecutor.sizes == started
    monkeypatch.undo()
    serial = process_chunks(plan_f, plan_g, shots=shots, seed=4)
    for key in serial.components:
        assert np.array_equal(serial.components[key], pooled.components[key])
    assert pooled.columns.tobytes() == serial.columns.tobytes()


@pytest.mark.parametrize("chunk_size", [2, 8, 32])
def test_shot_columns_equal_per_chunk_calls_bit_for_bit(chunk_size):
    """Row-wise decode, rmsd and fidelity give each chunk's one-chunk values exactly."""
    rng = np.random.default_rng(chunk_size)
    f = rng.uniform(0.0, 0.99, 5 * chunk_size)
    g = rng.uniform(0.0, 0.99, 5 * chunk_size)
    plan_f, plan_g = make_chunks(f, chunk_size), make_chunks(g, chunk_size)
    quad = process_chunks(plan_f, plan_g, shots=777, seed=5)
    for i in range(plan_f.num_chunks):
        product = product_state_by_gates(SignalChunk(plan_f.values[i]),
                                         SignalChunk(plan_g.values[i]))
        counts = sample_counts(product.state, 777, [5, i])
        decoded = decode_component(counts, (0, 0))
        ideal = np.abs(extract_component(product, (0, 0)))
        cut = slice(i * chunk_size, (i + 1) * chunk_size)
        for bf, bg in COMPONENTS:
            assert np.array_equal(quad.components[f"{bf}{bg}"][cut],
                                  decode_component(counts, (bf, bg)))
        assert quad.columns[0, i] == rmsd_percent(decoded, ideal)
        assert quad.columns[1, i] == fidelity_percent(counts, product.state)
        assert quad.columns[2, i] == postselect_probability(product, (0, 0))


def test_metrics_rows_are_built_on_access_and_match_the_csv(tmp_path):
    plan_f = make_chunks(positive_signal(40), 8)
    plan_g = make_chunks(positive_signal(40), 8)
    quad = process_chunks(plan_f, plan_g, shots=200, seed=6)
    assert "metrics" not in vars(quad)
    rows = [m.csv_row() for m in quad.metrics]
    assert quad.metrics is quad.metrics
    assert quad.metrics_csv() == "".join(line + "\n" for line in [METRICS_CSV_HEADER, *rows])
    assert [(m.chunk_index, m.shots, m.seed) for m in quad.metrics] == [
        (i, 200, 6) for i in range(5)]
    assert [m.scale_f for m in quad.metrics] == plan_f.scales.tolist()


# every float the writer must print as csv_row does: NaN, infinities, signed
# zeros, subnormals, and the exponent form's edges at 1e16 and 1e-5
_CSV_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, -2e-310,
                     1e16, 9999999999.5, 1e-5, 1e-4, 1.0, 100.0]),
)


def draw_columns(data, count, num_rows) -> np.ndarray:
    """`count` float columns, each one value, signed zeros or any _CSV_FLOATS."""
    columns = np.empty((count, num_rows))
    for j in range(count):
        kind = data.draw(st.sampled_from(["constant", "signed-zeros", "varying"]))
        if kind == "constant":
            columns[j] = data.draw(_CSV_FLOATS)
        else:
            entries = st.sampled_from([0.0, -0.0]) if kind == "signed-zeros" else _CSV_FLOATS
            columns[j] = data.draw(st.lists(entries, min_size=num_rows, max_size=num_rows))
    return columns


@settings(max_examples=150, deadline=None)
@given(num_chunks=st.integers(0, 7), shots=st.one_of(st.integers(1, 10**7), st.just("exact")),
       seed=st.integers(0, 2**63 - 1), data=st.data())
def test_metrics_csv_equals_header_and_csv_rows(num_chunks, shots, seed, data):
    columns = draw_columns(data, 5, num_chunks)
    quad = QuadOutput(np.empty((4, 0)), shots, seed, columns)
    rows = [m.csv_row() for m in quad.metrics]
    assert quad.metrics_csv() == "".join(line + "\n" for line in [METRICS_CSV_HEADER, *rows])
    # the rows str.format wrote before the %-format fields
    assert rows == ["{},{},{},{:.10g},{:.10g},{:.10g},{:.10g},{:.10g}".format(
        i, shots, seed, *columns[:, i].tolist()) for i in range(num_chunks)]
    # sweep.csv, one more table: the rows its f-strings wrote before csv_table,
    # exact entries with the exact state's scores
    specs = data.draw(st.lists(st.one_of(st.none(), st.integers(1, 10**7)), min_size=1,
                               max_size=7))
    num_seeds = data.draw(st.integers(1, 10**4))
    scores = draw_columns(data, 6, len(specs))
    lines = ["shots,log10_shots,rmsd_percent_median,rmsd_percent_min,"
             "rmsd_percent_max,fidelity_percent_median,fidelity_percent_min,"
             "fidelity_percent_max,num_seeds\n"]
    for i, spec in enumerate(specs):
        if spec is None:
            scores[:, i] = (0.0, 0.0, 0.0, 100.0, 100.0, 100.0)
            lines.append(f"exact,,0,0,0,100,100,100,{num_seeds}\n")
            continue
        r_med, r_min, r_max, f_med, f_min, f_max = scores[:, i].tolist()
        lines.append(f"{spec},{np.log10(spec):.6g},{r_med:.10g},{r_min:.10g},{r_max:.10g},"
                     f"{f_med:.10g},{f_min:.10g},{f_max:.10g},{num_seeds}\n")
    labels = ["exact" if spec is None else spec for spec in specs]
    log10 = [None if spec is None else np.log10(spec) for spec in specs]
    strided = scores.T.copy().T  # each score column a strided view, as the CLI passes them
    assert csv_table(SWEEP_CSV, [labels, log10, *strided, num_seeds]) == "".join(lines)


_FLOAT_ARRAY_KINDS = ("constant", "varying", "signed-zeros", "nan")


def draw_csv_column(data, field, num_rows, first):
    """A csv_table column for `field`: one value, a range, a list (None entries are
    empty fields) or, for a float field, a float64 array: constant, varying, signed
    zeros or NaNs. The first column is a range or a list, one entry per row."""
    if field in ("%s", "%d"):
        entries = st.integers(-10**18, 10**18)
        if field == "%s":
            entries = st.one_of(entries, st.just("exact"))
        kinds = ["value", "range", "list", "none"]
    else:
        entries = _CSV_FLOATS
        kinds = ["value", *_FLOAT_ARRAY_KINDS, "none"]
    kind = data.draw(st.sampled_from(["range", "list"] if first else kinds))
    if kind == "value":
        return data.draw(entries)
    if kind == "range":
        return range(num_rows)
    if kind in _FLOAT_ARRAY_KINDS:
        return draw_float_array(data, num_rows, kind)
    if kind == "none":
        entries = st.one_of(st.none(), entries)
    return data.draw(st.lists(entries, min_size=num_rows, max_size=num_rows))


def draw_float_array(data, num_rows, kind=None):
    """num_rows float64 entries of one of _FLOAT_ARRAY_KINDS, drawn when `kind` is None."""
    if kind is None:
        kind = data.draw(st.sampled_from(_FLOAT_ARRAY_KINDS))
    if kind == "constant":
        return np.full(num_rows, data.draw(_CSV_FLOATS))
    entries = {"varying": _CSV_FLOATS, "signed-zeros": st.sampled_from([0.0, -0.0]),
               "nan": st.sampled_from([float("nan"), -float("nan"), 0.5])}[kind]
    return np.array(data.draw(st.lists(entries, min_size=num_rows, max_size=num_rows)),
                    dtype=np.float64)


@settings(max_examples=60, deadline=None)
@given(table=st.sampled_from([(METRICS_CSV_HEADER, METRICS_CSV_FIELDS), CONVOLVE_CSV, SWEEP_CSV]),
       num_rows=st.one_of(st.integers(0, 8), st.integers(0, 300)), data=st.data())
def test_csv_table_equals_the_zip_assembly(table, num_rows, data):
    """The % arguments laid out by slice assignment give the text zip and chain gave, and a
    2-D float64 block of consecutive columns gives the text of its rows passed one by one."""
    columns = [draw_csv_column(data, field, num_rows, k == 0) for k, field in enumerate(table[1])]
    assert csv_table(table, columns) == csv_table_by_zip(table, columns)
    # every table's float columns are one run: any stretch of it becomes one block
    floats = [k for k, field in enumerate(table[1]) if field not in ("%s", "%d")]
    lo = data.draw(st.sampled_from(floats))
    hi = data.draw(st.integers(lo + 1, floats[-1] + 1))
    block = np.array([draw_float_array(data, num_rows) for _ in range(lo, hi)])
    if data.draw(st.booleans()):
        block = block.T.copy().T  # strided rows, as shot-sweep passes its score block
    assert csv_table(table, [*columns[:lo], block, *columns[hi:]]) == csv_table_by_zip(
        table, [*columns[:lo], *block, *columns[hi:]])


@pytest.mark.parametrize("block", [
    # constant rows (rmsd, fidelity, scale_f) and varying ones (prob00 and scale_g) in one block
    np.array([[0.0] * 4, [100.0] * 4, [0.25, 0.5, 0.5, -0.0], [1.0] * 4, [1.0, 1.0, 1.0, 0.5]]),
    np.array([[0.0], [100.0], [0.125], [1.0], [-0.0]]),  # C = 1: every row is constant
], ids=["constant-and-varying", "one-chunk"])
def test_csv_table_block_equals_its_rows(block):
    table = (METRICS_CSV_HEADER, METRICS_CSV_FIELDS)
    want = csv_table_by_zip(table, [range(block.shape[1]), "exact", 3, *block])
    assert csv_table(table, [range(block.shape[1]), "exact", 3, block]) == want
    assert want.splitlines()[-1] == f"{block.shape[1] - 1},exact,3," + ",".join(
        "%.10g" % value for value in block[:, -1])


@pytest.mark.parametrize("shift_scale", [False, True], ids=["plain", "shift-scale"])
def test_stitched_wavs_equal_per_channel_write_wav(tmp_path, shift_scale):
    # the stitched block as multiply writes it: remapped, then through write_outputs
    record = NormalizationRecord("shift-scale" if shift_scale else "assume-positive", 1.0, 0.5)
    rng = np.random.default_rng(21)
    plan_f = make_chunks(positive_signal(37, rng), 8)
    plan_g = make_chunks(positive_signal(37, rng), 8)
    decoded = process_chunks(plan_f, plan_g, shots=300, seed=1).channels
    # past both ends of the range, on the clip and rounding edges, and -0.0
    edges = np.array([1.0, 1.5, -0.25, -1.0, -0.0, 0.5 + 2.0**-16, 1.0 - 2.0**-16, 2.0**-17])
    decoded[1, :edges.size] = edges
    names = [f"component_{key}.wav" for key in ("00", "01", "10", "11")]
    for k, block in enumerate([process_chunks(plan_f, plan_g).channels, decoded]):
        # before the block is overwritten
        want = [per_channel_wav_bytes(row, 11025, shift_scale) for row in block]
        remap_for_listening(block, record)
        out_dir = tmp_path / str(k)
        write_outputs(out_dir, {"metrics.csv": "x\n"}, names, block, 11025)
        assert sorted(os.listdir(out_dir)) == [*names, "metrics.csv"]
        for name, blob in zip(names, want):
            assert (out_dir / name).read_bytes() == blob, name


def pcm16_by_the_clip_scale_round_min_chain(samples) -> np.ndarray:
    """The codes write_outputs wrote before: clip to [-1, 1], scale, round, clip 32768 to 32767."""
    codes = np.clip(samples, -1.0, 1.0) * 32768.0
    np.round(codes, out=codes)
    np.minimum(codes, 32767, out=codes)
    return codes.astype("<i2")


_TOP = 32767.5 / 32768  # scales onto the half between the top code and 32768
# the full-scale ends, the floats just inside and above 1, signed zeros,
# subnormals, each rounding tie and its neighbours near the top, and huge finite samples
_PCM_EDGES = (1.0, -1.0, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0), 1.0 + 2.0 ** -15, 1.5,
              -np.nextafter(1.0, 2.0), -1.5, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
              _TOP, np.nextafter(_TOP, 0.0), np.nextafter(_TOP, 2.0), 32767 / 32768,
              32766.5 / 32768, -32767.5 / 32768, 0.5 / 32768, -0.5 / 32768, 1.5 / 32768,
              1e308, -1e308, np.finfo(np.float64).max)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(_PCM_EDGES),
                          st.floats(-1.1, 1.1),
                          st.floats(allow_nan=False, allow_infinity=False)), min_size=1,
                max_size=64))
@example(list(_PCM_EDGES))
def test_pcm16_equals_the_clip_scale_round_min_chain(samples):
    """One clip at the top code's sample, an exact scale and a rint give the old chain's codes.

    Huge finite samples overflow nothing, and the input is left as it is unless passed as `out`.
    """
    samples = np.array(samples)
    before = samples.tobytes()
    want = pcm16_by_the_clip_scale_round_min_chain(samples).tobytes()
    with np.errstate(all="raise"):
        assert qwave.audio._pcm16(samples).tobytes() == want
        assert samples.tobytes() == before
        assert qwave.audio._pcm16(samples, out=samples).tobytes() == want


def test_write_outputs_refuses_a_non_finite_sample(tmp_path):
    plan = make_chunks(positive_signal(16), 8)
    for bad in (np.nan, np.inf, -np.inf):  # an infinite sample must not clip to full scale
        block = process_chunks(plan, plan).channels
        block[2, 5] = bad
        with pytest.raises(DomainError, match="non-finite"):
            write_outputs(tmp_path / "out", {"metrics.csv": "x\n"},
                          ["a.wav", "b.wav", "c.wav", "d.wav"], block, 8000)
        assert not os.path.exists(tmp_path / "out")


def test_write_outputs_refuses_a_block_without_one_row_per_wav(tmp_path):
    block = np.full((3, 4), 2.0)
    for names in (["a.wav", "b.wav"], ["a.wav", "b.wav", "c.wav", "d.wav"], []):
        with pytest.raises(ShapeError, match=f"^3 rows of samples for {len(names)} WAV names$"):
            write_outputs(tmp_path / "out", {"metrics.csv": "x\n"}, names, block, 8000)
    with pytest.raises(ShapeError, match="^0 rows of samples for 1 WAV names$"):
        write_outputs(tmp_path / "out", {"metrics.csv": "x\n"}, ["a.wav"])
    assert not os.path.exists(tmp_path / "out")
    assert (block == 2.0).all()  # neither clipped nor turned into codes


def test_write_outputs_refuses_a_bad_rate_before_touching_the_block(tmp_path):
    block = np.array([[1.5, -0.25, 0.5]])
    before = block.tobytes()
    for rate in (0, -1, 2**31):
        with pytest.raises(ShapeError, match=rf"^sample rate must be in \[1, \d+\], got {rate}$"):
            write_outputs(tmp_path / "out", {}, ["a.wav"], block, rate)
        assert block.tobytes() == before  # the 1.5 is not clipped to 1.0
    assert not os.path.exists(tmp_path / "out")


def test_make_chunks_refuses_a_chunk_size_no_engine_can_run_before_allocating():
    # 2**25 samples need 27 qubits; the rows alone would take 256 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="^chunk_size 33554432 exceeds"):
            make_chunks(np.full(4, 0.5), 2**25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_make_chunks_bound_test_adds_no_magnitude_temporary():
    """The one-max test of real rows reads their max and min: no |rows| beside the rows."""
    values = positive_signal(1 << 20, np.random.default_rng(32))
    tracemalloc.start()
    try:
        plan = make_chunks(values, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.scales.tolist() == [1.0] * (1 << 17)
    assert peak < 1.25 * values.nbytes, f"peak {peak / values.nbytes:.2f}x the input"


@pytest.mark.parametrize("dtype", ["float32", "complex64"])
def test_make_chunks_copies_an_input_cast_to_the_rows_dtype(dtype):
    values = positive_signal(24).astype(dtype)
    plan = make_chunks(values, 8)
    assert plan.values.dtype == np.result_type(dtype, np.float64)
    assert not np.shares_memory(plan.values, values)


def test_process_chunks_and_convolve_plan_leave_the_input_unchanged():
    """The plans' rows are views of read-only inputs here, so any write to them would raise."""
    f, g = positive_signal(64), positive_signal(64)
    before = f.tobytes() + g.tobytes()
    for values in (f, g):
        values.setflags(write=False)
    plan_f, plan_g = make_chunks(f, 8), make_chunks(g, 8)
    assert np.shares_memory(plan_f.values, f) and np.shares_memory(plan_g.values, g)
    process_chunks(plan_f, plan_g)
    process_chunks(plan_f, plan_g, shots=100, seed=2)
    convolve_plan(plan_f, np.full(4, 0.25), 16)
    assert f.tobytes() + g.tobytes() == before


def test_process_chunks_names_the_lengths_before_the_plans():
    with pytest.raises(ShapeError, match="^signals differ in length: 16 vs 24$"):
        process_chunks(make_chunks(np.full(16, 0.5), 8), make_chunks(np.full(24, 0.5), 8))
    with pytest.raises(ShapeError, match="^chunk plans do not match$"):
        process_chunks(make_chunks(np.full(16, 0.5), 8), make_chunks(np.full(16, 0.5), 4))


@pytest.mark.parametrize("spec, domain, message", [
    ("  ", "auto", "{spec} '  ' is blank; name a built-in or a kernel file"),
    ("low-pass-2", "time",
     "{domain} time contradicts {spec} low-pass-2, a fourier-domain built-in"),
    ("k.txt", "fourier", "{spec} k.txt: its inverse transform is not finite"),
])
def test_build_kernel_errors_name_the_spec_and_domain_as_the_caller_does(
        tmp_path, monkeypatch, spec, domain, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.txt").write_text(" ".join(["1e308"] * 16))
    for names in [(), ("--kernel", "--kernel-domain")]:
        spec_name, domain_name = names or ("spec", "domain")
        with pytest.raises(ShapeError) as info:
            build_kernel(spec, 8, domain, *names)
        assert str(info.value) == message.format(spec=spec_name, domain=domain_name)


def test_process_chunks_validates():
    f = make_chunks(positive_signal(16), 8)
    g = make_chunks(positive_signal(24), 8)
    with pytest.raises(ShapeError):
        process_chunks(f, g)
    g16 = make_chunks(positive_signal(16), 8)
    with pytest.raises(ShapeError, match="^workers must be >= 1, got 0$"):
        process_chunks(f, g16, workers=0)
    with pytest.raises(ShapeError):
        process_chunks(f, g16, shots=0)
    with pytest.raises(ShapeError, match="^seed must be >= 0, got -1$"):
        process_chunks(f, g16, shots=10, seed=-1)


@settings(max_examples=80, deadline=None)
@given(old=st.one_of(st.none(), st.binary(max_size=3000)), new=st.binary(max_size=3000))
@example(old=b"\xff" * 5000, new=bytes(range(44)))  # longer: its tail is cut
@example(old=b"\xff" * 44, new=bytes(range(44)))  # equal: not truncated, nothing left over
@example(old=b"\xff" * 3, new=bytes(range(44)))  # shorter
@example(old=b"", new=bytes(range(44)))
def test_write_file_leaves_exactly_the_new_bytes(old, new):
    """Over no file or any older content, longer, as long or shorter, the file ends as `new`."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "out.bin")
        if old is not None:
            with open(path, "xb") as fh:
                fh.write(old)
        qwave.audio.write_file(path, new)
        with open(path, "rb") as fh:
            assert fh.read() == new


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_write_file_creates_files_with_the_mode_open_gives(tmp_path, umask):
    previous = os.umask(umask)
    try:
        qwave.audio.write_file(tmp_path / "new.bin", b"abc")
        with open(tmp_path / "opened.bin", "xb"):
            pass
    finally:
        os.umask(previous)
    mode = os.stat(tmp_path / "new.bin").st_mode & 0o777
    assert mode == 0o666 & ~umask
    assert mode == os.stat(tmp_path / "opened.bin").st_mode & 0o777


def test_write_file_keeps_an_existing_files_mode(tmp_path):
    path = tmp_path / "kept.bin"
    path.write_bytes(b"0123456789")
    os.chmod(path, 0o640)
    qwave.audio.write_file(path, b"ab")
    assert path.read_bytes() == b"ab"
    assert os.stat(path).st_mode & 0o777 == 0o640


def test_process_chunks_channels_are_cut_to_the_signal(tmp_path):
    f = positive_signal(20)
    g = positive_signal(20)
    quad = process_chunks(make_chunks(f, 8), make_chunks(g, 8))
    assert quad.channels.shape == (4, 20) and quad.channels.dtype == np.float64
    # the components are the block's rows, in COMPONENTS order
    assert list(quad.components) == ["00", "01", "10", "11"]
    for row, values in zip(quad.channels, quad.components.values()):
        assert np.shares_memory(row, values) and np.array_equal(row, values)
    names = [f"component_{key}.wav" for key in quad.components]
    out = tmp_path / "out"
    write_outputs(out, {"metrics.csv": quad.metrics_csv()}, names, quad.channels, 8000)
    for name in names:
        assert len(load_wav(out / name)) == 20  # tail padding trimmed
    back = load_wav(out / names[0])
    assert np.abs(back.samples - f * g).max() <= 1 / 32768 + 1e-9
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0] == METRICS_CSV_HEADER
    assert len(lines) == 4
    assert lines[1].startswith("0,exact,")


def test_write_outputs_makes_its_directory_only_when_missing(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("os.makedirs() was called")

    def write(out_dir):
        write_outputs(out_dir, {"metrics.csv": "x\n"}, ["a.wav"], np.full((1, 4), 0.25), 8000)

    write(tmp_path / "a" / "b")  # parents made too
    assert (tmp_path / "a" / "b" / "metrics.csv").is_file()
    (tmp_path / "file").write_bytes(b"")
    with pytest.raises(FileExistsError):
        write(tmp_path / "file")
    monkeypatch.setattr(qwave.audio.os, "makedirs", refuse)
    write(tmp_path / "a" / "b")
    assert load_wav(tmp_path / "a" / "b" / "a.wav").samples.tolist() == [0.25] * 4


def test_stitch_shift_scale_remap(tmp_path):
    block = np.array([[0.0, 0.5, 1.0]])
    remap_for_listening(block, NormalizationRecord("assume-positive", 0.0, 1.0))
    assert block.tolist() == [[0.0, 0.5, 1.0]]  # only shift-scale is remapped
    remap_for_listening(block, NormalizationRecord("shift-scale", 1.0, 0.5))
    write_outputs(tmp_path, {"metrics.csv": "x\n"}, ["component_00.wav"], block, 8000)
    back = load_wav(tmp_path / "component_00.wav")
    assert back.samples[0] == pytest.approx(-1.0)
    assert back.samples[1] == pytest.approx(0.0, abs=1e-4)
    assert back.samples[2] == pytest.approx(1.0 - 1 / 32768, abs=1e-9)

"""WAV I/O, normalization, chunking, and the parallel chunk pipeline."""

import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from qwave import (
    COMPONENTS,
    AudioBuffer,
    DomainError,
    FormatError,
    METRICS_CSV_HEADER,
    MetricsReport,
    ShapeError,
    SignalChunk,
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
    stitch_and_write,
    write_wav,
)
from reference import product_state_by_gates

RNG = np.random.default_rng(3141)


def positive_signal(size, rng=RNG):
    return rng.uniform(0.05, 0.95, size)


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
    with pytest.raises(ShapeError):
        AudioBuffer(np.zeros((4, 2)), 8000)


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
    with pytest.raises(ShapeError):
        make_chunks(positive_signal(20), chunk_size=6)


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
def test_process_chunks_equals_one_chunk_reference(shots, num_chunks, workers):
    rng = np.random.default_rng(num_chunks * 10 + workers)
    f = rng.uniform(0.0, 0.99, 8 * num_chunks - 3)
    g = rng.uniform(0.0, 0.99, 8 * num_chunks - 3)
    quad = process_chunks(make_chunks(f, 8), make_chunks(g, 8), shots=shots, seed=11,
                          workers=workers)
    channels, rows = reference_quad(f, g, 8, shots, 11)
    assert sorted(quad.components) == sorted(channels)
    for key, values in channels.items():
        assert np.array_equal(quad.components[key], values)
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
    # four float64 channels, built per range then concatenated; one metrics
    # row (~260 bytes) per chunk; a block's states, rho blocks and their
    # temporaries at 64 bytes per amplitude. Batching all chunks at once peaks
    # at 36 MiB here.
    bound = 2 * 4 * 8 * samples + 320 * num_chunks + 64 * pipelines._CHUNK_BLOCK
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


def test_process_chunks_identical_across_worker_counts():
    f = positive_signal(32)
    g = positive_signal(32)
    plan_f, plan_g = make_chunks(f, 8), make_chunks(g, 8)
    serial = process_chunks(plan_f, plan_g, shots=5000, seed=4, workers=1)
    pooled = process_chunks(plan_f, plan_g, shots=5000, seed=4, workers=2)
    for key in serial.components:
        assert np.array_equal(serial.components[key], pooled.components[key])
    assert [m.csv_row() for m in serial.metrics] == [m.csv_row() for m in pooled.metrics]


def test_process_chunks_validates():
    f = make_chunks(positive_signal(16), 8)
    g = make_chunks(positive_signal(24), 8)
    with pytest.raises(ShapeError):
        process_chunks(f, g)
    g16 = make_chunks(positive_signal(16), 8)
    with pytest.raises(ShapeError):
        process_chunks(f, g16, workers=0)
    with pytest.raises(ShapeError):
        process_chunks(f, g16, shots=0)
    with pytest.raises(ShapeError, match="seed must be >= 0, got -1"):
        process_chunks(f, g16, shots=10, seed=-1)


def test_stitch_and_write(tmp_path):
    f = positive_signal(20)
    g = positive_signal(20)
    plan_f, plan_g = make_chunks(f, 8), make_chunks(g, 8)
    quad = process_chunks(plan_f, plan_g)
    paths = stitch_and_write(quad, plan_f, 8000, tmp_path / "out")
    for key in ("00", "01", "10", "11"):
        buffer = load_wav(paths[key])
        assert len(buffer) == 20  # tail padding trimmed
    back = load_wav(paths["00"])
    assert np.abs(back.samples - f * g).max() <= 1 / 32768 + 1e-9
    lines = open(paths["metrics"]).read().splitlines()
    assert lines[0] == METRICS_CSV_HEADER
    assert len(lines) == 4
    assert lines[1].startswith("0,exact,")


def test_stitch_shift_scale_remap(tmp_path):
    from qwave import NormalizationRecord, QuadOutput

    quad = QuadOutput({"00": np.array([0.0, 0.5, 1.0])}, ())
    plan = make_chunks(np.full(3, 0.1), 2)
    paths = stitch_and_write(
        quad, plan, 8000, tmp_path, NormalizationRecord("shift-scale", 1.0, 0.5)
    )
    back = load_wav(paths["00"])
    assert back.samples[0] == pytest.approx(-1.0)
    assert back.samples[1] == pytest.approx(0.0, abs=1e-4)
    assert back.samples[2] == pytest.approx(1.0 - 1 / 32768, abs=1e-9)

"""Product and convolution pipelines against brute-force references."""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qwave import pipelines, statevector
from qwave import (
    COMPONENTS,
    EPSILON,
    AudioBuffer,
    ResourceLimitError,
    ShapeError,
    SignalChunk,
    classical_circular_convolution,
    classical_dft,
    convolve_blocks,
    convolve_optimized,
    convolve_via_theorem,
    extract_component,
    make_chunks,
    normalize_for_encoding,
    pointwise_multiply_state,
    postselect_probability,
    product_blocks,
    zero_pad,
)
from qwave.audio import _row_norms, build_kernel
from reference import convolve_by_gates, product_state_by_gates

RNG = np.random.default_rng(90210)


def random_chunk(size, rng=RNG, complex_values=True, max_mag=0.95):
    if complex_values:
        values = rng.uniform(0.05, max_mag, size) * np.exp(
            1j * rng.uniform(-np.pi, np.pi, size)
        )
    else:
        values = rng.uniform(0.05, max_mag, size)
    return SignalChunk(values)


def linear_convolution(f, g):
    """Direct double-sum linear convolution, length len(f)+len(g)-1."""
    out = np.zeros(len(f) + len(g) - 1, dtype=np.complex128)
    for i, fi in enumerate(f):
        for j, gj in enumerate(g):
            out[i + j] += fi * gj
    return out


def test_classical_dft_frozen():
    assert np.abs(classical_dft([1, 0, 0, 0]) - np.ones(4)).max() < 1e-12
    assert np.abs(classical_dft([1, 1, 1, 1]) - np.array([4, 0, 0, 0])).max() < 1e-12
    # forward kernel is exp(-2j pi x y / M): bin 1 of a pure tone e^{+2pi i y/M}
    tone = np.exp(2j * np.pi * np.arange(8) / 8)
    spectrum = classical_dft(tone)
    expected = np.zeros(8, dtype=complex)
    expected[1] = 8.0
    assert np.abs(spectrum - expected).max() < 1e-12


def test_classical_dft_inverse_roundtrip():
    values = RNG.normal(size=16) + 1j * RNG.normal(size=16)
    back = classical_dft(classical_dft(values), inverse=True)
    assert np.abs(back - values).max() < 1e-12


def test_classical_dft_agrees_with_library_fft():
    values = RNG.normal(size=32) + 1j * RNG.normal(size=32)
    assert np.abs(classical_dft(values) - np.fft.fft(values)).max() < 1e-10


def test_dft_parseval():
    values = RNG.normal(size=8) + 1j * RNG.normal(size=8)
    spectrum = classical_dft(values)
    assert np.sum(np.abs(spectrum) ** 2) == pytest.approx(
        8 * np.sum(np.abs(values) ** 2)
    )


def test_padded_dft_even_bins_match_short_dft():
    values = RNG.normal(size=8)
    short = classical_dft(values)
    padded = classical_dft(np.concatenate([values, np.zeros(8)]))
    assert np.abs(padded[0::2] - short).max() < 1e-12


def test_circular_convolution_frozen_and_symmetric():
    out = classical_circular_convolution([1.0, 2.0], [3.0, 4.0])
    assert np.abs(out - np.array([11.0, 10.0])).max() < 1e-12
    f = RNG.normal(size=8)
    g = RNG.normal(size=8)
    assert np.abs(
        classical_circular_convolution(f, g) - classical_circular_convolution(g, f)
    ).max() < 1e-12
    with pytest.raises(ShapeError):
        classical_circular_convolution([1.0, 2.0], [1.0, 2.0, 3.0])


def loop_dft(values, inverse=False):
    """One row per Python iteration, the sums the references must reproduce bit for bit."""
    v = np.asarray(values, dtype=np.complex128)
    m = v.size
    sign = 1.0 if inverse else -1.0
    ys = np.arange(m)
    out = np.empty(m, dtype=np.complex128)
    for x in range(m):
        out[x] = np.sum(v * np.exp(sign * 2j * np.pi * x * ys / m))
    if inverse:
        out /= m
    return out


def loop_circular_convolution(f, g):
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    m = f.size
    out = np.empty(m, dtype=np.complex128)
    idx = np.arange(m)
    for k in range(m):
        out[k] = np.sum(f * g[(k - idx) % m])
    return out


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


def check_references_against_loops(m):
    f = RNG.normal(size=m) + 1j * RNG.normal(size=m)
    g = RNG.normal(size=m) + 1j * RNG.normal(size=m)
    real = RNG.normal(size=m)
    for values in (f, real):
        assert_same_bits(classical_dft(values), loop_dft(values))
        assert_same_bits(classical_dft(values, inverse=True), loop_dft(values, inverse=True))
    assert_same_bits(classical_circular_convolution(f, g), loop_circular_convolution(f, g))
    assert_same_bits(classical_circular_convolution(real, g),
                     loop_circular_convolution(real, g))


def test_references_bitwise_equal_row_loops():
    # several draws per M: a wrongly broadcast product is off by an ulp on
    # only about half of random inputs
    for m in range(1, 65):
        for _ in range(6):
            check_references_against_loops(m)


@pytest.mark.parametrize("block", [1, 5, 64])
def test_references_bitwise_equal_row_loops_across_row_blocks(monkeypatch, block):
    # blocks of 1 row, of rows that leave a short last block, and of one row
    # for M above the block size all sum each row the same way
    monkeypatch.setattr(pipelines, "_REFERENCE_BLOCK", block)
    for m in (1, 2, 3, 7, 16, 33, 100):
        check_references_against_loops(m)


def test_references_memory_stays_bounded():
    # one (M, M) block of complex terms would be 64 MiB here, with two alive
    m = 2048
    values = RNG.normal(size=m) + 1j * RNG.normal(size=m)
    for run in (lambda: classical_dft(values),
                lambda: classical_circular_convolution(values, values)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    num_chunks=st.integers(1, 40),
    m=st.integers(1, 64),
    phases=st.booleans(),
)
def test_batched_oracle_bitwise_equal_stacked_rows(seed, num_chunks, m, phases):
    rng = np.random.default_rng(seed)
    f = rng.normal(size=(num_chunks, m)).astype(np.complex128)
    g = rng.normal(size=m).astype(np.complex128)
    if phases:
        f *= np.exp(1j * rng.uniform(-np.pi, np.pi, f.shape))
        g *= np.exp(1j * rng.uniform(-np.pi, np.pi, m))
    f[rng.random(f.shape) < 0.2] = 0.0
    f[rng.integers(num_chunks)] = 0.0  # an all-zero row
    g[rng.random(m) < 0.2] = 0.0
    got = np.stack([classical_circular_convolution(row, g) for row in f])
    assert got.tobytes() == np.stack([loop_circular_convolution(row, g) for row in f]).tobytes()
    for x in (got, f):
        assert _row_norms(x).tobytes() == np.array([np.linalg.norm(row) for row in x]).tobytes()


def test_batched_oracle_rejects_bad_shapes():
    for f, g in ((np.ones((2, 4)), np.ones(3)), (np.ones((2, 2, 4)), np.ones(4)),
                 (np.ones((2, 4)), np.ones((1, 4))), (np.ones(0), np.ones(0)),
                 (np.ones((2, 4)), np.ones(4))):  # the oracle takes one signal, not rows
        with pytest.raises(ShapeError):
            classical_circular_convolution(f, g)


def test_convolution_theorem_identity_for_oracles():
    """DFT of the circular convolution equals the product of DFTs."""
    f = RNG.normal(size=8) + 1j * RNG.normal(size=8)
    g = RNG.normal(size=8) + 1j * RNG.normal(size=8)
    lhs = classical_dft(classical_circular_convolution(f, g))
    rhs = classical_dft(f) * classical_dft(g)
    assert np.abs(lhs - rhs).max() < 1e-10


def test_product_state_frozen_example():
    f = SignalChunk(np.array([0.6, 0.0]))
    g = SignalChunk(np.array([0.5, 0.5]))
    product = pointwise_multiply_state(f, g)
    amps = product.state.amplitudes
    root2 = np.sqrt(2.0)
    assert abs(amps[0] - 0.6 * 0.5 / root2) < 1e-12          # |0>|00|
    assert abs(amps[1] - 0.6 * np.sqrt(0.75) / root2) < 1e-12  # |0>|01>
    assert abs(amps[2] - 0.8 * 0.5 / root2) < 1e-12          # |0>|10>
    assert abs(amps[4] - 0.0) < 1e-12                        # |1>|00>
    got = extract_component(product, (0, 0))
    assert np.abs(got - np.array([0.3, 0.0])).max() < 1e-12


def test_product_state_formula_random():
    for _ in range(20):
        n = int(RNG.integers(1, 4))
        f = random_chunk(1 << n)
        g = random_chunk(1 << n)
        product = pointwise_multiply_state(f, g)
        fv, gv = f.values, g.values
        fc, gc = f.complement(), g.complement()
        root_n = np.sqrt(1 << n)
        expected = np.empty(4 << n, dtype=np.complex128)
        expected[0::4] = fv * gv / root_n
        expected[1::4] = fv * gc / root_n
        expected[2::4] = fc * gv / root_n
        expected[3::4] = fc * gc / root_n
        assert np.abs(product.state.amplitudes - expected).max() < 1e-12
        assert abs(product.state.norm() - 1.0) < 1e-12


def test_extract_all_components():
    f = random_chunk(8)
    g = random_chunk(8)
    product = pointwise_multiply_state(f, g)
    assert np.abs(extract_component(product, (0, 0)) - f.values * g.values).max() < 1e-12
    assert np.abs(extract_component(product, (0, 1)) - f.values * g.complement()).max() < 1e-12
    assert np.abs(extract_component(product, (1, 0)) - f.complement() * g.values).max() < 1e-12
    assert np.abs(extract_component(product, (1, 1)) - f.complement() * g.complement()).max() < 1e-12
    with pytest.raises(ShapeError, match=r"component must be a pair of bits, got \(0, 2\)"):
        extract_component(product, (0, 2))


def test_postselect_probability():
    a = 0.7
    f = SignalChunk(np.full(4, a))
    product = pointwise_multiply_state(f, f)
    assert postselect_probability(product, (0, 0)) == pytest.approx(a ** 4, abs=1e-12)
    # random pair: (1/N) sum |f g|^2, and the four patterns partition unity
    f = random_chunk(8)
    g = random_chunk(8)
    product = pointwise_multiply_state(f, g)
    expected = np.mean(np.abs(f.values * g.values) ** 2)
    assert postselect_probability(product, (0, 0)) == pytest.approx(expected, abs=1e-12)
    total = sum(postselect_probability(product, c) for c in COMPONENTS)
    assert total == pytest.approx(1.0, abs=1e-12)


def test_pointwise_multiply_rejects_mismatched_lengths():
    with pytest.raises(ShapeError):
        pointwise_multiply_state(random_chunk(4), random_chunk(8))


def test_zero_pad():
    chunk = SignalChunk(np.array([0.5, 0.25]), scale=0.5)
    padded = zero_pad(chunk, 8)
    assert len(padded) == 8
    assert padded.scale == 0.5
    assert np.abs(padded.values[:2] - chunk.values).max() == 0.0
    assert np.abs(padded.values[2:]).max() == 0.0
    assert zero_pad(chunk, 2) is chunk
    with pytest.raises(ShapeError):
        zero_pad(chunk, 6)
    with pytest.raises(ShapeError):
        zero_pad(chunk, 1)


@pytest.mark.parametrize("n,pad", [(4, 8), (8, 16), (4, 4)])
def test_convolve_via_theorem_matches_oracle(n, pad):
    for _ in range(5):
        f = random_chunk(n)
        g = random_chunk(n)
        got = convolve_via_theorem(f, g, pad)
        expected = classical_circular_convolution(
            zero_pad(f, pad).values, zero_pad(g, pad).values
        )
        denom = np.linalg.norm(expected)
        assert np.linalg.norm(got - expected) / denom < 1e-9


@pytest.mark.parametrize("n,pad", [(4, 8), (8, 16), (4, 4)])
def test_convolve_optimized_matches_oracle(n, pad):
    for _ in range(5):
        f = random_chunk(n)
        kernel = RNG.normal(size=n) * 0.5
        got = convolve_optimized(f, kernel, pad)
        expected = classical_circular_convolution(
            zero_pad(f, pad).values,
            np.concatenate([kernel, np.zeros(pad - n)]),
        )
        denom = np.linalg.norm(expected)
        assert np.linalg.norm(got - expected) / denom < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    pad_doublings=st.integers(0, 2),
    phases=st.booleans(),
)
def test_convolution_routes_match_oracle_property(seed, n, pad_doublings, phases):
    # criterion 4's bound, rel l2 < 1e-9, with no fitted scale
    f_row, g_row = chunk_rows(seed, n, 2, phases)
    f, g = SignalChunk(f_row), SignalChunk(g_row)
    pad = (1 << n) << pad_doublings
    oracle = classical_circular_convolution(zero_pad(f, pad).values, zero_pad(g, pad).values)
    denom = np.linalg.norm(oracle)
    # zero rows leave no relative error to bound, and a result below the
    # normal range (rows of subnormals) has no 1e-9 relative precision
    assume(denom >= np.finfo(np.float64).tiny)
    for route in (convolve_via_theorem(f, g, pad), convolve_optimized(f, g.values, pad)):
        assert np.linalg.norm(route - oracle) / denom < 1e-9


def test_both_convolution_routes_agree():
    f = random_chunk(8)
    g = random_chunk(8)
    a = convolve_via_theorem(f, g, 16)
    b = convolve_optimized(f, g.values, 16)
    assert np.linalg.norm(a - b) / np.linalg.norm(a) < 1e-10


def test_padding_removes_wraparound():
    """With M >= 2N-1 the circular result equals the direct linear sum."""
    for n, pad in ((4, 8), (8, 16)):
        f = random_chunk(n, complex_values=False)
        g = random_chunk(n, complex_values=False)
        got = convolve_via_theorem(f, g, pad)
        lin = linear_convolution(f.values, g.values)
        assert np.abs(got[: 2 * n - 1] - lin).max() < 1e-9
        assert np.abs(got[2 * n - 1 :]).max() < 1e-9
        got2 = convolve_optimized(f, g.values, pad)
        assert np.abs(got2[: 2 * n - 1] - lin).max() < 1e-9


def test_identity_and_shift_kernels():
    f = random_chunk(8)
    padded = zero_pad(f, 16).values
    out = convolve_optimized(f, np.array([1.0]), 16)
    assert np.abs(out - padded).max() < 1e-10
    # a numpy integer length, as zero_pad accepts one
    assert convolve_optimized(f, np.array([1.0]), np.int64(16)).tobytes() == out.tobytes()
    shift = np.zeros(3)
    shift[2] = 1.0
    out = convolve_optimized(f, shift, 16)
    assert np.abs(out - np.roll(padded, 2)).max() < 1e-10


def test_convolution_rescaling_is_exact():
    """Recorded Fourier renormalization factors divide back out exactly."""
    f = SignalChunk(np.full(4, 0.9))  # large spectrum forces rescaling
    g = SignalChunk(np.full(4, 0.9))
    got = convolve_via_theorem(f, g, 8)
    expected = classical_circular_convolution(
        zero_pad(f, 8).values, zero_pad(g, 8).values
    )
    assert np.abs(got - expected).max() < 1e-10


def test_convolve_kernel_too_long():
    f = random_chunk(4)
    with pytest.raises(ShapeError):
        convolve_optimized(f, np.ones(9), 8)


@pytest.mark.parametrize("kernel, pad", [(np.ones(2), 4), (np.ones(2), 12), (np.ones(17), 16),
                                         (np.ones(9), 4), (np.ones(2), 0), (np.ones(2), -4),
                                         (np.ones(2), 3 << 24)],
                         ids=["pad-short", "pad-not-power-of-two", "kernel-long",
                              "kernel-long-pad-short", "pad-zero", "pad-negative",
                              "pad-large-not-power-of-two"])
def test_convolve_optimized_errors_match_reference(kernel, pad):
    f = random_chunk(8)
    with pytest.raises(ShapeError) as want:
        convolve_by_gates(f, kernel, pad)
    with pytest.raises(ShapeError, match=f"^{re.escape(str(want.value))}$"):
        convolve_optimized(f, kernel, pad)


def test_one_chunk_api_refuses_states_above_max_qubits_before_allocating(monkeypatch):
    # 2**18 samples need 20 qubits for the product and for convolve at pad
    # 2**19; with the limit at 19, neither 16 MiB state may be allocated
    monkeypatch.setattr(statevector, "MAX_QUBITS", 19)
    chunk = SignalChunk(np.full(1 << 18, 0.5))
    for run in (lambda: pointwise_multiply_state(chunk, chunk),
                lambda: convolve_optimized(chunk, np.ones(4), 1 << 19)):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="num_qubits must be in"):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_batched_engines_run_at_max_qubits_and_refuse_one_more(monkeypatch, dtype):
    # with the limit at 19 qubits: a product of 2**17-sample rows and a
    # convolution padded to 2**18 sit exactly on it, in two blocks of one
    # row; one qubit more is refused before its 8 or 16 MiB state exists
    monkeypatch.setattr(statevector, "MAX_QUBITS", 19)
    rng = np.random.default_rng(19)
    rows = rng.uniform(0.0, 1.0 - EPSILON, (2, 1 << 18)).astype(dtype)
    if dtype == np.complex128:
        rows *= np.exp(1j * rng.uniform(-np.pi, np.pi, rows.shape))
    f, g = rows[:, : 1 << 17], rows[:, 1 << 17 :]
    blocks = list(product_blocks(f, g))
    assert [lo for lo, _ in blocks] == [0, 1]
    for lo, states in blocks:
        assert states.shape == (1, 1 << 17, 2, 2) and states.dtype == dtype
        assert np.abs(states[0, :, 0, 0] * np.sqrt(1 << 17) - f[lo] * g[lo]).max() < 1e-14
        assert abs(np.sum(np.abs(states) ** 2) - 1.0) < 1e-9
    taps = np.full(4, 0.25)
    out = np.concatenate([block for _, block in convolve_blocks(f, np.fft.fft(taps, 1 << 18))])
    want = np.fft.ifft(np.fft.fft(f, 1 << 18) * np.fft.fft(taps, 1 << 18))
    assert out.shape == (2, 1 << 18) and np.abs(out - want).max() < 1e-12
    spectrum = np.fft.fft(taps, 1 << 19)  # the caller's, made before the tracing
    for run in (lambda: next(product_blocks(rows[:1], rows[1:])),
                lambda: next(convolve_blocks(f, spectrum))):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="num_qubits must be in"):
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


def chunk_rows(seed, n, num_chunks, phases):
    """(C, 2**n) encodable rows with edge values mixed in.

    Besides +0 and magnitudes of exactly 1 - EPSILON: -0.0, x - 0j, negative
    reals (angle pi), pure imaginaries of either sign and subnormal
    magnitudes, the inputs where a product with a zero could flip a zero's
    sign or underflow.
    """
    rng = np.random.default_rng(seed)
    shape = (num_chunks, 1 << n)
    mags = rng.uniform(0.0, 1.0 - EPSILON, shape)
    rows = mags.astype(np.complex128)
    if phases:
        rows *= np.exp(1j * rng.uniform(-np.pi, np.pi, shape))
    special = rng.random(shape)
    rows[special < 0.1] = 0.0
    edge = (special >= 0.1) & (special < 0.15)
    rows[edge] = (1.0 - EPSILON) * np.exp(1j * rng.uniform(-np.pi, np.pi, edge.sum()))
    negative_zero, minus_0j, negative_real, imaginary, subnormal = (
        (special >= lo) & (special < lo + 0.03) for lo in (0.15, 0.18, 0.21, 0.24, 0.27))
    rows[negative_zero] = -0.0
    rows[minus_0j] = mags[minus_0j]
    rows.imag[minus_0j] = -0.0
    rows[negative_real] = -mags[negative_real]
    signs = rng.choice([-1.0, 1.0], imaginary.sum())
    rows.real[imaginary] = 0.0
    rows.imag[imaginary] = signs * mags[imaginary]
    tiny = np.finfo(np.float64).tiny
    rows[subnormal] = rng.uniform(0.0, tiny, subnormal.sum()) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, subnormal.sum()))
    return rows


def assert_batch_matches_chunks(f, g, kernel, pad_to):
    """The batched engines, and the one-chunk API on each row, against the gate-by-gate references."""
    states = np.concatenate([s for _, s in product_blocks(f, g)])
    big_n = f.shape[1]
    prob00 = np.sum(np.abs(states[:, :, 0, 0]) ** 2, axis=1)
    spectrum = np.fft.fft(kernel, pad_to)
    convolved = np.concatenate([out for _, out in convolve_blocks(f, spectrum)])
    for c in range(len(f)):
        chunk_f, chunk_g = SignalChunk(f[c]), SignalChunk(g[c])
        product = product_state_by_gates(chunk_f, chunk_g)
        # where a value is 0, the gates' u01 * 0 term decides the sign of a zero
        # amplitude; + 0.0 makes every zero +0.0 and keeps every other bit
        assert (states[c] + 0.0).tobytes() == (product.state.amplitudes + 0.0).tobytes()
        one_chunk = pointwise_multiply_state(chunk_f, chunk_g)
        assert one_chunk.state.amplitudes.tobytes() == states[c].tobytes()
        assert one_chunk.layout == product.layout
        for bf, bg in COMPONENTS:
            assert np.array_equal(np.abs(states[c, :, bf, bg] * np.sqrt(big_n)),
                                  np.abs(extract_component(product, (bf, bg))))
        assert float(prob00[c]) == postselect_probability(product)
        want = convolve_by_gates(chunk_f, kernel, pad_to).tobytes()
        assert convolved[c].tobytes() == want
        assert convolve_optimized(chunk_f, kernel, pad_to).tobytes() == want


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    num_chunks=st.integers(1, 40),
    phases=st.booleans(),
    pad_doublings=st.integers(0, 1),
)
def test_batched_engines_bitwise_equal_one_chunk_api(seed, n, num_chunks, phases,
                                                      pad_doublings):
    f = chunk_rows(seed, n, num_chunks, phases)
    g = chunk_rows(seed + 1, n, num_chunks, phases)
    rng = np.random.default_rng(seed)
    kernel = rng.uniform(-1.0, 1.0, int(rng.integers(1, (1 << n) + 1)))
    if phases:
        kernel = kernel * np.exp(1j * rng.uniform(-np.pi, np.pi, kernel.size))
    assert_batch_matches_chunks(f, g, kernel, (1 << n) << pad_doublings)


@pytest.mark.parametrize("block_chunks", [1, 3])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_batched_engines_bitwise_equal_across_blocks(monkeypatch, block_chunks, n):
    f = chunk_rows(n, n, 7, True)
    g = chunk_rows(n + 100, n, 7, True)
    kernel = np.full(min(4, 1 << n), 0.25)
    # product states hold 4 amplitudes per sample, convolve states 2 per padded one
    monkeypatch.setattr(pipelines, "_CHUNK_BLOCK", block_chunks * 4 << n)
    starts = [lo for lo, _ in product_blocks(f, g)]
    assert starts == list(range(0, 7, block_chunks))
    assert [lo for lo, _ in convolve_blocks(f, np.fft.fft(kernel, 2 << n))] == starts
    assert_batch_matches_chunks(f, g, kernel, 2 << n)


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("fill_f, fill_g", [("zeros", "zeros"), ("zeros", "bound"),
                                            ("bound", "zeros"), ("bound", "bound")])
def test_one_chunk_api_bitwise_equal_references_at_edges(n, fill_f, fill_g):
    # whole chunks of zeros or of magnitude exactly 1 - EPSILON; g's row is
    # also the kernel, so an all-zero spectrum runs through convolve too
    rng = np.random.default_rng(n)
    rows = {"zeros": np.zeros((1, 1 << n), dtype=np.complex128),
            "bound": (1.0 - EPSILON) * np.exp(1j * rng.uniform(-np.pi, np.pi, (1, 1 << n)))}
    f, g = rows[fill_f], rows[fill_g]
    for pad_to in (1 << n, 2 << n):
        assert_batch_matches_chunks(f, g, g[0], pad_to)


@pytest.mark.parametrize("n", [1, 2, 5, 10, 14])
def test_hadamard_fill_equals_the_gate_layer(n):
    state = statevector.apply_hadamard_layer(statevector.init_state(n), range(n))
    want = np.full(1 << n, pipelines._hadamard_amplitude(n), dtype=np.complex128)
    assert state.amplitudes.tobytes() == want.tobytes()


def test_batched_engines_bitwise_equal_one_chunk_references_at_ten_qubits():
    f = chunk_rows(10, 10, 2, True)
    g = chunk_rows(11, 10, 2, True)
    assert_batch_matches_chunks(f, g, np.full(4, 0.25), 2 << 10)


def test_product_blocks_transients_stay_within_three_states():
    # at the peak one encoder block, one encoder column and the state are alive
    f = chunk_rows(16, 16, 1, True)
    g = chunk_rows(17, 16, 1, True)
    tracemalloc.start()
    try:
        _, states = next(product_blocks(f, g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert states.nbytes == 4 << 20
    assert peak <= 3 * states.nbytes


def test_product_blocks_hold_each_component_contiguous():
    # the states are a [chunk, x, t_f, t_g] view of [t_f, t_g, chunk, x] memory
    f = chunk_rows(18, 3, 5, True)
    g = chunk_rows(19, 3, 5, True)
    _, states = next(product_blocks(f, g))
    assert states.shape == (5, 8, 2, 2)
    block = states.transpose(2, 3, 0, 1)
    assert block.flags.c_contiguous
    for bf, bg in COMPONENTS:
        assert np.shares_memory(block[bf, bg], block) and block[bf, bg].flags.c_contiguous


def test_convolve_blocks_keeps_only_encoder_amplitudes():
    # one 2**16-sample chunk padded to 2**17: the kernel's and the chunk's
    # encoder tops, the output and the FFT temporaries; building each
    # whole rho and keeping a view of the kernel's peaked at 16x the output
    values = np.random.default_rng(20).uniform(0.05, 0.95, (1, 1 << 16)).astype(np.complex128)
    spectrum = np.fft.fft(np.full(4, 0.25), 1 << 17)
    tracemalloc.start()
    try:
        _, out = next(convolve_blocks(values, spectrum))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 2 << 20
    assert peak <= 9 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"


def padded_encoder_convolution(values, kernel, pad_to):
    """convolve_blocks' rows written out: np.pad's zero-padded rows, each value its own encoder top, then the FFTs."""
    ghat = SignalChunk.full_scale(np.fft.fft(pipelines._pad_array(kernel, pad_to)))
    padded = np.pad(values, ((0, 0), (0, pad_to - values.shape[1])))
    col_f = padded * pipelines._hadamard_amplitude(pad_to.bit_length() - 1)
    kept = np.fft.ifft(ghat.values * np.fft.fft(col_f, axis=1, norm="ortho"),
                       axis=1, norm="ortho")
    return kept * np.sqrt(pad_to) / ghat.scale


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 6),
    total=st.integers(1, 200),
    kernel=st.sampled_from(["identity", "shift-1", "shift-K", "moving-average-4",
                            "low-pass-1", "low-pass-K"]),
    normalization=st.sampled_from(["assume-positive", "shift-scale"]),
    negative_zeros=st.booleans(),
)
def test_convolve_blocks_equals_padded_encoder_expression(seed, n, total, kernel,
                                                           normalization, negative_zeros):
    # CLI-shaped rows: a tail-padded last chunk, -0.0 samples in some rows
    # and +0.0 or shift-scaled samples in others
    chunk_size = 1 << n
    rng = np.random.default_rng(seed)
    samples = rng.uniform(0.0 if normalization == "assume-positive" else -1.0, 1.0, total)
    samples[rng.random(total) < 0.2] = 0.0
    if negative_zeros:
        samples[rng.random(total) < 0.1] = -0.0
    values, _ = normalize_for_encoding(AudioBuffer(samples, 8000), normalization)
    plan = make_chunks(values, chunk_size)
    spec = kernel.replace("K", str(chunk_size // 2))
    if spec == "moving-average-4":
        spec = f"moving-average-{min(4, chunk_size)}"
    taps, _, _, _ = build_kernel(spec, chunk_size)
    for pad_to in (chunk_size, 2 * chunk_size):
        if taps.size > pad_to:
            continue
        want = padded_encoder_convolution(plan.values, taps, pad_to)
        spectrum = np.fft.fft(taps, pad_to)
        got = np.concatenate([out for _, out in convolve_blocks(plan.values, spectrum)])
        assert got.tobytes() == want.tobytes()


def test_convolve_blocks_peak_at_a_million_samples():
    # one 2**20-sample chunk padded to 2**21: the padding is filled with
    # +0.0, and the engine holds only the full-scale copy of the caller's
    # spectrum; np.pad's rows and a kept second spectrum peaked at 5.5x. The
    # block's column goes after the forward FFT and the kernel product and
    # scaling run in place, which took the peak from 5.0x to 4.5x
    values = np.random.default_rng(21).uniform(0.05, 0.95, (1, 1 << 20)).astype(np.complex128)
    spectrum = np.fft.fft(np.full(4, 0.25), 1 << 21)
    tracemalloc.start()
    try:
        _, out = next(convolve_blocks(values, spectrum))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.nbytes == 32 << 20
    assert peak <= 5.25 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"
    assert peak <= 4.75 * out.nbytes, f"peak {peak / out.nbytes:.2f}x the output"


def test_batched_engines_reject_bad_rows():
    with pytest.raises(ShapeError):
        next(product_blocks(np.zeros((2, 6)), np.zeros((2, 6))))
    with pytest.raises(ShapeError):
        next(product_blocks(np.zeros((2, 8)), np.zeros((3, 8))))
    with pytest.raises(ShapeError):
        next(convolve_blocks(np.zeros(8), np.ones(16)))
    with pytest.raises(ShapeError, match="must be 1-D"):
        next(convolve_blocks(np.zeros((2, 8)), np.ones((2, 8))))


@pytest.mark.parametrize("shape", [(1 << 15,), (3 << 15,), (0,), ()],
                         ids=["short", "not-a-power-of-two", "empty", "scalar"])
def test_convolve_blocks_refuses_a_spectrum_off_the_padded_frame(shape):
    """A spectrum length that is not a power of two >= N is refused before any allocation."""
    rows, spectrum = np.zeros((2, 1 << 16)), np.ones(shape, dtype=np.complex128)
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match=r"^target length \d+ must be a power of two >= 65536$"):
            next(convolve_blocks(rows, spectrum))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16

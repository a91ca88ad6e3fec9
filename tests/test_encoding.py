"""Value-encoding unitaries and chunk ingestion."""

import decimal
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwave import (
    EPSILON,
    NormalizationError,
    QubitLayout,
    ShapeError,
    SignalChunk,
    Statevector,
    apply_hadamard_layer,
    build_rho,
    encode_function,
    encoder_column,
    init_state,
)
from qwave.encoding import _BOUND_SLACK
from reference import apply_controlled_unitary, controls_for_index, full_scale_checked

RNG = np.random.default_rng(51423)


def random_bounded_complex(size, rng=RNG, max_mag=0.999):
    mags = rng.uniform(0.0, max_mag, size)
    phases = rng.uniform(-np.pi, np.pi, size)
    return mags * np.exp(1j * phases)


def expected_encoded(values):
    """Closed-form single-ancilla state: f on ancilla 0, complement on 1."""
    values = np.asarray(values, dtype=np.complex128)
    n_samples = values.size
    comp = np.sqrt(1.0 - np.abs(values) ** 2)
    out = np.empty(2 * n_samples, dtype=np.complex128)
    out[0::2] = values / np.sqrt(n_samples)
    out[1::2] = comp / np.sqrt(n_samples)
    return out


def encode_fresh(values):
    chunk = SignalChunk(np.asarray(values, dtype=np.complex128))
    layout = QubitLayout.standard(chunk.n, num_ancillae=1)
    state = init_state(chunk.n + 1)
    apply_hadamard_layer(state, layout.index_register)
    encode_function(state, layout, chunk, layout.ancillae[0])
    return state


@pytest.mark.parametrize("value", [5e-324 + 5e-324j, 1e-320 + 1e-320j, 3e-321 - 4e-321j])
def test_encoder_takes_deep_subnormal_values(value):
    """A value whose hypot is below 2**-1022 still gives a unitary rho and its closed form."""
    rho = build_rho(value)
    assert np.abs(rho.conj().T @ rho - np.eye(2)).max() <= 1e-15
    values = np.array([value, 0.5, 0.25j, value])
    state = encode_fresh(values)
    assert np.abs(state.amplitudes - expected_encoded(values)).max() <= 1e-15


def random_state(num_qubits, rng=RNG):
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    return Statevector(num_qubits, amps / np.linalg.norm(amps))


def encode_reference(state, layout, chunk, ancilla):
    """One controlled rho per index value, the gate-by-gate form of the encoder."""
    for x, v in enumerate(chunk.values):
        apply_controlled_unitary(state, controls_for_index(layout, x), ancilla, build_rho(v))
    return state


def scattered_layout(n, rng=RNG):
    """Ancillae on bits (n, 1), the register on the rest in shuffled order.

    For n >= 2 the register holds bits 0 and n + 1, so both ancillae sit
    between register bits; n = 1 puts the ancillae on bits (2, 1).
    """
    ancillae = (max(n, 2), 1)
    rest = [p for p in range(n + 2) if p not in ancillae]
    return QubitLayout(tuple(int(p) for p in rng.permutation(rest)), ancillae)


def assert_encoder_matches_reference(state, layout, chunk):
    for ancilla in layout.ancillae:
        fast = encode_function(state.copy(), layout, chunk, ancilla)
        slow = encode_reference(state.copy(), layout, chunk, ancilla)
        assert np.array_equal(fast.amplitudes, slow.amplitudes)


def test_encoder_bitwise_equals_gate_loop():
    for n in range(1, 7):
        values = random_bounded_complex(1 << n)
        values[0] = 0.0
        chunk = SignalChunk(values)
        scattered = scattered_layout(n)
        if n >= 2:
            register = scattered.index_register
            assert all(min(register) < a < max(register) for a in scattered.ancillae)
        for layout in (QubitLayout.standard(n, num_ancillae=2), scattered):
            prepared = init_state(n + 2)
            apply_hadamard_layer(prepared, layout.index_register)
            assert_encoder_matches_reference(prepared, layout, chunk)
            assert_encoder_matches_reference(random_state(n + 2), layout, chunk)


_BOUNDED_COMPLEX = st.one_of(
    st.just(0j),
    st.floats(-np.pi, np.pi).map(lambda t: (1.0 - EPSILON) * np.exp(1j * t)),
    st.complex_numbers(max_magnitude=1.0 - EPSILON, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(_BOUNDED_COMPLEX, min_size=1 << n, max_size=1 << n)
    ),
    st.booleans(),
)
def test_encoder_bitwise_property(values, scattered):
    chunk = SignalChunk(np.array(values, dtype=np.complex128))
    n = chunk.n
    layout = scattered_layout(n) if scattered else QubitLayout.standard(n, num_ancillae=2)
    state = init_state(n + 2)
    apply_hadamard_layer(state, layout.index_register)
    assert_encoder_matches_reference(state, layout, chunk)


def reference_magnitude(value):
    """The encoder's m for one value in Python floats: min(sqrt(re*re + im*im), 1), range-checked."""
    v = complex(value)
    mag = math.sqrt(v.real * v.real + v.imag * v.imag)
    if not mag <= 1.0 + 1e-12:
        raise NormalizationError(f"|value| = {mag} exceeds 1")
    return min(mag, 1.0)


def reference_column(value):
    """(top, s) for one value in Python floats: the value itself and sqrt((1 - m)(1 + m))."""
    m = reference_magnitude(value)
    return complex(value), math.sqrt((1.0 - m) * (1.0 + m))


def reference_rho(value):
    """build_rho's formula for one value in Python floats: [[v, -phase*s], [s, m]].

    The phase is v / abs(v) divided by parts (1 at v = 0), and -phase*s is
    formed by parts too. An abs(v) below 2**-1022 rounds onto the subnormal
    grid, so such a v's parts are first scaled by 2**600.
    """
    top, s = reference_column(value)
    unit = top
    if abs(top) < np.finfo(np.float64).tiny:
        unit = complex(math.ldexp(top.real, 600), math.ldexp(top.imag, 600))
    a = abs(unit)
    p, q = (unit.real / a, unit.imag / a) if a else (1.0, 0.0)
    return np.array([[top, complex(-p * s, -q * s)], [s, reference_magnitude(value)]],
                    dtype=np.complex128)


def reference_mu(value):
    """The textbook Y-rotation by 2*arccos|value|, through arccos, cos and sin."""
    theta = np.arccos(min(abs(value), 1.0))
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.complex128)


def reference_phi(value):
    """The textbook phase gate diag(exp(1j * arg(value)), 1), with arg(0) = 0."""
    phase = np.exp(1j * np.angle(value))
    return np.array([[phase, 0.0], [0.0, 1.0]], dtype=np.complex128)


# phi @ mu takes s = sin(arccos|v|), whose error grows as 1/sqrt(1 - |v|^2):
# within 1e-6 of the bound an ulp in |v| moves it by up to about 2.5e-12
_PHI_MU_TOLERANCE = 1e-11


def assert_bitwise_equal(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # also tells -0.0 from 0.0


def assert_builders_match_references(values):
    rho = build_rho(values)
    assert_bitwise_equal(rho, np.array([reference_rho(v) for v in values]))
    # rho's phase is 1 at a zero of either sign, where arg(-0.0) is pi; + 0.0
    # gives the textbook phi that zero's phase too
    textbook = np.array([reference_phi(v + 0.0) @ reference_mu(v) for v in values])
    assert np.abs(rho - textbook).max(initial=0.0) <= _PHI_MU_TOLERANCE


_NEAR_ONE = st.tuples(st.floats(0.0, 1e-6), st.floats(-np.pi, np.pi)).map(
    lambda p: (1.0 - EPSILON - p[0]) * np.exp(1j * p[1])
)
_ENCODABLE = st.one_of(
    _BOUNDED_COMPLEX,
    _NEAR_ONE,
    st.floats(-(1.0 - EPSILON), 1.0 - EPSILON).map(complex),
    st.sampled_from([complex(-0.0, 0.0), complex(0.0, -0.0), -(1.0 - EPSILON) + 0j]),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_ENCODABLE, min_size=1, max_size=64))
# deep-subnormal values, whose hypot rounds onto the subnormal grid
@example([5e-324 + 5e-324j])
@example([1e-320 + 1e-320j])
@example([3e-321 - 4e-321j])
def test_array_builders_bitwise_equal_scalar_reference(values):
    assert_builders_match_references(np.array(values, dtype=np.complex128))


# |v| = 1 (s = 0 exactly) and subnormal magnitudes, beside _ENCODABLE's zeros of both signs
_COLUMN_EDGES = st.sampled_from([1.0 + 0j, -1.0 + 0j, 1j, -1j, complex(1.0, -0.0),
                                 complex(-0.0, -1.0), 5e-324 + 0j, complex(0.0, -5e-324),
                                 complex(2.2e-308, 1e-310), complex(-1e-320, 3e-321)])


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(_ENCODABLE, _COLUMN_EDGES), min_size=1, max_size=64))
def test_encoder_column_is_rhos_first_column_bit_for_bit(values):
    values = np.array(values, dtype=np.complex128)
    top, s = encoder_column(values)
    assert top.dtype == np.complex128 and s.dtype == np.complex128
    assert s.imag.tobytes() == np.zeros(values.size).tobytes()  # +0.0, no -0.0
    column = np.stack([top, s], axis=-1)
    assert column.tobytes() == build_rho(values)[..., :, 0].tobytes()
    assert column.tobytes() == np.array([reference_column(v) for v in values]).tobytes()
    rows = values.reshape(1, -1)
    assert encoder_column(rows).shape == (2, 1, values.size)
    assert np.stack(encoder_column(rows), axis=-1).tobytes() == column.tobytes()


def test_array_builders_bitwise_equal_scalar_reference_in_bulk():
    # a fixed draw big enough that a one-ulp magnitude error always shows;
    # within 1e-6 of the bound is where an ulp in m moves s the most
    near_one = (1.0 - EPSILON - RNG.uniform(0.0, 1e-6, 2000)) * np.exp(
        1j * RNG.uniform(-np.pi, np.pi, 2000))
    # |v| = 1 gives s = 0, where the product's signed zeros are easiest to miss
    values = np.concatenate([random_bounded_complex(4000, max_mag=1.0 - EPSILON),
                             near_one, [0.0, 1.0 - EPSILON, -0.5, 0.5j],
                             [1.0, -1.0, 1j, -1j, complex(1.0, -0.0)]])
    assert_builders_match_references(values)


_TINY = np.finfo(np.float64).tiny
# zero, subnormals, magnitudes near 0, near 1 and 1 itself
_REAL_MAGNITUDES = st.one_of(
    st.sampled_from([0.0, 5e-324, np.nextafter(_TINY, 0.0), _TINY, 1.0,
                     np.nextafter(1.0, 0.0), 1.0 - EPSILON]),
    st.floats(0.0, _TINY),
    st.floats(0.0, 1e-6),
    st.floats(0.0, 1.0),
    st.floats(1.0 - 1e-6, 1.0),
)


def exact_complement(x) -> decimal.Decimal:
    """sqrt(1 - x**2) for a float x in [0, 1], in 60-digit decimal arithmetic."""
    with decimal.localcontext() as context:
        context.prec = 60
        d = decimal.Decimal(x)
        return (1 - d * d).sqrt()


def ulp_at(exact: decimal.Decimal) -> float:
    """The spacing of the float64s in the binade that holds the non-negative `exact`."""
    mantissa, exponent = math.frexp(float(exact))
    if mantissa == 0.5 and decimal.Decimal(float(exact)) > exact:  # rounded up onto 2**k
        exponent -= 1
    return math.ldexp(1.0, exponent - 53)


@settings(max_examples=150, deadline=None)
@given(st.lists(_REAL_MAGNITUDES, min_size=1, max_size=64),
       st.sampled_from(["float64", "complex", "negated", "x - 0j"]))
def test_encoder_column_top_is_the_value_and_s_near_exact(magnitudes, kind):
    # the zero and near-bound magnitudes, as float64, as complex, as -x (so
    # -0.0 and negative subnormals) and with a -0.0 imaginary part
    x = np.array(magnitudes)
    values = -x if kind == "negated" else x
    if kind in ("complex", "x - 0j"):
        values = x.astype(np.complex128)
        values.imag = -0.0 if kind == "x - 0j" else 0.0
    top, s = encoder_column(values)
    # the column keeps the values' dtype: float64 for the real kinds
    assert top.dtype == s.dtype == values.dtype
    assert top.tobytes() == values.tobytes()
    assert np.imag(s).tobytes() == np.zeros(x.size).tobytes()
    # (1 - m)(1 + m) rounds three times: s stays within two ulps of the exact
    # value (1.25 at most in 1.4e5 draws); 1 - m*m is off by millions near 1
    for xi, si in zip(x.tolist(), s.real.tolist()):
        exact = exact_complement(xi)
        assert abs(decimal.Decimal(si) - exact) <= 2 * decimal.Decimal(ulp_at(exact)), xi


_ABOVE_SLACK = np.nextafter(1.0 + _BOUND_SLACK, 2.0)
# real samples where |x| and sqrt(x*x) could part: subnormals, |x| near 1e-154
# (x*x at the subnormal boundary), 1 - EPSILON, 1 - 2**-53, (1, 1 + slack],
# the first value past the slack, and the refused non-finite ones
_REAL_LANE = st.one_of(
    st.sampled_from([0.0, 5e-324, np.nextafter(_TINY, 0.0), _TINY, 1e-154, 1.4916681462400413e-154,
                     1.0 - EPSILON, np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0),
                     1.0 + _BOUND_SLACK, _ABOVE_SLACK, 1.5, np.inf, np.nan]),
    st.floats(0.0, _TINY),
    st.floats(1e-155, 1e-153),
    st.floats(0.0, 1.0),
    st.floats(1.0 - 1e-6, 1.0),
    st.floats(1.0, 1.0 + _BOUND_SLACK),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_REAL_LANE, st.booleans()), min_size=1, max_size=64))
@example([(5e-324, True), (1e-154, False), (1.0 + _BOUND_SLACK, True)])
@example([(0.0, True), (1.0 - EPSILON, True), (np.nextafter(1.0, 2.0), False)])
@example([(0.5, False), (_ABOVE_SLACK, True)])
@example([(0.5, False), (np.nan, True)])
def test_encoder_column_real_lane_equals_the_complex_lane_bit_for_bit(signed):
    """float64 values write |x| as m: the complex lane's real parts and rho's column, same bits.

    A value the lanes refuse raises the message build_rho gives for the same float64 values.
    """
    values = np.array([-x if negative else x for x, negative in signed])
    try:
        rho = build_rho(values)
    except NormalizationError as exc:
        with pytest.raises(NormalizationError) as raised:
            encoder_column(values)
        assert str(raised.value) == str(exc)
        return
    column = encoder_column(values)
    assert column.dtype == np.float64
    assert column.tobytes() == encoder_column(values.astype(np.complex128)).real.tobytes()
    assert np.stack(column, axis=-1).astype(np.complex128).tobytes() == rho[..., :, 0].tobytes()
    # the same bits for one value, as a 0-d array
    assert encoder_column(values[0]).tobytes() == column[:, 0].tobytes()


def test_builder_shapes_broadcast():
    values = random_bounded_complex(6)
    assert encoder_column(values[0]).shape == (2,)
    assert encoder_column(values.reshape(2, 3)).shape == (2, 2, 3)
    assert_bitwise_equal(build_rho(values[0]), reference_rho(values[0]))
    assert build_rho(values).shape == (6, 2, 2)
    assert_bitwise_equal(build_rho(values.reshape(2, 3)),
                         build_rho(values).reshape(2, 3, 2, 2))
    assert build_rho(values[:0]).shape == (0, 2, 2)


@pytest.mark.parametrize("where", [0, 5, 11])
def test_builders_reject_any_out_of_range_element(where):
    values = random_bounded_complex(12)
    values[where] = 0.8 + 0.8j
    for build in (encoder_column, build_rho):
        with pytest.raises(NormalizationError):
            build(values)
        with pytest.raises(NormalizationError):
            build(values.reshape(3, 4))
    # real samples of either dtype: 1 + 1e-12 itself is inside the slack,
    # the next float above it is not
    above = np.nextafter(1.0 + 1e-12, 2.0)
    for dtype in (np.float64, np.complex128):
        edge = np.full(12, 0.25, dtype=dtype)
        edge[where] = 1.0 + 1e-12
        for build in (encoder_column, build_rho):
            build(edge)
        edge[where] = above
        for build in (encoder_column, build_rho):
            with pytest.raises(NormalizationError, match=rf"^\|value\| = {above} exceeds 1$"):
                build(edge)


def test_build_mu_frozen():
    # phi is the identity for real v >= 0, so rho is the bare rotation mu
    assert np.abs(build_rho(0.0) - np.array([[0, -1], [1, 0]])).max() < 1e-15
    assert np.abs(build_rho(1.0) - np.eye(2)).max() < 1e-15
    assert np.abs(build_rho(0.6) - np.array([[0.6, -0.8], [0.8, 0.6]])).max() < 1e-15


def test_build_phi():
    # arg(0) is taken as 0, so phi(0) puts no phase on the top row of mu(0)
    rho0 = build_rho(0.0)
    assert np.array_equal(rho0[0], [rho0[1, 1], -rho0[1, 0]])
    # phi(0.5j) = diag(1j, 1) on top of mu(0.5)
    c, s = 0.5, np.sqrt(0.75)
    assert np.abs(build_rho(0.5j) - np.array([[1j * c, -1j * s], [s, c]])).max() < 1e-15


def test_build_rho_frozen():
    assert np.abs(build_rho(0.6) - np.array([[0.6, -0.8], [0.8, 0.6]])).max() < 1e-15
    v = 0.6 * np.exp(1j * np.pi / 4)
    rho = build_rho(v)
    assert abs(rho[0, 0] - v) < 1e-15
    assert abs(rho[1, 0] - 0.8) < 1e-15
    assert abs(rho[0, 1] + 0.8 * np.exp(1j * np.pi / 4)) < 1e-15


def test_rho_unitary_with_value_in_corner():
    for v in random_bounded_complex(50):
        rho = build_rho(v)
        assert np.abs(rho @ rho.conj().T - np.eye(2)).max() < 1e-12
        assert abs(rho[0, 0] - v) < 1e-12
        assert abs(rho[1, 0] - np.sqrt(1 - abs(v) ** 2)) < 1e-12


def test_encode_frozen_pair():
    state = encode_fresh([0.0, 0.5])
    expected = np.array([0.0, 0.70710678, 0.35355339, 0.61237244])
    assert np.abs(state.amplitudes - expected).max() < 1e-8
    assert abs(state.norm() - 1.0) < 1e-12


def test_encode_random_signals_match_closed_form():
    for n in (1, 2, 3, 4):
        for _ in range(5):
            values = random_bounded_complex(1 << n)
            state = encode_fresh(values)
            assert np.abs(state.amplitudes - expected_encoded(values)).max() < 1e-12


def test_encode_keeps_phase_on_value_branch():
    values = np.array([0.6 * np.exp(1j * np.pi / 4), 0.3])
    state = encode_fresh(values)
    assert abs(state.amplitudes[0] - values[0] / np.sqrt(2)) < 1e-14
    # complement branch stays real and non-negative
    assert abs(state.amplitudes[1].imag) < 1e-14
    assert state.amplitudes[1].real > 0


def test_separate_mu_phi_layers_equal_fused_rho():
    values = random_bounded_complex(8)
    chunk = SignalChunk(values)
    layout = QubitLayout.standard(3, num_ancillae=1)
    ancilla = layout.ancillae[0]

    fused = encode_fresh(values)

    layered = init_state(4)
    apply_hadamard_layer(layered, layout.index_register)
    for x in range(8):
        apply_controlled_unitary(
            layered, controls_for_index(layout, x), ancilla, reference_mu(values[x])
        )
    for x in range(8):
        apply_controlled_unitary(
            layered, controls_for_index(layout, x), ancilla, reference_phi(values[x])
        )
    assert np.abs(layered.amplitudes - fused.amplitudes).max() < 1e-12
    assert chunk.n == 3


def test_chunk_rejects_out_of_bound_values():
    with pytest.raises(NormalizationError):
        SignalChunk(np.array([0.5, 1.0]))
    with pytest.raises(NormalizationError):
        SignalChunk(np.array([0.5, 0.5]), scale=0.0)


@pytest.mark.parametrize("values", [[np.nan, 0.5], [0.5, complex(0.25, np.nan)]],
                         ids=["nan", "nan-imaginary"])
def test_every_entry_point_refuses_nan_naming_it(values):
    # nan > bound is False, so a bound test written that way let NaN through
    values = np.array(values, dtype=np.complex128)
    named = rf"^value {re.escape(str(values[np.isnan(values)][0]))} is not a number$"
    for build in (SignalChunk, SignalChunk.from_values, encoder_column, build_rho,
                  lambda v: encoder_column(v[np.isnan(v)][0])):
        with pytest.raises(NormalizationError, match=named):
            build(values)
    with pytest.raises(NormalizationError, match="^scale must be positive, got nan$"):
        SignalChunk(np.array([0.5, 0.5]), scale=np.nan)


def test_chunk_rejects_bad_lengths():
    with pytest.raises(ShapeError):
        SignalChunk(np.array([0.5, 0.5, 0.5]))
    with pytest.raises(ShapeError):
        SignalChunk(np.array([0.5]))


def test_from_values_rescales_and_records():
    chunk = SignalChunk.from_values(np.array([2.0, -1.0]))
    assert chunk.scale == pytest.approx((1 - EPSILON) / 2.0)
    assert np.abs(chunk.values).max() <= 1 - EPSILON + 1e-15
    # dividing the recorded factor back out recovers the raw signal
    assert np.abs(chunk.values / chunk.scale - np.array([2.0, -1.0])).max() < 1e-12

    untouched = SignalChunk.from_values(np.array([0.25, -0.5]))
    assert untouched.scale == 1.0


def test_full_scale_always_normalizes():
    chunk = SignalChunk.full_scale(np.array([0.1, 0.2]))
    assert np.abs(chunk.values).max() == pytest.approx(1 - EPSILON)
    assert chunk.scale == pytest.approx((1 - EPSILON) / 0.2)
    zero = SignalChunk.full_scale(np.zeros(4))
    assert zero.scale == 1.0


@pytest.mark.parametrize("raw, peak", [
    ([3e-320, 1e-320], "3e-320"),       # (1 - EPSILON) / peak overflows
    ([np.inf, 0.5], "inf"),
    ([np.nan, 0.5], "nan"),
], ids=["subnormal", "inf", "nan"])
def test_full_scale_refuses_a_peak_it_cannot_rescale(raw, peak):
    with pytest.raises(NormalizationError, match=rf"^cannot rescale a peak \|value\| of {peak} "):
        SignalChunk.full_scale(np.array(raw))
    # the smallest peak whose factor is finite still lands on the bound
    smallest = (1.0 - EPSILON) / np.finfo(np.float64).max
    chunk = SignalChunk.full_scale(np.array([np.nextafter(smallest, 1.0), 0.0]))
    assert np.abs(chunk.values).max() == pytest.approx(1 - EPSILON)


# spectrum parts at full_scale's edges: signed zeros, subnormals (alone, a peak
# whose factor is finite or overflows), tiny and huge magnitudes, inf and NaN
_SPECTRUM_PARTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(-1e-300, 1e-300, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, -3e-320, 1e-308, 2.2e-308, 1.0, 1.7e308, np.inf, np.nan]),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([0, 1, 2, 3, 4, 8, 16, 64]).flatmap(lambda size: st.lists(
    st.builds(complex, _SPECTRUM_PARTS, _SPECTRUM_PARTS), min_size=size, max_size=size)))
@example([0j] * 8)
@example([-0.0 + 0j, 0j, 0j, -0j])
@example([1e-308 + 0j, 5e-324j])
@example([3e-320 + 0j, 0j])
@example([complex(np.inf, 0.0), 0.5 + 0j])
@example([complex(np.nan, 0.0), 0.5 + 0j])
@example([1.7e308 + 1.7e308j, 1.0 + 0j])
def test_full_scale_equals_the_bound_checked_chunk(raw):
    """full_scale skips SignalChunk's second |values| pass: same bits, scale and errors."""
    raw = np.array(raw, dtype=np.complex128)
    try:
        expected = full_scale_checked(raw)
    except (NormalizationError, ShapeError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            SignalChunk.full_scale(raw)
        return
    chunk = SignalChunk.full_scale(raw)
    assert chunk.values.dtype == np.complex128
    assert chunk.values.tobytes() == expected.values.tobytes()
    assert type(chunk.scale) is type(expected.scale)
    assert np.float64(chunk.scale).tobytes() == np.float64(expected.scale).tobytes()


def test_complement():
    chunk = SignalChunk(np.array([0.6, 0.0]))
    assert np.abs(chunk.complement() - np.array([0.8, 1.0])).max() < 1e-12
    # the encoder's s bit for bit, also within 1e-6 of the bound
    near = SignalChunk(1.0 - EPSILON - RNG.uniform(0.0, 1e-6, 64))
    assert near.complement().tobytes() == encoder_column(near.values)[1].real.tobytes()


def test_encode_validates_arguments():
    chunk = SignalChunk(np.full(4, 0.5))
    layout = QubitLayout.standard(2, num_ancillae=1)
    state = init_state(3)
    with pytest.raises(ShapeError):
        encode_function(state, layout, chunk, 2)  # not an ancilla
    short = SignalChunk(np.full(2, 0.5))
    with pytest.raises(ShapeError):
        encode_function(state, layout, short, layout.ancillae[0])

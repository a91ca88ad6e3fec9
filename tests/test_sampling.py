"""Shot sampling determinism, decoding, and metric definitions."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwave.sampling as sampling
from qwave import (
    STANDARD_TEST_PAIR,
    MetricsReport,
    ShapeError,
    ShotCounts,
    SignalChunk,
    StateError,
    Statevector,
    decode_component,
    extract_component,
    fidelity_percent,
    make_rng,
    pointwise_multiply_state,
    rmsd_percent,
    sample_counts,
)


def two_qubit_state():
    amps = np.sqrt(np.array([0.4, 0.3, 0.2, 0.1], dtype=np.complex128))
    return Statevector(2, amps)


def reference_counts(state, shots, seed):
    """The sampling rule draw by draw: inverse CDF, then one bincount."""
    probs = state.probabilities()
    cdf = np.cumsum(probs / probs.sum())
    cdf[-1] = 1.0
    return reference_cdf_counts(cdf, shots, seed)


def reference_cdf_counts(cdf, shots, seed):
    """reference_counts' rule on a closed CDF: searchsorted(cdf, u, side="right") per draw."""
    draws = np.searchsorted(cdf, make_rng(seed).random(shots), side="right")
    return np.bincount(draws, minlength=cdf.size)


def overshooting_state():
    """A 3-qubit state with a zero last amplitude whose cdf[-2] rounds above 1."""
    rng = np.random.default_rng(11)
    while True:
        mags = np.append(rng.uniform(0.0, 1.0, 7), 0.0)
        mags[rng.integers(0, 7)] = 0.0
        state = Statevector(3, (mags / np.linalg.norm(mags)).astype(np.complex128))
        probs = state.probabilities()
        if np.cumsum(probs / probs.sum())[-2] > 1.0:
            return state


def test_make_rng_deterministic():
    a = make_rng(123).random(5)
    b = make_rng(123).random(5)
    assert np.array_equal(a, b)
    c = make_rng([123, 1]).random(5)
    assert not np.array_equal(a, c)


def test_sample_counts_reproducible():
    state = two_qubit_state()
    first = sample_counts(state, 10_000, seed=42)
    second = sample_counts(state, 10_000, seed=42)
    assert np.array_equal(first.counts, second.counts)
    assert first.counts.sum() == 10_000
    other = sample_counts(state, 10_000, seed=43)
    assert not np.array_equal(first.counts, other.counts)


def test_sample_counts_pinned():
    # recorded from the searchsorted(cdf, u) + bincount sampler
    counts = sample_counts(two_qubit_state(), 10_000, seed=42)
    assert counts.counts.tolist() == [4010, 3042, 1945, 1003]


@settings(max_examples=150, deadline=None)
@given(
    num_qubits=st.integers(1, 5),
    shots=st.integers(1, 20_000),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_sample_counts_matches_reference_rule(num_qubits, shots, seed, data):
    dim = 1 << num_qubits
    mags = np.array(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=dim, max_size=dim)))
    if not mags.any():
        mags[-1] = 1.0
    phases = np.exp(1j * np.array(data.draw(st.lists(
        st.floats(0.0, 2 * np.pi), min_size=dim, max_size=dim))))
    state = Statevector(num_qubits, mags / np.linalg.norm(mags) * phases)
    got = sample_counts(state, shots, seed).counts
    assert np.array_equal(got, reference_counts(state, shots, seed))


@pytest.mark.parametrize("shots", [1, 2, 777, 5_000, 20_000])
def test_sample_counts_cdf_overshoot_matches_reference(shots):
    state = overshooting_state()
    got = sample_counts(state, shots, seed=shots).counts
    assert np.array_equal(got, reference_counts(state, shots, shots))
    assert got[-1] == 0


@pytest.mark.parametrize("state", [two_qubit_state(), overshooting_state()],
                         ids=["two-qubit", "overshoot"])
def test_sample_counts_batched_matches_reference(monkeypatch, state):
    monkeypatch.setattr(sampling, "_BATCH", 777)
    got = sample_counts(state, 5_000, seed=9).counts
    assert np.array_equal(got, reference_counts(state, 5_000, 9))


def test_sample_counts_peak_memory_under_cap():
    state = Statevector(5, np.full(32, 32 ** -0.5, dtype=np.complex128))
    tracemalloc.start()
    try:
        sample_counts(state, 4_000_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, [5, 17]])
def test_philox_uniforms_are_the_top_53_bits_of_raw_words(seed):
    """draw_counts bins raw Philox words, relying on numpy's u = (w >> 11) * 2**-53."""
    floats, words = make_rng(seed), make_rng(seed).bit_generator
    for n in (1, 3, 5, 6, 4097, 131071):  # successive draws, not whole 4-word blocks
        expected = (words.random_raw(n) >> np.uint64(11)) * 2.0**-53
        assert floats.random(n).tobytes() == expected.tobytes(), (seed, n)


@st.composite
def stressed_cdfs(draw):
    """Closed CDFs whose edges sit where draw_counts' grid is easiest to get wrong.

    Edges on cell boundaries j/2**k of every grid draw_counts may pick, their
    float neighbours on both sides, or a few draws' width off them; runs of
    1e-9 steps, so many edges share a cell; repeated edges from
    zero-probability bins; a subnormal first probability; or the CDF of
    overshooting_state, whose cdf[-2] exceeds 1.
    """
    if draw(st.booleans()) and draw(st.booleans()):
        return sampling.sampling_cdf(overshooting_state().probabilities())
    dim = draw(st.one_of(st.integers(2, 64), st.integers(2, 2**14)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = rng.random(dim - 1)
    if draw(st.booleans()):
        k = rng.integers(1, 17, dim - 1)
        points = rng.integers(0, 2**k) / 2.0**k
        side = rng.integers(-1, 2, dim - 1)
        points[side < 0] = np.nextafter(points[side < 0], 0.0)
        points[side > 0] = np.nextafter(points[side > 0], 1.0)
        near = rng.random(dim - 1) < 0.3  # a few draws' width off the boundary
        offset = rng.choice([-1, 1], near.sum()) * rng.integers(1, 17, near.sum())
        points[near] += offset * 2.0**-20
    if draw(st.booleans()):
        run = rng.random(dim - 1) < 0.5
        points[run] = rng.random() + 1e-9 * np.arange(run.sum())
    if draw(st.booleans()):
        repeat = rng.random(dim - 1) < 0.3
        points[repeat] = points[rng.integers(0, dim - 1, repeat.sum())]
    points = np.sort(np.clip(points, 0.0, 1.0))
    if draw(st.booleans()):
        points[0] = 5e-324
    return np.append(points, 1.0)


@settings(max_examples=120, deadline=None)
@given(
    cdf=stressed_cdfs(),
    shots=st.one_of(
        st.integers(1, 40_000),
        st.builds(lambda batch, blocks, edge: batch * blocks + edge,
                  st.sampled_from([sampling._GRID_BATCH, sampling._BATCH]),
                  st.integers(1, 2), st.sampled_from([-1, 0, 1]))),
    seed=st.integers(0, 2**32 - 1),
    bits=st.integers(0, 16),
    batch=st.sampled_from([4096, sampling._GRID_BATCH]),
)
def test_count_draws_matches_reference_rule_on_stressed_cdfs(cdf, shots, seed, bits, batch):
    """The grid counter gives the draw-by-draw counts on the grid it picks and on any other."""
    expected = reference_cdf_counts(cdf, shots, seed)
    assert np.array_equal(sampling.draw_counts(cdf[None], shots, [seed])[0], expected)
    assert np.array_equal(sampling._count_on_grid(cdf[None], shots, [seed], bits, batch)[0],
                          expected)


def test_draw_counts_on_its_grid_matches_reference_rule():
    """A block the size of a benchmark call is counted on the grid, row for row as the rule."""
    probs = np.random.default_rng(4).dirichlet(np.full(32, 0.5), size=12)
    probs[3, ::4] = 0.0  # zero-probability bins repeat edges
    cdf = sampling.sampling_cdf(probs / probs.sum(axis=1, keepdims=True))
    seeds = [[21, k] for k in range(12)]
    assert sampling._grid_plan(32, 100_000)[0] > 0
    got = sampling.draw_counts(cdf, 100_000, seeds)
    for k in range(12):
        assert np.array_equal(got[k], reference_cdf_counts(cdf[k], 100_000, seeds[k]))


def test_threads_drawing_on_the_grid_at_once_match_reference_rule():
    """Each thread bins on its own batch buffers, so concurrent calls stay exact."""
    cdf = sampling.sampling_cdf(np.random.default_rng(8).dirichlet(np.ones(32), size=6))
    seeds = [[[3, t, k] for k in range(6)] for t in range(4)]
    assert sampling._grid_plan(32, 100_000)[0] > 0
    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(lambda s: sampling.draw_counts(cdf, 100_000, s), seeds))
    for row_seeds, counts in zip(seeds, got):
        for k in range(6):
            assert np.array_equal(counts[k], reference_cdf_counts(cdf[k], 100_000, row_seeds[k]))


@pytest.mark.parametrize("dim", [32, 2**14], ids=["grid", "single-cell"])
def test_count_draws_peak_memory_is_one_batch(dim):
    """4e6 shots stay within 8 MiB: draw_counts holds one batch, whatever the shot count.

    D = 32 bins its draws on a grid. D = 2**14 sorts every draw, in batches
    of 32 * D = 2**19 draws (4 MiB of float64); it is the largest D whose
    single-cell batch stays under the cap, and the largest the exactness
    test covers.
    """
    cdf = sampling.sampling_cdf(np.full(dim, 1.0 / dim))
    assert (sampling._grid_plan(dim, 4_000_000)[0] > 0) == (dim == 32)
    tracemalloc.start()
    try:
        counts = sampling.draw_counts(cdf[None], 4_000_000, [3])[0]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() == 4_000_000
    assert peak < 8 * 2**20


def test_sample_counts_batching_matches_single_pass(monkeypatch):
    state = two_qubit_state()
    whole = sample_counts(state, 5_000, seed=7)
    monkeypatch.setattr(sampling, "_BATCH", 999)
    batched = sample_counts(state, 5_000, seed=7)
    assert np.array_equal(whole.counts, batched.counts)


def test_sample_counts_requires_unit_norm():
    bad = Statevector(1, np.array([0.5, 0.5], dtype=np.complex128))
    with pytest.raises(StateError):
        sample_counts(bad, 10, seed=0)
    with pytest.raises(ShapeError):
        sample_counts(two_qubit_state(), 0, seed=0)


@pytest.mark.parametrize("amps", [
    [np.nan, 0.0],
    [1.0, np.nan],
    [np.inf, 0.0],
    [np.inf, -np.inf],
])
def test_sample_counts_rejects_non_finite_norm(amps):
    bad = Statevector(1, np.array(amps, dtype=np.complex128))
    with pytest.raises(StateError):
        sample_counts(bad, 10, seed=0)


@pytest.mark.parametrize("dim", [8, 32, 64, 4096])
def test_row_helpers_equal_one_row_calls(dim):
    """The (C, D) forms that process_chunks uses give each row's one-state values exactly."""
    rng = np.random.default_rng(dim)
    amps = rng.normal(size=(6, dim)) + 1j * rng.normal(size=(6, dim))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    amps[2, ::3] = 0.0  # unseen indices decode to 0
    amps[2] /= np.linalg.norm(amps[2])
    probs = np.abs(amps) ** 2
    cdf = sampling.sampling_cdf(probs)
    ideal = rng.uniform(0.0, 1.0, (6, dim // 4))
    counts = np.array([sampling.draw_counts(cdf[k, None], 300, [[7, k]])[0] for k in range(6)])
    rmsd = sampling.rmsd_rows(sampling.decode_rows(counts)[..., 2], ideal)
    fidelity = sampling.fidelity_rows(probs, counts / 300)
    for k in range(6):
        state = Statevector(dim.bit_length() - 1, amps[k])
        one = sample_counts(state, 300, [7, k])
        assert np.array_equal(one.counts, counts[k])
        assert np.array_equal(decode_component(one, (1, 0)),
                              sampling.decode_rows(counts)[k, :, 2])
        assert rmsd[k] == rmsd_percent(decode_component(one, (1, 0)), ideal[k])
        assert fidelity[k] == fidelity_percent(one, state)


@settings(max_examples=40, deadline=None)
@given(rows=st.integers(1, 9), blocks=st.integers(1, 3), edge=st.sampled_from([-1, 0, 1]),
       bits=st.sampled_from([0, 1, 6, 12]), data=st.data())
def test_draw_counts_equals_per_row_count_draws(rows, blocks, edge, bits, data):
    """Each row gets the counts of its own one-row draw_counts call, across batch boundaries.

    Batches of 16 draws, sorted whole (bits = 0) or binned on a grid, reuse
    one set of buffers from row to row and batch to batch.
    """
    shots = blocks * 16 + edge  # one below, on and one above a batch boundary
    dim = data.draw(st.sampled_from([2, 8, 32]))
    probs = np.random.default_rng(rows * 31 + dim).dirichlet(np.ones(dim), size=rows)
    cdf = sampling.sampling_cdf(probs)
    seeds = [[data.draw(st.integers(0, 2**32)), k] for k in range(rows)]
    expected = [reference_cdf_counts(cdf[k], shots, seeds[k]) for k in range(rows)]
    got = sampling._count_on_grid(cdf, shots, seeds, bits, 16)
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
    assert np.array_equal(sampling.draw_counts(cdf, shots, seeds), expected)
    assert np.array_equal(
        [sampling.draw_counts(cdf[k, None], shots, [seeds[k]])[0] for k in range(rows)], expected)


@settings(max_examples=60, deadline=None)
@given(rows=st.integers(1, 4), n=st.integers(0, 5), unseen=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_decode_rows_is_hits_over_totals_for_every_pattern(rows, n, unseen, seed):
    """sqrt(hits / totals) of each of the four patterns; an index never observed gives +0.0."""
    rng = np.random.default_rng(seed)
    table = rng.integers(0, 50, (rows, 1 << n, 4))
    table[rng.random(table.shape) < 0.3] = 0  # patterns with no hits
    table[rng.random(table.shape[:2]) < unseen] = 0  # indices never observed
    got = sampling.decode_rows(table.reshape(rows, -1))
    assert got.shape == (rows, 1 << n, 4)
    for k in range(4):
        for r in range(rows):
            for x in range(1 << n):
                total = int(table[r, x].sum())
                want = np.sqrt(table[r, x, k] / total) if total else 0.0
                assert np.float64(want).tobytes() == got[r, x, k].tobytes(), (r, x, k)
    assert got.tobytes() == sampling.decode_rows(table.reshape(-1)).reshape(got.shape).tobytes()


def test_sampling_cdf_names_the_first_bad_row():
    probs = np.full((3, 4), 0.25)
    probs[1] *= 2.0
    probs[2, 0] = np.nan
    with pytest.raises(StateError, match=r"^state norm\^2 = 2.0, not 1 within 1e-6$"):
        sampling.sampling_cdf(probs)


def test_sampled_frequencies_approach_probabilities():
    state = two_qubit_state()
    counts = sample_counts(state, 1_000_000, seed=2024)
    assert np.abs(counts.frequencies() - state.probabilities()).max() < 5e-3


def test_decode_component_count_ratio():
    # one register qubit, two ancillae; x=0 observed 25 times, x=1 never
    table = np.zeros(8, dtype=np.int64)
    table[0] = 9   # x=0, pattern 00
    table[1] = 16  # x=0, pattern 01
    counts = ShotCounts(3, 25, 0, table)
    est = decode_component(counts, (0, 0))
    assert est == pytest.approx([0.6, 0.0])
    est01 = decode_component(counts, (0, 1))
    assert est01 == pytest.approx([0.8, 0.0])
    with pytest.raises(ShapeError):
        decode_component(ShotCounts(2, 1, 0, np.array([1, 0, 0, 0])), (0, 0))
    # the same component check, and message, as extract_component
    for bad in ((0, 2), (-1, 0), (1, 1.5)):
        with pytest.raises(ShapeError, match=r"component must be a pair of bits"):
            decode_component(counts, bad)


def test_rmsd_percent():
    assert rmsd_percent(np.full(8, 0.6), np.full(8, 0.5)) == pytest.approx(10.0)
    assert rmsd_percent(np.zeros(4), np.zeros(4)) == 0.0
    with pytest.raises(ShapeError):
        rmsd_percent(np.zeros(4), np.zeros(5))


def test_fidelity_percent_bounds():
    ideal = np.array([0.5, 0.5, 0.0, 0.0])
    same = ShotCounts(2, 100, 0, np.array([50, 50, 0, 0]))
    assert fidelity_percent(same, ideal) == pytest.approx(100.0)
    disjoint = ShotCounts(2, 100, 0, np.array([0, 0, 50, 50]))
    assert fidelity_percent(disjoint, ideal) == 0.0
    half = ShotCounts(2, 100, 0, np.array([100, 0, 0, 0]))
    # overlap sqrt(0.5); fidelity 50%
    assert fidelity_percent(half, ideal) == pytest.approx(50.0)
    state = two_qubit_state()
    counts = sample_counts(state, 100_000, seed=5)
    fid = fidelity_percent(counts, state)
    assert 99.9 < fid <= 100.0


def test_decode_consistency_high_shots():
    """Estimates converge on the true product at 1e7 shots."""
    rng = np.random.default_rng(1888)
    f = SignalChunk(rng.uniform(0.1, 0.95, 8))
    g = SignalChunk(rng.uniform(0.1, 0.95, 8))
    product = pointwise_multiply_state(f, g)
    ideal = np.abs(extract_component(product, (0, 0)))
    counts = sample_counts(product.state, 10_000_000, seed=77)
    est = decode_component(counts, (0, 0))
    assert rmsd_percent(est, ideal) < 0.05


def test_standard_test_pair_is_encodable():
    f, g = STANDARD_TEST_PAIR
    assert len(f) == 8 and len(g) == 8
    assert f.min() > 0 and g.min() > 0
    assert max(f.max(), g.max()) < 1.0 - 1e-9


def test_metrics_report_row():
    report = MetricsReport(3, 1000, 42, 1.25, 99.5, 0.125, 1.0, 0.5)
    assert report.csv_row() == "3,1000,42,1.25,99.5,0.125,1,0.5"
    exact = MetricsReport(0, "exact", 42, 0.0, 100.0, 0.25, 1.0, 1.0)
    assert exact.csv_row().startswith("0,exact,42,0,100,")

"""Shot sampling, count decoding, and accuracy metrics.

Sampling uses numpy's Philox generator (counter-based, seedable, stable
across platforms). Seeds may be ints or sequences of ints; per-chunk streams
are derived from (base_seed, chunk_index) so outcomes do not depend on how
work is scheduled across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, StateError
from .pipelines import COMPONENTS, _chunk_blocks, _component_offset
from .statevector import Statevector

# Uniforms drawn per batch when sampling: the float64 batch (~32 MB) is the
# only shot-sized array, so peak memory is one batch per thread that draws.
_BATCH = 4_000_000

# Smooth positive 8-sample pair used as the default sweep input. Amplitudes
# sit high in [0, 1) so the per-index decode keeps sampling error small.
_x = np.arange(8)
STANDARD_TEST_PAIR = (
    0.92 + 0.06 * np.sin(2.0 * np.pi * _x / 8.0),
    0.90 + 0.08 * np.cos(2.0 * np.pi * _x / 8.0),
)
del _x


def make_rng(seed) -> np.random.Generator:
    """Philox generator for an int seed or a sequence of ints."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


@dataclass(frozen=True)
class ShotCounts:
    """Dense per-basis-state counts from one sampling run."""

    num_qubits: int
    shots: int
    seed: object
    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.shape != (1 << self.num_qubits,):
            raise ShapeError(
                f"counts shape {counts.shape} does not match {self.num_qubits} qubits"
            )
        object.__setattr__(self, "counts", counts)

    def frequencies(self) -> np.ndarray:
        return self.counts / self.shots


def sample_counts(state: Statevector, shots: int, seed) -> ShotCounts:
    """Draw `shots` independent basis-state samples from |amplitude|^2.

    The state must be unit-norm to 1e-6 (a NaN or infinite norm is
    rejected); the probability vector is then renormalized exactly and its
    CDF closed with cdf[-1] = 1. Sampling rule: shot j takes the j-th
    uniform u of the Philox stream, drawn in batches of at most _BATCH, and
    lands on the first basis state k with u < cdf[k], i.e.
    searchsorted(cdf, u, side="right"). Counting sorts each batch once and
    takes differences of searchsorted(u, cdf, side="left"), the number of
    draws below each cdf[k]; that assigns every draw to the same k, so the
    counts equal those of the rule draw for draw. Identical (state, shots,
    seed) always produce identical counts.
    """
    if shots < 1:
        raise ShapeError(f"shots must be >= 1, got {shots}")
    counts = count_draws(sampling_cdf(state.probabilities()), shots, seed)
    return ShotCounts(state.num_qubits, int(shots), seed, counts)


def sampling_cdf(probs) -> np.ndarray:
    """The closed CDF of each row of (..., D) probabilities, as sample_counts uses it.

    Each row must sum to 1 within 1e-6; it is divided by its sum, cumulated,
    and its last entry set to exactly 1. Rows are independent, so a (C, D)
    table gives the same bits as C separate calls.
    """
    totals = probs.sum(axis=-1)
    bad = ~(np.abs(totals - 1.0) <= 1e-6)
    if bad.any():
        raise StateError(f"state norm^2 = {float(totals[bad].flat[0])}, not 1 within 1e-6")
    cdf = np.cumsum(probs / totals[..., None], axis=-1)
    cdf[..., -1] = 1.0
    return cdf


def count_draws(cdf, shots: int, seed) -> np.ndarray:
    """Counts per basis state of `shots` Philox draws against one closed CDF.

    The draw-and-count half of sample_counts' sampling rule, for callers
    that hold the CDF already.
    """
    rng = make_rng(seed)
    counts = np.zeros(cdf.size, dtype=np.int64)
    remaining = int(shots)
    while remaining > 0:
        batch = min(remaining, _BATCH)
        u = rng.random(batch)
        u.sort()
        counts += np.diff(np.searchsorted(u, cdf, side="left"), prepend=0)
        remaining -= batch
    return counts


def draw_counts(cdf, shots: int, seeds) -> np.ndarray:
    """count_draws of every row of a (rows, D) CDF table, row k on seeds[k].

    Returns the (rows, D) counts. Each row owns its Philox stream, so row k
    equals count_draws(cdf[k], shots, seeds[k]) however rows are grouped
    into blocks or spread over threads.
    """
    counts = np.empty(cdf.shape, dtype=np.int64)
    for k, row_seed in enumerate(seeds):
        counts[k] = count_draws(cdf[k], shots, row_seed)
    return counts


def shot_readout(states, shots: int, seeds) -> tuple:
    """Shot-mode readout of a block of (rows, N, 2, 2) product states, row k drawn on seeds[k].

    Returns the decoded (4, rows, N) channels in COMPONENTS order, each
    row's rmsd (%) of the (0, 0) channel against its exact magnitudes, and
    each row's fidelity (%), all equal to sample_counts, decode_component,
    rmsd_percent and fidelity_percent on that row's state.
    """
    ideal00 = np.abs(states[:, :, 0, 0] * np.sqrt(states.shape[1]))
    probs = np.abs(states.reshape(len(states), -1)) ** 2
    counts = draw_counts(sampling_cdf(probs), shots, seeds)
    channels = np.stack([decode_rows(counts, _component_offset(c)) for c in COMPONENTS])
    return channels, rmsd_rows(channels[0], ideal00), fidelity_rows(probs, counts / shots)


def seed_scores(state, shots: int, seeds) -> tuple:
    """rmsd and fidelity (%) of one (N, 2, 2) product state, drawn once on each seed.

    The (len(seeds),) arrays shot_readout gives for that state repeated,
    computed a block of seeds at a time so the counts table and its
    temporaries stay a few MiB however many seeds there are.
    """
    rmsds, fids = np.empty(len(seeds)), np.empty(len(seeds))
    for lo, hi in _chunk_blocks(len(seeds), state.size):
        block = np.broadcast_to(state, (hi - lo, *state.shape))
        _, rmsds[lo:hi], fids[lo:hi] = shot_readout(block, shots, seeds[lo:hi])
    return rmsds, fids


def decode_component(counts: ShotCounts, component=(0, 0)) -> np.ndarray:
    """Per-index magnitude estimates from a two-ancilla product state's counts.

    For index x with total count T(x) over its four ancilla patterns and
    c(x) hits on the requested pattern, the estimate is sqrt(c(x)/T(x));
    an index never observed at all decodes to 0.
    """
    offset = _component_offset(component)
    if counts.num_qubits < 3:
        raise ShapeError("need an index register plus two ancillae")
    return decode_rows(counts.counts, offset)


def decode_rows(counts, offset: int) -> np.ndarray:
    """decode_component on each row of a (..., 4N) counts table, at ancilla offset 2*bf + bg."""
    table = counts.reshape(*counts.shape[:-1], -1, 4)
    totals = table.sum(axis=-1)
    hits = table[..., offset]
    safe = np.where(totals > 0, totals, 1)
    est = np.sqrt(hits / safe)
    est[totals == 0] = 0.0
    return est


def rmsd_percent(estimate, ideal) -> float:
    """100 * sqrt(mean squared deviation) between two real vectors."""
    estimate = np.asarray(estimate, dtype=np.float64)
    ideal = np.asarray(ideal, dtype=np.float64)
    if estimate.shape != ideal.shape:
        raise ShapeError(f"shape mismatch: {estimate.shape} vs {ideal.shape}")
    return float(rmsd_rows(estimate.ravel(), ideal.ravel()))


def rmsd_rows(estimate, ideal) -> np.ndarray:
    """rmsd_percent of each row of two (..., N) float arrays."""
    return 100.0 * np.sqrt(np.mean((estimate - ideal) ** 2, axis=-1))


def fidelity_percent(counts: ShotCounts, ideal) -> float:
    """Bhattacharyya fidelity, in percent, between counts and an ideal state.

    100 * (sum_i sqrt(p_i * q_i))^2 with q the empirical frequencies and p
    the ideal distribution (a Statevector or a probability vector). Equal
    distributions give exactly 100; disjoint support gives 0.
    """
    if isinstance(ideal, Statevector):
        p = ideal.probabilities()
    else:
        p = np.asarray(ideal, dtype=np.float64)
    if p.shape != counts.counts.shape:
        raise ShapeError(f"shape mismatch: {p.shape} vs {counts.counts.shape}")
    return float(fidelity_rows(p, counts.frequencies()))


def fidelity_rows(p, q) -> np.ndarray:
    """fidelity_percent of each row of (..., D) ideal probabilities p and frequencies q."""
    overlap = np.sum(np.sqrt(p * q), axis=-1)
    return 100.0 * overlap * overlap


METRICS_CSV_HEADER = (
    "chunk_index,shots,seed,rmsd_percent,fidelity_percent,"
    "postselect_probability,scale_f,scale_g"
)
# One metrics.csv row, shared by MetricsReport.csv_row and the one-pass writer
# in qwave.audio: chunk_index, shots, seed, then the five float columns.
METRICS_CSV_ROW = "{},{},{},{:.10g},{:.10g},{:.10g},{:.10g},{:.10g}"


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
        return METRICS_CSV_ROW.format(
            self.chunk_index, self.shots, self.seed, self.rmsd_percent,
            self.fidelity_percent, self.postselect_probability, self.scale_f, self.scale_g,
        )

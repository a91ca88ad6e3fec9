"""Shot sampling, count decoding, and accuracy metrics.

Sampling uses numpy's Philox generator (counter-based, seedable, stable
across platforms). Seeds may be ints or sequences of ints; per-chunk streams
are derived from (base_seed, chunk_index) so outcomes do not depend on how
work is scheduled across threads.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, StateError
from .pipelines import _chunk_blocks, _component_offset
from .statevector import Statevector

# The name of sample_counts' sampling rule, which run manifests record: shot
# j takes the j-th Philox uniform u of its stream and lands on
# searchsorted(cdf, u, side="right"). A change that moves any draw takes a
# new number.
SAMPLER = "philox-inverse-cdf/1"

# A batch is the only shot-sized array, so peak memory is one batch per thread
# that draws. A binned batch holds _GRID_BATCH Philox words and their cell
# indices (512 KiB each), binned on at most 2**13 cells. A sorted batch holds
# _SORT_DRAWS_PER_EDGE uniforms per CDF entry, so that searching the CDF in
# each sorted batch stays a small part of its cost, but at least _BATCH
# (1 MiB of float64) and at most _MAX_BATCH (32 MiB).
_GRID_BATCH = 1 << 16
_BATCH = 1 << 17
_MAX_BATCH = 1 << 22
_SORT_DRAWS_PER_EDGE = 32
# draw_counts bins on a grid only when a call draws at least one full binned
# batch and that batch holds _GRID_DRAWS_PER_EDGE draws per CDF entry: with
# fewer, the grid's fixed numpy calls and its per-batch search of every edge
# cost more than sorting the whole batch. Large batches also keep the GIL
# hand-overs per draw few when several threads draw at once.
_GRID_DRAWS_PER_EDGE = 512
# Each thread's cell-index and edge-mask buffers for a binned batch, kept
# for the thread's life. glibc maps an allocation of 128 KiB or more afresh,
# or trims it off its heap once it is freed, so buffers allocated per call
# would have their pages faulted in again on every call.
_grid_buffers = threading.local()

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
    uniform u of the Philox stream and lands on the first basis state k
    with u < cdf[k], i.e. searchsorted(cdf, u, side="right"). Drawing in
    batches, draw_counts counts the draws below each cdf[k] without sorting
    every uniform (see there) and takes differences; that assigns every draw
    to the same k, so the counts equal those of the rule draw for draw.
    Identical (state, shots, seed) always produce identical counts.
    """
    if shots < 1:
        raise ShapeError(f"shots must be >= 1, got {shots}")
    counts = draw_counts(sampling_cdf(state.probabilities())[None], shots, [seed])[0]
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


def draw_counts(cdf, shots: int, seeds) -> np.ndarray:
    """Counts per basis state of `shots` Philox draws against each row of a (rows, D) closed CDF.

    Row k draws on seeds[k] and owns its Philox stream, so its counts do not
    depend on how rows are grouped into blocks or spread over threads. This
    is the draw-and-count half of sample_counts' sampling rule, for callers
    that hold the CDFs already. numpy's Philox uniform is u = (w >> 11) * 2**-53
    for the next raw 64-bit word w, so the top `bits` bits of w name the cell
    floor(u * 2**bits) of a grid on [0, 1). A draw in a cell that holds no
    cdf[k] strictly inside it lies below cdf[k] exactly when its cell lies
    below cdf[k]'s, so those draws are only binned; the few draws in a cell
    that holds an edge are turned into their uniforms, sorted and searched
    against the CDF, one batch at a time. The number of draws below cdf[k]
    is then the binned count of the edge-free cells below it plus the edge
    draws below it, the same number a sort of every uniform gives. Short
    calls, or CDFs with too many entries for a grid to pay, use a single
    cell: every draw is sorted, and nothing is binned.
    """
    bits, batch = _grid_plan(cdf.shape[-1], shots)
    return _count_on_grid(cdf, shots, seeds, bits, batch)


def _grid_plan(dim: int, shots: int) -> tuple:
    """(bits, batch): the grid of 2**bits cells (0 for a single cell) and batch size for a call.

    About sqrt(8 * dim * batch) cells balance the per-cell cost of the bins
    against the sorting of the edge draws, at most dim / cells of a batch.
    """
    if shots < _GRID_BATCH or _GRID_BATCH < _GRID_DRAWS_PER_EDGE * dim:
        return 0, min(max(_BATCH, _SORT_DRAWS_PER_EDGE * dim), _MAX_BATCH)
    return (8 * dim * _GRID_BATCH).bit_length() // 2, _GRID_BATCH


def _count_on_grid(cdf, shots: int, seeds, bits: int, batch: int) -> np.ndarray:
    """draw_counts on a grid of 2**bits cells (0 for one cell), drawing at most `batch` at a time.

    Every row and batch reuses one set of batch buffers: the calling
    thread's, on a grid, and one allocated for the call when sorting.
    """
    shots = int(shots)
    n = min(shots, batch)
    counts = np.empty(cdf.shape, dtype=np.int64)
    if bits:
        cells = 1 << bits
        shift = np.uint64(64 - bits)
        cell = getattr(_grid_buffers, "cell", None)
        if cell is None or cell.size < n:
            _grid_buffers.cell = np.empty(n, dtype=np.int64)
            _grid_buffers.in_edge_cell = np.empty(n, dtype=bool)
        cell, in_edge_cell = _grid_buffers.cell, _grid_buffers.in_edge_cell
    else:
        drawn = np.empty(n)
    for k, seed in enumerate(seeds):
        rng, row = make_rng(seed), cdf[k]
        below = np.zeros(cdf.shape[-1], dtype=np.int64)
        if bits:
            scaled = row * cells  # exact: a power-of-two scale
            cell_of = np.minimum(scaled, cells).astype(np.intp)  # cdf >= 1 lies past the grid
            edge = np.zeros(cells + 1, dtype=bool)
            edge[cell_of[scaled != cell_of]] = True  # the cells with an edge strictly inside
            edge = edge[:cells]
            binned = np.zeros(cells, dtype=np.int64)
        for start in range(0, shots, batch):
            m = min(batch, shots - start)
            if bits:
                words = rng.bit_generator.random_raw(m)
                cell_m, in_edge_m = cell[:m], in_edge_cell[:m]
                # into a uint64 view of the int64 cells: an int64 out would take a casting loop
                np.right_shift(words, shift, out=cell_m.view(np.uint64))
                binned += np.bincount(cell_m, minlength=cells)
                np.take(edge, cell_m, out=in_edge_m, mode="clip")  # unbuffered: cells are in range
                u = (words[in_edge_m] >> np.uint64(11)) * 2.0**-53  # rng.random's uniforms
            else:
                u = rng.random(out=drawn[:m])
            u.sort()
            below += np.searchsorted(u, row, side="left")
            u = words = None  # freed before the next batch draws
        if bits:
            binned[edge] = 0
            below += np.concatenate(([0], np.cumsum(binned)))[cell_of]
        counts[k] = np.diff(below, prepend=0)
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
    channels = np.moveaxis(decode_rows(counts), -1, 0)
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
    return decode_rows(counts.counts)[:, offset]


def decode_rows(counts) -> np.ndarray:
    """decode_component of all four patterns on each row of a (..., 4N) counts table.

    Returns shape (..., N, 4), the last axis the ancilla pattern 2*bf + bg.
    An index never observed has no hits either, so 0 / 1 decodes it to +0.0.
    """
    table = counts.reshape(*counts.shape[:-1], -1, 4)
    return np.sqrt(table / np.maximum(table.sum(axis=-1, keepdims=True), 1))


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


"""Product and convolution pipelines built on the statevector engine, and their chunk drivers.

The two-ancilla product state over N = 2**n indices is

    (1/sqrt(N)) sum_x |x> (f*g|00> + f*g~|01> + f~*g|10> + f~*g~|11>)

with h~ = sqrt(1-|h|^2), so the |00> slice times sqrt(N) is the pointwise
product. Circular convolution reuses the same state on Fourier coefficients,
then undoes the transform on the index register.

`product_blocks` and `convolve_blocks` write each circuit's closed-form state
(amplitude h * rho_f[t_f, 0] * rho_g[t_g, 0], h the Hadamard amplitude) a
block of chunks at a time, with a leading chunk axis. `pointwise_multiply_state`
and `convolve_optimized` are the one-chunk API: the same engines at one
chunk. The tests hold them bit for bit to the gate-by-gate forms, except
for the sign of a zero product amplitude, which a gate's u01 * 0 term decides.

The drivers below them (make_chunks to seed_scores) own the chunk schedule:
the engine blocks (_chunk_blocks) and the thread ranges (_run_ranges).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .audio import (METRICS_CSV_FIELDS, METRICS_CSV_HEADER, MetricsReport, check_chunk_size,
                    check_seed, check_workers, csv_table)
from .encoding import EPSILON, SignalChunk, _magnitude, encoder_column, rescale_rows
from .errors import DomainError, NormalizationError, ShapeError
from .sampling import _component_offset, shot_readout
from .statevector import QubitLayout, Statevector, _check_num_qubits

COMPONENTS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class ProductState:
    """Prepared two-ancilla state and the layout of its qubits."""

    state: Statevector
    layout: QubitLayout

    @property
    def n(self) -> int:
        return self.layout.n


def pointwise_multiply_state(f: SignalChunk, g: SignalChunk) -> ProductState:
    """Encode f on ancilla t_f and g on t_g over a uniform index register."""
    if len(f) != len(g):
        raise ShapeError(f"signals differ in length: {len(f)} vs {len(g)}")
    _, states = next(product_blocks(f.values[None], g.values[None]))
    return ProductState(Statevector(f.n + 2, states[0].reshape(-1)),
                        QubitLayout.standard(f.n, num_ancillae=2))


def extract_component(product: ProductState, component=(0, 0)) -> np.ndarray:
    """The (t_f, t_g) = component amplitudes over x, times sqrt(N).

    For (0, 0) this is exactly f*g elementwise; the sqrt(N) undoes the uniform
    superposition weight.
    """
    offset = _component_offset(component)
    big_n = 1 << product.n
    return product.state.amplitudes[offset::4] * np.sqrt(big_n)


def postselect_probability(product: ProductState, component=(0, 0)) -> float:
    """Probability of measuring the ancillae in the given pattern."""
    offset = _component_offset(component)
    slice_ = product.state.amplitudes[offset::4]
    return float(np.sum(np.abs(slice_) ** 2))


# Amplitudes per block of chunks in product_blocks and convolve_blocks. A
# block's states and rho blocks are the only transients that grow with the
# number of chunks, so this holds them to a few MiB (at least one chunk).
_CHUNK_BLOCK = 1 << 16


def _chunk_blocks(num_chunks: int, amplitudes_per_chunk: int) -> list:
    """Consecutive (lo, hi) row ranges of at most _CHUNK_BLOCK amplitudes, one row at least."""
    step = max(1, _CHUNK_BLOCK // amplitudes_per_chunk)
    return [(lo, min(lo + step, num_chunks)) for lo in range(0, num_chunks, step)]


# The least work each thread's row range must hold before _run_ranges splits
# a call: state amplitudes on the exact engines (one _CHUNK_BLOCK block),
# shot draws in shot mode. On a 2-vCPU host two threads lost to one below
# about 3e4 amplitudes or 1e6 draws per thread.
_MIN_RANGE_AMPLITUDES = 1 << 16
_MIN_RANGE_DRAWS = 1 << 20


def _hadamard_amplitude(n: int) -> float:
    """Each amplitude of n Hadamards on |0...0>, bit for bit as the gate layer writes it.

    Every amplitude takes the same n products with 1/sqrt(2), so the
    engines scale by this value instead of making n passes over the state.
    """
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    amp = 1.0
    for _ in range(n):
        amp = amp * inv_sqrt2
    return amp


def _chunk_rows(values) -> np.ndarray:
    """(C, 2**n) rows as float64 when real and complex128 when complex, cast only if needed."""
    values = np.asarray(values)
    values = values.astype(np.result_type(values.dtype, np.float64), copy=False)
    if values.ndim != 2 or values.shape[1] < 2 or values.shape[1] & (values.shape[1] - 1):
        raise ShapeError(
            f"expected (chunks, 2**n) rows with n >= 1, got shape {values.shape}")
    return values


def product_blocks(f, g):
    """Two-ancilla product states for every row pair of f and g, a block of rows at a time.

    f and g are (C, N) arrays whose rows are encodable chunks (ChunkPlan.values).
    Yields (lo, states) with states of shape (rows, N, 2, 2), indexed
    [chunk, x, t_f, t_g], for rows lo, lo + 1, ... Each is a view of a fresh
    array held in [t_f, t_g, chunk, x] order, so states.transpose(2, 3, 0, 1)
    reads every (t_f, t_g) component as one contiguous (rows, N) slice, and
    a caller may overwrite it. The states are float64 when f and g are both
    real and complex128 otherwise; a real state holds the same bits as the
    real part of the complex one, whose imaginary part is +0.0 throughout,
    in half the memory. A state above MAX_QUBITS is refused before any is
    allocated.
    """
    f, g = _chunk_rows(f), _chunk_rows(g)
    if f.shape != g.shape:
        raise ShapeError(f"chunk rows differ in shape: {f.shape} vs {g.shape}")
    num_chunks, big_n = f.shape
    n = big_n.bit_length() - 1
    _check_num_qubits(n + 2)
    for lo, hi in _chunk_blocks(num_chunks, 4 * big_n):
        # (2, rows, N) encoder columns in the rows' dtype: [0] is the value, [1] s
        col_f = encoder_column(f[lo:hi])
        col_f *= _hadamard_amplitude(n)
        col_g = encoder_column(g[lo:hi])
        # four products of whole (rows, N) slices, where [chunk, x] order
        # would run a length-2 loop per amplitude pair
        yield lo, (col_g[None] * col_f[:, None]).transpose(2, 3, 0, 1)


# Terms per block in _sum_rows: a few MiB at any M, where one (M, M) block
# would take 32 * M**2 bytes (2 GiB at M = 8192).
_REFERENCE_BLOCK = 1 << 18


def _sum_rows(terms, m: int) -> np.ndarray:
    """Row sums of an (m, m) term array, shape (m,).

    terms(ks) gives the terms at rows ks (a (rows, 1) index column) as a
    (rows, m) array; each row is summed. A block holds at most about
    _REFERENCE_BLOCK terms (one row at least).
    """
    out = np.empty(m, dtype=np.complex128)
    ks = np.arange(m)[:, None]
    rows = min(m, max(1, _REFERENCE_BLOCK // m))
    for i in range(0, m, rows):
        out[i : i + rows] = np.sum(terms(ks[i : i + rows]), axis=-1)
    return out


def classical_dft(values, inverse: bool = False) -> np.ndarray:
    """Direct O(M^2) discrete Fourier transform, kernel exp(-2j*pi*x*y/M).

    The inverse uses the conjugate kernel and divides by M, so
    classical_dft(classical_dft(v), inverse=True) returns v. This is the
    reference implementation the quantum transforms are checked against;
    it deliberately avoids any FFT routine.
    """
    v = np.asarray(values, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"expected a non-empty 1-D array, got shape {v.shape}")
    m = v.size
    sign = 1.0 if inverse else -1.0
    ys = np.arange(m)
    out = _sum_rows(lambda xs: v * np.exp(sign * 2j * np.pi * xs * ys / m), m)
    if inverse:
        out /= m
    return out


def classical_circular_convolution(f, g) -> np.ndarray:
    """Brute-force circular convolution of two (M,) signals: out[k] = sum_j f[j] g[(k-j) mod M]."""
    f = np.asarray(f, dtype=np.complex128)
    g = np.asarray(g, dtype=np.complex128)
    if g.ndim != 1 or g.size == 0 or f.shape != g.shape:
        raise ShapeError(f"need two (M,) signals, got {f.shape} and {g.shape}")
    m = g.size
    idx = np.arange(m)
    # both factors 2-D: a one-element product broadcast across ndims takes
    # numpy's scalar loop, which rounds unlike the array loop of a 1-D product
    return _sum_rows(lambda ks: f[None, :] * g[(ks - idx) % m], m)


def zero_pad(chunk: SignalChunk, target_len: int) -> SignalChunk:
    """Extend a chunk with trailing zeros to a larger power-of-two length."""
    _check_frame(target_len, len(chunk))
    if target_len == len(chunk):
        return chunk
    return SignalChunk(_pad_array(chunk.values, target_len), chunk.scale)


def _check_frame(target_len: int, n: int) -> None:
    if target_len < n or target_len & (target_len - 1):
        raise ShapeError(f"target length {target_len} must be a power of two >= {n}")


def _pad_array(values, target_len: int) -> np.ndarray:
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 1 or values.size == 0:
        raise ShapeError(f"expected a non-empty 1-D array, got shape {values.shape}")
    if values.size > target_len:
        raise ShapeError(f"length {values.size} exceeds padded length {target_len}")
    out = np.zeros(target_len, dtype=np.complex128)
    out[: values.size] = values
    return out


def convolve_via_theorem(f: SignalChunk, g: SignalChunk, pad_to: int) -> np.ndarray:
    """Circular convolution via the convolution theorem, on one product state.

    The FFTs of the zero-padded inputs, renormalized into the encodable
    bound, are loaded into the two-ancilla product state (product_blocks).
    Its |00> slice, inverse-transformed on the index register with the
    renormalization divided back out, is the circular convolution of the
    padded values up to float roundoff.
    """
    fhat = SignalChunk.full_scale(np.fft.fft(zero_pad(f, pad_to).values))
    ghat = SignalChunk.full_scale(np.fft.fft(zero_pad(g, pad_to).values))
    _, states = next(product_blocks(fhat.values[None], ghat.values[None]))
    # exact post-selection of the |00> ancilla pattern, register kept
    return np.fft.ifft(states[0, :, 0, 0], norm="ortho") / (fhat.scale * ghat.scale)


def convolve_optimized(f: SignalChunk, g_kernel, pad_to: int) -> np.ndarray:
    """Circular convolution with f kept in superposition throughout.

    The signal is encoded once, its ancilla-0 slice is carried forward, and
    the register is Fourier-transformed in place. Only the kernel's Fourier
    coefficients are computed classically; they are renormalized and applied
    as controlled encoders on a second ancilla. Post-selecting that ancilla
    and inverting the register transform yields the convolution, which is
    returned with the renormalization and superposition weights divided out.
    `g_kernel` is a plain time-domain array of length <= pad_to.
    """
    return next(convolve_blocks(f.values[None], kernel_spectrum(g_kernel, pad_to, len(f))))[1][0]


def kernel_spectrum(kernel, pad_to: int, big_n: int) -> np.ndarray:
    """convolve_blocks' spectrum: the FFT of `kernel` zero-padded to pad_to.

    As in convolve_by_gates, the frame (a power of two >= big_n) and then the
    qubit limit are checked before it is allocated, then the kernel's length.
    """
    _check_frame(pad_to, big_n)
    _check_num_qubits(int(pad_to).bit_length())
    with np.errstate(over="ignore", invalid="ignore"):  # full_scale refuses a non-finite peak
        return np.fft.fft(_pad_array(kernel, pad_to))


def convolve_blocks(values, spectrum):
    """convolve_optimized for every row of a (C, N) array, a block of rows at a time.

    `spectrum` holds the kernel's Fourier coefficients on a power-of-two frame
    pad_to >= N (kernel_spectrum). Yields (lo, out) for rows lo, lo + 1, ...,
    out a fresh complex128 (rows, pad_to) array that a caller may overwrite,
    carrying only the register's ancilla-0 branch. Real rows are read as they
    are: their register amplitudes are written straight into the complex
    state. A state above MAX_QUBITS is refused before any is allocated.
    """
    values = _chunk_rows(values)
    (num_chunks, big_n), pad_to = values.shape, np.size(spectrum)
    _check_frame(pad_to, big_n)  # full_scale refuses a spectrum not 1-D
    m = pad_to.bit_length() - 1
    _check_num_qubits(m + 1)
    ghat = SignalChunk.full_scale(spectrum)
    # full_scale scaled ghat into the bound, so its values are its encoder column's tops
    col_g, scale_g = ghat.values, ghat.scale
    h = _hadamard_amplitude(m)
    for lo, hi in _chunk_blocks(num_chunks, 2 * pad_to):
        # |f> on the register, the encoding ancilla's 0 branch kept; the
        # zero padding's encoder column tops are +0.0
        rows = values[lo:hi]
        _magnitude(rows)
        psi = np.empty((hi - lo, pad_to), dtype=np.complex128)
        np.multiply(rows, h, out=psi[:, :big_n])
        psi[:, big_n:] = 0.0
        # register QFT, kernel on a fresh ancilla, inverse QFT on its 0 branch:
        # each transform frees the array before it, the other steps run in place
        psi = np.fft.fft(psi, axis=1, norm="ortho")
        np.multiply(col_g, psi, out=psi)
        psi = np.fft.ifft(psi, axis=1, norm="ortho")
        psi *= np.sqrt(pad_to)
        psi /= scale_g
        yield lo, psi


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

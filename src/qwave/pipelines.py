"""Product and convolution pipelines built on the statevector engine.

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import SignalChunk, _magnitude, encoder_column
from .errors import ShapeError
from .statevector import QubitLayout, Statevector, _check_num_qubits

COMPONENTS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _component_offset(component) -> int:
    bf, bg = component
    if bf not in (0, 1) or bg not in (0, 1):
        raise ShapeError(f"component must be a pair of bits, got {component}")
    return 2 * bf + bg


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

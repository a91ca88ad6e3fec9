"""Amplitude-phase encoding of complex values into single-qubit rotations.

A value v with |v| <= 1 maps to a unitary rho(v) whose first column is
(v, sqrt(1-|v|^2)): a Y-rotation by 2*arccos(|v|) followed by a phase on the
|0> component. Applying rho(f(x)) to a fresh ancilla, controlled on the index
register being |x>, writes f into the ancilla-0 amplitudes.

The column is written directly from one formula. Its top entry is v itself,
bit for bit, signed zeros included. The complement is
s = sqrt((1 - m)(1 + m)) with m = min(sqrt(re*re + im*im), 1). Each step is
one correctly rounded IEEE operation, so no libm routine decides an output
bit, and s is within two ulps of sqrt(1 - |v|^2). Real values give a
float64 column, with the same bits as the real parts of their complex128
column, whose imaginary parts are all +0.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, ShapeError
from .statevector import QubitLayout, Statevector, apply_uniformly_controlled

# Headroom below magnitude 1 so the complement sqrt(1-|v|^2) stays away
# from 0 and the chunk bound holds under roundoff.
EPSILON = 1e-9

# Slack for magnitudes produced by the rescaling itself (one multiply of
# already-validated floats).
_BOUND_SLACK = 1e-12


def _magnitude(values) -> np.ndarray:
    """min(sqrt(re*re + im*im), 1) elementwise. A magnitude above 1 + 1e-12, or a NaN, is an error.

    For real values sqrt(x*x) is |x| exactly, unless x*x underflows, where
    the complement is 1 either way.
    """
    re = np.real(values)
    # in place, since each temporary is a heap block that a call may fault in
    # again; out= keeps the result an array for a single value too
    mag = np.multiply(re, re, out=np.empty(np.shape(values)))
    if np.iscomplexobj(values):  # a real value's im*im is +0.0, which adds nothing
        im = np.imag(values)
        mag += im * im
    np.sqrt(mag, out=mag)
    peak = mag.max(initial=0.0)  # a NaN propagates, and fails the comparison
    if not peak <= 1.0 + _BOUND_SLACK:
        _refuse_nan(values, mag)
        raise NormalizationError(f"|value| = {peak} exceeds 1")
    if peak > 1.0:
        np.minimum(mag, 1.0, out=mag)
    return mag


def _complement(m) -> np.ndarray:
    """sqrt((1 - m)(1 + m)), written over the magnitude array m, which it returns.

    1 - m*m would lose digits near m = 1; this is within two ulps of
    sqrt(1 - m^2) everywhere.
    """
    one_minus = 1.0 - m
    m += 1.0
    m *= one_minus
    return np.sqrt(m, out=m)


def _refuse_nan(values, mag) -> None:
    """NormalizationError naming the first of `values` whose magnitude `mag` is NaN, if any."""
    nan = np.isnan(mag)
    if nan.any():
        raise NormalizationError(f"value {np.asarray(values)[nan].flat[0]} is not a number")


def encoder_column(values) -> np.ndarray:
    """rho(value)'s first column, the amplitudes the encoder writes, shape (2,) + values.shape.

    The column takes the values' dtype, at least float64: float64 for real
    values, complex128 for complex ones. [0] is the value itself, bit for
    bit, and [1] is the complement s = sqrt((1 - m)(1 + m)) (see the module
    docstring), with a +0.0 imaginary part when complex. Cast to complex128,
    they equal build_rho(values)[..., 0, 0] and [..., 1, 0] bit for bit, and
    `top, s = encoder_column(values)` unpacks them.
    """
    values = np.asarray(values)
    column = np.empty((2,) + values.shape, dtype=np.result_type(values.dtype, np.float64))
    column[0] = values
    if values.dtype != np.float64:
        column[1] = _complement(_magnitude(values))
        return column
    # float64: m = |x| written straight into [1], the bits of _magnitude's
    # sqrt(x*x) unless x*x underflows, where s is 1.0 either way
    m = np.abs(values, out=column[1, ...])
    peak = m.max(initial=0.0)  # a NaN propagates, and fails the comparison
    if not peak <= 1.0 + _BOUND_SLACK:
        _magnitude(values)  # refuses the value, with the message the complex lane gives
    if peak > 1.0:
        np.minimum(m, 1.0, out=m)
    _complement(m)
    return column


def build_rho(values) -> np.ndarray:
    """phi(value) @ mu(value), shape (..., 2, 2): [[value, -phase*s], [s, m]].

    m and s are encoder_column's magnitude and complement, so [..., :, 0] is
    its column bit for bit. mu = [[m, -s], [s, m]] is the Y-rotation taking
    |0> to m|0> + s|1>, and phi = diag(phase, 1) puts value's phase on |0>.
    The phase is value / |value| (1 at 0), each part divided by hypot(re, im),
    which stays non-zero for a subnormal value whose re*re + im*im underflows;
    -phase*s is written by parts too. A hypot below 2**-1022 rounds onto the
    subnormal grid (hypot(5e-324, 5e-324) is 5e-324), so such a value's parts
    are first scaled by 2**600, exactly; every other value keeps its bits.
    """
    values = np.asarray(values)
    m = _magnitude(values)
    s = _complement(m.copy())
    re, im = np.real(values), np.imag(values)
    shift = np.where(np.hypot(re, im) < np.finfo(np.float64).tiny, 600, 0)
    re, im = np.ldexp(re, shift), np.ldexp(im, shift)
    mag = np.hypot(re, im)
    nonzero = mag > 0.0
    rho = np.empty(values.shape + (2, 2), dtype=np.complex128)
    rho[..., 0, 0] = values
    rho[..., 1, 0] = s
    rho[..., 0, 1].real = -np.divide(re, mag, out=np.ones(values.shape), where=nonzero) * s
    rho[..., 0, 1].imag = -np.divide(im, mag, out=np.zeros(values.shape), where=nonzero) * s
    rho[..., 1, 1] = m
    return rho


def rescale_rows(rows: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Scale in place each row of `rows` whose peak magnitude exceeds 1 - EPSILON.

    Such a row is multiplied by (1 - EPSILON) / peak; any other row is left
    untouched, since multiplying by 1.0 can flip the sign of a zero. Returns
    each row's factor (1.0 where untouched).
    """
    hot = peaks > 1.0 - EPSILON
    factors = np.ones(peaks.shape)
    factors[hot] = (1.0 - EPSILON) / peaks[hot]
    rows[hot] *= factors[hot, None]
    return factors


def _chunk_values(values) -> np.ndarray:
    """`values` as a SignalChunk's complex128 array: 1-D, 2**n long with n >= 1, or a ShapeError."""
    values = np.asarray(values, dtype=np.complex128)
    if values.ndim != 1:
        raise ShapeError(f"chunk must be 1-D, got shape {values.shape}")
    size = values.size
    if size < 2 or size & (size - 1):
        raise ShapeError(f"chunk length must be a power of two >= 2, got {size}")
    return values


@dataclass(frozen=True)
class SignalChunk:
    """A power-of-two block of complex samples with magnitudes <= 1 - EPSILON.

    `scale` is the factor the raw samples were multiplied by at ingestion
    (1.0 when no rescaling was needed); callers divide by it to undo.
    """

    values: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        values = _chunk_values(self.values)
        mag = np.abs(values)
        max_mag = float(mag.max())
        if not max_mag <= (1.0 - EPSILON) * (1.0 + _BOUND_SLACK):  # NaN fails it too
            _refuse_nan(values, mag)
            raise NormalizationError(
                f"max |value| = {max_mag} exceeds the {1.0 - EPSILON} bound; "
                "use SignalChunk.from_values to rescale"
            )
        if not self.scale > 0:
            raise NormalizationError(f"scale must be positive, got {self.scale}")
        object.__setattr__(self, "values", values)

    @classmethod
    def from_values(cls, raw) -> "SignalChunk":
        """Build a chunk, rescaling into the magnitude bound when needed.

        The signal is rescaled as one row by rescale_rows, and its factor
        is the chunk's `scale`.
        """
        raw = np.array(raw, dtype=np.complex128)  # a copy: rescaled in place
        rows = raw.reshape(1, -1)
        factor = rescale_rows(rows, np.abs(rows).max(axis=1, initial=0.0))[0]
        return cls(rows.reshape(raw.shape), float(factor))

    @classmethod
    def full_scale(cls, raw) -> "SignalChunk":
        """Scale so the peak magnitude sits exactly on the bound.

        Used for Fourier coefficient vectors, which are normalized to full
        range whether or not they already fit; an all-zero input is kept
        as-is, and a peak that is not finite or whose factor overflows is
        refused. The factor is the chunk's `scale`, as in from_values.
        """
        raw = np.asarray(raw, dtype=np.complex128)
        peak = float(np.abs(raw).max()) if raw.size else 0.0
        if peak == 0.0:
            return cls(raw)
        factor = (1.0 - EPSILON) / peak
        if not (np.isfinite(peak) and np.isfinite(factor)):
            raise NormalizationError(
                f"cannot rescale a peak |value| of {peak} to the {1.0 - EPSILON} bound")
        # the scaled peak is 1 - EPSILON within a few ulps, far inside _BOUND_SLACK,
        # so the chunk is built without the bound check's second pass over |values|
        chunk = object.__new__(cls)
        object.__setattr__(chunk, "values", _chunk_values(raw * factor))
        object.__setattr__(chunk, "scale", factor)
        return chunk

    @property
    def n(self) -> int:
        return int(self.values.size).bit_length() - 1

    def __len__(self) -> int:
        return int(self.values.size)

    def complement(self) -> np.ndarray:
        """sqrt(1 - |values|^2), the amplitude left on the ancilla-1 branch: the encoder's s."""
        return _complement(_magnitude(self.values))


def encode_function(
    state: Statevector,
    layout: QubitLayout,
    signal: SignalChunk,
    ancilla: int,
) -> Statevector:
    """Write `signal` onto `ancilla` as one uniformly controlled rho.

    Applies rho(signal[x]) to the ancilla on the subspace where the index
    register reads x, for every x in a single pass; the same result as one
    controlled rho per index value. Assumes the ancilla qubit is currently in
    the |0> factor (not checked; callers prepare it that way).
    """
    if ancilla not in layout.ancillae:
        raise ShapeError(f"qubit {ancilla} is not an ancilla of the layout")
    n = layout.n
    if len(signal) != (1 << n):
        raise ShapeError(
            f"signal has {len(signal)} samples but the register addresses {1 << n}"
        )
    if layout.num_qubits > state.num_qubits:
        raise ShapeError("layout does not fit in the state")
    rhos = build_rho(signal.values)
    return apply_uniformly_controlled(state, layout.index_register, ancilla, rhos)

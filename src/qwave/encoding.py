"""Amplitude-phase encoding of complex values into single-qubit rotations.

A value v with |v| <= 1 maps to a unitary rho(v) whose first column is
(v, sqrt(1-|v|^2)): a Y-rotation by 2*arccos(|v|) followed by a phase on the
|0> component. Applying rho(f(x)) to a fresh ancilla, controlled on the index
register being |x>, writes f into the ancilla-0 amplitudes.

The column is computed in one of two lanes, chosen from the values alone.
When every value is x + 0j with both sign bits clear (x >= +0.0, imaginary
part +0.0, no NaN), as real audio samples are, hypot(x, 0) is x and the
phase exp(1j * arg) is exactly 1, so the real lane takes arccos of x itself
and writes cos as complex(c, +0.0). Any other array, one -0.0 or one
non-zero imaginary part included, takes the general lane through hypot,
angle and exp; a -0.0 has arg pi there. Both lanes give the same bits as
the general formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NormalizationError, ShapeError
from .statevector import QubitLayout, Statevector, apply_uniformly_controlled

# Headroom below magnitude 1 so arccos stays well conditioned and the
# complement sqrt(1-|v|^2) never goes negative under roundoff.
EPSILON = 1e-9

# Slack for magnitudes produced by the rescaling itself (one multiply of
# already-validated floats).
_BOUND_SLACK = 1e-12


def magnitude_angle(values):
    """arccos|value| in [0, pi/2], elementwise. A magnitude above 1, or a NaN, is an error."""
    # np.hypot is the scalar abs() bit for bit; np.abs on a complex array can
    # take a SIMD path one ulp off, which arccos amplifies near |v| = 1
    mag = np.hypot(np.real(values), np.imag(values))
    if not np.all(mag <= 1.0 + 1e-12):  # a NaN fails the comparison too
        _refuse_nan(values, mag)
        raise NormalizationError(f"|value| = {np.max(mag)} exceeds 1")
    return np.arccos(np.minimum(mag, 1.0))


def _refuse_nan(values, mag) -> None:
    """NormalizationError naming the first of `values` whose magnitude `mag` is NaN, if any."""
    nan = np.isnan(mag)
    if nan.any():
        raise NormalizationError(f"value {np.asarray(values)[nan].flat[0]} is not a number")


def _phase(values):
    """exp(1j * arg(value)) elementwise, with arg(0) = 0."""
    return np.exp(1j * np.angle(values))


# The bits of +inf as uint64. A float64 whose bits are at most this is one of
# +0.0 ... +inf: sign bit clear and not NaN. Such bits sort as the floats do.
_INF_BITS = np.float64(np.inf).view(np.uint64)


def _real_lane_peak(values):
    """max(values) if every value is x + 0j with x and its imaginary part >= +0.0, else None.

    NaN, -0.0, any negative x and any imaginary part but +0.0 give None. One
    max over the real parts' bits both picks the lane and finds the peak.
    """
    if values.dtype == np.complex128:
        if values.imag.view(np.uint64).any():
            return None
    elif values.dtype != np.float64:
        return None
    if not values.size:
        return None
    peak = values.real.view(np.uint64).max()
    return peak.view(np.float64) if peak <= _INF_BITS else None


def _angle_and_phase(values):
    """(arccos|value|, exp(1j * arg(value))) elementwise; the phase is None on the real lane.

    On the real lane (see the module docstring) the phase is exactly 1 and
    |value| is the value itself, so neither hypot nor angle nor exp runs. A
    magnitude above 1 is an error on both lanes.
    """
    values = np.asarray(values)
    peak = _real_lane_peak(values)
    if peak is None:
        return magnitude_angle(values), _phase(values)
    if peak > 1.0 + 1e-12:
        raise NormalizationError(f"|value| = {peak} exceeds 1")
    return np.arccos(values.real if peak <= 1.0 else np.minimum(values.real, 1.0)), None


def write_encoder_top(values, out):
    """Write rho(value)[0, 0] = phase * c into the complex array `out`; return theta.

    theta = arccos|value| has the shape of `values`, so a caller that needs
    the complement takes s = sin(theta) from it; one that does not computes
    no sine. On the real lane the entry is complex(c, +0.0), which phase * c
    gives when the phase is exactly 1.
    """
    theta, phase = _angle_and_phase(values)
    c = np.cos(theta)
    if phase is None:
        out[...] = c
    else:
        np.multiply(phase, c, out=out)
    return theta


def encoder_column(values) -> np.ndarray:
    """rho(value)'s first column, the amplitudes the encoder writes, shape (2,) + values.shape.

    [0] is phase * c, value to roundoff, and [1] is s, the complement
    sqrt(1 - |value|^2), with a +0.0 imaginary part; c and s are the cosine
    and sine of arccos|value| and phase is exp(1j * arg(value)). They equal
    build_rho(values)[..., 0, 0] and [..., 1, 0] bit for bit, through either
    lane (see the module docstring), and `top, s = encoder_column(values)`
    unpacks them. Each half is written in place.
    """
    values = np.asarray(values)
    column = np.empty((2,) + values.shape, dtype=np.complex128)
    column[1] = np.sin(write_encoder_top(values, column[0]))
    return column


def build_rho(values) -> np.ndarray:
    """phi(value) @ mu(value), shape (..., 2, 2); [..., 0, 0] is value to roundoff.

    mu = R_y(2*arccos|value|) places |value| on |0> and phi puts the phase of
    value on |0> (arg(0) is 0), so rho = [[phase*c, -phase*s], [s, c]] with
    c, s the cosine and sine of arccos|value|. The angle and phase are
    encoder_column's, from the same lanes, and the entries are written
    directly; they equal the matrix product bit for bit.
    """
    theta, phase = _angle_and_phase(values)
    if phase is None:
        # exactly 1: the products below are real, and the complex ones
        # have the +0.0 imaginary part that assigning a real value writes
        phase = 1.0
    c, s = np.cos(theta), np.sin(theta)
    rho = np.empty(np.shape(theta) + (2, 2), dtype=np.complex128)
    rho[..., 0, 0] = phase * c
    rho[..., 1, 0] = s
    rho[..., 0, 1] = phase * -s + 0.0  # the product's +0.0 where s = 0 (|value| = 1)
    rho[..., 1, 1] = c
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


@dataclass(frozen=True)
class SignalChunk:
    """A power-of-two block of complex samples with magnitudes <= 1 - EPSILON.

    `scale` is the factor the raw samples were multiplied by at ingestion
    (1.0 when no rescaling was needed); callers divide by it to undo.
    """

    values: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.complex128)
        if values.ndim != 1:
            raise ShapeError(f"chunk must be 1-D, got shape {values.shape}")
        size = values.size
        if size < 2 or size & (size - 1):
            raise ShapeError(f"chunk length must be a power of two >= 2, got {size}")
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
        return cls(raw * factor, factor)

    @property
    def n(self) -> int:
        return int(self.values.size).bit_length() - 1

    def __len__(self) -> int:
        return int(self.values.size)

    def complement(self) -> np.ndarray:
        """sqrt(1 - |values|^2), the amplitude left on the ancilla-1 branch."""
        return np.sqrt(np.maximum(0.0, 1.0 - np.abs(self.values) ** 2))


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

"""Dense statevector engine.

Amplitudes are a single complex128 array of length 2**num_qubits. Basis
states are indexed little-endian in bit position: qubit p is bit p of the
basis integer, so |b_{n-1} ... b_1 b_0> sits at index sum_p b_p * 2**p.

Gates are applied as direct amplitude-pair updates rather than through
matrix products or gate decompositions: the amplitudes are viewed as a
(2,)*num_qubits tensor with the acted-on bit positions moved to the front,
and each gate writes through that view. All apply_* functions mutate
state.amplitudes in place and return the state, so calls can be chained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError, ShapeError, StateError

MAX_QUBITS = 26


def _check_num_qubits(num_qubits: int) -> None:
    """ResourceLimitError unless 1 <= num_qubits <= MAX_QUBITS; allocates nothing."""
    if not 1 <= num_qubits <= MAX_QUBITS:
        raise ResourceLimitError(f"num_qubits must be in [1, {MAX_QUBITS}], got {num_qubits}")


@dataclass
class Statevector:
    num_qubits: int
    amplitudes: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.num_qubits, (int, np.integer)):
            raise TypeError("num_qubits must be an integer")
        _check_num_qubits(self.num_qubits)
        if self.amplitudes is None:
            amps = np.zeros(1 << self.num_qubits, dtype=np.complex128)
            amps[0] = 1.0
            self.amplitudes = amps
        else:
            amps = np.asarray(self.amplitudes, dtype=np.complex128)
            if amps.shape != (1 << self.num_qubits,):
                raise ShapeError(
                    f"expected {1 << self.num_qubits} amplitudes, got shape {amps.shape}"
                )
            self.amplitudes = amps

    @property
    def dim(self) -> int:
        return 1 << self.num_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def copy(self) -> "Statevector":
        return Statevector(self.num_qubits, self.amplitudes.copy())


@dataclass(frozen=True)
class QubitLayout:
    """Which bit positions hold the index register and which hold ancillae.

    ``index_register`` is ordered most significant first, so the register
    value x of a basis integer b is read directly off those bits. ``ancillae``
    lists the product ancillae with t_f first. The standard layout keeps the
    register in the high bits and ancillae in the low bits, which makes the
    (t_f, t_g) component of index x live at b = x * 4 + 2*t_f + t_g.
    """

    index_register: tuple[int, ...]
    ancillae: tuple[int, ...]

    def __post_init__(self):
        positions = self.index_register + self.ancillae
        if len(positions) == 0 or len(self.index_register) == 0:
            raise ShapeError("layout needs a non-empty index register")
        if any(p < 0 for p in positions):
            raise ShapeError(f"negative qubit position in layout {positions}")
        if len(set(positions)) != len(positions):
            raise ShapeError(f"layout positions overlap: {positions}")

    @classmethod
    def standard(cls, n: int, num_ancillae: int = 2) -> "QubitLayout":
        register = tuple(range(n + num_ancillae - 1, num_ancillae - 1, -1))
        ancillae = tuple(range(num_ancillae - 1, -1, -1))
        return cls(register, ancillae)

    @property
    def n(self) -> int:
        return len(self.index_register)

    @property
    def num_qubits(self) -> int:
        return len(self.index_register) + len(self.ancillae)


def init_state(num_qubits: int) -> Statevector:
    """All-zeros computational basis state |0...0>."""
    return Statevector(num_qubits)


def _axes_first(state: Statevector, positions) -> np.ndarray:
    """Checked positions as the leading axes of a (2,)*num_qubits amplitude view.

    Axis k of the plain reshape is bit position num_qubits-1-k. The view shares
    memory with state.amplitudes, so writes through it update the state.
    """
    nq = state.num_qubits
    for p in positions:
        if not 0 <= p < nq:
            raise ShapeError(f"qubit {p} out of range for {nq} qubits")
    if len(set(positions)) != len(positions):
        raise ShapeError(f"qubit positions {positions} repeat")
    psi = state.amplitudes.reshape((2,) * nq)
    return np.moveaxis(psi, [nq - 1 - p for p in positions], range(len(positions)))


def apply_hadamard_layer(state: Statevector, qubits) -> Statevector:
    """Hadamard on each listed qubit (order irrelevant, they commute)."""
    qubits = list(qubits)
    psi = _axes_first(state, qubits)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for k in range(len(qubits)):
        lead = (slice(None),) * k
        a0, a1 = psi[lead + (0, ...)], psi[lead + (1, ...)]
        new0 = (a0 + a1) * inv_sqrt2
        a1[...] = (a0 - a1) * inv_sqrt2
        a0[...] = new0
    return state


def _check_unitary(u: np.ndarray, shape=(2, 2)) -> np.ndarray:
    """`u` as complex128 of the given shape, each trailing 2x2 block unitary."""
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != shape:
        raise ShapeError(f"expected matrices of shape {shape}, got shape {u.shape}")
    defect = np.abs(u @ u.conj().swapaxes(-1, -2) - np.eye(2)).max()
    if defect > 1e-9:
        raise StateError(f"matrix is not unitary (defect {defect:.3e})")
    return u


def _rotate_pairs(psi: np.ndarray, lead: tuple, u: np.ndarray) -> None:
    """Apply u to the pairs (psi[lead + (0,)], psi[lead + (1,)]), writing through psi."""
    a0, a1 = psi[lead + (0, ...)], psi[lead + (1, ...)]
    new0 = u[..., 0, 0] * a0 + u[..., 0, 1] * a1
    a1[...] = u[..., 1, 0] * a0 + u[..., 1, 1] * a1
    a0[...] = new0


def apply_uniformly_controlled(state: Statevector, register, target: int, us: np.ndarray) -> Statevector:
    """Apply us[x] to `target` where the register (most significant bit first) reads x.

    `us` has shape (2**len(register), 2, 2). Equal to one gate us[x]
    controlled on the register reading x, for every x, in a single pass over
    the state.
    """
    register = list(register)
    psi = _axes_first(state, register + [target])
    m = len(register)
    us = _check_unitary(us, (1 << m, 2, 2))
    # us[x] broadcast over the register axes, constant over the spectators
    u = us.reshape((2,) * m + (1,) * (state.num_qubits - m - 1) + (2, 2))
    _rotate_pairs(psi, (slice(None),) * m, u)
    return state


def apply_qft(state: Statevector, register, inverse: bool = False) -> Statevector:
    """Fourier transform on the register factor, other qubits untouched.

    `register` lists bit positions most significant first; the transform sends
    amplitude c(x) to (1/sqrt(M)) * sum_y exp(-2j*pi*x*y/M) c(y) over register
    values, M = 2**len(register). `inverse=True` applies the exact adjoint.
    Spectator qubits may be entangled with the register; the transform acts on
    the register index of every amplitude.
    """
    register = list(register)
    if not register:
        raise ShapeError("register must name at least one qubit")
    psi = _axes_first(state, register)
    flat = psi.reshape(1 << len(register), -1)
    transform = np.fft.ifft if inverse else np.fft.fft
    psi[...] = transform(flat, axis=0, norm="ortho").reshape(psi.shape)
    return state

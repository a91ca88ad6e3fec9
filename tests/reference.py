"""Gate-by-gate statevector helpers that tests use as references.

The package applies a different 2x2 block for every register value in one
pass (`apply_uniformly_controlled`). These helpers apply one multi-controlled
gate at a time, the textbook form those passes are checked against, and live
here because no production path calls them.
"""

import numpy as np

from qwave import QubitLayout, ShapeError, Statevector
from qwave.statevector import _axes_first, _check_unitary, _rotate_pairs


def apply_controlled_unitary(state: Statevector, controls, target: int, u) -> Statevector:
    """Apply u to `target` on the subspace where every (qubit, bit) control matches.

    controls: iterable of (qubit_position, required_bit). An empty list gives
    an ordinary single-qubit gate. Anti-controls are just bit=0 entries.
    """
    controls = [(int(p), int(b)) for p, b in controls]
    if any(b not in (0, 1) for _, b in controls):
        raise ShapeError(f"control bits must be 0 or 1, got {controls}")
    psi = _axes_first(state, [p for p, _ in controls] + [target])
    _rotate_pairs(psi, tuple(b for _, b in controls), _check_unitary(u))
    return state


def apply_single_qubit(state: Statevector, qubit: int, u) -> Statevector:
    return apply_controlled_unitary(state, [], qubit, u)


def controls_for_index(layout: QubitLayout, x: int) -> list[tuple[int, int]]:
    """Control pattern selecting basis states whose register value is x."""
    n = layout.n
    if not 0 <= x < (1 << n):
        raise ShapeError(f"index {x} out of range for {n} register qubits")
    return [(layout.index_register[n - 1 - j], (x >> j) & 1) for j in range(n)]


def inner_product(a: Statevector, b: Statevector) -> complex:
    """<a|b> with the conjugate on the first argument."""
    if a.num_qubits != b.num_qubits:
        raise ShapeError(
            f"states have different sizes: {a.num_qubits} vs {b.num_qubits} qubits"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))

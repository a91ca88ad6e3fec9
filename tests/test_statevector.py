"""Engine tests against dense-matrix and explicit-sum oracles."""

import numpy as np
import pytest

from qwave import (
    MAX_QUBITS,
    QubitLayout,
    ResourceLimitError,
    ShapeError,
    StateError,
    Statevector,
    apply_hadamard_layer,
    apply_qft,
    apply_uniformly_controlled,
    init_state,
)
from reference import (
    apply_controlled_unitary,
    apply_single_qubit,
    controls_for_index,
    inner_product,
)

RNG = np.random.default_rng(7041)

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)


def random_state(num_qubits, rng=RNG):
    amps = rng.normal(size=1 << num_qubits) + 1j * rng.normal(size=1 << num_qubits)
    amps /= np.linalg.norm(amps)
    return Statevector(num_qubits, amps)


def random_unitary(rng=RNG):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def dense_single(num_qubits, pos, u):
    """Kronecker oracle: identity everywhere except bit `pos`."""
    return np.kron(np.kron(np.eye(1 << (num_qubits - 1 - pos)), u), np.eye(1 << pos))


def dense_controlled(num_qubits, controls, target, u):
    """Build the full matrix row by row from the control-match rule."""
    dim = 1 << num_qubits
    mat = np.eye(dim, dtype=np.complex128)
    tbit = 1 << target
    for j in range(dim):
        if j & tbit:
            continue
        if all((j >> p) & 1 == b for p, b in controls):
            k = j | tbit
            mat[j, j], mat[j, k] = u[0, 0], u[0, 1]
            mat[k, j], mat[k, k] = u[1, 0], u[1, 1]
    return mat


def brute_qft(amps, num_qubits, register, inverse=False):
    """Pure-python per-basis-state accumulation, independent of any FFT."""
    m = len(register)
    big_m = 1 << m
    sign = 1.0 if inverse else -1.0
    out = np.zeros_like(amps)
    reg_masks = [1 << p for p in register]  # MSB first
    for j in range(len(amps)):
        x = 0
        for mask in reg_masks:
            x = (x << 1) | (1 if j & mask else 0)
        rest = j
        for mask in reg_masks:
            rest &= ~mask
        for k in range(big_m):
            jk = rest
            for bit_i, mask in enumerate(reg_masks):
                if (k >> (m - 1 - bit_i)) & 1:
                    jk |= mask
            out[jk] += amps[j] * np.exp(sign * 2j * np.pi * k * x / big_m) / np.sqrt(big_m)
    return out


def test_init_state_is_delta():
    state = init_state(3)
    assert state.dim == 8
    expected = np.zeros(8)
    expected[0] = 1.0
    assert np.allclose(state.amplitudes, expected, atol=0)
    assert state.norm() == 1.0


def test_qubit_count_limits():
    with pytest.raises(ResourceLimitError):
        init_state(0)
    with pytest.raises(ResourceLimitError):
        init_state(MAX_QUBITS + 1)
    assert init_state(1).dim == 2


def test_amplitude_shape_checked():
    with pytest.raises(ShapeError):
        Statevector(2, np.zeros(3, dtype=np.complex128))


def test_single_qubit_matches_kron_oracle():
    for num_qubits in range(1, 6):
        for _ in range(4):
            pos = int(RNG.integers(num_qubits))
            u = random_unitary()
            state = random_state(num_qubits)
            expected = dense_single(num_qubits, pos, u) @ state.amplitudes
            apply_single_qubit(state, pos, u)
            assert np.abs(state.amplitudes - expected).max() < 1e-12


def test_hadamard_layer_uniform_from_zero():
    state = init_state(4)
    apply_hadamard_layer(state, range(4))
    assert np.abs(state.amplitudes - 0.25).max() < 1e-14


def test_hadamard_self_inverse():
    for _ in range(10):
        state = random_state(4)
        before = state.amplitudes.copy()
        apply_hadamard_layer(state, (0, 1, 2, 3))
        apply_hadamard_layer(state, (3, 2, 1, 0))
        assert np.abs(state.amplitudes - before).max() < 1e-12


def test_hadamard_layer_matches_kron_oracle():
    state = random_state(3)
    expected = state.amplitudes.copy()
    for pos in (0, 2):
        expected = dense_single(3, pos, H) @ expected
    apply_hadamard_layer(state, (0, 2))
    assert np.abs(state.amplitudes - expected).max() < 1e-12


def test_controlled_unitary_matches_dense_oracle():
    """Exhaustive sizes 1..6, random control patterns on each."""
    for num_qubits in range(1, 7):
        for _ in range(8):
            qubits = list(RNG.permutation(num_qubits))
            target = qubits[0]
            k = int(RNG.integers(0, num_qubits))
            controls = [(q, int(RNG.integers(2))) for q in qubits[1 : 1 + k]]
            u = random_unitary()
            state = random_state(num_qubits)
            expected = dense_controlled(num_qubits, controls, target, u) @ state.amplitudes
            apply_controlled_unitary(state, controls, target, u)
            assert np.abs(state.amplitudes - expected).max() < 1e-12


def test_anticontrol_acts_on_zero_branch():
    # |10>: control qubit 1 is set, so an anti-control (bit 0) must not fire
    state = Statevector(2, np.array([0, 0, 1, 0], dtype=np.complex128))
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    apply_controlled_unitary(state, [(1, 0)], 0, x)
    assert np.allclose(state.amplitudes, [0, 0, 1, 0], atol=0)
    apply_controlled_unitary(state, [(1, 1)], 0, x)
    assert np.allclose(state.amplitudes, [0, 0, 0, 1], atol=0)


def test_controlled_unitary_rejects_non_unitary():
    state = init_state(2)
    with pytest.raises(StateError):
        apply_controlled_unitary(state, [], 0, np.array([[1, 0], [0, 1.1]]))


def test_controlled_unitary_rejects_bad_positions():
    state = init_state(2)
    x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    with pytest.raises(ShapeError):
        apply_controlled_unitary(state, [(0, 1)], 0, x)  # target among controls
    with pytest.raises(ShapeError):
        apply_controlled_unitary(state, [(2, 1)], 0, x)  # out of range
    with pytest.raises(ShapeError):
        apply_controlled_unitary(state, [(1, 2)], 0, x)  # bad control bit


def test_uniformly_controlled_equals_controlled_gates():
    """us[x] fired on register value x, register and target anywhere in the state."""
    cases = [(3, [2, 1], 0), (4, [0, 3], 2), (5, [4, 1, 2], 3), (2, [], 1)]
    for num_qubits, register, target in cases:
        us = np.array([random_unitary() for _ in range(1 << len(register))])
        state = random_state(num_qubits)
        expected = state.amplitudes.copy()
        for x, u in enumerate(us):
            controls = [(p, (x >> (len(register) - 1 - k)) & 1) for k, p in enumerate(register)]
            expected = dense_controlled(num_qubits, controls, target, u) @ expected
        apply_uniformly_controlled(state, register, target, us)
        assert np.abs(state.amplitudes - expected).max() < 1e-12


def test_uniformly_controlled_rejects_bad_input():
    state = init_state(3)
    us = np.array([np.eye(2), H, H, np.eye(2)], dtype=np.complex128)
    with pytest.raises(ShapeError):
        apply_uniformly_controlled(state, [2, 1], 0, us[:3])  # one block short
    with pytest.raises(ShapeError):
        apply_uniformly_controlled(state, [2, 1], 0, us[:, :, :1])  # not 2x2
    with pytest.raises(ShapeError):
        apply_uniformly_controlled(state, [2, 1], 1, us)  # target in register
    with pytest.raises(ShapeError):
        apply_uniformly_controlled(state, [3, 1], 0, us)  # out of range
    bad = us.copy()
    bad[2] = [[1, 0], [0, 1.1]]
    with pytest.raises(StateError):
        apply_uniformly_controlled(state, [2, 1], 0, bad)


def test_gates_write_into_the_amplitude_buffer():
    """Every apply_* updates state.amplitudes in place; no call rebinds it."""
    gates = [
        lambda s: apply_hadamard_layer(s, [0, 2]),
        lambda s: apply_single_qubit(s, 1, random_unitary()),
        lambda s: apply_controlled_unitary(s, [(3, 1), (0, 0)], 2, random_unitary()),
        lambda s: apply_uniformly_controlled(
            s, [3, 1], 0, np.array([random_unitary() for _ in range(4)])
        ),
        lambda s: apply_qft(s, [3, 1, 2]),
        lambda s: apply_qft(s, [3, 2, 1, 0], inverse=True),
    ]
    for gate in gates:
        state = random_state(4)
        amps = state.amplitudes
        before = amps.copy()
        gate(state)
        assert state.amplitudes is amps
        assert not np.array_equal(amps, before)


def test_qft_delta_gives_uniform():
    for m in (1, 2, 3, 4):
        state = init_state(m)
        apply_qft(state, range(m - 1, -1, -1))
        assert np.abs(state.amplitudes - 1.0 / np.sqrt(1 << m)).max() < 1e-13


def test_qft_matches_explicit_sum():
    for m in (1, 2, 3, 4):
        state = random_state(m)
        expected = brute_qft(state.amplitudes.copy(), m, list(range(m - 1, -1, -1)))
        apply_qft(state, range(m - 1, -1, -1))
        assert np.abs(state.amplitudes - expected).max() < 1e-12


def test_qft_subregister_with_spectators():
    """Register scattered through a larger, entangled state."""
    cases = [(4, [3, 1]), (5, [4, 2, 0]), (4, [0, 2])]
    for num_qubits, register in cases:
        for inverse in (False, True):
            state = random_state(num_qubits)
            expected = brute_qft(state.amplitudes.copy(), num_qubits, register, inverse)
            apply_qft(state, register, inverse=inverse)
            assert np.abs(state.amplitudes - expected).max() < 1e-12


def test_qft_inverse_roundtrip():
    for _ in range(5):
        state = random_state(5)
        before = state.amplitudes.copy()
        apply_qft(state, (4, 3, 2))
        apply_qft(state, (4, 3, 2), inverse=True)
        assert np.abs(state.amplitudes - before).max() < 1e-12


def test_unitaries_preserve_norm():
    state = random_state(5)
    for _ in range(20):
        op = int(RNG.integers(3))
        if op == 0:
            apply_hadamard_layer(state, [int(RNG.integers(5))])
        elif op == 1:
            qs = RNG.permutation(5)
            apply_controlled_unitary(
                state, [(int(qs[1]), int(RNG.integers(2)))], int(qs[0]), random_unitary()
            )
        else:
            apply_qft(state, (3, 1), inverse=bool(RNG.integers(2)))
        assert abs(state.norm() - 1.0) < 1e-12


def test_inner_product():
    a = random_state(3)
    b = random_state(3)
    ab = inner_product(a, b)
    ba = inner_product(b, a)
    assert abs(ab - np.conj(ba)) < 1e-14
    assert abs(inner_product(a, a) - 1.0) < 1e-12
    with pytest.raises(ShapeError):
        inner_product(a, random_state(2))


def test_layout_standard():
    layout = QubitLayout.standard(3, num_ancillae=2)
    assert layout.index_register == (4, 3, 2)
    assert layout.ancillae == (1, 0)
    assert layout.num_qubits == 5
    # x = 5 = 101b: register MSB (bit 4) set, middle clear, LSB (bit 2) set
    assert sorted(controls_for_index(layout, 5)) == [(2, 1), (3, 0), (4, 1)]


def test_layout_rejects_overlap():
    with pytest.raises(ShapeError):
        QubitLayout((2, 1), (1, 0))
    with pytest.raises(ShapeError):
        QubitLayout((), (0,))

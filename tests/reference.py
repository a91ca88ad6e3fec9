"""Gate-by-gate statevector helpers that tests use as references.

The package applies a different 2x2 block for every register value in one
pass (`apply_uniformly_controlled`), and runs each circuit on many chunks at
once (`product_blocks`, `convolve_blocks`). These helpers apply one gate at a
time to one chunk's state, the textbook form those passes are checked
against, and live here because no production path calls them. So do
per_channel_wav_bytes, the one-WAV-at-a-time form of the block writer, and
two earlier forms of package functions that tests hold the new ones to:
csv_table_by_zip and full_scale_checked.
"""

import io
from itertools import chain

import numpy as np

from qwave import (
    EPSILON,
    AudioBuffer,
    NormalizationError,
    ProductState,
    QubitLayout,
    ShapeError,
    SignalChunk,
    Statevector,
    apply_hadamard_layer,
    apply_qft,
    encode_function,
    init_state,
    write_wav,
    zero_pad,
)
from qwave.pipelines import _pad_array
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


def product_state_by_gates(f: SignalChunk, g: SignalChunk) -> ProductState:
    """Encode f on ancilla t_f and g on t_g over a uniform index register."""
    if len(f) != len(g):
        raise ShapeError(f"signals differ in length: {len(f)} vs {len(g)}")
    n = f.n
    layout = QubitLayout.standard(n, num_ancillae=2)
    state = init_state(n + 2)
    apply_hadamard_layer(state, layout.index_register)
    t_f, t_g = layout.ancillae
    encode_function(state, layout, f, t_f)
    encode_function(state, layout, g, t_g)
    return ProductState(state, layout)


def convolve_by_gates(f: SignalChunk, g_kernel, pad_to: int) -> np.ndarray:
    """Circular convolution with f kept in superposition, one chunk's state at a time."""
    fpad = zero_pad(f, pad_to)
    m = fpad.n
    big_m = pad_to
    layout = QubitLayout.standard(m, num_ancillae=1)

    # stage 1: |f> on the register, encoding ancilla spent and dropped
    prep = init_state(m + 1)
    apply_hadamard_layer(prep, layout.index_register)
    encode_function(prep, layout, fpad, layout.ancillae[0])
    f_slice = prep.amplitudes[0::2].copy()  # ancilla 0, amplitude f(x)/sqrt(M)

    # stage 2: same shape of state, ancilla now holds the kernel
    state = Statevector(m + 1, np.zeros(2 * big_m, dtype=np.complex128))
    state.amplitudes[0::2] = f_slice
    apply_qft(state, layout.index_register)

    ghat = SignalChunk.full_scale(np.fft.fft(_pad_array(g_kernel, big_m)))
    encode_function(state, layout, ghat, layout.ancillae[0])

    kept = state.amplitudes[0::2].copy()
    register_state = Statevector(m, kept)
    apply_qft(register_state, range(m - 1, -1, -1), inverse=True)
    return register_state.amplitudes * np.sqrt(big_m) / ghat.scale


def per_channel_wav_bytes(values, rate, shift_scale=False) -> bytes:
    """One channel's WAV bytes as write_wav writes it, after multiply's 2v - 1 when shift_scale."""
    values = np.asarray(values, dtype=np.float64)
    if shift_scale:
        values = 2.0 * values - 1.0
    out = io.BytesIO()
    write_wav(out, AudioBuffer(np.clip(values, -1.0, 1.0), rate))
    return out.getvalue()


def csv_table_by_zip(table, columns) -> str:
    """qwave.audio.csv_table as it was, its % arguments gathered row by row by zip and chain."""
    header, fields = table
    num_rows = len(columns[0])
    template, varying = [], []
    for field, column in zip(fields, columns):
        if isinstance(column, np.ndarray):
            bits = column.view(np.int64)
            column = column[0].item() if num_rows and (bits == bits[0]).all() else column.tolist()
        elif isinstance(column, list) and None in column:
            column = ["" if value is None else field % (value,) for value in column]
            field = "%s"
        if isinstance(column, (list, range)):
            template.append(field)
            varying.append(column)
        else:
            template.append((field % (column,)).replace("%", "%%"))
    row = ",".join(template) + "\n"
    return header + "\n" + (row * num_rows) % tuple(chain.from_iterable(zip(*varying)))


def full_scale_checked(raw) -> SignalChunk:
    """SignalChunk.full_scale as it was: the scaled chunk built through SignalChunk's own
    bound check, which takes |values| a second time."""
    raw = np.asarray(raw, dtype=np.complex128)
    peak = float(np.abs(raw).max()) if raw.size else 0.0
    if peak == 0.0:
        return SignalChunk(raw)
    factor = (1.0 - EPSILON) / peak
    if not (np.isfinite(peak) and np.isfinite(factor)):
        raise NormalizationError(
            f"cannot rescale a peak |value| of {peak} to the {1.0 - EPSILON} bound")
    return SignalChunk(raw * factor, factor)

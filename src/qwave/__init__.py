"""Amplitude-encoded signal processing on a dense statevector simulator.

Signals live in qubit amplitudes: a complex value f(x) with |f(x)| < 1 is
written onto an ancilla qubit controlled on the index register, so the
ancilla-0 branch carries f and the ancilla-1 branch its complement
sqrt(1-|f|^2). Two ancillae give all four products {f,f~}x{g,g~} at once;
Fourier-transforming the register turns the same product circuit into a
circular convolution. Components are read out either exactly from the state
or from measurement counts, and a chunked audio pipeline applies the whole
thing to WAV files.
"""

__version__ = "0.1.0"

from .audio import (
    METRICS_CSV_HEADER,
    AudioBuffer,
    ChunkPlan,
    MetricsReport,
    NormalizationRecord,
    QuadOutput,
    load_wav,
    make_chunks,
    normalize_for_encoding,
    process_chunks,
    write_wav,
)
from .encoding import (
    EPSILON,
    SignalChunk,
    build_rho,
    encode_function,
    encoder_column,
)
from .errors import (
    DomainError,
    FormatError,
    NormalizationError,
    QwaveError,
    ResourceLimitError,
    ShapeError,
    StateError,
)
from .pipelines import (
    COMPONENTS,
    ProductState,
    classical_circular_convolution,
    classical_dft,
    convolve_blocks,
    convolve_optimized,
    convolve_via_theorem,
    extract_component,
    kernel_spectrum,
    pointwise_multiply_state,
    postselect_probability,
    product_blocks,
    zero_pad,
)
from .sampling import (
    STANDARD_TEST_PAIR,
    ShotCounts,
    decode_component,
    fidelity_percent,
    make_rng,
    rmsd_percent,
    sample_counts,
)
from .selftest import run_selftest
from .statevector import (
    MAX_QUBITS,
    QubitLayout,
    Statevector,
    apply_hadamard_layer,
    apply_qft,
    apply_uniformly_controlled,
    init_state,
)

__all__ = [
    "__version__",
    "METRICS_CSV_HEADER", "AudioBuffer", "ChunkPlan", "MetricsReport",
    "NormalizationRecord", "QuadOutput",
    "load_wav", "make_chunks", "normalize_for_encoding", "process_chunks",
    "write_wav",
    "EPSILON", "SignalChunk", "build_rho", "encode_function",
    "encoder_column",
    "DomainError", "FormatError", "NormalizationError", "QwaveError",
    "ResourceLimitError", "ShapeError", "StateError",
    "COMPONENTS", "ProductState", "classical_circular_convolution",
    "classical_dft", "convolve_blocks", "convolve_optimized",
    "convolve_via_theorem", "extract_component", "pointwise_multiply_state",
    "kernel_spectrum", "postselect_probability", "product_blocks", "zero_pad",
    "STANDARD_TEST_PAIR", "ShotCounts",
    "decode_component", "fidelity_percent", "make_rng", "rmsd_percent",
    "sample_counts",
    "run_selftest",
    "MAX_QUBITS", "QubitLayout", "Statevector", "apply_hadamard_layer",
    "apply_qft", "apply_uniformly_controlled", "init_state",
]

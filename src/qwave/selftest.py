"""Built-in consistency checks exposed through the CLI.

Each check compares a quantum-pipeline result against an independently
computed classical reference and returns (name, passed, detail).
"""

from __future__ import annotations

import numpy as np

from . import pipelines
from .encoding import SignalChunk
from .sampling import make_rng
from .statevector import Statevector, apply_qft


def _check_qft_matches_dft(rng) -> tuple[str, bool, str]:
    values = rng.normal(size=8) + 1j * rng.normal(size=8)
    values /= np.linalg.norm(values)
    state = Statevector(3, values.copy())
    apply_qft(state, (2, 1, 0))
    reference = pipelines.classical_dft(values) / np.sqrt(8.0)
    err = float(np.abs(state.amplitudes - reference).max())
    return "qft-vs-dft", err < 1e-12, f"max abs err {err:.3e}"


def _check_product_state(rng) -> tuple[str, bool, str]:
    f = SignalChunk.from_values(rng.uniform(0.1, 0.95, size=8))
    g = SignalChunk.from_values(rng.uniform(0.1, 0.95, size=8))
    product = pipelines.pointwise_multiply_state(f, g)
    got = pipelines.extract_component(product, (0, 0))
    err = float(np.abs(got - f.values * g.values).max())
    prob = pipelines.postselect_probability(product, (0, 0))
    expected_prob = float(np.mean(np.abs(f.values * g.values) ** 2))
    prob_err = abs(prob - expected_prob)
    ok = err < 1e-12 and prob_err < 1e-12
    return "product-vs-formula", ok, f"max abs err {err:.3e}, prob err {prob_err:.3e}"


def _check_convolution(rng) -> tuple[str, bool, str]:
    f = SignalChunk.from_values(rng.uniform(0.1, 0.9, size=4))
    g = SignalChunk.from_values(rng.uniform(0.1, 0.9, size=4))
    pad = 8
    reference = pipelines.classical_circular_convolution(
        pipelines.zero_pad(f, pad).values, pipelines.zero_pad(g, pad).values
    )
    worst = 0.0
    for result in (
        pipelines.convolve_via_theorem(f, g, pad),
        pipelines.convolve_optimized(f, g.values, pad),
    ):
        rel = float(np.linalg.norm(result - reference) / np.linalg.norm(reference))
        worst = max(worst, rel)
    return "convolution-vs-classical", worst < 1e-9, f"worst rel l2 err {worst:.3e}"


def run_selftest() -> list[tuple[str, bool, str]]:
    """Run all checks with a fixed seed; returns (name, passed, detail) rows."""
    rng = make_rng(20240917)
    return [_check_qft_matches_dft(rng), _check_product_state(rng), _check_convolution(rng)]

"""The package's public surface."""

import pytest

import qwave
from qwave import encoding, statevector


def test_all_names_resolve_without_duplicates():
    assert len(qwave.__all__) == len(set(qwave.__all__))
    missing = [name for name in qwave.__all__ if not hasattr(qwave, name)]
    assert missing == []


@pytest.mark.parametrize("name", ["build_mu", "build_phi", "apply_controlled_unitary",
                                  "apply_single_qubit", "inner_product"])
def test_reference_only_helpers_are_not_in_the_package(name):
    assert name not in qwave.__all__
    for module in (qwave, encoding, statevector):
        assert not hasattr(module, name)


def test_layout_has_no_per_index_control_helper():
    assert not hasattr(qwave.QubitLayout, "controls_for_index")

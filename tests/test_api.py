"""The package's public surface."""

import ast
import os
import subprocess
import sys

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


@pytest.fixture(scope="module")
def cli_import_modules():
    """Modules that a fresh `import qwave.cli`, which every CLI run pays, loads
    from scipy, multiprocessing or concurrent; one interpreter serves all three
    checks below."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qwave.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, qwave.cli; print('\\n'.join(m for m in sys.modules "
            "if m.startswith(('scipy', 'multiprocessing', 'concurrent'))))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.split()


def test_cli_import_loads_no_scipy(cli_import_modules):
    # scipy is a test dependency only
    assert [m for m in cli_import_modules if m.startswith("scipy")] == []


def test_cli_import_loads_no_multiprocessing(cli_import_modules):
    # shots are drawn on threads, not on a process pool
    assert [m for m in cli_import_modules if m.startswith("multiprocessing")] == []


def test_cli_import_loads_no_thread_pool(cli_import_modules):
    # concurrent.futures (and the logging it imports) costs about 9 ms of each
    # CLI start; process_chunks imports it only when it starts threads
    assert [m for m in cli_import_modules if m.startswith("concurrent")] == []


def _writing_opens(tree):
    """(enclosing function, call text) of each open that can write: os.open with any flags
    but os.O_RDONLY alone, or an open(...) / x.open(...) whose mode is not a literal free
    of w, a, x and +."""
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = ast.unparse(node.func)
            if callee == "os.open":
                flags = node.args[1] if len(node.args) > 1 else None
                if flags is None or ast.unparse(flags) != "os.O_RDONLY":
                    yield func.name, callee
                continue
            if callee != "open" and not callee.endswith(".open"):
                continue
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"]
            mode = node.args[1] if len(node.args) > 1 else (modes[0] if modes else None)
            if mode is None:
                continue
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)) or (
                    set(mode.value) & set("wax+")):
                yield func.name, ast.unparse(node)


def test_every_output_goes_through_write_file():
    """The package opens a file for writing in one place: qwave.audio.write_file's os.open."""
    package = os.path.dirname(os.path.abspath(qwave.__file__))
    writers = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            writers += [(name, *found) for found in _writing_opens(tree)]
    assert writers == [("audio.py", "write_file", "os.open")]

"""The benchmark's workloads and tools/output_digest.py, run on this tree's package.

perfbench/ is imported as it is, never edited: a workload argv that the CLI
refuses, or an output that misses its numpy reference, fails here as well
as in a benchmark run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qwave
from qwave.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.bench_workloads import WORKLOADS, check_outputs, make_inputs  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_runs_and_matches_its_reference(tmp_path, name):
    workload = WORKLOADS[name]
    paths, signals = make_inputs(workload, 1, str(tmp_path))
    out = str(tmp_path / "out")
    assert main(workload.argv(paths, out)) == 0
    problems, out_err_lsb, _ = check_outputs(workload, signals, out)
    assert problems == []
    assert out_err_lsb <= 1


def test_output_digest_rewrite_check_passes(tmp_path):
    src = str(Path(qwave.__file__).parents[1])
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "output_digest.py")],
                         capture_output=True, text=True, cwd=tmp_path, timeout=300,
                         env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0, run.stderr
    assert "rewrite check passed" in run.stderr
    assert "pooled check passed" in run.stderr

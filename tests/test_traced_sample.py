"""One traced benchmark sample per workload, end to end.

perfbench/tracer.py wraps package functions by name and reads counts from
their arguments and from cached factors. A traced sample (perfbench/sample.py
in trace mode) of each workload's tiny variant must exit 0 and count what
the construction does: meshes, constructions, projections, assemblies, and
the fill of both LU factors.
"""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import sinhpierce

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SRC = pathlib.Path(sinhpierce.__file__).resolve().parents[1]

# workload -> build_mesh, construct and assemble calls, projections, and
# whether field evaluation takes points
EXPECTED = {
    "verify-disk": (3, 3, 3, 3, True),
    "construct-fine": (1, 1, 1, 2, False),
    "sweep-square": (3, 3, 4, 6, True),
}


@pytest.fixture(scope="module")
def make_config():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))   # run.py puts perfbench on the path
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module.make_config


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_sample_counts(tmp_path, make_config, workload):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(make_config(workload, 1, tiny=True).replace(
        "out = artifacts", f"out = {tmp_path / 'artifacts'}"))
    result = tmp_path / "result.json"
    argv = [sys.executable, str(PERFBENCH / "sample.py"), str(cfg), str(result), "trace",
            repr(time.clock_gettime(time.CLOCK_MONOTONIC))]
    proc = subprocess.run(argv, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          stdin=subprocess.DEVNULL, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    layers = json.loads(result.read_text())["layers"]
    meshes, constructs, assembles, projections, evaluates = EXPECTED[workload]
    assert layers["geometry.build_mesh.calls"] == meshes
    assert layers["corrector.construct.calls"] == constructs
    assert layers["operators.assemble.calls"] == assembles
    assert layers["bubbles.project_numeric.calls"] == projections
    assert layers["operators.poisson_lu_nnz"] > 0
    assert layers["operators.linear_lu_nnz"] > 0
    assert (layers["geometry.field_eval.points"] > 0) == evaluates

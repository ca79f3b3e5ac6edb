"""One traced benchmark sample per workload, end to end.

perfbench/tracer.py wraps package functions by name and reads counts from
their arguments and from cached factors. A traced sample (perfbench/sample.py
in trace mode) of each workload's tiny variant must exit 0 and count what
the construction does: meshes, constructions, projections, assemblies, and
the fill of both LU factors. Its artifacts must hash (perfbench/run.py's
tree_digest, seed 1) to the pinned digests, so any change to their bytes
shows in the tests.
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

DIGESTS = {
    "verify-disk": "a84ae2e1fdc978b6a2ffc7ed41b93fa3224721736bb34011fef13af6a1713b7e",
    "construct-fine": "86b779d3b8dadc31da3677c2c57566309af922836bffe256c5b9566517dda9fa",
    "sweep-square": "9b345b070548d1ffd75dd3e575b6a3a63a6c11464707853e87f0447f5a902c33",
}


@pytest.fixture(scope="module")
def bench():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "path", list(sys.path))   # run.py puts perfbench on the path
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_sample_counts(tmp_path, bench, workload):
    cfg = tmp_path / "bench.cfg"
    cfg.write_text(bench.make_config(workload, 1, tiny=True).replace(
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
    assert bench.tree_digest(tmp_path / "artifacts")[0] == DIGESTS[workload]

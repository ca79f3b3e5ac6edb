"""Smoke test of the benchmark itself, on coarse-mesh versions of the workloads.

    python3 perfbench/smoke.py

For every workload it runs perfbench/run.py once untraced and twice traced,
with --tiny and --seconds 1, and asserts that:
  - every metric BENCHMARK.json names is emitted, with its unit;
  - each layer shows work on the workload said to exercise it, and none on
    the workloads said to bypass it (a wrapper that missed an import-site
    binding reads zero here);
  - exact counts repeat across the two traced runs, and the mesh build counts
    are the ones the workload definitions imply;
  - traced and untraced runs give the same artifact digest;
  - in a directory holding only BENCHMARK.json and perfbench/, the benchmark
    exits nonzero without printing a result.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# per workload: layer metrics that must be nonzero (it exercises the layer) ...
EXERCISED = {
    "verify-disk": [
        "runconfig.parse_s", "geometry.build_mesh.calls", "geometry.field_eval.points",
        "coeffs.calls", "bubbles.project_numeric.calls", "operators.poisson_solve.calls",
        "operators.linear_solve.calls", "corrector.iterations", "corrector.warm_start.s",
        "verify.check_expansion.s", "verify.check_residual_scaling.s",
        "verify.check_operator_bound.s", "verify.check_kernel_annihilation.s",
        "verify.check_integral_identities.s", "cli.io.s", "cli.artifact_bytes"],
    "construct-fine": [
        "geometry.build_mesh.calls", "geometry.mesh_nodes", "coeffs.calls",
        "bubbles.project_numeric.calls", "operators.assemble.calls",
        "operators.poisson_solve.calls", "operators.linear_solve.calls",
        "operators.poisson_lu_nnz", "operators.linear_lu_nnz", "corrector.iterations",
        "corrector.construct.calls", "cli.io.s", "cli.artifact_bytes"],
    "sweep-square": [
        "runconfig.parse_s", "geometry.build_domain_mesh.s", "geometry.field_eval.points",
        "geometry.field_eval_init.s", "greens.robin_H_many.points", "greens.green.calls",
        "coeffs.calls", "bubbles.project_numeric.calls", "corrector.iterations",
        "corrector.warm_start.s", "cli.artifact_bytes"],
}
# ... layer metrics that must be zero (the workload bypasses the layer) ...
BYPASSED = {
    "verify-disk": ["geometry.build_domain_mesh.s"],
    "construct-fine": ["geometry.build_domain_mesh.s", "geometry.field_eval.points",
                       "corrector.warm_start.s", "verify.check_expansion.s",
                       "verify.check_operator_bound.s"],
    "sweep-square": ["verify.check_expansion.s", "verify.check_residual_scaling.s",
                     "verify.check_operator_bound.s", "verify.check_kernel_annihilation.s",
                     "verify.check_integral_identities.s"],
}
# ... and exact counts: 3 rho x (expansion, scaling, bound, warm start, construct)
# minus the first warm start on verify; 3 constructs + 2 warm starts on a sweep.
EXACT = {
    "verify-disk": {"geometry.build_mesh.calls": 14, "corrector.construct.calls": 3},
    "construct-fine": {"geometry.build_mesh.calls": 1, "corrector.construct.calls": 1},
    "sweep-square": {"geometry.build_mesh.calls": 5, "corrector.construct.calls": 3},
}


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, stdin=subprocess.DEVNULL, timeout=180)
    return proc


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"benchmark failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(result, spec, label):
    emitted = result["metrics"]
    assert set(emitted) == {m["name"] for m in spec}, f"{label}: metric names differ"
    for m in spec:
        assert emitted[m["name"]]["unit"] == m["unit"], f"{label}: unit of {m['name']}"
    assert result["correct"] and result["failed"] == 0, f"{label}: {result}"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(EXERCISED)
    for workload in EXERCISED:
        detail0, plain = result_of(bench(workload, 0))
        check_metrics(plain, spec["end_to_end"], f"{workload} untraced")
        layers = []
        for _ in range(2):
            detail, traced = result_of(bench(workload, 1))
            check_metrics(traced, spec["per_layer"], f"{workload} traced")
            assert detail["artifact_digest"] == detail0["artifact_digest"], \
                f"{workload}: traced artifacts differ from untraced ones"
            layers.append({k: v["value"] for k, v in traced["metrics"].items()})
        for name in EXERCISED[workload]:
            assert layers[0][name] > 0, f"{workload}: {name} is zero"
        for name in BYPASSED[workload]:
            assert layers[0][name] == 0, f"{workload}: {name} is {layers[0][name]}"
        for name, want in EXACT[workload].items():
            assert layers[0][name] == want, f"{workload}: {name} = {layers[0][name]} != {want}"
        counts = [m["name"] for m in spec["per_layer"] if m["unit"] != "s"]
        for name in counts:
            assert layers[0][name] == layers[1][name], \
                f"{workload}: {name} {layers[0][name]} then {layers[1][name]}"
        print(f"ok {workload}: {len(plain['metrics'])} end-to-end, "
              f"{len(traced['metrics'])} per-layer metrics, digest "
              f"{detail0['artifact_digest'][:12]}")

    bare = os.path.join(HERE, ".out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench("verify-disk", 0, cwd=bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), \
        f"benchmark without sources: exit {proc.returncode}, output {proc.stdout!r}"
    shutil.rmtree(bare)
    print("ok bare directory: refused without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())

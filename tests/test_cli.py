import csv
import dataclasses
import filecmp
import math
import os

import numpy as np
import pytest

import sinhpierce.geometry as geometry_mod
from sinhpierce.cli import main, write_field_csv
from sinhpierce.errors import ConstraintViolation, NonpositiveSampled, SchemaError
from sinhpierce.geometry import (
    DomainSpec,
    MeshPolicy,
    PierceSpec,
    build_mesh,
    build_pierced_domain,
    distance_to_boundary,
)
from sinhpierce.operators import Field
from sinhpierce.runconfig import domain_sample_points, parse_config

# values whose '%.17g' text is easy to get wrong, then a spread of magnitudes
AWKWARD = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-320,
                           1.7976931348623157e308, 0.1, 1 / 3],
                          np.logspace(-12, 2, 57), -np.geomspace(1e2, 1e-12, 43)])

BASE = """
[problem]
domain = unit-disk
centers = 0.0 0.0
alphas = 3.0
m1 = 1
tau = 1.0
v1 = 1
v2 = 1

[mesh]
h = 0.05
q = 1.3

[run]
command = construct
rho = 1e-2
p = 1.01
tol = 1e-10
maxiter = 50
seed = 0
out = {out}
"""


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_roundtrip(tmp_path):
    rc = parse_config(BASE.format(out=tmp_path))
    assert rc.command == "construct"
    assert rc.problem.m == 1
    assert rc.rho_list == [1e-2]
    assert rc.policy.h == 0.05


def test_even_alpha_rejected(tmp_path):
    with pytest.raises(ConstraintViolation) as exc:
        parse_config(BASE.format(out=tmp_path).replace("alphas = 3.0", "alphas = 4.0"))
    assert "even integer" in str(exc.value)


def test_negative_tau_rejected(tmp_path):
    with pytest.raises(ConstraintViolation):
        parse_config(BASE.format(out=tmp_path).replace("tau = 1.0", "tau = -1"))


def test_m1_out_of_range_rejected(tmp_path):
    with pytest.raises(ConstraintViolation):
        parse_config(BASE.format(out=tmp_path).replace("m1 = 1", "m1 = 3"))


def test_empty_config_schema_error():
    with pytest.raises(SchemaError) as exc:
        parse_config("")
    assert len(exc.value.problems) >= 2  # both sections reported together


def test_schema_errors_aggregate():
    bad = """
[problem]
centers = 0.0
alphas = zz
m1 = 1

[run]
command = bogus
"""
    with pytest.raises(SchemaError) as exc:
        parse_config(bad)
    assert len(exc.value.problems) >= 3


def test_sign_changing_potential_rejected(tmp_path):
    with pytest.raises(NonpositiveSampled):
        parse_config(BASE.format(out=tmp_path).replace("v1 = 1", "v1 = x"))


def test_liouville_mode_accepted(tmp_path):
    # m1 = 0 with nu = 0 kills the first nonlinearity: pure one-signed case
    text = BASE.format(out=tmp_path).replace("m1 = 1", "m1 = 0") \
        .replace("v2 = 1", "v2 = 1\nnu = 1.0")
    rc = parse_config(text)
    assert rc.problem.m1 == 0


def test_nu_scales_v2(tmp_path):
    text = BASE.format(out=tmp_path).replace("v2 = 1", "v2 = 1\nnu = 2.5")
    rc = parse_config(text)
    assert rc.problem.V2(0.1, 0.2) == pytest.approx(2.5)


def test_construct_and_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path, BASE.format(out=out))
    code = main(["construct", "--config", cfg, "--out", str(out)])
    assert code == 0
    for name in ("report.txt", "solution.csv", "correction.csv", "manifest.txt",
                 "mesh.txt", "coeffs_beta.csv"):
        assert (out / name).exists()
    manifest = (out / "manifest.txt").read_text()
    assert "solution.csv" in manifest and "claim" in manifest


def test_exit_code_validation(tmp_path):
    cfg = _write(tmp_path, BASE.format(out=tmp_path).replace("alphas = 3.0",
                                                             "alphas = 4.0"))
    assert main(["construct", "--config", cfg]) == 1
    assert main(["construct", "--config", str(tmp_path / "nope.cfg")]) == 1


def test_sweep_smoke_and_byte_identical(tmp_path):
    text = BASE.format(out=tmp_path).replace("rho = 1e-2", "rho = 1e-2 1e-3") \
        .replace("command = construct", "command = sweep")
    cfg = _write(tmp_path, text)
    # verify falls back to three rho values when given fewer
    for command in ("sweep", "verify"):
        out1, out2 = tmp_path / f"{command}-a", tmp_path / f"{command}-b"
        assert main([command, "--config", cfg, "--out", str(out1)]) == 0
        assert main([command, "--config", cfg, "--out", str(out2)]) == 0
        assert sorted(os.listdir(out1)) == sorted(os.listdir(out2))
        for name in sorted(os.listdir(out1)):
            assert filecmp.cmp(out1 / name, out2 / name, shallow=False), (command, name)
    # two rho values cannot support a slope fit
    assert "insufficient-data" in (tmp_path / "sweep-a" / "sweep_slopes.txt").read_text()


def test_one_mesh_per_rho_per_command(tmp_path, monkeypatch):
    # the checks, the warm start and the solver all share one prepared stage per
    # rho: one mesh, and one projection per bubble on it; the rho-independent
    # background (one hex lattice each) is built once per command; each mesh
    # has exactly two matrices factored, once each: K_II, although prepare
    # releases its factor, and Lap + W, shared by the fixed point and verify's
    # solver-bound check
    import sys

    import scipy.sparse.linalg as spla

    import sinhpierce.bubbles as bubbles_mod
    import sinhpierce.corrector as corrector_mod
    import sinhpierce.operators as operators_mod

    real = corrector_mod.build_mesh
    calls = []
    projections = []
    lattices = []
    real_lattice = geometry_mod._hex_lattice

    def counting_lattice(*args):
        lattices.append(args)
        return real_lattice(*args)

    monkeypatch.setattr(geometry_mod, "_hex_lattice", counting_lattice)

    def counting(pd, policy):
        calls.append(pd)
        return real(pd, policy)

    real_project = bubbles_mod.project_numeric

    def counting_project(*args, **kwargs):
        projections.append(args[0])
        return real_project(*args, **kwargs)

    real_splu = spla.splu
    factored = []   # (matrix, is some mesh's K_II), matrices kept alive
    owners = []     # the mesh whose K_II each factored matrix is, or None

    def counting_splu(A, *args, **kwargs):
        owner = next((ops.mesh for ops in list(operators_mod._ops_cache.values())
                      if A is ops._K_II), None)
        factored.append((A, owner is not None))
        owners.append(owner)
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(corrector_mod, "build_mesh", counting)
    monkeypatch.setattr(spla, "splu", counting_splu)
    for name, mod in list(sys.modules.items()):
        if not name.startswith("sinhpierce"):
            continue
        if getattr(mod, "project_numeric", None) is real_project:
            monkeypatch.setattr(mod, "project_numeric", counting_project)
        if getattr(mod, "splu", None) is real_splu:
            monkeypatch.setattr(mod, "splu", counting_splu)
    text = BASE.format(out=tmp_path).replace("rho = 1e-2", "rho = 1e-2 1e-3 1e-4")
    cfg = _write(tmp_path, text)
    # two bubbles: two projections, so two Poisson solves, per mesh
    pair_text = text.replace("centers = 0.0 0.0", "centers = -0.4 0.0; 0.4 0.0") \
        .replace("alphas = 3.0", "alphas = 3.0 3.0")
    pair = _write(tmp_path, pair_text, "pair.cfg")
    for command, path, meshes, bubbles in (("construct", cfg, 1, 1), ("sweep", cfg, 3, 1),
                                           ("verify", cfg, 3, 1), ("sweep", pair, 3, 2)):
        calls.clear()
        projections.clear()
        lattices.clear()
        factored.clear()
        owners.clear()
        monkeypatch.setattr(geometry_mod, "_last_background", None, raising=False)
        assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 0
        assert len(calls) == meshes, command
        assert len(projections) == meshes * bubbles, command
        assert len(lattices) == 1, command
        assert sum(poisson for _, poisson in factored) == meshes, command
        assert len(factored) == 2 * meshes, command
        assert len({id(A) for A, _ in factored}) == len(factored), command

    # on a boundary curve the numeric Green function factors its own domain
    # mesh, once per command: every H(., xi_k) it serves is solved before the
    # first stage is done, and nothing after that asks for a new one
    square = _write(tmp_path, pair_text.replace(
        "domain = unit-disk",
        "domain = boundary-curve\nboundary = -0.9 -0.9; 0.9 -0.9; 0.9 0.9; -0.9 0.9"),
        "square.cfg")
    for command in ("sweep", "verify"):
        calls.clear()
        factored.clear()
        owners.clear()
        monkeypatch.setattr(geometry_mod, "_last_background", None, raising=False)
        out = tmp_path / f"square-{command}"
        assert main([command, "--config", square, "--out", str(out)]) == 0, command
        assert len(calls) == 3, command
        # one K_II per mesh: the domain mesh's (no holes) and each pierced one
        domain = [mesh for mesh in owners if mesh is not None and mesh.pd is None]
        pierced = [mesh for mesh in owners if mesh is not None and mesh.pd is not None]
        assert len(domain) == 1, command
        assert len(pierced) == 3 and len({id(mesh) for mesh in pierced}) == 3, command
        # and one Lap + W per pierced mesh
        assert owners.count(None) == 3, command
        assert len({id(A) for A, _ in factored}) == len(factored), command


def test_verify_bound_check_failure_aborts(tmp_path, monkeypatch):
    # the solver-bound check runs inside the sweep, after each correction; its
    # failure ends verify with the solver exit code, not as a failed sweep entry
    import sinhpierce.verify as verify_mod
    from sinhpierce.errors import SolverFailure

    real = verify_mod.check_operator_bound
    checked = []

    def failing_at_1e_3(run, rho_list, **kw):
        checked.extend(rho_list)
        if 1e-3 in rho_list:
            raise SolverFailure("synthetic bound-check failure", residual=1.0)
        return real(run, rho_list, **kw)

    monkeypatch.setattr(verify_mod, "check_operator_bound", failing_at_1e_3)
    out = tmp_path / "verify"
    cfg = _write(tmp_path, BASE.format(out=out).replace("rho = 1e-2", "rho = 1e-2 1e-3 1e-4"))
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert checked == [1e-2, 1e-3]
    assert not (out / "verify_sweep.csv").exists()
    assert "synthetic bound-check failure" in (out / "manifest.txt").read_text()


_QUADRATURE_PROBE = """
import json, sys
import sinhpierce.cli as cli

QUAD = ("scipy.integrate", "scipy.optimize")
loaded = {"import": [m for m in QUAD if m in sys.modules]}
for command, cfg in json.loads(sys.argv[1]):
    code = cli.main([command, "--config", cfg, "--out", cfg + "-" + command])
    loaded[f"{command} {cfg}"] = [code] + [m for m in QUAD if m in sys.modules]
print(json.dumps(loaded))
"""


def test_only_verify_loads_quadrature(tmp_path):
    # scipy.integrate (and scipy.optimize beneath it) serve verify's radial
    # integrals alone: importing the CLI, construct, sweep and green-check on
    # the disk and on a boundary curve load neither, verify loads both
    import json
    import subprocess
    import sys

    import sinhpierce

    text = BASE.format(out=tmp_path).replace("h = 0.05", "h = 0.1") \
        .replace("rho = 1e-2", "rho = 1e-2 1e-3 1e-4")
    disk = _write(tmp_path, text, "disk.cfg")
    square = _write(tmp_path, text.replace(
        "domain = unit-disk",
        "domain = boundary-curve\nboundary = -0.9 -0.9; 0.9 -0.9; 0.9 0.9; -0.9 0.9"),
        "square.cfg")
    runs = [(command, cfg) for cfg in (disk, square)
            for command in ("construct", "sweep", "green-check")] + [("verify", disk)]
    src = os.path.dirname(os.path.dirname(os.path.abspath(sinhpierce.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _QUADRATURE_PROBE, json.dumps(runs)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert loaded.pop("import") == []
    verify_run = loaded.pop(f"verify {disk}")
    for run, (code, *modules) in loaded.items():
        assert code == 0, run
        assert modules == [], run
    assert verify_run[1:] == ["scipy.integrate", "scipy.optimize"]


def test_quadrature_failure_ends_verify_before_any_mesh(tmp_path, monkeypatch):
    # the integral identities run before Run starts the background mesh
    import scipy.integrate

    import sinhpierce.corrector as corrector_mod

    started = []

    def failing_quad(*args, **kwargs):
        raise ValueError("synthetic quadrature failure")

    monkeypatch.setattr(scipy.integrate, "quad", failing_quad)
    monkeypatch.setattr(corrector_mod, "prefetch_background", lambda *a: started.append(a))
    monkeypatch.setattr(corrector_mod, "build_mesh", lambda *a: started.append(a))
    out = tmp_path / "verify"
    cfg = _write(tmp_path, BASE.format(out=out).replace("rho = 1e-2", "rho = 1e-2 1e-3 1e-4"))
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert started == []
    assert not (out / "checks.csv").exists()
    assert "synthetic quadrature failure" in (out / "manifest.txt").read_text()


def test_short_boundary_curve_schema_error(tmp_path):
    # two points, and two points closed by a repeat of the first
    for curve in ("-0.9 -0.9; 0.9 -0.9", "-0.9 -0.9; 0.9 -0.9; -0.9 -0.9"):
        text = BASE.format(out=tmp_path).replace(
            "domain = unit-disk", f"domain = boundary-curve\nboundary = {curve}")
        with pytest.raises(SchemaError) as exc:
            parse_config(text)
        assert "at least three points" in str(exc.value)


SQUARE_TEXT = "-0.9 -0.9; 0.9 -0.9; 0.9 0.9; -0.9 0.9"


def test_closed_boundary_curve_constructs_like_open(tmp_path):
    # the repeated closing point is dropped: same domain, same bytes
    outs = []
    for name, curve in (("open", SQUARE_TEXT), ("closed", SQUARE_TEXT + "; -0.9 -0.9")):
        out = tmp_path / name
        cfg = _write(tmp_path, BASE.format(out=out).replace(
            "domain = unit-disk", f"domain = boundary-curve\nboundary = {curve}"), f"{name}.cfg")
        assert main(["construct", "--config", cfg]) == 0, name
        outs.append(out)
    assert sorted(os.listdir(outs[0])) == sorted(os.listdir(outs[1]))
    for name in sorted(os.listdir(outs[0])):
        assert filecmp.cmp(outs[0] / name, outs[1] / name, shallow=False), name


def test_repeated_vertex_is_dropped(tmp_path, monkeypatch):
    # a zero-length edge inside the curve gave NaN distances and a Delaunay crash
    corners = [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]]
    square = DomainSpec("boundary-curve", corners)
    domain = DomainSpec("boundary-curve", corners[:2] + corners[1:])
    doubled = "-0.9 -0.9; 0.9 -0.9; 0.9 -0.9; 0.9 0.9; -0.9 0.9"
    assert np.array_equal(domain.boundary, square.boundary)
    assert distance_to_boundary(domain, (0.4, 0.0)) == pytest.approx(0.5, abs=1e-12)
    assert distance_to_boundary(domain, (0.0, -0.5)) == pytest.approx(0.4, abs=1e-12)
    meshes = []
    for dom in (square, domain):
        monkeypatch.setattr(geometry_mod, "_last_background", None)
        pd = build_pierced_domain(dom, PierceSpec(centers=[[0.1, 0.0]], radii=[1e-3]))
        meshes.append(build_mesh(pd, MeshPolicy(h=0.1, q=1.3)))
    for f in dataclasses.fields(meshes[0]):
        a, b = getattr(meshes[0], f.name), getattr(meshes[1], f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
    out = tmp_path / "doubled"
    cfg = _write(tmp_path, BASE.format(out=out).replace(
        "domain = unit-disk", f"domain = boundary-curve\nboundary = {doubled}"))
    assert main(["construct", "--config", cfg]) == 0


def test_domain_sample_points_match_pointwise_draws():
    # reference: the same draws, kept point by point with distance_to_boundary
    def pointwise(domain, n, seed):
        rng = np.random.default_rng(seed)
        b = np.array([[-1.0, -1.0], [1.0, 1.0]]) if domain.boundary is None else domain.boundary
        lo, hi = b.min(axis=0), b.max(axis=0)
        pts = []
        while len(pts) < n:
            for p in rng.uniform(lo, hi, size=(4 * n, 2)):
                if distance_to_boundary(domain, p) > 0:
                    pts.append(p)
                    if len(pts) >= n:
                        break
        return np.asarray(pts)

    t = 2 * math.pi * np.arange(40) / 40
    rad = 0.6 + 0.3 * np.cos(5 * t)
    domains = [DomainSpec(),
               DomainSpec("boundary-curve", [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]]),
               DomainSpec("boundary-curve", np.column_stack([rad * np.cos(t), rad * np.sin(t)]))]
    for domain in domains:
        for n, seed in ((500, 0), (7, 1)):
            got = domain_sample_points(domain, n=n, seed=seed)
            assert got.shape == (n, 2)
            assert np.array_equal(got, pointwise(domain, n, seed))


def test_green_check_command(tmp_path):
    cfg = _write(tmp_path, BASE.format(out=tmp_path))
    out = tmp_path / "g"
    assert main(["green-check", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "green_checks.csv").read_text().strip().splitlines()
    assert lines[0].startswith("check_id")
    assert all(line.endswith(",1") for line in lines[1:])


def test_rho_and_p_overrides(tmp_path):
    cfg = _write(tmp_path, BASE.format(out=tmp_path))
    rc = parse_config(open(cfg).read())
    assert rc.rho_list == [1e-2]
    # the CLI override path is exercised through main in the sweep test;
    # here check the parser's list handling
    rc2 = parse_config(open(cfg).read().replace("rho = 1e-2", "rho = 1e-2, 5e-3"))
    assert rc2.rho_list == [1e-2, 5e-3]


def test_descending_rho_required(tmp_path):
    with pytest.raises(SchemaError):
        parse_config(BASE.format(out=tmp_path).replace("rho = 1e-2",
                                                       "rho = 1e-3 1e-2"))


def test_field_csv_export(tmp_path, coarse_solution):
    path = tmp_path / "field.csv"
    write_field_csv(coarse_solution.u, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node_id,x,y,value"
    assert len(lines) == 1 + coarse_solution.mesh.n_nodes


def write_field_csv_rows(field, path):
    """Reference: the per-row csv.writer that write_field_csv replaces."""
    mesh = field.mesh
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["node_id", "x", "y", "value"])
        for i in range(mesh.n_nodes):
            wr.writerow([i, f"{mesh.nodes[i, 0]:.17g}", f"{mesh.nodes[i, 1]:.17g}",
                         f"{field.values[i]:.17g}"])


def test_field_csv_bytes_match_row_writer(tmp_path, coarse_solution):
    mesh = coarse_solution.mesh
    odd_mesh = dataclasses.replace(
        mesh, nodes=np.column_stack([np.resize(AWKWARD, mesh.n_nodes),
                                     np.resize(AWKWARD[::-1], mesh.n_nodes)]))
    fields = [coarse_solution.u, coarse_solution.phi,
              Field(mesh, np.resize(AWKWARD, mesh.n_nodes)),
              Field(odd_mesh, np.resize(AWKWARD[3:], mesh.n_nodes))]
    for k, field in enumerate(fields):
        want, alone, shared = (tmp_path / f"{k}-{name}.csv"
                               for name in ("rows", "alone", "shared"))
        write_field_csv_rows(field, want)
        coords = write_field_csv(field, alone)
        assert coords == field.mesh.coordinate_text()
        # the coordinate strings another writer of the same mesh built
        assert write_field_csv(field, shared, field.mesh.coordinate_text()) == coords
        assert alone.read_bytes() == want.read_bytes(), k
        assert shared.read_bytes() == want.read_bytes(), k


def test_exit_code_solver_failure(tmp_path):
    # rho so small the hole radius drops below the resolvable scale
    cfg = _write(tmp_path, BASE.format(out=tmp_path).replace("rho = 1e-2",
                                                             "rho = 1e-8"))
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "s")]) == 2

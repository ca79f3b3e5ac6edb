import csv
import dataclasses
import filecmp
import math
import os
import pathlib
import re
import threading
import types
import warnings

import numpy as np
import pytest

import sinhpierce.geometry as geometry_mod
from sinhpierce.cli import main, write_field_csv
from sinhpierce.coeffs import BlowupConfig, choose_scales
from sinhpierce.corrector import Run, continuation_sweep
from sinhpierce.errors import (
    ConstraintViolation,
    DuplicateCenters,
    HoleTouchesBoundary,
    NonpositiveSampled,
    SchemaError,
)
from sinhpierce.geometry import MIN_HOLE_RADIUS, SAMPLE_ROUNDS, DomainSpec, MeshPolicy, \
    domain_sample_points
from sinhpierce.greens import GreenProvider
from sinhpierce.runconfig import KEYS, parse_config

from conftest import BAD_RHOS, BAD_SETTINGS, distance_to_boundary, pierced_mesh

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


def test_m1_that_is_not_a_number_is_not_also_missing(tmp_path):
    with pytest.raises(SchemaError) as exc:
        parse_config(BASE.format(out=tmp_path).replace("m1 = 1", "m1 = one"))
    assert exc.value.problems == ["[problem] m1: not a number: 'one'"]


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


# V1 dips to -2 at (1, 0), a boundary node of every disk mesh, and is
# positive at every point parse_config samples: the node rule names it
_DIP = "1 - 3*exp(-10000*((x-1)^2 + y^2))"


@pytest.mark.parametrize("command, rho, code", [("construct", "1e-3", 1),
                                                ("verify", "1e-2 1e-3", 1),
                                                ("sweep", "1e-2 1e-3", 2)])
def test_potential_negative_at_a_node(tmp_path, capsys, command, rho, code):
    cfg = _write(tmp_path, BASE.format(out=tmp_path).replace("v1 = 1", f"v1 = {_DIP}"))
    out = tmp_path / command
    assert main([command, "--config", cfg, "--out", str(out), "--rho", rho]) == code
    err = capsys.readouterr().err
    if command == "sweep":
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [row["status"] for row in rows] == ["nonpositive-sampled"] * 2
        assert all(re.match(r"V1 is not positive: value -2 at node \d+ \(1, 0\)$", row["error"])
                   for row in rows)
    else:
        assert re.match(r"validation failure: V1 is not positive: value -2 at node \d+ \(1, 0\)\n$",
                        err)


# each potential is finite and positive at every sampled point but not at the
# boundary node (-1, 0): V1 is nan there (positive is needed, as m1 = 1), the
# unused V2 inf (finite is needed whatever the sign split)
@pytest.mark.parametrize("key, text, message, status", [
    ("v1", "1 + 0*log(x + 0.9995)", "V1 is not positive: value nan at node", "nonpositive-sampled"),
    ("v2", "1/(x + 1)", "potential assumption violated: V2 must be finite (value inf at node",
     "constraint-violation")])
def test_potential_fails_only_at_a_node(tmp_path, capsys, key, text, message, status):
    cfg = _write(tmp_path, BASE.format(out=tmp_path).replace(f"{key} = 1", f"{key} = {text}"))
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "c")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"validation failure: {message} ")
    assert re.search(r" node \d+ \(-1, 1.22465e-16\)\)?\n$", err)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "--rho", "1e-2 1e-3"]) == 2
    with open(tmp_path / "s" / "sweep.csv", newline="") as f:
        assert [row["status"] for row in csv.DictReader(f)] == [status] * 2


@pytest.mark.parametrize("command, rho, code", [("construct", "1e-3", 1),
                                                ("verify", "1e-2 1e-3", 1),
                                                ("sweep", "1e-2 1e-3", 2)])
def test_potential_zero_at_a_hole_center(tmp_path, capsys, command, rho, code):
    # V1 = x^2 + y^2 passes at every sampled point but vanishes at the
    # center of hole 1, which it feeds: the potentials' rule names the hole,
    # as it names a node
    cfg = _write(tmp_path, BASE.format(out=tmp_path).replace("v1 = 1", "v1 = x^2 + y^2"))
    out = tmp_path / command
    assert main([command, "--config", cfg, "--out", str(out), "--rho", rho]) == code
    message = "V1 is not positive: value 0 at hole 1 center (0, 0)"
    if command == "sweep":
        with open(out / "sweep.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(row["status"], row["error"]) for row in rows] == [
            ("nonpositive-sampled", message)] * 2
    else:
        assert capsys.readouterr().err == f"validation failure: {message}\n"


# with m1 = 0 no hole uses V1, which the paper sets to 0: V1 must not be
# negative, and a value below 0 is named as V1's
_UNUSED_V1 = BASE.replace("m1 = 1", "m1 = 0")


@pytest.mark.parametrize("text, value", [("x - 2", r"-[0-9.]+"), ("-1e-9", "-1e-09")])
def test_unused_potential_negative_at_a_sample(tmp_path, text, value):
    # named when the config is read, before any mesh is built
    with pytest.raises(NonpositiveSampled, match=rf"^V1 is negative: value {value} at \(.*\); "
                                                 "the sign is checked at 2,000 sampled points"):
        parse_config(_UNUSED_V1.format(out=tmp_path).replace("v1 = 1", f"v1 = {text}"))


@pytest.mark.parametrize("text, message", [
    (_DIP, r"V1 is negative: value -2 at node \d+ \(1, 0\)"),
    # nan stays with the finiteness rule
    ("1 + 0*log(x + 0.9995)", r"potential assumption violated: V1 must be finite "
                              r"\(value nan at node \d+ \(-1, 1.22465e-16\)\)")])
def test_unused_potential_fails_only_at_a_node(tmp_path, capsys, text, message):
    cfg = _write(tmp_path, _UNUSED_V1.format(out=tmp_path).replace("v1 = 1", f"v1 = {text}"))
    assert main(["construct", "--config", cfg, "--out", str(tmp_path / "c")]) == 1
    assert re.match(rf"validation failure: {message}\n$", capsys.readouterr().err)


def test_long_potential_sum_is_accepted(tmp_path):
    # 1,500 terms nest deeper than Python's recursion limit
    v1 = "+".join(["0.001"] * 1500)
    rc = parse_config(BASE.format(out=tmp_path).replace("v1 = 1", f"v1 = {v1}"))
    assert rc.problem.V1(0.3, -0.2) == pytest.approx(1.5)


_CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name, command, m", [("single_bubble.cfg", "construct", 1),
                                               ("two_bubble.cfg", "sweep", 2),
                                               ("variable_intensity.cfg", "verify", 2)])
def test_bundled_configs_parse(name, command, m):
    rc = parse_config((_CONFIGS / name).read_text())
    assert (rc.command, rc.problem.m) == (command, m)


def test_bundled_single_bubble_constructs(tmp_path):
    text = re.sub(r"(?m)^h = .*$", "h = 0.1", (_CONFIGS / "single_bubble.cfg").read_text())
    out = tmp_path / "single"
    assert main(["construct", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    assert "status converged\n" in (out / "report.txt").read_text()


def test_bundled_variable_intensity_verifies(tmp_path):
    # the paper's title case: V1 = 2 + sin(3x), V2 = 1 + x^2 on the mixed pair
    text = re.sub(r"(?m)^h = .*$", "h = 0.1", (_CONFIGS / "variable_intensity.cfg").read_text())
    out = tmp_path / "variable"
    assert main(["verify", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    with open(out / "checks.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 16 and all(row["pass"] == "1" for row in rows)


def test_documented_rho_floors_match_the_hole_radius_floor(capsys):
    # the smallest rho whose hole radii all reach MIN_HOLE_RADIUS, bisected
    # on choose_scales, is the floor the help text and the README give, to
    # two significant digits
    floors = {}
    for name in ("single_bubble", "two_bubble"):
        cfg = parse_config((_CONFIGS / f"{name}.cfg").read_text()).problem
        gp = GreenProvider(cfg.domain)
        lo, hi = 1e-12, 1e-2   # too small, large enough
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if np.all(choose_scales(cfg, mid, gp).eps >= MIN_HOLE_RADIUS):
                hi = mid
            else:
                lo = mid
        floors[name] = f"{hi:.1e}".replace("e-0", "e-")
    with pytest.raises(SystemExit):
        main(["--help"])
    readme = (_CONFIGS.parent / "README.md").read_text()
    for text in (capsys.readouterr().out, readme):
        found = re.findall(r"rho >= (\S+) for `?configs/(\w+)\.cfg", " ".join(text.split()))
        assert {name: floor for floor, name in found} == floors


def _single_bubble(tmp_path, **run):
    """single_bubble.cfg at h = 0.1, with the given [run] values, written to tmp_path."""
    text = re.sub(r"(?m)^h = .*$", "h = 0.1", (_CONFIGS / "single_bubble.cfg").read_text())
    for key, value in run.items():
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    return _write(tmp_path, text)


def test_p_list_reaches_the_artifacts(tmp_path):
    # the --p exponents name the defect norms and slope fits of every sweep
    # report, and the residual-scaling checks of verify
    cfg = _single_bubble(tmp_path)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--rho", "1e-2 1e-3 1e-4",
                 "--p", "1.5 1.01"]) == 0
    reports = sorted(out.glob("report_rho*.txt"))
    assert len(reports) == 3
    for path in reports:
        keys = [line.split()[0] for line in path.read_text().splitlines()]
        assert [k for k in keys if k.startswith(("r_norm_p", "sigma_fit_p"))] == [
            "r_norm_p1.01", "r_norm_p1.5", "sigma_fit_p1.01", "sigma_fit_p1.5"], path.name
    out = tmp_path / "verify"
    assert main(["verify", "--config", cfg, "--out", str(out), "--p", "1.5 1.01"]) == 0
    with open(out / "checks.csv") as f:
        ids = [row[0] for row in csv.reader(f)]
    assert [i for i in ids if i.startswith("residual-lp-scaling")] == [
        "residual-lp-scaling-p1.01", "residual-lp-scaling-p1.5"]


def test_tol_and_maxiter_reach_the_solver(tmp_path):
    def construct(name, **run):
        out = tmp_path / name
        return main(["construct", "--config", _single_bubble(tmp_path, **run),
                     "--out", str(out)]), out

    code, out = construct("one-step", maxiter=1)
    assert code == 2
    assert "no convergence in 1 iterations" in (out / "manifest.txt").read_text()
    iterations = []
    for tol in ("1e-3", "1e-10"):
        code, out = construct(f"tol-{tol}", tol=tol)
        assert code == 0
        report = dict(line.split(" ", 1) for line in (out / "report.txt").read_text().splitlines())
        iterations.append(int(report["iterations"]))
    assert iterations[0] < iterations[1]


def test_construct_frees_the_solver_before_writing(tmp_path, monkeypatch):
    # the Lap + W factor is freed before the artifacts are written, which
    # keeps it out of construct's peak memory
    import weakref

    import sinhpierce.cli as cli_mod
    from sinhpierce.operators import LinearOperator

    operators, alive = [], []
    real_init, real_write = LinearOperator.__init__, cli_mod.write_field_csv

    def tracked(self, *args, **kwargs):
        operators.append(weakref.ref(self))
        real_init(self, *args, **kwargs)

    def counting(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in operators))
        return real_write(*args, **kwargs)

    monkeypatch.setattr(LinearOperator, "__init__", tracked)
    monkeypatch.setattr(cli_mod, "write_field_csv", counting)
    out = tmp_path / "out"
    assert main(["construct", "--config", _write(tmp_path, BASE.format(out=out))]) == 0
    assert len(operators) == 1 and alive == [0, 0]


def test_liouville_mode_accepted(tmp_path):
    text = BASE.format(out=tmp_path).replace("m1 = 1", "m1 = 0")
    rc = parse_config(text)
    assert rc.problem.m1 == 0


def test_nu_is_an_unknown_key(tmp_path, capsys):
    # V2 is scaled in its own expression, as in v2 = 2.5*(...)
    text = BASE.format(out=tmp_path / "out").replace("v2 = 1", "v2 = 1\nnu = 2.5")
    with pytest.raises(SchemaError, match="unknown key \\[problem\\] nu; "):
        parse_config(text)
    assert main(["construct", "--config", _write(tmp_path, text)]) == 1
    assert "unknown key [problem] nu" in capsys.readouterr().err


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


def test_empty_centers_are_a_schema_error(tmp_path, capsys):
    # an empty list once escaped validation as a bare ValueError
    text = BASE.format(out=tmp_path / "out").replace("centers = 0.0 0.0", "centers =") \
        .replace("alphas = 3.0", "alphas =")
    with pytest.raises(SchemaError, match="centers: no points"):
        parse_config(text)
    assert main(["construct", "--config", _write(tmp_path, text)]) == 1
    assert "centers: no points" in capsys.readouterr().err


@pytest.mark.parametrize("centers, error, message", [
    ("0.3 0.0; 0.3 0.0", DuplicateCenters, "holes 1 and 2 share center (0.3, 0.0)"),
    ("1.5 0.0", HoleTouchesBoundary, "hole 1: center (1.5, 0.0) not inside the domain"),
    ("nan 0.0", HoleTouchesBoundary, "hole 1: center (nan, 0.0) not inside the domain"),
], ids=["duplicate", "outside", "nan"])
def test_invalid_layout_fails_before_any_build(tmp_path, capsys, monkeypatch, centers, error,
                                               message):
    # the Run checks the layout before it starts the background thread or
    # evaluates any Green function
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self.name)
            super().start()

    monkeypatch.setattr(threading, "Thread", Recording)
    m = centers.count(";") + 1
    text = BASE.format(out=tmp_path / "out").replace("centers = 0.0 0.0", f"centers = {centers}") \
        .replace("alphas = 3.0", "alphas =" + " 3.0" * m)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["construct", "--config", _write(tmp_path, text)]) == 2
        with pytest.raises(error, match=re.escape(message)):
            Run(parse_config(text).problem)
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert started == []
    assert message in (tmp_path / "out" / "manifest.txt").read_text()


def test_help_names_the_hole_radius_floor(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    assert f"hole radii above {MIN_HOLE_RADIUS:g}" in " ".join(capsys.readouterr().out.split())


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
    # has exactly two matrices factored, once each: K_II, although the stage
    # releases its factor, and Lap + W, shared by the fixed point and verify's
    # solver-bound check; the bubble sources are summed into Lap U once per
    # stage, for the defect, the residual check and the converged residual
    import sys

    import scipy.sparse.linalg as spla

    import sinhpierce.bubbles as bubbles_mod
    import sinhpierce.corrector as corrector_mod
    import sinhpierce.greens as greens_mod

    real = corrector_mod.build_mesh
    real_domain_mesh = greens_mod.build_domain_mesh
    calls = []
    built = []      # every mesh the command builds, pierced or the Green function's
    projections = []
    lattices = []
    real_lattice = geometry_mod._hex_lattice

    def counting_lattice(*args):
        lattices.append(args)
        return real_lattice(*args)

    monkeypatch.setattr(geometry_mod, "_hex_lattice", counting_lattice)
    sources = []
    real_source = bubbles_mod.bubble_source

    def counting_source(b, mesh):
        sources.append(b.index)
        return real_source(b, mesh)

    monkeypatch.setattr(bubbles_mod, "bubble_source", counting_source)

    def counting(*args):
        calls.append(args)
        built.append(real(*args))
        return built[-1]

    def recording_domain_mesh(*args):
        built.append(real_domain_mesh(*args))
        return built[-1]

    real_project = bubbles_mod.project_numeric

    def counting_project(*args, **kwargs):
        projections.append(args[0])
        return real_project(*args, **kwargs)

    real_splu = spla.splu
    factored = []   # (matrix, is some mesh's K_II), matrices kept alive
    owners = []     # the mesh whose K_II each factored matrix is, or None

    def counting_splu(A, *args, **kwargs):
        owner = next((mesh for mesh in built
                      if mesh.ops is not None and A is mesh.ops._K_II), None)
        factored.append((A, owner is not None))
        owners.append(owner)
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(corrector_mod, "build_mesh", counting)
    monkeypatch.setattr(greens_mod, "build_domain_mesh", recording_domain_mesh)
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
        sources.clear()
        factored.clear()
        owners.clear()
        built.clear()
        rho = ["--rho", "1e-2"] if command == "construct" else []   # construct takes one
        assert main([command, "--config", path, "--out", str(tmp_path / command), *rho]) == 0
        assert len(calls) == meshes, command
        assert len(projections) == meshes * bubbles, command
        assert sources == list(range(bubbles)) * meshes, command
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
        built.clear()
        out = tmp_path / f"square-{command}"
        assert main([command, "--config", square, "--out", str(out)]) == 0, command
        assert len(calls) == 3, command
        # one K_II per mesh: the domain mesh's (no holes) and each pierced one
        domain = [mesh for mesh in owners if mesh is not None and not mesh.patches]
        pierced = [mesh for mesh in owners if mesh is not None and mesh.patches]
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

    def failing_at_1e_3(run, rho, **kw):
        checked.append(rho)
        if rho == 1e-3:
            raise SolverFailure("synthetic bound-check failure")
        return real(run, rho, **kw)

    monkeypatch.setattr(verify_mod, "check_operator_bound", failing_at_1e_3)
    out = tmp_path / "verify"
    cfg = _write(tmp_path, BASE.format(out=out).replace("rho = 1e-2", "rho = 1e-2 1e-3 1e-4"))
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    assert checked == [1e-2, 1e-3]
    assert not (out / "verify_sweep.csv").exists()
    assert "synthetic bound-check failure" in (out / "manifest.txt").read_text()


def test_underflowing_hole_radius_is_a_named_failure(tmp_path):
    # alpha = 2.01 passes validation, but at these rho the hole radius
    # exp(log_eps) underflows to 0: construct ends with the solver exit code
    # and the named error in its manifest, and sweep, whose every entry
    # fails so, names the error in each entry's status
    text = BASE.format(out=tmp_path).replace("alphas = 3.0", "alphas = 2.01") \
        .replace("rho = 1e-2", "rho = 1e-2 1e-3")
    cfg = _write(tmp_path, text)
    out = tmp_path / "construct"
    assert main(["construct", "--config", cfg, "--out", str(out), "--rho", "1e-2"]) == 2
    assert "error" in (out / "manifest.txt").read_text()
    assert "below the resolvable scale" in (out / "manifest.txt").read_text()
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    with open(out / "sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["status"] for row in rows] == ["unresolvable-hole"] * 2
    assert all("below the resolvable scale" in row["error"] for row in rows)


@pytest.mark.parametrize("command, rho, calls", [("construct", "1e-2", 1),
                                                 ("sweep", "1e-2 1e-3 1e-4", 3),
                                                 ("verify", "1e-2 1e-3 1e-4", 3)])
def test_node_rule_runs_once_per_stage(tmp_path, monkeypatch, command, rho, calls):
    # the potentials are checked and evaluated at the nodes once per stage,
    # and every later reader takes the stage's values
    real, where = BlowupConfig.potentials_at, []

    def counted(self, points, at):
        where.append(at)
        return real(self, points, at)

    monkeypatch.setattr(BlowupConfig, "potentials_at", counted)
    text = BASE.format(out=tmp_path).replace("centers = 0.0 0.0", "centers = 0.3 0.2")
    cfg = _write(tmp_path, text.replace("h = 0.05", "h = 0.1"))
    assert main([command, "--config", cfg, "--out", str(tmp_path / command), "--rho", rho]) == 0
    assert where.count("node") == calls


def test_readme_quick_start(tmp_path):
    # the README's four commands on the bundled configs, and its example
    # script, each in a fresh process with every warning an error
    import subprocess
    import sys

    root = _CONFIGS.parent
    cli = [sys.executable, "-W", "error", "-m", "sinhpierce.cli"]
    runs = [cli + [command, "--config", str(_CONFIGS / cfg), "--out", str(tmp_path / command)]
            for command, cfg in (("construct", "single_bubble.cfg"), ("sweep", "two_bubble.cfg"),
                                 ("verify", "single_bubble.cfg"),
                                 ("green-check", "single_bubble.cfg"))]
    runs.append([sys.executable, "-W", "error", str(root / "scripts" / "run_single_bubble.py")])
    for argv in runs:
        proc = subprocess.run(argv, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                              timeout=120)
        assert proc.returncode == 0, (argv, proc.stderr)
    assert (tmp_path / "out" / "single_sweep" / "sweep.csv").is_file()


def _run_cli(tmp_path, text):
    """Exit code and stderr of construct in a fresh process."""
    import subprocess
    import sys

    import sinhpierce

    src = os.path.dirname(os.path.dirname(os.path.abspath(sinhpierce.__file__)))
    proc = subprocess.run([sys.executable, "-c", "import sys, sinhpierce.cli as c; "
                           "sys.exit(c.main(sys.argv[1:]))", "construct", "--config",
                           _write(tmp_path, text)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("tau, rho", [("1e-3", "1e-2"), ("1e-6", "1e-3")])
def test_nan_hole_radius_is_named(tmp_path, tau, rho):
    # with tau this small exp(2 pi rho_1) underflows, d_1 = 0 and eps_1 is
    # nan; check_radii names hole 1 before any mesh is built
    text = BASE.format(out=tmp_path / "out").replace("centers = 0.0 0.0",
                                                     "centers = 0.3 0.2; -0.3 0.2") \
        .replace("alphas = 3.0", "alphas = 3.0 3.0").replace("tau = 1.0", f"tau = {tau}") \
        .replace("h = 0.05", "h = 0.1").replace("rho = 1e-2", f"rho = {rho}")
    code, err = _run_cli(tmp_path, text)
    assert code == 2, err
    message = "hole 1 radius nan below the resolvable scale"
    assert err == f"solver failure: {message} {MIN_HOLE_RADIUS:g}\n"
    assert message in (tmp_path / "out" / "manifest.txt").read_text()


def test_regular_polygon_constructs(tmp_path):
    # the 64-gon's boundary nodes on a slanted side are collinear only up
    # to rounding; the Green function's domain mesh (h = 0.02) once failed
    th = 2 * math.pi * np.arange(64) / 64
    curve = "; ".join(f"{math.cos(t)!r} {math.sin(t)!r}" for t in th.tolist())
    text = BASE.format(out=tmp_path / "out").replace(
        "domain = unit-disk", f"domain = boundary-curve\nboundary = {curve}") \
        .replace("centers = 0.0 0.0", "centers = 0.3 0.2; -0.4 0.1") \
        .replace("alphas = 3.0", "alphas = 3.0 3.0")
    code, err = _run_cli(tmp_path, text)
    assert code == 0, err
    assert (tmp_path / "out" / "solution.csv").exists()


def test_failed_construct_keeps_its_report(tmp_path):
    # alpha = 3.9 at rho = 1e-2 trips the sup-norm guard; the partial report
    # is written and listed before the error line
    out = tmp_path / "out"
    text = BASE.format(out=out).replace("centers = 0.0 0.0", "centers = 0.3 0.2") \
        .replace("alphas = 3.0", "alphas = 3.9")
    assert main(["construct", "--config", _write(tmp_path, text)]) == 2
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert [line.split()[1] for line in manifest] == ["report.txt", "report_iterations.csv", "-"]
    assert manifest[-1].endswith("exceeded the guard")
    report = dict(line.split(" ", 1) for line in (out / "report.txt").read_text().splitlines())
    assert report["status"] == "diverged"
    with open(out / "report_iterations.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == int(report["iterations"]) >= 2
    assert float(rows[-1]["contraction_factor"]) > 1


_QUADRATURE_PROBE = """
import json, sys
import sinhpierce.cli as cli

QUAD = ("scipy.integrate", "scipy.optimize")
loaded = {"import": [m for m in QUAD if m in sys.modules]}
for command, cfg, *flags in json.loads(sys.argv[1]):
    code = cli.main([command, "--config", cfg, "--out", cfg + "-" + command, *flags])
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
    # construct takes one rho: the first, the one it solved when it dropped the rest
    runs = [(command, cfg, *(["--rho", "1e-2"] if command == "construct" else []))
            for cfg in (disk, square)
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


def test_repeated_vertex_is_dropped(tmp_path):
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
        meshes.append(pierced_mesh(dom, [[0.1, 0.0]], [1e-3], MeshPolicy(h=0.1, q=1.3)))
    for f in dataclasses.fields(meshes[0]):
        a, b = getattr(meshes[0], f.name), getattr(meshes[1], f.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), f.name
    out = tmp_path / "doubled"
    cfg = _write(tmp_path, BASE.format(out=out).replace(
        "domain = unit-disk", f"domain = boundary-curve\nboundary = {doubled}"))
    assert main(["construct", "--config", cfg]) == 0


@pytest.mark.parametrize("boundary, center, code, message", [
    # no area: the sampler gives up after its rounds, before any mesh
    ("0 0; 1 0; 2 0", "0.5 0.0", 1, f"0 of {SAMPLE_ROUNDS * 8000} points"),
    ("0 0; 2 0; 1 0", "0.5 0.0", 1, f"0 of {SAMPLE_ROUNDS * 8000} points"),
    # area enough to sample, and a center that is not inside
    ("0 0; 1 0; 2 1e-12", "0.5 0.0", 2, "not inside the domain"),
    # a curve that crosses itself is named before any sampling
    pytest.param("0 0; 1 1; 1 0; 0 1", "0.5 0.5", 1,
                 "boundary curve is not simple: edge (0.0, 0.0)-(1.0, 1.0) "
                 "meets edge (1.0, 0.0)-(0.0, 1.0)",
                 id="bowtie"),
])
def test_curves_without_area_end_with_a_named_failure(tmp_path, boundary, center, code, message):
    returncode, err = _run_cli(tmp_path, BASE.format(out=tmp_path / "out").replace(
        "domain = unit-disk", f"domain = boundary-curve\nboundary = {boundary}")
        .replace("centers = 0.0 0.0", f"centers = {center}"))
    assert returncode == code, err
    assert message in err and "Traceback" not in err


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


def test_green_check_on_a_boundary_curve(tmp_path):
    # on a curve only the symmetry of the numeric backend is measured
    text = BASE.format(out=tmp_path).replace(
        "domain = unit-disk",
        "domain = boundary-curve\nboundary = -0.9 -0.9; 0.9 -0.9; 0.9 0.9; -0.9 0.9")
    out = tmp_path / "g"
    assert main(["green-check", "--config", _write(tmp_path, text), "--out", str(out)]) == 0
    with open(out / "green_checks.csv", newline="") as f:
        header, *rows = list(csv.reader(f))
    assert [r[0] for r in rows] == ["green-symmetry"]
    measured, threshold = float(rows[0][3]), float(rows[0][4])
    assert threshold == 50 * 0.05 ** 2
    assert measured <= threshold and rows[0][5] == "1"


def test_verify_fails_with_no_far_field_sample(tmp_path):
    # [2, 3] x [0, 1]: every far-field sample point snaps to a boundary node,
    # so the far-field error is nan and far-field-green-profile fails
    text = BASE.format(out=tmp_path).replace(
        "domain = unit-disk",
        "domain = boundary-curve\nboundary = 2 0; 3 0; 3 1; 2 1").replace(
        "centers = 0.0 0.0", "centers = 2.5 0.5")
    out = tmp_path / "v"
    assert main(["verify", "--config", _write(tmp_path, text), "--out", str(out)]) == 3
    with open(out / "checks.csv", newline="") as f:
        rows = {r[0]: r for r in csv.reader(f)}
    assert rows["far-field-green-profile"][3] == "nan"
    assert rows["far-field-green-profile"][5] == "0"


def test_unparseable_potentials_are_one_schema_error(tmp_path):
    text = BASE.format(out=tmp_path).replace("v1 = 1", "v1 = x**2").replace(
        "v2 = 1", "v2 = 2(x)")
    with pytest.raises(SchemaError) as exc:
        parse_config(text)
    assert [p.split(":")[0] for p in exc.value.problems] == ["v1", "v2"]
    assert main(["construct", "--config", _write(tmp_path, text)]) == 1


def test_rho_and_p_overrides(tmp_path):
    cfg = _write(tmp_path, BASE.format(out=tmp_path))
    rc = parse_config(open(cfg).read())
    assert rc.rho_list == [1e-2]
    # the CLI override path is exercised through main in the sweep test;
    # here check the parser's list handling (construct takes one rho)
    rc2 = parse_config(open(cfg).read().replace("rho = 1e-2", "rho = 1e-2, 5e-3")
                       .replace("command = construct", "command = sweep"))
    assert rc2.rho_list == [1e-2, 5e-3]


def test_run_defaults_have_one_owner(tmp_path):
    # a config without [mesh] and without rho, p, tol or maxiter gets the
    # defaults the mesh policy and the Run declare; no other function or
    # method of the package declares the solver settings again, by name or
    # as a copy of their values
    import ast
    import inspect

    import sinhpierce
    import sinhpierce.corrector as corrector_mod

    text = BASE.format(out=tmp_path)
    for line in ("[mesh]\nh = 0.05\nq = 1.3\n", "rho = 1e-2\n", "p = 1.01\n",
                 "tol = 1e-10\n", "maxiter = 50\n"):
        assert line in text
        text = text.replace(line, "")
    rc = parse_config(text)
    assert rc.policy == MeshPolicy()
    assert rc.rho_list == [1e-3]
    params = inspect.signature(Run.__init__).parameters
    assert (params["tol"].default, params["maxiter"].default, params["p_norms"].default) \
        == (rc.tol, rc.maxiter, tuple(rc.p_list))

    settings = {"TOL": corrector_mod.TOL, "MAXITER": corrector_mod.MAXITER,
                "P_NORMS": corrector_mod.P_NORMS}
    owner, seen, copies = None, 0, []
    for path in sorted(pathlib.Path(sinhpierce.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and cls.name == "Run" and path.stem == "corrector":
                owner = next(f for f in cls.body if getattr(f, "name", "") == "__init__")
        for fn in ast.walk(tree):
            if fn is owner or not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                  ast.Lambda)):
                continue
            seen += 1
            args = fn.args
            for default in args.defaults + [d for d in args.kw_defaults if d is not None]:
                names = {n.id for n in ast.walk(default) if isinstance(n, ast.Name)} \
                    | {n.attr for n in ast.walk(default) if isinstance(n, ast.Attribute)}
                try:
                    value = ast.literal_eval(default)
                except ValueError:
                    value = None
                if names & settings.keys() or any(
                        type(value) is type(v) and value == v for v in settings.values()):
                    copies.append(f"{path.stem}.{getattr(fn, 'name', 'lambda')}: "
                                  f"{ast.unparse(default)}")
    assert owner is not None and seen > 100
    assert not copies, copies


@pytest.mark.parametrize("command, flags, edit", [
    ("sweep", ["--rho", "1e-3,1e-2"], None),
    ("construct", ["--rho=-1e-3"], None),
    ("construct", ["--rho", "abc"], None),
    ("construct", ["--rho", ""], None),
    ("construct", [], ("rho = 1e-2", "rho =")),
    ("construct", [], ("p = 1.01", "p = 0.5")),
    ("construct", ["--p", "0.5"], None),
    ("construct", [], ("maxiter = 50", "maxiter = 0")),
    ("construct", [], ("tol = 1e-10", "tol = 0")),
    ("construct", [], ("tau = 1.0", "tua = 2.0")),
    ("construct", [], ("q = 1.3", "qq = 1.3")),
    ("construct", [], ("maxiter = 50", "maxiters = 50")),
    ("construct", [], ("[run]", "[runn]\nrho = 1e-3\n\n[run]")),
    ("construct", [], ("command = construct\nrho = 1e-2", "command = sweep\nrho = 1e-2 1e-3")),
    ("construct", [], ("alphas = 3.0", "alphas = nan")),
    ("construct", [], ("alphas = 3.0", "alphas = inf")),
    ("construct", [], ("h = 0.1", "h = inf")),
    ("construct", [], ("domain = unit-disk",
                       "domain = boundary-curve\nboundary = -1 -1; 1 -1; 1 1; nan 1")),
    ("construct", [], ("tau = 1.0", "tau = nan")),
    ("construct", [], ("tau = 1.0", "tau = inf")),
    ("construct", [], ("v2 = 1", "v2 = exp(1000)")),
    ("construct", [], ("v1 = 1", "v1 = exp(1000)")),
    ("verify", ["--seed=-1"], None),
    ("green-check", [], ("seed = 0", "seed = -1")),
], ids=["ascending-flag", "negative-flag", "text-flag", "empty-flag", "empty-key",
        "p-below-one-key", "p-below-one-flag", "no-iterations-key", "zero-tol-key",
        "problem-key-typo", "mesh-key-typo", "run-key-typo", "unknown-section",
        "construct-two-rho", "nan-alpha", "inf-alpha", "inf-h", "nan-boundary-point",
        "nan-tau", "inf-tau", "inf-unused-v2", "inf-v1", "negative-seed-flag",
        "negative-seed-key"])
def test_bad_run_values_are_validation_failures(tmp_path, capsys, command, flags, edit):
    # the file's [run] values and the flags that override them pass the same
    # checks, before anything is solved
    text = BASE.format(out=tmp_path / "out").replace("h = 0.05", "h = 0.1")
    if edit is not None:
        assert edit[0] in text
        text = text.replace(*edit)
    cfg = _write(tmp_path, text)
    assert main([command, "--config", cfg, *flags]) == 1
    assert capsys.readouterr().err.startswith("validation failure: ")
    assert not (tmp_path / "out").exists()


def test_schema_errors_name_what_is_allowed(tmp_path):
    text = BASE.format(out=tmp_path).replace("tau = 1.0", "tua = 2.0") \
        .replace("q = 1.3", "q = 1.3\nhh = 0.5").replace("rho = 1e-2", "rho = 1e-2 1e-3") \
        + "\n[runn]\nseed = 1\n"
    with pytest.raises(SchemaError) as exc:
        parse_config(text)
    msg = str(exc.value)
    assert "unknown key [problem] tua; [problem] takes domain, boundary, centers, " \
        "alphas, m1, tau, v1, v2" in msg
    assert "unknown key [mesh] hh; [mesh] takes h, q" in msg
    assert "unknown section [runn]; expected one of [problem], [mesh], [run]" in msg
    assert "construct solves one rho, got [0.01, 0.001]; pick one with --rho" in msg


@pytest.mark.parametrize("edit, setting, message", BAD_SETTINGS.values(), ids=BAD_SETTINGS)
def test_config_reports_the_rule_run_applies(tmp_path, edit, setting, message):
    # one rule on the solver settings: parse_config's one message for a
    # broken [run] value is the one Run raises for the same setting
    text = BASE.format(out=tmp_path)
    key = edit.split()[0]
    line = next(ln for ln in text.splitlines() if ln.startswith(f"{key} = "))
    with pytest.raises(SchemaError) as exc:
        parse_config(text.replace(line, edit))
    assert exc.value.problems == [message]


@pytest.mark.parametrize("edit, message", [(row[0], row[2]) for row in BAD_RHOS.values()],
                         ids=BAD_RHOS)
def test_config_reports_the_rho_rule(tmp_path, edit, message):
    # one rule on the rho list: parse_config's one message for a refused list
    # is the one continuation_sweep raises, in the one SchemaError beside any
    # other problem of the file
    text = BASE.format(out=tmp_path).replace("command = construct", "command = sweep") \
        .replace("rho = 1e-2", edit)
    with pytest.raises(SchemaError) as exc:
        parse_config(text)
    assert exc.value.problems == [message]
    with pytest.raises(SchemaError) as exc:
        parse_config(text.replace("tau = 1.0", "tua = 1.0"))
    assert exc.value.problems[0].startswith("unknown key [problem] tua;")
    assert exc.value.problems[1:] == [message]


def test_rho_rule_has_one_owner(tmp_path, monkeypatch, single_cfg, gp, coarse_run):
    # choose_scales, continuation_sweep and parse_config each apply
    # coeffs.rho_problems: with the rule swapped, in every module that binds
    # it, for one that refuses everything, each refuses a valid input with
    # its message before any stage, so no copy of the rule answers first
    import importlib

    import sinhpierce

    def refuse_all(rho_list):
        yield "the rho rule refuses every list"

    bound = set()
    for path in pathlib.Path(sinhpierce.__file__).parent.glob("*.py"):
        module = importlib.import_module(
            "sinhpierce" if path.stem == "__init__" else f"sinhpierce.{path.stem}")
        if hasattr(module, "rho_problems"):
            monkeypatch.setattr(module, "rho_problems", refuse_all)
            bound.add(path.stem)
    assert {"coeffs", "corrector", "runconfig"} <= bound
    monkeypatch.setattr(Run, "stage", lambda run, rho: pytest.fail("a stage was prepared"))
    for call in (lambda: choose_scales(single_cfg, 1e-3, gp),
                 lambda: continuation_sweep(coarse_run, [1e-3])):
        with pytest.raises(ValueError, match="^the rho rule refuses every list$"):
            call()
    with pytest.raises(SchemaError) as exc:
        parse_config(BASE.format(out=tmp_path))
    assert exc.value.problems == ["the rho rule refuses every list"]


def test_hole_count_mismatch_is_a_validation_failure(tmp_path, capsys):
    text = BASE.format(out=tmp_path / "out").replace("alphas = 3.0", "alphas = 3.0 3.0")
    assert main(["construct", "--config", _write(tmp_path, text)]) == 1
    assert capsys.readouterr().err == "validation failure: 1 centers but 2 alphas\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["empty-flag", "empty-key", "existing-file", "under-a-file"])
def test_output_directory_that_cannot_be_created(tmp_path, capsys, monkeypatch, case):
    # exit 1 with the OSError named, before anything is solved
    text = BASE.format(out=tmp_path / "out")
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    flags = []
    if case == "empty-flag":
        flags = ["--out", ""]
    elif case == "empty-key":
        text = text.replace(f"out = {tmp_path / 'out'}", "out =")
    elif case == "existing-file":
        flags = ["--out", str(blocker)]
    else:
        flags = ["--out", str(blocker / "out")]
    monkeypatch.setattr(Run, "stage", lambda run, rho: pytest.fail("a stage was prepared"))
    assert main(["construct", "--config", _write(tmp_path, text), *flags]) == 1
    assert capsys.readouterr().err.startswith("cannot create output directory: [Errno ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "run.cfg"]
    assert blocker.read_text() == "kept\n"


def test_readme_lists_the_config_keys():
    readme = (_CONFIGS.parent / "README.md").read_text()
    listed = dict(re.findall(r"^- `\[(\w+)\]` (.*)[;.]$", readme, re.M))
    assert listed == {section: ", ".join(keys) for section, keys in KEYS.items()}


def test_too_thin_curve_is_a_validation_failure(tmp_path, capsys):
    # NumericGreen meshes the domain at h = 0.02 first, so that spacing is named
    text = BASE.format(out=tmp_path / "out").replace("h = 0.05", "h = 0.1").replace(
        "domain = unit-disk", "domain = boundary-curve\nboundary = 0 0; 1 0; 2 1e-12").replace(
        "centers = 0.0 0.0", "centers = 1.0 1e-13")
    assert main(["construct", "--config", _write(tmp_path, text)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation failure: boundary curve too thin for mesh spacing "
                          "h = 0.02: resampled node 1 (0.02, 0.0) lies "), err
    assert " from edge (" in err and "under 1e-09 h" in err


def test_descending_rho_required(tmp_path):
    with pytest.raises(SchemaError):
        parse_config(BASE.format(out=tmp_path).replace("rho = 1e-2",
                                                       "rho = 1e-3 1e-2"))


@pytest.mark.parametrize("rho, clashing", [
    ("1.0002e-2 1.0001e-2 1e-3", "[0.010002, 0.010001]"),
    ("1e-2 1e-2 1e-3", "[0.01, 0.01]"),
], ids=["four-digits", "equal"])
def test_rho_values_sharing_a_report_name_rejected(tmp_path, capsys, rho, clashing):
    # sweep writes report_rho{rho:.3e} per rho: two such values wrote one file
    # twice and listed it twice in the manifest
    text = BASE.format(out=tmp_path / "out").replace("h = 0.05", "h = 0.1")
    with pytest.raises(SchemaError, match="agree to 4 significant digits") as exc:
        parse_config(text.replace("rho = 1e-2", f"rho = {rho}"))
    assert clashing in str(exc.value)
    assert main(["sweep", "--config", _write(tmp_path, text), "--rho", rho]) == 1
    assert clashing in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_field_csv_export(tmp_path, coarse_solution):
    path = tmp_path / "field.csv"
    write_field_csv(coarse_solution.u, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "node_id,x,y,value"
    assert len(lines) == 1 + coarse_solution.stage.mesh.n_nodes


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
    mesh = coarse_solution.stage.mesh
    odd_mesh = dataclasses.replace(
        mesh, nodes=np.column_stack([np.resize(AWKWARD, mesh.n_nodes),
                                     np.resize(AWKWARD[::-1], mesh.n_nodes)]))
    fields = [coarse_solution.u, coarse_solution.phi,
              types.SimpleNamespace(mesh=mesh, values=np.resize(AWKWARD, mesh.n_nodes)),
              types.SimpleNamespace(mesh=odd_mesh, values=np.resize(AWKWARD[3:], mesh.n_nodes))]
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

import csv
import dataclasses
import math
import weakref

import numpy as np
import pytest

import sinhpierce.corrector as corrector_mod
from sinhpierce.coeffs import BlowupConfig, choose_scales, compute_rho_i, constant_potential
from sinhpierce.corrector import (
    Run,
    SolveReport,
    SweepResult,
    construct_solution,
    continuation_sweep,
    farfield_error,
    farfield_sample_points,
    farfield_target,
    fixed_point_correct,
)
from sinhpierce.errors import (
    CoincidentPoints,
    Diverged,
    PointOutsideDomain,
    UnresolvableHole,
)
from sinhpierce.geometry import DomainSpec, MeshPolicy, _nearest_nodes, annulus_radius
from sinhpierce.greens import GreenProvider, NumericGreen
from sinhpierce.operators import (
    SUP_GUARD,
    DiscreteOperators,
    Field,
    get_ops,
    residual_R,
)

from conftest import BAD_RHOS, BAD_SETTINGS


def test_construct_solution_report(coarse_solution):
    r = coarse_solution.report
    assert r.status == "converged"
    assert r.iterations <= 50
    assert r.max_contraction_factor < 1.0
    assert r.relative_residual <= 1e-6
    # the discrete defect of u = U + phi sits at the iteration tail, far
    # below ten times the update tolerance relative to the data scale
    assert r.relative_residual <= 10 * 1e-10
    assert r.phi_sup < 0.05
    # the measured solver amplification ties the first iterate to the defect:
    # phi_1 = T(-R), so the first update equals amplification * ||R||_p
    p_ref = min(r.r_norms)
    assert r.updates_h01[0] == pytest.approx(r.amplification_T * r.r_norms[p_ref],
                                             rel=1e-12)


def test_peak_height_matches_scale_arithmetic(coarse_run, coarse_solution):
    # annulus maximum of the near-field form, maximized over the radius:
    # -2 log(d^a (2a/(a+2))) + ((a-2)/a) log(d^a (a-2)/(a+2)) + 2 pi rho_i
    s = coarse_solution.stage.scales
    rho_i = compute_rho_i(coarse_run.cfg, coarse_run.gp)
    alpha = 3.0
    da = s.delta_pow[0]
    want = -2 * math.log(da * 2 * alpha / (alpha + 2)) \
        + ((alpha - 2) / alpha) * math.log(da * (alpha - 2) / (alpha + 2)) \
        + 2 * math.pi * rho_i[0]
    assert coarse_solution.report.peaks[0] == pytest.approx(want, abs=0.1)
    # and agrees with the bubble-height scale log(2 a^2/delta^alpha) within ~25%
    bubble_peak = math.log(2 * alpha ** 2 / da)
    assert coarse_solution.report.peaks[0] == pytest.approx(bubble_peak, rel=0.25)


def test_farfield_value_single_bubble(coarse_run, coarse_solution, gp):
    # u(0.5, 0) ~ 10 pi G((0.5,0), 0) = 5 log 2
    err = farfield_error(coarse_run, coarse_solution.u, [(0.5, 0.0)])
    assert err <= 0.05
    target = farfield_target(coarse_run.cfg, gp, np.array([[0.5, 0.0]]))[0]
    assert target == pytest.approx(5 * math.log(2), rel=1e-12)


def _farfield_target_pointwise(cfg, gp, points):
    """Reference: the Green combination point by point through gp.green."""
    out = np.zeros(len(points))
    for n, p in enumerate(points):
        v = 0.0
        for i in range(cfg.m):
            g = gp.green(p, cfg.centers[i])
            coef = 2 * math.pi * (cfg.alphas[i] + 2)
            v += coef * g if i < cfg.m1 else -coef * g / cfg.tau
        out[n] = v
    return out


@pytest.mark.parametrize("domain", [DomainSpec(), DomainSpec(
    "boundary-curve", [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]])],
    ids=["disk", "square"])
def test_farfield_target_matches_pointwise_green(domain):
    # batched logs and regular parts give the bits of the per-point Green function
    gp = GreenProvider(domain)
    cfg = BlowupConfig(domain=domain, centers=[[-0.4, 0.0], [0.4, 0.1], [0.0, -0.45]],
                       alphas=[3.0, 2.5, 3.0], m1=1, tau=0.7,
                       V1=constant_potential(1.0), V2=constant_potential(1.0))
    eta = annulus_radius(domain, cfg.centers)
    rng = np.random.default_rng(5)
    pts = np.vstack([farfield_sample_points(cfg, eta), rng.uniform(-0.6, 0.6, size=(400, 2))])
    got = farfield_target(cfg, gp, pts)
    ref = _farfield_target_pointwise(cfg, gp, pts)
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    # the same conditions as green: outside the domain, on a center
    with pytest.raises(PointOutsideDomain):
        farfield_target(cfg, gp, np.vstack([pts[:3], [[0.95, 0.95]]]))
    with pytest.raises(CoincidentPoints):
        farfield_target(cfg, gp, np.vstack([pts[:3], cfg.centers[1] + [5e-15, 0.0]]))


def _centered_bubble(domain, center):
    return BlowupConfig(domain=domain, centers=[center], alphas=[3.0], m1=1, tau=1.0,
                        V1=constant_potential(1.0), V2=constant_potential(1.0))


def _square(lo, hi):
    (x0, y0), (x1, y1) = lo, hi
    return DomainSpec("boundary-curve", [[x0, y0], [x1, y0], [x1, y1], [x0, y1]])


def test_farfield_error_leaves_out_boundary_nodes():
    # [-0.5, 0.5]^2: the rings of radius 0.7 and 0.85 lie outside and half of
    # the 0.5 ring lies next to the boundary, so 40 of the 48 sample points
    # snap to boundary nodes; the other 8 measure a far field that falls
    # with rho
    cfg = _centered_bubble(_square((-0.5, -0.5), (0.5, 0.5)), [0.0, 0.0])
    run = Run(cfg, MeshPolicy(h=0.05))
    sw = continuation_sweep(run, [1e-2, 1e-3, 1e-4])
    errs = [r.farfield_error for r in sw.reports]
    assert errs[0] > 5 * errs[1] > 25 * errs[2] > 0
    sol = sw.solutions[-1]
    pts = farfield_sample_points(cfg, run.eta)
    measured = ~sol.stage.mesh.is_boundary[_nearest_nodes(sol.stage.mesh, pts)]
    assert len(pts) == 48 and measured.sum() == 8
    assert farfield_error(run, sol.u, pts[measured]) == errs[-1]
    assert math.isnan(farfield_error(run, sol.u, pts[~measured]))
    assert math.isnan(farfield_error(run, sol.u, np.empty((0, 2))))


def test_farfield_error_is_nan_with_no_interior_sample():
    # [2, 3] x [0, 1] holds none of the rings about the origin
    run = Run(_centered_bubble(_square((2.0, 0.0), (3.0, 1.0)), [2.5, 0.5]), MeshPolicy(h=0.05))
    rep = construct_solution(run, 1e-2).report
    assert rep.status == "converged"
    assert math.isnan(rep.farfield_error)


def test_newton_agrees_with_fixed_point(coarse_run, coarse_solution, newton):
    sol_n = newton(coarse_run, 1e-3)
    assert sol_n.converged
    assert np.abs(sol_n.u - coarse_solution.u.values).max() <= 1e-8
    # quadratic tail: the last Newton step shrinks much faster than linearly
    upd = sol_n.updates_h01
    if len(upd) >= 2 and upd[-2] > 1e-13:
        assert upd[-1] <= max(10 * upd[-2] ** 2 / max(upd[0], 1e-300), 1e-12)


def test_zero_defect_gives_zero_correction(coarse_run, monkeypatch):
    # force R = 0: the map phi -> T(-(R + N(phi))) fixes phi = 0 in one sweep
    st = coarse_run.stage(1e-3)
    monkeypatch.setitem(coarse_run._stages, 1e-3, dataclasses.replace(st, R=np.zeros_like(st.R)))
    sol = construct_solution(coarse_run, 1e-3)
    assert sol.report.iterations == 1
    assert np.abs(sol.phi.values).max() == 0.0


def test_fixed_point_rejects_maxiter_below_one(single_cfg, gp, coarse_policy, monkeypatch):
    # the Run refuses it, and every other setting its rule breaks, before it
    # checks the layout or starts the background mesh
    def not_reached(*args, **kwargs):
        raise AssertionError("reached past the settings check")

    monkeypatch.setattr(corrector_mod, "annulus_radius", not_reached)
    monkeypatch.setattr(corrector_mod, "prefetch_background", not_reached)
    for _, setting, message in BAD_SETTINGS.values():
        with pytest.raises(ValueError) as exc:
            Run(single_cfg, coarse_policy, gp, **setting)
        assert str(exc.value) == message, setting


def test_divergence_guard(single_cfg, gp, coarse_policy):
    # a grossly wrong ansatz (scaled up threefold, R its defect) breaks the contraction
    run = Run(single_cfg, coarse_policy, gp, maxiter=30)
    st = run.stage(1e-2)
    U = 3.0 * st.U.values
    run._stages[1e-2] = dataclasses.replace(st, U=Field(st.mesh, U), R=residual_R(
        U, st.lap_U, st.V, single_cfg.tau, st.scales.rho))
    with pytest.raises(Diverged):
        fixed_point_correct(run, 1e-2)


def test_sweep_full_run(coarse_run):
    sw = continuation_sweep(coarse_run, [1e-2, 1e-3, 1e-4])
    assert all(r.status == "converged" for r in sw.reports)
    assert not sw.insufficient_data
    assert sw.sigma_fits[1.01] > 0.5
    sups = [r.phi_sup for r in sw.reports]
    assert sups[0] > sups[1] > sups[2]


def test_sweep_single_entry_flagged(coarse_run):
    sw = continuation_sweep(coarse_run, [1e-3])
    assert sw.insufficient_data
    assert sw.sigma_fits == {}
    assert len(sw.reports) == 1


def test_sweep_isolates_failures(coarse_run, monkeypatch):
    real = corrector_mod.construct_solution
    calls = []

    def flaky(run, rho, **kw):
        calls.append(rho)
        if rho == 1e-3:
            raise UnresolvableHole("synthetic failure at the middle step")
        return real(run, rho, **kw)

    monkeypatch.setattr(corrector_mod, "construct_solution", flaky)
    sw = corrector_mod.continuation_sweep(coarse_run, [1e-2, 1e-3, 1e-4])
    statuses = [r.status for r in sw.reports]
    # an entry whose error carries no report is named after the error
    assert statuses == ["converged", "unresolvable-hole", "converged"]
    assert sw.reports[1].error != ""
    assert calls == [1e-2, 1e-3, 1e-4]


def test_failed_report_is_not_a_measurement(single_cfg, gp, coarse_policy, tmp_path,
                                            monkeypatch):
    # the middle entry is stopped after one step: a Diverged with its partial
    # report, whose unmeasured norms and signs must not read as values
    real = corrector_mod.fixed_point_correct

    def one_step_at_1e_3(run, rho, **kw):
        run.maxiter = 1 if rho == 1e-3 else corrector_mod.MAXITER
        return real(run, rho, **kw)

    rhos = [1e-2, 1e-3, 1e-4]
    plain = continuation_sweep(Run(single_cfg, coarse_policy, gp), rhos)
    monkeypatch.setattr(corrector_mod, "fixed_point_correct", one_step_at_1e_3)
    sw = continuation_sweep(Run(single_cfg, coarse_policy, gp), rhos)
    failed = sw.reports[1]
    assert failed.status == "diverged" and failed.iterations == 1
    for name in ("phi_sup", "phi_h01", "residual_l1", "data_scale_l1", "relative_residual"):
        assert math.isnan(getattr(failed, name)), name
    assert failed.inner_sign_ok is None
    failed.write(str(tmp_path / "failed"))
    text = (tmp_path / "failed.txt").read_text()
    assert "phi_sup nan\n" in text and "inner_sign_ok None\n" in text
    # the first report converged as in the plain sweep and keeps its lines
    # (two converged entries give no slope fit, so those lines drop out); the
    # warm-started last entry keeps amplification_T 0.0, as before
    plain.reports[0].write(str(tmp_path / "plain"))
    sw.reports[0].write(str(tmp_path / "forced"))
    want = [ln for ln in (tmp_path / "plain.txt").read_text().splitlines()
            if not ln.startswith("sigma_fit")]
    assert (tmp_path / "forced.txt").read_text().splitlines() == want
    assert sw.reports[2].inner_sign_ok is True
    assert sw.reports[2].amplification_T == 0.0 == plain.reports[2].amplification_T


def test_stage_releases_poisson_factor(single_cfg, gp, coarse_policy):
    # nothing solves a Poisson problem on a pierced mesh after the ansatz
    mesh = Run(single_cfg, coarse_policy, gp).stage(1e-2).mesh
    ops = get_ops(mesh)
    assert ops._poisson_lu is None
    # a later solve refactors, with the bits of an operator never released
    g = np.random.default_rng(5).standard_normal(len(ops.boundary))
    want = DiscreteOperators(mesh).solve_dirichlet(g)
    got = ops.solve_dirichlet(g)
    assert got.tobytes() == want.tobytes()


def test_failing_stage_is_prepared_once(disk, gp, coarse_policy, monkeypatch):
    # alpha = 2.5 at the origin: eps is 4.1e-13 at rho 1e-2, then 4.1e-17 at
    # 1e-3, below the hole-radius floor; the warm start's stage fails the entry
    cfg = BlowupConfig(domain=disk, centers=[[0.0, 0.0]], alphas=[2.5], m1=1, tau=1.0,
                       V1=constant_potential(1.0), V2=constant_potential(1.0))
    real = corrector_mod.choose_scales
    chosen = []

    def counted(cfg, rho, gp):
        chosen.append(rho)
        return real(cfg, rho, gp)

    monkeypatch.setattr(corrector_mod, "choose_scales", counted)
    sw = continuation_sweep(Run(cfg, coarse_policy, gp), [1e-2, 1e-3])
    assert [r.status for r in sw.reports] == ["converged", "unresolvable-hole"]
    assert sw.solutions[1] is None
    assert chosen == [1e-2, 1e-3]


def test_sweep_rejects_unsorted(coarse_run):
    with pytest.raises(ValueError):
        continuation_sweep(coarse_run, [1e-4, 1e-2])


@pytest.mark.parametrize("rho_list, message", [row[1:] for row in BAD_RHOS.values()],
                         ids=BAD_RHOS)
def test_refused_rho_list_prepares_no_stage(coarse_run, monkeypatch, rho_list, message):
    # the one rho rule: a refused list ends the sweep before its first stage,
    # and a refused single rho ends choose_scales and run.stage with the same
    # ValueError, not with a hole radius error
    real_stage, staged = Run.stage, []

    def counted(run, rho):
        staged.append(rho)
        return real_stage(run, rho)

    monkeypatch.setattr(Run, "stage", counted)
    with pytest.raises(ValueError) as exc:
        continuation_sweep(coarse_run, rho_list)
    assert type(exc.value) is ValueError and str(exc.value) == message
    assert staged == []
    if len(rho_list) == 1:
        for call in (choose_scales, lambda cfg, rho, gp: coarse_run.stage(rho)):
            with pytest.raises(ValueError) as exc:
                call(coarse_run.cfg, rho_list[0], coarse_run.gp)
            assert type(exc.value) is ValueError and str(exc.value) == message


def test_negative_liouville_case(disk, gp, coarse_policy):
    # m1 = 0 with V1 absent: all bubbles blow down
    cfg = BlowupConfig(domain=disk, centers=[[0.0, 0.0]], alphas=[3.0], m1=0,
                       tau=1.0, V1=None, V2=constant_potential(1.0))
    run = Run(cfg, coarse_policy, gp)
    sol = construct_solution(run, 1e-2)
    assert sol.report.status == "converged"
    st = sol.stage
    d = st.mesh.center_distance(0)
    inner = d <= math.sqrt(st.scales.eps[0] * run.eta)
    assert sol.u.values[inner].min() < -5
    assert sol.report.peaks[0] > 5  # peak records the signed magnitude


def test_report_serialization(tmp_path, coarse_solution):
    prefix = tmp_path / "rep"
    coarse_solution.report.write(str(prefix))
    text = open(f"{prefix}.txt").read()
    assert "status converged" in text
    assert "phi_sup" in text
    lines = open(f"{prefix}_iterations.csv").read().strip().splitlines()
    assert lines[0] == "step,update_h01,contraction_factor"
    assert len(lines) == 1 + coarse_solution.report.iterations


def test_run_keeps_one_linear_operator(single_cfg, gp, coarse_policy):
    # one Lap + W factor at a time: a new stage or another rho's operator
    # drops the one in the slot before it builds anything
    run = Run(single_cfg, coarse_policy, gp)
    L = run.linear_operator(1e-2)
    L.smallest_eigenvalue()
    assert L._lu is not None
    first = weakref.ref(L)
    del L
    # the same rho, or its already prepared stage, keeps the operator
    run.stage(1e-2)
    assert run.linear_operator(1e-2) is first()
    run.stage(1e-3)
    assert first() is None
    L = run.linear_operator(1e-3)
    L.smallest_eigenvalue()
    second = weakref.ref(L)
    del L
    run.linear_operator(1e-2)
    assert second() is None


_SQUARE = DomainSpec("boundary-curve", [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]])


def _square_pair_run(gp):
    cfg = BlowupConfig(domain=_SQUARE, centers=[[-0.4, 0.0], [0.4, 0.0]], alphas=[3.0, 3.0],
                       m1=1, tau=1.0, V1=constant_potential(1.0), V2=constant_potential(1.0))
    return Run(cfg, MeshPolicy(h=0.05), gp)


def smallest_eigenvalue_per_step(L, iters=8, seed=1234):
    """Reference: the inverse-power loop with a Rayleigh quotient after every step."""
    lu = L._factor()
    wI = L._ops.w[L._ops.interior]
    x = np.random.default_rng(seed).standard_normal(len(L._ops.interior))
    lam = np.inf
    for _ in range(iters):
        y = lu.solve(wI * x)
        ny = np.sqrt(np.sum(wI * y * y))
        if not np.isfinite(ny) or ny == 0:
            break
        x = y / ny
        lam = float(x @ (L.matrix @ x)) / float(np.sum(wI * x * x))
    return lam


class _ZeroSolveAt:
    """A factor whose solve returns zeros at one step, which ends the loop there."""

    def __init__(self, lu, step):
        self.lu, self.step, self.calls = lu, step, 0

    def solve(self, b):
        self.calls += 1
        return np.zeros_like(b) if self.calls == self.step else self.lu.solve(b)


@pytest.mark.parametrize("domain", ["disk", "square"])
def test_one_rayleigh_quotient_per_estimate(domain, single_cfg, gp, coarse_policy):
    run = (Run(single_cfg, coarse_policy, gp) if domain == "disk"
           else _square_pair_run(NumericGreen(_SQUARE, h=0.1)))
    for rho in (1e-2, 1e-3):
        L = run.linear_operator(rho)
        lu = L._factor()
        # no break; a break at step 3 (the quotient of step 2); a break at
        # the first step (no quotient: inf)
        for step, finite in ((None, True), (3, True), (1, False)):
            if step is not None:
                L._factor = lambda step=step: _ZeroSolveAt(lu, step)
            L._eig_estimate = None
            want = smallest_eigenvalue_per_step(L)
            got = L.smallest_eigenvalue()
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), step
            assert math.isfinite(got) == finite, step


def test_first_stage_drops_the_green_domain_operators():
    # the first stage's pair table caches H(., xi_k) for every center; the
    # numeric Green function's domain operators and Poisson factor then go,
    # and the later stages, which ask for no new H, do not bring them back
    ng = NumericGreen(_SQUARE, h=0.1)
    domain_ops = weakref.ref(get_ops(ng.mesh))
    run = _square_pair_run(ng)
    run.stage(1e-2)
    assert ng.mesh.ops is None
    assert domain_ops() is None
    assert sorted(ng._h_fields) == [(-0.4, 0.0), (0.4, 0.0)]
    run.stage(1e-3)
    construct_solution(run, 1e-3)
    assert ng.mesh.ops is None


def test_sweep_keeps_only_the_current_stage_operators():
    # moving to the next rho drops the finished stage's operators (K, K_II,
    # K_IB) along with its Lap + W; asking for that stage again rebuilds them
    # with the same bits
    run = _square_pair_run(NumericGreen(_SQUARE, h=0.1))
    cached, refs = [], {}

    def after(rho):
        # the stages' meshes, and the Green function's domain mesh, with operators
        cached.append(([r for r, st in run._stages.items() if st.mesh.ops is not None],
                       run.gp.mesh.ops is not None))
        refs[rho] = weakref.ref(get_ops(run.stage(rho).mesh))

    sw = continuation_sweep(run, [1e-2, 1e-3, 1e-4], after_rho=after)
    assert [r.status for r in sw.reports] == ["converged"] * 3
    assert cached == [([1e-2], False), ([1e-3], False), ([1e-4], False)]
    assert refs[1e-2]() is None and refs[1e-3]() is None and refs[1e-4]() is not None
    # the first entry started from phi = 0, as a fresh construction does
    again = construct_solution(run, 1e-2)
    assert refs[1e-4]() is None
    first = sw.solutions[0]
    assert again.u.values.tobytes() == first.u.values.tobytes()
    again.report.sigma_fits = first.report.sigma_fits   # a sweep-level fit
    assert again.report.records() == first.report.records()


@pytest.mark.parametrize("solver", [fixed_point_correct], ids=["fixed-point"])
def test_sup_guard_keeps_the_partial_report(coarse_run, solver, monkeypatch):
    # an iterate past the sup guard, phi0 included, stops the solver before
    # a step takes exponentials of it; the Diverged it raises carries the
    # report with what was measured before the loop
    mesh = coarse_run.stage(1e-3).mesh
    big = Field(mesh, np.where(mesh.is_boundary, 0.0, 2 * SUP_GUARD))
    with pytest.raises(Diverged) as info:
        solver(coarse_run, 1e-3, big)
    rep = info.value.report
    assert rep.status == "diverged" and "sup norm" in rep.error
    assert rep.iterations == 0 and rep.updates_h01 == []
    assert np.isfinite(rep.smallest_eigenvalue)
    assert sorted(rep.r_norms) == [1.01, 1.1, 1.3]
    assert all(np.isfinite(v) for v in rep.r_norms.values())

    # and a sweep entry keeps that report, not an empty stub
    def from_big(run, rho, **kw):
        return solver(run, rho, **{**kw, "phi0": big})

    monkeypatch.setattr(corrector_mod, solver.__name__, from_big)
    sw = continuation_sweep(coarse_run, [1e-3])
    entry = sw.reports[0]
    assert sw.solutions == [None]
    assert entry.status == "diverged" and "sup norm" in entry.error
    assert ("method", "fixed-point") in entry.records()
    assert entry.smallest_eigenvalue == rep.smallest_eigenvalue
    assert entry.r_norms == rep.r_norms


def test_fixed_point_uses_the_runs_operator(single_cfg, gp, coarse_policy):
    # the correction factors run.linear_operator(rho) and estimates its
    # eigenvalue once; the estimate stays cached on the operator
    run = Run(single_cfg, coarse_policy, gp)
    sol = construct_solution(run, 1e-2)
    L = run.linear_operator(1e-2)
    assert L._lu is not None
    assert L._eig_estimate == sol.report.smallest_eigenvalue
    # and gives the bits of a fresh run's operator
    own = fixed_point_correct(Run(single_cfg, coarse_policy, gp), 1e-2)[0]
    assert own.values.tobytes() == sol.phi.values.tobytes()


def test_near_singular_entries_keep_their_report(single_cfg, gp, coarse_policy,
                                                 monkeypatch):
    # every operator reads as resonant: each entry is reported near-singular
    # with the eigenvalue that tripped the floor, not as a diverged stub
    monkeypatch.setattr(corrector_mod, "EIG_FLOOR", 1e9)
    sw = continuation_sweep(Run(single_cfg, coarse_policy, gp), [1e-2, 1e-3, 1e-4])
    for rep in sw.reports:
        assert rep.status == "near-singular"
        assert math.isfinite(rep.smallest_eigenvalue)
        assert "resonance" in rep.error
        assert rep.iterations == 0
        assert rep.r_norms == {}
    assert sw.solutions == [None, None, None]


def test_negative_bubble_tau_two(disk, gp):
    # the negative-group scale carries tau: a single negative bubble at tau = 2
    # converges, and its far field approaches -(2 pi (alpha + 2) / tau) G about
    # tenfold per decade of rho
    cfg = BlowupConfig(domain=disk, centers=[[0.0, 0.0]], alphas=[3.0], m1=0, tau=2.0,
                       V1=constant_potential(1.0), V2=constant_potential(1.0))
    sw = continuation_sweep(Run(cfg, MeshPolicy(h=0.05), gp), [1e-2, 1e-3, 1e-4])
    assert [r.status for r in sw.reports] == ["converged"] * 3
    assert all(r.max_contraction_factor < 1 for r in sw.reports)
    assert all(r.inner_sign_ok for r in sw.reports)
    ff = [r.farfield_error for r in sw.reports]
    assert ff[-1] < 1e-3
    for a, b in zip(ff, ff[1:]):
        assert 5 < a / b < 20


def _sweep_rows_dictwriter(sw, path):
    """The sweep CSV as csv.DictWriter wrote it before SweepResult.write_csv."""
    rows = []
    for rep in sw.reports:
        rows.append({
            "rho": rep.rho, "status": rep.status, "iterations": rep.iterations,
            "max_contraction_factor": rep.max_contraction_factor,
            "phi_sup": rep.phi_sup, "phi_h01": rep.phi_h01,
            "relative_residual": rep.relative_residual,
            "farfield_error": rep.farfield_error,
            "peaks": " ".join(f"{p:.6g}" for p in rep.peaks),
            "kernel_coefficients": " ".join(f"{a:.6g}" for a in rep.kernel_coefficients),
            "r_norms": " ".join(f"{p}:{v:.6g}" for p, v in sorted(rep.r_norms.items())),
            "error": rep.error,
        })
    with open(path, "w", newline="") as f:
        wr = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        wr.writeheader()
        wr.writerows(rows)


def test_sweep_csv_bytes(tmp_path):
    ok = SolveReport(rho=1e-2, iterations=4, contraction_factors=[0.1, 0.03],
                     phi_sup=1 / 3, phi_h01=2e-7, relative_residual=5e-324,
                     farfield_error=0.1, peaks=[12.5, -3.25e-9],
                     kernel_coefficients=[1 / 7], r_norms={1.01: 0.4, 1.3: 1e300})
    failed = SolveReport(rho=1e-3, status="near-singular", smallest_eigenvalue=-2.0,
                         error='resonance, "quoted"\nsecond line')
    sw = SweepResult(solutions=[None, None], reports=[ok, failed], sigma_fits={})
    sw.write_csv(tmp_path / "new.csv")
    _sweep_rows_dictwriter(sw, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


# --- regime matrix (unit disk, h = 0.05) -------------------------------------

_SINGLE = [[0.0, 0.0]]
_PAIR = [[-0.4, 0.0], [0.4, 0.0]]


def _regime_sweep(disk, gp, centers, m1, tau):
    cfg = BlowupConfig(domain=disk, centers=centers, alphas=[3.0] * len(centers), m1=m1,
                       tau=tau, V1=constant_potential(1.0), V2=constant_potential(1.0))
    return continuation_sweep(Run(cfg, MeshPolicy(h=0.05), gp), [1e-3, 1e-4])


def _assert_paper_structure(sw):
    """Convergence with a contraction, a defect and a far-field error that
    fall with rho (the latter more than fivefold per decade), and the signs
    of the bubbles in the inner regions."""
    assert [r.status for r in sw.reports] == ["converged"] * len(sw.reports), \
        [r.error for r in sw.reports]
    assert all(r.max_contraction_factor < 1 for r in sw.reports)
    assert all(r.inner_sign_ok for r in sw.reports)
    for a, b in zip(sw.reports, sw.reports[1:]):
        assert b.r_norms[1.01] < a.r_norms[1.01]
        assert a.farfield_error > 5 * b.farfield_error


@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("centers, m1", [(_SINGLE, 1), (_SINGLE, 0), (_PAIR, 1)],
                         ids=["positive", "negative", "mixed-pair"])
def test_regime_matrix(disk, gp, centers, m1, tau):
    _assert_paper_structure(_regime_sweep(disk, gp, centers, m1, tau))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="same-sign pairs diverge at these rho (ROADMAP item 2)")
@pytest.mark.parametrize("m1", [2, 0], ids=["positive-pair", "negative-pair"])
def test_regime_matrix_same_sign_pair(disk, gp, m1):
    _assert_paper_structure(_regime_sweep(disk, gp, _PAIR, m1, 1.0))


# --- regime matrix, square slice (h = 0.05, numeric Green function) ----------

@pytest.fixture(scope="module")
def square_gp():
    # one provider, as the CLI builds it, for every cell: each new layout
    # solves its centers' H on the domain mesh after the last run dropped
    # the domain operators
    return GreenProvider(_SQUARE)


# the h = 0.05 mesh is not nested in the h = 0.02 Green mesh: its boundary
# nodes take H's Dirichlet data, not the interpolant (bubbles.regular_parts)
@pytest.mark.parametrize("centers, m1, tau", [
    pytest.param(centers, m1, tau, id=f"{name}-{tau}")
    for name, centers, m1 in (("positive", _SINGLE, 1), ("negative", _SINGLE, 0),
                              ("mixed-pair", _PAIR, 1))
    for tau in (0.5, 1.0, 2.0)])
def test_regime_matrix_square(square_gp, centers, m1, tau):
    _assert_paper_structure(_regime_sweep(_SQUARE, square_gp, centers, m1, tau))

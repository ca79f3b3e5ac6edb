"""Correction of the ansatz to a discrete solution u = U + phi.

The correction iterates the contraction map phi -> T(-(R + N(phi))) from
phi = 0 (or a warm start), where T inverts the linearized operator with zero
boundary data. One loop, fixed_point_correct, keeps the report, the sup-norm
guard and the stopping rule.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .bubbles import build_ansatz, kernel_coefficient, semianalytic_laplacian_U
from .coeffs import choose_scales, coefficient_set
from .errors import Diverged, InsufficientSamples, MeshMismatch, NearSingular, SinhPierceError
from .geometry import (
    TWO_PI,
    FieldEvaluator,
    MeshPolicy,
    _nearest_nodes,
    annulus_radius,
    build_mesh,
    check_radii,
    prefetch_background,
)
from .greens import GreenProvider
from .operators import (
    EIG_FLOOR,
    SUP_GUARD,
    Field,
    LinearOperator,
    get_ops,
    nonlinear_N,
    release_ops,
    residual_R,
    weight_W,
)

# correction defaults, parse_config's too: stopping tolerance, iteration cap, Lp exponents
TOL, MAXITER, P_NORMS = 1e-10, 50, (1.01, 1.1, 1.3)


@dataclass
class SolveReport:
    """Everything measured during one correction run (plus sweep-level fits)."""

    rho: float = 0.0
    status: str = "converged"
    iterations: int = 0
    contraction_factors: list = field(default_factory=list)
    updates_h01: list = field(default_factory=list)
    # measured only on convergence: nan (and None for the signs) otherwise
    phi_sup: float = float("nan")
    phi_h01: float = float("nan")
    residual_l1: float = float("nan")
    data_scale_l1: float = float("nan")
    relative_residual: float = float("nan")
    r_norms: dict = field(default_factory=dict)       # p -> ||R||_p before correction
    amplification_T: float = 0.0                      # ||phi_1|| / ||R||_p
    smallest_eigenvalue: float = float("nan")
    peaks: list = field(default_factory=list)         # signed peak height per annulus
    inner_sign_ok: bool | None = None
    farfield_error: float = float("nan")
    kernel_coefficients: list = field(default_factory=list)
    sigma_fits: dict = field(default_factory=dict)    # p -> fitted slope (sweep level)
    error: str = ""

    @property
    def max_contraction_factor(self):
        return max(self.contraction_factors) if self.contraction_factors else 0.0

    def records(self):
        ordered = [
            ("rho", self.rho), ("method", "fixed-point"), ("status", self.status),
            ("iterations", self.iterations),
            ("max_contraction_factor", self.max_contraction_factor),
            ("phi_sup", self.phi_sup), ("phi_h01", self.phi_h01),
            ("residual_l1", self.residual_l1), ("data_scale_l1", self.data_scale_l1),
            ("relative_residual", self.relative_residual),
            ("amplification_T", self.amplification_T),
            ("smallest_eigenvalue", self.smallest_eigenvalue),
            ("farfield_error", self.farfield_error),
            ("inner_sign_ok", self.inner_sign_ok),
            ("error", self.error),
        ]
        for p, v in sorted(self.r_norms.items()):
            ordered.append((f"r_norm_p{p}", v))
        for i, v in enumerate(self.peaks):
            ordered.append((f"peak_{i + 1}", v))
        for i, v in enumerate(self.kernel_coefficients):
            ordered.append((f"kernel_a_{i + 1}", v))
        for p, v in sorted(self.sigma_fits.items()):
            ordered.append((f"sigma_fit_p{p}", v))
        return ordered

    def write(self, path_prefix):
        with open(f"{path_prefix}.txt", "w") as f:
            for k, v in self.records():
                f.write(f"{k} {v}\n")
        with open(f"{path_prefix}_iterations.csv", "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(["step", "update_h01", "contraction_factor"])
            for i, upd in enumerate(self.updates_h01):
                fac = self.contraction_factors[i - 1] if 0 < i <= len(self.contraction_factors) else ""
                wr.writerow([i + 1, f"{upd:.17g}", fac])


def _check_resonance(report, L):
    """Record the smallest eigenvalue of L; refuse to solve near resonance."""
    lam = L.smallest_eigenvalue()
    report.smallest_eigenvalue = lam
    if abs(lam) < EIG_FLOOR:
        report.status = "near-singular"
        report.error = f"linearized operator near resonance, |lambda| ~ {abs(lam):.3e}"
        raise NearSingular(report.error, report=report)


def _defect(phi, st, cfg):
    """Discrete defect residual_R of u = U + phi, zero on the boundary, with
    Lap u = lap_U + Lap phi (lap_U the stage's)."""
    ops = get_ops(st.mesh)
    res = residual_R(st.U.values + phi.values, st.lap_U + ops.laplacian(phi.values),
                     st.V, cfg.tau, st.scales.rho)
    res[ops.boundary] = 0.0
    return res


def _diverged(report, message):
    report.status = "diverged"
    report.error = message
    raise Diverged(message, report=report)


def _finish(report, phi, st, cfg):
    """Mark the run converged and fill in the norms of phi and the discrete
    defect of u = U + phi relative to the data scale, both in L1."""
    ops = get_ops(st.mesh)
    v1, v2 = st.V
    u = st.U.values + phi.values
    data = st.scales.rho * (v1 * np.exp(u) + v2 * np.exp(-cfg.tau * u))
    report.status = "converged"
    report.phi_sup = ops.norm_sup(phi.values)
    report.phi_h01 = ops.norm_h01(phi.values)
    report.residual_l1 = ops.norm_lp(_defect(phi, st, cfg), 1)
    report.data_scale_l1 = ops.norm_lp(data, 1)
    report.relative_residual = report.residual_l1 / max(report.data_scale_l1, 1e-300)
    return phi, report


def fixed_point_correct(run: Run, rho, phi0=None) -> tuple[Field, SolveReport]:
    """Iterate phi -> T(-(R + N(phi))) from phi0 (or 0) until the update stalls.

    The ansatz U and its defect R are run.stage(rho)'s, and phi0 must live
    on that stage's mesh (else MeshMismatch). L = Lap + W at U is
    run.linear_operator(rho), whose factor and eigenvalue estimate are
    reused; the report keeps the eigenvalue and the Lp norms of R at
    run.p_norms. Each iterate phi must stay within SUP_GUARD in sup norm
    before the step takes exponentials of it. The loop stops once an update
    falls below run.tol relative to the H1_0 norm of the iterate, and raises
    Diverged, with the partial report, if the guard trips, N(phi) overflows
    or run.maxiter steps do not get there.
    """
    st, cfg = run.stage(rho), run.cfg
    mesh, U, R, scales = st.mesh, st.U, st.R, st.scales
    if phi0 is not None and phi0.mesh is not mesh:
        raise MeshMismatch("phi0 lives on another mesh than the stage's")
    L = run.linear_operator(rho)
    ops = get_ops(mesh)
    report = SolveReport(rho=scales.rho)
    _check_resonance(report, L)
    for p in run.p_norms:
        report.r_norms[p] = ops.norm_lp(R, p)

    phi = phi0 if phi0 is not None else Field(mesh, np.zeros(mesh.n_nodes))
    prev_update = None
    for it in range(run.maxiter):
        sup = ops.norm_sup(phi.values)
        if sup > SUP_GUARD:
            _diverged(report, f"sup norm {sup:.3g} exceeded the guard")
        N = nonlinear_N(phi.values, U.values, st.V, cfg.tau, scales.rho)
        if not np.all(np.isfinite(N)):
            _diverged(report, f"N(phi) is not finite at sup norm {sup:.3g} (tau {cfg.tau:.6g})")
        new = L.solve(-(R + N))
        upd = ops.norm_h01(new.values - phi.values)
        report.updates_h01.append(upd)
        if it == 0 and phi0 is None:
            p_ref = min(report.r_norms)
            report.amplification_T = ops.norm_h01(new.values) / max(report.r_norms[p_ref], 1e-300)
        if prev_update is not None and prev_update > 0:
            report.contraction_factors.append(upd / prev_update)
        prev_update = upd
        phi = new
        report.iterations = it + 1
        if upd < run.tol * max(1.0, ops.norm_h01(phi.values)):
            return _finish(report, phi, st, cfg)
    _diverged(report, f"no convergence in {run.maxiter} iterations "
                      f"(last update {prev_update:.3e})")


# ---------------------------------------------------------------------------
# end-to-end construction

@dataclass(frozen=True)
class Stage:
    """What the construction fixes at one rho before any correction."""

    scales: object
    mesh: object
    coeffs: object
    U: Field
    projections: tuple   # projected bubbles in make_bubbles order; U is their signed sum
    lap_U: np.ndarray    # Lap U at the nodes, from the bubble sources; read-only
    V: tuple             # (V1, V2) at the nodes, checked by the potentials' rule; read-only
    R: np.ndarray        # the ansatz defect residual_R of U; read-only


class Run:
    """One command's problem, mesh policy, Green function and solver settings
    (tol, maxiter, p_norms: see fixed_point_correct; maxiter < 1 is refused
    before anything starts).

    The hole centers are fixed for the whole run: the constructor checks
    their layout and fixes the annulus radius eta (annulus_radius), so an
    invalid layout raises here, before anything is built.

    stage(rho) prepares each rho once (scales, hole radii, mesh, V,
    coefficients, U and R); every later call, from the solver or from a
    check, gets the same Stage and so the same mesh and operators.
    linear_operator(rho) is the solver T = (Lap + W)^-1 at rho's ansatz, shared
    by the fixed point and the solver-bound check. Only one is kept: asking for
    another rho, or preparing a new stage, drops it first, together with its
    stage's operators, so no two Lap + W factors (nor one and a new Poisson
    factor) are alive at once. A later call for a dropped rho rebuilds them,
    bit for bit.

    Every stage shares one background mesh, which the Run starts on its own
    thread here and holds as a Future: the Green function, the scales and any
    analytic check run while it builds; the first build_mesh waits for it.
    """

    def __init__(self, cfg, policy: MeshPolicy | None = None, gp: GreenProvider | None = None,
                 tol=TOL, maxiter=MAXITER, p_norms=P_NORMS):
        if maxiter < 1:
            raise ValueError(f"maxiter must be at least 1, got {maxiter}")
        self.cfg = cfg
        self.tol, self.maxiter, self.p_norms = tol, maxiter, tuple(p_norms)
        self.policy = policy or MeshPolicy()
        self.eta = annulus_radius(cfg.domain, cfg.centers)
        self._background = prefetch_background(cfg.domain, cfg.centers, self.eta, self.policy)
        self.gp = gp or GreenProvider(cfg.domain)
        self._stages = {}
        self._linear = None   # (rho, LinearOperator) or None

    def stage(self, rho) -> Stage:
        if rho not in self._stages:
            self._release_linear()
            cfg, gp = self.cfg, self.gp
            scales = choose_scales(cfg, rho, gp)
            check_radii(scales.eps, self.eta)
            mesh = build_mesh(self._background, scales.eps)
            V = cfg.potentials_at(mesh.nodes, "node")
            coeffs = coefficient_set(cfg, scales, gp)
            U, projections = build_ansatz(cfg, scales, mesh, coeffs=coeffs, gp=gp)
            # the projections were the last Poisson solves on this mesh
            get_ops(mesh).release_poisson_factor()
            lap_U = semianalytic_laplacian_U(cfg, scales, mesh)
            lap_U.setflags(write=False)
            R = residual_R(U.values, lap_U, V, cfg.tau, scales.rho)
            R.setflags(write=False)
            self._stages[rho] = Stage(scales=scales, mesh=mesh, coeffs=coeffs, U=U,
                                      projections=projections, lap_U=lap_U, V=V, R=R)
        return self._stages[rho]

    def linear_operator(self, rho) -> LinearOperator:
        if self._linear is None or self._linear[0] != rho:
            self._release_linear()
            st = self.stage(rho)
            W = weight_W(st.U.values, st.V, self.cfg.tau, st.scales.rho)
            self._linear = (rho, LinearOperator(st.mesh, W))
        return self._linear[1]

    def _release_linear(self):
        """Drop the current Lap + W and the operators of its stage."""
        if self._linear is not None:
            release_ops(self._stages[self._linear[0]].mesh)
            self._linear = None


@dataclass
class Solution:
    """Converged run at one rho: u = U + phi, its report, and the Stage that
    holds U, the scales, the mesh and the coefficients."""

    stage: Stage
    u: Field
    phi: Field
    report: SolveReport


def farfield_target(cfg, gp, points):
    """Green combination the solution approaches away from the holes."""
    out = np.zeros(np.atleast_2d(points).shape[0])
    for i in range(cfg.m):
        g = gp.green_many(points, cfg.centers[i])
        out += cfg.weigh(i, TWO_PI * (cfg.alphas[i] + 2) * g)
    return out


def farfield_error(run: Run, u: Field, points) -> float:
    """Largest |u - Green combination| at the mesh nodes nearest to the points.

    A point whose nearest node lies on the boundary is not measured: there u
    and the Green combination both vanish, whatever the far field does. With
    no point left the error is nan.
    """
    mesh = u.mesh
    nodes = _nearest_nodes(mesh, np.asarray(points, dtype=float).reshape(-1, 2))
    nodes = nodes[~mesh.is_boundary[nodes]]
    if not len(nodes):
        return float("nan")
    # compare field and target at the nearest nodes: same physical points,
    # so no interpolation error enters the measurement
    target = farfield_target(run.cfg, run.gp, mesh.nodes[nodes])
    return float(np.abs(u.values[nodes] - target).max())


def farfield_sample_points(cfg, eta):
    """Deterministic sample points, 16 per ring of radius 0.5, 0.7 and 0.85, at
    distance > 1.05 eta from every center."""
    pts = []
    for rad in (0.5, 0.7, 0.85):
        for k in range(16):
            th = TWO_PI * (k + 0.5) / 16
            p = np.array([rad * math.cos(th), rad * math.sin(th)])
            d = np.hypot(p[0] - cfg.centers[:, 0], p[1] - cfg.centers[:, 1])
            if np.all(d > eta * 1.05):
                pts.append(p)
    return np.asarray(pts)


def construct_solution(run: Run, rho, phi0=None) -> Solution:
    """Correct the prepared ansatz at rho, from phi0 (a Field on its mesh) or 0."""
    cfg, eta = run.cfg, run.eta
    st = run.stage(rho)
    scales, mesh, U = st.scales, st.mesh, st.U
    phi, report = fixed_point_correct(run, rho, phi0=phi0)
    u = Field(mesh, U.values + phi.values)

    # annulus peaks and inner-region signs
    report.peaks = []
    report.inner_sign_ok = True
    for i in range(cfg.m):
        d = mesh.center_distance(i)
        ann = (d <= eta) & (d >= scales.eps[i] * 0.999999)
        sign = cfg.sign(i)
        vals = sign * u.values[ann]
        report.peaks.append(float(vals.max()))
        inner = ann & (d <= math.sqrt(scales.eps[i] * eta))
        if np.any(inner) and not (sign * u.values[inner]).max() > 0:
            report.inner_sign_ok = False

    report.farfield_error = farfield_error(run, u, farfield_sample_points(cfg, eta))
    report.kernel_coefficients = [
        kernel_coefficient(phi, cfg, scales, j) for j in range(cfg.m)
    ]
    return Solution(stage=st, u=u, phi=phi, report=report)


SLOPE_SAMPLES = 3   # fewest samples log_slope fits a line through


def log_slope(rhos, values) -> float:
    """Slope of the least-squares line through (log rho, log value), from at
    least SLOPE_SAMPLES samples."""
    if len(rhos) < SLOPE_SAMPLES:
        raise InsufficientSamples(
            f"need >= {SLOPE_SAMPLES} samples for a slope fit, got {len(rhos)}")
    x = np.log(np.asarray(rhos, dtype=float))
    return float(np.polyfit(x, np.log(np.asarray(values, dtype=float)), 1)[0])


@dataclass
class SweepResult:
    solutions: list           # Solution or None per entry
    reports: list             # SolveReport per entry (failures get a stub)
    sigma_fits: dict          # p -> fitted residual slope, from converged entries
    insufficient_data: bool = False

    def write_csv(self, path):
        """One summary row per rho: status, norms, peaks, kernel coefficients."""
        with open(path, "w", newline="") as f:
            wr = csv.writer(f)
            wr.writerow(["rho", "status", "iterations", "max_contraction_factor", "phi_sup",
                         "phi_h01", "relative_residual", "farfield_error", "peaks",
                         "kernel_coefficients", "r_norms", "error"])
            for rep in self.reports:
                wr.writerow([
                    rep.rho, rep.status, rep.iterations, rep.max_contraction_factor,
                    rep.phi_sup, rep.phi_h01, rep.relative_residual, rep.farfield_error,
                    " ".join(f"{p:.6g}" for p in rep.peaks),
                    " ".join(f"{a:.6g}" for a in rep.kernel_coefficients),
                    " ".join(f"{p}:{v:.6g}" for p, v in sorted(rep.r_norms.items())),
                    rep.error])


def continuation_sweep(run: Run, rho_list, after_rho=None) -> SweepResult:
    """Run the construction at each rho (descending), warm-starting phi.

    A SinhPierceError, from the warm start or the construction, fails only
    its entry, whose stage is then prepared once. The entry keeps the report
    the error carries, or else gets a stub whose status names the error class.
    after_rho(rho), if given, is called once each entry is recorded, while
    rho's operator is still run's current one; what it raises is not a failed
    entry but ends the sweep.
    """
    rho_list = list(rho_list)
    if sorted(rho_list, reverse=True) != rho_list:
        raise ValueError("rho list must be sorted descending")
    solutions, reports = [], []
    prev = None
    for rho in rho_list:
        try:
            phi0 = None
            if prev is not None:
                mesh = run.stage(rho).mesh
                vals = FieldEvaluator(prev.stage.mesh)(prev.phi.values, mesh.nodes)
                vals[mesh.is_boundary] = 0.0
                phi0 = Field(mesh, vals)
            sol = construct_solution(run, rho, phi0=phi0)
            solutions.append(sol)
            reports.append(sol.report)
            prev = sol
        except SinhPierceError as exc:
            stub = getattr(exc, "report", None) or SolveReport(
                rho=rho,
                status=re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower())
            stub.error = stub.error or str(exc)
            solutions.append(None)
            reports.append(stub)
        if after_rho is not None:
            after_rho(rho)

    sigma_fits = {}
    good = [r for r in reports if r.status == "converged"]
    insufficient = len(good) < SLOPE_SAMPLES
    if not insufficient:
        rhos = [r.rho for r in good]
        sigma_fits = {p: log_slope(rhos, [r.r_norms[p] for r in good]) for p in run.p_norms}
        for r in reports:
            r.sigma_fits = dict(sigma_fits)
    return SweepResult(solutions=solutions, reports=reports,
                       sigma_fits=sigma_fits, insufficient_data=insufficient)

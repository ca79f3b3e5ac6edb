"""Correction of the ansatz to a discrete solution u = U + phi.

The primary route iterates the contraction map phi -> T(-(R + N(phi))) from
phi = 0, where T inverts the linearized operator with zero boundary data.
A plain Newton iteration on the same discrete system provides an independent
second solver; both converge to the same discrete root, which is what the
agreement checks exploit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .bubbles import build_ansatz
from .coeffs import choose_scales, coefficient_set
from .errors import Diverged, NearSingular, OverflowGuard, SinhPierceError
from .geometry import (
    FieldEvaluator,
    MeshPolicy,
    PierceSpec,
    build_mesh,
    build_pierced_domain,
    prefetch_background,
)
from .greens import GreenProvider
from .operators import (
    DIRICHLET_ZERO,
    EIG_FLOOR,
    SUP_GUARD,
    Field,
    LinearOperator,
    _potential_values,
    get_ops,
    nonlinear_N,
    release_ops,
    residual_R,
    semianalytic_laplacian_U,
    weight_W,
)


@dataclass
class SolveReport:
    """Everything measured during one correction run (plus sweep-level fits)."""

    rho: float = 0.0
    method: str = "fixed-point"
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
            ("rho", self.rho), ("method", self.method), ("status", self.status),
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
        raise NearSingular(report.error, eigenvalue=lam, report=report)


def _guard_sup(report, ops, phi):
    """Stop with the partial report once phi leaves the sup-norm guard."""
    if ops.norm_sup(phi) > SUP_GUARD:
        report.status = "diverged"
        report.error = f"sup norm {ops.norm_sup(phi):.3g} exceeded the guard"
        raise Diverged(report.error, report=report)


def _finish(report, phi, U, cfg, scales):
    """Mark the run converged and fill in the norms of phi and the discrete
    defect of u = U + phi relative to the data scale, both in L1."""
    mesh = U.mesh
    ops = get_ops(mesh)
    u = U.values + phi.values
    v1, v2 = _potential_values(cfg, mesh)
    rho, tau = scales.rho, cfg.tau
    lap = semianalytic_laplacian_U(cfg, scales, mesh) + ops.laplacian(phi).values
    res = lap + rho * (v1 * np.exp(u) - v2 * np.exp(-tau * u))
    res[ops.boundary] = 0.0
    data = rho * (v1 * np.exp(u) + v2 * np.exp(-tau * u))
    report.status = "converged"
    report.phi_sup = ops.norm_sup(phi)
    report.phi_h01 = ops.norm_h01(phi)
    report.residual_l1 = ops.norm_lp(res, 1)
    report.data_scale_l1 = ops.norm_lp(data, 1)
    report.relative_residual = report.residual_l1 / max(report.data_scale_l1, 1e-300)
    return phi, report


def fixed_point_correct(U: Field, cfg, scales, tol=1e-10, maxiter=50,
                        phi0=None, p_norms=(1.01, 1.1, 1.3),
                        L: LinearOperator | None = None) -> tuple[Field, SolveReport]:
    """Iterate phi -> T(-(R + N(phi))) from phi = 0 until the update stalls.

    L, if given, is Lap + W(U) already built (Run.linear_operator); its
    factor and eigenvalue estimate are reused.
    """
    mesh = U.mesh
    ops = get_ops(mesh)
    report = SolveReport(rho=scales.rho, method="fixed-point")
    if L is None:
        L = LinearOperator(mesh, weight_W(U, cfg, scales))
    _check_resonance(report, L)
    R = residual_R(U, cfg, scales)
    for p in p_norms:
        report.r_norms[p] = ops.norm_lp(R, p)

    phi = phi0.copy() if phi0 is not None else Field(mesh, np.zeros(mesh.n_nodes),
                                                     DIRICHLET_ZERO)
    prev_update = None
    for it in range(maxiter):
        try:
            N = nonlinear_N(phi, U, cfg, scales)
        except OverflowGuard as exc:
            report.status = "diverged"
            report.error = str(exc)
            exc.report = report
            raise
        new = L.solve(Field(mesh, -(R.values + N.values)))
        upd = ops.norm_h01(Field(mesh, new.values - phi.values))
        report.updates_h01.append(upd)
        if it == 0 and phi0 is None:
            p_ref = min(report.r_norms)
            report.amplification_T = ops.norm_h01(new) / max(report.r_norms[p_ref], 1e-300)
        if prev_update is not None and prev_update > 0:
            report.contraction_factors.append(upd / prev_update)
        prev_update = upd
        phi = new
        report.iterations = it + 1
        _guard_sup(report, ops, phi)
        if upd < tol * max(1.0, ops.norm_h01(phi)):
            break
    else:
        report.status = "diverged"
        report.error = f"no convergence in {maxiter} iterations " \
                       f"(last update {prev_update:.3e})"
        raise Diverged(report.error, report=report)

    return _finish(report, phi, U, cfg, scales)


def newton_correct(U: Field, cfg, scales, tol=1e-10, maxiter=50,
                   phi0=None, p_norms=(1.01, 1.1, 1.3)) -> tuple[Field, SolveReport]:
    """Newton iteration on the same discrete system the fixed point solves."""
    mesh = U.mesh
    ops = get_ops(mesh)
    report = SolveReport(rho=scales.rho, method="newton")
    v1, v2 = _potential_values(cfg, mesh)
    rho, tau = scales.rho, cfg.tau
    lapU = semianalytic_laplacian_U(cfg, scales, mesh)
    R = residual_R(U, cfg, scales)
    for p in p_norms:
        report.r_norms[p] = ops.norm_lp(R, p)

    phi = phi0.copy() if phi0 is not None else Field(mesh, np.zeros(mesh.n_nodes),
                                                     DIRICHLET_ZERO)
    prev_update = None
    for it in range(maxiter):
        _guard_sup(report, ops, phi)
        u = U.values + phi.values
        res = lapU + ops.laplacian(phi).values \
            + rho * (v1 * np.exp(u) - v2 * np.exp(-tau * u))
        res[ops.boundary] = 0.0
        Wu = rho * v1 * np.exp(u) + rho * tau * v2 * np.exp(-tau * u)
        J = LinearOperator(mesh, Field(mesh, Wu))
        if it == 0:
            _check_resonance(report, J)
        delta = J.solve(Field(mesh, -res))
        upd = ops.norm_h01(delta)
        report.updates_h01.append(upd)
        if prev_update is not None and prev_update > 0:
            report.contraction_factors.append(upd / prev_update)
        prev_update = upd
        phi = Field(mesh, phi.values + delta.values, DIRICHLET_ZERO)
        report.iterations = it + 1
        if upd < tol * max(1.0, ops.norm_h01(phi)):
            break
    else:
        report.status = "diverged"
        report.error = f"no convergence in {maxiter} iterations"
        raise Diverged(report.error, report=report)

    return _finish(report, phi, U, cfg, scales)


# ---------------------------------------------------------------------------
# end-to-end construction

@dataclass(frozen=True)
class Stage:
    """What the construction fixes at one rho before any correction."""

    scales: object
    pd: object
    mesh: object
    coeffs: object
    U: Field
    projections: tuple   # projected bubbles in make_bubbles order; U is their signed sum


def prepare(cfg, rho, policy: MeshPolicy, gp: GreenProvider) -> Stage:
    """The per-rho chain: scales -> pierced domain -> mesh -> coefficients -> ansatz."""
    scales = choose_scales(cfg, rho, gp)
    pd = build_pierced_domain(cfg.domain, PierceSpec(centers=cfg.centers, radii=scales.eps))
    mesh = build_mesh(pd, policy)
    coeffs = coefficient_set(cfg, scales, gp)
    U, projections = build_ansatz(cfg, scales, mesh, coeffs=coeffs, gp=gp)
    # the projections were the last Poisson solves on this mesh
    get_ops(mesh).release_poisson_factor()
    return Stage(scales=scales, pd=pd, mesh=mesh, coeffs=coeffs, U=U, projections=projections)


class Run:
    """One command's problem, mesh policy and Green function.

    stage(rho) prepares each rho once; every later call, from the solver or
    from a check, gets the same Stage and so the same mesh and operators.
    Once a stage is prepared, the Green function holds H(., xi_k) for every
    center, so its own domain operators are dropped.
    linear_operator(rho) is the solver T = (Lap + W)^-1 at rho's ansatz, shared
    by the fixed point and the solver-bound check. Only one is kept: asking for
    another rho, or preparing a new stage, drops it first, together with its
    stage's operators, so no two Lap + W factors (nor one and a new Poisson
    factor) are alive at once. A later call for a dropped rho rebuilds them,
    bit for bit.

    The rho-independent background mesh starts building on the helper thread
    here, so the Green function, the scales and any analytic check run while
    it does; the first build_mesh waits for it.
    """

    def __init__(self, cfg, policy: MeshPolicy | None = None, gp: GreenProvider | None = None):
        self.cfg = cfg
        self.policy = policy or MeshPolicy()
        prefetch_background(cfg.domain, cfg.centers, self.policy)
        self.gp = gp or GreenProvider(cfg.domain)
        self._stages = {}
        self._linear = None   # (rho, LinearOperator) or None

    def stage(self, rho) -> Stage:
        if rho not in self._stages:
            self._release_linear()
            self._stages[rho] = prepare(self.cfg, rho, self.policy, self.gp)
            self.gp.release_operators()
        return self._stages[rho]

    def linear_operator(self, rho) -> LinearOperator:
        if self._linear is None or self._linear[0] != rho:
            self._release_linear()
            st = self.stage(rho)
            self._linear = (rho, LinearOperator(st.mesh, weight_W(st.U, self.cfg, st.scales)))
        return self._linear[1]

    def _release_linear(self):
        """Drop the current Lap + W and the operators of its stage."""
        if self._linear is not None:
            release_ops(self._stages[self._linear[0]].mesh)
            self._linear = None


@dataclass
class Solution:
    """Converged run: solution field plus every intermediate worth keeping."""

    u: Field
    phi: Field
    U: Field
    cfg: object
    scales: object
    coeffs: object
    pd: object
    mesh: object
    report: SolveReport


def farfield_target(cfg, gp, points):
    """Green combination the solution approaches away from the holes."""
    out = np.zeros(np.atleast_2d(points).shape[0])
    for i in range(cfg.m):
        g = gp.green_many(points, cfg.centers[i])
        coef = 2 * math.pi * (cfg.alphas[i] + 2)
        out += coef * g if i < cfg.m1 else -coef * g / cfg.tau
    return out


_NEAREST_BLOCK = 1 << 16   # point-node pairs per block of _nearest_nodes


def _nearest_nodes(mesh, points):
    """Index of the node nearest to each point, the first one on a tie.

    Nearest means least np.hypot; only the nodes whose squared distance
    comes within rounding of the least one are measured that way.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    step = max(1, _NEAREST_BLOCK // mesh.n_nodes)
    out = np.empty(pts.shape[0], dtype=int)
    for k in range(0, pts.shape[0], step):
        p = pts[k:k + step]
        dx = x - p[:, :1]
        dy = y - p[:, 1:]
        d2 = dx * dx + dy * dy
        rows, cols = np.nonzero(d2 <= d2.min(axis=1, keepdims=True) * (1 + 1e-12) + 1e-300)
        d = np.hypot(dx[rows, cols], dy[rows, cols])
        order = np.lexsort((cols, d, rows))
        out[k:k + step] = cols[order][np.diff(rows[order], prepend=-1) != 0]
    return out


def solution_value_at(sol, point) -> float:
    """Nearest-node sample of the solution (avoids interpolation error)."""
    node = _nearest_nodes(sol.mesh, np.asarray(point, dtype=float))[0]
    return float(sol.u.values[node])


def farfield_error_at(sol, gp, point) -> float:
    """|u - Green combination| at the mesh node nearest to the given point."""
    node = _nearest_nodes(sol.mesh, np.asarray(point, dtype=float))[0]
    target = farfield_target(sol.cfg, gp, sol.mesh.nodes[node])[0]
    return float(abs(sol.u.values[node] - target))


def farfield_sample_points(cfg, pd, n_per_ring=16, radii=(0.5, 0.7, 0.85)):
    """Deterministic sample points at distance > eta from every center."""
    pts = []
    for rad in radii:
        for k in range(n_per_ring):
            th = 2 * math.pi * (k + 0.5) / n_per_ring
            p = np.array([rad * math.cos(th), rad * math.sin(th)])
            d = np.hypot(p[0] - cfg.centers[:, 0], p[1] - cfg.centers[:, 1])
            if np.all(d > pd.eta * 1.05):
                pts.append(p)
    return np.asarray(pts)


def construct_solution(run: Run, rho, method="fixed-point", tol=1e-10, maxiter=50,
                       phi0=None, p_norms=(1.01, 1.1, 1.3),
                       kernel_coeffs=True) -> Solution:
    """Correct the prepared ansatz at rho, from phi0 (a Field on its mesh) or 0."""
    cfg, gp = run.cfg, run.gp
    st = run.stage(rho)
    scales, pd, mesh, U = st.scales, st.pd, st.mesh, st.U
    if method == "fixed-point":
        phi, report = fixed_point_correct(U, cfg, scales, tol=tol, maxiter=maxiter,
                                          phi0=phi0, p_norms=p_norms,
                                          L=run.linear_operator(rho))
    else:
        phi, report = newton_correct(U, cfg, scales, tol=tol, maxiter=maxiter, phi0=phi0,
                                     p_norms=p_norms)
    u = Field(mesh, U.values + phi.values, DIRICHLET_ZERO)

    # annulus peaks and inner-region signs
    report.peaks = []
    report.inner_sign_ok = True
    for i in range(cfg.m):
        d = mesh.center_distance(i)
        ann = (d <= pd.eta) & (d >= scales.eps[i] * 0.999999)
        sign = cfg.sign(i)
        vals = sign * u.values[ann]
        report.peaks.append(float(vals.max()))
        inner = ann & (d <= math.sqrt(scales.eps[i] * pd.eta))
        if np.any(inner) and not (sign * u.values[inner]).max() > 0:
            report.inner_sign_ok = False

    pts = farfield_sample_points(cfg, pd)
    if len(pts):
        # compare field and target at the nearest nodes: same physical points,
        # so no interpolation error enters the measurement
        nodes = _nearest_nodes(mesh, pts)
        uh = u.values[nodes]
        report.farfield_error = float(
            np.abs(uh - farfield_target(cfg, gp, mesh.nodes[nodes])).max())

    if kernel_coeffs:
        from .verify import kernel_coefficient

        report.kernel_coefficients = [
            kernel_coefficient(phi, cfg, scales, pd, j) for j in range(cfg.m)
        ]
    return Solution(u=u, phi=phi, U=U, cfg=cfg, scales=scales, coeffs=st.coeffs,
                    pd=pd, mesh=mesh, report=report)


@dataclass
class SweepResult:
    rho_list: list
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


def continuation_sweep(run: Run, rho_list, method="fixed-point",
                       tol=1e-10, maxiter=50, p_norms=(1.01, 1.1, 1.3),
                       kernel_coeffs=True, warm_start=True, after_rho=None) -> SweepResult:
    """Run the construction at each rho (descending), warm-starting phi.

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
        phi0 = None
        if warm_start and prev is not None:
            try:
                mesh = run.stage(rho).mesh
                vals = np.asarray(FieldEvaluator(prev.mesh)(prev.phi.values, mesh.nodes),
                                  dtype=float)
                vals[mesh.is_boundary] = 0.0
                phi0 = Field(mesh, vals, DIRICHLET_ZERO)
            except SinhPierceError:
                phi0 = None
        try:
            sol = construct_solution(run, rho, method=method, tol=tol, maxiter=maxiter,
                                     phi0=phi0, p_norms=p_norms,
                                     kernel_coeffs=kernel_coeffs)
            solutions.append(sol)
            reports.append(sol.report)
            prev = sol
        except SinhPierceError as exc:
            stub = getattr(exc, "report", None) or SolveReport(rho=rho, method=method)
            stub.status = stub.status if stub.status != "converged" else "diverged"
            stub.error = stub.error or str(exc)
            solutions.append(None)
            reports.append(stub)
        if after_rho is not None:
            after_rho(rho)

    sigma_fits = {}
    good = [r for r in reports if r.status == "converged"]
    insufficient = len(good) < 3
    if not insufficient:
        logr = np.log([r.rho for r in good])
        for p in p_norms:
            vals = np.log([r.r_norms[p] for r in good])
            sigma_fits[p] = float(np.polyfit(logr, vals, 1)[0])
        for r in reports:
            r.sigma_fits = dict(sigma_fits)
    return SweepResult(rho_list=rho_list, solutions=solutions, reports=reports,
                       sigma_fits=sigma_fits, insufficient_data=insufficient)

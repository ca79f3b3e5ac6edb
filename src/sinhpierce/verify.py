"""Measurable checks: expansion agreement, residual scaling, solver-norm
growth, kernel identities, far-field profile, and the vanishing of the
rescaled kernel coefficients.

Each check reports a CheckResult with the measured value and the threshold
it was held to. suite() and green_suite() assemble the checks of the
`verify` and `green-check` commands.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .bubbles import far_expansion, lalpha_weight, make_bubbles
from .coeffs import choose_scales, constraint_deviation, dominance_threshold, solve_beta
from .corrector import SLOPE_SAMPLES, continuation_sweep, log_slope
from .errors import QuadratureNonConvergence
from .greens import AnalyticDiskGreen, NumericGreen
from .geometry import TWO_PI, domain_sample_points
from .operators import get_ops

_STENCIL_ROWS = 64   # grid rows per block of the kernel-annihilation stencil


@dataclass
class CheckResult:
    check_id: str
    measured: float
    threshold: float
    passed: bool
    rho: float = float("nan")
    p: float = float("nan")

    def row(self):
        return [self.check_id, self.rho, self.p, self.measured, self.threshold,
                int(self.passed)]


def write_check_csv(results, path):
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["check_id", "rho", "p", "measured", "threshold", "pass"])
        for r in results:
            wr.writerow(r.row())


# ---------------------------------------------------------------------------
# individual checks

def check_integral_identities(alphas=(2.5, 3.0, 3.7), rtol=1e-8):
    """Adaptive radial quadrature of the two kernel integrals per exponent.

    Only this check integrates adaptively, so it imports scipy.integrate
    (and scipy.optimize beneath it) itself, and nothing else in the package
    loads it.
    """
    from scipy.integrate import quad

    results = []
    for alpha in alphas:
        def f1(s, a=alpha):
            return 2 * a ** 2 * lalpha_weight(a, s) \
                * ((1 - s ** a) / (1 + s ** a)) ** 2 * TWO_PI * s

        def f2(s, a=alpha):
            return 2 * a ** 2 * lalpha_weight(a, s) \
                * (1 - s ** a) / (1 + s ** a) * np.log(s) * TWO_PI * s

        try:
            i1 = quad(f1, 0, 1, epsabs=0.0, epsrel=1e-12, limit=200)[0] \
                + quad(f1, 1, np.inf, epsabs=1e-15, epsrel=1e-12, limit=200)[0]
            i2 = quad(f2, 0, 1, epsabs=0.0, epsrel=1e-12, limit=200)[0] \
                + quad(f2, 1, np.inf, epsabs=1e-15, epsrel=1e-12, limit=200)[0]
        except Exception as exc:
            raise QuadratureNonConvergence(str(exc)) from exc
        t1 = 4 * math.pi * alpha / 3.0
        t2 = -4 * math.pi
        e1 = abs(i1 - t1) / abs(t1)
        e2 = abs(i2 - t2) / abs(t2)
        results.append(CheckResult(
            check_id=f"kernel-integral-alpha-{alpha}",
            measured=e1, threshold=rtol, passed=e1 <= rtol))
        results.append(CheckResult(
            check_id=f"kernel-log-integral-alpha-{alpha}",
            measured=e2, threshold=rtol, passed=e2 <= rtol))
    return results


def check_kernel_annihilation(alpha, resolution=1e-3, r_range=(0.6, 1.6), tol=1e-4):
    """Discrete linearized operator applied to Y0, Y1, Y2 on an annular patch.

    The patch spans theta in [-1, 1], away from the angular branch cut at
    theta = pi, where the non-integer powers are discontinuous.

    Every factor depends on r alone or on theta alone, so the factors are
    formed once on the two axes and the 5-point stencil runs over blocks of
    _STENCIL_ROWS grid rows (plus a one-row halo). Each grid value takes the
    operations of the whole-grid evaluation in the same order, and the maxima
    are exact, so the measured ratio does not depend on the block size.
    """
    r = np.arange(r_range[0], r_range[1] + resolution / 2, resolution)
    th = np.arange(-1.0, 1.0 + resolution / 2, resolution)
    ra = r ** alpha
    V = 2 * alpha ** 2 * r ** (alpha - 2) / (1 + ra) ** 2
    dr = resolution
    dth = resolution
    c_r = 2 * dr * r                  # the stencil's per-row divisors
    c_th = dth ** 2 * r ** 2
    # Y0 is radial: its theta second difference is exactly zero, so one column
    # of the grid carries every value the whole grid would
    y0 = (1 - ra) / (1 + ra)
    lap0 = (y0[2:] - 2 * y0[1:-1] + y0[:-2]) / dr ** 2 + (y0[2:] - y0[:-2]) / c_r[1:-1]
    vy0 = (V * y0)[1:-1]
    worst = max(0.0, float(np.abs(lap0 + vy0).max() / np.abs(vy0).max()))
    r_half = r ** (alpha / 2)
    den = 1 + ra
    n_r = len(r)
    for trig in (np.cos(alpha * th / 2), np.sin(alpha * th / 2)):
        res_max = scale = 0.0
        for i0 in range(1, n_r - 1, _STENCIL_ROWS):
            i1 = min(i0 + _STENCIL_ROWS, n_r - 1)
            Y = r_half[i0 - 1:i1 + 1, None] * trig / den[i0 - 1:i1 + 1, None]
            mid = Y[1:-1, 1:-1]
            lap = ((Y[2:, 1:-1] - 2 * mid + Y[:-2, 1:-1]) / dr ** 2
                   + (Y[2:, 1:-1] - Y[:-2, 1:-1]) / c_r[i0:i1, None]
                   + (Y[1:-1, 2:] - 2 * mid + Y[1:-1, :-2]) / c_th[i0:i1, None])
            vy = V[i0:i1, None] * mid
            res_max = max(res_max, np.abs(lap + vy).max())
            scale = max(scale, np.abs(vy).max())
        worst = max(worst, float(res_max / scale))
    return CheckResult(
        check_id=f"kernel-annihilation-alpha-{alpha}",
        measured=worst, threshold=tol, passed=worst <= tol)


def check_expansion(run, rho_list):
    """Worst disagreement of the numeric projection with its far expansion
    per rho (on the disk, inside radius 0.95), and its log-log slope."""
    cfg, gp = run.cfg, run.gp
    errs = []
    for rho in rho_list:
        st = run.stage(rho)
        mesh, coeffs = st.mesh, st.coeffs
        far = np.ones(mesh.n_nodes, dtype=bool)
        for k in range(cfg.m):
            far &= mesh.center_distance(k) > run.eta
        if cfg.domain.kind == "unit-disk":
            far &= np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1]) < 0.95
        idx = np.flatnonzero(far)[::7]
        worst = 0.0
        for b, P in zip(make_bubbles(cfg, st.scales), st.projections):
            a = far_expansion(b, coeffs, gp, mesh.nodes[idx])
            worst = float(np.max(np.abs(P.values[idx] - a), initial=worst))
        errs.append(worst)
    return log_slope(rho_list, errs), errs


def check_residual_scaling(run, rho_list):
    """Per p in run.p_norms, the log-log decay slope of ||R||_p across rho
    and the norms, R the stage's ansatz defect."""
    norms_per_p = {p: [] for p in run.p_norms}
    for rho in rho_list:
        st = run.stage(rho)
        ops = get_ops(st.mesh)
        for p in run.p_norms:
            norms_per_p[p].append(ops.norm_lp(st.R, p))
    return {p: (log_slope(rho_list, vals), vals) for p, vals in norms_per_p.items()}


def check_operator_bound(run, rho, trials=10, seed=0) -> float:
    """Amplification ||T h||_H1_0 / ||h||_p of the solver T at rho, the worst
    over random right-hand sides, with p the smallest of run.p_norms.

    T is run.linear_operator(rho), the fixed point's own operator.
    """
    mesh = run.stage(rho).mesh
    ops = get_ops(mesh)
    L = run.linear_operator(rho)
    p = min(run.p_norms)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        h = np.zeros(mesh.n_nodes)
        h[ops.interior] = rng.standard_normal(len(ops.interior))
        hn = ops.norm_h01(h)
        h /= hn
        phi = L.solve(h)
        worst = max(worst, ops.norm_h01(phi.values) / ops.norm_lp(h, p))
    return worst


def decreasing(values, floor=0.0):
    """Non-increasing within a noise floor."""
    return all(b <= max(a, floor) for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# check suites of the commands

def suite(rc):
    """The `verify` command's checks, in checks.csv order, and the sweep behind them.

    The scaling studies fit slopes over at least three rho values: a run
    configuration with fewer is checked at rho = 1e-2, 1e-3, 1e-4 instead.
    """
    cfg = rc.problem
    # the quadrature loads scipy.integrate: do it before Run starts the
    # background mesh on its own thread, not while that thread works
    results = check_integral_identities(alphas=sorted(set(cfg.alphas.tolist())))
    run = rc.new_run()
    for a in sorted(set(cfg.alphas.tolist())):
        results.append(check_kernel_annihilation(a))

    rho_list = rc.rho_list if len(rc.rho_list) >= SLOPE_SAMPLES else [1e-2, 1e-3, 1e-4]

    # diagonal dominance of the matching systems: log the threshold
    thr = dominance_threshold(cfg, run.gp)
    results.append(CheckResult(
        check_id="diagonal-dominance-threshold",
        measured=thr, threshold=min(rho_list), passed=thr >= min(rho_list)))

    # matching-constraint decay
    devs = []
    for rho in rho_list + [rho_list[-1] / 10]:
        beta = solve_beta(cfg, choose_scales(cfg, rho, run.gp), run.gp)
        devs.append(float(constraint_deviation(cfg, beta).max()))
    results.append(CheckResult(
        check_id="matching-constraint-decay",
        measured=devs[-1], threshold=1e-2, passed=devs[-1] <= 1e-2
        and decreasing(devs, floor=1e-12)))

    slope, _ = check_expansion(run, rho_list)
    results.append(CheckResult(
        check_id="projection-expansion-agreement",
        measured=slope, threshold=0.0, passed=slope > 0))

    scaling = check_residual_scaling(run, rho_list)
    sigma_floor = 0.5 * min(1.0 / a for a in cfg.alphas)
    for p, (slope, _) in sorted(scaling.items()):
        results.append(CheckResult(
            check_id=f"residual-lp-scaling-p{p}",
            measured=slope, threshold=sigma_floor,
            passed=slope >= sigma_floor, p=p))

    # the solver-bound trials at each rho run right after its correction, on
    # the fixed point's own Lap + W factor
    per_log_rho = []

    def bound_at(rho):
        amp = check_operator_bound(run, rho, trials=10, seed=rc.seed)
        per_log_rho.append(amp / abs(math.log(rho)))

    sw = continuation_sweep(run, rho_list, after_rho=bound_at)
    spread = max(per_log_rho) / min(per_log_rho)
    results.append(CheckResult(
        check_id="linear-solver-log-bound",
        measured=spread, threshold=10.0, passed=spread <= 10.0))

    conv = [r for r in sw.reports if r.status == "converged"]
    results.append(CheckResult(
        check_id="contraction-convergence",
        measured=max((r.max_contraction_factor for r in conv), default=float("inf")),
        threshold=1.0,
        passed=len(conv) == len(sw.reports)
        and all(r.max_contraction_factor < 1 for r in conv)))
    if conv:
        ff = [r.farfield_error for r in conv]
        results.append(CheckResult(
            check_id="far-field-green-profile",
            measured=ff[-1], threshold=0.2,
            passed=decreasing(ff, floor=1e-6) and ff[-1] <= 0.2))
        peaks = [max(r.peaks) for r in conv]
        results.append(CheckResult(
            check_id="peak-growth",
            measured=peaks[-1], threshold=peaks[0],
            passed=all(b > a for a, b in zip(peaks, peaks[1:]))))
        for j in range(cfg.m):
            aj = [abs(r.kernel_coefficients[j]) for r in conv]
            results.append(CheckResult(
                check_id=f"kernel-coefficient-vanishing-{j + 1}",
                measured=aj[-1], threshold=aj[0],
                passed=decreasing(aj, floor=1e-9)))
        signs = all(r.inner_sign_ok for r in conv)
        results.append(CheckResult(
            check_id="blow-up-sign-structure",
            measured=float(signs), threshold=1.0, passed=signs))
    return results, sw


def green_suite(rc):
    """The `green-check` command's checks of the Dirichlet Green function, on
    60 random pairs (30 on a boundary curve).

    On the unit disk the numeric backend is held to the image formula; on a
    boundary curve only its symmetry can be measured.
    """
    domain = rc.problem.domain
    results = []
    num = NumericGreen(domain, h=rc.policy.h)
    if domain.kind == "unit-disk":
        an = AnalyticDiskGreen(domain)
        rng = np.random.default_rng(rc.seed)
        pairs = []
        while len(pairs) < 60:
            x = rng.uniform(-0.8, 0.8, 2)
            y = rng.uniform(-0.8, 0.8, 2)
            if np.hypot(*x) < 0.8 and np.hypot(*y) < 0.8 and np.hypot(*(x - y)) > 0.05:
                pairs.append((x, y))
        errs = [abs(num.green(x, y) - an.green(x, y)) for x, y in pairs]
        results.append(CheckResult(
            check_id="green-numeric-vs-analytic", measured=float(max(errs)),
            threshold=1e-3, passed=max(errs) <= 1e-3))
        sym = [abs(an.green(x, y) - an.green(y, x)) for x, y in pairs]
        results.append(CheckResult(
            check_id="green-symmetry", measured=float(max(sym)), threshold=1e-8,
            passed=max(sym) <= 1e-8))
        bvals = [abs(an.green((math.cos(t), math.sin(t)), (0.3, 0.1)))
                 for t in np.linspace(0, TWO_PI, 37)]
        results.append(CheckResult(
            check_id="green-boundary-vanishing", measured=float(max(bvals)),
            threshold=1e-8, passed=max(bvals) <= 1e-8))
    else:
        cloud = domain_sample_points(domain, n=200, seed=rc.seed)
        pairs = [(cloud[2 * i], cloud[2 * i + 1]) for i in range(30)]
        sym = [abs(num.green(x, y) - num.green(y, x)) for x, y in pairs
               if np.hypot(*(x - y)) > 0.05]
        tol = 50 * rc.policy.h ** 2
        results.append(CheckResult(
            check_id="green-symmetry", measured=float(max(sym)), threshold=tol,
            passed=max(sym) <= tol))
    return results

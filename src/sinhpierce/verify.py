"""Measurable checks: expansion agreement, residual scaling, solver-norm
growth, kernel identities, far-field profile, and the vanishing of the
rescaled kernel coefficients.

Each check reports a CheckResult with the measured value, the threshold it
was held to, and whether that threshold is a derived constant or an artifact
tolerance, so every emitted number is traceable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .bubbles import far_expansion, make_bubbles
from .errors import InsufficientSamples, NearSingular, QuadratureNonConvergence
from .operators import EIG_FLOOR, Field, LinearOperator, get_ops, residual_R

_TWO_PI = 2.0 * math.pi
_STENCIL_ROWS = 64   # grid rows per block of the kernel-annihilation stencil


@dataclass
class CheckResult:
    check_id: str
    claim: str
    measured: float
    threshold: float
    passed: bool
    rho: float = float("nan")
    p: float = float("nan")
    threshold_origin: str = "artifact tolerance"
    detail: str = ""

    def row(self):
        return [self.check_id, self.rho, self.p, self.measured, self.threshold,
                int(self.passed)]


def write_check_csv(results, path):
    with open(path, "w", newline="") as f:
        wr = csv.writer(f)
        wr.writerow(["check_id", "rho", "p", "measured", "threshold", "pass"])
        for r in results:
            wr.writerow(r.row())


@dataclass
class ScalingStudy:
    rho_samples: list
    values: list
    slope: float
    intercept: float
    fit_r2: float
    label: str = ""

    @classmethod
    def fit(cls, rho_samples, values, label=""):
        rho_samples = list(rho_samples)
        values = list(values)
        if len(rho_samples) < 3:
            raise InsufficientSamples(
                f"need >= 3 samples for a slope fit, got {len(rho_samples)}")
        x = np.log(np.asarray(rho_samples, dtype=float))
        y = np.log(np.asarray(values, dtype=float))
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        ss_tot = np.sum((y - y.mean()) ** 2)
        r2 = 1.0 - float(np.sum(resid ** 2) / ss_tot) if ss_tot > 0 else 1.0
        return cls(rho_samples=rho_samples, values=values, slope=float(slope),
                   intercept=float(intercept), fit_r2=r2, label=label)


# ---------------------------------------------------------------------------
# weighted spaces on the rescaled plane

def lalpha_weight(alpha, y):
    """|y|^(alpha-2) / (1 + |y|^alpha)^2, the concentration weight."""
    y = np.asarray(y, dtype=float)
    return y ** (alpha - 2) / (1.0 + y ** alpha) ** 2


def norm_lalpha_sq(fn_radial, alpha, rtol=1e-10):
    """Squared weighted norm of a radial function over the whole plane."""
    from scipy.integrate import quad

    def integrand(s):
        return lalpha_weight(alpha, s) * fn_radial(s) ** 2 * _TWO_PI * s

    v1, e1 = quad(integrand, 0.0, 1.0, epsabs=0.0, epsrel=rtol, limit=200)
    v2, e2 = quad(integrand, 1.0, np.inf, epsabs=1e-14, epsrel=rtol, limit=200)
    val = v1 + v2
    if val != 0 and (e1 + e2) > 100 * rtol * abs(val) + 1e-12:
        raise QuadratureNonConvergence(
            f"weighted norm quadrature error {e1 + e2:.3e} for value {val:.6e}")
    return val


def norm_halpha_sq(fn_radial, dfn_radial, alpha, rtol=1e-10):
    """Squared norm with the gradient part added (radial profiles)."""
    from scipy.integrate import quad

    def grad2(s):
        return dfn_radial(s) ** 2 * _TWO_PI * s

    g1, _ = quad(grad2, 0.0, 1.0, epsabs=0.0, epsrel=rtol, limit=200)
    g2, _ = quad(grad2, 1.0, np.inf, epsabs=1e-14, epsrel=rtol, limit=200)
    return g1 + g2 + norm_lalpha_sq(fn_radial, alpha, rtol=rtol)


# ---------------------------------------------------------------------------
# rescaled correction and kernel coefficients

@dataclass
class RescaledField:
    """phi(xi_j + delta_j y) sampled on a log-radial x angular grid."""

    index: int
    y: np.ndarray          # (n_r,) radii of the rescaled variable
    theta: np.ndarray      # (n_t,)
    values: np.ndarray     # (n_r, n_t)

    def angular_mean(self):
        return self.values.mean(axis=1)


def rescale_correction(phi: Field, cfg, scales, pd, j, y_max=50.0) -> RescaledField:
    """Sample the correction around hole j in bubble coordinates.

    The sampling grid is the polar patch itself (ring radii over patch
    angles), restricted to eps_j/delta_j <= |y| <= min(eta/delta_j, y_max):
    nodal values are read off directly, with no interpolation, so projecting
    a grid function onto itself is exact.
    """
    mesh = phi.mesh
    patch = mesh.patches[j]
    delta = scales.delta[j]
    sel = patch.radii <= y_max * delta * (1 + 1e-12)
    if sel.sum() < 3:
        raise ValueError("rescaling range covers fewer than three rings")
    y = patch.radii[sel] / delta
    theta = _TWO_PI * np.arange(patch.n_theta) / patch.n_theta
    vals = phi.values[patch.node_grid[sel]]
    return RescaledField(index=j, y=y, theta=theta, values=vals)


def _log_radial_quadrature(y, f):
    """integral f(y) y dy over the grid via trapezoid in log y."""
    t = np.log(y)
    g = f * y * y          # f y dy = f y^2 dt
    return float(np.sum(0.5 * (g[1:] + g[:-1]) * np.diff(t)))


def kernel_coefficient(phi: Field, cfg, scales, pd, j, y_max=50.0) -> float:
    """Projection a_j = <Phi_j, Y0>_w / ||Y0||^2_w on the truncated annulus.

    Numerator and denominator use the same grid and truncation, so feeding
    the kernel element itself back in returns exactly one.
    """
    rf = rescale_correction(phi, cfg, scales, pd, j, y_max=y_max)
    alpha = float(cfg.alphas[j])
    w = lalpha_weight(alpha, rf.y)
    y0 = (1.0 - rf.y ** alpha) / (1.0 + rf.y ** alpha)
    phibar = rf.angular_mean()
    num = _log_radial_quadrature(rf.y, w * phibar * y0)
    den = _log_radial_quadrature(rf.y, w * y0 * y0)
    return num / den


# ---------------------------------------------------------------------------
# individual checks

def check_integral_identities(alphas=(2.5, 3.0, 3.7), rtol=1e-8):
    """Adaptive radial quadrature of the two kernel integrals per exponent.

    Only this and the two weighted norms above integrate adaptively, so they
    import scipy.integrate (and scipy.optimize beneath it) themselves, and
    nothing else in the package loads it.
    """
    from scipy.integrate import quad

    results = []
    for alpha in alphas:
        def f1(s, a=alpha):
            return 2 * a ** 2 * lalpha_weight(a, s) \
                * ((1 - s ** a) / (1 + s ** a)) ** 2 * _TWO_PI * s

        def f2(s, a=alpha):
            return 2 * a ** 2 * lalpha_weight(a, s) \
                * (1 - s ** a) / (1 + s ** a) * np.log(s) * _TWO_PI * s

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
            claim="integral of weight*Y0^2 equals 4 pi alpha / 3",
            measured=e1, threshold=rtol, passed=e1 <= rtol,
            threshold_origin="derived identity", detail=f"value {i1:.12g}"))
        results.append(CheckResult(
            check_id=f"kernel-log-integral-alpha-{alpha}",
            claim="integral of weight*Y0*log|y| equals -4 pi",
            measured=e2, threshold=rtol, passed=e2 <= rtol,
            threshold_origin="derived identity", detail=f"value {i2:.12g}"))
    return results


def check_kernel_annihilation(alpha, resolution=1e-3, r_range=(0.6, 1.6),
                              theta_range=(-1.0, 1.0), tol=1e-4):
    """Discrete linearized operator applied to Y0, Y1, Y2 on an annular patch.

    The patch stays away from the angular branch cut at theta = pi, where the
    non-integer powers are discontinuous.

    Every factor depends on r alone or on theta alone, so the factors are
    formed once on the two axes and the 5-point stencil runs over blocks of
    _STENCIL_ROWS grid rows (plus a one-row halo). Each grid value takes the
    operations of the whole-grid evaluation in the same order, and the maxima
    are exact, so the measured ratio does not depend on the block size.
    """
    r = np.arange(r_range[0], r_range[1] + resolution / 2, resolution)
    th = np.arange(theta_range[0], theta_range[1] + resolution / 2, resolution)
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
        claim="Y0, Y1, Y2 annihilate the linearized bubble operator",
        measured=worst, threshold=tol, passed=worst <= tol,
        threshold_origin="artifact tolerance",
        detail=f"patch r in {r_range}, theta in {theta_range}, h={resolution}")


def check_expansion(run, rho_list, margin=0.95):
    """Agreement of the numeric projection with its far expansion, per rho."""
    cfg, gp = run.cfg, run.gp
    errs = []
    for rho in rho_list:
        st = run.stage(rho)
        mesh, coeffs = st.mesh, st.coeffs
        worst = 0.0
        for b, P in zip(make_bubbles(cfg, st.scales), st.projections):
            far = np.ones(mesh.n_nodes, dtype=bool)
            for k in range(cfg.m):
                far &= mesh.center_distance(k) > st.pd.eta
            if cfg.domain.kind == "unit-disk":
                far &= np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1]) < margin
            idx = np.flatnonzero(far)[::7]
            a = far_expansion(b, coeffs, gp, mesh.nodes[idx])
            worst = float(np.max(np.abs(P.values[idx] - a), initial=worst))
        errs.append(worst)
    return ScalingStudy.fit(rho_list, errs, label="projection-expansion-agreement")


def check_residual_scaling(run, rho_list, p_list=(1.01, 1.1, 1.3)):
    """||R||_p across rho and the fitted decay slope per p."""
    norms_per_p = {p: [] for p in p_list}
    for rho in rho_list:
        st = run.stage(rho)
        R = residual_R(st.U, run.cfg, st.scales)
        ops = get_ops(st.mesh)
        for p in p_list:
            norms_per_p[p].append(ops.norm_lp(R, p))
    return {p: ScalingStudy.fit(rho_list, vals, label=f"residual-lp-scaling-p{p}")
            for p, vals in norms_per_p.items()}


def check_operator_bound(run, rho_list, trials=10, p=1.01, seed=0, zero_weight=False):
    """Amplification of the solver T over random right-hand sides, per rho.

    T is run.linear_operator(rho), the fixed point's own operator; the
    zero_weight control (W = 0) builds a fresh one.
    """
    return merge_operator_bounds([
        _operator_bound_at(run, rho, trials, p, seed, zero_weight) for rho in rho_list])


def _operator_bound_at(run, rho, trials, p, seed, zero_weight):
    cfg = run.cfg
    st = run.stage(rho)
    scales, mesh = st.scales, st.mesh
    ops = get_ops(mesh)
    if zero_weight:
        L = LinearOperator(mesh, Field(mesh, np.zeros(mesh.n_nodes)))
    else:
        L = run.linear_operator(rho)
    flagged = None
    try:
        lam = L.smallest_eigenvalue()
        if abs(lam) < EIG_FLOOR:
            flagged = lam
    except NearSingular as exc:
        flagged = exc.eigenvalue
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        h = np.zeros(mesh.n_nodes)
        h[ops.interior] = rng.standard_normal(len(ops.interior))
        hn = ops.norm_h01(h)
        h /= hn
        hf = Field(mesh, h)
        phi = L.solve(hf)
        worst = max(worst, ops.norm_h01(phi) / ops.norm_lp(hf, p))
    # right-hand side concentrated on the rescaled kernel direction of the
    # first bubble: recorded, not asserted
    d0 = mesh.center_distance(0)
    y = d0 / scales.delta[0]
    hk = lalpha_weight(cfg.alphas[0], np.maximum(y, 1e-300)) \
        * (1 - y ** cfg.alphas[0]) / (1 + y ** cfg.alphas[0]) / scales.delta[0] ** 2
    hk[mesh.is_boundary] = 0.0
    hkf = Field(mesh, hk)
    return {"rho": [rho], "amplification": [worst], "near_singular": [flagged],
            "kernel_amplification": [ops.norm_h01(L.solve(hkf)) / ops.norm_lp(hkf, p)]}


def merge_operator_bounds(parts):
    """Join check_operator_bound results over consecutive rho lists into one,
    with the spread of amplification / |log rho| over all of them."""
    rho = [r for part in parts for r in part["rho"]]
    amps = [a for part in parts for a in part["amplification"]]
    ratios = [a / abs(math.log(r)) for a, r in zip(amps, rho)]
    return {"rho": rho, "amplification": amps, "per_log_rho": ratios,
            "near_singular": [f for part in parts for f in part["near_singular"]],
            "kernel_amplification": [k for part in parts for k in part["kernel_amplification"]],
            "spread": max(ratios) / min(ratios)}


def decreasing(values, floor=0.0):
    """Non-increasing within a noise floor."""
    return all(b <= max(a, floor) for a, b in zip(values, values[1:]))

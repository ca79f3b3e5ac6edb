"""Explicit functions of the construction: bubbles, kernel elements, the
slow-decay correction functions, their Dirichlet projections, and the ansatz.

All radial formulas are driven by delta_i^alpha_i stored exactly (as d_i rho),
and on a pierced mesh the distance to the own hole center comes from the
patch offsets, so the profiles stay accurate arbitrarily deep into the hole
region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MeshMismatch, RegimeViolation, UndefinedAngleAtOrigin
from .geometry import OUTER, Mesh
from .operators import DIRICHLET_ZERO, Field, get_ops

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Bubble:
    """One concentrating profile: peak height ~ log(2 alpha^2 / delta^alpha)."""

    index: int
    center: np.ndarray
    alpha: float
    delta: float
    delta_pow: float      # delta**alpha, exact
    positive: bool        # sign of the bubble in the ansatz

    @property
    def peak(self):
        return math.log(2 * self.alpha ** 2) - math.log(self.delta_pow)


def make_bubbles(cfg, scales):
    return [Bubble(index=i, center=cfg.centers[i].copy(), alpha=float(cfg.alphas[i]),
                   delta=float(scales.delta[i]), delta_pow=float(scales.delta_pow[i]),
                   positive=i < cfg.m1)
            for i in range(cfg.m)]


def _center_distances(b: Bubble, mesh: Mesh | None, x):
    if mesh is not None:
        return mesh.center_distance(b.index)
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    return np.hypot(pts[:, 0] - b.center[0], pts[:, 1] - b.center[1])


def bubble_value(b: Bubble, x) -> np.ndarray | float:
    """w(x) = log( 2 a^2 d^a / (d^a + |x-xi|^a)^2 ), defined on all of the plane."""
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    r = _center_distances(b, None, pts)
    out = _bubble_from_r(b, r)
    return float(out[0]) if scalar else out


def _bubble_from_r(b: Bubble, r):
    ra = r ** b.alpha
    return math.log(2 * b.alpha ** 2) + math.log(b.delta_pow) - 2 * np.log(b.delta_pow + ra)


def bubble_source_from_r(b: Bubble, r):
    """|x-xi|^(a-2) e^w = 2 a^2 d^a r^(a-2) / (d^a + r^a)^2, the -Lap of the bubble."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    pos = r > 0
    rp = r[pos]
    out[pos] = np.exp(math.log(2 * b.alpha ** 2) + math.log(b.delta_pow)
                      + (b.alpha - 2) * np.log(rp) - 2 * np.log(b.delta_pow + rp ** b.alpha))
    return out


def bubble_source(b: Bubble, mesh: Mesh) -> np.ndarray:
    return bubble_source_from_r(b, mesh.center_distance(b.index))


# ---------------------------------------------------------------------------
# kernel of the rescaled linearized operator

def kernel_Y(k: int, alpha: float, y) -> float | np.ndarray:
    """Bounded kernel elements of Lap + 2 a^2 |y|^(a-2)/(1+|y|^a)^2 in the plane.

    Y0 = (1-|y|^a)/(1+|y|^a); Y1, Y2 = |y|^(a/2) cos/sin(a theta/2)/(1+|y|^a),
    with theta in (-pi, pi]; the angular pair is branch-dependent for
    non-even alpha and is only meant for patches away from the cut.
    """
    pts = np.asarray(y, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    r = np.hypot(pts[:, 0], pts[:, 1])
    ra = r ** alpha
    if k == 0:
        out = (1.0 - ra) / (1.0 + ra)
    elif k in (1, 2):
        if np.any(r == 0):
            raise UndefinedAngleAtOrigin("Y1/Y2 need a well-defined angle; |y| > 0 required")
        th = np.arctan2(pts[:, 1], pts[:, 0])
        trig = np.cos if k == 1 else np.sin
        out = r ** (alpha / 2) * trig(alpha * th / 2) / (1.0 + ra)
    else:
        raise ValueError("kernel index must be 0, 1 or 2")
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# slow-decay correction functions

@dataclass(frozen=True)
class TestFunctionSet:
    """Radial functions attached to hole j: eta0, eta, Z0 and Z = eta + g* eta0."""

    index: int
    center: np.ndarray
    alpha: float
    delta_pow: float
    gamma_star: float

    def eta0(self, r):
        ra = np.asarray(r, dtype=float) ** self.alpha
        return -2.0 * self.delta_pow / (self.delta_pow + ra)

    def eta(self, r):
        ra = np.asarray(r, dtype=float) ** self.alpha
        da = self.delta_pow
        return (4.0 / 3.0) * np.log(da + ra) * (da - ra) / (da + ra) \
            + (8.0 / 3.0) * da / (da + ra)

    def Z0(self, r):
        ra = np.asarray(r, dtype=float) ** self.alpha
        return (self.delta_pow - ra) / (self.delta_pow + ra)

    def Z(self, r):
        return self.eta(r) + self.gamma_star * self.eta0(r)


def build_test_functions(cfg, scales, gamma_star, j) -> TestFunctionSet:
    """Test functions for hole j (0-based); gamma_star from the coefficient set."""
    return TestFunctionSet(index=j, center=cfg.centers[j].copy(),
                           alpha=float(cfg.alphas[j]),
                           delta_pow=float(scales.delta_pow[j]),
                           gamma_star=float(np.asarray(gamma_star).reshape(-1)[j]))


# ---------------------------------------------------------------------------
# projections onto the pierced domain

def regular_parts(gp, mesh: Mesh, centers) -> tuple:
    """H(., xi_k) at the mesh nodes, one array per center: what every bubble's
    explicit harmonic part needs, so one evaluation serves all of them.

    The numeric backend interpolates H from its own domain mesh, whose
    boundary nodes need not be this mesh's; on the outer boundary H is its
    Dirichlet data (1/2pi) log|x - xi_k|, so those nodes take the data itself.
    """
    H = tuple(gp.robin_H_many(mesh.nodes, c) for c in centers)
    if gp.backend == "numeric":
        outer = np.flatnonzero(mesh.node_marker == OUTER)
        x, y = mesh.nodes[outer, 0], mesh.nodes[outer, 1]
        for Hk, c in zip(H, centers):
            Hk[outer] = np.log(np.hypot(x - c[0], y - c[1])) / _TWO_PI
    return H


def explicit_harmonic_part(b: Bubble, coeffs, H, mesh: Mesh) -> np.ndarray:
    """Leading harmonic correction of the projection, evaluated exactly.

    -log(2 a^2 d^a) + 4 pi a H(x, xi_i) - sum_k beta_ik G(x, xi_k): harmonic
    on the pierced domain (the log poles of G sit inside the holes).  Using
    the Green function directly here keeps the large log-scale structure out
    of the finite element solve; only a small smooth remainder is left to it.
    H holds H(., xi_k) at the mesh nodes, as regular_parts returns it.
    """
    i = b.index
    vals = np.full(mesh.n_nodes, -(math.log(2 * b.alpha ** 2) + math.log(b.delta_pow)))
    vals += 4 * math.pi * b.alpha * H[i]
    for k in range(coeffs.centers.shape[0]):
        r_k = mesh.center_distance(k)
        g_k = -np.log(r_k) / _TWO_PI + H[k]
        vals -= coeffs.beta[i, k] * g_k
    return vals


def project_numeric(b: Bubble, mesh: Mesh, coeffs=None, H=None) -> Field:
    """Dirichlet projection: w plus a harmonic lift of -w.

    With coefficient data and the regular parts H (see regular_parts) the
    lift splits into the explicit Green-function combination plus a discrete
    harmonic remainder whose boundary data are already small; without them
    the whole lift is discrete (coarser, used as a cross-check).
    """
    ops = get_ops(mesh)
    w = _bubble_from_r(b, mesh.center_distance(b.index))
    if coeffs is not None and H is not None:
        lead = explicit_harmonic_part(b, coeffs, H, mesh)
        base = w + lead
    else:
        base = w
    g = -base[ops.boundary]
    psi = ops.solve_dirichlet(np.zeros(mesh.n_nodes), boundary_values=g)
    vals = base + psi.values
    vals[ops.boundary] = 0.0
    return Field(mesh, vals, DIRICHLET_ZERO)


def project_asymptotic(b: Bubble, coeffs, gp, x, regime: str, eta=None) -> float:
    """Explicit expansion of the projection, near or far form.

    near: w - log(2 a^2 d^a) + 4 pi a H(x, xi_i) - sum_k beta_ik G(x, xi_k)
    far:  4 pi a G(x, xi_i) - sum_k beta_ik G(x, xi_k)
    """
    pt = np.asarray(x, dtype=float)
    centers = coeffs.centers
    i = b.index
    if regime == "far":
        if eta is not None:
            d = np.hypot(pt[0] - centers[:, 0], pt[1] - centers[:, 1])
            if np.any(d < eta):
                raise RegimeViolation(
                    f"far form needs dist(x, every center) >= eta={eta:.3g}; "
                    f"closest is {d.min():.3g}")
        return float(far_expansion(b, coeffs, gp, pt[None, :])[0])
    if regime == "near":
        val = float(bubble_value(b, pt)) \
            - (math.log(2 * b.alpha ** 2) + math.log(b.delta_pow)) \
            + 4 * math.pi * b.alpha * gp.robin_H(pt, centers[i])
    else:
        raise ValueError(f"unknown regime {regime!r}")
    for k in range(centers.shape[0]):
        val -= coeffs.beta[i, k] * gp.green(pt, centers[k])
    return float(val)


def far_expansion(b: Bubble, coeffs, gp, points) -> np.ndarray:
    """The far form of project_asymptotic at each of the points, an (n, 2) array."""
    i = b.index
    g = [gp.green_many(points, c) for c in coeffs.centers]
    val = 4 * math.pi * b.alpha * g[i]
    for k, gk in enumerate(g):
        val -= coeffs.beta[i, k] * gk
    return val


def assemble_U(projections, tau: float, m1: int) -> Field:
    """Signed sum of projected bubbles; vanishes on the whole boundary."""
    if not projections:
        raise ValueError("no projections given")
    mesh = projections[0].mesh
    vals = np.zeros(mesh.n_nodes)
    for k, p in enumerate(projections):
        if p.mesh is not mesh:
            raise MeshMismatch("projections live on different meshes")
        vals += p.values if k < m1 else -p.values / tau
    return Field(mesh, vals, DIRICHLET_ZERO)


def build_ansatz(cfg, scales, mesh, coeffs=None, gp=None) -> tuple[Field, tuple]:
    """The ansatz U on the given mesh and the bubble projections it sums,
    in the order of make_bubbles."""
    bubbles = make_bubbles(cfg, scales)
    H = regular_parts(gp, mesh, coeffs.centers) if coeffs is not None and gp is not None else None
    projections = tuple(project_numeric(b, mesh, coeffs=coeffs, H=H) for b in bubbles)
    return assemble_U(projections, cfg.tau, cfg.m1), projections

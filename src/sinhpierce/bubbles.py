"""Explicit functions of the construction: bubbles, the kernel coefficient,
the bubbles' Dirichlet projections, and the ansatz.

All radial formulas are driven by delta_i^alpha_i stored exactly (as d_i rho),
and on a pierced mesh the distance to the own hole center comes from the
patch offsets, so the profiles stay accurate arbitrarily deep into the hole
region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSamples, MeshMismatch
from .geometry import OUTER, TWO_PI, Mesh
from .operators import Field, get_ops


@dataclass(frozen=True)
class Bubble:
    """One concentrating profile: peak height ~ log(2 alpha^2 / delta^alpha)."""

    index: int
    alpha: float
    delta_pow: float      # delta**alpha, exact


def make_bubbles(cfg, scales):
    return [Bubble(index=i, alpha=float(cfg.alphas[i]), delta_pow=float(scales.delta_pow[i]))
            for i in range(cfg.m)]


def _bubble_from_r(b: Bubble, r):
    """w = log( 2 a^2 d^a / (d^a + r^a)^2 ) at the distances r from the center."""
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


def semianalytic_laplacian_U(cfg, scales, mesh) -> np.ndarray:
    """Lap U evaluated from the bubble sources: projection leaves Lap w intact,
    and each source is -Lap of its bubble."""
    total = np.zeros(mesh.n_nodes)
    for b in make_bubbles(cfg, scales):
        total -= cfg.weigh(b.index, bubble_source(b, mesh))
    return total


# ---------------------------------------------------------------------------
# kernel of the rescaled linearized operator

def lalpha_weight(alpha, y):
    """|y|^(alpha-2) / (1 + |y|^alpha)^2, the concentration weight."""
    y = np.asarray(y, dtype=float)
    return y ** (alpha - 2) / (1.0 + y ** alpha) ** 2


@dataclass
class RescaledField:
    """phi(xi_j + delta_j y) sampled on a log-radial x angular grid."""

    y: np.ndarray          # (n_r,) radii of the rescaled variable
    values: np.ndarray     # (n_r, n_t), the patch's n_t angles in order


def rescale_correction(phi: Field, scales, j, y_max=50.0) -> RescaledField:
    """Sample the correction around hole j in bubble coordinates.

    The sampling grid is the polar patch itself (ring radii over patch
    angles), restricted to eps_j/delta_j <= |y| <= min(eta/delta_j, y_max):
    nodal values are read off directly, with no interpolation, so projecting
    a grid function onto itself is exact. The log-radial trapezoid needs two
    rings; a patch of one layer (eps_j near eta) has just two.
    """
    patch = phi.mesh.patches[j]
    delta = scales.delta[j]
    sel = patch.radii <= y_max * delta * (1 + 1e-12)
    if sel.sum() < 2:
        raise InsufficientSamples(f"hole {j + 1}: the rescaling range |y| <= {y_max:g} "
                                  f"holds {sel.sum()} ring(s) of its patch, not the two a "
                                  "kernel coefficient needs")
    return RescaledField(y=patch.radii[sel] / delta, values=phi.values[patch.node_grid[sel]])


def _log_radial_quadrature(y, f):
    """integral f(y) y dy over the grid via trapezoid in log y."""
    t = np.log(y)
    g = f * y * y          # f y dy = f y^2 dt
    return float(np.sum(0.5 * (g[1:] + g[:-1]) * np.diff(t)))


def kernel_coefficient(phi: Field, cfg, scales, j) -> float:
    """Projection a_j = <Phi_j, Y0>_w / ||Y0||^2_w on the annulus truncated at
    |y| = 50, with Y0 = (1 - |y|^a)/(1 + |y|^a) the radial kernel element of
    Lap + 2 a^2 |y|^(a-2)/(1 + |y|^a)^2.

    Numerator and denominator use the same grid and truncation, so feeding
    the kernel element itself back in returns exactly one.
    """
    rf = rescale_correction(phi, scales, j)
    alpha = float(cfg.alphas[j])
    w = lalpha_weight(alpha, rf.y)
    y0 = (1.0 - rf.y ** alpha) / (1.0 + rf.y ** alpha)
    phibar = rf.values.mean(axis=1)
    num = _log_radial_quadrature(rf.y, w * phibar * y0)
    den = _log_radial_quadrature(rf.y, w * y0 * y0)
    return num / den


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
            Hk[outer] = np.log(np.hypot(x - c[0], y - c[1])) / TWO_PI
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
        g_k = -np.log(r_k) / TWO_PI + H[k]
        vals -= coeffs.beta[i, k] * g_k
    return vals


def project_numeric(b: Bubble, mesh: Mesh, coeffs, H) -> Field:
    """Dirichlet projection: w plus a harmonic lift of -w.

    With the coefficient data and the regular parts H (see regular_parts) the
    lift splits into the explicit Green-function combination plus a discrete
    harmonic remainder whose boundary data are already small.
    """
    ops = get_ops(mesh)
    base = _bubble_from_r(b, mesh.center_distance(b.index)) \
        + explicit_harmonic_part(b, coeffs, H, mesh)
    g = -base[ops.boundary]
    vals = base + ops.solve_dirichlet(g)
    vals[ops.boundary] = 0.0
    return Field(mesh, vals)


def far_expansion(b: Bubble, coeffs, gp, points) -> np.ndarray:
    """Far form of the projection, 4 pi a G(x, xi_i) - sum_k beta_ik G(x, xi_k),
    at each of the points, an (n, 2) array."""
    i = b.index
    g = [gp.green_many(points, c) for c in coeffs.centers]
    val = 4 * math.pi * b.alpha * g[i]
    for k, gk in enumerate(g):
        val -= coeffs.beta[i, k] * gk
    return val


def assemble_U(projections, cfg) -> Field:
    """Signed sum of projected bubbles, each weighed by cfg.weigh; vanishes
    on the whole boundary."""
    if not projections:
        raise ValueError("no projections given")
    mesh = projections[0].mesh
    vals = np.zeros(mesh.n_nodes)
    for k, p in enumerate(projections):
        if p.mesh is not mesh:
            raise MeshMismatch("projections live on different meshes")
        vals += cfg.weigh(k, p.values)
    return Field(mesh, vals)


def build_ansatz(cfg, scales, mesh, coeffs, gp) -> tuple[Field, tuple]:
    """The ansatz U on the given mesh and the bubble projections it sums,
    in the order of make_bubbles."""
    bubbles = make_bubbles(cfg, scales)
    H = regular_parts(gp, mesh, coeffs.centers)
    projections = tuple(project_numeric(b, mesh, coeffs=coeffs, H=H) for b in bubbles)
    return assemble_U(projections, cfg), projections

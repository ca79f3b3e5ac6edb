"""Discrete calculus on the pierced mesh.

Piecewise-linear elements on the triangulation: stiffness matrix for the
Laplacian, lumped mass for quadrature, direct sparse factorizations for the
Dirichlet Poisson problem and for the linearized operator L = Lap + W.
Patch triangles are assembled in hole-local offset coordinates, which keeps
the element geometry exact on holes ten orders of magnitude below the domain
scale.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidExponent, MeshMismatch, NearSingular, OverflowGuard, SolverFailure
from .geometry import Mesh

DIRICHLET_ZERO = "dirichlet-zero"
FREE = "free"

SUP_GUARD = 50.0   # sup norm of a correction beyond which the iteration diverges
EIG_FLOOR = 1e-8   # |smallest eigenvalue| of Lap + W below which it is resonant


@dataclass(eq=False)
class Field:
    """Scalar function sampled at mesh nodes."""

    mesh: Mesh
    values: np.ndarray
    bc: str = FREE

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError("field size does not match mesh")
        if self.bc == DIRICHLET_ZERO:
            b = self.mesh.is_boundary
            scale = np.abs(self.values).max() if self.values.size else 0.0
            if scale > 0 and np.abs(self.values[b]).max() > 1e-12 * scale:
                raise ValueError("dirichlet-zero field does not vanish on the boundary")

    def same_mesh(self, other):
        if self.mesh is not other.mesh:
            raise MeshMismatch("fields live on different meshes")

    def copy(self):
        return Field(self.mesh, self.values.copy(), self.bc)


def _assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    coords = mesh.all_tri_coords()
    x = coords[:, :, 0]
    y = coords[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = np.abs(0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                         - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0])))
    inv4a = 1.0 / (4.0 * area)
    rows, cols, vals = [], [], []
    t = mesh.triangles
    for i in range(3):
        for j in range(3):
            rows.append(t[:, i])
            cols.append(t[:, j])
            vals.append((b[:, i] * b[:, j] + c[:, i] * c[:, j]) * inv4a)
    K = sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(mesh.n_nodes, mesh.n_nodes))
    return K.tocsr()


class DiscreteOperators:
    """Assembled operators for one mesh, with cached factorizations."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.K = _assemble_stiffness(mesh)
        self.w = mesh.weights
        self.interior = mesh.interior_index
        self.boundary = np.flatnonzero(mesh.is_boundary)
        self._K_II = self.K[np.ix_(self.interior, self.interior)].tocsc()
        self._K_IB = self.K[np.ix_(self.interior, self.boundary)].tocsr()
        self._poisson_lu = None

    # -- basic calculus ----------------------------------------------------

    def laplacian(self, f: Field) -> Field:
        """Lumped-mass Laplacian; boundary entries are zeroed."""
        vals = -(self.K @ f.values) / self.w
        vals[self.boundary] = 0.0
        return Field(self.mesh, vals, FREE)

    def solve_dirichlet(self, rhs, boundary_values=None) -> Field:
        """Solve Lap u = rhs with u = g on the whole boundary (g = 0 default)."""
        rhs_vals = rhs.values if isinstance(rhs, Field) else np.asarray(rhs, dtype=float)
        if self._poisson_lu is None:
            self._poisson_lu = spla.splu(self._K_II)
        w_rhs = self.w * rhs_vals
        b = -w_rhs[self.interior]
        g = None
        if boundary_values is not None:
            g = np.asarray(boundary_values, dtype=float)
            b = b - self._K_IB @ g
        u = np.zeros(self.mesh.n_nodes)
        u[self.interior] = self._poisson_lu.solve(b)
        if g is not None:
            u[self.boundary] = g
        Ku = self.K @ u
        res = Ku + w_rhs
        res[self.boundary] = 0.0
        scale = max(np.linalg.norm(w_rhs), np.linalg.norm(Ku), 1e-300)
        rel = np.linalg.norm(res) / scale
        if not np.isfinite(rel) or rel > 1e-10:
            raise SolverFailure(f"Poisson solve residual {rel:.3e}", residual=rel)
        return Field(self.mesh, u, DIRICHLET_ZERO if g is None else FREE)

    def release_poisson_factor(self):
        """Drop the cached factor of K_II; a later solve_dirichlet refactors."""
        self._poisson_lu = None

    # -- norms ---------------------------------------------------------------

    def norm_lp(self, f, p) -> float:
        if p < 1:
            raise InvalidExponent(f"Lp norm needs p >= 1, got {p}")
        vals = f.values if isinstance(f, Field) else np.asarray(f, dtype=float)
        return float(np.sum(self.w * np.abs(vals) ** p) ** (1.0 / p))

    def norm_h01(self, f) -> float:
        vals = f.values if isinstance(f, Field) else np.asarray(f, dtype=float)
        return float(np.sqrt(max(vals @ (self.K @ vals), 0.0)))

    def norm_sup(self, f) -> float:
        vals = f.values if isinstance(f, Field) else np.asarray(f, dtype=float)
        return float(np.abs(vals).max())


_ops_cache: "weakref.WeakKeyDictionary[Mesh, DiscreteOperators]" = weakref.WeakKeyDictionary()


def get_ops(mesh: Mesh) -> DiscreteOperators:
    ops = _ops_cache.get(mesh)
    if ops is None:
        ops = DiscreteOperators(mesh)
        _ops_cache[mesh] = ops
    return ops


def release_ops(mesh: Mesh):
    """Drop the mesh's cached operators; the next get_ops assembles them anew
    (same bits). Holders of the old object keep it alive until they let go."""
    _ops_cache.pop(mesh, None)


# ---------------------------------------------------------------------------
# problem-specific fields

def _potential_values(cfg, mesh):
    v1 = np.asarray(cfg.V1(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)
    v2 = np.asarray(cfg.V2(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)
    v1 = np.broadcast_to(v1, (mesh.n_nodes,))
    v2 = np.broadcast_to(v2, (mesh.n_nodes,))
    return v1, v2


def semianalytic_laplacian_U(cfg, scales, mesh) -> np.ndarray:
    """Lap U evaluated from the bubble sources: projection leaves Lap w intact."""
    from .bubbles import bubble_source, make_bubbles

    total = np.zeros(mesh.n_nodes)
    for b in make_bubbles(cfg, scales):
        src = bubble_source(b, mesh)
        if b.index < cfg.m1:
            total -= src
        else:
            total += src / cfg.tau
    return total


def residual_R(U: Field, cfg, scales, path="semianalytic") -> Field:
    """Defect R = Lap U + rho (V1 e^U - V2 e^{-tau U}) of the ansatz."""
    mesh = U.mesh
    v1, v2 = _potential_values(cfg, mesh)
    rho = scales.rho
    nonlin = rho * (v1 * np.exp(U.values) - v2 * np.exp(-cfg.tau * U.values))
    if path == "semianalytic":
        lap = semianalytic_laplacian_U(cfg, scales, mesh)
    elif path == "discrete":
        lap = get_ops(mesh).laplacian(U).values
    else:
        raise ValueError(f"unknown path {path!r}")
    return Field(mesh, lap + nonlin, FREE)


def weight_W(U: Field, cfg, scales) -> Field:
    """W = rho V1 e^U + rho tau V2 e^{-tau U} >= 0."""
    v1, v2 = _potential_values(cfg, U.mesh)
    rho = scales.rho
    vals = rho * v1 * np.exp(U.values) + rho * cfg.tau * v2 * np.exp(-cfg.tau * U.values)
    return Field(U.mesh, vals, FREE)


def nonlinear_N(phi: Field, U: Field, cfg, scales) -> Field:
    """Superlinear remainder N(phi); guards against runaway exponentials."""
    phi.same_mesh(U)
    if np.abs(phi.values).max() > SUP_GUARD:
        raise OverflowGuard(
            f"correction reached sup norm {np.abs(phi.values).max():.3g} > {SUP_GUARD:g}; "
            "iteration diverging")
    v1, v2 = _potential_values(cfg, U.mesh)
    rho = scales.rho
    tau = cfg.tau
    # expm1 keeps the quadratic smallness of e^t - t - 1 at tiny t
    e1 = np.expm1(phi.values) - phi.values
    e2 = np.expm1(-tau * phi.values) + tau * phi.values
    vals = rho * v1 * np.exp(U.values) * e1 - rho * v2 * np.exp(-tau * U.values) * e2
    return Field(U.mesh, vals, FREE)


class LinearOperator:
    """Assembled Lap + W with Dirichlet elimination; realizes the solver T."""

    def __init__(self, mesh: Mesh, W: Field):
        if np.any(W.values < 0):
            raise ValueError("weight W must be nonnegative")
        self.mesh = mesh
        self.W = W
        ops = get_ops(mesh)
        self._ops = ops
        interior = ops.interior
        A = (-ops._K_II + sp.diags((ops.w * W.values)[interior])).tocsc()
        self.matrix = A
        self._lu = None
        self._eig_estimate = None

    def _factor(self):
        if self._lu is None:
            try:
                self._lu = spla.splu(self.matrix)
            except RuntimeError as exc:
                raise NearSingular(f"factorization of Lap+W failed: {exc}") from exc
        return self._lu

    def smallest_eigenvalue(self, iters=8, seed=1234) -> float:
        """Inverse-power estimate of the smallest-magnitude eigenvalue of
        the generalized problem (Lap + W) x = lambda M x."""
        if self._eig_estimate is not None:
            return self._eig_estimate
        lu = self._factor()
        ops = self._ops
        wI = ops.w[ops.interior]
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(len(ops.interior))
        lam = np.inf
        for _ in range(iters):
            y = lu.solve(wI * x)
            ny = np.sqrt(np.sum(wI * y * y))
            if not np.isfinite(ny) or ny == 0:
                break
            x = y / ny
            lam = float(x @ (self.matrix @ x)) / float(np.sum(wI * x * x))
        self._eig_estimate = lam
        return lam

    def apply(self, phi: Field) -> Field:
        """(Lap + W) phi in nodal form for zero-boundary phi."""
        ops = self._ops
        out = np.zeros(self.mesh.n_nodes)
        out[ops.interior] = (self.matrix @ phi.values[ops.interior]) / ops.w[ops.interior]
        return Field(self.mesh, out, FREE)

    def solve(self, h: Field) -> Field:
        """phi with (Lap + W) phi = h, phi = 0 on the boundary."""
        lu = self._factor()
        ops = self._ops
        b = (ops.w * h.values)[ops.interior]
        phi_I = lu.solve(b)
        if not np.all(np.isfinite(phi_I)):
            raise NearSingular("Lap+W solve produced non-finite values",
                               eigenvalue=self._eig_estimate)
        A_phi = self.matrix @ phi_I
        res = A_phi - b
        scale = max(np.linalg.norm(b), np.linalg.norm(A_phi), 1e-300)
        rel = np.linalg.norm(res) / scale
        if rel > 1e-10:
            raise SolverFailure(f"Lap+W solve residual {rel:.3e}", residual=rel)
        phi = np.zeros(self.mesh.n_nodes)
        phi[ops.interior] = phi_I
        return Field(self.mesh, phi, DIRICHLET_ZERO)

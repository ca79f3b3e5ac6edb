"""Discrete calculus on the pierced mesh.

Piecewise-linear elements on the triangulation: stiffness matrix for the
Laplacian, lumped mass for quadrature, direct sparse factorizations for the
discrete harmonic extension and for the linearized operator L = Lap + W.
Patch triangles are assembled in hole-local offset coordinates, which keeps
the element geometry exact on holes ten orders of magnitude below the domain
scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidExponent, NearSingular, NonpositiveSampled, SolverFailure
from .geometry import Mesh

SUP_GUARD = 50.0   # sup norm of a correction beyond which the iteration diverges
EIG_FLOOR = 1e-8   # |smallest eigenvalue| of Lap + W below which it is resonant


@dataclass(eq=False)
class Field:
    """Nodal function on the mesh that vanishes on its boundary: a projected
    bubble, the ansatz U, a correction phi or u = U + phi. Every other nodal
    quantity (Lap f, R, W, N, a right-hand side) is a plain array."""

    mesh: Mesh
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.n_nodes,):
            raise ValueError("field size does not match mesh")
        scale = np.abs(self.values).max() if self.values.size else 0.0
        if scale > 0 and np.abs(self.values[self.mesh.is_boundary]).max() > 1e-12 * scale:
            raise ValueError("field does not vanish on the boundary")


def _assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    coords = mesh.all_tri_coords()   # a fresh array, scaled in place
    # P1 entries are scale-free and power-of-two scaling is exact: bring each
    # triangle to unit size, so an eps^2-sized area cannot underflow
    big = np.abs(coords.transpose(1, 2, 0), order="C").max(axis=(0, 1))   # reduced along T
    np.ldexp(coords, -np.frexp(big)[1][:, None, None], out=coords)
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

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Lumped-mass Laplacian of nodal values; boundary entries are zeroed."""
        vals = -(self.K @ f) / self.w
        vals[self.boundary] = 0.0
        return vals

    def solve_dirichlet(self, boundary_values) -> np.ndarray:
        """Discrete harmonic extension: Lap u = 0 inside, u = g on the boundary."""
        if self._poisson_lu is None:
            self._poisson_lu = spla.splu(self._K_II)
        g = np.asarray(boundary_values, dtype=float)
        u = np.zeros(self.mesh.n_nodes)
        u[self.interior] = self._poisson_lu.solve(-(self._K_IB @ g))
        u[self.boundary] = g
        res = self.K @ u
        scale = max(np.linalg.norm(res), 1e-300)
        res[self.boundary] = 0.0
        rel = np.linalg.norm(res) / scale
        if not np.isfinite(rel) or rel > 1e-10:
            raise SolverFailure(f"Poisson solve residual {rel:.3e}")
        return u

    def release_poisson_factor(self):
        """Drop the cached factor of K_II; a later solve_dirichlet refactors."""
        self._poisson_lu = None

    # -- norms ---------------------------------------------------------------

    def norm_lp(self, f: np.ndarray, p) -> float:
        if p < 1:
            raise InvalidExponent(f"Lp norm needs p >= 1, got {p}")
        return float(np.sum(self.w * np.abs(f) ** p) ** (1.0 / p))

    def norm_h01(self, f: np.ndarray) -> float:
        return float(np.sqrt(max(f @ (self.K @ f), 0.0)))

    def norm_sup(self, f: np.ndarray) -> float:
        return float(np.abs(f).max())


def get_ops(mesh: Mesh) -> DiscreteOperators:
    """The mesh's operators, assembled on first use and kept on the mesh."""
    if mesh.ops is None:
        mesh.ops = DiscreteOperators(mesh)
    return mesh.ops


def release_ops(mesh: Mesh):
    """Drop the mesh's operators; the next get_ops assembles them anew (same
    bits). Holders of the old object keep it alive until they let go."""
    mesh.ops = None


# ---------------------------------------------------------------------------
# problem-specific fields

def residual_R(U, lap_U, V, tau, rho) -> np.ndarray:
    """Defect R = Lap U + rho (V1 e^U - V2 e^{-tau U}) of U, all at the nodes:
    V = (V1, V2), Lap U given (for the ansatz, the stage's lap_U)."""
    v1, v2 = V
    return lap_U + rho * (v1 * np.exp(U) - v2 * np.exp(-tau * U))


def weight_W(U, V, tau, rho) -> np.ndarray:
    """W = rho V1 e^U + rho tau V2 e^{-tau U}, nonnegative where V1, V2 are."""
    v1, v2 = V
    return rho * v1 * np.exp(U) + rho * tau * v2 * np.exp(-tau * U)


def nonlinear_N(phi, U, V, tau, rho) -> np.ndarray:
    """Superlinear remainder N(phi); the correction loop keeps phi within
    SUP_GUARD before it gets here, but e^{-tau phi} may still overflow for a
    large tau: then N is not finite, for the loop to name."""
    v1, v2 = V
    # expm1 keeps the quadratic smallness of e^t - t - 1 at tiny t
    with np.errstate(over="ignore", invalid="ignore"):
        e1 = np.expm1(phi) - phi
        e2 = np.expm1(-tau * phi) + tau * phi
        return rho * v1 * np.exp(U) * e1 - rho * v2 * np.exp(-tau * U) * e2


class LinearOperator:
    """Assembled Lap + W with Dirichlet elimination; realizes the solver T."""

    def __init__(self, mesh: Mesh, W: np.ndarray):
        if np.any(W < 0):
            i = int(np.argmax(W < 0))
            x, y = mesh.nodes[i]
            raise NonpositiveSampled(
                f"weight W = {W[i]:.6g} is negative at node {i} ({x:.6g}, {y:.6g}): "
                "a potential is negative there")
        self.mesh = mesh
        ops = get_ops(mesh)
        self._ops = ops
        interior = ops.interior
        A = (-ops._K_II + sp.diags((ops.w * W)[interior])).tocsc()
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

    def smallest_eigenvalue(self) -> float:
        """Inverse-power estimate (8 steps from a fixed random start) of the
        smallest-magnitude eigenvalue of the generalized problem
        (Lap + W) x = lambda M x."""
        if self._eig_estimate is not None:
            return self._eig_estimate
        lu = self._factor()
        ops = self._ops
        wI = ops.w[ops.interior]
        rng = np.random.default_rng(1234)
        x = rng.standard_normal(len(ops.interior))
        steps = 0
        for _ in range(8):
            y = lu.solve(wI * x)
            ny = np.sqrt(np.sum(wI * y * y))
            if not np.isfinite(ny) or ny == 0:
                break
            x = y / ny
            steps += 1
        # the Rayleigh quotient of the last accepted step
        lam = float(x @ (self.matrix @ x)) / float(np.sum(wI * x * x)) if steps else np.inf
        self._eig_estimate = lam
        return lam

    def solve(self, h: np.ndarray) -> Field:
        """phi with (Lap + W) phi = h at the interior nodes, phi = 0 on the boundary."""
        lu = self._factor()
        ops = self._ops
        b = (ops.w * h)[ops.interior]
        phi_I = lu.solve(b)
        if not np.all(np.isfinite(phi_I)):
            raise NearSingular("Lap+W solve produced non-finite values")
        A_phi = self.matrix @ phi_I
        res = A_phi - b
        scale = max(np.linalg.norm(b), np.linalg.norm(A_phi), 1e-300)
        rel = np.linalg.norm(res) / scale
        if rel > 1e-10:
            raise SolverFailure(f"Lap+W solve residual {rel:.3e}")
        phi = np.zeros(self.mesh.n_nodes)
        phi[ops.interior] = phi_I
        return Field(self.mesh, phi)

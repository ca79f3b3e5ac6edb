"""Dirichlet Green function G(x,y) = -(1/2pi) log|x-y| + H(x,y) of the outer domain.

Two backends: the exact image formula on the unit disk, and a finite element
backend for general domains that obtains the regular part H(.,y) as the
harmonic extension of the smooth boundary data (1/2pi) log|x-y|.  The Robin
function H(x,x) is the extension evaluated at x, never a limit of G.

The construction reads the domain only through H and G at the hole centers:
each Green function keeps that table per center layout (pair_table).
"""

from __future__ import annotations

import numpy as np

from .errors import CoincidentPoints, PointOutsideDomain
from .geometry import TWO_PI, DomainSpec, FieldEvaluator, _farther_than, build_domain_mesh
from .operators import get_ops, release_ops


class _Green:
    """G(x, y) = -(1/2pi) log|x - y| + H(x, y) on `domain`, from the regular
    part `robin_H_many(points, y)`."""

    def check_inside(self, points):
        """Raise on the first of the points, an (n, 2) array, farther than
        1e-10 outside the domain or not finite."""
        pts = np.asarray(points, dtype=float)
        out = ~np.isfinite(pts).all(axis=1)
        out[~out] = _farther_than(pts[~out], self.domain, self.domain.boundary, 1e-10, side=-1)
        if out.any():
            raise PointOutsideDomain(
                f"point {tuple(pts[np.argmax(out)].tolist())} lies outside the domain")

    def green(self, x, y) -> float:
        return float(self.green_many(x, y)[0])

    def green_many(self, points, y) -> np.ndarray:
        """G(., y) at each of the points: all of them and y must lie in the
        domain, and none on y."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        self.check_inside(np.vstack([pts, y]))
        d = np.hypot(pts[:, 0] - y[0], pts[:, 1] - y[1])
        close = np.flatnonzero(d < 1e-14)
        if close.size:
            raise CoincidentPoints(f"green undefined on the diagonal, |x-y|={d[close[0]]:.3g}")
        return -np.log(d) / TWO_PI + self.robin_H_many(pts, y)

    def pair_table(self, centers):
        """Symmetric tables H(xi_i, xi_j) and G(xi_i, xi_j) over the hole centers.

        Each unordered pair is evaluated once, so the coefficient systems see an
        exactly symmetric Green matrix regardless of backend tolerance. It is
        evaluated at y = the lexicographically larger center, so listing the
        holes in another order permutes the tables and changes no value. The
        pair is built on first use and kept, read-only, per center layout.
        """
        c = np.atleast_2d(np.asarray(centers, dtype=float))
        key = (c.shape, c.tobytes())
        if key in self._pair_tables:
            return self._pair_tables[key]
        self.check_inside(c)
        m = c.shape[0]
        H = np.zeros((m, m))
        G = np.zeros((m, m))
        order = np.lexsort((c[:, 1], c[:, 0]))
        for k, j in enumerate(order):
            smaller = order[:k + 1]
            H[smaller, j] = H[j, smaller] = self.robin_H_many(c[smaller], c[j])
            for i in order[:k]:
                G[i, j] = G[j, i] = -np.log(np.hypot(*(c[i] - c[j]))) / TWO_PI + H[i, j]
        H.setflags(write=False)
        G.setflags(write=False)
        self._pair_tables[key] = (H, G)
        return self._pair_tables[key]


class AnalyticDiskGreen(_Green):
    """Image formula on the unit disk: H(x,y) = (1/2pi) log|1 - x conj(y)|."""

    backend = "analytic-disk"

    def __init__(self, domain: DomainSpec):
        if domain.kind != "unit-disk":
            raise ValueError("analytic backend only pairs with the unit disk")
        self.domain = domain
        self._pair_tables = {}

    def robin_H_many(self, points, y) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        u = 1.0 - (pts[:, 0] * y[0] + pts[:, 1] * y[1])
        v = -(pts[:, 1] * y[0] - pts[:, 0] * y[1])
        return np.log(np.hypot(u, v)) / TWO_PI


class NumericGreen(_Green):
    """Finite element backend on a mesh of the (unpierced) outer domain.

    Each H(., y) is one Dirichlet solve on the domain mesh, cached per y.
    Once pair_table has solved H(., xi_k) for every center, the mesh's
    operators and Poisson factor are dropped; a later new y rebuilds them.
    """

    backend = "numeric"

    def __init__(self, domain: DomainSpec, h: float = 0.02):
        self.domain = domain
        self.mesh = build_domain_mesh(domain, h)
        self.evaluator = FieldEvaluator(self.mesh)
        self._h_fields = {}
        self._pair_tables = {}

    def pair_table(self, centers):
        """As _Green.pair_table; the table holds H(., xi_k) for every center,
        so the domain mesh's operators go (the mesh, evaluator and fields stay)."""
        tables = super().pair_table(centers)
        release_ops(self.mesh)
        return tables

    def _harmonic_part(self, y) -> np.ndarray:
        key = (float(y[0]), float(y[1]))
        vals = self._h_fields.get(key)
        if vals is None:
            ops = get_ops(self.mesh)
            bpts = self.mesh.nodes[ops.boundary]
            g = np.log(np.hypot(bpts[:, 0] - y[0], bpts[:, 1] - y[1])) / TWO_PI
            vals = self._h_fields[key] = ops.solve_dirichlet(g)
        return vals

    def robin_H_many(self, points, y) -> np.ndarray:
        return self.evaluator(self._harmonic_part(y), points)


class GreenProvider(_Green):
    """Facade choosing the analytic formula on the unit disk and the numeric
    backend on any other domain."""

    def __init__(self, domain: DomainSpec):
        self.domain = domain
        self._impl = AnalyticDiskGreen(domain) if domain.kind == "unit-disk" \
            else NumericGreen(domain)
        self.backend = self._impl.backend

    def robin_H_many(self, points, y) -> np.ndarray:
        """Regular part H(., y) at many points (vectorized where the backend allows)."""
        return self._impl.robin_H_many(points, y)

    def pair_table(self, centers):
        return self._impl.pair_table(centers)

"""Dirichlet Green function G(x,y) = -(1/2pi) log|x-y| + H(x,y) of the outer domain.

Two backends: the exact image formula on the unit disk, and a finite element
backend for general domains that obtains the regular part H(.,y) as the
harmonic extension of the smooth boundary data (1/2pi) log|x-y|.  The Robin
function H(x,x) is the extension evaluated at x, never a limit of G.
"""

from __future__ import annotations

import weakref

import numpy as np

from .errors import CoincidentPoints, PointOutsideDomain
from .geometry import (
    DomainSpec,
    FieldEvaluator,
    _signed_inside_distance,
    build_domain_mesh,
    distance_to_boundary,
)
from .operators import get_ops, release_ops

_TWO_PI = 2.0 * np.pi


class _Green:
    """G(x, y) = -(1/2pi) log|x - y| + H(x, y) from the domain check
    `check_inside(points)` and the regular part `robin_H_many(points, y)`."""

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
        return -np.log(d) / _TWO_PI + self.robin_H_many(pts, y)

    def release_operators(self):
        """Drop whatever the backend keeps only to make new H(., y); a
        closed formula keeps nothing."""


class AnalyticDiskGreen(_Green):
    """Image formula on the unit disk: H(x,y) = (1/2pi) log|1 - x conj(y)|."""

    backend = "analytic-disk"

    def __init__(self, domain: DomainSpec):
        if domain.kind != "unit-disk":
            raise ValueError("analytic backend only pairs with the unit disk")
        self.domain = domain

    def check_inside(self, points):
        """Raise on the first of the points, an (n, 2) array, outside the disk."""
        pts = np.asarray(points, dtype=float)
        out = np.flatnonzero(np.hypot(pts[:, 0], pts[:, 1]) > 1.0 + 1e-12)
        if out.size:
            raise PointOutsideDomain(
                f"point {tuple(pts[out[0]].tolist())} lies outside the unit disk")

    def robin_H(self, x, y) -> float:
        self.check_inside((x, y))
        zx = complex(x[0], x[1])
        zy = complex(y[0], y[1])
        return float(np.log(abs(1.0 - zx * zy.conjugate())) / _TWO_PI)

    def robin_H_many(self, points, y) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        u = 1.0 - (pts[:, 0] * y[0] + pts[:, 1] * y[1])
        v = -(pts[:, 1] * y[0] - pts[:, 0] * y[1])
        return np.log(np.hypot(u, v)) / _TWO_PI


class NumericGreen(_Green):
    """Finite element backend on a mesh of the (unpierced) outer domain.

    Each H(., y) is one Dirichlet solve on the domain mesh, cached per y.
    Once every y the caller needs is cached, release_operators() drops the
    mesh's operators and Poisson factor; a later new y rebuilds them.
    """

    backend = "numeric"

    def __init__(self, domain: DomainSpec, h: float = 0.02):
        self.domain = domain
        self.h = h
        self.mesh = build_domain_mesh(domain, h)
        self.ops = get_ops(self.mesh)
        self.evaluator = FieldEvaluator(self.mesh)
        self._h_fields = {}

    def check_inside(self, points):
        """Raise on the first of the points, an (n, 2) array, outside the domain."""
        pts = np.asarray(points, dtype=float)
        out = np.flatnonzero(
            _signed_inside_distance(pts, self.domain, self.domain.boundary) < -1e-10)
        if out.size:
            raise PointOutsideDomain(
                f"point {tuple(pts[out[0]].tolist())} lies outside the domain")

    def release_operators(self):
        """Drop the domain mesh's operators; the mesh, evaluator and cached
        fields stay."""
        self.ops = None
        release_ops(self.mesh)

    def _harmonic_part(self, y):
        key = (float(y[0]), float(y[1]))
        fld = self._h_fields.get(key)
        if fld is None:
            if self.ops is None:
                self.ops = get_ops(self.mesh)
            bidx = self.ops.boundary
            bpts = self.mesh.nodes[bidx]
            g = np.log(np.hypot(bpts[:, 0] - y[0], bpts[:, 1] - y[1])) / _TWO_PI
            fld = self.ops.solve_dirichlet(np.zeros(self.mesh.n_nodes), boundary_values=g)
            self._h_fields[key] = fld
        return fld

    def robin_H(self, x, y) -> float:
        self.check_inside((x, y))
        fld = self._harmonic_part(y)
        return float(self.evaluator(fld.values, np.asarray(x, dtype=float)))

    def robin_H_many(self, points, y) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        fld = self._harmonic_part(y)
        return np.asarray(self.evaluator(fld.values, pts), dtype=float)


class GreenProvider(_Green):
    """Facade choosing the analytic disk formula or the numeric backend."""

    def __init__(self, domain: DomainSpec, backend: str = "auto", h: float = 0.02):
        if backend == "auto":
            backend = "analytic-disk" if domain.kind == "unit-disk" else "numeric"
        if backend == "analytic-disk":
            self._impl = AnalyticDiskGreen(domain)
        elif backend == "numeric":
            self._impl = NumericGreen(domain, h=h)
        else:
            raise ValueError(f"unknown Green backend {backend!r}")
        self.domain = domain
        self.backend = backend

    def check_inside(self, points):
        self._impl.check_inside(points)

    def robin_H(self, x, y) -> float:
        return self._impl.robin_H(x, y)

    def robin_H_many(self, points, y) -> np.ndarray:
        """Regular part H(., y) at many points (vectorized where the backend allows)."""
        return self._impl.robin_H_many(points, y)

    def robin(self, x) -> float:
        """Robin function H(x, x)."""
        return self._impl.robin_H(x, x)

    def release_operators(self):
        self._impl.release_operators()

    def green_gradient_profile(self, y, ray, t_min=1e-3, t_max=None, n=50):
        """G(y + t ray, y) on a log-spaced grid of t along the given direction."""
        y = np.asarray(y, dtype=float)
        ray = np.asarray(ray, dtype=float)
        ray = ray / np.hypot(ray[0], ray[1])
        if distance_to_boundary(self.domain, y) <= 0:
            raise PointOutsideDomain(f"profile center {tuple(y)} outside the domain")
        if t_max is None:
            t_max = _ray_exit_distance(self.domain, y, ray)
        ts = np.geomspace(t_min, t_max, n)
        vals = np.array([self._impl.green(y + t * ray, y) for t in ts])
        return ts, vals


def _ray_exit_distance(domain, y, ray, tol=1e-12):
    """Distance from y to the boundary along the ray (bisection on the inside test)."""
    lo, hi = 0.0, 1.0
    while distance_to_boundary(domain, y + hi * ray) > 0:
        lo = hi
        hi *= 2
        if hi > 1e6:
            raise PointOutsideDomain("ray never exits the domain")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if distance_to_boundary(domain, y + mid * ray) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < tol:
            break
    return lo


_pair_tables: "weakref.WeakKeyDictionary[_Green, dict]" = weakref.WeakKeyDictionary()


def green_pair_table(gp: GreenProvider, centers):
    """Symmetrized tables H(xi_i, xi_j) and G(xi_i, xi_j) over the hole centers.

    Each unordered pair is evaluated once, so the coefficient systems see an
    exactly symmetric Green matrix regardless of backend tolerance. The pair
    is built on first use and kept, read-only, per provider and centers.
    """
    c = np.atleast_2d(np.asarray(centers, dtype=float))
    tables = _pair_tables.setdefault(gp, {})
    key = (c.shape, c.tobytes())
    if key in tables:
        return tables[key]
    m = c.shape[0]
    H = np.zeros((m, m))
    G = np.zeros((m, m))
    for i in range(m):
        H[i, i] = gp.robin_H(c[i], c[i])
        for j in range(i + 1, m):
            H[i, j] = H[j, i] = gp.robin_H(c[i], c[j])
            G[i, j] = G[j, i] = -np.log(np.hypot(*(c[i] - c[j]))) / _TWO_PI + H[i, j]
    H.setflags(write=False)
    G.setflags(write=False)
    tables[key] = (H, G)
    return H, G

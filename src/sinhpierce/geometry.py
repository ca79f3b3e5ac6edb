"""Pierced planar domains and composite meshes graded toward tiny holes.

The mesh around each hole is a structured polar patch: geometrically graded
radii from the hole radius eps_i out to the annulus radius eta, a fixed
angular count per patch, and node positions stored as exact offsets from the
hole center.  Offsets keep the geometry meaningful even when eps_i is many
orders of magnitude below the domain scale; absolute coordinates would lose
the hole circle to rounding.  The rest of the domain is covered by a hexagonal
background lattice stitched to the patch rims through a filtered Delaunay
triangulation, with angular-doubling transition circles bridging the jump in
resolution.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import (
    DuplicateCenters,
    HoleTouchesBoundary,
    IndexOutOfRange,
    OverlappingHoles,
    StitchFailure,
    UnresolvableHole,
)

# Holes below this radius are rejected; with patch-local coordinates the
# geometry itself stays exact far below this, but derived quantities
# (areas ~ eps^2) start flirting with underflow-driven noise.
MIN_HOLE_RADIUS = 1e-13

# node markers
INTERIOR = -1
OUTER = 0
# hole i carries marker i (1-based)


@dataclass(frozen=True)
class DomainSpec:
    """Outer domain: the unit disk or a simple closed boundary curve."""

    kind: str = "unit-disk"
    boundary: np.ndarray | None = None  # (n, 2) closed curve, for "boundary-curve"

    def __post_init__(self):
        if self.kind not in ("unit-disk", "boundary-curve"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if self.kind == "unit-disk" and self.boundary is not None:
            raise ValueError("unit-disk domain carries no curve data")
        if self.kind == "boundary-curve":
            b = np.asarray(self.boundary, dtype=float)
            # drop every point that repeats its cyclic predecessor, so no
            # polygon test sees a zero-length edge; of the pair first/last (a
            # curve given closed) the last goes, so the curve keeps its start
            if b.ndim == 2 and len(b) > 1 and b.shape[1] == 2:
                b = b[np.concatenate([[True], ~np.isclose(b[1:], b[:-1]).all(axis=1)])]
                if len(b) > 1 and np.allclose(b[-1], b[0]):
                    b = b[:-1]
            if b.ndim != 2 or b.shape[0] < 3 or b.shape[1] != 2:
                raise ValueError("boundary curve needs at least three points, as an "
                                 "(n, 2) list without repeated consecutive points")
            object.__setattr__(self, "boundary", b)


@dataclass(frozen=True)
class PierceSpec:
    """Hole centers and radii."""

    centers: np.ndarray  # (m, 2)
    radii: np.ndarray    # (m,)

    def __post_init__(self):
        c = np.atleast_2d(np.asarray(self.centers, dtype=float))
        r = np.atleast_1d(np.asarray(self.radii, dtype=float))
        if c.shape[0] != r.shape[0]:
            raise ValueError("centers and radii length mismatch")
        object.__setattr__(self, "centers", c)
        object.__setattr__(self, "radii", r)

    @property
    def m(self):
        return self.centers.shape[0]


@dataclass(frozen=True)
class PiercedDomain:
    domain: DomainSpec
    pierce: PierceSpec
    eta: float

    def annulus(self, i):
        """Annular region descriptor for hole i (1-based)."""
        if not 1 <= i <= self.pierce.m:
            raise IndexOutOfRange(f"hole index {i} outside 1..{self.pierce.m}")
        return AnnulusRegion(center=tuple(self.pierce.centers[i - 1]),
                             inner_radius=float(self.pierce.radii[i - 1]),
                             outer_radius=float(self.eta))


@dataclass(frozen=True)
class AnnulusRegion:
    center: tuple
    inner_radius: float
    outer_radius: float


@dataclass(frozen=True)
class MeshPolicy:
    """Background spacing h and geometric grading ratio q for the hole patches."""

    h: float = 0.02
    q: float = 1.3
    min_hole_nodes: int = 32
    smooth_iters: int = 2

    def __post_init__(self):
        if not (self.h > 0):
            raise ValueError("h must be positive")
        if not (1.0 < self.q <= 2.0):
            raise ValueError("grading ratio q must lie in (1, 2]")
        if self.min_hole_nodes < 8:
            raise ValueError("need at least 8 nodes per hole circle")


# ---------------------------------------------------------------------------
# domain helpers

def domain_boundary_polygon(domain: DomainSpec, h: float) -> np.ndarray:
    """Closed polygon approximating the outer boundary at arclength spacing ~h."""
    if domain.kind == "unit-disk":
        n = max(16, int(round(2 * np.pi / h)))
        th = 2 * np.pi * np.arange(n) / n
        return np.column_stack([np.cos(th), np.sin(th)])
    return _resample_closed_curve(domain.boundary, h)


def _resample_closed_curve(p, h):
    seg = np.roll(p, -1, axis=0) - p
    lens = np.hypot(seg[:, 0], seg[:, 1])
    s = np.concatenate([[0.0], np.cumsum(lens)])
    total = s[-1]
    n = max(16, int(round(total / h)))
    targets = total * np.arange(n) / n
    out = np.empty((n, 2))
    j = 0
    for i, t in enumerate(targets):
        while s[j + 1] < t:
            j += 1
        w = (t - s[j]) / (s[j + 1] - s[j])
        a = p[j]
        b = p[(j + 1) % len(p)]
        out[i] = (1 - w) * a + w * b
    return out


def _polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def _point_in_polygon(points, poly):
    """Ray-casting test; True for points strictly inside.

    Edge k crosses the horizontal line through a point exactly when
    min(y0, y1) <= y < max(y0, y1); with the points sorted by y that is one
    contiguous run of them, so only those pairs are evaluated.
    """
    x, y = points[:, 0], points[:, 1]
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    order = np.argsort(y, kind="stable")
    ys = y[order]
    edge, run = _ranges(np.searchsorted(ys, np.minimum(y0, y1)),
                        np.searchsorted(ys, np.maximum(y0, y1)))
    pt = order[run]
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = x0[edge] + (y[pt] - y0[edge]) * (x1[edge] - x0[edge]) / (y1[edge] - y0[edge])
    hits = x[pt] < xcross
    return np.bincount(pt[hits], minlength=len(points)) % 2 == 1


def _dist_to_polygon(points, poly, vertex_dist=None):
    """Unsigned distance from each point to the closed polygon boundary.

    The nearest edge comes within the nearest-vertex distance of the point,
    so its midpoint lies within that distance plus half the longest edge;
    only edges whose midpoints are that close (with a rounding margin) are
    evaluated. vertex_dist, if given, is each point's nearest-vertex
    distance as cKDTree(poly).query gives it.
    """
    a = poly
    b = np.roll(poly, -1, axis=0)
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    if vertex_dist is None:
        vertex_dist, _ = cKDTree(a).query(points)
    reach = (vertex_dist + _half_longest_edge(poly)) * (1 + 1e-9) + _rounding_slack(poly)
    near = cKDTree(0.5 * (a + b)).query_ball_point(points, reach)
    counts = np.fromiter(map(len, near), dtype=np.int64, count=len(near))
    pt = np.repeat(np.arange(len(near)), counts)
    edge = np.fromiter(itertools.chain.from_iterable(near), dtype=np.int64, count=pt.size)
    p = points[pt] - a[edge]
    t = np.clip(np.einsum("ij,ij->i", p, ab[edge]) / denom[edge], 0.0, 1.0)
    proj = a[edge] + t[:, None] * ab[edge]
    d = np.hypot(points[pt, 0] - proj[:, 0], points[pt, 1] - proj[:, 1])
    # every point has a candidate: the edges at its nearest vertex
    return np.minimum.reduceat(d, np.cumsum(counts) - counts)


def _half_longest_edge(poly):
    ab = np.roll(poly, -1, axis=0) - poly
    return 0.5 * math.sqrt(np.einsum("ij,ij->i", ab, ab).max())


def _rounding_slack(poly):
    return 1e-12 * (1.0 + np.abs(poly).max())


def _inside_farther_than(points, domain: DomainSpec, poly, dist):
    """_signed_inside_distance(points, domain, poly) > dist, for dist >= 0.

    No edge comes nearer a point than its nearest vertex less half the
    longest edge, so only the points where that bound (with the rounding
    margin of _dist_to_polygon) leaves the answer open take the edge search;
    the others need the inside test alone.
    """
    pts = np.asarray(points, dtype=float)
    if domain.kind == "unit-disk":
        return 1.0 - np.hypot(pts[:, 0], pts[:, 1]) > dist
    keep = _point_in_polygon(pts, poly)
    vertex_dist, _ = cKDTree(poly).query(pts)
    settled = vertex_dist - _half_longest_edge(poly) > dist * (1 + 1e-9) + _rounding_slack(poly)
    band = np.flatnonzero(keep & ~settled)
    keep[band] = _dist_to_polygon(pts[band], poly, vertex_dist[band]) > dist
    return keep


def _ranges(start, stop):
    """(k, i) for every i in every half-open range [start[k], stop[k])."""
    n = stop - start
    k = np.repeat(np.arange(n.size), n)
    return k, np.arange(k.size) + np.repeat(start - (np.cumsum(n) - n), n)


def _signed_inside_distance(points, domain: DomainSpec, poly):
    """Distance to the boundary for inside points, -distance outside."""
    pts = np.asarray(points, dtype=float)
    if domain.kind == "unit-disk":
        return 1.0 - np.hypot(pts[:, 0], pts[:, 1])
    d = _dist_to_polygon(pts, poly)
    inside = _point_in_polygon(pts, poly)
    return np.where(inside, d, -d)


def distance_to_boundary(domain: DomainSpec, point) -> float:
    p = np.asarray(point, dtype=float)
    if domain.kind == "unit-disk":
        return 1.0 - float(np.hypot(p[0], p[1]))
    poly = domain.boundary
    return float(_signed_inside_distance(p[None, :], domain, poly)[0])


# ---------------------------------------------------------------------------
# pierced domain construction

def build_pierced_domain(domain: DomainSpec, pierce: PierceSpec) -> PiercedDomain:
    """Validate the hole layout and fix the annulus radius eta.

    eta is 0.45 of the admissible bound min{|xi_i - xi_j|, dist(xi_i, bdry)}.
    """
    m = pierce.m
    if m == 0:
        raise ValueError("at least one hole is required")
    c, r = pierce.centers, pierce.radii
    if np.any(r <= 0):
        raise ValueError("hole radii must be positive")
    for i in range(m):
        for j in range(i + 1, m):
            if c[i, 0] == c[j, 0] and c[i, 1] == c[j, 1]:
                raise DuplicateCenters(f"holes {i + 1} and {j + 1} share center {tuple(c[i])}")
            sep = math.hypot(c[i, 0] - c[j, 0], c[i, 1] - c[j, 1])
            if sep <= r[i] + r[j]:
                raise OverlappingHoles(
                    f"holes {i + 1} and {j + 1}: separation {sep:.3g} <= {r[i] + r[j]:.3g}")
    for i in range(m):
        d = distance_to_boundary(domain, c[i])
        if d <= r[i]:
            raise HoleTouchesBoundary(
                f"hole {i + 1}: ball of radius {r[i]:.3g} at {tuple(c[i])} "
                f"not contained in the domain (clearance {d:.3g})")
    eta = annulus_radius(domain, c)
    if np.any(r >= eta):
        raise HoleTouchesBoundary(
            f"some hole radius {r.max():.3g} is not below the annulus radius eta={eta:.3g}")
    return PiercedDomain(domain=domain, pierce=pierce, eta=eta)


def annulus_radius(domain: DomainSpec, centers: np.ndarray) -> float:
    """eta = 0.45 min{dist(xi_i, bdry), |xi_i - xi_j|} over the (m, 2) centers.

    It does not depend on the hole radii, so build_pierced_domain and
    prefetch_background get the same float, and so the same memo key.
    """
    m = centers.shape[0]
    bounds = [distance_to_boundary(domain, centers[i]) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            bounds.append(math.hypot(centers[i, 0] - centers[j, 0],
                                     centers[i, 1] - centers[j, 1]))
    return 0.45 * min(bounds)


def annulus(pd: PiercedDomain, i: int) -> AnnulusRegion:
    return pd.annulus(i)


# ---------------------------------------------------------------------------
# mesh

@dataclass(eq=False)
class PolarPatch:
    """Structured polar patch around one hole: rings x angles, node offsets exact."""

    center: np.ndarray
    radii: np.ndarray        # (K+1,) ring radii, radii[0] = eps, radii[-1] = eta
    n_theta: int
    node_grid: np.ndarray    # (K+1, n_theta) global node indices

    @property
    def n_layers(self):
        return len(self.radii) - 1


@dataclass(eq=False)
class Mesh:
    """Triangulated pierced domain with hole-local coordinates on the patches."""

    nodes: np.ndarray          # (N, 2) absolute coordinates
    triangles: np.ndarray      # (T, 3)
    node_marker: np.ndarray    # (N,) INTERIOR / OUTER / hole index (1-based)
    node_patch: np.ndarray     # (N,) patch index or -1
    node_dx: np.ndarray        # (N,) offset from patch center (patch nodes)
    node_dy: np.ndarray
    tri_patch: np.ndarray      # (T,) patch index if all three vertices share one, else -1
    weights: np.ndarray        # (N,) lumped quadrature weights (areas)
    patches: list = field(default_factory=list)
    pd: PiercedDomain | None = None
    h: float = 0.0
    min_quality: float = 0.0
    boundary_polygon: np.ndarray | None = None

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def is_boundary(self):
        return self.node_marker != INTERIOR

    @property
    def interior_index(self):
        return np.flatnonzero(self.node_marker == INTERIOR)

    def all_tri_coords(self):
        """(T, 3, 2) vertex coordinates, patch triangles in offset frame."""
        out = self.nodes[self.triangles].copy()
        inpatch = self.tri_patch >= 0
        if np.any(inpatch):
            tri = self.triangles[inpatch]
            out[inpatch, :, 0] = self.node_dx[tri]
            out[inpatch, :, 1] = self.node_dy[tri]
        return out

    def center_distance(self, patch_index):
        """|x - xi_i| per node, exact on patch i thanks to stored offsets."""
        xi = self.patches[patch_index].center
        d = np.hypot(self.nodes[:, 0] - xi[0], self.nodes[:, 1] - xi[1])
        own = self.node_patch == patch_index
        d[own] = np.hypot(self.node_dx[own], self.node_dy[own])
        return d

    def coordinate_text(self):
        """Node x and y as lists of '%.17g' strings, the artifacts' format."""
        return format_17g(self.nodes[:, 0]), format_17g(self.nodes[:, 1])

    def export(self, path, coords=None):
        """Plain-text node/cell/tag table, one record per line.

        coords, if given, is this mesh's `coordinate_text()`, already built by
        another writer of the same mesh.
        """
        xs, ys = self.coordinate_text() if coords is None else coords
        marker = self.node_marker.astype(np.int64).tolist()
        cells = np.column_stack([np.arange(self.n_triangles), self.triangles]).ravel()
        with open(path, "w") as f:
            f.write("".join([f"node {i} {x} {y} {mk}\n"
                             for i, (x, y, mk) in enumerate(zip(xs, ys, marker))]))
            f.write(("cell %d %d %d %d\n" * self.n_triangles) % tuple(cells.tolist()))


def format_17g(values):
    """'%.17g' text of every value of an array, as a list of str."""
    return list(map("{:.17g}".format, np.asarray(values).tolist()))


def _tri_areas(coords):
    d1 = coords[:, 1] - coords[:, 0]
    d2 = coords[:, 2] - coords[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _tri_quality(coords):
    """Ratio of inscribed to circumscribed radius per triangle (0.5 for equilateral)."""
    a = np.linalg.norm(coords[:, 1] - coords[:, 2], axis=1)
    b = np.linalg.norm(coords[:, 2] - coords[:, 0], axis=1)
    c = np.linalg.norm(coords[:, 0] - coords[:, 1], axis=1)
    area = np.abs(_tri_areas(coords))
    s = 0.5 * (a + b + c)
    with np.errstate(divide="ignore", invalid="ignore"):
        r_in = area / s
        r_circ = a * b * c / (4 * area)
        q = r_in / r_circ
    return np.where(area > 0, q, 0.0)


def _hex_lattice(bbox, h):
    """Hexagonal lattice with spacing h anchored at the origin."""
    xmin, xmax, ymin, ymax = bbox
    dy = h * math.sqrt(3) / 2
    j0 = int(math.floor(ymin / dy)) - 1
    j1 = int(math.ceil(ymax / dy)) + 1
    pts = []
    for j in range(j0, j1 + 1):
        y = j * dy
        off = 0.5 * h if j % 2 else 0.0
        i0 = int(math.floor((xmin - off) / h)) - 1
        i1 = int(math.ceil((xmax - off) / h)) + 1
        xs = off + h * np.arange(i0, i1 + 1)
        pts.append(np.column_stack([xs, np.full(xs.shape, y)]))
    return np.vstack(pts)


def _patch_angular_count(policy: MeshPolicy):
    # enough angles to keep radial/angular aspect near one at grading ratio q
    n = max(policy.min_hole_nodes, int(math.ceil(math.pi / (policy.q - 1.0))))
    return n + (n % 2)


def _build_patch_rings(eps, eta, q, n_theta):
    # cap the effective ratio so radial cells stay within twice the angular
    # spacing; the policy ratio is an upper bound on the grading
    q_eff = min(q, 1.0 + 2.0 * (2 * math.pi / n_theta))
    n_layers = max(1, int(math.ceil(math.log(eta / eps) / math.log(q_eff))))
    k = np.arange(n_layers + 1)
    radii = eps * (eta / eps) ** (k / n_layers)
    radii[0] = eps
    radii[-1] = eta
    return radii


def _structured_patch_triangles(grid):
    """Triangulate the tensor grid of a polar patch (two triangles per quad)."""
    k1, nt = grid.shape
    tris = []
    for k in range(k1 - 1):
        a = grid[k]
        b = grid[k + 1]
        a2 = np.roll(a, -1)
        b2 = np.roll(b, -1)
        tris.append(np.column_stack([a, b, b2]))
        tris.append(np.column_stack([a, b2, a2]))
    return np.vstack(tris)


def _inside_rim_polygon(centroids, center, rim_r, n_theta):
    """True where a point lies inside the polygon of the patch rim ring."""
    dx = centroids[:, 0] - center[0]
    dy = centroids[:, 1] - center[1]
    r = np.hypot(dx, dy)
    inner = r <= rim_r * math.cos(math.pi / n_theta)
    ambiguous = (~inner) & (r < rim_r)
    if np.any(ambiguous):
        th = np.arctan2(dy[ambiguous], dx[ambiguous]) % (2 * math.pi)
        dtheta = 2 * math.pi / n_theta
        j = np.floor(th / dtheta).astype(int) % n_theta
        th0 = j * dtheta
        th1 = th0 + dtheta
        ax, ay = rim_r * np.cos(th0), rim_r * np.sin(th0)
        bx, by = rim_r * np.cos(th1), rim_r * np.sin(th1)
        # interior of the CCW polygon lies to the left of each chord
        cross = (bx - ax) * (dy[ambiguous] - ay) - (by - ay) * (dx[ambiguous] - ax)
        inner[np.flatnonzero(ambiguous)[cross > 0]] = True
    return inner


def build_domain_mesh(domain: DomainSpec, h: float, smooth_iters: int = 2) -> Mesh:
    """Mesh the outer domain alone (no holes); used by the numeric Green backend."""
    policy = MeshPolicy(h=h, smooth_iters=smooth_iters)
    return _assemble(_background(domain, np.zeros((0, 2)), 0.0, policy), None, policy)


# One-entry memo of the last background, keyed by everything _background
# reads: a sweep meshes the same domain, centers and eta at every rho. The
# value is a _Background, or the Future of a prefetch still pending. Only
# the main thread reads or writes the slot; the worker only runs _background.
_last_background = None

# The one helper thread: at most one background build is ever in flight.
# It runs _background and its private callees only, none of them traced.
_builder = ThreadPoolExecutor(max_workers=1, thread_name_prefix="sinhpierce-background")


def _background_key(domain, centers, eta, policy):
    return (domain.kind, None if domain.boundary is None else domain.boundary.tobytes(),
            centers.tobytes(), eta, policy)


def prefetch_background(domain: DomainSpec, centers, policy: MeshPolicy):
    """Start building the rho-independent background on the helper thread.

    build_mesh takes the result when it first needs it. A layout that would
    not validate (coincident centers, a center outside the domain) starts
    nothing, so build_pierced_domain raises its named error as it would.
    """
    global _last_background
    centers = np.atleast_2d(np.asarray(centers, dtype=float)).copy()
    if centers.shape[0] == 0:
        return
    eta = annulus_radius(domain, centers)
    if not eta > 0:
        return
    key = _background_key(domain, centers, eta, policy)
    if _last_background is None or _last_background[0] != key:
        _last_background = (key, _builder.submit(_background, domain, centers, eta, policy))


def _release_free_heap():
    """Hand the heap the helper thread freed back to the system.

    glibc gives each thread its own malloc arena, and Qhull's freed memory
    stays resident in the helper's; without this, `construct` at h = 0.005
    peaks about 20% higher. A no-op where libc has no malloc_trim.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def build_mesh(pd: PiercedDomain, policy: MeshPolicy) -> Mesh:
    """Composite mesh of the pierced domain: polar patches + hex background."""
    global _last_background
    for i, eps in enumerate(pd.pierce.radii):
        if eps < MIN_HOLE_RADIUS:
            raise UnresolvableHole(
                f"hole {i + 1} radius {eps:.3g} below the resolvable scale "
                f"{MIN_HOLE_RADIUS:g}")
    key = _background_key(pd.domain, pd.pierce.centers, pd.eta, policy)
    if _last_background is None or _last_background[0] != key:
        _last_background = (key, _background(pd.domain, pd.pierce.centers, pd.eta, policy))
    elif isinstance(_last_background[1], Future):
        pending, _last_background = _last_background[1], None
        # a worker's exception surfaces here, as a serial build's would
        _last_background = (key, pending.result())
        _release_free_heap()
    return _assemble(_last_background[1], pd, policy)


@dataclass(frozen=True)
class _Background:
    """The part of a mesh that does not depend on the hole radii; every array
    is read-only, so memoized backgrounds can be shared."""

    bpoly: np.ndarray        # boundary polygon, the first pot nodes
    pot: np.ndarray          # stitch nodes: boundary, patch rims, transition circles, hex lattice
    origin: np.ndarray       # 0 boundary, 1 circle or rim, 2 hex
    rim_slices: tuple        # (start, n_theta) of each rim in pot
    n_theta: int
    tris: np.ndarray         # filtered Delaunay triangles of pot, outside the rims


def _background(domain, centers, eta, policy) -> _Background:
    h = policy.h
    bpoly = domain_boundary_polygon(domain, h)
    n_bdry = bpoly.shape[0]
    m = centers.shape[0]

    # --- stitch pot: boundary nodes, transition circles, patch rims, hex lattice
    pot_pts = [bpoly]
    pot_origin = [np.full(n_bdry, 0)]
    rim_slices = []
    exclusion = []                              # (center, radius) hex keep-out per hole
    n_theta = _patch_angular_count(policy) if m else 0

    circle_pts = []
    circle_spacing = []
    for i in range(m):
        xi = centers[i]
        th = 2 * np.pi * np.arange(n_theta) / n_theta
        rim = np.column_stack([xi[0] + eta * np.cos(th), xi[1] + eta * np.sin(th)])
        start = sum(p.shape[0] for p in pot_pts)
        pot_pts.append(rim)
        pot_origin.append(np.full(n_theta, 1))
        rim_slices.append((start, n_theta))

        # transition circles bridge the rim spacing to the background spacing:
        # angular doubling when the rim is coarser than the lattice, angular
        # halving (aligned subsets) when it is finer
        s = 2 * np.pi * eta / n_theta
        n = n_theta
        rr = eta
        while s > 1.6 * h:
            s = max(s / 2, h)
            n *= 2
            rr = rr + 0.85 * s
            tth = 2 * np.pi * np.arange(n) / n
            cpts = np.column_stack([xi[0] + rr * np.cos(tth), xi[1] + rr * np.sin(tth)])
            circle_pts.append(cpts)
            circle_spacing.append(np.full(n, s))
        while s < 0.62 * h and n >= 16:
            s = min(2 * s, h)
            n //= 2
            rr = rr + 0.85 * s
            tth = 2 * np.pi * np.arange(n) / n
            cpts = np.column_stack([xi[0] + rr * np.cos(tth), xi[1] + rr * np.sin(tth)])
            circle_pts.append(cpts)
            circle_spacing.append(np.full(n, s))
        exclusion.append((xi, rr + 0.75 * max(s, h)))

    # transition nodes: drop those outside the domain or colliding with
    # earlier stitch nodes (overlapping transition shells of nearby holes)
    if circle_pts:
        cpts = np.vstack(circle_pts)
        csp = np.concatenate(circle_spacing)
        keep = _inside_farther_than(cpts, domain, bpoly, 0.55 * h)
        base = np.vstack(pot_pts)
        tree = cKDTree(base)
        d, _ = tree.query(cpts)
        keep &= d > 0.45 * csp
        # dedup among the transition nodes themselves, preserving order
        cand = cpts[keep]
        sel = _first_apart(cand, 0.45 * csp[keep])
        if sel.size:
            pot_pts.append(cand[sel])
            pot_origin.append(np.full(len(sel), 1))

    # hex lattice clipped to the domain minus the patch exclusion zones
    if domain.kind == "unit-disk":
        bbox = (-1.0, 1.0, -1.0, 1.0)
    else:
        bbox = (bpoly[:, 0].min(), bpoly[:, 0].max(), bpoly[:, 1].min(), bpoly[:, 1].max())
    hex_pts = _hex_lattice(bbox, h)
    keep = _inside_farther_than(hex_pts, domain, bpoly, 0.55 * h)
    for xi, rad in exclusion:
        keep &= np.hypot(hex_pts[:, 0] - xi[0], hex_pts[:, 1] - xi[1]) > rad
    hex_pts = hex_pts[keep]
    pot_pts.append(hex_pts)
    pot_origin.append(np.full(hex_pts.shape[0], 2))

    pot = np.vstack(pot_pts)
    origin = np.concatenate(pot_origin)

    # --- Delaunay + filtering, with optional smoothing of the hex nodes
    convex = domain.kind == "unit-disk"
    movable = origin == 2

    def triangulate(points):
        dela = Delaunay(points)
        tris = dela.simplices
        cent = points[tris].mean(axis=1)
        keep = np.abs(_tri_areas(points[tris])) > 1e-14 * h * h
        if not convex:
            keep &= _point_in_polygon(cent, bpoly)
        for i in range(m):
            keep &= ~_inside_rim_polygon(cent, centers[i], eta, n_theta)
        return tris[keep]

    tris = triangulate(pot)
    for _ in range(policy.smooth_iters):
        # Laplacian smoothing of the lattice nodes only
        nbr_sum, nbr_cnt = _neighbour_sums(pot, tris)
        ok = movable & (nbr_cnt > 0)
        pot[ok] = nbr_sum[ok] / nbr_cnt[ok, None]
        tris = triangulate(pot)

    for arr in (bpoly, pot, origin, tris):
        arr.flags.writeable = False
    return _Background(bpoly=bpoly, pot=pot, origin=origin, rim_slices=tuple(rim_slices),
                       n_theta=n_theta, tris=tris)


def _first_apart(pts, radius):
    """Indices, in order, of the points kept when each point is dropped if
    one already kept lies within its radius (distance <= radius).

    One k-d tree of all points finds each point's earlier neighbours (a
    slightly wider ball, so none is missed); the test itself uses the
    distance cKDTree.query returns, sqrt(dx^2 + dy^2).
    """
    if not len(pts):
        return np.zeros(0, dtype=np.int64)
    near = cKDTree(pts).query_ball_point(pts, radius * (1 + 1e-9) + _rounding_slack(pts))
    kept = np.zeros(len(pts), dtype=bool)
    for i, js in enumerate(near):
        js = [j for j in js if j < i and kept[j]]
        if js:
            dx = pts[js, 0] - pts[i, 0]
            dy = pts[js, 1] - pts[i, 1]
            if np.sqrt(dx * dx + dy * dy).min() <= radius[i]:
                continue
        kept[i] = True
    return np.flatnonzero(kept)


def _neighbour_sums(pot, tris):
    """Per node, the sum of its triangles' other vertices and their count.

    Each node accumulates over the directed edges (0,1), (1,0), (1,2), (2,1),
    (2,0), (0,2), triangle by triangle within each, always in that sequence.
    The coordinates are gathered one at a time: a (6T, 2) gather would be
    the largest temporary of the whole build, and on a 120k-node mesh it
    raised the peak RSS of `construct` by about 20 MB.
    """
    n = pot.shape[0]
    dst = tris[:, [0, 1, 1, 2, 2, 0]].T.ravel()
    src = tris[:, [1, 0, 2, 1, 0, 2]].T.ravel()
    nbr_sum = np.column_stack([np.bincount(dst, weights=pot[src, 0], minlength=n),
                               np.bincount(dst, weights=pot[src, 1], minlength=n)])
    return nbr_sum, np.bincount(dst, minlength=n).astype(float)


def _assemble(bg: _Background, pd, policy) -> Mesh:
    """Add the polar patches of pd's holes to the background and check the whole mesh."""
    pot, tris, n_theta = bg.pot, bg.tris, bg.n_theta
    n_pot = pot.shape[0]
    centers = pd.pierce.centers if pd is not None else np.zeros((0, 2))
    eta = pd.eta if pd is not None else 0.0

    # --- assemble global node arrays: pot nodes first, then patch interiors
    nodes = [pot]
    node_marker = [np.where(bg.origin == 0, OUTER, INTERIOR)]
    node_patch = [np.full(n_pot, -1)]
    node_dx = [pot[:, 0].copy()]
    node_dy = [pot[:, 1].copy()]

    patches = []
    all_tris = [tris]
    tri_patch = [np.full(tris.shape[0], -1)]

    next_id = n_pot
    for i in range(centers.shape[0]):
        xi = centers[i]
        radii = _build_patch_rings(pd.pierce.radii[i], eta, policy.q, n_theta)
        k1 = len(radii)
        th = 2 * np.pi * np.arange(n_theta) / n_theta
        ct, st = np.cos(th), np.sin(th)

        grid = np.empty((k1, n_theta), dtype=np.int64)
        start, cnt = bg.rim_slices[i]
        grid[-1] = np.arange(start, start + cnt)
        inner_count = (k1 - 1) * n_theta
        grid[:-1] = np.arange(next_id, next_id + inner_count).reshape(k1 - 1, n_theta)
        next_id += inner_count

        dx = radii[:-1, None] * ct[None, :]
        dy = radii[:-1, None] * st[None, :]
        pts = np.column_stack([xi[0] + dx.ravel(), xi[1] + dy.ravel()])
        nodes.append(pts)
        mk = np.full(inner_count, INTERIOR)
        mk[:n_theta] = i + 1  # ring 0 = hole boundary
        node_marker.append(mk)
        node_patch.append(np.full(inner_count, i))
        node_dx.append(dx.ravel())
        node_dy.append(dy.ravel())

        # rim nodes belong to the patch frame too (their offsets are exact)
        node_patch[0][grid[-1]] = i
        node_dx[0][grid[-1]] = eta * ct
        node_dy[0][grid[-1]] = eta * st

        ptris = _structured_patch_triangles(grid)
        all_tris.append(ptris)
        tri_patch.append(np.full(ptris.shape[0], i))
        patches.append(PolarPatch(center=xi.copy(), radii=radii, n_theta=n_theta,
                                  node_grid=grid))

    nodes = np.vstack(nodes)
    node_marker = np.concatenate(node_marker)
    node_patch = np.concatenate(node_patch)
    node_dx = np.concatenate(node_dx)
    node_dy = np.concatenate(node_dy)
    triangles = np.vstack(all_tris)
    tri_patch = np.concatenate(tri_patch)

    mesh = Mesh(nodes=nodes, triangles=triangles, node_marker=node_marker,
                node_patch=node_patch, node_dx=node_dx, node_dy=node_dy,
                tri_patch=tri_patch, weights=np.zeros(nodes.shape[0]),
                patches=patches, pd=pd, h=policy.h, boundary_polygon=bg.bpoly)

    _orient_and_weigh(mesh)
    _check_conformity(mesh, bg.bpoly)
    coords = mesh.all_tri_coords()
    mesh.min_quality = float(_tri_quality(coords).min())
    return mesh


def _orient_and_weigh(mesh):
    coords = mesh.all_tri_coords()
    areas = _tri_areas(coords)
    flip = areas < 0
    if np.any(flip):
        mesh.triangles[flip] = mesh.triangles[flip][:, [0, 2, 1]]
        areas = np.abs(areas)
    # each node sums a third of its triangles' areas, vertex column by column
    mesh.weights = np.bincount(mesh.triangles.T.ravel(), weights=np.tile(areas / 3.0, 3),
                               minlength=mesh.n_nodes)


def _check_conformity(mesh, bpoly):
    """Every edge in exactly two triangles, or one if on a boundary cycle."""
    t = mesh.triangles.astype(np.int64, copy=False)
    edges = np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
    edges.sort(axis=1)
    # one int64 key per edge, ordered like the (a, b) rows; Delaunay's int32
    # triangles would wrap around past ~46k nodes
    keys, counts = np.unique(edges[:, 0] * mesh.n_nodes + edges[:, 1], return_counts=True)
    uniq = np.column_stack(np.divmod(keys, mesh.n_nodes))
    if np.any(counts > 2):
        raise StitchFailure("an edge is shared by more than two triangles")
    lone = {tuple(e) for e in uniq[counts == 1]}

    expected = set()
    nb = bpoly.shape[0]
    for i in range(nb):
        a, b = i, (i + 1) % nb
        expected.add((min(a, b), max(a, b)))
    for p in mesh.patches:
        ring = p.node_grid[0]
        for j in range(len(ring)):
            a, b = int(ring[j]), int(ring[(j + 1) % len(ring)])
            expected.add((min(a, b), max(a, b)))
    if lone != expected:
        extra = lone - expected
        missing = expected - lone
        raise StitchFailure(
            f"non-conforming stitch: {len(extra)} unexpected open edges, "
            f"{len(missing)} missing boundary edges")

    # area bookkeeping: covered area must match the polygonal domain area
    target = _polygon_area(bpoly)
    for p in mesh.patches:
        th = 2 * np.pi * np.arange(p.n_theta) / p.n_theta
        hole_poly = p.radii[0] * np.column_stack([np.cos(th), np.sin(th)])
        target -= abs(_polygon_area(hole_poly))
    covered = float(np.sum(mesh.weights))
    if abs(covered - target) > 1e-9 * abs(target):
        raise StitchFailure(
            f"covered area {covered!r} differs from polygonal area {target!r}")


# ---------------------------------------------------------------------------
# field evaluation helpers

_TWO_PI = 2 * math.pi


class FieldEvaluator:
    """Point evaluation of nodal fields over whole point arrays: structured
    lookup inside patches, spatial-hash triangle location elsewhere."""

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        back = np.flatnonzero(mesh.tri_patch < 0)
        self._back_tris = mesh.triangles[back]
        pts = mesh.nodes[self._back_tris]
        self._cell = max(mesh.h, 1e-12)
        lo = pts.reshape(-1, 2).min(axis=0)
        self._lo = lo
        imin = np.floor((pts[:, :, 0].min(axis=1) - lo[0]) / self._cell).astype(int)
        imax = np.floor((pts[:, :, 0].max(axis=1) - lo[0]) / self._cell).astype(int)
        jmin = np.floor((pts[:, :, 1].min(axis=1) - lo[1]) / self._cell).astype(int)
        jmax = np.floor((pts[:, :, 1].max(axis=1) - lo[1]) / self._cell).astype(int)
        # spatial hash in CSR layout: the candidates of cell c = i * ny + j are
        # _cand[_start[c]:_start[c + 1]], in increasing background-triangle order
        ni, nj = imax - imin + 1, jmax - jmin + 1
        tri, off = _ranges(np.zeros_like(ni), ni * nj)
        self._shape = (int(imax.max()) + 1, int(jmax.max()) + 1)
        cell = (imin[tri] + off // nj[tri]) * self._shape[1] + jmin[tri] + off % nj[tri]
        self._cand = tri[np.argsort(cell, kind="stable")]
        counts = np.bincount(cell, minlength=self._shape[0] * self._shape[1])
        self._start = np.concatenate([[0], np.cumsum(counts)])

    def patch_value(self, patch_index, dx, dy, values):
        """Evaluate at center offsets (dx, dy) inside patch patch_index."""
        return self._patch_values(patch_index, np.array([dx], dtype=float),
                                  np.array([dy], dtype=float), np.asarray(values))[0]

    def _patch_values(self, patch_index, dx, dy, values):
        """Evaluate at the center offset arrays (dx, dy) inside one patch."""
        p = self.mesh.patches[patch_index]
        r = np.minimum(np.maximum(_each(math.hypot, dx, dy), p.radii[0]), p.radii[-1])
        k = np.clip(np.searchsorted(p.radii, r, side="right") - 1, 0, len(p.radii) - 2)
        # numpy's % and // on floats follow the same fmod-based rule as Python's
        th = _each(math.atan2, dy, dx) % _TWO_PI
        j = (th // (_TWO_PI / p.n_theta)).astype(np.int64) % p.n_theta
        g = p.node_grid
        j2 = (j + 1) % p.n_theta
        quad = np.column_stack([g[k, j], g[k + 1, j], g[k + 1, j2], g[k, j2]])
        corners = np.stack([self.mesh.node_dx[quad], self.mesh.node_dy[quad]], axis=2)
        pt = np.column_stack([dx, dy])
        out = np.empty(len(dx))
        done = np.zeros(len(dx), dtype=bool)
        for tri in ((0, 1, 2), (0, 2, 3)):
            lam = _barycentric_rows(pt, *(corners[:, t] for t in tri))
            hit = ~done & (lam[0] >= -1e-9) & (lam[1] >= -1e-9) & (lam[2] >= -1e-9)
            out[hit] = _interpolate(values, quad[hit][:, tri], [lm[hit] for lm in lam])
            done |= hit
        # clamped fallback: nearest corner
        rest = np.flatnonzero(~done)
        off = pt[rest, None, :] - corners[rest]
        d = np.hypot(off[:, :, 0], off[:, :, 1])
        out[rest] = values[quad[rest, np.argmin(d, axis=1)]]
        return out

    def __call__(self, values, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        values = np.asarray(values)
        out = np.empty(pts.shape[0])
        mesh = self.mesh
        # each point goes to the first patch whose circle holds it
        back = np.arange(pts.shape[0])
        for i, patch in enumerate(mesh.patches):
            dx, dy = pts[back, 0] - patch.center[0], pts[back, 1] - patch.center[1]
            inside = _each(math.hypot, dx, dy) <= patch.radii[-1]
            out[back[inside]] = self._patch_values(i, dx[inside], dy[inside], values)
            back = back[~inside]
        vals, found = self._background_values(values, pts[back])
        out[back] = vals
        for n in back[~found]:
            # thin sliver between a patch rim polygon and its circle, or
            # a hair outside the boundary polygon: fall back to nearest node
            p = pts[n]
            d = np.hypot(mesh.nodes[:, 0] - p[0], mesh.nodes[:, 1] - p[1])
            out[n] = values[int(np.argmin(d))]
        return out if np.asarray(points).ndim > 1 else float(out[0])

    def _background_values(self, values, pts):
        """Values at points outside the patches, and where some candidate
        triangle of the point's cell holds it (the other values are unset)."""
        ii = np.floor((pts[:, 0] - self._lo[0]) / self._cell).astype(np.int64)
        jj = np.floor((pts[:, 1] - self._lo[1]) / self._cell).astype(np.int64)
        ok = (ii >= 0) & (ii < self._shape[0]) & (jj >= 0) & (jj < self._shape[1])
        cell = ii[ok] * self._shape[1] + jj[ok]
        slot = np.zeros(len(pts), dtype=np.int64)
        stop = np.zeros(len(pts), dtype=np.int64)
        slot[ok] = self._start[cell]
        stop[ok] = self._start[cell + 1]
        out = np.empty(len(pts))
        found = np.zeros(len(pts), dtype=bool)
        todo = np.flatnonzero(slot < stop)
        verts = self.mesh.nodes
        # try the cell's candidates slot by slot; the first one holding a point wins
        while todo.size:
            t = self._back_tris[self._cand[slot[todo]]]
            lam = _barycentric_rows(pts[todo], verts[t[:, 0]], verts[t[:, 1]], verts[t[:, 2]])
            hit = (lam[0] >= -1e-10) & (lam[1] >= -1e-10) & (lam[2] >= -1e-10)
            out[todo[hit]] = _interpolate(values, t[hit], [lm[hit] for lm in lam])
            found[todo[hit]] = True
            todo = todo[~hit]
            slot[todo] += 1
            todo = todo[slot[todo] < stop[todo]]
        return out, found


def _each(f, x, y):
    """f(x, y) point by point through math: patch membership, ring and sector
    compare these exactly against ring radii and spoke angles, and numpy's
    hypot and arctan2 can differ from math's by an ulp."""
    return np.fromiter(map(f, x.tolist(), y.tolist()), dtype=float, count=len(x))


def _barycentric_rows(p, a, b, c):
    """Barycentric coordinates of each row of p in the triangle (a, b, c) of
    the same row; a degenerate triangle gets -1 for all three."""
    v0 = b - a
    v1 = c - a
    v2 = p - a
    den = v0[:, 0] * v1[:, 1] - v1[:, 0] * v0[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        l2 = (v2[:, 0] * v1[:, 1] - v1[:, 0] * v2[:, 1]) / den
        l3 = (v0[:, 0] * v2[:, 1] - v2[:, 0] * v0[:, 1]) / den
    l1 = 1.0 - l2 - l3
    flat = den == 0
    for lam in (l1, l2, l3):
        lam[flat] = -1.0
    return l1, l2, l3


def _interpolate(values, tris, lam):
    return lam[0] * values[tris[:, 0]] + lam[1] * values[tris[:, 1]] + lam[2] * values[tris[:, 2]]

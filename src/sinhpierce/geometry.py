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
import math
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import Delaunay, cKDTree

from .errors import (
    ConstraintViolation,
    DuplicateCenters,
    HoleTouchesBoundary,
    StitchFailure,
    UnresolvableHole,
)

# Holes below this radius are rejected; with patch-local coordinates the
# geometry itself stays exact far below this, but derived quantities
# (areas ~ eps^2) start flirting with underflow-driven noise.
MIN_HOLE_RADIUS = 1e-13
MIN_HOLE_NODES = 32   # fewest nodes on a hole circle, whatever the grading ratio q
SMOOTH_ITERS = 2      # Laplacian smoothing passes over the background's lattice nodes
TWO_PI = 2.0 * math.pi   # the package's one copy of 2 pi
_NEAREST_BLOCK = 1 << 16   # pairs per block of the polygon searches (_runs)
SAMPLE_ROUNDS = 64         # most draws of 4n candidates domain_sample_points makes
MIN_GAP = 1e-9             # least node-to-edge gap over h of a boundary curve that meshes

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
            if not np.all(np.isfinite(b)):
                raise ValueError("boundary curve points must be finite")
            # drop every point that repeats its cyclic predecessor, so no
            # polygon test sees a zero-length edge; of the pair first/last (a
            # curve given closed) the last goes, so the curve keeps its start
            if b.ndim == 2 and len(b) > 1 and b.shape[1] == 2:
                b = b[np.concatenate([[True], (b[1:] != b[:-1]).any(axis=1)])]
                if len(b) > 1 and np.array_equal(b[-1], b[0]):
                    b = b[:-1]
            if b.ndim != 2 or b.shape[0] < 3 or b.shape[1] != 2:
                raise ValueError("boundary curve needs at least three points, as an "
                                 "(n, 2) list without repeated consecutive points")
            _check_simple(b)
            object.__setattr__(self, "boundary", b)

    @property
    def box(self):
        """(lo, hi), the corners of the domain's bounding box."""
        if self.kind == "unit-disk":
            return np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        return self.boundary.min(axis=0), self.boundary.max(axis=0)


@dataclass(frozen=True)
class MeshPolicy:
    """Background spacing h and geometric grading ratio q for the hole patches."""

    h: float = 0.02
    q: float = 1.3

    def __post_init__(self):
        if not 0 < self.h < math.inf:
            raise ValueError("h must be positive and finite")
        if not (1.0 < self.q <= 2.0):
            raise ValueError("grading ratio q must lie in (1, 2]")


# ---------------------------------------------------------------------------
# domain helpers

def domain_boundary_polygon(domain: DomainSpec, h: float) -> np.ndarray:
    """Closed polygon approximating the outer boundary at arclength spacing ~h."""
    if domain.kind == "unit-disk":
        n = max(16, int(round(TWO_PI / h)))
        th = TWO_PI * np.arange(n) / n
        return np.column_stack([np.cos(th), np.sin(th)])
    return _resample_closed_curve(domain.boundary, h)


def _resample_closed_curve(p, h):
    seg = np.roll(p, -1, axis=0) - p
    lens = np.hypot(seg[:, 0], seg[:, 1])
    s = np.concatenate([[0.0], np.cumsum(lens)])
    total = s[-1]
    n = max(16, int(round(total / h)))
    targets = total * np.arange(n) / n
    # the edge j of each target t: the first with s[j + 1] >= t
    j = np.searchsorted(s[1:], targets)
    w = (targets - s[j]) / (s[j + 1] - s[j])
    return (1 - w)[:, None] * p[j] + w[:, None] * p[(j + 1) % len(p)]


def _polygon_area(poly):
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def _check_simple(poly):
    """ValueError naming, by their end points, the first pair (i, j), i < j,
    of non-adjacent edges of the closed polygon that meet or touch, in the
    order of i then j. Edge k runs from vertex k to vertex k + 1.

    Two segments meet when their bounding boxes overlap and neither has both
    ends strictly on one side of the other's line. Of two edges whose y
    ranges overlap, one has its lowest y in the other's range, so _runs on
    the lowest y offers every such pair; the x ranges are compared for
    those, the sides only for the pairs the x ranges keep. Past one block,
    x and y swap where that offers fewer pairs; side() only changes sign.
    """
    n = len(poly)
    a, b = poly, np.roll(poly, -1, axis=0)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    runs = _run_bounds(lo[:, 1], a, 0.0)
    if np.sum(runs[2] - runs[1]) > _NEAREST_BLOCK:
        swap = _run_bounds(lo[:, 0], a[:, ::-1], 0.0)
        if np.sum(swap[2] - swap[1]) < np.sum(runs[2] - runs[1]):
            runs, a, b, lo, hi = swap, a[:, ::-1], b[:, ::-1], lo[:, ::-1], hi[:, ::-1]

    def side(e, q):
        return np.sign((b[e, 0] - a[e, 0]) * (q[:, 1] - a[e, 1])
                       - (b[e, 1] - a[e, 1]) * (q[:, 0] - a[e, 0]))

    hits = []
    for e, f in _runs(*runs):
        # the run makes the y ranges overlap; the x ranges must too
        x = (lo[e, 0] <= hi[f, 0]) & (lo[f, 0] <= hi[e, 0])
        i, j = np.minimum(e[x], f[x]), np.maximum(e[x], f[x])
        # j >= i + 2 shares no vertex with i, except the last edge with the first
        near = (j >= i + 2) & ((i > 0) | (j < n - 1))
        i, j = i[near], j[near]
        meet = (side(j, a[i]) * side(j, b[i]) <= 0) & (side(i, a[j]) * side(i, b[j]) <= 0)
        hits += zip(i[meet].tolist(), j[meet].tolist())
    if hits:
        i, j = min(hits)
        ends = [f"{tuple(poly[k].tolist())}-{tuple(poly[(k + 1) % n].tolist())}" for k in (i, j)]
        raise ValueError(f"boundary curve is not simple: edge {ends[0]} meets edge {ends[1]}")


def _run_bounds(keys, poly, reach):
    """(order, start, stop): with the keys (never a nan) sorted by order, the
    run start[e]:stop[e] of them holds every key within reach of the y range
    of edge e of the closed polygon, ends included."""
    order = np.argsort(keys, kind="stable")
    y0, y1 = poly[:, 1], np.roll(poly[:, 1], -1)
    start = np.searchsorted(keys[order], np.minimum(y0, y1) - reach)
    stop = np.searchsorted(keys[order], np.maximum(y0, y1) + reach, side="right")
    return order, start, stop


def _runs(order, start, stop):
    """Pairs (e, i) of _run_bounds' runs, in blocks of at most _NEAREST_BLOCK."""
    end = np.cumsum(stop - start)   # pairs of the edges up to e
    off = stop - end                # the pair numbered p of edge e is run entry off[e] + p
    for p in range(0, int(end[-1]), _NEAREST_BLOCK):
        e = slice(np.searchsorted(end, p, side="right"),
                  np.searchsorted(end, p + _NEAREST_BLOCK) + 1)
        k, i = _ranges(np.maximum(start[e], off[e] + p),
                       np.minimum(stop[e], off[e] + p + _NEAREST_BLOCK))
        k += e.start
        i = order[i]
        yield k, i


def _point_in_polygon(points, poly):
    """Ray-casting test; True for points strictly inside. Edge k crosses the
    horizontal line through a point exactly when min(y0, y1) <= y < max(y0,
    y1), so only the points in its closed y range, which _runs offers, are
    tested."""
    x, y = points[:, 0], points[:, 1]
    x0, y0 = poly[:, 0], poly[:, 1]
    x1, y1 = np.roll(x0, -1), np.roll(y0, -1)
    count = np.zeros(len(points), dtype=np.int64)
    for edge, pt in _runs(*_run_bounds(y, poly, 0.0)):
        cross = (y0[edge] <= y[pt]) != (y1[edge] <= y[pt])
        edge, pt = edge[cross], pt[cross]
        xcross = x0[edge] + (y[pt] - y0[edge]) * (x1[edge] - x0[edge]) / (y1[edge] - y0[edge])
        count += np.bincount(pt[x[pt] < xcross], minlength=len(points))
    return count % 2 == 1


def _edge_gaps(points, poly, reach):
    """(e, i, d) per block of _runs: d is the distance from points[i] to edge
    e of the closed polygon, which runs from vertex e to vertex e + 1. Every
    pair with d <= reach is among them: the runs widen by a rounding margin."""
    x, y = points[:, 0], points[:, 1]
    ax, ay = poly[:, 0], poly[:, 1]
    abx, aby = np.roll(ax, -1) - ax, np.roll(ay, -1) - ay
    denom = abx * abx + aby * aby
    for e, i in _runs(*_run_bounds(y, poly, reach * (1 + 1e-9) + _rounding_slack(poly))):
        px, py, ex, ey, dx, dy = x[i], y[i], ax[e], ay[e], abx[e], aby[e]
        t = np.clip(((px - ex) * dx + (py - ey) * dy) / denom[e], 0.0, 1.0)
        yield e, i, np.hypot(px - (ex + t * dx), py - (ey + t * dy))


def _check_width(bpoly, h):
    """ConstraintViolation naming the first node of the resampled boundary
    polygon that lies within MIN_GAP h of an edge that does not contain it,
    and the first such edge.

    The background's Delaunay stitch cannot place such a node on its side
    of the curve: the sliver 0 0; 1 0; 2 1e-12, whose nodes lie 5e-13 h
    from the far side, fails it at every h. Thin or sharp curves mesh far
    below any fixed fraction of h: a 1e-6 wide rectangle, a 1e-6 degree
    wedge (1.8e-8 h), the same sliver with 2 1e-11 (5e-12 h). Their
    smallest triangle quality is about that least gap over h, so the bound
    turns away no mesh whose triangles all have quality above 1e-9.
    """
    n = len(bpoly)
    hits = []
    for e, i, d in _edge_gaps(bpoly, bpoly, MIN_GAP * h):
        near = (d < MIN_GAP * h) & (e != i) & (e != (i - 1) % n)   # not the node's own edges
        hits += zip(i[near].tolist(), e[near].tolist(), d[near].tolist())
    if hits:
        i, e, gap = min(hits)
        raise ConstraintViolation(
            f"boundary curve too thin for mesh spacing h = {h:g}: resampled node "
            f"{i} {tuple(bpoly[i].tolist())} lies {gap:.3g} from edge "
            f"{tuple(bpoly[e].tolist())}-{tuple(bpoly[(e + 1) % n].tolist())}, "
            f"under {MIN_GAP:g} h")


def _rounding_slack(poly):
    return 1e-12 * np.abs(poly).max()


def _farther_than(points, domain: DomainSpec, poly, dist, side=1):
    """side * _signed_inside_distance(points, domain, poly) > dist, for
    dist >= 0 and side 1 (inside) or -1 (outside), at finite points: of the
    points the inside test puts on that side, those _edge_gaps finds within
    dist of an edge drop out."""
    pts = np.asarray(points, dtype=float)
    if domain.kind == "unit-disk":
        return side * _signed_inside_distance(pts, domain, poly) > dist
    out = _point_in_polygon(pts, poly) == (side > 0)
    keep = np.flatnonzero(out)
    for _, i, d in _edge_gaps(pts[keep], poly, dist):
        out[keep[i[~(d > dist)]]] = False
    return out


def _ranges(start, stop):
    """(k, i) for every i in every half-open range [start[k], stop[k])."""
    n = stop - start
    i = np.repeat(start - (np.cumsum(n) - n), n)
    i += np.arange(i.size)
    return np.repeat(np.arange(n.size), n), i


def _signed_inside_distance(points, domain: DomainSpec, poly):
    """Distance to the boundary for inside points, -distance outside; on a
    polygon, the least of the point's _edge_gaps over every edge."""
    pts = np.asarray(points, dtype=float)
    if domain.kind == "unit-disk":
        return 1.0 - np.hypot(pts[:, 0], pts[:, 1])
    d = np.full(len(pts), np.inf)
    for _, i, gap in _edge_gaps(pts, poly, np.inf):
        np.minimum.at(d, i, gap)
    return np.where(_point_in_polygon(pts, poly), d, -d)


def domain_sample_points(domain: DomainSpec, n=2000, seed=0):
    """Deterministic cloud of n interior points for potential positivity checks.

    Each round draws 4n candidates uniformly from the domain's box and keeps
    those inside. A domain that has not given n points after SAMPLE_ROUNDS
    rounds has (next to) no area, and is a ConstraintViolation.
    """
    rng = np.random.default_rng(seed)
    lo, hi = domain.box
    pts = np.empty((0, 2))
    for _ in range(SAMPLE_ROUNDS):
        cand = rng.uniform(lo, hi, size=(4 * n, 2))
        pts = np.vstack([pts, cand[_farther_than(cand, domain, domain.boundary, 0.0)]])
        if len(pts) >= n:
            return pts[:n]
    raise ConstraintViolation(
        f"the domain has next to no area: {len(pts)} of {SAMPLE_ROUNDS * 4 * n} points "
        f"drawn from its bounding box fell inside, and sampling the potentials takes {n}")


# ---------------------------------------------------------------------------
# hole layout

def annulus_radius(domain: DomainSpec, centers) -> float:
    """Check the hole layout and fix eta = 0.45 min{dist(xi_i, bdry), |xi_i - xi_j|}.

    The layout needs at least one hole (ValueError), distinct centers
    (DuplicateCenters) and every center inside the domain
    (HoleTouchesBoundary). eta does not depend on the hole radii, so a Run
    fixes it once and one background serves every rho; check_radii holds
    each rho's radii below it.
    """
    c = np.asarray(centers, dtype=float).reshape(-1, 2)
    m = c.shape[0]
    if m == 0:
        raise ValueError("at least one hole is required")
    separations = []
    for i in range(m):
        for j in range(i + 1, m):
            if c[i, 0] == c[j, 0] and c[i, 1] == c[j, 1]:
                raise DuplicateCenters(
                    f"holes {i + 1} and {j + 1} share center {tuple(c[i].tolist())}")
            separations.append(math.hypot(c[i, 0] - c[j, 0], c[i, 1] - c[j, 1]))
    # a center that is not a finite point lies outside every domain
    finite = np.isfinite(c).all(axis=1)
    clearance = np.full(m, -np.inf)
    clearance[finite] = _signed_inside_distance(c[finite], domain, domain.boundary)
    clearance = clearance.tolist()
    for i, d in enumerate(clearance):
        if not d > 0:
            raise HoleTouchesBoundary(
                f"hole {i + 1}: center {tuple(c[i].tolist())} not inside the domain "
                f"(clearance {d:.3g})")
    return 0.45 * min(clearance + separations)


def check_radii(radii, eta):
    """Check one rho's hole radii against the annulus radius eta of the
    layout: hole i is admitted if and only if MIN_HOLE_RADIUS <= eps_i < eta.

    The floor is tested first, over all holes: a radius below it, such as
    one that underflowed to 0, or one that is negative or nan, is an
    UnresolvableHole. Then a radius not below eta, inf included, is
    HoleTouchesBoundary: eta < dist(xi_i, bdry). No pair needs a test of its
    own: eta <= 0.45 |xi_i - xi_j|, which annulus_radius computes with the
    same math.hypot, so holes with radii below eta cannot meet.
    """
    r = np.asarray(radii, dtype=float).tolist()
    for i, eps in enumerate(r):
        if not eps >= MIN_HOLE_RADIUS:
            raise UnresolvableHole(
                f"hole {i + 1} radius {eps:.3g} below the resolvable scale "
                f"{MIN_HOLE_RADIUS:g}")
    for i, eps in enumerate(r):
        if not eps < eta:
            raise HoleTouchesBoundary(
                f"hole {i + 1} radius {eps:.3g} is not below the annulus radius eta={eta:.3g}")


# ---------------------------------------------------------------------------
# mesh

@dataclass(eq=False)
class PolarPatch:
    """Structured polar patch around one hole: rings x angles, node offsets exact."""

    center: np.ndarray
    radii: np.ndarray        # (K+1,) ring radii, radii[0] = eps, radii[-1] = eta
    n_theta: int
    node_grid: np.ndarray    # (K+1, n_theta) global node indices


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
    h: float = 0.0
    min_quality: float = 0.0
    # operators.get_ops fills this with the mesh's DiscreteOperators and
    # release_ops empties it; they go with the mesh
    ops: object = field(default=None, init=False, repr=False)

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


def _hex_lattice(lo, hi, h):
    """Hexagonal lattice with spacing h anchored at the origin, covering the
    box with corners lo and hi."""
    (xmin, ymin), (xmax, ymax) = lo, hi
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
    n = max(MIN_HOLE_NODES, int(math.ceil(math.pi / (policy.q - 1.0))))
    return n + (n % 2)


def _build_patch_rings(eps, eta, q, n_theta):
    # cap the effective ratio so radial cells stay within twice the angular
    # spacing; the policy ratio is an upper bound on the grading
    q_eff = min(q, 1.0 + 2.0 * (TWO_PI / n_theta))
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


def build_domain_mesh(domain: DomainSpec, h: float) -> Mesh:
    """Mesh the outer domain alone (no holes); used by the numeric Green backend."""
    return _assemble(_background(domain, np.zeros((0, 2)), 0.0, MeshPolicy(h=h)), ())


def prefetch_background(domain: DomainSpec, centers, eta, policy: MeshPolicy) -> Future:
    """Start building the rho-independent background of the hole layout
    (centers and eta, which annulus_radius has accepted) on a daemon thread
    and return its Future, which build_mesh takes at every rho.

    A daemon does not hold the interpreter open, so a command that fails
    before it needs the background exits without waiting for it.
    """
    centers = np.array(centers, dtype=float)
    future = Future()

    def build():
        try:
            bg = _background(domain, centers, eta, policy)
            _release_free_heap()
        except BaseException as exc:   # raised again where build_mesh reads it
            future.set_exception(exc)
        else:
            future.set_result(bg)

    threading.Thread(target=build, daemon=True, name="sinhpierce-background").start()
    return future


def _release_free_heap():
    """Hand the heap the build thread freed back to the system.

    glibc gives each thread its own malloc arena, and Qhull's freed memory
    stays resident in the thread's; without this, `construct` at h = 0.005
    peaks about 20% higher. A no-op where libc has no malloc_trim.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    trim(0)


def build_mesh(background: Future, radii) -> Mesh:
    """Composite mesh of the pierced domain: the polar patches of holes with
    the given radii, which check_radii accepted, on prefetch_background's
    background. A worker's exception surfaces here."""
    return _assemble(background.result(), radii)


@dataclass(frozen=True)
class _Background:
    """The part of a mesh that does not depend on the hole radii, and the
    layout and policy it was built for; the arrays meshes take are read-only,
    so a Run's stages share it."""

    centers: np.ndarray
    eta: float
    policy: MeshPolicy
    pot: np.ndarray          # stitch nodes: boundary, patch rims, transition circles, hex lattice
    origin: np.ndarray       # 0 boundary, 1 circle or rim, 2 hex
    rim_slices: tuple        # (start, n_theta) of each rim in pot
    n_theta: int
    tris: np.ndarray         # filtered Delaunay triangles of pot, outside the rims


def _background(domain, centers, eta, policy) -> _Background:
    h = policy.h
    bpoly = domain_boundary_polygon(domain, h)
    if domain.kind != "unit-disk":
        _check_width(bpoly, h)
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
        th = TWO_PI * np.arange(n_theta) / n_theta
        rim = np.column_stack([xi[0] + eta * np.cos(th), xi[1] + eta * np.sin(th)])
        start = sum(p.shape[0] for p in pot_pts)
        pot_pts.append(rim)
        pot_origin.append(np.full(n_theta, 1))
        rim_slices.append((start, n_theta))

        # transition circles bridge the rim spacing to the background spacing:
        # angular doubling when the rim is coarser than the lattice, angular
        # halving (aligned subsets) when it is finer
        s = TWO_PI * eta / n_theta
        n = n_theta
        rr = eta
        while s > 1.6 * h or (s < 0.62 * h and n >= 16):
            # a doubling ends at s >= h and a halving at s <= h, so the steps
            # never change direction
            finer = s > 1.6 * h
            s = max(s / 2, h) if finer else min(2 * s, h)
            n = 2 * n if finer else n // 2
            rr = rr + 0.85 * s
            tth = TWO_PI * np.arange(n) / n
            cpts = np.column_stack([xi[0] + rr * np.cos(tth), xi[1] + rr * np.sin(tth)])
            circle_pts.append(cpts)
            circle_spacing.append(np.full(n, s))
        exclusion.append((xi, rr + 0.75 * max(s, h)))

    # transition nodes: drop those outside the domain, within reach of a rim
    # (a nearby hole's shell may cross it) or colliding with earlier stitch
    # nodes (overlapping transition shells of nearby holes); the stitch nodes
    # so far go first with radius 0, so all of them stay
    if circle_pts:
        cpts = np.vstack(circle_pts)
        reach = 0.45 * np.concatenate(circle_spacing)
        inside = _farther_than(cpts, domain, bpoly, 0.55 * h)
        for xi in centers:
            inside &= np.hypot(cpts[:, 0] - xi[0], cpts[:, 1] - xi[1]) > eta + reach
        base = np.vstack(pot_pts)
        pts = np.vstack([base, cpts[inside]])
        radius = np.concatenate([np.zeros(len(base)), reach[inside]])
        sel = _first_apart(pts, radius)
        sel = sel[sel >= len(base)]
        if sel.size:
            pot_pts.append(pts[sel])
            pot_origin.append(np.full(len(sel), 1))

    # hex lattice clipped to the domain minus the patch exclusion zones
    hex_pts = _hex_lattice(*domain.box, h)
    keep = _farther_than(hex_pts, domain, bpoly, 0.55 * h)
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
        coords = points[tris]
        cent = coords.mean(axis=1)
        # degenerate: area at most 1e-12 L^2, L the longest edge, such as the
        # slivers (areas ~5e-18) on three resampled nodes of one straight side
        edge_sq = np.max([np.sum((coords[:, k] - coords[:, k - 1]) ** 2, axis=1)
                          for k in range(3)], axis=0)
        keep = np.abs(_tri_areas(coords)) > np.maximum(1e-14 * h * h, 1e-12 * edge_sq)
        if not convex:
            keep &= _point_in_polygon(cent, bpoly)
        # the rim polygons are the rim nodes themselves, which smoothing never
        # moves; only centroids within eta of a center can lie inside one
        for xi, (start, n) in zip(centers, rim_slices):
            near = np.flatnonzero(np.hypot(cent[:, 0] - xi[0], cent[:, 1] - xi[1]) < eta)
            keep[near[_point_in_polygon(cent[near], points[start:start + n])]] = False
        return tris[keep]

    tris = triangulate(pot)
    for _ in range(SMOOTH_ITERS):
        # Laplacian smoothing of the lattice nodes only
        nbr_sum, nbr_cnt = _neighbour_sums(pot, tris)
        ok = movable & (nbr_cnt > 0)
        pot[ok] = nbr_sum[ok] / nbr_cnt[ok, None]
        tris = triangulate(pot)

    for arr in (pot, origin, tris):
        arr.flags.writeable = False
    return _Background(centers=centers, eta=eta, policy=policy, pot=pot,
                       origin=origin, rim_slices=tuple(rim_slices), n_theta=n_theta, tris=tris)


def _first_apart(pts, radius):
    """Indices, in order, of the points kept when each point is dropped if
    one already kept lies within its radius (distance <= radius).

    One k-d tree of all points finds each point's earlier neighbours (a
    slightly wider ball, so none is missed); the test itself is
    sqrt(dx^2 + dy^2) <= radius.
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


def _assemble(bg: _Background, hole_radii) -> Mesh:
    """Add the polar patches of holes with these radii to the background and
    check the whole mesh."""
    pot, tris, n_theta, eta = bg.pot, bg.tris, bg.n_theta, bg.eta
    n_pot = pot.shape[0]

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
    for i in range(bg.centers.shape[0]):
        xi = bg.centers[i]
        radii = _build_patch_rings(hole_radii[i], eta, bg.policy.q, n_theta)
        k1 = len(radii)
        th = TWO_PI * np.arange(n_theta) / n_theta
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
                patches=patches, h=bg.policy.h)

    _orient_and_weigh(mesh)
    _check_conformity(mesh)
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


def _check_conformity(mesh):
    """Every edge in exactly two triangles, or one if on a boundary cycle.

    The outer boundary polygon is the mesh's OUTER nodes, which come first
    and in order around the curve.
    """
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

    bpoly = mesh.nodes[mesh.node_marker == OUTER]
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
        ring = p.node_grid[0]
        target -= abs(_polygon_area(np.column_stack([mesh.node_dx[ring], mesh.node_dy[ring]])))
    covered = float(np.sum(mesh.weights))
    if abs(covered - target) > 1e-9 * abs(target):
        raise StitchFailure(
            f"covered area {covered!r} differs from polygonal area {target!r}")


# ---------------------------------------------------------------------------
# field evaluation helpers


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

    def _patch_values(self, patch_index, dx, dy, values):
        """Evaluate at the center offset arrays (dx, dy) inside one patch."""
        p = self.mesh.patches[patch_index]
        r = np.minimum(np.maximum(_each(math.hypot, dx, dy), p.radii[0]), p.radii[-1])
        k = np.clip(np.searchsorted(p.radii, r, side="right") - 1, 0, len(p.radii) - 2)
        # numpy's % and // on floats follow the same fmod-based rule as Python's
        th = _each(math.atan2, dy, dx) % TWO_PI
        j = (th // (TWO_PI / p.n_theta)).astype(np.int64) % p.n_theta
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

    def __call__(self, values, points) -> np.ndarray:
        """Values at each of the points, an (n, 2) array or one point."""
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
        # thin sliver between a patch rim polygon and its circle, or a hair
        # outside the boundary polygon: fall back to the nearest node
        lost = back[~found]
        out[lost] = values[_nearest_nodes(mesh, pts[lost])]
        return out

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


def _nearest_nodes(mesh, points):
    """Index of the node nearest to each point, the first one on a tie.

    Nearest means least np.hypot; a k-d tree of the nodes gives each point
    the nodes within rounding of its nearest distance, and only those are
    measured that way.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not len(pts):
        return np.zeros(0, dtype=int)
    tree = cKDTree(mesh.nodes)
    near = tree.query_ball_point(pts, tree.query(pts)[0] * (1 + 1e-9))
    rows = np.repeat(np.arange(len(pts)), [len(js) for js in near])
    cols = np.concatenate(near).astype(int)
    d = np.hypot(mesh.nodes[cols, 0] - pts[rows, 0], mesh.nodes[cols, 1] - pts[rows, 1])
    order = np.lexsort((cols, d, rows))
    return cols[order][np.diff(rows[order], prepend=-1) != 0]


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

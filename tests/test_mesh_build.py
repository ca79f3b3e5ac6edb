"""Exactness of the mesh construction's fast paths: the y-run searches (the
inside test, the distance, and the thin-curve and self-meeting checks also
at small blocks) against all-pairs references, the vectorized curve
resample against the walk it replaced, the rim filter against the sector
test it replaced, the bincount sums against the np.add.at accumulation, the
background a Run shares against a cold build, a closed boundary curve
against the open one, curves that meet themselves, the conformity check
on broken meshes, and regular polygons, which mesh and approach the disk."""

import dataclasses
import math
import re

import numpy as np
import pytest
from scipy.spatial import Delaunay

import sinhpierce.geometry as geometry
from sinhpierce.coeffs import BlowupConfig, constant_potential
from sinhpierce.corrector import Run, construct_solution
from sinhpierce.errors import ConstraintViolation, StitchFailure
from sinhpierce.geometry import (
    DomainSpec,
    MeshPolicy,
    annulus_radius,
    build_domain_mesh,
    domain_boundary_polygon,
)
from sinhpierce.greens import GreenProvider

from conftest import distance_to_boundary, pierced_mesh

SQUARE = DomainSpec("boundary-curve", [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]])
L_SHAPE = DomainSpec("boundary-curve", [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]])


def point_in_polygon_all_pairs(points, poly):
    """Reference: every point against every edge."""
    x = points[:, 0][:, None]
    y = points[:, 1][:, None]
    x0, y0 = poly[:, 0][None, :], poly[:, 1][None, :]
    x1, y1 = np.roll(poly[:, 0], -1)[None, :], np.roll(poly[:, 1], -1)[None, :]
    cond = (y0 <= y) != (y1 <= y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xcross = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
    hits = cond & (x < xcross)
    return np.sum(hits, axis=1) % 2 == 1


def edge_distances_all_pairs(points, poly):
    """Reference: d[i, e], the distance from point i to every edge e."""
    a = poly
    b = np.roll(poly, -1, axis=0)
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    p = points[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("ikj,kj->ik", p, ab) / denom[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    return np.hypot(points[:, None, 0] - proj[:, :, 0], points[:, None, 1] - proj[:, :, 1])


def dist_to_polygon_all_pairs(points, poly):
    """Reference: the distance to every edge, then the minimum."""
    return edge_distances_all_pairs(points, poly).min(axis=1)


def first_meeting_pair_all_pairs(poly):
    """Reference: the first pair (i, j), i < j, of non-adjacent edges that
    meet, every pair compared in the order of i then j; None if none."""
    n = len(poly)
    a, b = poly, np.roll(poly, -1, axis=0)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    i, j = np.triu_indices(n, 2)
    i, j = i[(i > 0) | (j < n - 1)], j[(i > 0) | (j < n - 1)]

    def side(e, q):
        return np.sign((b[e, 0] - a[e, 0]) * (q[:, 1] - a[e, 1])
                       - (b[e, 1] - a[e, 1]) * (q[:, 0] - a[e, 0]))

    meet = np.all((lo[i] <= hi[j]) & (lo[j] <= hi[i]), axis=1) \
        & (side(j, a[i]) * side(j, b[i]) <= 0) & (side(i, a[j]) * side(i, b[j]) <= 0)
    k = np.flatnonzero(meet)
    return (int(i[k[0]]), int(j[k[0]])) if k.size else None


def first_thin_node_all_pairs(bpoly, h):
    """Reference: the first node within MIN_GAP h of an edge not its own,
    that node's first such edge, and the gap; None if none."""
    n = len(bpoly)
    d = edge_distances_all_pairs(bpoly, bpoly)
    d[np.arange(n), np.arange(n)] = d[np.arange(n), np.arange(n) - 1] = np.inf
    near = np.argwhere(d < geometry.MIN_GAP * h)
    return (int(near[0, 0]), int(near[0, 1]), d[tuple(near[0])]) if near.size else None


def _star40():
    t = 2 * math.pi * np.arange(40) / 40
    rad = 0.6 + 0.3 * np.cos(5 * t)
    return np.column_stack([rad * np.cos(t), rad * np.sin(t)])


def _d_shape(n):
    """n vertices on the right half of the unit circle, closed by the chord
    along the y axis: one edge whose y range holds every point."""
    t = math.pi * (np.arange(n) / (n - 1) - 0.5)
    return np.column_stack([np.cos(t), np.sin(t)])


def _sawtooth(teeth):
    """The unit square with teeth 1e-4 high along 0.01 of its bottom side:
    many edges that share one thin y range."""
    x = 0.01 * np.arange(2 * teeth + 1) / (2 * teeth)
    y = np.where(np.arange(2 * teeth + 1) % 2 == 1, 1e-4, 0.0)
    return np.vstack([np.column_stack([x, y]), [[1, 0], [1, 1], [0, 1]]])


def resample_closed_curve_walk(p, h):
    """Reference: the walk along the curve, target by target, edge by edge."""
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
        out[i] = (1 - w) * p[j] + w * p[(j + 1) % len(p)]
    return out


@pytest.mark.parametrize("h", [0.1, 0.02, 0.005])
@pytest.mark.parametrize("curve", [SQUARE.boundary, L_SHAPE.boundary, _star40()],
                         ids=["square", "L-shape", "nonconvex-40gon"])
def test_resample_equals_the_walk(curve, h):
    got = geometry._resample_closed_curve(curve, h)
    assert got.tobytes() == resample_closed_curve_walk(curve, h).tobytes()


@pytest.mark.parametrize("poly", [domain_boundary_polygon(SQUARE, 0.02),
                                  domain_boundary_polygon(SQUARE, 0.005),
                                  _star40(), _d_shape(400), _sawtooth(500)],
                         ids=["square-h0.02", "square-h0.005", "nonconvex-40gon",
                              "D-shape-400", "sawtooth-500"])
def test_polygon_tests_equal_all_pairs(poly):
    rng = np.random.default_rng(3)
    lo, hi = poly.min(axis=0) - 0.2, poly.max(axis=0) + 0.2
    edge_mid = 0.5 * (poly + np.roll(poly, -1, axis=0))
    point_sets = {
        "hex": geometry._hex_lattice(lo, hi, 0.04),
        "random": rng.uniform(lo, hi, size=(3000, 2)),
        "vertices": poly.copy(),
        "edge-midpoints": edge_mid,
        "outside": rng.uniform(-20.0, 20.0, size=(300, 2)),
        # on the horizontal line through a vertex: the half-open crossing rule
        "vertex-y": np.column_stack([rng.uniform(lo[0], hi[0], len(poly)), poly[:, 1]]),
    }
    domain = DomainSpec("boundary-curve", poly)
    for name, pts in point_sets.items():
        inside = geometry._point_in_polygon(pts, poly)
        assert np.array_equal(inside, point_in_polygon_all_pairs(pts, poly)), name
        d = geometry._signed_inside_distance(pts, domain, poly)
        ref = dist_to_polygon_all_pairs(pts, poly)
        assert np.array_equal(d.view(np.int64), np.where(inside, ref, -ref).view(np.int64)), name
    # the sets reach both sides of the boundary
    assert 0 < geometry._point_in_polygon(point_sets["random"], poly).sum() < 3000


@pytest.mark.parametrize("poly, h", [(domain_boundary_polygon(SQUARE, 0.02), 0.02),
                                     (domain_boundary_polygon(SQUARE, 0.005), 0.005),
                                     (_star40(), 0.02), (_d_shape(400), 0.02),
                                     (_sawtooth(500), 0.02)],
                         ids=["square-h0.02", "square-h0.005", "nonconvex-40gon",
                              "D-shape-400", "sawtooth-500"])
def test_inside_farther_than_equals_signed_distance(poly, h):
    # the hex-lattice filter of _background searches only the edges within
    # reach of each point's y: the mask must be the full test's
    domain = DomainSpec("boundary-curve", poly)
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    lattice = geometry._hex_lattice(lo, hi, h)
    rng = np.random.default_rng(5)
    point_sets = {
        "hex": lattice,
        "random": rng.uniform(lo - 0.1, hi + 0.1, size=(5000, 2)),
        "edge-midpoints": 0.5 * (poly + np.roll(poly, -1, axis=0)),
    }
    signed = {name: geometry._signed_inside_distance(pts, domain, poly)
              for name, pts in point_sets.items()}
    for name, pts in point_sets.items():
        # the lattice at the filter's own threshold, the smaller sets at others
        for dist in (0.55 * h,) if name == "hex" else (0.0, 0.55 * h, 0.3):
            keep = geometry._farther_than(pts, domain, poly, dist)
            assert np.array_equal(keep, signed[name] > dist), (name, dist)
    disk = DomainSpec()
    assert np.array_equal(geometry._farther_than(lattice, disk, poly, 0.55 * h),
                          geometry._signed_inside_distance(lattice, disk, poly) > 0.55 * h)


def inside_rim_polygon_sectors(centroids, center, rim_r, n_theta):
    """Reference: the rim polygon rebuilt from the circle, a point inside the
    inscribed radius or left of the chord of its arctan2 sector."""
    dx = centroids[:, 0] - center[0]
    dy = centroids[:, 1] - center[1]
    r = np.hypot(dx, dy)
    inner = r <= rim_r * math.cos(math.pi / n_theta)
    ambiguous = (~inner) & (r < rim_r)
    if np.any(ambiguous):
        th = np.arctan2(dy[ambiguous], dx[ambiguous]) % geometry.TWO_PI
        dtheta = geometry.TWO_PI / n_theta
        j = np.floor(th / dtheta).astype(int) % n_theta
        th0 = j * dtheta
        th1 = th0 + dtheta
        ax, ay = rim_r * np.cos(th0), rim_r * np.sin(th0)
        bx, by = rim_r * np.cos(th1), rim_r * np.sin(th1)
        # interior of the CCW polygon lies to the left of each chord
        cross = (bx - ax) * (dy[ambiguous] - ay) - (by - ay) * (dx[ambiguous] - ax)
        inner[np.flatnonzero(ambiguous)[cross > 0]] = True
    return inner


def first_apart_per_candidate_tree(pts, radius):
    """Reference: the dedup loop that builds a k-d tree of the accepted
    points for every candidate."""
    accepted = []
    acc_pts = []
    for idx in range(len(pts)):
        if acc_pts:
            if geometry.cKDTree(np.asarray(acc_pts)).query(pts[idx])[0] <= radius[idx]:
                continue
        accepted.append(idx)
        acc_pts.append(pts[idx])
    return np.asarray(accepted, dtype=np.int64)


class _Stop(Exception):
    pass


LAYOUTS = pytest.mark.parametrize("domain, centers, h, rejected", [
    (DomainSpec(), [[0.0, 0.0]], 0.02, False),
    (DomainSpec(), [[-0.4, 0.0], [0.4, 0.0]], 0.005, False),
    (SQUARE, [[-0.4, 0.0], [0.4, 0.0]], 0.02, False),
    # holes close enough that their transition shells overlap
    (DomainSpec(), [[-0.15, 0.0], [0.15, 0.0], [0.0, 0.25]], 0.005, True),
    (SQUARE, [[-0.2, 0.0], [0.2, 0.0]], 0.01, True),
], ids=["verify-disk", "construct-fine", "sweep-square", "overlap-disk", "overlap-square"])


@LAYOUTS
def test_rim_filter_equals_the_sector_test(domain, centers, h, rejected):
    # the background's last triangulation, filtered with the reference rim test
    centers = np.asarray(centers, dtype=float)
    eta = geometry.annulus_radius(domain, centers)
    bg = geometry._background(domain, centers, eta, MeshPolicy(h=h, q=1.3))
    tris = Delaunay(bg.pot).simplices
    cent = bg.pot[tris].mean(axis=1)
    keep = np.abs(geometry._tri_areas(bg.pot[tris])) > 1e-14 * h * h
    if domain.kind != "unit-disk":
        keep &= geometry._point_in_polygon(cent, domain_boundary_polygon(domain, h))
    outside = keep.copy()
    for xi in centers:
        outside &= ~inside_rim_polygon_sectors(cent, xi, eta, bg.n_theta)
    assert np.array_equal(bg.tris, tris[outside])
    # every rim drops the triangles that fill it
    assert (keep & ~outside).sum() >= len(centers) * (bg.n_theta - 2)


@LAYOUTS
def test_transition_dedup_equals_per_candidate_trees(domain, centers, h, rejected, monkeypatch):
    seen = []

    def recording(pts, radius):
        seen.append((pts.copy(), radius.copy()))
        raise _Stop   # the candidates are all this test needs of the build

    monkeypatch.setattr(geometry, "_first_apart", recording)
    centers = np.asarray(centers, dtype=float)
    with pytest.raises(_Stop):
        geometry._background(domain, centers, geometry.annulus_radius(domain, centers),
                             MeshPolicy(h=h, q=1.3))
    monkeypatch.undo()
    (pts, radius), = seen
    got = geometry._first_apart(pts, radius)
    want = first_apart_per_candidate_tree(pts, radius)
    assert np.array_equal(got, want)
    # the stitch nodes come first, with radius 0, and all of them stay
    n_stitch = np.count_nonzero(radius == 0)
    assert np.all(radius[n_stitch:] > 0)
    assert np.array_equal(got[:n_stitch], np.arange(n_stitch))
    assert (len(want) < len(pts)) == rejected
    assert geometry._first_apart(pts[:0], radius[:0]).size == 0


def test_transition_dedup_tests_only_kept_points():
    # a chain 0.8 apart with radius 1: each point lies within reach of the one
    # before it, which is dropped when its own predecessor is kept
    pts = np.column_stack([0.8 * np.arange(7), np.zeros(7)])
    radius = np.ones(7)
    assert geometry._first_apart(pts, radius).tolist() == [0, 2, 4, 6]
    assert first_apart_per_candidate_tree(pts, radius).tolist() == [0, 2, 4, 6]


# --- the background a Run shares ------------------------------------------

RHOS = (1e-2, 1e-3, 1e-4)


def _config(domain, centers):
    m = len(centers)
    return BlowupConfig(domain=domain, centers=centers, alphas=[3.0] * m, m1=1, tau=1.0,
                        V1=constant_potential(1.0), V2=constant_potential(1.0))


def _assert_meshes_equal(a, b):
    for name in ("nodes", "triangles", "node_marker", "node_patch", "node_dx", "node_dy",
                 "tri_patch", "weights"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert np.float64(a.min_quality).tobytes() == np.float64(b.min_quality).tobytes()
    assert a.h == b.h
    assert len(a.patches) == len(b.patches)
    for p, q in zip(a.patches, b.patches):
        assert p.n_theta == q.n_theta
        for name in ("center", "radii", "node_grid"):
            assert getattr(p, name).tobytes() == getattr(q, name).tobytes(), name


@pytest.mark.parametrize("domain, centers", [(DomainSpec(), [[0.0, 0.0]]),
                                             (SQUARE, [[-0.4, 0.0], [0.4, 0.0]])],
                         ids=["verify-disk", "sweep-square"])
def test_memoized_mesh_equals_cold_build(domain, centers, monkeypatch):
    policy = MeshPolicy(h=0.02)
    gp = GreenProvider(domain)
    real = geometry._background
    pierced_builds = []

    def counting(domain, centers, eta, policy):
        if eta > 0:   # not the numeric Green function's domain mesh
            pierced_builds.append(centers)
        return real(domain, centers, eta, policy)

    monkeypatch.setattr(geometry, "_background", counting)
    # one background for the Run's three stages; writing to a returned mesh
    # leaves it, and so the next stage's mesh, alone
    run = Run(_config(domain, centers), policy, gp)
    for cold_builds, rho in enumerate(RHOS):
        st = run.stage(rho)
        assert len(pierced_builds) == 1 + cold_builds
        _assert_meshes_equal(st.mesh, pierced_mesh(domain, centers, st.scales.eps, policy))
        st.mesh.nodes[:] = 0.0
        st.mesh.triangles[:] = 0
        st.mesh.node_dx[:] = 0.0


# --- bincount sums ----------------------------------------------------------

def neighbour_sums_add_at(pot, tris):
    """Reference: the smoothing sums as np.add.at accumulated them."""
    nbr_sum = np.zeros_like(pot)
    nbr_cnt = np.zeros(pot.shape[0])
    for a, b in ((0, 1), (1, 2), (2, 0)):
        np.add.at(nbr_sum, tris[:, a], pot[tris[:, b]])
        np.add.at(nbr_cnt, tris[:, a], 1.0)
        np.add.at(nbr_sum, tris[:, b], pot[tris[:, a]])
        np.add.at(nbr_cnt, tris[:, b], 1.0)
    return nbr_sum, nbr_cnt


def orient_and_weigh_add_at(mesh):
    """Reference: orientation and lumped weights as np.add.at accumulated them."""
    areas = geometry._tri_areas(mesh.all_tri_coords())
    flip = areas < 0
    if np.any(flip):
        mesh.triangles[flip] = mesh.triangles[flip][:, [0, 2, 1]]
        areas = np.abs(areas)
    w = np.zeros(mesh.n_nodes)
    for v in range(3):
        np.add.at(w, mesh.triangles[:, v], areas / 3.0)
    mesh.weights = w


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.mark.parametrize("build", [lambda: pierced_mesh(DomainSpec(), [[0.0, 0.0]], [1e-3],
                                                       MeshPolicy(h=0.02)),
                                   lambda: pierced_mesh(SQUARE, [[-0.4, 0.0], [0.4, 0.0]],
                                                        [1e-3, 1e-3], MeshPolicy(h=0.03)),
                                   lambda: build_domain_mesh(SQUARE, 0.03)],
                         ids=["disk-h0.02", "square-h0.03", "domain-square-h0.03"])
def test_bincount_sums_equal_add_at(build, monkeypatch):
    real = geometry._neighbour_sums
    passes = []

    def checked(pot, tris):
        nbr_sum, nbr_cnt = real(pot, tris)
        ref_sum, ref_cnt = neighbour_sums_add_at(pot, tris)
        assert np.array_equal(_bits(nbr_sum), _bits(ref_sum))
        assert np.array_equal(_bits(nbr_cnt), _bits(ref_cnt))
        passes.append(len(tris))
        return nbr_sum, nbr_cnt

    monkeypatch.setattr(geometry, "_neighbour_sums", checked)
    mesh = build()
    assert len(passes) == geometry.SMOOTH_ITERS
    monkeypatch.setattr(geometry, "_neighbour_sums", neighbour_sums_add_at)
    monkeypatch.setattr(geometry, "_orient_and_weigh", orient_and_weigh_add_at)
    ref = build()
    # the smoothed stitch nodes come first, the weights cover every node
    assert np.array_equal(_bits(mesh.nodes), _bits(ref.nodes))
    assert np.array_equal(_bits(mesh.weights), _bits(ref.weights))
    _assert_meshes_equal(mesh, ref)


# --- closed boundary curves ----------------------------------------------

def test_closed_boundary_curve_equals_open():
    closed = DomainSpec("boundary-curve", np.vstack([SQUARE.boundary, SQUARE.boundary[:1]]))
    assert np.array_equal(closed.boundary, SQUARE.boundary)
    # the zero-length closing edge gave NaN here
    assert distance_to_boundary(closed, [0.4, 0.0]) == pytest.approx(0.5)
    pts = np.random.default_rng(5).uniform(-1.2, 1.2, size=(200, 2))
    for p in pts:
        assert distance_to_boundary(closed, p) == distance_to_boundary(SQUARE, p)
    centers = [[-0.4, 0.0], [0.4, 0.0]]
    assert annulus_radius(closed, centers) == annulus_radius(SQUARE, centers)
    meshes = []
    for domain in (SQUARE, closed):
        meshes.append(pierced_mesh(domain, centers, [1e-3, 1e-3], MeshPolicy(h=0.04)))
    _assert_meshes_equal(meshes[1], meshes[0])


# --- curves that meet themselves -------------------------------------------

# two loops that touch at the vertex (2, 0)
FIGURE_EIGHT = [[0, 0], [1, 1], [2, 0], [3, 1], [3, -1], [2, 0], [1, -1]]


@pytest.mark.parametrize("block", [geometry._NEAREST_BLOCK, 7], ids=["one-block", "row-blocks"])
def test_curve_that_meets_itself_is_rejected(block, monkeypatch):
    monkeypatch.setattr(geometry, "_NEAREST_BLOCK", block)
    with pytest.raises(ValueError, match=r"not simple: edge \(1.0, 1.0\)-\(2.0, 0.0\) "
                                         r"meets edge \(3.0, -1.0\)-\(2.0, 0.0\)"):
        DomainSpec("boundary-curve", FIGURE_EIGHT)
    for curve in (L_SHAPE.boundary, _star40()):
        assert np.array_equal(DomainSpec("boundary-curve", curve).boundary, curve)


def _pentagram(n):
    """The star polygon {n/2}: every edge crosses four others."""
    t = 2 * math.pi * 2 * np.arange(n) / n
    return np.column_stack([np.cos(t), np.sin(t)])


@pytest.mark.parametrize("block", [geometry._NEAREST_BLOCK, 7], ids=["one-block", "row-blocks"])
def test_first_meeting_pair_equals_all_pairs(block, monkeypatch):
    # the run search offers the pairs in another order than i then j, and
    # from either end; the message still names the all-pairs first pair
    monkeypatch.setattr(geometry, "_NEAREST_BLOCK", block)
    rng = np.random.default_rng(13)
    curves = [np.array(FIGURE_EIGHT, dtype=float), _pentagram(5), _pentagram(11)]
    curves += [rng.uniform(-1, 1, size=(n, 2)) for n in (8, 30, 120)]
    # a zigzag that comes back across itself: crossings whose first edge
    # has the higher lowest y
    zig = np.column_stack([np.arange(40) % 2, np.arange(40) * 0.1])
    curves.append(np.vstack([zig, zig[::-1] + [0.5, 0.05]]))
    # and each transposed: past one block (at 7 pairs) the sweep may take x
    curves += [poly[:, ::-1] for poly in curves]
    for poly in curves:
        i, j = first_meeting_pair_all_pairs(poly)
        a, b = poly, np.roll(poly, -1, axis=0)
        with pytest.raises(ValueError) as exc:
            geometry._check_simple(poly)
        assert str(exc.value) == (
            f"boundary curve is not simple: edge {tuple(a[i].tolist())}-{tuple(b[i].tolist())} "
            f"meets edge {tuple(a[j].tolist())}-{tuple(b[j].tolist())}")
    for poly in (_d_shape(60), _sawtooth(20)):
        geometry._check_simple(poly)
        geometry._check_simple(poly[:, ::-1])


# --- conformity check ----------------------------------------------------

def _assert_rejects_broken(mesh, k):
    """Removing or duplicating triangle k must fail the conformity check."""
    t = mesh.triangles
    removed = dataclasses.replace(mesh, triangles=np.delete(t, k, axis=0),
                                  tri_patch=np.delete(mesh.tri_patch, k))
    with pytest.raises(StitchFailure, match="non-conforming stitch"):
        geometry._check_conformity(removed)
    doubled = dataclasses.replace(mesh, triangles=np.vstack([t, t[k:k + 1]]),
                                  tri_patch=np.append(mesh.tri_patch, mesh.tri_patch[k]))
    with pytest.raises(StitchFailure, match="shared by more than two triangles"):
        geometry._check_conformity(doubled)


@pytest.mark.parametrize("where", ["background", "patch"])
def test_conformity_rejects_broken_meshes(single_mesh, where):
    geometry._check_conformity(single_mesh)
    k = int(np.flatnonzero(single_mesh.tri_patch < 0 if where == "background"
                           else single_mesh.tri_patch >= 0)[0])
    _assert_rejects_broken(single_mesh, k)


def test_hole_rings_lie_on_their_circles(single_mesh):
    """The area check takes each hole polygon from ring 0's offsets, and the
    patch triangles' areas from the same offsets, so a wrong offset would
    cancel out of it; here ring 0 is held to radii[0] times (cos, sin)."""
    for p in single_mesh.patches:
        ring = p.node_grid[0]
        th = 2 * np.pi * np.arange(p.n_theta) / p.n_theta
        assert np.array_equal(single_mesh.node_dx[ring], p.radii[0] * np.cos(th))
        assert np.array_equal(single_mesh.node_dy[ring], p.radii[0] * np.sin(th))
        assert np.allclose(single_mesh.nodes[ring] - p.center,
                           p.radii[0] * np.column_stack([np.cos(th), np.sin(th)]),
                           rtol=0, atol=1e-15)


def _strip_mesh(n):
    """Two rows of n nodes, every node on the boundary polygon (bottom row
    left to right, then top row right to left), with int32 triangles as
    Delaunay returns them."""
    k = np.arange(n - 1)
    bottom, top = k, 2 * n - 1 - k          # column k's nodes; column k+1's are +1 / -1
    tris = np.vstack([np.column_stack([bottom, bottom + 1, top - 1]),
                      np.column_stack([bottom, top - 1, top])]).astype(np.int32)
    x = np.arange(n) / (n - 1)
    nodes = np.vstack([np.column_stack([x, np.zeros(n)]),
                       np.column_stack([x[::-1], np.full(n, 1.0 / n)])])
    mesh = geometry.Mesh(nodes=nodes, triangles=tris,
                         node_marker=np.full(2 * n, geometry.OUTER),
                         node_patch=np.full(2 * n, -1), node_dx=np.zeros(2 * n),
                         node_dy=np.zeros(2 * n), tri_patch=np.full(tris.shape[0], -1),
                         weights=np.zeros(2 * n))
    geometry._orient_and_weigh(mesh)
    return mesh


def test_conformity_keys_do_not_wrap_on_int32_triangles():
    # 50,000 nodes: an int32 key a * n_nodes + b would wrap past a ~ 43,000,
    # and here the open (boundary) edges run up to the last node
    mesh = _strip_mesh(25_000)
    assert mesh.triangles.dtype == np.int32 and mesh.n_nodes ** 2 > np.iinfo(np.int32).max
    geometry._check_conformity(mesh)
    _assert_rejects_broken(mesh, mesh.n_triangles // 2)  # nodes 0, 2n - 2, 2n - 1


# --- regular polygons -------------------------------------------------------

def _ngon(n):
    """The regular n-gon inscribed in the unit circle."""
    th = 2 * math.pi * np.arange(n) / n
    return DomainSpec("boundary-curve", np.column_stack([np.cos(th), np.sin(th)]))


@pytest.mark.parametrize("h", [0.1, 0.05, 0.02, 0.01])
@pytest.mark.parametrize("n", [8, 12, 64, 200])
def test_regular_polygons_mesh(n, h):
    # three resampled nodes of one slanted side are collinear only up to
    # rounding; the sliver Qhull makes of them must not cover two boundary
    # edges a second time
    assert build_domain_mesh(_ngon(n), h).min_quality > 0


# --- curves too thin for the spacing ------------------------------------------

SLIVER = [[0, 0], [1, 0], [2, 1e-12]]


@pytest.mark.parametrize("block", [geometry._NEAREST_BLOCK, 7], ids=["one-block", "row-blocks"])
@pytest.mark.parametrize("h", [0.1, 0.05, 0.02])
def test_too_thin_curve_is_named(h, block, monkeypatch):
    # the sliver's resampled nodes lie about 5e-13 h from the opposite side;
    # the message names the first of them, the edge and h
    monkeypatch.setattr(geometry, "_NEAREST_BLOCK", block)
    with pytest.raises(ConstraintViolation) as exc:
        build_domain_mesh(DomainSpec("boundary-curve", SLIVER), h)
    assert re.fullmatch(rf"boundary curve too thin for mesh spacing h = {h:g}: resampled node 1 "
                        rf"\({h:g}, 0.0\) lies \S+ from edge \(\S+, \S+\)-\(\S+, \S+\), "
                        r"under 1e-09 h", str(exc.value)), str(exc.value)


@pytest.mark.parametrize("block", [geometry._NEAREST_BLOCK, 7], ids=["one-block", "row-blocks"])
def test_first_thin_node_equals_all_pairs(block, monkeypatch):
    # many nodes lie within the gap, at several edges each: the message
    # names the first node, its first edge and its gap, as all pairs do
    monkeypatch.setattr(geometry, "_NEAREST_BLOCK", block)
    cases = [(domain_boundary_polygon(DomainSpec("boundary-curve", SLIVER), 0.05), 0.05),
             (geometry._resample_closed_curve(np.array([[0, 0], [1, 0], [1, 1e-12],
                                                        [0, 1e-12]]), 0.1), 0.1),
             # gaps of 0.05 to 0.3: most nodes have several edges within them
             (_star40(), 0.2 / geometry.MIN_GAP), (_d_shape(60), 0.3 / geometry.MIN_GAP),
             (_sawtooth(20), 0.05 / geometry.MIN_GAP)]
    for bpoly, h in cases:
        i, e, gap = first_thin_node_all_pairs(bpoly, h)
        n = len(bpoly)
        with pytest.raises(ConstraintViolation) as exc:
            geometry._check_width(bpoly, h)
        assert str(exc.value) == (
            f"boundary curve too thin for mesh spacing h = {h:g}: resampled node {i} "
            f"{tuple(bpoly[i].tolist())} lies {gap:.3g} from edge "
            f"{tuple(bpoly[e].tolist())}-{tuple(bpoly[(e + 1) % n].tolist())}, under 1e-09 h")
    for poly in (_d_shape(60), _sawtooth(20)):
        geometry._check_width(poly, 1e-3)


def _wedge(degrees):
    t = math.radians(degrees)
    return [[0, 0], [1, 0], [math.cos(t), math.sin(t)]]


@pytest.mark.parametrize("h", [0.1, 0.08, 0.05, 0.02])
@pytest.mark.parametrize("curve", [
    SQUARE.boundary, L_SHAPE.boundary, [[0, 0], [1, 0], [1, 0.06], [0, 0.06]],
    [[0, 0], [1, 0], [1, 1e-6], [0, 1e-6]], [[0, 0], [1, 0], [0.3, 0.8]],
    [[0, 0], [1, 0], [0, 0.45]], _wedge(15), _wedge(3), _wedge(1e-6),
    [[0, 0], [0.05, 0], [0.05, 0.05], [0, 0.05]],
], ids=["square", "L-shape", "thin-rectangle", "1e-6-rectangle", "acute-triangle",
        "24-degree-triangle", "15-degree-wedge", "3-degree-wedge", "1e-6-degree-wedge",
        "16-node-square"])
def test_thin_and_sharp_curves_mesh(curve, h):
    # nodes of one side of a sharp corner lie a fraction of h from the
    # other side's edges (the 1e-6 degree wedge's 1.8e-8 h, the 16 nodes
    # of the small square 0.125 h apart at h = 0.1), yet these mesh
    assert build_domain_mesh(DomainSpec("boundary-curve", curve), h).min_quality > 0


def test_polygons_approach_the_disk():
    # the whole numeric Green path (domain mesh, Dirichlet solves,
    # interpolation, polygon tests) against the disk's image formula
    def peaks(domain):
        cfg = BlowupConfig(domain=domain, centers=[[0.3, 0.2], [-0.4, 0.1]], alphas=[3.0, 3.5],
                           m1=1, tau=2.0, V1=lambda x, y: 1 + 0.5 * np.asarray(y, dtype=float),
                           V2=lambda x, y: np.exp(0.5 * np.asarray(x, dtype=float)))
        return np.array(construct_solution(Run(cfg, MeshPolicy(h=0.05)), 1e-3).report.peaks)

    disk = peaks(DomainSpec())
    rel = [np.abs(peaks(_ngon(n)) - disk) / np.abs(disk) for n in (64, 256)]
    assert np.all(rel[0] < 2e-4) and np.all(rel[1] < 2e-5)
    assert np.all(rel[1] < rel[0] / 4)


@pytest.mark.parametrize("domain", [DomainSpec(), SQUARE], ids=["disk", "square"])
@pytest.mark.parametrize("other", [(0.2, 0.0), (0.25, 0.0), (0.3, 0.0)])
def test_transition_shell_stays_out_of_the_other_rim(domain, other):
    # hole 2's transition circles cross hole 1's rim at h = 0.1; a transition
    # node inside that rim would keep no triangle, and K_II would be singular
    mesh = pierced_mesh(domain, np.array([[0.0, 0.0], other]), np.array([3e-4, 2e-4]),
                        MeshPolicy(h=0.1))
    assert np.array_equal(np.unique(mesh.triangles), np.arange(mesh.n_nodes))

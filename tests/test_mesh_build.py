"""Exactness of the mesh construction's fast paths: the pruned polygon tests
against the all-pairs broadcasts they replace, the bincount sums against the
np.add.at accumulation, the memoized background against a cold build, a
closed boundary curve against the open one, and the conformity check on
broken meshes."""

import dataclasses
import math

import numpy as np
import pytest

import sinhpierce.geometry as geometry
from sinhpierce.coeffs import BlowupConfig, choose_scales, constant_potential
from sinhpierce.errors import StitchFailure
from sinhpierce.geometry import (
    DomainSpec,
    MeshPolicy,
    PierceSpec,
    build_domain_mesh,
    build_mesh,
    build_pierced_domain,
    distance_to_boundary,
    domain_boundary_polygon,
)
from sinhpierce.greens import GreenProvider

SQUARE = DomainSpec("boundary-curve", [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]])


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


def dist_to_polygon_all_pairs(points, poly):
    """Reference: the distance to every edge, then the minimum."""
    a = poly
    b = np.roll(poly, -1, axis=0)
    ab = b - a
    denom = np.einsum("ij,ij->i", ab, ab)
    p = points[:, None, :] - a[None, :, :]
    t = np.clip(np.einsum("ikj,kj->ik", p, ab) / denom[None, :], 0.0, 1.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    d = np.hypot(points[:, None, 0] - proj[:, :, 0], points[:, None, 1] - proj[:, :, 1])
    return d.min(axis=1)


def _star40():
    t = 2 * math.pi * np.arange(40) / 40
    rad = 0.6 + 0.3 * np.cos(5 * t)
    return np.column_stack([rad * np.cos(t), rad * np.sin(t)])


@pytest.mark.parametrize("poly", [domain_boundary_polygon(SQUARE, 0.02),
                                  domain_boundary_polygon(SQUARE, 0.005),
                                  _star40()],
                         ids=["square-h0.02", "square-h0.005", "nonconvex-40gon"])
def test_polygon_tests_equal_all_pairs(poly):
    rng = np.random.default_rng(3)
    lo, hi = poly.min(axis=0) - 0.2, poly.max(axis=0) + 0.2
    edge_mid = 0.5 * (poly + np.roll(poly, -1, axis=0))
    point_sets = {
        "hex": geometry._hex_lattice((lo[0], hi[0], lo[1], hi[1]), 0.04),
        "random": rng.uniform(lo, hi, size=(3000, 2)),
        "vertices": poly.copy(),
        "edge-midpoints": edge_mid,
        "outside": rng.uniform(-20.0, 20.0, size=(300, 2)),
        # on the horizontal line through a vertex: the half-open crossing rule
        "vertex-y": np.column_stack([rng.uniform(lo[0], hi[0], len(poly)), poly[:, 1]]),
    }
    for name, pts in point_sets.items():
        inside = geometry._point_in_polygon(pts, poly)
        assert np.array_equal(inside, point_in_polygon_all_pairs(pts, poly)), name
        d = geometry._dist_to_polygon(pts, poly)
        ref = dist_to_polygon_all_pairs(pts, poly)
        assert np.array_equal(d.view(np.int64), ref.view(np.int64)), name
    # the sets reach both sides of the boundary
    assert 0 < geometry._point_in_polygon(point_sets["random"], poly).sum() < 3000


# --- the memoized background ---------------------------------------------

def _pierced_domains(domain, centers):
    """The pierced domains of a three-rho sweep (rho 1e-2, 1e-3, 1e-4)."""
    m = len(centers)
    cfg = BlowupConfig(domain=domain, centers=centers, alphas=[3.0] * m, m1=1, tau=1.0,
                       V1=constant_potential(1.0), V2=constant_potential(1.0))
    gp = GreenProvider(domain)
    return [build_pierced_domain(domain, PierceSpec(cfg.centers, choose_scales(cfg, rho, gp).eps))
            for rho in (1e-2, 1e-3, 1e-4)]


def _assert_same_mesh(a, b):
    for name in ("nodes", "triangles", "node_marker", "node_patch", "node_dx", "node_dy",
                 "tri_patch", "weights", "boundary_polygon"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert np.float64(a.min_quality).tobytes() == np.float64(b.min_quality).tobytes()
    assert a.h == b.h and a.pd is b.pd
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
    pds = _pierced_domains(domain, centers)
    real = geometry._background
    builds = []

    def counting(*args):
        builds.append(args)
        return real(*args)

    monkeypatch.setattr(geometry, "_background", counting)
    cold = []
    for pd in pds:
        monkeypatch.setattr(geometry, "_last_background", None)
        cold.append(build_mesh(pd, policy))
    assert len(builds) == 3

    # one background for the whole sweep; writing to a returned mesh leaves it alone
    monkeypatch.setattr(geometry, "_last_background", None)
    builds.clear()
    for pd, ref in zip(pds, cold):
        mesh = build_mesh(pd, policy)
        _assert_same_mesh(mesh, ref)
        assert not mesh.boundary_polygon.flags.writeable
        mesh.nodes[:] = 0.0
        mesh.triangles[:] = 0
        mesh.node_dx[:] = 0.0
    assert len(builds) == 1

    # a mesh of another domain, centers, eta or policy in between: both it and
    # the next sweep mesh equal their cold builds
    moved = dataclasses.replace(pds[0], pierce=PierceSpec(pds[0].pierce.centers + [0.01, 0.0],
                                                          pds[0].pierce.radii))
    shrunk = dataclasses.replace(pds[1], eta=0.9 * pds[1].eta)
    other_pd = build_pierced_domain(DomainSpec(), PierceSpec([[0.3, 0.1]], [1e-3]))
    between = [lambda: build_mesh(other_pd, policy),
               lambda: build_mesh(moved, policy),
               lambda: build_mesh(shrunk, policy),
               lambda: build_mesh(pds[2], MeshPolicy(h=0.03)),
               lambda: build_domain_mesh(domain, 0.02)]
    for pd, ref, other in zip(pds + pds[:2], cold + cold[:2], between):
        monkeypatch.setattr(geometry, "_last_background", None)
        other_cold = other()
        _assert_same_mesh(build_mesh(pd, policy), ref)
        _assert_same_mesh(other(), other_cold)


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


_DISK_PD = build_pierced_domain(DomainSpec(), PierceSpec([[0.0, 0.0]], [1e-3]))
_SQUARE_PD = build_pierced_domain(SQUARE, PierceSpec([[-0.4, 0.0], [0.4, 0.0]], [1e-3, 1e-3]))


@pytest.mark.parametrize("build", [lambda: build_mesh(_DISK_PD, MeshPolicy(h=0.02)),
                                   lambda: build_mesh(_SQUARE_PD, MeshPolicy(h=0.03)),
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
    monkeypatch.setattr(geometry, "_last_background", None)
    mesh = build()
    assert len(passes) == MeshPolicy().smooth_iters
    monkeypatch.setattr(geometry, "_neighbour_sums", neighbour_sums_add_at)
    monkeypatch.setattr(geometry, "_orient_and_weigh", orient_and_weigh_add_at)
    monkeypatch.setattr(geometry, "_last_background", None)
    ref = build()
    # the smoothed stitch nodes come first, the weights cover every node
    assert np.array_equal(_bits(mesh.nodes), _bits(ref.nodes))
    assert np.array_equal(_bits(mesh.weights), _bits(ref.weights))
    _assert_same_mesh(mesh, ref)


# --- closed boundary curves ----------------------------------------------

def test_closed_boundary_curve_equals_open(monkeypatch):
    closed = DomainSpec("boundary-curve", np.vstack([SQUARE.boundary, SQUARE.boundary[:1]]))
    assert np.array_equal(closed.boundary, SQUARE.boundary)
    # the zero-length closing edge gave NaN here
    assert distance_to_boundary(closed, [0.4, 0.0]) == pytest.approx(0.5)
    pts = np.random.default_rng(5).uniform(-1.2, 1.2, size=(200, 2))
    for p in pts:
        assert distance_to_boundary(closed, p) == distance_to_boundary(SQUARE, p)
    holes = PierceSpec([[-0.4, 0.0], [0.4, 0.0]], [1e-3, 1e-3])
    pd_open = build_pierced_domain(SQUARE, holes)
    pd_closed = build_pierced_domain(closed, holes)
    assert pd_closed.eta == pd_open.eta
    meshes = []
    for pd in (pd_open, pd_closed):
        monkeypatch.setattr(geometry, "_last_background", None)
        meshes.append(build_mesh(pd, MeshPolicy(h=0.04)))
    _assert_same_mesh(dataclasses.replace(meshes[1], pd=pd_open), meshes[0])


# --- conformity check ----------------------------------------------------

def _assert_rejects_broken(mesh, k):
    """Removing or duplicating triangle k must fail the conformity check."""
    t = mesh.triangles
    removed = dataclasses.replace(mesh, triangles=np.delete(t, k, axis=0),
                                  tri_patch=np.delete(mesh.tri_patch, k))
    with pytest.raises(StitchFailure, match="non-conforming stitch"):
        geometry._check_conformity(removed, mesh.boundary_polygon)
    doubled = dataclasses.replace(mesh, triangles=np.vstack([t, t[k:k + 1]]),
                                  tri_patch=np.append(mesh.tri_patch, mesh.tri_patch[k]))
    with pytest.raises(StitchFailure, match="shared by more than two triangles"):
        geometry._check_conformity(doubled, mesh.boundary_polygon)


@pytest.mark.parametrize("where", ["background", "patch"])
def test_conformity_rejects_broken_meshes(single_mesh, where):
    geometry._check_conformity(single_mesh, single_mesh.boundary_polygon)
    k = int(np.flatnonzero(single_mesh.tri_patch < 0 if where == "background"
                           else single_mesh.tri_patch >= 0)[0])
    _assert_rejects_broken(single_mesh, k)


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
                         weights=np.zeros(2 * n), boundary_polygon=nodes)
    geometry._orient_and_weigh(mesh)
    return mesh


def test_conformity_keys_do_not_wrap_on_int32_triangles():
    # 50,000 nodes: an int32 key a * n_nodes + b would wrap past a ~ 43,000,
    # and here the open (boundary) edges run up to the last node
    mesh = _strip_mesh(25_000)
    assert mesh.triangles.dtype == np.int32 and mesh.n_nodes ** 2 > np.iinfo(np.int32).max
    geometry._check_conformity(mesh, mesh.boundary_polygon)
    _assert_rejects_broken(mesh, mesh.n_triangles // 2)  # nodes 0, 2n - 2, 2n - 1

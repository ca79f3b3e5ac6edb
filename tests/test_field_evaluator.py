"""The vectorized FieldEvaluator against the point-by-point evaluator it replaced.

ScalarFieldEvaluator below is that evaluator, kept as the reference: a dict
of bucket lists, one barycentric test per candidate triangle and per point,
and math.hypot / math.atan2 for patch membership, ring and sector. The
vectorized one must pick the same triangle or quad for every point and give
the same bits.
"""

import math

import numpy as np
import pytest

from sinhpierce.geometry import DomainSpec, FieldEvaluator, MeshPolicy
from sinhpierce.greens import NumericGreen

from conftest import pierced_mesh

SQUARE = DomainSpec(kind="boundary-curve",
                    boundary=[[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]])


class ScalarFieldEvaluator:
    def __init__(self, mesh):
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
        buckets = {}
        for k in range(self._back_tris.shape[0]):
            for ii in range(imin[k], imax[k] + 1):
                for jj in range(jmin[k], jmax[k] + 1):
                    buckets.setdefault((ii, jj), []).append(k)
        self._buckets = buckets

    def _locate_background(self, p):
        ii = int(math.floor((p[0] - self._lo[0]) / self._cell))
        jj = int(math.floor((p[1] - self._lo[1]) / self._cell))
        cand = self._buckets.get((ii, jj), ())
        verts = self.mesh.nodes
        for k in cand:
            a, b, c = verts[self._back_tris[k]]
            l1, l2, l3 = _barycentric(p, a, b, c)
            if l1 >= -1e-10 and l2 >= -1e-10 and l3 >= -1e-10:
                return self._back_tris[k], (l1, l2, l3)
        return None, None

    def patch_value(self, patch_index, dx, dy, values):
        p = self.mesh.patches[patch_index]
        r = math.hypot(dx, dy)
        r = min(max(r, p.radii[0]), p.radii[-1])
        k = int(np.searchsorted(p.radii, r, side="right")) - 1
        k = min(max(k, 0), len(p.radii) - 2)
        th = math.atan2(dy, dx) % (2 * math.pi)
        dth = 2 * math.pi / p.n_theta
        j = int(th // dth) % p.n_theta
        j2 = (j + 1) % p.n_theta
        g = p.node_grid
        quad = (g[k, j], g[k + 1, j], g[k + 1, j2], g[k, j2])
        pt = np.array([dx, dy])
        md = self.mesh
        corners = [np.array([md.node_dx[q], md.node_dy[q]]) for q in quad]
        for tri in ((0, 1, 2), (0, 2, 3)):
            a, b, c = (corners[t] for t in tri)
            l1, l2, l3 = _barycentric(pt, a, b, c)
            if l1 >= -1e-9 and l2 >= -1e-9 and l3 >= -1e-9:
                idx = [quad[t] for t in tri]
                return l1 * values[idx[0]] + l2 * values[idx[1]] + l3 * values[idx[2]]
        d = [np.hypot(*(pt - cc)) for cc in corners]
        return values[quad[int(np.argmin(d))]]

    def __call__(self, values, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty(pts.shape[0])
        mesh = self.mesh
        for n, p in enumerate(pts):
            hit = False
            for i, patch in enumerate(mesh.patches):
                dx, dy = p[0] - patch.center[0], p[1] - patch.center[1]
                if math.hypot(dx, dy) <= patch.radii[-1]:
                    out[n] = self.patch_value(i, dx, dy, values)
                    hit = True
                    break
            if hit:
                continue
            tri, lam = self._locate_background(p)
            if tri is None:
                d = np.hypot(mesh.nodes[:, 0] - p[0], mesh.nodes[:, 1] - p[1])
                out[n] = values[int(np.argmin(d))]
            else:
                out[n] = lam[0] * values[tri[0]] + lam[1] * values[tri[1]] + lam[2] * values[tri[2]]
        return out if np.asarray(points).ndim > 1 else float(out[0])


def _barycentric(p, a, b, c):
    v0 = b - a
    v1 = c - a
    v2 = p - a
    den = v0[0] * v1[1] - v1[0] * v0[1]
    if den == 0:
        return -1.0, -1.0, -1.0
    l2 = (v2[0] * v1[1] - v1[0] * v2[1]) / den
    l3 = (v0[0] * v2[1] - v2[0] * v0[1]) / den
    return 1.0 - l2 - l3, l2, l3


def assert_same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
        f"{np.count_nonzero(got.view(np.int64) != want.view(np.int64))} of {got.size} differ"


def edge_midpoints(mesh):
    t = mesh.triangles
    edges = np.unique(np.sort(np.vstack([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1),
                      axis=0)
    return 0.5 * (mesh.nodes[edges[:, 0]] + mesh.nodes[edges[:, 1]])


@pytest.fixture(scope="module")
def square_green():
    return NumericGreen(SQUARE)


@pytest.fixture(scope="module")
def pierced_pair():
    # two meshes of one pierced square at two hole sizes: same centers, eta,
    # spokes and rim, as between consecutive rho of a sweep
    policy = MeshPolicy(h=0.045)
    centers = [[-0.4, 0.0], [0.4, 0.1]]
    meshes = []
    for radii in ([2e-3, 1e-3], [2e-4, 5e-5]):
        meshes.append(pierced_mesh(SQUARE, centers, radii, policy))
    return meshes


def test_square_green_mesh_matches_scalar(square_green):
    mesh = square_green.mesh
    rng = np.random.default_rng(3)
    vals = rng.normal(size=mesh.n_nodes)
    pts = np.vstack([rng.uniform(-0.9, 0.9, (4000, 2)), mesh.nodes, edge_midpoints(mesh)])
    assert_same_bits(FieldEvaluator(mesh)(vals, pts), ScalarFieldEvaluator(mesh)(vals, pts))


def test_warm_start_shape_matches_scalar(pierced_pair):
    old, new = pierced_pair
    rng = np.random.default_rng(4)
    vals = rng.normal(size=old.n_nodes)
    ev, ref = FieldEvaluator(old), ScalarFieldEvaluator(old)
    # points a rounding error off each patch circle decide membership by an ulp
    t = np.random.default_rng(8).uniform(0, 2 * math.pi, 3000)
    rims = [p.center + p.radii[-1] * np.column_stack([np.cos(t), np.sin(t)])
            for p in old.patches]
    pts = np.vstack([new.nodes, old.nodes, edge_midpoints(old)] + rims)
    assert_same_bits(ev(vals, pts), ref(vals, pts))
    # the one-point patch form, on the new patch nodes (exactly on old spokes)
    for i, p in enumerate(new.patches):
        for q in p.node_grid.ravel()[::5]:
            dx, dy = new.node_dx[q], new.node_dy[q]
            got = ev._patch_values(i, np.array([dx]), np.array([dy]), vals)[0]
            assert_same_bits(got, ref.patch_value(i, dx, dy, vals))


def test_outside_points_take_nearest_node(square_green, pierced_pair):
    for mesh in (square_green.mesh, pierced_pair[0]):
        vals = np.random.default_rng(5).normal(size=mesh.n_nodes)
        pts = np.array([[1.2, 0.3], [-0.95, 0.95], [5.0, 5.0], [-3.0, 0.0],
                        [0.9 + 1e-9, 0.1], [0.2, -0.9 - 1e-7]])
        got = FieldEvaluator(mesh)(vals, pts)
        assert_same_bits(got, ScalarFieldEvaluator(mesh)(vals, pts))
        nearest = [np.argmin(np.hypot(*(mesh.nodes - p).T)) for p in pts[:4]]
        assert_same_bits(got[:4], vals[nearest])


def test_single_point_returns_an_array(pierced_pair):
    mesh = pierced_pair[0]
    vals = np.random.default_rng(6).normal(size=mesh.n_nodes)
    ev, ref = FieldEvaluator(mesh), ScalarFieldEvaluator(mesh)
    for p in ([0.1, 0.2], [-0.4 + 1e-3, 1e-3]):
        for pts in (np.array([p]), np.array(p)):
            got = ev(vals, pts)
            assert type(got) is np.ndarray and got.shape == (1,)
            assert_same_bits(got[0], ref(vals, np.array(p)))


def test_robin_H_many_matches_pointwise(square_green):
    y = np.array([0.3, -0.2])
    pts = np.random.default_rng(7).uniform(-0.85, 0.85, (300, 2))
    many = square_green.robin_H_many(pts, y)
    assert_same_bits(many, [square_green.robin_H_many(p[None, :], y)[0] for p in pts])

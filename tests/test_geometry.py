import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sinhpierce.geometry as geometry
from sinhpierce.errors import (
    DuplicateCenters,
    HoleTouchesBoundary,
    UnresolvableHole,
)
from sinhpierce.geometry import (
    DomainSpec,
    FieldEvaluator,
    MeshPolicy,
    annulus_radius,
    build_domain_mesh,
    check_radii,
)

from conftest import pierced_mesh


def test_single_center_hole_eta():
    assert annulus_radius(DomainSpec(), [[0.0, 0.0]]) == pytest.approx(0.45)


def test_two_hole_eta_uses_minimum_before_scaling():
    # min(|xi_1 - xi_2|, dist to boundary) = min(0.8, 0.6) = 0.6
    assert annulus_radius(DomainSpec(), [[-0.4, 0.0], [0.4, 0.0]]) == pytest.approx(0.45 * 0.6)


def test_hole_touching_boundary_rejected():
    eta = annulus_radius(DomainSpec(), [[0.0, 0.0]])
    with pytest.raises(HoleTouchesBoundary):
        check_radii([1.5], eta)
    # a radius at eta is rejected too, one just below it is not
    with pytest.raises(HoleTouchesBoundary):
        check_radii([eta], eta)
    check_radii([np.nextafter(eta, 0.0)], eta)
    # a center on or outside the boundary fails the layout itself
    for center in ([1.0, 0.0], [1.5, 0.0]):
        with pytest.raises(HoleTouchesBoundary, match=r"center \(1\.\d, 0\.0\)"):
            annulus_radius(DomainSpec(), [center])
    # and so does a center that is not a finite point, on a boundary curve too
    square = DomainSpec(kind="boundary-curve", boundary=[[-1, -1], [1, -1], [1, 1], [-1, 1]])
    for domain in (DomainSpec(), square):
        for center in ([np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(HoleTouchesBoundary, match=r"hole 2: center \((nan|inf), 0\.0\)"):
                annulus_radius(domain, [[0.2, 0.0], center])


def test_overlapping_and_duplicate_holes_rejected():
    # holes that would meet have radii above eta <= 0.45 |xi_1 - xi_2|
    centers = [[0.0, 0.0], [0.05, 0.0]]
    with pytest.raises(HoleTouchesBoundary, match=r"^hole 1 radius 0\.04 is not below"):
        check_radii([0.04, 0.04], annulus_radius(DomainSpec(), centers))
    # the message shows plain floats, not numpy reprs
    with pytest.raises(DuplicateCenters, match=r"share center \(0\.1, 0\.0\)$"):
        annulus_radius(DomainSpec(), np.array([[0.1, 0.0], [0.1, 0.0]]))


def test_no_holes_rejected():
    with pytest.raises(ValueError):
        annulus_radius(DomainSpec(), np.zeros((0, 2)))


@given(x=st.floats(-0.5, 0.5), y=st.floats(-0.5, 0.5))
@settings(max_examples=25, deadline=None)
def test_eta_formula_single_hole(x, y):
    assert annulus_radius(DomainSpec(), [[x, y]]) == pytest.approx(0.45 * (1 - math.hypot(x, y)))


def _clearance_per_point(domain, p):
    """Reference: one center's clearance as the per-center loop measured it."""
    if domain.kind == "unit-disk":
        return 1.0 - float(np.hypot(p[0], p[1]))
    return float(geometry._signed_inside_distance(p[None, :], domain, domain.boundary)[0])


def test_batched_clearance_equals_per_point():
    t = 2 * math.pi * np.arange(40) / 40
    rad = 0.6 + 0.3 * np.cos(5 * t)
    domains = [DomainSpec(),
               DomainSpec("boundary-curve", [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]]),
               DomainSpec("boundary-curve", np.column_stack([rad * np.cos(t), rad * np.sin(t)]))]
    pts = np.random.default_rng(11).uniform(-1.1, 1.1, size=(500, 2))
    for domain in domains:
        batched = geometry._signed_inside_distance(pts, domain, domain.boundary)
        want = np.array([_clearance_per_point(domain, p) for p in pts])
        assert batched.tobytes() == want.tobytes(), domain.kind
        # eta from the batched clearances, bit for bit the per-center formula
        inside = pts[want > 0.05][:3]
        seps = [math.hypot(*(inside[i] - inside[j]))
                for i in range(len(inside)) for j in range(i + 1, len(inside))]
        expected = 0.45 * min([_clearance_per_point(domain, p) for p in inside] + seps)
        assert annulus_radius(domain, inside) == expected


# --- meshes ---------------------------------------------------------------

@pytest.mark.parametrize("curve, kept", [
    # a tiny square far from the origin, and a thin strip: near points, none repeated
    ([[1000, 1000], [1000.005, 1000], [1000.005, 1000.005], [1000, 1000.005]], [0, 1, 2, 3]),
    ([[100, 0], [100.0005, 0], [100.0005, 1], [100, 1]], [0, 1, 2, 3]),
    # a vertex 2e-6 from its predecessor on the unit square's top side
    ([[0, 0], [1, 0], [1, 1], [1 - 2e-6, 1], [0, 1]], [0, 1, 2, 3, 4]),
    # exact repeats: inside the curve, and the closing point
    ([[0, 0], [1, 0], [1, 0], [1, 1], [0, 1], [0, 0]], [0, 1, 3, 4]),
])
def test_only_exact_repeats_are_dropped(curve, kept):
    # a point goes only when it equals its predecessor, whatever the curve's scale
    b = DomainSpec("boundary-curve", curve).boundary
    assert b.tolist() == [curve[i] for i in kept]


def test_graded_patch_layer_count():
    mesh = pierced_mesh(DomainSpec(), [[0.0, 0.0]], [1e-3], MeshPolicy(h=0.02, q=1.3))
    expected = math.ceil(math.log(annulus_radius(DomainSpec(), [[0.0, 0.0]]) / 1e-3)
                         / math.log(1.3))
    assert expected == 24
    assert len(mesh.patches[0].radii) - 1 == expected


def test_unresolvable_hole():
    # a radius below the resolvable scale, one that underflowed to zero, a
    # negative one and nan are named before any mesh is built
    for eps in (1e-15, 0.0, -1e-3, np.nan):
        with pytest.raises(UnresolvableHole, match=r"^hole 1 radius .* below the resolvable scale"):
            check_radii([eps], 0.45)


def test_radius_rule_names_the_hole():
    # MIN_HOLE_RADIUS <= eps < eta per hole; the floor is tested over all
    # holes before the annulus bound
    eta = 0.1
    check_radii([geometry.MIN_HOLE_RADIUS, np.nextafter(eta, 0.0)], eta)
    with pytest.raises(UnresolvableHole, match=r"^hole 2 radius nan below"):
        check_radii([1.0, np.nan], eta)
    for eps in (eta, np.inf):
        with pytest.raises(HoleTouchesBoundary, match=r"^hole 2 radius (0\.1|inf) is not below "
                                                       r"the annulus radius eta=0\.1$"):
            check_radii([1e-3, eps, 1e-3], eta)


def test_mesh_invariants_single_hole(single_mesh):
    mesh = single_mesh
    # hole boundary nodes sit on the circle to near machine precision
    hole = mesh.node_marker == 1
    assert hole.sum() >= 32
    r = mesh.center_distance(0)[hole]
    assert np.abs(r / 1e-3 - 1).max() <= 1e-12
    # cell quality floor
    assert mesh.min_quality >= 0.2


def test_disk_area_reproduced_at_default_spacing():
    mesh = pierced_mesh(DomainSpec(), [[0.0, 0.0]], [1e-3], MeshPolicy(h=0.02))
    area = math.pi - math.pi * 1e-6
    assert abs(mesh.weights.sum() - area) / area <= 1e-4


def test_hole_node_count_independent_of_radius():
    for eps in (1e-3, 1e-9):
        mesh = pierced_mesh(DomainSpec(), [[0.3, 0.1]], [eps], MeshPolicy(h=0.045))
        assert (mesh.node_marker == 1).sum() == mesh.patches[0].n_theta
        assert mesh.patches[0].n_theta >= 32


def test_tiny_offcenter_hole_geometry():
    eps = 2e-12
    mesh = pierced_mesh(DomainSpec(), [[0.4, 0.0]], [eps], MeshPolicy(h=0.045))
    hole = mesh.node_marker == 1
    r = mesh.center_distance(0)[hole]
    assert np.abs(r / eps - 1).max() <= 1e-12
    assert mesh.min_quality >= 0.2


def test_plain_domain_mesh_area_and_quality(disk):
    mesh = build_domain_mesh(disk, 0.02)
    assert abs(mesh.weights.sum() - math.pi) / math.pi <= 1e-4
    assert mesh.min_quality >= 0.2
    assert not mesh.patches


def test_boundary_curve_domain_mesh():
    t = np.linspace(0, 2 * math.pi, 200, endpoint=False)
    # smooth egg-shaped curve
    pts = np.column_stack([1.1 * np.cos(t), 0.8 * np.sin(t) + 0.1 * np.sin(2 * t)])
    dom = DomainSpec(kind="boundary-curve", boundary=pts)
    mesh = pierced_mesh(dom, [[0.2, 0.0]], [1e-4], MeshPolicy(h=0.06))
    assert mesh.min_quality >= 0.15
    assert (mesh.node_marker == 1).sum() >= 32


def test_mesh_export_roundtrip(tmp_path, single_mesh):
    path = tmp_path / "mesh.txt"
    single_mesh.export(path)
    nodes = cells = 0
    for line in open(path):
        kind = line.split()[0]
        if kind == "node":
            nodes += 1
        elif kind == "cell":
            cells += 1
    assert nodes == single_mesh.n_nodes
    assert cells == single_mesh.n_triangles


def export_per_node(mesh, path):
    """Reference: the per-node, per-cell writer that Mesh.export replaces."""
    with open(path, "w") as f:
        for i in range(mesh.n_nodes):
            f.write(f"node {i} {mesh.nodes[i, 0]:.17g} {mesh.nodes[i, 1]:.17g} "
                    f"{int(mesh.node_marker[i])}\n")
        for k in range(mesh.n_triangles):
            a, b, c = mesh.triangles[k]
            f.write(f"cell {k} {a} {b} {c}\n")


def test_mesh_export_bytes_match_per_node_writer(tmp_path, single_mesh):
    domain_mesh = build_domain_mesh(DomainSpec(), 0.05)
    odd = np.concatenate([[0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-320,
                           1.7976931348623157e308, 0.1, 1 / 3], np.logspace(-12, 2, 57)])
    n = single_mesh.n_nodes
    odd_mesh = dataclasses.replace(single_mesh, nodes=np.column_stack(
        [np.resize(odd, n), np.resize(-odd[::-1], n)]))
    assert single_mesh.triangles.dtype == np.int64
    assert domain_mesh.triangles.dtype == np.int32
    for k, mesh in enumerate((single_mesh, domain_mesh, odd_mesh)):
        want, alone, shared = (tmp_path / f"{k}-{name}.txt" for name in ("ref", "alone", "shared"))
        export_per_node(mesh, want)
        mesh.export(alone)
        mesh.export(shared, mesh.coordinate_text())
        assert alone.read_bytes() == want.read_bytes(), k
        assert shared.read_bytes() == want.read_bytes(), k


def test_field_evaluator_linear_reproduction(single_mesh):
    # P1 interpolation reproduces affine functions exactly, in and out of patches
    mesh = single_mesh
    vals = 2.0 + 3.0 * mesh.nodes[:, 0] - 1.5 * mesh.nodes[:, 1]
    ev = FieldEvaluator(mesh)
    pts = np.array([[0.5, 0.1], [0.0, 0.002], [0.0, 0.3], [-0.7, -0.2]])
    got = ev(vals, pts)
    want = 2.0 + 3.0 * pts[:, 0] - 1.5 * pts[:, 1]
    assert np.abs(got - want).max() <= 1e-9


def test_patch_value_deep_in_hole_region(single_mesh):
    mesh = single_mesh
    r_all = mesh.center_distance(0)
    vals = np.log(np.maximum(r_all, 1e-300))
    ev = FieldEvaluator(mesh)
    # radial log profile is reproduced well inside the graded patch
    for rr in (2e-3, 1e-2, 0.1):
        got = ev(vals, mesh.patches[0].center + (rr, 0.0))[0]
        assert got == pytest.approx(math.log(rr), abs=2e-2)


def test_quality_floor_across_policies():
    # the cell-quality invariant holds across hole layouts and policies
    rng = np.random.default_rng(1)
    disk = DomainSpec()
    for _ in range(6):
        m = int(rng.integers(1, 4))
        while True:
            centers = rng.uniform(-0.55, 0.55, (m, 2))
            ok = all(np.hypot(*c) < 0.6 for c in centers)
            for i in range(m):
                for j in range(i + 1, m):
                    ok = ok and np.hypot(*(centers[i] - centers[j])) > 0.35
            if ok:
                break
        eps = 10.0 ** rng.uniform(-9, -3, m)
        h = float(rng.choice([0.03, 0.045, 0.06]))
        q = float(rng.choice([1.15, 1.3, 1.6, 2.0]))
        mesh = pierced_mesh(disk, centers, eps, MeshPolicy(h=h, q=q))
        assert mesh.min_quality >= 0.2, (m, h, q, mesh.min_quality)


def _nearest_nodes_per_point(mesh, points):
    """Reference: one full hypot and argmin pass per point."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return np.array([np.argmin(np.hypot(mesh.nodes[:, 0] - p[0], mesh.nodes[:, 1] - p[1]))
                     for p in pts], dtype=int)


@pytest.mark.parametrize("n", [1, 7 * 81, 1 << 16])
def test_nearest_nodes_match_the_per_point_pass(coarse_solution, n):
    # a dyadic grid: cell midpoints tie exactly between two or four nodes,
    # and some points sit on a node
    g = np.arange(-4, 5) * 0.125
    grid = types.SimpleNamespace(nodes=np.column_stack([np.repeat(g, 9), np.tile(g, 9)]),
                                 n_nodes=81)
    ties = np.array([[0.0625, 0.0625], [0.0, 0.0], [0.125, 0.0625], [-0.5, 0.5],
                     [0.0625, 0.0], [0.3, -0.0625], [2.0, 2.0], [-0.4375, -0.4375]])
    got = geometry._nearest_nodes(grid, ties)
    assert got.tolist() == _nearest_nodes_per_point(grid, ties).tolist()
    assert got[0] == 40 and got[1] == 40   # the first of four, and the node itself
    # n points on the half-step lattice: nodes, edge and cell midpoints, all ties
    lattice = np.random.default_rng(n).integers(-10, 11, (n, 2)) * 0.0625
    assert geometry._nearest_nodes(grid, lattice).tolist() \
        == _nearest_nodes_per_point(grid, lattice).tolist()
    mesh = coarse_solution.stage.mesh
    pts = np.vstack([np.random.default_rng(5).uniform(-0.8, 0.8, (40, 2)), mesh.nodes[::97]])
    assert geometry._nearest_nodes(mesh, pts).tolist() \
        == _nearest_nodes_per_point(mesh, pts).tolist()
    assert geometry._nearest_nodes(mesh, mesh.nodes[5]).tolist() == [5]
    assert geometry._nearest_nodes(mesh, np.zeros((0, 2))).shape == (0,)

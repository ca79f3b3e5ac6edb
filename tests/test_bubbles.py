import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinhpierce.bubbles import (
    Bubble,
    assemble_U,
    bubble_source_from_r,
    bubble_value,
    build_ansatz,
    build_test_functions,
    far_expansion,
    kernel_Y,
    make_bubbles,
    project_asymptotic,
    project_numeric,
    regular_parts,
)
from sinhpierce.coeffs import choose_scales, coefficient_set
from sinhpierce.errors import MeshMismatch, RegimeViolation, UndefinedAngleAtOrigin
from sinhpierce.geometry import (
    MeshPolicy,
    PierceSpec,
    build_domain_mesh,
    build_mesh,
    build_pierced_domain,
)
from sinhpierce.operators import get_ops
from sinhpierce.verify import norm_lalpha_sq


def _bubble(alpha=3.0, delta=0.05, center=(0.0, 0.0)):
    return Bubble(index=0, center=np.asarray(center, dtype=float), alpha=alpha,
                  delta=delta, delta_pow=delta ** alpha, positive=True)


def test_bubble_peak_values():
    b = _bubble(alpha=3.0, delta=0.05)
    peak = math.log(2 * 9 / 0.05 ** 3)
    assert bubble_value(b, (0.0, 0.0)) == pytest.approx(peak, rel=1e-13)
    # at |x - xi| = delta the profile is peak - 2 log 2
    assert bubble_value(b, (0.05, 0.0)) == pytest.approx(peak - 2 * math.log(2),
                                                         rel=1e-13)


@given(alpha=st.floats(2.1, 5.9).filter(lambda a: abs(a - round(a / 2) * 2) > 1e-3),
       delta=st.floats(1e-4, 0.3), rr=st.floats(1e-6, 2.0))
@settings(max_examples=50, deadline=None)
def test_bubble_radial_monotone(alpha, delta, rr):
    b = _bubble(alpha=alpha, delta=delta)
    assert bubble_value(b, (rr, 0.0)) <= bubble_value(b, (0.0, 0.0)) + 1e-12
    v1 = bubble_value(b, (rr, 0.0))
    v2 = bubble_value(b, (rr * 1.5, 0.0))
    assert v2 <= v1 + 1e-12


def test_bubble_solves_singular_liouville():
    # radial second differences on a log grid: Lap w + r^(a-2) e^w = 0
    alpha, delta = 3.0, 0.07
    b = _bubble(alpha=alpha, delta=delta)
    t = np.linspace(math.log(delta) - 6, math.log(delta) + 6, 16001)
    r = np.exp(t)
    pts = np.column_stack([r, np.zeros_like(r)])
    w = bubble_value(b, pts)
    src = bubble_source_from_r(b, r)
    dt = t[1] - t[0]
    lap = (w[2:] - 2 * w[1:-1] + w[:-2]) / dt ** 2 / r[1:-1] ** 2
    res = lap + src[1:-1]
    win = np.abs(t[1:-1] - math.log(delta)) <= 3
    assert np.abs(res[win]).max() / src.max() <= 1e-6


def test_kernel_Y_values():
    assert kernel_Y(0, 3.0, (0.0, 0.0)) == 1.0
    assert kernel_Y(0, 3.0, (1.0, 0.0)) == 0.0
    assert kernel_Y(0, 3.0, (100.0, 0.0)) == pytest.approx(-1.0, abs=1e-5)
    assert kernel_Y(1, 3.0, (1.0, 0.0)) == pytest.approx(0.5, rel=1e-13)
    with pytest.raises(UndefinedAngleAtOrigin):
        kernel_Y(1, 3.0, (0.0, 0.0))
    with pytest.raises(ValueError):
        kernel_Y(3, 3.0, (1.0, 0.0))


@given(alpha=st.floats(2.1, 5.9), x=st.floats(-3, 3), y=st.floats(-3, 3))
@settings(max_examples=50, deadline=None)
def test_kernel_Y_bounds(alpha, x, y):
    v = kernel_Y(0, alpha, (x, y))
    assert -1.0 <= v <= 1.0
    if (x, y) != (0.0, 0.0):
        assert abs(kernel_Y(1, alpha, (x, y))) <= 0.51
        assert abs(kernel_Y(2, alpha, (x, y))) <= 0.51


# --- slow-decay correction functions ---------------------------------------

@pytest.fixture(scope="module")
def tfs(single_cfg, gp):
    from sinhpierce.coeffs import solve_gamma

    scales = choose_scales(single_cfg, 1e-3, gp)
    gamma_star = solve_gamma(single_cfg, scales, gp)[2]
    return build_test_functions(single_cfg, scales, gamma_star, 0), scales


def test_eta0_at_center(tfs):
    fn, scales = tfs
    assert fn.eta0(0.0) == -2.0


def test_eta0_plus_one_is_minus_Z0(tfs):
    fn, _ = tfs
    r = np.geomspace(1e-8, 10.0, 200)
    lhs = fn.eta0(r) + 1.0
    rhs = -fn.Z0(r)
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_Z_combination(tfs):
    fn, _ = tfs
    r = np.geomspace(1e-4, 1.0, 50)
    assert np.abs(fn.Z(r) - (fn.eta(r) + fn.gamma_star * fn.eta0(r))).max() <= 1e-12


def _radial_ode_residual(fn_vals, rhs_vals, r, t):
    dt = t[1] - t[0]
    lap = (fn_vals[2:] - 2 * fn_vals[1:-1] + fn_vals[:-2]) / dt ** 2 / r[1:-1] ** 2
    return lap - rhs_vals[1:-1]


def test_eta_ode_identities(tfs, single_cfg):
    # both corrections solve linearized bubble equations; the eta equation
    # carries a factor two on its source relative to the bare kernel element
    fn, scales = tfs
    alpha = 3.0
    delta = scales.delta[0]
    b = Bubble(index=0, center=np.zeros(2), alpha=alpha, delta=delta,
               delta_pow=scales.delta_pow[0], positive=True)
    t = np.linspace(math.log(delta) - 6, math.log(delta) + 6, 16001)
    r = np.exp(t)
    src = bubble_source_from_r(b, r)
    win = np.abs(t[1:-1] - math.log(delta)) <= 3
    scale = src.max()

    res0 = _radial_ode_residual(fn.eta0(r), -src - src * fn.eta0(r), r, t)
    assert np.abs(res0[win]).max() / scale <= 1e-5

    res = _radial_ode_residual(fn.eta(r), 2.0 * src * fn.Z0(r) - src * fn.eta(r), r, t)
    assert np.abs(res[win]).max() / scale <= 1e-5

    resz = _radial_ode_residual(fn.Z0(r), -src * fn.Z0(r), r, t)
    assert np.abs(resz[win]).max() / scale <= 1e-5


# --- projections ------------------------------------------------------------

@pytest.fixture(scope="module")
def proj_setup(single_cfg, gp, coarse_policy):
    scales = choose_scales(single_cfg, 1e-3, gp)
    pd = build_pierced_domain(single_cfg.domain,
                              PierceSpec(single_cfg.centers, scales.eps))
    mesh = build_mesh(pd, coarse_policy)
    coeffs = coefficient_set(single_cfg, scales, gp)
    return pd, mesh, scales, coeffs


def test_projection_boundary_values(proj_setup, single_cfg, gp):
    pd, mesh, scales, coeffs = proj_setup
    b = make_bubbles(single_cfg, scales)[0]
    P = project_numeric(b, mesh, coeffs=coeffs, H=regular_parts(gp, mesh, coeffs.centers))
    assert np.abs(P.values[mesh.is_boundary]).max() <= 1e-8


def test_projection_interior_harmonicity(proj_setup, single_cfg, gp):
    pd, mesh, scales, coeffs = proj_setup
    ops = get_ops(mesh)
    b = make_bubbles(single_cfg, scales)[0]
    P = project_numeric(b, mesh, coeffs=coeffs, H=regular_parts(gp, mesh, coeffs.centers))
    w_vals = bubble_value(b, mesh.nodes)
    w_vals = np.asarray(w_vals)
    # difference P - w is discrete harmonic plus the exactly harmonic lead;
    # check it on the regular lattice region
    from sinhpierce.operators import Field

    diff = Field(mesh, P.values - w_vals)
    lap = ops.laplacian(diff)
    r = mesh.center_distance(0)
    sel = (~mesh.is_boundary) & (r > 0.66) & (np.hypot(*mesh.nodes.T) < 0.8)
    assert np.abs(lap.values[sel]).max() <= 1e-2


def _far_form_pointwise(b, coeffs, gp, x):
    """Reference: the far form through one-point Green calls."""
    val = 4 * math.pi * b.alpha * gp.green(x, coeffs.centers[b.index])
    for k, c in enumerate(coeffs.centers):
        val -= coeffs.beta[b.index, k] * gp.green(x, c)
    return val


def test_projection_matches_far_expansion(proj_setup, single_cfg, gp):
    pd, mesh, scales, coeffs = proj_setup
    b = make_bubbles(single_cfg, scales)[0]
    P = project_numeric(b, mesh, coeffs=coeffs, H=regular_parts(gp, mesh, coeffs.centers))
    r = mesh.center_distance(0)
    sel = (~mesh.is_boundary) & (r > pd.eta) & (np.hypot(*mesh.nodes.T) < 0.9)
    idx = np.flatnonzero(sel)[::11]
    far = far_expansion(b, coeffs, gp, mesh.nodes[idx])
    # the batched far form carries the bits of the one-point Green calls
    ref = np.array([_far_form_pointwise(b, coeffs, gp, mesh.nodes[n]) for n in idx])
    one = np.array([project_asymptotic(b, coeffs, gp, mesh.nodes[n], "far") for n in idx])
    assert np.array_equal(far.view(np.int64), ref.view(np.int64))
    assert np.array_equal(one.view(np.int64), ref.view(np.int64))
    worst = np.abs(P.values[idx] - far).max()
    assert worst <= 5e-3  # the remainder is O(delta^alpha + ...) ~ 1e-4 + lift error


def test_projection_near_far_consistency_on_eta_circle(proj_setup, single_cfg, gp):
    pd, mesh, scales, coeffs = proj_setup
    b = make_bubbles(single_cfg, scales)[0]
    for th in np.linspace(0, 2 * math.pi, 7):
        x = pd.eta * np.array([math.cos(th), math.sin(th)])
        near = project_asymptotic(b, coeffs, gp, x, "near")
        far = project_asymptotic(b, coeffs, gp, x, "far", eta=pd.eta)
        # both expansions are valid there; mismatch is the bubble-tail error
        assert abs(near - far) <= 5e-3


def test_far_regime_violation(proj_setup, single_cfg, gp):
    pd, mesh, scales, coeffs = proj_setup
    b = make_bubbles(single_cfg, scales)[0]
    with pytest.raises(RegimeViolation):
        project_asymptotic(b, coeffs, gp, (scales.delta[0], 0.0), "far", eta=pd.eta)


def test_assemble_single_is_projection(proj_setup, single_cfg, gp):
    pd, mesh, scales, coeffs = proj_setup
    b = make_bubbles(single_cfg, scales)[0]
    P = project_numeric(b, mesh, coeffs=coeffs, H=regular_parts(gp, mesh, coeffs.centers))
    U = assemble_U([P], tau=1.0, m1=1)
    assert np.abs(U.values - P.values).max() == 0.0


def test_assemble_mixed_signs(two_cfg, gp, coarse_policy):
    scales = choose_scales(two_cfg, 1e-3, gp)
    pd = build_pierced_domain(two_cfg.domain, PierceSpec(two_cfg.centers, scales.eps))
    mesh = build_mesh(pd, coarse_policy)
    coeffs = coefficient_set(two_cfg, scales, gp)
    bs = make_bubbles(two_cfg, scales)
    H = regular_parts(gp, mesh, coeffs.centers)
    P = [project_numeric(b, mesh, coeffs=coeffs, H=H) for b in bs]
    U = assemble_U(P, tau=1.0, m1=1)
    assert np.abs(U.values - (P[0].values - P[1].values)).max() <= 1e-14 * np.abs(U.values).max()


def test_assemble_mesh_mismatch(proj_setup, single_cfg, gp, disk):
    pd, mesh, scales, coeffs = proj_setup
    b = make_bubbles(single_cfg, scales)[0]
    P = project_numeric(b, mesh, coeffs=coeffs, H=regular_parts(gp, mesh, coeffs.centers))
    other = build_domain_mesh(disk, 0.2)
    from sinhpierce.operators import Field

    q = Field(other, np.zeros(other.n_nodes))
    with pytest.raises(MeshMismatch):
        assemble_U([P, q], tau=1.0, m1=1)


def test_ansatz_near_field_form(proj_setup, single_cfg, gp):
    # on each annulus: U ~ w - log(2a^2 d^a) + (a-2) log r + 2 pi rho_i,
    # measured at the geometric-mean radius, improving as rho decreases
    errs = []
    for rho in (1e-2, 1e-3):
        scales = choose_scales(single_cfg, rho, gp)
        pd = build_pierced_domain(single_cfg.domain,
                                  PierceSpec(single_cfg.centers, scales.eps))
        mesh = build_mesh(pd, MeshPolicy(h=0.045))
        coeffs = coefficient_set(single_cfg, scales, gp)
        U, _ = build_ansatz(single_cfg, scales, mesh, coeffs=coeffs, gp=gp)
        b = make_bubbles(single_cfg, scales)[0]
        patch = mesh.patches[0]
        k = int(np.argmin(np.abs(np.log(patch.radii)
                                 - 0.5 * math.log(scales.eps[0] * pd.eta))))
        rr = patch.radii[k]
        got = U.values[patch.node_grid[k, 0]]   # nodal value at the ring radius
        want = bubble_value(b, (rr, 0.0)) \
            - (math.log(2 * 9) + math.log(scales.delta_pow[0])) \
            + (3 - 2) * math.log(rr) + 2 * math.pi * scales.rho_i[0]
        errs.append(abs(got - want))
    assert errs[1] < errs[0]
    assert errs[1] <= 0.05


def test_weighted_norm_of_kernel_element():
    for alpha in (2.5, 3.0, 3.7):
        val = norm_lalpha_sq(lambda s, a=alpha: (1 - s ** a) / (1 + s ** a), alpha)
        assert val == pytest.approx(2 * math.pi / (3 * alpha), rel=1e-8)


def test_mirrored_near_field_form_negative_bubble(two_cfg, gp):
    # on the negative annulus: -tau U ~ w_2 - log(2 a^2 d^a) + (a-2) log r
    # + 2 pi rho_2, improving as rho decreases
    errs = []
    for rho in (1e-2, 1e-3):
        scales = choose_scales(two_cfg, rho, gp)
        pd = build_pierced_domain(two_cfg.domain,
                                  PierceSpec(two_cfg.centers, scales.eps))
        mesh = build_mesh(pd, MeshPolicy(h=0.045))
        coeffs = coefficient_set(two_cfg, scales, gp)
        U, _ = build_ansatz(two_cfg, scales, mesh, coeffs=coeffs, gp=gp)
        b2 = make_bubbles(two_cfg, scales)[1]
        patch = mesh.patches[1]
        k = int(np.argmin(np.abs(np.log(patch.radii)
                                 - 0.5 * math.log(scales.eps[1] * pd.eta))))
        rr = patch.radii[k]
        got = -two_cfg.tau * U.values[patch.node_grid[k, 0]]
        from sinhpierce.bubbles import bubble_source_from_r, _bubble_from_r

        w_at = float(_bubble_from_r(b2, np.array([rr]))[0])
        want = w_at - (math.log(2 * 9) + math.log(scales.delta_pow[1])) \
            + math.log(rr) + 2 * math.pi * scales.rho_i[1]
        errs.append(abs(got - want))
    assert errs[1] < errs[0]
    assert errs[1] <= 0.1


def test_numeric_regular_parts_take_the_dirichlet_data(gp, single_mesh):
    # the numeric H comes from the Green function's own h = 0.02 domain mesh;
    # on the outer boundary of a mesh whose nodes are not that mesh's, the
    # interpolant misses the Dirichlet data (1/2pi) log|x - xi|, so those
    # nodes take the data itself and every other node keeps the interpolant
    from sinhpierce.geometry import OUTER, DomainSpec
    from sinhpierce.greens import GreenProvider

    square = DomainSpec("boundary-curve", [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]])
    centers = np.array([[-0.4, 0.0], [0.4, 0.0]])
    numeric = GreenProvider(square)
    pd = build_pierced_domain(square, PierceSpec(centers, [1e-3, 1e-3]))
    for h, nested in ((0.05, False), (0.02, True)):
        mesh = build_mesh(pd, MeshPolicy(h=h, q=1.3))
        outer = mesh.node_marker == OUTER
        x, y = mesh.nodes[outer, 0], mesh.nodes[outer, 1]
        for c, H in zip(centers, regular_parts(numeric, mesh, centers)):
            interpolant = numeric.robin_H_many(mesh.nodes, c)
            data = np.log(np.hypot(x - c[0], y - c[1])) / (2 * math.pi)
            assert H[outer].tobytes() == data.tobytes()
            assert H[~outer].tobytes() == interpolant[~outer].tobytes()
            miss = np.abs(interpolant[outer] - data).max()
            # nested meshes share the boundary nodes: nothing changes there
            assert miss == 0.0 if nested else miss > 1e-7, h
    # the image formula is exact on the boundary already and stays as it is
    centers = np.array([[0.0, 0.0]])
    for c, H in zip(centers, regular_parts(gp, single_mesh, centers)):
        assert H.tobytes() == gp.robin_H_many(single_mesh.nodes, c).tobytes()

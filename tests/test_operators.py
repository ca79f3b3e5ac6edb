import dataclasses
import gc
import math
import os
import pathlib
import subprocess
import sys
import types
import weakref

import numpy as np
import pytest

import sinhpierce
import sinhpierce.geometry as geometry
from sinhpierce.bubbles import build_ansatz, make_bubbles, semianalytic_laplacian_U
from sinhpierce.coeffs import (
    BlowupConfig,
    choose_scales,
    coefficient_set,
    compute_rho_i,
    constant_potential,
)
from sinhpierce.corrector import fixed_point_correct
from sinhpierce.errors import MeshMismatch, NonpositiveSampled
from sinhpierce.geometry import annulus_radius, build_domain_mesh
from sinhpierce.operators import (
    Field,
    LinearOperator,
    _assemble_stiffness,
    get_ops,
    nonlinear_N,
    release_ops,
    residual_R,
    weight_W,
)

from conftest import pierced_mesh


def _raw_lattice_mesh(disk, h):
    """The domain mesh with its hex lattice left unsmoothed."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "SMOOTH_ITERS", 0)
        return build_domain_mesh(disk, h)


@pytest.fixture(scope="module")
def plain(disk):
    mesh = _raw_lattice_mesh(disk, 0.05)
    return mesh, get_ops(mesh)


def _hex_interior(mesh, radius=0.75):
    r = np.hypot(mesh.nodes[:, 0], mesh.nodes[:, 1])
    return (~mesh.is_boundary) & (r < radius)


def test_a_dropped_mesh_frees_its_operators(disk):
    mesh = _raw_lattice_mesh(disk, 0.2)
    ops = weakref.ref(get_ops(mesh))
    del mesh
    gc.collect()
    assert ops() is None


def test_operators_are_kept_on_the_mesh_until_released(disk):
    # get_ops assembles once and keeps the operators in the mesh's slot;
    # release_ops empties it, and the next get_ops assembles anew
    mesh = _raw_lattice_mesh(disk, 0.2)
    first = weakref.ref(get_ops(mesh))
    assert get_ops(mesh) is first() and mesh.ops is first()
    release_ops(mesh)
    assert mesh.ops is None and first() is None
    assert get_ops(mesh) is mesh.ops is not None


def test_laplacian_quadratic(plain):
    mesh, ops = plain
    f = mesh.nodes[:, 0] ** 2 + mesh.nodes[:, 1] ** 2
    lap = ops.laplacian(f)
    sel = _hex_interior(mesh)
    assert np.abs(lap[sel] - 4.0).max() <= 2e-2


def test_laplacian_harmonic(plain):
    mesh, ops = plain
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    f = x ** 3 - 3 * x * y ** 2   # Re z^3
    lap = ops.laplacian(f)
    sel = _hex_interior(mesh)
    assert np.abs(lap[sel]).max() <= 5e-2


def test_laplacian_second_order_convergence(disk):
    errs = []
    for h in (0.05, 0.025):
        mesh = _raw_lattice_mesh(disk, h)
        ops = get_ops(mesh)
        x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
        f = np.sin(x) * np.cos(y)
        lap = ops.laplacian(f)
        sel = _hex_interior(mesh)
        errs.append(np.abs(lap[sel] + 2 * np.sin(x[sel]) * np.cos(y[sel])).max())
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)


def test_solve_dirichlet_zero_rhs(plain):
    # zero boundary data extend to the zero field
    mesh, ops = plain
    f = ops.solve_dirichlet(np.zeros(len(ops.boundary)))
    assert np.abs(f).max() <= 1e-14


def test_solve_dirichlet_manufactured(plain):
    mesh, ops = plain
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    g = np.exp(x) * np.cos(y)   # harmonic
    f = ops.solve_dirichlet(g[ops.boundary])
    scale = np.abs(g).max()
    assert np.abs(f - g).max() / scale <= 5e-3  # O(h^2) at h=0.05


def test_solve_dirichlet_linearity(plain):
    mesh, ops = plain
    rng = np.random.default_rng(5)
    g = rng.standard_normal(len(ops.boundary))
    a = ops.solve_dirichlet(3.5 * g)
    b = ops.solve_dirichlet(g)
    assert np.abs(a - 3.5 * b).max() <= 1e-12 * np.abs(a).max()


def test_maximum_principle(plain):
    # the extension of random data stays within the data's range
    mesh, ops = plain
    g = np.random.default_rng(6).standard_normal(len(ops.boundary))
    f = ops.solve_dirichlet(g)
    tol = 1e-10 * np.abs(g).max()
    assert g.min() - tol <= f.min() and f.max() <= g.max() + tol


def test_stiffness_of_a_scaled_patch_triangle(single_mesh):
    # P1 entries do not change when a triangle is scaled; at 2^-600 the
    # area underflows unless each triangle is first brought to unit size
    tri = np.flatnonzero(single_mesh.tri_patch == 0)[0]
    coords = single_mesh.all_tri_coords()[tri]

    def local(c):
        one = types.SimpleNamespace(all_tri_coords=lambda: c[None].copy(), n_nodes=3,
                                    triangles=np.array([[0, 1, 2]]))
        return _assemble_stiffness(one).toarray()

    want = local(coords)
    got = local(np.ldexp(coords, -600))
    assert np.all(np.isfinite(want))
    assert got.tobytes() == want.tobytes()


def test_stiffness_symmetry(plain):
    _, ops = plain
    asym = (ops.K - ops.K.T)
    denom = np.abs(ops.K.data).max()
    assert np.abs(asym.data).max() if asym.nnz else 0.0 <= 1e-12 * denom


def test_norms_constant_field(plain):
    mesh, ops = plain
    c = np.full(mesh.n_nodes, -2.5)
    area = mesh.weights.sum()
    for p in (1.0, 1.01, 2.0, 3.0):
        assert ops.norm_lp(c, p) == pytest.approx(2.5 * area ** (1 / p), rel=1e-12)
    assert ops.norm_sup(c) == 2.5


def test_h01_norm_of_linear_field(plain):
    mesh, ops = plain
    f = 2.0 * mesh.nodes[:, 0]
    # |grad f|^2 = 4 over the disk
    assert ops.norm_h01(f) ** 2 == pytest.approx(4 * mesh.weights.sum(), rel=1e-10)


# --- problem-specific fields ------------------------------------------------

def _pointwise(cfg, mesh, scales):
    """V at the nodes, tau and rho: what the pointwise terms take besides
    node values."""
    return cfg.potentials_at(mesh.nodes, "node"), cfg.tau, scales.rho


@pytest.fixture(scope="module")
def ansatz_setup(single_cfg, gp, coarse_policy):
    scales = choose_scales(single_cfg, 1e-3, gp)
    mesh = pierced_mesh(single_cfg.domain, single_cfg.centers, scales.eps, coarse_policy)
    coeffs = coefficient_set(single_cfg, scales, gp)
    U, _ = build_ansatz(single_cfg, scales, mesh, coeffs=coeffs, gp=gp)
    return mesh, scales, coeffs, U


def test_weight_positive_and_rescaled_limit(ansatz_setup, single_cfg):
    mesh, scales, coeffs, U = ansatz_setup
    W = weight_W(U.values, *_pointwise(single_cfg, mesh, scales))
    assert W.min() > 0
    # delta^2 W at |y| = 1 approaches 2 a^2 / 4 = 4.5 for alpha = 3
    from sinhpierce.geometry import FieldEvaluator

    ev = FieldEvaluator(mesh)
    d = scales.delta[0]
    val = ev(W, mesh.patches[0].center + (d, 0.0))[0] * d ** 2
    assert val == pytest.approx(4.5, rel=0.05)


def test_weight_liouville_case(disk, gp, coarse_policy):
    cfg = BlowupConfig(domain=disk, centers=[[0.0, 0.0]], alphas=[3.0], m1=1,
                       V1=constant_potential(1.0), V2=None)  # V2 drops: one-signed case
    scales = choose_scales(cfg, 1e-3, gp)
    mesh = pierced_mesh(disk, cfg.centers, scales.eps, coarse_policy)
    coeffs = coefficient_set(cfg, scales, gp)
    U, _ = build_ansatz(cfg, scales, mesh, coeffs=coeffs, gp=gp)
    W = weight_W(U.values, *_pointwise(cfg, mesh, scales))
    v1 = np.ones(mesh.n_nodes)
    want = scales.rho * v1 * np.exp(U.values)
    assert np.abs(W - want).max() <= 1e-12 * np.abs(want).max()


def test_nonlinearity_zero_at_zero(ansatz_setup, single_cfg):
    mesh, scales, coeffs, U = ansatz_setup
    N = nonlinear_N(np.zeros(mesh.n_nodes), U.values, *_pointwise(single_cfg, mesh, scales))
    assert np.abs(N).max() == 0.0


def test_nonlinearity_quadratic_smallness(ansatz_setup, single_cfg):
    mesh, scales, coeffs, U = ansatz_setup
    ops = get_ops(mesh)
    rng = np.random.default_rng(11)
    base = rng.standard_normal(mesh.n_nodes)
    base[mesh.is_boundary] = 0.0
    ratios = []
    for t in (1e-2, 1e-3, 1e-4):
        N = nonlinear_N(t * base, U.values, *_pointwise(single_cfg, mesh, scales))
        ratios.append(ops.norm_lp(N, 1) / t ** 2)
    assert max(ratios) / min(ratios) <= 1.05


def test_residual_paths_agree(ansatz_setup, single_cfg):
    mesh, scales, coeffs, U = ansatz_setup
    lap = semianalytic_laplacian_U(single_cfg, scales, mesh)
    semi = residual_R(U.values, lap, *_pointwise(single_cfg, mesh, scales))
    # the same defect with the discrete Laplacian of U (V1 = V2 = tau = 1)
    disc = get_ops(mesh).laplacian(U.values) \
        + scales.rho * (np.exp(U.values) - np.exp(-U.values))
    d = np.abs(semi - disc)
    # on the regular lattice region the two Laplacian routes agree sharply
    r = mesh.center_distance(0)
    sel = (~mesh.is_boundary) & (r > 0.66) & (np.hypot(*mesh.nodes.T) < 0.8)
    assert d[sel].max() <= 1e-2
    # inside the graded patch, agreement holds in the integrated sense at the
    # level set by the grading ratio (relative truncation ~ (q-1)^2)
    inpatch = (mesh.node_patch == 0) & (~mesh.is_boundary)
    l1_diff = np.sum((mesh.weights * d)[inpatch])
    l1_lap = np.sum((mesh.weights * np.abs(lap))[~mesh.is_boundary])
    assert l1_diff / l1_lap <= 0.08


def test_linear_operator_roundtrip(ansatz_setup, single_cfg):
    mesh, scales, coeffs, U = ansatz_setup
    L = LinearOperator(mesh, weight_W(U.values, *_pointwise(single_cfg, mesh, scales)))
    rng = np.random.default_rng(2)
    psi = np.zeros(mesh.n_nodes)
    psi[~mesh.is_boundary] = rng.standard_normal((~mesh.is_boundary).sum())
    # (Lap + W) psi in nodal form
    ops = get_ops(mesh)
    h = np.zeros(mesh.n_nodes)
    h[ops.interior] = (L.matrix @ psi[ops.interior]) / ops.w[ops.interior]
    back = L.solve(h)
    assert np.abs(back.values - psi).max() <= 1e-8 * np.abs(psi).max()


def test_linear_operator_zero_weight_reduces_to_poisson(ansatz_setup, poisson):
    mesh, scales, coeffs, U = ansatz_setup
    L = LinearOperator(mesh, np.zeros(mesh.n_nodes))
    rng = np.random.default_rng(4)
    h = rng.standard_normal(mesh.n_nodes)
    a = L.solve(h)
    b = poisson(mesh, h)
    assert np.abs(a.values - b).max() <= 1e-10 * np.abs(b).max()


def test_linear_operator_rejects_negative_weight(ansatz_setup):
    mesh = ansatz_setup[0]
    with pytest.raises(NonpositiveSampled, match=r"W = -1 is negative at node 0 \("):
        LinearOperator(mesh, -np.ones(mesh.n_nodes))


def test_field_vanishes_on_the_boundary(ansatz_setup):
    # a Field is a nodal function with zero boundary values, up to 1e-12 of
    # its largest value; any other nodal data stay plain arrays
    mesh = ansatz_setup[0]
    vals = np.where(mesh.is_boundary, 0.0, 1.0)
    assert Field(mesh, vals).values.tobytes() == vals.tobytes()
    Field(mesh, np.zeros(mesh.n_nodes))
    Field(mesh, np.where(mesh.is_boundary, 1e-12, 1.0))
    with pytest.raises(ValueError, match="does not vanish"):
        Field(mesh, np.where(mesh.is_boundary, 2e-12, 1.0))
    with pytest.raises(ValueError, match="size"):
        Field(mesh, np.zeros(mesh.n_nodes + 1))
    assert [f.name for f in dataclasses.fields(Field)] == ["mesh", "values"]


def test_field_mesh_mismatch(coarse_run, disk):
    # a warm start is the one correction that comes from outside the stage
    other = build_domain_mesh(disk, 0.2)
    phi0 = Field(other, np.zeros(other.n_nodes))
    with pytest.raises(MeshMismatch, match="another mesh"):
        fixed_point_correct(coarse_run, 1e-3, phi0=phi0)


def test_module_level_helpers(ansatz_setup):
    mesh = ansatz_setup[0]
    ops = get_ops(mesh)
    f = np.ones(mesh.n_nodes)
    assert ops.norm_lp(f, 2) == pytest.approx(math.sqrt(mesh.weights.sum()), rel=1e-12)
    assert ops.norm_sup(f) == 1.0
    assert ops.norm_h01(f) <= 1e-6


def test_nonlinearity_lipschitz_constant_decays(single_cfg, gp, coarse_policy):
    # ||N(p1) - N(p2)||_p / ||p1 - p2||_H01 measured over random small pairs,
    # shrinking as rho does
    from sinhpierce.coeffs import coefficient_set

    Ks = []
    for rho in (1e-2, 1e-4):
        scales = choose_scales(single_cfg, rho, gp)
        mesh = pierced_mesh(single_cfg.domain, single_cfg.centers, scales.eps, coarse_policy)
        coeffs = coefficient_set(single_cfg, scales, gp)
        U, _ = build_ansatz(single_cfg, scales, mesh, coeffs=coeffs, gp=gp)
        ops = get_ops(mesh)
        args = _pointwise(single_cfg, mesh, scales)
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(5):
            base = rng.standard_normal((2, mesh.n_nodes)) * 1e-2
            base[:, mesh.is_boundary] = 0.0
            dN = nonlinear_N(base[0], U.values, *args) - nonlinear_N(base[1], U.values, *args)
            num = ops.norm_lp(dN, 1.01)
            den = ops.norm_h01(base[0] - base[1])
            worst = max(worst, num / den)
        Ks.append(worst)
    assert Ks[1] < Ks[0]


def test_local_expansion_of_weight_term(single_cfg, gp, coarse_policy):
    # on the annulus, rho V1 e^U matches the bubble source scaled by
    # V1(xi) e^{2 pi rho_i} / (2 a^2 delta^a) * rho, better as rho shrinks
    from sinhpierce.bubbles import bubble_source, make_bubbles
    from sinhpierce.coeffs import coefficient_set
    from sinhpierce.geometry import FieldEvaluator

    devs = []
    for rho in (1e-2, 1e-3):
        scales = choose_scales(single_cfg, rho, gp)
        mesh = pierced_mesh(single_cfg.domain, single_cfg.centers, scales.eps, coarse_policy)
        coeffs = coefficient_set(single_cfg, scales, gp)
        U, _ = build_ansatz(single_cfg, scales, mesh, coeffs=coeffs, gp=gp)
        b = make_bubbles(single_cfg, scales)[0]
        src = bubble_source(b, mesh)
        lead = math.exp(2 * math.pi * compute_rho_i(single_cfg, gp)[0]) \
            / (2 * 9 * scales.delta_pow[0])
        num = scales.rho * np.exp(U.values)
        den = lead * scales.rho * src
        sel = np.abs(mesh.center_distance(0) - scales.delta[0]) < 0.2 * scales.delta[0]
        devs.append(np.abs(num[sel] / den[sel] - 1.0).max())
    assert devs[1] < devs[0]
    assert devs[1] < 0.2


def test_cross_sign_suppression(two_cfg, gp, coarse_policy):
    # on the negative-bubble annulus the positive-group term is dominated by
    # the same-sign term, more strongly as rho decreases
    from sinhpierce.coeffs import coefficient_set

    ratios = []
    for rho in (1e-2, 1e-3):
        scales = choose_scales(two_cfg, rho, gp)
        mesh = pierced_mesh(two_cfg.domain, two_cfg.centers, scales.eps, coarse_policy)
        coeffs = coefficient_set(two_cfg, scales, gp)
        U, _ = build_ansatz(two_cfg, scales, mesh, coeffs=coeffs, gp=gp)
        d2 = mesh.center_distance(1)
        sel = np.abs(d2 - scales.delta[1]) < 0.2 * scales.delta[1]
        cross = np.exp(U.values[sel])            # V1 e^U on the negative annulus
        same = np.exp(-two_cfg.tau * U.values[sel])
        ratios.append((cross / same).max())
    assert ratios[1] < ratios[0]
    assert ratios[1] < 1e-3


def test_residual_small_outside_annuli(single_cfg, gp, coarse_policy):
    # |R| = O(rho) away from every annulus, with a stable constant
    from sinhpierce.coeffs import coefficient_set

    eta = annulus_radius(single_cfg.domain, single_cfg.centers)
    consts = []
    for rho in (1e-2, 1e-3, 1e-4):
        scales = choose_scales(single_cfg, rho, gp)
        mesh = pierced_mesh(single_cfg.domain, single_cfg.centers, scales.eps, coarse_policy)
        coeffs = coefficient_set(single_cfg, scales, gp)
        U, _ = build_ansatz(single_cfg, scales, mesh, coeffs=coeffs, gp=gp)
        R = residual_R(U.values, semianalytic_laplacian_U(single_cfg, scales, mesh),
                       *_pointwise(single_cfg, mesh, scales))
        outside = (~mesh.is_boundary) & (mesh.center_distance(0) > eta)
        consts.append(np.abs(R[outside]).max() / rho)
    assert max(consts) / min(consts) <= 3.0


_H01_PROBE = """
import numpy as np
from sinhpierce.geometry import DomainSpec, build_domain_mesh
from sinhpierce.operators import get_ops
mesh = build_domain_mesh(DomainSpec(), 0.015)
ops = get_ops(mesh)
rng = np.random.default_rng(0)
print(mesh.n_nodes, *(ops.norm_h01(rng.standard_normal(mesh.n_nodes)).hex() for _ in range(20)))
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two BLAS threads")
@pytest.mark.xfail(strict=True, reason="OpenBLAS ddot splits vectors longer than 10,000 "
                   "across its threads, so the H1_0 norm's dot product rounds differently")
def test_h01_norm_does_not_depend_on_the_blas_thread_count():
    # 16,284 nodes: above ddot's threading threshold
    src = str(pathlib.Path(sinhpierce.__file__).parent.parent)
    outputs = []
    for threads in ("1", "2"):
        path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(path)}
        done = subprocess.run([sys.executable, "-c", _H01_PROBE], env=env, check=True,
                              capture_output=True, text=True)
        outputs.append(done.stdout.split())
    assert outputs[0][0] == "16284"
    assert outputs[0] == outputs[1]

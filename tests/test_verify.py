import math
import tracemalloc

import numpy as np
import pytest

import sinhpierce.verify as verify_mod
from sinhpierce.bubbles import kernel_coefficient, rescale_correction
from sinhpierce.corrector import Run, continuation_sweep, log_slope
from sinhpierce.errors import InsufficientSamples
from sinhpierce.operators import Field, LinearOperator, weight_W
from sinhpierce.verify import (
    CheckResult,
    check_expansion,
    check_integral_identities,
    check_kernel_annihilation,
    check_operator_bound,
    check_residual_scaling,
    decreasing,
    write_check_csv,
)


def test_log_slope_recovers_power_law():
    rhos = [1e-2, 1e-3, 1e-4, 1e-5]
    vals = [3.0 * r ** 0.7 for r in rhos]
    assert log_slope(rhos, vals) == pytest.approx(0.7, abs=1e-12)


def test_log_slope_needs_three_samples():
    with pytest.raises(InsufficientSamples):
        log_slope([1e-2, 1e-3], [1.0, 0.5])


def test_decreasing_with_floor():
    assert decreasing([3.0, 2.0, 1.0])
    assert not decreasing([1.0, 2.0])
    # machine-noise wiggles under the floor are fine
    assert decreasing([1e-15, 3e-16, 8e-16], floor=1e-12)


def test_integral_identities_all_alphas():
    results = check_integral_identities(alphas=(2.5, 3.0, 3.7), rtol=1e-8)
    assert len(results) == 6
    assert all(r.passed for r in results)
    # each value within 1e-10 of its target (4 pi alpha / 3, or -4 pi)
    assert all(r.measured <= 1e-10 for r in results)


def test_kernel_annihilation_coarse():
    # coarser patch for speed; the acceptance suite runs the spec resolution
    for alpha in (2.5, 3.7):
        res = check_kernel_annihilation(alpha, resolution=4e-3)
        assert res.passed
        assert res.measured <= 1e-4


def kernel_annihilation_meshgrid(alpha, resolution=1e-3, r_range=(0.6, 1.6),
                                 theta_range=(-1.0, 1.0)):
    """Reference: the whole-grid evaluation the blocked check replaces."""
    r = np.arange(r_range[0], r_range[1] + resolution / 2, resolution)
    th = np.arange(theta_range[0], theta_range[1] + resolution / 2, resolution)
    R, T = np.meshgrid(r, th, indexing="ij")
    ra = R ** alpha
    V = 2 * alpha ** 2 * R ** (alpha - 2) / (1 + ra) ** 2
    fields = {
        0: (1 - ra) / (1 + ra),
        1: R ** (alpha / 2) * np.cos(alpha * T / 2) / (1 + ra),
        2: R ** (alpha / 2) * np.sin(alpha * T / 2) / (1 + ra),
    }
    dr = resolution
    dth = resolution
    worst = 0.0
    for k, Y in fields.items():
        lap = np.zeros_like(Y)
        lap[1:-1, 1:-1] = (
            (Y[2:, 1:-1] - 2 * Y[1:-1, 1:-1] + Y[:-2, 1:-1]) / dr ** 2
            + (Y[2:, 1:-1] - Y[:-2, 1:-1]) / (2 * dr * R[1:-1, 1:-1])
            + (Y[1:-1, 2:] - 2 * Y[1:-1, 1:-1] + Y[1:-1, :-2])
            / (dth ** 2 * R[1:-1, 1:-1] ** 2))
        res = lap[1:-1, 1:-1] + (V * Y)[1:-1, 1:-1]
        scale = np.abs((V * Y)[1:-1, 1:-1]).max()
        worst = max(worst, float(np.abs(res).max() / scale))
    return worst


@pytest.mark.parametrize("alpha", [2.2, 2.7, 3.0, 3.5, 5.5])
def test_kernel_annihilation_bits_match_whole_grid(alpha):
    got = check_kernel_annihilation(alpha, resolution=4e-3).measured
    assert got == kernel_annihilation_meshgrid(alpha, resolution=4e-3)


def test_kernel_annihilation_bits_match_whole_grid_at_default_resolution():
    assert check_kernel_annihilation(2.7).measured == kernel_annihilation_meshgrid(2.7)


def test_kernel_annihilation_partial_last_block():
    # 2 * _STENCIL_ROWS + 5 radii leave 3 interior rows to the last block;
    # 9 radii give fewer interior rows than one block
    for n_rows in (2 * verify_mod._STENCIL_ROWS + 5, 9):
        r_range = (0.6, 0.6 + (n_rows - 1) * 4e-3)
        assert len(np.arange(r_range[0], r_range[1] + 2e-3, 4e-3)) == n_rows
        got = check_kernel_annihilation(3.5, resolution=4e-3, r_range=r_range)
        want = kernel_annihilation_meshgrid(3.5, resolution=4e-3, r_range=r_range)
        assert got.measured == want, n_rows


def test_kernel_annihilation_memory():
    # the whole-grid evaluation held ~183 MiB of 2-D temporaries here
    tracemalloc.start()
    try:
        check_kernel_annihilation(3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


def test_kernel_coefficient_of_kernel_is_one(coarse_run, coarse_solution):
    # feed the kernel element itself through the projection: exactly one
    sol = coarse_solution
    mesh = sol.stage.mesh
    alpha = 3.0
    delta = sol.stage.scales.delta[0]
    y = mesh.center_distance(0) / delta
    vals = (1 - y ** alpha) / (1 + y ** alpha)
    vals = np.where(mesh.is_boundary, 0.0, vals)
    synthetic = Field(mesh, vals)
    a = kernel_coefficient(synthetic, coarse_run.cfg, sol.stage.scales, 0)
    assert a == pytest.approx(1.0, abs=1e-6)


def test_rescaled_field_grid_range(coarse_solution):
    sol = coarse_solution
    scales = sol.stage.scales
    rf = rescale_correction(sol.phi, scales, 0, y_max=40.0)
    y_lo = scales.eps[0] / scales.delta[0]
    assert rf.y[0] == pytest.approx(y_lo, rel=1e-12)
    assert rf.y[-1] <= 40.0 * (1 + 1e-12)
    assert rf.values.shape == (len(rf.y), sol.stage.mesh.patches[0].n_theta)


def test_check_csv_format(tmp_path):
    res = [CheckResult(check_id="demo", measured=1.0, threshold=2.0,
                       passed=True, rho=1e-3, p=1.01)]
    path = tmp_path / "checks.csv"
    write_check_csv(res, path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "check_id,rho,p,measured,threshold,pass"
    assert lines[1].startswith("demo,0.001,1.01,1.0,2.0,1")


def test_residual_scaling_insufficient_samples(single_cfg, gp, coarse_policy):
    with pytest.raises(InsufficientSamples):
        check_residual_scaling(Run(single_cfg, coarse_policy, gp, p_norms=(1.01,)),
                               [1e-2, 1e-3])


def test_operator_bound_zero_weight_control(coarse_run, monkeypatch):
    # with W = 0 the solver is the plain Poisson operator: amplification is
    # rho-independent up to mesh differences
    def zero_weight_operator(run, rho):
        mesh = run.stage(rho).mesh
        return LinearOperator(mesh, np.zeros(mesh.n_nodes))

    monkeypatch.setattr(Run, "linear_operator", zero_weight_operator)
    amps = [check_operator_bound(coarse_run, rho, trials=3, seed=1)
            for rho in (1e-2, 1e-3, 1e-4)]
    assert max(amps) / min(amps) <= 1.2


def test_operator_bound_shared_equals_fresh(single_cfg, gp, coarse_policy, monkeypatch):
    # verify's shape: the bound trials at each rho run right after the sweep's
    # correction, on the fixed point's own factor and cached eigenvalue
    rhos = [1e-2, 1e-3, 1e-4]
    shared_run = Run(single_cfg, coarse_policy, gp)
    shared = []

    def bound_at(rho):
        assert shared_run.linear_operator(rho)._eig_estimate is not None
        shared.append(check_operator_bound(shared_run, rho, trials=3, seed=1))

    continuation_sweep(shared_run, rhos, after_rho=bound_at)
    # the same check with a fresh operator for every request
    def fresh_operator(run, rho):
        st = run.stage(rho)
        return LinearOperator(st.mesh, weight_W(st.U, run.cfg, st.scales))

    monkeypatch.setattr(Run, "linear_operator", fresh_operator)
    fresh_run = Run(single_cfg, coarse_policy, gp)
    fresh = [check_operator_bound(fresh_run, rho, trials=3, seed=1) for rho in rhos]
    assert shared == fresh
    assert all(a > 0 for a in shared)


def test_expansion_positive_slope(coarse_run):
    slope, errs = check_expansion(coarse_run, [1e-2, 1e-3, 1e-4])
    assert slope > 0.5
    # self-consistency: errors strictly decrease
    assert errs[0] > errs[1] > errs[2]


def test_scaling_study_bit_reproducible(single_cfg, gp, coarse_policy):
    # two separate runs, so every mesh and ansatz is built twice
    slope_a, norms_a = check_residual_scaling(Run(single_cfg, coarse_policy, gp, p_norms=(1.01,)),
                                              [1e-2, 1e-3, 1e-4])[1.01]
    slope_b, norms_b = check_residual_scaling(Run(single_cfg, coarse_policy, gp, p_norms=(1.01,)),
                                              [1e-2, 1e-3, 1e-4])[1.01]
    assert slope_a == slope_b
    assert norms_a == norms_b


def test_expansion_two_bubble_positive_slope(two_cfg, gp, coarse_policy):
    slope, _ = check_expansion(Run(two_cfg, coarse_policy, gp), [1e-2, 1e-3, 1e-4])
    assert slope > 0.3

"""Acceptance suite: every quantitative exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s and in the
captured output summary); the asserts carry the same conditions.
"""

import math
import time

import numpy as np
import pytest

from sinhpierce.coeffs import (
    BlowupConfig,
    choose_scales,
    constant_potential,
    constraint_deviation,
    solve_beta,
)
from sinhpierce.corrector import Run, continuation_sweep, farfield_error
from sinhpierce.geometry import DomainSpec, MeshPolicy
from sinhpierce.greens import AnalyticDiskGreen, GreenProvider, NumericGreen
from sinhpierce.operators import EIG_FLOOR
from sinhpierce.verify import (
    check_integral_identities,
    check_kernel_annihilation,
    check_operator_bound,
    decreasing,
)

RHO_SWEEP = [1e-2, 1e-3, 1e-4]
POLICY = MeshPolicy(h=0.02, q=1.3)


def _report(num, passed, text):
    print(f"ACCEPTANCE {num:2d} {'PASS' if passed else 'FAIL'}: {text}")
    return passed


@pytest.fixture(scope="module")
def disk():
    return DomainSpec()


@pytest.fixture(scope="module")
def gp(disk):
    return GreenProvider(disk)


@pytest.fixture(scope="module")
def single_cfg(disk):
    return BlowupConfig(domain=disk, centers=[[0.0, 0.0]], alphas=[3.0], m1=1, tau=1.0,
                        V1=constant_potential(1.0), V2=constant_potential(1.0))


@pytest.fixture(scope="module")
def two_cfg(disk):
    return BlowupConfig(domain=disk, centers=[[-0.4, 0.0], [0.4, 0.0]],
                        alphas=[3.0, 3.0], m1=1, tau=1.0,
                        V1=constant_potential(1.0), V2=constant_potential(1.0))


@pytest.fixture(scope="module")
def single_run(single_cfg, gp):
    return Run(single_cfg, POLICY, gp)


@pytest.fixture(scope="module")
def sweep_single(single_run):
    return continuation_sweep(single_run, RHO_SWEEP)


@pytest.fixture(scope="module")
def sweep_two(two_cfg, gp):
    return continuation_sweep(Run(two_cfg, POLICY, gp), RHO_SWEEP)


def test_criterion_1_green_fidelity(disk):
    t0 = time.time()
    an = AnalyticDiskGreen(disk)
    rng = np.random.default_rng(42)
    pairs = []
    while len(pairs) < 100:
        x = rng.uniform(-0.8, 0.8, 2)
        y = rng.uniform(-0.8, 0.8, 2)
        if np.hypot(*x) < 0.8 and np.hypot(*y) < 0.8 and np.hypot(*(x - y)) > 0.05:
            pairs.append((x, y))
    stats = {}
    for h in (0.02, 0.01):
        num = NumericGreen(disk, h=h)
        errs = np.array([abs(num.green(x, y) - an.green(x, y)) for x, y in pairs])
        stats[h] = (errs.max(), errs.mean())
    elapsed = time.time() - t0
    max_err = stats[0.02][0]
    ratio = stats[0.02][1] / stats[0.01][1]
    ok = max_err <= 1e-3 and 3.5 <= ratio <= 4.5 and elapsed <= 60
    assert _report(1, ok, f"green fidelity: max err {max_err:.2e} <= 1e-3, "
                          f"halving ratio {ratio:.2f} in [3.5, 4.5], {elapsed:.1f}s")
    assert max_err <= 1e-3
    assert 3.5 <= ratio <= 4.5
    assert elapsed <= 60


def test_criterion_2_integral_identities():
    t0 = time.time()
    results = check_integral_identities(alphas=(2.5, 3.0, 3.7), rtol=1e-8)
    elapsed = time.time() - t0
    worst = max(r.measured for r in results)
    ok = all(r.passed for r in results) and elapsed <= 1.0
    assert _report(2, ok, f"kernel integrals at alpha in (2.5, 3, 3.7): "
                          f"worst rel err {worst:.2e} <= 1e-8, {elapsed:.2f}s")
    assert all(r.passed for r in results)
    assert elapsed <= 1.0


def test_criterion_3_kernel_annihilation():
    t0 = time.time()
    res = check_kernel_annihilation(3.0, resolution=1e-3, tol=1e-4)
    elapsed = time.time() - t0
    ok = res.passed and elapsed <= 10
    assert _report(3, ok, f"kernel annihilation at patch resolution 1e-3: "
                          f"rel residual {res.measured:.2e} <= 1e-4, {elapsed:.1f}s")
    assert res.passed
    assert elapsed <= 10


def test_criterion_4_coefficient_constraint(single_cfg, two_cfg, gp):
    t0 = time.time()
    rhos = [1e-2, 1e-3, 1e-4, 1e-5]
    devs = []
    for rho in rhos:
        scales = choose_scales(two_cfg, rho, gp)
        beta = solve_beta(two_cfg, scales, gp)
        devs.append(float(constraint_deviation(two_cfg, beta).max()))
    # the scale choice satisfies the constraint to rounding at every rho,
    # so the sequence is flat at machine noise: monotone within that floor
    mono = decreasing(devs, floor=1e-12)
    final_ok = devs[-1] <= 1e-2
    # single-bubble case is exact as well
    s1 = choose_scales(single_cfg, 1e-5, gp)
    d1 = float(constraint_deviation(single_cfg, solve_beta(single_cfg, s1, gp)).max())
    elapsed = time.time() - t0
    ok = mono and final_ok and d1 <= 1e-12 and elapsed <= 1.0
    assert _report(4, ok, f"matching constraint: deviations {['%.1e' % d for d in devs]}"
                          f" non-increasing (floor 1e-12), final {devs[-1]:.1e} <= 1e-2,"
                          f" {elapsed:.2f}s")
    assert mono and final_ok
    assert d1 <= 1e-12
    assert elapsed <= 1.0


def test_criterion_5_residual_scaling(sweep_single):
    sigma = sweep_single.sigma_fits[1.01]
    floor = 0.5 * (1.0 / 3.0)
    ok = sigma >= floor
    assert _report(5, ok, f"residual scaling: fitted slope {sigma:.3f} >= {floor:.3f} "
                          f"(half of min(1/alpha))")
    assert sigma >= floor


def test_criterion_6_operator_bound(single_run, sweep_single):
    t0 = time.time()
    per_log_rho = [check_operator_bound(single_run, rho, trials=10, seed=7)
                   / abs(math.log(rho)) for rho in RHO_SWEEP]
    elapsed = time.time() - t0
    spread = max(per_log_rho) / min(per_log_rho)
    # no operator of the sweep sits at resonance
    resonant = [r.rho for r in sweep_single.reports
                if not abs(r.smallest_eigenvalue) >= EIG_FLOOR]
    ok = spread <= 10.0 and not resonant
    assert _report(6, ok, f"solver bound: amplification/|log rho| spread "
                          f"{spread:.2f} <= 10 over the decade, {elapsed:.1f}s; "
                          f"|smallest eigenvalue| >= {EIG_FLOOR:g} at every rho")
    assert spread <= 10.0
    assert resonant == []


def test_criterion_7_contraction_and_solution(sweep_single, single_run, newton):
    reports = sweep_single.reports
    conv = all(r.status == "converged" and r.iterations <= 50 for r in reports)
    factors = all(r.max_contraction_factor < 1.0 for r in reports)
    residuals = all(r.relative_residual <= 1e-6 for r in reports)
    sups = [r.phi_sup for r in reports]
    sup_dec = all(b < a for a, b in zip(sups, sups[1:]))

    agree = 0.0
    for rho, sol in zip(RHO_SWEEP, sweep_single.solutions):
        sol_n = newton(single_run, rho)
        assert sol_n.converged
        agree = max(agree, float(np.abs(sol_n.u - sol.u.values).max()))
    ok = conv and factors and residuals and sup_dec and agree <= 1e-8
    assert _report(7, ok, f"contraction: converged at all rho, factor < 1, "
                          f"residual <= 1e-6, phi_sup {['%.1e' % s for s in sups]} "
                          f"decreasing, solver agreement {agree:.1e} <= 1e-8")
    assert conv and factors and residuals and sup_dec
    assert agree <= 1e-8


def test_criterion_8_farfield_profile(single_run, sweep_single, gp):
    errs = [farfield_error(single_run, sol.u, [(0.5, 0.0)]) for sol in sweep_single.solutions]
    target = 10 * math.pi * gp.green((0.5, 0.0), (0.0, 0.0))
    dec = all(b < a for a, b in zip(errs, errs[1:]))
    final_ok = errs[-1] <= 0.2
    peaks = [r.peaks[0] for r in sweep_single.reports]
    grow = all(b > a for a, b in zip(peaks, peaks[1:]))
    ok = dec and final_ok and grow
    assert _report(8, ok, f"far field at (0.5,0): target {target:.4f}, errors "
                          f"{['%.1e' % e for e in errs]} decreasing, final <= 0.2; "
                          f"peaks {['%.2f' % p for p in peaks]} increasing")
    assert dec and final_ok and grow


def test_criterion_9_kernel_coefficient_vanishing(sweep_single, sweep_two):
    ok = True
    detail = []
    for name, sweep in (("single", sweep_single), ("two", sweep_two)):
        m = len(sweep.reports[0].kernel_coefficients)
        for j in range(m):
            aj = [abs(r.kernel_coefficients[j]) for r in sweep.reports]
            ok = ok and all(b < a for a, b in zip(aj, aj[1:]))
            detail.append(f"{name}[{j + 1}]: " + ">".join(f"{v:.1e}" for v in aj))
    assert _report(9, ok, "kernel coefficients decrease across the sweep: "
                          + "; ".join(detail))
    assert ok


def test_criterion_10_mixed_sign_structure(sweep_two):
    reports = sweep_two.reports
    conv = all(r.status == "converged" for r in reports)
    signs = all(r.inner_sign_ok for r in reports)
    # peak list stores the signed magnitude: positive on the first annulus,
    # and for the negative bubble the recorded value is max of -u
    mags = all(min(r.peaks) > 0 for r in reports)
    ok = conv and signs and mags
    assert _report(10, ok, "mixed-sign pair: positive inner region at hole 1, "
                           "negative at hole 2, at every swept rho")
    assert ok

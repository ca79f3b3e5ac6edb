import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinhpierce.coeffs import (
    BlowupConfig,
    beta_leading_term,
    choose_scales,
    coefficient_set,
    compute_rho_i,
    constant_potential,
    constraint_combination,
    constraint_deviation,
    dominance_threshold,
    dump_csv,
    solve_beta,
    solve_gamma,
)
from sinhpierce.errors import ConstraintViolation, NonpositivePotentialAtCenter

TWO_PI = 2 * math.pi


def test_config_validation(disk):
    with pytest.raises(ValueError):
        BlowupConfig(domain=disk, centers=[[0, 0]], alphas=[4.0], m1=1)
    with pytest.raises(ValueError):
        BlowupConfig(domain=disk, centers=[[0, 0]], alphas=[1.5], m1=1)
    with pytest.raises(ValueError):
        BlowupConfig(domain=disk, centers=[[0, 0]], alphas=[3.0], m1=2)
    with pytest.raises(ValueError):
        BlowupConfig(domain=disk, centers=[[0, 0]], alphas=[3.0], m1=1, tau=-1.0)


def test_config_violations_are_named(disk):
    # the one validation path: each assumption raises ConstraintViolation by name
    cases = [({"alphas": [1.5]}, "alpha must exceed 2 (alpha_1 = 1.5)"),
             ({"alphas": [3.0, 4.0], "centers": [[0, 0], [0.5, 0]]}, "even integer (alpha_2"),
             ({"m1": 2}, "m1 must lie in 0..1 (m1 = 2)"),
             ({"tau": 0.0}, "tau must be positive (tau = 0.0)")]
    for override, text in cases:
        kw = dict(domain=disk, centers=[[0, 0]], alphas=[3.0], m1=1)
        kw.update(override)
        with pytest.raises(ConstraintViolation) as exc:
            BlowupConfig(**kw)
        assert text in str(exc.value)


def test_rho_i_centered_single(single_cfg, gp):
    # H(0,0) = 0 on the unit disk, so the interaction exponent vanishes
    assert compute_rho_i(single_cfg, gp)[0] == pytest.approx(0.0, abs=1e-14)


def test_rho_i_two_bubble_formula(two_cfg, gp):
    # i = 1 (positive group): (a+2) H(xi1,xi1) - (a+2)/tau G(xi1,xi2)
    want = 5 * gp.robin_H((-0.4, 0), (-0.4, 0)) - 5 * gp.green((-0.4, 0), (0.4, 0))
    got = compute_rho_i(two_cfg, gp)
    assert got[0] == pytest.approx(want, rel=1e-13)
    # symmetric configuration: both exponents coincide
    assert got[1] == pytest.approx(got[0], rel=1e-13)


def test_rho_i_group_swap_symmetry(disk, gp):
    # exchanging the groups (with tau = 1) mirrors the formulas
    a = BlowupConfig(domain=disk, centers=[[-0.3, 0.1], [0.2, 0.2]], alphas=[3.0, 2.5],
                     m1=1, tau=1.0, V1=constant_potential(1.0), V2=constant_potential(1.0))
    b = BlowupConfig(domain=disk, centers=[[0.2, 0.2], [-0.3, 0.1]], alphas=[2.5, 3.0],
                     m1=1, tau=1.0, V1=constant_potential(1.0), V2=constant_potential(1.0))
    ra = compute_rho_i(a, gp)
    rb = compute_rho_i(b, gp)
    assert ra[0] == pytest.approx(rb[1], rel=1e-13)
    assert ra[1] == pytest.approx(rb[0], rel=1e-13)


def test_scales_centered_example(single_cfg, gp):
    s = choose_scales(single_cfg, 1e-3, gp)
    assert s.d[0] == pytest.approx(1 / 18, rel=1e-14)
    assert s.delta[0] == pytest.approx((1e-3 / 18) ** (1 / 3), rel=1e-14)
    assert s.eps[0] == pytest.approx((1e-3 / 18) ** 2, rel=1e-13)


def test_scales_nonpositive_potential(disk, gp):
    cfg = BlowupConfig(domain=disk, centers=[[0, 0]], alphas=[3.0], m1=1,
                       V1=constant_potential(0.0), V2=constant_potential(1.0))
    with pytest.raises(NonpositivePotentialAtCenter):
        choose_scales(cfg, 1e-3, gp)


@given(alpha=st.floats(2.05, 6.0).filter(lambda a: abs(a - round(a / 2) * 2) > 1e-3),
       log_rho=st.floats(-14, -1), v=st.floats(0.1, 10.0), tau=st.floats(0.2, 5.0),
       x=st.floats(-0.5, 0.5))
@settings(max_examples=60, deadline=None)
def test_scale_identities_exact(gp, disk, alpha, log_rho, v, tau, x):
    rho = math.exp(log_rho)
    cfg = BlowupConfig(domain=disk, centers=[[x, 0.1]], alphas=[alpha], m1=1, tau=tau,
                       V1=constant_potential(v), V2=constant_potential(v))
    s = choose_scales(cfg, rho, gp)
    # defining identities hold to relative rounding
    assert s.delta[0] ** alpha == pytest.approx(s.d[0] * rho, rel=1e-12)
    # the hole-radius rule is kept exactly in log space (eps itself can
    # underflow for alpha near 2)
    assert (alpha - 2) / 2 * s.log_eps[0] == pytest.approx(
        math.log(s.r[0] * rho), rel=1e-12)
    if s.eps[0] > 1e-280:
        assert s.eps[0] ** ((alpha - 2) / 2) == pytest.approx(s.r[0] * rho, rel=1e-12)
    assert s.r[0] == pytest.approx(s.d[0] * math.exp(-math.pi * s.rho_i[0]), rel=1e-12)
    # matching identity: 2 a^2 delta^a = rho V e^{2 pi rho_i}
    assert 2 * alpha ** 2 * s.delta_pow[0] == pytest.approx(
        rho * v * math.exp(2 * math.pi * s.rho_i[0]), rel=1e-12)
    # equivalent numerator form of the radius rule
    assert s.r[0] == pytest.approx(v * math.exp(math.pi * s.rho_i[0]) / (2 * alpha ** 2),
                                   rel=1e-12)


def test_beta_one_by_one_formula(single_cfg, gp):
    s = choose_scales(single_cfg, 1e-3, gp)
    beta = solve_beta(single_cfg, s, gp)
    want = 4 * math.pi * 3 * math.log(s.delta[0]) / math.log(s.eps[0])
    assert beta[0, 0] == pytest.approx(want, rel=1e-13)
    # for the centered disk the scale choice makes this exactly 2 pi (alpha - 2)
    assert beta[0, 0] == pytest.approx(TWO_PI, rel=1e-13)


def test_beta_leading_term_remainder_decay(two_cfg, gp):
    # beta - leading Kronecker part shrinks like 1/|log eps|
    products = []
    for rho in (1e-2, 1e-4, 1e-6):
        s = choose_scales(two_cfg, rho, gp)
        beta = solve_beta(two_cfg, s, gp)
        dev = np.abs(beta - beta_leading_term(two_cfg, s)).max()
        products.append(dev * abs(math.log(s.eps.max())))
    assert max(products) / min(products) <= 1.2
    devs = []
    for rho in (1e-2, 1e-4, 1e-6):
        s = choose_scales(two_cfg, rho, gp)
        beta = solve_beta(two_cfg, s, gp)
        devs.append(np.abs(beta - beta_leading_term(two_cfg, s)).max())
    slope = np.polyfit(np.log([abs(math.log(choose_scales(two_cfg, r, gp).eps.max()))
                               for r in (1e-2, 1e-4, 1e-6)]), np.log(devs), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.15)


def test_constraint_combination_exact_under_scale_choice(two_cfg, gp):
    # the scale rule satisfies the matching constraint to machine precision
    for rho in (1e-2, 1e-3, 1e-4, 1e-5):
        s = choose_scales(two_cfg, rho, gp)
        beta = solve_beta(two_cfg, s, gp)
        dev = constraint_deviation(two_cfg, beta)
        assert dev.max() <= 1e-12
        comb = constraint_combination(two_cfg, beta)
        assert comb[0] == pytest.approx(TWO_PI, rel=1e-12)
        assert comb[1] == pytest.approx(TWO_PI, rel=1e-12)


def test_constraint_combination_asymmetric_config(disk, gp):
    cfg = BlowupConfig(domain=disk, centers=[[-0.4, 0.1], [0.35, -0.2]],
                       alphas=[3.0, 2.5], m1=1, tau=2.0,
                       V1=constant_potential(1.3), V2=constant_potential(0.7))
    s = choose_scales(cfg, 1e-4, gp)
    beta = solve_beta(cfg, s, gp)
    assert constraint_deviation(cfg, beta).max() <= 1e-12


def test_beta_off_diagonal_vanishes(two_cfg, gp):
    ratios = []
    for rho in (1e-3, 1e-6):
        s = choose_scales(two_cfg, rho, gp)
        beta = solve_beta(two_cfg, s, gp)
        ratios.append(abs(beta[0, 1]) / abs(beta[0, 0]))
    assert ratios[1] < ratios[0]


def test_beta_system_residual(two_cfg, gp):
    from sinhpierce.coeffs import _beta_matrix
    from sinhpierce.greens import green_pair_table

    s = choose_scales(two_cfg, 1e-3, gp)
    beta = solve_beta(two_cfg, s, gp)
    H, G = green_pair_table(gp, two_cfg.centers)
    A = _beta_matrix(H, G, s.log_eps)
    # row i solves A beta_i = rhs_i; rebuild the rhs and compare
    for i in range(2):
        lhs = A @ beta[i]
        rhs = np.empty(2)
        for j in range(2):
            rhs[j] = -4 * math.pi * 3 * H[i, j]
            rhs[j] += 2 * 3 * (math.log(s.delta[i]) if i == j else math.log(0.8))
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() <= 1e-10


def test_gamma_one_by_one(single_cfg, gp):
    s = choose_scales(single_cfg, 1e-3, gp)
    gamma, gamma_tilde, gamma_star = solve_gamma(single_cfg, s, gp)
    assert gamma[0, 0] == pytest.approx(-4 * math.pi / math.log(s.eps[0]), rel=1e-13)
    want_t = ((4 / 3) * 3 * math.log(s.delta[0]) + 8 / 3) \
        / (-math.log(s.eps[0]) / TWO_PI)
    assert gamma_tilde[0, 0] == pytest.approx(want_t, rel=1e-13)


def test_gamma_star_identity(two_cfg, gp):
    # the quotient satisfies its rearranged fixed-point identity
    from sinhpierce.greens import green_pair_table

    s = choose_scales(two_cfg, 1e-3, gp)
    gamma, gamma_tilde, gamma_star = solve_gamma(two_cfg, s, gp)
    H, G = green_pair_table(gp, two_cfg.centers)
    for j in range(2):
        g = gamma_star[j]
        rhs = ((8 * math.pi / 3) * 3 - gamma_tilde[j, j] + gamma[j, j] * g) * H[j, j] \
            - sum((gamma_tilde[i, j] - g * gamma[i, j]) * G[i, j]
                  for i in range(2) if i != j) \
            + (gamma_tilde[j, j] - g * gamma[j, j]) * math.log(s.delta[j]) / TWO_PI
        assert g == pytest.approx(rhs, rel=1e-10)


def test_gamma_asymptotics(single_cfg, gp):
    rhos = [1e-6, 1e-5, 1e-4, 1e-3]
    stars, gammas, tildes = [], [], []
    for rho in rhos:
        s = choose_scales(single_cfg, rho, gp)
        gamma, gamma_tilde, gamma_star = solve_gamma(single_cfg, s, gp)
        stars.append(gamma_star[0])
        gammas.append(gamma[0, 0])
        tildes.append(gamma_tilde[0, 0])
    # gamma* ~ -((alpha-2)/3) log rho: slope within 5 percent
    slope = np.polyfit(np.log(rhos), stars, 1)[0]
    assert abs(slope - (-(3 - 2) / 3)) <= 0.05 / 3
    # gamma_tilde -> -(4 pi/3)(alpha-2)
    assert tildes[0] == pytest.approx(-(4 * math.pi / 3), rel=0.15)
    # gamma ~ -2 pi (alpha-2)/log rho
    assert gammas[0] * math.log(rhos[0]) == pytest.approx(-TWO_PI, rel=0.2)


def test_gamma_star_slope_two_bubble(two_cfg, gp):
    rhos = [1e-6, 1e-5, 1e-4, 1e-3]
    stars = []
    for rho in rhos:
        s = choose_scales(two_cfg, rho, gp)
        stars.append(solve_gamma(two_cfg, s, gp)[2])
    slopes = np.polyfit(np.log(rhos), np.asarray(stars), 1)[0]
    for sl in slopes:
        assert abs(sl - (-1 / 3)) / (1 / 3) <= 0.05


def test_diagonal_dominance_threshold(two_cfg, gp):
    thr = dominance_threshold(two_cfg, gp)
    assert thr > 0
    s = choose_scales(two_cfg, thr * 0.5, gp)
    cs = coefficient_set(two_cfg, s, gp)
    assert cs.diagonally_dominant


def test_coefficient_set_and_csv(tmp_path, two_cfg, gp):
    s = choose_scales(two_cfg, 1e-3, gp)
    cs = coefficient_set(two_cfg, s, gp)
    paths = dump_csv(cs, str(tmp_path / "co"))
    assert len(paths) == 4
    lines = open(paths[0]).read().strip().splitlines()
    assert lines[0] == "row,col,value"
    assert len(lines) == 1 + 4  # 2x2 matrix


def test_pair_table_built_once_per_provider_and_centers(two_cfg, monkeypatch):
    # every choose_scales and coefficient_set of a sweep reads one table:
    # three H evaluations for two centers, however many rho; it is read-only
    from sinhpierce.greens import GreenProvider, green_pair_table

    gp = GreenProvider(two_cfg.domain)
    calls = []
    real = gp.robin_H

    def counting(x, y):
        calls.append((tuple(x), tuple(y)))
        return real(x, y)

    monkeypatch.setattr(gp, "robin_H", counting)
    for rho in (1e-2, 1e-3, 1e-4):
        coefficient_set(two_cfg, choose_scales(two_cfg, rho, gp), gp)
    assert len(calls) == 3
    H, G = green_pair_table(gp, two_cfg.centers)
    assert green_pair_table(gp, two_cfg.centers.copy())[0] is H
    assert not H.flags.writeable and not G.flags.writeable
    # another provider or another layout gets its own
    assert green_pair_table(GreenProvider(two_cfg.domain), two_cfg.centers)[0] is not H
    green_pair_table(gp, two_cfg.centers[::-1])
    assert len(calls) == 6

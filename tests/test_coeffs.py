import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sinhpierce.coeffs as coeffs_mod
from sinhpierce.coeffs import (
    BlowupConfig,
    _beta_matrix,
    _dominant,
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
from sinhpierce.errors import ConstraintViolation, NonpositiveSampled, SingularSystem
from sinhpierce.geometry import DomainSpec
from sinhpierce.greens import GreenProvider
from sinhpierce.potentials import parse_potential

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
             ({"tau": 0.0}, "tau must be positive (tau = 0.0)"),
             ({"centers": [[0, 0], [0.5, 0]]}, "2 centers but 1 alphas")]
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
    want = 5 * gp.robin_H_many(np.atleast_2d((-0.4, 0)), (-0.4, 0))[0] \
        - 5 * gp.green((-0.4, 0), (0.4, 0))
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
    # d_1 = 1 / 18 at the center, where rho_1 = 0
    assert s.delta_pow[0] == pytest.approx(1e-3 / 18, rel=1e-14)
    assert s.delta[0] == pytest.approx((1e-3 / 18) ** (1 / 3), rel=1e-14)
    assert s.eps[0] == pytest.approx((1e-3 / 18) ** 2, rel=1e-13)


def test_scales_out_of_range_without_warnings(disk, gp):
    # tau = 1e-3 scales the negative hole's Green term in rho_1 by 1/tau:
    # exp(2 pi rho_1) underflows, so d_1 = 0, and eps_1 is nan; that is left
    # to check_radii, with no RuntimeWarning on the way (pytest makes them errors)
    cfg = BlowupConfig(domain=disk, centers=[[0.3, 0.2], [-0.3, 0.2]], alphas=[3.0, 3.0],
                       m1=1, tau=1e-3, V1=constant_potential(1.0), V2=constant_potential(1.0))
    s = choose_scales(cfg, 1e-2, gp)
    assert s.delta[0] == 0 and s.log_delta[0] == -np.inf
    assert math.isnan(s.eps[0]) and math.isnan(s.log_eps[0])
    assert 0 < s.eps[1] < 1


def test_scales_nonpositive_potential(disk, gp):
    cfg = BlowupConfig(domain=disk, centers=[[0, 0]], alphas=[3.0], m1=1,
                       V1=constant_potential(0.0), V2=constant_potential(1.0))
    with pytest.raises(NonpositiveSampled,
                       match=r"^V1 is not positive: value 0 at hole 1 center \(0, 0\)$"):
        choose_scales(cfg, 1e-3, gp)


@pytest.mark.parametrize("m1, name", [(1, "V1"), (0, "V2")])
@pytest.mark.parametrize("text", ["1 + 1/x^2", "log(x^2 + y^2)^2", "0/x"])
def test_scales_reject_a_potential_not_finite_at_a_center(disk, gp, m1, name, text):
    # the potentials' one rule at the centers: nan is not positive, inf not
    # finite, and the division's floating warning does not escape
    V, one = parse_potential(text), constant_potential(1.0)
    cfg = BlowupConfig(domain=disk, centers=[[0, 0]], alphas=[3.0], m1=m1,
                       V1=V if m1 else one, V2=one if m1 else V)
    error, message = ((NonpositiveSampled, rf"{name} is not positive: value nan")
                      if text == "0/x" else
                      (ConstraintViolation,
                       rf"potential assumption violated: {name} must be finite \(value inf"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=rf"^{message} at hole 1 center \(0, 0\)\)?$"):
            choose_scales(cfg, 1e-3, gp)


@pytest.mark.parametrize("m1, name", [(1, "V2"), (0, "V1")])
def test_scales_need_the_unused_potential_finite_at_a_center(disk, gp, m1, name):
    # hole 2's center (0, 0) takes the potential hole 1 does not use: it must
    # be finite there too, as at every sample and node
    V, one = parse_potential("1 + 1/x^2"), constant_potential(1.0)
    cfg = BlowupConfig(domain=disk, centers=[[0.5, 0], [0, 0]], alphas=[3.0, 3.0], m1=m1,
                       V1=one if m1 else V, V2=V if m1 else one)
    with pytest.raises(ConstraintViolation, match=rf"^potential assumption violated: {name} "
                                                  r"must be finite \(value inf at hole 2 center"):
        choose_scales(cfg, 1e-3, gp)


@pytest.mark.parametrize("m1, name", [(1, "V2"), (0, "V1")])
def test_scales_need_the_unused_potential_nonnegative_at_a_center(disk, gp, m1, name):
    # the paper sets the potential a sign split does not use to 0: 0 passes,
    # a value below 0 is named, however small
    def config(unused):
        one, low = constant_potential(1.0), constant_potential(unused)
        return BlowupConfig(domain=disk, centers=[[0, 0]], alphas=[3.0], m1=m1,
                            V1=one if m1 else low, V2=low if m1 else one)

    choose_scales(config(0.0), 1e-3, gp)
    with pytest.raises(NonpositiveSampled,
                       match=rf"^{name} is negative: value -1e-09 at hole 1 center \(0, 0\)$"):
        choose_scales(config(-1e-9), 1e-3, gp)


def _rho_i_written_out(cfg, gp):
    """compute_rho_i with the sign split spelled out by m1 and tau."""
    H, G = gp.pair_table(cfg.centers)
    a, m, m1, tau = cfg.alphas, cfg.m, cfg.m1, cfg.tau
    out = np.zeros(m)
    for i in range(m):
        v = (a[i] + 2) * H[i, i]
        for j in range(m):
            if j == i:
                continue
            w = (a[j] + 2) * G[i, j]
            if i < m1:
                v += w if j < m1 else -w / tau
            else:
                v += -tau * w if j < m1 else w
        out[i] = v
    return out


def _combination_written_out(cfg, beta):
    """constraint_combination with the sign split spelled out by m1 and tau."""
    m, m1, tau = cfg.m, cfg.m1, cfg.tau
    out = np.zeros(m)
    for i in range(m):
        pos = sum(beta[j, i] for j in range(m1))
        neg = sum(beta[j, i] for j in range(m1, m))
        out[i] = pos - neg / tau if i < m1 else -tau * pos + neg
    return out


@pytest.mark.parametrize("tau", [0.3, 1.0, 7.0])
@pytest.mark.parametrize("m1", [0, 1, 2, 3])
def test_sign_split_readers_equal_the_written_out_split(disk, gp, m1, tau):
    # compute_rho_i and constraint_combination read the split from
    # BlowupConfig; the bits are those of the split spelled out
    cfg = BlowupConfig(domain=disk, centers=[[0.3, 0.2], [-0.4, 0.1], [0.05, -0.5]],
                       alphas=[3.0, 3.5, 5.2], m1=m1, tau=tau,
                       V1=constant_potential(1.3), V2=constant_potential(0.7))
    assert np.array_equal(compute_rho_i(cfg, gp), _rho_i_written_out(cfg, gp))
    betas = [solve_beta(cfg, choose_scales(cfg, rho, gp), gp) for rho in (1e-2, 1e-4)]
    betas += list(np.random.default_rng(m1).normal(size=(4, 3, 3)))
    betas.append(np.zeros((3, 3)))
    for beta in betas:
        got, want = constraint_combination(cfg, beta), _combination_written_out(cfg, beta)
        assert np.array_equal(np.signbit(got), np.signbit(want)) and np.array_equal(got, want)


@given(alpha=st.floats(2.05, 6.0).filter(lambda a: abs(a - round(a / 2) * 2) > 1e-3),
       log_rho=st.floats(-14, -1), v=st.floats(0.1, 10.0), tau=st.floats(0.2, 5.0),
       x=st.floats(-0.5, 0.5))
@settings(max_examples=60, deadline=None)
def test_scale_identities_exact(gp, disk, alpha, log_rho, v, tau, x):
    rho = math.exp(log_rho)
    cfg = BlowupConfig(domain=disk, centers=[[x, 0.1]], alphas=[alpha], m1=1, tau=tau,
                       V1=constant_potential(v), V2=constant_potential(v))
    s = choose_scales(cfg, rho, gp)
    rho_i = compute_rho_i(cfg, gp)[0]
    # the paper's d_1 = V(xi) e^{2 pi rho_1} / (2 a^2) and r_1 = d_1 e^{-pi rho_1}
    d = v * math.exp(2 * math.pi * rho_i) / (2 * alpha ** 2)
    r = d * math.exp(-math.pi * rho_i)
    # defining identities hold to relative rounding
    assert s.delta_pow[0] == pytest.approx(d * rho, rel=1e-12)
    assert s.delta[0] ** alpha == pytest.approx(d * rho, rel=1e-12)
    # the hole-radius rule is kept exactly in log space (eps itself can
    # underflow for alpha near 2)
    assert (alpha - 2) / 2 * s.log_eps[0] == pytest.approx(math.log(r * rho), rel=1e-12)
    if s.eps[0] > 1e-280:
        assert s.eps[0] ** ((alpha - 2) / 2) == pytest.approx(r * rho, rel=1e-12)
    # matching identity: 2 a^2 delta^a = rho V e^{2 pi rho_i}
    assert 2 * alpha ** 2 * s.delta_pow[0] == pytest.approx(
        rho * v * math.exp(2 * math.pi * rho_i), rel=1e-12)
    # equivalent numerator form of the radius rule
    assert (alpha - 2) / 2 * s.log_eps[0] == pytest.approx(
        math.log(v * math.exp(math.pi * rho_i) / (2 * alpha ** 2) * rho), rel=1e-12)


def test_beta_one_by_one_formula(single_cfg, gp):
    s = choose_scales(single_cfg, 1e-3, gp)
    beta = solve_beta(single_cfg, s, gp)
    want = 4 * math.pi * 3 * math.log(s.delta[0]) / math.log(s.eps[0])
    assert beta[0, 0] == pytest.approx(want, rel=1e-13)
    # for the centered disk the scale choice makes this exactly 2 pi (alpha - 2)
    assert beta[0, 0] == pytest.approx(TWO_PI, rel=1e-13)


def _beta_leading_term(cfg, s):
    """Kronecker-diagonal leading behaviour 4 pi alpha_i log(delta_i)/log(eps_i)."""
    return np.diag(4 * math.pi * cfg.alphas * s.log_delta / s.log_eps)


def test_beta_leading_term_remainder_decay(two_cfg, gp):
    # beta - leading Kronecker part shrinks like 1/|log eps|
    products = []
    for rho in (1e-2, 1e-4, 1e-6):
        s = choose_scales(two_cfg, rho, gp)
        beta = solve_beta(two_cfg, s, gp)
        dev = np.abs(beta - _beta_leading_term(two_cfg, s)).max()
        products.append(dev * abs(math.log(s.eps.max())))
    assert max(products) / min(products) <= 1.2
    devs = []
    for rho in (1e-2, 1e-4, 1e-6):
        s = choose_scales(two_cfg, rho, gp)
        beta = solve_beta(two_cfg, s, gp)
        devs.append(np.abs(beta - _beta_leading_term(two_cfg, s)).max())
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

    s = choose_scales(two_cfg, 1e-3, gp)
    beta = solve_beta(two_cfg, s, gp)
    H, G = gp.pair_table(two_cfg.centers)
    A = _beta_matrix(H, G, s.log_eps)
    # row i solves A beta_i = rhs_i; rebuild the rhs and compare
    for i in range(2):
        lhs = A @ beta[i]
        rhs = np.empty(2)
        for j in range(2):
            rhs[j] = -4 * math.pi * 3 * H[i, j]
            rhs[j] += 2 * 3 * (math.log(s.delta[i]) if i == j else math.log(0.8))
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() <= 1e-10


@pytest.mark.parametrize("solve, name, sign", [(solve_beta, "beta", 1.0),
                                               (solve_gamma, "gamma", -1.0)])
def test_rank_deficient_matching_matrix_is_singular(monkeypatch, two_cfg, gp, solve, name, sign):
    # the gamma system's matrix is the beta system's, negated
    monkeypatch.setattr(coeffs_mod, "_beta_matrix", lambda H, G, log_eps: np.ones((2, 2)))
    with pytest.raises(SingularSystem, match=rf"^{name} system ill conditioned \(cond ~ "):
        solve(two_cfg, choose_scales(two_cfg, 1e-3, gp), gp)


@pytest.mark.parametrize("scale, ratio", [(1 + 1e-6, r"1\.000e-06"), (math.nan, "nan")])
@pytest.mark.parametrize("solve, name", [(solve_beta, "beta"), (solve_gamma, "gamma")])
def test_matching_solve_refuses_a_perturbed_answer(monkeypatch, two_cfg, gp, solve, name,
                                                   scale, ratio):
    # a dense solve that scales its answer: a nan ratio is refused too
    scales = choose_scales(two_cfg, 1e-3, gp)
    exact = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda A, B: exact(A, B) * scale)
    with pytest.raises(SingularSystem, match=rf"^{name} system residual {ratio}$"):
        solve(two_cfg, scales, gp)


def test_gamma_one_by_one(single_cfg, gp):
    s = choose_scales(single_cfg, 1e-3, gp)
    gamma, gamma_tilde, gamma_star = solve_gamma(single_cfg, s, gp)
    assert gamma[0, 0] == pytest.approx(-4 * math.pi / math.log(s.eps[0]), rel=1e-13)
    want_t = ((4 / 3) * 3 * math.log(s.delta[0]) + 8 / 3) \
        / (-math.log(s.eps[0]) / TWO_PI)
    assert gamma_tilde[0, 0] == pytest.approx(want_t, rel=1e-13)


def test_gamma_star_identity(two_cfg, gp):
    # the quotient satisfies its rearranged fixed-point identity
    s = choose_scales(two_cfg, 1e-3, gp)
    gamma, gamma_tilde, gamma_star = solve_gamma(two_cfg, s, gp)
    H, G = gp.pair_table(two_cfg.centers)
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
    H, G = gp.pair_table(two_cfg.centers)
    assert _dominant(H, G, s.log_eps)


def test_dominance_threshold_bisects_to_the_switch(disk, gp):
    # a close positive pair: the matching systems stop being row dominant
    # above rho ~ 0.476, so the bisection, not its end points, answers
    cfg = BlowupConfig(domain=disk, centers=[[-0.15, 0.0], [0.15, 0.0]], alphas=[3.0, 3.0],
                       m1=2, tau=1.0, V1=constant_potential(1.0), V2=constant_potential(1.0))
    thr = dominance_threshold(cfg, gp)
    assert thr == pytest.approx(0.476, abs=1e-3)
    H, G = gp.pair_table(cfg.centers)
    assert _dominant(H, G, choose_scales(cfg, thr * (1 - 1e-6), gp).log_eps)
    assert not _dominant(H, G, choose_scales(cfg, thr * (1 + 1e-6), gp).log_eps)


def _gamma_matrix_reference(H, G, log_eps):
    """The gamma system's matrix, built entry by entry as the paper writes it."""
    m = len(log_eps)
    A = np.zeros((m, m))
    for i in range(m):
        A[i, i] = -log_eps[i] / TWO_PI + H[i, i]
        for k in range(m):
            if k != i:
                A[i, k] = G[k, i]
    return A


def test_gamma_matrix_is_the_negated_beta_matrix():
    # three holes in a square (numeric Green function), mixed signs, tau != 1
    square = DomainSpec("boundary-curve", [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]])
    cfg = BlowupConfig(domain=square, centers=[[-0.4, 0.0], [0.4, 0.1], [0.0, -0.45]],
                       alphas=[3.0, 2.5, 3.0], m1=2, tau=0.7,
                       V1=constant_potential(1.0), V2=constant_potential(1.0))
    gp = GreenProvider(square)
    H, G = gp.pair_table(cfg.centers)
    for rho in (1e-2, 1e-3, 1e-4):
        s = choose_scales(cfg, rho, gp)
        ref = _gamma_matrix_reference(H, G, s.log_eps)
        assert np.array_equal(-_beta_matrix(H, G, s.log_eps), ref), rho
        gamma = solve_gamma(cfg, s, gp)[0]
        assert gamma.tobytes() == np.linalg.solve(ref, 2.0 * np.eye(3)).tobytes(), rho


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
    # one backend H evaluation per center, however many rho; it is read-only
    from sinhpierce.greens import GreenProvider

    gp = GreenProvider(two_cfg.domain)
    calls = []
    real = gp._impl.robin_H_many

    def counting(points, y):
        calls.append((np.asarray(points).tolist(), tuple(y)))
        return real(points, y)

    monkeypatch.setattr(gp._impl, "robin_H_many", counting)
    for rho in (1e-2, 1e-3, 1e-4):
        coefficient_set(two_cfg, choose_scales(two_cfg, rho, gp), gp)
    assert len(calls) == 2
    H, G = gp.pair_table(two_cfg.centers)
    assert gp.pair_table(two_cfg.centers.copy())[0] is H
    assert not H.flags.writeable and not G.flags.writeable
    # another provider or another layout gets its own
    assert GreenProvider(two_cfg.domain).pair_table(two_cfg.centers)[0] is not H
    gp.pair_table(two_cfg.centers[::-1])
    assert len(calls) == 4

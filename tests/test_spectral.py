import math

import numpy as np
import pytest

from sinhpierce.corrector import Run, construct_solution, solution_value_at
from sinhpierce.geometry import MeshPolicy
from sinhpierce.spectral import RadialAnnulusSolver


def test_harmonic_solve_matches_exact_annulus_modes():
    s = RadialAnnulusSolver(1e-4, n_r=3000, n_theta=64)
    th = 2 * math.pi * np.arange(64) / 64
    # mode-2 harmonic with exact coefficients a r^2 + b r^-2
    eps = 1e-4
    a = (1.0 - 0.0) / (1.0 - eps ** 4)   # u(eps)=0 inner, u(1)=cos(2t) outer
    b = -a * eps ** 4
    u = s.solve_laplace(0.0, np.cos(2 * th))
    r = s.r
    exact = (a * r ** 2 + b * r ** -2)[:, None] * np.cos(2 * th)[None, :]
    assert np.abs(u - exact).max() <= 1e-6


def test_radial_log_lift_is_exact():
    s = RadialAnnulusSolver(1e-6, n_r=2000)
    w = s.bubble(3.0, 1e-3 / 18)
    P = s.project_bubble(3.0, 1e-3 / 18)
    assert abs(P[0]) <= 1e-10
    assert abs(P[-1]) <= 1e-10
    # the lift differs from w by exactly a + b log r
    lift = P - w
    t = s.t
    coef = np.polyfit(t, lift, 1)
    assert np.abs(lift - (coef[0] * t + coef[1])).max() <= 1e-10


def test_radial_quadrature_area():
    s = RadialAnnulusSolver(1e-5, n_r=4000)
    area = s.integrate(np.ones_like(s.r))
    assert area == pytest.approx(math.pi * (1 - 1e-10), rel=1e-5)


def test_radial_construct_converges():
    s = RadialAnnulusSolver((1e-3 / 18) ** 2, n_r=6000)
    u, phi, info = s.construct_radial(3.0, 1e-3)
    assert info["iterations"] <= 20
    assert info["phi_sup"] <= 1e-2
    # residual is measured with a finite-difference Laplacian, so it carries
    # the measurement's own truncation; compare against the data scale
    data_sup = np.abs(1e-3 * np.exp(u)).max()
    assert info["residual_sup"] <= 1e-2 * data_sup


def test_fem_pipeline_agrees_with_radial_backend(single_cfg, gp):
    # the composite-mesh solver and the log-radial backend solve the same
    # centered problem; compare the solutions away from the hole
    rho = 1e-3
    sol = construct_solution(Run(single_cfg, MeshPolicy(h=0.03), gp), rho)

    d = 1.0 / 18.0
    s = RadialAnnulusSolver((d * rho) ** 2, n_r=8192)
    U = s.project_bubble(3.0, d * rho)
    src = s.bubble_source(3.0, d * rho)
    R = -src + rho * (np.exp(U) - np.exp(-U))
    W = rho * (np.exp(U) + np.exp(-U))
    phi = np.zeros_like(U)
    for _ in range(30):
        N = rho * np.exp(U) * (np.expm1(phi) - phi) \
            - rho * np.exp(-U) * (np.expm1(-phi) + phi)
        new = s.solve_radial(W, -(R + N))
        if s.norm_h01(new - phi) < 1e-12 * max(1.0, s.norm_h01(new)):
            phi = new
            break
        phi = new
    u_radial = U + phi

    for rr in (0.01, 0.1, 0.5, 0.9):
        fem = solution_value_at(sol, (rr, 0.0))
        # evaluate the radial reference at the very node the FEM value sits on
        node = np.argmin(np.abs(np.hypot(*sol.mesh.nodes.T) - rr)
                         + (np.abs(sol.mesh.nodes[:, 1]) > 0.2) * 10)
        rr_node = math.hypot(*sol.mesh.nodes[node])
        ref = s.value_at(u_radial, rr_node)
        assert sol.u.values[node] == pytest.approx(ref, abs=5e-3)
    assert sol.report.phi_sup == pytest.approx(np.abs(phi).max(), abs=2e-3)

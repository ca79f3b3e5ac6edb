"""The composite-mesh pipeline against a high-accuracy radial reference.

RadialAnnulusSolver is a backend for the radially symmetric single-hole disk
case.

On the annulus eps < |x| < 1 around a centered hole, functions split into
Fourier modes in the angle, and each mode solves a two-point problem on a
grid uniform in t = log r (geometric in r).  In these variables the
Laplacian is exp(-2t) (d_tt - k^2), so the discretization is a clean
second-order scheme on a uniform grid no matter how small eps is.  The
tests check the reference itself, then the pipeline against it.
"""

import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

from sinhpierce.corrector import Run, construct_solution
from sinhpierce.errors import Diverged
from sinhpierce.geometry import MeshPolicy
from sinhpierce.operators import SUP_GUARD


class RadialAnnulusSolver:
    """Fourier-in-angle x log-radial grid on {eps < |x| < 1}."""

    def __init__(self, eps: float, n_r: int = 4096, n_theta: int = 256):
        if not 0 < eps < 1:
            raise ValueError("need 0 < eps < 1")
        self.eps = float(eps)
        self.n_r = n_r
        self.n_theta = n_theta
        self.t = np.linspace(math.log(eps), 0.0, n_r)
        self.r = np.exp(self.t)
        self.dt = self.t[1] - self.t[0]

    # -- single-mode two-point solves ---------------------------------------

    def _solve_mode(self, k, pot, rhs, g_in=0.0, g_out=0.0):
        """(d_tt - k^2 + e^{2t} pot) u = e^{2t} rhs with u at the ends given."""
        n = self.n_r
        dt2 = self.dt ** 2
        e2t = np.exp(2 * self.t)
        diag = -2.0 / dt2 - k * k + e2t * pot
        upper = np.full(n, 1.0 / dt2)
        lower = np.full(n, 1.0 / dt2)
        b = e2t * rhs
        # Dirichlet rows
        diag[0] = 1.0
        upper[1] = 0.0
        b[0] = g_in
        diag[-1] = 1.0
        lower[-2] = 0.0
        b[-1] = g_out
        ab = np.zeros((3, n))
        ab[0, 1:] = upper[1:]
        ab[1] = diag
        ab[2, :-1] = lower[:-1]
        return solve_banded((1, 1), ab, b)

    def solve_laplace(self, g_inner, g_outer) -> np.ndarray:
        """Harmonic function with the given boundary data; returns (n_r, n_theta).

        Scalars are treated as constant data.  Per-mode solutions are exact
        combinations of r^k and r^-k resolved by the same banded solver.
        """
        gi = np.broadcast_to(np.asarray(g_inner, dtype=float), (self.n_theta,))
        go = np.broadcast_to(np.asarray(g_outer, dtype=float), (self.n_theta,))
        gi_h = np.fft.rfft(gi) / self.n_theta
        go_h = np.fft.rfft(go) / self.n_theta
        zero_pot = np.zeros(self.n_r)
        zero_rhs = np.zeros(self.n_r)
        modes = np.empty((len(gi_h), self.n_r), dtype=complex)
        for k in range(len(gi_h)):
            re = self._solve_mode(k, zero_pot, zero_rhs, gi_h[k].real, go_h[k].real)
            im = self._solve_mode(k, zero_pot, zero_rhs, gi_h[k].imag, go_h[k].imag)
            modes[k] = re + 1j * im
        return np.fft.irfft(modes.T * self.n_theta, n=self.n_theta, axis=1)

    def solve_radial(self, pot_r, rhs_r) -> np.ndarray:
        """(Lap + pot) u = rhs for radial data with zero boundary values."""
        return self._solve_mode(0, np.asarray(pot_r, dtype=float),
                                np.asarray(rhs_r, dtype=float))

    # -- radial quadrature ---------------------------------------------------

    def integrate(self, f_r) -> float:
        """Integral over the annulus of a radial function (trapezoid in t)."""
        w = np.full(self.n_r, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return float(2 * math.pi * np.sum(w * np.exp(2 * self.t) * np.asarray(f_r)))

    def norm_lp(self, f_r, p) -> float:
        return self.integrate(np.abs(np.asarray(f_r)) ** p) ** (1.0 / p)

    def norm_h01(self, f_r) -> float:
        df = np.gradient(np.asarray(f_r), self.dt)
        w = np.full(self.n_r, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return float(math.sqrt(2 * math.pi * np.sum(w * df * df)))

    # -- centered single-bubble pipeline ------------------------------------

    def bubble(self, alpha, delta_pow):
        ra = self.r ** alpha
        return math.log(2 * alpha ** 2) + math.log(delta_pow) - 2 * np.log(delta_pow + ra)

    def bubble_source(self, alpha, delta_pow):
        ra = self.r ** alpha
        return np.exp(math.log(2 * alpha ** 2) + math.log(delta_pow)
                      + (alpha - 2) * np.log(self.r) - 2 * np.log(delta_pow + ra))

    def project_bubble(self, alpha, delta_pow):
        """Radial Dirichlet projection: w plus the exact harmonic lift a + b log r."""
        w = self.bubble(alpha, delta_pow)
        t0, t1 = self.t[0], self.t[-1]
        b = (-w[-1] + w[0]) / (t1 - t0)
        a = -w[0] - b * t0
        return w + a + b * self.t

    def construct_radial(self, alpha, rho, V1=1.0, tau=1.0, tol=1e-11, maxiter=60):
        """Centered positive single bubble: ansatz, Picard correction, solution.

        Returns (u_r, phi_r, info) with radial profiles on the grid; V2 is absent
        (the pure single-sign case), so the equation is Lap u + rho V1 e^u = 0.
        """
        d = V1 / (2 * alpha ** 2)
        delta_pow = d * rho
        U = self.project_bubble(alpha, delta_pow)
        src = self.bubble_source(alpha, delta_pow)
        lapU = -src
        R = lapU + rho * V1 * np.exp(U)
        W = rho * V1 * np.exp(U)
        phi = np.zeros(self.n_r)
        history = []
        for _ in range(maxiter):
            Nphi = rho * V1 * np.exp(U) * (np.expm1(phi) - phi)
            new = self.solve_radial(W, -(R + Nphi))
            upd = self.norm_h01(new - phi)
            history.append(upd)
            phi = new
            if np.abs(phi).max() > SUP_GUARD:
                raise Diverged("radial correction exceeded the overflow guard")
            if upd < tol * max(1.0, self.norm_h01(phi)):
                break
        u = U + phi
        lap_phi = np.zeros_like(phi)
        lap_phi[1:-1] = (phi[2:] - 2 * phi[1:-1] + phi[:-2]) / self.dt ** 2 \
            * np.exp(-2 * self.t[1:-1])
        res = lap_phi[1:-1] + lapU[1:-1] + rho * V1 * np.exp(u[1:-1])
        info = {"iterations": len(history), "updates": history,
                "phi_sup": float(np.abs(phi).max()),
                "residual_sup": float(np.abs(res).max())}
        return u, phi, info

    def value_at(self, f_r, radius) -> float:
        """Linear interpolation of a radial profile at the given radius."""
        return float(np.interp(math.log(radius), self.t, np.asarray(f_r)))


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

    nodes = sol.stage.mesh.nodes
    for rr in (0.01, 0.1, 0.5, 0.9):
        # evaluate the radial reference at the very node the FEM value sits on
        node = np.argmin(np.abs(np.hypot(*nodes.T) - rr) + (np.abs(nodes[:, 1]) > 0.2) * 10)
        rr_node = math.hypot(*nodes[node])
        ref = s.value_at(u_radial, rr_node)
        assert sol.u.values[node] == pytest.approx(ref, abs=5e-3)
    assert sol.report.phi_sup == pytest.approx(np.abs(phi).max(), abs=2e-3)

import threading
import types

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import sinhpierce.corrector as corrector_mod
import sinhpierce.geometry as geometry
from sinhpierce.coeffs import BlowupConfig, constant_potential
from sinhpierce.geometry import (
    DomainSpec,
    MeshPolicy,
    annulus_radius,
    build_mesh,
    check_radii,
    prefetch_background,
)
from sinhpierce.greens import GreenProvider
from sinhpierce.operators import Field, LinearOperator, get_ops, weight_W


def pierced_mesh(domain, centers, radii, policy):
    """The mesh of the domain pierced by holes of these radii at these
    centers, built as a Run builds it: the layout and radii checks, the
    background on its own thread, then build_mesh."""
    eta = annulus_radius(domain, centers)
    check_radii(radii, eta)
    return build_mesh(prefetch_background(domain, centers, eta, policy), radii)


def distance_to_boundary(domain, point):
    """Distance of one point to the domain boundary, negative outside."""
    p = np.asarray(point, dtype=float)[None, :]
    return float(geometry._signed_inside_distance(p, domain, domain.boundary)[0])


@pytest.fixture(autouse=True)
def drain_background_prefetch():
    """Wait, after each test, for any background build the test left
    running, so it does not run on into the next test's time."""
    yield
    for thread in threading.enumerate():
        if thread.name == "sinhpierce-background":
            thread.join(timeout=120)
            assert not thread.is_alive()


@pytest.fixture(scope="session")
def disk():
    return DomainSpec()


@pytest.fixture(scope="session")
def gp(disk):
    return GreenProvider(disk)


@pytest.fixture(scope="session")
def single_cfg(disk):
    return BlowupConfig(domain=disk, centers=[[0.0, 0.0]], alphas=[3.0], m1=1, tau=1.0,
                        V1=constant_potential(1.0), V2=constant_potential(1.0))


@pytest.fixture(scope="session")
def two_cfg(disk):
    return BlowupConfig(domain=disk, centers=[[-0.4, 0.0], [0.4, 0.0]],
                        alphas=[3.0, 3.0], m1=1, tau=1.0,
                        V1=constant_potential(1.0), V2=constant_potential(1.0))


@pytest.fixture(scope="session")
def coarse_policy():
    return MeshPolicy(h=0.045, q=1.3)


@pytest.fixture(scope="session")
def single_mesh(disk, coarse_policy):
    return pierced_mesh(disk, [[0.0, 0.0]], [1e-3], coarse_policy)


@pytest.fixture(scope="session")
def coarse_run(single_cfg, gp, coarse_policy):
    from sinhpierce.corrector import Run

    return Run(single_cfg, coarse_policy, gp)


@pytest.fixture(scope="session")
def coarse_solution(coarse_run):
    from sinhpierce.corrector import construct_solution

    return construct_solution(coarse_run, 1e-3)


@pytest.fixture(scope="session")
def newton():
    """Oracle: Newton's method on the discrete system the fixed point solves.

    newton(run, rho) starts from phi = 0 on rho's stage. Each step solves
    with the Jacobian Lap + W(U + phi) against the defect of U + phi; the
    iteration stops once an update falls below tol relative to the H1_0
    norm of the iterate, the fixed point's own rule. It returns the
    converged flag, u = U + phi and the update norms.
    """
    def solve(run, rho, tol=1e-10, maxiter=50):
        st = run.stage(rho)
        mesh, U, cfg, scales = st.mesh, st.U, run.cfg, st.scales
        ops = get_ops(mesh)
        phi = Field(mesh, np.zeros(mesh.n_nodes))
        updates = []
        for _ in range(maxiter):
            J = LinearOperator(mesh, weight_W(U.values + phi.values, st.V, cfg.tau, scales.rho))
            delta = J.solve(-corrector_mod._defect(phi, st, cfg))
            phi = Field(mesh, phi.values + delta.values)
            updates.append(ops.norm_h01(delta.values))
            if updates[-1] < tol * max(1.0, ops.norm_h01(phi.values)):
                return types.SimpleNamespace(converged=True, u=U.values + phi.values,
                                             updates_h01=updates)
        return types.SimpleNamespace(converged=False, u=None, updates_h01=updates)

    return solve


@pytest.fixture(scope="session")
def poisson():
    """Oracle: the Dirichlet Poisson problem with a source term.

    poisson(mesh, rhs) solves the lumped-mass system Lap u = rhs with u = 0
    on the boundary, from the mesh's stiffness matrix and weights, and
    returns u at the nodes.
    """
    def solve(mesh, rhs):
        ops = get_ops(mesh)
        b = -(ops.w * np.asarray(rhs, dtype=float))[ops.interior]
        u = np.zeros(mesh.n_nodes)
        u[ops.interior] = spla.spsolve(ops.K[np.ix_(ops.interior, ops.interior)].tocsc(), b)
        return u

    return solve

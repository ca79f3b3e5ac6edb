import threading

import pytest

from sinhpierce.coeffs import BlowupConfig, constant_potential
from sinhpierce.geometry import DomainSpec, MeshPolicy, PierceSpec, build_mesh, build_pierced_domain
from sinhpierce.greens import GreenProvider


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
    pd = build_pierced_domain(disk, PierceSpec(centers=[[0.0, 0.0]], radii=[1e-3]))
    return build_mesh(pd, coarse_policy)


@pytest.fixture(scope="session")
def coarse_run(single_cfg, gp, coarse_policy):
    from sinhpierce.corrector import Run

    return Run(single_cfg, coarse_policy, gp)


@pytest.fixture(scope="session")
def coarse_solution(coarse_run):
    from sinhpierce.corrector import construct_solution

    return construct_solution(coarse_run, 1e-3)

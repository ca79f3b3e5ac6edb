"""The equation's exact symmetries as oracles.

Sign-tau mirror: if u solves -Lap u = rho (V1 e^u - V2 e^(-tau u)) with the
first m1 holes positive, then -tau u solves it with (rho tau, 1/tau, V2, V1)
and the other holes positive, listed first. The construction follows the
mirror to rounding, on the same nodes, and the answer does not depend on the
order in which the holes are listed.

Scaling: x -> L x maps a solution on the domain to one on the scaled domain
(rho scaled by 1/L^2). With h and the hole radii scaled by L too, the mesh
keeps its node and triangle counts; a count that moved with L would show an
absolute length, such as a search margin, inside the mesh build.
"""

import numpy as np
import pytest

from sinhpierce import geometry
from sinhpierce.coeffs import BlowupConfig
from sinhpierce.corrector import Run, construct_solution
from sinhpierce.geometry import DomainSpec, MeshPolicy, annulus_radius
from sinhpierce.greens import GreenProvider

from conftest import pierced_mesh

SQUARE = DomainSpec("boundary-curve", [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]])
PAIR = [[0.4, 0.0], [-0.4, 0.1]]   # the first lexicographically larger


def v1(x, y):
    return 1 + 0.5 * np.asarray(y, dtype=float)


def v2(x, y):
    return np.exp(0.5 * np.asarray(x, dtype=float))


def _solve(domain, centers, alphas, m1, tau, V1, V2, rho):
    """Nodes and u of the construction at rho (h = 0.05), sorted by node."""
    cfg = BlowupConfig(domain=domain, centers=centers, alphas=alphas, m1=m1, tau=tau,
                       V1=V1, V2=V2)
    sol = construct_solution(Run(cfg, MeshPolicy(h=0.05)), rho)
    nodes = sol.stage.mesh.nodes
    order = np.lexsort((nodes[:, 1], nodes[:, 0]))
    return nodes[order], sol.u.values[order]


@pytest.mark.parametrize("domain, centers, alphas, m1, tau, V1, V2", [
    # the paper's two Liouville cases, each the other's mirror
    (DomainSpec(), [[0.3, 0.2]], [3.0], 0, 2.0, None, v2),
    (DomainSpec(), [[0.3, 0.2]], [3.0], 0, 0.5, None, v2),
    (DomainSpec(), PAIR, [3.0, 3.5], 1, 2.0, v1, v2),
    # numeric Green: the mirror lists the pair in the other order
    (SQUARE, PAIR, [3.0, 3.5], 1, 2.0, v1, v2),
], ids=["liouville-tau2", "liouville-tau0.5", "disk-pair", "square-pair"])
def test_sign_tau_mirror(domain, centers, alphas, m1, tau, V1, V2):
    rho = 1e-3
    nodes, u = _solve(domain, centers, alphas, m1, tau, V1, V2, rho)
    m = len(centers)
    perm = list(range(m1, m)) + list(range(m1))
    mirror_nodes, mirror_u = _solve(domain, [centers[i] for i in perm],
                                    [alphas[i] for i in perm], m - m1, 1 / tau, V2, V1,
                                    rho * tau)
    assert mirror_nodes.tobytes() == nodes.tobytes()
    assert np.abs(u + mirror_u / tau).max() <= 1e-9 * np.abs(u).max()


def test_pair_table_does_not_depend_on_the_hole_order():
    gp = GreenProvider(SQUARE)
    c = np.array([[0.4, 0.0], [-0.4, 0.1], [0.1, -0.3], [0.1, 0.5]])
    H, G = gp.pair_table(c)
    for perm in ([1, 0, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
        Hp, Gp = gp.pair_table(c[perm])
        assert Hp.tobytes() == H[np.ix_(perm, perm)].tobytes(), perm
        assert Gp.tobytes() == G[np.ix_(perm, perm)].tobytes(), perm


@pytest.mark.parametrize("L", [0.5, 1.0, 8.0])
def test_mesh_counts_scale_with_the_domain(L):
    # the square pair at h = 0.02 L with radii 1e-3 L: background and pierced
    # mesh keep their node and triangle counts at every L (exact in binary)
    domain = DomainSpec("boundary-curve", L * SQUARE.boundary)
    centers = L * np.array([[-0.4, 0.0], [0.4, 0.0]])
    policy = MeshPolicy(h=0.02 * L)
    bg = geometry._background(domain, centers, annulus_radius(domain, centers), policy)
    mesh = pierced_mesh(domain, centers, [1e-3 * L] * 2, policy)
    assert (len(bg.pot), len(bg.tris)) == (8441, 16460)
    assert (mesh.n_nodes, mesh.n_triangles) == (9785, 19148)

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinhpierce.errors import CoincidentPoints, PointOutsideDomain
from sinhpierce.geometry import DomainSpec
from sinhpierce.greens import AnalyticDiskGreen, GreenProvider, NumericGreen
from sinhpierce.operators import _ops_cache, get_ops


def test_green_at_disk_center(gp):
    # H(., 0) vanishes on the disk, so G is the plain logarithm
    assert gp.green((0.5, 0.0), (0.0, 0.0)) == pytest.approx(math.log(2) / (2 * math.pi),
                                                             rel=1e-12)


def test_robin_function_at_center(gp):
    assert gp.robin((0.0, 0.0)) == 0.0
    # H(x,x) = log(1-|x|^2)/2pi on the unit disk
    assert gp.robin((0.3, 0.4)) == pytest.approx(math.log(1 - 0.25) / (2 * math.pi),
                                                 rel=1e-12)


def _green_scalar(gp, x, y):
    """Reference: the one-point formula on Python scalars."""
    return float(-np.log(np.hypot(x[0] - y[0], x[1] - y[1])) / (2 * math.pi)) \
        + gp.robin_H(x, y)


@pytest.mark.parametrize("domain", [DomainSpec(), DomainSpec(
    "boundary-curve", [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]])],
    ids=["disk", "square"])
def test_green_carries_the_bits_of_the_scalar_formula(domain):
    # green and green_many share one batched formula; the array log and the
    # regular part on arrays must give the scalar bits
    gp = GreenProvider(domain)
    rng = np.random.default_rng(11)
    pts = rng.uniform(-0.6, 0.6, size=(400, 2))
    for y in ([-0.4, 0.0], [0.4, 0.1], [0.0, -0.45]):
        ref = np.array([_green_scalar(gp, x, y) for x in pts])
        one = np.array([gp.green(x, y) for x in pts])
        many = gp.green_many(pts, y)
        assert np.array_equal(one.view(np.int64), ref.view(np.int64))
        assert np.array_equal(many.view(np.int64), ref.view(np.int64))


def test_coincident_points_rejected(gp):
    with pytest.raises(CoincidentPoints):
        gp.green((0.2, 0.2), (0.2, 0.2))


def test_outside_domain_rejected(gp):
    with pytest.raises(PointOutsideDomain):
        gp.green((1.5, 0.0), (0.0, 0.0))


def test_boundary_vanishing(gp):
    for t in np.linspace(0, 2 * math.pi, 17):
        x = (math.cos(t), math.sin(t))
        assert abs(gp.green(x, (0.3, -0.2))) <= 1e-8


def test_regular_part_matches_log_on_boundary(gp):
    # H(x,y) = log|x-y|/2pi for x on the boundary circle
    y = (0.25, 0.1)
    for t in np.linspace(0, 2 * math.pi, 13):
        x = (math.cos(t), math.sin(t))
        want = math.log(math.hypot(x[0] - y[0], x[1] - y[1])) / (2 * math.pi)
        assert gp.robin_H(x, y) == pytest.approx(want, abs=1e-10)


@given(x1=st.floats(-0.6, 0.6), y1=st.floats(-0.6, 0.6),
       x2=st.floats(-0.6, 0.6), y2=st.floats(-0.6, 0.6))
@settings(max_examples=60, deadline=None)
def test_symmetry_analytic(gp, x1, y1, x2, y2):
    if math.hypot(x1 - x2, y1 - y2) < 1e-3:
        return
    a = gp.green((x1, y1), (x2, y2))
    b = gp.green((x2, y2), (x1, y1))
    assert abs(a - b) <= 1e-8
    assert a >= -1e-12  # positivity of the Dirichlet Green function


def test_gradient_profile_monotone_and_vanishing(gp):
    ts, vals = gp.green_gradient_profile((0.0, 0.0), (1.0, 0.0), t_min=1e-3, n=40)
    assert vals[0] > vals[-1]
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] <= 1e-6
    # spot value at t = 0.5
    k = np.argmin(np.abs(ts - 0.5))
    assert vals[k] == pytest.approx(gp.green((ts[k], 0.0), (0.0, 0.0)), rel=1e-12)


# --- numeric backend -------------------------------------------------------

@pytest.fixture(scope="module")
def numeric_disk():
    return NumericGreen(DomainSpec(), h=0.045)


def test_numeric_matches_analytic(numeric_disk, gp):
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        x = rng.uniform(-0.75, 0.75, 2)
        y = rng.uniform(-0.75, 0.75, 2)
        if np.hypot(*x) > 0.75 or np.hypot(*y) > 0.75 or np.hypot(*(x - y)) < 0.05:
            continue
        worst = max(worst, abs(numeric_disk.green(x, y) - gp.green(x, y)))
    assert worst <= 5e-4  # coarse mesh; the acceptance suite checks h = 0.02


def test_numeric_regular_part_discretely_harmonic(numeric_disk):
    fld = numeric_disk._harmonic_part(np.array([0.3, -0.1]))
    ops = get_ops(numeric_disk.mesh)
    lap = ops.laplacian(fld)
    assert np.abs(lap.values[ops.interior]).max() <= 1e-7


def test_numeric_backend_on_curve_domain():
    t = np.linspace(0, 2 * math.pi, 160, endpoint=False)
    pts = np.column_stack([1.2 * np.cos(t), 0.9 * np.sin(t)])
    num = NumericGreen(DomainSpec(kind="boundary-curve", boundary=pts), h=0.08)
    a = num.green((0.3, 0.0), (-0.2, 0.1))
    b = num.green((-0.2, 0.1), (0.3, 0.0))
    assert a == pytest.approx(b, abs=5e-3)
    assert a > 0


def test_provider_backend_selection(disk):
    assert GreenProvider(disk).backend == "analytic-disk"
    assert GreenProvider(disk, backend="numeric", h=0.1).backend == "numeric"
    with pytest.raises(ValueError):
        AnalyticDiskGreen(DomainSpec(kind="boundary-curve",
                                     boundary=[[0, 0], [1, 0], [0, 1]]))


def test_numeric_green_factors_its_mesh_once(monkeypatch):
    # every H(., y) is one solve on the domain mesh: one factor serves them all
    import scipy.sparse.linalg as spla

    real_splu = spla.splu
    factored = []

    def counting_splu(A, *args, **kwargs):
        factored.append(A)
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    ng = NumericGreen(DomainSpec("boundary-curve",
                                 [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]]), h=0.1)
    pts = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.5]])
    for y in pts:
        ng.robin_H_many(pts, y)
    ng.robin_H(pts[0], pts[0])
    assert len(ng._h_fields) == 3
    assert len(factored) == 1 and factored[0] is ng.ops._K_II
    assert ng.ops._poisson_lu is not None


def test_released_operators_rebuild_bit_for_bit():
    # release_operators drops the domain operators and their factor but
    # keeps the fields; an H(., y) at a new y rebuilds them, and every value
    # has the bits of a backend that never dropped them
    square = DomainSpec("boundary-curve",
                        [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]])
    kept = NumericGreen(square, h=0.1)
    released = NumericGreen(square, h=0.1)
    pts = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.5], [0.0, 0.85]])
    old_y, new_y = pts[0], pts[2]
    before = released.robin_H_many(pts, old_y)
    ops = weakref.ref(released.ops)
    released.release_operators()
    assert released.ops is None and released.mesh not in _ops_cache
    assert ops() is None
    assert released.robin_H_many(pts, old_y).tobytes() == before.tobytes()
    assert released.ops is None
    assert released.robin_H_many(pts, new_y).tobytes() == kept.robin_H_many(pts, new_y).tobytes()
    assert released.ops is not None and released.ops._poisson_lu is not None
    assert released.robin_H_many(pts, old_y).tobytes() == kept.robin_H_many(pts, old_y).tobytes()

import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sinhpierce.errors import CoincidentPoints, PointOutsideDomain
from sinhpierce.geometry import DomainSpec
from sinhpierce.greens import AnalyticDiskGreen, GreenProvider, NumericGreen
from sinhpierce.operators import get_ops

_SQUARE = DomainSpec("boundary-curve", [[-0.9, -0.9], [0.9, -0.9], [0.9, 0.9], [-0.9, 0.9]])


def test_green_at_disk_center(gp):
    # H(., 0) vanishes on the disk, so G is the plain logarithm
    assert gp.green((0.5, 0.0), (0.0, 0.0)) == pytest.approx(math.log(2) / (2 * math.pi),
                                                             rel=1e-12)


def _robin_H(gp, x, y):
    """H(x, y) at one point."""
    return float(gp.robin_H_many(np.atleast_2d(x), y)[0])


def test_robin_function_at_center(gp):
    assert _robin_H(gp, (0.0, 0.0), (0.0, 0.0)) == 0.0
    # H(x,x) = log(1-|x|^2)/2pi on the unit disk
    assert _robin_H(gp, (0.3, 0.4), (0.3, 0.4)) == pytest.approx(
        math.log(1 - 0.25) / (2 * math.pi), rel=1e-12)


def _green_scalar(gp, x, y):
    """Reference: the one-point formula on Python scalars."""
    return float(-np.log(np.hypot(x[0] - y[0], x[1] - y[1])) / (2 * math.pi)) \
        + _robin_H(gp, x, y)


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
    with pytest.raises(PointOutsideDomain, match=r"\(1\.2, 0\.0\)"):
        gp.pair_table([[0.1, 0.0], [1.2, 0.0]])


@pytest.mark.parametrize("backend", ["analytic", "numeric", "provider"])
def test_one_inside_check_with_one_tolerance(backend, numeric_disk):
    # every backend accepts a point 5e-11 outside the unit disk and names
    # one 1e-9 outside in the same words
    impl = numeric_disk if backend == "numeric" else \
        (AnalyticDiskGreen if backend == "analytic" else GreenProvider)(DomainSpec())
    impl.check_inside(np.array([[0.0, 0.5], [1 + 5e-11, 0.0], [0.0, -1 - 5e-11]]))
    with pytest.raises(PointOutsideDomain,
                       match=r"^point \(0\.0, 1\.000000001\) lies outside the domain$"):
        impl.check_inside(np.array([[0.0, 0.5], [0.0, 1 + 1e-9], [1.5, 0.0]]))


@pytest.fixture(scope="module")
def numeric_square():
    return GreenProvider(_SQUARE)


@pytest.mark.parametrize("edge", [(1, 0), (0, -1)], ids=["right", "bottom"])
def test_square_inside_check_tolerance(numeric_square, edge):
    # the same 1e-10 as the disk's: 0.5e-10 outside a side passes, 2e-10
    # outside raises, wherever along the side
    n = np.array(edge, dtype=float)
    along = np.array([[0.3, 0.3], [-0.9, -0.9], [0.9, 0.9]]) * n[::-1]
    numeric_square.check_inside(0.9 * n + 0.5e-10 * n + along)
    for p in 0.9 * n + 2e-10 * n + along:
        with pytest.raises(PointOutsideDomain):
            numeric_square.check_inside(np.array([[0.0, 0.0], p]))


@pytest.mark.parametrize("point", [(math.nan, 0.5), (0.5, math.nan), (math.inf, 0.5),
                                   (0.5, math.inf), (-math.inf, 0.2)])
def test_points_that_are_not_finite_are_outside(numeric_square, point):
    for impl in (numeric_square, AnalyticDiskGreen(DomainSpec())):
        with pytest.raises(PointOutsideDomain):
            impl.check_inside(np.array([[0.0, 0.0], point]))


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
        assert _robin_H(gp, x, y) == pytest.approx(want, abs=1e-10)


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
    # G(t e_1, 0) from near the pole out to the boundary at t = 1
    ts = np.geomspace(1e-3, 1.0, 40)
    vals = gp.green_many(np.column_stack([ts, np.zeros_like(ts)]), np.zeros(2))
    assert np.all(np.diff(vals) < 0)
    assert abs(vals[-1]) <= 1e-12
    assert vals == pytest.approx(-np.log(ts) / (2 * math.pi), rel=1e-12, abs=1e-15)


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
    assert np.abs(lap[ops.interior]).max() <= 1e-7


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
    small_square = DomainSpec(kind="boundary-curve",
                              boundary=[[0, 0], [0.2, 0], [0.2, 0.2], [0, 0.2]])
    assert GreenProvider(small_square).backend == "numeric"
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
    ng.robin_H_many(pts[:1], pts[0])
    assert len(ng._h_fields) == 3
    ops = get_ops(ng.mesh)
    assert len(factored) == 1 and factored[0] is ops._K_II
    assert ops._poisson_lu is not None


def test_pair_table_drops_the_domain_operators_and_rebuilds_bit_for_bit():
    # once the table holds H(., xi_k) for every center, the domain operators
    # and their factor go but the fields stay; an H(., y) at a new y rebuilds
    # them, and every value has the bits of a backend that never dropped them
    kept = NumericGreen(_SQUARE, h=0.1)
    released = NumericGreen(_SQUARE, h=0.1)
    pts = np.array([[0.1, 0.2], [-0.3, 0.4], [0.5, -0.5], [0.0, 0.85]])
    old_y, new_y = pts[0], pts[2]
    before = released.robin_H_many(pts, old_y)
    ops = weakref.ref(get_ops(released.mesh))
    H, G = released.pair_table(pts[:2])
    assert released.mesh.ops is None and ops() is None
    assert H[0, 0] == before[0]
    assert released.robin_H_many(pts, old_y).tobytes() == before.tobytes()
    assert released.mesh.ops is None
    assert released.robin_H_many(pts, new_y).tobytes() == kept.robin_H_many(pts, new_y).tobytes()
    assert get_ops(released.mesh)._poisson_lu is not None
    assert released.robin_H_many(pts, old_y).tobytes() == kept.robin_H_many(pts, old_y).tobytes()


def _one_point_H(impl, x, y):
    """The one-point H(x, y) the per-pair table was built from: complex
    arithmetic on the disk, a one-point field evaluation elsewhere."""
    impl.check_inside(np.array([x, y]))
    if isinstance(impl, AnalyticDiskGreen):
        zx = complex(x[0], x[1])
        zy = complex(y[0], y[1])
        return float(np.log(abs(1.0 - zx * zy.conjugate())) / (2 * math.pi))
    return float(impl.evaluator(impl._harmonic_part(y), np.asarray(x, dtype=float))[0])


def _per_pair_table(impl, c):
    """Reference: H and G pair by pair, each unordered pair once, with y the
    lexicographically larger center."""
    m = c.shape[0]
    H = np.zeros((m, m))
    G = np.zeros((m, m))
    for i in range(m):
        H[i, i] = _one_point_H(impl, c[i], c[i])
        for j in range(i + 1, m):
            x, y = sorted([c[i], c[j]], key=tuple)
            H[i, j] = H[j, i] = _one_point_H(impl, x, y)
            G[i, j] = G[j, i] = -np.log(np.hypot(*(c[i] - c[j]))) / (2 * math.pi) + H[i, j]
    return H, G


@pytest.mark.parametrize("domain", [DomainSpec(), _SQUARE], ids=["disk", "square"])
def test_pair_table_matches_the_per_pair_loop(domain):
    gp = GreenProvider(domain)
    rng = np.random.default_rng(21)
    for m in (1, 2, 3, 4):
        for _ in range(3):
            c = rng.uniform(-0.7, 0.7, size=(m, 2))
            want = _per_pair_table(gp._impl, c)
            got = gp.pair_table(c)
            assert gp.pair_table(c.copy()) is got
            for a, b in zip(got, want):
                assert not a.flags.writeable
                assert a.tobytes() == b.tobytes(), (m, c)

"""Every input that validation accepts ends with a documented exit code.

construct runs in-process through cli.main on inputs drawn from the space
parse_config accepts at h = 0.1: no exception may escape and no warning may
be raised, and exit 0 must come with a converged report whose relative
residual is finite.
"""

import math
import os
import re
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from sinhpierce.cli import main

POTENTIALS = ("1", "2 + sin(3*x)", "exp(0.5*x)", "1 + x^2")
DOMAINS = {"unit-disk": "domain = unit-disk",
           "square": "domain = boundary-curve\nboundary = -0.9 -0.9; 0.9 -0.9; 0.9 0.9; -0.9 0.9"}

CONFIG = """
[problem]
{domain}
centers = {centers}
alphas = {alphas}
m1 = {m1}
tau = {tau!r}
v1 = {v1}
v2 = {v2}

[mesh]
h = 0.1

[run]
command = construct
rho = {rho!r}
out = {out}
"""


def _not_even(a):
    """What BlowupConfig accepts: alpha not within 1e-9 of an even integer >= 4."""
    return round(a / 2) * 2 < 4 or abs(a - round(a / 2) * 2) >= 1e-9


@st.composite
def accepted_inputs(draw):
    m = draw(st.integers(1, 2))
    centers = draw(st.lists(st.tuples(st.floats(0.0, 0.7), st.floats(0.0, 2 * math.pi)),
                            min_size=m, max_size=m,
                            unique_by=lambda rt: (rt[0] * math.cos(rt[1]),
                                                  rt[0] * math.sin(rt[1]))))
    return dict(
        domain=draw(st.sampled_from(sorted(DOMAINS))),
        centers=[(r * math.cos(t), r * math.sin(t)) for r, t in centers],
        alphas=draw(st.lists(st.floats(2.05, 40.0).filter(_not_even), min_size=m, max_size=m)),
        m1=draw(st.integers(0, m)),
        tau=10.0 ** draw(st.floats(-3.0, 3.0)),
        rho=draw(st.sampled_from((1e-2, 1e-3))),
        v1=draw(st.sampled_from(POTENTIALS)),
        v2=draw(st.sampled_from(POTENTIALS)))


def _construct(case, out):
    """Write case as a config under out and run construct on it; the exit code."""
    text = CONFIG.format(
        domain=DOMAINS[case["domain"]],
        centers="; ".join(f"{x!r} {y!r}" for x, y in case["centers"]),
        alphas=" ".join(repr(a) for a in case["alphas"]),
        m1=case["m1"], tau=case["tau"], v1=case["v1"], v2=case["v2"], rho=case["rho"],
        out=os.path.join(out, "run"))
    path = os.path.join(out, "run.cfg")
    with open(path, "w") as f:
        f.write(text)
    return main(["construct", "--config", path])


def _case(**kw):
    base = dict(domain="unit-disk", centers=[(0.0, 0.0)], alphas=[3.0], m1=1, tau=1.0,
                rho=1e-2, v1="1", v2="1")
    return {**base, **kw}


# exp(2 pi rho_1) overflows in choose_scales: a nan radius, named for hole 1
OVERFLOW = _case(centers=[(0.3, 0.2), (0.3, 0.201)], alphas=[3.0, 1001.0], m1=0, rho=1e-3)
# eps = 0.41 against eta = 0.45: a patch of two rings
TWO_RINGS = _case(alphas=[29.0])
# e^{-tau phi} overflows in N(phi) while phi is still within the sup guard
N_OVERFLOW = _case(domain="square", alphas=[15.0], m1=0, tau=100.0, rho=1e-3)
# hole 2's transition circles cross hole 1's rim
SHELL_IN_RIM = _case(domain="square", centers=[(0.0, 0.0), (0.25, 0.0)], alphas=[3.0, 3.0], m1=0)


@settings(max_examples=20, derandomize=True, deadline=None)
@example(case=OVERFLOW)
@example(case=TWO_RINGS)
@example(case=N_OVERFLOW)
@example(case=SHELL_IN_RIM)
@given(case=accepted_inputs())
def test_accepted_input_ends_with_an_exit_code(case):
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        warnings.simplefilter("error")
        code = _construct(case, out)
        assert code in (0, 1, 2, 3)
        if code == 0:
            with open(os.path.join(out, "run", "report.txt")) as f:
                report = dict(line.rstrip("\n").split(" ", 1) for line in f)
            assert report["status"] == "converged"
            assert math.isfinite(float(report["relative_residual"]))


def test_scale_overflow_names_the_hole(capsys):
    with tempfile.TemporaryDirectory() as out:
        assert _construct(OVERFLOW, out) == 2
    assert capsys.readouterr().err == \
        "solver failure: hole 1 radius nan below the resolvable scale 1e-13\n"


def test_overflow_in_the_remainder_is_divergence(capsys):
    with tempfile.TemporaryDirectory() as out:
        assert _construct(N_OVERFLOW, out) == 2
        with open(os.path.join(out, "run", "report.txt")) as f:
            assert "status diverged\n" in f.read()
    assert capsys.readouterr().err.startswith("solver failure: N(phi) is not finite at sup norm ")


@pytest.mark.parametrize("alpha", [27.0, 28.5, 29.0, 30.5, 31.0])
def test_two_ring_patch_gets_a_kernel_coefficient(alpha):
    with tempfile.TemporaryDirectory() as out:
        assert _construct(_case(alphas=[alpha]), out) == 0
        with open(os.path.join(out, "run", "report.txt")) as f:
            report = f.read()
    assert "status converged\n" in report
    # the run converges, and the report shows the paper's structure absent
    assert "inner_sign_ok False\n" in report
    assert math.isfinite(float(re.search(r"^kernel_a_1 (\S+)$", report, re.M).group(1)))

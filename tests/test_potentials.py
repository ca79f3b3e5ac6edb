import inspect
import math
import operator
import re
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sinhpierce.potentials as potentials
from sinhpierce.coeffs import BlowupConfig
from sinhpierce.errors import NonpositiveSampled, ParseError
from sinhpierce.geometry import DomainSpec
from sinhpierce.potentials import MAX_DEPTH, parse_potential


def test_constant_one():
    e = parse_potential("1")
    assert e(0.3, -0.2) == 1.0
    assert np.all(e(np.zeros(5), np.ones(5)) == 1.0)


def test_gentle_exponential():
    e = parse_potential("exp(0.1*x)")
    assert e(1.0, 0.0) == pytest.approx(1.1051709180756477, rel=1e-12)


def test_precedence_and_unary():
    assert parse_potential("1+2*3-4/2")(0, 0) == 5.0
    assert parse_potential("-x^2")(3.0, 0.0) == -9.0
    assert parse_potential("2^3^2")(0, 0) == 512.0     # right associative
    assert parse_potential("(1+2)*3")(0, 0) == 9.0
    assert parse_potential("cos(0)+sin(0)")(0, 0) == 1.0


def test_scientific_notation():
    assert parse_potential("1e-3 + 2.5E2")(0, 0) == pytest.approx(250.001)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_potential("1 + * 2")
    assert exc.value.position == 4
    with pytest.raises(ParseError):
        parse_potential("exp 2")
    with pytest.raises(ParseError):
        parse_potential("")
    with pytest.raises(ParseError):
        parse_potential("z + 1")
    with pytest.raises(ParseError):
        parse_potential("1 + 2)")


def test_positivity_sampling_on_disk():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-0.9, 0.9, size=(2000, 2))

    def cfg(v1):
        return BlowupConfig(domain=DomainSpec(), centers=[[0.0, 0.0]], alphas=[3.0], m1=1,
                            V1=parse_potential(v1), V2=parse_potential("1"))

    v1, v2 = cfg("1").potentials_at(pts, "sample")
    assert v1.shape == v2.shape == (2000,) and np.all(v1 == 1.0)
    with pytest.raises(NonpositiveSampled, match="2,000 sampled points"):
        cfg("x").potentials_at(pts, "sample")


@given(a=st.floats(-5, 5), b=st.floats(-5, 5),
       x=st.floats(-1, 1), y=st.floats(-1, 1))
def test_linear_matches_direct_eval(a, b, x, y):
    expr = parse_potential(f"({a!r})*x + ({b!r})*y")
    assert expr(x, y) == pytest.approx(a * x + b * y, abs=1e-12)


@given(x=st.floats(0.01, 2), y=st.floats(-2, 2))
def test_functions_match_math(x, y):
    assert parse_potential("log(x)")(x, y) == pytest.approx(math.log(x), rel=1e-12)
    assert parse_potential("exp(y)")(x, y) == pytest.approx(math.exp(y), rel=1e-12)


# every rule of the grammar, and the edges of its number and whitespace rules
# (any Unicode whitespace reads as a space)
ACCEPTED = ["1", "exp(0.1*x)", "1+2*3-4/2", "-x^2", "2^3^2", "(1+2)*3", "cos(0)+sin(0)",
            "1e-3 + 2.5E2", "2 + sin(3*x)", "1 + x^2 - 0.1*exp(-y^2)/(1.5 + cos(x*y))",
            "--x", "+-+y", "00", "05.5", "1.", ".5", "7.e1", "2^-x", "x^y^2", "exp (x)",
            "  1 +\n 2 ", "\xa01\u2003+\tx\r\n"]
REJECTED = ["x**2", "1_0", "0x1", "1j", "exp", "exp(x, y)", "exp(x,)", "x(1)", "2(x)",
            "(exp)(x)", "x.real", "[x]", "1 < x", "x if y else 1", "z + 1", "1\x00", "1 # c",
            "\uff58 + 1", "True", "'1'", "~x", "x % y", "x // y", "exp(*x)", "exp(x=1)",
            "(x := 1)", "x^^2", "x*^2", "05", "\u0661",
            pytest.param("-" * 10_000 + "1", id="10000-minus-signs"),
            pytest.param("(" * 300 + "1" + ")" * 300, id="300-nested-parentheses"),
            pytest.param("+".join(["x"] * 3_100), id="3100-term-sum")]


@pytest.mark.parametrize("text", ACCEPTED)
def test_grammar_accepts(text):
    assert np.isfinite(parse_potential(text)(0.5, 0.25))


@pytest.mark.parametrize("text", REJECTED)
def test_grammar_rejects(text):
    with pytest.raises(ParseError) as exc:
        parse_potential(text)
    assert 0 <= exc.value.position <= len(text)


def test_positions_are_in_the_original_text():
    # each ^ is two columns of Python's source, each whitespace one
    cases = {"1 + * 2": 4, " x^2 + z": 7, "x^2^2 \n+ exp(x, y)": 14, "x^ ^2": 3}
    for text, pos in cases.items():
        with pytest.raises(ParseError) as exc:
            parse_potential(text)
        assert exc.value.position == pos, text


def test_parser_warnings_do_not_escape():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in ("2(x)", "1if x else 2", "'\\d'"):
            with pytest.raises(ParseError):
                parse_potential(text)


def test_text_is_never_evaluated():
    src = inspect.getsource(potentials)
    assert "ast.parse(" in src
    assert not re.search(r"(?<![.\w])(compile|eval|exec)\(", src)


def _number():
    """A decimal literal of the grammar, as text."""
    digits = st.text("0123456789", min_size=1, max_size=4)
    mantissa = st.one_of(digits.filter(lambda d: d == "0" or d[0] != "0"),
                         st.builds("{}.{}".format, digits, st.text("0123456789", max_size=3)),
                         st.builds(".{}".format, digits))
    exponent = st.one_of(st.just(""), st.builds("{}{}{}".format, st.sampled_from("eE"),
                                                 st.sampled_from(["", "+", "-"]),
                                                 st.text("0123", min_size=1, max_size=2)))
    return st.builds(str.__add__, mantissa, exponent)


# a generated expression: (text, binding level, value composed without the
# parser); levels: 1 sum, 2 product, 3 signed factor, 5 atom
_BINARY = {  # op: (function, level, least level of the left and the right operand)
    "+": (operator.add, 1, 1, 2), "-": (operator.sub, 1, 1, 2),
    "*": (operator.mul, 2, 2, 3), "/": (operator.truediv, 2, 2, 3),
    "^": (operator.pow, 3, 5, 3)}
_NP_FUNCS = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos}


def _constant(c):
    return lambda x, y: np.full(x.shape, c) if x.shape else c


_LEAVES = st.one_of(
    _number().map(lambda t: (t, 5, _constant(np.float64(float(t))))),
    st.just(("x", 5, lambda x, y: x + 0.0)),
    st.just(("y", 5, lambda x, y: y + 0.0)))


def _grow(children):
    def at_least(level, node, draw):
        """node, in parentheses when it binds looser than level (or at random)."""
        text, lev, f = node
        if lev < level or draw(st.booleans()) and draw(st.booleans()):
            return f"({draw(_SPACE)}{text}{draw(_SPACE)})", 5, f
        return node

    @st.composite
    def binary(draw):
        op = draw(st.sampled_from(sorted(_BINARY)))
        fn, level, lmin, rmin = _BINARY[op]
        lt, _, lf = at_least(lmin, draw(children), draw)
        rt, _, rf = at_least(rmin, draw(children), draw)
        return (f"{lt}{draw(_SPACE)}{op}{draw(_SPACE)}{rt}", level,
                lambda x, y: fn(lf(x, y), rf(x, y)))

    @st.composite
    def unary(draw):
        sign = draw(st.sampled_from("+-"))
        t, _, f = at_least(3, draw(children), draw)
        return (f"{sign}{draw(_SPACE)}{t}", 3,
                (lambda x, y: -f(x, y)) if sign == "-" else f)

    @st.composite
    def call(draw):
        name = draw(st.sampled_from(sorted(_NP_FUNCS)))
        t, _, f = draw(children)
        return (f"{name}{draw(_SPACE)}({draw(_SPACE)}{t}{draw(_SPACE)})", 5,
                lambda x, y: _NP_FUNCS[name](f(x, y)))

    return st.one_of(binary(), unary(), call())


_SPACE = st.sampled_from(["", "", "", " ", "  ", "\n", "\t"])
_EXPRESSIONS = st.recursive(_LEAVES, _grow, max_leaves=12)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(
        (a.view(np.int64) == b.view(np.int64)) | (np.isnan(a) & np.isnan(b))))


@pytest.mark.parametrize("n", [1500, 2000])
def test_long_sums_evaluate(n):
    # past Python's recursion limit, up to MAX_DEPTH; parse on a fresh
    # thread, near the depth the command line parses at
    with ThreadPoolExecutor(1) as pool:
        e = pool.submit(parse_potential, "+".join(["0.001"] * n)).result()
    want = 0.0
    for _ in range(n):
        want += 0.001
    assert _same_bits(e(np.zeros(3), np.ones(3)), np.full(3, want))
    assert _same_bits(e(0.5, -0.5), want)


def _from_depth(frames, fn, *args):
    """fn(*args), called from that many extra Python frames."""
    return fn(*args) if frames == 0 else _from_depth(frames - 1, fn, *args)


@pytest.mark.parametrize("frames", [0, 200])
def test_nesting_bound_does_not_depend_on_the_callers_depth(frames):
    # the nesting Python's parser reads falls as the caller's stack grows;
    # the bound gives the same answer from a shallow caller and a deep one
    text = "+".join(["0.001"] * MAX_DEPTH)
    assert _from_depth(frames, parse_potential, text).text == text
    with pytest.raises(ParseError, match="^expression nested too deeply at position 1 ") as exc:
        _from_depth(frames, parse_potential, f" {text}+0.001")
    assert exc.value.position == 1


@settings(max_examples=300, deadline=None)
@given(expr=_EXPRESSIONS, pad=_SPACE,
       xs=st.lists(st.floats(-3, 3), min_size=1, max_size=4),
       ys=st.lists(st.floats(-3, 3), min_size=1, max_size=4))
def test_random_expressions_keep_their_bits(expr, pad, xs, ys):
    text, _, direct = expr
    e = parse_potential(f"{pad}{text}{pad}")
    n = min(len(xs), len(ys))
    x, y = np.array(xs[:n]), np.array(ys[:n])
    with np.errstate(all="ignore"):
        assert _same_bits(e(x, y), direct(x, y)), text
        assert _same_bits(e(xs[0], ys[0]), direct(np.float64(xs[0]), np.float64(ys[0]))), text

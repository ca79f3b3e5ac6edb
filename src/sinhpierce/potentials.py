"""Small arithmetic expression language for the potential fields.

Grammar (standard precedence, ^ binds tightest and is right-associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-'|'+') factor | power
    power  := atom ('^' factor)?
    atom   := number | 'x' | 'y' | func '(' expr ')' | '(' expr ')'
    func   := 'exp' | 'log' | 'sin' | 'cos'

Evaluation is pure and vectorized over numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import NonpositiveSampled, ParseError

_FUNCS = MappingProxyType({"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos})


@dataclass(frozen=True)
class PotentialExpr:
    """Parsed expression tree, callable at points of the plane."""

    root: tuple
    text: str

    def __call__(self, x, y):
        return _eval(self.root, np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def __repr__(self):
        return f"PotentialExpr({self.text!r})"


def _eval(node, x, y):
    kind = node[0]
    if kind == "num":
        return np.broadcast_to(np.float64(node[1]), np.broadcast_shapes(x.shape, y.shape)).copy() \
            if x.shape or y.shape else np.float64(node[1])
    if kind == "x":
        return x + 0.0
    if kind == "y":
        return y + 0.0
    if kind == "neg":
        return -_eval(node[1], x, y)
    if kind == "call":
        return _FUNCS[node[1]](_eval(node[2], x, y))
    a = _eval(node[1], x, y)
    b = _eval(node[2], x, y)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return a / b
    if kind == "^":
        return a ** b
    raise AssertionError(f"unknown node {kind}")


class _Tokens:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r} at position {self.pos} in {self.text!r}",
                             position=self.pos)
        self.pos += 1


def parse_potential(text) -> PotentialExpr:
    """Parse an expression into a PotentialExpr. Raises ParseError with position."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", position=0)
    tk = _Tokens(text)
    root = _parse_expr(tk)
    tk.skip_ws()
    if tk.pos != len(text):
        raise ParseError(f"trailing input at position {tk.pos} in {text!r}", position=tk.pos)
    return PotentialExpr(root=root, text=text)


def _parse_expr(tk):
    node = _parse_term(tk)
    while tk.peek() in ("+", "-"):
        op = tk.peek()
        tk.pos += 1
        node = (op, node, _parse_term(tk))
    return node


def _parse_term(tk):
    node = _parse_factor(tk)
    while tk.peek() in ("*", "/"):
        op = tk.peek()
        tk.pos += 1
        node = (op, node, _parse_factor(tk))
    return node


def _parse_factor(tk):
    c = tk.peek()
    if c == "-":
        tk.pos += 1
        return ("neg", _parse_factor(tk))
    if c == "+":
        tk.pos += 1
        return _parse_factor(tk)
    return _parse_power(tk)


def _parse_power(tk):
    base = _parse_atom(tk)
    if tk.peek() == "^":
        tk.pos += 1
        return ("^", base, _parse_factor(tk))
    return base


def _parse_atom(tk):
    c = tk.peek()
    if c == "(":
        tk.take("(")
        node = _parse_expr(tk)
        tk.take(")")
        return node
    if c.isdigit() or c == ".":
        start = tk.pos
        while tk.pos < len(tk.text) and (tk.text[tk.pos].isdigit() or tk.text[tk.pos] == "."):
            tk.pos += 1
        # scientific notation
        if tk.pos < len(tk.text) and tk.text[tk.pos] in "eE":
            probe = tk.pos + 1
            if probe < len(tk.text) and tk.text[probe] in "+-":
                probe += 1
            if probe < len(tk.text) and tk.text[probe].isdigit():
                tk.pos = probe
                while tk.pos < len(tk.text) and tk.text[tk.pos].isdigit():
                    tk.pos += 1
        try:
            val = float(tk.text[start:tk.pos])
        except ValueError:
            raise ParseError(f"bad number at position {start} in {tk.text!r}", position=start)
        return ("num", val)
    if c.isalpha():
        start = tk.pos
        while tk.pos < len(tk.text) and tk.text[tk.pos].isalpha():
            tk.pos += 1
        name = tk.text[start:tk.pos]
        if name == "x":
            return ("x",)
        if name == "y":
            return ("y",)
        if name in _FUNCS:
            tk.take("(")
            arg = _parse_expr(tk)
            tk.take(")")
            return ("call", name, arg)
        raise ParseError(f"unknown name {name!r} at position {start}", position=start)
    raise ParseError(f"unexpected character {c!r} at position {tk.pos}", position=tk.pos)


def check_positive(expr, points, name="potential"):
    """Sample expr on the given points and raise NonpositiveSampled on any value <= 0.

    points: (n, 2) array with n >= 1000.
    """
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 1000:
        raise ValueError(f"need at least 1000 sample points, got {pts.shape[0]}")
    vals = np.asarray(expr(pts[:, 0], pts[:, 1]), dtype=float)
    vals = np.broadcast_to(vals, (pts.shape[0],))
    bad = ~(vals > 0.0)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise NonpositiveSampled(
            f"{name} is not positive: value {vals[i]:.6g} at "
            f"({pts[i, 0]:.6g}, {pts[i, 1]:.6g})")
    return True

r"""Small arithmetic expression language for the potential fields.

Grammar (standard precedence, ^ binds tightest and is right-associative):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-'|'+') factor | power
    power  := atom ('^' factor)?
    atom   := number | 'x' | 'y' | func '(' expr ')' | '(' expr ')'
    func   := 'exp' | 'log' | 'sin' | 'cos'
    number := (\d+\.?\d* | \.\d+) ([eE][+-]?\d+)?

Once ^ is spelled **, this is a subset of Python's expression grammar with
the same precedence, so Python's parser reads the text (ast.parse) and one
pass keeps only the node kinds above. The text is never compiled or
evaluated. Evaluation is pure and vectorized over numpy arrays.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ParseError

_FUNCS = MappingProxyType({"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos})
_BINOPS = MappingProxyType({ast.Add: operator.add, ast.Sub: operator.sub,
                            ast.Mult: operator.mul, ast.Div: operator.truediv,
                            ast.Pow: operator.pow})
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?", re.ASCII)
# what Python reads but the grammar has not, and which no node shows: a
# comment, a call's trailing comma, ** itself, and non-ASCII text, which
# Python folds (NFKC) so that a fullwidth x reads as x
_FOREIGN = re.compile(r"\*\*|[#,\0]|[^\0-\x7f]")
# the deepest tree, in nodes from the root, that parse_potential accepts.
# Python's parser counts the caller's stack depth against its own nesting
# limit; it reaches this depth from any caller less than about 300 frames
# deep, so below that the answer does not depend on the caller.
MAX_DEPTH = 2000


@dataclass(frozen=True)
class PotentialExpr:
    """Parsed expression tree, callable at points of the plane."""

    root: ast.expr = field(compare=False)
    text: str

    def __call__(self, x, y):
        return _eval(self.root, np.asarray(x, dtype=float), np.asarray(y, dtype=float))

    def __repr__(self):
        return f"PotentialExpr({self.text!r})"


def _eval(root, x, y):
    """Value of the tree at (x, y), each node after its operands, left before
    right. The walk keeps its own stack: a long sum nests past Python's
    recursion limit."""
    todo, vals = [(root, False)], []
    while todo:
        node, ready = todo.pop()
        if isinstance(node, ast.Name):
            vals.append((x if node.id == "x" else y) + 0.0)
        elif isinstance(node, ast.Constant):
            c = np.float64(node.value)
            vals.append(np.broadcast_to(c, np.broadcast_shapes(x.shape, y.shape)).copy()
                        if x.shape or y.shape else c)
        elif not ready:   # back to the node once its operands are on vals
            kids = ((node.left, node.right) if isinstance(node, ast.BinOp)
                    else node.args if isinstance(node, ast.Call) else (node.operand,))
            todo += [(node, True)] + [(k, False) for k in reversed(kids)]
        elif isinstance(node, ast.BinOp):
            right = vals.pop()
            vals.append(_BINOPS[type(node.op)](vals.pop(), right))
        elif isinstance(node, ast.Call):
            vals.append(_FUNCS[node.func.id](vals.pop()))
        elif isinstance(node.op, ast.USub):
            vals.append(-vals.pop())
    return vals.pop()


def _error(text, what, pos):
    return ParseError(f"{what} at position {pos} in {text!r}", position=pos)


def parse_potential(text) -> PotentialExpr:
    """Parse an expression into a PotentialExpr. Raises ParseError with the
    position in text of the first character it cannot read, or of the first
    non-space character for a tree deeper than MAX_DEPTH."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression", position=0)
    lead = len(text) - len(text.lstrip())
    body = "".join(" " if c.isspace() else c for c in text.strip())
    if m := _FOREIGN.search(body):
        raise _error(text, f"unexpected {m.group()!r}", lead + m.start())
    src = body.replace("^", "**")
    at = []   # at[k]: the index in text of src[k]; each ^ spans two columns
    for i, c in enumerate(body, start=lead):
        at += [i, i] if c == "^" else [i]
    at.append(lead + len(body))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # what the parser warns of is rejected anyway
            root = ast.parse(src, mode="eval").body
    except SyntaxError as exc:
        raise _error(text, exc.msg, at[min((exc.offset or 1) - 1, len(at) - 1)]) from None
    except (RecursionError, MemoryError):   # the parser's limits on nesting
        raise _error(text, "expression nested too deeply", lead) from None

    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise _error(text, "expression nested too deeply", lead)
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            stack += ((node.right, depth + 1), (node.left, depth + 1))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
            stack.append((node.operand, depth + 1))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in _FUNCS and len(node.args) == 1 and not node.keywords
              and node.func.col_offset == node.col_offset):   # not (exp)(x)
            stack.append((node.args[0], depth + 1))
        elif isinstance(node, ast.Name) and node.id in ("x", "y"):
            pass
        elif isinstance(node, ast.Constant) and _NUMBER.fullmatch(
                src, node.col_offset, node.end_col_offset):
            # float() of the digits: past the float range an integer reads as inf
            node.value = float(src[node.col_offset:node.end_col_offset])
        else:
            start, end = at[node.col_offset], at[node.end_col_offset]
            raise _error(text, f"unexpected {text[start:end]!r}", start)
    return PotentialExpr(root=root, text=text)


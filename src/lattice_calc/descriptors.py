"""Declarative construction of norm families and spaces.

Families come from small JSON-style dictionaries:

    {"kind": "lp", "p": 2}
    {"kind": "lp", "p": "inf"}
    {"kind": "weighted_lp", "p": 1, "weights": [2, 1]}
    {"kind": "orlicz", "phi": "u^2"}

The gauge expression grammar is deliberately minimal: nonnegative number
literals, the variable ``u``, ``+``, ``*``, ``^`` (constant exponent),
``exp(...)`` and parentheses.  Nothing richer is accepted.  Python's own
parser reads it, as its +, * and ** group the same way, and one walk maps
the accepted forms to a tuple AST.
"""

from __future__ import annotations

import ast
import math
import re

import numpy as np

from .errors import DescriptorError
from .seq_lattice import (LpFamily, OrliczFamily, OrliczFunction,
                          SeqNormFamily, WeightedLpFamily, config_field)

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(u|exp|[()+*^]))")
# the walk of Python's parse, the AST walks and the compiled closures
# recurse at most twice per token, so at this many they stay inside
# Python's recursion limit
_MAX_TOKENS = 255


def _tokenize(text: str):
    """The lexemes of a gauge expression as Python source, each number a
    placeholder name ``_k`` for ``numbers[k]`` and ``^`` as ``**``: returns
    (words, numbers)."""
    words, numbers = [], []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise DescriptorError(
                f"unexpected character {text[pos:].lstrip()[0]!r} in gauge "
                f"expression {text!r}")
        num, word = m.groups()
        if num is not None:
            words.append(f"_{len(numbers)}")
            numbers.append(float(num))
        else:
            words.append("**" if word == "^" else word)
        pos = m.end()
    if len(words) > _MAX_TOKENS:
        raise DescriptorError(f"gauge expression of {len(words)} tokens "
                              f"exceeds the cap of {_MAX_TOKENS}")
    return words, numbers


def _parse(text: str):
    """The tuple AST of a gauge expression, parsed by Python, whose +, *
    and ** have the grammar's precedence and grouping (^ binds tightest,
    the rest group to the left); a power of a power folds."""
    words, numbers = _tokenize(text)
    if any(w == "exp" and after != "("
           for w, after in zip(words, words[1:] + [None])):
        raise DescriptorError(f"exp must be followed by '(' in {text!r}")
    try:
        tree = ast.parse(" ".join(words), mode="eval").body
    except SyntaxError as err:
        raise DescriptorError(
            f"malformed gauge expression {text!r}: {err.msg}") from None

    def walk(node):
        if isinstance(node, ast.Name) and node.id == "u":
            return ("var",)
        if isinstance(node, ast.Name) and node.id.startswith("_"):
            return ("num", numbers[int(node.id[1:])])
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "exp" and len(node.args) == 1):
            return ("exp", walk(node.args[0]))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return ("add", walk(node.left), walk(node.right))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            return ("mul", walk(node.left), walk(node.right))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base, p = walk(node.left), _const_value(walk(node.right), text)
            if base[0] == "pow":  # (f^a)^p = f^(a p), as no value is negative
                base, p = base[1], base[2] * p
            return ("pow", base, p)
        raise DescriptorError(f"unsupported form in gauge expression {text!r}")

    return walk(tree)


def _const_value(node, text):
    if node[0] == "num":
        return node[1]
    if node[0] == "add":
        return _const_value(node[1], text) + _const_value(node[2], text)
    if node[0] == "mul":
        return _const_value(node[1], text) * _const_value(node[2], text)
    raise DescriptorError(f"exponent must be constant in {text!r}")


def _compile(node, memo=None):
    """The closure u -> value of an AST, built once per node: ``memo`` maps
    the id of each node compiled in this call to its closure, so a subtree
    that ``_derivative`` shares between parents compiles once.

    A number that is one operand of + or * enters as a Python float, which
    gives the same products and sums as a filled array.  Small integer
    powers are repeated multiplications: float pow is the dominant cost
    inside Luxemburg solves.
    """
    if memo is None:
        memo = {}
    elif id(node) in memo:
        return memo[id(node)]
    kind = node[0]
    if kind == "num":
        value = node[1]
        fn = lambda u: np.full_like(u, value)
    elif kind == "var":
        fn = lambda u: u
    elif kind in ("add", "mul"):
        op = np.add if kind == "add" else np.multiply
        left, right = node[1], node[2]
        if left[0] == "num" and right[0] != "num":
            c, g = left[1], _compile(right, memo)
            fn = lambda u: op(c, g(u))
        elif right[0] == "num" and left[0] != "num":
            f, c = _compile(left, memo), right[1]
            fn = lambda u: op(f(u), c)
        else:
            f, g = _compile(left, memo), _compile(right, memo)
            fn = lambda u: op(f(u), g(u))
    elif kind == "pow":
        f, p = _compile(node[1], memo), node[2]
        if p == int(p) and 1 <= p <= 4:
            def fn(u):
                base = f(u)
                out = base
                for _ in range(int(p) - 1):
                    out = out * base
                return out
        else:
            fn = lambda u: f(u) ** p
    elif kind == "exp":
        f = _compile(node[1], memo)
        fn = lambda u: np.exp(f(u))
    else:
        raise DescriptorError(f"unknown node {kind!r}")
    memo[id(node)] = fn
    return fn


def _is_num(node, value) -> bool:
    return node[0] == "num" and node[1] == value


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if a[0] == b[0] == "num":
        return ("num", a[1] + b[1])
    return ("add", a, b)


def _mul(a, b):
    # constants go to the left and fold, so c1 * (c2 * f) is one product
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return ("num", 0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if b[0] == "num":
        a, b = b, a
    if a[0] == "num" and b[0] == "num":
        return ("num", a[1] * b[1])
    if a[0] == "num" and b[0] == "mul" and b[1][0] == "num":
        return _mul(("num", a[1] * b[1][1]), b[2])
    return ("mul", a, b)


def _derivative(node):
    """The AST of d/du of an AST, by the sum, product, power and chain
    rules, with constants folded."""
    kind = node[0]
    if kind == "num":
        return ("num", 0.0)
    if kind == "var":
        return ("num", 1.0)
    if kind == "add":
        return _add(_derivative(node[1]), _derivative(node[2]))
    if kind == "mul":
        f, g = node[1], node[2]
        return _add(_mul(_derivative(f), g), _mul(f, _derivative(g)))
    if kind == "pow":
        f, p = node[1], node[2]
        lowered = f if p == 2.0 else ("pow", f, p - 1.0)
        return _mul(_mul(("num", p), lowered), _derivative(f))
    if kind == "exp":
        return _mul(node, _derivative(node[1]))
    raise DescriptorError(f"unknown node {kind!r}")


def _leading(node):
    """(c, q) with c u^q the leading term of an AST as u -> 0+ (q = inf for
    zero); every subexpression is nonnegative there."""
    kind = node[0]
    if kind == "num":  # numpy floats: an overflow is inf, not an exception
        return np.float64(node[1]), (0.0 if node[1] > 0.0 else math.inf)
    if kind == "var":
        return 1.0, 1.0
    c, q = _leading(node[1])
    if kind == "exp":
        return np.exp(c if q == 0.0 else 0.0), 0.0
    if kind == "pow":
        return c ** node[2], q * node[2]
    c2, q2 = _leading(node[2])
    if kind == "mul":
        return c * c2, q + q2
    return (c + c2 if q == q2 else c if q < q2 else c2), min(q, q2)


def _quiet(f, c=None, q=None):
    """``f`` on float arrays, with no warning for 0 * inf or overflow; given
    ``c`` and ``q``, c u^q wherever ``f`` is not finite."""
    def call(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v = f(u)
            return v if q is None else np.where(np.isfinite(v), v, c * u ** q)
    return call


def parse_gauge(expression: str) -> OrliczFunction:
    """Compile a gauge expression to a validated Orlicz function that
    carries its derivatives phi' and phi''.

    Where the compiled phi' is not finite at 0 (0 * inf, as in u^2*u^0.5),
    phi' and phi'' wherever they are not finite (also where a base such as
    u^2+u^3 underflows under a negative power) are those of the leading
    term c u^q near 0, so phi'(0) is c when q = 1, and 0 when q > 1.
    """
    tree = _parse(expression)
    phi = _compile(tree)
    first = _derivative(tree)
    dphi, ddphi = _compile(first), _compile(_derivative(first))

    def func(u):
        return phi(np.asarray(u, dtype=float))

    def derivative(u):  # the hot call: a finite phi'(0) rules out 0 * inf
        return dphi(np.asarray(u, dtype=float))

    second_derivative = _quiet(ddphi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not np.isfinite(dphi(np.zeros(()))):  # q < 1 gives phi'(0) = inf
            c, q = _leading(tree)
            derivative = _quiet(dphi, c * q, q - 1.0)
            second_derivative = _quiet(ddphi, c * q * (q - 1.0), q - 2.0)
    return OrliczFunction(func, expression=expression, derivative=derivative,
                          second_derivative=second_derivative)


def _parse_exponent(desc: dict) -> float:
    raw = config_field(desc, "p", (float, str), where="family")
    if not isinstance(raw, str):
        return float(raw)
    if raw.lower() in ("inf", "infinity"):
        return math.inf
    raise DescriptorError(f"cannot parse exponent {raw!r}")


def family_from_descriptor(desc: dict) -> SeqNormFamily:
    if not isinstance(desc, dict) or "kind" not in desc:
        raise DescriptorError(f"norm-family descriptor must be a dict with "
                              f"a 'kind', got {desc!r}")
    kind = desc["kind"]
    if kind == "lp":
        return LpFamily(_parse_exponent(desc))
    if kind == "weighted_lp":
        p = _parse_exponent(desc)
        weights = config_field(desc, "weights", list, where="family")
        return WeightedLpFamily(p, weights)
    if kind == "orlicz":
        phi = config_field(desc, "phi", str, where="family")
        return OrliczFamily(parse_gauge(phi))
    raise DescriptorError(f"unknown norm-family kind {kind!r}")

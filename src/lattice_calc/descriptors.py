"""Declarative construction of norm families and spaces.

Families come from small JSON-style dictionaries:

    {"kind": "lp", "p": 2}
    {"kind": "lp", "p": "inf"}
    {"kind": "weighted_lp", "p": 1, "weights": [2, 1]}
    {"kind": "orlicz", "phi": "u^2"}

The gauge expression grammar is deliberately minimal: nonnegative number
literals, the variable ``u``, ``+``, ``*``, ``^`` (constant exponent),
``exp(...)`` and parentheses.  Nothing richer is accepted.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import DescriptorError
from .seq_lattice import (LpFamily, OrliczFamily, OrliczFunction,
                          SeqNormFamily, WeightedLpFamily, config_field)

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(u)|(exp)|([()+*^]))")
# the parser, the AST walks and the compiled closures recurse at most twice
# per token, so at this many they stay inside Python's recursion limit
_MAX_TOKENS = 255


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise DescriptorError(
                f"unexpected character {text[pos:].lstrip()[0]!r} in gauge "
                f"expression {text!r}")
        num, var, fn, op = m.groups()
        if num is not None:
            tokens.append(("num", float(num)))
        elif var is not None:
            tokens.append(("u", None))
        elif fn is not None:
            tokens.append(("exp", None))
        else:
            tokens.append((op, None))
        pos = m.end()
    if len(tokens) > _MAX_TOKENS:
        raise DescriptorError(f"gauge expression of {len(tokens)} tokens "
                              f"exceeds the cap of {_MAX_TOKENS}")
    tokens.append(("end", None))
    return tokens


class _Parser:
    """Recursive descent over:  expr := term (+ term)*
    term := factor (* factor)* ; factor := atom (^ const)? ;
    atom := number | u | exp(expr) | (expr)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise DescriptorError(
                f"expected {kind!r} at token {self.pos} of {self.text!r}, "
                f"found {tok[0]!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() != "end":
            raise DescriptorError(f"trailing tokens in {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == "+":
            self.take("+")
            node = ("add", node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.take("*")
            node = ("mul", node, self.factor())
        return node

    def factor(self):
        node = self.atom()
        if self.peek() == "^":
            self.take("^")
            p = _const_value(self.atom(), self.text)
            if node[0] == "pow":  # (f^a)^p = f^(a p), as no value is negative
                node, p = node[1], node[2] * p
            node = ("pow", node, p)
        return node

    def atom(self):
        kind = self.peek()
        if kind == "num":
            return ("num", self.take()[1])
        if kind == "u":
            self.take()
            return ("var",)
        if kind == "exp":
            self.take()
            self.take("(")
            inner = self.expr()
            self.take(")")
            return ("exp", inner)
        if kind == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        raise DescriptorError(f"unexpected token {kind!r} in {self.text!r}")


def _const_value(node, text):
    if node[0] == "num":
        return node[1]
    if node[0] == "add":
        return _const_value(node[1], text) + _const_value(node[2], text)
    if node[0] == "mul":
        return _const_value(node[1], text) * _const_value(node[2], text)
    raise DescriptorError(f"exponent must be constant in {text!r}")


def _compile(node):
    """The closure u -> value of an AST, built once.

    A number that is one operand of + or * enters as a Python float, which
    gives the same products and sums as a filled array.  Small integer
    powers are repeated multiplications: float pow is the dominant cost
    inside Luxemburg solves.
    """
    kind = node[0]
    if kind == "num":
        value = node[1]
        return lambda u: np.full_like(u, value)
    if kind == "var":
        return lambda u: u
    if kind in ("add", "mul"):
        op = np.add if kind == "add" else np.multiply
        left, right = node[1], node[2]
        if left[0] == "num" and right[0] != "num":
            c, g = left[1], _compile(right)
            return lambda u: op(c, g(u))
        if right[0] == "num" and left[0] != "num":
            f, c = _compile(left), right[1]
            return lambda u: op(f(u), c)
        f, g = _compile(left), _compile(right)
        return lambda u: op(f(u), g(u))
    if kind == "pow":
        f, p = _compile(node[1]), node[2]
        if p == int(p) and 1 <= p <= 4:
            def power(u):
                base = f(u)
                out = base
                for _ in range(int(p) - 1):
                    out = out * base
                return out
            return power
        return lambda u: f(u) ** p
    if kind == "exp":
        f = _compile(node[1])
        return lambda u: np.exp(f(u))
    raise DescriptorError(f"unknown node {kind!r}")


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
    ast = _Parser(expression).parse()
    phi = _compile(ast)
    first = _derivative(ast)
    dphi, ddphi = _compile(first), _compile(_derivative(first))

    def func(u):
        return phi(np.asarray(u, dtype=float))

    def derivative(u):  # the hot call: a finite phi'(0) rules out 0 * inf
        return dphi(np.asarray(u, dtype=float))

    second_derivative = _quiet(ddphi)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if not np.isfinite(dphi(np.zeros(()))):  # q < 1 gives phi'(0) = inf
            c, q = _leading(ast)
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

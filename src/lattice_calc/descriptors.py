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
            exponent = self.atom()
            node = ("pow", node, _const_value(exponent, self.text))
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


def _evaluate(node, u):
    kind = node[0]
    if kind == "num":
        return np.full_like(u, node[1])
    if kind == "var":
        return u
    if kind == "add":
        return _evaluate(node[1], u) + _evaluate(node[2], u)
    if kind == "mul":
        return _evaluate(node[1], u) * _evaluate(node[2], u)
    if kind == "pow":
        base = _evaluate(node[1], u)
        exponent = node[2]
        # small integer powers by repeated multiplication; float pow is the
        # dominant cost inside Luxemburg bisections
        if exponent == int(exponent) and 1 <= exponent <= 4:
            out = base
            for _ in range(int(exponent) - 1):
                out = out * base
            return out
        return base ** exponent
    if kind == "exp":
        return np.exp(_evaluate(node[1], u))
    raise DescriptorError(f"unknown node {kind!r}")


def parse_gauge(expression: str) -> OrliczFunction:
    """Compile a gauge expression to a validated Orlicz function."""
    ast = _Parser(expression).parse()

    def func(u):
        arr = np.asarray(u, dtype=float)
        return _evaluate(ast, arr)

    return OrliczFunction(func, expression=expression)


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

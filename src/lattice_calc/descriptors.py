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

``parse_gauge`` compiles phi, phi' and phi'' into straight-line numpy
kernels, one per tuple of them that a solve asks for, each compiled at its
first request and cached by source.
"""

from __future__ import annotations

import ast
import copy
import functools
import math
import re

import numpy as np

from .errors import DescriptorError
from .seq_lattice import (LpFamily, OrliczFamily, OrliczFunction,
                          SeqNormFamily, WeightedLpFamily, config_field)

_TOKEN = re.compile(r"\s*(?:(\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)|(u|exp|[()+*^]))")
# the walk of Python's parse and the AST walks (derivatives, leading term,
# kernel programs) recurse at most twice per token, so at this many they
# stay inside Python's recursion limit; the kernels do not recurse
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


def _program(roots, patches=()):
    """(statements, results): statements set slots t0, t1, ... from u, one
    per distinct operation and operands, so equal subtrees of the ASTs
    ``roots`` compute once; results[i] is root i's slot or u, patched to
    c u^q where not finite if patches[i] is (c, q).  The operations are the
    tree walk's: a number beside a non-number under + or * is a Python
    float, others filled arrays; powers 2 to 4 are products from the left."""
    statements, slots, seen = [], {}, {}

    def number(text):
        if text not in slots:
            slots[text] = f"t{len(slots)}"
            statements.append(f"{slots[text]} = {text}")
        return slots[text]

    def visit(node):  # one frame per level of the AST
        if id(node) in seen:
            return seen[id(node)]
        kind = node[0]
        if kind == "var":
            name = "u"
        elif kind == "num":
            name = number(f"full_like(u, {node[1]!r})")
        elif kind == "exp":
            name = number(f"exp({visit(node[1])})")
        elif kind == "pow":
            base, p = visit(node[1]), node[2]
            name = base if p == 1.0 else number(
                " * ".join([base] * int(p)) if p in (2.0, 3.0, 4.0)
                else f"{base} ** {p!r}")
        else:
            left, right = node[1], node[2]
            lone = (left[0] == "num") != (right[0] == "num")
            a = repr(left[1]) if lone and left[0] == "num" else visit(left)
            b = repr(right[1]) if lone and right[0] == "num" else visit(right)
            op = "add" if kind == "add" else "multiply"
            name = number(f"{op}({a}, {b})")
        seen[id(node)] = name
        return name

    results = [visit(root) for root in roots]
    for i, patch in enumerate(patches):
        if patch is not None:
            c, q, v = *map(float, patch), results[i]
            results[i] = f"where(isfinite({v}), {v}, {c!r} * u ** {q!r})"
    return statements, results


@functools.lru_cache(maxsize=256)
def _function(source: str):
    """The function a kernel source defines, over numpy's names."""
    namespace = dict(vars(np))
    exec(compile(source, "<gauge kernel>", "exec"), namespace)
    return namespace["kernel"]


def _kernels(trees, patches=(None, None, None)):
    """kernel(*orders): the function u -> (phi^(k)(u) for k in orders) on
    float arrays, compiled at its first request; ``trees`` are the ASTs of
    phi, phi' and phi'' (k = 0, 1, 2), ``patches`` as in ``_program``."""
    made = {}

    def kernel(*orders):
        if orders not in made:
            statements, results = _program([trees[k] for k in orders],
                                           [patches[k] for k in orders])
            made[orders] = _function("\n    ".join(
                ["def kernel(u):", *statements,
                 f"return {', '.join(results)},"]))
        return made[orders]
    return kernel


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


def _entry(kernel, order, quiet):
    """The public phi^(order); ``quiet`` silences 0 * inf and overflow."""
    def call(u):
        u = np.asarray(u, dtype=float)
        if not quiet:
            return kernel(order)(u)[0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return kernel(order)(u)[0]
    return call


def parse_gauge(expression: str) -> OrliczFunction:
    """Compile a gauge expression to a validated Orlicz function that
    carries its derivatives phi' and phi'' and their fused kernels.

    Where the compiled phi' is not finite at 0 (0 * inf, as in u^2*u^0.5),
    phi' and phi'' wherever they are not finite (also where a base such as
    u^2+u^3 underflows under a negative power) are those of the leading
    term c u^q near 0, so phi'(0) is c when q = 1, and 0 when q > 1.
    An expression is compiled and validated once; each call returns its
    own copy, whose attributes can be replaced without touching the others.
    """
    return copy.copy(_compiled_gauge(expression))


@functools.lru_cache(maxsize=256)
def _compiled_gauge(expression: str) -> OrliczFunction:
    """``parse_gauge``'s function, shared by the calls for ``expression``
    (a malformed one raises, and is tried again, at each call)."""
    tree = _parse(expression)
    first = _derivative(tree)
    trees = (tree, first, _derivative(first))
    kernel = _kernels(trees)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        patched = not np.isfinite(kernel(1)(np.zeros(()))[0])
        if patched:  # q < 1 gives phi'(0) = inf
            c, q = _leading(tree)
            kernel = _kernels(trees, (None, (c * q, q - 1.0),
                                      (c * q * (q - 1.0), q - 2.0)))
    phi = OrliczFunction(_entry(kernel, 0, False), expression=expression,
                         derivative=_entry(kernel, 1, patched),
                         second_derivative=_entry(kernel, 2, True))
    phi.kernel = kernel  # one fused call in place of separate ones
    return phi


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

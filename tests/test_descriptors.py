"""Descriptor parsing and the gauge expression grammar."""

import itertools
import math
import warnings

import numpy as np
import pytest

from lattice_calc import (DescriptorError, InputError, OrliczFunction,
                          family_from_descriptor, parse_gauge)
from lattice_calc.descriptors import (_compiled_gauge, _derivative, _kernels,
                                      _parse, _program)


def test_lp_descriptor_roundtrip():
    fam = family_from_descriptor({"kind": "lp", "p": 2})
    assert fam.norm([3, 4]) == 5.0
    assert fam.p == 2.0
    inf = family_from_descriptor({"kind": "lp", "p": "inf"})
    assert inf.p == math.inf


def test_weighted_descriptor():
    fam = family_from_descriptor(
        {"kind": "weighted_lp", "p": 1, "weights": [2, 1]})
    assert fam.norm([1, 1]) == 3.0
    assert fam.weights.tolist() == [2.0, 1.0]


def test_orlicz_descriptor():
    fam = family_from_descriptor({"kind": "orlicz", "phi": "u^2"})
    assert fam.norm([3, 4]) == pytest.approx(5.0, rel=1e-12)
    assert fam.phi.expression == "u^2"


def test_gauge_grammar_forms():
    u = np.linspace(0.0, 3.0, 7)
    cases = {
        "u^2": u ** 2,
        "2*u": 2 * u,
        "u^2 + u^3": u ** 2 + u ** 3,
        "0.5*u^1.5": 0.5 * u ** 1.5,
        "(u^2)*(1 + u)": u ** 2 * (1 + u),
        "exp(u)*u^2": np.exp(u) * u ** 2,
        "u^(2)": u ** 2,
    }
    for text, expected in cases.items():
        phi = parse_gauge(text)
        assert np.allclose(phi(u), expected), text


def test_gauge_grammar_rejections():
    for text in ("u - 1", "v^2", "u^u", "sin(u)", "u^", "2 +", "(u", "u/2",
                 "u^2^3", "u**2", "(exp)(u)", "exp(u,)", "exp(u)(u)", "2(u)",
                 "u+ +u"):
        with pytest.raises(DescriptorError):
            parse_gauge(text)


def test_gauge_asts():
    # the tuple ASTs: + and * group to the left, ^ binds tightest, numbers
    # keep their decimal values, a power of a power folds
    var = ("var",)
    cases = {
        "u+u*u": ("add", var, ("mul", var, var)),
        "u^2*3": ("mul", ("pow", var, 2.0), ("num", 3.0)),
        "2*u^1.5": ("mul", ("num", 2.0), ("pow", var, 1.5)),
        "(u^2)^0.75": ("pow", var, 1.5),
        "u^(1+1)": ("pow", var, 2.0),
        "2^3*u": ("mul", ("pow", ("num", 2.0), 3.0), var),
        "007*u": ("mul", ("num", 7.0), var),
        "exp((u))": ("exp", var),
    }
    for text, tree in cases.items():
        assert _parse(text) == tree, text


def test_shared_subtrees_compile_once():
    # phi'' of a product chain shares subtrees of phi and phi'; compiled as
    # a tree, 40 factors would build 42,560 closures, and with one closure
    # per shared node 1,671; its kernel has one statement per distinct
    # operation
    tree = _parse("*".join(["u"] * 40))
    statements, _ = _program([_derivative(_derivative(tree))])
    assert len(statements) == 226  # at most the 1,671 closures
    assert len(set(statements)) == len(statements)


def test_long_chain_is_an_input_error():
    # u^127 underflows to 0 on the probe grid, so the gauge is not strictly
    # increasing there
    with pytest.raises(InputError, match="strictly increasing"):
        parse_gauge("*".join(["u"] * 127))


def test_infinite_or_nan_exponent_is_an_input_error():
    # u^inf is 0 on [0, 1) and u^nan is NaN: both fail validation
    for text in ("u^1e999", "u^(1e999*0)", "u^2*u^1e999"):
        with np.errstate(all="ignore"), pytest.raises(InputError):
            parse_gauge(text)


def test_invalid_gauges_rejected_by_validation():
    # parses, but fails the Orlicz contract (phi(0) = 1)
    with pytest.raises(Exception):
        parse_gauge("exp(u)")


def test_family_descriptor_rejections():
    for bad in ({"kind": "nope"}, {"p": 2}, "lp", {"kind": "lp"},
                {"kind": "weighted_lp", "p": 2},
                {"kind": "lp", "p": "two"}):
        with pytest.raises(DescriptorError):
            family_from_descriptor(bad)


def _tree_walk(node, u):
    """Reference evaluation of a gauge AST by walking the tree at each call."""
    kind = node[0]
    if kind == "num":
        return np.full_like(u, node[1])
    if kind == "var":
        return u
    if kind == "add":
        return _tree_walk(node[1], u) + _tree_walk(node[2], u)
    if kind == "mul":
        return _tree_walk(node[1], u) * _tree_walk(node[2], u)
    if kind == "pow":
        base = _tree_walk(node[1], u)
        exponent = node[2]
        if exponent == int(exponent) and 1 <= exponent <= 4:
            out = base
            for _ in range(int(exponent) - 1):
                out = out * base
            return out
        return base ** exponent
    if kind == "exp":
        return np.exp(_tree_walk(node[1], u))
    raise AssertionError(kind)


ORDERS = [orders for size in (1, 2, 3)
          for orders in itertools.combinations((0, 1, 2), size)]


def _same_bits(got, want):
    return (np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def test_compiled_gauge_is_bitwise_the_tree_walk():
    # every node kind: numbers (as one operand and as both), the variable,
    # sums, products, integer and fractional powers, nested exponentials;
    # phi, phi', phi'' and every tuple of them, on arrays and 0-d arrays
    exprs = ("u", "u^2", "u^3", "u^4", "u^1.5", "u^2.5 + u", "0.5*u^1.5",
             "u*2", "(2*3)*u", "u*(1 + 2)", "2*u + u^3 + 0.25*u^4",
             "(u^2)*(1 + u)", "u*exp(u)", "exp(u)*u^2", "u^2*exp(u^2 + u)",
             "u*exp(0.1*exp(u))", "(u + u^2)^2", "(u^2 + u)^1.25")
    u = np.concatenate([[0.0], np.geomspace(1e-9, 6.0, 97)])
    for text in exprs:
        tree = _parse(text)
        first = _derivative(tree)
        trees = (tree, first, _derivative(first))
        phi = parse_gauge(text)
        assert _same_bits(phi.func(u), _tree_walk(tree, u)), text
        assert phi.func(u[5]) == _tree_walk(tree, np.asarray(u[5])), text
        for x in (u, np.asarray(u[5]), np.asarray(0.0)):
            with np.errstate(all="ignore"):
                walked = [_tree_walk(t, x) for t in trees]
                for orders in ORDERS:
                    got = phi.kernel(*orders)(x)
                    assert len(got) == len(orders), (text, orders)
                    for k, value in zip(orders, got):
                        assert _same_bits(value, walked[k]), (text, orders)
                public = (phi.func(x), phi.derivative(x),
                          phi.second_derivative(x))
            assert all(_same_bits(p, w) for p, w in zip(public, walked)), text


def test_patched_gauges_fuse_the_public_derivatives():
    # phi' is 0 * inf at 0, and for (u^2+u^3)^0.5 the base underflows
    u = np.concatenate([[0.0, 1e-300, 1e-160], np.geomspace(1e-9, 6.0, 97)])
    for text in ("u^2*u^0.5", "(u^2+u^3)^0.5"):
        phi = parse_gauge(text)
        for x in (u, np.asarray(0.0), np.asarray(1e-300)):
            public = (phi.func(x), phi.derivative(x),
                      phi.second_derivative(x))
            for orders in ORDERS:
                with np.errstate(all="ignore"):
                    got = phi.kernel(*orders)(x)
                for k, value in zip(orders, got):
                    assert _same_bits(value, public[k]), (text, orders)


def test_gauge_derivatives_match_hand_formulas():
    u = np.geomspace(1e-6, 4.0, 50)
    e, e2 = np.exp(u), np.exp(u * u)
    cases = {
        "u^2": (2.0 * u, np.full_like(u, 2.0)),
        "u^3": (3.0 * u * u, 6.0 * u),
        "u^1.5": (1.5 * u ** 0.5, 0.75 * u ** -0.5),
        "u^2+u^4": (2.0 * u + 4.0 * u ** 3, 2.0 + 12.0 * u * u),
        "u*exp(u)": ((1.0 + u) * e, (2.0 + u) * e),
        "3*u + u^2": (3.0 + 2.0 * u, np.full_like(u, 2.0)),
        "exp(u^2)*u^2": (2.0 * u * (1.0 + u * u) * e2,
                         (2.0 + 10.0 * u * u + 4.0 * u ** 4) * e2),
        "(u+u^2)^2": (2.0 * (u + u * u) * (1.0 + 2.0 * u),
                      2.0 * (1.0 + 2.0 * u) ** 2 + 4.0 * (u + u * u)),
    }
    for text, (d1, d2) in cases.items():
        phi = parse_gauge(text)
        got1, got2 = phi.derivative(u), phi.second_derivative(u)
        assert np.allclose(got1, d1, rtol=1e-13, atol=0.0), text
        assert np.allclose(got2, d2, rtol=1e-13, atol=0.0), text
    # at 0: phi' of u^1.5 is 0 and phi'' is +inf, without warnings
    phi = parse_gauge("u^1.5")
    d1, d2 = phi.derivative(0.0), phi.second_derivative(0.0)
    assert d1 == 0.0 and d2 == np.inf


def test_gauges_without_usable_derivatives():
    # phi' is infinite at 0, or phi'' underflows to 0 at the probe grid's
    # first point next to a nonzero phi'
    for text in ("1e-9*u^0.5+u^2", "u+u^50"):
        with pytest.raises(InputError, match="phi''"):
            parse_gauge(text)


def test_gauges_that_overflow_stay_input_errors():
    # the leading term of these overflows while phi' is patched at 0
    for text in ("exp(1000)*u^2*u^0.5", "(1e200*u^2)^4*u^0.5"):
        with np.errstate(all="ignore"), pytest.raises(InputError):
            parse_gauge(text)


def test_power_of_a_power_folds():
    assert _parse("(u^2)^0.75") == _parse("u^1.5")
    assert _parse("(u^2)^0.5") == ("pow", ("var",), 1.0)
    u = np.concatenate([[0.0], np.geomspace(1e-9, 6.0, 97)])
    assert np.array_equal(parse_gauge("(u^2)^0.5")(u), u)
    assert parse_gauge("(u^2)^0.5").linear and parse_gauge("u").linear
    assert not parse_gauge("(u^2)^0.75").linear


def test_phi_prime_at_zero_from_the_leading_term():
    # u^2*u^0.5 and (u^2+u^3)^0.5 compile to phi' = 0 * inf = NaN at 0
    for text, at_zero in (("(u^2)^0.75", 0.0), ("u^2*u^0.5", 0.0),
                          ("(u^2+u^3)^0.5", 1.0), ("u+u^2", 1.0),
                          ("0.5*u*exp(u)", 0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert parse_gauge(text).derivative(0.0) == at_zero, text
    with np.errstate(all="ignore"):
        tree = _parse("u^2*u^0.5")
        raw = _kernels((tree, _derivative(tree), None))(1)
        assert np.isnan(raw(np.zeros(1))[0][0])


def test_finite_phi_prime_is_the_compiled_one():
    u = np.concatenate([[0.0], np.geomspace(1e-9, 6.0, 97)])
    for text in ("u^2", "u^1.5", "u*exp(u)", "u^2+u^4", "exp(u^2)*u^2",
                 "u+u^2", "u", "2*u", "u^2*u^0.5", "(u^2+u^3)^0.5"):
        first = _derivative(_parse(text))
        phi = parse_gauge(text)
        with np.errstate(all="ignore"):
            d1, d2 = _tree_walk(first, u), _tree_walk(_derivative(first), u)
        for got, want in ((phi.derivative(u), d1),
                          (phi.second_derivative(u), d2)):
            if np.isfinite(d1[0]):
                assert got.tobytes() == want.tobytes(), text
            finite = np.isfinite(want)
            assert got[finite].tobytes() == want[finite].tobytes(), text


def test_repeated_expression_is_validated_once(monkeypatch):
    solves, solve = [], OrliczFunction._solve_unit_level

    def counting(self):
        solves.append(1)
        return solve(self)

    monkeypatch.setattr(OrliczFunction, "_solve_unit_level", counting)
    _compiled_gauge.cache_clear()
    first, second = parse_gauge("u^2+u^4"), parse_gauge("u^2+u^4")
    assert len(solves) == 1
    assert first is not second
    assert first.unit_level == second.unit_level
    assert first.linear is second.linear is False
    u = np.geomspace(1e-9, 6.0, 50)
    for order in (0, 1, 2):
        assert (first.kernel(order)(u)[0].tobytes()
                == second.kernel(order)(u)[0].tobytes())
    assert first(u).tobytes() == second(u).tobytes()
    # replacing one copy's kernel leaves the other alone
    monkeypatch.setattr(first, "kernel", None)
    assert callable(second.kernel)
    assert parse_gauge("u^2+u^4").kernel is second.kernel


def test_malformed_expression_raises_at_every_call():
    for _ in range(2):
        with pytest.raises(DescriptorError):
            parse_gauge("u^")
        with pytest.raises(InputError, match="vanish at 0"):
            parse_gauge("exp(u)")

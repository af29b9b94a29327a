"""The benchmark's oracles against values computed by hand.

Run with:  python3 -m pytest bench/test_oracles.py -q
"""

import math

import numpy as np
import pytest

from oracles import (GAUGES, constant_ratio, lp_norm, operator_norm,
                     pointwise_mixed, strong_mixed)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
OMEGA = 0.5671432904097838  # u * exp(u) = 1, the omega constant W(1)


def test_lp_norms():
    assert lp_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, rel=1e-15)
    assert lp_norm([1.0, -2.0, 2.0], 1.0) == 5.0
    assert lp_norm([1.0, -2.0, 2.0], math.inf) == 2.0
    assert lp_norm([1.0, 1.0], 3.0) == pytest.approx(2.0 ** (1 / 3), rel=1e-15)
    assert lp_norm([0.0, 0.0], 1.5) == 0.0


def test_mixed_norms():
    rows = np.array([[3.0, 0.0], [0.0, 4.0]])
    # row norms (3, 4): l2 of them is 5; columnwise l1 norms (3, 4): max 4
    assert strong_mixed(rows, 1.0, 2.0) == pytest.approx(5.0, rel=1e-15)
    assert pointwise_mixed(rows, math.inf, 1.0) == 4.0
    rows = np.array([[1.0, 2.0], [2.0, 0.0]])
    # row l1 norms (3, 2) under linf: 3; column linf norms (2, 2) under l1: 4
    assert strong_mixed(rows, 1.0, math.inf) == 3.0
    assert pointwise_mixed(rows, 1.0, math.inf) == 4.0


def test_constant_ratio_identity_is_one():
    rows = np.array([[1.0, -2.0], [0.5, 3.0], [0.0, 1.0]])
    for flavor in ("convexity", "concavity"):
        for p in (1.0, 2.0, math.inf):
            assert constant_ratio(np.eye(2), rows, flavor, p, p, p) == \
                pytest.approx(1.0, rel=1e-15)


def test_operator_norms():
    m = [[1.0, 2.0], [3.0, 4.0]]
    assert operator_norm(m, 1.0) == 6.0
    assert operator_norm(m, math.inf) == 7.0
    assert operator_norm(m, 2.0) == pytest.approx(
        math.sqrt(15.0 + math.sqrt(221.0)), rel=1e-14)


def test_luxemburg_norms():
    assert GAUGES["u^2"].luxemburg([3.0, 4.0]) == pytest.approx(5.0, rel=1e-15)
    # u^2 + u^4 = 1 at u^2 = 1 / golden ratio, so ||e_1|| = sqrt(golden)
    assert GAUGES["u^2+u^4"].luxemburg([1.0]) == pytest.approx(
        math.sqrt(GOLDEN), rel=1e-14)
    assert GAUGES["u*exp(u)"].luxemburg([2.0]) == pytest.approx(
        2.0 / OMEGA, rel=1e-14)
    assert GAUGES["u^3"].luxemburg([0.0, 0.0]) == 0.0


def test_complementary_gauges():
    # u^2: phi*(v) = v^2 / 4; u*exp(u): phi'(1) = 2e and phi*(2e) = 2e - e
    assert GAUGES["u^2"].conjugate(2.0) == pytest.approx(1.0, rel=1e-14)
    assert GAUGES["u*exp(u)"].conjugate(2.0 * math.e) == pytest.approx(
        math.e, rel=1e-14)
    # phi'(0+) = 1 for u*exp(u), so phi* vanishes on [0, 1]
    assert GAUGES["u*exp(u)"].conjugate(0.75) == 0.0


def test_amemiya_duals():
    # on R^1 the dual norm of b is |b| * u1 with phi(u1) = 1
    assert GAUGES["u^2+u^4"].amemiya_dual([1.0]) == pytest.approx(
        1.0 / math.sqrt(GOLDEN), rel=1e-12)
    assert GAUGES["u*exp(u)"].amemiya_dual([-3.0]) == pytest.approx(
        3.0 * OMEGA, rel=1e-12)
    # the power gauges are lp, whose duals are l_q
    assert GAUGES["u^2"].amemiya_dual([3.0, 4.0]) == pytest.approx(5.0,
                                                                   rel=1e-12)
    assert GAUGES["u^3"].amemiya_dual([1.0, 1.0]) == pytest.approx(
        2.0 ** (1 / 1.5), rel=1e-12)
    assert GAUGES["u^1.5"].dual([1.0, 1.0]) == pytest.approx(
        2.0 ** (1 / 3), rel=1e-15)
    assert GAUGES["u^2+u^4"].amemiya_dual([0.0, 0.0]) == 0.0

"""Norm families and Koethe duals against closed forms and brute oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lattice_calc import (CustomFamily, InputError, LpFamily, OrliczFamily,
                          OrliczFunction, WeightedLpFamily, dual_witness,
                          holder_check, kothe_dual, kothe_dual_norm,
                          parse_gauge)

# ---------------------------------------------------------------------------
# independent oracles


def luxemburg_oracle(phi, t, rtol=1e-13):
    """Root bracketing of lam -> sum phi(|t_i|/lam) - 1, written without any
    library machinery: geometric scan for a sign change, then plain halving."""
    mags = [abs(v) for v in t if v != 0.0]
    if not mags:
        return 0.0
    level = lambda lam: sum(float(phi(np.asarray(m / lam))) for m in mags) - 1.0
    lo = max(mags) * 1e-6
    while level(lo) <= 0.0:
        lo /= 2.0
    hi = lo
    while level(hi) > 0.0:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if level(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rtol * hi:
            break
    return 0.5 * (lo + hi)


def dual_mesh_oracle(family, beta, points=10_000):
    """Brute maximization of sum |alpha beta| over a mesh of the unit sphere
    in R^2 (angles), independent of the package's ascent."""
    angles = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    dirs = dirs / family.norm_array(dirs)[:, None]
    return float(np.abs(dirs * np.asarray(beta)).sum(axis=-1).max())


# ---------------------------------------------------------------------------
# frozen example values

def test_l2_is_euclidean():
    assert LpFamily(2).norm([3, 4]) == 5.0


def test_linf_is_max():
    assert LpFamily(math.inf).norm([1, -2, 3]) == 3.0


def test_weighted_l1_value():
    assert WeightedLpFamily(1, [2, 1]).norm([1, 1]) == 3.0


def test_orlicz_square_matches_euclidean():
    fam = OrliczFamily(parse_gauge("u^2"))
    value = fam.norm([3, 4])
    assert value == pytest.approx(5.0, rel=1e-12)
    oracle = luxemburg_oracle(fam.phi.func, [3, 4])
    assert value == pytest.approx(oracle, rel=1e-11)


def test_orlicz_square_near_overflow_matches_l2():
    fam = OrliczFamily(parse_gauge("u^2"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = fam.norm([1e308, 1e308])
        single = fam.norm([1e308])
        batch = fam.norm_array(np.array([[1e308, 1e308], [3.0, 4.0]]))
    assert huge == pytest.approx(LpFamily(2).norm([1e308, 1e308]), rel=1e-12)
    assert single == pytest.approx(1e308, rel=1e-12)
    assert batch[0] == huge
    assert batch[1] == fam.norm([3.0, 4.0])


def test_orlicz_cubic_matches_bracketing_oracle():
    fam = OrliczFamily(parse_gauge("u^3 + u^1.5"))
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = rng.standard_normal(5) * 2.0
        assert fam.norm(t) == pytest.approx(
            luxemburg_oracle(fam.phi.func, t), rel=1e-10)


def test_dual_l1_is_linf():
    assert kothe_dual_norm(LpFamily(1), [1, -2, 3]).value == 3.0


def test_dual_l2_self():
    assert kothe_dual_norm(LpFamily(2), [3, 4]).value == pytest.approx(5.0)


def test_dual_l3_closed_form_and_mesh():
    fam = LpFamily(3)
    expected = 2.0 ** (2.0 / 3.0)  # conjugate exponent 3/2 on (1, 1)
    res = kothe_dual_norm(fam, [1, 1])
    assert res.value == pytest.approx(expected, rel=1e-12)
    assert dual_mesh_oracle(fam, [1, 1]) == pytest.approx(expected, abs=1e-3)
    numeric = kothe_dual_norm(fam, [1, 1], method="numeric", seed=1)
    assert numeric.value == pytest.approx(expected, rel=1e-6)
    assert numeric.converged


def test_weighted_dual_roundtrip():
    fam = WeightedLpFamily(1.5, [2.0, 0.5, 1.0])
    rng = np.random.default_rng(11)
    for _ in range(20):
        b = rng.standard_normal(3) * 2.0
        ana = kothe_dual_norm(fam, b).value
        mesh = _weighted_mesh(fam, b)
        assert ana == pytest.approx(mesh, rel=2e-3)


def _weighted_mesh(family, beta, points=4000):
    rng = np.random.default_rng(0)
    dirs = np.abs(rng.standard_normal((points, len(beta))))
    dirs = dirs / family.norm_array(dirs)[:, None]
    return float(np.abs(dirs * np.asarray(beta)).sum(axis=-1).max())


def test_dual_family_roundtrips():
    l2 = LpFamily(2)
    bidual = kothe_dual(kothe_dual(l2))
    rng = np.random.default_rng(5)
    probes = rng.standard_normal((20, 4))
    assert np.allclose(bidual.norm_array(probes), l2.norm_array(probes),
                       rtol=1e-9)
    orl = OrliczFamily(parse_gauge("u^2"))
    dual = kothe_dual(orl)
    assert np.allclose(dual.norm_array(probes), l2.norm_array(probes),
                       rtol=1e-6)


def test_dual_witness_attains():
    rng = np.random.default_rng(9)
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        fam = LpFamily(p)
        for _ in range(10):
            b = rng.standard_normal(5)
            w = dual_witness(fam, b)
            assert fam.norm(w) == pytest.approx(1.0, rel=1e-12)
            assert float(w @ b) == pytest.approx(
                kothe_dual_norm(fam, b).value, rel=1e-12)


# ---------------------------------------------------------------------------
# invariants

@seed(7)
@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
       st.floats(-8.0, 8.0))
def test_homogeneity_property(vec, lam):
    for fam in (LpFamily(1), LpFamily(2.5), LpFamily(math.inf)):
        base = fam.norm(vec)
        assert fam.norm([lam * v for v in vec]) == pytest.approx(
            abs(lam) * base, rel=1e-12, abs=1e-9)


@seed(8)
@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
def test_padding_property(vec):
    for fam in (LpFamily(1.5), LpFamily(math.inf),
                OrliczFamily(parse_gauge("u^2"))):
        assert fam.norm(vec + [0.0]) == fam.norm(vec)


@seed(9)
@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e2, 1e2), min_size=2, max_size=6),
       st.lists(st.floats(0.0, 1.0), min_size=2, max_size=6))
def test_monotonicity_property(vec, shrink):
    n = min(len(vec), len(shrink))
    fam = OrliczFamily(parse_gauge("u^2 + 0.5*u^4"))
    smaller = [vec[i] * shrink[i] for i in range(n)]
    assert fam.norm(smaller) <= fam.norm(vec[:n]) * (1 + 1e-12) + 1e-12


def test_holder_bounds_and_disjoint_support():
    lhs, rhs, holds = holder_check(LpFamily(2), [1, 1], [1, 1])
    assert holds and lhs == pytest.approx(2.0) and rhs == pytest.approx(2.0)
    lhs, rhs, holds = holder_check(LpFamily(1), [1, 0], [0, 5])
    assert holds and lhs == 0.0 and rhs == pytest.approx(5.0)


def test_holder_random_sweep():
    rng = np.random.default_rng(21)
    fams = [LpFamily(1), LpFamily(1.5), LpFamily(2),
            OrliczFamily(parse_gauge("u^2"))]
    for fam in fams:
        for _ in range(50):
            a = rng.standard_normal(5)
            b = rng.standard_normal(5)
            _, _, holds = holder_check(fam, a, b)
            assert holds


def test_custom_family_wraps_oracle():
    fam = CustomFamily(lambda v: float(np.abs(v).max() + 0.5 * np.abs(v).sum()),
                       label="mix")
    assert fam.norm([1, -2]) == pytest.approx(2.0 + 1.5)
    dual = kothe_dual(fam)
    val = dual.norm([1.0, 1.0])
    # dual of a norm between linf and 1.5*linf lies between l1 scaled values
    assert 2.0 / 3.0 <= val <= 2.0


# ---------------------------------------------------------------------------
# rejection paths

def test_empty_vector_rejected():
    with pytest.raises(InputError):
        LpFamily(2).norm([])


def test_bad_exponent_rejected():
    with pytest.raises(InputError):
        LpFamily(0.5)


def test_nonpositive_weight_rejected():
    with pytest.raises(InputError):
        WeightedLpFamily(2, [1.0, 0.0])


def test_weight_coverage_enforced():
    fam = WeightedLpFamily(2, [1.0, 2.0])
    with pytest.raises(InputError):
        fam.norm([1.0, 1.0, 1.0])


def test_invalid_gauges_rejected():
    with pytest.raises(InputError):
        OrliczFunction(lambda u: u + 1.0)  # phi(0) != 0
    with pytest.raises(InputError):
        OrliczFunction(lambda u: np.sqrt(u))  # concave
    with pytest.raises(InputError):
        OrliczFunction(lambda u: 0.0 * u)  # not increasing


def test_nonfinite_vector_rejected():
    with pytest.raises(InputError):
        LpFamily(2).norm([1.0, float("nan")])

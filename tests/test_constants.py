"""Convexity and concavity constants, oracles and duality."""

import math

import numpy as np
import pytest

from lattice_calc import constants
from lattice_calc import (AscentBudget, InputError, LpFamily, NormedSpace,
                          OperatorInstance, OrliczFamily, ScaleGuardError,
                          brute_force_constant, concavity_ratio,
                          convexity_ratio, duality_check, estimate_constant,
                          functional_norm, kothe_dual, lattice,
                          lattice_constants, parse_gauge,
                          pointwise_mixed_norm, strong_mixed_norm,
                          tail_profile, transpose)

LIGHT = AscentBudget(12, 200)


def _identity(p, m=3):
    space = lattice(m, LpFamily(p))
    return OperatorInstance(np.eye(m), space, space)


def test_ratio_identity_matched_lp_is_one():
    rng = np.random.default_rng(0)
    for p in (1.0, 2.0, math.inf):
        op = _identity(p)
        for _ in range(20):
            rows = rng.standard_normal((3, 3)) * 2.0
            assert convexity_ratio(op, LpFamily(p), rows) == pytest.approx(1.0)
            assert concavity_ratio(op, LpFamily(p), rows) == pytest.approx(1.0)


def test_ratio_scaling():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((2, 2))
    E = lattice(2, LpFamily(2))
    X = lattice(2, LpFamily(1))
    op = OperatorInstance(mat, E, X)
    scaled = OperatorInstance(-1.5 * mat, E, X)
    rows = rng.standard_normal((3, 2))
    assert convexity_ratio(scaled, LpFamily(2), rows) == pytest.approx(
        1.5 * convexity_ratio(op, LpFamily(2), rows), rel=1e-12)


def test_ratio_recomposition_oracle():
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((3, 2))
    E = lattice(2, LpFamily(1.5))
    X = lattice(3, LpFamily(2))
    op = OperatorInstance(mat, E, X)
    fam = LpFamily(3)
    rows = rng.standard_normal((3, 2))
    lifted = rows @ mat.T
    expected = (pointwise_mixed_norm(X, fam, lifted)
                / strong_mixed_norm(E, fam, rows))
    assert convexity_ratio(op, fam, rows) == pytest.approx(expected, rel=1e-12)


def test_zero_denominator_rejected():
    op = _identity(2)
    with pytest.raises(InputError):
        convexity_ratio(op, LpFamily(2), np.zeros((2, 3)))
    with pytest.raises(InputError):
        concavity_ratio(op, LpFamily(2), np.zeros((2, 3)))


def test_estimate_identity_levels_are_one():
    est = estimate_constant(_identity(2), LpFamily(2), "convexity", 3,
                            LIGHT, seed=0)
    for bound in est.per_n:
        assert bound.value == pytest.approx(1.0, abs=1e-6)
    assert est.overall == pytest.approx(1.0, abs=1e-6)


def test_estimate_scaling_same_seed():
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((2, 2))
    E = lattice(2, LpFamily(2))
    X = lattice(2, LpFamily(1))
    a = estimate_constant(OperatorInstance(mat, E, X), LpFamily(2),
                          "convexity", 2, LIGHT, seed=11)
    b = estimate_constant(OperatorInstance(2.0 * mat, E, X), LpFamily(2),
                          "convexity", 2, LIGHT, seed=11)
    for x, y in zip(a.per_n, b.per_n):
        assert y.value == pytest.approx(2.0 * x.value, rel=1e-9)


def test_estimate_levels_nondecreasing_and_witnesses():
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((3, 3))
    E = lattice(3, LpFamily(2))
    X = lattice(3, LpFamily(1))
    op = OperatorInstance(mat, E, X)
    est = estimate_constant(op, LpFamily(1.5), "convexity", 3, LIGHT, seed=2)
    values = [b.value for b in est.per_n]
    assert values == sorted(values)
    for bound in est.per_n:
        assert convexity_ratio(op, LpFamily(1.5), bound.witness) == \
            pytest.approx(bound.value, rel=1e-9)


def test_level_still_rising_at_the_cap_is_not_converged():
    # the best restart of level 2 still rises at the default 500 iterations
    # (a larger budget finds 2.146886905874126); the restarts agree to 1e-4
    # all the same, so only the rise at the cap tells that it was cut off
    mat = [[0.883761190648946, -0.8279961873158785],
           [-1.1585467696505203, -1.317337290210919]]
    op = OperatorInstance(mat, lattice(2, LpFamily(1.5)),
                          lattice(2, LpFamily(1)))
    est = estimate_constant(transpose(op), kothe_dual(LpFamily(3)),
                            "concavity", 2)
    assert [b.value for b in est.per_n] == [2.146835121520581,
                                            2.146886901168254]
    assert [b.converged for b in est.per_n] == [True, False]


def test_brute_force_identity_and_scalar():
    # the grid reports an attained lower bound and how it searched, no bracket
    bf = brute_force_constant(_identity(2, m=2), LpFamily(2), "convexity", 2,
                              grid_resolution=9)
    assert bf.per_n[0].value == pytest.approx(1.0, abs=1e-12)
    assert bf.optimizer.keys() == {"grid_resolution", "angles", "evaluations",
                                   "spacings", "refine_passes", "method"}
    assert "certified" not in bf.to_record()
    E1 = lattice(1, LpFamily(2))
    lam = OperatorInstance([[-2.5]], E1, E1)
    bf = brute_force_constant(lam, LpFamily(2), "convexity", 1)
    assert bf.per_n[0].value == pytest.approx(2.5)


def test_brute_force_scale_guard():
    with pytest.raises(ScaleGuardError):
        brute_force_constant(_identity(2, m=4), LpFamily(2), "convexity", 2)


@pytest.mark.parametrize("shape", [(1, 2), (2, 1)])
def test_estimate_scale_guard_counts_both_dimensions(shape, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("estimate_constant drew its level normals")

    monkeypatch.setattr(constants, "substream_normals", refuse)
    m, d = shape
    op = OperatorInstance(np.ones(shape), lattice(d, LpFamily(2)),
                          lattice(m, LpFamily(2)))
    for flavor in ("convexity", "concavity"):
        with pytest.raises(ScaleGuardError, match="10000000 tuple entries"):
            estimate_constant(op, LpFamily(2), flavor, 5_000_001)
        with pytest.raises(ScaleGuardError):
            duality_check(op, LpFamily(2), 5_000_001)


def test_estimate_agrees_with_grid_oracle():
    for k, (hp, xp) in enumerate([(1.0, math.inf), (2.0, 1.0)]):
        rng = np.random.default_rng(40 + k)
        mat = rng.standard_normal((2, 2))
        E = lattice(2, LpFamily(hp))
        X = lattice(2, LpFamily(xp))
        op = OperatorInstance(mat, E, X)
        for flavor, dom in (("convexity", (E, X)), ("concavity", (X, E))):
            inst = OperatorInstance(mat, *dom)
            est = estimate_constant(inst, LpFamily(2), flavor, 2,
                                    seed=7 + k).per_n[-1].value
            grid = brute_force_constant(inst, LpFamily(2), flavor, 2,
                                        grid_resolution=21).per_n[0].value
            assert est == pytest.approx(grid, rel=1e-2)


def test_functional_norm_sqrt2_case():
    E = lattice(1, LpFamily(2))
    res = functional_norm(E, LpFamily(2), [[1.0], [1.0]], "strong")
    assert res.value == pytest.approx(math.sqrt(2.0), rel=1e-9)


def test_functional_norm_single_coordinate():
    E = lattice(3, LpFamily(3))
    s = np.array([[0.0, 2.0, 0.0]])
    res = functional_norm(E, LpFamily(2), s, "strong")
    dual_row = E.dual().norm(s[0])
    expect = dual_row * kothe_dual(LpFamily(2)).norm([1.0])
    assert res.value == pytest.approx(expect, rel=1e-9)


def test_functional_norm_matches_dual_mixed_norms():
    for k in range(4):
        rng = np.random.default_rng(60 + k)
        space = lattice(3, LpFamily([2, 1.5, 3, 2][k]))
        fam = LpFamily([2, 3, 1.5, 2][k])
        s = rng.standard_normal((2, 3))
        strong = functional_norm(space, fam, s, "strong")
        assert strong.value == pytest.approx(
            strong_mixed_norm(space.dual(), kothe_dual(fam), s), rel=1e-3)
        pw = functional_norm(space, fam, s, "pointwise")
        assert pw.value == pytest.approx(
            pointwise_mixed_norm(space.dual(), kothe_dual(fam), s), rel=1e-3)


def test_functional_norm_is_its_support_map_without_a_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("functional_norm ran maximize_ratio")

    monkeypatch.setattr(constants, "maximize_ratio", refuse)
    s = np.random.default_rng(64).standard_normal((2, 3))
    space = lattice(3, LpFamily(1.5))
    fam = LpFamily(3)
    strong = functional_norm(space, fam, s, "strong")
    assert strong.value == pytest.approx(
        strong_mixed_norm(space.dual(), kothe_dual(fam), s), rel=1e-12)
    pw = functional_norm(space, fam, s, "pointwise")
    assert pw.value == pytest.approx(
        pointwise_mixed_norm(space.dual(), kothe_dual(fam), s), rel=1e-12)


def test_duality_identity_and_scaling():
    rep = duality_check(_identity(2), LpFamily(2), 2, LIGHT, seed=0)
    assert rep.rel_gap < 1e-6
    rng = np.random.default_rng(5)
    mat = rng.standard_normal((2, 2))
    E = lattice(2, LpFamily(2))
    X = lattice(2, LpFamily(1))
    a = duality_check(OperatorInstance(mat, E, X), LpFamily(2), 2, LIGHT, 3)
    b = duality_check(OperatorInstance(3.0 * mat, E, X), LpFamily(2), 2,
                      LIGHT, 3)
    assert b.convex_n == pytest.approx(3.0 * a.convex_n, rel=1e-9)
    assert b.rel_gap == pytest.approx(a.rel_gap, abs=1e-9)


def test_duality_of_two_capped_sides_is_not_converged():
    # both level-3 searches still rise at the default 500 iterations (at
    # 2,000 both reach 6.227486562095); their gap of 4.2e-9 is no proof
    mat = [[1.800163960689109, -1.7638487919380066, 0.8146089838296064,
            0.6886097707137209],
           [-1.6708253237122677, 0.1867623841714698, 0.19255519567617563,
            0.4057399765072929],
           [-0.6128370187277788, 0.4573767188610058, 1.0341152350930887,
            -1.00329738678775],
           [-0.3815772987947534, 0.6122838423145541, -0.9011101398200924,
            0.8779339054414145]]
    op = OperatorInstance(mat, lattice(4, LpFamily(3)),
                          lattice(4, LpFamily(1)))
    rep = duality_check(op, LpFamily(1.5), 3)
    assert rep.converged is False
    assert rep.convex_n == 6.227486560627885
    assert rep.concave_dual_n == 6.227486534241744


def test_lattice_constants_matched_lp_and_linf():
    conv, conc = lattice_constants(lattice(3, LpFamily(2)), LpFamily(2), 2,
                                   LIGHT, seed=0)
    assert conv.overall == pytest.approx(1.0, abs=1e-6)
    assert conc.overall == pytest.approx(1.0, abs=1e-6)
    conv, _ = lattice_constants(lattice(3, LpFamily(math.inf)),
                                LpFamily(math.inf), 2, LIGHT, seed=0)
    assert conv.overall == pytest.approx(1.0, abs=1e-6)


def test_lattice_constant_l1_lattice_vs_grid():
    space = lattice(2, LpFamily(1))
    conv, _ = lattice_constants(space, LpFamily(2), 2, seed=1)
    ident = OperatorInstance(np.eye(2), space, space)
    grid = brute_force_constant(ident, LpFamily(2), "convexity", 2,
                                grid_resolution=21)
    assert conv.per_n[-1].value == pytest.approx(grid.per_n[0].value,
                                                 rel=1e-2)
    # two orthogonal rows of unit l1 norm give the known sqrt(2) lower bound
    assert conv.per_n[-1].value >= math.sqrt(2.0) - 1e-9


def test_flavor_validation():
    op = _identity(2)
    with pytest.raises(InputError):
        estimate_constant(op, LpFamily(2), "smoothness", 2)
    with pytest.raises(InputError):
        estimate_constant(op, LpFamily(2), "convexity", 0)


_L2 = LpFamily(2)
_LATTICE, _NORMED = lattice(3, _L2), NormedSpace(3, _L2)
_ROWS = np.eye(3)[:2] + 0.5


@pytest.mark.parametrize("call", [
    lambda: functional_norm(_LATTICE, _L2, _ROWS, "weak"),
    lambda: functional_norm(_NORMED, _L2, _ROWS, "pointwise"),
    lambda: tail_profile(_L2, _LATTICE, _ROWS, "weak"),
    lambda: tail_profile(_L2, _NORMED, _ROWS, "pointwise"),
    lambda: convexity_ratio(OperatorInstance(np.eye(3), _LATTICE, _NORMED),
                            _L2, _ROWS),
    lambda: concavity_ratio(OperatorInstance(np.eye(3), _NORMED, _LATTICE),
                            _L2, _ROWS),
    lambda: brute_force_constant(_identity(2, m=2), _L2, "weak", 1),
], ids=["functional_norm-unknown", "functional_norm-normed-space",
        "tail_profile-unknown", "tail_profile-normed-space",
        "convexity_ratio-normed-codomain", "concavity_ratio-normed-domain",
        "brute_force_constant-unknown"])
def test_unknown_flavor_and_pointwise_without_lattice_refused(call):
    # the pointwise mixed norm is the one side a non-lattice space refuses
    with pytest.raises(InputError):
        call()


def test_estimate_to_record_roundtrip():
    est = estimate_constant(_identity(2, m=2), LpFamily(2), "convexity", 2,
                            LIGHT, seed=0)
    rec = est.to_record()
    assert rec["flavor"] == "convexity"
    assert len(rec["per_n"]) == 2
    assert rec["per_n"][0]["n"] == 1
    assert rec["optimizer"]["restarts"] == LIGHT.restarts


def test_orlicz_square_constants_equal_l2():
    # the Luxemburg norm of u^2 is the l2 norm exactly
    orl = OrliczFamily(parse_gauge("u^2"))
    mat = np.random.default_rng(5).standard_normal((2, 2))
    op = OperatorInstance(mat, lattice(2, LpFamily(2)),
                          lattice(2, LpFamily(1.5)))
    budget = AscentBudget(4, 30)
    for flavor in ("convexity", "concavity"):
        inst = op if flavor == "convexity" else OperatorInstance(
            mat, op.codomain, op.domain)
        got = estimate_constant(inst, orl, flavor, 2, budget, seed=1)
        ref = estimate_constant(inst, LpFamily(2), flavor, 2, budget, seed=1)
        for a, b in zip(got.per_n, ref.per_n):
            assert a.value == pytest.approx(b.value, rel=1e-9)
    got = duality_check(op, orl, 1, budget, seed=0)
    ref = duality_check(op, LpFamily(2), 1, budget, seed=0)
    assert got.convex_n == pytest.approx(ref.convex_n, rel=1e-9)
    assert got.concave_dual_n == pytest.approx(ref.concave_dual_n, rel=1e-9)


def test_kothe_bidual_of_numeric_dual_is_the_base():
    orl = OrliczFamily(parse_gauge("u^2"))
    assert kothe_dual(kothe_dual(orl)) is orl

"""Pointwise functional calculus and finite lattices."""

import math

import numpy as np
import pytest

from lattice_calc import (DimensionMismatchError, FiniteLattice, LpFamily,
                          NormedSpace, OrliczFamily, compose, dual_witness,
                          homogeneous, krivine_apply, kothe_dual, lattice,
                          lattice_valued_norm, norm_function, parse_gauge,
                          projection)


def test_projection_recovery_exact():
    rows = np.array([[1.0, -1.0, 2.0], [0.5, 3.0, -2.0]])
    for j in range(2):
        assert np.array_equal(krivine_apply(projection(2, j), rows), rows[j])


def test_pointwise_euclidean():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    got = krivine_apply(norm_function(LpFamily(2), 2), rows)
    assert np.allclose(got, [1.0, 1.0])


def test_pointwise_join():
    h = homogeneous(lambda a: np.maximum(a[..., 0], a[..., 1]), 2)
    got = krivine_apply(h, np.array([[1.0, -1.0], [0.0, 2.0]]))
    assert np.array_equal(got, [1.0, 2.0])


def test_lattice_valued_norm_values():
    rows = np.array([[1.0, 2.0], [2.0, 1.0]])
    assert np.allclose(lattice_valued_norm(LpFamily(1), rows), [3.0, 3.0])
    assert np.allclose(lattice_valued_norm(LpFamily(math.inf), rows),
                       [2.0, 2.0])
    orl = OrliczFamily(parse_gauge("u^2"))
    rows2 = np.array([[3.0, 0.0], [4.0, 0.0]])
    assert np.allclose(lattice_valued_norm(orl, rows2), [5.0, 0.0],
                       atol=1e-12)


def _composed_both_ways(inner, h, rows):
    """h applied to the tuple of inner outputs, and the composed function
    applied to the rows."""
    stage = np.stack([krivine_apply(g, rows) for g in inner])
    return krivine_apply(h, stage), krivine_apply(compose(h, inner), rows)


def test_compose_identity_with_projections():
    rows = np.random.default_rng(0).standard_normal((3, 4))
    inner = [projection(3, j) for j in range(3)]
    h = norm_function(LpFamily(2), 3)
    lhs, rhs = _composed_both_ways(inner, h, rows)
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(lhs, krivine_apply(h, rows))


def test_compose_identity_with_diagonal_scaling():
    # scaling the arguments before a norm equals composing with the scaled norm
    rng = np.random.default_rng(1)
    rows = rng.standard_normal((3, 4))
    coeff = rng.uniform(0.5, 2.0, 3)
    inner = [homogeneous(lambda a, j=j, c=coeff[j]: c * a[..., j], 3)
             for j in range(3)]
    h = norm_function(LpFamily(1.5), 3)
    lhs, rhs = _composed_both_ways(inner, h, rows)
    assert np.array_equal(lhs, rhs)
    assert np.array_equal(lhs, krivine_apply(h, coeff[:, None] * rows))


def test_bound_check_projection_and_ones():
    # the peak bound ||h(x_1, ..., x_n)|| <= sup|h| * ||max_j |x_j| || is an
    # equality for a projection (sup 1) of unit rows and for the l1 norm
    # (sup 3 at the all-ones corner) of the all-ones tuple
    X = lattice(2, LpFamily(math.inf))
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert X.norm(krivine_apply(projection(2, 0), rows)) == 1.0
    assert X.norm(np.abs(rows).max(axis=0)) == 1.0
    m = 4
    X1 = lattice(m, LpFamily(1))
    ones = np.ones((3, m))
    assert X1.norm(lattice_valued_norm(LpFamily(1), ones)) \
        == pytest.approx(3.0 * m)
    assert LpFamily(1).norm(np.ones(3)) * X1.norm(ones.max(axis=0)) \
        == pytest.approx(3.0 * m)


def test_homogeneity_validated_at_construction():
    # linear functionals pass, quadratics are rejected with a diagnostic
    homogeneous(lambda a: a @ np.array([1.0, -2.0]), 2)
    with pytest.raises(Exception, match="homogeneous"):
        homogeneous(lambda a: (a ** 2).sum(axis=-1), 2)


def test_sup_representation_bounds_and_analytic():
    # per coordinate, the dual witness of the column is a dual-unit-ball
    # vector whose pairing with the rows is the lattice-valued norm
    rng = np.random.default_rng(4)
    for p in (1.0, 1.5, 2.0, math.inf):
        fam = LpFamily(p)
        rows = rng.standard_normal((3, 5)) * 2.0
        winners = dual_witness(kothe_dual(fam), rows.T)
        assert np.all(kothe_dual(fam).norm_array(winners) <= 1.0 + 1e-12)
        assert np.allclose(np.einsum("wn,nw->w", winners, rows),
                           lattice_valued_norm(fam, rows),
                           rtol=1e-9, atol=1e-12)


def test_spaces_and_duals():
    X = lattice(3, LpFamily(3))
    assert isinstance(X, FiniteLattice)
    Xd = X.dual()
    assert isinstance(Xd, FiniteLattice) and Xd.label == X.label + "*"
    # dual norm is the conjugate lp norm: (1 + 1 + 1) ** (2/3) under l1.5
    assert Xd.norm([1.0, 1.0, 1.0]) == pytest.approx(3.0 ** (2.0 / 3.0))
    # pairing bound against the dual norm
    rng = np.random.default_rng(2)
    for _ in range(100):
        x = rng.standard_normal(3)
        phi = rng.standard_normal(3)
        assert abs(phi @ x) <= Xd.norm(phi) * X.norm(x) * (1 + 1e-9)


def test_dimension_checks():
    X = lattice(2, LpFamily(2))
    with pytest.raises(DimensionMismatchError):
        X.norm([1.0, 2.0, 3.0])
    with pytest.raises(DimensionMismatchError):
        krivine_apply(projection(3, 0), np.ones((2, 2)))
    with pytest.raises(DimensionMismatchError):
        compose(norm_function(LpFamily(2), 2),
                [projection(2, 0), projection(3, 1)])


def test_normed_space_dual_of_dual():
    E = NormedSpace(2, LpFamily(1.5))
    Edd = E.dual().dual()
    probes = np.random.default_rng(8).standard_normal((10, 2))
    assert np.allclose(Edd.norm_array(probes), E.norm_array(probes),
                       rtol=1e-12)

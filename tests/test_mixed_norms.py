"""Mixed tuple norms and the pairing checks."""

import math

import numpy as np
import pytest

from lattice_calc import (DimensionMismatchError, LpFamily, OrliczFamily,
                          lattice, lattice_valued_norm, parse_gauge,
                          pointwise_mixed_norm, strong_mixed_norm,
                          tail_profile)
from lattice_calc.seq_lattice import kothe_dual

# ---------------------------------------------------------------------------
# independent recomposition oracles (plain python, no package reductions)


def strong_oracle(space_p, family, rows):
    """Row norms by hand, then the family norm of that vector."""
    norms = []
    for row in rows:
        if space_p == math.inf:
            norms.append(max(abs(v) for v in row))
        else:
            norms.append(sum(abs(v) ** space_p for v in row) ** (1 / space_p))
    return family.norm(norms)


def pointwise_oracle(space_p, family, rows):
    """Per-coordinate family norms by double loop, then the space norm."""
    n, m = rows.shape
    pw = [family.norm([rows[j][w] for j in range(n)]) for w in range(m)]
    if space_p == math.inf:
        return max(pw)
    return sum(v ** space_p for v in pw) ** (1 / space_p)


# ---------------------------------------------------------------------------

def test_strong_mixed_norm_value():
    E = lattice(2, LpFamily(2))
    w = np.array([[3.0, 4.0], [0.0, 1.0]])
    assert strong_mixed_norm(E, LpFamily(1), w) == pytest.approx(6.0)


def test_strong_mixed_norm_padding():
    E = lattice(2, LpFamily(2))
    w = np.array([[3.0, 4.0], [0.0, 1.0]])
    padded = np.vstack([w, np.zeros((1, 2))])
    assert strong_mixed_norm(E, LpFamily(1), padded) == \
        strong_mixed_norm(E, LpFamily(1), w)
    # a tuple ending in a zero row has the norm of the tuple without it
    rows = np.array([[1.0, 2.0], [0.5, -1.0], [0.0, 0.0]])
    assert strong_mixed_norm(E, LpFamily(1.5), rows) == \
        strong_mixed_norm(E, LpFamily(1.5), rows[:2])


def test_strong_mixed_norm_orlicz_recomposition():
    orl = OrliczFamily(parse_gauge("u^2"))
    E = lattice(3, LpFamily(2))
    rng = np.random.default_rng(1)
    for _ in range(25):
        w = rng.standard_normal((4, 3)) * 2.0
        assert strong_mixed_norm(E, orl, w) == pytest.approx(
            strong_oracle(2.0, orl, w), rel=1e-12)


def test_pointwise_mixed_norm_value():
    X = lattice(2, LpFamily(math.inf))
    x = np.array([[3.0, 0.0], [4.0, 0.0]])
    assert pointwise_mixed_norm(X, LpFamily(2), x) == pytest.approx(5.0)


def test_pointwise_matches_strong_for_matched_lp():
    rng = np.random.default_rng(2)
    for p in (1.0, 2.0, 3.0, math.inf):
        X = lattice(3, LpFamily(p))
        fam = LpFamily(p)
        for _ in range(20):
            x = rng.standard_normal((3, 3)) * 2.0
            assert pointwise_mixed_norm(X, fam, x) == pytest.approx(
                strong_mixed_norm(X, fam, x), rel=1e-12)


def test_pointwise_mixed_norm_recomposition():
    rng = np.random.default_rng(3)
    for p in (1.0, 2.0, math.inf):
        X = lattice(3, LpFamily(p))
        for fam in (LpFamily(1.5), OrliczFamily(parse_gauge("u^2"))):
            x = rng.standard_normal((4, 3)) * 2.0
            assert pointwise_mixed_norm(X, fam, x) == pytest.approx(
                pointwise_oracle(p, fam, x), rel=1e-12)


def test_equivalence_disjoint_l1_equality():
    # the pointwise norm against the summed row norms: a single row has the
    # pointwise norm ||e_1|| times its row norm; on disjoint supports an
    # additive lattice norm makes the two sides coincide
    X = lattice(3, LpFamily(2))
    fam = LpFamily(1.5)
    row = np.array([[1.0, -2.0, 0.5]])
    assert pointwise_mixed_norm(X, fam, row) == pytest.approx(
        fam.unit_vector_norm(0, 1) * X.norm(row[0]))
    X = lattice(2, LpFamily(1))
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert pointwise_mixed_norm(X, LpFamily(1), x) == pytest.approx(
        X.norm_array(x).sum())
    # l1 over l1 is additive on any rows; over l2 overlapping rows fall
    # strictly below the sum
    y = np.array([[1.0, 0.0], [1.0, 1.0]])
    assert pointwise_mixed_norm(X, LpFamily(1), y) == pytest.approx(
        X.norm_array(y).sum())
    X2 = lattice(2, LpFamily(2))
    assert pointwise_mixed_norm(X2, LpFamily(1), y) < X2.norm_array(y).sum()


def test_tail_profile_values_and_monotonicity():
    E = lattice(2, LpFamily(2))
    fam = LpFamily(1)
    seq = np.array([[3.0, 4.0], [0.0, 0.0]])
    prof = tail_profile(fam, E, seq, "strong")
    assert prof[0] == pytest.approx(5.0 * fam.unit_vector_norm(0, 1))
    assert prof[1] == 0.0
    geo = np.array([[2.0 ** -j, 2.0 ** -j] for j in range(1, 5)])
    prof = tail_profile(fam, E, geo, "strong")
    assert np.all(np.diff(prof) < 0.0)
    rng = np.random.default_rng(5)
    for flavor in ("strong", "pointwise"):
        for _ in range(50):
            seq = rng.standard_normal((4, 2))
            prof = tail_profile(fam, E, seq, flavor)
            assert np.all(np.diff(prof) <= prof[0] * 1e-12)


def test_sequence_pairing_values_and_bound():
    # sum_j <w_j, s_j> against the strong mixed norms of s (dual space and
    # family) and of w: 1 <= 1 * 1 on matched unit rows, 0 for zero s
    E = lattice(2, LpFamily(2))
    fam = LpFamily(2)
    s = w = np.array([[1.0, 0.0]])
    assert (s * w).sum() == pytest.approx(1.0)
    assert (strong_mixed_norm(E.dual(), kothe_dual(fam), s)
            * strong_mixed_norm(E, fam, w)) == pytest.approx(1.0)
    assert (np.zeros((2, 2)) * np.ones((2, 2))).sum() == 0.0
    assert strong_mixed_norm(E.dual(), kothe_dual(fam), np.zeros((2, 2))) == 0.0


def _pointwise_pairing(fam, x, phi):
    """sum_j |<x_j, phi_j>| and the inner product of the lattice-valued norms
    that bounds it (family on x, its Koethe dual on phi)."""
    lhs = float(np.abs((x * phi).sum(axis=1)).sum())
    rhs = float(lattice_valued_norm(fam, x)
                @ lattice_valued_norm(kothe_dual(fam), phi))
    return lhs, rhs


def test_lattice_holder_scalar_reduces_to_cauchy_schwarz():
    x = np.array([[2.0], [3.0]])
    phi = np.array([[4.0], [6.0]])  # proportional: equality
    lhs, rhs = _pointwise_pairing(LpFamily(2), x, phi)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_lattice_holder_single_row():
    # with one row both lattice-valued norms are |x| and |phi|, so the bound
    # is sum |x_i phi_i| against itself
    rng = np.random.default_rng(7)
    for fam in (LpFamily(1.5), LpFamily(3)):
        for _ in range(50):
            x = rng.standard_normal((1, 3))
            phi = rng.standard_normal((1, 3))
            lhs, rhs = _pointwise_pairing(fam, x, phi)
            assert lhs <= rhs * (1.0 + 1e-12)
            assert rhs == pytest.approx(float(np.abs(x * phi).sum()),
                                        rel=1e-12)


def test_dimension_mismatches_rejected():
    X = lattice(2, LpFamily(2))
    with pytest.raises(DimensionMismatchError):
        strong_mixed_norm(X, LpFamily(2), np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        pointwise_mixed_norm(X, LpFamily(2), np.ones((3, 3)))

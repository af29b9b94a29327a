"""Operators: application, transposes, norm estimates, lifting bounds."""

import itertools
import math

import numpy as np
import pytest

from lattice_calc import (DimensionMismatchError, LpFamily, OperatorInstance,
                          apply_n, lattice, operator_norm, strong_mixed_norm,
                          transpose)
from lattice_calc import verification
from lattice_calc.cli import EXIT_OK, run


def _op(matrix, p_in=2, p_out=2):
    m, d = np.asarray(matrix).shape
    return OperatorInstance(matrix, lattice(d, LpFamily(p_in)),
                            lattice(m, LpFamily(p_out)))


def test_apply_identity_and_zero():
    op = _op(np.eye(3))
    w = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(apply_n(op, w), w)
    assert np.array_equal(apply_n(_op(np.zeros((3, 3))), w), np.zeros(3))


def test_apply_matches_naive_recompute():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((3, 4))
    op = _op(mat)
    for _ in range(50):
        w = rng.standard_normal(4)
        naive = [sum(mat[i, j] * w[j] for j in range(4)) for i in range(3)]
        assert np.allclose(apply_n(op, w), naive, rtol=1e-13)


def test_apply_n_rowwise_and_padding():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((2, 3))
    op = _op(mat)
    rows = rng.standard_normal((4, 3))
    lifted = apply_n(op, rows)
    assert lifted.shape == (4, 2)
    for j in range(4):
        assert np.array_equal(lifted[j], apply_n(op, rows[j]))
    padded = apply_n(op, np.vstack([rows, np.zeros((1, 3))]))
    assert np.array_equal(padded[:4], lifted)
    assert np.all(padded[4] == 0.0)
    assert np.array_equal(apply_n(op, np.zeros((2, 3))), np.zeros((2, 2)))


def test_transpose_swaps_spaces_and_matrix():
    op = _op(np.diag([1.0, 2.0]), p_in=1.5, p_out=3)
    ts = transpose(op)
    assert np.array_equal(ts.matrix, np.diag([1.0, 2.0]))
    assert ts.domain.family.p == pytest.approx(1.5)  # dual of l3
    assert ts.codomain.family.p == pytest.approx(3.0)  # dual of l1.5
    assert np.array_equal(transpose(ts).matrix, op.matrix)


def test_transpose_pairing_identity():
    rng = np.random.default_rng(2)
    mat = rng.standard_normal((3, 4))
    op = _op(mat)
    ts = transpose(op)
    for _ in range(1000):
        w = rng.standard_normal(4)
        phi = rng.standard_normal(3)
        lhs = float(apply_n(op, w) @ phi)
        rhs = float(w @ apply_n(ts, phi))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_operator_norm_diagonal():
    res = operator_norm(_op(np.diag([1.0, -3.0, 2.0])), seed=0)
    assert res.value == pytest.approx(3.0, rel=1e-9)


def test_operator_norm_vertex_oracle_linf_to_l2():
    # exact value by enumerating the cube vertices of the domain ball
    rng = np.random.default_rng(3)
    mat = rng.standard_normal((3, 3))
    op = OperatorInstance(mat, lattice(3, LpFamily(math.inf)),
                          lattice(3, LpFamily(2)))
    exact = max(np.linalg.norm(mat @ np.array(s))
                for s in itertools.product([-1.0, 1.0], repeat=3))
    res = operator_norm(op, seed=4)
    assert res.value == pytest.approx(exact, rel=1e-9)


def test_operator_norm_transpose_symmetry():
    rng = np.random.default_rng(5)
    for k in range(4):
        mat = rng.standard_normal((3, 3))
        op = _op(mat, p_in=[2, 1.5, 3, 2][k], p_out=[2, 3, 1.5, math.inf][k])
        a = operator_norm(op, seed=10 + k).value
        b = operator_norm(transpose(op), seed=90 + k).value
        assert a == pytest.approx(b, rel=1e-4)


def test_lifting_bound_identity_and_zero():
    # ||T~x|| <= ||T|| ||x|| on strong norms: an equality at the identity,
    # whose norm estimate is 1, and 0 <= 0 at the zero operator
    rows = np.random.default_rng(6).standard_normal((3, 3))
    base = strong_mixed_norm(lattice(3, LpFamily(2)), LpFamily(2), rows)
    for mat in (np.eye(3), np.zeros((3, 3))):
        op = _op(mat)
        t_est = operator_norm(op, seed=0).value
        lhs = strong_mixed_norm(op.codomain, LpFamily(2), apply_n(op, rows))
        assert lhs == pytest.approx(t_est * base, rel=1e-9)
    assert t_est == lhs == 0.0


def test_shape_validation():
    with pytest.raises(DimensionMismatchError):
        OperatorInstance(np.ones((2, 3)), lattice(2, LpFamily(2)),
                         lattice(2, LpFamily(2)))
    op = _op(np.ones((2, 3)))
    with pytest.raises(DimensionMismatchError):
        apply_n(op, np.ones(2))
    with pytest.raises(DimensionMismatchError):
        apply_n(op, np.ones((2, 2)))


# ``verify`` at an eighth of the default counts (the counts that do not scale
# kept) and seed 1561142139: one transpose pairing there cancels to 4.1e-5
# against terms of size 1.6, and dividing by the pairing itself turned
# rounding into 4.6e-12
_EIGHTH = {k: v if k in ("opnorm_pairs", "constant_levels", "max_length")
           else max(1, round(v / 8))
           for k, v in verification.DEFAULT_COUNTS.items()}
_CANCELLING_SEED = 1561142139


def _pairing_record(records):
    return next(r for r in records if r["op"] == "operator_transpose_pairing")


def test_transpose_pairing_survives_cancellation():
    report = run({"task": "verify", "seed": _CANCELLING_SEED,
                  "counts": _EIGHTH})
    assert report["exit_status"] == EXIT_OK
    assert _pairing_record(report["checks"])["lhs"] <= 1e-15


def test_transpose_pairing_catches_a_perturbed_transpose(monkeypatch):
    def perturbed(op):
        t = transpose(op)
        mat = t.matrix.copy()
        mat[0, 0] *= 1.0 + 1e-9
        return OperatorInstance(mat, t.domain, t.codomain, t.label)

    monkeypatch.setattr(verification, "transpose", perturbed)
    counts = dict(_EIGHTH, opnorm_pairs=1, lifting_instances=1)
    # the operator suite's seed inside ``verify`` at _CANCELLING_SEED
    rec = _pairing_record(verification.operator_suite(
        counts, _CANCELLING_SEED + 404))
    assert not rec["holds"] and rec["lhs"] > 1e-10

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
from lattice_calc.constants import _SIDES
from lattice_calc.mixed_norms import _witness_support
from lattice_calc.operators import ratio_problem
from lattice_calc.seq_lattice import kothe_dual


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


# the power step's lift and pull against the general composition, the
# dual_witness maps of mixed_norms._witness_support on C-ordered batches,
# by value and by the layout of y, which pull's matrix product reads
_STEP_FAMILIES = [(2.0, 1.0, 2.0), (2.0, math.inf, 1.5), (1.5, 3.0, 2.0),
                  (math.inf, math.inf, math.inf), (1.0, 1.0, 1.0),
                  (3.0, 1.5, math.inf), (1.25, 7.0, 3.0)]


def _general_support(flavor, space_family, family, s):
    if flavor == "strong":
        return _witness_support(space_family, family, s)
    x, pairing = _witness_support(family, space_family, s.swapaxes(-1, -2))
    return x.swapaxes(-1, -2), pairing


def _assert_step_bits(got, ref, layout=True):
    assert got.shape == ref.shape
    assert np.array_equal(got.view(np.int64), ref.view(np.int64))
    # y feeds pull's matmul, whose last bits follow its operand's layout
    assert not layout or (
        [s for s, k in zip(got.strides, got.shape) if k > 1]
        == [s for s, k in zip(ref.strides, ref.shape) if k > 1])


@pytest.mark.parametrize("size", [9, 16])
@pytest.mark.parametrize("n", [1, 2, 9])
@pytest.mark.parametrize("ps", _STEP_FAMILIES,
                         ids=["-".join(f"{p:g}" for p in ps)
                              for ps in _STEP_FAMILIES])
@pytest.mark.parametrize("flavor", ["convexity", "concavity"])
def test_power_step_is_the_general_composition(size, n, ps, flavor):
    p_e, p_x, p_y = ps
    rng = np.random.default_rng([size, n, int(10 * min(p_e, 9))])
    op = OperatorInstance(rng.standard_normal((size, size)),
                          lattice(size, LpFamily(p_e)),
                          lattice(size, LpFamily(p_x)))
    family = LpFamily(p_y)
    top, bottom = _SIDES[flavor]
    _, _, lift, pull = ratio_problem(op, family, top, bottom, n)
    mat = op.matrix
    z = rng.standard_normal((32, n, size))
    z[3, 1:] = 0.0  # a spike, whose zero rows stay zero
    z[4, :, size // 2:] = 0.0
    z = z.reshape(32, -1)
    y_all, pairing_all = lift(z)
    x_all = pull(y_all)
    for batch in (1, 5, 32):
        y, pairing = lift(z[:batch])
        y_ref, pairing_ref = _general_support(
            top, kothe_dual(op.codomain.family), kothe_dual(family),
            z[:batch].reshape(-1, n, size) @ mat.T)
        _assert_step_bits(y, y_ref)
        _assert_step_bits(pairing, pairing_ref)
        x = pull(y)
        x_ref = _general_support(bottom, op.domain.family, family,
                                 y_ref @ mat)[0].reshape(batch, -1)
        _assert_step_bits(x, x_ref)
        # the first restarts are a prefix of any larger batch
        for got, first in ((y, y_all), (pairing, pairing_all), (x, x_all)):
            _assert_step_bits(got, first[:batch], layout=False)

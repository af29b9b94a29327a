"""Lock-step restarts of maximize_ratio against a sequential reference.

The reference below is the restart-at-a-time loop the engine replaced.  The
engine advances every live restart in one stacked batch, and each restart
must still follow exactly the path it follows alone, so every comparison
here is bitwise.
"""

import math

import numpy as np
import pytest

from lattice_calc import (AscentBudget, LpFamily, OperatorInstance, lattice,
                          maximize_ratio)
from lattice_calc.constants import _ratio_callables, _structured_tuples
from lattice_calc.seeding import spawn_rngs

_FD_STEP = 1e-6
_TRIAL_LADDER = 0.25 ** np.arange(4)


def _normalize(z, denominator):
    gz = float(denominator(z[None, :])[0])
    if not gz > 0.0 or not np.isfinite(gz):
        return None
    return z / gz


def _sequential_maximize_ratio(numerator, denominator, dim, seed=0,
                               budget=None, inits=(), nonneg=False):
    """One restart at a time, each in its own Python loop."""
    budget = budget or AscentBudget()
    rngs = spawn_rngs(seed, budget.restarts)
    starts = []
    for init in inits:
        if len(starts) >= budget.restarts:
            break
        starts.append(np.asarray(init, dtype=float).ravel())
    while len(starts) < budget.restarts:
        z = rngs[len(starts)].standard_normal(dim)
        starts.append(np.abs(z) if nonneg else z)

    eye = np.eye(dim)
    best_val = -np.inf
    best_z = None
    finals = []
    for ridx, z0 in enumerate(starts):
        z = np.maximum(z0, 0.0) if nonneg else z0.copy()
        zn = _normalize(z, denominator)
        if zn is None:
            for _ in range(8):
                z = rngs[ridx].standard_normal(dim)
                if nonneg:
                    z = np.abs(z)
                zn = _normalize(z, denominator)
                if zn is not None:
                    break
            if zn is None:
                finals.append(-np.inf)
                continue
        z = zn
        val = float(numerator(z[None, :])[0])
        eta = budget.step0
        stalls = 0
        quiet = 0
        ladder_count = len(_TRIAL_LADDER)
        for _ in range(budget.iterations):
            probe = np.concatenate([z + _FD_STEP * eye, z - _FD_STEP * eye])
            ratios = numerator(probe) / denominator(probe)
            grad = (ratios[:dim] - ratios[dim:]) / (2.0 * _FD_STEP)
            gn = float(np.linalg.norm(grad))
            if not np.isfinite(gn):
                break
            direction = grad / gn if gn > 0.0 else np.zeros(dim)
            trials = np.concatenate([
                z[None, :] + (eta * _TRIAL_LADDER)[:, None] * direction[None, :],
                z + eta * eye,
                z - eta * eye,
            ])
            if nonneg:
                trials = np.maximum(trials, 0.0)
            gt = denominator(trials)
            ok = gt > 0.0
            scaled = trials / np.where(ok, gt, 1.0)[:, None]
            cand = np.where(ok, numerator(scaled) / denominator(scaled), -np.inf)
            pick = int(np.argmax(cand))
            if cand[pick] > val:
                gain = cand[pick] - val
                z = scaled[pick]
                val = float(cand[pick])
                if pick < ladder_count:
                    eta = min(eta * _TRIAL_LADDER[pick] * 1.6, 16.0)
                stalls = 0
                quiet = quiet + 1 if gain <= 1e-12 * max(abs(val), 1e-300) else 0
            else:
                eta *= 0.3
                stalls += 1
                quiet += 1
            if eta < 1e-13 or stalls > 8 or quiet > 40:
                break
        finals.append(val)
        if val > best_val:
            best_val = val
            best_z = z
    agree = sum(1 for v in finals if v >= best_val * (1.0 - 1e-4) - 1e-300)
    converged = agree >= min(2, len(finals))
    return best_val, best_z, converged, finals


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _assert_identical(numer, denom, dim, **kwargs):
    got = maximize_ratio(numer, denom, dim, **kwargs)
    value, argmax, converged, finals = _sequential_maximize_ratio(
        numer, denom, dim, **kwargs)
    assert _bits(got.value) == _bits(value)
    assert _bits(got.argmax) == _bits(argmax)
    assert _bits(got.restart_values) == _bits(finals)
    assert got.converged is converged
    return got


def _operator(seed, p_in, p_out, shape=(3, 3)):
    mat = np.random.default_rng(seed).standard_normal(shape)
    return OperatorInstance(mat, lattice(shape[1], LpFamily(p_in)),
                            lattice(shape[0], LpFamily(p_out)))


def _norm_callables(op):
    def numer(z):
        return op.codomain.norm_array(z @ op.matrix.T)
    return numer, op.domain.norm_array


@pytest.mark.parametrize("p_in,p_out,seed", [
    (1.5, 2.0, 0), (1.0, math.inf, 1), (3.0, 1.0, 2), (math.inf, 2.0, 3),
])
def test_operator_norm_matches_sequential(p_in, p_out, seed):
    op = _operator(40 + seed, p_in, p_out)
    numer, denom = _norm_callables(op)
    _assert_identical(numer, denom, 3, seed=seed,
                      budget=AscentBudget(16, 300, 0.1), inits=list(np.eye(3)))


@pytest.mark.parametrize("flavor", ["convexity", "concavity"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p_in,p_out,p_fam", [
    (2.0, 2.0, 2.0), (1.5, 3.0, 2.0), (math.inf, 1.0, 1.5),
])
def test_ratio_callables_match_sequential(flavor, n, p_in, p_out, p_fam):
    op = _operator(7, p_in, p_out)
    numer, denom = _ratio_callables(op, LpFamily(p_fam), flavor, n)
    inits = _structured_tuples(n, 3, np.random.default_rng(n))
    _assert_identical(numer, denom, 3 * n, seed=11 * n,
                      budget=AscentBudget(12, 200, 0.1), inits=inits)


def test_wider_tuple_matches_sequential():
    op = _operator(9, 1.5, 2.0, shape=(4, 4))
    numer, denom = _ratio_callables(op, LpFamily(3.0), "convexity", 3)
    _assert_identical(numer, denom, 12, seed=5,
                      budget=AscentBudget(6, 150, 0.1))


def test_nonneg_matches_sequential():
    op = _operator(3, 1.5, 3.0)
    numer, denom = _norm_callables(op)
    got = _assert_identical(numer, denom, 3, seed=4, nonneg=True,
                            budget=AscentBudget(12, 200, 0.1),
                            inits=[[1.0, -2.0, 0.5]])
    assert (got.argmax >= 0.0).all()


def test_zero_init_resamples_like_sequential():
    op = _operator(5, 2.0, 1.0)
    numer, denom = _norm_callables(op)
    for nonneg in (False, True):
        got = _assert_identical(numer, denom, 3, seed=6, nonneg=nonneg,
                                budget=AscentBudget(6, 100, 0.1),
                                inits=[np.zeros(3), np.zeros(3), np.eye(3)[1]])
        assert np.isfinite(got.restart_values).all()


def test_infinite_numerator_stops_like_sequential():
    op = _operator(6, 2.0, 2.0)
    base, denom = _norm_callables(op)

    def numer(z):
        return np.where(z[:, 0] > 0.5, np.inf, base(z))

    got = _assert_identical(numer, denom, 3, seed=2,
                            budget=AscentBudget(10, 200, 0.1),
                            inits=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert got.restart_values[0] == np.inf


def test_fewer_restarts_than_inits_matches_sequential():
    op = _operator(8, 1.5, 2.0)
    numer, denom = _norm_callables(op)
    inits = list(np.random.default_rng(1).standard_normal((5, 3)))
    got = _assert_identical(numer, denom, 3, seed=3,
                            budget=AscentBudget(3, 200, 0.1), inits=inits)
    assert len(got.restart_values) == 3


def test_restart_prefix_and_determinism():
    op = _operator(10, 1.5, 3.0)
    numer, denom = _ratio_callables(op, LpFamily(2.0), "convexity", 2)
    small = maximize_ratio(numer, denom, 6, seed=9,
                           budget=AscentBudget(8, 200, 0.1))
    large = maximize_ratio(numer, denom, 6, seed=9,
                           budget=AscentBudget(16, 200, 0.1))
    again = maximize_ratio(numer, denom, 6, seed=9,
                           budget=AscentBudget(16, 200, 0.1))
    assert _bits(large.restart_values[:8]) == _bits(small.restart_values)
    assert _bits(again.restart_values) == _bits(large.restart_values)
    assert _bits(again.argmax) == _bits(large.argmax)
    assert again.value == large.value


def test_stacked_dot_matches_linalg_norm():
    for dim in range(1, 41):
        grad = np.random.default_rng(dim).standard_normal((16, dim)) * 1e3
        stacked = np.sqrt((grad[:, None, :] @ grad[:, :, None])[:, 0, 0])
        single = np.array([np.linalg.norm(g) for g in grad])
        assert stacked.tobytes() == single.tobytes(), dim

"""The power-iteration engine behind maximize_ratio.

The reference below runs one restart at a time with the same stop rule.
The engine advances every live restart in one stacked batch, and each
restart must still follow exactly the path it follows alone, so those
comparisons are bitwise.  The other tests pin the engine's contracts:
values never fall, every value is attained by its witness, closed-form
operator norms are reached, and the structured starts escape a known
local maximum.
"""

import math

import numpy as np
import pytest

import lattice_calc.operators as operators
from lattice_calc import (AscentBudget, InputError, LpFamily, NormedSpace,
                          OperatorInstance, OrliczFamily, WeightedLpFamily,
                          concavity_ratio, estimate_constant, lattice,
                          maximize_ratio, operator_norm, parse_gauge)
from lattice_calc.constants import _SIDES, _cyclic_tuple, _structured_tuples
from lattice_calc.operators import ratio_problem
from lattice_calc.seq_lattice import _ascent_rows
from lattice_calc.seeding import spawn_rngs


def _on_sphere(numerator, denominator, z):
    g = float(denominator(z[None, :])[0])
    if not g > 0.0 or not np.isfinite(g):
        return z, -np.inf
    z = z / g
    return z, float(numerator(z[None, :])[0])


def _sequential_maximize_ratio(numerator, denominator, dim, seed=0,
                               budget=None, inits=(), *, lift, pull):
    """One restart at a time, each in its own Python loop: a degenerate init
    replaced by its restart's seeded draw, a step while the lift's pairing
    strictly rises, then the final iterate on the sphere; converged where
    two restarts agree on a finite best value."""
    budget = budget or AscentBudget()
    rngs = spawn_rngs(seed, budget.restarts)
    starts = [np.asarray(z, dtype=float).ravel() for z in inits]
    starts = starts[:budget.restarts]
    n_inits = len(starts)
    while len(starts) < budget.restarts:
        starts.append(rngs[len(starts)].standard_normal(dim))
    finals, points = [], []
    for ridx, z0 in enumerate(starts):
        z, val = _on_sphere(numerator, denominator, z0)
        if val == -np.inf and ridx < n_inits:
            z, val = _on_sphere(numerator, denominator,
                                rngs[ridx].standard_normal(dim))
        if val > -np.inf:
            y, pairing = lift(z[None, :])
            for _ in range(budget.iterations):
                cand = pull(y)
                y, cpairing = lift(cand)
                if not cpairing[0] > pairing[0]:
                    break
                z, pairing = cand[0], cpairing
        z, val = _on_sphere(numerator, denominator, z)
        finals.append(val)
        points.append(z)
    best = 0
    for ridx, v in enumerate(finals):
        if v > finals[best]:
            best = ridx
    agree = sum(1 for v in finals if v >= finals[best] * (1.0 - 1e-4) - 1e-300)
    converged = agree >= min(2, len(finals)) and math.isfinite(finals[best])
    return finals[best], points[best], converged, finals


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


def _norm_call(op, **kwargs):
    """The arguments operator_norm passes to maximize_ratio."""
    seen = []

    def record(*args, **kw):
        seen.append((args, kw))
        return maximize_ratio(*args, **kw)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "maximize_ratio", record)
        operator_norm(op, **kwargs)
    (args, kw), = seen
    return args, kw


@pytest.mark.parametrize("p_in,p_out,seed", [
    (1.5, 2.0, 0), (1.0, math.inf, 1), (3.0, 1.0, 2), (math.inf, 2.0, 3),
])
def test_operator_norm_matches_sequential(p_in, p_out, seed):
    args, kw = _norm_call(_operator(40 + seed, p_in, p_out), seed=seed,
                          budget=AscentBudget(16, 300))
    _assert_identical(*args, **kw)


@pytest.mark.parametrize("flavor", ["convexity", "concavity"])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p_in,p_out,p_fam", [
    (2.0, 2.0, 2.0), (1.5, 3.0, 2.0), (math.inf, 1.0, 1.5),
])
def test_ratio_callables_match_sequential(flavor, n, p_in, p_out, p_fam):
    op = _operator(7, p_in, p_out)
    numer, denom, lift, pull = ratio_problem(op, LpFamily(p_fam),
                                             *_SIDES[flavor], n)
    inits = _structured_tuples(n, 3, np.random.default_rng(n).standard_normal(6))
    _assert_identical(numer, denom, 3 * n, seed=11 * n,
                      budget=AscentBudget(12, 200), inits=inits,
                      lift=lift, pull=pull)


def test_wider_tuple_matches_sequential():
    op = _operator(9, 1.5, 2.0, shape=(4, 4))
    numer, denom, lift, pull = ratio_problem(op, LpFamily(3.0),
                                             *_SIDES["convexity"], 3)
    _assert_identical(numer, denom, 12, seed=5,
                      budget=AscentBudget(6, 150), lift=lift, pull=pull)


def test_zero_init_resamples_like_sequential():
    args, kw = _norm_call(_operator(5, 2.0, 1.0), seed=6,
                          budget=AscentBudget(6, 100))
    kw["inits"] = [np.zeros(3), np.zeros(3), np.eye(3)[1]]
    got = _assert_identical(*args, **kw)
    assert np.isfinite(got.restart_values).all()


def test_still_degenerate_start_stays_at_minus_inf():
    # restarts 0 and 1 start at zero tuples and take their seeded draws,
    # and restart 1's draw and restart 4's seeded start are refused too:
    # neither is replaced again, stepped or picked
    (numer, base, dim), kw = _norm_call(_operator(12, 2.0, 1.5), seed=4,
                                        budget=AscentBudget(6, 100))
    rngs = spawn_rngs(4, 6)
    refused = np.array([rngs[1].standard_normal(dim),
                        rngs[4].standard_normal(dim)])

    def denom(z):
        hit = (z[:, None, :] == refused).all(axis=-1).any(axis=-1)
        return np.where(hit, 0.0, base(z))

    kw["inits"] = [np.zeros(dim), np.zeros(dim), np.eye(dim)[2]]
    got = _assert_identical(numer, denom, dim, **kw)
    values = np.array(got.restart_values)
    assert np.flatnonzero(values == -np.inf).tolist() == [1, 4]
    assert np.isfinite(got.value)


def test_seeded_starts_build_no_generators(monkeypatch):
    calls = []

    class CountingSeedSequence(np.random.SeedSequence):
        def spawn(self, n_children):
            calls.append(("spawn", n_children))
            return super().spawn(n_children)

    def counting_default_rng(*args, **kwargs):
        calls.append(("default_rng", args))
        return default_rng(*args, **kwargs)

    default_rng = np.random.default_rng
    op = _operator(13, 1.5, 3.0)
    monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
    monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
    operator_norm(op, seed=2)
    numer, denom, lift, pull = ratio_problem(op, LpFamily(2.0),
                                             *_SIDES["convexity"], 2)
    maximize_ratio(numer, denom, 6, seed=3, budget=AscentBudget(8, 50),
                   lift=lift, pull=pull)
    estimate_constant(op, LpFamily(2.0), "concavity", 3, seed=5)
    beta = np.array([[0.3, -1.2, 0.0, 2.5], [1.0, 0.5, -0.25, 0.125]])
    _ascent_rows(LpFamily(1.5), np.abs(beta), 300, 40)
    assert calls == []
    spawn_rngs(0, 2)  # the counters see the generators spawn_rngs builds
    assert [name for name, _ in calls] == ["spawn"] + ["default_rng"] * 2


@pytest.mark.parametrize("budget", [
    AscentBudget(2.5, 10), AscentBudget(4, 10.5), AscentBudget(4, math.inf),
    AscentBudget(True, 10), AscentBudget(4, np.True_), AscentBudget(0, 10),
    AscentBudget(4, -1),
])
def test_budget_refuses_counts_that_are_not_positive_integers(budget):
    with pytest.raises(InputError, match="integer restarts and iterations"):
        budget.validate()
    with pytest.raises(InputError):
        operator_norm(_operator(0, 2.0, 2.0), budget=budget)


def test_budget_takes_numpy_integer_counts():
    op = _operator(14, 1.5, 2.0)
    plain = operator_norm(op, AscentBudget(5, 40), seed=1)
    numpy_ints = operator_norm(op, AscentBudget(np.int64(5), np.int32(40)),
                               seed=1)
    assert _bits(numpy_ints.restart_values) == _bits(plain.restart_values)


def test_infinite_numerator_stops_like_sequential():
    (base, denom, dim), kw = _norm_call(_operator(6, 2.0, 2.0), seed=2,
                                        budget=AscentBudget(10, 200))

    def numer(z):
        return np.where(z[:, 0] > 0.5, np.inf, base(z))

    def lift(z, base_lift=kw["lift"]):
        y, pairing = base_lift(z)
        return y, np.where(z[:, 0] > 0.5, np.inf, pairing)

    kw["lift"] = lift
    kw["inits"] = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    got = _assert_identical(numer, denom, dim, **kw)
    assert got.restart_values[0] == np.inf
    assert got.converged is False  # an infinite best is no estimate


def test_fewer_restarts_than_inits_matches_sequential():
    args, kw = _norm_call(_operator(8, 1.5, 2.0), seed=3,
                          budget=AscentBudget(3, 200))
    kw["inits"] = list(np.random.default_rng(1).standard_normal((5, 3)))
    got = _assert_identical(*args, **kw)
    assert len(got.restart_values) == 3


def test_restart_prefix_and_determinism():
    op = _operator(10, 1.5, 3.0)
    numer, denom, lift, pull = ratio_problem(op, LpFamily(2.0),
                                             *_SIDES["convexity"], 2)
    small = maximize_ratio(numer, denom, 6, seed=9, lift=lift, pull=pull,
                           budget=AscentBudget(8, 200))
    large = maximize_ratio(numer, denom, 6, seed=9, lift=lift, pull=pull,
                           budget=AscentBudget(16, 200))
    again = maximize_ratio(numer, denom, 6, seed=9, lift=lift, pull=pull,
                           budget=AscentBudget(16, 200))
    assert _bits(large.restart_values[:8]) == _bits(small.restart_values)
    assert _bits(again.restart_values) == _bits(large.restart_values)
    assert _bits(again.argmax) == _bits(large.argmax)
    assert again.value == large.value


@pytest.mark.parametrize("flavor", ["convexity", "concavity"])
def test_values_never_fall_and_witnesses_reproduce(flavor):
    # a run of k iterations is the first k iterations of any longer run, so
    # each restart's value after k iterations is its value along the path
    op = _operator(11, 1.5, math.inf)
    fam = LpFamily(3.0)
    numer, denom, lift, pull = ratio_problem(op, fam, *_SIDES[flavor], 2)
    path = [maximize_ratio(numer, denom, 6, seed=4, lift=lift, pull=pull,
                           budget=AscentBudget(8, k))
            for k in range(1, 25)]
    values = np.array([res.restart_values for res in path])
    assert (np.diff(values, axis=0) >= 0.0).all()
    for res in path:
        ratio = (numer(res.argmax[None]) / denom(res.argmax[None]))[0]
        assert ratio == pytest.approx(res.value, rel=1e-9)


def _problems(op, family, n):
    """(numerator, denominator, lift, pull, dim) of both flavors at level
    n, and of operator_norm, the strong/strong ratio at level 1, where
    ``family`` is None."""
    if family is None:
        return [(*ratio_problem(op, LpFamily(1.0), "strong", "strong", 1),
                 op.in_dim)]
    return [(*ratio_problem(op, family, *sides, n), n * op.in_dim)
            for sides in _SIDES.values()]


_IDENTITY_FAMILIES = [
    LpFamily(1.0), LpFamily(1.5), LpFamily(3.0), LpFamily(math.inf),
    WeightedLpFamily(2.5, [0.5, 1.75, 0.8, 1.2, 2.0]),
    OrliczFamily(parse_gauge("u^2+u^4")), OrliczFamily(parse_gauge("u*exp(u)"))]


@pytest.mark.parametrize("family", _IDENTITY_FAMILIES,
                         ids=lambda f: f.label)
@pytest.mark.parametrize("role", ["domain", "codomain", "mixing"])
def test_lift_pairing_is_numerator_and_pull_lands_on_sphere(family, role):
    # the engine's step test compares lift pairings, so each must be the
    # numerator at its point, and each pulled point must have denominator 1
    rng = np.random.default_rng(["domain", "codomain", "mixing"].index(role))
    sides = {"domain": LpFamily(1.5), "codomain": LpFamily(3.0),
             "mixing": WeightedLpFamily(2.0, [1.5, 0.75, 1.0])}
    sides[role] = family
    op = OperatorInstance(rng.standard_normal((3, 4)),
                          lattice(4, sides["domain"]),
                          lattice(3, sides["codomain"]))
    maps = _problems(op, sides["mixing"], 3)
    if role != "mixing":
        maps += _problems(op, None, 3)
    for numer, denom, lift, pull, dim in maps:
        probes = (rng.standard_normal((64, dim))
                  * 10.0 ** rng.uniform(-3.0, 3.0, (64, 1)))
        y, pairing = lift(probes)
        value = numer(probes)
        assert (np.abs(pairing - value) <= 1e-15 * value).all()
        assert (np.abs(denom(pull(y)) - 1.0) <= 1e-15).all()


@pytest.mark.parametrize("family", [None, LpFamily(1.5), LpFamily(math.inf)])
def test_restart_values_are_numerators_at_unit_witnesses(family):
    # the last numerator call scores every restart's final iterate, put on
    # the unit sphere; those rows are the stored witnesses
    op = _operator(15, 1.5, 3.0)
    for numer, denom, lift, pull, dim in _problems(op, family, 2):
        scored = []

        def record(z, numer=numer):
            scored.append(z)
            return numer(z)

        got = maximize_ratio(record, denom, dim, seed=8, lift=lift, pull=pull,
                             budget=AscentBudget(10, 200))
        witnesses = scored[-1]
        assert len(witnesses) == 10
        assert _bits(numer(witnesses)) == _bits(got.restart_values)
        assert np.abs(denom(witnesses) - 1.0).max() <= 1e-15
        assert _bits(got.argmax) == _bits(
            witnesses[int(np.argmax(got.restart_values))])


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_operator_norm_closed_form(p):
    # also between non-lattice normed spaces: operator_norm's two sides are
    # strong mixed norms at level 1, and a pointwise side would refuse them
    for seed in range(4):
        op = _operator(60 + seed, p, p, shape=(3, 4))
        mat = op.matrix
        exact = {1.0: np.abs(mat).sum(axis=0).max(),
                 2.0: np.linalg.norm(mat, 2),
                 math.inf: np.abs(mat).sum(axis=1).max()}[p]
        normed = OperatorInstance(mat, NormedSpace(4, LpFamily(p)),
                                  NormedSpace(3, LpFamily(p)))
        for inst in (op, normed):
            assert operator_norm(inst, seed=seed).value == pytest.approx(
                exact, rel=1e-12)


def test_identity_linf_l1_concavity_reaches_cyclic_optimum():
    # random starts stop at the local maximum 3; the cyclic start e_1..e_4
    # attains the exact value 4
    space = lattice(4, LpFamily(math.inf))
    ident = OperatorInstance(np.eye(4), space, space)
    est = estimate_constant(ident, LpFamily(1.0), "concavity", 4, seed=0)
    assert est.per_n[-1].value == pytest.approx(4.0, rel=1e-12)
    assert concavity_ratio(ident, LpFamily(1.0), _cyclic_tuple(4, 4)) == 4.0

"""Koethe duals of Luxemburg norms by the Amemiya solve, against the
benchmark's numpy-only oracles and against positive-sphere ascent; and
Luxemburg norms by Newton against a 60-step bisection and against the
fixed-count Newton."""

import importlib.util
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lattice_calc import (CustomFamily, InputError, LpFamily, OrliczFamily,
                          OrliczFunction, conjugate_exponent, dual_witness,
                          kothe_dual, kothe_dual_norm, parse_gauge,
                          seq_lattice)
from lattice_calc.cli import EXIT_OK, run
from lattice_calc.seeding import substream_normals
from lattice_calc.seq_lattice import (NEWTON_STEPS, _amemiya_dual,
                                      _ascent_rows, strip_trailing_zeros)

ORACLES = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"


def _load_oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GAUGES = _load_oracles().GAUGES
CORPUS = ("u^2", "u^3", "u^1.5", "u^2+u^4", "u*exp(u)")
FIXED = [0.3646, 0.2941, 0.0284, 0.5467]


def _reference(gauge, betas):
    """l_q for the power gauges, the Amemiya oracle for the others."""
    ref = GAUGES[gauge]
    if ref.power is not None:
        return LpFamily(conjugate_exponent(ref.power)).norm_array(betas)
    return ref.amemiya_dual(betas)


def test_uexp_fixed_vector_converges_through_cli():
    report = run({"task": "dualnorm", "vector": FIXED,
                  "family": {"kind": "orlicz", "phi": "u*exp(u)"}})
    assert report["exit_status"] == EXIT_OK
    res = report["results"]
    assert res["converged"] is True
    expected = float(GAUGES["u*exp(u)"].amemiya_dual(FIXED))
    assert res["dual_norm"] == pytest.approx(expected, rel=1e-9)
    assert float(np.dot(res["witness"], FIXED)) == pytest.approx(
        res["dual_norm"], rel=1e-12)


def test_uexp_sweep_matches_amemiya_and_stays_below():
    betas = np.random.default_rng(1).standard_normal((200, 8))
    got = kothe_dual(OrliczFamily(parse_gauge("u*exp(u)"))).norm_array(betas)
    ref = GAUGES["u*exp(u)"].amemiya_dual(betas)
    rel = (got - ref) / ref
    assert np.abs(rel).max() <= 1e-9
    assert rel.max() <= 1e-12


@pytest.mark.parametrize("gauge", CORPUS)
def test_corpus_matches_closed_forms(gauge):
    rng = np.random.default_rng(17)
    betas = rng.standard_normal((60, 6)) * rng.uniform(0.1, 10.0, (60, 1))
    betas[::7, 2:] = 0.0
    got = kothe_dual(OrliczFamily(parse_gauge(gauge))).norm_array(betas)
    ref = _reference(gauge, betas)
    tol = 1e-12 if GAUGES[gauge].power is not None else 1e-9
    assert np.abs(got - ref).max() <= tol * ref.max()
    assert np.all(np.abs(got - ref) <= tol * ref)


@pytest.mark.parametrize("gauge", CORPUS)
def test_witness_attains_in_the_unit_ball(gauge):
    fam = OrliczFamily(parse_gauge(gauge))
    for b in np.random.default_rng(4).standard_normal((5, 5)):
        res = kothe_dual_norm(fam, b)
        assert res.method == "numeric" and res.converged
        assert fam.norm(res.witness) <= 1.0 + 1e-12
        assert float(res.witness @ b) == pytest.approx(res.value, rel=1e-12)
        assert np.array_equal(dual_witness(fam, b), res.witness)


@pytest.mark.parametrize("gauge", CORPUS)
def test_ascent_never_exceeds_amemiya(gauge):
    fam = OrliczFamily(parse_gauge(gauge))
    betas = np.random.default_rng(6).standard_normal((12, 5))
    amemiya = _amemiya_dual(fam, betas)[0]
    ascent = _ascent_rows(fam, np.abs(betas), 150)[0]
    assert np.all(ascent <= amemiya * (1.0 + 1e-12))


def test_bracket_brackets_the_oracle():
    fam = OrliczFamily(parse_gauge("u^2+u^4"))
    betas = np.random.default_rng(8).standard_normal((40, 7))
    value, _, upper = _amemiya_dual(fam, betas)
    ref = GAUGES["u^2+u^4"].amemiya_dual(betas)
    assert np.all(value <= ref * (1.0 + 1e-12))
    assert np.all(upper >= ref * (1.0 - 1e-12))
    assert np.all(upper - value <= 1e-9 * value)


@pytest.mark.parametrize("gauge", CORPUS)
def test_rows_independent_of_batch_and_padding(gauge):
    fam = OrliczFamily(parse_gauge(gauge))
    rng = np.random.default_rng(12)
    batch = rng.standard_normal((9, 6))
    row = batch[4]
    alone = _amemiya_dual(fam, row)
    in_batch = _amemiya_dual(fam, batch)
    padded = _amemiya_dual(fam, np.concatenate([row, np.zeros(3)]))
    for k in (0, 2):
        assert alone[k] == in_batch[k][4] == padded[k]
    assert np.array_equal(alone[1], in_batch[1][4])
    assert np.array_equal(alone[1], padded[1][:6])


@pytest.mark.parametrize("gauge", CORPUS)
def test_extreme_magnitudes_do_not_overflow(gauge):
    dual = kothe_dual(OrliczFamily(parse_gauge(gauge)))
    row = np.array([0.7, -1.3, 0.2, 2.0])
    base = dual.norm_array(row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for scale in (1e300, 1e-300):
            got = dual.norm_array(scale * row)
            assert np.isfinite(got) and got > 0.0
            assert got == pytest.approx(scale * base, rel=1e-12)


def test_zero_and_nan_rows():
    dual = kothe_dual(OrliczFamily(parse_gauge("u*exp(u)")))
    vals = dual.norm_array(np.array([[0.0, 0.0], [np.nan, 1.0], [1.0, 2.0]]))
    assert vals[0] == 0.0 and np.isnan(vals[1]) and vals[2] > 0.0
    res = kothe_dual_norm(OrliczFamily(parse_gauge("u^3")), [0.0, 0.0])
    assert res.value == 0.0 and res.converged


def test_all_zero_batch_skips_the_solve(monkeypatch):
    fam = OrliczFamily(parse_gauge("u*exp(u)"))
    mixed = _amemiya_dual(fam, np.array([[0.0, 0.0], [1.0, 2.0]]))
    assert mixed[0][0] == 0.0 and mixed[2][0] == 0.0
    assert not mixed[1][0].any()

    def refuse(u):
        raise AssertionError("the Newton solve ran on an all-zero batch")

    monkeypatch.setattr(fam.phi, "derivative", refuse)
    monkeypatch.setattr(fam.phi, "second_derivative", refuse)
    for shape in [(3,), (4, 1), (2, 4, 3)]:
        value, witness, upper = _amemiya_dual(fam, np.zeros(shape))
        assert value.shape == upper.shape == shape[:-1]
        assert witness.shape == shape
        assert not (value.any() or witness.any() or upper.any())


def test_bare_callable_gauge_is_refused():
    for func in (lambda u: u * np.exp(u), lambda u: u * u):
        with pytest.raises(InputError, match="parse_gauge.*CustomFamily"):
            OrliczFunction(func)


def _refuse(u):
    raise AssertionError("phi'' was evaluated")


def test_norm_gradient_uses_the_compiled_derivative():
    a = np.random.default_rng(2).standard_normal((20, 5))
    fam = OrliczFamily(parse_gauge("u^2"))
    fam.phi.second_derivative = _refuse  # the gradient needs phi' alone
    exact = fam.norm_gradient(a)
    assert np.allclose(exact, LpFamily(2).norm_gradient(a), rtol=1e-13,
                       atol=0.0)


def test_power_of_a_power_is_bitwise_the_folded_power():
    folded, plain = (OrliczFamily(parse_gauge(g))
                     for g in ("(u^2)^0.75", "u^1.5"))
    for values in _luxemburg_batches(np.random.default_rng(24)):
        assert (folded.norm_array(values).tobytes()
                == plain.norm_array(values).tobytes())
        assert (folded.norm_gradient(values).tobytes()
                == plain.norm_gradient(values).tobytes())
        for got, want in zip(_amemiya_dual(folded, values),
                             _amemiya_dual(plain, values)):
            assert got.tobytes() == want.tobytes()


def test_linear_gauge_dual_through_cli_is_max_over_c():
    vector = [0.3646, -2.2941, 0.0284, 2.2941, -0.5467]
    report = run({"task": "dualnorm", "vector": vector,
                  "family": {"kind": "orlicz", "phi": "2*u"}})
    assert report["exit_status"] == EXIT_OK
    res = report["results"]
    assert res["converged"] is True
    assert res["dual_norm"] == max(abs(v) for v in vector) / 2.0
    assert float(np.dot(res["witness"], vector)) == res["dual_norm"]
    fam = OrliczFamily(parse_gauge("2*u"))
    assert fam.norm(res["witness"]) == 1.0


@pytest.mark.parametrize("gauge", ["u", "2*u", "3*u"])
def test_linear_gauge_duals_are_scaled_linf(gauge):
    fam = OrliczFamily(parse_gauge(gauge))
    assert fam.phi.linear
    u1 = 1.0 / fam.phi.derivative(0.0)
    betas = np.random.default_rng(9).standard_normal((7, 5))
    betas[2] = 0.0
    value, witness, upper = _amemiya_dual(fam, betas)
    assert value.tobytes() == (u1 * np.abs(betas).max(axis=-1)).tobytes()
    assert upper.tobytes() == value.tobytes()
    assert np.array_equal((witness * np.abs(betas)).sum(axis=-1), value)
    assert not witness[2].any()
    assert np.array_equal(kothe_dual(fam).norm_array(betas), value)


# ---------------------------------------------------------------------------
# the early exits give the fixed-count results bit for bit

STRESS = CORPUS + ("u^1.05", "u^12", "u+u^2", "0.01*u^2+u*exp(u)",
                   "exp(u^2)*u^2")
# gauges that took the bisection and the ascent while their compiled phi'
# was 0 * inf at 0 or their phi'' vanished
FORMER = ("u", "2*u", "(u^2)^0.75", "u^2*u^0.5", "(u^2+u^3)^0.5")


def _fixed_inverse_derivative(derivative, second_derivative, v, u, top):
    """``_inverse_derivative`` as it was before its early exit: all
    NEWTON_STEPS steps, on every element."""
    lo = np.zeros_like(u)
    hi = np.full_like(u, top)
    for _ in range(NEWTON_STEPS):
        d1, d2 = derivative(u), second_derivative(u)
        short = d1 < v
        lo = np.where(short, u, lo)
        hi = np.where(short, hi, u)
        step = u * np.exp(np.log(v / d1) * d1 / (u * d2))
        u = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
    return u


def _fixed_amemiya_dual(base, values):
    """``_amemiya_dual`` as it was before its early exits: all
    NEWTON_STEPS outer steps of _fixed_inverse_derivative."""
    a = strip_trailing_zeros(np.abs(np.asarray(values, dtype=float)))
    if not a.any():
        return (np.zeros(a.shape[:-1]), np.zeros(np.shape(values)),
                np.zeros(a.shape[:-1]))
    flat = a.reshape(-1, a.shape[-1])
    scale = flat.max(axis=-1, keepdims=True)
    b = flat / np.where(scale != 0.0, scale, 1.0)
    phi = base.phi
    u1 = phi.unit_level
    floor = phi.derivative(np.zeros(()))
    support = np.maximum(np.count_nonzero(b, axis=-1, keepdims=True), 1)
    t_hi = np.full_like(scale, np.log(phi.derivative(np.asarray(u1))))
    t_lo = np.minimum(t_hi, -np.log(support * u1))
    t = t_hi
    u = np.full_like(b, u1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        for _ in range(NEWTON_STEPS):
            k = np.exp(t)
            v = k * b
            live = v > floor
            u = _fixed_inverse_derivative(phi.derivative,
                                          phi.second_derivative, v,
                                          np.where(u > 0.0, u, u1), u1)
            u = np.where(live, u, 0.0)
            phi_u = phi.func(u)
            level = phi_u.sum(axis=-1, keepdims=True)
            slope = np.where(live, v * v / phi.second_derivative(u),
                             0.0).sum(axis=-1, keepdims=True)
            over = level >= 1.0
            t_lo = np.where(over, t_lo, t)
            t_hi = np.where(over, t, t_hi)
            step = t - level * np.log(level) / slope
            t = np.where((step >= t_lo) & (step <= t_hi), step,
                         0.5 * (t_lo + t_hi))
        upper = (1.0 + (v * u - phi_u).sum(axis=-1)) / k[:, 0]
    nrm = base.norm_array(u)
    alpha = u / np.where(nrm > 0.0, nrm, 1.0)[:, None]
    value = scale[:, 0] * (alpha * b).sum(axis=-1)
    witness = np.zeros(np.shape(values))
    witness[..., :a.shape[-1]] = alpha.reshape(a.shape)
    rows = a.shape[:-1]
    return (value.reshape(rows), witness,
            (scale[:, 0] * upper).reshape(rows))


def _assert_same_bits(fam, betas):
    with np.errstate(all="ignore"):
        got = _amemiya_dual(fam, betas)
        want = _fixed_amemiya_dual(fam, betas)
    for name, g, w in zip(("value", "witness", "upper"), got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), name


def _stress_batches(rng):
    yield rng.standard_normal((20, 8))
    yield rng.standard_normal((10, 64))
    yield rng.standard_normal(1)
    yield rng.standard_normal(3)
    yield rng.standard_normal((1, 5))
    # twelve decades within a row
    yield rng.standard_normal((20, 8)) * 10.0 ** rng.uniform(-6, 6, (20, 8))
    yield rng.standard_normal((6, 64)) * 10.0 ** rng.uniform(-6, 6, (6, 64))
    mixed = rng.standard_normal((8, 6))
    mixed[1] = 0.0
    mixed[2, 3] = np.nan
    mixed[3:, 4:] = 0.0  # padded rows in a batch that has no zero tail
    yield mixed
    yield 1e300 * rng.standard_normal((5, 7))
    yield 1e-300 * rng.standard_normal((5, 7))
    padded = rng.standard_normal((4, 9))
    padded[:, 6:] = 0.0
    yield padded
    yield np.array([[0.0, 0.0], [1.0, 2.0]])


@pytest.mark.parametrize("gauge", STRESS)
def test_early_exit_is_bitwise_the_fixed_count_solve(gauge):
    fam = OrliczFamily(parse_gauge(gauge))
    for betas in _stress_batches(np.random.default_rng(5)):
        _assert_same_bits(fam, betas)


@seed(10)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STRESS), st.integers(1, 4), st.integers(1, 12),
       st.floats(0.0, 12.0), st.integers(-300, 300),
       st.integers(0, 2**32 - 1))
def test_early_exit_bitwise_property(gauge, rows, n, decades, exponent,
                                     draw):
    rng = np.random.default_rng(draw)
    spread = 10.0 ** rng.uniform(-decades / 2, decades / 2, (rows, n))
    betas = rng.standard_normal((rows, n)) * spread * 10.0 ** exponent
    betas[rng.random((rows, n)) < 0.2] = 0.0
    _assert_same_bits(OrliczFamily(parse_gauge(gauge)), betas)


def _fixed_luxemburg(fam, values):
    """``OrliczFamily.norm_array`` as it was before its early exit: all
    NEWTON_STEPS bracketed Newton steps on every row."""
    a = strip_trailing_zeros(np.abs(np.asarray(values, dtype=float)))
    flat = a.reshape(-1, a.shape[-1])
    m = flat.max(axis=-1, keepdims=True)
    active = m != 0.0
    b = flat / np.where(active, m, 1.0)
    lo = np.full_like(m, 1.0 / fam.phi.unit_level)
    hi = lo * np.maximum(np.count_nonzero(b, axis=-1, keepdims=True), 1)
    x = lo
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        for _ in range(NEWTON_STEPS):
            u = b / x
            level = fam.phi.func(u).sum(axis=-1, keepdims=True)
            slope = (u * fam.phi.derivative(u)).sum(axis=-1, keepdims=True)
            over = level > 1.0
            lo = np.where(over, x, lo)
            hi = np.where(over, hi, x)
            step = x * np.exp(level * np.log(level) / slope)
            x = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        norms = np.where(active, m * x, 0.0)
    return norms[:, 0].reshape(a.shape[:-1])


@pytest.mark.parametrize("gauge", STRESS + FORMER)
def test_luxemburg_early_exit_is_bitwise_the_fixed_count_newton(gauge):
    fam = OrliczFamily(parse_gauge(gauge))
    for values in _stress_batches(np.random.default_rng(5)):
        with np.errstate(all="ignore"):
            got, want = fam.norm_array(values), _fixed_luxemburg(fam, values)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_one_row_solve_takes_few_inner_steps(monkeypatch):
    # the fixed count is NEWTON_STEPS * NEWTON_STEPS = 256
    fam = OrliczFamily(parse_gauge("u^2"))
    steps = []
    inner = seq_lattice._inverse_derivative

    def counted(phi, *args):
        def count(u):
            steps.append(1)
            return phi.derivative(u)
        return inner(SimpleNamespace(derivative=count,
                                     second_derivative=phi.second_derivative),
                     *args)

    monkeypatch.setattr(seq_lattice, "_inverse_derivative", counted)
    _amemiya_dual(fam, np.array([FIXED]))
    assert 0 < len(steps) <= 32


def test_unit_level_is_the_full_bisection():
    for gauge in STRESS:
        phi = parse_gauge(gauge)
        hi = 1.0
        while float(phi(hi)) < 1.0:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if float(phi(mid)) >= 1.0:
                hi = mid
            else:
                lo = mid
        assert phi.unit_level == 0.5 * (lo + hi), gauge


def _frozen_starts(targets, restarts, seed):
    """The starts of ``_ascent_rows`` as separate per-start (k, n) arrays:
    (iterated, static), built one start at a time."""
    k, n = targets.shape
    iterated = [np.ones((k, n))]
    for r in (0.5, 1.0, 2.0):
        iterated.append(targets ** r)
    static = []
    for i in range(n):
        e = np.zeros((k, n))
        e[:, i] = 1.0
        static.append(e)
    extra = max(0, restarts - len(iterated) - len(static))
    for start in np.abs(substream_normals(seed, range(extra), n)):
        iterated.append(np.repeat(start[None], k, axis=0))
    return iterated, static


def _fixed_linear_ascent(family, targets, inits, iterations, step0, static):
    """The ascent as it was before its stall exit: (best values, best
    witnesses, per-start final values)."""
    b = np.abs(np.asarray(targets, dtype=float))
    k, n = b.shape
    inits = list(inits) + list(static)
    iterated = len(inits) - len(static)
    r = len(inits)
    alpha = np.concatenate([np.asarray(a, dtype=float) for a in inits])
    bb = np.tile(b, (r, 1))
    nrm = family.norm_array(alpha)
    alpha = alpha / np.where(nrm > 0.0, nrm, 1.0)[:, None]
    val = (alpha * bb).sum(axis=-1)
    live = iterated * k
    a_it, b_it, v_it = alpha[:live], bb[:live], val[:live]
    eta = np.full(live, step0)
    unit = np.ones(live)
    for _ in range(iterations):
        g = family.norm_gradient(a_it, norms=unit)
        gg = (g * g).sum(axis=-1)
        gb = (g * b_it).sum(axis=-1)
        d = b_it - g * (gb / np.maximum(gg, 1e-300))[:, None]
        dn = np.sqrt((d * d).sum(axis=-1))
        d = d / np.maximum(dn, 1e-300)[:, None]
        cand = np.maximum(a_it + eta[:, None] * d, 0.0)
        cn = family.norm_array(cand)
        ok = cn > 0.0
        cand = np.where(ok[:, None], cand / np.where(ok, cn, 1.0)[:, None],
                        a_it)
        cv = (cand * b_it).sum(axis=-1)
        adopt = ok & (cv > v_it) & (dn > 1e-15)
        a_it = np.where(adopt[:, None], cand, a_it)
        v_it = np.where(adopt, cv, v_it)
        eta = np.clip(np.where(adopt, eta * 1.4, eta * 0.4), 1e-14, 4.0)
    alpha = np.concatenate([a_it, alpha[live:]])
    val = np.concatenate([v_it, val[live:]])
    finals = val.reshape(r, k)
    stacked = alpha.reshape(r, k, n)
    top = finals.argmax(axis=0)
    return finals[top, np.arange(k)], stacked[top, np.arange(k)], finals


def test_linear_ascent_stall_exit_is_the_fixed_count_ascent():
    calls = []

    def l3(row):
        calls.append(1)
        return float((np.abs(row) ** 3).sum() ** (1.0 / 3.0))

    fam = CustomFamily(l3, label="l3-oracle")
    mags = np.abs(np.random.default_rng(3).standard_normal((4, 5)))
    got = _ascent_rows(fam, mags, 150, 12, 7)
    early = len(calls)
    scale = mags.max(axis=-1)
    normed = mags / scale[:, None]
    iterated, static = _frozen_starts(normed, 12, 7)
    assert len(iterated) == 7  # three of them seeded
    values, witnesses, finals = _fixed_linear_ascent(
        fam, normed, iterated, 150, 0.25, static)
    values = values * scale
    agree = (finals * scale >= values * (1.0 - 1e-6)).sum(axis=0)
    for g, w in zip(got, (values, witnesses, agree)):
        assert g.tobytes() == w.tobytes()
    assert early < len(calls) - early  # the exit fired


# ---------------------------------------------------------------------------
# Luxemburg norms by Newton, against the bisection it replaced

BISECT_STEPS = 60


def _bisection_norms(fam, values):
    """``OrliczFamily.norm_array`` as it was before the Newton path: a fixed
    BISECT_STEPS halvings of [m / u1, support * m / u1]."""
    a = strip_trailing_zeros(np.abs(np.asarray(values, dtype=float)))
    m = a.max(axis=-1)
    support = np.count_nonzero(a, axis=-1)
    active = m != 0.0
    u1 = fam.phi.unit_level
    scale = 1.0
    with np.errstate(over="ignore"):
        big = (~np.isfinite(2.0 * (np.maximum(support, 1) * m / u1))
               & np.isfinite(m))
    if big.any():
        scale = np.where(big, m, 1.0)
        a = a / scale[..., None]
        m = m / scale
    lo = np.where(active, m / u1, 1.0)
    hi = np.where(active, np.maximum(support, 1) * m / u1, 2.0)
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lo + hi)
        level = fam.phi.func(a / mid[..., None]).sum(axis=-1)
        above = level > 1.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    return np.where(active, 0.5 * (lo + hi) * scale, 0.0)


def _luxemburg_batches(rng):
    """Rows with twelve decades of range and zero tails, their maxima
    spread over 1e-300 .. 1e300 (never subnormal, where no method keeps
    1e-15 relative)."""
    for exponent in (-300, -100, 0, 100, 300):
        for shape in [(20, 8), (6, 64), (30, 5), (1, 3), (4,)]:
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-6, 6, shape)
            x /= np.abs(x).max(axis=-1, keepdims=True)
            x *= 10.0 ** rng.uniform(exponent - 1, exponent + 1,
                                     shape[:-1] + (1,))
            x[..., 0] = np.abs(x).max(axis=-1)  # the max survives the tails
            if x.ndim == 2 and len(x) > 2:
                x[::3, shape[1] // 2:] = 0.0
            yield x


@pytest.mark.parametrize("gauge", STRESS + FORMER)
def test_newton_luxemburg_matches_the_bisection(gauge):
    fam = OrliczFamily(parse_gauge(gauge))
    fam.phi.second_derivative = _refuse  # Newton needs phi' alone
    for values in _luxemburg_batches(np.random.default_rng(21)):
        got = fam.norm_array(values)
        want = _bisection_norms(fam, values)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-15 * want), gauge


@pytest.mark.parametrize("gauge", STRESS + FORMER)
def test_newton_luxemburg_rows_independent_of_batch(gauge):
    fam = OrliczFamily(parse_gauge(gauge))
    rng = np.random.default_rng(22)
    batch = rng.standard_normal((9, 6))
    batch[3:6, 4:] = 0.0  # zero tails the batch lacks
    batch[6] = 0.0
    shared = rng.standard_normal((4, 64))
    shared[:, 40:] = 0.0  # a zero tail every row has
    for values in (batch, shared, batch.reshape(3, 3, 6)):
        flat = values.reshape(-1, values.shape[-1])
        got = fam.norm_array(values).ravel()
        for row, value in zip(flat, got):
            alone = fam.norm_array(row)
            padded = fam.norm_array(np.concatenate([row, np.zeros(5)]))
            assert alone.tobytes() == value.tobytes() == padded.tobytes()


@pytest.mark.parametrize("gauge", ["(u^2+u^3)^0.5", "(u^4+u^6)^0.5"])
def test_bases_that_underflow_keep_finite_derivatives(gauge):
    # the base underflows below about 1e-154 and its negative power in the
    # compiled phi' and phi'' overflows; the leading term stands in there
    fam = OrliczFamily(parse_gauge(gauge))
    rows = np.array([[1.0, 0.5, 1e-170], [0.3, 1e-200, 0.0],
                     [2.0, 1e-160, 0.7]])
    got, want = fam.norm_array(rows), _bisection_norms(fam, rows)
    assert np.all(np.abs(got - want) <= 1e-15 * want)
    res = kothe_dual_norm(fam, rows)
    clean = kothe_dual_norm(fam, np.where(rows < 1e-100, 0.0, rows))
    assert res.converged.all()
    assert np.allclose(res.value, clean.value, rtol=1e-15, atol=0.0)


def test_newton_luxemburg_nan_and_zero_rows():
    for gauge in STRESS:
        fam = OrliczFamily(parse_gauge(gauge))
        vals = fam.norm_array(np.array([[0.0, 0.0], [np.nan, 1.0],
                                        [1.0, 2.0]]))
        assert vals[0] == 0.0 and np.isnan(vals[1]) and vals[2] > 0.0
        assert not fam.norm_array(np.zeros((2, 3, 4))).any()


def test_one_row_newton_takes_few_steps():
    fam = OrliczFamily(parse_gauge("u^2"))
    steps = []
    derivative = fam.phi.derivative

    def counted(u):
        steps.append(1)
        return derivative(u)

    fam.phi.derivative = counted
    fam.norm_array(np.array(FIXED))
    assert 0 < len(steps) <= 8


def test_orlicz_bases_never_take_the_ascent(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an Orlicz base took the ascent")

    monkeypatch.setattr(seq_lattice, "_ascent_rows", refuse)
    betas = np.random.default_rng(25).standard_normal((6, 5))
    for gauge in STRESS + FORMER:
        fam = OrliczFamily(parse_gauge(gauge))
        res = kothe_dual_norm(fam, betas)
        assert res.converged.all(), gauge
        assert np.array_equal(kothe_dual(fam).norm_array(betas), res.value)
        assert np.array_equal(dual_witness(fam, betas), res.witness)

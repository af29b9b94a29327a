"""Koethe duals of Luxemburg norms by the Amemiya solve, against the
benchmark's numpy-only oracles and against positive-sphere ascent."""

import importlib.util
import warnings
from pathlib import Path

import numpy as np
import pytest

from lattice_calc import (InputError, LpFamily, OrliczFamily,
                          OrliczFunction, conjugate_exponent, dual_witness,
                          kothe_dual, kothe_dual_norm, parse_gauge)
from lattice_calc.cli import EXIT_OK, run
from lattice_calc.seq_lattice import _amemiya_dual, _ascent_dual

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
    report = run({"task": "dualnorm", "vector": FIXED, "method": "numeric",
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
    ascent = _ascent_dual(fam, betas)[0]
    assert np.all(ascent <= amemiya * (1.0 + 1e-12))


def test_bracket_brackets_the_oracle():
    fam = OrliczFamily(parse_gauge("u^2+u^4"))
    betas = np.random.default_rng(8).standard_normal((40, 7))
    value, _, upper = _amemiya_dual(fam, betas)
    ref = GAUGES["u^2+u^4"].amemiya_dual(betas)
    assert np.all(value <= ref * (1.0 + 1e-12))
    assert np.all(upper >= ref * (1.0 - 1e-12))
    assert np.all(upper - value <= 1e-9 * value)


def test_budget_is_ignored_for_compiled_gauges():
    fam = OrliczFamily(parse_gauge("u^2+u^4"))
    a = kothe_dual_norm(fam, FIXED, method="numeric")
    b = kothe_dual_norm(fam, FIXED, method="numeric", restarts=1,
                        iterations=1, seed=9, step0=3.0)
    assert a.value == b.value and np.array_equal(a.witness, b.witness)
    with pytest.raises(InputError):
        kothe_dual_norm(fam, FIXED, method="analytic")


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

    monkeypatch.setattr(fam.phi, "derivatives", refuse)
    for shape in [(3,), (4, 1), (2, 4, 3)]:
        value, witness, upper = _amemiya_dual(fam, np.zeros(shape))
        assert value.shape == upper.shape == shape[:-1]
        assert witness.shape == shape
        assert not (value.any() or witness.any() or upper.any())


def test_bare_callable_gauge_keeps_the_ascent():
    fam = OrliczFamily(OrliczFunction(lambda u: u * np.exp(u)))
    assert fam.phi.derivatives is None
    res = kothe_dual_norm(fam, FIXED, method="numeric", restarts=4,
                          iterations=40)
    assert res.value <= float(GAUGES["u*exp(u)"].amemiya_dual(FIXED)) * (
        1.0 + 1e-12)
    assert fam.norm(res.witness) <= 1.0 + 1e-12


def test_norm_gradient_uses_the_compiled_derivative():
    a = np.random.default_rng(2).standard_normal((20, 5))
    exact = OrliczFamily(parse_gauge("u^2")).norm_gradient(a)
    assert np.allclose(exact, LpFamily(2).norm_gradient(a), rtol=1e-13,
                       atol=0.0)
    bare = OrliczFamily(OrliczFunction(lambda u: u * u)).norm_gradient(a)
    assert np.allclose(bare, exact, rtol=1e-6)

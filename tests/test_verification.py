"""The worst-deviation accumulator behind every ``verify`` record."""

import json
import math

import numpy as np

import lattice_calc.verification as verification
from lattice_calc import cli
from lattice_calc.reporting import check_record, inputs_digest
from lattice_calc.verification import _Records


def _record(op, worst, tol, family, seed, probes):
    # a record as the suites built it before the accumulator
    return check_record(op, worst, tol, worst <= tol,
                        inputs_digest(op, family, probes, seed),
                        seed=seed, family=family, probes=probes)


def test_finite_deviations_give_the_worst_record():
    acc = _Records(7)
    acc.feed("family_triangle", np.array([-1e-3, 2e-12]))
    acc.feed("family_triangle", 5e-13)
    acc.close("family_triangle", 1e-9, "l2", 100)
    # all deviations negative: the record floors at 0.0
    acc.close("family_monotonicity", 1e-9, "l2", 100, np.array([-0.5, -0.25]))
    # nothing fed: a clean 0.0
    acc.close("family_padding", 0.0, "l2", 100)
    # the pairing margin is recorded raw, negative on a healthy run
    acc.close("holder_bound", 1e-9, "l1", 10, np.array([-0.3, -0.2]),
              floor=-np.inf)
    acc.close("constants_levels_nondecreasing", 0.0, "l2", 2, -0.1, -0.05,
              floor=-np.inf)
    acc.exact("riesz_join_formula", True, "riesz", 7, probes=3)
    acc.exact("operator_padding_commutes", False, "pad", 7)
    assert acc.records == [
        _record("family_triangle", 2e-12, 1e-9, "l2", 7, 100),
        _record("family_monotonicity", 0.0, 1e-9, "l2", 7, 100),
        _record("family_padding", 0.0, 0.0, "l2", 7, 100),
        _record("holder_bound", -0.2, 1e-9, "l1", 7, 10),
        _record("constants_levels_nondecreasing", -0.05, 0.0, "l2", 7, 2),
        check_record("riesz_join_formula", 0.0, 0.0, True,
                     inputs_digest("riesz", 7), seed=7, probes=3),
        check_record("operator_padding_commutes", 1.0, 0.0, False,
                     inputs_digest("pad", 7), seed=7),
    ]
    assert acc.records[3]["holds"] and acc.records[3]["lhs"] < 0.0
    assert math.copysign(1.0, acc.records[1]["lhs"]) == 1.0


def test_nan_after_finite_deviations_fails():
    acc = _Records(0)
    acc.feed("family_homogeneity", np.array([1e-14, 2e-14]))
    acc.feed("family_homogeneity", np.array([1e-15, np.nan, 3e-15]))
    acc.close("family_homogeneity", 1e-9, "custom", 50)
    (rec,) = acc.records
    assert rec["lhs"] is None and not rec["holds"]


def test_finite_deviation_after_nan_still_fails():
    acc = _Records(0)
    acc.feed("krivine_triangle", np.nan)
    acc.feed("krivine_triangle", np.array([0.0, 1e-16]))
    acc.close("krivine_triangle", 1e-12, "all", 8, 5.0)
    acc.close("holder_bound", 1e-9, "l2", 4, np.array([np.nan]), -1.0,
              floor=-np.inf)
    assert all(r["lhs"] is None and not r["holds"] for r in acc.records)


def test_non_finite_records_are_strict_json(monkeypatch, tmp_path):
    # NaN and Infinity are not JSON: such a check is written with null and
    # fails, so a strict parser reads the whole report
    def suite(counts, seed):
        acc = _Records(seed)
        acc.close("family_homogeneity", 1e-9, "custom", 4,
                  np.array([1e-15, np.nan]))
        acc.records.append(check_record("unbounded", 0.5, math.inf, True))
        return acc.records

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    monkeypatch.setattr(verification, "SUITES", {"norm_families": suite})
    config, out = tmp_path / "verify.json", tmp_path / "report.json"
    config.write_text('{"task": "verify"}')
    assert cli.main(["verify", "--config", str(config),
                     "--out", str(out)]) == 1
    report = json.loads(out.read_text(), parse_constant=refuse)
    nan_rec, inf_rec = report["checks"]
    assert nan_rec["lhs"] is None and nan_rec["rhs"] == 1e-9
    assert inf_rec["lhs"] == 0.5 and inf_rec["rhs"] is None
    assert not nan_rec["holds"] and not inf_rec["holds"]
    assert not report["passed"]


def test_close_forgets_the_op():
    # a repeated op (one record per family) starts again from its floor
    acc = _Records(0)
    acc.close("holder_bound", 1e-9, "l1", 4, np.nan, floor=-np.inf)
    acc.close("holder_bound", 1e-9, "l2", 4, -0.5, floor=-np.inf)
    assert [r["holds"] for r in acc.records] == [False, True]
    assert acc.records[1]["lhs"] == -0.5

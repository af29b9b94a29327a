"""The worst-deviation accumulator behind every ``verify`` record."""

import json
import math
from collections import Counter

import numpy as np
import pytest

import lattice_calc.verification as verification
from lattice_calc import cli
from lattice_calc.errors import ScaleGuardError
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
    acc.close("family_triangle", 1e-9, "l2")
    # all deviations negative: the record floors at 0.0
    acc.close("family_monotonicity", 1e-9, "l2", np.array([-0.5, -0.25]))
    # nothing fed: a clean 0.0 over no probes
    acc.close("family_padding", 0.0, "l2")
    # the pairing margin is recorded raw, negative on a healthy run
    acc.close("holder_bound", 1e-9, "l1", np.array([-0.3, -0.2]),
              floor=-np.inf)
    acc.close("constants_levels_nondecreasing", 0.0, "l2", -0.1, -0.05,
              floor=-np.inf)
    # a check that holds or not: 0.0 or 1.0 per probe, at tolerance 0.0
    acc.close("riesz_join_formula", 0.0, "functionals", 0.0, 0.0, 0.0)
    acc.close("operator_padding_commutes", 0.0, "l2", 1.0)
    assert acc.records == [
        _record("family_triangle", 2e-12, 1e-9, "l2", 7, 3),
        _record("family_monotonicity", 0.0, 1e-9, "l2", 7, 2),
        _record("family_padding", 0.0, 0.0, "l2", 7, 0),
        _record("holder_bound", -0.2, 1e-9, "l1", 7, 2),
        _record("constants_levels_nondecreasing", -0.05, 0.0, "l2", 7, 2),
        _record("riesz_join_formula", 0.0, 0.0, "functionals", 7, 3),
        _record("operator_padding_commutes", 1.0, 0.0, "l2", 7, 1),
    ]
    assert acc.records[3]["holds"] and acc.records[3]["lhs"] < 0.0
    assert not acc.records[6]["holds"]
    assert math.copysign(1.0, acc.records[1]["lhs"]) == 1.0


def test_probes_count_leading_axes_and_scalars():
    # an array counts its leading axis, whatever its other axes; a scalar
    # (a Python float, a numpy scalar, a 0-d array) counts as one
    acc = _Records(0)
    acc.feed("krivine_triangle", np.zeros((250, 5)))
    acc.feed("krivine_triangle", np.zeros((3, 4, 5)))
    acc.feed("krivine_triangle", 0.5)
    acc.feed("krivine_triangle", np.float64(0.25))
    acc.feed("krivine_triangle", np.array(0.0))
    acc.feed("krivine_triangle", np.zeros(7))
    acc.close("krivine_triangle", 1e-12, "all", np.zeros((2, 9)), 1e-13)
    (rec,) = acc.records
    probes = 250 + 3 + 1 + 1 + 1 + 7 + 2 + 1
    assert rec["detail"] == {"family": "all", "probes": probes}
    assert rec["inputs_digest"] == inputs_digest("krivine_triangle", "all",
                                                 probes, 0)
    assert rec["lhs"] == 0.5 and not rec["holds"]


def test_nan_after_finite_deviations_fails():
    acc = _Records(0)
    acc.feed("family_homogeneity", np.array([1e-14, 2e-14]))
    acc.feed("family_homogeneity", np.array([1e-15, np.nan, 3e-15]))
    acc.close("family_homogeneity", 1e-9, "custom")
    (rec,) = acc.records
    assert rec["lhs"] is None and not rec["holds"]


def test_finite_deviation_after_nan_still_fails():
    acc = _Records(0)
    acc.feed("krivine_triangle", np.nan)
    acc.feed("krivine_triangle", np.array([0.0, 1e-16]))
    acc.close("krivine_triangle", 1e-12, "all", 5.0)
    acc.close("holder_bound", 1e-9, "l2", np.array([np.nan]), -1.0,
              floor=-np.inf)
    assert all(r["lhs"] is None and not r["holds"] for r in acc.records)


def test_non_finite_records_are_strict_json(monkeypatch, tmp_path):
    # NaN and Infinity are not JSON: such a check is written with null and
    # fails, so a strict parser reads the whole report
    def suite(counts, seed):
        acc = _Records(seed)
        acc.close("family_homogeneity", 1e-9, "custom",
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
    # and from zero probes; an op's count is its own
    acc = _Records(0)
    acc.feed("holder_bound", np.zeros(5))
    acc.feed("family_padding", np.zeros(2))
    acc.close("holder_bound", 1e-9, "l1", np.nan, floor=-np.inf)
    acc.close("holder_bound", 1e-9, "l2", -0.5, floor=-np.inf)
    acc.close("holder_bound", 1e-9, "l3", floor=-np.inf)
    acc.close("family_padding", 0.0, "l2")
    assert [r["holds"] for r in acc.records] == [False, True, True, True]
    assert acc.records[1]["lhs"] == -0.5
    assert [r["detail"]["probes"] for r in acc.records] == [6, 1, 0, 2]


def test_run_all_at_two_probes_passes_every_op():
    # every op, with its tolerance and record count, on any machine (the
    # committed digests pin the values only where they were taken)
    counts = dict.fromkeys(verification.DEFAULT_COUNTS, 2)
    counts["max_length"] = 8
    report = verification.run_all(counts)
    records = [r for name, section in report.items() if name != "summary"
               for r in section]
    assert report["summary"] == {"checks": 100, "failed": 0, "passed": True}
    assert all(r["holds"] for r in records)
    family_ops = {"family_definiteness": 0.0, "family_homogeneity": 1e-9,
                  "family_monotonicity": 1e-9, "family_triangle": 1e-9,
                  "family_padding": 0.0}
    expected = Counter({(op, tol): 9 for op, tol in family_ops.items()})
    expected.update({
        ("dual_numeric_vs_analytic", 1e-3): 6, ("holder_bound", 1e-9): 4,
        ("holder_witness_equality", 1e-9): 3})
    expected.update({pair: 1 for pair in [
        ("dual_bidual_l2", 1e-9), ("dual_orlicz_sq_is_l2", 1e-9),
        ("dual_prefix_monotone", 1e-9), ("dual_zero_tail_equality", 1e-9),
        ("dual_equals_functional_norm", 1e-6),
        ("krivine_projection_recovery", 0.0), ("krivine_homogeneity", 1e-12),
        ("krivine_monotonicity", 1e-12), ("krivine_abs_invariance", 1e-12),
        ("krivine_triangle", 1e-12), ("krivine_peak_bound", 1e-9),
        ("krivine_lattice_homomorphism", 1e-12),
        ("krivine_positive_map_domination", 1e-12),
        ("krivine_join_preservation", 0.0), ("krivine_compose_identity", 0.0),
        ("mixed_matched_lp_collapse", 1e-12), ("mixed_zero_padding_exact", 0.0),
        ("mixed_prefix_monotone", 1e-12), ("mixed_norm_triangle", 1e-12),
        ("mixed_equivalence_bounds", 0.0),
        ("tail_profile_nonincreasing", 1e-12),
        ("sequence_pairing_bound", 1e-9), ("pointwise_pairing_bound", 1e-9),
        ("join_bound_never_exceeds", 0.0), ("join_analytic_maximizers", 1e-6),
        ("sup_representation_lower", 1e-9),
        ("sup_representation_analytic", 1e-6), ("riesz_join_formula", 0.0),
        ("operator_apply_recompute", 1e-12),
        ("operator_transpose_pairing", 1e-12),
        ("operator_norm_transpose_symmetry", 1e-4),
        ("operator_lifting_bound", 0.0), ("operator_padding_commutes", 0.0),
        ("constants_identity_matched_lp", 1e-6),
        ("constants_operator_scaling", 1e-9),
        ("constants_levels_nondecreasing", 0.0),
        ("constants_witness_reproduces", 1e-9),
        ("constants_grid_oracle_agreement", 1e-2),
        ("duality_identity_gap", 1e-6), ("duality_seeded_gap", 5e-2),
        ("functional_norm_strong_duality", 1e-3),
        ("functional_norm_pointwise_duality", 1e-3)]})
    assert len(expected) == 50
    assert Counter((r["op"], r["rhs"]) for r in records) == expected


def _probes(report, op):
    return {r["detail"]["probes"] for name, section in report.items()
            if name != "summary" for r in section if r["op"] == op}


def test_records_count_the_probes_their_sweeps_draw():
    # per family 1000 // 7 probes at each of the lengths 2..8; 50 of the
    # 250 l1 instances, per projection; two norms on 9 blocks of 111;
    # both levels of both constants at three p; one gap
    report = verification.run_all()
    assert _probes(report, "family_homogeneity") == {994}
    assert _probes(report, "krivine_projection_recovery") == {200}
    assert _probes(report, "mixed_zero_padding_exact") == {1998}
    assert _probes(report, "constants_identity_matched_lp") == {12}
    assert _probes(report, "duality_seeded_gap") == {1}
    # one block of 100 rows once there are fewer than 200 instances
    counts = {"bilinear_instances": 125, "opnorm_pairs": 1,
              "constant_levels": 1}
    assert _probes(verification.run_all(counts),
                   "operator_apply_recompute") == {100}


def test_counts_are_capped_before_any_sweep():
    caps = {key: verification._MAX_COUNT for key in verification.DEFAULT_COUNTS}
    caps["max_length"] = verification._MAX_LENGTH
    assert verification._merge_counts(caps) == caps
    for key in caps:
        with pytest.raises(ScaleGuardError, match=key):
            verification._merge_counts({key: caps[key] + 1})


def test_max_length_beyond_the_weights_probes_them_to_their_length():
    # the two weighted families cover 8 coordinates; a longer max_length
    # once stopped the suite with their length error
    records = verification.norm_family_suite(
        {"family_probes": 18, "max_length": 10})
    assert all(r["holds"] for r in records)
    homogeneity = {r["detail"]["family"]: r["detail"]["probes"]
                   for r in records if r["op"] == "family_homogeneity"}
    assert homogeneity["l2"] == 2 * 9 and homogeneity["wl1[8]"] == 2 * 7

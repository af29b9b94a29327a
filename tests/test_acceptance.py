"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import dataclasses
import json
import math
import statistics
import time

import numpy as np
import pytest

from lattice_calc import (AscentBudget, LpFamily, OperatorInstance,
                          OrliczFamily, brute_force_constant, dual_witness,
                          duality_check, estimate_constant, functional_norm,
                          kothe_dual, lattice, lattice_valued_norm,
                          parse_gauge, pointwise_mixed_norm,
                          strong_mixed_norm)
from lattice_calc.cli import EXIT_OK, main
from lattice_calc.mixed_norms import (pointwise_mixed_norm_batch,
                                      strong_mixed_norm_batch)
from lattice_calc import verification as verif


def _verdict(num, ok, text):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_1_norm_family_suite():
    t0 = time.time()
    records = verif.norm_family_suite({"family_probes": 1000}, seed=42)
    elapsed = time.time() - t0
    bad = [r for r in records if not r["holds"]]
    worst = max(r["lhs"] for r in records if np.isfinite(r["lhs"]))
    ok = not bad and elapsed < 30.0
    _verdict(1, ok, f"7 families x 1000 probes, worst deviation "
                    f"{worst:.2e} at 1e-9 rel, {elapsed:.1f}s (< 30s)")


def test_criterion_2_kothe_duality():
    t0 = time.time()
    records = verif.kothe_suite({"dual_probes": 100, "holder_probes": 1000},
                                seed=42)
    elapsed = time.time() - t0
    by_op = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r)
    numeric = by_op["dual_numeric_vs_analytic"]
    holder = by_op["holder_bound"] + by_op["holder_witness_equality"]
    ok = (all(r["holds"] for r in numeric)
          and all(r["holds"] for r in holder)
          and all(r["holds"] for r in records))
    worst_num = max(r["lhs"] for r in numeric)
    _verdict(2, ok, f"numeric vs analytic duals within 1e-3 on 100 probes "
                    f"(worst {worst_num:.2e}); pairing bound and lp witness "
                    f"equality on 1000 probes, {elapsed:.1f}s")


def test_criterion_3_krivine_suite():
    t0 = time.time()
    records = verif.krivine_suite({"krivine_instances": 1000,
                                   "compose_instances": 100}, seed=42)
    elapsed = time.time() - t0
    bad = [r["op"] for r in records if not r["holds"]]
    ok = not bad and elapsed < 30.0
    _verdict(3, ok, f"projection/composition exact, calculus identities and "
                    f"the peak bound over 1000 instances, {elapsed:.1f}s (< 30s)"
                    f"{'; failed: ' + ','.join(bad) if bad else ''}")


def test_criterion_4_mixed_norm_identities():
    rng = np.random.default_rng(42)
    worst_collapse = 0.0
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        fam = LpFamily(p)
        space = lattice(4, LpFamily(p))
        tuples = rng.standard_normal((200, 3, 4)) * 2.0
        a = strong_mixed_norm_batch(space, fam, tuples)
        b = pointwise_mixed_norm_batch(space, fam, tuples)
        worst_collapse = max(worst_collapse,
                             float((np.abs(a - b) / np.maximum(a, 1e-300)).max()))
    # the sup representation: per coordinate, the dual witness of the
    # column pairs with the rows to the lattice-valued norm
    worst_rep = 0.0
    for p in (1.0, 1.5, 2.0, 3.0, math.inf):
        for k in range(40):
            rows = rng.standard_normal((3, 4)) * 2.0
            reference = lattice_valued_norm(LpFamily(p), rows)
            winners = dual_witness(kothe_dual(LpFamily(p)), rows.T)
            analytic = np.einsum("wn,nw->w", winners, rows)
            scale = np.maximum(reference, 1e-12)
            worst_rep = max(worst_rep, float(
                (np.abs(analytic - reference) / scale).max()))
    # the join bound: the join of 8 seeded combinations of the rows by
    # dual-unit-ball vectors never exceeds the pointwise mixed norm
    space = lattice(3, LpFamily(2))
    families_checked = 0
    violations = 0
    for p in (1.5, 2.0, 3.0):
        for k in range(42):
            rows = rng.standard_normal((3, 3)) * 2.0
            dirs = np.random.default_rng(1000 + k).standard_normal((8, 3))
            dirs /= kothe_dual(LpFamily(p)).norm_array(dirs)[:, None]
            joined = space.norm(np.abs(dirs @ rows).max(axis=0))
            tau = space.norm(lattice_valued_norm(LpFamily(p), rows))
            families_checked += 8
            violations += 0 if joined <= tau * (1.0 + 1e-9) else 1
    ok = (worst_collapse <= 1e-12 and worst_rep <= 1e-6
          and violations == 0 and families_checked >= 1000)
    _verdict(4, ok, f"matched-lp collapse worst {worst_collapse:.2e} "
                    f"(1e-12); analytic sup-representation worst "
                    f"{worst_rep:.2e} (1e-6); {violations} join-bound "
                    f"violations over {families_checked} sampled families")


def test_criterion_5_pointwise_pairing_bound():
    rng = np.random.default_rng(4242)
    space = lattice(3, LpFamily(2))
    fams = [LpFamily(1), LpFamily(2), LpFamily(3),
            OrliczFamily(parse_gauge("u^2"))]
    violations = 0
    total = 0
    worst = -np.inf
    for fam in fams:
        dual = kothe_dual(fam)
        x = rng.standard_normal((250, 4, 3)) * 2.0
        phi = rng.standard_normal((250, 4, 3)) * 2.0
        lhs = np.abs((x * phi).sum(axis=-1)).sum(axis=-1)
        rhs = (lattice_valued_norm(fam, x)
               * lattice_valued_norm(dual, phi)).sum(axis=-1)
        rel = (lhs - rhs) / np.maximum(rhs, 1e-300)
        worst = max(worst, float(rel.max()))
        violations += int((rel > 1e-9).sum())
        total += 250
    ok = violations == 0 and total == 1000
    _verdict(5, ok, f"pointwise pairing bound: {violations} violations over "
                    f"{total} instances, 4 families, worst margin "
                    f"{worst:.2e} (refuses above 1e-9)")


def test_criterion_6_dual_space_isometries():
    t0 = time.time()
    worst_strong = 0.0
    worst_pw = 0.0
    cases = 0
    for k in range(6):
        rng = np.random.default_rng(6000 + k)
        n = [2, 3, 2, 3, 2, 3][k]
        d = [2, 2, 3, 3, 3, 2][k]
        space = lattice(d, LpFamily([2, 1.5, 3, 2, 1.5, 3][k]))
        fam = LpFamily([2, 3, 1.5, 1.5, 2, 2][k])
        s = rng.standard_normal((n, d))
        got = functional_norm(space, fam, s, "strong")
        expect = strong_mixed_norm(space.dual(), kothe_dual(fam), s)
        worst_strong = max(worst_strong, abs(got.value - expect) / expect)
        got = functional_norm(space, fam, s, "pointwise")
        expect = pointwise_mixed_norm(space.dual(), kothe_dual(fam), s)
        worst_pw = max(worst_pw, abs(got.value - expect) / expect)
        cases += 2
    elapsed = time.time() - t0
    ok = worst_strong <= 1e-3 and worst_pw <= 1e-3 and elapsed < 120.0
    _verdict(6, ok, f"functional norms vs dual mixed norms on {cases} "
                    f"instances (n,m,d <= 3): worst strong "
                    f"{worst_strong:.2e}, worst pointwise {worst_pw:.2e} "
                    f"at 1e-3, {elapsed:.1f}s (< 2min)")


def test_criterion_7_duality_of_constants():
    t0 = time.time()
    default = AscentBudget(restarts=32, iterations=500)
    doubled = dataclasses.replace(default, restarts=2 * default.restarts)
    gaps_default = []
    gaps_doubled = []
    rises = True
    for k in range(20):
        rng = np.random.default_rng(7000 + k)
        mat = rng.standard_normal((3, 3))
        E = lattice(3, LpFamily([2, 1.5, 3, math.inf][k % 4]))
        X = lattice(3, LpFamily([1, 2, math.inf, 1.5][k % 4]))
        op = OperatorInstance(mat, E, X)
        fam = LpFamily(2) if k < 10 else LpFamily(1.5)
        a = duality_check(op, fam, 2, default, seed=k)
        b = duality_check(op, fam, 2, doubled, seed=k)
        gaps_default.append(a.rel_gap)
        gaps_doubled.append(b.rel_gap)
        # the first 32 restarts of the doubled budget are the default run
        rises = (rises and b.convex_n >= a.convex_n
                 and b.concave_dual_n >= a.concave_dual_n)
    ident_gaps = []
    for p in (2.0, 1.5):
        space = lattice(3, LpFamily(p))
        ident = OperatorInstance(np.eye(3), space, space)
        ident_gaps.append(duality_check(ident, LpFamily(p), 2, default,
                                        seed=0).rel_gap)
    med_default = statistics.median(gaps_default)
    med_doubled = statistics.median(gaps_doubled)
    elapsed = time.time() - t0
    ok = (max(gaps_default) <= 1e-9 and max(gaps_doubled) <= 1e-9
          and med_doubled <= med_default and rises
          and max(ident_gaps) <= 1e-9)
    _verdict(7, ok, f"20 seeded 3x3 operators, Y in {{l2, l1.5}}: max gap "
                    f"{max(gaps_default):.2e} / {max(gaps_doubled):.2e} "
                    f"(<= 1e-9 at both budgets), median "
                    f"{med_default:.2e} -> {med_doubled:.2e} under budget "
                    f"doubling, values nondecreasing: {rises}, identity gaps "
                    f"{max(ident_gaps):.2e} (<= 1e-9), {elapsed:.0f}s")


def test_criterion_8_oracle_cross_validation():
    t0 = time.time()
    worst = 0.0
    cases = 0
    # scalars: the constant is |lambda| for both searchers
    for lam in (-2.5, 0.7):
        E1 = lattice(1, LpFamily(2))
        op = OperatorInstance([[lam]], E1, E1)
        est = estimate_constant(op, LpFamily(2), "convexity", 1,
                                seed=1).per_n[-1].value
        grid = brute_force_constant(op, LpFamily(2), "convexity",
                                    1).per_n[0].value
        worst = max(worst, abs(est - grid) / max(grid, 1e-300))
        cases += 1
    # identities on matched lp
    for p in (1.0, 2.0, math.inf):
        space = lattice(2, LpFamily(p))
        op = OperatorInstance(np.eye(2), space, space)
        est = estimate_constant(op, LpFamily(p), "convexity", 2,
                                seed=2).per_n[-1].value
        grid = brute_force_constant(op, LpFamily(p), "convexity", 2,
                                    grid_resolution=11).per_n[0].value
        worst = max(worst, abs(est - grid) / max(grid, 1e-300))
        cases += 1
    # seeded 2x2 operators, both flavors, mixed geometries
    for k in range(4):
        rng = np.random.default_rng(8000 + k)
        mat = rng.standard_normal((2, 2))
        E = lattice(2, LpFamily([1, 2, 2, math.inf][k]))
        X = lattice(2, LpFamily([math.inf, 1, 1.5, 2][k]))
        fam = LpFamily([2, 2, 1.5, 2][k])
        for flavor, (dom, cod) in (("convexity", (E, X)),
                                   ("concavity", (X, E))):
            op = OperatorInstance(mat, dom, cod)
            est = estimate_constant(op, fam, flavor, 2,
                                    seed=3 + k).per_n[-1].value
            grid = brute_force_constant(op, fam, flavor, 2,
                                        grid_resolution=21).per_n[0].value
            worst = max(worst, abs(est - grid) / max(grid, 1e-300))
            cases += 1
    elapsed = time.time() - t0
    ok = worst <= 1e-2 and elapsed < 180.0
    _verdict(8, ok, f"ascent vs grid oracle on {cases} tiny instances "
                    f"(n*d <= 6): worst disagreement {worst:.2e} at 1e-2, "
                    f"{elapsed:.0f}s (< 3min)")


def test_criterion_9_replay_determinism(tmp_path):
    cfg = tmp_path / "verify.json"
    cfg.write_text(json.dumps({"task": "verify"}))
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    code1 = main(["verify", "--config", str(cfg), "--seed", "42",
                  "--out", out1])
    code2 = main(["verify", "--config", str(cfg), "--seed", "42",
                  "--out", out2])
    same = open(out1, "rb").read() == open(out2, "rb").read()
    report = json.loads(open(out1).read())
    ok = (code1 == EXIT_OK and code2 == EXIT_OK and same
          and report["results"]["summary"]["passed"])
    _verdict(9, ok, f"two runs of verify --seed 42: byte-identical reports "
                    f"({report['results']['summary']['checks']} checks, "
                    f"all passing)")

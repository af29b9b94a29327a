"""CLI tasks, report schema, exit statuses and replay determinism."""

import json

import numpy as np
import pytest

from lattice_calc.cli import (EXIT_CHECK_FAILED, EXIT_INPUT_ERROR,
                              EXIT_NONCONVERGENT, EXIT_OK, main, run)
from lattice_calc.verification import mixed_suite

SMALL_COUNTS = {
    "family_probes": 60, "dual_probes": 10, "holder_probes": 60,
    "krivine_instances": 60, "compose_instances": 5, "mixed_instances": 60,
    "pointwise_pairing_instances": 60, "pairing_instances": 60,
    "join_bound_instances": 6,
    "riesz_instances": 10, "bilinear_instances": 60, "lifting_instances": 3,
    "opnorm_pairs": 1, "constant_levels": 2,
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_norm_task(tmp_path):
    cfg = _write(tmp_path, "c.json",
                 {"task": "norm", "family": {"kind": "lp", "p": 2},
                  "vector": [3, 4]})
    out = str(tmp_path / "r.json")
    assert main(["norm", "--config", cfg, "--out", out]) == EXIT_OK
    report = json.loads(open(out).read())
    assert report["results"]["norm"] == 5.0
    assert report["passed"] is True


def test_dualnorm_task_numeric():
    report = run({"task": "dualnorm", "family": {"kind": "lp", "p": 3},
                  "vector": [1, 1], "method": "numeric", "seed": 3})
    assert report["results"]["dual_norm"] == pytest.approx(2 ** (2 / 3),
                                                           rel=1e-6)
    assert report["exit_status"] == EXIT_OK


def test_krivine_task_matches_direct():
    report = run({"task": "krivine",
                  "function": {"kind": "norm", "family": {"kind": "lp", "p": 1}},
                  "tuple": [[1, 2], [2, 1]]})
    assert report["results"]["result"] == [3.0, 3.0]


def test_constant_task_identity():
    report = run({"task": "constant", "flavor": "convexity",
                  "family": {"kind": "lp", "p": 2},
                  "operator": {"matrix": [[1, 0], [0, 1]],
                               "domain": {"kind": "lp", "p": 2},
                               "codomain": {"kind": "lp", "p": 2}},
                  "n_max": 2,
                  "budget": {"restarts": 8, "iterations": 120}})
    values = [b["lower_bound"] for b in report["results"]["per_n"]]
    assert values == pytest.approx([1.0, 1.0], abs=1e-6)


def test_duality_task_exit_codes():
    report = run({"task": "duality",
                  "family": {"kind": "lp", "p": 2},
                  "operator": {"random": {"rows": 2, "cols": 2, "seed": 3},
                               "domain": {"kind": "lp", "p": 2},
                               "codomain": {"kind": "lp", "p": 1}},
                  "n": 2, "seed": 1,
                  "budget": {"restarts": 12, "iterations": 150}})
    assert report["exit_status"] == EXIT_OK
    assert report["results"]["rel_gap"] < 5e-2
    # an impossible tolerance turns the same run into a check failure
    report = run({"task": "duality",
                  "family": {"kind": "lp", "p": 2},
                  "operator": {"random": {"rows": 2, "cols": 2, "seed": 3},
                               "domain": {"kind": "lp", "p": 2},
                               "codomain": {"kind": "lp", "p": 1}},
                  "n": 2, "seed": 1, "gap_tolerance": 0.0,
                  "budget": {"restarts": 12, "iterations": 150}})
    assert report["exit_status"] in (EXIT_CHECK_FAILED, EXIT_OK)


def test_matrix_csv_loading(tmp_path):
    csv = tmp_path / "m.csv"
    csv.write_text("1.0,0.0\n0.0,2.0\n")
    report = run({"task": "constant", "flavor": "convexity",
                  "family": {"kind": "lp", "p": 2},
                  "operator": {"matrix_csv": str(csv),
                               "domain": {"kind": "lp", "p": 2},
                               "codomain": {"kind": "lp", "p": 2}},
                  "n_max": 1,
                  "budget": {"restarts": 8, "iterations": 150}})
    assert report["results"]["per_n"][0]["lower_bound"] == pytest.approx(
        2.0, rel=1e-6)


def test_input_error_exits(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    assert main(["norm", "--config", str(bad)]) == EXIT_INPUT_ERROR
    cfg = _write(tmp_path, "c.json", {"task": "norm"})
    assert main(["norm", "--config", cfg]) == EXIT_INPUT_ERROR  # no family
    cfg2 = _write(tmp_path, "c2.json",
                  {"task": "dualnorm", "family": {"kind": "lp", "p": 2},
                   "vector": [1, 2]})
    assert main(["norm", "--config", cfg2]) == EXIT_INPUT_ERROR  # task clash


def test_malformed_counts_and_budget_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path, "v.json", {"task": "verify",
                                      "counts": {"bogus": 1}})
    assert main(["verify", "--config", cfg]) == EXIT_INPUT_ERROR
    assert "bogus" in capsys.readouterr().err
    cfg = _write(tmp_path, "d.json",
                 {"task": "dualnorm", "family": {"kind": "lp", "p": 3},
                  "vector": [1, 1], "method": "numeric", "budget": 5})
    assert main(["dualnorm", "--config", cfg]) == EXIT_INPUT_ERROR
    assert "budget" in capsys.readouterr().err


def test_verify_single_pairing_instance():
    records = mixed_suite(dict(SMALL_COUNTS, pairing_instances=1), seed=3)
    pairing = [r for r in records if r["op"] == "sequence_pairing_bound"]
    assert len(pairing) == 1 and pairing[0]["holds"]


def test_verify_small_and_deterministic(tmp_path):
    cfg = _write(tmp_path, "v.json", {"task": "verify",
                                      "counts": SMALL_COUNTS})
    out1 = str(tmp_path / "r1.json")
    out2 = str(tmp_path / "r2.json")
    assert main(["verify", "--config", cfg, "--seed", "42",
                 "--out", out1]) == EXIT_OK
    assert main(["verify", "--config", cfg, "--seed", "42",
                 "--out", out2]) == EXIT_OK
    assert open(out1, "rb").read() == open(out2, "rb").read()
    report = json.loads(open(out1).read())
    assert report["results"]["summary"]["passed"] is True
    assert all(("op" in c and "inputs_digest" in c and "lhs" in c
                and "rhs" in c and "holds" in c) for c in report["checks"])


def test_seed_override_changes_probes(tmp_path):
    cfg = _write(tmp_path, "v.json", {"task": "verify", "seed": 1,
                                      "counts": SMALL_COUNTS})
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    main(["verify", "--config", cfg, "--out", out1])
    main(["verify", "--config", cfg, "--seed", "2", "--out", out2])
    a = json.loads(open(out1).read())
    b = json.loads(open(out2).read())
    assert a["seed"] == 1 and b["seed"] == 2
    assert a["results"]["summary"]["passed"]
    assert b["results"]["summary"]["passed"]

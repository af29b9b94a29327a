"""CLI tasks, report schema, exit statuses and replay determinism."""

import contextlib
import copy
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lattice_calc import LpFamily, constants, optimize, seq_lattice
from lattice_calc.cli import (EXIT_CHECK_FAILED, EXIT_INPUT_ERROR,
                              EXIT_NONCONVERGENT, EXIT_OK, main, run)
from lattice_calc.descriptors import _MAX_TOKENS, _tokenize
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
    # the task reads neither "method" nor "budget": an lp family gets its
    # closed form, the l_{3/2} norm of (1, 1)
    report = run({"task": "dualnorm", "family": {"kind": "lp", "p": 3},
                  "vector": [1, 1], "method": "numeric", "seed": 3,
                  "budget": {"restarts": 1, "step0": -1}})
    closed_form = LpFamily(1.5).norm([1.0, 1.0])
    assert closed_form == pytest.approx(2 ** (2 / 3), rel=1e-15)
    assert report["results"]["method"] == "analytic"
    assert report["results"]["dual_norm"] == closed_form
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


def test_one_column_csv_is_a_column(tmp_path):
    csv = tmp_path / "col.csv"
    csv.write_text("1\n2\n")
    report = run({"task": "krivine", "tuple": {"csv": str(csv)},
                  "function": {"kind": "projection", "index": 1}})
    assert report["results"]["result"] == [2.0]
    # a 2x1 matrix maps R^1 into l1^2, with norm |1| + |2|
    report = run({"task": "constant", "flavor": "convexity", "n_max": 1,
                  "family": _L2, "budget": {"restarts": 4},
                  "operator": {"matrix_csv": str(csv), "domain": _L2,
                               "codomain": {"kind": "lp", "p": 1}}})
    level = report["results"]["per_n"][0]
    assert np.shape(level["witness"]) == (1, 1)
    assert level["lower_bound"] == pytest.approx(3.0, rel=1e-12)


def _lp(p):
    return {"kind": "lp", "p": p}


# operator.random draws that exited 3 (nonconverged) at the default budget
_STOPPED_SHORT = {
    "concavity_888738892": {
        "task": "constant", "flavor": "concavity", "n_max": 3, "seed": 2,
        "family": _lp(1.5), "operator": {
            "random": {"rows": 3, "cols": 3, "seed": 888738892},
            "domain": _lp("inf"), "codomain": _lp(2)}},
    "convexity_888738892": {
        "task": "constant", "flavor": "convexity", "n_max": 3, "seed": 2,
        "family": _lp(1.5), "operator": {
            "random": {"rows": 3, "cols": 3, "seed": 888738892},
            "domain": _lp("inf"), "codomain": _lp(2)}},
    "duality_809078539": {
        "task": "duality", "n": 2, "seed": 4, "family": _lp("inf"),
        "operator": {"random": {"rows": 3, "cols": 3, "seed": 809078539},
                     "domain": _lp(1), "codomain": _lp(1)}},
    "convexity_809078539": {
        "task": "constant", "flavor": "convexity", "n_max": 3, "seed": 2,
        "family": _lp("inf"), "operator": {
            "random": {"rows": 3, "cols": 3, "seed": 809078539},
            "domain": _lp(1), "codomain": _lp(1)}},
}


@pytest.mark.parametrize("config", _STOPPED_SHORT.values(),
                         ids=_STOPPED_SHORT.keys())
def test_random_lp_operators_converge_at_default_budget(config):
    report = run(config)
    assert report["exit_status"] == EXIT_OK
    assert report["results"].get("rel_gap", 0.0) <= 1e-9


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
    cfg = _write(tmp_path, "c.json",
                 {"task": "constant", "family": _L2, "operator": _OP,
                  "budget": 5})
    assert main(["constant", "--config", cfg]) == EXIT_INPUT_ERROR
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("step0", [0, -1])
def test_budget_nonpositive_step0_exits_2(tmp_path, capsys, step0):
    # step0 steers nothing, but a config that carries one must carry a
    # positive one
    cfg = _write(tmp_path, "c.json",
                 {"task": "constant", "family": _L2, "operator": _OP,
                  "budget": {"step0": step0}})
    assert main(["constant", "--config", cfg]) == EXIT_INPUT_ERROR
    assert "step0" in capsys.readouterr().err


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


def test_verify_at_one_constant_level(tmp_path):
    # the grid oracle compares level 1 when there is no level 2
    cfg = _write(tmp_path, "v.json", {"task": "verify", "counts": dict(
        SMALL_COUNTS, constant_levels=1)})
    out = str(tmp_path / "r.json")
    assert main(["verify", "--config", cfg, "--seed", "42",
                 "--out", out]) == EXIT_OK
    grid = [c for c in json.loads(open(out).read())["checks"]
            if c["op"] == "constants_grid_oracle_agreement"]
    assert len(grid) == 1 and grid[0]["holds"]


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


_L2 = {"kind": "lp", "p": 2}
_TINY_BUDGET = {"restarts": 2, "iterations": 5, "step0": 0.25}
_OP = {"matrix": [[1, 0], [0, 1]], "domain": _L2, "codomain": _L2,
       "label": "id"}

# small valid configs, one per task and function kind; the duality gap
# tolerance of 1 always holds (the relative gap never exceeds 1)
_VALID = [
    {"task": "norm", "seed": 0, "family": _L2, "vector": [3, 4]},
    {"task": "dualnorm", "seed": 1, "vector": [1, -2], "method": "numeric",
     "family": {"kind": "weighted_lp", "p": 1.5, "weights": [1, 2]},
     "budget": _TINY_BUDGET},
    {"task": "krivine", "tuple": [[1, 2], [3, 4]],
     "function": {"kind": "norm", "family": {"kind": "orlicz", "phi": "u^2"}}},
    {"task": "krivine", "tuple": [[1, 2], [3, 4]],
     "function": {"kind": "projection", "index": 1}},
    {"task": "constant", "seed": 2, "flavor": "concavity", "n_max": 1,
     "family": {"kind": "lp", "p": "inf"}, "budget": _TINY_BUDGET,
     "operator": {"random": {"rows": 2, "cols": 2, "seed": 1},
                  "domain": _L2, "codomain": {"kind": "lp", "p": 1}}},
    {"task": "duality", "seed": 0, "n": 1, "gap_tolerance": 1.0,
     "family": _L2, "operator": _OP, "budget": _TINY_BUDGET},
    {"task": "verify", "seed": 0,
     "counts": dict({k: 2 for k in SMALL_COUNTS}, max_length=3)},
]

# each exited 1 with a traceback (or, for the seed, was truncated)
_ORLICZ_991 = {"kind": "orlicz", "phi": "+".join(["u^2"] * 991)}
_MALFORMED = {
    "vector_a": {"task": "norm", "family": _L2, "vector": ["a"]},
    "random_no_cols": {"task": "constant", "family": _L2, "operator": {
        "random": {"rows": 2}, "domain": _L2, "codomain": _L2}},
    "n_max_two": {"task": "constant", "family": _L2, "operator": _OP,
                  "n_max": "two"},
    "weights_ab": {"task": "norm", "vector": [1, 2], "family": {
        "kind": "weighted_lp", "p": 2, "weights": "ab"}},
    "p_list": {"task": "norm", "family": {"kind": "lp", "p": [2]},
               "vector": [1, 2]},
    "tuple_x": {"task": "krivine", "tuple": [["x"]],
                "function": {"kind": "projection", "index": 0}},
    "restarts_x": {"task": "constant", "family": _L2, "operator": _OP,
                   "budget": {"restarts": "x"}},
    "phi_5": {"task": "norm", "family": {"kind": "orlicz", "phi": 5},
              "vector": [1]},
    "operator_5": {"task": "duality", "family": _L2, "operator": 5},
    "function_str": {"task": "krivine", "tuple": [[1, 2]],
                     "function": "norm"},
    "count_x": {"task": "verify", "counts": {"family_probes": "x"}},
    # a batch is the library's, not the task's: one vector per report
    "vector_2d": {"task": "dualnorm", "family": _L2, "vector": [[1, 2]]},
    "max_length_1": {"task": "verify", "counts": {"max_length": 1}},
    "seed_1.5": {"task": "norm", "family": _L2, "vector": [3, 4],
                 "seed": 1.5},
    # ran with the default 32 restarts and exit 0
    "budget_restart": {"task": "constant", "family": _L2, "operator": _OP,
                       "budget": {"restart": 1, "iterations": 20}},
    # numpy's allocation of 728 TiB failed with a traceback; the size guard
    # rejects it before anything is drawn
    "random_10^7_square": {"task": "constant", "family": _L2, "operator": {
        "random": {"rows": 10 ** 7, "cols": 10 ** 7}, "domain": _L2,
        "codomain": _L2}},
    # the level normals, 2 * n_max * d of them, were drawn before any search
    "n_max_10^7": {"task": "constant", "family": _L2, "operator": _OP,
                   "n_max": 10 ** 7},
    "n_10^7": {"task": "duality", "family": _L2, "operator": _OP,
               "n": 10 ** 7},
    # 10^9 seeded starts of every level would have been drawn
    "restarts_10^9": {"task": "constant", "family": _L2, "operator": _OP,
                      "budget": {"restarts": 10 ** 9}},
    # the recursive gauge parser ran out of stack
    "phi_300_parens": {"task": "norm", "vector": [1, 2], "family": {
        "kind": "orlicz", "phi": "(" * 300 + "u^2" + ")" * 300}},
    # parsed, but the compiled closures ran out of stack
    "phi_991_terms_dualnorm": {"task": "dualnorm", "vector": [1, 2],
                               "family": _ORLICZ_991},
    "phi_991_terms_duality": {"task": "duality", "family": _ORLICZ_991,
                              "operator": _OP},
    # standard_normal((10**9, 5)) would have been drawn; refused first
    "holder_probes_10^9": {"task": "verify",
                           "counts": {"holder_probes": 10 ** 9}},
    "max_length_10^6": {"task": "verify", "counts": {"max_length": 10 ** 6}},
}


def _main_quietly(config: dict, out_dir) -> tuple[int, str]:
    """Exit status and stderr of the CLI on ``config``."""
    path = out_dir / "config.json"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        status = main([config["task"], "--config", str(path),
                       "--out", str(out_dir / "report.json")])
    return status, err.getvalue()


@pytest.mark.parametrize("config", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_field_exits_2_with_one_line(config, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a malformed config drew seeded normals")

    for module in (constants, optimize, seq_lattice):
        monkeypatch.setattr(module, "substream_normals", refuse)
    status, err = _main_quietly(config, tmp_path)
    assert status == EXIT_INPUT_ERROR
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    assert "Traceback" not in err


@pytest.mark.parametrize("phi", ["exp(1000)*u", "(1e200*u)^4"])
def test_overflowing_gauge_exits_2_with_one_line(phi, tmp_path):
    # numpy's overflow warnings from the gauge once came before the error
    config = {"task": "norm", "family": {"kind": "orlicz", "phi": phi},
              "vector": [1, 2]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status, err = _main_quietly(config, tmp_path)
    assert status == EXIT_INPUT_ERROR
    assert [str(w.message) for w in caught] == []
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err


# the deepest nestings of the two reproducers above that the cap admits
_AT_GAUGE_CAP = {"terms": "+".join(["u^2"] * 64),
                 "parens": "(" * 126 + "u^2" + ")" * 126}


@pytest.mark.parametrize("phi", _AT_GAUGE_CAP.values(),
                         ids=_AT_GAUGE_CAP.keys())
def test_gauge_at_the_token_cap_completes(phi, tmp_path):
    words, _ = _tokenize(phi)
    assert len(words) == _MAX_TOKENS
    family = {"kind": "orlicz", "phi": phi}
    for config in ({"task": "dualnorm", "family": family,
                    "vector": [1.0, -2.0, 0.5]},
                   {"task": "duality", "family": family, "operator": _OP,
                    "budget": {"restarts": 4, "iterations": 30}}):
        status, err = _main_quietly(config, tmp_path)
        assert status == EXIT_OK, err


def _field_paths(node, prefix=()):
    """Paths to every field of a config, nested ones included."""
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _field_paths(value, prefix + (key,))


_FIELDS = [(k, path) for k, cfg in enumerate(_VALID)
           for path in _field_paths(cfg) if path != ("task",)]
_WRONG_TYPED = st.one_of(
    st.text(alphabet="xyz ", max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["csv", "rows", "a"]), st.integers(0, 2),
                    min_size=1, max_size=1),
    st.none(), st.booleans(), st.sampled_from([0.5, -0.5, 1.5, 2.75]))


@seed(10)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_FIELDS), _WRONG_TYPED)
def test_wrong_typed_field_never_exits_1(tmp_path_factory, field, value):
    k, path = field
    config = copy.deepcopy(_VALID[k])
    node = config
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    status, err = _main_quietly(config, tmp_path_factory.mktemp("fuzz"))
    assert status in (EXIT_OK, EXIT_INPUT_ERROR, EXIT_NONCONVERGENT), err
    assert "Traceback" not in err


@pytest.mark.parametrize("config", _VALID,
                         ids=[f"{c['task']}{k}" for k, c in enumerate(_VALID)])
def test_fuzz_base_configs_are_valid(config, tmp_path):
    status, err = _main_quietly(config, tmp_path)
    assert status in (EXIT_OK, EXIT_NONCONVERGENT), err

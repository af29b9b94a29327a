"""Command-line front end.

    lattice-calc <task> --config <file> [--seed N] [--out <file>]

The config is a single JSON document; the task name on the command line
must match the config's "task" when both are present.  Matrices and tuples
may be inline JSON arrays or external CSV files (comma-separated, row
major, no header) referenced as {"csv": "path"}.

Tasks
-----
norm       {"family": {...}, "vector": [...]}
dualnorm   {"family": {...}, "vector": [...]}
krivine    {"function": {"kind": "projection", "index": 0}
                      | {"kind": "norm", "family": {...}},
            "tuple": [[...], ...]}
constant   {"operator": {...}, "family": {...}, "flavor": "convexity",
            "n_max": 3, "budget": {...}}
duality    {"operator": {...}, "family": {...}, "n": 2, "budget": {...}}
verify     {"counts": {... optional overrides ...}}

Operators: {"matrix": [[...], ...] | "matrix_csv": "path"
            | "random": {"rows": m, "cols": d, "seed": s},
            "domain": <family descriptor>, "codomain": <family descriptor>,
            "label": "T"}

A ``dualnorm`` report is the closed form for an lp-type family ("method":
"analytic") and the Amemiya solve for an Orlicz family ("method":
"numeric", a closed form for a linear gauge c*u), where "converged" means
its value/upper-bound bracket is at most 1e-9 wide, relative.  Budget keys
are "restarts" and "iterations"; "step0", which configs of older versions
carry, must be positive and has no effect; any other key is invalid input.
A task ignores the config keys it does not read (a ``dualnorm`` task reads
neither "method" nor "budget"), and every field it reads is type-checked
("seed" is a nonnegative integer; a bool is never a number).
Reports are deterministic for a fixed config (no timestamps), so replaying
a run yields a byte-identical file, and strict JSON: a NaN or infinite
number in "results", or a check's "lhs" or "rhs", is written as null.
Exit status: 0 success, 1 a check failed, 2 invalid input (malformed
fields and scale-guard violations included), 3 a numeric routine did not
converge; a ``duality`` task exits 3 when either side's level-n search did
not converge, whatever the gap.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .constants import duality_check, estimate_constant
from .descriptors import family_from_descriptor
from .errors import InputError, ScaleGuardError
from .finite_lattice import krivine_apply, lattice, norm_function, projection
from .operators import OperatorInstance
from .optimize import AscentBudget
from .reporting import check_record, finite_or_null, inputs_digest
from .seq_lattice import as_array, config_field, kothe_dual_norm
from .verification import run_all

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NONCONVERGENT = 3

TASKS = ("norm", "dualnorm", "krivine", "constant", "duality", "verify")
# cap on the entries of a random operator (80 MB of float64)
_MAX_RANDOM_ENTRIES = 10_000_000


def _load_table(source, what: str) -> np.ndarray:
    """An inline array (a flat one is a single row) or a {"csv": path} table."""
    if isinstance(source, dict):
        path = config_field(source, "csv", str, where=what)
        try:
            source = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
        except OSError as exc:
            raise InputError(f"cannot read {what} from {path}: {exc}")
        except ValueError as exc:
            raise InputError(f"malformed CSV for {what}: {exc}")
    elif source and not isinstance(source[0], list):
        source = [source]
    return as_array(source, (None, None), what)


def _budget(config: dict) -> AscentBudget:
    raw = config_field(config, "budget", dict, {})
    unknown = set(raw) - {"restarts", "iterations", "step0"}
    if unknown:
        raise InputError(f"unknown budget keys {sorted(unknown)}")
    step0 = config_field(raw, "step0", float, 1.0, where="budget")
    if not step0 > 0:  # accepted for older configs, and otherwise unused
        raise InputError(f"budget field 'step0' must be positive, got {step0}")
    default = AscentBudget()
    return AscentBudget(
        config_field(raw, "restarts", int, default.restarts, where="budget"),
        config_field(raw, "iterations", int, default.iterations,
                     where="budget"))


def _operator(config: dict) -> OperatorInstance:
    raw = config_field(config, "operator", dict)
    if "random" in raw:
        shape = config_field(raw, "random", dict, where="operator")
        rows, cols = (config_field(shape, key, int, low=1, where="random")
                      for key in ("rows", "cols"))
        seed = config_field(shape, "seed", int, 0, low=0, where="random")
        if rows * cols > _MAX_RANDOM_ENTRIES:
            raise ScaleGuardError(
                f"random operator of {rows} x {cols} entries exceeds the "
                f"cap of {_MAX_RANDOM_ENTRIES}")
        matrix = np.random.default_rng(seed).standard_normal((rows, cols))
    elif "matrix_csv" in raw:
        matrix = _load_table({"csv": raw["matrix_csv"]}, "operator matrix")
    elif "matrix" in raw:
        matrix = _load_table(config_field(raw, "matrix", list, where="operator"),
                             "operator matrix")
    else:
        raise InputError("operator needs 'matrix', 'matrix_csv' or 'random'")
    m, d = matrix.shape
    domain = lattice(d, _family(raw, "domain", "operator"))
    codomain = lattice(m, _family(raw, "codomain", "operator"))
    return OperatorInstance(matrix, domain, codomain,
                            label=config_field(raw, "label", str, "T",
                                               where="operator"))


def _family(config: dict, key: str = "family", where: str = "config"):
    return family_from_descriptor(config_field(config, key, dict, where=where))


def _task_norm(config: dict, seed: int) -> tuple[dict, list, bool]:
    family = _family(config)
    value = family.norm(config_field(config, "vector", list))
    return {"family": family.label, "norm": value}, [], True


def _task_dualnorm(config: dict, seed: int) -> tuple[dict, list, bool]:
    family = _family(config)
    vector = as_array(config_field(config, "vector", list), (None,), "vector")
    res = kothe_dual_norm(family, vector)
    results = {"family": family.label, "dual_norm": res.value,
               "method": res.method, "converged": res.converged,
               "witness": res.witness.tolist()}
    return results, [], res.converged


def _task_krivine(config: dict, seed: int) -> tuple[dict, list, bool]:
    rows = _load_table(config_field(config, "tuple", (list, dict)), "tuple")
    desc = config_field(config, "function", dict)
    kind = config_field(desc, "kind", str, where="function")
    if kind == "projection":
        h = projection(rows.shape[0],
                       config_field(desc, "index", int, where="function"))
    elif kind == "norm":
        h = norm_function(_family(desc, where="function"), rows.shape[0])
    else:
        raise InputError(f"unknown krivine function kind {kind!r}")
    value = krivine_apply(h, rows)
    return {"function": h.label, "result": value.tolist()}, [], True


def _task_constant(config: dict, seed: int) -> tuple[dict, list, bool]:
    op = _operator(config)
    family = _family(config)
    flavor = config_field(config, "flavor", str, "convexity")
    n_max = config_field(config, "n_max", int, 2)
    budget = _budget(config)
    est = estimate_constant(op, family, flavor, n_max, budget, seed)
    converged = all(b.converged for b in est.per_n)
    return est.to_record(), [], converged


def _task_duality(config: dict, seed: int) -> tuple[dict, list, bool]:
    op = _operator(config)
    family = _family(config)
    n = config_field(config, "n", int, 2)
    budget = _budget(config)
    tolerance = config_field(config, "gap_tolerance", float, 5e-2, low=0.0)
    rep = duality_check(op, family, n, budget, seed)
    results = {"convex_n": rep.convex_n, "concave_dual_n": rep.concave_dual_n,
               "rel_gap": rep.rel_gap, "n": n, "converged": rep.converged}
    checks = [check_record("duality_gap", rep.rel_gap, tolerance,
                           rep.rel_gap <= tolerance,
                           inputs_digest(op.matrix, family.label, n, seed),
                           seed=seed)]
    return results, checks, rep.converged


def _task_verify(config: dict, seed: int) -> tuple[dict, list, bool]:
    sections = run_all(config_field(config, "counts", dict, None), seed)
    summary = sections.pop("summary")
    checks = [rec for recs in sections.values() for rec in recs]
    return {"summary": summary}, checks, True


_RUNNERS = {
    "norm": _task_norm,
    "dualnorm": _task_dualnorm,
    "krivine": _task_krivine,
    "constant": _task_constant,
    "duality": _task_duality,
    "verify": _task_verify,
}


def run(config: dict) -> dict:
    """Execute one config; returns the report with its exit status inside."""
    task = config.get("task")
    if task not in TASKS:
        raise InputError(f"task must be one of {TASKS}, got {task!r}")
    seed = config_field(config, "seed", int, 0, low=0)
    results, checks, converged = _RUNNERS[task](config, seed)
    passed = all(c["holds"] for c in checks)
    if not passed:
        status = EXIT_CHECK_FAILED
    elif not converged:
        status = EXIT_NONCONVERGENT
    else:
        status = EXIT_OK
    return {
        "task": task,
        "seed": seed,
        "config_digest": inputs_digest(json.dumps(config, sort_keys=True)),
        "versions": {"lattice-calc": __version__,
                     "numpy": np.__version__,
                     "python": "%d.%d" % sys.version_info[:2]},
        "results": finite_or_null(results),
        "checks": checks,
        "passed": passed,
        "converged": converged,
        "exit_status": status,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lattice-calc",
        description="sequence-lattice norm calculus and property verifier")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None, help="write the report here")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot load config: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if not isinstance(config, dict):
        print("error: config must be a JSON object", file=sys.stderr)
        return EXIT_INPUT_ERROR
    config.setdefault("task", args.task)
    if config["task"] != args.task:
        print(f"error: config task {config['task']!r} does not match "
              f"command {args.task!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if args.seed is not None:
        config["seed"] = args.seed

    try:
        out_path = args.out or config_field(config, "out", str, None)
        report = run(config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return int(report["exit_status"])


if __name__ == "__main__":
    sys.exit(main())

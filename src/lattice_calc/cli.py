"""Command-line front end.

    lattice-calc <task> --config <file> [--seed N] [--out <file>]

The config is a single JSON document; the task name on the command line
must match the config's "task" when both are present.  Matrices and tuples
may be inline JSON arrays or external CSV files (comma-separated, row
major, no header) referenced as {"csv": "path"}.

Tasks
-----
norm       {"family": {...}, "vector": [...]}
dualnorm   {"family": {...}, "vector": [...], "method": "auto|analytic|numeric",
            "budget": {"restarts": 32, "iterations": 300, "step0": 0.25}}
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

Reports are deterministic for a fixed config (no timestamps), so replaying
a run yields a byte-identical file.  Exit status: 0 success, 1 a check
failed, 2 invalid input, 3 a numeric routine did not converge.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .constants import duality_check, estimate_constant
from .descriptors import family_from_descriptor
from .errors import InputError
from .finite_lattice import lattice, norm_function, projection
from .mixed_norms import as_rows
from .operators import OperatorInstance
from .optimize import AscentBudget
from .reporting import inputs_digest
from .seq_lattice import kothe_dual_norm
from .verification import run_all
from .finite_lattice import krivine_apply

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NONCONVERGENT = 3

TASKS = ("norm", "dualnorm", "krivine", "constant", "duality", "verify")


def _require(config: dict, key: str):
    if key not in config:
        raise InputError(f"config is missing required field {key!r}")
    return config[key]


def _load_table(source, what: str) -> np.ndarray:
    if isinstance(source, dict) and "csv" in source:
        try:
            return np.atleast_2d(np.loadtxt(source["csv"], delimiter=",",
                                            dtype=float))
        except OSError as exc:
            raise InputError(f"cannot read {what} from {source['csv']}: {exc}")
        except ValueError as exc:
            raise InputError(f"malformed CSV for {what}: {exc}")
    arr = np.asarray(source, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    return arr


def _budget(config: dict, default: AscentBudget) -> AscentBudget:
    raw = config.get("budget")
    if raw is None:
        return default
    if not isinstance(raw, dict):
        raise InputError(f"budget must be an object, got {raw!r}")
    return AscentBudget(int(raw.get("restarts", default.restarts)),
                        int(raw.get("iterations", default.iterations)),
                        float(raw.get("step0", default.step0)))


def _operator(config: dict) -> OperatorInstance:
    raw = _require(config, "operator")
    if "random" in raw:
        shape = raw["random"]
        rng = np.random.default_rng(int(shape.get("seed", 0)))
        matrix = rng.standard_normal((int(shape["rows"]), int(shape["cols"])))
    elif "matrix_csv" in raw:
        matrix = _load_table({"csv": raw["matrix_csv"]}, "operator matrix")
    elif "matrix" in raw:
        matrix = _load_table(raw["matrix"], "operator matrix")
    else:
        raise InputError("operator needs 'matrix', 'matrix_csv' or 'random'")
    m, d = matrix.shape
    domain = lattice(d, family_from_descriptor(_require(raw, "domain")))
    codomain = lattice(m, family_from_descriptor(_require(raw, "codomain")))
    return OperatorInstance(matrix, domain, codomain,
                            label=raw.get("label", "T"))


def _task_norm(config: dict, seed: int) -> tuple[dict, list, bool]:
    family = family_from_descriptor(_require(config, "family"))
    vector = np.asarray(_require(config, "vector"), dtype=float)
    value = family.norm(vector)
    return {"family": family.label, "norm": value}, [], True


def _task_dualnorm(config: dict, seed: int) -> tuple[dict, list, bool]:
    family = family_from_descriptor(_require(config, "family"))
    vector = np.asarray(_require(config, "vector"), dtype=float)
    budget = _budget(config, AscentBudget(32, 300, 0.25))
    res = kothe_dual_norm(family, vector, config.get("method", "auto"),
                          restarts=budget.restarts,
                          iterations=budget.iterations, seed=seed,
                          step0=budget.step0)
    results = {"family": family.label, "dual_norm": res.value,
               "method": res.method, "converged": res.converged,
               "witness": res.witness.tolist()}
    return results, [], res.converged


def _task_krivine(config: dict, seed: int) -> tuple[dict, list, bool]:
    rows = _load_table(_require(config, "tuple"), "tuple")
    desc = _require(config, "function")
    kind = desc.get("kind")
    if kind == "projection":
        h = projection(rows.shape[0], int(_require(desc, "index")))
    elif kind == "norm":
        h = norm_function(family_from_descriptor(_require(desc, "family")),
                          rows.shape[0])
    else:
        raise InputError(f"unknown krivine function kind {kind!r}")
    value = krivine_apply(h, rows)
    return {"function": h.label, "result": value.tolist()}, [], True


def _task_constant(config: dict, seed: int) -> tuple[dict, list, bool]:
    op = _operator(config)
    family = family_from_descriptor(_require(config, "family"))
    flavor = config.get("flavor", "convexity")
    n_max = int(config.get("n_max", 2))
    budget = _budget(config, AscentBudget())
    est = estimate_constant(op, family, flavor, n_max, budget, seed)
    converged = all(b.converged for b in est.per_n)
    return est.to_record(), [], converged


def _task_duality(config: dict, seed: int) -> tuple[dict, list, bool]:
    op = _operator(config)
    family = family_from_descriptor(_require(config, "family"))
    n = int(config.get("n", 2))
    budget = _budget(config, AscentBudget())
    rep = duality_check(op, family, n, budget, seed)
    results = {"convex_n": rep.convex_n, "concave_dual_n": rep.concave_dual_n,
               "rel_gap": rep.rel_gap, "n": n, "converged": rep.converged}
    tolerance = float(config.get("gap_tolerance", 5e-2))
    checks = [{"op": "duality_gap", "inputs_digest": inputs_digest(
        op.matrix, family.label, n, seed), "lhs": rep.rel_gap,
        "rhs": tolerance, "holds": rep.rel_gap <= tolerance, "seed": seed}]
    return results, checks, rep.converged


def _task_verify(config: dict, seed: int) -> tuple[dict, list, bool]:
    sections = run_all(config.get("counts"), seed)
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
    seed = int(config.get("seed", 0))
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
        "results": results,
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
        report = run(config)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    text = json.dumps(report, indent=2, sort_keys=True)
    out_path = args.out or config.get("out")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return int(report["exit_status"])


if __name__ == "__main__":
    sys.exit(main())

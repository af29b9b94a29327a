"""The benchmark's workloads: seeded inputs, set-up, one round, checks.

A workload's inputs come from ``--seed`` alone.  ``round`` is a fixed list
of operations; a run repeats it whole, so every run attempts the same
operations in the same proportions.  ``build`` constructs through the
library every family, gauge, lattice and operator the round uses (timed as
set-up; CLI tasks still rebuild theirs from the config, as the CLI does).
``check`` receives the outputs of one round and returns the problems it
finds, using only the numpy oracles in ``oracles.py``.
"""

from __future__ import annotations

import json
import time

import numpy as np

import oracles
from oracles import GAUGES, INF

# Fixed corpus of 3x3 base operators; a seed rescales them and signs and
# permutes their rows (see DualityLp).
_BASE_SEED = 2405_19579
_CLOSED_FORM_P = (1.0, 2.0, INF)


def _lp(p: float) -> dict:
    return {"kind": "lp", "p": "inf" if p == INF else p}


def _ptag(p: float) -> str:
    return "inf" if p == INF else f"{p:g}"


class CliOp:
    """One task through ``lattice_calc.cli.run``, serialized as the CLI does."""

    def __init__(self, name: str, config: dict):
        self.name = name
        self.config_text = json.dumps(config, sort_keys=True)

    def run(self, lc, tracer=None):
        report = lc.cli.run(json.loads(self.config_text))
        t0 = time.perf_counter()
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        if tracer is not None:
            tracer.counts["cli.json_dump.s"] += time.perf_counter() - t0
            tracer.counts["cli.report_bytes"] += len(text.encode())
        return report, text

    @staticmethod
    def failed(output) -> bool:
        return output[0]["exit_status"] != 0

    @staticmethod
    def fingerprint(output) -> bytes:
        return output[1].encode()


class Workload:
    name = ""

    def build(self, lc) -> None:
        """Build the program objects the round uses outside the CLI."""

    def round(self) -> list:
        raise NotImplementedError

    def warmup(self):
        """The untimed operation run before timing starts."""
        return self.round()[0]

    def check(self, outputs: list) -> list[str]:
        raise NotImplementedError

    def describe(self) -> dict:
        return {"operations": [op.name for op in self.round()]}


class DualityLp(Workload):
    """``duality`` (n=2) and ``constant`` (n_max=3) tasks on lp instances.

    Each slot fixes a base operator, a task and the exponents of E, X and Y.
    The seed draws a positive scale in [0.5, 2] for every slot and, for the
    ``constant`` slots, a sign flip and a permutation of the operator's
    rows.  These transformations leave the ascent's search path unchanged
    (lp norms ignore signs and the order of coordinates, and the ascent is
    scale-invariant) up to rounding, so every seed asks the optimizer for
    the same amount of work; redrawing the matrices changes a task's cost
    by up to a factor of three, which would swamp any change to the
    program.  Column
    transformations would move the transposed problem's starting points,
    so ``duality`` slots are only rescaled.
    """

    name = "duality_lp"
    # (task, flavor, p_E, p_X, p_Y, base operator index)
    SLOTS = (
        ("duality", None, 2.0, 2.0, 2.0, 0),
        ("duality", None, INF, INF, INF, 1),
        ("constant", "convexity", 1.0, 1.0, 1.0, 2),
        ("constant", "concavity", 1.5, 3.0, 2.0, 3),
        ("duality", None, 3.0, 1.5, 2.0, 4),
    )
    BUDGET = {"restarts": 32, "iterations": 500, "step0": 0.1}

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.instances = []
        for k, (task, flavor, pe, px, py, base) in enumerate(self.SLOTS):
            mat = np.random.default_rng(_BASE_SEED + base).standard_normal((3, 3))
            scale = rng.uniform(0.5, 2.0)
            signs = rng.choice([-1.0, 1.0], size=3)
            perm = rng.permutation(3)
            if task == "constant":
                mat = signs[:, None] * mat[perm]
            mat = scale * mat
            config = {"task": task,
                      "operator": {"matrix": mat.tolist(), "domain": _lp(pe),
                                   "codomain": _lp(px)},
                      "family": _lp(py), "budget": self.BUDGET, "seed": k}
            if task == "duality":
                config["n"] = 2
            else:
                config.update(flavor=flavor, n_max=3)
            name = (f"{task}{'.' + flavor if flavor else ''}"
                    f"[l{_ptag(pe)}->l{_ptag(px)},Y=l{_ptag(py)}]")
            self.instances.append((CliOp(name, config), mat,
                                   (task, flavor, pe, px, py)))

    def build(self, lc) -> None:
        def space(p):
            family = lc.descriptors.family_from_descriptor(_lp(p))
            return lc.finite_lattice.lattice(3, family)

        self.operators = []
        for _, mat, (_, _, pe, px, py) in self.instances:
            family = lc.descriptors.family_from_descriptor(_lp(py))
            op = lc.operators.OperatorInstance(mat, space(pe), space(px))
            self.operators.append((op, lc.operators.transpose(op),
                                   lc.seq_lattice.kothe_dual(family)))

    def round(self) -> list:
        return [op for op, _, _ in self.instances]

    def check(self, outputs: list) -> list[str]:
        problems = []
        for (op, mat, (task, flavor, pe, px, py)), (report, _) in zip(
                self.instances, outputs):
            res = report["results"]
            closed = pe == px == py and pe in _CLOSED_FORM_P
            exact = oracles.operator_norm(mat, pe) if closed else None
            if task == "duality":
                if not res["rel_gap"] <= 5e-2:
                    problems.append(f"{op.name}: gap {res['rel_gap']:.3e}")
                values = [res["convex_n"], res["concave_dual_n"]]
            else:
                levels = res["per_n"]
                values = [lvl["lower_bound"] for lvl in levels]
                for lvl in levels:
                    ratio = oracles.constant_ratio(mat, lvl["witness"], flavor,
                                                   pe, px, py)
                    if abs(ratio - lvl["lower_bound"]) > 1e-9 * ratio:
                        problems.append(
                            f"{op.name}: level {lvl['n']} witness gives "
                            f"{ratio!r}, reported {lvl['lower_bound']!r}")
                if any(b < a for a, b in zip(values, values[1:])):
                    problems.append(f"{op.name}: levels decrease {values}")
                if res["overall"] != max(values):
                    problems.append(f"{op.name}: overall is not the max")
            if exact is not None:
                for v in values:
                    if v > exact * (1.0 + 1e-12) or v < exact * (1.0 - 1e-6):
                        problems.append(f"{op.name}: {v!r} against closed "
                                        f"form {exact!r}")
        return problems


class OrliczDual(Workload):
    """Numeric Koethe duals of Orlicz (Luxemburg) norms.

    ``dualnorm`` tasks with ``method: numeric`` on seeded vectors, one per
    (gauge, length) pair below, and batched ``kothe_dual(orlicz).norm_array``
    sweeps of ``SWEEP_ROWS`` seeded vectors per gauge.  Both paths run a
    fixed number of ascent iterations, so their cost does not depend on the
    seed.  One ``dualnorm`` task on u*exp(u) has a fixed vector on which the
    numeric dual stops short of the optimum at the default budget and exits
    3 (nonconverged); it is counted as failed until that is fixed.
    """

    name = "orlicz_dual"
    TASKS = (("u^2", 4), ("u^3", 6), ("u^1.5", 8), ("u^2+u^4", 5),
             ("u^2+u^4", 7))
    KNOWN_FAULT = ("u*exp(u)", (0.3646, 0.2941, 0.0284, 0.5467))
    SWEEPS = (("u^2", 4), ("u^3", 5), ("u^1.5", 6), ("u^2+u^4", 7),
              ("u*exp(u)", 8))
    SWEEP_ROWS = 200

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.ops = []
        self.vectors = []
        for k, (gauge, n) in enumerate(self.TASKS):
            self._add_dualnorm(f"dualnorm[{gauge},n={n}]", gauge,
                               rng.standard_normal(n), k)
        gauge, vector = self.KNOWN_FAULT
        self._add_dualnorm(f"dualnorm[{gauge},fixed]", gauge,
                           np.array(vector), len(self.TASKS))
        for gauge, n in self.SWEEPS:
            betas = rng.standard_normal((self.SWEEP_ROWS, n))
            self.ops.append(SweepOp(f"sweep[{gauge},{betas.shape[0]}x"
                                    f"{betas.shape[1]}]", gauge, betas))

    def _add_dualnorm(self, name, gauge, vector, seed):
        config = {"task": "dualnorm", "family": {"kind": "orlicz",
                                                 "phi": gauge},
                  "vector": vector.tolist(), "method": "numeric", "seed": seed}
        self.ops.append(CliOp(name, config))
        self.vectors.append((gauge, vector))

    def build(self, lc) -> None:
        self.duals = {}
        for gauge, _ in self.SWEEPS:
            family = lc.seq_lattice.OrliczFamily(lc.descriptors.parse_gauge(gauge))
            self.duals[gauge] = lc.seq_lattice.kothe_dual(family)
        for op in self.ops:
            if isinstance(op, SweepOp):
                op.family = self.duals[op.gauge]

    def round(self) -> list:
        return list(self.ops)

    def check(self, outputs: list) -> list[str]:
        problems = []
        tasks = len(self.vectors)
        for op, (gauge, beta), (report, _) in zip(self.ops, self.vectors,
                                                   outputs[:tasks]):
            res = report["results"]
            value = res["dual_norm"]
            witness = np.asarray(res["witness"])
            problems += _dual_value_problems(op.name, gauge, beta[None, :],
                                             np.array([value]))
            pairing = float(witness @ beta)
            if abs(pairing - value) > 1e-9 * value:
                problems.append(f"{op.name}: witness pairs to {pairing!r}, "
                                f"reported {value!r}")
            lux = float(GAUGES[gauge].luxemburg(witness))
            if lux > 1.0 + 1e-9:
                problems.append(f"{op.name}: witness norm {lux!r} > 1")
        for op, values in zip(self.ops[tasks:], outputs[tasks:]):
            problems += _dual_value_problems(op.name, op.gauge, op.betas,
                                             values)
        return problems


def _dual_value_problems(name, gauge, betas, values) -> list[str]:
    ref = GAUGES[gauge].dual(betas)
    if GAUGES[gauge].power is not None:
        bad = np.abs(values - ref) > 1e-9 * ref
        what = "differs from l_q by"
    else:
        bad = values > ref * (1.0 + 1e-9)
        what = "exceeds the Amemiya value by"
    if not bad.any():
        return []
    worst = int(np.argmax(np.abs(values - ref) / ref * bad))
    return [f"{name}: {int(bad.sum())} value(s); worst {what} "
            f"{(values[worst] - ref[worst]) / ref[worst]:.3e} relative"]


class SweepOp:
    """One batched ``norm_array`` call of a numeric Koethe dual family."""

    def __init__(self, name: str, gauge: str, betas: np.ndarray):
        self.name = name
        self.gauge = gauge
        self.betas = betas
        self.family = None

    def run(self, lc, tracer=None):
        return self.family.norm_array(self.betas)

    @staticmethod
    def failed(output) -> bool:
        return False

    @staticmethod
    def fingerprint(output) -> bytes:
        return output.tobytes()


class VerifyCli(Workload):
    """The ``verify`` task through ``cli.run`` at evenly scaled counts.

    Probe and instance counts are the defaults times ``COUNT_SCALE``; the
    level count, operator-norm pairs and maximum length keep their defaults.
    """

    name = "verify_cli"
    COUNT_SCALE = 0.125
    UNSCALED = ("opnorm_pairs", "constant_levels", "max_length")

    def __init__(self, seed: int):
        self.seed = int(np.random.default_rng([seed, 3]).integers(0, 2**31))
        self.counts = None

    def build(self, lc) -> None:
        defaults = lc.verification.DEFAULT_COUNTS
        self.counts = {k: v if k in self.UNSCALED
                       else max(1, round(v * self.COUNT_SCALE))
                       for k, v in defaults.items()}
        self.op = CliOp("verify", {"task": "verify", "seed": self.seed,
                                   "counts": self.counts})

    def round(self) -> list:
        return [self.op]

    def warmup(self):
        # every suite at two probes each (the pairing checks need two):
        # the round's code paths in a fraction of its time
        tiny = {k: 2 for k in self.counts}
        tiny.update(constant_levels=self.counts["constant_levels"],
                    max_length=self.counts["max_length"])
        return CliOp("verify[warm-up]", {"task": "verify", "seed": self.seed,
                                         "counts": tiny})

    def check(self, outputs: list) -> list[str]:
        report, _ = outputs[0]
        summary = report["results"]["summary"]
        if not summary["passed"] or report["exit_status"] != 0:
            return [f"verify: summary {summary}, exit {report['exit_status']}"]
        return []

    def describe(self) -> dict:
        return {"operations": ["verify"], "verify_seed": self.seed,
                "counts": self.counts}


WORKLOADS = {w.name: w for w in (DualityLp, OrliczDual, VerifyCli)}

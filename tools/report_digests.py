"""Dump the fixed-seed reports of this checkout, compare two dumps, or
write their digests.

    python3 tools/report_digests.py dump OUT.json
    python3 tools/report_digests.py compare A.json B.json
    python3 tools/report_digests.py digest OUT.json

``dump`` runs the program from this checkout's src/ and writes, as
canonical JSON (sorted keys, floats that read back exactly):

- every ``duality_lp`` and ``orlicz_dual`` CLI report at bench seeds 1-3,
  and the ``orlicz_dual`` sweeps at the same seeds (15 arrays);
- ``verify`` at default counts, seeds 0 and 42;
- ``verify`` at the ``verify_cli`` bench counts, bench seeds 1-3 and 44;
- the seeded starts outside the bench: ``operator_norm`` with a zero extra
  start, which is redrawn, at two seeds; ``kothe_dual_norm`` by ascent
  over a ``CustomFamily`` l1.5 oracle, a 3-vector and a 2x3 batch, and
  over the same oracle ``kothe_dual(...).norm_array`` and ``dual_witness``
  of a 2x5 batch whose rows end in zero tails of two lengths; a CLI
  ``constant`` task on a random operator with ``n_max`` 6; a CLI
  ``duality`` task at seed 2^128 + 5; a CLI ``constant`` task with an
  Orlicz family, whose lift takes the norm gradient of the numeric dual;
  the ``constant`` and ``duality`` reports of an operator whose norms
  overflow; ``kothe_dual_norm`` and ``kothe_dual(...).norm_array`` of the
  l1.5 oracle on an all-zero batch; ``kothe_dual_norm`` of a weighted lp
  with p = 2.5;
- ``operator_norm`` with a weighted-lp domain, an Orlicz domain and a zero
  column, an Amemiya-dual codomain, and between two non-lattice normed
  spaces; one ``convexity_ratio`` and one ``concavity_ratio``;
  ``functional_norm`` and ``tail_profile`` of both flavors;
- ``brute_force_constant``'s lower bound and witness, ``[value, witness]``
  per level, on the ``verify`` grid instance (verify seed 42, n = 2,
  resolution 15), on one 2x2 concavity case of acceptance criterion 8,
  on a 3-coordinate domain and on a 1x1 operator;
- for each of ten gauges (u^p at p = 2, 3, 1.5, 1.05, 12, sums, products
  with exp(u), exp(u^2) u^2) and three more (the linear 2u, whose dual is
  a closed form, and u^2 u^0.5 and (u^2+u^3)^0.5, whose derivatives take
  the leading term near 0), the Luxemburg ``norm_array`` and the Amemiya
  solve's value, witness and upper bound on one seeded batch with rows
  that end in zeros, a zero row, a NaN row and rows near 1e300 and 1e-300.

The operations come from bench/workloads.py, which is imported and never
changed.  ``compare`` prints one line per output that differs, with the
number of fields that moved and two figures: the largest relative change
among reported values (``lower_bound``, ``overall``, ``convex_n``,
``concave_dual_n``, ``dual_norm``, a check's ``lhs``, an ascent's
``value`` and ``restart_values``) and, apart from it, the largest change
among witness coordinates (``witness``, ``argmax``), which can move far
between maximizers of one value.  A move in any other field is reported
as a third figure.  It exits 1 when anything differs; for identical dumps
it prints nothing.

``digest`` writes numpy's version, the machine (``platform.machine()``),
the Python version and one sha256 per output, of the output's canonical
JSON.  tests/data/report_digests.json holds the digests of the committed
program, and tests/test_report_digests.py recomputes them where numpy,
Python and the machine match the file's.  A change that moves a value
regenerates that file with this command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_SEEDS = (1, 2, 3)
VALUE_KEYS = {"lower_bound", "overall", "convex_n", "concave_dual_n",
              "dual_norm", "lhs", "value", "restart_values"}
WITNESS_KEYS = {"witness", "argmax"}
VERIFY_SEEDS = (0, 42)
VERIFY_CLI_SEEDS = (1, 2, 3, 44)


def _program():
    """lattice_calc from this checkout's src/ and the bench workloads."""
    for path in (ROOT / "bench", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import lattice_calc
    import lattice_calc.cli
    import lattice_calc.verification
    import workloads
    origin = Path(lattice_calc.__file__).resolve()
    if (ROOT / "src").resolve() not in origin.parents:
        raise SystemExit(f"lattice_calc imported from {origin}, "
                         f"not {ROOT / 'src'}")
    return lattice_calc, workloads


def outputs():
    """(name, thunk) for every output of a dump, in a fixed order; a thunk
    returns the output as plain JSON data."""
    lc, wl = _program()
    for seed in BENCH_SEEDS:
        for op in wl.DualityLp(seed).round():
            yield (f"duality_lp/seed={seed}/{op.name}",
                   lambda op=op: op.run(lc)[0])
    for seed in BENCH_SEEDS:
        work = wl.OrliczDual(seed)
        work.build(lc)
        for op in work.round():
            if isinstance(op, wl.SweepOp):
                yield (f"orlicz_dual/seed={seed}/{op.name}",
                       lambda op=op: op.run(lc).tolist())
            else:
                yield (f"orlicz_dual/seed={seed}/{op.name}",
                       lambda op=op: op.run(lc)[0])
    for seed in VERIFY_SEEDS:
        yield (f"verify/seed={seed}",
               lambda seed=seed: lc.cli.run({"task": "verify", "seed": seed}))
    for seed in VERIFY_CLI_SEEDS:
        work = wl.VerifyCli(seed)
        work.build(lc)
        yield (f"verify_cli/seed={seed}", lambda op=work.op: op.run(lc)[0])
    yield from _seeded_starts(lc)


def _seeded_starts(lc):
    """Outputs of the seeded starts the bench rounds do not reach."""
    import numpy as np

    def lp(p):
        return {"kind": "lp", "p": p}

    mat = np.random.default_rng(2024).standard_normal((3, 4))
    op = lc.OperatorInstance(mat, lc.lattice(4, lc.LpFamily(1.5)),
                             lc.lattice(3, lc.LpFamily(3.0)))
    for seed in (0, 5):
        yield (f"seeded/operator_norm_zero_start/seed={seed}",
               lambda seed=seed: _plain(lc.operator_norm(
                   op, seed=seed, extra_inits=[np.zeros(4)])))

    def l15(row):
        return float((np.abs(row) ** 1.5).sum() ** (1.0 / 1.5))

    custom = lc.CustomFamily(l15, label="l1.5-oracle")
    beta = np.random.default_rng(2025).standard_normal((2, 3))
    for name, b in (("vector", beta[0]), ("batch", beta)):
        yield (f"seeded/kothe_dual_norm_custom/{name}",
               lambda b=b: _plain(lc.kothe_dual_norm(custom, b)))
    # rows of two lengths, which the dual family solves one length at a time
    tailed = np.array([[1.73353, 0.34781, -0.941413, 0.907049, 0.0],
                       [-0.615219, -0.633509, -0.993432, 0.0, 0.0]])
    yield ("seeded/kothe_dual_custom/norm_array",
           lambda: lc.kothe_dual(custom).norm_array(tailed).tolist())
    yield ("seeded/kothe_dual_custom/dual_witness",
           lambda: lc.dual_witness(custom, tailed).tolist())
    random_op = {"random": {"rows": 4, "cols": 4, "seed": 7},
                 "domain": lp(2.0), "codomain": lp(1.0)}
    yield ("seeded/cli_constant_random_n_max=6",
           lambda: lc.cli.run({"task": "constant", "operator": random_op,
                               "family": lp(1.5), "flavor": "convexity",
                               "n_max": 6, "seed": 3}))
    yield ("seeded/cli_duality_seed=2^128+5",
           lambda: lc.cli.run({"task": "duality", "operator": random_op,
                               "family": lp(2.0), "n": 2,
                               "seed": 2 ** 128 + 5}))
    orlicz_op = {"random": {"rows": 3, "cols": 3, "seed": 11},
                 "domain": lp(1.5), "codomain": lp(3.0)}
    yield ("seeded/cli_constant_orlicz_family",
           lambda: lc.cli.run({"task": "constant", "operator": orlicz_op,
                               "family": {"kind": "orlicz",
                                          "phi": "u^2+u^4"},
                               "n_max": 2, "seed": 1,
                               "budget": {"restarts": 4, "iterations": 20}}))
    # every norm of this operator's images overflows to inf
    huge_op = {"matrix": [[1e308, 1e308], [1e308, 1e308]],
               "domain": lp(2.0), "codomain": lp(1.0)}
    yield ("overflow/cli_constant",
           lambda: lc.cli.run({"task": "constant", "operator": huge_op,
                               "family": lp(2.0), "n_max": 2}))
    yield ("overflow/cli_duality",
           lambda: lc.cli.run({"task": "duality", "operator": huge_op,
                               "family": lp(2.0), "n": 2}))
    zeros = np.zeros((2, 3))
    yield ("seeded/kothe_dual_norm_custom/zero_batch",
           lambda: _plain(lc.kothe_dual_norm(custom, zeros)))
    yield ("seeded/kothe_dual_custom/zero_batch_norm_array",
           lambda: lc.kothe_dual(custom).norm_array(zeros).tolist())
    weighted = lc.WeightedLpFamily(2.5, [0.5, 1.75, 0.8, 1.2])
    yield ("seeded/kothe_dual_norm_weighted_lp_p=2.5",
           lambda: _plain(lc.kothe_dual_norm(
               weighted, np.random.default_rng(2029).standard_normal(4))))
    yield from _ratio_outputs(lc)
    yield from _grid_outputs(lc)
    yield from _gauge_outputs(lc)


def _ratio_outputs(lc):
    """Outputs of the mixed-norm ratios outside the bench rounds."""
    import numpy as np

    rng = np.random.default_rng(2026)
    orlicz = lc.OrliczFamily(lc.parse_gauge("u^2+u^4"))
    amemiya = lc.kothe_dual(lc.OrliczFamily(lc.parse_gauge("u*exp(u)")))
    weighted = lc.WeightedLpFamily(2.5, [0.5, 1.75, 0.8, 1.2])
    zero_column = rng.standard_normal((3, 3))
    zero_column[:, 1] = 0.0
    sides = {
        "weighted_lp": (rng.standard_normal((3, 4)), lc.lattice(4, weighted),
                        lc.lattice(3, lc.LpFamily(1.5))),
        "orlicz_zero_column": (zero_column, lc.lattice(3, orlicz),
                               lc.lattice(3, lc.LpFamily(2.0))),
        "amemiya_dual": (rng.standard_normal((3, 3)),
                         lc.lattice(3, lc.LpFamily(3.0)),
                         lc.lattice(3, amemiya)),
        "normed_space": (rng.standard_normal((3, 4)),
                         lc.NormedSpace(4, lc.LpFamily(3.0)),
                         lc.NormedSpace(3, lc.LpFamily(1.0))),
    }
    for name, (mat, dom, cod) in sides.items():
        yield (f"seeded/operator_norm/{name}",
               lambda args=(mat, dom, cod): _plain(lc.operator_norm(
                   lc.OperatorInstance(*args), seed=3)))
    op = lc.OperatorInstance(rng.standard_normal((3, 4)),
                             lc.lattice(4, lc.LpFamily(1.5)),
                             lc.lattice(3, lc.LpFamily(3.0)))
    family = lc.LpFamily(2.5)
    rows = rng.standard_normal((3, 4))
    yield ("ratio/convexity_ratio",
           lambda: lc.convexity_ratio(op, family, rows))
    yield ("ratio/concavity_ratio",
           lambda: lc.concavity_ratio(op, family, rows))
    space = lc.lattice(4, weighted)
    for flavor in ("strong", "pointwise"):
        yield (f"ratio/functional_norm/{flavor}",
               lambda flavor=flavor: _plain(lc.functional_norm(
                   space, orlicz, rows, flavor)))
        yield (f"ratio/tail_profile/{flavor}",
               lambda flavor=flavor: lc.tail_profile(
                   family, space, rows, flavor).tolist())


def _grid_outputs(lc):
    """Lower bounds and witnesses of the spherical-grid oracle."""
    import numpy as np

    def levels(est):
        return [[b.value, b.witness.tolist()] for b in est.per_n]

    # the constants suite's instance at verify seed 42 (suite seed 547)
    mat = np.random.default_rng(42 + 5 * 101).standard_normal((2, 2))
    op = lc.OperatorInstance(mat, lc.lattice(2, lc.LpFamily(2)),
                             lc.lattice(2, lc.LpFamily(1)))
    yield ("grid/verify_convexity_n=2",
           lambda op=op: levels(lc.brute_force_constant(
               op, lc.LpFamily(2), "convexity", 2, grid_resolution=15)))
    # criterion 8's seeded case k = 2, concavity side: l1.5 -> l2, Y = l1.5
    mat = np.random.default_rng(8002).standard_normal((2, 2))
    op = lc.OperatorInstance(mat, lc.lattice(2, lc.LpFamily(1.5)),
                             lc.lattice(2, lc.LpFamily(2)))
    yield ("grid/criterion8_concavity_k=2",
           lambda op=op: levels(lc.brute_force_constant(
               op, lc.LpFamily(1.5), "concavity", 2, grid_resolution=21)))
    # a 3-coordinate domain has a polar angle besides the azimuthal one
    mat = np.random.default_rng(2028).standard_normal((3, 3))
    op = lc.OperatorInstance(mat, lc.lattice(3, lc.LpFamily(1.5)),
                             lc.lattice(3, lc.LpFamily(3)))
    yield ("grid/domain_of_3_convexity_n=1",
           lambda op=op: levels(lc.brute_force_constant(
               op, lc.LpFamily(2.5), "convexity", 1, grid_resolution=9)))
    # a 1x1 operator at n = 1 has no angle at all
    op = lc.OperatorInstance(np.array([[-1.7]]), lc.lattice(1, lc.LpFamily(2)),
                             lc.lattice(1, lc.LpFamily(1)))
    yield ("grid/one_by_one_concavity_n=1",
           lambda op=op: levels(lc.brute_force_constant(
               op, lc.LpFamily(1.5), "concavity", 1, grid_resolution=9)))


# the STRESS gauges of tests/test_amemiya.py
STRESS_GAUGES = ("u^2", "u^3", "u^1.5", "u^2+u^4", "u*exp(u)", "u^1.05",
                 "u^12", "u+u^2", "0.01*u^2+u*exp(u)", "exp(u^2)*u^2")
# a linear gauge, and two whose compiled phi' is not finite at 0
BRANCH_GAUGES = ("2*u", "u^2*u^0.5", "(u^2+u^3)^0.5")


def _gauge_outputs(lc):
    """Luxemburg norms and Amemiya duals of gauges the bench never runs."""
    import numpy as np

    batch = np.random.default_rng(2027).standard_normal((8, 5))
    batch[1, 3:] = 0.0
    batch[2, 4:] = 0.0
    batch[3] = 0.0
    batch[4, 2] = np.nan
    batch[5] *= 1e300
    batch[6] *= 1e-300
    batch[7, 1:] *= 1e-300
    for gauge in STRESS_GAUGES + BRANCH_GAUGES:
        family = lc.OrliczFamily(lc.parse_gauge(gauge))
        yield (f"gauge/{gauge}/norm_array",
               lambda f=family: f.norm_array(batch).tolist())
        yield (f"gauge/{gauge}/amemiya_dual",
               lambda f=family: dict(zip(
                   ("value", "witness", "upper"),
                   (x.tolist() for x in lc.seq_lattice._amemiya_dual(
                       f, batch)))))


def _plain(result):
    """The fields of a result object as JSON data."""
    return {k: (v.tolist() if hasattr(v, "tolist") else v)
            for k, v in sorted(vars(result).items())}


def digests() -> dict:
    """The platform and the sha256 of every output's canonical JSON."""
    import numpy as np
    return {"numpy": np.__version__, "machine": platform.machine(),
            "python": platform.python_version(),
            "outputs": {name: hashlib.sha256(json.dumps(
                thunk(), sort_keys=True).encode()).hexdigest()
                for name, thunk in outputs()}}


def write(path, dump: dict) -> None:
    Path(path).write_text(json.dumps(dump, indent=1, sort_keys=True) + "\n")


def _changes(a, b, where="", kind="other"):
    """(kind, path, relative change, a, b) of every leaf where they differ;
    a change of type, keys or length counts as an infinite one.  ``kind``
    is "value" or "witness" below a key of that class, else "other"."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [(kind, where, math.inf, sorted(a), sorted(b))]
        return [c for k in sorted(a) for c in _changes(
            a[k], b[k], f"{where}.{k}",
            "value" if k in VALUE_KEYS else
            "witness" if k in WITNESS_KEYS else kind)]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [(kind, where, math.inf, f"{len(a)} items",
                     f"{len(b)} items")]
        return [c for i, (x, y) in enumerate(zip(a, b))
                for c in _changes(x, y, f"{where}[{i}]", kind)]
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (a, b))
    if numbers:
        if a == b or (a != a and b != b):  # NaN equals NaN here
            return []
        big = max(abs(a), abs(b))
        rel = abs(a - b) / big if math.isfinite(big) and big > 0 else math.inf
        return [(kind, where, rel, a, b)]
    if a == b and type(a) is type(b):
        return []
    return [(kind, where, math.inf, a, b)]


def _largest(changes) -> str:
    if not changes:
        return "none moved"
    _, where, rel, old, new = max(changes, key=lambda c: c[2])
    return (f"largest relative change {rel:.3g} at {where or '(top)'} "
            f"({old!r} -> {new!r})")


def compare(path_a, path_b) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    status = 0
    for name in sorted(a.keys() | b.keys()):
        if name not in a or name not in b:
            print(f"{name}: only in {path_a if name in a else path_b}")
            status = 1
            continue
        changes = _changes(a[name], b[name])
        if changes:
            figures = []
            for kind, label in (("value", "values"), ("witness", "witnesses"),
                                ("other", "other fields")):
                moved = [c for c in changes if c[0] == kind]
                if moved or kind != "other":
                    figures.append(f"{label}: {_largest(moved)}")
            print(f"{name}: {len(changes)} field(s) moved; "
                  + "; ".join(figures))
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dump").add_argument("out")
    cmp = sub.add_parser("compare")
    cmp.add_argument("a")
    cmp.add_argument("b")
    sub.add_parser("digest").add_argument("out")
    args = parser.parse_args(argv)
    if args.command == "dump":
        write(args.out, {name: thunk() for name, thunk in outputs()})
        return 0
    if args.command == "digest":
        write(args.out, digests())
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())

"""One run of one workload, in a process of its own (started by run.py).

    python3 bench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload W --seed N --setup-only

Timeline of a run:

1. set-up: import lattice_calc (numpy included) and build the workload's
   program objects; its wall time is ``setup_s``.  ``--setup-only`` stops
   here and prints it.
2. one untimed warm-up operation (see ``Workload.warmup``);
3. whole rounds for as long as the next one is expected to end within
   ``--seconds``, and at least ``MIN_ROUNDS`` untraced rounds.  Untraced,
   each round is timed and ``tasks_per_s`` is the round size over the
   median round time.  Traced (``--trace 1``), an untraced and a traced
   round alternate; the per-layer figures are the mean over traced rounds
   (their counts are identical) plus what set-up spent in the same
   layers, and the tracing overhead is the median traced round time minus
   the median untraced one;
4. checks on the outputs of the first round; every later round, and a
   warm-up that is the round's first operation, must reproduce them byte
   for byte.

The last line on stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
import time
import types
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

NORM_KINDS = ("lp", "weighted_lp", "orlicz", "numeric_dual")
SUITES = ("norm_families", "kothe_duality", "krivine", "mixed_norms",
          "operators", "constants")


def per_layer_spec() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    spec = []
    for kind in NORM_KINDS:
        spec += [(f"seq_lattice.norm_array.{kind}.calls", "count"),
                 (f"seq_lattice.norm_array.{kind}.rows", "count"),
                 (f"seq_lattice.norm_array.{kind}.self_s", "s")]
    for kind in ("lp", "orlicz"):
        spec += [(f"seq_lattice.norm_gradient.{kind}.calls", "count"),
                 (f"seq_lattice.norm_gradient.{kind}.self_s", "s")]
    for span in ("seq_lattice.kothe_dual_norm",
                 "finite_lattice.lattice_valued_norm", "mixed_norms.strong",
                 "mixed_norms.pointwise", "optimize.maximize_ratio",
                 "operators.operator_norm", "constants.estimate_constant",
                 "constants.duality_check"):
        spec += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
    spec += [("descriptors.gauge.calls", "count"),
             ("descriptors.gauge.points", "count"),
             ("descriptors.parse_gauge.s", "s"),
             ("optimize.ratio_evals", "count"),
             ("optimize.points", "count"),
             ("optimize.restarts", "count"),
             ("optimize.restart_agreement", "ratio")]
    spec += [(f"verification.{suite}.s", "s") for suite in SUITES]
    spec += [("cli.run.self_s", "s"), ("cli.json_dump.s", "s"),
             ("cli.report_bytes", "bytes"),
             ("trace.round_untraced_s", "s"), ("trace.round_traced_s", "s"),
             ("trace.overhead_s", "s")]
    return spec


# Untraced rounds every run makes, whatever --seconds says: the replay
# comparison needs two.
MIN_ROUNDS = 2

END_TO_END = (("tasks_per_s", "1/s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _import_program():
    """Import lattice_calc from this checkout's src/ (never an installed copy)."""
    sys.path.insert(0, str(SRC_DIR))
    import lattice_calc
    import lattice_calc.cli
    import lattice_calc.verification
    origin = Path(lattice_calc.__file__).resolve()
    if SRC_DIR.resolve() not in origin.parents:
        raise SystemExit(f"lattice_calc imported from {origin}, not {SRC_DIR}")
    return lattice_calc


def _layer_values(totals: dict, counts: dict) -> dict:
    values = {"optimize.restarts_agreeing":
              counts.get("optimize.restarts_agreeing", 0.0)}
    for name, _ in per_layer_spec():
        base, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and base in totals:
            values[name] = totals[base][field]
        elif field == "s" and base in totals:
            values[name] = totals[base]["s"]
        else:
            values[name] = counts.get(name, 0.0)
    return values


def _run_round(ops, lc, tracer=None):
    """Outputs and wall times of one round of ``ops``."""
    outputs, times = [], []
    for op in ops:
        t0 = time.perf_counter()
        if tracer is None:
            outputs.append(op.run(lc))
        else:
            outputs.append(tracer.span(f"bench.{type(op).__name__}", op.run,
                                       lc, tracer))
        times.append(time.perf_counter() - t0)
    return outputs, times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", default=None,
                        help="directory for the span file of a traced run")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    lattice_calc = _import_program()
    import_s = time.perf_counter() - start

    sys.path.insert(0, str(BENCH_DIR))
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    lc = types.SimpleNamespace(**{
        m: getattr(lattice_calc, m) for m in
        ("cli", "constants", "descriptors", "finite_lattice", "operators",
         "seq_lattice", "verification")})
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer(lattice_calc) if args.trace else None

    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    workload.build(lc)
    setup_s = import_s + time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if tracer is not None:
        tracer.uninstall()
        setup_layers = _layer_values(tracer.totals(), tracer.counts)
        tracer.reset()

    ops = workload.round()
    warm_op = workload.warmup()
    warm = warm_op.run(lc)

    problems = []
    first = None
    fingerprints = None
    attempted = failed = 0
    plain_times, traced_times, plain_op_times = [], [], []
    layer_rounds = []
    passes = [None] if tracer is None else [None, tracer]
    min_iterations = MIN_ROUNDS // len(passes)
    began = time.perf_counter()
    for iteration in itertools.count(1):
        for tr in passes:
            if tr is not None:
                tr.install()
            t0 = time.perf_counter()
            outputs, op_times = _run_round(ops, lc, tr)
            elapsed = time.perf_counter() - t0
            if tr is not None:
                tr.uninstall()
                layer_rounds.append(_layer_values(tr.totals(), tr.counts))
                if len(layer_rounds) == 1 and args.out:
                    Path(args.out).mkdir(parents=True, exist_ok=True)
                    tr.save(Path(args.out) / f"{args.workload}-seed{args.seed}"
                                             f"-spans.npz")
                tr.reset()
                traced_times.append(elapsed)
            else:
                plain_times.append(elapsed)
                plain_op_times.append(op_times)
            attempted += len(ops)
            failed += sum(op.failed(out) for op, out in zip(ops, outputs))
            prints = [op.fingerprint(out) for op, out in zip(ops, outputs)]
            if first is None:
                first, fingerprints = outputs, prints
                if warm_op is ops[0] and warm_op.fingerprint(warm) != prints[0]:
                    problems.append(f"{ops[0].name}: warm-up output differs "
                                    f"from the first round's")
            elif prints != fingerprints:
                changed = [op.name for op, a, b in zip(ops, prints,
                                                       fingerprints) if a != b]
                problems.append(f"round outputs differ from the first "
                                f"round's: {changed}")
        spent = time.perf_counter() - began
        if iteration >= min_iterations and \
                spent * (iteration + 1) / iteration > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems += workload.check(first)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": len(plain_times),
                      "round_s": plain_times,
                      "op_names": [op.name for op in ops],
                      "op_s": plain_op_times,
                      **workload.describe()}),
          file=sys.stderr)

    if tracer is None:
        metrics = {
            "tasks_per_s": len(ops) / statistics.median(plain_times),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = dict(END_TO_END)
    else:
        plain = statistics.median(plain_times)
        traced = statistics.median(traced_times)
        metrics = {name: value + statistics.fmean(r[name] for r in layer_rounds)
                   for name, value in setup_layers.items()}
        agreeing = metrics.pop("optimize.restarts_agreeing")
        restarts = metrics["optimize.restarts"]
        metrics["optimize.restart_agreement"] = (agreeing / restarts
                                                 if restarts else 0.0)
        metrics["trace.round_untraced_s"] = plain
        metrics["trace.round_traced_s"] = traced
        metrics["trace.overhead_s"] = traced - plain
        units = dict(per_layer_spec())
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark entry point; run from the root of a checkout.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Runs workload W (see workloads.py) in one child process with BLAS and
OpenMP pinned to one thread.  With ``--trace 0`` the last stdout line
reports the end-to-end metrics ``tasks_per_s``, ``setup_s`` and
``peak_rss_mb``; ``setup_s`` is the median over the child and
``SETUP_PROBES`` further processes that only set up.  With ``--trace 1``
it reports the per-layer metrics of a traced run, and the spans of one
traced round are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_PROBES = 8
TIME_LIMIT_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _child(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py with ``args``; return the JSON of its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args], env=env,
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited "
                           f"{proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "lattice_calc" / "__init__.py").is_file():
        print(f"error: no lattice_calc sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update({name: "1" for name in PINNED})
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if args.trace:
            result = _child(common + ["--seconds", str(args.seconds),
                                      "--trace", "1",
                                      "--out", str(BENCH_DIR / "out")],
                            env, deadline)
        else:
            setups = [_child(common + ["--setup-only"], env, deadline)
                      ["setup_s"] for _ in range(SETUP_PROBES)]
            result = _child(common + ["--seconds", str(args.seconds)], env,
                            deadline)
            setups.append(result["metrics"]["setup_s"]["value"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

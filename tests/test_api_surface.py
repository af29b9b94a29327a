"""The public names, and the names the benchmark's tracer wraps."""

import importlib.util
import types
from pathlib import Path

import lattice_calc

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_all_lists_resolvable_non_module_names():
    assert len(set(lattice_calc.__all__)) == len(lattice_calc.__all__)
    for name in lattice_calc.__all__:
        value = getattr(lattice_calc, name)
        assert not isinstance(value, types.ModuleType), name


def test_public_names_do_not_grow():
    # the public API shrinks over time; a new export replaces an old one
    assert len(lattice_calc.__all__) <= 43


def test_benchmark_tracer_installs_and_restores():
    # every module, class and function the tracer wraps must still exist
    # where it looks them up; uninstall puts the originals back
    spans = _load_spans()
    seq = lattice_calc.seq_lattice
    before = (seq.LpFamily.__dict__["norm_array"],
              lattice_calc.optimize.maximize_ratio,
              lattice_calc.constants.maximize_ratio)
    tracer = spans.Tracer(lattice_calc)
    tracer.install()
    try:
        assert seq.LpFamily.__dict__["norm_array"] is not before[0]
        assert lattice_calc.constants.maximize_ratio is not before[2]
    finally:
        tracer.uninstall()
    assert (seq.LpFamily.__dict__["norm_array"],
            lattice_calc.optimize.maximize_ratio,
            lattice_calc.constants.maximize_ratio) == before

"""Spans around the layers of lattice_calc, recorded from outside the package.

Every traced function is replaced by a wrapper under each name a caller
looks it up by: a module global that is the same function object (so
``constants.maximize_ratio`` and ``operators.maximize_ratio`` are wrapped,
not only ``optimize.maximize_ratio``), a method on its class, an entry of
``verification.SUITES``, or the ``func`` of a gauge.  ``install`` puts the
wrappers in place and ``uninstall`` restores the originals, so untraced
rounds run the program untouched.

Spans are kept in memory as flat arrays (name, parent, start, end).  A
span's self time is its duration minus the durations of its direct
children.  Counters (rows, points, restarts) are summed at the same
boundaries as the spans.
"""

from __future__ import annotations

import importlib
import math
import pkgutil
import time
from array import array
from collections import defaultdict

import numpy as np

# Methods wrapped per family class: span name -> (module, class, method).
_METHODS = {
    "seq_lattice.norm_array.lp": ("seq_lattice", "LpFamily", "norm_array"),
    "seq_lattice.norm_array.weighted_lp": ("seq_lattice", "WeightedLpFamily",
                                           "norm_array"),
    "seq_lattice.norm_array.orlicz": ("seq_lattice", "OrliczFamily",
                                      "norm_array"),
    "seq_lattice.norm_array.numeric_dual": ("seq_lattice", "NumericDualFamily",
                                            "norm_array"),
    "seq_lattice.norm_gradient.lp": ("seq_lattice", "LpFamily",
                                     "norm_gradient"),
    "seq_lattice.norm_gradient.orlicz": ("seq_lattice", "OrliczFamily",
                                         "norm_gradient"),
}

# Module-level functions wrapped wherever they are bound: span name ->
# (defining module, function name).
_FUNCTIONS = {
    "seq_lattice.kothe_dual_norm": ("seq_lattice", "kothe_dual_norm"),
    "descriptors.parse_gauge": ("descriptors", "parse_gauge"),
    "finite_lattice.lattice_valued_norm": ("finite_lattice",
                                           "lattice_valued_norm"),
    "mixed_norms.strong": ("mixed_norms", "strong_mixed_norm_batch"),
    "mixed_norms.pointwise": ("mixed_norms", "pointwise_mixed_norm_batch"),
    "optimize.maximize_ratio": ("optimize", "maximize_ratio"),
    "operators.operator_norm": ("operators", "operator_norm"),
    "constants.estimate_constant": ("constants", "estimate_constant"),
    "constants.duality_check": ("constants", "duality_check"),
    "cli.run": ("cli", "run"),
}

# Spans whose counters include the rows of their first argument.
_ROW_COUNTED = {name for name in _METHODS if ".norm_array." in name}

RESTART_AGREEMENT_RTOL = 1e-4


def _rows(values) -> int:
    shape = getattr(values, "shape", None)
    if shape is None:
        shape = np.shape(values)
    return math.prod(shape[:-1])


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self, package):
        self.package = package
        self.modules = [importlib.import_module(f"{package.__name__}.{m.name}")
                        for m in pkgutil.iter_modules(package.__path__)]
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple] = []
        self.gauges: list = []
        self._gauge_funcs: dict[int, object] = {}
        # cleared in place by reset(), so wrappers can hold them directly
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)

    # -- recording --------------------------------------------------------

    def reset(self) -> None:
        """Drop the recorded spans and counters."""
        for buf in (self.span_name, self.span_parent, self.span_start,
                    self.span_end, self._stack):
            del buf[:]
        self.counts.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, count_rows: bool = False):
        nid = self._name_id(name)
        rows_key = name + ".rows"
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack, counts, clock = self._stack, self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            if count_rows:
                counts[rows_key] += _rows(args[1])
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named ``name`` (used for benchmark tasks)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installing -------------------------------------------------------

    def _module(self, short: str):
        return importlib.import_module(f"{self.package.__name__}.{short}")

    def _patch(self, owner, attr, new, setter=setattr, getter=getattr):
        self._patches.append((owner, attr, getter(owner, attr), setter))
        setter(owner, attr, new)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, (mod, cls, meth) in _METHODS.items():
            klass = getattr(self._module(mod), cls)
            original = klass.__dict__[meth]
            self._patch(klass, meth, self.wrap(name, original,
                                               name in _ROW_COUNTED))
        for name, (mod, fname) in _FUNCTIONS.items():
            original = getattr(self._module(mod), fname)
            wrapped = self._special(name, original)
            for module in self.modules + [self.package]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, attr, wrapped)
        suites = self._module("verification").SUITES
        for suite in list(suites):
            self._patch(suites, suite,
                        self.wrap(f"verification.{suite}", suites[suite]),
                        setter=dict.__setitem__, getter=dict.__getitem__)
        for gauge in self.gauges:
            self._wrap_gauge(gauge)

    def uninstall(self) -> None:
        for owner, attr, original, setter in reversed(self._patches):
            setter(owner, attr, original)
        self._patches.clear()
        for gauge in self.gauges:
            gauge.func = self._gauge_funcs[id(gauge)]

    def _special(self, name: str, original):
        if name == "optimize.maximize_ratio":
            return self.wrap(name, self._counting_ascent(original))
        if name == "descriptors.parse_gauge":
            return self.wrap(name, self._registering_parse(original))
        return self.wrap(name, original)

    def _counting_ascent(self, maximize_ratio):
        def ascent(numerator, denominator, *args, **kwargs):
            def counted(z):
                self.counts["optimize.ratio_evals"] += 1
                self.counts["optimize.points"] += len(z)
                return numerator(z)

            result = maximize_ratio(counted, denominator, *args, **kwargs)
            finals = np.asarray(result.restart_values, dtype=float)
            agree = finals >= result.value * (1.0 - RESTART_AGREEMENT_RTOL)
            self.counts["optimize.restarts"] += len(finals)
            self.counts["optimize.restarts_agreeing"] += int(agree.sum())
            return result

        return ascent

    def _registering_parse(self, parse_gauge):
        def parse(expression):
            gauge = parse_gauge(expression)
            self._register_gauge(gauge)
            return gauge

        return parse

    def _register_gauge(self, gauge) -> None:
        """Count evaluations of this gauge while the tracer is installed."""
        if id(gauge) in self._gauge_funcs:
            return
        self.gauges.append(gauge)
        self._gauge_funcs[id(gauge)] = gauge.func
        if self._patches:
            self._wrap_gauge(gauge)

    def _wrap_gauge(self, gauge) -> None:
        func = self._gauge_funcs[id(gauge)]

        def counted(u):
            self.counts["descriptors.gauge.calls"] += 1
            self.counts["descriptors.gauge.points"] += np.size(u)
            return func(u)

        gauge.func = counted

    # -- summarizing ------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = names == nid
            out[name] = {"calls": float(mask.sum()),
                         "s": float(dur[mask].sum()),
                         "self_s": float(own[mask].sum())}
        return out

    def save(self, path) -> None:
        """Write the recorded spans (names, parent links, times) as .npz."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64))

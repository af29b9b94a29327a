"""Power iteration for degree-1 homogeneous ratios f(z)/g(z), g > 0 off 0.

A power step is two support maps (at n = 1, Boyd's power method for
||T||_{p->q}): the caller's ``lift`` maps z to a functional y that norms f
at z, with its pairing, which is f(z); ``pull`` maps y to the support of
the unit ball of g, a point of g's unit sphere.  So the pairing at a pulled
point is its ratio, and a restart takes a step only while its pairing
strictly rises.  f and g score the starts and, once on the unit sphere,
the final iterates, so every value is the exact ratio of its witness.
Restart r, unless an init fills it, starts from the first normals of
substream r of the seed, all drawn by one ``substream_normals`` call; an
init that is degenerate (a zero tuple, say) is replaced once by those
normals of its restart, and a start still degenerate stays at -inf, never
stepped and never the best unless all are.  Restarts advance in lock
step; the callables act row by row, so restarts are a prefix of any
larger budget.
"""

import math
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from .errors import InputError
from .seeding import substream_normals


@dataclass(frozen=True)
class AscentBudget:
    """Restarts and iterations of ``maximize_ratio``."""
    restarts: int = 32
    iterations: int = 500

    def validate(self):
        """Counts are integers (numpy's too, but not bool) of at least 1."""
        if not all(isinstance(c, Integral) and not isinstance(c, bool)
                   and c >= 1 for c in (self.restarts, self.iterations)):
            raise InputError("budget needs integer restarts and iterations "
                             f"of at least 1, got {self}")


@dataclass
class AscentResult:
    value: float
    argmax: np.ndarray
    converged: bool
    restart_values: list[float]


def maximize_ratio(numerator: Callable, denominator: Callable, dim: int,
                   seed: int = 0, budget: AscentBudget | None = None,
                   inits: Sequence[np.ndarray] = (), *, lift: Callable,
                   pull: Callable) -> AscentResult:
    """Best found f/g over R^dim, attained at ``argmax``; the callables map
    batches of rows: f, g and ``lift`` take (batch, dim) arrays, ``lift``
    returns the supports y and their pairings, and ``pull`` maps a batch
    of y to (batch, dim).  ``inits`` come first, then seeded normals."""
    def on_sphere(z):  # rows scaled to g = 1 and their ratios, -inf if g = 0
        g = denominator(z)
        if (np.minimum.reduce(g, initial=np.inf) > 0.0
                and np.maximum.reduce(g, initial=0.0) < np.inf):
            z = z / g[:, None]
            return z, numerator(z)
        ok = (g > 0.0) & np.isfinite(g)
        z = z / np.where(ok, g, 1.0)[:, None]
        val = np.full(len(z), -np.inf)
        if ok.any():
            val[ok] = numerator(z[ok])
        return z, val

    budget = budget or AscentBudget()
    budget.validate()
    starts = [np.asarray(z, dtype=float).ravel() for z in inits]
    if any(z.shape != (dim,) for z in starts):
        raise InputError(f"every init must have size {dim}")
    k = min(len(starts), budget.restarts)
    z, val = on_sphere(np.concatenate([
        np.reshape(starts[:k], (k, dim)),
        substream_normals(seed, range(k, budget.restarts), dim)]))
    # a degenerate init gets its restart's seeded draw, once
    bad = np.flatnonzero(val[:k] == -np.inf)
    if bad.size:
        z[bad], val[bad] = on_sphere(substream_normals(seed, bad, dim))
    live = np.flatnonzero(val > -np.inf)
    y, pairing = lift(z[live])
    for _ in range(budget.iterations):
        if not live.size:
            break
        cand = pull(y)
        y, cpairing = lift(cand)
        up = cpairing > pairing
        if up.all():
            pairing = cpairing
            z[live] = cand
        else:
            live, y, pairing = live[up], y[up], cpairing[up]
            z[live] = cand[up]
    z, val = on_sphere(z)
    best = int(np.argmax(np.where(np.isnan(val), -np.inf, val)))
    agree = int((val >= val[best] * (1.0 - 1e-4) - 1e-300).sum())
    # after the loop ``live`` holds the restarts that still rose at the last
    # allowed step: a best restart among them was cut off by the cap,
    # whatever the restarts agree on; a best value that is not finite (an
    # overflow, say) is no estimate
    converged = (agree >= min(2, budget.restarts) and best not in live
                 and math.isfinite(val[best]))
    return AscentResult(float(val[best]), z[best].copy(), converged,
                        val.tolist())

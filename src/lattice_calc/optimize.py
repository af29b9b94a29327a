"""Projected ascent for homogeneous ratios.

The one optimizer the package needs: maximize f(z)/g(z) where both f and g
are continuous, degree-1 positively homogeneous and g vanishes only at the
origin.  The ratio is constant along rays, so iterates are renormalized to
the sphere {g = 1} after every accepted step.  Gradients are central finite
differences of the ratio (which is tangent to rays automatically), the step
direction is unit-normalized, and steps adapt by backtracking.  All decision
rules are scale-invariant, so scaling f by a constant scales the reported
value exactly and leaves the search path unchanged.

Restarts draw from independent substreams of one seed; results are
deterministic for a fixed seed and the first r restarts of a budget are a
prefix of any larger budget.

All live restarts advance in lock step: each iteration evaluates the
finite-difference probes of every live restart in one stacked batch and
their trial points in another, with per-restart step sizes and stop
counters.  The callables act row by row, so each restart follows exactly
the path it would follow alone; stacking changes the cost, not the result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InputError
from .seeding import spawn_rngs

_FD_STEP = 1e-6
_TRIAL_LADDER = 0.25 ** np.arange(4)


@dataclass(frozen=True)
class AscentBudget:
    """Search effort: restart count, iterations per restart, initial step."""
    restarts: int = 32
    iterations: int = 500
    step0: float = 0.1

    def doubled(self) -> "AscentBudget":
        return AscentBudget(self.restarts * 2, self.iterations, self.step0)

    def validate(self):
        if self.restarts < 1 or self.iterations < 1 or not self.step0 > 0:
            raise InputError(f"budget must be positive, got {self}")


DEFAULT_BUDGET = AscentBudget()


@dataclass
class AscentResult:
    value: float
    argmax: np.ndarray
    converged: bool
    restart_values: list[float] = field(default_factory=list)


def _normalize(z: np.ndarray, denominator) -> np.ndarray | None:
    gz = float(denominator(z[None, :])[0])
    if not gz > 0.0 or not np.isfinite(gz):
        return None
    return z / gz


def maximize_ratio(numerator: Callable, denominator: Callable, dim: int,
                   seed: int = 0, budget: AscentBudget | None = None,
                   inits: Sequence[np.ndarray] = (), nonneg: bool = False
                   ) -> AscentResult:
    """Best found value of f/g over nonzero points of R^dim.

    ``numerator`` and ``denominator`` act on (batch, dim) arrays and return
    (batch,) values.  Structured ``inits`` are consumed first; remaining
    restarts start from seeded standard normals (folded positive when
    ``nonneg``).  The reported value is attained at ``argmax``, hence a
    certified lower bound of the supremum.
    """
    budget = budget or DEFAULT_BUDGET
    budget.validate()
    rngs = spawn_rngs(seed, budget.restarts)
    starts: list[np.ndarray] = []
    for init in inits:
        if len(starts) >= budget.restarts:
            break
        z = np.asarray(init, dtype=float).ravel()
        if z.shape != (dim,):
            raise InputError(f"init has size {z.size}, expected {dim}")
        starts.append(z)
    while len(starts) < budget.restarts:
        z = rngs[len(starts)].standard_normal(dim)
        starts.append(np.abs(z) if nonneg else z)

    # per-restart state; rows of restarts that have stopped stay frozen
    z = np.array(starts)
    if nonneg:
        z = np.maximum(z, 0.0)
    gz = denominator(z)
    ok = (gz > 0.0) & np.isfinite(gz)
    z = z / np.where(ok, gz, 1.0)[:, None]
    for ridx in np.flatnonzero(~ok):
        # degenerate start (for instance an all-zero tuple): resample
        for _ in range(8):
            zr = rngs[ridx].standard_normal(dim)
            zn = _normalize(np.abs(zr) if nonneg else zr, denominator)
            if zn is not None:
                z[ridx] = zn
                ok[ridx] = True
                break
    live = np.flatnonzero(ok)
    val = np.full(budget.restarts, -np.inf)
    if live.size:
        val[live] = numerator(z[live])
    eta = np.full(budget.restarts, float(budget.step0))
    stalls = np.zeros(budget.restarts, dtype=int)
    quiet = np.zeros(budget.restarts, dtype=int)

    eye = np.eye(dim)
    ladder_count = len(_TRIAL_LADDER)
    for _ in range(budget.iterations):
        if not live.size:
            break
        zl = z[live][:, None, :]
        probe = np.concatenate([zl + _FD_STEP * eye, zl - _FD_STEP * eye],
                               axis=1).reshape(-1, dim)
        ratios = (numerator(probe) / denominator(probe)).reshape(-1, 2 * dim)
        grad = (ratios[:, :dim] - ratios[:, dim:]) / (2.0 * _FD_STEP)
        # a stacked (1, dim) @ (dim, 1) product is the dot kernel that
        # np.linalg.norm uses, so gn matches a lone restart's bit for bit
        gn = np.sqrt((grad[:, None, :] @ grad[:, :, None])[:, 0, 0])
        finite = np.isfinite(gn)
        if not finite.all():
            live, zl = live[finite], zl[finite]
            grad, gn = grad[finite], gn[finite]
            if not live.size:
                break
        direction = np.where(gn[:, None] > 0.0,
                             grad / np.where(gn > 0.0, gn, 1.0)[:, None], 0.0)
        # gradient-ladder steps plus compass moves in one batch; the
        # compass directions survive kinks where finite differences of
        # the norms mix the smooth pieces
        el = eta[live]
        steps = el[:, None] * _TRIAL_LADDER
        trials = np.concatenate([
            zl + steps[:, :, None] * direction[:, None, :],
            zl + el[:, None, None] * eye,
            zl - el[:, None, None] * eye,
        ], axis=1).reshape(-1, dim)
        if nonneg:
            trials = np.maximum(trials, 0.0)
        gt = denominator(trials)
        ok = gt > 0.0
        scaled = trials / np.where(ok, gt, 1.0)[:, None]
        cand = np.where(ok, numerator(scaled) / denominator(scaled), -np.inf)
        cand = cand.reshape(live.size, -1)
        pick = np.argmax(cand, axis=1)
        rows = np.arange(live.size)
        top = cand[rows, pick]
        up = top > val[live]

        won = live[up]
        gain = top[up] - val[won]
        z[won] = scaled.reshape(live.size, -1, dim)[rows[up], pick[up]]
        val[won] = top[up]
        laddered = up & (pick < ladder_count)
        hit = live[laddered]
        eta[hit] = np.minimum(eta[hit] * _TRIAL_LADDER[pick[laddered]] * 1.6,
                              16.0)
        stalls[won] = 0
        quiet[won] = np.where(
            gain <= 1e-12 * np.maximum(np.abs(val[won]), 1e-300),
            quiet[won] + 1, 0)
        lost = live[~up]
        eta[lost] *= 0.3
        stalls[lost] += 1
        quiet[lost] += 1
        live = live[~((eta[live] < 1e-13) | (stalls[live] > 8)
                      | (quiet[live] > 40))]

    finals = [float(v) for v in val]
    best_val = -np.inf
    best_z = None
    for ridx, v in enumerate(finals):
        if v > best_val:
            best_val = v
            best_z = z[ridx].copy()
    agree = sum(1 for v in finals if v >= best_val * (1.0 - 1e-4) - 1e-300)
    converged = agree >= min(2, len(finals))
    return AscentResult(best_val, best_z, converged, finals)

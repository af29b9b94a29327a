"""The two mixed norms on tuples, and their checks.

For a tuple (x_1, ..., x_n) of vectors there are two natural norms built
from a sequence-norm family:

  strong:    the family norm of the vector of row norms;
  pointwise: the space norm of the lattice element produced by applying the
             family norm coordinate by coordinate (functional calculus).

Both are invariant under zero-row padding and nondecreasing in the prefix
length, which is what lets eventually-zero sequences stand in for the
infinite-dimensional objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .finite_lattice import (FiniteLattice, NormedSpace, dual_ball_pairings,
                             lattice_valued_norm)
from .seq_lattice import SeqNormFamily, as_array


def as_rows(x, dim: int | None = None) -> np.ndarray:
    """A tuple of vectors as a validated (n, dim) array."""
    return as_array(x, (None, dim), "tuple")


def strong_mixed_norm_batch(space: NormedSpace, family: SeqNormFamily,
                            tuples: np.ndarray) -> np.ndarray:
    """Family norm of the row-norm vector; leading axes are batches."""
    a = np.asarray(tuples, dtype=float)
    family.check_length(a.shape[-2])
    return family.norm_array(space.norm_array(a))


def strong_mixed_norm(space: NormedSpace, family: SeqNormFamily, rows) -> float:
    return float(strong_mixed_norm_batch(space, family, as_rows(rows, space.dim)))


def pointwise_mixed_norm_batch(space: FiniteLattice, family: SeqNormFamily,
                               tuples: np.ndarray) -> np.ndarray:
    """Space norm of the coordinatewise family norm; leading axes are batches."""
    return space.norm_array(lattice_valued_norm(family, tuples))


def pointwise_mixed_norm(space: FiniteLattice, family: SeqNormFamily, rows) -> float:
    return float(pointwise_mixed_norm_batch(space, family, as_rows(rows, space.dim)))


def mixed_norm_equivalence_check(space: FiniteLattice, family: SeqNormFamily,
                        rows, rtol: float = 1e-9):
    """Sandwich the pointwise norm by explicit multiples of the summed row norms.

    Upper constant: family norm of the all-ones vector.  Lower constant:
    the smallest canonical-vector norm divided by the tuple length.
    Leading axes of ``rows`` are batch axes: a batch gets arrays of the
    batch shape, one tuple a float, a float and a bool.
    """
    a = as_array(rows, (..., None, space.dim), "tuple")
    n = a.shape[-2]
    tau = pointwise_mixed_norm_batch(space, family, a)
    summed = space.norm_array(a).sum(axis=-1)
    constants = family.norm_array(np.vstack([np.ones(n), np.eye(n)]))
    upper, lower = constants[0], constants[1:].min() / n
    holds = ((lower * summed <= tau * (1.0 + rtol) + 1e-300)
             & (tau <= upper * summed * (1.0 + rtol) + 1e-300))
    if a.ndim == 2:
        return float(tau), float(summed), bool(holds)
    return tau, summed, holds


def tail_profile(family: SeqNormFamily, space: NormedSpace,
                 seq: np.ndarray,
                 flavor: str = "strong") -> np.ndarray:
    """Mixed norms of the tails: entry k is the norm with rows before k zeroed.

    Positions are kept (the family need not be rearrangement invariant), so
    the profile is exactly nonincreasing and vanishes once the support ends.
    """
    a = as_rows(seq, space.dim)
    n = a.shape[0]
    tails = np.broadcast_to(a, (n, n, a.shape[1])).copy()
    mask = np.arange(n)[None, :] < np.arange(n)[:, None]
    tails[mask] = 0.0
    if flavor == "strong":
        return strong_mixed_norm_batch(space, family, tails)
    if flavor == "pointwise":
        if not isinstance(space, FiniteLattice):
            raise InputError("pointwise tails need a lattice")
        return pointwise_mixed_norm_batch(space, family, tails)
    raise InputError(f"unknown tail flavor {flavor!r}")


def riesz_join_check(functionals, x, trials: int = 100, seed: int = 0,
                     tol: float = 1e-12):
    """The join of functionals evaluated on x >= 0 versus decompositions.

    The greedy split sends each coordinate of x to a functional attaining
    the coordinatewise max, which reproduces the join value exactly in an
    atomic lattice; random nonnegative splits never exceed it.
    """
    phis = as_rows(functionals)
    xv = as_array(x, (phis.shape[1],), "x")
    if np.any(xv < 0.0):
        raise InputError("x must be coordinatewise nonnegative")
    join = phis.max(axis=0)
    join_value = float(join @ xv)
    greedy = np.zeros_like(phis)
    top = phis.argmax(axis=0)
    greedy[top, np.arange(phis.shape[1])] = xv
    greedy_value = float((phis * greedy).sum())
    rng = np.random.default_rng(seed)
    worst = -np.inf
    for _ in range(trials):
        weights = rng.exponential(size=phis.shape)
        weights /= weights.sum(axis=0, keepdims=True)
        value = float((phis * (weights * xv[None, :])).sum())
        worst = max(worst, value)
    scale = max(abs(join_value), 1.0)
    equal = abs(join_value - greedy_value) <= tol * scale
    never_exceeds = worst <= join_value + tol * scale
    return join_value, greedy_value, bool(equal and never_exceeds)


@dataclass
class JoinBoundReport:
    """Sampled dual-ball joins against the pointwise mixed norm."""
    sampled_norm: float
    pointwise_norm: float
    holds: bool
    analytic_gap: float | None = None


def join_bound_check(space: FiniteLattice, family: SeqNormFamily, rows,
                     samples: int = 32, seed: int = 0,
                     rtol: float = 1e-9) -> JoinBoundReport:
    """Space norm of a sampled join of dual-ball combinations of the rows.

    Every sampled family of dual-unit-ball coefficient vectors produces a
    join dominated pointwise by the lattice-valued norm, so its space norm
    never exceeds the pointwise mixed norm.  For lp families the closed-form
    per-coordinate maximizers drive the join up to equality.
    """
    a = as_rows(rows, space.dim)
    tau = pointwise_mixed_norm(space, family, a)
    combos, winners = dual_ball_pairings(family, a, samples, seed)
    sampled = float(space.norm(np.abs(combos).max(axis=0)))
    holds = sampled <= tau * (1.0 + rtol) + 1e-300
    gap = None
    if winners is not None:
        lifted = float(space.norm((winners @ a).max(axis=0)))
        gap = abs(lifted - tau) / max(tau, 1e-300)
    return JoinBoundReport(sampled, tau, bool(holds), gap)

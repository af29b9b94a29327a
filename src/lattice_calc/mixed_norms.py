"""The two mixed norms on tuples.

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

import numpy as np

from .errors import InputError
from .finite_lattice import FiniteLattice, NormedSpace, lattice_valued_norm
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

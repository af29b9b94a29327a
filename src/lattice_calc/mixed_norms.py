"""The two mixed norms on tuples.

For a tuple (x_1, ..., x_n) of vectors there are two natural norms built
from a sequence-norm family:

  strong:    the family norm of the vector of row norms;
  pointwise: the space norm of the lattice element produced by applying the
             family norm coordinate by coordinate (functional calculus).

Both are invariant under zero-row padding and nondecreasing in the prefix
length, which is what lets eventually-zero sequences stand in for the
infinite-dimensional objects.  ``mixed_norm`` pairs each with the support
map of its unit ball, the two halves of a power step; it is the one place
that refuses the pointwise norm on a space without a lattice order.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .finite_lattice import FiniteLattice, NormedSpace, lattice_valued_norm
from .seq_lattice import SeqNormFamily, as_array, dual_witness


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


def _strong_support(space_family: SeqNormFamily, family: SeqNormFamily,
                    s: np.ndarray):
    """argmax x of sum_j <x_j, s_j> over the strong mixed-norm unit ball,
    x_j = c_j W_E(s_j) with c = W_Y((<W_E(s_j), s_j>)_j), and that max, the
    pairing <c, (<W_E(s_j), s_j>)_j>; s is (..., n, d)."""
    rows = dual_witness(space_family, s)
    pairings = np.add.reduce(rows * s, axis=-1)
    coef = dual_witness(family, pairings)
    return (coef[..., None] * rows,
            np.add.reduce(coef * pairings, axis=-1))


def _pointwise_support(space_family: SeqNormFamily, family: SeqNormFamily,
                       s: np.ndarray):
    """argmax x of sum_j <x_j, s_j> over the pointwise mixed-norm unit ball,
    and that max: the pointwise ball of E(Y) is the strong ball with the
    two families exchanged, on the transposed tuple, so x_j(w) =
    a(w) W_Y((s_j(w))_j)_j with a = W_E of the pointwise pairings."""
    x, pairing = _strong_support(family, space_family, s.swapaxes(-1, -2))
    return x.swapaxes(-1, -2), pairing


def mixed_norm(name: str, space: NormedSpace):
    """The batch norm ``(space, family, tuples)`` named "strong" or
    "pointwise", as the module name reads at call time (wrappers see it),
    and the support map ``(space family, family, s)`` of its unit ball."""
    if name == "strong":
        return strong_mixed_norm_batch, _strong_support
    if name != "pointwise":
        raise InputError(f"unknown mixed norm {name!r}, not strong/pointwise")
    if not isinstance(space, FiniteLattice):
        raise InputError(f"the pointwise mixed norm needs a lattice, "
                         f"not {space.label}")
    return pointwise_mixed_norm_batch, _pointwise_support


def tail_profile(family: SeqNormFamily, space: NormedSpace,
                 seq: np.ndarray,
                 flavor: str = "strong") -> np.ndarray:
    """Mixed norms of the tails: entry k is the norm with rows before k zeroed.

    Positions are kept (the family need not be rearrangement invariant), so
    the profile is exactly nonincreasing and vanishes once the support ends.
    """
    norm_batch, _ = mixed_norm(flavor, space)
    a = as_rows(seq, space.dim)
    n = a.shape[0]
    tails = np.broadcast_to(a, (n, n, a.shape[1])).copy()
    mask = np.arange(n)[None, :] < np.arange(n)[:, None]
    tails[mask] = 0.0
    return norm_batch(space, family, tails)

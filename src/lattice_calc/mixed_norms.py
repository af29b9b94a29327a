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

The support maps take and give tuples with the restarts first, (..., n, d),
as the power step's matrix products do.  For lp families and rows of fewer
than 8 coordinates they run ``_lp_support``, a kernel on a restart-last
copy, where each sum over a row's coordinates or over the rows is one pass
over an outer axis.  Its bits and its output layout are those of
``_witness_support``, the ``dual_witness`` composition, on the C-ordered
batch, wherever a pairing is finite: numpy sums a contiguous axis
pairwise and a strided one in sequence, the two orders agree below 8
terms, and ``_sum_first`` runs the kernel's longer sums pairwise.  Other
families and longer rows run ``_witness_support`` itself.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError
from .finite_lattice import FiniteLattice, NormedSpace, lattice_valued_norm
from .seq_lattice import (LpFamily, SeqNormFamily, as_array, dual_witness,
                          strip_trailing_zeros)


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


def _sum_first(a: np.ndarray, p=None) -> np.ndarray:
    """Sum over axis 0 of a (of a ** p when p is given), kept as an axis, in
    the order numpy sums a contiguous last axis: pairwise, which below 8
    terms is the sequential order of any axis, so only longer sums run on
    a contiguous copy, a power sum without the batch's trailing zero
    coordinates (``strip_trailing_zeros``), as ``dual_witness`` sums."""
    if len(a) < 8:
        return np.add.reduce(a if p is None else a ** p, axis=0,
                             keepdims=True)
    c = np.ascontiguousarray(a.T)
    if p is not None:
        c = strip_trailing_zeros(c) ** p
    return np.add.reduce(c, axis=-1, keepdims=True).T


def _lp_support(inner: LpFamily, outer: LpFamily, t: np.ndarray):
    """The restart-last kernel of both support maps: t is (k, j, ...), the
    k < 8 coordinates of each of j rows first and the batch (the restarts)
    last, so each reduction is one pass over an outer axis.  It returns
    x = W(c)_j W(t_j), with W the ``dual_witness`` of the inner and then
    of the outer family and c the pairings <W(t_j), t_j>, and the pairing
    <W(c), c>, bit for bit as ``_witness_support`` on the C-ordered batch
    wherever the pairing is finite.  A restart with a NaN or infinite
    entry, or whose pairing overflows, gets a NaN or infinite pairing.
    The guards of ``dual_witness`` run only for a level with a zero row; a
    one-entry row's witness is its sign, or 1 at zero, so at j = 1 W(c) is
    exactly 1."""
    a, witnesses = t, []
    for family in (inner, outer):
        if witnesses and len(a) == 1:  # W(c) = 1 and <W(c), c> = c
            a = a[0]
            break
        if len(a) > 1 and 1.0 < family.p < math.inf:
            mags = np.abs(a)
            top = np.maximum.reduce(mags, axis=0)
            zero = (None if np.minimum.reduce(top, axis=None) > 0.0
                    else top == 0.0)
            prof = mags / (top if zero is None else np.where(zero, 1.0, top))
            if family._q_minus_1 != 1.0:
                prof = prof ** family._q_minus_1
            nrm = _sum_first(prof, family.p) ** family._inv_p
            alpha = prof / (nrm if zero is None
                            else np.where(nrm > 0.0, nrm, 1.0)) * np.sign(a)
        else:  # l1 or linf rows, or one-entry rows, whose witness is a sign
            if len(a) > 1 and family.p == 1.0:
                first = np.arange(len(a)).reshape((-1,) + (1,) * (a.ndim - 1))
                alpha = (abs(a).argmax(axis=0) == first) * np.sign(a)
            else:
                alpha = np.sign(a)
            zero = (None if np.count_nonzero(a) == a.size
                    else ~np.logical_or.reduce(a, axis=0))
        if zero is not None:
            alpha[:1][zero[None]] = 1.0  # e_0 for a zero row
        witnesses.append(alpha)
        a = _sum_first(alpha * a)[0]
    if len(witnesses) == 1:
        return witnesses[0], a
    rows, coef = witnesses
    return coef * rows, a


def _witness_support(space_family: SeqNormFamily, family: SeqNormFamily,
                     s: np.ndarray):
    """argmax x of sum_j <x_j, s_j> over the strong mixed-norm unit ball,
    x_j = c_j W_E(s_j) with c = W_Y((<W_E(s_j), s_j>)_j), and that max, the
    pairing <c, (<W_E(s_j), s_j>)_j>; s is (..., n, d).  Any families, and
    sums in the order s's memory gives them."""
    rows = dual_witness(space_family, s)
    pairings = np.add.reduce(rows * s, axis=-1)
    coef = dual_witness(family, pairings)
    return (coef[..., None] * rows,
            np.add.reduce(coef * pairings, axis=-1))


def _strong_support(space_family: SeqNormFamily, family: SeqNormFamily,
                    s: np.ndarray):
    """``_witness_support`` of a C-ordered s (..., n, d), bit for bit
    where the pairing is finite and layout for layout, whatever the layout
    of s; lp families with d < 8 run ``_lp_support``, on a restart-last
    copy of s."""
    if s.shape[-1] < 8 and type(space_family) is type(family) is LpFamily:
        x, pairing = _lp_support(space_family, family,
                                 np.ascontiguousarray(s.T))
        return np.ascontiguousarray(x.T), pairing.T
    return _witness_support(space_family, family, np.ascontiguousarray(s))


def _pointwise_support(space_family: SeqNormFamily, family: SeqNormFamily,
                       s: np.ndarray):
    """argmax x of sum_j <x_j, s_j> over the pointwise mixed-norm unit ball,
    and that max: the pointwise ball of E(Y) is the strong ball with the
    two families exchanged, on the transposed tuple, so x_j(w) =
    a(w) W_Y((s_j(w))_j)_j with a = W_E of the pointwise pairings.  Bits
    (where the pairing is finite) and layout are those
    ``_witness_support`` gives the transposed view of a C-ordered s; lp
    families with n < 8 run ``_lp_support``, where each fiber (s_j(w))_j
    is a row.  The l1 fiber witness of ``_witness_support`` is a fresh
    one-hot array, so x comes out contiguous along the fibers there."""
    if s.shape[-2] < 8 and type(space_family) is type(family) is LpFamily:
        x, pairing = _lp_support(family, space_family,
                                 np.ascontiguousarray(s.T.swapaxes(0, 1)))
        if family.p == 1.0:
            return np.ascontiguousarray(x.T).swapaxes(-1, -2), pairing.T
        return np.ascontiguousarray(x.swapaxes(0, 1).T), pairing.T
    x, pairing = _witness_support(family, space_family,
                                  np.ascontiguousarray(s).swapaxes(-1, -2))
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

"""Finite-dimensional normed spaces and atomic Banach lattices.

A lattice here is R^m with the coordinatewise order and a monotone norm.
Coordinate evaluations are lattice homomorphisms, so the functional calculus
of a degree-1 homogeneous h applied to a tuple (x_1, ..., x_n) is exactly
the pointwise evaluation omega -> h(x_1[omega], ..., x_n[omega]).  That
makes projection recovery, composition identities and order preservation
exact, not approximate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionMismatchError, InputError
from .seq_lattice import SeqNormFamily, as_array, kothe_dual


class NormedSpace:
    """R^dim carrying a norm family restricted to its dimension."""

    def __init__(self, dim: int, family: SeqNormFamily, label: str | None = None):
        if dim < 1:
            raise InputError(f"dimension must be positive, got {dim}")
        family.check_length(dim)
        self.dim = dim
        self.family = family
        self.label = label or f"({family.label})^{dim}"

    def norm_array(self, vectors: np.ndarray) -> np.ndarray:
        a = np.asarray(vectors, dtype=float)
        if a.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"{self.label}: expected vectors of length {self.dim}, "
                f"got {a.shape[-1]}")
        return self.family.norm_array(a)

    def norm(self, x) -> float:
        return float(self.norm_array(as_array(x, (self.dim,), "vector")))

    def dual(self) -> "NormedSpace":
        """Same coordinates, Koethe-dual norm; a lattice's dual is a lattice."""
        return type(self)(self.dim, kothe_dual(self.family), self.label + "*")

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class FiniteLattice(NormedSpace):
    """Normed space whose order is coordinatewise; the norm must be monotone."""


def lattice(dim: int, family: SeqNormFamily, label: str | None = None) -> FiniteLattice:
    return FiniteLattice(dim, family, label)


@dataclass
class HomogeneousFunction:
    """Continuous h: R^arity -> R with h(t*x) = t*h(x) for t >= 0; ``func``
    is batched, mapping (..., arity) arrays to (...) arrays."""
    arity: int
    func: Callable[[np.ndarray], np.ndarray]
    label: str

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return self.func(np.asarray(points, dtype=float))


def projection(arity: int, index: int) -> HomogeneousFunction:
    if not 0 <= index < arity:
        raise InputError(f"projection index {index} outside arity {arity}")
    return HomogeneousFunction(
        arity, lambda a: np.asarray(a, float)[..., index],
        f"proj[{index}/{arity}]")


def norm_function(family: SeqNormFamily, arity: int) -> HomogeneousFunction:
    family.check_length(arity)
    return HomogeneousFunction(arity, family.norm_array,
                               f"norm[{family.label}/{arity}]")


def homogeneous(func: Callable, arity: int,
                label: str = "h") -> HomogeneousFunction:
    """Wrap a user function that maps (..., arity) arrays to (...) arrays.

    Degree-1 positive homogeneity is probed on seeded (scale, point) pairs
    at construction; violations are rejected with the worst deviation.
    """
    rng = np.random.default_rng(190558)
    pts = rng.standard_normal((256, arity)) * 2.0
    lam = rng.uniform(0.0, 4.0, 256)
    base = np.asarray(func(pts), dtype=float)
    scaled = np.asarray(func(lam[:, None] * pts), dtype=float)
    err = np.abs(scaled - lam * base)
    worst = float((err / np.maximum(np.abs(lam * base), 1e-12)).max())
    if not np.all(np.isfinite(scaled)) or worst > 1e-9:
        raise InputError(
            f"{label} is not positively homogeneous of degree 1 "
            f"(worst relative deviation {worst:.3e} on sampled pairs)")
    return HomogeneousFunction(arity, func, label)


def compose(outer: HomogeneousFunction,
            inner: Sequence[HomogeneousFunction]) -> HomogeneousFunction:
    """outer(inner_1, ..., inner_k) as a single homogeneous function."""
    if len(inner) != outer.arity:
        raise DimensionMismatchError(
            f"outer arity {outer.arity} does not match {len(inner)} inner maps")
    arities = {g.arity for g in inner}
    if len(arities) != 1:
        raise DimensionMismatchError("inner maps must share one arity")
    arity = arities.pop()

    def func(a):
        stacked = np.stack([g.func(a) for g in inner], axis=-1)
        return outer.func(stacked)

    return HomogeneousFunction(arity, func,
                               f"{outer.label}o({len(inner)} maps)")


def krivine_apply(h: HomogeneousFunction, rows) -> np.ndarray:
    """Apply h to a tuple of lattice elements, coordinate by coordinate."""
    a = as_array(rows, (h.arity, None), "tuple")
    return h.func(a.T)


def lattice_valued_norm(family: SeqNormFamily, rows) -> np.ndarray:
    """The lattice element omega -> family norm of (x_1[omega], ..., x_n[omega])."""
    a = np.asarray(rows, dtype=float)
    if a.ndim < 2:
        raise InputError(f"expected tuples of shape (..., n, m), got {a.shape}")
    family.check_length(a.shape[-2])
    return family.norm_array(a.swapaxes(-2, -1))

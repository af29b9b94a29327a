"""Linear operators as matrices with normed domain and codomain.

Transposition swaps the matrix and replaces each side by its dual space.
``ratio_problem`` builds the power problem for the ratio of a mixed norm
of T x to a mixed norm of x over n-tuples; the convexity and concavity
constants are its two mixed pairings, and the operator norm is its
strong/strong case at n = 1, where both mixed norms are the side norms.
Operator norms are power-method estimates (lower bounds attained by their
witnesses); the ``verify`` checks that consume one are arranged so an
underestimate cannot fake a pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .finite_lattice import NormedSpace
from .mixed_norms import mixed_norm
from .optimize import AscentBudget, AscentResult, maximize_ratio
from .seq_lattice import LpFamily, SeqNormFamily, as_array, kothe_dual


@dataclass
class OperatorInstance:
    """A matrix mapping the domain space into the codomain space."""
    matrix: np.ndarray
    domain: NormedSpace
    codomain: NormedSpace
    label: str = "T"

    def __post_init__(self):
        m = np.array(as_array(self.matrix, (self.codomain.dim, self.domain.dim),
                              "operator matrix"))
        m.setflags(write=False)
        self.matrix = m

    @property
    def in_dim(self) -> int:
        return self.domain.dim


def apply_n(op: OperatorInstance, rows) -> np.ndarray:
    """Rowwise application to a tuple; leading axes are batches."""
    a = np.asarray(rows, dtype=float)
    if a.shape[-1] != op.in_dim:
        raise DimensionMismatchError(
            f"tuple rows of length {a.shape[-1]} fed to operator on R^{op.in_dim}")
    return a @ op.matrix.T


def transpose(op: OperatorInstance) -> OperatorInstance:
    return OperatorInstance(op.matrix.T.copy(), op.codomain.dual(),
                            op.domain.dual(), op.label + "*")


def ratio_problem(op: OperatorInstance, family: SeqNormFamily, top: str,
                  bottom: str, n: int):
    """(numerator, denominator, lift, pull) of ``maximize_ratio`` for the
    ``top`` mixed norm of T x over the ``bottom`` mixed norm of x, x an
    n-tuple flattened to a row: the lift is the numerator's dual support
    at T x with its pairing, the pull the denominator's support at y T."""
    top_norm, top_support = mixed_norm(top, op.codomain)
    bottom_norm, bottom_support = mixed_norm(bottom, op.domain)
    mat, din, dom = op.matrix, op.in_dim, op.domain.family
    cod_dual, fam_dual = kothe_dual(op.codomain.family), kothe_dual(family)

    # stacked (n, d) @ (d, m) products: each restart's arithmetic is then
    # independent of how many restarts share the batch
    def image(z):
        return z.reshape(-1, n, din) @ mat.T

    def numer(z):
        return top_norm(op.codomain, family, image(z))

    def denom(z):
        return bottom_norm(op.domain, family, z.reshape(-1, n, din))

    def lift(z):
        return top_support(cod_dual, fam_dual, image(z))

    def pull(y):
        return bottom_support(dom, family, y @ mat)[0].reshape(len(y), -1)
    return numer, denom, lift, pull


def operator_norm(op: OperatorInstance, budget: AscentBudget | None = None,
                  seed: int = 0, extra_inits=()) -> AscentResult:
    """Power-method estimate of sup ||Tw|| / ||w||, a lower bound attained by
    its argmax: the level-1 strong/strong ratio, whose step is
    w -> W_E(T^t W_{X*}(Tw)), with W the support maps, and
    <W_{X*}(Tw), Tw> = ||Tw|| is the pairing that tests each step."""
    numer, denom, lift, pull = ratio_problem(op, LpFamily(1), "strong",
                                             "strong", 1)
    inits = [row for row in np.eye(op.in_dim)]
    inits.extend(np.asarray(e, dtype=float).ravel() for e in extra_inits)
    return maximize_ratio(numer, denom, op.in_dim, seed=seed,
                          budget=budget or AscentBudget(restarts=16, iterations=300),
                          inits=inits, lift=lift, pull=pull)

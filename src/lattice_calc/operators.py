"""Linear operators as matrices with normed domain and codomain.

Transposition swaps the matrix and replaces each side by its dual space.
Operator norms are power-method estimates (certified lower bounds); the
``verify`` checks that consume one are arranged so an underestimate cannot
fake a pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .finite_lattice import NormedSpace
from .optimize import AscentBudget, AscentResult, maximize_ratio
from .seq_lattice import as_array, dual_witness, kothe_dual


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


def operator_norm(op: OperatorInstance, budget: AscentBudget | None = None,
                  seed: int = 0, extra_inits=()) -> AscentResult:
    """Power-method estimate of sup ||Tw|| / ||w||, a certified lower bound;
    the step is w -> W_E(T^t W_{X*}(Tw)), with W the support maps, and
    <W_{X*}(Tw), Tw> = ||Tw|| is the pairing that tests each step."""
    mat, mat_t = op.matrix, op.matrix.T
    dom, cod = op.domain.family, op.codomain.family
    cod_dual = kothe_dual(cod)

    # stacked (1, d) @ (d, m) products: each restart's arithmetic is then
    # independent of how many restarts share the batch
    def image(z):
        return (z[:, None, :] @ mat_t)[:, 0]

    def numer(z):
        return cod.norm_array(image(z))

    def lift(z):
        tz = image(z)
        y_star = dual_witness(cod_dual, tz)
        return y_star, np.add.reduce(y_star * tz, axis=-1)

    def pull(y_star):
        return dual_witness(dom, (y_star[:, None, :] @ mat)[:, 0])

    inits = [row for row in np.eye(op.in_dim)]
    inits.extend(np.asarray(e, dtype=float).ravel() for e in extra_inits)
    return maximize_ratio(numer, op.domain.norm_array, op.in_dim, seed=seed,
                          budget=budget or AscentBudget(restarts=16, iterations=300),
                          inits=inits, lift=lift, pull=pull)

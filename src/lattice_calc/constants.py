"""Convexity and concavity constants of operators, and their duality.

The convexity constant of T at truncation level n is the best ratio of the
pointwise mixed norm of the lifted tuple to the strong mixed norm of the
original; the concavity constant swaps the roles.  Both are suprema over
tuples, estimated from below by a power iteration over the support maps of
the mixed-norm unit balls with seeded restarts, or, on tiny instances, by
an exhaustive spherical grid.  Every reported value is a lower bound
attained by its witness; nothing here proves an upper bound.  ``_SIDES``
names each flavor's two mixed norms once, and ``operators.ratio_problem``
builds the ratio from them.  Duality ties the two flavors together: the
level-n convexity bound of T and the level-n concavity bound of its
transpose (under the dual family) estimate the same number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, ScaleGuardError
from .finite_lattice import FiniteLattice, NormedSpace
from .mixed_norms import as_rows, mixed_norm
from .operators import OperatorInstance, ratio_problem, transpose
from .optimize import AscentBudget, maximize_ratio
from .seeding import substream_normals
from .seq_lattice import SeqNormFamily, kothe_dual

# per flavor, the mixed norm of T x (top) and that of x (bottom)
_SIDES = {"convexity": ("pointwise", "strong"),
          "concavity": ("strong", "pointwise")}
# brute_force_constant's zoom passes and its cap on grid points
_REFINE_PASSES = 3
_MAX_EVALUATIONS = 3_000_000
# estimate_constant's cap on the entries of its deepest tuple and its image
_MAX_TUPLE_ENTRIES = 10_000_000


@dataclass
class LevelBound:
    n: int
    value: float
    witness: np.ndarray
    converged: bool


@dataclass
class ConstantEstimate:
    """Per-level lower bounds with witnesses and optimizer metadata."""
    flavor: str
    family_label: str
    operator_label: str
    per_n: list[LevelBound]
    optimizer: dict

    @property
    def overall(self) -> float:
        return max(b.value for b in self.per_n)

    def to_record(self) -> dict:
        return {
            "flavor": self.flavor,
            "family": self.family_label,
            "operator": self.operator_label,
            "overall": self.overall,
            "per_n": [{"n": b.n, "lower_bound": b.value,
                       "converged": b.converged,
                       "witness": b.witness.tolist()} for b in self.per_n],
            "optimizer": self.optimizer,
        }


def _sides(flavor: str) -> tuple[str, str]:
    if flavor not in _SIDES:
        raise InputError(f"unknown flavor {flavor!r}, not in {tuple(_SIDES)}")
    return _SIDES[flavor]


def _tuple_ratio(op: OperatorInstance, family: SeqNormFamily, rows,
                 flavor: str) -> float:
    top, bottom = _sides(flavor)
    a = as_rows(rows, op.in_dim)
    numer, denom, _, _ = ratio_problem(op, family, top, bottom, len(a))
    z = a.reshape(1, -1)
    scale = float(denom(z)[0])
    if scale <= 0.0:
        raise InputError(f"tuple has zero {bottom} mixed norm")
    return float(numer(z)[0]) / scale


def convexity_ratio(op: OperatorInstance, family: SeqNormFamily, rows) -> float:
    """Pointwise mixed norm of the lifted tuple over the strong mixed norm."""
    return _tuple_ratio(op, family, rows, "convexity")


def concavity_ratio(op: OperatorInstance, family: SeqNormFamily, rows) -> float:
    """Strong mixed norm of the lifted tuple over the pointwise mixed norm."""
    return _tuple_ratio(op, family, rows, "concavity")


def _cyclic_tuple(n: int, din: int) -> np.ndarray:
    """The n-tuple whose row j is the canonical vector e_(j mod din)."""
    cyc = np.zeros((n, din))
    cyc[np.arange(n), np.arange(n) % din] = 1.0
    return cyc


def _structured_tuples(n: int, din: int, normals: np.ndarray) -> list[np.ndarray]:
    """Start tuples: cycled canonical rows, a rank-one tuple along the first
    ``din`` of ``normals``, a single spike along the next ``din``."""
    starts = [_cyclic_tuple(n, din)]
    starts.append(np.tile(normals[:din], (n, 1)))
    spike = np.zeros((n, din))
    spike[0] = normals[din:2 * din]
    starts.append(spike)
    return starts


def estimate_constant(op: OperatorInstance, family: SeqNormFamily, flavor: str,
                      n_max: int, budget: AscentBudget | None = None,
                      seed: int = 0) -> ConstantEstimate:
    """Per-level lower bounds by power iteration, nondecreasing in the level.

    Level n + 1 is seeded with the level-n witness padded by a zero row, so
    the reported bounds inherit the prefix monotonicity of the mixed norms
    exactly.  Deterministic for a fixed seed.  Where n_max times the
    larger of T's two dimensions exceeds _MAX_TUPLE_ENTRIES, it raises
    ScaleGuardError before anything is drawn.
    """
    top, bottom = _sides(flavor)
    if n_max < 1:
        raise InputError(f"n_max must be positive, got {n_max}")
    if n_max * max(op.matrix.shape) > _MAX_TUPLE_ENTRIES:
        m, d = op.matrix.shape
        raise ScaleGuardError(f"{n_max} levels of a {m} x {d} operator exceed "
                              f"the cap of {_MAX_TUPLE_ENTRIES} tuple entries")
    budget = budget or AscentBudget()
    budget.validate()
    family.check_length(n_max)
    din = op.in_dim
    bounds: list[LevelBound] = []
    level_normals = substream_normals(seed, range(n_max), 2 * din)
    for n in range(1, n_max + 1):
        numer, denom, lift, pull = ratio_problem(op, family, top, bottom, n)
        inits = []
        if bounds:
            prev = bounds[-1]
            inits.append(np.vstack([prev.witness, np.zeros((1, din))]))
        inits.extend(_structured_tuples(n, din, level_normals[n - 1]))
        result = maximize_ratio(numer, denom, n * din, seed=seed + 7919 * n,
                                budget=budget, inits=inits, lift=lift,
                                pull=pull)
        value = result.value
        witness = result.argmax.reshape(n, din)
        if bounds and bounds[-1].value > value:
            value = bounds[-1].value
            witness = np.vstack([bounds[-1].witness, np.zeros((1, din))])
        bounds.append(LevelBound(n, float(value), witness, result.converged))
    meta = {"restarts": budget.restarts, "iterations": budget.iterations,
            "seed": seed, "method": "power-iteration"}
    return ConstantEstimate(flavor, family.label, op.label, bounds, meta)


def _sphere_from_angles(angles: np.ndarray, dim: int) -> np.ndarray:
    """Spherical coordinates to euclidean points; angles has shape (..., dim-1)."""
    if dim == 1:
        return np.ones(angles.shape[:-1] + (1,))
    out = np.empty(angles.shape[:-1] + (dim,))
    sines = np.ones(angles.shape[:-1])
    for k in range(dim - 1):
        out[..., k] = sines * np.cos(angles[..., k])
        sines = sines * np.sin(angles[..., k])
    out[..., dim - 1] = sines
    return out


def brute_force_constant(op: OperatorInstance, family: SeqNormFamily,
                         flavor: str, n: int,
                         grid_resolution: int = 25) -> ConstantEstimate:
    """Exhaustive spherical-grid search; a lower bound attained by its witness.

    Rows run over an angular grid of the domain unit sphere and relative row
    magnitudes over the positive part of the family unit sphere.  Each
    refinement pass re-grids the cell around the best point at the same
    resolution.  Every evaluated point is an attained ratio, so the best
    value is a lower bound attained by its witness; the grid proves no
    upper bound.
    """
    numer, denom, _, _ = ratio_problem(op, family, *_sides(flavor), n)
    din = op.in_dim
    if n < 1:
        raise InputError(f"n must be positive, got {n}")
    if n * din > 6:
        raise ScaleGuardError(
            f"brute force limited to n * d <= 6, got {n} * {din}")
    if grid_resolution < 3:
        raise InputError("grid_resolution must be at least 3")
    family.check_length(n)

    axes = []
    spacings = []
    # one block of d-1 angles per row: polar in [0, pi], final azimuthal
    for _ in range(n):
        for k in range(din - 1):
            if k < din - 2:
                axes.append(np.linspace(0.0, math.pi, grid_resolution))
                spacings.append(math.pi / (grid_resolution - 1))
            else:
                axes.append(np.linspace(0.0, 2.0 * math.pi, grid_resolution,
                                        endpoint=False))
                spacings.append(2.0 * math.pi / grid_resolution)
    # n-1 angles for the positive part of the magnitude sphere
    for _ in range(n - 1):
        axes.append(np.linspace(0.0, math.pi / 2.0, grid_resolution))
        spacings.append((math.pi / 2.0) / (grid_resolution - 1))

    total = int(np.prod([len(ax) for ax in axes])) if axes else 1
    if total > _MAX_EVALUATIONS:
        raise ScaleGuardError(
            f"grid would need {total} evaluations (cap {_MAX_EVALUATIONS})")

    row_block = n * (din - 1)

    def evaluate(angle_table: np.ndarray):
        points = angle_table.shape[0]
        rows = _sphere_from_angles(
            angle_table[:, :row_block].reshape(points, n, max(din - 1, 0)), din)
        rnorm = op.domain.norm_array(rows)
        rows = rows / rnorm[..., None]
        scales = np.abs(_sphere_from_angles(angle_table[:, row_block:], n))
        snorm = family.norm_array(scales)
        scales = scales / snorm[..., None]
        tuples = scales[..., None] * rows
        flat = tuples.reshape(points, n * din)
        return numer(flat) / denom(flat), tuples

    if axes:
        mesh = np.meshgrid(*axes, indexing="ij")
        angle_table = np.stack([m.ravel() for m in mesh], axis=-1)
    else:
        angle_table = np.zeros((1, 0))
    values, tuples = evaluate(angle_table)
    evaluations = angle_table.shape[0]

    best = int(values.argmax())
    lower = float(values[best])
    witness = tuples[best]

    # zoom into the best cell; attained values only, so still a lower bound
    if axes:
        center = angle_table[best]
        widths = np.asarray(spacings, dtype=float)
        for _ in range(_REFINE_PASSES):
            local = [np.linspace(c - w, c + w, grid_resolution)
                     for c, w in zip(center, widths)]
            mesh = np.meshgrid(*local, indexing="ij")
            table = np.stack([m.ravel() for m in mesh], axis=-1)
            vals, tups = evaluate(table)
            evaluations += table.shape[0]
            pick = int(vals.argmax())
            if vals[pick] > lower:
                lower = float(vals[pick])
                witness = tups[pick]
            center = table[pick]
            widths = widths * (2.0 / (grid_resolution - 1))

    meta = {"grid_resolution": grid_resolution, "angles": len(axes),
            "evaluations": evaluations, "spacings": spacings,
            "refine_passes": _REFINE_PASSES, "method": "spherical-grid"}
    bound = LevelBound(n, lower, witness, True)
    return ConstantEstimate(flavor, family.label, op.label, [bound], meta)


@dataclass
class FunctionalNormResult:
    value: float
    witness: np.ndarray


def functional_norm(space: NormedSpace, family: SeqNormFamily, functionals,
                    flavor: str = "strong") -> FunctionalNormResult:
    """Norm of x -> sum_j <x_j, s_j> on the chosen mixed-norm unit ball.

    ``flavor`` picks the ball: "strong" for the row-norm mixed norm,
    "pointwise" for the functional-calculus one (lattice required).  The
    functional is linear, so its norm is its value at the support map of
    the ball at s, rescaled onto the unit sphere: a lower bound attained by
    that witness, exact for lp-type families.
    """
    s = as_rows(functionals, space.dim)
    family.check_length(s.shape[0])
    norm_batch, support = mixed_norm(flavor, space)
    best, _ = support(space.family, family, s)
    witness = best / norm_batch(space, family, best[None])[0]
    value = abs(float((witness * s).sum()))
    return FunctionalNormResult(value, witness)


@dataclass
class DualityReport:
    convex_n: float
    concave_dual_n: float
    rel_gap: float
    converged: bool


def duality_check(op: OperatorInstance, family: SeqNormFamily, n: int,
                  budget: AscentBudget | None = None,
                  seed: int = 0) -> DualityReport:
    """Level-n convexity bound of T against the level-n concavity bound of
    its transpose with the dual family; both optimizers share the budget.

    Two lower bounds that agree prove nothing about the sup, so the report
    is converged only when both level-n searches converged."""
    conv = estimate_constant(op, family, "convexity", n, budget, seed)
    conc = estimate_constant(transpose(op), kothe_dual(family), "concavity",
                             n, budget, seed)
    a = conv.per_n[-1].value
    b = conc.per_n[-1].value
    gap = abs(a - b) / max(a, b, 1e-300)
    converged = conv.per_n[-1].converged and conc.per_n[-1].converged
    return DualityReport(a, b, gap, converged)


def lattice_constants(space: FiniteLattice, family: SeqNormFamily, n_max: int,
                      budget: AscentBudget | None = None, seed: int = 0):
    """Convexity and concavity constants of the identity on the lattice."""
    ident = OperatorInstance(np.eye(space.dim), space, space,
                             label=f"id[{space.label}]")
    return (estimate_constant(ident, family, "convexity", n_max, budget, seed),
            estimate_constant(ident, family, "concavity", n_max, budget, seed))

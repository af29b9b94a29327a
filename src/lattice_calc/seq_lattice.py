"""Monotone sequence-norm families and their Koethe duals.

A family assigns a lattice (monotone) norm to R^n for every n, consistently
under zero padding.  Built-ins: lp, weighted lp, Orlicz (Luxemburg norm) and
custom oracles.  Koethe duals are closed-form for the lp-type families,
the Amemiya (Orlicz) norm of the complementary gauge for a Luxemburg norm,
and otherwise lower bounds, attained by their witnesses, obtained by ascent
over the positive part of the unit sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DescriptorError, DimensionMismatchError, InputError
from .seeding import substream_normals

# Step ceiling of every bracketed Newton solve (``_bracketed_newton``): the
# Luxemburg norm, and the Amemiya dual's level k and its phi'(u) = k|b_i|.
NEWTON_STEPS = 16

# kothe_dual_norm's positive-sphere ascent: starts in all and iterations
_DUAL_RESTARTS = 32
_DUAL_ITERATIONS = 300

_GAUGE_GRID_MAX = 8.0
_CONVEXITY_PAIRS = 1000
_CONVEXITY_SLACK = 1e-12


def strip_trailing_zeros(values: np.ndarray) -> np.ndarray:
    """Drop trailing coordinates that vanish across the whole batch.

    Finite vectors represent eventually-zero sequences, so trailing zeros
    are representation artifacts; removing them before any reduction makes
    zero-padding invariance bitwise exact regardless of summation order.
    Keeps at least one coordinate (a NaN is not a zero); returns ``values``
    itself when its last column has a nonzero entry, else a view of it.
    """
    a = values
    n = a.shape[-1]
    keep = n
    while keep > 1 and not np.count_nonzero(a[..., keep - 1]):
        keep -= 1
    return a[..., :keep] if keep < n else a


def as_array(x, shape: tuple, what: str = "input") -> np.ndarray:
    """``x`` as a nonempty, finite float array of the given shape.

    ``shape`` has one entry per axis: a length, or None for any length; a
    leading ``...`` stands for any number of batch axes of any length.
    Entries that are not real numbers, empty or non-finite input raise
    InputError; a length other than a fixed one, DimensionMismatchError.
    """
    try:
        a = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must hold real numbers: {exc}") from None
    if shape[:1] == (...,):
        shape = (None,) * (a.ndim - len(shape) + 1) + shape[1:]
    if a.ndim != len(shape) or a.size == 0:
        raise InputError(f"expected a nonempty {len(shape)}-d {what}, "
                         f"got shape {a.shape}")
    for got, want in zip(a.shape, shape):
        if want is not None and got != want:
            raise DimensionMismatchError(
                f"{what} has shape {a.shape}, expected "
                f"{tuple('*' if w is None else w for w in shape)}")
    if not np.all(np.isfinite(a)):
        raise InputError(f"{what} has non-finite entries")
    return a


_REQUIRED = object()
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string",
               list: "an array", dict: "an object"}


def config_field(obj: dict, key: str, kind, default=_REQUIRED, *,
                 low=None, where: str = "config"):
    """``obj[key]`` checked against ``kind``; ``default`` when it is absent.

    ``kind`` is int, float, str, list or dict, or a tuple of them.  An int
    passes as a float, a bool never passes as a number, and ``low`` bounds
    numbers from below; every violation raises DescriptorError.  A float
    field comes back as a float.
    """
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if key not in obj:
        if default is _REQUIRED:
            raise DescriptorError(f"{where} is missing required field {key!r}")
        return default
    value = obj[key]
    accepted = tuple(t for k in kinds for t in ((int, float) if k is float
                                                else (k,)))
    if isinstance(value, bool) or not isinstance(value, accepted):
        problem = "must be " + " or ".join(_KIND_NAMES[k] for k in kinds)
    elif low is not None and not value >= low:  # NaN included
        problem = f"must be at least {low}"
    else:
        return float(value) if kinds == (float,) else value
    raise DescriptorError(f"{where} field {key!r} {problem}, got {value!r}")


class SeqNormFamily:
    """Family of monotone norms, one per dimension, consistent under padding."""

    def __init__(self, label: str):
        self.label = label

    def norm_array(self, values: np.ndarray) -> np.ndarray:
        """Norm along the last axis; leading axes are batch dimensions."""
        raise NotImplementedError

    def norm(self, t) -> float:
        """Norm of a single finite vector."""
        v = as_array(t, (None,), "vector")
        self.check_length(v.shape[-1])
        return float(self.norm_array(v))

    def norm_gradient(self, values: np.ndarray,
                      norms: np.ndarray | None = None) -> np.ndarray:
        """(Sub)gradient of the norm along the last axis.

        Central finite differences unless a subclass has a closed form; at
        kinks this returns some supporting direction, which is all the
        ascent routines need.  ``norms`` may carry precomputed norms of the
        rows to spare closed forms a recomputation.
        """
        a = np.asarray(values, dtype=float)
        h = 1e-6 * np.eye(a.shape[-1])
        plus = self.norm_array(a[..., None, :] + h)
        minus = self.norm_array(a[..., None, :] - h)
        return (plus - minus) / 2e-6

    def max_length(self) -> Optional[int]:
        """Largest supported vector length, or None when unbounded."""
        return None

    def check_length(self, n: int) -> None:
        if n < 1:
            raise InputError("vector length must be at least 1")
        lim = self.max_length()
        if lim is not None and n > lim:
            raise InputError(
                f"{self.label}: length {n} exceeds the {lim} coordinates "
                f"covered by this family")

    def unit_vector_norm(self, index: int, length: int) -> float:
        e = np.zeros(length)
        e[index] = 1.0
        return self.norm(e)

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class LpFamily(SeqNormFamily):
    """The lp scale, 1 <= p <= inf, with dedicated sum/max formulas at the ends.

    For 1 < p < inf a row is divided by its max before the power sum, so
    no row overflows; a zero row has norm 0 and a NaN row NaN.  ``1/p`` and
    the conjugate's ``q - 1`` are computed once, for ``dual_witness`` too.
    """

    def __init__(self, p):
        p = float(p)
        if math.isnan(p) or p < 1.0:
            raise InputError(f"lp exponent must satisfy p >= 1, got {p}")
        self.p = p
        self._inv_p = 1.0 / p
        self._q_minus_1 = conjugate_exponent(p) - 1.0
        super().__init__("linf" if p == math.inf else f"l{p:g}")

    def norm_array(self, values):
        a = strip_trailing_zeros(np.abs(np.asarray(values, dtype=float)))
        if a.shape[-1] == 0:
            raise InputError("empty vector")
        if self.p == math.inf:
            return np.maximum.reduce(a, axis=-1)
        if self.p == 1.0:
            return np.add.reduce(a, axis=-1)
        m = np.maximum.reduce(a, axis=-1, keepdims=True)
        # zero rows are found by equality, so a row with a NaN stays NaN;
        # without a zero row both np.where below are identities
        zero = None if np.count_nonzero(m) == m.size else m == 0.0
        scale = m if zero is None else np.where(zero, 1.0, m)
        # the root is taken on an array even for one vector: numpy's scalar
        # pow can differ in the last bit from its array pow on a batch row
        body = scale * np.add.reduce((a / scale) ** self.p, axis=-1,
                                     keepdims=True) ** self._inv_p
        return (body if zero is None else np.where(zero, 0.0, body))[..., 0]

    def norm_gradient(self, values, norms=None):
        a = np.asarray(values, dtype=float)
        if self.p == 1.0:
            # subgradient choice +1 at zeros keeps ascent on the positive face
            return np.where(a < 0.0, -1.0, 1.0)
        if self.p == math.inf:
            mags = np.abs(a)
            top = mags.argmax(axis=-1)
            g = np.zeros_like(a)
            idx = np.indices(top.shape)
            g[(*idx, top)] = np.sign(np.take_along_axis(a, top[..., None], -1))[..., 0]
            return g
        nrm = (self.norm_array(a) if norms is None else np.asarray(norms, float))[..., None]
        safe = np.where(nrm > 0.0, nrm, 1.0)
        return np.sign(a) * (np.abs(a) / safe) ** (self.p - 1.0)


class WeightedLpFamily(SeqNormFamily):
    """lp norm with strictly positive per-coordinate weights inside the sum.

    Finite p: (sum_i w_i |t_i|^p)^(1/p); p = inf: max_i w_i |t_i|.  The
    weights vector bounds the supported length.
    """

    def __init__(self, p, weights):
        p = float(p)
        if math.isnan(p) or p < 1.0:
            raise InputError(f"lp exponent must satisfy p >= 1, got {p}")
        w = as_array(weights, (None,), "weights")
        if np.any(w <= 0.0):
            raise InputError("weights must be strictly positive")
        self.p = p
        self.weights = w
        self._scaling = w if p == math.inf or p == 1.0 else w ** (1.0 / p)
        self._core = LpFamily(p)
        tag = "inf" if p == math.inf else f"{p:g}"
        super().__init__(f"wl{tag}[{len(w)}]")

    def max_length(self):
        return len(self.weights)

    def _scaled(self, values):
        a = np.asarray(values, dtype=float)
        self.check_length(a.shape[-1])
        a = strip_trailing_zeros(a)
        return a * self._scaling[:a.shape[-1]]

    def norm_array(self, values):
        return self._core.norm_array(self._scaled(values))

    def norm_gradient(self, values, norms=None):
        a = np.asarray(values, dtype=float)
        n = a.shape[-1]
        self.check_length(n)
        scaled = a * self._scaling[:n]
        return self._core.norm_gradient(scaled, norms) * self._scaling[:n]


class OrliczFunction:
    """Convex gauge phi with phi(0) = 0, strictly increasing, array-valued,
    with its derivatives: ``derivative`` maps u to phi'(u) and
    ``second_derivative`` to phi''(u).  ``parse_gauge`` builds them.

    Validated at construction on a sampled grid: value at zero, strict
    monotonicity, and midpoint convexity on seeded pairs; phi' must be
    finite at 0 and on the probe grid, and phi'' positive there (phi' then
    has an inverse) unless it vanishes on the whole grid, which makes
    phi = c u (``linear``).  ``unit_level`` caches the solution of
    phi(u) = 1 used to bracket Luxemburg norms.
    """

    def __init__(self, func: Callable, expression: str | None = None,
                 derivative: Callable | None = None,
                 second_derivative: Callable | None = None):
        if derivative is None or second_derivative is None:
            raise InputError("an Orlicz gauge needs its derivatives: build it "
                             "with parse_gauge, or use CustomFamily")
        self.func = func
        self.expression = expression
        self.derivative = derivative
        self.second_derivative = second_derivative
        # a malformed gauge ends in one InputError, not in numpy warnings
        with np.errstate(all="ignore"):
            self._validate()
        self.unit_level = self._solve_unit_level()

    def __call__(self, u):
        return self.func(np.asarray(u, dtype=float))

    def _validate(self) -> None:
        try:
            at_zero = float(self.func(np.asarray(0.0)))
        except Exception as exc:  # noqa: BLE001 - diagnostics wrap any failure
            raise InputError(f"gauge evaluation failed at 0: {exc}") from exc
        if at_zero != 0.0:
            raise InputError(f"gauge must vanish at 0, got phi(0) = {at_zero}")
        grid = np.geomspace(1e-8, _GAUGE_GRID_MAX, 64)
        vals = np.asarray(self.func(grid), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise InputError("gauge is not finite on the probe grid")
        if np.any(vals <= 0.0) or np.any(np.diff(vals) <= 0.0):
            raise InputError("gauge must be strictly increasing on (0, inf)")
        rng = np.random.default_rng(190557)
        u = rng.uniform(0.0, _GAUGE_GRID_MAX, _CONVEXITY_PAIRS)
        v = rng.uniform(0.0, _GAUGE_GRID_MAX, _CONVEXITY_PAIRS)
        mid = np.asarray(self.func((u + v) / 2.0), dtype=float)
        avg = (np.asarray(self.func(u), float) + np.asarray(self.func(v), float)) / 2.0
        worst = float((mid - avg).max())
        if worst > _CONVEXITY_SLACK:
            raise InputError(
                f"gauge fails midpoint convexity by {worst:.3e} on sampled pairs")
        curvature = self.second_derivative(grid)
        self.linear = not curvature.any()
        if not (np.all(np.isfinite(self.derivative(np.append(0.0, grid))))
                and (self.linear or np.all(curvature > 0.0))):
            raise InputError("gauge needs phi' finite at 0 and on the probe "
                             "grid, and phi'' positive there or zero")

    def _solve_unit_level(self) -> float:
        hi = 1.0
        for _ in range(200):
            if float(self.func(np.asarray(hi))) >= 1.0:
                break
            hi *= 2.0
        else:
            raise InputError("gauge does not reach 1 on (0, 2^200)")
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break  # phi(lo) < 1 <= phi(hi), so nothing moves again
            if float(self.func(np.asarray(mid))) >= 1.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)


class OrliczFamily(SeqNormFamily):
    """Luxemburg norm of an Orlicz gauge, by bracketed Newton.

    Each row is scaled by its max, to b.  The map N -> S = sum_i phi(b_i/N)
    is nonincreasing, so the bracket [1 / u1, support / u1] with
    u1 = phi^{-1}(1) always contains the norm N of b.  Newton of log S
    against log N runs in that bracket (``_bracketed_newton``); for u^p and
    c u the first step is exact.  Each row is solved on its own, and
    appending zeros changes neither the bracket nor any iterate, so padding
    consistency is exact.
    """

    def __init__(self, phi: OrliczFunction):
        if not isinstance(phi, OrliczFunction):
            raise InputError("an Orlicz family needs an OrliczFunction: build "
                             "it with parse_gauge, or use CustomFamily")
        self.phi = phi
        super().__init__(f"orlicz[{phi.expression}]" if phi.expression
                         else "orlicz")

    def norm_array(self, values):
        a = strip_trailing_zeros(np.abs(np.asarray(values, dtype=float)))
        if a.shape[-1] == 0:
            raise InputError("empty vector")
        flat = a.reshape(-1, a.shape[-1])
        m = flat.max(axis=-1, keepdims=True)
        active = m != 0.0  # a row with a NaN stays NaN
        b = flat / np.where(active, m, 1.0)
        f, derivative = self.phi.func, self.phi.derivative

        def evaluate(state):  # the root lies above N where S(N) > 1
            x = state[0]
            u = b / x
            level = f(u).sum(axis=-1, keepdims=True)
            slope = (u * derivative(u)).sum(axis=-1, keepdims=True)
            return level > 1.0, x * np.exp(level * np.log(level) / slope), ()

        lo = np.full_like(m, 1.0 / self.phi.unit_level)
        hi = lo * np.maximum(np.count_nonzero(b, axis=-1, keepdims=True), 1)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                         under="ignore"):
            x = _bracketed_newton(evaluate, (lo, lo, hi))[0][0]
            norms = np.where(active, m * x, 0.0)
        return norms[:, 0].reshape(a.shape[:-1])

    def norm_gradient(self, values, norms=None):
        # Implicit differentiation of sum_i phi(|t_i|/N) = 1.
        a = np.asarray(values, dtype=float)
        nrm = self.norm_array(a) if norms is None else np.asarray(norms, float)
        safe = np.where(nrm > 0.0, nrm, 1.0)[..., None]
        u = np.abs(a) / safe
        slope = self.phi.derivative(u)
        denom = (u * slope).sum(axis=-1, keepdims=True)
        grad = np.sign(a) * slope / np.maximum(denom, 1e-300)
        return np.where(nrm[..., None] > 0.0, grad, 0.0)


class CustomFamily(SeqNormFamily):
    """Wrap a user-supplied norm oracle (1-d vector in, nonnegative float out).

    Nothing is assumed about the oracle beyond the family contract; the
    invariant sweeps are the place where violations surface.
    """

    def __init__(self, oracle: Callable, label: str = "custom"):
        self.oracle = oracle
        super().__init__(label)

    def norm_array(self, values):
        a = strip_trailing_zeros(np.asarray(values, dtype=float))
        flat = a.reshape(-1, a.shape[-1])
        out = np.array([float(self.oracle(row)) for row in flat])
        return out.reshape(a.shape[:-1])


def conjugate_exponent(p) -> float:
    p = float(p)
    if p == 1.0:
        return math.inf
    if p == math.inf:
        return 1.0
    return p / (p - 1.0)


def _analytic_dual(family: SeqNormFamily) -> SeqNormFamily | None:
    if isinstance(family, NumericDualFamily):
        return family.base  # the finite-dimensional bidual
    if isinstance(family, WeightedLpFamily):
        q = conjugate_exponent(family.p)
        if family.p == 1.0 or family.p == math.inf:
            dual_w = 1.0 / family.weights
        else:
            dual_w = family.weights ** (1.0 - q)
        return WeightedLpFamily(q, dual_w)
    if isinstance(family, LpFamily):
        return LpFamily(conjugate_exponent(family.p))
    return None


@dataclass
class DualNormResult:
    """Koethe dual norm value with its attaining direction.

    ``method`` names the branch that ran: "analytic" for a closed form,
    "numeric" for the Amemiya solve or the ascent.  ``value`` is exact for
    the analytic branch and a lower bound attained by the witness for the
    numeric one.  ``converged`` is always true for the analytic branch; for
    the Amemiya solve it means that its bracket is at most 1e-9 wide,
    relative, and for the ascent that two or more starts reached the best
    value.  Both are arrays of the batch shape for a batch of vectors.
    """
    value: float | np.ndarray
    witness: np.ndarray
    converged: bool | np.ndarray
    method: str


class NumericDualFamily(SeqNormFamily):
    """Koethe dual evaluated numerically, wrapped as a norm family.

    An Orlicz base goes to the Amemiya solve (``_amemiya_dual``); any other
    base to positive-sphere ascent from start points that are
    deterministic functions of the scale-normalized input (``_dual_rows``).
    Values are lower bounds attained by a witness: within about 1e-15
    relative of the dual norm for the Amemiya solve, and tight to optimizer
    precision, roughly 1e-9 relative on smooth bases, for ascent.  Rows
    follow the batch contract of README "Numerical contracts", with its
    one exception.
    """

    def __init__(self, base: SeqNormFamily):
        self.base = base
        super().__init__(base.label + "^x")

    def max_length(self):
        return self.base.max_length()

    def norm_array(self, values):
        return _dual_rows(self.base, values)[0]


def _ascent_rows(base: SeqNormFamily, mags: np.ndarray, iterations: int,
                 restarts: int = 0, seed: int = 0):
    """Koethe dual norms of the nonnegative rows ``mags`` (k, n) over
    ``base``: for each row b scaled to max 1, the max of sum(alpha * b)
    over {alpha >= 0, ||alpha|| = 1} by projected-gradient ascent, times
    the row's max.

    The starts, in this order (argmax ties go to the first): the ones
    vector and b^0.5, b^1 and b^2; seeded starts shared by all rows (the
    absolute first normals of substreams 0, 1, ... of ``seed``), up to
    ``restarts`` starts in all; the canonical vectors, which are scored
    but not iterated, being vertex candidates of polytopal balls that are
    already optimal whenever they win.  The iterated starts of all rows
    advance in lock step as one stacked batch from a first step of 0.25,
    for ``iterations`` steps or until none moves and every step sits at
    its floor.  Each iterate stays on the unit sphere, so every value is a
    lower bound attained by its witness.  Returns the values, unit
    witnesses and per row the number of starts within 1e-6 of the best
    (zero rows: 0, witness 0)."""
    k, n = mags.shape
    scale = mags.max(axis=-1)
    active = scale != 0.0  # a row with a NaN stays NaN
    out, agree, witness = np.zeros(k), np.zeros(k, dtype=int), np.zeros((k, n))
    if not np.any(active):
        return out, witness, agree
    b = mags[active] / scale[active, None]
    m = len(b)
    extra = max(0, restarts - 4 - n)  # beyond the profiles and vertices
    seeded = np.abs(substream_normals(seed, range(extra), n))
    alpha = np.concatenate([np.ones((m, n)), b ** 0.5, b ** 1.0, b ** 2.0,
                            np.repeat(seeded, m, axis=0),
                            np.repeat(np.eye(n), m, axis=0)])
    r = len(alpha) // m
    bb = np.tile(b, (r, 1))
    nrm = base.norm_array(alpha)
    alpha = alpha / np.where(nrm > 0.0, nrm, 1.0)[:, None]
    val = (alpha * bb).sum(axis=-1)
    live = len(alpha) - n * m
    # views: adopting a step writes into alpha and val
    a_it, b_it, v_it = alpha[:live], bb[:live], val[:live]
    eta = np.full(live, 0.25)
    unit = np.ones(live)
    for _ in range(iterations):
        g = base.norm_gradient(a_it, norms=unit)
        gg = np.add.reduce(g * g, axis=-1)
        gb = np.add.reduce(g * b_it, axis=-1)
        d = b_it - g * (gb / np.maximum(gg, 1e-300))[:, None]
        dn = np.sqrt(np.add.reduce(d * d, axis=-1))
        d /= np.maximum(dn, 1e-300)[:, None]
        cand = np.add(a_it, np.multiply(eta[:, None], d, out=d), out=d)
        np.maximum(cand, 0.0, out=cand)
        cn = base.norm_array(cand)
        ok = cn > 0.0
        cand /= np.where(ok, cn, 1.0)[:, None]  # a row not ok is not adopted
        cv = np.add.reduce(cand * b_it, axis=-1)
        adopt = ok & (cv > v_it) & (dn > 1e-15)
        eta_next = np.minimum(np.maximum(
            np.where(adopt, eta * 1.4, eta * 0.4), 1e-14), 4.0)
        if adopt.any():
            a_it[adopt] = cand[adopt]
            v_it[adopt] = cv[adopt]
        elif np.array_equal(eta_next, eta):
            break  # every eta sits at its floor: a fixed point
        eta = eta_next
    finals = val.reshape(r, m)
    top = finals.argmax(axis=0)
    out[active] = finals[top, np.arange(m)] * scale[active]
    witness[active] = alpha.reshape(r, m, n)[top, np.arange(m)]
    agree[active] = (finals * scale[active]
                     >= out[active] * (1.0 - 1e-6)).sum(axis=0)
    return out, witness, agree


def _bracketed_newton(evaluate, state, where=None):
    """Bracketed Newton from ``state`` = (x, lo, hi, *carried): at most
    NEWTON_STEPS steps, elementwise.

    ``evaluate(state)`` returns (above, step, carried): where the root lies
    above x, the Newton step from x, and the arrays the next state carries
    (a warm start, say).  The bracket end on the root's side moves to x,
    and x to the step, or to the bracket's midpoint where the step leaves
    the bracket.  The step map is elementwise, so once the new state equals
    the state two steps back bit for bit (NaN and signed zeros included),
    wherever ``where`` holds (everywhere when it is None), it cycles with
    period 1 or 2, and the parity of the steps left picks what all
    NEWTON_STEPS steps reach.  Returns the states after NEWTON_STEPS and
    NEWTON_STEPS - 1 steps; elements outside ``where`` are unspecified.
    """
    if where is not None and where.all():
        where = None
    x, lo, hi = state[:3]
    earlier, prev = None, state
    for done in range(1, NEWTON_STEPS + 1):
        above, step, carried = evaluate(prev)
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
        x = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        state = (x, lo, hi) + carried
        if earlier is not None and _repeats(state, earlier, where):
            return ((state, prev) if (NEWTON_STEPS - done) % 2 == 0
                    else (prev, state))
        earlier, prev = prev, state
    return prev, earlier


def _repeats(state, earlier, where) -> bool:
    """Whether each array of ``state`` equals its counterpart in ``earlier``
    bit for bit wherever ``where`` holds (everywhere when it is None)."""
    if where is None:
        return all(x.tobytes() == y.tobytes() for x, y in zip(state, earlier))
    return not any(((x.view(np.int64) != y.view(np.int64)) & where).any()
                   for x, y in zip(state, earlier))


def _inverse_derivative(phi: OrliczFunction, v: np.ndarray, u: np.ndarray,
                        top: float, live: np.ndarray) -> np.ndarray:
    """u with phi'(u) = v where ``live``, elementwise, from the start ``u``:
    Newton of log phi' against log u inside the bracket [0, top]
    (phi'(top) >= v).  Elements outside ``live`` come back unspecified."""
    def evaluate(state):  # the root lies above u where phi'(u) < v
        u = state[0]
        d1, d2 = phi.derivative(u), phi.second_derivative(u)
        return d1 < v, u * np.exp(np.log(v / d1) * d1 / (u * d2)), ()

    state = (u, np.zeros_like(u), np.full_like(u, top))
    return _bracketed_newton(evaluate, state, live)[0][0]


def _amemiya_dual(base: OrliczFamily, values):
    """Koethe dual norms over a Luxemburg base by the Amemiya formula
    ||b|| = inf_k (1 + sum_i phi*(k |b_i|)) / k, leading axes being batches.

    The infimum is attained where S(k) = sum_i phi(u_i) = 1, with
    u_i = (phi')^{-1}(k |b_i|), and u_i = 0 where k |b_i| <= phi'(0)
    (Young's equality).  Each row is scaled by its max, which puts k in
    [1 / (support * u1), phi'(u1)] (u1 = phi^{-1}(1)); k comes from
    Newton of log S against log k in that bracket and each u_i from
    ``_inverse_derivative``, warm-started across outer steps, both by
    ``_bracketed_newton``.  Only per-row operations run, so a row's result
    does not depend on its batch.  The witness
    alpha = u / ||u|| is one Luxemburg evaluation; the value <alpha, |b|>
    is a lower bound attained by it, and the Amemiya objective at the last
    k is the upper side of the bracket.  Returns (values, nonnegative
    witnesses, upper bounds); a zero row has value 0 and witness 0.
    """
    a = strip_trailing_zeros(np.abs(np.asarray(values, dtype=float)))
    if a.shape[-1] == 0:
        raise InputError("empty vector")
    if not a.any():  # all zero: what the solve below returns, without it
        return (np.zeros(a.shape[:-1]), np.zeros(np.shape(values)),
                np.zeros(a.shape[:-1]))
    phi = base.phi
    witness = np.zeros(np.shape(values))
    if phi.linear:  # phi = c u: the norm is c l1, the dual u1 linf, u1 = 1/c
        u1 = 1.0 / phi.derivative(np.zeros(()))
        value = u1 * a.max(axis=-1)
        witness[..., :a.shape[-1]] = (u1 * (a > 0.0)
                                      * dual_witness(LpFamily(1), a))
        return value, witness, value
    flat = a.reshape(-1, a.shape[-1])
    scale = flat.max(axis=-1, keepdims=True)
    b = flat / np.where(scale != 0.0, scale, 1.0)  # a NaN row stays NaN
    u1 = phi.unit_level
    floor = phi.derivative(np.zeros(()))
    support = np.maximum(np.count_nonzero(b, axis=-1, keepdims=True), 1)

    def evaluate(state):  # the root lies above t where not S(e^t) >= 1
        t, _, _, u = state
        v = np.exp(t) * b
        live = v > floor
        u = _inverse_derivative(phi, v, np.where(u > 0.0, u, u1), u1, live)
        u = np.where(live, u, 0.0)
        level = phi.func(u).sum(axis=-1, keepdims=True)
        slope = np.where(live, v * v / phi.second_derivative(u),
                         0.0).sum(axis=-1, keepdims=True)
        return ~(level >= 1.0), t - level * np.log(level) / slope, (u,)

    t_hi = np.full_like(scale, np.log(phi.derivative(np.asarray(u1))))
    t_lo = np.minimum(t_hi, -np.log(support * u1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        # u of the last state was solved at the level t of the one before
        last, before = _bracketed_newton(
            evaluate, (t_hi, t_lo, t_hi, np.full_like(b, u1)))
        u, k = last[3], np.exp(before[0])
        upper = (1.0 + (k * b * u - phi.func(u)).sum(axis=-1)) / k[:, 0]
    nrm = base.norm_array(u)
    alpha = u / np.where(nrm > 0.0, nrm, 1.0)[:, None]
    value = scale[:, 0] * (alpha * b).sum(axis=-1)
    witness[..., :a.shape[-1]] = alpha.reshape(a.shape)
    rows = a.shape[:-1]
    return (value.reshape(rows), witness,
            (scale[:, 0] * upper).reshape(rows))


def _dual_rows(base: SeqNormFamily, values):
    """Koethe dual norms of ``values`` (leading axes are batches) over
    ``base`` and their nonnegative unit witnesses: the Amemiya solve for an
    Orlicz base, otherwise ``_ascent_rows`` (150 iterations) on each row
    without the zeros that end it, the rows of one such length together, so
    each row gets what it gets alone; a zero row gets 0 and witness 0."""
    if isinstance(base, OrliczFamily):
        return _amemiya_dual(base, values)[:2]
    a = np.abs(np.asarray(values, dtype=float))
    if a.shape[-1] == 0:
        raise InputError("empty vector")
    flat = a.reshape(-1, a.shape[-1])
    # a row ends at its last entry that is not zero (a NaN is not a zero)
    ends = np.max((flat != 0.0) * np.arange(1, flat.shape[-1] + 1), axis=-1)
    out, witness = np.zeros(len(flat)), np.zeros(flat.shape)
    for end in sorted(set(ends.tolist()) - {0}):
        rows = ends == end
        out[rows], witness[rows, :end], _ = _ascent_rows(
            base, flat[rows, :end], 150)
    return out.reshape(a.shape[:-1]), witness.reshape(a.shape)


def kothe_dual(family: SeqNormFamily) -> SeqNormFamily:
    """The Koethe dual family: analytic for lp-type, the base family for a
    numeric dual (the finite-dimensional bidual), numeric wrapper otherwise."""
    return _analytic_dual(family) or NumericDualFamily(family)


def kothe_dual_norm(family: SeqNormFamily, beta) -> DualNormResult:
    """sup { sum |alpha_i beta_i| : ||alpha|| <= 1 } on the support of beta.

    Leading axes of ``beta`` are batch axes; rows follow the batch contract
    of README "Numerical contracts".  The family picks the solver: the
    closed form where ``_analytic_dual`` has one (lp-type families, and a
    numeric dual, whose dual is its base), the Amemiya solve
    (``_amemiya_dual``) for an Orlicz family, and otherwise
    ``_ascent_rows`` with _DUAL_RESTARTS starts, _DUAL_ITERATIONS
    iterations and seed 0.
    """
    b = as_array(beta, (..., None), "vector")
    family.check_length(b.shape[-1])
    flat = b.reshape(-1, b.shape[-1])  # a vector is a batch of one
    analytic = _analytic_dual(family)
    if analytic is not None:
        value, witness = analytic.norm_array(flat), dual_witness(family, flat)
        converged = np.ones(len(flat), dtype=bool)
    elif isinstance(family, OrliczFamily):
        value, witness, upper = _amemiya_dual(family, flat)
        witness = witness * np.sign(flat)
        converged = upper - value <= 1e-9 * value
    else:
        value, witness, agree = _ascent_rows(family, np.abs(flat),
                                             _DUAL_ITERATIONS, _DUAL_RESTARTS)
        witness = witness * np.sign(flat)
        converged = (agree >= 2) | ~flat.any(axis=-1)
    rows = b.shape[:-1]
    value, converged = value.reshape(rows), converged.reshape(rows)
    if b.ndim == 1:
        value, converged = float(value), bool(converged)
    return DualNormResult(value, witness.reshape(b.shape), converged,
                          "numeric" if analytic is None else "analytic")


def dual_witness(family: SeqNormFamily, beta) -> np.ndarray:
    """The support map of the unit ball: a unit vector alpha with
    sum(alpha * beta) equal to the dual norm of beta; a zero row gets
    e_0 / ||e_0||, which is e_0 itself for lp.

    Leading axes are batch axes.  Closed form for lp-type families (for
    1 < p < inf, the normalized profile (|b| / max|b|)^(q-1), which peaks
    at 1), the norm gradient of the base for a numeric dual (the support
    map of a dual ball), ``_dual_rows`` otherwise.  Signed, so the plain
    pairing attains.
    """
    b = np.asarray(beta, dtype=float)
    mags = np.abs(b)
    if isinstance(family, LpFamily) and 1.0 < family.p < math.inf:
        top = np.maximum.reduce(mags, axis=-1, keepdims=True)
        # the guards are identities unless a row max is 0, NaN or inf
        plain = (np.minimum.reduce(top, axis=None, initial=math.inf) > 0.0
                 and np.maximum.reduce(top, axis=None, initial=0.0) < math.inf)
        prof = (mags / (top if plain else np.where(top > 0.0, top, 1.0))
                ) ** family._q_minus_1
        # prof peaks at exactly 1, so its lp norm needs no rescale
        nrm = np.add.reduce(strip_trailing_zeros(prof) ** family.p, axis=-1,
                            keepdims=True) ** family._inv_p
        alpha = prof / (nrm if plain else np.where(nrm > 0.0, nrm, 1.0)
                        ) * np.sign(b)
        if not plain:
            alpha[top[..., 0] == 0.0, 0] = 1.0  # a NaN row is not a zero row
        return alpha
    if isinstance(family, NumericDualFamily):
        alpha = family.base.norm_gradient(b)
    elif isinstance(family, WeightedLpFamily):
        s = family._scaling[:b.shape[-1]]
        alpha = dual_witness(family._core, mags / s) / s * np.sign(b)
    elif isinstance(family, LpFamily):
        if family.p == 1.0:
            alpha = (mags.argmax(axis=-1)[..., None]
                     == np.arange(b.shape[-1])) * np.sign(b)
        else:
            alpha = np.sign(b)
    else:
        alpha = _dual_rows(family, b)[1] * np.sign(b)
    if np.count_nonzero(mags) < mags.size:  # maybe a zero row
        zero = ~np.logical_or.reduce(mags, axis=-1)
        if zero.any():
            alpha[zero, 0] = 1.0 / family.unit_vector_norm(0, b.shape[-1])
    return alpha

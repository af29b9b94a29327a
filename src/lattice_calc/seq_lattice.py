"""Monotone sequence-norm families and their Koethe duals.

A family assigns a lattice (monotone) norm to R^n for every n, consistently
under zero padding.  Built-ins: lp, weighted lp, Orlicz (Luxemburg norm) and
custom oracles.  Koethe duals are closed-form for the lp-type families;
otherwise they are certified lower bounds obtained by ascent over the
positive part of the unit sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionMismatchError, InputError
from .seeding import spawn_rngs

# Fixed bisection count keeps the Luxemburg value independent of how calls
# are batched; 60 halvings of a bracket of relative width <= n land far
# below the 1e-12 relative target for any desk-scale n.
LUXEMBURG_BISECT_STEPS = 60

_GAUGE_GRID_MAX = 8.0
_CONVEXITY_PAIRS = 1000
_CONVEXITY_SLACK = 1e-12


def strip_trailing_zeros(values: np.ndarray) -> np.ndarray:
    """Drop trailing coordinates that vanish across the whole batch.

    Finite vectors represent eventually-zero sequences, so trailing zeros
    are representation artifacts; removing them before any reduction makes
    zero-padding invariance bitwise exact regardless of summation order.
    """
    a = values
    n = a.shape[-1]
    keep = n
    while keep > 1 and not np.any(a[..., keep - 1]):
        keep -= 1
    return a[..., :keep] if keep < n else a


def as_vector(t) -> np.ndarray:
    a = np.asarray(t, dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise InputError(f"expected a nonempty 1-d real vector, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InputError("vector has non-finite entries")
    return a


class SeqNormFamily:
    """Family of monotone norms, one per dimension, consistent under padding."""

    kind: str = "abstract"

    def __init__(self, label: str):
        self.label = label

    def norm_array(self, values: np.ndarray) -> np.ndarray:
        """Norm along the last axis; leading axes are batch dimensions."""
        raise NotImplementedError

    def norm(self, t) -> float:
        """Norm of a single finite vector."""
        v = as_vector(t)
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
        return _fd_norm_gradient(self, values)

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

    def descriptor(self) -> dict:
        raise InputError(f"{self.label} has no serializable descriptor")

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


def _fd_norm_gradient(family: SeqNormFamily, values: np.ndarray,
                      h: float = 1e-6) -> np.ndarray:
    a = np.asarray(values, dtype=float)
    n = a.shape[-1]
    eye = np.eye(n)
    plus = family.norm_array(a[..., None, :] + h * eye)
    minus = family.norm_array(a[..., None, :] - h * eye)
    return (plus - minus) / (2.0 * h)


class LpFamily(SeqNormFamily):
    """The lp scale, 1 <= p <= inf, with dedicated sum/max formulas at the ends."""

    kind = "lp"

    def __init__(self, p, label: str | None = None):
        p = float(p)
        if math.isnan(p) or p < 1.0:
            raise InputError(f"lp exponent must satisfy p >= 1, got {p}")
        self.p = p
        if label is None:
            label = "linf" if p == math.inf else f"l{p:g}"
        super().__init__(label)

    def norm_array(self, values):
        a = strip_trailing_zeros(np.abs(np.asarray(values, dtype=float)))
        if a.shape[-1] == 0:
            raise InputError("empty vector")
        if self.p == math.inf:
            return a.max(axis=-1)
        if self.p == 1.0:
            return a.sum(axis=-1)
        m = a.max(axis=-1, keepdims=True)
        scale = np.where(m > 0.0, m, 1.0)
        body = ((a / scale) ** self.p).sum(axis=-1) ** (1.0 / self.p)
        return np.where(m[..., 0] > 0.0, scale[..., 0] * body, 0.0)

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

    def descriptor(self):
        return {"kind": "lp", "p": "inf" if self.p == math.inf else self.p}


class WeightedLpFamily(SeqNormFamily):
    """lp norm with strictly positive per-coordinate weights inside the sum.

    Finite p: (sum_i w_i |t_i|^p)^(1/p); p = inf: max_i w_i |t_i|.  The
    weights vector bounds the supported length.
    """

    kind = "weighted_lp"

    def __init__(self, p, weights, label: str | None = None):
        p = float(p)
        if math.isnan(p) or p < 1.0:
            raise InputError(f"lp exponent must satisfy p >= 1, got {p}")
        w = as_vector(weights)
        if np.any(w <= 0.0):
            raise InputError("weights must be strictly positive")
        self.p = p
        self.weights = w
        self._scaling = w if p == math.inf or p == 1.0 else w ** (1.0 / p)
        self._core = LpFamily(p)
        if label is None:
            tag = "inf" if p == math.inf else f"{p:g}"
            label = f"wl{tag}[{len(w)}]"
        super().__init__(label)

    def max_length(self):
        return len(self.weights)

    def _scaled(self, values):
        a = np.asarray(values, dtype=float)
        if a.shape[-1] > len(self.weights):
            raise InputError(
                f"{self.label}: length {a.shape[-1]} exceeds the "
                f"{len(self.weights)} coordinates covered by the weights")
        a = strip_trailing_zeros(a)
        return a * self._scaling[:a.shape[-1]]

    def norm_array(self, values):
        return self._core.norm_array(self._scaled(values))

    def norm_gradient(self, values, norms=None):
        a = np.asarray(values, dtype=float)
        n = a.shape[-1]
        if n > len(self.weights):
            raise InputError(
                f"{self.label}: length {n} exceeds the {len(self.weights)} "
                f"coordinates covered by the weights")
        scaled = a * self._scaling[:n]
        return self._core.norm_gradient(scaled, norms) * self._scaling[:n]

    def descriptor(self):
        return {"kind": "weighted_lp",
                "p": "inf" if self.p == math.inf else self.p,
                "weights": [float(v) for v in self.weights]}


class OrliczFunction:
    """Convex gauge phi with phi(0) = 0, strictly increasing, array-valued.

    Validated at construction on a sampled grid: value at zero, strict
    monotonicity, and midpoint convexity on seeded pairs.  ``unit_level``
    caches the solution of phi(u) = 1 used to bracket Luxemburg bisections.
    """

    def __init__(self, func: Callable, expression: str | None = None,
                 grid_max: float = _GAUGE_GRID_MAX):
        self.func = func
        self.expression = expression
        self._validate(grid_max)
        self.unit_level = self._solve_unit_level()

    def __call__(self, u):
        return self.func(np.asarray(u, dtype=float))

    def _validate(self, grid_max: float) -> None:
        try:
            at_zero = float(self.func(np.asarray(0.0)))
        except Exception as exc:  # noqa: BLE001 - diagnostics wrap any failure
            raise InputError(f"gauge evaluation failed at 0: {exc}") from exc
        if at_zero != 0.0:
            raise InputError(f"gauge must vanish at 0, got phi(0) = {at_zero}")
        grid = np.geomspace(1e-8, grid_max, 64)
        vals = np.asarray(self.func(grid), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise InputError("gauge is not finite on the probe grid")
        if np.any(vals <= 0.0) or np.any(np.diff(vals) <= 0.0):
            raise InputError("gauge must be strictly increasing on (0, inf)")
        rng = np.random.default_rng(190557)
        u = rng.uniform(0.0, grid_max, _CONVEXITY_PAIRS)
        v = rng.uniform(0.0, grid_max, _CONVEXITY_PAIRS)
        mid = np.asarray(self.func((u + v) / 2.0), dtype=float)
        avg = (np.asarray(self.func(u), float) + np.asarray(self.func(v), float)) / 2.0
        worst = float((mid - avg).max())
        if worst > _CONVEXITY_SLACK:
            raise InputError(
                f"gauge fails midpoint convexity by {worst:.3e} on sampled pairs")

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
            if float(self.func(np.asarray(mid))) >= 1.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)


class OrliczFamily(SeqNormFamily):
    """Luxemburg norm of an Orlicz gauge, by certified monotone bisection.

    The target map lam -> sum_i phi(|t_i|/lam) is nonincreasing, so the
    bracket [max|t| / u1, support * max|t| / u1] with u1 = phi^{-1}(1) always
    contains the norm, and a fixed halving count pins it to far below 1e-12
    relative.  Appending zeros changes neither the bracket nor any iterate,
    so padding consistency is exact.
    """

    kind = "orlicz"

    def __init__(self, phi: OrliczFunction, label: str | None = None):
        if not isinstance(phi, OrliczFunction):
            phi = OrliczFunction(phi)
        self.phi = phi
        if label is None:
            label = f"orlicz[{phi.expression}]" if phi.expression else "orlicz"
        super().__init__(label)

    def norm_array(self, values):
        a = strip_trailing_zeros(np.abs(np.asarray(values, dtype=float)))
        if a.shape[-1] == 0:
            raise InputError("empty vector")
        m = a.max(axis=-1)
        support = np.count_nonzero(a, axis=-1)
        active = m > 0.0
        u1 = self.phi.unit_level
        # rows whose bracket sum lo + hi would overflow are bisected rescaled
        # by their max (the norm is homogeneous); other rows are untouched
        scale = 1.0
        with np.errstate(over="ignore"):
            big = (~np.isfinite(2.0 * (np.maximum(support, 1) * m / u1))
                   & np.isfinite(m))
        if big.any():
            scale = np.where(big, m, 1.0)
            a = a / scale[..., None]
            m = m / scale
        lo = np.where(active, m / u1, 1.0)
        hi = np.where(active, np.maximum(support, 1) * m / u1, 2.0)
        f = self.phi.func
        for _ in range(LUXEMBURG_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            level = f(a / mid[..., None]).sum(axis=-1)
            above = level > 1.0
            lo = np.where(above, mid, lo)
            hi = np.where(above, hi, mid)
        return np.where(active, 0.5 * (lo + hi) * scale, 0.0)

    def norm_gradient(self, values, norms=None):
        # Implicit differentiation of sum_i phi(|t_i|/N) = 1.
        a = np.asarray(values, dtype=float)
        nrm = self.norm_array(a) if norms is None else np.asarray(norms, float)
        safe = np.where(nrm > 0.0, nrm, 1.0)[..., None]
        u = np.abs(a) / safe
        h = 1e-7
        lo = np.maximum(u - h, 0.0)
        slope = (self.phi.func(u + h) - self.phi.func(lo)) / (u + h - lo)
        denom = (u * slope).sum(axis=-1, keepdims=True)
        grad = np.sign(a) * slope / np.maximum(denom, 1e-300)
        return np.where(nrm[..., None] > 0.0, grad, 0.0)

    def descriptor(self):
        if self.phi.expression is None:
            return super().descriptor()
        return {"kind": "orlicz", "phi": self.phi.expression}


class CustomFamily(SeqNormFamily):
    """Wrap a user-supplied norm oracle (1-d vector in, nonnegative float out).

    Nothing is assumed about the oracle beyond the family contract; the
    invariant sweeps are the place where violations surface.
    """

    kind = "custom"

    def __init__(self, oracle: Callable, label: str = "custom",
                 max_len: int | None = None):
        self.oracle = oracle
        self._max_len = max_len
        super().__init__(label)

    def max_length(self):
        return self._max_len

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

    ``value`` is exact for the analytic branch and a certified lower bound
    for the numeric one; ``converged`` reports whether independent restarts
    agreed.
    """
    value: float
    witness: np.ndarray
    converged: bool
    method: str

    def __float__(self):
        return float(self.value)


def _structured_dual_inits(targets: np.ndarray):
    """Deterministic start points for the positive-sphere linear ascent.

    Returns (iterated, static): conjugate-style profiles of the target to
    iterate from, plus vertex candidates of polytopal balls (canonical
    directions and the all-ones corner) that only need scoring, being
    already optimal whenever they win.
    """
    k, n = targets.shape
    iterated = [np.ones((k, n))]
    for r in (0.5, 1.0, 2.0):
        prof = targets ** r
        dead = prof.sum(axis=-1) <= 0.0
        prof[dead] = 1.0
        iterated.append(prof)
    static = []
    for i in range(n):
        e = np.zeros((k, n))
        e[:, i] = 1.0
        static.append(e)
    return iterated, static


def _linear_ascent(family: SeqNormFamily, targets: np.ndarray,
                   inits: Sequence[np.ndarray], iterations: int,
                   step0: float, static: Sequence[np.ndarray] = ()):
    """Maximize sum(alpha * target) over {alpha >= 0, ||alpha|| = 1}.

    One problem per row of ``targets``; all starts of all problems advance
    in lock step as one stacked batch.  ``static`` starts are normalized
    and scored without iteration (vertex candidates are already exact when
    they win at all).  Each iterate stays on the unit sphere, so every
    reported value is a genuine lower bound of the dual norm.  Returns
    (best values, best witnesses, per-start final values).
    """
    b = np.abs(np.asarray(targets, dtype=float))
    k, n = b.shape
    inits = list(inits) + list(static)
    iterated = len(inits) - len(static)
    r = len(inits)
    alpha = np.concatenate([np.asarray(a, dtype=float) for a in inits])
    bb = np.tile(b, (r, 1))
    nrm = family.norm_array(alpha)
    alpha = alpha / np.where(nrm > 0.0, nrm, 1.0)[:, None]
    val = (alpha * bb).sum(axis=-1)
    live = iterated * k
    a_it = alpha[:live]
    b_it = bb[:live]
    v_it = val[:live]
    eta = np.full(live, step0)
    unit = np.ones(live)
    for _ in range(iterations):
        g = family.norm_gradient(a_it, norms=unit)
        gg = (g * g).sum(axis=-1)
        gb = (g * b_it).sum(axis=-1)
        d = b_it - g * (gb / np.maximum(gg, 1e-300))[:, None]
        dn = np.sqrt((d * d).sum(axis=-1))
        d = d / np.maximum(dn, 1e-300)[:, None]
        cand = np.maximum(a_it + eta[:, None] * d, 0.0)
        cn = family.norm_array(cand)
        ok = cn > 0.0
        cand = np.where(ok[:, None], cand / np.where(ok, cn, 1.0)[:, None], a_it)
        cv = (cand * b_it).sum(axis=-1)
        adopt = ok & (cv > v_it) & (dn > 1e-15)
        a_it = np.where(adopt[:, None], cand, a_it)
        v_it = np.where(adopt, cv, v_it)
        eta = np.clip(np.where(adopt, eta * 1.4, eta * 0.4), 1e-14, 4.0)
    alpha = np.concatenate([a_it, alpha[live:]])
    val = np.concatenate([v_it, val[live:]])
    finals = val.reshape(r, k)
    stacked = alpha.reshape(r, k, n)
    top = finals.argmax(axis=0)
    best_v = finals[top, np.arange(k)]
    best_a = stacked[top, np.arange(k)]
    return best_v, best_a, finals


class NumericDualFamily(SeqNormFamily):
    """Koethe dual evaluated by ascent, wrapped as a norm family.

    Start points are deterministic functions of the (scale-normalized)
    input, so values do not depend on batching and the family is usable
    inside sweeps.  Values are lower bounds tight to optimizer precision,
    roughly 1e-9 relative on smooth base families.
    """

    kind = "numeric_dual"

    def __init__(self, base: SeqNormFamily, iterations: int = 150,
                 step0: float = 0.25, label: str | None = None):
        self.base = base
        self.iterations = iterations
        self.step0 = step0
        super().__init__(label or base.label + "^x")

    def max_length(self):
        return self.base.max_length()

    def norm_array(self, values):
        a = strip_trailing_zeros(np.abs(np.asarray(values, dtype=float)))
        if a.shape[-1] == 0:
            raise InputError("empty vector")
        flat = a.reshape(-1, a.shape[-1])
        scale = flat.max(axis=-1)
        active = scale > 0.0
        out = np.zeros(flat.shape[0])
        if np.any(active):
            normed = flat[active] / scale[active, None]
            iterated, static = _structured_dual_inits(normed)
            vals, _, _ = _linear_ascent(self.base, normed, iterated,
                                        self.iterations, self.step0,
                                        static=static)
            out[active] = vals * scale[active]
        return out.reshape(a.shape[:-1])


def kothe_dual(family: SeqNormFamily, iterations: int = 150,
               step0: float = 0.25) -> SeqNormFamily:
    """The Koethe dual family: analytic for lp-type, numeric wrapper otherwise."""
    analytic = _analytic_dual(family)
    if analytic is not None:
        return analytic
    return NumericDualFamily(family, iterations=iterations, step0=step0)


def kothe_dual_norm(family: SeqNormFamily, beta, method: str = "auto", *,
                    restarts: int = 32, iterations: int = 300,
                    seed: int = 0, step0: float = 0.25) -> DualNormResult:
    """sup { sum |alpha_i beta_i| : ||alpha|| <= 1 } on the support of beta.

    ``method`` is one of "auto", "analytic", "numeric".  The numeric branch
    runs seeded restarts on top of the deterministic start set and reports a
    convergence flag (at least two starts reaching the best value).
    """
    b = as_vector(beta)
    family.check_length(len(b))
    analytic = _analytic_dual(family)
    if method == "auto":
        method = "analytic" if analytic is not None else "numeric"
    if method == "analytic":
        if analytic is None:
            raise InputError(f"no analytic Koethe dual known for {family.label}")
        return DualNormResult(analytic.norm(b), dual_witness(family, b),
                              True, "analytic")
    if method != "numeric":
        raise InputError(f"unknown dual method {method!r}")
    if restarts < 1 or iterations < 1:
        raise InputError("numeric dual needs a positive budget")
    mags = np.abs(b)
    scale = mags.max()
    if scale == 0.0:
        return DualNormResult(0.0, np.zeros_like(b), True, "numeric")
    normed = (mags / scale)[None, :]
    iterated, static = _structured_dual_inits(normed)
    extra = max(0, restarts - len(iterated) - len(static))
    for rng in spawn_rngs(seed, extra):
        iterated.append(np.abs(rng.standard_normal((1, len(b)))))
    vals, witness, finals = _linear_ascent(family, normed, iterated,
                                           iterations, step0, static=static)
    best = float(vals[0] * scale)
    agree = int((finals[:, 0] * scale >= best * (1.0 - 1e-6)).sum())
    return DualNormResult(best, witness[0] * np.sign(b), agree >= 2, "numeric")


@dataclass(frozen=True)
class KotheDualDescriptor:
    """A dual-norm evaluation recipe bound to a base family.

    ``method`` is "auto", "analytic" or "numeric"; the budget fields only
    matter on the numeric branch.  Calling ``norm`` evaluates the dual norm
    of one vector under that recipe.
    """
    base: SeqNormFamily
    method: str = "auto"
    restarts: int = 32
    iterations: int = 300
    seed: int = 0
    step0: float = 0.25

    def norm(self, beta) -> DualNormResult:
        return kothe_dual_norm(self.base, beta, self.method,
                               restarts=self.restarts,
                               iterations=self.iterations, seed=self.seed,
                               step0=self.step0)

    def family(self) -> SeqNormFamily:
        return kothe_dual(self.base, iterations=self.iterations,
                          step0=self.step0)


def dual_witness(family: SeqNormFamily, beta) -> np.ndarray:
    """A unit vector alpha with sum(alpha * beta) equal to the dual norm.

    Closed form for lp-type families; ascent witness otherwise.  Returns a
    signed vector, so the plain (not absolute) pairing attains the value.
    """
    b = as_vector(beta)
    if isinstance(family, WeightedLpFamily):
        s = family._scaling[:len(b)]
        core = dual_witness(LpFamily(family.p), np.abs(b) / s)
        return (core / s) * np.sign(b)
    if isinstance(family, LpFamily):
        mags = np.abs(b)
        if mags.max() == 0.0:
            e = np.zeros_like(b)
            e[0] = 1.0 / family.unit_vector_norm(0, len(b))
            return e
        if family.p == 1.0:
            alpha = np.zeros_like(b)
            alpha[int(mags.argmax())] = 1.0
        elif family.p == math.inf:
            alpha = np.ones_like(b)
        else:
            q = conjugate_exponent(family.p)
            prof = (mags / mags.max()) ** (q - 1.0)
            alpha = prof / LpFamily(family.p).norm(prof)
        return alpha * np.sign(b)
    res = kothe_dual_norm(family, b, method="numeric")
    return res.witness


def holder_check(family: SeqNormFamily, alpha, beta, rtol: float = 1e-9):
    """Pairing bound: sum |a_i b_i| against ||a|| times the dual norm of b."""
    a = as_vector(alpha)
    b = as_vector(beta)
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"vectors have lengths {len(a)} and {len(b)}")
    lhs = float(np.abs(a * b).sum())
    rhs = family.norm(a) * kothe_dual_norm(family, b).value
    return lhs, rhs, bool(lhs <= rhs * (1.0 + rtol) + 1e-300)

"""Reference values computed with numpy alone, independent of lattice_calc.

Every check in the benchmark compares the program against one of these:

- lp norms and the two lp mixed norms of a tuple (strong: family norm of the
  row norms; pointwise: space norm of the coordinatewise family norm), used
  to re-evaluate returned witnesses;
- closed-form operator norms ||T||_{p->p} for p in {1, 2, inf};
- Luxemburg norms of an Orlicz gauge by plain bisection;
- the Koethe dual of a Luxemburg norm in closed form: l_q for the power
  gauges u^p, and the Amemiya value inf_k (1 + sum phi*(k|b_i|)) / k for the
  others (Hudzik & Maligranda, Indag. Math. 11, 2000), with the
  complementary gauge phi* computed by bisection on phi'.
"""

from __future__ import annotations

import math

import numpy as np

INF = math.inf
_GROW_STEPS = 200
_BISECT_STEPS = 64


def lp_norm(values, p: float) -> np.ndarray:
    """lp norm along the last axis, scaled by the max so nothing overflows."""
    a = np.abs(np.asarray(values, dtype=float))
    if p == INF:
        return a.max(axis=-1)
    if p == 1.0:
        return a.sum(axis=-1)
    m = a.max(axis=-1)
    safe = np.where(m > 0.0, m, 1.0)
    return m * ((a / safe[..., None]) ** p).sum(axis=-1) ** (1.0 / p)


def conjugate(p: float) -> float:
    if p == 1.0:
        return INF
    if p == INF:
        return 1.0
    return p / (p - 1.0)


def strong_mixed(rows, p_space: float, p_family: float) -> np.ndarray:
    """Family norm of the vector of row norms; rows has shape (..., n, dim)."""
    return lp_norm(lp_norm(rows, p_space), p_family)


def pointwise_mixed(rows, p_space: float, p_family: float) -> np.ndarray:
    """Space norm of the coordinatewise family norm; rows: (..., n, dim)."""
    return lp_norm(lp_norm(np.swapaxes(rows, -1, -2), p_family), p_space)


def constant_ratio(matrix, rows, flavor: str, p_dom: float, p_cod: float,
                   p_family: float) -> float:
    """Convexity or concavity ratio of the tuple ``rows`` under ``matrix``."""
    x = np.asarray(rows, dtype=float)
    y = x @ np.asarray(matrix, dtype=float).T
    if flavor == "convexity":
        return float(pointwise_mixed(y, p_cod, p_family)
                     / strong_mixed(x, p_dom, p_family))
    return float(strong_mixed(y, p_cod, p_family)
                 / pointwise_mixed(x, p_dom, p_family))


def operator_norm(matrix, p: float) -> float:
    """||T||_{p->p} in closed form for p in {1, 2, inf}."""
    m = np.asarray(matrix, dtype=float)
    if p == 1.0:
        return float(np.abs(m).sum(axis=0).max())
    if p == INF:
        return float(np.abs(m).sum(axis=1).max())
    if p == 2.0:
        return float(np.linalg.svd(m, compute_uv=False)[0])
    raise ValueError(f"no closed form for p = {p}")


class Gauge:
    """A convex Orlicz gauge phi with its derivative phi' (both vectorized)."""

    def __init__(self, phi, dphi, power: float | None = None):
        self.phi = phi
        self.dphi = dphi
        self.power = power

    def luxemburg(self, values) -> np.ndarray:
        """inf {lam > 0 : sum phi(|t_i| / lam) <= 1} along the last axis."""
        a = np.abs(np.asarray(values, dtype=float))
        m = a.max(axis=-1)
        active = m > 0.0
        a = a[active]
        hi = a.max(axis=-1)
        for _ in range(_GROW_STEPS):
            over = self.phi(a / hi[:, None]).sum(axis=-1) > 1.0
            if not over.any():
                break
            hi = np.where(over, 2.0 * hi, hi)
        lo = 0.5 * hi
        for _ in range(_GROW_STEPS):
            under = self.phi(a / lo[:, None]).sum(axis=-1) <= 1.0
            if not under.any():
                break
            lo = np.where(under, 0.5 * lo, lo)
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            over = self.phi(a / mid[:, None]).sum(axis=-1) > 1.0
            lo = np.where(over, mid, lo)
            hi = np.where(over, hi, mid)
        out = np.zeros(m.shape)
        out[active] = hi
        return out

    def inverse_derivative(self, v) -> np.ndarray:
        """u >= 0 with phi'(u) = v, or 0 where v <= phi'(0+)."""
        v = np.asarray(v, dtype=float)
        hi = np.ones(v.shape)
        for _ in range(_GROW_STEPS):
            short = self.dphi(hi) < v
            if not short.any():
                break
            hi = np.where(short, 2.0 * hi, hi)
        lo = np.zeros(v.shape)
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            below = self.dphi(mid) < v
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def conjugate(self, v) -> np.ndarray:
        """The complementary gauge phi*(v) = sup_u (u v - phi(u)), v >= 0."""
        v = np.asarray(v, dtype=float)
        u = self.inverse_derivative(v)
        # u = 0 attains 0, so phi* >= 0; clip the rounding of u ~ 0
        return np.maximum(u * v - self.phi(u), 0.0)

    def amemiya_dual(self, betas) -> np.ndarray:
        """Koethe dual of the Luxemburg norm: inf_k (1 + sum phi*(k|b|)) / k.

        The objective is minimal where sum phi((phi')^{-1}(k |b_i|)) = 1
        (Young's equality), a condition nondecreasing in k; bisection on
        log k finds it and the objective is evaluated there.
        """
        b = np.abs(np.asarray(betas, dtype=float))
        if b.ndim == 1:
            return self.amemiya_dual(b[None, :])[0]
        m = b.max(axis=-1)
        active = m > 0.0
        b = b[active]
        b = b / b.max(axis=-1, keepdims=True)

        def level(k):
            u = self.inverse_derivative(k[:, None] * b)
            return self.phi(u).sum(axis=-1)

        lo = np.zeros(b.shape[0])
        hi = np.zeros(b.shape[0])
        for _ in range(_GROW_STEPS):
            short = level(np.exp(hi)) < 1.0
            if not short.any():
                break
            hi = np.where(short, hi + 1.0, hi)
        for _ in range(_GROW_STEPS):
            over = level(np.exp(lo)) >= 1.0
            if not over.any():
                break
            lo = np.where(over, lo - 1.0, lo)
        for _ in range(_BISECT_STEPS):
            mid = 0.5 * (lo + hi)
            short = level(np.exp(mid)) < 1.0
            lo = np.where(short, mid, lo)
            hi = np.where(short, hi, mid)
        k = np.exp(0.5 * (lo + hi))
        value = (1.0 + self.conjugate(k[:, None] * b).sum(axis=-1)) / k
        out = np.zeros(m.shape)
        out[active] = value * m[active]
        return out

    def dual(self, betas) -> np.ndarray:
        """Closed-form Koethe dual: l_q for u^p, the Amemiya value otherwise."""
        if self.power is not None:
            return lp_norm(betas, conjugate(self.power))
        return self.amemiya_dual(betas)


GAUGES = {
    "u^2": Gauge(lambda u: u * u, lambda u: 2.0 * u, power=2.0),
    "u^3": Gauge(lambda u: u ** 3, lambda u: 3.0 * u * u, power=3.0),
    "u^1.5": Gauge(lambda u: u ** 1.5, lambda u: 1.5 * np.sqrt(u),
                   power=1.5),
    "u^2+u^4": Gauge(lambda u: u ** 2 + u ** 4,
                     lambda u: 2.0 * u + 4.0 * u ** 3),
    "u*exp(u)": Gauge(lambda u: u * np.exp(u),
                      lambda u: (1.0 + u) * np.exp(u)),
}

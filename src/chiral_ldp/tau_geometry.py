"""Geometry of the large-order exponent tau_j and the kappa map.

For order v > 0 and index j >= 1, the per-index tail integrals take the form
int exp(-v * tau_j(x)) dx with

    tau_j(x) = u(x) + log(1 + x^2)/(4 v) - (2 j - 1) log(x)/v,
    u(x)     = sqrt(1 + x^2) - log(1 + sqrt(1 + x^2)).

This module evaluates tau_j and its first two derivatives, gives the unique
minimizer x_j in closed form as the one root s = sqrt(1 + x_j^2) > 1 of the
cubic v s^3 - (v + 2j - 3/2) s^2 - 1/2 (x_j satisfies the sandwich
2 sqrt((j - 3/4)(j + v - 3/4)) < v x_j <= 2 sqrt((j - 1/2)(j + v - 1/2))),
and provides the kappa map that parametrizes all the limiting rate functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_types import check_alpha

__all__ = [
    "TauParams",
    "u",
    "tau",
    "tau_prime",
    "tau_second",
    "bracket_xj",
    "minimizer_xj",
    "kappa",
]


@dataclass(frozen=True)
class TauParams:
    """Index j >= 1 and order v > 0 of one exponent tau_j."""

    j: int
    v: float

    def __post_init__(self) -> None:
        if self.j < 1:
            raise ValueError(f"index j must be >= 1, got {self.j}")
        if not self.v > 0.0:
            raise ValueError(f"order v must be > 0, got {self.v}")


def u(x):
    """u(x) = sqrt(1+x^2) - log(1 + sqrt(1+x^2)), vectorized."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("u needs x >= 0")
    s = np.sqrt(1.0 + x * x)
    out = s - np.log1p(s)
    return float(out) if out.ndim == 0 else out


def _positive(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("tau_j needs x > 0")
    return x


def tau(params: TauParams, x):
    """tau_j(x) for x > 0, vectorized in x."""
    j, v = params.j, params.v
    x = _positive(x)
    s = np.sqrt(1.0 + x * x)
    out = (s - np.log1p(s)) + np.log1p(x * x) / (4.0 * v) - (2.0 * j - 1.0) * np.log(x) / v
    return float(out) if out.ndim == 0 else out


def tau_prime(params: TauParams, x):
    """d tau_j / dx, vectorized in x."""
    j, v = params.j, params.v
    x = _positive(x)
    s = np.sqrt(1.0 + x * x)
    out = x / (1.0 + s) + x / (2.0 * v * (1.0 + x * x)) - (2.0 * j - 1.0) / (v * x)
    return float(out) if out.ndim == 0 else out


def tau_second(params: TauParams, x):
    """d^2 tau_j / dx^2, vectorized in x."""
    j, v = params.j, params.v
    x = _positive(x)
    s = np.sqrt(1.0 + x * x)
    one_px2 = 1.0 + x * x
    out = (
        1.0 / (s * (1.0 + s))
        + (1.0 - x * x) / (2.0 * v * one_px2 * one_px2)
        + (2.0 * j - 1.0) / (v * x * x)
    )
    return float(out) if out.ndim == 0 else out


def bracket_xj(j, v: float):
    """Strict enclosure (lo, hi) of the minimizer:
    lo = 2 sqrt((j-3/4)(j+v-3/4))/v, hi = 2 sqrt((j-1/2)(j+v-1/2))/v."""
    j = np.asarray(j, dtype=float)
    lo = 2.0 * np.sqrt((j - 0.75) * (j + v - 0.75)) / v
    hi = 2.0 * np.sqrt((j - 0.5) * (j + v - 0.5)) / v
    if lo.ndim == 0:
        return float(lo), float(hi)
    return lo, hi


def minimizer_xj(params: TauParams) -> float:
    """Minimizer x_j of tau_j, in closed form.

    With s = sqrt(1+x^2), so that x^2/(1+s) = s-1,

        v x s^2 tau_j'(x) = v s^2 (s-1) + (s^2-1)/2 - (2j-1) s^2
                          = v s^3 - (v+2j-3/2) s^2 - 1/2,

    a cubic with one root s > 1.  Cardano's form of it,
    s = b (1 + q + 1/q) with b = (v+2j-3/2)/(3v), r = 1/(4 v b^3) and
    q = cbrt(1 + r + sqrt(r (2+r))), has only positive terms (b^3 overflowing
    just sends r to 0).  Dividing the cubic by v s^2 gives
    s - 1 = (2j-3/2)/v + 1/(2 v s^2), and x_j = sqrt(s-1) sqrt(s+1) follows
    without cancellation, and without the product (s-1)(s+1) overflowing at
    tiny v.  Within 1.9e-16 relative of a 40-digit bisection of tau_j' on j
    from 1 to 1e12 against v from 1e-6 to 1e100 (64 cases).
    """
    j, v = float(params.j), params.v
    b = (v + 2.0 * j - 1.5) / (3.0 * v)
    # np.power, not a float's **, which rounds the last bit differently and raises on overflow
    with np.errstate(over="ignore"):
        r = 1.0 / (4.0 * v * np.power(b, 3))
    q = np.cbrt(1.0 + r + np.sqrt(r * (2.0 + r)))
    s = b * (1.0 + q + 1.0 / q)
    s_m1 = (2.0 * j - 1.5) / v + 1.0 / (2.0 * v * s * s)
    return float(np.sqrt(s_m1) * np.sqrt(s + 1.0))


def kappa(alpha: float, x: float) -> float:
    """kappa_alpha(x): the positive root of k (k + alpha) = (1 + alpha) x^2.

    Evaluated as 2(1+a)x^2 / (a + sqrt(a^2 + 4(1+a)x^2)) for finite a (no
    cancellation); the limits are kappa_0 = x and kappa_inf = x^2.
    ``alpha`` is a float in [0, inf] (0.0 and math.inf select the limits)
    and ``x`` a float > 0; inf where kappa exceeds the largest double, NaN
    for a NaN x.
    """
    a = check_alpha(alpha)
    x = float(x)
    if x <= 0.0:
        raise ValueError("kappa needs x > 0")
    if a == 0.0:
        return x
    if math.isinf(a):
        return x * x
    # a^2 and 2(1+a) overflow; divided by the power of two m just above a
    # (1 for a < 1, at most 2^1023), which is exact, they cannot.  Above
    # x = 1e150, where x^2 can overflow, a factor x comes out; below 2^-511,
    # where x^2 is subnormal, too, with (b/x)^2 kept inside a hypot, since
    # b/x can pass 1e154 there.
    m = math.ldexp(1.0, min(1023, max(0, math.frexp(a)[1])))
    b, c = a / m, (1.0 + a) / m
    if x > 1e150:
        y = b / x
        return x * (2.0 * c / (y + math.sqrt(y * y + 4.0 * c / m)))
    if x < 2.0**-511:
        y = b / x
        return x * (2.0 * c / (y + math.hypot(y, math.sqrt(4.0 * c / m))))
    return 2.0 * c * x * x / (b + math.sqrt(b * b + 4.0 * c * x * x / m))

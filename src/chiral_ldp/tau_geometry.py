"""Geometry of the large-order exponent tau_j and the kappa map.

For order v > 0 and index j >= 1, the per-index tail integrals take the form
int exp(-v * tau_j(x)) dx with

    tau_j(x) = u(x) + log(1 + x^2)/(4 v) - (2 j - 1) log(x)/v,
    u(x)     = sqrt(1 + x^2) - log(1 + sqrt(1 + x^2)).

This module evaluates tau_j and its first two derivatives, locates the unique
minimizer x_j (which satisfies the sandwich
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
    "minimizer_xj_array",
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


def _tau_terms(j, v: float, x):
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("tau_j needs x > 0")
    s = np.sqrt(1.0 + x * x)
    return x, s


def tau(params: TauParams, x):
    """tau_j(x) for x > 0, vectorized in x."""
    j, v = params.j, params.v
    x, s = _tau_terms(j, v, x)
    out = (s - np.log1p(s)) + np.log1p(x * x) / (4.0 * v) - (2.0 * j - 1.0) * np.log(x) / v
    return float(out) if out.ndim == 0 else out


def _tau_prime(j, v: float, x: np.ndarray) -> np.ndarray:
    s = np.sqrt(1.0 + x * x)
    return x / (1.0 + s) + x / (2.0 * v * (1.0 + x * x)) - (2.0 * j - 1.0) / (v * x)


def _tau_second(j, v: float, x: np.ndarray) -> np.ndarray:
    s = np.sqrt(1.0 + x * x)
    one_px2 = 1.0 + x * x
    return (
        1.0 / (s * (1.0 + s))
        + (1.0 - x * x) / (2.0 * v * one_px2 * one_px2)
        + (2.0 * j - 1.0) / (v * x * x)
    )


def tau_prime(params: TauParams, x):
    """d tau_j / dx, vectorized in x."""
    x, _ = _tau_terms(params.j, params.v, x)
    out = _tau_prime(params.j, params.v, x)
    return float(out) if out.ndim == 0 else out


def tau_second(params: TauParams, x):
    """d^2 tau_j / dx^2, vectorized in x."""
    x, _ = _tau_terms(params.j, params.v, x)
    out = _tau_second(params.j, params.v, x)
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


def minimizer_xj_array(j, v: float, tol: float = 1e-13) -> np.ndarray:
    """Minimizers x_j of tau_j for an array of indices, by safeguarded Newton.

    Newton steps on tau' are clamped into the analytic bracket, which both
    seeds and guards the iteration; convergence is |tau'| <= tol * (1+x)
    at every entry (tol a hair below the contract so round-trip checks pass).
    """
    j = np.atleast_1d(np.asarray(j, dtype=float))
    if np.any(j < 1.0):
        raise ValueError("indices must be >= 1")
    if not v > 0.0:
        raise ValueError("order v must be > 0")
    lo, hi = bracket_xj(j, v)
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    x = 0.5 * (lo + hi)
    for _ in range(80):
        fp = _tau_prime(j, v, x)
        if np.all(np.abs(fp) <= tol * (1.0 + np.abs(x))):
            break
        fpp = _tau_second(j, v, x)
        step = np.where(fpp > 0.0, fp / np.where(fpp > 0.0, fpp, 1.0), 0.0)
        x_new = x - step
        # fall back to bisection against the live bracket when Newton leaves it
        bad = (x_new <= lo) | (x_new >= hi) | ~np.isfinite(x_new)
        x_new = np.where(bad, 0.5 * (lo + hi), x_new)
        # tau' is increasing through the root: shrink the bracket
        lo = np.where(fp < 0.0, np.maximum(lo, x), lo)
        hi = np.where(fp > 0.0, np.minimum(hi, x), hi)
        x = x_new
    return x


def minimizer_xj(params: TauParams) -> float:
    """Minimizer x_j of tau_j; satisfies |tau_j'(x_j)| <= 1e-12 (1 + x_j)."""
    return float(minimizer_xj_array(np.array([params.j]), params.v)[0])


def kappa(alpha, x):
    """kappa_alpha(x): the positive root of k (k + alpha) = (1 + alpha) x^2.

    Evaluated as 2(1+a)x^2 / (a + sqrt(a^2 + 4(1+a)x^2)) for finite a (no
    cancellation); the limits are kappa_0 = x and kappa_inf = x^2.
    ``alpha`` is a float in [0, inf] (0.0 and math.inf select the limits);
    vectorized in x.
    """
    a = check_alpha(alpha)
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0):
        raise ValueError("kappa needs x > 0")
    if a == 0.0:
        out = x.copy()
    elif math.isinf(a):
        out = x * x
    else:
        # a^2 overflows above a ~ 1.3e154; scaled by the power of two m just
        # above a (1 for a < 1), which is exact, it cannot
        m = math.ldexp(1.0, max(0, math.frexp(a)[1]))
        b = a / m
        out = 2.0 * (1.0 + a) * x * x / (a + m * np.sqrt(b * b + 4.0 * (1.0 + a) / m * x * x / m))
    return float(out) if out.ndim == 0 else out

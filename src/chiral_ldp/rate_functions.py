"""Limiting rate functions for the extreme scaled squared moduli.

All rates are parametrized by alpha = lim v/n, a float that is 0.0, a finite
positive value, or math.inf, through the kappa map

    kappa (kappa + alpha) = (1 + alpha) x^2.

Each rate is one formula for all alpha in [0, inf], whose alpha = 0 and inf
values are the closed-form limits: a sum of terms >= 0 in c = 1 + alpha,
e = kappa - 1 (d = 1 - kappa below one), h(y) = y - log1p(y),
H(y) = h(y)/y^2 and g(y) = -log1p(-y) - y - y^2/2.  So it is never negative
and stays within a few ulp of the published display, also where it vanishes
(x -> 1) and at the ends of the double range.  The one exception: the
infinity branch of :func:`rate_max_left` reproduces a published display that
is *not* the pointwise limit of the finite-alpha formula and goes negative on
most of (0, 1); it carries a warning, and the consistent limit is
:func:`rate_max_left_infinity_consistent`.

Speeds: the max upper tail decays at speed n, the max lower tail at n^2, the
min upper tail at n^2.  The moderate-deviation constants and the v-scale min
rate live here too; :data:`chiral_ldp.asymptotics_lab.THEOREMS` pairs each
rate with its speed and deviation scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core_types import check_alpha
from .tau_geometry import kappa

__all__ = [
    "RateEval",
    "rate_max_right",
    "rate_max_left",
    "rate_max_left_infinity_consistent",
    "rate_min_right",
    "mdp_max_right_const",
    "mdp_max_left_const",
    "mdp_min_alpha_const",
    "vscale_rate",
    "vscale_rate_statement_form",
]


@dataclass(frozen=True)
class RateEval:
    """A rate-function evaluation: value, branch tag, and the kappa used
    (None on branches that never form kappa).  ``warning`` flags evaluations
    of displays with known defects."""

    value: float
    branch: str
    kappa_used: float | None = None
    warning: str | None = None


def _half_excess(y: float) -> float:
    """H(y) for y in [0, inf]: 1/2 at 0, falling to 0 at infinity.  Below
    y = 1/4 by its series 1/2 - y/3 + y^2/4 - ... (29 terms); above, the
    direct form cancels at most one digit."""
    if y >= 0.25:
        return (y - math.log1p(y)) / y / y if y < math.inf else 0.0
    acc = 0.0
    for n in range(30, 1, -1):
        acc = 1.0 / n - y * acc
    return acc


def _scaled_h(e: float, c: float) -> float:
    """c h(e/c) for e >= 0 and c in [1, inf]: e y H(y) with y = e/c below
    y = 1/4, so that c = inf gives 0, and e - c log1p(y) above, where
    nothing overflows."""
    y = e / c
    return e * y * _half_excess(y) if y < 0.25 else e - c * math.log1p(y)


def _scaled_g(d: float, c: float, log_ratio: float) -> float:
    """c^2 g(d/c) for d in [0, 1] and c in [1, inf), given
    ``log_ratio`` = -log1p(-d/c), which the caller forms without rounding
    1 - d/c.  Below y = d/c = 3/4 by the series d^2 y (1/3 + y/4 + ...)
    (123 terms); above, where c <= 4/3, the direct form cancels a factor 4."""
    y = d / c
    if y >= 0.75:
        return c * (c * log_ratio - d) - 0.5 * d * d
    acc = 0.0
    for n in range(125, 2, -1):
        acc = 1.0 / n + y * acc
    return d * d * y * acc


def _kappa_gap(a: float, x: float, k: float) -> float:
    """|kappa - 1| from (kappa - 1)(kappa + 1 + a) = (1 + a)(x^2 - 1), where
    x - 1 is exact near 1 and kappa - 1 is not."""
    return abs(x - 1.0) * ((x + 1.0) / (1.0 + k / (1.0 + a)))


def _power(x: float, p: int) -> float:
    """x**p for x >= 0, inf where it overflows (a float's ** raises there)."""
    try:
        return x**p
    except OverflowError:
        return math.inf


_BRANCH = {0.0: "zero_alpha", math.inf: "infinite_alpha"}


def rate_max_right(alpha, x: float) -> RateEval:
    """Decay rate (speed n) of P(max X >= x); zero on x <= 1.

    The finite-alpha display alpha log((1+alpha)/(alpha+kappa))
    + 2 (kappa - log x - 1) is h(e) + c h(e/c); its limits are
    2(x - log x - 1) at alpha = 0 and x^2 - 2 log x - 1 at infinity.
    """
    if not x > 0.0:
        raise ValueError("x must be > 0")
    a = check_alpha(alpha)
    if x <= 1.0:
        return RateEval(0.0, "zero_region", None)
    k, branch = float(kappa(a, x)), _BRANCH.get(a, "finite_alpha")
    if k == math.inf:  # kappa overflows only where the rate, at least kappa, does too
        return RateEval(k, branch, k)
    e = _kappa_gap(a, x, k)
    return RateEval(_scaled_h(e, 1.0) + _scaled_h(e, 1.0 + a), branch, k)


def rate_max_left(alpha, x: float) -> RateEval:
    """Decay rate (speed n^2) of P(max X <= x); zero on x >= 1.

    The finite-alpha display (alpha + alpha^2/2) log((1+alpha)/(kappa+alpha))
    - log x - (alpha + 3 - kappa)(1 - kappa)/2 is [g(d) + c^2 g(d/c)]/2; its
    alpha = 0 limit is -log x - (x^2 - 4x + 3)/2.  The infinity branch
    evaluates the published display -log x - (x^4 - 4x^2 + 3)/2, which is
    not the limit of the finite-alpha formula and is negative on most of
    (0,1); it is returned with a warning.  See
    :func:`rate_max_left_infinity_consistent`.
    """
    if not x > 0.0:
        raise ValueError("x must be > 0")
    a = check_alpha(alpha)
    if x >= 1.0:
        return RateEval(0.0, "zero_region", None)
    k = float(kappa(a, x))
    if math.isinf(a):
        x2 = x * x
        value = -math.log(x) - (x2 * x2 - 4.0 * x2 + 3.0) / 2.0
        return RateEval(
            value,
            "infinite_alpha_display",
            k,
            warning=(
                "published infinite-alpha display; not the pointwise limit of the "
                "finite-alpha rate and negative on most of (0,1) - see "
                "rate_max_left_infinity_consistent"
            ),
        )
    d = _kappa_gap(a, x, k)
    # -log1p(-d/c) = log((1+a)/(a+k)), two terms >= 0 where _scaled_g reads it (d/c >= 3/4);
    # -log1p(-d) = -log k, from k (k + a) = (1 + a) x^2 where kappa loses digits to underflow
    log_ratio = math.log1p(a) - math.log(a + k)
    log_k = math.log(k) if k >= sys.float_info.min else 2.0 * math.log(x) + log_ratio
    value = 0.5 * (_scaled_g(d, 1.0, -log_k) + _scaled_g(d, 1.0 + a, log_ratio))
    return RateEval(value, _BRANCH.get(a, "finite_alpha"), k)


def rate_max_left_infinity_consistent(x: float) -> float:
    """Pointwise alpha -> infinity limit of the finite-alpha left max rate:
    x^2 - x^4/4 - 3/4 - log x = g(1 - x^2)/2 on (0, 1), zero at 1."""
    if not x > 0.0:
        raise ValueError("x must be > 0")
    if x >= 1.0:
        return 0.0
    return 0.5 * _scaled_g((1.0 - x) * (1.0 + x), 1.0, -2.0 * math.log(x))


def rate_min_right(alpha, x: float) -> RateEval:
    """Decay rate (speed n^2) of P(min X >= x), positive for all x > 0.

    Branches at x = 1 (continuously):

    x >= 1: alpha ((alpha+2)/2 log(1+1/alpha) - log(1+kappa/alpha))
            + 2 kappa - (3+alpha)/2 - log x
          = (1 - H(1/alpha))/2 + e (1/2 + 1/(2c)) + (1 - 1/(2c)) c h(e/c) + h(e)/2
    x < 1:  alpha^2/2 log(1+kappa/alpha) - (alpha kappa - kappa^2)/2
          = kappa^2 (1 - H(kappa/alpha))/2

    Limits: 2x - 3/2 - log x and x^2/2 at alpha=0;
            x^2 - log x - 3/4 and x^4/4 at infinity.
    """
    if not x > 0.0:
        raise ValueError("x must be > 0")
    a = check_alpha(alpha)
    k = float(kappa(a, x))
    excess = _half_excess((1.0 if x >= 1.0 else k) / a) if a else 0.0
    if x < 1.0:
        return RateEval(k * k * (0.5 - 0.5 * excess), "below_one", k)
    if k == math.inf:  # where kappa overflows, so does the rate
        return RateEval(k, "above_one", k)
    e, c = _kappa_gap(a, x, k), 1.0 + a
    value = 0.5 - 0.5 * excess + e * (0.5 + 0.5 / c) + (1.0 - 0.5 / c) * _scaled_h(e, c)
    return RateEval(value + 0.5 * _scaled_h(e, 1.0), "above_one", k)


def mdp_max_right_const(alpha) -> float:
    """Coefficient of x^2 in the max upper moderate tail (speed n l^2):
    2(1+alpha)/(2+alpha); 1 at alpha=0, 2 at infinity.  Evaluated as
    2 ((1+alpha)/(2+alpha)), which does not overflow for huge alpha."""
    a = check_alpha(alpha)
    if math.isinf(a):
        return 2.0
    return 2.0 * ((1.0 + a) / (2.0 + a))


def mdp_max_left_const(alpha) -> float:
    """Coefficient of x^3 in the max lower moderate tail (speed n^2 l^3):
    4(1+alpha)^2/(3(2+alpha)^2); 1/3 at alpha=0, 4/3 at infinity.  Evaluated
    as 4/3 ((1+alpha)/(2+alpha))^2, which does not overflow for huge alpha."""
    a = check_alpha(alpha)
    if math.isinf(a):
        return 4.0 / 3.0
    return 4.0 / 3.0 * ((1.0 + a) / (2.0 + a)) ** 2


def mdp_min_alpha_const(alpha) -> float:
    """Coefficient of x^4 in the min moderate tail for v ~ alpha n with
    alpha in (0, inf] (speed n^2 l^4): (1+alpha)^2/(4 alpha^2); 1/4 at
    infinity.  Evaluated as ((1+alpha)/alpha/2)^2, which does not overflow
    for huge alpha; inf below alpha ~ 1e-154, where the value overflows."""
    a = check_alpha(alpha)
    if a == 0.0:
        raise ValueError("alpha-positive regime needs alpha > 0")
    if math.isinf(a):
        return 0.25
    return _power((1.0 + a) / a / 2.0, 2)


def _vscale_root(x: float) -> float:
    """s = (sqrt(1+4x^2) - 1)/2 = x^2/(1/2 + sqrt(1/4 + x^2)) for x >= 0,
    so that x^2 = s + s^2; nothing overflows."""
    if not x >= 0.0:
        raise ValueError("x must be >= 0")
    return x * (x / (0.5 + math.hypot(0.5, x)))


def vscale_rate(x: float) -> float:
    """Rate at the v/n level scale (speed v^2), in the proof form

        Phi(x) = log((1 + sqrt(1+4x^2))/2)/2 + (1 + x^2)/2 - sqrt(1+4x^2)/2
               = s^2 (1 - H(s))/2 with s = (sqrt(1+4x^2) - 1)/2.

    Phi(x) = x^4/4 - x^6/3 + O(x^8) at small x, and Phi(x)/(x^2/2) -> 1 as
    x -> infinity, matching the intermediate regime."""
    s = _vscale_root(x)
    return s * (s * (0.5 - 0.5 * _half_excess(s)))


def vscale_rate_statement_form(x: float) -> float:
    """The same rate as published in the theorem statement, with every term
    inside the logarithm:

        log((1 + sqrt(1+4x^2))/2 + 1 + x^2 - sqrt(1+4x^2)) / 2 = log1p(s^2)/2,

    taken as log1p(sqrt(1+s^2) - 1).  Differs from :func:`vscale_rate` (0.16175
    vs 0.12257 at x=1); reported side by side so experiments can adjudicate.
    """
    s = _vscale_root(x)
    return math.log1p(s * (s / (1.0 + math.hypot(1.0, s))))

"""Limiting rate functions for the extreme scaled squared moduli.

All rates are parametrized by alpha = lim v/n, a float that is 0.0, a finite
positive value, or math.inf, through the kappa map

    kappa (kappa + alpha) = (1 + alpha) x^2,

and every closed form below is the corresponding limit of the finite-alpha
expression unless explicitly noted.  The known exception: the infinity branch
of :func:`rate_max_left` reproduces a published display that is *not* the
pointwise limit of the finite-alpha formula and goes negative on most of
(0, 1); evaluations of it carry a warning, and the consistent limit is
available as :func:`rate_max_left_infinity_consistent`.

Speeds: the max upper tail decays at speed n, the max lower tail at n^2, the
min upper tail at n^2.  The moderate-deviation constants and the v-scale min
rate live here too; :data:`chiral_ldp.asymptotics_lab.THEOREMS` pairs each
rate with its speed and deviation scale.
"""

from __future__ import annotations

import math
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


def _log1p_excess(y: float) -> float:
    """(log1p(y) - y + y^2/2) / y^2 for y > 0, which rises from y/3 near 0
    to 1/2 at infinity.

    The finite-alpha rates below write each a^2-weighted log1p through it, so
    that the O(a) and O(a^2) parts cancel in closed form rather than in
    rounding.  For y < 1/4 its series y/3 - y^2/4 + y^3/5 - ... reaches
    double precision in 28 terms; above, the direct form cancels at most
    two digits.
    """
    if y >= 0.25:
        return (math.log1p(y) - y) / y / y + 0.5
    acc = 0.0
    for n in range(30, 2, -1):
        acc = 1.0 / n - y * acc
    return y * acc


def _log_ratio(a: float, k: float) -> float:
    """log((1+a)/(a+k)) for k >= 1 as log1p((1-k)/(a+k)), which keeps the term
    at large a; as -log1p((k-1)/(1+a)) where that argument rounds to -1 or a+k overflows."""
    w = (1.0 - k) / (a + k)
    return math.log1p(w) if w > -1.0 and a + k < math.inf else -math.log1p((k - 1.0) / (1.0 + a))


def _power(x: float, p: int) -> float:
    """x**p for x >= 0, inf where it overflows (a float's ** raises there)."""
    try:
        return x**p
    except OverflowError:
        return math.inf


def rate_max_right(alpha, x: float) -> RateEval:
    """Decay rate (speed n) of P(max X >= x); zero on x <= 1.

    Finite alpha: alpha log((1+alpha)/(alpha+kappa)) + 2 (kappa - log x - 1);
    limits 2(x - log x - 1) at alpha=0 and x^2 - 2 log x - 1 at infinity.
    """
    if not x > 0.0:
        raise ValueError("x must be > 0")
    a = check_alpha(alpha)
    if x <= 1.0:
        return RateEval(0.0, "zero_region", None)
    if a == 0.0:
        return RateEval(2.0 * (x - math.log(x) - 1.0), "zero_alpha", float(kappa(a, x)))
    if math.isinf(a):
        return RateEval(x * x - 2.0 * math.log(x) - 1.0, "infinite_alpha", float(kappa(a, x)))
    k = float(kappa(a, x))
    if k == math.inf:  # kappa overflows only where the rate, at least kappa, does too
        return RateEval(k, "finite_alpha", k)
    drop, rise = a * _log_ratio(a, k), k - math.log(x) - 1.0
    value = drop + 2.0 * rise
    if value == math.inf:  # only 2 rise overflowed, and halving is exact
        value = 2.0 * (0.5 * drop + rise)
    return RateEval(value, "finite_alpha", k)


def rate_max_left(alpha, x: float) -> RateEval:
    """Decay rate (speed n^2) of P(max X <= x); zero on x >= 1.

    Finite alpha: (alpha + alpha^2/2) log((1+alpha)/(kappa+alpha)) - log x
    - (alpha + 3 - kappa)(1 - kappa)/2; the alpha=0 limit is
    -log x - (x^2 - 4x + 3)/2.  The infinity branch evaluates the published
    display -log x - (x^4 - 4x^2 + 3)/2, which is not the limit of the
    finite-alpha formula and is negative on most of (0,1); it is returned
    with a warning.  See :func:`rate_max_left_infinity_consistent`.
    """
    if not x > 0.0:
        raise ValueError("x must be > 0")
    a = check_alpha(alpha)
    if x >= 1.0:
        return RateEval(0.0, "zero_region", None)
    if a == 0.0:
        value = -math.log(x) - (x * x - 4.0 * x + 3.0) / 2.0
        return RateEval(value, "zero_alpha", float(kappa(a, x)))
    if math.isinf(a):
        x2 = x * x
        value = -math.log(x) - (x2 * x2 - 4.0 * x2 + 3.0) / 2.0
        return RateEval(
            value,
            "infinite_alpha_display",
            float(kappa(a, x)),
            warning=(
                "published infinite-alpha display; not the pointwise limit of the "
                "finite-alpha rate and negative on most of (0,1) - see "
                "rate_max_left_infinity_consistent"
            ),
        )
    k = float(kappa(a, x))
    # With d = 1 - k and w = d/(k+a), (a + a^2/2) log1p(w) is O(a) and the
    # polynomial term O(a) too; taking log1p(w) = w - w^2/2 + w^2 E(w)
    # (E = _log1p_excess) and cancelling the O(a) parts in closed form
    # leaves terms that stay O(1) for every a, with g = (a + a^2/2) w^2.
    d = 1.0 - k
    w = d / (k + a)
    g = a / (k + a) * (1.0 + a / 2.0) / (k + a) * d * d
    value = -math.log(x) - d / 2.0 * (k * (a + 2.0) / (a + k) + d) + g * (_log1p_excess(w) - 0.5)
    return RateEval(value, "finite_alpha", k)


def rate_max_left_infinity_consistent(x: float) -> float:
    """Pointwise alpha -> infinity limit of the finite-alpha left max rate:
    x^2 - x^4/4 - 3/4 - log x on (0, 1), zero at 1."""
    if not x > 0.0:
        raise ValueError("x must be > 0")
    if x >= 1.0:
        return 0.0
    x2 = x * x
    return x2 - x2 * x2 / 4.0 - 0.75 - math.log(x)


def rate_min_right(alpha, x: float) -> RateEval:
    """Decay rate (speed n^2) of P(min X >= x), positive for all x > 0.

    Branches at x = 1 (continuously):

    x >= 1: alpha ((alpha+2)/2 log(1+1/alpha) - log(1+kappa/alpha))
            + 2 kappa - (3+alpha)/2 - log x
    x < 1:  alpha^2/2 log(1+kappa/alpha) - (alpha kappa - kappa^2)/2

    Limits: 2x - 3/2 - log x and x^2/2 at alpha=0;
            x^2 - log x - 3/4 and x^4/4 at infinity.
    """
    if not x > 0.0:
        raise ValueError("x must be > 0")
    a = check_alpha(alpha)
    k = float(kappa(a, x))
    if x >= 1.0:
        if a == 0.0:
            value = 2.0 * x - 1.5 - math.log(x)
        elif math.isinf(a):
            value = x * x - math.log(x) - 0.75
        elif k < math.inf:  # where kappa overflows, so does the rate
            # a ((a+2)/2 log1p(1/a) - log1p(k/a)) - a/2 in O(1) terms:
            # (a^2/2) (log1p(1/a) - 1/a + 1/(2a^2)) - 1/4 + a log((1+a)/(a+k))
            # summed halved, which is exact here and keeps 2 k from overflowing
            e, drop = _log1p_excess(1.0 / a), a * _log_ratio(a, k)
            value = 2.0 * (0.25 * e - 0.125 + 0.5 * drop + k - 0.75 - 0.5 * math.log(x))
        else:
            value = k
        return RateEval(value, "above_one", k)
    if a == 0.0:
        value = x * x / 2.0
    elif math.isinf(a):
        value = x * x * x * x / 4.0
    else:
        # a^2/2 log1p(k/a) - (a k - k^2)/2 = k^2/4 + (k^2/2) E(k/a)
        value = k * k * (0.25 + 0.5 * _log1p_excess(k / a))
    return RateEval(value, "below_one", k)


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


def vscale_rate(x: float) -> float:
    """Rate at the v/n level scale (speed v^2), in the proof form

        Phi(x) = log((1 + sqrt(1+4x^2))/2)/2 + (1 + x^2)/2 - sqrt(1+4x^2)/2.

    Small-x behavior Phi(x) = x^4/4 - x^6/3 + O(x^8); Phi(x)/(x^2/2) -> 1 as
    x -> infinity, matching the intermediate regime.  Phi(0) = 0.
    """
    if not x >= 0.0:
        raise ValueError("x must be >= 0")
    if x > 1e150:  # the rest is below an ulp of x^2/2, and x^2 overflows from 1.3e154
        return 0.5 * x * x
    r = math.sqrt(1.0 + 4.0 * x * x)
    return 0.5 * math.log((1.0 + r) / 2.0) + (1.0 + x * x) / 2.0 - r / 2.0


def vscale_rate_statement_form(x: float) -> float:
    """The same rate as published in the theorem statement, with every term
    inside the logarithm:

        log((1 + sqrt(1+4x^2))/2 + 1 + x^2 - sqrt(1+4x^2)) / 2.

    Differs from :func:`vscale_rate` (0.16175 vs 0.12257 at x=1); reported
    side by side so experiments can adjudicate.
    """
    if not x >= 0.0:
        raise ValueError("x must be >= 0")
    r = math.sqrt(1.0 + 4.0 * x * x)
    if r == math.inf:  # 4x^2 overflowed; the rest, about -1/(2x), is below an ulp of log x
        return math.log(x)
    return 0.5 * math.log((1.0 + r) / 2.0 + 1.0 + x * x - r)

"""Asymptotic predictors and the convergence harness.

The predictors implement published two-branch asymptotics for single-index
tail log-probabilities: closed formulas with an unresolved additive
correction (written Õ(log n): limsup of correction/log n is finite).  They
are consistency checks and experiment design tools, never the computation;
exact values always come from :mod:`chiral_ldp.exact_dist`.

The convergence harness turns each limit theorem into a table: exact decay
exponents at finite (n, v) against the limiting rate, with the gap scaled
by the theorem's speed so rows are comparable across n.  Each theorem is
one record of :data:`THEOREMS`, which the ``rate`` command reads too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core_types import (
    EnsembleParams,
    TailQuery,
    Statistic,
    Direction,
    centering_a,
    centering_a_consistent,
    check_index,
    derived_scales,
    gumbel_sf,
)
from .exact_dist import log_prob
from .rate_functions import (
    RateEval,
    _power,
    mdp_max_left_const,
    mdp_max_right_const,
    mdp_min_alpha_const,
    rate_max_left,
    rate_max_right,
    rate_min_right,
    vscale_rate,
    vscale_rate_statement_form,
)
from .tau_geometry import TauParams, minimizer_xj, u

__all__ = [
    "AsymptoticPrediction",
    "ConvergenceRow",
    "CltRow",
    "MaSums",
    "LimitTheorem",
    "RegimeError",
    "THEOREMS",
    "THEOREM_TAGS",
    "predict_log_sf_bounded_v",
    "predict_log_cdf_bounded_v",
    "predict_log_sf_large_v",
    "predict_log_cdf_large_v",
    "lemma_ma_sums",
    "converge_table",
    "clt_check",
]

CLASS_LOG_N = "O~(log n)"

# Operational reading of the predictors' validity regimes.
_BOUNDED_V_MIN_CA = 30.0
_BOUNDED_V_MAX_A = 10.0
_LARGE_V_MIN = 30


class RegimeError(ValueError):
    """A predictor was asked outside its asymptotic validity regime."""


@dataclass(frozen=True)
class AsymptoticPrediction:
    """A predicted log-probability plus the class of the neglected term."""

    value: float
    correction_class: str


@dataclass(frozen=True)
class ConvergenceRow:
    """One finite-(n, v) data point of a limit-theorem experiment.

    ``exact`` is the decay exponent −log P at the theorem's threshold;
    ``predicted`` is ``scaling * rate_target``, and ``scaled_gap`` is
    |exact/scaling − rate_target|.  For the minimum-statistic experiment at
    the v-proportional deviation scale the row also carries the alternative
    published rate display so both can be compared side by side.
    """

    n: int
    v: int
    x: float
    l: float | None
    scaling: float
    exact: float
    predicted: float
    rate_target: float
    scaled_gap: float
    alt_rate_target: float | None = None
    alt_scaled_gap: float | None = None
    note: str | None = None


@dataclass(frozen=True)
class CltRow:
    """Exact versus Gumbel-limit probability at one fluctuation level.

    ``target`` uses the self-consistent centering; ``target_display`` is
    the value the published display form predicts at the same level y
    (its argument sits exactly log(2*pi)/2 above the consistent one).
    """

    n: int
    v: int
    y: float
    g_arg: float
    exact: float
    target: float
    abs_gap: float
    target_display: float
    abs_gap_display: float


@dataclass(frozen=True)
class MaSums:
    """Two logarithmic sums next to their displayed closed asymptotics."""

    exact_1: float
    asym_1: float
    exact_2: float
    asym_2: float

    @property
    def residual_1(self) -> float:
        return self.exact_1 - self.asym_1

    @property
    def residual_2(self) -> float:
        return self.exact_2 - self.asym_2


def _bounded_v(
    params: EnsembleParams, j: int, a: float, cut: float, upper: bool
) -> AsymptoticPrediction:
    # 0 when the index cutoff 2j + v - cut lies above c*a for the upper tail
    # (below it for the lower one), else the bulk cost -2j log(j/(na)) + 2j - 2na
    check_index(params, j)
    if a <= 0:
        raise ValueError("threshold a must be positive")
    n = params.n
    ca = derived_scales(params).c * a
    if ca < _BOUNDED_V_MIN_CA or a > _BOUNDED_V_MAX_A:
        raise RegimeError(
            f"bounded-v predictor needs c*a >= {_BOUNDED_V_MIN_CA} and "
            f"a <= {_BOUNDED_V_MAX_A}; got c*a = {ca:.3g}, a = {a:.3g}"
        )
    if (2 * j + params.v - cut > ca) == upper:
        return AsymptoticPrediction(value=0.0, correction_class=CLASS_LOG_N)
    value = -2.0 * j * math.log(j / (n * a)) + 2.0 * j - 2.0 * n * a
    return AsymptoticPrediction(value=value, correction_class=CLASS_LOG_N)


def _large_v(
    params: EnsembleParams, j: int, a: float, upper: bool
) -> AsymptoticPrediction:
    # the saddle value when z = c*a/v lies above x_j for the upper tail (below
    # it for the lower one), else 0
    check_index(params, j)
    if a <= 0:
        raise ValueError("threshold a must be positive")
    v = params.v
    if v < _LARGE_V_MIN:
        raise RegimeError(
            f"large-v predictor needs v >= {_LARGE_V_MIN}; got v = {v}"
        )
    z = derived_scales(params).c * a / v
    if (z > minimizer_xj(TauParams(j=j, v=float(v)))) != upper:
        return AsymptoticPrediction(value=0.0, correction_class=CLASS_LOG_N)
    value = (
        (2 * j + v - 1) * math.log(v)
        + (2 * j + v) * (1.0 - math.log(2.0))
        - (j + v - 0.5) * math.log(j + v)
        - (j - 0.5) * math.log(j)
        - v * u(z)
        + (2 * j - 1) * math.log(z)
    )
    return AsymptoticPrediction(value=value, correction_class=CLASS_LOG_N)


def predict_log_sf_bounded_v(
    params: EnsembleParams, j: int, a: float
) -> AsymptoticPrediction:
    """Predicted log P(X_j >= a) for bounded v, up to an O~(log n) term.

    Indices with 2j + v - 1/2 above the threshold c*a keep essentially all
    their mass above it, so the prediction is 0; below it the tail costs
    -2j log(j/(na)) + 2j - 2na.
    """
    return _bounded_v(params, j, a, cut=0.5, upper=True)


def predict_log_cdf_bounded_v(
    params: EnsembleParams, j: int, a: float
) -> AsymptoticPrediction:
    """Predicted log P(X_j <= a) for bounded v, up to an O~(log n) term.

    Mirror of the survival predictor with the branches swapped and the
    index cutoff shifted to 2j + v - 5/2.
    """
    return _bounded_v(params, j, a, cut=2.5, upper=False)


def predict_log_sf_large_v(
    params: EnsembleParams, j: int, a: float
) -> AsymptoticPrediction:
    """Predicted log P(X_j >= a) in the large-v regime.

    The branch point is the minimizer x_j of the index's exponent: a
    threshold below it leaves the mode in the tail (prediction 0), one
    above it costs the saddle value.
    """
    return _large_v(params, j, a, upper=True)


def predict_log_cdf_large_v(
    params: EnsembleParams, j: int, a: float
) -> AsymptoticPrediction:
    """Predicted log P(X_j <= a) in the large-v regime (branches swapped)."""
    return _large_v(params, j, a, upper=False)


def lemma_ma_sums(n: int, v: int) -> MaSums:
    """Sum_i i log i and Sum_i (i+v-1/2) log(i+v) vs. their asymptotics.

    Exact values by direct accumulation; asymptotics by the displayed
    closed forms, whose O(1) residuals stay bounded (empirically below 1
    for n in [1e2, 1e5]).  At v = 0 the second display degenerates
    (log v and log(1 + n/v) blow up), so the formula is replaced by its
    algebraic reduction Sum (i - 1/2) log i = asym_1 - (Stirling of
    Sum log i), which keeps residual_2 = O(1).
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if v < 0:
        raise ValueError("v must be nonnegative")
    i = np.arange(1, n + 1, dtype=float)
    logi = np.log(i)
    exact_1 = float(np.dot(i, logi))
    asym_1 = (
        -(n**2) / 4.0
        + (n * (n + 1) / 2.0) * math.log(n)
        + math.log(n) / 12.0
    )
    exact_2 = float(np.dot(i + v - 0.5, np.log(i + v)))
    if v > 0:
        asym_2 = (
            -(n**2 + 2.0 * n * v - 2.0 * n) / 4.0
            + ((n + v) ** 2 / 2.0) * math.log(n + v)
            - (v**2 / 2.0) * math.log(v)
            - math.log1p(n / v) / 6.0
        )
    else:
        asym_2 = (
            -(n**2 - 2.0 * n) / 4.0
            + (n**2 / 2.0) * math.log(n)
            - math.log(n) / 6.0
        )
    return MaSums(exact_1=exact_1, asym_1=asym_1, exact_2=exact_2, asym_2=asym_2)


def _v_over_n(n: int, v: int) -> float:
    if v <= 0:
        raise ValueError("t4-item2 needs v >= 1 (deviation scale v/n)")
    return v / n


def _alpha_scale(n: int, v: int) -> float:
    if v <= 0:
        raise ValueError("t4-item3 needs v growing like n (alpha > 0)")
    return float(n) ** -(1.0 / 5.0)


def _power_window(s: int) -> Callable[[int, float], str | None]:
    """The moderate-deviation window log n/n < l^s < 1."""

    def note(n: int, l: float) -> str | None:
        if math.log(n) / n < l**s < 1.0:
            return None
        return f"window violated: need log n/n < l^{s} < 1, l^{s} = {l**s:.3g}"

    return note


def _mdp_min_small_v(alpha: float, x: float) -> RateEval:
    if not x >= 0.0:
        raise ValueError("x must be >= 0")
    return RateEval(x * x / 2.0, "mdp_speed_n2_l2")


def _mdp_min_alpha(alpha: float, x: float) -> RateEval:
    if not x >= 0.0:
        raise ValueError("x must be >= 0")
    c = mdp_min_alpha_const(alpha)
    # x^4/4 at alpha = inf bit for bit as rate_min_right(inf, x) gives it below one;
    # where c overflows (alpha below ~1e-154), (x sqrt(c) x)^2 does not
    x4 = _power(x, 4) if math.isfinite(alpha) else (x * x) * (x * x)
    value = c * x4 if c < math.inf else _power(x * (x * ((1.0 + alpha) / alpha / 2.0)), 2)
    return RateEval(value, "mdp_speed_n2_l4")


@dataclass(frozen=True)
class LimitTheorem:
    """One limit statement: which tail of which statistic, at which scale.

    At finite (n, v) the deviation scale is ``l = scale(n, v)`` (None for
    the large deviations), the statistic's threshold is ``level(l, x)``, and
    the exact decay exponent per unit of ``speed(n, v, l)`` tends to
    ``rate(v/n, x)``.  ``kind`` names the rate for ``chiral-ldp rate
    --which``; ``window`` reports a row outside the deviation-scale window;
    ``alt_rate`` is a published alternative display of the rate; ``grid``
    and ``x`` are the default experiment.
    """

    kind: str
    statistic: Statistic
    direction: Direction
    level: Callable[[float | None, float], float]
    scale: Callable[[int, int], float | None]
    speed: Callable[[int, int, float | None], float]
    rate: Callable[[float, float], RateEval]
    grid: tuple[tuple[int, int], ...]
    x: float
    window: Callable[[int, float], str | None] | None = None
    alt_rate: Callable[[float], float] | None = None

    def rate_at(self, alpha: float, x: float) -> RateEval:
        """``rate(alpha, x)`` at a level from outside the program, which must
        be finite and >= 0; the rate's own guards run first."""
        if 0.0 <= x < math.inf:
            return self.rate(alpha, x)
        self.rate(alpha, x)
        raise ValueError(f"x must be finite and >= 0, got {x}")


# Each default grid is a limit sequence inside its theorem's window, which
# holds from n = 1000 for t3-right and t4-item1, above n = 5500 for t3-left
# and above n = 3.3e5 for t4-item3; t4-item2 runs along v = sqrt(n), so that
# v grows while v/n falls.
THEOREMS: dict[str, LimitTheorem] = {
    "t1-right": LimitTheorem(
        "max-right", Statistic.MAX_SQ, Direction.GE, level=lambda l, x: x,
        scale=lambda n, v: None, speed=lambda n, v, l: float(n), rate=rate_max_right,
        grid=((25, 0), (50, 0), (100, 0), (200, 0)), x=1.5,
    ),
    "t1-left": LimitTheorem(
        "max-left", Statistic.MAX_SQ, Direction.LE, level=lambda l, x: x,
        scale=lambda n, v: None, speed=lambda n, v, l: float(n) ** 2, rate=rate_max_left,
        grid=((25, 0), (50, 0), (100, 0)), x=0.5,
    ),
    "t2": LimitTheorem(
        "min-right", Statistic.MIN_SQ, Direction.GE, level=lambda l, x: x,
        scale=lambda n, v: None, speed=lambda n, v, l: float(n) ** 2, rate=rate_min_right,
        grid=((25, 0), (50, 0), (100, 0)), x=2.0,
    ),
    "t3-right": LimitTheorem(
        "mdp-max-right", Statistic.MAX_SQ, Direction.GE, level=lambda l, x: 1.0 + l * x,
        scale=lambda n, v: float(n) ** -(1.0 / 3.0), speed=lambda n, v, l: n * l**2,
        rate=lambda a, x: RateEval(mdp_max_right_const(a) * x * x, "mdp_speed_n_l2"),
        grid=((1000, 0), (10000, 0)), x=1.0, window=_power_window(2),
    ),
    "t3-left": LimitTheorem(
        "mdp-max-left", Statistic.MAX_SQ, Direction.LE, level=lambda l, x: 1.0 - l * x,
        scale=lambda n, v: float(n) ** -(1.0 / 4.0), speed=lambda n, v, l: n**2 * l**3,
        rate=lambda a, x: RateEval(mdp_max_left_const(a) * _power(x, 3), "mdp_speed_n2_l3"),
        grid=((10**4, 0), (10**5, 0), (10**6, 0)), x=1.0, window=_power_window(3),
    ),
    "t4-item1": LimitTheorem(
        "mdp-min-small-v", Statistic.MIN_SQ, Direction.GE, level=lambda l, x: l * x,
        scale=lambda n, v: float(n) ** -(1.0 / 3.0), speed=lambda n, v, l: n**2 * l**2,
        rate=_mdp_min_small_v, grid=((1000, 0), (10000, 0)), x=1.0,
        window=_power_window(2),
    ),
    "t4-item2": LimitTheorem(
        "mdp-min-vscale", Statistic.MIN_SQ, Direction.GE, level=lambda l, x: l * x,
        scale=_v_over_n, speed=lambda n, v, l: float(v) ** 2,
        rate=lambda a, x: RateEval(vscale_rate(x), "mdp_speed_v2_proof_form"),
        grid=((10**4, 100), (10**5, 316), (10**6, 1000), (10**7, 3162)), x=1.0,
        window=lambda n, l: (
            None if 0.0 < l < 1.0 else f"window violated: need 0 < v/n < 1, l = {l:.3g}"
        ),
        alt_rate=vscale_rate_statement_form,
    ),
    "t4-item3": LimitTheorem(
        "mdp-min-alpha", Statistic.MIN_SQ, Direction.GE, level=lambda l, x: l * x,
        scale=_alpha_scale, speed=lambda n, v, l: n**2 * l**4, rate=_mdp_min_alpha,
        grid=((10**6, 10**6), (3 * 10**6, 3 * 10**6), (10**7, 10**7)), x=1.0,
        window=_power_window(4),
    ),
}

THEOREM_TAGS = tuple(THEOREMS)


def _row(theorem: LimitTheorem, n: int, v: int, x: float) -> ConvergenceRow:
    params = EnsembleParams(n=n, v=v)
    l = theorem.scale(n, v)
    scaling = theorem.speed(n, v, l)
    rate = theorem.rate_at(v / n, x).value
    alt_rate = theorem.alt_rate(x) if theorem.alt_rate is not None else None
    query = TailQuery(theorem.statistic, theorem.direction, theorem.level(l, x))
    note = theorem.window(n, l) if theorem.window is not None else None
    exact = -log_prob(params, query)
    alt_gap = abs(exact / scaling - alt_rate) if alt_rate is not None else None
    return ConvergenceRow(
        n=n, v=v, x=x, l=l, scaling=scaling, exact=exact, predicted=scaling * rate,
        rate_target=rate, scaled_gap=abs(exact / scaling - rate),
        alt_rate_target=alt_rate, alt_scaled_gap=alt_gap, note=note,
    )


def converge_table(
    theorem: str,
    grid: tuple[tuple[int, int], ...] | None = None,
    x: float | None = None,
) -> list[ConvergenceRow]:
    """Exact decay exponents against a limit theorem's rate, row per (n, v).

    ``theorem`` is one of THEOREM_TAGS; ``grid`` is a sequence of (n, v)
    pairs (a regime-appropriate default per theorem when omitted); ``x`` is
    the deviation level in the theorem's own parametrization.
    """
    if theorem not in THEOREMS:
        raise ValueError(
            f"unknown theorem tag {theorem!r}; expected one of {THEOREM_TAGS}"
        )
    record = THEOREMS[theorem]
    pairs = tuple(grid) if grid is not None else record.grid
    level = float(x) if x is not None else record.x
    return [_row(record, nn, vv, level) for nn, vv in pairs]


def clt_check(n: int, v: int) -> list[CltRow]:
    """Exact P(max >= 1+y) against the limiting Gumbel upper tail.

    The two levels are the y whose limiting Gumbel argument
    g = sqrt(log s) (2 sqrt(s) y - a(s)) is 0 and 2, where the limit law
    puts its bulk: y = (g / sqrt(log s) + a(s)) / (2 sqrt(s)) at the
    finite-n scale s, with the self-consistent centering a(s) (the display
    form's constant leaves an O(1) gap against the exact tail; see
    centering_a_consistent).  That centering is the primary target; the
    published display form is reported beside it per row as
    target_display.  Raises ``ValueError`` unless s > e.
    """
    params = EnsembleParams(n=n, v=v)
    scales = derived_scales(params)
    if scales.s <= math.e:
        raise ValueError("centering undefined: need s > e")
    a = centering_a_consistent(scales.s)
    sqrt_log_s = math.sqrt(math.log(scales.s))
    a_disp = centering_a(scales.s)
    rows = []
    for y in ((g0 / sqrt_log_s + a) / (2.0 * math.sqrt(scales.s)) for g0 in (0.0, 2.0)):
        spread = 2.0 * math.sqrt(scales.s) * y
        g = sqrt_log_s * (spread - a)
        g_disp = sqrt_log_s * (spread - a_disp)
        query = TailQuery(Statistic.MAX_SQ, Direction.GE, 1.0 + y)
        exact = math.exp(log_prob(params, query))
        target = gumbel_sf(g)
        target_disp = gumbel_sf(g_disp)
        rows.append(
            CltRow(
                n=n, v=v, y=y, g_arg=g, exact=exact, target=target,
                abs_gap=abs(exact - target),
                target_display=target_disp,
                abs_gap_display=abs(exact - target_disp),
            )
        )
    return rows

"""Asymptotic predictors and the convergence harness.

The predictors implement published two-branch asymptotics for single-index
tail log-probabilities: closed formulas with an unresolved additive
correction (written Õ(log n): limsup of correction/log n is finite).  They
are consistency checks and experiment design tools, never the computation;
exact values always come from :mod:`chiral_ldp.exact_dist`.

The convergence harness turns each limit theorem into a table: exact decay
exponents at finite (n, v) against the limiting rate, with the gap scaled
by the theorem's speed so rows are comparable across n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    MdpMinRegime,
    mdp_max_left_const,
    mdp_max_right_const,
    mdp_min_rate,
    rate_max_left,
    rate_max_right,
    rate_min_right,
    vscale_rate_statement_form,
)
from .tau_geometry import TauParams, minimizer_xj, u

__all__ = [
    "AsymptoticPrediction",
    "ConvergenceRow",
    "CltRow",
    "MaSums",
    "RegimeError",
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


def _guard_bounded(params: EnsembleParams, a: float) -> float:
    if a <= 0:
        raise ValueError("threshold a must be positive")
    ca = derived_scales(params).c * a
    if ca < _BOUNDED_V_MIN_CA or a > _BOUNDED_V_MAX_A:
        raise RegimeError(
            f"bounded-v predictor needs c*a >= {_BOUNDED_V_MIN_CA} and "
            f"a <= {_BOUNDED_V_MAX_A}; got c*a = {ca:.3g}, a = {a:.3g}"
        )
    return ca


def _bulk_term(n: int, j: int, a: float) -> float:
    # -2j log(j/(na)) + 2j - 2na
    return -2.0 * j * math.log(j / (n * a)) + 2.0 * j - 2.0 * n * a


def predict_log_sf_bounded_v(
    params: EnsembleParams, j: int, a: float
) -> AsymptoticPrediction:
    """Predicted log P(X_j >= a) for bounded v, up to an O~(log n) term.

    Indices with 2j + v - 1/2 above the threshold c*a keep essentially all
    their mass above it, so the prediction is 0; below it the tail costs
    -2j log(j/(na)) + 2j - 2na.
    """
    check_index(params, j)
    ca = _guard_bounded(params, a)
    if 2 * j + params.v - 0.5 > ca:
        return AsymptoticPrediction(value=0.0, correction_class=CLASS_LOG_N)
    return AsymptoticPrediction(
        value=_bulk_term(params.n, j, a), correction_class=CLASS_LOG_N
    )


def predict_log_cdf_bounded_v(
    params: EnsembleParams, j: int, a: float
) -> AsymptoticPrediction:
    """Predicted log P(X_j <= a) for bounded v, up to an O~(log n) term.

    Mirror of the survival predictor with the branches swapped and the
    index cutoff shifted to 2j + v - 5/2.
    """
    check_index(params, j)
    ca = _guard_bounded(params, a)
    if 2 * j + params.v - 2.5 > ca:
        return AsymptoticPrediction(
            value=_bulk_term(params.n, j, a), correction_class=CLASS_LOG_N
        )
    return AsymptoticPrediction(value=0.0, correction_class=CLASS_LOG_N)


def _large_v_term(params: EnsembleParams, j: int, a: float) -> float:
    n, v = params.n, params.v
    z = derived_scales(params).c * a / v
    return (
        (2 * j + v - 1) * math.log(v)
        + (2 * j + v) * (1.0 - math.log(2.0))
        - (j + v - 0.5) * math.log(j + v)
        - (j - 0.5) * math.log(j)
        - v * u(z)
        + (2 * j - 1) * math.log(z)
    )


def _guard_large(params: EnsembleParams, a: float) -> float:
    if a <= 0:
        raise ValueError("threshold a must be positive")
    if params.v < _LARGE_V_MIN:
        raise RegimeError(
            f"large-v predictor needs v >= {_LARGE_V_MIN}; got v = {params.v}"
        )
    return derived_scales(params).c * a / params.v


def predict_log_sf_large_v(
    params: EnsembleParams, j: int, a: float
) -> AsymptoticPrediction:
    """Predicted log P(X_j >= a) in the large-v regime.

    The branch point is the minimizer x_j of the index's exponent: a
    threshold below it leaves the mode in the tail (prediction 0), one
    above it costs the saddle value.
    """
    check_index(params, j)
    z = _guard_large(params, a)
    if z > minimizer_xj(TauParams(j=j, v=float(params.v))):
        return AsymptoticPrediction(
            value=_large_v_term(params, j, a), correction_class=CLASS_LOG_N
        )
    return AsymptoticPrediction(value=0.0, correction_class=CLASS_LOG_N)


def predict_log_cdf_large_v(
    params: EnsembleParams, j: int, a: float
) -> AsymptoticPrediction:
    """Predicted log P(X_j <= a) in the large-v regime (branches swapped)."""
    check_index(params, j)
    z = _guard_large(params, a)
    if z > minimizer_xj(TauParams(j=j, v=float(params.v))):
        return AsymptoticPrediction(value=0.0, correction_class=CLASS_LOG_N)
    return AsymptoticPrediction(
        value=_large_v_term(params, j, a), correction_class=CLASS_LOG_N
    )


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


THEOREM_TAGS = (
    "t1-right",
    "t1-left",
    "t2",
    "t3-right",
    "t3-left",
    "t4-item1",
    "t4-item2",
    "t4-item3",
)

_DEFAULT_GRIDS: dict[str, tuple[tuple[int, int], ...]] = {
    "t1-right": ((25, 0), (50, 0), (100, 0), (200, 0)),
    "t1-left": ((25, 0), (50, 0), (100, 0)),
    "t2": ((25, 0), (50, 0), (100, 0)),
    "t3-right": ((1000, 0), (10000, 0)),
    "t3-left": ((300, 0), (1000, 0), (3000, 0)),
    "t4-item1": ((1000, 0), (10000, 0)),
    "t4-item2": ((1000, 80), (2000, 160), (4000, 320)),
    "t4-item3": ((200, 200), (500, 500), (1000, 1000)),
}

_DEFAULT_X: dict[str, float] = {
    "t1-right": 1.5,
    "t1-left": 0.5,
    "t2": 2.0,
    "t3-right": 1.0,
    "t3-left": 1.0,
    "t4-item1": 1.0,
    "t4-item2": 1.0,
    "t4-item3": 1.0,
}

# Deviation-scale sequences keeping each moderate-deviation window
# (log n / n << l^s << 1 or its analogue) comfortably satisfied at n <= 1e4.
_DEFAULT_L_EXPONENT: dict[str, float] = {
    "t3-right": 1.0 / 3.0,
    "t3-left": 1.0 / 4.0,
    "t4-item1": 1.0 / 3.0,
    "t4-item3": 1.0 / 5.0,
}


def _mdp_window_note(tag: str, n: int, v: int, l: float) -> str | None:
    """Report a per-row violation of the theorem's deviation-scale window."""
    logn_n = math.log(n) / n
    if tag == "t3-right" and not (logn_n < l**2 < 1.0):
        return f"window violated: need log n/n < l^2 < 1, l^2 = {l**2:.3g}"
    if tag == "t3-left" and not (logn_n < l**3 < 1.0):
        return f"window violated: need log n/n < l^3 < 1, l^3 = {l**3:.3g}"
    if tag == "t4-item1" and not (logn_n < l**2 < 1.0):
        return f"window violated: need log n/n < l^2 < 1, l^2 = {l**2:.3g}"
    if tag == "t4-item2" and not (0.0 < l < 1.0):
        return f"window violated: need 0 < v/n < 1, l = {l:.3g}"
    if tag == "t4-item3" and not (logn_n ** 0.25 < l < 1.0):
        return (
            "window violated: need (log n/n)^(1/4) < l < 1, "
            f"l = {l:.3g}, bound = {logn_n ** 0.25:.3g}"
        )
    return None


def _row_for(
    tag: str,
    n: int,
    v: int,
    x: float,
) -> ConvergenceRow:
    params = EnsembleParams(n=n, v=v)
    alpha = v / n
    l: float | None = None
    note: str | None = None
    alt_rate: float | None = None

    if tag == "t1-right":
        threshold = x
        scaling = float(n)
        rate = rate_max_right(alpha, x).value
        query = TailQuery(Statistic.MAX_SQ, Direction.GE, threshold)
    elif tag == "t1-left":
        threshold = x
        scaling = float(n) ** 2
        rate = rate_max_left(alpha, x).value
        query = TailQuery(Statistic.MAX_SQ, Direction.LE, threshold)
    elif tag == "t2":
        threshold = x
        scaling = float(n) ** 2
        rate = rate_min_right(alpha, x).value
        query = TailQuery(Statistic.MIN_SQ, Direction.GE, threshold)
    elif tag == "t3-right":
        l = float(n) ** -_DEFAULT_L_EXPONENT[tag]
        threshold = 1.0 + l * x
        scaling = n * l**2
        rate = mdp_max_right_const(alpha) * x**2
        query = TailQuery(Statistic.MAX_SQ, Direction.GE, threshold)
    elif tag == "t3-left":
        l = float(n) ** -_DEFAULT_L_EXPONENT[tag]
        threshold = 1.0 - l * x
        scaling = n**2 * l**3
        rate = mdp_max_left_const(alpha) * x**3
        query = TailQuery(Statistic.MAX_SQ, Direction.LE, threshold)
    elif tag == "t4-item1":
        l = float(n) ** -_DEFAULT_L_EXPONENT[tag]
        threshold = l * x
        scaling = n**2 * l**2
        rate = mdp_min_rate(MdpMinRegime.SMALL_V, x)
        query = TailQuery(Statistic.MIN_SQ, Direction.GE, threshold)
    elif tag == "t4-item2":
        if v <= 0:
            raise ValueError("t4-item2 needs v >= 1 (deviation scale v/n)")
        l = v / n
        threshold = l * x
        scaling = float(v) ** 2
        rate = mdp_min_rate(MdpMinRegime.V_SCALE, x)
        alt_rate = vscale_rate_statement_form(x)
        query = TailQuery(Statistic.MIN_SQ, Direction.GE, threshold)
    elif tag == "t4-item3":
        if v <= 0:
            raise ValueError("t4-item3 needs v growing like n (alpha > 0)")
        l = float(n) ** -_DEFAULT_L_EXPONENT[tag]
        threshold = l * x
        scaling = n**2 * l**4
        rate = mdp_min_rate(MdpMinRegime.ALPHA_POSITIVE, x, alpha=alpha)
        query = TailQuery(Statistic.MIN_SQ, Direction.GE, threshold)
    else:
        raise ValueError(f"unknown theorem tag {tag!r}; expected one of {THEOREM_TAGS}")

    if l is not None:
        note = _mdp_window_note(tag, n, v, l)
    exact = -log_prob(params, query)
    gap = abs(exact / scaling - rate)
    alt_gap = abs(exact / scaling - alt_rate) if alt_rate is not None else None
    return ConvergenceRow(
        n=n,
        v=v,
        x=x,
        l=l,
        scaling=scaling,
        exact=exact,
        predicted=scaling * rate,
        rate_target=rate,
        scaled_gap=gap,
        alt_rate_target=alt_rate,
        alt_scaled_gap=alt_gap,
        note=note,
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
    if theorem not in THEOREM_TAGS:
        raise ValueError(
            f"unknown theorem tag {theorem!r}; expected one of {THEOREM_TAGS}"
        )
    pairs = tuple(grid) if grid is not None else _DEFAULT_GRIDS[theorem]
    level = float(x) if x is not None else _DEFAULT_X[theorem]
    return [_row_for(theorem, nn, vv, level) for nn, vv in pairs]


def clt_default_levels(
    params: EnsembleParams, g_args: tuple[float, ...] = (0.0, 2.0)
) -> list[float]:
    """Deviation levels y whose limiting Gumbel argument equals each g.

    Inverts g = sqrt(log s) (2 sqrt(s) y - a(s)) at the finite-n scale s,
    with the self-consistent centering (the display form's constant leaves
    an O(1) gap against the exact tail; see centering_a_consistent).
    """
    s = derived_scales(params).s
    if s <= math.e:
        raise ValueError("centering undefined: need s > e")
    a = centering_a_consistent(s)
    return [(g / math.sqrt(math.log(s)) + a) / (2.0 * math.sqrt(s)) for g in g_args]


def clt_check(
    n: int,
    v: int,
    y_grid: list[float] | None = None,
) -> list[CltRow]:
    """Exact P(max >= 1+y) against the limiting Gumbel upper tail.

    Default levels are the ones whose limiting argument is 0 and 2, where
    the limit law puts its bulk.  The primary target uses the
    self-consistent centering; the published display form is reported
    beside it per row as target_display.
    """
    params = EnsembleParams(n=n, v=v)
    scales = derived_scales(params)
    if scales.s <= math.e:
        raise ValueError("centering undefined: need s > e")
    ys = clt_default_levels(params) if y_grid is None else list(y_grid)
    a = centering_a_consistent(scales.s)
    a_disp = centering_a(scales.s)
    sqrt_log_s = math.sqrt(math.log(scales.s))
    rows = []
    for y in ys:
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

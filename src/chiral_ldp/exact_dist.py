"""Exact finite-size tail probabilities for the extreme scaled squared moduli.

The squared moduli of the n eigenvalue pairs are jointly distributed as n
independent variables; on the integration scale t = 2 n y the j-th one is
T_j = 2 sqrt(G_j G_{j+v}) with independent G_k ~ Gamma(k), which has density
t^{2j+v-1} K_v(t) / Z_j with Z_j = 2^{2j+v-2} Gamma(j) Gamma(j+v).  A query
at level x on the X scale translates to the threshold t = c x,
c = 2 sqrt(n (n+v)).

Gamma-shape ladder.  With s = t^2/4 and S(a, b) = P(G_a G_b >= s), the
recurrence Q(b+1, y) = Q(b, y) + y^b e^{-y} / Gamma(b+1) of the regularized
upper incomplete gamma function (DLMF §8.8), averaged over G_a with
int_0^inf g^{nu-1} e^{-g-s/g} dg = 2 s^{nu/2} K_nu(t) (DLMF §10.32), gives
all-positive increments

    S(a, b+1) - S(a, b) = D(a, b) = 2 s^{(a+b)/2} K_{|a-b|}(t) / (Gamma(a) Gamma(b+1)),

and the same with a and b swapped.  From S(1, 0) = 0:

    sf_1     = t K_1(t) + sum_{b=1..v} D(1, b)
    sf_{j+1} = sf_j + delta_j,      delta_j = D(j, j+v) + D(j+v+1, j)
    cdf_j    = sum_{i >= j} delta_i.

Only K_0 .. K_{v+1} at the one argument t appear.  They come from
scipy.special.kve(0|1, t) and the forward recurrence
K_{k+1} = K_{k-1} + (2k/t) K_k (DLMF §10.29), which is stable for K
(DLMF §3.6).  Every sum runs in log space over positive terms, so nothing
cancels.  For each index the smaller of sf and cdf comes from its own sum
and the other through log1p(-exp(.)).  The increments are evaluated as
products of kve and Poisson weights (see :func:`_ladder_sums`), which keeps
the rounding of each log-term near double precision.

Truncation rule.  The forward sums are finite.  The reverse sum is needed
only when some sf_j exceeds 1/2, and stops at the first index L >= top with
rho_L = s / (L (L+v+1)) < 1 and delta_L rho_L / (1 - rho_L) <= e^-40 times
delta_top + ... + delta_L.  Both parts of delta shrink by at least rho_i from
one index to the next and rho decreases in i, so the dropped tail is below
e^-40 of every cdf it feeds.  The ladder never runs past
top + 40 sqrt(top+v) + 100 indices.  A reverse sum that has not converged
there, or a non-finite value anywhere, raises :class:`QuadratureError`
carrying the partial result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, kve, logsumexp

from ._quad import QuadratureError
from .core_types import (
    Direction,
    EnsembleParams,
    Statistic,
    TailQuery,
    derived_scales,
    log1mexp,
)

__all__ = [
    "IndexDistribution",
    "IndexTails",
    "index_tails",
    "log_sf_index",
    "log_cdf_index",
    "log_prob_max_le",
    "log_prob_max_ge",
    "log_prob_min_ge",
    "log_prob_min_le",
    "log_prob",
    "QuadratureError",
]

_LOG2 = math.log(2.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# The reverse sum stops once its dropped tail is this many nats below it.
_TRUNCATION_NATS = 40.0


@dataclass(frozen=True)
class IndexDistribution:
    """One member of the independent family on the t scale:
    density t^{2j+v-1} K_v(t) / Z_j."""

    params: EnsembleParams
    j: int

    def __post_init__(self) -> None:
        if not 1 <= self.j <= self.params.n:
            raise ValueError(f"index j must lie in [1, n={self.params.n}], got {self.j}")

    @property
    def power(self) -> float:
        """Exponent b = 2j + v - 1 of the density's power factor."""
        return 2.0 * self.j + self.params.v - 1.0


class _Sums(NamedTuple):
    """Raw ladder sums for indices 1..top (log scale)."""

    log_sf: np.ndarray  # forward sums
    log_cdf: np.ndarray | None  # reverse sums, None when not taken
    stop: int  # last increment in the reverse sum (0 when not taken)
    log_bound: float  # log relative bound on the reverse sum's dropped tail
    converged: bool


class IndexTails(NamedTuple):
    """Per-index tails at one threshold, with how they were obtained."""

    log_sf: np.ndarray  # log P(X_j >= x), j = 1..top
    log_cdf: np.ndarray  # log P(X_j <= x)
    cdf_direct: np.ndarray  # True where cdf came from its own sum, sf by complement
    stop: int  # last index of the reverse sum, 0 when it was not needed
    truncation_bound: float  # relative bound on the reverse sum's dropped tail
    failure: str | None  # why the values cannot be trusted, None when they can


def _bessel_ratios(t: float, order: int) -> tuple[float, float, np.ndarray]:
    """log kve(0, t), log kve(1, t) and r_k = K_{k+1}(t) / K_k(t) for
    k = 1 .. order-1, by the forward recurrence r_k = 1/r_{k-1} + 2k/t,
    stable for K and a sum of positive terms."""
    with np.errstate(divide="ignore", invalid="ignore"):
        lk0, lk1 = (float(val) for val in np.log(kve(np.arange(2), t)))
    r = math.exp(lk1 - lk0) if math.isfinite(lk1 - lk0) else math.nan
    ratios = []
    for k in range(1, order):
        r = 1.0 / r + 2.0 * k / t
        ratios.append(r)
    return lk0, lk1, np.array(ratios, dtype=float)


def _prefix(first: float, steps: np.ndarray) -> np.ndarray:
    """first, first + steps[0], ...; the last two, which every increment
    uses, summed exactly with math.fsum."""
    out = np.concatenate(([first], first + np.cumsum(steps)))
    if steps.size:
        out[-1] = math.fsum([first, *steps])
    if steps.size > 1:
        out[-2] = math.fsum([first, *steps[:-1]])
    return out


def _stirling_error(m: np.ndarray) -> np.ndarray:
    """log m! - (m + 1/2) log m + m - log sqrt(2 pi) for m >= 1 (Loader 2000)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = gammaln(m + 1.0) - (m + 0.5) * np.log(m) + m - _HALF_LOG_2PI
        r = 1.0 / (m * m)
        series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r / 1188) * r) * r) * r) / m
    return np.where(m > 15.0, series, direct)


def _deviance(m: np.ndarray, mu: float) -> np.ndarray:
    """m log(m/mu) + mu - m, by its series in w = (m-mu)/(m+mu) near m = mu
    so that nothing cancels (Loader 2000)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = m * np.log(m / mu) + mu - m
        w = (m - mu) / (m + mu)
        w2 = w * w
        term = 2.0 * m * w
        series = (m - mu) * w
        for k in range(1, 12):  # |w| < 0.1: twelve terms reach double precision
            term = term * w2
            series = series + term / (2 * k + 1)
    return np.where(np.abs(m - mu) < 0.1 * (m + mu), series, direct)


def _log_poisson(mu: float, count: int) -> np.ndarray:
    """log(mu^m e^-mu / m!) for m = 0 .. count-1, accurate around the mode."""
    m = np.arange(count, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -_stirling_error(m) - _deviance(m, mu) - _HALF_LOG_2PI - 0.5 * np.log(m)
    out[0] = -mu
    return out


def _ladder_sums(t: float, v: int, top: int, force_reverse: bool = False) -> _Sums:
    """Forward (sf) and, when asked or needed, reverse (cdf) ladder sums.

    Each increment is written D(a, b) = t kve(|a-b|, t) p(a-1) p(b) with the
    Poisson weights p(m) = mu^m e^-mu / m!, mu = t/2, so that large powers
    and factorials meet inside one well-conditioned log p(m).  When
    log kve(v, t) exceeds 2 mu, the orders lie far above the Poisson mode and
    log kve(k, t), log p(k) are both large; there each kve(k, t) is carried
    paired with p(k+1), by its own recurrence, and p(i+v) as a ratio to
    p(v+1), which leaves terms of size about mu instead.
    The reverse sum is taken when sf_top > 1/2, the one case where some cdf
    is the smaller side, or when ``force_reverse`` asks for it.
    """
    mu = 0.5 * t
    log_t, log_mu = math.log(t), math.log(mu)
    cap = top + math.ceil(40.0 * math.sqrt(top + v)) + 100
    lk0, lk1, ratios = _bessel_ratios(t, v + 1)
    log_kve = np.concatenate(([lk0], _prefix(lk1, np.log(ratios))))
    paired = bool(log_kve[v] > 2.0 * mu)
    log_p = _log_poisson(mu, cap + 1 if paired else cap + v + 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        if paired:
            # log(kve(k) p(k+1)) for k = 0 .. v+1
            kp = np.concatenate((
                [lk0 + log_mu - mu],
                _prefix(
                    lk1 + 2.0 * log_mu - _LOG2 - mu,
                    np.log(ratios * (mu / np.arange(3, v + 3))),
                ),
            ))
            # log(p(i+v) / p(v+1)), i = 1 .. cap
            steps = log_mu - np.log(np.arange(v + 2, v + cap + 1))
            ratio = np.concatenate(([0.0], np.cumsum(steps)))
            kv_a = kp[v] + ratio  # log(kve(v) p(i+v))
            kv_b = kp[v + 1] + ratio + math.log((v + 2) / mu)  # log(kve(v+1) p(i+v))
            base = kp[:v]  # log(kve(b-1) p(b)), b = 1 .. v
        else:
            kv_a = log_kve[v] + log_p[v + 1 :]
            kv_b = log_kve[v + 1] + log_p[v + 1 :]
            base = log_kve[:v] + log_p[1 : v + 1]
        # sf_1 = D(1, 0) + D(1, 1) + ... + D(1, v)
        log_sf1 = log_t - mu + float(logsumexp(np.concatenate(([lk1 - mu], base))))
        # delta_i = D(i, i+v) + D(i+v+1, i), i = 1 .. cap
        log_delta = log_t + np.logaddexp(kv_a + log_p[:cap], kv_b + log_p[1 : cap + 1])
        log_sf = np.logaddexp.accumulate(np.concatenate(([log_sf1], log_delta[: top - 1])))
    if not (force_reverse or log_sf[-1] > -_LOG2):
        return _Sums(log_sf, None, 0, -math.inf, True)

    with np.errstate(invalid="ignore", divide="ignore"):
        ext = log_delta[top - 1 :]  # delta_top .. delta_cap
        last = np.arange(top, cap + 1, dtype=float)
        log_rho = 2.0 * log_mu - np.log(last) - np.log(last + v + 1.0)
        log_tail = np.where(
            log_rho < 0.0, ext + log_rho - np.log(-np.expm1(np.minimum(log_rho, 0.0))), np.inf
        )
        gap = log_tail - np.logaddexp.accumulate(ext)
    hits = np.nonzero(gap <= -_TRUNCATION_NATS)[0]
    converged = hits.size > 0
    k = int(hits[0]) if converged else cap - top
    stop = top + k
    log_cdf = np.logaddexp.accumulate(log_delta[:stop][::-1])[::-1][:top]
    return _Sums(log_sf, log_cdf, stop, float(gap[k]), converged)


def _tails_at(t: float, v: int, top: int) -> IndexTails:
    """Per-index tails of T_1..T_top at threshold t on the t scale."""
    sums = _ladder_sums(t, v, top)
    failure = None
    if sums.log_cdf is None:
        cdf_direct = np.zeros(top, dtype=bool)
        log_sf = sums.log_sf
        with np.errstate(invalid="ignore"):
            log_cdf = np.log1p(-np.exp(log_sf))
    else:
        cdf_direct = sums.log_sf > -_LOG2
        with np.errstate(divide="ignore", invalid="ignore"):
            log_sf = np.where(cdf_direct, np.log1p(-np.exp(sums.log_cdf)), sums.log_sf)
            log_cdf = np.where(cdf_direct, sums.log_cdf, np.log1p(-np.exp(sums.log_sf)))
        if not sums.converged:
            failure = (
                f"reverse ladder sum at t={t!r} did not converge by index {sums.stop}"
            )
    if not (np.all(np.isfinite(log_sf)) and np.all(np.isfinite(log_cdf))):
        failure = f"non-finite ladder value at t={t!r}, v={v}"
    return IndexTails(
        log_sf, log_cdf, cdf_direct, sums.stop, math.exp(sums.log_bound), failure
    )


def _checked(value: float, tails: IndexTails) -> float:
    """``value`` when the tails it came from are sound; else raise with it."""
    if tails.failure is not None:
        rel_err = tails.truncation_bound if math.isfinite(value) else math.inf
        raise QuadratureError(tails.failure, partial=value, rel_err=rel_err)
    return value


def _threshold(params: EnsembleParams, x: float) -> float:
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"level x must be finite and > 0, got {x}")
    return derived_scales(params).c * x


def index_tails(params: EnsembleParams, x: float, top: int | None = None) -> IndexTails:
    """Tails of X_1 .. X_top at level x (top defaults to n), unchecked:
    ``failure`` says whether they can be trusted."""
    top = params.n if top is None else IndexDistribution(params, top).j
    return _tails_at(_threshold(params, x), params.v, top)


def log_sf_index(params: EnsembleParams, j: int, x: float) -> float:
    """log P(X_j >= x) for one index."""
    dist = IndexDistribution(params, j)
    tails = index_tails(params, x, dist.j)
    return _checked(float(tails.log_sf[-1]), tails)


def log_cdf_index(params: EnsembleParams, j: int, x: float) -> float:
    """log P(X_j <= x) for one index."""
    dist = IndexDistribution(params, j)
    tails = index_tails(params, x, dist.j)
    return _checked(float(tails.log_cdf[-1]), tails)


def log_prob_max_le(params: EnsembleParams, x: float) -> float:
    """log P(max_j X_j <= x) = sum_j log P(X_j <= x)."""
    tails = index_tails(params, x)
    return _checked(float(np.sum(tails.log_cdf)), tails)


def log_prob_max_ge(params: EnsembleParams, x: float) -> float:
    """log P(max_j X_j >= x) = log(1 - prod_j P(X_j <= x)).

    When the product is so close to 1 that its log underflows, the
    first-order inclusion-exclusion bound (error below (sum sf)^2 / 2, far
    under double precision there) takes over.
    """
    tails = index_tails(params, x)
    total = float(np.sum(tails.log_cdf))
    if total <= -1e-250:
        return _checked(log1mexp(total), tails)
    return _checked(float(logsumexp(tails.log_sf)), tails)


def log_prob_min_ge(params: EnsembleParams, x: float) -> float:
    """log P(min_j X_j >= x) = sum_j log P(X_j >= x)."""
    tails = index_tails(params, x)
    return _checked(float(np.sum(tails.log_sf)), tails)


def log_prob_min_le(params: EnsembleParams, x: float) -> float:
    """log P(min_j X_j <= x) = log(1 - prod_j P(X_j >= x)); deep-tail branch
    as in :func:`log_prob_max_ge`."""
    tails = index_tails(params, x)
    total = float(np.sum(tails.log_sf))
    if total <= -1e-250:
        return _checked(log1mexp(total), tails)
    return _checked(float(logsumexp(tails.log_cdf)), tails)


def log_prob(params: EnsembleParams, query: TailQuery) -> float:
    """log probability of a tail query on the X scale."""
    if query.statistic is Statistic.MAX_SQ:
        if query.direction is Direction.GE:
            return log_prob_max_ge(params, query.x)
        return log_prob_max_le(params, query.x)
    if query.direction is Direction.GE:
        return log_prob_min_ge(params, query.x)
    return log_prob_min_le(params, query.x)

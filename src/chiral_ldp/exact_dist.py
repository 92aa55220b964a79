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

Batches.  The ladder runs over a 1-d array of thresholds at once, one row
per threshold, with every choice above (increment form, reverse sum, stop)
made per row; a single query is a batch of one.  Each row gets the same
values as its threshold run alone, which is how the sampler's KS statistics
evaluate the exact cdf at every sample point.
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
    "log_prob_from_tails",
    "QuadratureError",
]

_LOG2 = math.log(2.0)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# The reverse sum stops once its dropped tail is this many nats below it.
_TRUNCATION_NATS = 40.0
# The reverse sum first looks this many indices past top, then doubles.
_FIRST_WINDOW = 32
# Rows run in chunks that keep each temporary near this many elements.
_CHUNK_ELEMENTS = 1_000_000
# Above this many rows the Bessel recurrence and its exact sums step all rows
# as vectors; below it a float loop per row is faster (at v = 1e4 the two
# cost the same near 32 rows).
_VECTOR_ROWS = 32


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
    """Raw ladder sums for indices 1..top, one row per threshold (log scale)."""

    log_sf: np.ndarray  # forward sums, shape (rows, top)
    log_cdf: np.ndarray  # reverse sums, NaN in rows that did not take them
    stop: np.ndarray  # last increment of each reverse sum (0 when not taken)
    log_bound: np.ndarray  # log relative bound on each reverse sum's dropped tail
    converged: np.ndarray  # False where a reverse sum reached the cap unconverged


class IndexTails(NamedTuple):
    """Per-index tails at one threshold, with how they were obtained.

    From :func:`index_tails` the arrays have one entry per index and ``stop``
    and ``truncation_bound`` are scalars; a batch of thresholds has one row
    per threshold and one ``stop`` and bound per row.
    """

    log_sf: np.ndarray  # log P(X_j >= x), j = 1..top
    log_cdf: np.ndarray  # log P(X_j <= x)
    cdf_direct: np.ndarray  # True where cdf came from its own sum, sf by complement
    stop: int | np.ndarray  # last index of the reverse sum, 0 when it was not needed
    truncation_bound: float | np.ndarray  # relative bound on the reverse sum's dropped tail
    failure: str | None  # why the values cannot be trusted, None when they can


class _Rows(NamedTuple):
    """Per-threshold constants of one increment form, as columns."""

    mu: np.ndarray
    log_t: np.ndarray
    log_mu: np.ndarray
    log_a: np.ndarray  # log kve(v), times p(v+1) in the paired form
    log_b: np.ndarray  # log kve(v+1), times p(v+2) in the paired form
    carry: np.ndarray  # paired form: log(p(i+v) / p(v+1)) at the last index done
    log_p: np.ndarray  # log p(m), m = 0, 1, ..., as far as computed


def _take(rows: _Rows, sel: np.ndarray) -> _Rows:
    return _Rows(*(field[sel] for field in rows))


def _bessel_ratios(t: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log kve(0, t), log kve(1, t) and r_k = K_{k+1}(t) / K_k(t) for
    k = 1 .. order-1, one row per threshold, by the forward recurrence
    r_k = 1/r_{k-1} + 2k/t, stable for K and a sum of positive terms.

    Many rows step through k as vectors; a few rows run a float loop each,
    which is faster than a numpy step per k.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        lk0, lk1 = np.broadcast_to(np.log(kve(np.arange(2)[:, None], t)), (2, t.size))
        gap = lk1 - lk0
        r = np.where(np.isfinite(gap), np.exp(gap), np.nan)
        ratios = np.empty((t.size, order - 1))
        if t.size > _VECTOR_ROWS:
            for k in range(1, order):
                r = 1.0 / r + 2.0 * k / t
                ratios[:, k - 1] = r
        else:
            for row, (r_row, t_row) in enumerate(zip(r.tolist(), t.tolist())):
                steps = []
                for k in range(1, order):
                    r_row = 1.0 / r_row + 2.0 * k / t_row
                    steps.append(r_row)
                ratios[row] = steps
    return lk0, lk1, ratios


def _prefix(first: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """first, first + steps[:, 0], ... per row; the last two, which every
    increment uses, summed exactly: math.fsum for a few rows, compensated
    (Neumaier) summation over many, which rounds the same but in rare ties."""
    out = np.concatenate((first[:, None], first[:, None] + np.cumsum(steps, axis=1)), axis=1)
    count = steps.shape[1]
    if count and first.size > _VECTOR_ROWS:
        total, comp = first.copy(), np.zeros_like(first)
        for k in range(count):
            if k == count - 1:
                out[:, -2] = np.where(np.isfinite(comp), total + comp, total)
            step = steps[:, k]
            new = total + step
            comp += np.where(np.abs(total) >= np.abs(step), (total - new) + step, (step - new) + total)
            total = new
        out[:, -1] = np.where(np.isfinite(comp), total + comp, total)
    elif count:
        for row, (head, rest) in enumerate(zip(first.tolist(), steps.tolist())):
            out[row, -1] = math.fsum([head, *rest])
            if count > 1:
                out[row, -2] = math.fsum([head, *rest[:-1]])
    return out


def _stirling_error(m: np.ndarray) -> np.ndarray:
    """log m! - (m + 1/2) log m + m - log sqrt(2 pi) for m >= 1 (Loader 2000)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = gammaln(m + 1.0) - (m + 0.5) * np.log(m) + m - _HALF_LOG_2PI
        r = 1.0 / (m * m)
        series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r / 1188) * r) * r) * r) / m
    return np.where(m > 15.0, series, direct)


def _deviance(m: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """m log(m/mu) + mu - m, by its series in w = (m-mu)/(m+mu) near m = mu
    so that nothing cancels (Loader 2000)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = m * np.log(m / mu) + mu - m
        near = np.abs(m - mu) < 0.1 * (m + mu)
        m, mu = np.broadcast_to(m, near.shape)[near], np.broadcast_to(mu, near.shape)[near]
        w = (m - mu) / (m + mu)
        w2 = w * w
        term = 2.0 * m * w
        series = (m - mu) * w
        for k in range(1, 12):  # |w| < 0.1: twelve terms reach double precision
            term = term * w2
            series = series + term / (2 * k + 1)
    out[near] = series
    return out


def _log_poisson(mu: np.ndarray, m: np.ndarray) -> np.ndarray:
    """log(mu^m e^-mu / m!) for a column of means and counts m >= 0,
    accurate around the mode."""
    m = m.astype(float)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -_stirling_error(m) - _deviance(m, mu) - _HALF_LOG_2PI - 0.5 * np.log(m)
    return np.where(m == 0.0, -mu, out)


def _with_poisson(rows: _Rows, count: int) -> _Rows:
    """``rows`` with log p(m) computed for m = 0 .. count-1 at least."""
    have = rows.log_p.shape[1]
    if have >= count:
        return rows
    more = _log_poisson(rows.mu, np.arange(have, count))
    return rows._replace(log_p=np.concatenate((rows.log_p, more), axis=1))


def _log_delta(rows: _Rows, v: int, paired: bool, lo: int, hi: int) -> tuple[np.ndarray, _Rows]:
    """log delta_i = log(D(i, i+v) + D(i+v+1, i)) for i = lo .. hi-1, and the
    rows with the paired form's running ratio advanced past hi-1.  Calls
    over consecutive ranges give the same values as one call over all."""
    rows = _with_poisson(rows, hi if paired else hi + v)
    log_p = rows.log_p
    if paired:
        # log(p(i+v) / p(v+1)), a running sum carried from call to call
        i = np.arange(lo, hi)
        steps = np.where(i > 1, rows.log_mu - np.log(i + v), 0.0)
        run = np.cumsum(np.concatenate((rows.carry, steps), axis=1), axis=1)
        rows = rows._replace(carry=run[:, -1:])
        kv_a = rows.log_a + run[:, 1:]  # log(kve(v) p(i+v))
        kv_b = rows.log_b + run[:, 1:] + np.log((v + 2) / rows.mu)  # log(kve(v+1) p(i+v))
    else:
        kv_a = rows.log_a + log_p[:, lo + v : hi + v]
        kv_b = rows.log_b + log_p[:, lo + v : hi + v]
    pair = np.logaddexp(kv_a + log_p[:, lo - 1 : hi - 1], kv_b + log_p[:, lo:hi])
    return rows.log_t + pair, rows


def _ladder_sums(t: np.ndarray, v: int, top: int, force_reverse: bool = False) -> _Sums:
    """Forward (sf) and, when asked or needed, reverse (cdf) ladder sums at
    each threshold of the 1-d array ``t``, one row per threshold.

    Each increment is written D(a, b) = t kve(|a-b|, t) p(a-1) p(b) with the
    Poisson weights p(m) = mu^m e^-mu / m!, mu = t/2, so that large powers
    and factorials meet inside one well-conditioned log p(m).  When
    log kve(v, t) exceeds 2 mu, the orders lie far above the Poisson mode and
    log kve(k, t), log p(k) are both large; there each kve(k, t) is carried
    paired with p(k+1), by its own recurrence, and p(i+v) as a ratio to
    p(v+1), which leaves terms of size about mu instead.  The form is chosen
    per row.  The reverse sum is taken in the rows where sf_top > 1/2, the
    one case where some cdf is the smaller side, or in all rows when
    ``force_reverse`` asks for it.  Rows run in chunks that keep every
    temporary near ``_CHUNK_ELEMENTS`` elements.
    """
    t = np.asarray(t, dtype=float)
    cap = top + math.ceil(40.0 * math.sqrt(top + v)) + 100
    sums = _Sums(
        np.empty((t.size, top)),
        np.full((t.size, top), np.nan),
        np.zeros(t.size, dtype=int),
        np.full(t.size, -math.inf),
        np.ones(t.size, dtype=bool),
    )
    chunk = max(1, _CHUNK_ELEMENTS // (cap + v + 2))
    for start in range(0, t.size, chunk):
        where = np.arange(start, min(start + chunk, t.size))
        lk0, lk1, ratios = _bessel_ratios(t[where], v + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_kve = np.concatenate((lk0[:, None], _prefix(lk1, np.log(ratios))), axis=1)
        paired = log_kve[:, v] > t[where]  # 2 mu = t
        for form in (False, True):
            sel = np.flatnonzero(paired == form)
            if sel.size:
                _ladder_rows(
                    sums, where[sel], t[where[sel]], v, top, cap, form, force_reverse,
                    (lk0[sel], lk1[sel], ratios[sel], log_kve[sel]),
                )
    return sums


def _ladder_rows(
    sums: _Sums,
    where: np.ndarray,
    t: np.ndarray,
    v: int,
    top: int,
    cap: int,
    paired: bool,
    force_reverse: bool,
    bessel: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> None:
    """Fill rows ``where`` of ``sums``, all of one increment form.

    ``bessel`` holds log kve(0), log kve(1), the ratios r_k and log kve(k)
    for k = 0 .. v+1 at these thresholds.
    """
    lk0, lk1, ratios, log_kve = bessel
    mu = 0.5 * t
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t, log_mu = np.log(t), np.log(mu)
        if paired:
            # log(kve(k) p(k+1)) for k = 0 .. v+1
            kp = np.concatenate((
                (lk0 + log_mu - mu)[:, None],
                _prefix(
                    lk1 + 2.0 * log_mu - _LOG2 - mu,
                    np.log(ratios * (mu[:, None] / np.arange(3, v + 3))),
                ),
            ), axis=1)
            log_a, log_b = kp[:, v], kp[:, v + 1]
            base = kp[:, :v]  # log(kve(b-1) p(b)), b = 1 .. v
        else:
            log_a, log_b = log_kve[:, v], log_kve[:, v + 1]
        # the Poisson weights of sf_1, delta_1 .. delta_{top-1} and the
        # reverse sum's first window
        count = top + _FIRST_WINDOW + (0 if paired else v)
        log_p = _log_poisson(mu[:, None], np.arange(count))
        if not paired:
            base = log_kve[:, :v] + log_p[:, 1 : v + 1]
        # sf_1 = D(1, 0) + D(1, 1) + ... + D(1, v)
        terms = np.concatenate(((lk1 - mu)[:, None], base), axis=1)
        peak = np.max(terms, axis=1, keepdims=True)
        peak = np.where(np.isfinite(peak), peak, 0.0)
        log_sf1 = log_t - mu + (np.log(np.sum(np.exp(terms - peak), axis=1)) + peak[:, 0])
        rows = _Rows(
            *(col[:, None] for col in (mu, log_t, log_mu, log_a, log_b)),
            np.zeros((t.size, 1)),
            log_p,
        )
        head, rows = _log_delta(rows, v, paired, 1, top)  # delta_1 .. delta_{top-1}
        log_sf = np.logaddexp.accumulate(np.concatenate((log_sf1[:, None], head), axis=1), axis=1)
    sums.log_sf[where] = log_sf
    pending = np.flatnonzero(force_reverse | (log_sf[:, -1] > -_LOG2))
    _reverse_sums(sums, where[pending], _take(rows, pending), head[pending], v, top, cap, paired)


def _reverse_sums(
    sums: _Sums,
    where: np.ndarray,
    rows: _Rows,
    head: np.ndarray,
    v: int,
    top: int,
    cap: int,
    paired: bool,
) -> None:
    """Fill the reverse sums of rows ``where`` of ``sums``, given their
    constants and delta_1 .. delta_{top-1} (``head``).

    The sum first looks _FIRST_WINDOW indices past top and then doubles the
    window in the rows not yet certified, computing only the new increments;
    where it stops and its bound do not depend on the window.
    """
    pending = np.arange(where.size)
    tail = np.empty((pending.size, 0))  # delta_top onwards
    acc = np.full((pending.size, 1), -math.inf)  # log(delta_top + ...) so far
    lo, width = top, _FIRST_WINDOW
    while pending.size:
        hi = min(top + width, cap + 1)
        with np.errstate(invalid="ignore", divide="ignore"):
            ext, rows = _log_delta(rows, v, paired, lo, hi)
            tail = np.concatenate((tail, ext), axis=1)
            last = np.arange(lo, hi, dtype=float)
            log_rho = 2.0 * rows.log_mu - np.log(last) - np.log(last + v + 1.0)
            log_tail = np.where(
                log_rho < 0.0,
                ext + log_rho - np.log(-np.expm1(np.minimum(log_rho, 0.0))),
                np.inf,
            )
            running = np.logaddexp.accumulate(np.concatenate((acc, ext), axis=1), axis=1)[:, 1:]
            gap = log_tail - running
        hits = gap <= -_TRUNCATION_NATS
        found = hits.any(axis=1)
        done = found if hi <= cap else np.ones_like(found)
        if done.any():
            fin = np.flatnonzero(done)
            k = np.where(found[fin], np.argmax(hits[fin], axis=1), hi - 1 - lo)
            stop = lo + k  # last index summed
            out = where[pending[fin]]
            sums.stop[out] = stop
            sums.log_bound[out] = gap[fin, k]
            sums.converged[out] = found[fin]
            kept = np.where(np.arange(top, hi) <= stop[:, None], tail[fin], -math.inf)
            with np.errstate(invalid="ignore"):
                rev = np.logaddexp.accumulate(kept[:, ::-1], axis=1)[:, -1:]
                sums.log_cdf[out] = np.logaddexp.accumulate(
                    np.concatenate((rev, head[pending[fin], ::-1]), axis=1), axis=1
                )[:, ::-1]
            stay = ~done
            pending, rows, tail = pending[stay], _take(rows, stay), tail[stay]
            running = running[stay]
        acc = running[:, -1:]
        lo, width = hi, 2 * width


def _tails_at(t: np.ndarray, v: int, top: int) -> IndexTails:
    """Per-index tails of T_1..T_top at each threshold of the 1-d array t on
    the t scale, one row per threshold.  ``failure`` names the first row
    whose values cannot be trusted."""
    t = np.asarray(t, dtype=float)
    sums = _ladder_sums(t, v, top)
    cdf_direct = sums.log_sf > -_LOG2  # never in rows without a reverse sum
    with np.errstate(divide="ignore", invalid="ignore"):
        log_sf = np.where(cdf_direct, np.log1p(-np.exp(sums.log_cdf)), sums.log_sf)
        log_cdf = np.where(cdf_direct, sums.log_cdf, np.log1p(-np.exp(sums.log_sf)))
    failure = None
    bad = np.flatnonzero(~(np.isfinite(log_sf).all(axis=1) & np.isfinite(log_cdf).all(axis=1)))
    if bad.size:
        failure = f"non-finite ladder value at t={float(t[bad[0]])!r}, v={v}"
    else:
        bad = np.flatnonzero(~sums.converged)
        if bad.size:
            failure = (
                f"reverse ladder sum at t={float(t[bad[0]])!r} did not converge "
                f"by index {int(sums.stop[bad[0]])}"
            )
    if bad.size > 1:
        failure += f" (and at {bad.size - 1} more thresholds)"
    return IndexTails(
        log_sf, log_cdf, cdf_direct, sums.stop, np.exp(sums.log_bound), failure
    )


def _checked(value: float, tails: IndexTails) -> float:
    """``value`` when the tails it came from are sound; else raise with it."""
    if tails.failure is not None:
        rel_err = float(np.max(tails.truncation_bound)) if math.isfinite(value) else math.inf
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
    tails = _tails_at(np.array([_threshold(params, x)]), params.v, top)
    return IndexTails(
        tails.log_sf[0],
        tails.log_cdf[0],
        tails.cdf_direct[0],
        int(tails.stop[0]),
        float(tails.truncation_bound[0]),
        tails.failure,
    )


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


def _max_le(tails: IndexTails) -> float:
    return _checked(float(np.sum(tails.log_cdf)), tails)


def _max_ge(tails: IndexTails) -> float:
    total = float(np.sum(tails.log_cdf))
    if total <= -1e-250:
        return _checked(log1mexp(total), tails)
    return _checked(float(logsumexp(tails.log_sf)), tails)


def _min_ge(tails: IndexTails) -> float:
    return _checked(float(np.sum(tails.log_sf)), tails)


def _min_le(tails: IndexTails) -> float:
    total = float(np.sum(tails.log_sf))
    if total <= -1e-250:
        return _checked(log1mexp(total), tails)
    return _checked(float(logsumexp(tails.log_cdf)), tails)


def log_prob_max_le(params: EnsembleParams, x: float) -> float:
    """log P(max_j X_j <= x) = sum_j log P(X_j <= x)."""
    return _max_le(index_tails(params, x))


def log_prob_max_ge(params: EnsembleParams, x: float) -> float:
    """log P(max_j X_j >= x) = log(1 - prod_j P(X_j <= x)).

    When the product is so close to 1 that its log underflows, the
    first-order inclusion-exclusion bound (error below (sum sf)^2 / 2, far
    under double precision there) takes over.
    """
    return _max_ge(index_tails(params, x))


def log_prob_min_ge(params: EnsembleParams, x: float) -> float:
    """log P(min_j X_j >= x) = sum_j log P(X_j >= x)."""
    return _min_ge(index_tails(params, x))


def log_prob_min_le(params: EnsembleParams, x: float) -> float:
    """log P(min_j X_j <= x) = log(1 - prod_j P(X_j >= x)); deep-tail branch
    as in :func:`log_prob_max_ge`."""
    return _min_le(index_tails(params, x))


_REDUCTIONS = {
    (Statistic.MAX_SQ, Direction.GE): _max_ge,
    (Statistic.MAX_SQ, Direction.LE): _max_le,
    (Statistic.MIN_SQ, Direction.GE): _min_ge,
    (Statistic.MIN_SQ, Direction.LE): _min_le,
}


def log_prob_from_tails(tails: IndexTails, query: TailQuery) -> float:
    """log probability of ``query`` from :func:`index_tails` at its level,
    raising as :func:`log_prob` does when the tails cannot be trusted."""
    return _REDUCTIONS[query.statistic, query.direction](tails)


def log_prob(params: EnsembleParams, query: TailQuery) -> float:
    """log probability of a tail query on the X scale."""
    return log_prob_from_tails(index_tails(params, query.x), query)

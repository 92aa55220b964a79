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

and the same with a and b swapped.  Then

    sf_1     = P(G_1 G_{v+1} >= s) = E[e^{-s/G_{v+1}}] = 2 s^{(v+1)/2} K_{v+1}(t) / v!
    sf_{j+1} = sf_j + delta_j,      delta_j = D(j, j+v) + D(j+v+1, j)
    cdf_j    = sum_{i >= j} delta_i,

sf_1 by the same integral (DLMF 10.32.10).  Only K_v and K_{v+1} at the one
argument t appear, both from a trapezoid rule centred at the peak of their
integral representation (see :func:`_kve_sums`), at a cost that does not
grow with v.  Every sum runs in log space over positive terms, so nothing
cancels.  For each index the smaller of sf and cdf comes from its own sum
and the other through log1p(-exp(.)).  The increments are evaluated as
products of kve and Poisson weights (see :func:`_ladder_sums`), and the
large factors of these products meet in closed form (see :func:`_bessel`),
which keeps the rounding of each log-term near double precision.

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
from typing import NamedTuple

import numpy as np

from ._quad import QuadratureError
from .core_types import (
    Direction,
    EnsembleParams,
    Statistic,
    TailQuery,
    check_index,
    derived_scales,
    log1mexp,
)

__all__ = [
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
# The trapezoid rule (see _kve_sums) runs to where its integrands are
# e^-_K_NATS below their peak, in at most _K_MAX_GROUPS * _K_NODES nodes
# (more overflow the cosh weights at v = 0); rows run in blocks of _K_BLOCK.
_K_NATS = 45.0
_K_NODES = 32
_K_MAX_GROUPS = 88
_K_BLOCK = 1 << 13
_K_HALF_NODES = np.arange(_K_NODES * _K_MAX_GROUPS) / 2.0  # node index over 2, from the first
# Stirling errors for m = 1 .. 15 (see _stirling_error), from 40-digit
# mpmath and correctly rounded; the direct formula cancels up to 4e-15 here.
_STIRLING_ERROR = np.array([
    math.nan, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


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


class _Tally(NamedTuple):
    """An :class:`IndexTails` reduced to what its diagnostic reports, summed
    over its (threshold, index) pairs; ``rows`` is None for a single
    threshold from :func:`index_tails`."""

    rows: int | None
    top: int
    cdf_direct: int  # pairs whose cdf came from its own sum
    stop: int  # furthest reverse-sum stop, 0 when none was taken
    truncation_bound: float  # largest bound on a reverse sum's dropped tail
    failure: str | None


def _tally(tails: IndexTails) -> _Tally:
    batch = tails.log_sf.ndim == 2
    return _Tally(
        tails.log_sf.shape[0] if batch else None,
        tails.log_sf.shape[-1],
        int(np.count_nonzero(tails.cdf_direct)),
        int(np.max(tails.stop)),
        float(np.max(tails.truncation_bound)),
        tails.failure,
    )


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


def _kve_sums(t: np.ndarray, v: int) -> np.ndarray:
    """kve(v, t) and kve(v+1, t), kve(nu, t) = e^t K_nu(t), each over its
    integrand at u* below (see :func:`_bessel`; 1 at v = 0), as the two rows
    of one array, at each threshold of the 1-d array t; NaN where t is NaN,
    infinite or negative, and at v = 0 below about 2e-304.

    The trapezoid rule on e^t K_nu(t) = 1/2 int exp(nu u - t (cosh u - 1)) du
    (DLMF 10.32.9), geometrically convergent in the step for this entire,
    doubly exponentially decaying integrand (Trefethen & Weideman, SIAM Rev.
    56(3), 2014).  The grid is centred at the peak u* = asinh(v/t); with
    H = sqrt(v^2 + t^2) and d = u - u*, the exponent less its peak is
    -v (e^d - 1 - d) - (H - v) (cosh d - 1), two terms of one sign, and
    order v+1 has the extra weight e^d.  Per row the nodes run past where
    both integrands are e^-_K_NATS below the peak, at a step of f peak widths
    H^(-1/2), f = min(0.6, 0.2 + max(0.1 log v, 0.14 log t)): the integrand
    is nearly Gaussian for t >> v, and for t << v its exponential left tail
    lets the strip |Im u| < pi/2 decide, so f keeps the strip bound on the
    relative error, 2 e^(-2 pi y / step) K_v(t cos y) / K_v(t) at the best y,
    below 1e-17.  That takes 32 to about 220 nodes.

    At v = 0 the grid folds onto u = k step, k >= 1, with
    cosh u = 1 + 2 sinh^2(u/2) as the order-1 weight and a power-of-two step
    of at most 1/4 and 1/16 of the reach; within 4.4e-16 of 40-digit mpmath
    over [1e-300, 1e300].  Rows are grouped by node count and run in blocks
    that keep the node array in cache; each row is summed on its own, so its
    value does not depend on the other rows.
    """
    out = np.full((2, t.size), np.nan)
    with np.errstate(divide="ignore", invalid="ignore"):
        if v == 0:
            reach = 2.0 * np.arcsinh(math.sqrt(0.5 * _K_NATS) / np.sqrt(t))
            step = np.minimum(np.exp2(np.ceil(np.log2(reach / _K_NODES))), 0.25)
            count = _K_NODES * np.ceil(reach / (_K_NODES * step))
            first = np.ones_like(t)  # the first node, in steps from the peak
        else:
            big = np.hypot(v, t)
            gap = t * (t / (big + v))  # H - v
            width = np.minimum(0.6, 0.2 + np.maximum(0.1 * math.log(v), 0.14 * np.log(t)))
            step = width / np.sqrt(big)
            # exponent bounds: -H d^2 / (2 + d) and the cosh term on the left,
            # d - H d^2 / 2 for order v+1 on the right
            c = _K_NATS / big
            left = np.minimum(
                0.5 * (c + np.sqrt(c * (c + 8.0))), 2.0 * np.arcsinh(np.sqrt(0.5 * _K_NATS / gap))
            )
            right = (1.0 + np.sqrt(1.0 + 2.0 * _K_NATS * big)) / big
            first = -np.ceil(left / step)
            count = np.ceil(right / step) - first + 1.0
        count[~(count <= _K_NODES * _K_MAX_GROUPS)] = 0.0  # also t = inf and NaN
        for nodes in sorted(set(count.tolist()) - {0.0}):
            rows = np.flatnonzero(count == nodes)
            half = _K_HALF_NODES[: int(nodes)]
            per_block = max(1, _K_BLOCK // half.size)
            for start in range(0, rows.size, per_block):
                at = rows[start : start + per_block]
                h = step[at]
                x = h[:, None] * (half + 0.5 * first[at, None])  # (u - u*) / 2
                s = np.sinh(x)
                s = 2.0 * s * s  # cosh(u - u*) - 1
                if v == 0:
                    a = np.exp(-t[at, None] * s)
                    a_sum = a.sum(axis=1)
                    out[0, at] = h * (a_sum + 0.5)
                    out[1, at] = h * (a_sum + (a * s).sum(axis=1) + 0.5)
                else:
                    e = np.expm1(x + x)
                    a = np.exp(v * (x + x - e) - gap[at, None] * s)
                    a_sum = a.sum(axis=1)
                    out[0, at] = 0.5 * h * a_sum
                    out[1, at] = 0.5 * h * (a_sum + (a * e).sum(axis=1))
    return out


def _bessel(t: np.ndarray, v: int) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """The ladder's Bessel constants at each threshold of the 1-d array t:
    log kve(v, t) and log kve(v+1, t), and the paired form's
    log(kve(v) p(v+1)), log(kve(v+1) p(v+2)) and log(kve(v+1) p(v)), with
    p(m) = mu^m e^-mu / m! and mu = t/2.

    log kve is the log of the rule's sum plus that of its integrand's peak,
    P = v u* - (H - t) for order v and P + u* for order v+1.  P and log p(v)
    are large where the paired form is used and nearly cancel, so their sum
    comes in closed form, every term at most about mu: with q = t / (v + H)
    and Loader's deviance D(v, mu) = v log(v/mu) + mu - v,
    P + log p(v) = P - D(v, mu) - stirling(v) - log sqrt(2 pi v)
                 = v log1p(mu q / v) - t q + mu - stirling(v) - log sqrt(2 pi v).
    """
    log_s0, log_s1 = np.log(_kve_sums(t, v))
    mu = 0.5 * t
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        log_mu = np.log(mu)
        if v == 0:
            peak = lift = 0.0
            base = -mu  # log p(0)
        else:
            big = np.hypot(v, t)
            q = t / (v + big)
            lift = np.arcsinh(v / t)  # u*
            peak = v * (lift - v / (big + t))  # v u* - (H - t)
            mode = float(_stirling_error(float(v))) + 0.5 * math.log(2.0 * math.pi * v)
            base = v * np.log1p(mu * q / v) + (mu - t * q) - mode  # peak + log p(v)
        log_k = (peak + log_s0, (peak + lift) + log_s1)
        log_kp = (
            ((log_s0 + log_mu) - math.log(v + 1)) + base,
            ((log_s1 + 2.0 * log_mu) - math.log((v + 1) * (v + 2))) + (base + lift),
            (base + lift) + log_s1,
        )
    return log_k, log_kp


def _stirling_error(m: np.ndarray | float) -> np.ndarray:
    """log m! - (m + 1/2) log m + m - log sqrt(2 pi) for m >= 1 (Loader 2000):
    tabulated up to 15, its asymptotic series above."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 1.0 / (m * m)
        series = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r / 1188) * r) * r) * r) / m
    return np.where(m > 15.0, series, _STIRLING_ERROR[np.minimum(m, 15.0).astype(int)])


def _log_sum_exp(terms: np.ndarray) -> np.ndarray:
    """log sum exp over the last axis, each row shifted by its peak."""
    peak = np.max(terms, axis=-1, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    return np.log(np.sum(np.exp(terms - peak), axis=-1)) + peak[..., 0]


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
    and factorials meet inside one well-conditioned log p(m).  When log
    kve(v, t) exceeds 2 mu, the orders lie far above the Poisson mode and
    log kve(k, t), log p(k) are both large; there kve(v) and kve(v+1) are
    carried paired with p(v+1) and p(v+2) (see :func:`_bessel`), and p(i+v)
    as a ratio to p(v+1), which leaves terms of size about mu instead.  The
    form is chosen per row.  The reverse sum is taken in the rows where
    sf_top > 1/2, the one case where some cdf is the smaller side, or in all
    rows when ``force_reverse`` asks for it.  Rows run in chunks that keep
    every temporary near ``_CHUNK_ELEMENTS`` elements.
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
        log_k, log_kp = _bessel(t[where], v)
        paired = log_k[0] > t[where]  # 2 mu = t
        for form in (False, True):
            sel = np.flatnonzero(paired == form)
            if sel.size:
                _ladder_rows(
                    sums, where[sel], t[where[sel]], v, top, cap, form, force_reverse,
                    tuple(col[sel] for col in (log_kp if form else log_k)),
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
    bessel: tuple[np.ndarray, ...],
) -> None:
    """Fill rows ``where`` of ``sums``, all of one increment form.

    ``bessel`` holds the rows' constants from :func:`_bessel` for that form:
    log kve(v) and log kve(v+1), or the paired form's three.
    """
    mu = 0.5 * t
    with np.errstate(divide="ignore", invalid="ignore"):
        log_t, log_mu = np.log(t), np.log(mu)
        # the Poisson weights of delta_1 .. delta_{top-1} and the reverse
        # sum's first window
        count = top + _FIRST_WINDOW + (0 if paired else v)
        log_p = _log_poisson(mu[:, None], np.arange(count))
        if paired:
            log_a, log_b, log_c = bessel
        else:
            log_a, log_b = bessel
            log_c = log_b + log_p[:, v]
        # sf_1 = P(G_1 G_{v+1} >= s) = t kve(v+1) p(0) p(v), log_c = log(kve(v+1) p(v))
        log_sf1 = log_t - mu + log_c
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


def _checked(value: float, tails: IndexTails | _Tally) -> float:
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
    top = params.n if top is None else check_index(params, top)
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
    tails = index_tails(params, x, check_index(params, j))
    return _checked(float(tails.log_sf[-1]), tails)


def log_cdf_index(params: EnsembleParams, j: int, x: float) -> float:
    """log P(X_j <= x) for one index."""
    tails = index_tails(params, x, check_index(params, j))
    return _checked(float(tails.log_cdf[-1]), tails)


def _max_le(tails: IndexTails) -> float:
    return _checked(float(np.sum(tails.log_cdf)), tails)


def _max_ge(tails: IndexTails) -> float:
    total = float(np.sum(tails.log_cdf))
    if total <= -1e-250:
        return _checked(log1mexp(total), tails)
    return _checked(float(_log_sum_exp(tails.log_sf)), tails)


def _min_ge(tails: IndexTails) -> float:
    return _checked(float(np.sum(tails.log_sf)), tails)


def _min_le(tails: IndexTails) -> float:
    total = float(np.sum(tails.log_sf))
    if total <= -1e-250:
        return _checked(log1mexp(total), tails)
    return _checked(float(_log_sum_exp(tails.log_cdf)), tails)


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

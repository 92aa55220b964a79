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

Truncation rule.  Everything the sums drop stays below e^-40 relative, half
of it in the reverse sum's tail and half in the index window below.  The
forward sums are finite.  The reverse sum is needed only when some sf_j
exceeds 1/2, which takes t < 2 top + v (see :func:`_reduce_rows`).  Both
parts of delta shrink by at least rho_i = s / (i (i+v+1)) from one index to
the next and rho decreases in i, so cdf_{j+1} <= rho_j cdf_j.  The sum stops
at the first L with rho_k ... rho_L <= e^-40 / 2, k = max(top, ceil(c)) and
rho_c = 1, which depends on t alone (see :func:`_stops` and :func:`_reach`);
what it drops, cdf_{L+1}, is at most that product times every cdf it feeds.
So L is fixed before any increment is drawn, and a row with
t < 2 top + v draws every increment it sums, forward and reverse, in one
pass.  The ladder never runs past top + 40 sqrt(top+v) + 100 indices.  A
reverse sum that stops there unconverged, or a non-finite value anywhere,
raises :class:`QuadratureError` carrying the partial result.
A threshold that overflows to t = inf is not a failure: there every tail
takes its exact limit, sf = 0 and cdf = 1, so a product query evaluates one
index (the top one for the max, index 1 for the min), which alone gives the
exact product.

Index window.  Going down, both parts of delta_{i-1} are at most
lambda_i = i(i+v)/s times those of delta_i, and sf_1 is at most
lambda_1 delta_1, so sf_{j-1} <= lambda_{j-1} sf_j; going up,
cdf_{j+1} <= rho_j cdf_j.  So a product over the max needs only indices
first..top: each index below first, and the head sf_{first-1} that the
forward sums leave out of each kept index, is at most
prod_{l=first-1}^{k-1} lambda_l sf_k, against sum_j -log cdf_j >=
(top-k+1) sf_k, with k where lambda crosses 1.  The min needs only 1..last,
its reverse sum starting at last: each index above last has
cdf_j <= prod_{l=k}^{last} rho_l cdf_k, against sum_j -log sf_j >= k cdf_k.
A single index j is the max's case with top = j.  The window is the
shortest whose bound, times 2 top (for the count, and -log(1-p) <= 2p), is
e^-40 / 2 (see :func:`_window`).  At n = 1e6 and x = 1 a max query keeps
about 7400 indices, a tail far from the bulk a few hundred.

Batches and blocks.  The ladder has one entry, :func:`_reduce_rows`, which
runs it over a 1-d array of thresholds, one row per threshold, with every
choice above (increment form, reverse sum, stop) made per row and the index
window shared; each row gets the same values as its threshold run alone.  A
single query is a batch of one threshold over its window (see
:func:`_window_tails`, which :func:`index_tails` shares with the window
1..top); the sampler's KS statistics are a batch of every sample point over
every index.  Both take one path, with no form for one row: each
threshold's constants are computed once (see :func:`_bessel`), and
Stirling errors are read from a table.  The entry alone bounds the stops
of the rows that can take a reverse sum, at the largest of their
thresholds (see :func:`_last_stop`), which sizes each row; it hands each
block's tails to the caller's reduction, which keeps what it needs (one
value per threshold for KS), so memory does not grow with the batch; the
batch gets one tally, which renders its diagnostic note (see
:meth:`_Tally.note`).  Every job of independent rows (ladder thresholds
here, sampler and probe replicates in :mod:`chiral_ldp.sampler`) is one
call of :func:`_run_blocks`, given its row count and elements per row,
which cuts the rows into equal blocks of at most ``_CHUNK_ELEMENTS //
_WORKERS`` elements and runs them on one shared pool of ``_WORKERS``
threads, the usable CPU count, each block writing its own slice of a
preallocated output.  Rows never depend on their block, so the values are
the same bits for any CPU count; a job of one block never starts the pool.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable
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
# Everything the sums drop is this many nats below what they keep; the
# reverse sum's tail and the index window each get half (see _window).
_TRUNCATION_NATS = 40.0
# Rows run in blocks whose temporaries together stay near this many
# elements: _WORKERS blocks run at once, each under _CHUNK_ELEMENTS // _WORKERS.
_CHUNK_ELEMENTS = 1_000_000
# Threads of the block pool (see _run_blocks): the CPUs this process may use.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_POOL = None  # created by the first job of more than one block
_POOL_LOCK = threading.Lock()
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
_STIRLING_EXACT = np.array([
    math.nan, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


class _Sums(NamedTuple):
    """Raw ladder sums for indices first..top, one row per threshold (log scale)."""

    log_sf: np.ndarray  # forward sums, shape (rows, top - first + 1)
    log_cdf: np.ndarray  # reverse sums, NaN in rows that did not take them
    stop: np.ndarray  # last increment of each reverse sum (0 when not taken)
    log_bound: np.ndarray  # log relative bound on each reverse sum's dropped tail
    converged: np.ndarray  # False where a reverse sum reached the cap unconverged


class IndexTails(NamedTuple):
    """Per-index tails at one threshold, with how they were obtained.

    The arrays hold the indices first, first+1, ...: all of 1..top from
    :func:`index_tails`, the window a query needs (see :func:`_window`)
    elsewhere.
    """

    log_sf: np.ndarray  # log P(X_j >= x), j = first, first+1, ...
    log_cdf: np.ndarray  # log P(X_j <= x)
    cdf_direct: np.ndarray  # True where cdf came from its own sum, sf by complement
    stop: int  # last index of the reverse sum, 0 when it was not needed
    truncation_bound: float  # relative bound on everything the sums dropped
    failure: str | None  # why the values cannot be trusted, None when they can
    first: int = 1  # the index of the first entry


class _Tally(NamedTuple):
    """What the ladder's diagnostic reports of one run of
    :func:`_reduce_rows`, summed over its (threshold, index) pairs;
    ``rows`` is None for a single query."""

    rows: int | None
    first: int
    top: int  # the last index
    cdf_direct: int  # pairs whose cdf came from its own sum
    stop: int  # furthest reverse-sum stop, 0 when none was taken
    truncation_bound: float  # largest bound on what the sums dropped
    failure: str | None

    def note(self) -> str:
        """Which indices the ladder evaluated, which tail side each summed
        directly, and where it stopped; over a batch of sample points, counts
        over all (point, index) pairs, the furthest stop and the largest bound."""
        batch = self.rows is not None
        points = f" at {self.rows} sample point{'' if self.rows == 1 else 's'}" if batch else ""
        pairs = (self.top - self.first + 1) * (self.rows or 1)
        note = (
            f"gamma-shape ladder over indices {self.first}..{self.top}{points}: "
            f"cdf summed directly for {self.cdf_direct}, sf for {pairs - self.cdf_direct}"
        )
        if self.stop:
            stopped = "sums stopped by" if batch else "sum stopped at"
            note += f"; reverse {stopped} index {self.stop}"
        if self.stop or self.truncation_bound:
            note += (
                f"{' with' if self.stop else ';'} dropped tail below "
                f"{self.truncation_bound:.1e} relative"
            )
        return note


class _Rows(NamedTuple):
    """Per-threshold constants of one increment form, as columns."""

    mu: np.ndarray
    log_t: np.ndarray
    log_mu: np.ndarray
    log_a: np.ndarray  # log kve(v), times p(v+1) in the paired form
    log_b: np.ndarray  # log kve(v+1), times p(v+2) in the paired form


def _kve_sums(t: np.ndarray, v: int, *geometry: np.ndarray) -> np.ndarray:
    """kve(v, t) and kve(v+1, t), kve(nu, t) = e^t K_nu(t), each over its
    integrand at u* below (see :func:`_bessel`; 1 at v = 0), as the two rows
    of one array, at each threshold of the 1-d array t; NaN where t is NaN,
    infinite or negative, and at v = 0 below about 2e-304.  At v >= 1
    ``geometry`` is H, H - v and log t below, as :func:`_bessel` has them.

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
    if v == 0:
        reach = 2.0 * np.arcsinh(math.sqrt(0.5 * _K_NATS) / np.sqrt(t))
        step = np.minimum(np.exp2(np.ceil(np.log2(reach / _K_NODES))), 0.25)
        count = _K_NODES * np.ceil(reach / (_K_NODES * step))
    else:
        big, gap, log_t = geometry
        width = np.minimum(0.6, 0.2 + np.maximum(0.1 * math.log(v), 0.14 * log_t))
        step = width / np.sqrt(big)
        # exponent bounds: -H d^2 / (2 + d) and the cosh term on the left,
        # d - H d^2 / 2 for order v+1 on the right, whose root is
        # sqrt(2 c) to double precision where 2 _K_NATS H would overflow
        c = _K_NATS / big
        left = np.minimum(
            0.5 * (c + np.sqrt(c * (c + 8.0))), 2.0 * np.arcsinh(np.sqrt(0.5 * _K_NATS / gap))
        )
        right = np.where(
            big < 1e300, (1.0 + np.sqrt(1.0 + 2.0 * _K_NATS * big)) / big, np.sqrt(2.0 * c)
        )
        first = -np.ceil(left / step)  # the first node, in steps from the peak
        count = np.ceil(right / step) - first + 1.0
    groups = set(count.tolist())
    for nodes in (g for g in groups if g <= _K_NODES * _K_MAX_GROUPS):  # not inf or NaN
        rows = None if len(groups) == 1 else np.flatnonzero(count == nodes)  # None: all
        half = _K_HALF_NODES[: int(nodes)]
        per_block = max(1, _K_BLOCK // half.size)
        for start in range(0, t.size if rows is None else rows.size, per_block):
            at = slice(start, start + per_block) if rows is None else rows[start : start + per_block]
            h = step[at]
            x = h[:, None] * (half + 0.5 * first[at, None] if v else half + 0.5)  # (u - u*) / 2
            s = np.sinh(x)
            s = 2.0 * s * s  # cosh(u - u*) - 1
            if v == 0:
                a = np.exp(-t[at, None] * s)
                a_sum = np.add.reduce(a, axis=1)
                out[0, at] = h * (a_sum + 0.5)
                out[1, at] = h * (a_sum + np.add.reduce(a * s, axis=1) + 0.5)
            else:
                e = np.expm1(np.add(x, x, out=x))  # x is u - u* from here
                x -= e
                x *= v
                x -= np.multiply(s, gap[at, None], out=s)
                a = np.exp(x, out=x)
                a_sum = np.add.reduce(a, axis=1)
                out[0, at] = 0.5 * h * a_sum
                out[1, at] = 0.5 * h * (a_sum + np.add.reduce(np.multiply(e, a, out=e), axis=1))
    return out


def _bessel(t: np.ndarray, v: int) -> tuple:
    """The ladder's constants at each threshold of the 1-d array t, each
    computed once, as ``(log_k, log_kp, mu, log_t, log_mu)``: log kve(v, t)
    and log kve(v+1, t); the paired form's log(kve(v) p(v+1)),
    log(kve(v+1) p(v+2)) and log(kve(v+1) p(v)), with p(m) = mu^m e^-mu / m!;
    and mu = t/2, log t and log mu for the increments (see
    :func:`_ladder_sums`).  The rule takes H, H - v = t q and log t from here.

    log kve is the log of the rule's sum plus that of its integrand's peak,
    P = v u* - (H - t) for order v and P + u* for order v+1.  P and log p(v)
    are large where the paired form is used and nearly cancel, so their sum
    comes in closed form, every term at most about mu: with q = t / (v + H)
    and Loader's deviance D(v, mu) = v log(v/mu) + mu - v,
    P + log p(v) = P - D(v, mu) - stirling(v) - log sqrt(2 pi v)
                 = v log1p(mu q / v) - t q + mu - stirling(v) - log sqrt(2 pi v).
    """
    mu = 0.5 * t
    log_t, log_mu = np.log(t), np.log(mu)
    if v == 0:
        geometry, peak, lift, base = (), 0.0, 0.0, -mu  # base = log p(0)
    else:
        big = np.hypot(v, t)
        q = t / (v + big)
        geometry = big, t * q, log_t  # H, H - v and log t for the rule
        lift = np.arcsinh(v / t)  # u*
        peak = v * (lift - v / (big + t))  # v u* - (H - t)
        mode = _stirling_error(float(v)) + 0.5 * math.log(2.0 * math.pi * v)
        base = v * np.log1p(mu * q / v) + (mu - geometry[1]) - mode  # peak + log p(v)
    log_s0, log_s1 = np.log(_kve_sums(t, v, *geometry))
    log_k = (peak + log_s0, (peak + lift) + log_s1)
    log_kp = (
        ((log_s0 + log_mu) - math.log(v + 1)) + base,
        ((log_s1 + 2.0 * log_mu) - math.log((v + 1) * (v + 2))) + (base + lift),
        (base + lift) + log_s1,
    )
    return log_k, log_kp, mu, log_t, log_mu


def _stirling_series(m: np.ndarray | float) -> np.ndarray | float:
    """The Stirling error's asymptotic series (see :func:`_stirling_error`)."""
    r = 1.0 / (m * m)
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r / 1188) * r) * r) * r) / m


_STIRLING_ERROR = np.concatenate((_STIRLING_EXACT, _stirling_series(np.arange(16.0, 1 << 14))))


def _stirling_error(m: np.ndarray | float) -> np.ndarray | float:
    """log m! - (m + 1/2) log m + m - log sqrt(2 pi) for m >= 1 (Loader 2000),
    NaN at m = 0; a float for a float, else for an ascending 1-d float array
    of counts.  Counts below 2^14 read _STIRLING_ERROR (128 KB), which holds
    the series' own values from 16 on, so each count gets the same bits by
    either route; the series takes the rest."""
    end = _STIRLING_ERROR.size
    if isinstance(m, float):
        return float(_STIRLING_ERROR[int(m)]) if m < end else _stirling_series(m)
    if m[-1] < end:
        return _STIRLING_ERROR[m.astype(np.intp)]
    low = m[: np.searchsorted(m, end)]
    return np.concatenate((_STIRLING_ERROR[low.astype(np.intp)], _stirling_series(m[low.size :])))


def _deviance(m: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """m log(m/mu) + mu - m for a 1-d array of counts and a column of means,
    by its series in w = (m-mu)/(m+mu) near m = mu so that nothing cancels
    (Loader 2000)."""
    out = m * np.log(m / mu) + mu - m
    diff, total = m - mu, m + mu
    near = np.abs(diff) < 0.1 * total
    if not np.count_nonzero(near):
        return out
    m, diff = m[near.nonzero()[1]], diff[near]
    w = diff / total[near]
    w2 = w * w
    # w ((m - mu) + 2 m sum_{k=1}^{8} w^(2k) / (2k+1)), the sum by Horner
    # in w2, in place; |w| < 0.1 leaves the terms from k = 9 on below
    # 1e-18 of the whole
    series = w2 / 17.0
    for k in range(7, 0, -1):
        series += 1.0 / (2 * k + 1)
        series *= w2
    series *= 2.0 * m
    series += diff
    series *= w
    out[near] = series
    return out


def _log_poisson(mu: np.ndarray, m: np.ndarray, stirling: np.ndarray) -> np.ndarray:
    """log(mu^m e^-mu / m!) for a column of means and an ascending 1-d float
    array of counts m >= 0, of which only the first may be 0, with their
    Stirling errors; accurate around the mode."""
    out = -stirling - _deviance(m, mu) - _HALF_LOG_2PI - 0.5 * np.log(m)
    if m[0] == 0.0:
        out[:, :1] = -mu
    return out


def _log_delta(rows: _Rows, v: int, paired: bool, lo: int, hi: int) -> np.ndarray:
    """log delta_i = log(D(i, i+v) + D(i+v+1, i)) for i = lo .. hi-1.  Each
    value depends on its index alone, so every range of indices gets the
    same values as one call over all.  The counts i-1 and i, and i+v, come
    from one pass over lo-1 .. hi-1+v where that is shorter than the two
    ranges, i+v as the last hi-lo counts either way."""
    if hi <= lo:
        return np.empty((rows.mu.shape[0], 0))
    m = np.arange(lo - 1.0, hi)
    counts = np.arange(lo - 1.0, hi + v) if v < m.size else np.concatenate((m, m[1:] + v))
    stirling = _stirling_error(counts)
    if paired:
        log_p = _log_poisson(rows.mu, counts[: m.size], stirling[: m.size])
        # log(p(a) / p(b)), a = b + d = i+v, b = v+1, in closed form at each
        # index: the difference of the two Stirling errors and Loader
        # deviances, d (log(a/mu) - 1) + b log(a/b), and of log sqrt(2 pi m)
        d = m[1:] - 1.0
        b = v + 1.0
        run = (
            (_stirling_error(b) - stirling[1 - m.size :])
            - d * (np.log((b + d) / rows.mu) - 1.0)
            - (b + 0.5) * np.log1p(d / b)
        )
        kv_a = rows.log_a + run  # log(kve(v) p(i+v))
        kv_b = rows.log_b + run + np.log((v + 2) / rows.mu)  # log(kve(v+1) p(i+v))
    else:
        log_p = _log_poisson(rows.mu, counts, stirling)
        log_p, high = log_p[:, : m.size], log_p[:, 1 - m.size :]
        kv_a = rows.log_a + high
        kv_b = rows.log_b + high
    pair = np.logaddexp(kv_a + log_p[:, :-1], kv_b + log_p[:, 1:])
    return rows.log_t + pair


def _cap(top: int, v: int) -> int:
    """The index past which no reverse sum from top runs (see "Truncation rule")."""
    return top + math.ceil(40.0 * math.sqrt(top + v)) + 100


def _ladder_sums(
    t: np.ndarray, v: int, top: int, force_reverse: bool = False, first: int = 1,
    last: int | None = None,
) -> _Sums:
    """Forward (sf) and, when asked or needed, reverse (cdf) ladder sums for
    the indices first..top at each threshold of the 1-d array ``t``, one row
    per threshold.

    Each increment is written D(a, b) = t kve(|a-b|, t) p(a-1) p(b) with the
    Poisson weights p(m) = mu^m e^-mu / m!, mu = t/2, so that large powers
    and factorials meet inside one well-conditioned log p(m).  When log
    kve(v, t) exceeds 2 mu, the orders lie far above the Poisson mode and
    log kve(k, t), log p(k) are both large; there kve(v) and kve(v+1) are
    carried paired with p(v+1) and p(v+2) (see :func:`_bessel`), and p(i+v)
    as a ratio to p(v+1), which leaves terms of size about mu instead.  The
    form is chosen per row.  Past first = 1 the forward sums start at
    delta_{first-1} and leave out sf_{first-1} (see :func:`_window`).

    The reverse sum is taken in the rows where sf_top > 1/2, the one case
    where some cdf is the smaller side, or in all rows when ``force_reverse``
    asks for it.  Only a row with t < 2 top + v can need it (see
    :func:`_reduce_rows`), and its stop L follows from t alone (see
    :func:`_stops`), within top..``last`` (the cap when None: L is the first
    index where its product falls far enough, so any last >= L agrees).
    So each such candidate row fixes L first, and one :func:`_log_delta`
    call gives all of its increments delta_lo .. delta_L: the forward sum
    reads their head and the reverse sum all of them, each row's past its
    own L masked out.  A candidate whose sf_top comes out at most 1/2 keeps
    stop 0 and a NaN cdf; the other rows draw the forward increments alone.
    All rows run at once: every caller in the package but verify's
    tail-complement check, which reads the raw sums, reaches them through
    :func:`_reduce_rows`.  Numpy's floating-point warnings are off inside: a
    non-finite sum is reported by its caller, not by a warning.
    """
    width = top - first + 1
    shape = (t.size, width)
    sums = _Sums(np.empty(shape), np.full(shape, np.nan), np.zeros(t.size, dtype=int),
                 np.full(t.size, -math.inf), np.ones(t.size, dtype=bool))
    lo = max(first - 1, 1)  # the first increment summed
    with np.errstate(all="ignore"):
        log_k, log_kp, *per_row = _bessel(t, v)  # and mu, log t, log mu
        paired = log_k[0] > t  # 2 mu = t
        reach = np.ones(t.size, dtype=bool) if force_reverse else t < 2 * top + v
        last = _cap(top, v) if last is None else last
        # the rows of each (form, candidate) pair run together, a batch of
        # one pair whole, as views
        group = paired + 2 * reach
        keys = np.unique(group).tolist() if t.size > 1 else group.tolist()
        for key in keys:
            form, candidate = bool(key & 1), key > 1
            sel = np.flatnonzero(group == key) if len(keys) > 1 else slice(None)
            # as columns: mu, log t, log mu, log kve(v) and log kve(v+1) or
            # the paired form's first two, and then log(kve(v+1) p(v))
            log_ab = log_kp if form else (*log_k, log_kp[2])
            *cols, log_c = (col[sel, None] for col in (*per_row, *log_ab))
            rows = _Rows(*cols)
            if candidate:
                stop, log_bound, converged = _stops(rows.log_mu, v, top, last)
            # delta_lo .. delta_{hi-1}: to the furthest stop, or to top - 1
            hi = int(stop.max()) + 1 if candidate else top
            steps = _log_delta(rows, v, form, lo, hi)
            if first == 1:
                # sf_1 = P(G_1 G_{v+1} >= s) = t kve(v+1) p(0) p(v)
                terms = np.concatenate((rows.log_t - rows.mu + log_c, steps[:, : top - 1]), axis=1)
            else:
                terms = steps[:, :width]  # delta_{first-1} leads
            log_sf = np.logaddexp.accumulate(terms, axis=1)
            sums.log_sf[sel] = log_sf
            if not candidate:
                continue
            pending = np.ones(len(log_sf), dtype=bool) if force_reverse else log_sf[:, -1] > -_LOG2
            taken = np.count_nonzero(pending)
            if taken:
                rev = slice(None) if taken == pending.size else pending.nonzero()[0]
                # delta_first .. delta_{hi-1}, each row's past its own L masked out
                kept = steps[rev, first - lo :]
                if np.count_nonzero(stop[rev] < hi - 1):
                    kept = np.where(np.arange(first, hi) <= stop[rev, None], kept, -math.inf)
                cdf = np.logaddexp.accumulate(kept[:, ::-1], axis=1)
                where = rev if len(keys) == 1 else sel[rev]
                sums.log_cdf[where] = cdf[:, ::-1][:, :width]
                sums.stop[where] = stop[rev]
                sums.log_bound[where] = log_bound[rev]
                sums.converged[where] = converged[rev]
    return sums


def _stops(
    log_mu: np.ndarray, v: int, top: int, last: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each row's reverse-sum stop L, the last increment summed, from the
    column log mu alone, with the log of its bound and whether it converged
    by index ``last``: the running product of min(1, rho_l) from l = top
    falls to e^-40 / 2 within :func:`_reach` indices of k, where rho_l falls
    to 1, and L is the first index where it does (see "Truncation rule")."""
    l = np.arange(top, last + 1, dtype=float)
    drop = np.maximum(np.log(l) + np.log(l + (v + 1.0)) - 2.0 * log_mu, 0.0)  # -log min(1, rho_l)
    gain = np.add.accumulate(drop, axis=1)
    hits = gain >= _TRUNCATION_NATS + _LOG2
    converged = hits[:, -1]
    at = np.where(converged, hits.argmax(axis=1), l.size - 1)
    return top + at, -gain[np.arange(at.size), at], converged


def _last_stop(mu: float, v: int, top: int) -> int:
    """The furthest index that a reverse sum from top can stop at, given the
    largest mean mu = t/2 of the rows that can take one (t < 2 top + v, see
    :func:`_reduce_rows`): min(k + _reach, cap), with k where rho falls to 1
    (see "Truncation rule"); the cap when mu is NaN or infinite.

    One bound at the largest mean covers every row: each term
    max(0, -log rho_l) of :func:`_stops`' running sum falls as t grows, and
    IEEE rounding is monotone, so a row's stop never decreases with t.  The
    bound only sizes an index range, and keeps one index spare against
    rounding, so every row still gets its own stop from :func:`_stops`.
    Only :func:`_reduce_rows` calls it; a lone :func:`_ladder_sums` takes the cap.
    """
    cap = _cap(top, v)
    if not 0.0 < mu < math.inf:
        return cap
    half = 0.5 * (v + 1)
    k = max(top, math.ceil(mu * (mu / (math.hypot(half, mu) + half))))  # l (l+1+v) >= s
    if k >= cap:  # keeps -a (k + v) in _reach finite for any finite mu
        return cap
    g = math.log(k) + math.log(k + 1.0 + v) - 2.0 * math.log(mu)  # -log rho_k
    return min(k + _reach(k, v, g, _TRUNCATION_NATS + _LOG2), cap)


def _failure(
    t: np.ndarray, v: int, finite: np.ndarray, converged: np.ndarray, stop: np.ndarray
) -> str | None:
    """Why a batch's values cannot be trusted, None when they can: the first
    threshold with a non-finite value, or else the first whose reverse sum
    did not converge, and how many more thresholds fail the same way."""
    if np.count_nonzero(finite) < t.size:
        bad = np.flatnonzero(~finite)
        failure = f"non-finite ladder value at t={float(t[bad[0]])!r}, v={v}"
    elif np.count_nonzero(converged) < t.size:
        bad = np.flatnonzero(~converged)
        failure = (
            f"reverse ladder sum at t={float(t[bad[0]])!r} did not converge "
            f"by index {int(stop[bad[0]])}"
        )
    else:
        return None
    if bad.size > 1:
        failure += f" (and at {bad.size - 1} more thresholds)"
    return failure


def _blocks(count: int, row_elements: int) -> list[slice]:
    """Rows 0..count-1 cut, for :func:`_run_blocks`, into blocks of at most
    ``_CHUNK_ELEMENTS // _WORKERS`` elements, ``row_elements`` per row
    (at least one row each).

    More than one block become a multiple of ``_WORKERS`` blocks of equal
    size, give or take a row, so the pool's threads finish together.
    """
    rows = max(1, _CHUNK_ELEMENTS // _WORKERS // row_elements)
    pieces = -(-count // rows)
    if pieces > 1:
        pieces = min(count, -(-pieces // _WORKERS) * _WORKERS)
    cuts = [i * count // pieces for i in range(pieces + 1)]
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def _run_blocks(block: Callable[[slice], object], count: int, row_elements: int) -> list:
    """``block`` of each block that :func:`_blocks` cuts of ``count`` rows of
    ``row_elements``, in block order, for every batched job: on the shared
    pool of ``_WORKERS`` threads, or inline for one block or one worker.

    ``block`` writes its rows into preallocated outputs and may call only
    private functions of the package: never a public one, which a tracer may
    have wrapped, and never :func:`_run_blocks` again, whose tasks would then
    wait on tasks queued behind them in the same pool.  Numpy releases the
    interpreter lock in the heavy loops (Philox fills, element-wise
    arithmetic, LAPACK), so the threads overlap.
    """
    global _POOL
    blocks = _blocks(count, row_elements)
    if len(blocks) == 1 or _WORKERS == 1:
        return [block(rows) for rows in blocks]
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor  # only when a job needs it

            _POOL = ThreadPoolExecutor(_WORKERS, thread_name_prefix="chiral_ldp")
    return list(_POOL.map(block, blocks))


def _reduce_rows(
    t: np.ndarray, v: int, top: int, keep: Callable[..., object], first: int = 1
) -> tuple[list, _Tally]:
    """``keep`` of each block's tails of T_first..T_top at the thresholds of
    the 1-d array t, in block order, and the tally of the ladder they came
    from; past first = 1 without sf_{first-1} (see :func:`_window`).

    This is the one entry to the ladder.  Only a row with sf_top > 1/2 takes
    a reverse sum, and 2 sqrt(G_top G_{top+v}) is at most G_top + G_{top+v}
    ~ Gamma(2 top + v), whose median is below 2 top + v (Chen & Rubin 1986),
    so only a row with t < 2 top + v can: the largest such threshold bounds
    every stop at L, here alone (see :func:`_last_stop`), and each row fixes
    its own within it before drawing any increment (see :func:`_ladder_sums`).
    :func:`_run_blocks` cuts the rows into blocks by at most 2 (L - first) + 3
    Poisson counts per row, those of the increments delta_first .. delta_L
    that a candidate draws (L = top without candidates), so the temporaries
    of the blocks in flight stay near ``_CHUNK_ELEMENTS`` elements, and runs
    them on the pool.  ``keep`` reduces a block's ``(log_sf, log_cdf,
    cdf_direct)``, one row per threshold, to what its caller needs, so
    memory does not grow with thresholds times indices.
    At t = inf, where a level's threshold overflows, the sums are NaN and
    each row holds the exact limits sf = 0, cdf = 1 instead; such a row is
    no candidate.  The tally's failure is the whole batch's (see
    :func:`_failure`): the first failing threshold, and the count of the
    others, whatever the blocks.
    """
    candidates = t[t < 2 * top + v]  # the rows that can take a reverse sum
    last = _last_stop(0.5 * float(candidates.max()), v, top) if candidates.size else top
    stop, bound = np.empty(t.size, dtype=int), np.empty(t.size)
    finite, converged = np.empty(t.size, dtype=bool), np.empty(t.size, dtype=bool)

    def block(rows: slice) -> tuple[object, int]:
        ts = t[rows]
        with np.errstate(all="ignore"):
            sums = _ladder_sums(ts, v, top, first=first, last=last)
            cdf_direct = sums.log_sf > -_LOG2  # never in rows without a reverse sum
            direct = np.count_nonzero(cdf_direct)
            if direct:  # else every log_cdf is NaN and log_sf kept as summed
                log_sf = np.where(cdf_direct, np.log1p(-np.exp(sums.log_cdf)), sums.log_sf)
                log_cdf = np.where(cdf_direct, sums.log_cdf, np.log1p(-np.exp(sums.log_sf)))
            else:
                log_sf, log_cdf = sums.log_sf, np.log1p(-np.exp(sums.log_sf))
            bound[rows] = np.exp(sums.log_bound)
            beyond = ts == math.inf
            log_sf[beyond], log_cdf[beyond] = -math.inf, 0.0
            # where both are finite one is at least about log 1/2: no overflow
            finite[rows] = beyond | np.logical_and.reduce(np.isfinite(log_sf + log_cdf), axis=1)
        converged[rows], stop[rows] = sums.converged, sums.stop
        return keep(log_sf, log_cdf, cdf_direct), direct

    kept, direct = zip(*_run_blocks(block, t.size, 2 * (last - first) + 3))
    failure = _failure(t, v, finite, converged, stop)
    tally = _Tally(t.size, first, top, sum(direct), int(stop.max()), float(bound.max()), failure)
    return list(kept), tally


def _checked(value: float, tails: IndexTails | _Tally) -> float:
    """``value`` when the tails it came from are sound; else raise with it."""
    if tails.failure is not None:
        rel_err = tails.truncation_bound if math.isfinite(value) else math.inf
        raise QuadratureError(tails.failure, partial=value, rel_err=rel_err)
    return value


def _threshold(params: EnsembleParams, x: float) -> float:
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"level x must be finite and > 0, got {x}")
    return derived_scales(params).c * x


def _root(a: float, b: float, c: float) -> float:
    """The positive root of a m^2 + b m + c, for finite a > 0 > c."""
    q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
    return max(q / a, c / q)


def _reach(k: int, v: int, g: float, a: float) -> int:
    """At most how many indices k, k+1, ... the sum of
    -log rho_l = log(l (l+1+v) / s) takes to reach a > 0, given
    g = -log rho_k >= 0; every input finite.  Over m indices the slope of
    -log rho is at least 2/(k+m+v) and 1/(k+m), so the sum is at least
    m g + m (m-1) / (k+m+v) and m g + m (m-1) / (2 (k+m)).
    """
    return math.ceil(min(
        _root(g + 1.0, g * (k + v) - 1.0 - a, -a * (k + v)),
        _root(2.0 * g + 1.0, 2.0 * g * k - 1.0 - 2.0 * a, -2.0 * a * k),
    ))


def _window(t: float, v: int, top: int, stat: Statistic) -> tuple[int, int, float]:
    """The indices first..last of 1..top that a product over ``stat``'s side
    needs at threshold t, and the relative bound on what the rest change in
    it (see "Index window" above); (1, top, 0.0) when nothing is dropped.
    At t = inf, where every sf = 0 and every cdf = 1, one index gives the
    exact product: (top, top, 0.0) for the max and (1, 1, 0.0) for the min.
    Over m indices the tangent at l = k-1 bounds log lambda on the max side;
    the min side takes m from :func:`_reach`.
    """
    high = stat is Statistic.MAX_SQ
    mu = 0.5 * t
    if mu == math.inf:
        return (top, top, 0.0) if high else (1, 1, 0.0)
    if not 0.0 < mu:
        return 1, top, 0.0
    log_s = 2.0 * math.log(mu)
    nats = _TRUNCATION_NATS + _LOG2
    half = 0.5 * (v + (not high))
    cross = mu * (mu / (math.hypot(half, mu) + half))  # l (l+v) = s, or l (l+1+v) = s
    if high:
        k = top if cross >= top - 1 else int(cross) + 1
        if k < 2:
            return 1, top, 0.0
        g = log_s - math.log(k - 1) - math.log(k - 1 + v)  # -log lambda_{k-1}
        d = 1.0 / (k - 1) + 1.0 / (k - 1 + v)
        a = nats + math.log(2.0 * top / (top - k + 1))
        m = math.ceil(_root(0.5 * d, g - 0.5 * d, -a))
        if k - m + 1 < 2:
            return 1, top, 0.0
        return k - m + 1, top, math.exp(a - nats - m * g - 0.5 * d * m * (m - 1))
    if cross >= top - 1:
        return 1, top, 0.0
    k = max(1, math.ceil(cross))
    g = math.log(k) + math.log(k + 1 + v) - log_s  # -log r_k
    a = nats + math.log(2.0 * top / k)
    m = _reach(k, v, g, a)
    if k + m - 1 >= top:
        return 1, top, 0.0
    e = 1.0 / (k + m - 1) + 1.0 / (k + m + v)
    return 1, k + m - 1, math.exp(a - nats - m * g - 0.5 * e * m * (m - 1))


def index_tails(params: EnsembleParams, x: float, top: int | None = None) -> IndexTails:
    """Tails of X_1 .. X_top at level x (top defaults to n), unchecked:
    ``failure`` says whether they can be trusted."""
    top = params.n if top is None else check_index(params, top)
    return _window_tails(params, x, None, top)[0]


def _window_tails(
    params: EnsembleParams, x: float, stat: Statistic | None, top: int | None = None
) -> tuple[IndexTails, _Tally]:
    """Tails at level x over the window of 1..top (top defaults to n) that
    a product over ``stat``'s side needs, all of 1..top when ``stat`` is
    None, unchecked, and their tally: a batch of one threshold through
    :func:`_reduce_rows`, with the window's bound added to both
    ``truncation_bound``s and the tally's ``rows`` None."""
    top = params.n if top is None else top
    t = _threshold(params, x)
    first, last, bound = (1, top, 0.0) if stat is None else _window(t, params.v, top, stat)
    [row], tally = _reduce_rows(
        np.array([t]), params.v, last, lambda *arrays: [a[0] for a in arrays], first
    )
    tally = tally._replace(rows=None, truncation_bound=tally.truncation_bound + bound)
    return IndexTails(*row, tally.stop, tally.truncation_bound, tally.failure, first), tally


def log_sf_index(params: EnsembleParams, j: int, x: float) -> float:
    """log P(X_j >= x) for one index."""
    tails, _ = _window_tails(params, x, Statistic.MAX_SQ, check_index(params, j))
    return _checked(float(tails.log_sf[-1]), tails)


def log_cdf_index(params: EnsembleParams, j: int, x: float) -> float:
    """log P(X_j <= x) for one index."""
    tails, _ = _window_tails(params, x, Statistic.MAX_SQ, check_index(params, j))
    return _checked(float(tails.log_cdf[-1]), tails)


def log_prob_max_le(params: EnsembleParams, x: float) -> float:
    """log P(max_j X_j <= x) = sum_j log P(X_j <= x)."""
    return log_prob(params, TailQuery(Statistic.MAX_SQ, Direction.LE, x))


def log_prob_max_ge(params: EnsembleParams, x: float) -> float:
    """log P(max_j X_j >= x) = log(1 - prod_j P(X_j <= x)), in the deep tail
    from the first-order bound (see :func:`log_prob_from_tails`)."""
    return log_prob(params, TailQuery(Statistic.MAX_SQ, Direction.GE, x))


def log_prob_min_ge(params: EnsembleParams, x: float) -> float:
    """log P(min_j X_j >= x) = sum_j log P(X_j >= x)."""
    return log_prob(params, TailQuery(Statistic.MIN_SQ, Direction.GE, x))


def log_prob_min_le(params: EnsembleParams, x: float) -> float:
    """log P(min_j X_j <= x) = log(1 - prod_j P(X_j >= x)); deep tail as in
    :func:`log_prob_max_ge`."""
    return log_prob(params, TailQuery(Statistic.MIN_SQ, Direction.LE, x))


def log_prob_from_tails(tails: IndexTails, query: TailQuery) -> float:
    """log probability of ``query`` from :func:`index_tails` at its level,
    or from the window of them that the query needs, raising as
    :func:`log_prob` does when the tails cannot be trusted.

    The statistic's own side, cdf for the max and sf for the min, gives the
    product over indices, log P(max <= x) or log P(min >= x).  The other two
    events are its complement; when the product is so close to 1 that its
    log underflows, the first-order inclusion-exclusion bound on the other
    side (error below (sum)^2 / 2, far under double precision there) takes
    over.
    """
    high = query.statistic is Statistic.MAX_SQ
    own, other = (tails.log_cdf, tails.log_sf) if high else (tails.log_sf, tails.log_cdf)
    with np.errstate(over="ignore"):  # a product that underflows sums to -inf
        total = float(own.sum())
    if (query.direction is Direction.LE) == high:
        return _checked(total, tails)
    if total <= -1e-250:
        return _checked(log1mexp(total), tails)
    peak = other.max()  # log sum exp, shifted by the peak; -inf for all -inf, without a warning
    peak = peak if np.isfinite(peak) else 0.0
    with np.errstate(divide="ignore"):
        return _checked(float(np.log(np.exp(other - peak).sum()) + peak), tails)


def log_prob(params: EnsembleParams, query: TailQuery) -> float:
    """log probability of a tail query on the X scale."""
    return log_prob_from_tails(_window_tails(params, query.x, query.statistic)[0], query)

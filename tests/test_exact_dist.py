"""Tests for the exact finite-size tail probabilities.

Closed forms exist at n=1, where the survival is 2 s^{(v+1)/2} K_{v+1}(t) / v!
with s = t^2/4 on the t scale (t K_1(t) at v=0); everything else is checked
against high-precision mpmath oracles (Bessel density quadrature, the
Bessel-free gamma-product law and the Bessel values the ladder starts from),
two-sided normalization of the ladder sums, property tests over extreme
inputs, product laws, stochastic ordering, and the analytic integral
sandwiches that the asymptotic machinery leans on.
"""

import ast
import contextlib
import io
import math
import threading
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import digamma, kve, logsumexp, polygamma

import chiral_ldp.exact_dist as exact_dist
import chiral_ldp.sampler as sampler
from chiral_ldp._quad import QuadratureError
from chiral_ldp.core_types import (
    Direction,
    EnsembleParams,
    Statistic,
    TailQuery,
    derived_scales,
)
from chiral_ldp.exact_dist import (
    _Tally,
    _bessel,
    _kve_sums,
    _ladder_sums,
    _reduce_rows,
    index_tails,
    log_cdf_index,
    log_prob,
    log_prob_max_ge,
    log_prob_max_le,
    log_prob_from_tails,
    log_prob_min_ge,
    log_prob_min_le,
    log_sf_index,
)
from chiral_ldp.cli import main as cli_main
from chiral_ldp.sampler import ks_statistic, ks_statistic_max, ks_statistic_min
from chiral_ldp.tau_geometry import TauParams, minimizer_xj, tau, tau_prime
from chiral_ldp.verification import _log_gamma_tail, _log_tau_integral

from oracles import (
    gamma_product_log_sf_oracle,
    gamma_product_tail_oracle,
    gamma_tail_log,
    index_cdf_oracle,
    kve_oracle,
    log_kv_oracle,
    saddle_point_log_tail_oracle,
    tau_integral_log,
)

# log P(2Y_1 >= t) = log(t K_1(t)) at n=1, v=0, frozen from 30-digit mpmath.
CLOSED_TAIL_LOGS = {
    0.5: -0.18847578325529413211,
    1.0: -0.50765194821075233095,
    2.0: -1.2739241220005685821,
    5.0: -3.9009313841511229409,
}
# log P(2Y_1 <= 1) at n=1, v=0.
CLOSED_CDF_LOG_AT_1 = -0.92107021090224566196

# P(X_j <= x) by direct mpmath quadrature of the t-scale density (25 digits).
CDF_ORACLE_PINS = {
    (5, 2, 3, 0.9): 0.88727658429774647,
    (3, 1, 2, 1.1): 0.91989141320416623,
    (7, 0, 7, 1.3): 0.8927929206855425,
    (4, 4, 1, 0.35): 0.58171787704509659,
}


def _batch(t, v, top, first=1):
    """The tails of T_first..T_top at each threshold of t through the
    ladder's one entry, :func:`_reduce_rows`, one row per threshold, with
    each row's stop and bound read from the sums its block ran on."""
    local, real = threading.local(), exact_dist._ladder_sums

    def spy(*args, **kwargs):
        local.sums = real(*args, **kwargs)
        return local.sums

    def keep(*tails):  # a block's tails, its stops and bounds
        return (*tails, local.sums.stop, np.exp(local.sums.log_bound))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact_dist, "_ladder_sums", spy)
        blocks, tally = _reduce_rows(np.asarray(t, dtype=float), v, top, keep, first)
    log_sf, log_cdf, cdf_direct, stop, bound = (np.concatenate(a) for a in zip(*blocks))
    return SimpleNamespace(
        log_sf=log_sf, log_cdf=log_cdf, cdf_direct=cdf_direct, stop=stop,
        truncation_bound=bound, failure=tally.failure, first=first,
    )


class TestLevelGuard:
    @pytest.mark.parametrize("x", [0.0, -0.5, math.inf, math.nan])
    def test_bad_level_rejected(self, x):
        with pytest.raises(ValueError):
            log_sf_index(EnsembleParams(2, 0), 1, x)


class TestClosedFormTails:
    """n=1, v=0: the single squared modulus has survival t K_1(t) on the
    t = 2nY scale, so x on the X scale maps to t = 2x."""

    @pytest.mark.parametrize("t", sorted(CLOSED_TAIL_LOGS))
    def test_survival_matches_bessel_form(self, t):
        got = log_sf_index(EnsembleParams(1, 0), 1, t / 2.0)
        assert got == pytest.approx(CLOSED_TAIL_LOGS[t], abs=1e-12)

    def test_cdf_matches_bessel_form(self):
        got = log_cdf_index(EnsembleParams(1, 0), 1, 0.5)
        assert got == pytest.approx(CLOSED_CDF_LOG_AT_1, abs=1e-12)

    def test_cdf_matches_independent_quadrature(self):
        for (n, v, j, x), ref in CDF_ORACLE_PINS.items():
            got = math.exp(log_cdf_index(EnsembleParams(n, v), j, x))
            assert got == pytest.approx(ref, rel=5e-9), (n, v, j, x)

    @pytest.mark.parametrize("v", [0, 1, 30, 1000, 10000])
    def test_sf1_matches_gamma_product_oracle(self, v):
        # the forward sum at top 1 is sf_1 = t kve(v+1, t) p(0) p(v) alone
        c = derived_scales(EnsembleParams(1, v)).c
        for x in (0.3, 3.0):
            want = gamma_product_tail_oracle(1, v, 1, x, upper=True)
            got = _ladder_sums(np.array([c * x]), v, 1).log_sf[0, 0]
            assert math.exp(got) == pytest.approx(want, rel=1e-11), x


class TestNormalization:
    """Both tails integrated independently must account for all the mass."""

    def test_forced_two_sided_mass(self):
        # sf from the forward ladder sum and cdf from the reverse one, both
        # summed directly, so this is a real normalization check rather than
        # a complement identity.
        rng = np.random.default_rng(42)
        for _ in range(12):
            n = int(rng.integers(1, 13))
            v = int(rng.integers(0, 7))
            j = int(rng.integers(1, n + 1))
            x = float(rng.uniform(0.05, 2.5))
            a = derived_scales(EnsembleParams(n, v)).c * x
            sums = _ladder_sums(np.array([a]), v, j, force_reverse=True)
            assert sums.converged[0]
            sf, cdf = sums.log_sf[0, -1], sums.log_cdf[0, -1]
            assert math.exp(sf) + math.exp(cdf) == pytest.approx(1.0, abs=1e-12), (n, v, j, x)

    def test_sf_saturates_at_tiny_level(self):
        got = log_sf_index(EnsembleParams(4, 1), 2, 1e-12)
        assert -1e-9 <= got <= 0.0

    def test_cdf_saturates_at_large_level(self):
        got = log_cdf_index(EnsembleParams(4, 1), 2, 50.0)
        assert -1e-9 <= got <= 0.0

    def test_public_complement_pairs(self):
        params = EnsembleParams(9, 2)
        for x in (0.4, 1.0, 1.6):
            s = math.exp(log_prob_max_ge(params, x)) + math.exp(log_prob_max_le(params, x))
            assert s == pytest.approx(1.0, abs=1e-9)
            s = math.exp(log_prob_min_ge(params, x)) + math.exp(log_prob_min_le(params, x))
            assert s == pytest.approx(1.0, abs=1e-9)


class TestLadderOracles:
    """The ladder against mpmath, sides compared in linear space."""

    # (n, v, j, x): a few small cases for the Bessel-density quadrature
    BESSEL_CASES = ((3, 1, 2, 0.6), (6, 0, 4, 1.2), (4, 3, 1, 2.0), (2, 5, 2, 0.3))
    # wider orders and deeper tails for the Bessel-free gamma-product law
    GAMMA_CASES = (
        (5, 40, 3, 0.8), (50, 10, 25, 1.0), (2, 200, 1, 0.05),
        (30, 0, 30, 1.1), (12, 3, 6, 0.4), (1, 1000, 1, 0.2),
    )

    @pytest.mark.parametrize("n, v, j, x", BESSEL_CASES)
    def test_tails_match_bessel_density_oracle(self, n, v, j, x):
        params = EnsembleParams(n, v)
        cdf = index_cdf_oracle(n, v, j, x)
        assert math.exp(log_cdf_index(params, j, x)) == pytest.approx(cdf, rel=1e-11)
        assert math.exp(log_sf_index(params, j, x)) == pytest.approx(1.0 - cdf, rel=1e-11)

    @pytest.mark.parametrize("n, v, j, x", GAMMA_CASES)
    def test_tails_match_gamma_product_oracle(self, n, v, j, x):
        params = EnsembleParams(n, v)
        sf = gamma_product_tail_oracle(n, v, j, x, upper=True)
        cdf = gamma_product_tail_oracle(n, v, j, x, upper=False)
        assert math.exp(log_sf_index(params, j, x)) == pytest.approx(sf, rel=1e-11)
        assert math.exp(log_cdf_index(params, j, x)) == pytest.approx(cdf, rel=1e-11)

    def test_gamma_product_oracle_refuses_an_unconverged_quadrature(self):
        """At 30 digits the deep sf at (1000, 10, 500, 0.7) carries a
        quadrature error estimate of 3.8e-4 of its value (log P off by 6e-6):
        the oracle raises rather than pin it.  At 50 digits it converges and
        agrees with the ladder."""
        n, v, j, x = 1000, 10, 500, 0.7
        with pytest.raises(ArithmeticError, match="quadrature error estimate"):
            gamma_product_tail_oracle(n, v, j, x, upper=True, dps=30)
        sf = gamma_product_tail_oracle(n, v, j, x, upper=True, dps=50)
        got = log_sf_index(EnsembleParams(n, v), j, x)
        assert got == pytest.approx(-65.80480331112057, abs=1e-13)
        assert math.log(sf) == pytest.approx(got, abs=1e-12)


def _saddle_law(j, sds):
    """The saddle-point oracle's relative error bound in P at sds standard
    deviations into a tail (floats or arrays): 0.05 j^-1.4 max(1, sds/5)
    above the mean, from 2 to 30 sd, and 0.8 j^-1.5 below it, at 2 and
    5 sd.  Each is at least 2.5x the error measured against the ladder at j
    from 5 to 1e6 and v in {0, 10}.  Above the mean, from 5 sd on, the
    error grows about linearly in sds at j >= 500 (3.9e-11 at 5 sd and
    2.4e-10 at 30 sd, j = 1e6) and falls at j <= 30."""
    j = np.asarray(j, dtype=float)
    return 0.05 * j**-1.4 * np.maximum(1.0, sds / 5.0) if np.all(sds > 0) else 0.8 * j**-1.5


def _sd_level(j: int, v: int, sds: float) -> tuple[float, float]:
    """(x, log s) at n = j, sds standard deviations of log G_j + log G_{j+v}
    from its mean; log s is recomputed from the rounded x, so both routes
    see one level."""
    y = digamma(j) + digamma(j + v) + sds * math.sqrt(polygamma(1, j) + polygamma(1, j + v))
    x = math.sqrt(math.exp(y) / (j * (j + v)))
    return x, math.log(j) + math.log(j + v) + 2.0 * math.log(x)


def _rel_gap(log_got: float, log_want: float) -> float:
    """|P_got / P_want - 1| from the two logs."""
    return abs(math.expm1(log_got - log_want))


class TestSaddlePointOracle:
    """The Lugannani-Rice tails of log G_j + log G_{j+v}, calibrated against
    mpmath where that runs, then pinning the ladder at large j."""

    @pytest.mark.parametrize("sds", [-5.0, -2.0, 2.0, 5.0])
    @pytest.mark.parametrize("v", [0, 10])
    @pytest.mark.parametrize("j", [5, 30])
    def test_law_holds_against_the_gamma_product_oracle(self, j, v, sds):
        x, log_s = _sd_level(j, v, sds)
        want = gamma_product_tail_oracle(j, v, j, x, upper=sds > 0)
        assert _rel_gap(saddle_point_log_tail_oracle(j, v, log_s), math.log(want)) <= _saddle_law(j, sds)

    @pytest.mark.parametrize("sds", [10.0, 20.0, 30.0])
    @pytest.mark.parametrize("v", [0, 10])
    @pytest.mark.parametrize("j", [5, 30])
    def test_law_holds_deep_in_the_upper_tail(self, j, v, sds):
        # down to log P = -194568 (j = 5, v = 0, 30 sd), so in logs
        _, log_s = _sd_level(j, v, sds)
        want = gamma_product_log_sf_oracle(j, v, log_s)
        got = saddle_point_log_tail_oracle(j, v, log_s)
        assert _rel_gap(got, want) <= _saddle_law(j, sds)

    @pytest.mark.parametrize("sds", [2.0, 5.0, 10.0, 20.0, 30.0])
    @pytest.mark.parametrize("v", [0, 10])
    @pytest.mark.parametrize("j", [500, 5000, 50_000, 10**6])
    def test_log_sf_index_matches_it_at_large_j(self, j, v, sds):
        x, log_s = _sd_level(j, v, sds)
        got = log_sf_index(EnsembleParams(j, v), j, x)
        assert _rel_gap(got, saddle_point_log_tail_oracle(j, v, log_s)) <= _saddle_law(j, sds)

    @pytest.mark.parametrize("sds", [-5.0, -2.0])
    @pytest.mark.parametrize("v", [0, 10])
    @pytest.mark.parametrize("j", [500, 5000, 50_000, 10**6])
    def test_log_cdf_index_matches_it_at_large_j(self, j, v, sds):
        x, log_s = _sd_level(j, v, sds)
        got = log_cdf_index(EnsembleParams(j, v), j, x)
        assert _rel_gap(got, saddle_point_log_tail_oracle(j, v, log_s)) <= _saddle_law(j, sds)

    @pytest.mark.parametrize(
        "n, v, x",
        [(10**4, 0, 1.05), (10**4, 10, 1.05), (10**5, 0, 1.02), (10**5, 10, 1.03), (10**6, 0, 1.02)],
    )
    def test_max_ge_product_matches_it_at_large_n(self, n, v, x):
        """P(max >= x) = 1 - prod (1 - sf_j) over the window the query keeps,
        whose indices sit 7 (n = 1e4) to 30 (n = 1e6) sd into the upper
        tail; to first order in the sf_j (P is below 1e-10 here) its
        relative error is the sf-weighted mean of the per-index laws.  The
        oracle also sums half the window again below it, so the window's
        cut is checked against its own bound and not taken on trust."""
        params = EnsembleParams(n, v)
        first, last, bound = exact_dist._window(
            exact_dist._threshold(params, x), v, n, Statistic.MAX_SQ
        )
        j = np.arange(max(1, first - (last - first + 1) // 2), last + 1)
        log_s = math.log(n) + math.log(n + v) + 2.0 * math.log(x)
        log_sf = np.array([saddle_point_log_tail_oracle(int(i), v, log_s) for i in j])
        cut = j < first  # about e^-52 to e^-55 of the kept mass, against bounds near e^-41
        assert np.logaddexp.reduce(log_sf[cut]) - np.logaddexp.reduce(log_sf[~cut]) <= math.log(bound)
        sf = np.exp(log_sf)
        sds = (log_s - digamma(j) - digamma(j + v)) / np.sqrt(polygamma(1, j) + polygamma(1, j + v))
        want = -math.expm1(float(np.sum(np.log1p(-sf))))
        assert want > 1e-300
        law = float(np.dot(sf, _saddle_law(j, sds)) / np.sum(sf))
        assert _rel_gap(log_prob_max_ge(params, x), math.log(want)) <= law

    def test_refuses_the_mean(self):
        # theta = 0 there, and 1/u - 1/w is 0/0
        log_s = digamma(50) + digamma(53)
        with pytest.raises(ValueError, match="singular at the mean"):
            saddle_point_log_tail_oracle(50, 3, log_s)


class TestTrapezoidK:
    """kve(0|1, t) = e^t K_{0|1}(t) from the trapezoid rule at v = 0, where
    its peak is 1, against mpmath and scipy; and a batch's rows against
    their thresholds run alone, at v = 0 and above."""

    def test_matches_mpmath_and_scipy(self):
        t = np.geomspace(1e-8, 3e7, 61)
        for order, got in enumerate(_kve_sums(t, 0)):
            want = np.array([kve_oracle(order, ti) for ti in t])
            assert np.max(np.abs(got / want - 1.0)) <= 4.4e-15, order
            assert np.max(np.abs(got / kve(order, t) - 1.0)) <= 4.4e-15, order

    @pytest.mark.parametrize("t", [1e-300, 1e-100, 1e-12, 1e12, 1e300])
    def test_extreme_arguments(self, t):
        for order, got in enumerate(_kve_sums(np.array([t]), 0)):
            assert got[0] == pytest.approx(kve_oracle(order, t), rel=1e-14)

    def test_unsupported_arguments_are_nan(self):
        # below about 2e-304 the cosh weights overflow; no value beats a
        # wrong one
        t = np.array([1e-305, 0.0, -1.0, math.inf, math.nan, 1.0])
        with np.errstate(all="ignore"):  # the ladder's, around every call it makes
            values = _kve_sums(t, 0)
        for got in values:
            assert np.isnan(got[:-1]).all() and np.isfinite(got[-1])
        with pytest.raises(QuadratureError, match="non-finite"):
            log_prob_max_le(EnsembleParams(1, 0), 5e-306)

    @pytest.mark.parametrize("t", [1e306, 1e307, 1.7e308])
    def test_right_reach_does_not_overflow(self, t):
        # the right reach 1/H + sqrt(1/H^2 + 2 c) has no term that grows
        # with H, so no overflow is raised even at the largest thresholds;
        # there both orders read sqrt(pi / (2 t)), the integrand's peak 1
        t = np.array([t])
        big = np.hypot(3, t)
        with np.errstate(over="raise"):
            values = _kve_sums(t, 3, big, t * (t / (3 + big)), np.log(t))
        assert values[:, 0] == pytest.approx(math.sqrt(0.5 * math.pi / t[0]), rel=1e-14)

    def test_rows_equal_single_threshold_runs(self):
        # node counts from 32 (t above about 1.7) to 2784 (t = 1e-300) at
        # v = 0; at v >= 1, where the rule takes H, H - v and log t as
        # _bessel computes them, from 33 to 289 (v = 1, 7 counts) down to
        # 33 and 34 (v = 1e4); each row as its threshold alone, bit for bit
        t = np.geomspace(1e-300, 1e300, 301)

        def geometry(t, v):
            big = np.hypot(v, t)
            return (big, t * (t / (v + big)), np.log(t)) if v else ()

        with np.errstate(all="ignore"):  # the ladder's, around every call it makes
            for v in (0, 1, 3, 40, 1000, 10000):
                batch = _kve_sums(t, v, *geometry(t, v))
                for row, threshold in enumerate(t):
                    one = np.array([threshold])
                    alone = _kve_sums(one, v, *geometry(one, v))
                    assert batch[:, row].tobytes() == alone[:, 0].tobytes(), (v, threshold)


class TestBesselValues:
    """log K_k(t) = log kve(k, t) - t for the two orders k = v, v+1 the
    ladder takes from the rule, against the mpmath saddle-window oracle on
    the extreme corners of v <= 1e4, t in [1e-8, 3e7]."""

    ORDERS = (0, 1, 5, 30, 1000, 10000)
    TS = (1e-8, 1e-3, 0.1, 1.0, 10.0, 100.0, 1e3, 1e5, 3e7)

    @pytest.fixture(scope="class")
    def reference(self):
        ks = {k for v in self.ORDERS for k in (v, v + 1)}
        return {(k, t): log_kv_oracle(k, t) for k in ks for t in self.TS}

    # "float-path" takes each threshold alone, as the scalar entry points
    # do; "vector-path" takes six tiled copies in one call, so each row
    # shares its node-count group and block with others
    @pytest.mark.parametrize("tiles", [0, 6], ids=["float-path", "vector-path"])
    def test_log_k_matches_oracle(self, tiles, reference):
        t = np.tile(self.TS, tiles) if tiles else np.array(self.TS)
        for v in self.ORDERS:
            if tiles:
                log_k = _bessel(t, v)[0]
            else:
                alone = [_bessel(t[i : i + 1], v)[0] for i in range(t.size)]
                log_k = tuple(np.concatenate([row[j] for row in alone]) for j in (0, 1))
            for k, got in zip((v, v + 1), log_k):
                want = np.array([reference[k, ti] for ti in t])
                err = np.abs(got - t - want)
                assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(want))), (v, k)

    def test_paired_constants_match_plain_logs(self):
        # the closed form must agree with log kve + log p up to the rounding
        # of that plain sum, whose terms grow with v and 1/t
        t = np.array(self.TS)
        mu = 0.5 * t

        def log_p(m):
            return m * np.log(mu) - mu - math.lgamma(m + 1)

        for v in self.ORDERS:
            log_k, log_kp = _bessel(t, v)[:2]
            plain = (log_k[0] + log_p(v + 1), log_k[1] + log_p(v + 2), log_k[1] + log_p(v))
            scale = np.abs(log_k[0]) + np.abs(log_p(v + 2)) + 1.0
            for got, want in zip(log_kp, plain):
                assert np.all(np.abs(got - want) <= 1e-13 * scale), v


class TestLadderProperties:
    """Extreme inputs: v up to 1e4, x from 1e-6 to 10, n up to 1e6."""

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 10**6),
        v=st.integers(0, 10**4),
        x=st.floats(1e-6, 10.0),
    )
    def test_ladder_invariants(self, n, v, x):
        params = EnsembleParams(n, v)
        tails = index_tails(params, x)
        assert tails.failure is None
        for logs in (tails.log_sf, tails.log_cdf):
            assert np.all(np.isfinite(logs)) and np.all(logs <= 0.0)
        # stochastic order: sf non-decreasing in j, up to rounding at the
        # index where the directly summed side switches
        assert np.all(np.diff(tails.log_sf) >= -1e-12)
        # both sides summed directly; near v ~ 1e4, t ~ v the log-terms reach
        # ~5e3 in size, whose rounding alone is ~1e-12
        sums = _ladder_sums(np.array([derived_scales(params).c * x]), v, n, force_reverse=True)
        if sums.converged[0]:
            total = np.exp(sums.log_sf) + np.exp(sums.log_cdf)
            assert np.max(np.abs(total - 1.0)) <= 5e-12

    def test_ladder_length_is_order_n_not_order_t(self):
        # n=1e6 at x=10: t = c x ~ 2e7, far beyond every index's bulk
        n, v, x = 10**6, 0, 10.0
        params = EnsembleParams(n, v)
        cap = n + 40.0 * math.sqrt(n + v) + 100
        tracemalloc.start()
        try:
            tails = index_tails(params, x)
            sums = _ladder_sums(np.array([derived_scales(params).c * x]), v, n, force_reverse=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tails.failure is None and tails.stop == 0
        assert not tails.cdf_direct.any()
        # the forced reverse sum cannot converge below the bulk at t/2 ~ 1e7,
        # but it stops at the cap instead of running on towards it
        assert not sums.converged[0] and sums.stop[0] <= cap
        # about nine float arrays of length cap (~8 MB each); one array of
        # length t would take 160 MB on its own
        assert peak < 16 * 8 * cap

    def test_query_memory_does_not_grow_with_v(self):
        # only K_v and K_{v+1} are computed, so nothing of size v is held
        tracemalloc.start()
        try:
            got = log_prob_max_le(EnsembleParams(3, 10**6), 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(got)
        assert peak < 2 * 2**20

    def test_unpaired_query_memory_does_not_grow_with_v(self):
        # the unpaired form computes the Poisson weights its increments read,
        # m < top and m = v .. v + top, not every m below v + top
        params = EnsembleParams(10, 10**5)
        t = derived_scales(params).c * 100.0
        assert _bessel(np.array([t]), params.v)[0][0][0] <= t  # unpaired
        tracemalloc.start()
        try:
            got = log_prob_max_ge(params, 100.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert math.isfinite(got)
        assert peak < 2**19

    @pytest.mark.parametrize(
        "n, v, x", [(10**4, 0, 1e-3), (10**4, 100, 1e-6), (10, 10**4, 0.5), (10**6, 20, 0.01)]
    )
    def test_reverse_sum_stops_within_the_cap(self, n, v, x):
        tails = index_tails(EnsembleParams(n, v), x)
        assert tails.failure is None and tails.cdf_direct[-1]
        assert n <= tails.stop <= n + 40.0 * math.sqrt(n + v) + 100
        assert tails.truncation_bound <= math.exp(-40.0)


PAIRS = [(stat, side) for stat in Statistic for side in Direction]


class TestIndexWindow:
    """Products and single indices evaluate only their certified window of
    indices; the full ladder of :func:`index_tails` is the oracle."""

    @staticmethod
    def _check(params, x, stat, side, j, full):
        # the windowed query against the full ladder, and the window's
        # certificate against what the full ladder says it dropped
        query = TailQuery(stat, side, x)
        want = log_prob_from_tails(full, query)
        assert abs(log_prob(params, query) - want) <= 1e-12 * abs(want)
        tails = index_tails(params, x, stat=stat)
        assert tails.failure is None and tails.truncation_bound <= math.exp(-40.0)
        first, last = tails.first, tails.first + tails.log_sf.size - 1
        # (the kept sum of sf or cdf is at most the kept sum of -log cdf or -log sf)
        log_bound = math.log(tails.truncation_bound) if tails.truncation_bound else -math.inf
        if stat is Statistic.MAX_SQ and first > 1:
            # every index below first, and sf_{first-1} left out of each kept one
            head = np.append(full.log_sf[: first - 1], math.log(params.n) + full.log_sf[first - 2])
            assert logsumexp(head) <= log_bound + logsumexp(full.log_sf[first - 1 :])
        if stat is Statistic.MIN_SQ and last < params.n:
            kept = logsumexp(full.log_cdf[:last])
            assert logsumexp(full.log_cdf[last:]) <= log_bound + kept
        for got, want in (
            (log_sf_index(params, j, x), full.log_sf[j - 1]),
            (log_cdf_index(params, j, x), full.log_cdf[j - 1]),
        ):
            assert abs(got - want) <= 1e-12 * abs(want)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 10**6),
        v=st.integers(0, 10**4),
        x=st.floats(1e-6, 10.0),
        pair=st.sampled_from(PAIRS),
        j_share=st.floats(0.0, 1.0),
    )
    def test_window_matches_full_ladder(self, n, v, x, pair, j_share):
        params = EnsembleParams(n, v)
        self._check(params, x, *pair, 1 + int(j_share * (n - 1)), index_tails(params, x))

    @pytest.mark.parametrize(
        "n, v, x, pair",
        [
            (10**6, 0, 1.0, 1), (10**6, 0, 1.2, 0), (10**6, 0, 0.01, 2), (10**5, 0, 0.5, 1),
            # the paired form, whose ratio p(i+v) / p(v+1) is in closed form
            (100, 10**4, 2.0, 0), (2000, 10**4, 0.3, 1), (3000, 10**4, 0.05, 2),
            (10**4, 10**4, 0.2, 3),
        ],
    )
    def test_windows_that_drop_indices(self, n, v, x, pair):
        params = EnsembleParams(n, v)
        stat, side = PAIRS[pair]
        tails = index_tails(params, x, stat=stat)
        assert tails.log_sf.size < n
        self._check(params, x, stat, side, n // 2, index_tails(params, x))

    @pytest.mark.parametrize(
        "n, stat, side, x",
        [
            (10**6, Statistic.MAX_SQ, Direction.LE, 1.0),
            (10**6, Statistic.MAX_SQ, Direction.GE, 1.2),
            (10**6, Statistic.MIN_SQ, Direction.GE, 0.01),
            (10**8, Statistic.MAX_SQ, Direction.GE, 1.2),
            (10**8, Statistic.MAX_SQ, Direction.LE, 1.0),
            # the min's window reaches about x n indices
            (10**8, Statistic.MIN_SQ, Direction.GE, 1e-4),
        ],
    )
    def test_large_n_query_is_certified_in_bounded_memory(self, n, stat, side, x):
        params = EnsembleParams(n, 0)
        tracemalloc.start()
        try:
            got = log_prob(params, TailQuery(stat, side, x))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        tails = index_tails(params, x, stat=stat)
        assert math.isfinite(got) and got < 0.0
        assert tails.failure is None and tails.truncation_bound <= math.exp(-40.0)
        assert peak < 16 * 2**20


class TestLadderFailures:
    """Failures raise QuadratureError with the partial value, never a number."""

    def test_non_finite_bessel_value_raises(self, monkeypatch):
        monkeypatch.setattr(exact_dist, "_kve_sums", lambda t, v, *_: np.full((2, t.size), np.nan))
        with pytest.raises(QuadratureError) as info:
            log_prob_max_le(EnsembleParams(5, 2), 0.9)
        assert "non-finite" in str(info.value)
        assert info.value.partial is not None and math.isnan(info.value.partial)
        assert info.value.rel_err == math.inf

    @pytest.mark.parametrize("n", [1, 10**6])
    @pytest.mark.parametrize("v", [0, 10**4])
    # at x = 1e308 the threshold c x overflows to inf at every (n, v) here
    @pytest.mark.parametrize("x", [1e-6, 10.0, 1e300, 1e308])
    def test_no_runtime_warning_leaves_the_ladder(self, n, v, x):
        params = EnsembleParams(n, v)
        c = derived_scales(params).c
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for stat in Statistic:
                for side in Direction:
                    log_prob(params, TailQuery(stat, side, x))
            log_sf_index(params, n, x)
            log_cdf_index(params, n, x)
            top = min(n, 50)
            _reduce_rows(np.array([c * 1e-6, c * x, c * 10.0]), v, top, lambda *tails: tails)
            _ladder_sums(np.array([c * x]), v, top, force_reverse=True)

    @pytest.mark.parametrize("n, v", [(1, 0), (7, 3), (10**6, 0)])
    def test_overflowing_threshold_gives_the_exact_limits(self, n, v):
        # t = c x = inf: every sf is 0 and every cdf 1, with nothing dropped;
        # a product query evaluates the one index that gives it exactly
        params = EnsembleParams(n, v)
        for stat, index in ((Statistic.MAX_SQ, n), (Statistic.MIN_SQ, 1)):
            window = index_tails(params, 1e308, stat=stat)
            assert window.first == index and window.log_sf.shape == (1,)
            assert window.truncation_bound == 0.0 and window.failure is None
        tails = index_tails(params, 1e308)
        assert np.all(tails.log_sf == -math.inf) and np.all(tails.log_cdf == 0.0)
        assert tails.failure is None and tails.stop == 0 and tails.truncation_bound == 0.0
        assert log_prob_max_ge(params, 1e308) == -math.inf
        assert log_prob_max_le(params, 1e308) == 0.0
        assert log_prob_min_ge(params, 1e308) == -math.inf
        assert log_prob_min_le(params, 1e308) == 0.0
        assert log_sf_index(params, n, 1e308) == -math.inf
        assert log_cdf_index(params, n, 1e308) == 0.0

    def test_non_finite_bessel_value_raises_without_warning(self, monkeypatch):
        monkeypatch.setattr(exact_dist, "_kve_sums", lambda t, v, *_: np.full((2, t.size), np.nan))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QuadratureError, match="non-finite"):
                log_prob_max_le(EnsembleParams(5, 2), 0.9)

    def test_unconverged_reverse_sum_raises_with_partial(self, monkeypatch):
        # demand more than the cap can give: the truncation test never passes
        monkeypatch.setattr(exact_dist, "_TRUNCATION_NATS", 1e6)
        params = EnsembleParams(10, 0)
        with pytest.raises(QuadratureError) as info:
            log_prob_min_ge(params, 0.5)
        assert "did not converge" in str(info.value)
        monkeypatch.undo()
        assert info.value.partial == pytest.approx(log_prob_min_ge(params, 0.5), abs=1e-12)
        assert 0.0 <= info.value.rel_err < 1e-12


class TestBatchedLadder:
    """A batch of thresholds is one ladder per row: each row equals the same
    threshold run alone, and one failing row fails the batch."""

    @staticmethod
    def _paired_switch(v: int) -> float:
        # the increments switch form where log kve(v, t) = t, i.e. K_v(t) = 1
        return brentq(lambda t: math.log(kve(v, t)) - t, 1e-8, 10.0 * v + 10.0)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 10**4),
        v=st.integers(0, 10**4),
        xs=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=40),
        top_share=st.floats(0.0, 1.0),
    )
    def test_rows_equal_single_threshold_runs(self, n, v, xs, top_share):
        top = 1 + int(top_share * (n - 1))
        c = derived_scales(EnsembleParams(n, v)).c
        # x = 1e-6 has sf_top near 1 and x = 10 near 0; the last two sit
        # on either side of the paired switch when it lies in range
        switch = self._paired_switch(v)
        extra = [s for s in (switch * 0.999 / c, switch * 1.001 / c) if 1e-6 <= s <= 10.0]
        # first a row that can take a reverse sum (t < 2 top + v) but does
        # not: the median of Gamma(2 top + v) is above 2 top + v - 1/3
        mid = 2 * top + v
        t = np.concatenate(([mid - 0.25, mid], c * np.array(xs + [1e-6, 10.0] + extra)))
        batch = _batch(t, v, top)
        assert batch.failure is None
        assert batch.stop[0] == 0 and not batch.cdf_direct[0].any()
        assert batch.cdf_direct[-len(extra) - 2].any()
        assert not batch.cdf_direct[-len(extra) - 1].any()
        # every row takes the reverse sum when forced, in a batch and alone
        forced = _ladder_sums(t, v, top, force_reverse=True)
        for row, threshold in enumerate(t):
            alone = _batch(np.array([threshold]), v, top)
            assert alone.stop[0] == batch.stop[row]
            assert alone.truncation_bound[0] == batch.truncation_bound[row]
            np.testing.assert_array_equal(alone.cdf_direct[0], batch.cdf_direct[row])
            np.testing.assert_array_equal(alone.log_sf[0], batch.log_sf[row])
            np.testing.assert_array_equal(alone.log_cdf[0], batch.log_cdf[row])
            alone = _ladder_sums(np.array([threshold]), v, top, force_reverse=True)
            for got, want in zip(alone, forced):
                np.testing.assert_array_equal(got[0], want[row])

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(2, 10**4),
        v=st.integers(0, 10**4),
        xs=st.lists(st.floats(1e-6, 10.0), min_size=1, max_size=20),
        first_share=st.floats(0.0, 1.0),
    )
    def test_windowed_rows_equal_single_threshold_runs(self, n, v, xs, first_share):
        # rows that share a window start, in either increment form
        first = 2 + int(first_share * (n - 2))
        c = derived_scales(EnsembleParams(n, v)).c
        switch = self._paired_switch(v)
        t = np.array([c * x for x in xs] + [switch * 0.999, switch * 1.001])
        batch = _batch(t, v, n, first)
        assert batch.first == first and batch.log_sf.shape == (t.size, n - first + 1)
        for row, threshold in enumerate(t):
            alone = _batch(np.array([threshold]), v, n, first)
            assert alone.stop[0] == batch.stop[row]
            np.testing.assert_array_equal(alone.log_sf[0], batch.log_sf[row])
            np.testing.assert_array_equal(alone.log_cdf[0], batch.log_cdf[row])

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(1, 10**4),
        v=st.integers(0, 10**4),
        x=st.floats(1e-6, 10.0),
        top_share=st.floats(0.0, 1.0),
    )
    def test_reverse_sum_stops_within_its_bound(self, n, v, x, top_share):
        # the stop is fixed before any increment is drawn: one _log_delta
        # call gives every increment a lone threshold sums, forward and
        # reverse, and none past the stop; the increments a sum forced on to
        # the cap adds past it stay within the bound (truncation_bound =
        # e^log_bound) of the ones it kept
        top = 1 + int(top_share * (n - 1))
        t = np.array([derived_scales(EnsembleParams(n, v)).c * x])
        cap = exact_dist._cap(top, v)
        real, calls = exact_dist._log_delta, []

        def counted(rows, v, paired, lo, hi):
            out = real(rows, v, paired, lo, hi)
            calls.append((lo, hi, out[0]))
            return out

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact_dist, "_log_delta", counted)
            sums = _ladder_sums(t, v, top, force_reverse=True)
            stop = int(sums.stop[0])
            assert top <= stop <= cap and (sums.converged[0] or stop == cap)
            assert [(lo, hi) for lo, hi, _ in calls] == [(1, stop + 1)]
            calls.clear()
            # so do the candidate rows of a batch, to their furthest stop
            _ladder_sums(np.repeat(t, 2), v, top, force_reverse=True)
            assert [(lo, hi) for lo, hi, _ in calls] == [(1, stop + 1)]
            calls.clear()
            patch.setattr(exact_dist, "_TRUNCATION_NATS", 1e6)
            whole = _ladder_sums(t, v, top, force_reverse=True)
        [(lo, hi, steps)] = calls  # delta_1 .. delta_cap
        assert (lo, hi, int(whole.stop[0])) == (1, cap + 1, cap)
        kept, dropped = steps[top - 1 : stop], steps[stop:]
        if dropped.size:
            assert logsumexp(dropped) - logsumexp(kept) <= sums.log_bound[0] + 1e-9

    def test_one_nan_row_fails_the_batch(self, monkeypatch):
        params = EnsembleParams(5, 2)
        y = np.linspace(0.05, 2.0, 40)
        bad = float(2.0 * params.n * y[17])
        real = exact_dist._kve_sums
        monkeypatch.setattr(
            exact_dist, "_kve_sums", lambda t, v, *rest: np.where(t == bad, np.nan, real(t, v, *rest))
        )
        tails = _batch(2.0 * params.n * y, params.v, 3)
        assert f"non-finite ladder value at t={bad!r}" in tails.failure
        assert np.isfinite(np.delete(tails.log_cdf, 17, axis=0)).all()
        with pytest.raises(QuadratureError) as info:
            ks_statistic(params, 3, y)
        assert "non-finite" in str(info.value)
        assert math.isnan(info.value.partial) and info.value.rel_err == math.inf

    def test_unconverged_rows_fail_the_batch_with_partial(self, monkeypatch):
        params = EnsembleParams(5, 2)
        y = np.linspace(0.05, 2.0, 40)
        exact = ks_statistic(params, 3, y)
        monkeypatch.setattr(exact_dist, "_TRUNCATION_NATS", 1e6)
        with pytest.raises(QuadratureError) as info:
            ks_statistic(params, 3, y)
        assert "did not converge" in str(info.value)
        assert "more thresholds" in str(info.value)
        assert info.value.partial == pytest.approx(exact, abs=1e-12)
        assert 0.0 <= info.value.rel_err < 1e-12


class TestStopBound:
    """The reverse sum's candidates and stops, fixed before any increment is
    drawn: only a row with t < 2 top + v can have sf_top > 1/2, a row's stop
    never decreases with t, and the furthest stop at the largest threshold,
    from Python floats, bounds the stop of every row."""

    @staticmethod
    def _threshold(top, v, z):
        # z standard deviations of G_top + G_{top+v} ~ Gamma(2 top + v) from its mean
        mid = 2 * top + v
        return mid + z * math.sqrt(mid)

    @settings(max_examples=40, deadline=None)
    @given(top=st.integers(1, 10**6), v=st.integers(0, 10**4), z=st.floats(0.0, 10.0))
    def test_no_row_past_twice_top_plus_v_has_sf_top_above_half(self, top, v, z):
        # a row past 2 top + v is no candidate: the ladder never draws its
        # reverse increments nor takes its reverse sum, so its values rest
        # on this rule; the row is summed over a single index query's window
        t = self._threshold(top, v, z)
        first, _, _ = exact_dist._window(t, v, top, Statistic.MAX_SQ)
        sums = _ladder_sums(np.array([t]), v, top, first=first)
        assert sums.log_sf[0, -1] <= -math.log(2.0)
        assert sums.stop[0] == 0 and np.isnan(sums.log_cdf).all()

    @settings(max_examples=100, deadline=None)
    @given(top=st.integers(1, 10**6), v=st.integers(0, 10**4), z=st.floats(-10.0, 10.0))
    def test_one_row_bound_covers_the_stop(self, top, v, z):
        # a forced reverse sum with every index up to the cap in range stops
        # within the bound, converged unless the bound is the cap
        t = self._threshold(top, v, z)
        assume(t > 0.0)
        cap = exact_dist._cap(top, v)
        first, _, _ = exact_dist._window(t, v, top, Statistic.MAX_SQ)
        sums = _ladder_sums(np.array([t]), v, top, force_reverse=True, first=first, last=cap)
        last = exact_dist._last_stop(0.5 * t, v, top)
        assert top <= sums.stop[0] <= last <= cap
        assert sums.converged[0] or last == cap

    @settings(max_examples=60, deadline=None)
    @given(
        top=st.integers(1, 10**6),
        v=st.integers(0, 10**4),
        runs=st.lists(
            st.tuples(st.floats(-60.0, 1.0), st.integers(1, 5), st.integers(1, 3)),
            min_size=2,
            max_size=10,
        ),
    )
    def test_largest_threshold_bounds_every_stop(self, top, v, runs):
        # 2 to 50 thresholds from 2^-60 to twice 2 top + v, in runs a few
        # ulps apart: each row's stop, with every index up to the cap in
        # range, does not decrease with t, so the bound at the largest
        # threshold covers them all
        t = []
        for scale, length, ulps in runs:
            t.append((2 * top + v) * 2.0**scale)
            for _ in range(length - 1):
                for _ in range(ulps):
                    t.append(math.nextafter(t[-1], math.inf))
        t = np.sort(t)
        stop, _, _ = exact_dist._stops(
            np.log(0.5 * t)[:, None], v, top, exact_dist._cap(top, v)
        )
        assert (np.diff(stop) >= 0).all()
        assert stop[-1] <= exact_dist._last_stop(0.5 * float(t[-1]), v, top)

    @settings(max_examples=60, deadline=None)
    @given(
        top=st.integers(1, 10**4),
        v=st.integers(0, 10**4),
        scales=st.lists(st.floats(-60.0, 1.0), min_size=1, max_size=5),
    )
    def test_cap_fallback_gives_the_bounded_sums(self, top, v, scales):
        # _ladder_sums without ``last`` ranges its stops to the cap; given
        # the bound at its largest threshold, as _reduce_rows passes one,
        # every field holds the same bytes, from 2^-60 to twice 2 top + v
        t = np.array([(2 * top + v) * 2.0**scale for scale in scales])
        last = exact_dist._last_stop(0.5 * float(t.max()), v, top)
        capped = _ladder_sums(t, v, top, force_reverse=True)
        bounded = _ladder_sums(t, v, top, force_reverse=True, last=last)
        for field, a, b in zip(capped._fields, capped, bounded):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field

    @pytest.mark.parametrize("mu", [math.nan, math.inf, 1e307, 0.0, -1.0])
    def test_bound_is_the_cap_without_a_finite_positive_mean(self, mu):
        # a NaN or infinite largest mean, possible in forced rows, and a
        # finite one past the cap return the cap without raising
        assert exact_dist._last_stop(mu, 3, 5) == exact_dist._cap(5, 3)


class TestRootAndReach:
    """_root and _reach on Python floats: the positive root of each of
    _reach's quadratics to a few ulps, a reach whose m indices sum to a,
    and no exception from _window or _last_stop over n up to 1e6, v up to
    1e4 and x from 1e-6 to 10, whose guards keep every input finite."""

    _CASES = dict(
        k=st.integers(1, 10**6),
        v=st.integers(0, 10**4),
        w=st.floats(0.0, 40.0),
        a=st.floats(40.0, 60.0),
    )

    @staticmethod
    def _g(k, v, w):
        # mu = sqrt(k (k+1+v)) e^-w, and g = -log rho_k at that mean (about 2 w)
        mu = math.sqrt(k * (k + 1.0 + v)) * math.exp(-w)
        return mu, math.log(k) + math.log(k + 1.0 + v) - 2.0 * math.log(mu)

    @settings(max_examples=200, deadline=None)
    @given(**_CASES)
    def test_root_is_the_positive_root(self, k, v, w, a):
        _, g = self._g(k, v, w)
        assume(g >= 0.0)
        for coeffs in (
            (g + 1.0, g * (k + v) - 1.0 - a, -a * (k + v)),
            (2.0 * g + 1.0, 2.0 * g * k - 1.0 - 2.0 * a, -2.0 * a * k),
        ):
            m = exact_dist._root(*coeffs)
            # the residual, exact in rationals, against the size of its terms
            qa, qb, qc, fm = map(Fraction, (*coeffs, m))
            terms = (qa * fm * fm, qb * fm, qc)
            assert m > 0.0
            assert abs(sum(terms)) <= 4 * 2.0**-52 * sum(map(abs, terms))

    @settings(max_examples=200, deadline=None)
    @given(**_CASES)
    def test_reach_sums_to_a(self, k, v, w, a):
        mu, g = self._g(k, v, w)
        assume(g >= 0.0)
        m, g_reach = exact_dist._reach(k, v, mu, a)
        assert isinstance(m, int) and m >= 1 and g_reach == g
        total = math.fsum(
            math.log(l) + math.log(l + 1.0 + v) - 2.0 * math.log(mu) for l in range(k, k + m)
        )
        # to within rounding: where g = -log rho_k is a to a few ulps, one
        # index may take the sum to a few ulps below a
        assert total >= a * (1.0 - 4 * 2.0**-52)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 10**6),
        v=st.integers(0, 10**4),
        x=st.floats(1e-6, 10.0),
        stat=st.sampled_from(list(Statistic)),
    )
    def test_window_and_bound_raise_nowhere(self, n, v, x, stat):
        t = derived_scales(EnsembleParams(n, v)).c * x
        first, last, bound = exact_dist._window(t, v, n, stat)
        assert 1 <= first <= last <= n and 0.0 <= bound < 1e-17
        assert n <= exact_dist._last_stop(0.5 * t, v, n) <= exact_dist._cap(n, v)


class TestOnePoissonPass:
    """_log_delta takes the counts i-1, i and i+v from one pass over
    lo-1 .. hi-1+v where that is shorter than two passes (v < hi - lo + 1),
    with the same bits as two."""

    @staticmethod
    def _rows(mus, v):
        # the constants of each form at thresholds t = 2 mu
        t = 2.0 * np.asarray(mus)
        mu = 0.5 * t
        log_k, log_kp = _bessel(t, v)[:2]
        forms = {False: log_k, True: log_kp[:2]}
        return {
            paired: exact_dist._Rows(*(c[:, None] for c in (mu, np.log(t), np.log(mu), *log_ab)))
            for paired, log_ab in forms.items()
        }

    @settings(max_examples=150, deadline=None)
    @given(
        lo=st.integers(1, 400),
        width=st.integers(1, 400),
        v=st.integers(0, 800),
        mus=st.lists(st.floats(1e-3, 3e3), min_size=1, max_size=4),
    )
    def test_union_pass_equals_two_passes(self, lo, width, v, mus):
        # each Poisson weight and Stirling error depends on its count alone
        hi = lo + width
        mu = np.array(mus)[:, None]
        m = np.arange(lo - 1.0, hi)
        union = np.arange(lo - 1.0, hi + v)
        with np.errstate(all="ignore"):  # count 0 takes its own branch
            stirling = exact_dist._stirling_error(union)
            one = exact_dist._log_poisson(mu, union, stirling)
            for counts, at in ((m, 0), (m[1:] + v, v + 1)):
                part = exact_dist._stirling_error(counts)
                assert stirling[at : at + counts.size].tobytes() == part.tobytes()
                two = exact_dist._log_poisson(mu, counts, part)
                assert one[:, at : at + counts.size].tobytes() == two.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        lo=st.integers(1, 300),
        width=st.integers(1, 300),
        v=st.integers(0, 600),
        mus=st.lists(st.floats(1e-3, 3e3), min_size=1, max_size=4),
        cut=st.floats(0.0, 1.0),
    )
    def test_one_pass_and_two_give_the_same_bits(self, lo, width, v, mus, cut):
        # a range that takes one pass (v < width + 1) against the same
        # indices one at a time, which take two once v >= 2, and against two
        # halves, which may take either; in both increment forms
        hi = lo + width
        mid = lo + int(cut * width)
        with np.errstate(all="ignore"):  # as the ladder runs it
            for paired, rows in self._rows(mus, v).items():
                delta = lambda lo, hi: exact_dist._log_delta(rows, v, paired, lo, hi)
                whole = delta(lo, hi)
                assert whole.shape == (len(mus), width) and np.isfinite(whole).all()
                single = [delta(i, i + 1) for i in range(lo, hi)]
                halves = [delta(lo, mid), delta(mid, hi)]
                for pieces in (single, halves):
                    assert np.concatenate(pieces, axis=1).tobytes() == whole.tobytes(), paired


class TestStirlingTable:
    """_stirling_error reads counts below 2^14 from a table that holds the
    series' own values from 16 on: over ascending count arrays it gives the
    bits of its float form, element by element, and NaN at count 0."""

    END = exact_dist._STIRLING_ERROR.size  # the first count past the table

    @staticmethod
    def _float_form(counts):
        return np.array([exact_dist._stirling_error(float(c)) for c in counts])

    @settings(max_examples=200, deadline=None)
    @given(
        # from count 0, across 15 | 16, across the table's end, and far past it
        lo=st.one_of(
            st.integers(0, 40), st.integers(END - 300, END + 40), st.integers(END, 10**7)
        ),
        width=st.integers(1, 400),
        gap=st.integers(0, 2 * END),
        union=st.booleans(),
    )
    def test_arrays_give_the_float_bits(self, lo, width, gap, union):
        m = np.arange(float(lo), lo + width)
        # _log_delta's two runs, i-1 and i then i+v, ascending since v >= m.size
        counts = np.concatenate((m, m[1:] + (m.size + gap))) if union else m
        got = exact_dist._stirling_error(counts)
        assert got.tobytes() == self._float_form(counts).tobytes()
        assert np.isnan(got[0]) == (lo == 0) and np.isfinite(got[lo == 0 :]).all()

    def test_table_ends_where_the_series_takes_over(self):
        assert self.END == 1 << 14
        counts = np.arange(1.0, self.END + 3)
        exact = exact_dist._STIRLING_ERROR[1:16]
        assert exact_dist._stirling_error(counts[:15]).tobytes() == exact.tobytes()
        series = exact_dist._stirling_series(counts[15:])
        assert exact_dist._stirling_error(counts)[15:].tobytes() == series.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        width=st.integers(1, 300),
        mus=st.lists(st.floats(1e-300, 1e300), min_size=1, max_size=6),
    )
    def test_log_poisson_is_minus_mu_at_count_zero(self, width, mus):
        # only the first count may be 0; p(0) = e^-mu exactly, in every row
        mu = np.array(mus)[:, None]
        counts = np.arange(0.0, width)
        with np.errstate(all="ignore"):  # as the ladder runs it
            got = exact_dist._log_poisson(mu, counts, exact_dist._stirling_error(counts))
        assert got[:, 0].tobytes() == (-mu[:, 0]).tobytes()
        assert not np.isnan(got[:, 1:]).any()


def _cli_prob(stat: str, side: str) -> int:
    argv = ["prob", "--n", "20", "--v", "3", "--x", "0.9", "--stat", stat, "--side", side]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli_main(argv)


# every entry point that evaluates exact tails, at (n, v) = (20, 3)
_LADDER_CALLERS = {
    **{
        f"log_prob {stat.name} {side.name}": (
            lambda p, stat=stat, side=side: log_prob(p, TailQuery(stat, side, 0.9))
        )
        for stat, side in PAIRS
    },
    "log_sf_index": lambda p: log_sf_index(p, 7, 0.9),
    "log_cdf_index": lambda p: log_cdf_index(p, 7, 0.9),
    "index_tails": lambda p: index_tails(p, 0.9),
    "ks_statistic": lambda p: ks_statistic(p, 7, np.linspace(0.01, 0.2, 50)),
    "ks_statistic_max": lambda p: ks_statistic_max(p, np.linspace(0.6, 1.4, 50)),
    "ks_statistic_min": lambda p: ks_statistic_min(p, np.linspace(0.001, 0.1, 50)),
    "cli prob": lambda p: _cli_prob("max", "ge"),
}


class TestOneEntry:
    """Every query reaches the ladder through one call of _reduce_rows, and
    the ladder's sums only through it."""

    @pytest.mark.parametrize("name", list(_LADDER_CALLERS))
    def test_each_query_runs_the_ladder_once(self, monkeypatch, name):
        # only exact_dist calls _reduce_rows, the KS statistics too; and
        # _ladder_sums runs in pool threads too, inside a _reduce_rows call
        real_reduce, real_sums = exact_dist._reduce_rows, exact_dist._ladder_sums
        calls, depth, stray = [], [0], []

        def reduce_rows(*args, **kwargs):
            calls.append(args[2])
            depth[0] += 1
            try:
                return real_reduce(*args, **kwargs)
            finally:
                depth[0] -= 1

        def ladder_sums(*args, **kwargs):
            if not depth[0]:
                stray.append(args)
            return real_sums(*args, **kwargs)

        monkeypatch.setattr(exact_dist, "_reduce_rows", reduce_rows)
        monkeypatch.setattr(exact_dist, "_ladder_sums", ladder_sums)
        _LADDER_CALLERS[name](EnsembleParams(20, 3))
        assert len(calls) == 1 and stray == []

    @staticmethod
    def _callers(name):
        # (module, top-level definition) of each call of ``name`` in the
        # package, by name or as a module attribute
        callers = set()
        for path in Path(exact_dist.__file__).parent.glob("*.py"):
            for node in ast.parse(path.read_text()).body:
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Call) and name in (
                        getattr(inner.func, "id", None), getattr(inner.func, "attr", None)
                    ):
                        callers.add((path.stem, node.name))
        return callers

    def test_only_the_entry_calls_the_ladder_sums(self):
        # verify's tail-complement check reads the raw force_reverse sums
        assert self._callers("_ladder_sums") == {
            ("exact_dist", "_reduce_rows"),
            ("verification", "_check_tail_complement"),
        }
        for name in ("_tails_at", "_rows_at", "_tally"):
            assert not hasattr(exact_dist, name)

    def test_one_call_bounds_the_stops_and_one_cuts_the_blocks(self):
        # the entry alone bounds a batch's reverse-sum stops, and every
        # batched job, the ladder's, the sampler's and the probe's, is cut
        # into blocks by the one call that runs them
        assert self._callers("_last_stop") == {("exact_dist", "_reduce_rows")}
        assert self._callers("_blocks") == {("exact_dist", "_run_blocks")}
        assert self._callers("_run_blocks") == {
            ("exact_dist", "_reduce_rows"),
            ("sampler", "sample_yj"),
            ("sampler", "matrix_probe_extremes"),
        }
        assert not hasattr(sampler, "_stream_blocks")

    def test_the_run_protocol_stays_in_the_exact_layer(self):
        # the entry's two callers, a single query's window and the KS
        # evaluation, are exact_dist's own, and so are the tally the entry
        # returns and the failure test on it; the sampler keeps only the
        # public KS statistics
        assert self._callers("_reduce_rows") == {
            ("exact_dist", "index_tails"),
            ("exact_dist", "_ks"),
        }
        for name in ("_Tally", "_checked"):
            assert self._namers(name) == {"exact_dist"}, name
        assert sampler._ks is exact_dist._ks and exact_dist._ks.__module__ == exact_dist.__name__

    # (importing module, source module): the private names it imports from there
    _PRIVATE_IMPORTS = {
        ("cli", "exact_dist"): {"_ks"},
        ("sampler", "exact_dist"): {"_ks", "_run_blocks"},
        ("verification", "exact_dist"): {"_ladder_sums"},
        ("asymptotics_lab", "rate_functions"): {"_power"},
    }

    def test_the_private_cross_module_surface_is_pinned(self):
        # every private name one module of the package imports from another,
        # and no Generator call: the sampler reads raw Philox words alone
        imports, generators = {}, []
        for path in Path(exact_dist.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    private = {a.name for a in node.names if a.name.startswith("_")}
                    if private:
                        imports.setdefault((path.stem, node.module), set()).update(private)
                if isinstance(node, ast.Call) and "Generator" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    generators.append(f"{path.stem}:{node.lineno}")
        assert imports == self._PRIVATE_IMPORTS
        assert generators == []

    @staticmethod
    def _namers(name):
        # the modules of the package that name ``name`` anywhere: as a
        # variable, an attribute or an import
        namers = set()
        for path in Path(exact_dist.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if name in (
                    getattr(node, "id", None), getattr(node, "attr", None),
                    getattr(node, "name", None),
                ):
                    namers.add(path.stem)
        return namers


class TestTallyNote:
    """The tally renders the run's note: the indices kept, the pairs whose
    cdf was summed directly, the reverse-sum stop and the dropped-tail bound;
    per sample point over a batch, where the stop is the furthest."""

    @pytest.mark.parametrize(
        "tally, note",
        [
            (_Tally(None, 3, 9, 2, 15, 2.5e-18, None),
             "gamma-shape ladder over indices 3..9: cdf summed directly for 2, sf for 5; "
             "reverse sum stopped at index 15 with dropped tail below 2.5e-18 relative"),
            (_Tally(None, 3, 9, 0, 0, 1.2e-19, None),
             "gamma-shape ladder over indices 3..9: cdf summed directly for 0, sf for 7; "
             "dropped tail below 1.2e-19 relative"),
            (_Tally(None, 1, 9, 0, 0, 0.0, None),
             "gamma-shape ladder over indices 1..9: cdf summed directly for 0, sf for 9"),
            (_Tally(4, 1, 3, 5, 20, 3e-18, None),
             "gamma-shape ladder over indices 1..3 at 4 sample points: cdf summed directly "
             "for 5, sf for 7; reverse sums stopped by index 20 with dropped tail below "
             "3.0e-18 relative"),
            (_Tally(4, 1, 3, 0, 0, 0.0, None),
             "gamma-shape ladder over indices 1..3 at 4 sample points: cdf summed directly "
             "for 0, sf for 12"),
            (_Tally(1, 1, 3, 1, 0, 0.0, None),
             "gamma-shape ladder over indices 1..3 at 1 sample point: cdf summed directly "
             "for 1, sf for 2"),
        ],
        ids=[
            "query-stop", "query-window", "query-whole", "batch-stop", "batch-no-stop",
            "batch-one-point",
        ],
    )
    def test_text(self, tally, note):
        assert tally.note() == note

    @pytest.mark.parametrize("x, stat", [(1.3, Statistic.MAX_SQ), (0.5, Statistic.MAX_SQ)])
    def test_single_query(self, x, stat):
        # the tails render their own note, window bound included
        tails = index_tails(EnsembleParams(1000, 10), x, stat=stat)
        note = tails.note()
        last = tails.first + tails.log_sf.size - 1
        direct = np.count_nonzero(tails.cdf_direct)
        assert tails.first > 1
        assert f"over indices {tails.first}..{last}: cdf summed directly for {direct}, " in note
        assert "sample points" not in note and "reverse sums" not in note
        assert ("reverse sum stopped at index " in note) == (tails.stop > 0)
        bound = float(note.split("dropped tail below ")[1].split()[0])
        assert bound == pytest.approx(tails.truncation_bound, rel=0.06)

    @pytest.mark.parametrize("t, stop", [([20.0, 30.0], False), ([2.0, 30.0], True)])
    def test_batch(self, t, stop):
        tally = _reduce_rows(np.array(t), 2, 5, lambda *tails: None)[1]
        note = tally.note()
        assert note.startswith("gamma-shape ladder over indices 1..5 at 2 sample points: ")
        assert (tally.stop > 0) == stop and "reverse sum stopped" not in note
        assert (f"reverse sums stopped by index {tally.stop} with" in note) == stop
        assert ("dropped tail below" in note) == stop


class TestProductLaws:
    """The extremes factor over the independent family."""

    def test_max_le_is_cdf_product(self):
        params = EnsembleParams(4, 2)
        direct = sum(log_cdf_index(params, j, 0.8) for j in range(1, 5))
        assert log_prob_max_le(params, 0.8) == pytest.approx(direct, abs=1e-12)

    def test_min_ge_is_sf_product(self):
        params = EnsembleParams(4, 2)
        direct = sum(log_sf_index(params, j, 0.8) for j in range(1, 5))
        assert log_prob_min_ge(params, 0.8) == pytest.approx(direct, abs=1e-12)

    def test_single_index_collapses(self):
        params = EnsembleParams(1, 3)
        for x in (0.3, 1.1):
            assert log_prob_max_le(params, x) == log_cdf_index(params, 1, x)
            assert log_prob_min_ge(params, x) == log_sf_index(params, 1, x)
            assert log_prob_max_ge(params, x) == pytest.approx(
                log_sf_index(params, 1, x), abs=1e-12
            )


class TestStochasticOrdering:
    def test_sf_increases_in_index(self):
        # the t-scale variable is 2 sqrt(G_j G_{j+v}) with gamma shapes
        # growing in j, so upper tails are ordered
        params = EnsembleParams(8, 3)
        sfs = [log_sf_index(params, j, 0.9) for j in range(1, 9)]
        assert all(b > a for a, b in zip(sfs, sfs[1:]))

    def test_sf_decreases_in_level(self):
        params = EnsembleParams(5, 1)
        grid = [0.3, 0.6, 0.9, 1.2, 1.5, 2.0]
        sfs = [log_sf_index(params, 3, x) for x in grid]
        cdfs = [log_cdf_index(params, 3, x) for x in grid]
        assert all(b < a for a, b in zip(sfs, sfs[1:]))
        assert all(b > a for a, b in zip(cdfs, cdfs[1:]))

    @pytest.mark.parametrize("v", [0, 2])
    def test_max_cdf_decreases_in_n(self, v):
        # keeping a growing family below a fixed sub-typical level only
        # gets harder
        vals = [log_prob_max_le(EnsembleParams(n, v), 0.5) for n in (5, 10, 20, 40)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestUnionSandwich:
    def test_max_tail_between_largest_term_and_union_bound(self):
        params = EnsembleParams(20, 3)
        sfs = np.array([log_sf_index(params, j, 1.2) for j in range(1, 21)])
        ge = log_prob_max_ge(params, 1.2)
        assert float(sfs.max()) <= ge <= float(logsumexp(sfs))


class TestDeepTail:
    """Levels where the complement would underflow double precision."""

    def test_min_tail_switches_to_union_sum(self):
        params = EnsembleParams(10, 0)
        got = log_prob_min_le(params, 1e-130)
        cdfs = np.array([log_cdf_index(params, j, 1e-130) for j in range(1, 11)])
        assert math.isfinite(got)
        assert got == pytest.approx(float(logsumexp(cdfs)), abs=1e-9)
        assert float(cdfs.max()) <= got + 1e-9
        assert got <= float(cdfs.max()) + math.log(10) + 1e-9

    def test_min_tail_normal_branch_complements(self):
        params = EnsembleParams(10, 0)
        le = log_prob_min_le(params, 1e-4)
        ge = log_prob_min_ge(params, 1e-4)
        assert math.exp(le) + math.exp(ge) == pytest.approx(1.0, abs=1e-12)

    def test_max_tail_far_right_is_finite_and_tiny(self):
        got = log_prob_max_ge(EnsembleParams(6, 1), 12.0)
        assert math.isfinite(got)
        assert got < -100.0


class TestQueryDispatch:
    def test_all_four_routes(self):
        params = EnsembleParams(7, 2)
        cases = [
            (Statistic.MAX_SQ, Direction.GE, log_prob_max_ge),
            (Statistic.MAX_SQ, Direction.LE, log_prob_max_le),
            (Statistic.MIN_SQ, Direction.GE, log_prob_min_ge),
            (Statistic.MIN_SQ, Direction.LE, log_prob_min_le),
        ]
        for stat, direction, fn in cases:
            query = TailQuery(statistic=stat, direction=direction, x=1.05)
            assert log_prob(params, query) == fn(params, 1.05)


class TestGammaTailSandwich:
    """Closed bounds on int y^b e^-y dy used by the bounded-order analysis.

    The integral itself comes from ``verify``'s incomplete-gamma closed form,
    so this doubles as a test of it; a separate case ties it to mpmath.
    """

    BS = (0.5, 3.0, 20.0)

    def test_engine_matches_high_precision(self):
        for b, a in [(3.0, 5.0), (20.0, 12.0), (0.5, 2.0)]:
            for upper in (True, False):
                want = gamma_tail_log(a, b, upper)
                assert _log_gamma_tail(a, b, upper) == pytest.approx(want, abs=5e-10)

    def test_upper_integral_far_start(self):
        # a >= b + 1: a^b e^-a <= int_a^inf <= a^{b+1} e^-a
        for b in self.BS:
            for a in (b + 1.0, b + 2.5, 3.0 * b + 8.0):
                mid = _log_gamma_tail(a, b, upper=True)
                assert b * math.log(a) - a <= mid <= (b + 1.0) * math.log(a) - a, (b, a)

    def test_upper_integral_near_start(self):
        # a < b + 1: b^b e^-(b+1) <= int_a^inf <= 2 (b+1) b^b e^-b
        for b in self.BS:
            for a in (0.02, b / 2.0, b + 0.9):
                mid = _log_gamma_tail(a, b, upper=True)
                lo = b * math.log(b) - (b + 1.0)
                hi = math.log(2.0 * (b + 1.0)) + b * math.log(b) - b
                assert lo <= mid <= hi, (b, a)

    def test_lower_integral_past_mode(self):
        # a > b: b^{b+1} e^-b / (b+1) <= int_0^a <= a b^b e^-b
        for b in self.BS:
            for a in (b + 0.1, 2.0 * b + 3.0):
                mid = _log_gamma_tail(a, b, upper=False)
                lo = (b + 1.0) * math.log(b) - b - math.log(b + 1.0)
                hi = math.log(a) + b * math.log(b) - b
                assert lo <= mid <= hi, (b, a)

    def test_lower_integral_before_mode(self):
        # a < b - 1: a^{b+1} e^-a / (b+1) <= int_0^a <= a^{b+1} e^-a
        for b, starts in [(3.0, (0.4, 1.9)), (20.0, (0.5, 9.0, 18.5))]:
            for a in starts:
                mid = _log_gamma_tail(a, b, upper=False)
                hi = (b + 1.0) * math.log(a) - a
                assert hi - math.log(b + 1.0) <= mid <= hi, (b, a)


class TestTauExponentSandwich:
    """Closed bounds on int exp(-v tau_j) dt used by the large-order analysis.

    Integrals come from 30-digit mpmath with the exponent factored at its
    minimizer; the bounds are built from the package's tau geometry, so the
    two implementations certify each other.
    """

    PAIRS = ((1, 10), (2, 10), (5, 50), (3, 30))

    def test_upper_integral_right_of_minimizer(self):
        for j, v in self.PAIRS:
            p = TauParams(j, float(v))
            xj = minimizer_xj(p)
            a, big = 1.5 * xj, 3.0 * xj
            mid = tau_integral_log(j, v, a, None)
            hi = -math.log(v * tau_prime(p, a)) - v * tau(p, a)
            lo = (
                -math.log(v * tau_prime(p, big))
                - v * tau(p, a)
                + math.log1p(-math.exp(v * (tau(p, a) - tau(p, big))))
            )
            assert lo <= mid <= hi, (j, v)

    def test_upper_integral_left_of_minimizer(self):
        for j, v in self.PAIRS:
            p = TauParams(j, float(v))
            xj = minimizer_xj(p)
            a, big = 0.6 * xj, 3.0 * xj
            mid = tau_integral_log(j, v, a, None)
            hi = math.log(4.0 * j) - v * tau(p, xj)
            lo = (
                -math.log(v * tau_prime(p, big))
                - v * tau(p, xj)
                + math.log1p(-math.exp(-v * (tau(p, big) - tau(p, xj))))
            )
            assert lo <= mid <= hi, (j, v)

    def test_lower_integral_left_of_minimizer(self):
        for j, v in self.PAIRS:
            p = TauParams(j, float(v))
            xj = minimizer_xj(p)
            a, a1 = 0.6 * xj, 0.3 * xj
            mid = tau_integral_log(j, v, 0.0, a)
            hi = -math.log(-v * tau_prime(p, a)) - v * tau(p, a)
            lo = (
                -math.log(-v * tau_prime(p, a1))
                - v * tau(p, a)
                + math.log1p(-math.exp(v * (tau(p, a) - tau(p, a1))))
            )
            assert lo <= mid <= hi, (j, v)

    def test_lower_integral_past_minimizer(self):
        for j, v in self.PAIRS:
            p = TauParams(j, float(v))
            xj = minimizer_xj(p)
            a, small = 1.5 * xj, 0.5 * xj
            mid = tau_integral_log(j, v, 0.0, a)
            hi = math.log(a) - v * tau(p, xj)
            lo = (
                -math.log(-v * tau_prime(p, small))
                - v * tau(p, xj)
                + math.log1p(-math.exp(v * (tau(p, xj) - tau(p, small))))
            )
            assert lo <= mid <= hi, (j, v)


class TestTauIntegralRule:
    """``verify``'s two-order composite rule for the tau integrals."""

    @pytest.mark.parametrize("j, v", TestTauExponentSandwich.PAIRS)
    def test_matches_high_precision_on_verify_ranges(self, j, v):
        p = TauParams(j, float(v))
        xj = minimizer_xj(p)
        for lo, hi in ((1.5 * xj, max(10.0 * xj, 1.5 * xj + 50.0 / v)), (1e-12, 0.6 * xj)):
            want = tau_integral_log(j, v, lo, hi)
            assert _log_tau_integral(p, lo, hi) == pytest.approx(want, abs=1e-12), (lo, hi)

    def test_disagreeing_orders_raise(self):
        # sixteen panels across [0, 100 x_j] leave the peak under-resolved
        p = TauParams(5, 50.0)
        with pytest.raises(QuadratureError, match="differ") as info:
            _log_tau_integral(p, 1e-12, 100.0 * minimizer_xj(p))
        assert math.isfinite(info.value.partial) and info.value.rel_err > 1e-12

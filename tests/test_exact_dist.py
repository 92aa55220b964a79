"""Tests for the exact finite-size tail probabilities.

Closed forms exist at n=1, v=0 where the survival is t K_1(t) on the t scale;
everything else is checked against high-precision mpmath oracles (Bessel
density quadrature and the Bessel-free gamma-product law), two-sided
normalization of the ladder sums, property tests over extreme inputs, product
laws, stochastic ordering, and the analytic integral sandwiches that the
asymptotic machinery leans on.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import kve, logsumexp

import chiral_ldp.exact_dist as exact_dist
from chiral_ldp._quad import QuadratureError, log_integral_adaptive
from chiral_ldp.core_types import (
    Direction,
    EnsembleParams,
    Statistic,
    TailQuery,
    derived_scales,
)
from chiral_ldp.exact_dist import (
    IndexDistribution,
    _ladder_sums,
    _tails_at,
    index_tails,
    log_cdf_index,
    log_prob,
    log_prob_max_ge,
    log_prob_max_le,
    log_prob_min_ge,
    log_prob_min_le,
    log_sf_index,
)
from chiral_ldp.tau_geometry import TauParams, minimizer_xj, tau, tau_prime

from oracles import (
    gamma_product_tail_oracle,
    gamma_tail_log,
    index_cdf_oracle,
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


class TestIndexDistribution:
    def test_power_exponent(self):
        dist = IndexDistribution(EnsembleParams(6, 3), 4)
        assert dist.power == 2 * 4 + 3 - 1

    @pytest.mark.parametrize("j", [0, -1, 7])
    def test_index_out_of_range(self, j):
        with pytest.raises(ValueError):
            IndexDistribution(EnsembleParams(6, 3), j)

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

    @pytest.mark.parametrize(
        "n, v, x", [(10**4, 0, 1e-3), (10**4, 100, 1e-6), (10, 10**4, 0.5), (10**6, 20, 0.01)]
    )
    def test_reverse_sum_stops_within_the_cap(self, n, v, x):
        tails = index_tails(EnsembleParams(n, v), x)
        assert tails.failure is None and tails.cdf_direct[-1]
        assert n <= tails.stop <= n + 40.0 * math.sqrt(n + v) + 100
        assert tails.truncation_bound <= math.exp(-40.0)


class TestLadderFailures:
    """Failures raise QuadratureError with the partial value, never a number."""

    def test_non_finite_bessel_value_raises(self, monkeypatch):
        monkeypatch.setattr(exact_dist, "kve", lambda order, t: np.full(np.shape(order), np.nan))
        with pytest.raises(QuadratureError) as info:
            log_prob_max_le(EnsembleParams(5, 2), 0.9)
        assert "non-finite" in str(info.value)
        assert info.value.partial is not None and math.isnan(info.value.partial)
        assert info.value.rel_err == math.inf

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
        # more rows than the float-loop path takes, so the batch runs vectorized
        xs=st.lists(
            st.floats(1e-6, 10.0),
            min_size=exact_dist._VECTOR_ROWS,
            max_size=exact_dist._VECTOR_ROWS + 8,
        ),
        top_share=st.floats(0.0, 1.0),
    )
    def test_rows_equal_single_threshold_runs(self, n, v, xs, top_share):
        top = 1 + int(top_share * (n - 1))
        c = derived_scales(EnsembleParams(n, v)).c
        # x = 1e-6 has sf_top near 1 and x = 10 near 0; the last two sit
        # on either side of the paired switch when it lies in range
        switch = self._paired_switch(v)
        extra = [s for s in (switch * 0.999 / c, switch * 1.001 / c) if 1e-6 <= s <= 10.0]
        t = c * np.array(xs + [1e-6, 10.0] + extra)
        batch = _tails_at(t, v, top)
        assert batch.failure is None
        assert batch.cdf_direct[-len(extra) - 2].any()
        assert not batch.cdf_direct[-len(extra) - 1].any()
        for row, threshold in enumerate(t):
            alone = _tails_at(np.array([threshold]), v, top)
            assert alone.stop[0] == batch.stop[row]
            assert alone.truncation_bound[0] == batch.truncation_bound[row]
            np.testing.assert_array_equal(alone.cdf_direct[0], batch.cdf_direct[row])
            for got, want in ((batch.log_sf[row], alone.log_sf[0]),
                              (batch.log_cdf[row], alone.log_cdf[0])):
                assert np.max(np.abs(np.expm1(got - want))) <= 1e-14

    @pytest.mark.parametrize("n, v", [(1000, 0), (100, 50), (10, 10**4)])
    def test_growing_window_matches_one_window_to_the_cap(self, n, v, monkeypatch):
        # levels below 1 stop up to 120 indices past top, so the window grows
        # once or twice; above 1 no reverse sum is taken
        t = derived_scales(EnsembleParams(n, v)).c * np.linspace(0.5, 1.2, 8)
        grown = _ladder_sums(t, v, n)
        assert np.max(grown.stop) > n + exact_dist._FIRST_WINDOW
        monkeypatch.setattr(exact_dist, "_FIRST_WINDOW", 10**4)
        whole = _ladder_sums(t, v, n)
        for got, want in zip(grown, whole):
            np.testing.assert_array_equal(got, want)

    def test_one_nan_row_fails_the_batch(self, monkeypatch):
        from chiral_ldp.sampler import ks_statistic

        params = EnsembleParams(5, 2)
        y = np.linspace(0.05, 2.0, 40)
        bad = float(2.0 * params.n * y[17])
        real = exact_dist.kve
        monkeypatch.setattr(
            exact_dist, "kve", lambda order, t: np.where(t == bad, np.nan, real(order, t))
        )
        tails = _tails_at(2.0 * params.n * y, params.v, 3)
        assert f"non-finite ladder value at t={bad!r}" in tails.failure
        assert np.isfinite(np.delete(tails.log_cdf, 17, axis=0)).all()
        with pytest.raises(QuadratureError) as info:
            ks_statistic(params, 3, y)
        assert "non-finite" in str(info.value)
        assert math.isnan(info.value.partial) and info.value.rel_err == math.inf

    def test_unconverged_rows_fail_the_batch_with_partial(self, monkeypatch):
        from chiral_ldp.sampler import ks_statistic

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

    The integral itself comes from the package quadrature engine, so this
    doubles as an engine test; a separate case ties the engine to mpmath.
    """

    BS = (0.5, 3.0, 20.0)

    @staticmethod
    def _upper_log(b: float, a: float) -> float:
        logf = lambda y: np.where(y > 0.0, b * np.log(np.maximum(y, 1e-300)) - y, -np.inf)
        hi = 2.0 * max(a, b) + 600.0
        val, _ = log_integral_adaptive(logf, a, hi, mode=max(a, b), scale=1.0 + math.sqrt(b))
        return val

    @staticmethod
    def _lower_log(b: float, a: float) -> float:
        logf = lambda y: np.where(y > 0.0, b * np.log(np.maximum(y, 1e-300)) - y, -np.inf)
        val, _ = log_integral_adaptive(
            logf, 0.0, a, mode=min(a, b), scale=1.0 + math.sqrt(min(a, b))
        )
        return val

    def test_engine_matches_high_precision(self):
        for b, a in [(3.0, 5.0), (20.0, 12.0), (0.5, 2.0)]:
            assert self._upper_log(b, a) == pytest.approx(gamma_tail_log(a, b, True), abs=5e-10)
            assert self._lower_log(b, a) == pytest.approx(gamma_tail_log(a, b, False), abs=5e-10)

    def test_upper_integral_far_start(self):
        # a >= b + 1: a^b e^-a <= int_a^inf <= a^{b+1} e^-a
        for b in self.BS:
            for a in (b + 1.0, b + 2.5, 3.0 * b + 8.0):
                mid = self._upper_log(b, a)
                assert b * math.log(a) - a <= mid <= (b + 1.0) * math.log(a) - a, (b, a)

    def test_upper_integral_near_start(self):
        # a < b + 1: b^b e^-(b+1) <= int_a^inf <= 2 (b+1) b^b e^-b
        for b in self.BS:
            for a in (0.02, b / 2.0, b + 0.9):
                mid = self._upper_log(b, a)
                lo = b * math.log(b) - (b + 1.0)
                hi = math.log(2.0 * (b + 1.0)) + b * math.log(b) - b
                assert lo <= mid <= hi, (b, a)

    def test_lower_integral_past_mode(self):
        # a > b: b^{b+1} e^-b / (b+1) <= int_0^a <= a b^b e^-b
        for b in self.BS:
            for a in (b + 0.1, 2.0 * b + 3.0):
                mid = self._lower_log(b, a)
                lo = (b + 1.0) * math.log(b) - b - math.log(b + 1.0)
                hi = math.log(a) + b * math.log(b) - b
                assert lo <= mid <= hi, (b, a)

    def test_lower_integral_before_mode(self):
        # a < b - 1: a^{b+1} e^-a / (b+1) <= int_0^a <= a^{b+1} e^-a
        for b, starts in [(3.0, (0.4, 1.9)), (20.0, (0.5, 9.0, 18.5))]:
            for a in starts:
                mid = self._lower_log(b, a)
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


class TestQuadratureFailure:
    def test_unreachable_tolerance_raises_with_partial(self):
        logf = lambda y: -np.log1p(y * y)
        with pytest.raises(QuadratureError) as info:
            log_integral_adaptive(
                logf, 0.0, 40.0, mode=0.0, scale=1.0,
                rel_tol=1e-15, panel_order=8, control_order=2, max_panels=4,
            )
        err = info.value
        assert err.partial is not None and math.isfinite(err.partial)
        assert err.rel_err is not None and err.rel_err > 1e-15

    def test_bad_intervals_rejected(self):
        logf = lambda y: -y
        with pytest.raises(ValueError):
            log_integral_adaptive(logf, 0.0, math.inf, mode=0.0, scale=1.0)
        with pytest.raises(ValueError):
            log_integral_adaptive(logf, 2.0, 1.0, mode=0.0, scale=1.0)

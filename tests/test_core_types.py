"""Shared value types, scale constants, and log-space helpers."""

import math

import numpy as np
import pytest

from chiral_ldp.asymptotics_lab import (
    predict_log_cdf_bounded_v,
    predict_log_cdf_large_v,
    predict_log_sf_bounded_v,
    predict_log_sf_large_v,
)
from chiral_ldp.core_types import (
    LOG_ZERO,
    Direction,
    EnsembleParams,
    Statistic,
    TailQuery,
    centering_a,
    centering_a_consistent,
    check_alpha,
    check_index,
    derived_scales,
    gumbel_cdf,
    gumbel_sf,
    log1mexp,
)
from chiral_ldp.exact_dist import index_tails, log_cdf_index, log_sf_index
from chiral_ldp.rate_functions import rate_max_right
from chiral_ldp.sampler import ks_statistic, sample_yj


class TestEnsembleParams:
    def test_valid_construction(self):
        p = EnsembleParams(n=3, v=1)
        assert (p.n, p.v) == (3, 1)

    def test_bounds_rejected(self):
        with pytest.raises(ValueError):
            EnsembleParams(n=0, v=0)
        with pytest.raises(ValueError):
            EnsembleParams(n=5, v=-1)

    def test_non_integers_rejected(self):
        with pytest.raises(TypeError):
            EnsembleParams(n=2.0, v=0)
        with pytest.raises(TypeError):
            EnsembleParams(n=2, v=True)


class TestDerivedScales:
    """Direct arithmetic on the three scale constants."""

    def test_square_case(self):
        s = derived_scales(EnsembleParams(4, 0))
        assert s.c == 8.0
        assert s.s == 2.0
        assert s.modulus_scale == 1.0

    def test_rectangular_case(self):
        s = derived_scales(EnsembleParams(3, 1))
        assert s.c == pytest.approx(2.0 * math.sqrt(12.0), rel=1e-15)
        assert s.s == pytest.approx(12.0 / 7.0, rel=1e-15)
        assert s.modulus_scale == pytest.approx(math.sqrt(0.75), rel=1e-15)

    def test_centering_undefined_below_one(self):
        s = derived_scales(EnsembleParams(1, 0))
        assert s.s == 0.5
        with pytest.raises(ValueError):
            centering_a(s.s)

    def test_scale_consistency_grid(self):
        """modulus_scale^2 (n+v) = n and c^2 = 4 n (n+v), to a few ulp.

        Each identity composes a division, a square root, a square, and a
        product; four correctly rounded operations accumulate up to ~4 ulp,
        so that is the tightest honest bound (1 ulp would be flaky).
        """
        rng = np.random.default_rng(42)
        for _ in range(2000):
            n = int(rng.integers(1, 10**6))
            v = int(rng.integers(0, 10**6))
            s = derived_scales(EnsembleParams(n, v))
            assert abs(s.modulus_scale**2 * (n + v) - n) <= 4.0 * math.ulp(float(n))
            assert abs(s.c**2 - 4.0 * n * (n + v)) <= 4.0 * math.ulp(4.0 * n * (n + v))
            assert 0.0 < s.modulus_scale <= 1.0


class TestAlphaClassification:
    """alpha = lim v/n is a plain float; 0.0 and math.inf are the limits."""

    def test_finite_ratio(self):
        for n, v in ((100, 0), (100, 100), (3, 7)):
            assert check_alpha(v / n) == v / n
        assert check_alpha(0) == 0.0 and type(check_alpha(0)) is float

    def test_limit_tags(self):
        assert check_alpha(math.inf) == math.inf
        assert check_alpha("inf") == math.inf
        assert rate_max_right(0.0, 1.5).branch == "zero_alpha"
        assert rate_max_right(2.5, 1.5).branch == "finite_alpha"
        assert rate_max_right(math.inf, 1.5).branch == "infinite_alpha"

    def test_rejections(self):
        with pytest.raises(ValueError, match="alpha must be >= 0"):
            check_alpha(-1.0)
        with pytest.raises(ValueError, match="alpha must not be NaN"):
            check_alpha(float("nan"))


# Every public entry point that takes an index j, called with that j.
_INDEXED = {
    "log_sf_index": lambda p, j: log_sf_index(p, j, 1.0),
    "log_cdf_index": lambda p, j: log_cdf_index(p, j, 1.0),
    "index_tails": lambda p, j: index_tails(p, 1.0, top=j),
    "sample_yj": lambda p, j: sample_yj(p, j, seed=0, count=1),
    "ks_statistic": lambda p, j: ks_statistic(p, j, np.array([0.5, 1.0])),
    "predict_log_sf_bounded_v": lambda p, j: predict_log_sf_bounded_v(p, j, 1.0),
    "predict_log_cdf_bounded_v": lambda p, j: predict_log_cdf_bounded_v(p, j, 1.0),
    "predict_log_sf_large_v": lambda p, j: predict_log_sf_large_v(p, j, 1.0),
    "predict_log_cdf_large_v": lambda p, j: predict_log_cdf_large_v(p, j, 1.0),
}


class TestCheckIndex:
    def test_in_range_index_returned(self):
        params = EnsembleParams(6, 3)
        assert [check_index(params, j) for j in (1, 6)] == [1, 6]

    @pytest.mark.parametrize("j", [-1, 0, 7])
    @pytest.mark.parametrize("entry", sorted(_INDEXED))
    def test_out_of_range_rejected_everywhere(self, entry, j):
        with pytest.raises(ValueError, match=r"index j must lie in \[1, n\]"):
            _INDEXED[entry](EnsembleParams(6, 40), j)


class TestTailQuery:
    def test_valid(self):
        q = TailQuery(Statistic.MAX_SQ, Direction.GE, 1.5)
        assert q.x == 1.5

    def test_nonpositive_level_rejected(self):
        with pytest.raises(ValueError):
            TailQuery(Statistic.MIN_SQ, Direction.LE, 0.0)
        with pytest.raises(ValueError):
            TailQuery(Statistic.MIN_SQ, Direction.LE, math.inf)


class TestGumbel:
    def test_pinned_points(self):
        assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert gumbel_cdf(-math.log(math.log(2.0))) == pytest.approx(0.5, rel=1e-14)
        assert gumbel_cdf(60.0) == pytest.approx(1.0, abs=1e-15)
        assert gumbel_cdf(-10.0) == pytest.approx(0.0, abs=1e-300)

    def test_monotone_onto_unit_interval(self):
        g = np.linspace(-6.0, 12.0, 4001)
        vals = np.array([gumbel_cdf(t) for t in g])
        assert np.all(np.diff(vals) > 0)
        assert vals[0] > 0.0 and vals[-1] < 1.0

    def test_sf_complements_cdf(self):
        """The survival path must stay accurate where 1 - cdf cancels."""
        for g in (-3.0, 0.0, 2.0, 10.0, 30.0):
            assert gumbel_sf(g) + gumbel_cdf(g) == pytest.approx(1.0, abs=1e-15)
        # deep right tail: sf ~ e^-g, naive 1 - cdf would return 0
        assert gumbel_sf(40.0) == pytest.approx(math.exp(-40.0), rel=1e-12)


class TestLogSpaceHelpers:
    def test_log1mexp_matches_high_precision(self):
        """Reference values from mpmath; the naive float expression is not
        itself trustworthy near log_p = 0, which is half the point."""
        import mpmath as mp

        rng = np.random.default_rng(42)
        lp = -np.exp(rng.uniform(-20, 5, size=400))
        with mp.workdps(40):
            for val in lp:
                direct = float(mp.log(1 - mp.exp(mp.mpf(float(val)))))
                assert log1mexp(float(val)) == pytest.approx(direct, rel=1e-12)

    def test_log1mexp_sentinels(self):
        assert log1mexp(LOG_ZERO) == 0.0
        # exp(log_p) underflows to 0 there: the zero is +0.0, not -0.0
        for log_p in (LOG_ZERO, -800.0):
            assert math.copysign(1.0, log1mexp(log_p)) == 1.0
        assert log1mexp(0.0) == LOG_ZERO
        assert log1mexp(5e-13) == LOG_ZERO  # tiny positive round-off tolerated
        with pytest.raises(ValueError):
            log1mexp(0.1)


class TestCenteringSequences:
    def test_display_form_formula(self):
        for y in (3.0, 10.0, 1e3, 1e8):
            ly = math.log(y)
            want = math.sqrt(ly) - math.log(2.0 * math.pi * ly) / math.sqrt(ly)
            assert centering_a(y) == pytest.approx(want, rel=1e-15)

    def test_consistent_form_offset(self):
        """The two centerings differ by exactly log(2 pi)/(2 sqrt(log y))."""
        for y in (3.0, 10.0, 1e3, 1e8):
            gap = centering_a_consistent(y) - centering_a(y)
            want = 0.5 * math.log(2.0 * math.pi) / math.sqrt(math.log(y))
            assert gap == pytest.approx(want, rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            centering_a(1.0)
        with pytest.raises(ValueError):
            centering_a_consistent(0.5)

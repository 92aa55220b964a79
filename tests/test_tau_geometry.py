"""The exponent tau_j, its minimizer, and the kappa parametrization."""

import math
import warnings

import numpy as np
import pytest
from mpmath import mp

from chiral_ldp.tau_geometry import (
    TauParams,
    bracket_xj,
    kappa,
    minimizer_xj,
    tau,
    tau_prime,
    tau_second,
    u,
)
from oracles import bisect_minimizer, minimizer_oracle


class TestU:
    def test_pinned_values(self):
        assert u(0.0) == pytest.approx(1.0 - math.log(2.0), rel=1e-15)
        assert u(math.sqrt(3.0)) == pytest.approx(2.0 - math.log(3.0), rel=1e-15)
        assert u(2.0 * math.sqrt(2.0)) == pytest.approx(3.0 - math.log(4.0), rel=1e-15)

    def test_strictly_increasing(self):
        xs = np.linspace(1e-6, 50.0, 5000)
        vals = u(xs)
        assert np.all(np.diff(vals) > 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            u(-0.1)


class TestTau:
    def test_pinned_value(self):
        # sqrt(2) - log(1+sqrt(2)) + log(2)/8, exactly
        p = TauParams(j=1, v=2.0)
        want = math.sqrt(2.0) - math.log(1.0 + math.sqrt(2.0)) + math.log(2.0) / 8.0
        assert tau(p, 1.0) == pytest.approx(want, rel=1e-15)
        assert want == pytest.approx(0.61948337292354518725, rel=1e-15)

    def test_second_derivative_pinned(self):
        # the middle term (1-y^2)/(2v(1+y^2)^2) vanishes at y=1
        p = TauParams(j=1, v=2.0)
        want = 1.0 / (math.sqrt(2.0) * (1.0 + math.sqrt(2.0))) + 0.5
        assert tau_second(p, 1.0) == pytest.approx(want, rel=1e-14)

    def test_derivative_vanishes_at_minimizer(self):
        for j, v in ((1, 2.0), (1, 10.0), (5, 100.0), (40, 35.0)):
            p = TauParams(j=j, v=v)
            xj = minimizer_xj(p)
            assert abs(tau_prime(p, xj)) <= 1e-12 * (1.0 + abs(xj))

    def test_second_derivative_positive_everywhere(self):
        xs = np.logspace(-3, 3, 400)
        for j, v in ((1, 1.0), (3, 12.0), (50, 7.0)):
            p = TauParams(j=j, v=v)
            assert np.all(tau_second(p, xs) > 0)

    def test_second_derivative_finite_difference(self):
        h = 1e-4
        xs = np.logspace(-1, 1, 40)
        p = TauParams(j=2, v=9.0)
        for x in xs:
            fd = (tau(p, x + h) - 2.0 * tau(p, x) + tau(p, x - h)) / (h * h)
            assert abs(fd - tau_second(p, float(x))) <= 1e-4

    def test_nonpositive_rejected(self):
        p = TauParams(j=1, v=2.0)
        for fn in (tau, tau_prime, tau_second):
            with pytest.raises(ValueError):
                fn(p, 0.0)
            with pytest.raises(ValueError):
                fn(p, -1.0)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            TauParams(j=0, v=2.0)
        with pytest.raises(ValueError):
            TauParams(j=1, v=0.0)


class TestMinimizer:
    def test_bracket_examples(self):
        xj = minimizer_xj(TauParams(j=1, v=10.0))
        assert 0.3201562 < xj < 0.4582576
        lo, hi = bracket_xj(5, 100.0)
        assert lo == pytest.approx(2.0 * math.sqrt(4.25 * 104.25) / 100.0, rel=1e-15)
        assert hi == pytest.approx(2.0 * math.sqrt(4.5 * 104.5) / 100.0, rel=1e-15)
        assert lo < minimizer_xj(TauParams(j=5, v=100.0)) < hi

    def test_agrees_with_bisection_oracle(self):
        for j, v in ((1, 10.0), (5, 100.0), (2, 30.0), (50, 500.0), (120, 13.0)):
            got = minimizer_xj(TauParams(j=j, v=v))
            ref = bisect_minimizer(j, v)
            assert got == pytest.approx(ref, rel=1e-10)

    def test_closed_form_matches_the_high_precision_oracle(self):
        """The cubic's closed-form root against a 40-digit bisection of
        tau_j', over j from 1 to 1e12 and v from 1e-6 to 1e100."""
        worst = 0.0
        for j in (1, 2, 5, 50, 10**3, 10**6, 10**9, 10**12):
            for v in (1e-6, 1e-3, 1.0, 30.0, 1e4, 1e9, 1e15, 1e100):
                ref = minimizer_oracle(j, v)
                worst = max(worst, abs(minimizer_xj(TauParams(j=j, v=v)) - ref) / ref)
        assert worst <= 1e-15

    @pytest.mark.parametrize("v", [1e-160, 1e-300])
    def test_tiny_order_does_not_overflow(self, v):
        """At v = 1e-160 the product (s-1)(s+1) is about 1e320; x_j is not."""
        ref = minimizer_oracle(1, v)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = minimizer_xj(TauParams(j=1, v=v))
        assert abs(got - ref) <= 1e-15 * ref

    def test_bracket_invariant_grid(self):
        """The analytic enclosure holds for every j <= 200, v in {1,10,100,1000}."""
        js = np.arange(1, 201)
        for v in (1.0, 10.0, 100.0, 1000.0):
            lo, hi = bracket_xj(js, v)
            xj = np.array([minimizer_xj(TauParams(j=int(j), v=v)) for j in js])
            assert np.all(xj > lo)
            assert np.all(xj <= hi)

    def test_root_unique_from_both_endpoints(self):
        """Strict convexity: bisection from either endpoint half lands on the
        same root the solver reports."""
        for j, v in ((1, 10.0), (7, 55.0)):
            p = TauParams(j=j, v=v)
            xj = minimizer_xj(p)
            lo, hi = bracket_xj(j, v)
            mid = 0.5 * (lo + hi)
            # the sign of tau' flips exactly once across the bracket
            assert tau_prime(p, lo * 1.0000001) < 0
            assert tau_prime(p, hi) > 0
            assert (tau_prime(p, mid) > 0) == (mid > xj)


class TestKappa:
    def test_unit_fixed_point(self):
        for alpha in (0.3, 1.0, 7.0, 123.4):
            assert kappa(alpha, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert kappa(0.0, 1.0) == 1.0
        assert kappa(math.inf, 1.0) == 1.0

    def test_limit_branches(self):
        assert kappa(0.0, 1.5) == 1.5
        assert kappa(math.inf, 1.5) == pytest.approx(2.25, rel=1e-15)

    def test_pinned_finite_value(self):
        # 9/(1 + sqrt(19)), frozen at 30 digits
        assert kappa(1.0, 1.5) == pytest.approx(1.6794494717703367761, rel=1e-14)

    def test_defining_quadratic_grid(self):
        """|kappa (kappa+alpha) - (1+alpha) x^2| <= 1e-10 (1 + x^2)."""
        rng = np.random.default_rng(42)
        alphas = 10.0 ** rng.uniform(-3, 2, size=10000)
        xs = 10.0 ** rng.uniform(-2, 1, size=10000)
        for a, x in zip(alphas, xs):
            k = kappa(float(a), float(x))
            assert abs(k * (k + a) - (1.0 + a) * x * x) <= 1e-10 * (1.0 + x * x)

    def test_branch_continuity(self):
        xs = (0.1, 0.5, 1.0, 2.0)
        for x in xs:
            assert abs(kappa(1e-8, x) - x) <= 1e-6
            for big in (1e8, 1e300):  # alpha^2 overflows above about 1.3e154
                target = x * x * big / (big + x * x)
                assert abs(kappa(big, x) - target) <= 1e-6

    @pytest.mark.parametrize(
        "alpha, x",
        [(a, x) for a in (4e307, 8.9e307, 1e308, 1.79e308) for x in (1e-6, 0.5, 2.0, 10.0, 1e103)]
        + [(1e-300, 1e160), (1.0, 1e160), (1e300, 1e151)]
        + [(1e-320, 1e-300), (1e-300, 1e-300), (1e-160, 1e-155), (1e-154, 1e-154)]
        + [(1e-310, 2.0**-512)],
    )
    def test_edges_of_the_double_range_match_mpmath(self, alpha, x):
        # the scale 2^1024 above alpha ~ 9e307 overflowed, as did 2(1+alpha)x^2
        # and, above x ~ 1e154, x^2; below x ~ 1.5e-154 x^2 underflowed, and
        # kappa read 0 where it is as large as x
        with mp.workdps(50):
            a, x_ = mp.mpf(alpha), mp.mpf(x)
            want = float(2 * (1 + a) * x_**2 / (a + mp.sqrt(a * a + 4 * (1 + a) * x_**2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert kappa(alpha, x) == pytest.approx(want, rel=1e-15)

    def test_nonpositive_x_rejected(self):
        with pytest.raises(ValueError):
            kappa(1.0, 0.0)

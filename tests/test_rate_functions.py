"""Rate functions and moderate-deviation constants for all alpha regimes."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from chiral_ldp.asymptotics_lab import THEOREMS
from chiral_ldp.rate_functions import (
    mdp_max_left_const,
    mdp_max_right_const,
    mdp_min_alpha_const,
    rate_max_left,
    rate_max_left_infinity_consistent,
    rate_max_right,
    rate_min_right,
    vscale_rate,
    vscale_rate_statement_form,
)
from chiral_ldp.tau_geometry import kappa
from oracles import finite_alpha_rate_oracle

ALPHAS = (0.0, 0.1, 1.0, 10.0, math.inf)


def min_rate_at_one(a: float) -> float:
    """Common value of both min-rate branches at x=1: both formulas reduce
    to alpha^2/2 log(1+1/alpha) + (1-alpha)/2 since kappa(alpha, 1) = 1."""
    return a * a / 2.0 * math.log1p(1.0 / a) + (1.0 - a) / 2.0


class TestBoundaryZeros:
    def test_max_rates_vanish_at_one(self):
        for alpha in ALPHAS:
            assert abs(rate_max_right(alpha, 1.0).value) <= 1e-12
            assert abs(rate_max_left(alpha, 1.0).value) <= 1e-12

    def test_no_deviation_side_is_zero(self):
        for alpha in ALPHAS:
            assert rate_max_right(alpha, 0.7).value == 0.0
            assert rate_max_right(alpha, 0.7).branch == "zero_region"
            assert rate_max_left(alpha, 1.3).value == 0.0
            assert rate_max_left(alpha, 1.3).branch == "zero_region"


class TestMaxRight:
    def test_zero_branch_pinned(self):
        ev = rate_max_right(0.0, 1.5)
        assert ev.value == pytest.approx(0.18906978378367123604, rel=1e-14)
        assert ev.branch == "zero_alpha"

    def test_finite_branch_pinned(self):
        ev = rate_max_right(1.0, 1.5)
        assert ev.value == pytest.approx(0.25550455544452205195, rel=1e-13)
        assert ev.kappa_used == pytest.approx(1.6794494717703367761, rel=1e-13)
        assert ev.branch == "finite_alpha"

    def test_infinity_branch_pinned(self):
        ev = rate_max_right(math.inf, 2.0)
        assert ev.value == pytest.approx(3.0 - 2.0 * math.log(2.0), rel=1e-14)

    def test_strictly_increasing_beyond_one(self):
        xs = np.linspace(1.001, 8.0, 300)
        for alpha in ALPHAS:
            vals = np.array([rate_max_right(alpha, float(x)).value for x in xs])
            assert np.all(np.diff(vals) > 0)

    def test_positive_on_deviation_side(self):
        xs = np.linspace(1.0001, 10.0, 200)
        for alpha in ALPHAS:
            for x in xs:
                assert rate_max_right(alpha, float(x)).value > 0.0


class TestMaxLeft:
    def test_zero_branch_pinned(self):
        ev = rate_max_left(0.0, 0.5)
        assert ev.value == pytest.approx(0.068147180559945309417, rel=1e-13)

    def test_positive_on_deviation_side_except_infinity(self):
        """Positivity holds for the zero and finite branches; the published
        infinity display is excluded (it goes negative, see its warning)."""
        xs = np.linspace(0.01, 0.9999, 200)
        for alpha in ALPHAS[:-1]:
            for x in xs:
                assert rate_max_left(alpha, float(x)).value > 0.0

    def test_infinity_display_flagged(self):
        ev = rate_max_left(math.inf, 0.5)
        want = -math.log(0.5) - (0.0625 - 1.0 + 3.0) / 2.0
        assert ev.value == pytest.approx(want, rel=1e-13)
        assert ev.value < 0.0
        assert ev.branch == "infinite_alpha_display"
        assert ev.warning is not None

    def test_infinity_consistent_limit(self):
        """The pointwise alpha->infinity limit of the finite-alpha formula is
        positive on (0,1), vanishes at 1, and large finite alpha approaches it."""
        xs = np.linspace(0.05, 0.95, 19)
        for x in xs:
            lim = rate_max_left_infinity_consistent(float(x))
            assert lim > 0.0
            big = rate_max_left(1e8, float(x)).value
            assert big == pytest.approx(lim, abs=1e-6)
        assert rate_max_left_infinity_consistent(1.0) == 0.0


class TestMinRight:
    def test_zero_branch_pinned(self):
        assert rate_min_right(0.0, 2.0).value == pytest.approx(
            1.8068528194400546906, rel=1e-14
        )
        assert rate_min_right(0.0, 0.5).value == pytest.approx(
            0.125, rel=1e-14
        )

    def test_branch_labels(self):
        assert rate_min_right(1.0, 2.0).branch == "above_one"
        assert rate_min_right(1.0, 0.5).branch == "below_one"
        assert rate_min_right(1.0, 1.0).branch == "above_one"

    def test_branch_continuity_at_one(self):
        """Both branch formulas at x=1 collapse to the same closed form."""
        for a in (0.1, 1.0, 10.0):
            want = min_rate_at_one(a)
            above = rate_min_right(a, 1.0).value
            below_limit = rate_min_right(a, 1.0 - 1e-12).value
            assert above == pytest.approx(want, abs=1e-10)
            assert below_limit == pytest.approx(want, abs=1e-10)

    def test_infinity_branches(self):
        assert rate_min_right(math.inf, 2.0).value == pytest.approx(
            4.0 - math.log(2.0) - 0.75, rel=1e-14
        )
        assert rate_min_right(math.inf, 0.5).value == pytest.approx(
            0.5**4 / 4.0, rel=1e-14
        )

    def test_positive_everywhere(self):
        xs = np.concatenate([np.linspace(0.01, 0.999, 100), np.linspace(1.0, 8.0, 100)])
        for alpha in ALPHAS:
            for x in xs:
                assert rate_min_right(alpha, float(x)).value > 0.0

    def test_strictly_increasing_on_both_sides(self):
        lo = np.linspace(0.01, 0.9999, 200)
        hi = np.linspace(1.0, 8.0, 200)
        for alpha in ALPHAS:
            vlo = np.array([rate_min_right(alpha, float(x)).value for x in lo])
            vhi = np.array([rate_min_right(alpha, float(x)).value for x in hi])
            assert np.all(np.diff(vlo) > 0)
            assert np.all(np.diff(vhi) > 0)


class TestLimitCoherence:
    """Tiny and huge finite alphas must track the closed limit branches."""

    def test_small_alpha_tracks_zero_branch(self):
        for x in (0.3, 0.8, 1.5, 3.0):
            near = 1e-7
            zero = 0.0
            assert rate_max_right(near, x).value == pytest.approx(
                rate_max_right(zero, x).value, abs=1e-5
            )
            assert rate_max_left(near, x).value == pytest.approx(
                rate_max_left(zero, x).value, abs=1e-5
            )
            assert rate_min_right(near, x).value == pytest.approx(
                rate_min_right(zero, x).value, abs=1e-5
            )

    def test_large_alpha_tracks_infinity_branch(self):
        """Max-left is excluded: its published infinity display is not the
        limit of the finite-alpha formula (tested separately above)."""
        for x in (0.3, 0.8, 1.5, 3.0):
            near = 1e7
            inf = math.inf
            assert rate_max_right(near, x).value == pytest.approx(
                rate_max_right(inf, x).value, abs=1e-5
            )
            assert rate_min_right(near, x).value == pytest.approx(
                rate_min_right(inf, x).value, abs=1e-5
            )

    @pytest.mark.parametrize("alpha", [1e8, 1e12, 1e16, 1e18, 1e300, 4e307, 8.9e307, 1.7e308])
    def test_huge_finite_alpha_reaches_the_limits(self, alpha):
        # the finite-alpha displays cancel O(alpha^2) terms down to O(1);
        # from alpha ~ 4e307 kappa itself overflowed
        for x in (0.3, 0.5, 0.8):
            got = rate_max_left(alpha, x).value
            assert got > 0.0
            assert got == pytest.approx(rate_max_left_infinity_consistent(x), abs=1e-6)
        for x in (0.3, 0.5, 0.8, 1.5, 3.0):
            got = rate_min_right(alpha, x).value
            assert got > 0.0
            assert got == pytest.approx(rate_min_right(math.inf, x).value, abs=1e-6)

    @pytest.mark.parametrize(
        "alpha, x",
        [(1e-300, 1e103), (1.0, 1e103), (1e300, 1e103), (1.0, 1e160), (1.7e308, 1e154), (1.7e308, 1.2e154)],
    )
    def test_huge_levels_match_high_precision_display(self, alpha, x):
        # log1p((1-k)/(a+k)) had its argument round to -1, or a+k overflow;
        # at (1.7e308, 1.2e154) the rate is 1.1e308 but 2 kappa overflowed
        for which, rate in (("max-right", rate_max_right), ("min-right", rate_min_right)):
            want = finite_alpha_rate_oracle(which, alpha, x)
            assert rate(alpha, x).value == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("alpha", [1e-6, 1e-3, 0.1, 1.0, 2.5, 100.0, 1e4, 1e8, 1e16])
    def test_finite_alpha_matches_high_precision_display(self, alpha):
        # levels away from 1, where max-left vanishes like (1-x)^3 and every
        # form of it loses digits to that cancellation
        for x in (0.05, 0.2, 0.5, 0.7):
            want = finite_alpha_rate_oracle("max-left", alpha, x)
            assert rate_max_left(alpha, x).value == pytest.approx(want, rel=1e-13)
        for x in (0.05, 0.2, 0.5, 0.7, 1.5, 2.0, 5.0):
            want = finite_alpha_rate_oracle("min-right", alpha, x)
            assert rate_min_right(alpha, x).value == pytest.approx(want, rel=1e-13)


def assert_rates_close(alpha: float, right: float, left: float) -> None:
    """Every rate at alpha on its deviation side, at ``right`` > 1 and
    ``left`` < 1, is positive and within 4e-15 relative of the display in
    mpmath; at alpha = inf max-left's check is on its consistent limit."""
    cases = [
        (rate_max_right(alpha, right).value, "max-right", right),
        (rate_min_right(alpha, right).value, "min-right", right),
        (rate_min_right(alpha, left).value, "min-right", left),
        (
            rate_max_left(alpha, left).value if alpha < math.inf else rate_max_left_infinity_consistent(left),
            "max-left",
            left,
        ),
    ]
    for got, which, x in cases:
        want = finite_alpha_rate_oracle(which, alpha, x)
        assert got > 0.0 and abs(got - want) <= 4e-15 * want, (which, alpha, x, got, want)


class TestAccuracy:
    """Each rate within a few ulp of the published display in mpmath (or
    its closed limits at alpha = 0 and inf) where it vanishes, at the ends
    of the double range, and over the whole domain."""

    @pytest.mark.parametrize("gap", [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2])
    @pytest.mark.parametrize("alpha", [0.0, 1e-300, 1e-8, 0.1, 1.0, 100.0, 1e8, 1e16, 1e100, math.inf])
    def test_near_one(self, alpha, gap):
        # the rates vanish like (x-1)^2 and (1-x)^3 there, and forms that
        # subtracted O(1) terms lost them: rate_max_right(0, 1.00000001) read 0
        assert_rates_close(alpha, 1.0 + gap, 1.0 - gap)

    @pytest.mark.parametrize("alpha, x", [(0.0, 5e-324), (1.0, 1e-300), (1e300, 1e-200)])
    def test_max_left_where_kappa_underflows(self, alpha, x):
        # kappa is 5e-324, 0 and 0 here, and -log kappa comes from x
        got = rate_max_left(alpha, x).value
        want = finite_alpha_rate_oracle("max-left", alpha, x)
        assert got > 0.0 and abs(got - want) <= 4e-15 * want
        if alpha == 1e300:
            assert got == 459.76701859880916

    @settings(max_examples=200, deadline=None)
    @given(
        alpha=st.one_of(
            st.sampled_from([0.0, math.inf]), st.floats(-310.0, 308.25).map(lambda t: 10.0**t)
        ),
        right=st.floats(-15.0, 3.0).map(lambda t: 1.0 + 10.0**t),
        left=st.one_of(
            st.floats(-6.0, -1e-3).map(lambda t: 10.0**t),
            st.floats(-15.0, -0.5).map(lambda t: 1.0 - 10.0**t),
        ),
    )
    def test_whole_domain(self, alpha, right, left):
        # alpha log-uniform over [1e-310, 1.78e308] and both limits; x up to
        # 1e3 on the right and down to 1e-6 on the left
        assert_rates_close(alpha, right, left)


class TestMdpConstants:
    def test_pinned_values(self):
        assert mdp_max_right_const(0.0) == 1.0
        assert mdp_max_left_const(0.0) == pytest.approx(1.0 / 3.0)
        assert mdp_max_right_const(2.0) == pytest.approx(1.5, rel=1e-15)
        assert mdp_max_left_const(2.0) == pytest.approx(0.75, rel=1e-15)
        assert mdp_max_right_const(math.inf) == 2.0
        assert mdp_max_left_const(math.inf) == pytest.approx(4.0 / 3.0)

    def test_limits_are_limits(self):
        assert mdp_max_right_const(1e-9) == pytest.approx(1.0, abs=1e-8)
        assert mdp_max_right_const(1e9) == pytest.approx(2.0, abs=1e-8)
        assert mdp_max_left_const(1e-9) == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert mdp_max_left_const(1e9) == pytest.approx(4.0 / 3.0, abs=1e-8)

    def test_huge_finite_alpha_reaches_the_limits(self):
        # (1+a)^2 overflows above a ~ 1.3e154, and 2(1+a) and 2a near the
        # largest double; the ratio forms do not
        for alpha in (1e300, 4e307, 8.9e307, 1.7e308):
            assert mdp_max_left_const(alpha) == 4.0 / 3.0
            assert mdp_max_right_const(alpha) == 2.0
            for x in (0.3, 0.7, 2.0):
                want = x**4 / 4.0
                got = THEOREMS["t4-item3"].rate(alpha, x).value
                assert got == pytest.approx(want, rel=1e-15)


class TestMdpMinRate:
    def test_pinned_values(self):
        assert vscale_rate(0.0) == 0.0
        assert THEOREMS["t4-item2"].rate(0.08, 0.0).value == 0.0
        assert THEOREMS["t4-item1"].rate(0.0, 2.0).value == pytest.approx(2.0)
        assert mdp_min_alpha_const(1.0) == pytest.approx(1.0)
        assert THEOREMS["t4-item3"].rate(1.0, 1.0).value == pytest.approx(1.0)
        assert mdp_min_alpha_const(math.inf) == pytest.approx(0.25)
        assert THEOREMS["t4-item3"].rate(math.inf, 1.0).value == pytest.approx(0.25)

    @staticmethod
    def _vscale_oracle(x: float) -> tuple[float, float]:
        """The proof form and the statement form in mpmath, with digits for
        the x^4 they cancel down to at small x."""
        with mp.workdps(60 + 4 * max(0, -math.floor(math.log10(x)))):
            r = mp.sqrt(1 + 4 * mp.mpf(x) ** 2)
            proof = mp.log((1 + r) / 2) / 2 + (1 + mp.mpf(x) ** 2) / 2 - r / 2
            statement = mp.log((1 + r) / 2 + 1 + mp.mpf(x) ** 2 - r) / 2
            return float(proof) if proof < 1.8e308 else math.inf, float(statement)

    @pytest.mark.parametrize("x", [1e150, 1.1e150, 1e154, 1e160, 1e300])
    def test_vscale_rate_at_huge_levels(self, x):
        # sqrt(1+4x^2) and x^2 overflowed from about 1e154 and left NaN in
        # both forms; the statement form is about log x - 1/(2x) there
        proof, statement = self._vscale_oracle(x)
        assert vscale_rate(x) == pytest.approx(proof, rel=1e-15)
        assert vscale_rate_statement_form(x) == pytest.approx(statement, rel=1e-15)

    @pytest.mark.parametrize("x", [1e-300, 1e-20, 1e-8, 1e-5, 1e-3, 0.1])
    def test_vscale_rate_at_small_levels(self, x):
        # both forms subtracted O(1) terms from a rate near x^4/4: vscale_rate
        # read -1.1e-16 at x = 1e-8 and 0 at 1e-5; at 1e-300 the rate underflows
        for got, want in zip((vscale_rate(x), vscale_rate_statement_form(x)), self._vscale_oracle(x)):
            assert got >= 0.0 and abs(got - want) <= 4e-15 * want, (got, want)

    def test_alpha_rate_at_infinity_is_the_min_rate_below_one(self):
        # both give x^4/4 at alpha = inf, and to the last bit
        xs = np.exp(np.random.default_rng(5).uniform(math.log(1e-6), 0.0, 20_000))
        for x in xs.tolist():
            assert THEOREMS["t4-item3"].rate(math.inf, x).value == rate_min_right(math.inf, x).value

    @pytest.mark.parametrize("alpha, x", [(1e-160, 1e-90), (1e-200, 1e-60), (1e-300, 1e-100)])
    def test_alpha_rate_where_its_constant_overflows(self, alpha, x):
        # (1+alpha)^2/(4 alpha^2) is inf below alpha ~ 1e-154; times x^4 it
        # read NaN or inf where the rate is finite
        with mp.workdps(40):
            want = (mp.mpf(x) ** 2 * (1 + mp.mpf(alpha)) / (2 * mp.mpf(alpha))) ** 2
        assert THEOREMS["t4-item3"].rate(alpha, x).value == pytest.approx(float(want), rel=1e-15)

    def test_vscale_pinned_one(self):
        # (1/2) log((1+sqrt 5)/2) + 1 - sqrt(5)/2, frozen at 30 digits
        assert vscale_rate(1.0) == pytest.approx(0.12257192377990687554, rel=1e-14)
        assert vscale_rate_statement_form(1.0) == pytest.approx(
            0.16175356557872336990, rel=1e-14
        )

    def test_vscale_small_x_expansion(self):
        """Phi(x) = x^4/4 - x^6/3 + O(x^8): the quartic term dominates below
        x = 0.1 with the cubic-in-x^2 correction bounded by half itself."""
        for x in (0.01, 0.03, 0.1):
            phi = vscale_rate(x)
            assert abs(phi - x**4 / 4.0) <= 0.5 * x**6

    def test_vscale_matches_intermediate_at_large_x(self):
        """Phi(x)/(x^2/2) -> 1, gluing the v-scale regime to the
        intermediate one; the leading correction to the ratio is -2/x."""
        for x in (10.0, 100.0, 1000.0):
            ratio = vscale_rate(x) / (x * x / 2.0)
            assert abs(ratio - 1.0) <= 2.2 / x

    def test_alpha_positive_needs_positive_alpha(self):
        with pytest.raises(ValueError):
            mdp_min_alpha_const(0.0)
        with pytest.raises(ValueError):
            THEOREMS["t4-item3"].rate(0.0, 1.0)

    def test_negative_x_rejected(self):
        for tag in ("t4-item1", "t4-item2", "t4-item3"):
            with pytest.raises(ValueError, match="x must be >= 0"):
                THEOREMS[tag].rate(1.0, -1.0)
        with pytest.raises(ValueError):
            vscale_rate(-0.5)


# Every function that takes alpha, called with it at a valid level.
_ALPHA_TAKERS = {
    "rate_max_right": lambda a: rate_max_right(a, 1.5),
    "rate_max_left": lambda a: rate_max_left(a, 0.5),
    "rate_min_right": lambda a: rate_min_right(a, 0.5),
    "mdp_max_right_const": mdp_max_right_const,
    "mdp_max_left_const": mdp_max_left_const,
    "kappa": lambda a: kappa(a, 1.5),
}
# The alpha-positive min constant also rejects alpha = 0, so it is in the
# rejection test only.
_ALPHA_CHECKERS = {**_ALPHA_TAKERS, "mdp_min_alpha_const": mdp_min_alpha_const}


class TestAlphaGuard:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, math.inf])
    @pytest.mark.parametrize("entry", sorted(_ALPHA_TAKERS))
    def test_regimes_accepted(self, entry, alpha):
        _ALPHA_TAKERS[entry](alpha)

    @pytest.mark.parametrize(
        "alpha, message", [(math.nan, "alpha must not be NaN"), (-0.5, "alpha must be >= 0")]
    )
    @pytest.mark.parametrize("entry", sorted(_ALPHA_CHECKERS))
    def test_nan_and_negative_rejected(self, entry, alpha, message):
        with pytest.raises(ValueError, match=message):
            _ALPHA_CHECKERS[entry](alpha)

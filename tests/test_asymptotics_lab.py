"""Tests for the asymptotic predictors and the convergence harness.

Predictor accuracy statements carry an unresolved O~(log n) term, so the
checks here compare against exact quadrature values with a 5 log n allowance,
the operational constant used throughout the acceptance experiments; branch
structure, guards, and closed sums are tested exactly.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from chiral_ldp import verification
from chiral_ldp.asymptotics_lab import (
    THEOREM_TAGS,
    THEOREMS,
    RegimeError,
    clt_check,
    converge_table,
    lemma_ma_sums,
    predict_log_cdf_bounded_v,
    predict_log_cdf_large_v,
    predict_log_sf_bounded_v,
    predict_log_sf_large_v,
)
from chiral_ldp.core_types import EnsembleParams, gumbel_sf
from chiral_ldp.exact_dist import log_cdf_index, log_sf_index

# Sum_{i<=10} i log i, frozen from 30-digit arithmetic.
EXACT_SUM_10 = 102.08283055193492589
# Large-n limit of the first sum's residual: 1/12 - zeta'(-1).
RESIDUAL_1_LIMIT = 0.2487544770337842


def five_log_n(n: int) -> float:
    return 5.0 * math.log(n)


class TestBoundedVPredictor:
    def test_top_index_bulk_formula(self):
        # j = n = 100, a = 1.5: the bulk branch reads 200 log 1.5 - 100
        pred = predict_log_sf_bounded_v(EnsembleParams(100, 0), 100, 1.5)
        assert pred.value == pytest.approx(200.0 * math.log(1.5) - 100.0, rel=1e-14)
        assert pred.correction_class == "O~(log n)"

    def test_top_index_tracks_exact(self):
        params = EnsembleParams(100, 0)
        pred = predict_log_sf_bounded_v(params, 100, 1.5)
        exact = log_sf_index(params, 100, 1.5)
        assert abs(pred.value - exact) <= five_log_n(100)

    def test_zero_class_when_mass_sits_above(self):
        # 2j + v - 1/2 = 199.5 > c a = 100: essentially all mass above a
        pred = predict_log_sf_bounded_v(EnsembleParams(100, 0), 100, 0.5)
        assert pred.value == 0.0

    def test_branch_boundary_is_continuous(self):
        # at 2j + v - 1/2 = c a the bulk formula itself collapses to ~0,
        # so the two branches meet without a jump
        pred = predict_log_sf_bounded_v(EnsembleParams(100, 0), 80, 0.7975)
        assert abs(pred.value) <= 0.01

    def test_cdf_mirror_deep_left(self):
        params = EnsembleParams(100, 0)
        pred = predict_log_cdf_bounded_v(params, 100, 0.5)
        exact = log_cdf_index(params, 100, 0.5)
        assert pred.value != 0.0
        assert abs(pred.value - exact) <= five_log_n(100)

    def test_grid_consistency(self):
        # every index/level combination: bulk branches within 5 log n of
        # exact, zero-class branches with exact log-probability >= -5 log n
        allowance = five_log_n(100)
        for v in (0, 3):
            params = EnsembleParams(100, v)
            for a in (0.5, 1.5):
                for j in (1, 25, 50, 75, 100):
                    for pred_fn, exact_fn in (
                        (predict_log_sf_bounded_v, log_sf_index),
                        (predict_log_cdf_bounded_v, log_cdf_index),
                    ):
                        pred = pred_fn(params, j, a)
                        exact = exact_fn(params, j, a)
                        if pred.value == 0.0:
                            assert exact >= -allowance, (v, a, j, pred_fn)
                        else:
                            assert abs(pred.value - exact) <= allowance, (v, a, j, pred_fn)

    def test_regime_guards(self):
        with pytest.raises(RegimeError):
            predict_log_sf_bounded_v(EnsembleParams(2, 0), 1, 1.0)  # c a = 4
        with pytest.raises(RegimeError):
            predict_log_sf_bounded_v(EnsembleParams(100, 0), 50, 11.0)  # a > 10
        with pytest.raises(ValueError):
            predict_log_sf_bounded_v(EnsembleParams(100, 0), 0, 1.0)
        with pytest.raises(ValueError):
            predict_log_sf_bounded_v(EnsembleParams(100, 0), 50, -1.0)


class TestLargeVPredictor:
    def test_saddle_branch_tracks_exact(self):
        params = EnsembleParams(50, 500)
        for j, a in ((50, 1.5), (30, 0.9)):
            pred = predict_log_sf_large_v(params, j, a)
            exact = log_sf_index(params, j, a)
            assert pred.value != 0.0
            assert abs(pred.value - exact) <= five_log_n(50), (j, a)

    def test_zero_class_below_minimizer(self):
        params = EnsembleParams(50, 500)
        pred = predict_log_sf_large_v(params, 10, 0.2)
        assert pred.value == 0.0
        assert log_sf_index(params, 10, 0.2) >= -five_log_n(50)

    def test_branches_complement_across_the_flip(self):
        # threshold between the minimizers of j=60 and j=90: exactly one
        # side of each index's mass is exponentially small
        params = EnsembleParams(100, 200)
        for j in (60, 90):
            sf = predict_log_sf_large_v(params, j, 0.9)
            cdf = predict_log_cdf_large_v(params, j, 0.9)
            assert (sf.value == 0.0) != (cdf.value == 0.0), j

    def test_regime_guards(self):
        with pytest.raises(RegimeError):
            predict_log_sf_large_v(EnsembleParams(50, 20), 10, 1.0)
        with pytest.raises(ValueError):
            predict_log_sf_large_v(EnsembleParams(50, 500), 51, 1.0)
        with pytest.raises(ValueError):
            predict_log_sf_large_v(EnsembleParams(50, 500), 10, 0.0)


class TestMaSums:
    def test_exact_first_sum_pin(self):
        assert lemma_ma_sums(10, 0).exact_1 == pytest.approx(EXACT_SUM_10, rel=1e-14)

    @pytest.mark.parametrize("n", [100, 1000, 10000, 100000])
    def test_first_residual_bounded_and_stable(self, n):
        res = lemma_ma_sums(n, 0).residual_1
        assert abs(res) <= 1.0
        assert res == pytest.approx(RESIDUAL_1_LIMIT, abs=5e-3)

    @pytest.mark.parametrize("n,v", [(100, 0), (10000, 0), (100, 5), (1000, 80), (10000, 10000)])
    def test_second_residual_bounded(self, n, v):
        assert abs(lemma_ma_sums(n, v).residual_2) <= 1.0

    def test_degenerate_order_reduction(self):
        # at v = 0 the second sum is the first minus half of log n!
        ms = lemma_ma_sums(100, 0)
        assert ms.exact_2 == pytest.approx(ms.exact_1 - 0.5 * math.lgamma(101.0), rel=1e-12)

    def test_input_guards(self):
        with pytest.raises(ValueError):
            lemma_ma_sums(1, 0)
        with pytest.raises(ValueError):
            lemma_ma_sums(10, -1)


class TestConvergeTable:
    def test_right_deviation_gap_shrinks(self):
        rows = converge_table("t1-right", grid=((25, 0), (50, 0)))
        assert [r.n for r in rows] == [25, 50]
        assert rows[1].scaled_gap < rows[0].scaled_gap
        for r in rows:
            assert r.exact > 0.0
            assert r.predicted == pytest.approx(r.scaling * r.rate_target, rel=1e-14)
            assert r.l is None and r.note is None

    @pytest.mark.parametrize(
        "tag, outside, inside",
        [
            # n = 25 sits outside log n / n < l^2; n = 1000 inside
            ("t3-right", (25, 0), (1000, 0)),
            # l = n^(-1/5): l^4 = 0.0040 against log n/n = 0.0069 at n = 1000,
            # and 1.6e-5 against 1.4e-5 at n = 1e6
            ("t4-item3", (1000, 1000), (10**6, 10**6)),
        ],
        ids=["t3-right", "t4-item3"],
    )
    def test_mdp_window_note(self, tag, outside, inside):
        rows = converge_table(tag, grid=(outside, inside))
        assert rows[0].note is not None and "window" in rows[0].note
        assert rows[1].note is None

    @pytest.mark.parametrize("tag", THEOREM_TAGS)
    def test_default_rows_are_inside_their_windows(self, tag):
        # a default grid is a limit sequence inside its theorem's window
        for row in converge_table(tag):
            assert row.note is None, (row.n, row.v, row.note)

    def test_vscale_default_grid_is_a_limit_sequence(self):
        # v grows while v/n falls, and the exponent closes in on the
        # proof-form constant Phi(1) row by row
        rows = converge_table("t4-item2")
        assert len(rows) >= 3
        for prev, row in zip(rows, rows[1:]):
            assert row.v > prev.v and row.l < prev.l
            assert row.scaled_gap < prev.scaled_gap
        assert rows[-1].scaled_gap < 0.001

    def test_order_proportional_row_carries_both_rates(self):
        rows = converge_table("t4-item2", grid=((1000, 80),))
        row = rows[0]
        assert row.l == pytest.approx(0.08)
        assert row.scaling == pytest.approx(80.0**2)
        assert row.rate_target == pytest.approx(0.12257192377990688, rel=1e-12)
        assert row.alt_rate_target == pytest.approx(0.16175356557872337, rel=1e-12)
        assert row.scaled_gap == pytest.approx(abs(row.exact / row.scaling - row.rate_target))
        assert row.alt_scaled_gap == pytest.approx(
            abs(row.exact / row.scaling - row.alt_rate_target)
        )

    @staticmethod
    def _by_n(terms):
        # the first ``terms`` of 1, log n/n, 1/n and log n/n^2
        return lambda n: np.column_stack(
            (np.ones_like(n), np.log(n) / n, 1.0 / n, np.log(n) / n**2)[:terms]
        )

    @staticmethod
    def _by_l(n):
        # 1, l, l^2 and log n/(n l^2) at l = n^(-1/3)
        l = n ** (-1.0 / 3.0)
        return np.column_stack((np.ones_like(n), l, l * l, np.log(n) / (n * l * l)))

    @pytest.mark.parametrize("alpha", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize(
        "tag, x, grid, model, tol, term",
        [
            ("t1-right", 1.5, (125_000, 250_000, 500_000, 1_000_000), _by_n(3), 1e-8,
             (1, 0.5, 1e-3)),
            ("t2", 2.0, (12_500, 25_000, 50_000, 100_000), _by_n(3), 1e-8, (1, 0.5, 1e-3)),
            ("t1-left", 0.5, tuple(8000 << k for k in range(6)), _by_n(4), 5e-7, None),
            ("t3-right", 1.0, tuple(8000 << k for k in range(8)), _by_l, 1e-4,
             (3, -1.0 / 6.0, 2e-3)),
        ],
        ids=["t1-right", "t2", "t1-left", "t3-right"],
    )
    def test_finite_alpha_rate_is_the_exact_law_s_limit(
        self, tag, x, grid, model, tol, term, alpha
    ):
        # the exact exponents at v = alpha n, extrapolated by least squares
        # in exact/speed = I + b log n/n + c/n, recover the rate display to
        # about 4e-10 on the right sides (b reads 1/2), so a mistake that
        # the display and its mpmath transcription share cannot pass.
        # t1-left (speed n^2) needs a fourth term, log n/n^2, and reads
        # 4.5e-8 to 1.0e-7; its b depends on alpha (0.26, 0.31, 0.36).
        # t3-right (speed n l^2, level 1 + l x) is fitted in powers of l
        # with a term log n/(n l^2), whose coefficient reads -1/6, the
        # -(1/6) log n drift over the speed; |I/rate - 1| reads 1.6e-7 to 2.3e-5
        rows = converge_table(tag, grid=tuple((n, round(alpha * n)) for n in grid), x=x)
        n = np.array([row.n for row in rows], dtype=float)
        scaled = np.array([row.exact / row.scaling for row in rows])
        fit, *_ = np.linalg.lstsq(model(n), scaled, rcond=None)
        assert abs(fit[0] / THEOREMS[tag].rate(alpha, x).value - 1.0) <= tol
        if term is not None:
            at, want, within = term
            assert fit[at] == pytest.approx(want, abs=within)

    def test_tag_and_grid_validation(self):
        with pytest.raises(ValueError):
            converge_table("t9-left")
        for tag in ("t4-item2", "t4-item3"):  # both need v > 0
            with pytest.raises(ValueError, match="needs v"):
                converge_table(tag, grid=((1000, 0),))
        assert set(THEOREM_TAGS) == {
            "t1-right", "t1-left", "t2", "t3-right",
            "t3-left", "t4-item1", "t4-item2", "t4-item3",
        }


class TestGapRule:
    """verify's five convergence checks share one pass/fail rule."""

    @staticmethod
    def _check(name):
        return dict(verification._FULL_EXTRA)[name]()

    def test_rising_gaps_fail_a_trend_check_only(self, monkeypatch):
        # gaps under the tolerance that rise from row to row
        def rising(theorem, grid=None, x=None):
            return [
                SimpleNamespace(scaled_gap=g, rate_target=1.0) for g in (0.01, 0.02, 0.05)
            ]

        monkeypatch.setattr(verification, "converge_table", rising)
        passed, detail = self._check("min-rate-trend")
        assert not passed
        assert detail == (
            "x=0.5: rel gap 0.050, decreasing=False; "
            "x=2.0: rel gap 0.050, decreasing=False (tol 0.20)"
        )
        assert self._check("mdp-max-trend") == (True, "x=1.0: rel gap 0.050 (tol 0.30)")


class TestCltCheck:
    def test_default_levels_invert_the_centering(self):
        rows = clt_check(500, 0)
        assert rows[0].g_arg == pytest.approx(0.0, abs=1e-12)
        assert rows[1].g_arg == pytest.approx(2.0, abs=1e-12)

    def test_targets_are_gumbel_tails(self):
        rows = clt_check(500, 0)
        half_log_2pi = 0.5 * math.log(2.0 * math.pi)
        for r in rows:
            assert r.target == pytest.approx(gumbel_sf(r.g_arg), abs=1e-14)
            assert r.target_display == pytest.approx(
                gumbel_sf(r.g_arg + half_log_2pi), abs=1e-12
            )
            assert r.abs_gap == pytest.approx(abs(r.exact - r.target), abs=1e-15)
            assert 0.0 < r.exact < 1.0

    def test_consistent_centering_beats_display_form(self):
        # the published display constant leaves an O(1) offset in the
        # Gumbel argument, visible already at n = 500
        rows = clt_check(500, 0)
        for r in rows:
            assert r.abs_gap < r.abs_gap_display

    def test_small_scale_rejected(self):
        with pytest.raises(ValueError, match="need s > e"):
            clt_check(5, 0)

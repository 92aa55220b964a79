"""Tests for the reproducible samplers and the direct matrix probe.

Distributional checks use one-sample Kolmogorov-Smirnov distances against the
exact cdf at the sample points (the gamma-shape ladder) at the 0.1% level (1%
for the small matrix-probe batches), so a false failure is a once-in-a-thousand
event under a frozen seed; moment and binomial checks sit at four standard
errors.
"""

import math
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chiral_ldp.exact_dist as exact_dist
import chiral_ldp.sampler as sampler
from chiral_ldp._quad import QuadratureError
from chiral_ldp.core_types import EnsembleParams, Statistic, derived_scales
from chiral_ldp.exact_dist import _reduce_rows, log_prob_max_le, log_prob_min_le
from chiral_ldp.sampler import (
    MatrixProbeConfig,
    SampleBatch,
    ks_statistic,
    ks_statistic_max,
    ks_statistic_min,
    matrix_probe_extremes,
    sample_extremes_independent,
    sample_yj,
)

from oracles import _eager_gamma, eager_sample_yj, gamma_product_tail_oracle, ks_critical

# E[2n Y_j] = 2 Gamma(j+1/2) Gamma(j+v+1/2) / (Gamma(j) Gamma(j+v)), and
# E[(2n Y_j)^2] = 4 j (j+v) from the gamma product representation.
MEAN_T_PINS = {
    (1, 0): math.pi / 2.0,
    (3, 2): 7.2480592227596548104,
}


class TestBatchContract:
    def test_metadata_round_trip(self):
        batch = sample_yj(EnsembleParams(4, 1), 2, seed=13, count=8)
        assert (batch.seed, batch.stream, batch.count) == (13, 2, 8)
        assert batch.values.shape == (8,)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SampleBatch(seed=0, stream=1, count=3, values=np.zeros(2))

    def test_input_guards(self):
        params = EnsembleParams(3, 0)
        with pytest.raises(ValueError):
            sample_yj(params, 0, seed=1, count=4)
        with pytest.raises(ValueError):
            sample_yj(params, 4, seed=1, count=4)
        with pytest.raises(ValueError):
            sample_yj(params, 1, seed=1, count=0)
        with pytest.raises(ValueError):
            sample_yj(params, 1, seed=-1, count=4)

    @pytest.mark.parametrize(
        "seed, j", [(-1, 1), (2**64, 1), (2**70, 1), (0, 2**64)],
        ids=["-1", "18446744073709551616", "1180591620717411303424", "index-2**64"],
    )
    def test_seed_outside_the_philox_key_is_refused(self, monkeypatch, seed, j):
        # a key word holds 0 <= seed, j < 2**64; numpy would raise
        # OverflowError, and the message names the word that does not fit.
        # The check runs in each block, so a count cut into several blocks
        # on the pool raises the same error: 40 rows are 14 blocks of the
        # sampler's 144 words and 4 of the probe's 36 at 864 elements on two
        # workers.  An index that large needs n = 2**64, past the probe's
        # n <= 64, and the extremes would run every index below it.
        index = j > 1
        params = EnsembleParams(j if index else 3, 0)
        bad = f"stream {j}" if index else f"seed {seed}"
        message = re.escape(f"seed and stream must be in [0, 2**64), got {bad}") + "$"
        fits = dict(j=2**64 - 1, seed=seed) if index else dict(j=1, seed=2**64 - 1)

        def refused(count):
            with pytest.raises(ValueError, match=message):
                sample_yj(params, j, seed, count=count)
            if not index:
                with pytest.raises(ValueError, match=message):
                    matrix_probe_extremes(MatrixProbeConfig(params), seed, count=count)
                with pytest.raises(ValueError, match=message):
                    sample_extremes_independent(params, seed, count=count)

        refused(2)
        # the largest key word in the refused one's place is drawn
        largest = sample_yj(params, **fits, count=40).values
        assert np.isfinite(largest).all()
        monkeypatch.setattr(exact_dist, "_WORKERS", 2)
        monkeypatch.setattr(exact_dist, "_CHUNK_ELEMENTS", 864)
        real, cuts = exact_dist._blocks, []
        monkeypatch.setattr(
            exact_dist, "_blocks", lambda count, row: cuts.append(real(count, row)) or cuts[-1]
        )
        refused(40)
        assert [len(blocks) for blocks in cuts] == ([14] if index else [14, 4, 14])
        blocked = sample_yj(params, **fits, count=40).values
        assert blocked.tobytes() == largest.tobytes()


class TestDeterminism:
    def test_identical_reruns(self):
        params = EnsembleParams(5, 2)
        a = sample_yj(params, 3, seed=42, count=64).values
        b = sample_yj(params, 3, seed=42, count=64).values
        np.testing.assert_array_equal(a, b)

    def test_prefix_stability(self):
        # extending the batch must not disturb earlier replicates
        params = EnsembleParams(5, 2)
        short = sample_yj(params, 3, seed=42, count=50).values
        long = sample_yj(params, 3, seed=42, count=100).values
        np.testing.assert_array_equal(short, long[:50])

    def test_streams_and_seeds_separate(self):
        params = EnsembleParams(5, 2)
        base = sample_yj(params, 3, seed=42, count=64).values
        assert not np.array_equal(base, sample_yj(params, 2, seed=42, count=64).values)
        assert not np.array_equal(base, sample_yj(params, 3, seed=43, count=64).values)


class TestLazyRounds:
    """The lazy, row-blocked sampler draws what the eager one drew, byte for
    byte: every uniform from one array, every round for every row."""

    BLOCK = exact_dist._CHUNK_ELEMENTS // exact_dist._WORKERS // (2 * sampler._GAMMA_ROUNDS * 3)

    # gamma shapes (j, j + v) of 1, 3 and 5, 10, 1000, and 3 with 1000
    @pytest.mark.parametrize(
        "n,v,j,seed",
        [(1, 0, 1, 0), (5, 2, 3, 7), (10, 0, 10, 42), (1000, 0, 1000, 11), (3, 997, 3, 20240817)],
    )
    def test_sample_yj_matches_eager_oracle(self, n, v, j, seed):
        eager = eager_sample_yj(n, v, j, seed, self.BLOCK + 1)
        for count in (1, self.BLOCK, self.BLOCK + 1):
            lazy = sample_yj(EnsembleParams(n, v), j, seed, count).values
            assert lazy.tobytes() == eager[:count].tobytes(), count

    @pytest.mark.parametrize("n,v,j,seed", [(5, 2, 3, 3), (4, 1, 2, 9)])
    def test_many_blocks_match_eager_oracle(self, n, v, j, seed):
        lazy = sample_yj(EnsembleParams(n, v), j, seed, 50_000).values
        assert lazy.tobytes() == eager_sample_yj(n, v, j, seed, 50_000).tobytes()

    def test_extremes_match_eager_oracle(self, monkeypatch):
        params = EnsembleParams(4, 1)
        lazy = sample_extremes_independent(params, seed=5, count=self.BLOCK + 1)

        def eager(params, j, seed, count):
            values = eager_sample_yj(params.n, params.v, j, seed, count)
            return SampleBatch(seed=seed, stream=j, count=count, values=values)

        # the extremes take their draws through the module's sample_yj
        monkeypatch.setattr(sampler, "sample_yj", eager)
        want = sample_extremes_independent(params, seed=5, count=self.BLOCK + 1)
        assert lazy["max"].tobytes() == want["max"].tobytes()
        assert lazy["min"].tobytes() == want["min"].tobytes()

    def test_memory_stays_flat_in_the_draw_count(self):
        # one (2e5, 144) array of uniforms alone would take 230 MB
        tracemalloc.start()
        try:
            sample_yj(EnsembleParams(5, 2), 3, seed=1, count=200_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @staticmethod
    def _words(uniforms):
        # Philox words read as the uniforms, rounded down to multiples of 2**-53
        return (np.asarray(uniforms) * 2.0**53).astype(np.uint64) << 11

    def test_exhausted_rejection_budget_raises(self):
        # u1 = 0.999 and u2 = 0.5 give z = -3.72, so base = 1 + z / sqrt(6) < 0
        # at shape 1 and every round of the second row is invalid
        uniforms = np.full((3, sampler._GAMMA_ROUNDS, 3), [0.999, 0.5, 0.5])
        uniforms[[0, 2], 5] = [0.3, 0.1, 0.5]  # rows 0 and 2 accept in round 5
        with pytest.raises(RuntimeError, match="rejection budget exhausted"):
            sampler._gamma_from_words(1.0, self._words(uniforms))
        uniforms[1, -1] = [0.3, 0.1, 0.5]  # ... and row 1 in the last round
        draws = sampler._gamma_from_words(1.0, self._words(uniforms))
        assert np.all(draws == draws[0]) and draws[0] > 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        first=st.integers(0, 10**6),
        rows=st.integers(1, 300),
        shape_a=st.sampled_from([1.0, 2.0, 3.0, 10.0, 1000.0]),
    )
    def test_raw_word_draws_equal_generator_uniform_draws(self, seed, first, rows, shape_a):
        # the words a round converts, (w >> 11) * 2**-53, are the doubles
        # Generator.random gives at the same counters, so the lazy draws from
        # raw words are the eager draws from Generator uniforms, bit for bit
        layout = (sampler._GAMMA_ROUNDS, 3)
        words = sampler._stream_rows(seed, 1, slice(first, first + rows), layout)
        bits = np.random.Philox(
            key=np.array([seed, 1], dtype=np.uint64), counter=first * math.prod(layout) // 4
        )
        uniforms = np.random.Generator(bits).random((rows, *layout))
        assert sampler._uniforms(words).tobytes() == uniforms.tobytes()
        want = _eager_gamma(shape_a, uniforms)
        assert sampler._gamma_from_words(shape_a, words).tobytes() == want.tobytes()


class TestDistribution:
    @pytest.mark.parametrize("j,v,n", [(1, 0, 1), (3, 2, 5), (10, 5, 10)])
    def test_ks_against_exact_cdf(self, j, v, n):
        params = EnsembleParams(n, v)
        batch = sample_yj(params, j, seed=11, count=30000)
        assert ks_statistic(params, j, batch.values) < ks_critical(30000)

    def test_ks_detects_scale_error(self):
        # a 5% scale distortion must blow well past the acceptance band
        params = EnsembleParams(5, 2)
        batch = sample_yj(params, 3, seed=11, count=30000)
        assert ks_statistic(params, 3, batch.values * 1.05) > 3.0 * ks_critical(30000)

    @pytest.mark.parametrize("j,v,n", [(1, 0, 1), (3, 2, 5)])
    def test_mean_of_t_scale(self, j, v, n):
        ref = MEAN_T_PINS[(j, v)]
        t = sample_yj(EnsembleParams(n, v), j, seed=5, count=100000).values * 2.0 * n
        sd = math.sqrt(4.0 * j * (j + v) - ref * ref)
        assert abs(float(t.mean()) - ref) <= 4.0 * sd / math.sqrt(t.size)

    def test_ks_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            ks_statistic(EnsembleParams(2, 0), 1, np.array([]))
        with pytest.raises(ValueError):
            ks_statistic_max(EnsembleParams(2, 0), np.array([]))


def _tails(t, v: int, top: int) -> SimpleNamespace:
    """log sf and log cdf of T_1..T_top at each threshold of t, one row per
    threshold, through the ladder's one entry."""
    blocks, _ = _reduce_rows(np.asarray(t, dtype=float), v, top, lambda *tails: tails[:2])
    log_sf, log_cdf = (np.concatenate(a) for a in zip(*blocks))
    return SimpleNamespace(log_sf=log_sf, log_cdf=log_cdf)


def _brute_ks(cdf: np.ndarray) -> float:
    k = np.arange(1, cdf.size + 1)
    return float(max(np.max(k / cdf.size - cdf), np.max(cdf - (k - 1) / cdf.size)))


class TestExactKs:
    """The KS statistics evaluate the exact cdf at every sample point."""

    @pytest.mark.parametrize(
        "values, message",
        [
            (np.float64(0.5), r"{name} must be a nonempty 1-d array"),
            (np.ones((2, 3)), r"{name} must be a nonempty 1-d array"),
            (np.array([0.5, 1.0, 0.0]), r"{name}\[2\] = 0\.0"),
            (np.array([0.5, -1.0]), r"{name}\[1\] = -1\.0"),
            (np.array([math.nan, 0.5]), r"{name}\[0\] = nan"),
            (np.array([0.5, 0.7, math.inf]), r"{name}\[2\] = inf"),
        ],
        ids=["0-d", "2-d", "zero", "negative", "nan", "inf"],
    )
    def test_input_guard(self, values, message):
        params = EnsembleParams(3, 1)
        with pytest.raises(ValueError, match=message.format(name="y_values")):
            ks_statistic(params, 2, values)
        with pytest.raises(ValueError, match=message.format(name="x_values")):
            ks_statistic_max(params, values)

    def test_overflowing_threshold_has_cdf_one(self):
        # 2 x 1e308 overflows to t = inf, where the exact cdf is 1: no
        # failure and no warning
        params = EnsembleParams(1, 0)
        values = np.array([0.5, 1e308])
        at_one = _tails(np.array([1.0]), 0, 1)  # t = 2 x 0.5
        cdf_max = np.array([math.exp(at_one.log_cdf[0, 0]), 1.0])
        cdf_min = np.array([-math.expm1(at_one.log_sf[0, 0]), 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ks_statistic_max(params, values) == _brute_ks(cdf_max)
            assert ks_statistic_min(params, values) == _brute_ks(cdf_min)
            assert ks_statistic(params, 1, values) == _brute_ks(cdf_max)

    @pytest.mark.parametrize("j", [0, 4])
    def test_index_out_of_range(self, j):
        with pytest.raises(ValueError):
            ks_statistic(EnsembleParams(3, 1), j, np.array([0.5, 1.0]))

    def test_cdf_at_sample_points_matches_gamma_product_oracle(self):
        n, v, j = 5, 2, 3
        params = EnsembleParams(n, v)
        t = 2.0 * n * sample_yj(params, j, seed=4, count=3).values
        cdf = np.exp(_tails(t, v, j).log_cdf[:, j - 1])
        c = derived_scales(params).c
        for ti, got in zip(t, cdf):
            want = gamma_product_tail_oracle(n, v, j, ti / c, upper=False)
            assert got == pytest.approx(want, rel=1e-11)

    def test_max_cdf_at_sample_points_matches_gamma_product_oracle(self):
        n, v = 3, 1
        params = EnsembleParams(n, v)
        x = matrix_probe_extremes(MatrixProbeConfig(params), seed=2, count=2)["max"]
        cdf = np.exp(np.sum(_tails(x * derived_scales(params).c, v, n).log_cdf, axis=1))
        for xi, got in zip(x, cdf):
            want = math.prod(
                gamma_product_tail_oracle(n, v, j, xi, upper=False) for j in range(1, n + 1)
            )
            assert got == pytest.approx(want, rel=1e-11)

    def test_ks_equals_per_point_ladder(self):
        # one scalar ladder per sample point against the batched statistic
        n, v, j = 5, 2, 3
        params = EnsembleParams(n, v)
        y = sample_yj(params, j, seed=8, count=200).values
        t = np.sort(y) * 2.0 * n
        cdf = np.array([math.exp(_tails(np.array([ti]), v, j).log_cdf[0, -1]) for ti in t])
        assert ks_statistic(params, j, y) == pytest.approx(_brute_ks(cdf), rel=1e-14, abs=0)

    def test_ks_max_equals_per_point_ladder(self):
        n, v = 3, 1
        params = EnsembleParams(n, v)
        x = matrix_probe_extremes(MatrixProbeConfig(params), seed=9, count=200)["max"]
        t = np.sort(x) * derived_scales(params).c
        cdf = np.array(
            [math.exp(float(np.sum(_tails(np.array([ti]), v, n).log_cdf))) for ti in t]
        )
        assert ks_statistic_max(params, x) == pytest.approx(_brute_ks(cdf), rel=1e-14, abs=0)

    def test_ks_min_equals_per_point_ladder(self):
        n, v = 3, 1
        params = EnsembleParams(n, v)
        x = matrix_probe_extremes(MatrixProbeConfig(params), seed=9, count=200)["min"]
        t = np.sort(x) * derived_scales(params).c
        cdf = np.array(
            [-math.expm1(float(np.sum(_tails(np.array([ti]), v, n).log_sf))) for ti in t]
        )
        assert ks_statistic_min(params, x) == pytest.approx(_brute_ks(cdf), rel=1e-14, abs=0)


class TestKsMaxBlocks:
    """The KS statistics run the ladder over chunks of sample points."""

    @staticmethod
    def _probe(params, count):
        return matrix_probe_extremes(MatrixProbeConfig(params), seed=7, count=count)

    @staticmethod
    def _last_stop(t, v, top):
        # the furthest stop of a row at the thresholds t that can take a
        # reverse sum, whose t is below 2 top + v: the bound at the largest
        return exact_dist._last_stop(0.5 * float(t[t < 2 * top + v].max()), v, top)

    @classmethod
    def _per_row(cls, params, t):
        # 2 (L - 1) + 3 Poisson counts, L that stop: the size _reduce_rows
        # gives a batch (2 (cap - 1) + 3 = 367 counts per row at (3, 1))
        top, v = params.n, params.v
        return 2 * (cls._last_stop(t, v, top) - 1) + 3

    @classmethod
    def _fifty_point_chunks(cls, monkeypatch, params, t):
        # 50 rows of the thresholds t on one worker, so 400 points run as
        # eight chunks; returns the list of chunk sizes
        monkeypatch.setattr(exact_dist, "_WORKERS", 1)
        monkeypatch.setattr(exact_dist, "_CHUNK_ELEMENTS", 50 * cls._per_row(params, t))
        real, chunks = exact_dist._ladder_sums, []

        def counted(t, *args, **kwargs):
            chunks.append(t.size)
            return real(t, *args, **kwargs)

        monkeypatch.setattr(exact_dist, "_ladder_sums", counted)
        return chunks

    def test_blocks_match_one_block(self, monkeypatch):
        params = EnsembleParams(3, 1)
        probe = self._probe(params, 400)
        y = sample_yj(params, params.n, seed=7, count=400).values
        c = derived_scales(params).c
        samples = [
            (probe["max"], Statistic.MAX_SQ, c),
            (probe["min"], Statistic.MIN_SQ, c),
            (y, params.n, 2.0 * params.n),
        ]
        whole = [exact_dist._ks(params, values, law) for values, law, _ in samples]
        for (values, law, scale), want in zip(samples, whole):
            with monkeypatch.context() as patch:
                chunks = self._fifty_point_chunks(patch, params, values * scale)
                # statistic and tally, bit for bit
                assert exact_dist._ks(params, values, law) == want
            assert chunks == [50] * 8

    def test_failure_names_the_first_failing_point(self, monkeypatch):
        params = EnsembleParams(3, 1)
        x = self._probe(params, 400)["max"]
        t = np.sort(x) * derived_scales(params).c
        bad = t[[120, 330]]  # in the third and the seventh chunk
        real = exact_dist._kve_sums
        monkeypatch.setattr(
            exact_dist,
            "_kve_sums",
            lambda s, v, *rest: np.where(np.isin(s, bad), np.nan, real(s, v, *rest)),
        )
        chunks = self._fifty_point_chunks(monkeypatch, params, t)
        with pytest.raises(QuadratureError) as info:
            ks_statistic_max(params, x)
        assert f"non-finite ladder value at t={float(bad[0])!r}" in str(info.value)
        assert math.isnan(info.value.partial) and info.value.rel_err == math.inf
        assert chunks == [50] * 8

    @pytest.mark.parametrize("unconverged", [False, True])
    def test_failure_text_does_not_depend_on_the_blocks(self, monkeypatch, unconverged):
        # Points 120 and 330 fail, apart in blocks of 50 and together in one
        # block; with every reverse sum unconverged too, the lowest points
        # fail first, but the batch names its non-finite values first.  The
        # text is the whole batch's, for any block size and worker count.
        params = EnsembleParams(3, 1)
        x = self._probe(params, 400)["max"]
        t = np.sort(x) * derived_scales(params).c
        bad = t[[120, 330]]
        real = exact_dist._kve_sums
        monkeypatch.setattr(
            exact_dist,
            "_kve_sums",
            lambda s, v, *rest: np.where(np.isin(s, bad), np.nan, real(s, v, *rest)),
        )
        if unconverged:
            monkeypatch.setattr(exact_dist, "_TRUNCATION_NATS", 1e6)
            head = _reduce_rows(t[:50], params.v, params.n, lambda *tails: None)[1]
            assert "did not converge" in head.failure
        want = _reduce_rows(t, params.v, params.n, lambda *tails: None)[1].failure
        assert want == (
            f"non-finite ladder value at t={float(bad[0])!r}, v=1 (and at 1 more thresholds)"
        )
        for elements in (exact_dist._CHUNK_ELEMENTS, 50 * self._per_row(params, t)):
            for workers in (1, 2, 3):
                monkeypatch.setattr(exact_dist, "_CHUNK_ELEMENTS", elements)
                monkeypatch.setattr(exact_dist, "_WORKERS", workers)
                with pytest.raises(QuadratureError) as info:
                    ks_statistic_max(params, x)
                assert str(info.value) == want, (elements, workers)

    @pytest.mark.parametrize("n,v,j", [(5, 2, 3), (3, 1, 3), (200, 0, 200), (40, 300, 40)])
    def test_sizing_bound_covers_every_block_stop(self, monkeypatch, n, v, j):
        # a batch is cut by its furthest stop, bounded once for the batch,
        # and no block's reverse sum runs past it; a single threshold is one
        # block
        params = EnsembleParams(n, v)
        y = sample_yj(params, j, seed=5, count=20_000).values
        bound, cap = self._last_stop(y * (2.0 * n), v, j), exact_dist._cap(j, v)
        real_blocks, real_sums, real_last = (
            exact_dist._blocks, exact_dist._ladder_sums, exact_dist._last_stop
        )
        sizes, stops, bounds = [], [], []

        def blocks(count, row_elements):
            sizes.append(row_elements)
            return real_blocks(count, row_elements)

        def ladder_sums(*args, **kwargs):
            sums = real_sums(*args, **kwargs)
            stops.append(int(sums.stop.max()))
            return sums

        def last_stop(mu, v, top):
            bounds.append(real_last(mu, v, top))
            return bounds[-1]

        monkeypatch.setattr(exact_dist, "_CHUNK_ELEMENTS", 200_000)
        monkeypatch.setattr(exact_dist, "_blocks", blocks)
        monkeypatch.setattr(exact_dist, "_ladder_sums", ladder_sums)
        monkeypatch.setattr(exact_dist, "_last_stop", last_stop)
        ks_statistic(params, j, y)
        assert sizes == [2 * (bound - 1) + 3]
        assert len(stops) > 1 and all(stop <= bound for stop in stops)
        assert bounds == [bound] and bound < cap
        sizes.clear()
        exact_dist.log_cdf_index(params, j, float(np.median(y)))
        assert len(sizes) == 1

    def test_overflowing_point_cuts_the_same_blocks(self, monkeypatch):
        # a point at t = inf takes no reverse sum, so it leaves the sizing
        # alone: one draw set to 1e308 cuts the blocks of the sample without it
        params = EnsembleParams(5, 2)
        y = sample_yj(params, 3, seed=5, count=50_000).values
        huge = y.copy()
        huge[123] = 1e308
        real, cuts = exact_dist._blocks, []
        monkeypatch.setattr(
            exact_dist, "_blocks", lambda count, row: cuts.append(real(count, row)) or cuts[-1]
        )
        want = ks_statistic(params, 3, y)
        assert ks_statistic(params, 3, huge).hex() == want.hex()
        assert len(cuts) == 2 and cuts[0] == cuts[1] and len(cuts[0]) > 1

    def test_memory_does_not_grow_with_points_times_n(self):
        # 2e4 points at n=200 (and j=200) are 27 chunks of 749; one array
        # over all of them would take 32 MB, and the unchunked ladder peaked
        # at 165 MB
        params = EnsembleParams(200, 0)
        x = np.random.default_rng(1).uniform(0.9, 1.3, 20_000)
        y = sample_yj(params, params.n, seed=1, count=20_000).values
        for statistic in (
            lambda: ks_statistic_max(params, x),
            lambda: ks_statistic(params, params.n, y),
        ):
            tracemalloc.start()
            try:
                statistic()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 12 * 8 * exact_dist._CHUNK_ELEMENTS


class TestProbeBlocks:
    """matrix_probe_extremes draws and solves its replicates in blocks."""

    @pytest.mark.parametrize("n,v,count,rows", [(3, 1, 50, 7), (20, 3, 60, 16)])
    def test_blocks_match_one_block(self, monkeypatch, n, v, count, rows):
        config = MatrixProbeConfig(EnsembleParams(n, v))
        whole = matrix_probe_extremes(config, seed=7, count=count)
        per_block = rows * 4 * n * (n + v) * exact_dist._WORKERS
        monkeypatch.setattr(exact_dist, "_CHUNK_ELEMENTS", per_block + 1)
        blocked = matrix_probe_extremes(config, seed=7, count=count)
        for key in ("max", "min", "resample"):
            assert blocked[key].tobytes() == whole[key].tobytes(), key

    def test_memory_does_not_grow_with_replicates(self):
        # 500 replicates at (2, 1000) are eight blocks; drawn at once they
        # peaked at 112 MB
        config = MatrixProbeConfig(EnsembleParams(2, 1000))
        tracemalloc.start()
        try:
            matrix_probe_extremes(config, seed=7, count=500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * exact_dist._CHUNK_ELEMENTS


class TestWorkerCount:
    """Every block draws its uniforms from its own Philox counter, so the
    outputs are the same bytes for any number of pool threads."""

    # 30,000 elements: 208, 104 or 69 sampler rows and 625, 312 or 208
    # probe replicates at (3, 1) per block on 1, 2 or 3 workers; the KS
    # ladder, sized by the furthest stop of a row that can take a reverse
    # sum, runs each sample as 3 to 4, 6 to 8 or 9 to 12 blocks
    ELEMENTS = 30_000

    @staticmethod
    def _outputs(seed):
        params = EnsembleParams(3, 1)
        y = sample_yj(params, 3, seed, count=1001).values  # no multiple of a block
        ext = sample_extremes_independent(params, seed, count=700)
        probe = matrix_probe_extremes(MatrixProbeConfig(params), seed, count=1300)
        usable = ~probe["resample"]
        ks = (
            ks_statistic(params, 3, y),
            ks_statistic_max(params, probe["max"][usable]),
            ks_statistic_min(params, probe["min"][usable]),
        )
        arrays = (y, ext["max"], ext["min"], probe["max"], probe["min"], probe["resample"])
        return [a.tobytes() for a in arrays] + [k.hex() for k in ks]

    def test_outputs_do_not_depend_on_the_worker_count(self, monkeypatch):
        # M is singular (P = Q) in three replicates, marked by their first
        # uniforms in the sequential stream, so the same three are flagged
        # however the replicates are cut into blocks
        seed, count, per_rect = 7, 1300, 2 * 4 * 3
        key = np.array([seed, sampler._MATRIX_STREAM], dtype=np.uint64)
        stream = np.random.Generator(np.random.Philox(key=key)).random((count, 2 * per_rect))
        singular = [5, 700, 1299]
        marks = stream[singular][:, [0, per_rect]].ravel()
        real = sampler._complex_rect

        def rect(u, rows, cols, var_component):
            z = real(u, rows, cols, var_component)
            z[np.isin(u[:, 0], marks)] = 1.0
            return z

        monkeypatch.setattr(sampler, "_complex_rect", rect)
        monkeypatch.setattr(exact_dist, "_CHUNK_ELEMENTS", self.ELEMENTS)
        runs = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(exact_dist, "_WORKERS", workers)
            runs.append(self._outputs(seed))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        resample = np.frombuffer(runs[0][5], dtype=bool)
        assert np.flatnonzero(resample).tolist() == singular

    @settings(max_examples=50, deadline=None)
    @given(
        count=st.integers(1, 10**6),
        row_elements=st.integers(1, 10**5),
        workers=st.integers(1, 8),
    )
    def test_blocks_cut_the_rows_evenly(self, count, row_elements, workers):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(exact_dist, "_WORKERS", workers)
            blocks = exact_dist._blocks(count, row_elements)
        sizes = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == count
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) - min(sizes) <= 1 and min(sizes) >= 1
        most = max(1, exact_dist._CHUNK_ELEMENTS // workers // row_elements)
        assert max(sizes) <= most
        assert len(blocks) == 1 or len(blocks) % workers == 0 or len(blocks) == count

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        stream=st.integers(0, 2**64 - 1),
        first=st.integers(0, 3000),
        rows=st.integers(1, 12),
        shape=st.sampled_from([(2, sampler._GAMMA_ROUNDS, 3), (48,), (4,)]),
    )
    def test_counter_addressed_rows_are_the_stream_rows(self, seed, stream, first, rows, shape):
        # the raw words, and the probe's uniforms from them, which are
        # Generator.random's from the same stream
        key = np.array([seed, stream], dtype=np.uint64)
        size = (first + rows, *shape)
        want = np.random.Generator(np.random.Philox(key=key)).random(size)
        words = np.random.Philox(key=key).random_raw(size)
        got = sampler._stream_rows(seed, stream, slice(first, first + rows), shape)
        assert got.tobytes() == words[first:].tobytes()
        assert sampler._uniforms(got).tobytes() == want[first:].tobytes()


class TestExtremesIndependent:
    def test_single_index_extremes_coincide(self):
        ext = sample_extremes_independent(EnsembleParams(1, 2), seed=3, count=100)
        np.testing.assert_array_equal(ext["max"], ext["min"])

    def test_ordering_and_shape(self):
        ext = sample_extremes_independent(EnsembleParams(6, 1), seed=3, count=200)
        assert ext["max"].shape == ext["min"].shape == (200,)
        assert np.all(ext["max"] >= ext["min"])

    def test_max_cdf_matches_exact_probability(self):
        params = EnsembleParams(10, 0)
        ext = sample_extremes_independent(params, seed=3, count=100000)
        p_exact = math.exp(log_prob_max_le(params, 1.1))
        p_hat = float(np.mean(ext["max"] <= 1.1))
        se = math.sqrt(p_exact * (1.0 - p_exact) / 100000)
        assert abs(p_hat - p_exact) <= 4.0 * se

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_must_be_positive(self, count):
        with pytest.raises(ValueError, match="count must be positive"):
            sample_extremes_independent(EnsembleParams(3, 1), seed=3, count=count)

    def test_large_n_max_concentrates_near_one(self):
        ext = sample_extremes_independent(EnsembleParams(200, 0), seed=9, count=1500)
        med = float(np.median(ext["max"]))
        assert 1.0 < med < 1.2


class TestMatrixProbe:
    def test_config_guards(self):
        with pytest.raises(ValueError):
            MatrixProbeConfig(EnsembleParams(65, 0))

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_must_be_positive(self, count):
        cfg = MatrixProbeConfig(EnsembleParams(3, 1))
        with pytest.raises(ValueError, match="count must be positive"):
            matrix_probe_extremes(cfg, seed=7, count=count)

    def test_reproducible(self):
        cfg = MatrixProbeConfig(EnsembleParams(3, 1))
        a = matrix_probe_extremes(cfg, seed=7, count=50)
        b = matrix_probe_extremes(cfg, seed=7, count=50)
        np.testing.assert_array_equal(a["max"], b["max"])
        np.testing.assert_array_equal(a["min"], b["min"])
        np.testing.assert_array_equal(a["resample"], b["resample"])

    def test_singular_matrix_is_flagged(self, monkeypatch):
        # P = Q in replicate 1 makes M = conj(P - Q)^T (P + Q) the zero matrix
        real = sampler._complex_rect

        def rect(u, rows, cols, var_component):
            z = real(u, rows, cols, var_component)
            z[1] = 1.0
            return z

        monkeypatch.setattr(sampler, "_complex_rect", rect)
        probe = matrix_probe_extremes(MatrixProbeConfig(EnsembleParams(3, 1)), seed=7, count=4)
        np.testing.assert_array_equal(probe["resample"], [False, True, False, False])
        assert probe["min"][1] == 0.0 and np.all(probe["min"][[0, 2, 3]] > 0.0)

    def test_scalar_case_matches_exact_law(self):
        # n=1, v=0: the probe's |lambda| is the single squared modulus, so
        # the sample must pass the same KS gate as the surrogate sampler
        cfg = MatrixProbeConfig(EnsembleParams(1, 0))
        probe = matrix_probe_extremes(cfg, seed=21, count=10000)
        np.testing.assert_array_equal(probe["max"], probe["min"])
        assert not probe["resample"].any()
        assert ks_statistic(EnsembleParams(1, 0), 1, probe["max"]) < ks_critical(10000)

    def test_small_matrix_max_matches_product_law(self):
        # the real distributional gate is the acceptance run at count 5000;
        # this is the same check at a size that keeps the suite fast
        params = EnsembleParams(3, 1)
        probe = matrix_probe_extremes(MatrixProbeConfig(params), seed=7, count=1500)
        assert not probe["resample"].any()
        mx = probe["max"]
        assert ks_statistic_max(params, mx) < ks_critical(mx.size, level=0.01)

    def test_larger_matrix_extremes_match_product_laws(self):
        # (20, 3) is well past the scalar case: the max must pass the KS gate
        # against the product law, and the min must hit exp(log_prob_min_le)
        # at levels where that probability is about 0.2, 0.5 and 0.8
        params = EnsembleParams(20, 3)
        probe = matrix_probe_extremes(MatrixProbeConfig(params), seed=7, count=2000)
        assert not probe["resample"].any()
        assert ks_statistic_max(params, probe["max"]) < ks_critical(2000, level=0.01)
        for level, target in [(0.0377, 0.2), (0.0652, 0.5), (0.0973, 0.8)]:
            p = math.exp(log_prob_min_le(params, level))
            assert p == pytest.approx(target, abs=0.01)
            hit = float(np.mean(probe["min"] <= level))
            assert abs(hit - p) <= 4.0 * math.sqrt(p * (1.0 - p) / 2000)

    # levels where exp(log_prob_min_le) is about 0.2, 0.5 and 0.8
    @pytest.mark.parametrize(
        "n,v,levels",
        [
            (16, 16, ((0.0802, 0.2), (0.134, 0.5), (0.191, 0.8))),  # v / n = 1
            (8, 400, ((0.158, 0.2), (0.261, 0.5), (0.369, 0.8))),  # v >> n
        ],
        ids=["alpha-1", "v-much-larger"],
    )
    def test_extremes_match_product_laws_across_v_regimes(self, n, v, levels):
        # all replicates, never filtered on the resample flag
        params = EnsembleParams(n, v)
        probe = matrix_probe_extremes(MatrixProbeConfig(params), seed=7, count=2000)
        assert ks_statistic_max(params, probe["max"]) < ks_critical(2000, level=0.01)
        assert ks_statistic_min(params, probe["min"]) < ks_critical(2000, level=0.01)
        for level, target in levels:
            p = math.exp(log_prob_min_le(params, level))
            assert p == pytest.approx(target, abs=0.01)
            hit = float(np.mean(probe["min"] <= level))
            assert abs(hit - p) <= 4.0 * math.sqrt(p * (1.0 - p) / 2000)

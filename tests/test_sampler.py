"""Tests for the reproducible samplers and the direct matrix probe.

Distributional checks use one-sample Kolmogorov-Smirnov distances against the
exact cdf at the sample points (the gamma-shape ladder) at the 0.1% level (1% for the small matrix-probe batch), so a
false failure is a once-in-a-thousand event under a frozen seed; moment checks
sit at four standard errors.
"""

import math

import numpy as np
import pytest

from chiral_ldp.core_types import EnsembleParams, derived_scales
from chiral_ldp.exact_dist import _tails_at, log_prob_max_le
from chiral_ldp.sampler import (
    MatrixProbeConfig,
    SampleBatch,
    _batched_inverse,
    _power_iteration,
    ks_statistic,
    ks_statistic_max,
    matrix_probe_extremes,
    sample_extremes_independent,
    sample_yj,
)

from oracles import companion_matrix, index_cdf_oracle, ks_critical

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


class TestDistribution:
    @pytest.mark.parametrize("j,v,n", [(1, 0, 1), (3, 2, 5), (10, 5, 10)])
    def test_ks_against_quadrature_cdf(self, j, v, n):
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

    @pytest.mark.parametrize("j", [0, 4])
    def test_index_out_of_range(self, j):
        with pytest.raises(ValueError):
            ks_statistic(EnsembleParams(3, 1), j, np.array([0.5, 1.0]))

    def test_cdf_at_sample_points_matches_density_oracle(self):
        n, v, j = 5, 2, 3
        params = EnsembleParams(n, v)
        t = 2.0 * n * sample_yj(params, j, seed=4, count=3).values
        cdf = np.exp(_tails_at(t, v, j).log_cdf[:, j - 1])
        c = derived_scales(params).c
        for ti, got in zip(t, cdf):
            assert got == pytest.approx(index_cdf_oracle(n, v, j, ti / c), rel=1e-11)

    def test_max_cdf_at_sample_points_matches_density_oracle(self):
        n, v = 3, 1
        params = EnsembleParams(n, v)
        x = matrix_probe_extremes(MatrixProbeConfig(params), seed=2, count=2)["max"]
        cdf = np.exp(np.sum(_tails_at(x * derived_scales(params).c, v, n).log_cdf, axis=1))
        for xi, got in zip(x, cdf):
            want = math.prod(index_cdf_oracle(n, v, j, xi) for j in range(1, n + 1))
            assert got == pytest.approx(want, rel=1e-11)

    def test_ks_equals_per_point_ladder(self):
        # one scalar ladder per sample point against the batched statistic
        n, v, j = 5, 2, 3
        params = EnsembleParams(n, v)
        y = sample_yj(params, j, seed=8, count=200).values
        t = np.sort(y) * 2.0 * n
        cdf = np.array([math.exp(_tails_at(np.array([ti]), v, j).log_cdf[0, -1]) for ti in t])
        assert ks_statistic(params, j, y) == pytest.approx(_brute_ks(cdf), rel=1e-14, abs=0)

    def test_ks_max_equals_per_point_ladder(self):
        n, v = 3, 1
        params = EnsembleParams(n, v)
        x = matrix_probe_extremes(MatrixProbeConfig(params), seed=9, count=200)["max"]
        t = np.sort(x) * derived_scales(params).c
        cdf = np.array(
            [math.exp(float(np.sum(_tails_at(np.array([ti]), v, n).log_cdf))) for ti in t]
        )
        assert ks_statistic_max(params, x) == pytest.approx(_brute_ks(cdf), rel=1e-14, abs=0)


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

    def test_large_n_max_concentrates_near_one(self):
        ext = sample_extremes_independent(EnsembleParams(200, 0), seed=9, count=1500)
        med = float(np.median(ext["max"]))
        assert 1.0 < med < 1.2


class TestPowerIteration:
    def test_matches_companion_spectrum(self):
        # spectrum chosen with well separated moduli 3, 1.2, 0.4
        roots = [3.0 * np.exp(0.7j), 1.2 * np.exp(-1.1j), 0.4]
        m = companion_matrix(roots)[None, :, :]
        est, conv = _power_iteration(m, 2000, 1e-12)
        assert bool(conv[0])
        assert float(est[0]) == pytest.approx(3.0, abs=1e-8)

    def test_inverse_route_reaches_smallest_modulus(self):
        roots = [3.0 * np.exp(0.7j), 1.2 * np.exp(-1.1j), 0.4]
        m = companion_matrix(roots)[None, :, :]
        inv, singular = _batched_inverse(m)
        assert not singular[0]
        est, conv = _power_iteration(inv, 2000, 1e-12)
        assert bool(conv[0])
        assert 1.0 / float(est[0]) == pytest.approx(0.4, abs=1e-8)

    def test_linear_scaling(self):
        roots = [3.0 * np.exp(0.7j), 1.2 * np.exp(-1.1j), 0.4]
        m = companion_matrix(roots)[None, :, :]
        est, _ = _power_iteration(m, 2000, 1e-12)
        est4, _ = _power_iteration(4.0 * m, 2000, 1e-12)
        assert float(est4[0]) == pytest.approx(4.0 * float(est[0]), rel=1e-10)


class TestMatrixProbe:
    def test_config_guards(self):
        with pytest.raises(ValueError):
            MatrixProbeConfig(EnsembleParams(65, 0))
        with pytest.raises(ValueError):
            MatrixProbeConfig(EnsembleParams(4, 0), power_iters=0)
        with pytest.raises(ValueError):
            MatrixProbeConfig(EnsembleParams(4, 0), tol=1.5)

    def test_reproducible(self):
        cfg = MatrixProbeConfig(EnsembleParams(3, 1))
        a = matrix_probe_extremes(cfg, seed=7, count=50)
        b = matrix_probe_extremes(cfg, seed=7, count=50)
        np.testing.assert_array_equal(a["max"], b["max"])
        np.testing.assert_array_equal(a["min"], b["min"])
        np.testing.assert_array_equal(a["resample"], b["resample"])

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
        assert probe["resample"].mean() < 0.2
        # every replicate counts: dropping flagged ones would bias the law
        mx = probe["max"]
        assert ks_statistic_max(params, mx) < ks_critical(mx.size, level=0.01)

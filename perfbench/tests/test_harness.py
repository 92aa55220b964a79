"""Percentile tail count, self-time arithmetic and per-layer aggregation."""

import json

import numpy as np
import pytest

import run
from run import samples_beyond
from tracer import Span, layer_metrics, self_times


def test_samples_beyond_percentile():
    # p90 reports a tail only with at least ten samples beyond it
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(112, 90) == 12
    assert samples_beyond(48, 90) == 5
    assert samples_beyond(90, 90) < 10
    for count in (5, 48, 100, 112):
        values = np.arange(count)
        assert samples_beyond(count, 90) == int(np.sum(values > np.percentile(values, 90)))


def _span(name, start, end, parent, work=0, aux=0, error=None):
    s = Span(name, start, parent, "op", work)
    s.end, s.aux, s.error = end, aux, error
    return s


def test_self_time_is_duration_minus_direct_children():
    spans = [
        _span("exact_dist.product_query", 0.0, 10.0, -1, work=100),
        _span("exact_dist.index_tail", 1.0, 5.0, 0),
        _span("quad.adaptive", 1.5, 4.5, 1, work=640),
        _span("special_fn.log_kv", 2.0, 3.0, 2, work=320),
        _span("special_fn.log_kv", 3.0, 4.0, 2, work=320),
        _span("exact_dist.index_tail", 6.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 1.0, 1.0, 1.0, 1.0, 3.0])
    m = layer_metrics(spans)
    assert m["exact_dist.self_s"] == pytest.approx(7.0)
    assert m["quad.adaptive.self_s"] == pytest.approx(1.0)
    assert m["special_fn.log_kv.self_s"] == pytest.approx(2.0)
    assert m["special_fn.log_kv.calls"] == 2
    assert m["special_fn.log_kv.points"] == 640
    assert m["special_fn.ns_per_point"] == pytest.approx(2.0 / 640 * 1e9)
    assert m["quad.adaptive.integrand_points"] == 640
    assert m["exact_dist.queries"] == 1
    assert m["exact_dist.indices_evaluated"] == 2
    assert m["exact_dist.scan_share"] == pytest.approx(2 / 100)
    assert m["exact_dist.index_tail_ms"] == pytest.approx(3500.0)
    # total self time equals the top-level span's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_sampler_ratios_and_failures():
    spans = [
        _span("sampler.extremes", 0.0, 4.0, -1, work=10),
        _span("sampler.sample_yj", 0.0, 1.0, 0, work=10),
        _span("sampler.sample_yj", 1.0, 3.0, 0, work=10),
        _span("sampler.probe", 5.0, 7.0, -1, work=200, aux=50),
        _span("quad.adaptive", 8.0, 9.0, -1, error="QuadratureError"),
    ]
    m = layer_metrics(spans)
    assert m["sampler.draws"] == 20
    assert m["sampler.draws_per_s"] == pytest.approx(20 / 3.0)
    assert m["sampler.extremes.self_s"] == pytest.approx(1.0)
    assert m["sampler.probe.replicates_per_s"] == pytest.approx(100.0)
    assert m["sampler.probe.flagged_share"] == pytest.approx(0.25)
    assert m["quad.adaptive.failures"] == 1
    assert m["exact_dist.scan_share"] == 0.0


def test_no_spans_give_zero_metrics():
    assert all(value == 0 for value in layer_metrics([]).values())


def test_units_come_from_benchmark_json():
    units = run.declared_units()
    traced = set(layer_metrics([])) | {"trace.overhead_share"}
    declared = {m["name"] for m in json.loads(run.BENCHMARK.read_text())["per_layer"]}
    assert declared == traced
    per_layer = run.with_units(dict.fromkeys(traced, 0.0), units)
    assert per_layer["special_fn.log_kv.calls"] == (0.0, "count")
    assert per_layer["exact_dist.self_s"] == (0.0, "s")
    with pytest.raises(run.BenchError):
        run.with_units({"undeclared.metric": 1.0}, units)


def test_end_to_end_medians_over_passes():
    from run import end_to_end

    passes = [
        [1.0, 2.0],
        [3.0, 2.0],
        [2.0, 9.0],
        [7.0],  # cut short at the end of the run
    ]
    metrics, latency = end_to_end(passes, [0.4, 0.5, 0.6], attempted=7, failed=1)
    assert set(metrics) == {"setup_s", "wall_s", "peak_rss_mb", "ok_share"}
    assert metrics["setup_s"] == pytest.approx(0.5)
    # each op's latency is its median over the passes that ran it: 2.5 s, 2 s
    assert metrics["wall_s"] == pytest.approx(4.5)
    assert metrics["ok_share"] == pytest.approx(6 / 7)
    assert latency["op_p50_ms"] == pytest.approx(2250.0)
    assert latency["op_p90_ms"] == pytest.approx(2450.0)


def test_host_speed_factor_uses_nearest_kernel_times():
    import hostspeed
    from hostspeed import HostSpeed

    clock = [0.0]
    kernel_seconds = iter([0.01] * 6 + [0.02] * 6 + [0.04] * 6)

    def work():
        clock[0] += next(kernel_seconds)

    speed = HostSpeed(timer=lambda: clock[0], work=work)
    for _ in range(18):
        speed.sample()
        clock[0] += 1.0
    assert len(speed.starts) == 18
    k = hostspeed.NEIGHBOURS
    # the k kernel runs before and the k after a moment decide its factor
    at = speed.starts[8] + 0.5
    want = hostspeed.REFERENCE_S / float(np.median(speed.seconds[9 - k : 9 + k]))
    assert speed.factor(at) == pytest.approx(want)
    # at the edges only the runs on one side exist
    assert speed.factor(-1.0) == pytest.approx(hostspeed.REFERENCE_S / 0.01)
    assert speed.factor(1e9) == pytest.approx(hostspeed.REFERENCE_S / 0.04)


def test_host_speed_ticks_once_per_interval_up_to_neighbours():
    import hostspeed
    from hostspeed import HostSpeed

    clock = [0.0]
    speed = HostSpeed(timer=lambda: clock[0], work=lambda: None)
    k = hostspeed.NEIGHBOURS
    speed.tick()
    assert len(speed.starts) == k  # the first tick fills one side
    for _ in range(8):
        clock[0] += hostspeed.INTERVAL_S / 4
        speed.tick()
    assert len(speed.starts) == k + 2  # one per whole interval
    clock[0] += 100 * hostspeed.INTERVAL_S  # after a long op
    speed.tick()
    assert len(speed.starts) == 2 * k + 2

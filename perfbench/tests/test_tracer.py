"""The tracer rebinds entry points without changing any output."""

import gzip
import types

import pytest

import run
from tracer import ENTRY_POINTS, Tracer, layer_metrics
from workloads import Op, build


@pytest.fixture(scope="module")
def mods():
    return run.load_library()


def _cheap_ops():
    queries = [op for op in build("queries", 1) if " n=1 " in op.id or " n=2 " in op.id]
    tables = [op for op in build("tables", 1) if op.id.startswith("t1-right n=25 ")]
    return queries[:6] + tables


def _outputs(ops, mods, tracer=None):
    result = run.run_pass(ops, mods, None, tracer)
    assert result["failures"] == {}
    return result["outputs"]


def test_traced_outputs_are_byte_identical(mods):
    ops = _cheap_ops()
    plain = _outputs(ops, mods)
    tracer = Tracer()
    with tracer.install(mods):
        traced = _outputs(ops, mods, tracer)
    assert traced == plain
    assert tracer.missing == []
    metrics = layer_metrics(tracer.spans)
    assert metrics["special_fn.log_kv.calls"] > 0
    assert metrics["quad.adaptive.integrand_points"] == metrics["special_fn.log_kv.points"]
    assert metrics["asymptotics_lab.rows"] == 2
    assert metrics["sampler.draws"] == 0
    assert {s.op for s in tracer.spans} <= {op.id for op in ops}


def test_install_restores_every_entry_point(mods):
    before = {(m, a): getattr(mods[m], a) for m, a, *_ in ENTRY_POINTS}
    with Tracer().install(mods):
        assert all(getattr(mods[m], a) is not fn for (m, a), fn in before.items())
    assert all(getattr(mods[m], a) is fn for (m, a), fn in before.items())


def test_sampler_spans_count_draws_and_replicates(mods):
    core, sampler = mods["core_types"], mods["sampler"]

    def probe(mods):
        params = core.EnsembleParams(3, 1)
        out = sampler.matrix_probe_extremes(sampler.MatrixProbeConfig(params), 5, 40)
        ext = sampler.sample_extremes_independent(params, 5, 30)
        return {"max": float(out["max"].sum()), "ext": float(ext["max"].sum())}

    ops = [Op("probe", probe, lambda out: [])]
    plain = _outputs(ops, mods)
    tracer = Tracer()
    with tracer.install(mods):
        assert _outputs(ops, mods, tracer) == plain
    metrics = layer_metrics(tracer.spans)
    assert metrics["sampler.draws"] == 3 * 30
    assert metrics["sampler.probe.replicates"] == 40
    assert 0.0 <= metrics["sampler.probe.flagged_share"] <= 1.0


def test_missing_entry_points_count_zero():
    modules = {"exact_dist": types.SimpleNamespace(), "sampler": types.SimpleNamespace()}
    tracer = Tracer()
    with tracer.install(modules):
        pass
    assert "exact_dist.log_kv" in tracer.missing
    assert all(value == 0 for value in layer_metrics(tracer.spans).values())


def test_spans_written_out(tmp_path, mods):
    tracer = Tracer()
    with tracer.install(mods):
        _outputs(_cheap_ops()[:2], mods, tracer)
    path = tmp_path / "spans.tsv.gz"
    tracer.write(path)
    with gzip.open(path, "rt") as spans:
        lines = spans.read().splitlines()
    assert len(lines) == len(tracer.spans) + 1
    assert lines[0].split("\t")[:5] == ["index", "name", "start_s", "end_s", "parent"]

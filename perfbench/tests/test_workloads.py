"""Seeded generators, stored references and the mpmath oracle."""

import json
import math
import sys

import pytest

import run
from workloads import VARIANTS, WORKLOADS, build, compare_reference, pool, stored_part


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops(workload):
    one = [op.id for op in build(workload, 7)]
    two = [op.id for op in build(workload, 7)]
    other = [op.id for op in build(workload, 8)]
    assert one == two
    assert one != other
    assert len(one) == len(set(one))


def test_sizes_fixed_across_seeds():
    for workload in WORKLOADS:
        assert len({len(build(workload, seed)) for seed in range(5)}) == 1
    # at least ten queries lie beyond the p90 latency
    assert run.samples_beyond(len(build("queries", 0)), 90) >= 10


def test_every_seed_draws_from_the_stored_pool():
    stored = json.loads(run.REFERENCE.read_text())
    for workload in WORKLOADS:
        ids = {op.id for op in pool(workload)}
        assert set(stored[workload]) == ids
        for seed in range(100):
            assert {op.id for op in build(workload, seed)} <= ids


def test_pool_sizes():
    slots = {workload: len(build(workload, 0)) for workload in WORKLOADS}
    # tables: only the eight second-level rows vary with the seed
    assert len(pool("tables")) == slots["tables"] + 8 * (VARIANTS - 1)
    assert len(pool("queries")) == slots["queries"] * VARIANTS
    assert len(pool("crosscheck")) == slots["crosscheck"] * VARIANTS


def test_query_ranges():
    params = [op.id for op in build("queries", 3)]
    stats = {p.split()[0] for p in params}
    assert stats == {"max-ge", "max-le", "min-ge", "min-le", "index"}
    ns = [int(p.split("n=")[1].split()[0]) for p in params]
    xs = [float(p.split("x=")[1]) for p in params]
    assert min(ns) == 1 and max(ns) > 9000
    assert min(xs) < 2e-6 and max(xs) > 9.5


def test_compare_reference():
    stored = {"num:log_p": -100.0, "sha:draws": "ab"}
    assert compare_reference({"num:log_p": -100.0 * (1 + 5e-9), "sha:draws": "ab"}, stored) == []
    assert compare_reference({"num:log_p": -100.0 * (1 + 5e-8), "sha:draws": "ab"}, stored)
    assert compare_reference({"num:log_p": -100.0, "sha:draws": "ac"}, stored)
    assert compare_reference({"sha:draws": "ab"}, stored)
    assert stored_part({"num:a": 1.0, "sha:b": "x", "ks": 0.1}) == {"num:a": 1.0, "sha:b": "x"}


def _small_index_references():
    table = json.loads(run.REFERENCE.read_text())["queries"]
    small = []
    for op_id, outputs in sorted(table.items()):
        if not op_id.startswith("index "):
            continue
        fields = dict(part.split("=") for part in op_id.split()[1:])
        n, v, j, x = int(fields["n"]), int(fields["v"]), int(fields["j"]), float(fields["x"])
        if n <= 20 and v <= 5:
            small.append((n, v, j, x, outputs))
    return small


def test_small_index_references_match_mpmath_oracle():
    sys.path.insert(0, str(run.ROOT / "tests"))
    oracles = pytest.importorskip("oracles")
    cases = _small_index_references()
    assert len(cases) >= 16
    for n, v, j, x, outputs in cases[:: len(cases) // 12]:
        cdf = oracles.index_cdf_oracle(n, v, j, x)
        if cdf > 0.5:  # compare the smaller tail, which carries the digits
            want, got = math.log1p(-cdf), outputs["num:log_sf"]
        else:
            want, got = math.log(cdf), outputs["num:log_cdf"]
        assert got == pytest.approx(want, rel=1e-8, abs=1e-12), (n, v, j, x)

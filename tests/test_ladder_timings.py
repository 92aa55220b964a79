"""The per-call report of tools/ladder_timings.py, on synthetic runs."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(_TOOLS))  # ladder_timings imports bench_pairs from beside it
_SPEC = importlib.util.spec_from_file_location("ladder_timings", _TOOLS / "ladder_timings.py")
ladder_timings = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ladder_timings)


def _run(k, side, seconds, value="0x1.0p+0"):
    results = {name: {"value": value, "best_s": seconds} for name in ladder_timings.CASES}
    return {"round": k, "side": side, "results": results}


def test_rounds_pair_up_and_values_are_compared():
    runs = [
        _run(1, "parent", 1.0), _run(1, "change", 0.8),
        _run(2, "change", 0.9), _run(2, "parent", 1.2),
        _run(3, "parent", 1.1),  # no change run in round 3
    ]
    report = ladder_timings._report(runs)
    assert set(report) == set(ladder_timings.CASES)
    case = report[next(iter(ladder_timings.CASES))]
    assert case["parent"]["median"] == 1.1 and case["parent"]["runs"] == 3
    assert case["change"]["median"] == pytest.approx(0.85)
    assert (case["rounds"], case["change_better"]) == (2, 2)
    assert case["median_ratio"] == pytest.approx((0.8 + 0.75) / 2)
    assert case["same_value"]
    runs.append(_run(4, "change", 0.9, value="0x1.0000000000001p+0"))
    assert not ladder_timings._report(runs)[next(iter(ladder_timings.CASES))]["same_value"]


def test_cases_cover_the_large_ladder_calls():
    names = list(ladder_timings.CASES)
    assert sum(name.startswith("log_prob_max_le((1e6") for name in names) == 3
    assert sum(name.startswith("log_prob_min_ge((1e6") for name in names) == 3
    assert sum(name.startswith("ks_statistic_") for name in names) == 3
    # single queries that take the reverse sum, short single queries that
    # are mostly fixed per-run cost (v >= 1 unpaired, v = 0 with a window
    # past index 1, the max's complement, the paired form), and
    # crosscheck's index-law KS
    for name in (
        "log_prob_max_le((100, 0), 0.5)",
        "log_sf_index((1000, 40), 1000, 0.9)",
        "log_prob_min_ge((100, 0), 0.005)",
        "log_sf_index((20, 5), 20, 0.964)",
        "log_cdf_index((1058, 0), 1058, 1.002)",
        "log_prob_max_ge((50, 40), 2.0)",
        "log_prob_min_ge((10, 10000), 0.5)",
        "ks_statistic((5, 2), 3, 5e4 draws)",
    ):
        assert name in names
    assert len(names) == 17

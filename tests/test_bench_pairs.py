"""The paired-run report of tools/bench_pairs.py, on synthetic runs."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

import numpy as np
import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = {"wall_s": ("lower", 0.25), "ok_share": ("higher", 0.001)}


def _run(seed, side, wall, correct=True, returncode=0):
    return {
        "workload": "w", "seed": seed, "side": side, "returncode": returncode,
        "correct": correct, "metrics": {"wall_s": wall, "ok_share": 1.0},
    }


def test_bad_runs_stay_out_and_one_run_per_side_still_reports():
    runs = [
        _run(1, "parent", 1.0),
        _run(1, "change", 9.0, correct=False),
        _run(2, "parent", 5.0, returncode=1),
        _run(2, "change", 1.5),
        {"workload": "w", "seed": 3, "side": "change", "returncode": 1},  # no result line
    ]
    summary, pairs, bounds = bench_pairs._report(runs, ["w"], METRICS)
    assert summary["w"]["parent"]["wall_s"] == {"median": 1.0, "q1": None, "q3": None, "runs": 1}
    assert summary["w"]["change"]["wall_s"]["median"] == 1.5
    assert pairs["w"]["wall_s"]["pairs"] == 0
    verdict = bounds["w"]["wall_s"]
    assert verdict["relative"] == pytest.approx(0.5) and verdict["worse_beyond_bound"]
    assert bounds["w"]["ok_share"]["worse_beyond_bound"] is False


def test_no_good_run_on_a_side_gives_no_verdict():
    runs = [_run(1, "parent", 1.0), _run(1, "change", 1.0, correct=False)]
    summary, _, bounds = bench_pairs._report(runs, ["w"], METRICS)
    assert summary["w"]["change"]["wall_s"]["runs"] == 0
    assert bounds["w"]["wall_s"]["worse_beyond_bound"] is None


def test_within_bound_is_not_worse():
    runs = [
        _run(seed, side, 1.1 if side == "change" else 1.0)
        for seed in (1, 2, 3)
        for side in ("parent", "change")
    ]
    summary, pairs, bounds = bench_pairs._report(runs, ["w"], METRICS)
    assert summary["w"]["parent"]["wall_s"]["q1"] == 1.0
    assert pairs["w"]["wall_s"]["change_better"] == 0 and pairs["w"]["wall_s"]["pairs"] == 3
    assert pairs["w"]["wall_s"]["median_ratio"] == pytest.approx(1.1)
    assert bounds["w"]["wall_s"]["worse_beyond_bound"] is False


def test_a_run_that_times_out_is_a_failed_run(monkeypatch, tmp_path):
    def hang(cmd, **kwargs):
        assert kwargs["timeout"] == bench_pairs.RUN_TIMEOUT_S == 600
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(bench_pairs.subprocess, "run", hang)
    record = bench_pairs._run(tmp_path, "w", 1, 1.0)
    assert record["returncode"] is None and "timed out after 600 s" in record["stderr"]
    assert not bench_pairs._good(record)
    runs = [_run(1, "parent", 1.0), {"workload": "w", "seed": 1, "side": "change", **record}]
    summary, pairs, _ = bench_pairs._report(runs, ["w"], METRICS)
    assert summary["w"]["change"]["wall_s"]["runs"] == 0
    assert pairs["w"]["wall_s"]["pairs"] == 0


@pytest.mark.parametrize(
    "last_line",
    ["1.5", "[1, 2]", '{"metrics": {"wall_s": {"value": 1.0}}}',
     '{"correct": true, "metrics": {"wall_s": 1.0}}'],
    ids=["number", "list", "no-correct", "metric-not-an-object"],
)
def test_a_last_line_that_is_not_a_result_is_a_failed_run(monkeypatch, tmp_path, last_line):
    def malformed(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=f"# a comment\n{last_line}\n", stderr="boom")

    monkeypatch.setattr(bench_pairs.subprocess, "run", malformed)
    record = bench_pairs._run(tmp_path, "w", 1, 1.0)
    assert record["stderr"] == "boom" and "not a result" in record["note"]
    assert record["comments"] == ["# a comment"] and "metrics" not in record
    assert not bench_pairs._good(record)
    runs = [_run(1, "parent", 1.0), {"workload": "w", "seed": 1, "side": "change", **record}]
    summary, pairs, _ = bench_pairs._report(runs, ["w"], METRICS)
    assert summary["w"]["change"]["wall_s"]["runs"] == 0
    assert pairs["w"]["wall_s"]["pairs"] == 0


@pytest.mark.parametrize("setting", [None, "1"], ids=["unset", "set"])
def test_host_names_the_bytecode_setting_and_numpy(monkeypatch, setting):
    if setting is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", setting)
    host = bench_pairs._host()
    assert host["PYTHONDONTWRITEBYTECODE"] == setting
    assert host["numpy"] == np.__version__
    assert set(host) == {"cpus", "machine", "python", "numpy", "PYTHONDONTWRITEBYTECODE"}

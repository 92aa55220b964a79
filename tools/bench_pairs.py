"""Benchmark a change against its parent in alternating pairs of runs.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --out records/BENCH_<n>.json

Each side is a git revision, exported with ``git archive`` into a fresh
temporary directory, or an existing directory holding a source tree, used
as it is.  Every run is the side's own unmodified
``perfbench/run.py --workload <w> --seed <s> --seconds <n> --trace 0``,
started from the root of that side's tree, one run at a time, for every
workload and with the run length that ``BENCHMARK.json`` declares.  Seeds
run from 1 to ``--pairs``; on odd seeds the parent runs first, on even
seeds the change.  The output holds every run's ``#`` lines and metrics,
and per workload and end-to-end metric:

* ``summary``: each side's median and quartiles (``statistics.quantiles``,
  n=4; null with fewer than two runs) over its good runs;
* ``pairs``: on how many seeds both sides ran well and the change read
  better than the parent, and the median of the per-seed ratios change /
  parent;
* ``bounds``: the change's median relative to the parent's, and whether it
  is worse by more than the metric's ``BENCHMARK.json`` bound.

The ``host`` block names what else the timings depend on: cpus, machine,
python and numpy versions, and the ``PYTHONDONTWRITEBYTECODE`` setting.

A good run exits 0 and reports ``correct: true``.  Other runs, runs whose
last stdout line is not a result (recorded with the tail of their stderr
and a note), and runs stopped after ``RUN_TIMEOUT_S`` seconds (recorded
with a null return code), stay out of every statistic and are listed under
``failed``; the file is written whatever the number of good runs.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 600  # as perfbench/baseline.py


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def _tree(source: str, scratch: Path, name: str) -> tuple[Path, str]:
    """The directory to run ``source`` from, and how it is named in the output."""
    if Path(source).is_dir():
        return Path(source).resolve(), str(Path(source).resolve())
    rev = _git("rev-parse", "--short", source)
    where = scratch / name
    where.mkdir()
    archive = subprocess.run(
        ["git", "archive", rev], cwd=ROOT, check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(where)], input=archive, check=True)
    return where, rev


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    start = time.perf_counter()
    try:
        done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {
            "returncode": None,
            "elapsed_s": round(time.perf_counter() - start, 1),
            "comments": [],
            "stderr": f"timed out after {RUN_TIMEOUT_S} s",
        }
    lines = done.stdout.strip().splitlines()
    record = {
        "returncode": done.returncode,
        "elapsed_s": round(time.perf_counter() - start, 1),
        "comments": [line for line in lines if line.startswith("#")],
    }
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["stderr"] = done.stderr[-2000:]
        return record
    try:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        correct = result["correct"]
    except (TypeError, KeyError, AttributeError):
        record["stderr"] = done.stderr[-2000:]
        record["note"] = "the last stdout line is JSON but not a result"
        return record
    record["correct"] = correct
    record["metrics"] = metrics
    return record


def _host() -> dict:
    """What the runs' timings depend on besides the code.  With
    ``PYTHONDONTWRITEBYTECODE`` set (null when unset) every fresh process
    compiles the package from source, which moves ``setup_s``."""
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def _good(run: dict) -> bool:
    return run["returncode"] == 0 and run.get("correct") is True


def _summary(values: list[float]) -> dict:
    if not values:
        return {"median": None, "q1": None, "q3": None, "runs": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (None, None, None)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def _beyond(parent: float | None, change: float | None, better: str, bound: float) -> dict:
    """The change's median against the parent's: relative difference (absolute
    when the parent's is 0) and whether it is worse by more than ``bound``."""
    if parent is None or change is None:
        return {"bound": bound, "relative": None, "worse_beyond_bound": None}
    relative = (change - parent) / abs(parent) if parent else change - parent
    worse = relative if better == "lower" else -relative
    return {"bound": bound, "relative": relative, "worse_beyond_bound": worse > bound}


def _report(
    runs: list[dict], workloads: list[str], metrics: dict[str, tuple[str, float]]
) -> tuple[dict, dict, dict]:
    summary, pairs, bounds = {}, {}, {}
    for workload in workloads:
        mine = [r for r in runs if r["workload"] == workload and _good(r)]
        summary[workload], pairs[workload], bounds[workload] = {}, {}, {}
        for side in ("parent", "change"):
            summary[workload][side] = {
                name: _summary([r["metrics"][name] for r in mine if r["side"] == side])
                for name in metrics
            }
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["metrics"]
        both = [pair for pair in by_seed.values() if len(pair) == 2]
        for name, (better, bound) in metrics.items():
            ratios = [p["change"][name] / p["parent"][name] for p in both if p["parent"][name]]
            wins = sum(
                (p["change"][name] < p["parent"][name])
                if better == "lower"
                else (p["change"][name] > p["parent"][name])
                for p in both
            )
            pairs[workload][name] = {
                "change_better": wins,
                "pairs": len(both),
                "median_ratio": statistics.median(ratios) if ratios else None,
            }
            bounds[workload][name] = _beyond(
                summary[workload]["parent"][name]["median"],
                summary[workload]["change"][name]["median"],
                better,
                bound,
            )
    return summary, pairs, bounds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision or source directory")
    parser.add_argument("--change", required=True, help="git revision or source directory")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    metrics = {m["name"]: (m["better"], m["bound"]) for m in benchmark["end_to_end"]}

    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as scratch:
        trees = {}
        for side in ("parent", "change"):
            trees[side] = _tree(getattr(args, side), Path(scratch), side)
        for workload in workloads:
            for seed in range(1, args.pairs + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                for side in order:
                    record = _run(trees[side][0], workload, seed, seconds)
                    runs.append({"workload": workload, "seed": seed, "side": side, **record})
                    wall = record.get("metrics", {}).get("wall_s")
                    print(f"{workload} seed {seed} {side}: wall_s {wall}", flush=True)

    summary, pairs, bounds = _report(runs, workloads, metrics)
    out = {
        "description": (
            f"Parent and change runs of `python3 perfbench/run.py --workload <w> --seed <s> "
            f"--seconds {seconds:g} --trace 0` from tools/bench_pairs.py: each side from "
            f"its own copy of its source tree, one run at a time, seeds 1-{args.pairs} per "
            "workload, odd seeds parent first. Only runs that exit 0 with correct: true "
            "count; the others are listed in failed. summary holds per-side medians and "
            "quartiles (statistics.quantiles, n=4); pairs counts the seeds on which the "
            "change read better, with the median per-seed ratio change / parent; bounds "
            "says whether the change's median is worse than the parent's by more than the "
            "BENCHMARK.json bound, relative to the parent's median."
        ),
        "host": _host(),
        "parent": trees["parent"][1],
        "change": trees["change"][1],
        "summary": summary,
        "pairs": pairs,
        "bounds": bounds,
        "failed": [
            {key: r.get(key) for key in ("workload", "seed", "side", "returncode", "correct")}
            for r in runs
            if not _good(r)
        ],
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload, names in bounds.items():
        for name, verdict in names.items():
            if verdict["worse_beyond_bound"]:
                print(f"{workload} {name}: change median {verdict['relative']:+.1%}, "
                      f"worse than the bound {verdict['bound']}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

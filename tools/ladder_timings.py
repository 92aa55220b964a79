"""Time the exact ladder's largest calls on two trees, in alternating rounds.

    python3 tools/ladder_timings.py --parent HEAD~1 --change HEAD \
        --out records/BENCH_<n>_ladder.json

Each side is a git revision or a source directory, as in
``tools/bench_pairs.py``.  The calls (``CASES``) are the O(n) tail queries
``log_prob_max_le`` and ``log_prob_min_ge`` at n = 1e6, three large KS
statistics, three single queries that take the reverse sum (stopping at
indices 125, 1124 and 21), four short single queries whose time is mostly
the fixed numpy cost of one ladder run (v >= 1 unpaired, v = 0 with a window
from index 835, the max's complement, and the paired form), and the
index-law KS statistic of the benchmark's ``crosscheck`` workload,
``ks_statistic((5, 2), 3, .)`` on 5e4 draws (``sample_yj`` seed 1, drawn
once per process, untimed).  A round runs one
fresh process per side (odd rounds parent first) that imports the package
from that side's ``src/``, makes each call once untimed and then
``--repeats`` times, and reports each call's value (``float.hex``) and
fastest time.  The output holds, per call and side, the median and
quartiles (``statistics.quantiles``, n=4) of those fastest times over the
rounds; on how many rounds the change was faster and the median per-round
ratio change / parent; and whether every run of both sides gave the same
value.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_pairs import _host, _summary, _tree

CASES = {
    **{
        f"log_prob_max_le((1e6, {v}), 0.5)": f"log_prob_max_le(EnsembleParams(10**6, {v}), 0.5)"
        for v in (0, 5, 300)
    },
    **{
        f"log_prob_min_ge((1e6, {v}), 2.0)": f"log_prob_min_ge(EnsembleParams(10**6, {v}), 2.0)"
        for v in (0, 5, 300)
    },
    "ks_statistic_max((2000, 0), linspace(0.95, 1.1, 2000))":
        "ks_statistic_max(EnsembleParams(2000, 0), np.linspace(0.95, 1.1, 2000))",
    "ks_statistic_max((2e4, 0), linspace(0.98, 1.05, 1000))":
        "ks_statistic_max(EnsembleParams(20000, 0), np.linspace(0.98, 1.05, 1000))",
    "ks_statistic_min((2000, 0), linspace(0.002, 0.02, 2000))":
        "ks_statistic_min(EnsembleParams(2000, 0), np.linspace(0.002, 0.02, 2000))",
    "log_prob_max_le((100, 0), 0.5)": "log_prob_max_le(EnsembleParams(100, 0), 0.5)",
    "log_sf_index((1000, 40), 1000, 0.9)": "log_sf_index(EnsembleParams(1000, 40), 1000, 0.9)",
    "log_prob_min_ge((100, 0), 0.005)": "log_prob_min_ge(EnsembleParams(100, 0), 0.005)",
    "log_sf_index((20, 5), 20, 0.964)": "log_sf_index(EnsembleParams(20, 5), 20, 0.964)",
    "log_cdf_index((1058, 0), 1058, 1.002)":
        "log_cdf_index(EnsembleParams(1058, 0), 1058, 1.002)",
    "log_prob_max_ge((50, 40), 2.0)": "log_prob_max_ge(EnsembleParams(50, 40), 2.0)",
    "log_prob_min_ge((10, 10000), 0.5)": "log_prob_min_ge(EnsembleParams(10, 10000), 0.5)",
    "ks_statistic((5, 2), 3, 5e4 draws)": "ks_statistic(EnsembleParams(5, 2), 3, draws)",
}

# Runs in the side's tree: argv is the JSON of CASES and the repeat count.
_CHILD = """
import json, sys, time
import numpy as np
from chiral_ldp import (
    EnsembleParams, ks_statistic, ks_statistic_max, ks_statistic_min, log_cdf_index,
    log_prob_max_ge, log_prob_max_le, log_prob_min_ge, log_sf_index, sample_yj,
)
cases, repeats, out = json.loads(sys.argv[1]), int(sys.argv[2]), {}
draws = sample_yj(EnsembleParams(5, 2), 3, 1, 50_000).values
for name, call in cases.items():
    value, times = eval(call), []
    for _ in range(repeats):
        start = time.perf_counter()
        eval(call)
        times.append(time.perf_counter() - start)
    out[name] = {"value": float(value).hex(), "best_s": min(times)}
print(json.dumps(out))
"""


def _run(tree: Path, repeats: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(CASES), str(repeats)],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def _report(runs: list[dict]) -> dict:
    cases = {}
    for name in CASES:
        best = {
            side: {r["round"]: r["results"][name]["best_s"] for r in runs if r["side"] == side}
            for side in ("parent", "change")
        }
        both = sorted(set(best["parent"]) & set(best["change"]))
        ratios = [best["change"][k] / best["parent"][k] for k in both]
        values = {r["results"][name]["value"] for r in runs}
        cases[name] = {
            **{side: _summary(list(best[side].values())) for side in best},
            "change_better": sum(ratio < 1.0 for ratio in ratios),
            "rounds": len(both),
            "median_ratio": statistics.median(ratios) if ratios else None,
            "same_value": len(values) == 1,
        }
    return cases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision or source directory")
    parser.add_argument("--change", required=True, help="git revision or source directory")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.rounds < 1 or args.repeats < 1:
        parser.error("--rounds and --repeats must be at least 1")

    runs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="ladder_timings_") as scratch:
        sides = ("parent", "change")
        trees = {side: _tree(getattr(args, side), Path(scratch), side) for side in sides}
        for k in range(1, args.rounds + 1):
            for side in sides if k % 2 else sides[::-1]:
                results = _run(trees[side][0], args.repeats)
                runs.append({"round": k, "side": side, "results": results})
                print(f"round {k} {side} done", flush=True)

    out = {
        "description": (
            "Fastest of --repeats timed calls (after one untimed call) per fresh process, "
            f"from tools/ladder_timings.py; {args.rounds} rounds, one process per side per "
            "round, odd rounds parent first. Per call: per-side median and quartiles over "
            "the rounds, the rounds on which the change was faster, the median per-round "
            "ratio change / parent, and whether every run gave the same value (float.hex)."
        ),
        "host": _host(),
        "parent": trees["parent"][1],
        "change": trees["change"][1],
        "repeats": args.repeats,
        "cases": _report(runs),
        "runs": runs,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    for name, case in out["cases"].items():
        print(f"{name}: {case['parent']['median'] * 1e3:.3f} -> "
              f"{case['change']['median'] * 1e3:.3f} ms, "
              f"same value {case['same_value']}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

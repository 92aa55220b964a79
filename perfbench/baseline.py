"""Run the benchmark over several seeds and record medians and spreads.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload in ``BENCHMARK.json``, runs ``run.py`` for ``run_seconds``
once per seed (untraced, one process at a time) and once traced with the
first seed.  For every metric it records
the values, their median and quartiles, and the spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median.  The file also holds the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import BENCHMARK, HERE, ROOT

RUN_TIMEOUT_S = 600


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,7"`` to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # printed, not gated: op latency percentiles, "# op_p50_ms = 36.9 ms  (...)",
    # and times before the host-speed correction, "# uncorrected wall_s = 15.5 s  (...)"
    for line in lines:
        if line.startswith(("# op_p", "# uncorrected ")):
            name, _, rest = line[2:].partition(" = ")
            value, unit = rest.split()[:2]
            result["metrics"][name.replace(" ", "_")] = {"value": float(value), "unit": unit}
    result["run_s"] = elapsed
    result["seed"] = seed
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
        out[name] = entry
    return out


def main(argv=None) -> int:
    bench = json.loads(BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"machine": machine(), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {runs[-1]['run_s']:.1f} s, correct={runs[-1]['correct']}", flush=True)
        entry = {
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed", "run_s")} for r in runs],
            "end_to_end": summarize(runs),
        }
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"  failed_share   {failed / attempted:.6g} ({failed} of {attempted} op runs)")
        for name, m in entry["end_to_end"].items():
            limit = bounds.get(name)
            flag = "" if limit is None or m.get("spread", 0.0) <= limit / 3 else "  ABOVE bound/3"
            print(f"  {name:14s} median {m['median']:.6g} {m['unit']}  spread {m.get('spread', 0.0):.4f}"
                  f"  (bound {limit}){flag}", flush=True)
        traced = run_once(workload, args.seeds[0], seconds, 1)
        entry["traced"] = {
            "seed": args.seeds[0],
            "correct": traced["correct"],
            "run_s": traced["run_s"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"  traced seed {args.seeds[0]}: {traced['run_s']:.1f} s, correct={traced['correct']}", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as out:
            json.dump(report, out, indent=1, sort_keys=True)
            out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of chiral_ldp: one workload, one seed, one process.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
The run measures set-up in fresh processes, then executes passes over the
workload's ops (see ``workloads.py``) until ``--seconds`` are used up: at
least one whole pass, and the last pass stops before the first op that
would not finish in time.  Every op's outputs are checked; an op that raises, returns
a non-finite value, fails its check, differs from its stored reference
(``reference.json``) or has none counts as failed.

With ``--trace 0`` the run reports the end-to-end metrics, and prints the
median and p90 op latency.  Its times are corrected to a reference host
speed with a calibration kernel run between ops (``hostspeed.py``); the
uncorrected times are printed on ``#`` lines.  With
``--trace 1`` it alternates untraced and traced passes, requires their
outputs to be byte-identical, and reports the per-layer metrics of the
traced passes (``tracer.py``) plus the tracing overhead.

Human-readable lines start with ``#``; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
SPAN_DIR = ROOT / ".bench_out"

# One process, one thread: BLAS/OpenMP pools are capped before numpy loads,
# and CHIRAL_LDP_THREADS stays at the library's default.
THREAD_CAPS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60.0
# Import the package and its CLI, then make the first call that fills the
# lazy caches (Gauss-Legendre rules); prints seconds and the package path.
SETUP_CODE = """
import time
start = time.perf_counter()
import chiral_ldp
import chiral_ldp.cli
from chiral_ldp import Direction, EnsembleParams, Statistic, TailQuery, log_prob
log_prob(EnsembleParams(2, 1), TailQuery(Statistic.MAX_SQ, Direction.GE, 1.5))
print(time.perf_counter() - start)
print(chiral_ldp.__file__)
"""

MODULES = (
    "core_types",
    "special_fn",
    "_quad",
    "exact_dist",
    "tau_geometry",
    "rate_functions",
    "sampler",
    "asymptotics_lab",
)


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly above the q-th percentile."""
    return count - math.floor((count - 1) * q / 100.0) - 1


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CHIRAL_LDP_THREADS"}
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(speed) -> list[tuple[float, float]]:
    """Start and seconds of importing and warming the package, once per fresh
    process; ``speed`` samples the host around each process."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed.tick()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up process failed:\n{proc.stderr.strip()}")
        seconds, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"set-up imported chiral_ldp from {path}, not from {SRC}")
        times.append((start, float(seconds)))
    return times


def load_library() -> dict:
    """Import chiral_ldp from this checkout's src/ and return its modules."""
    if not (SRC / "chiral_ldp" / "__init__.py").is_file():
        raise BenchError(f"no chiral_ldp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import importlib

    package = importlib.import_module("chiral_ldp")
    if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported chiral_ldp from {package.__file__}, not from {SRC}")
    importlib.import_module("chiral_ldp.cli")
    mods = {name: importlib.import_module(f"chiral_ldp.{name}") for name in MODULES}
    core = mods["core_types"]
    query = core.TailQuery(core.Statistic.MAX_SQ, core.Direction.GE, 1.5)
    mods["exact_dist"].log_prob(core.EnsembleParams(2, 1), query)
    return mods


def load_reference(workload: str) -> dict:
    if not REFERENCE.is_file():
        raise BenchError(f"no stored reference outputs at {REFERENCE}")
    return json.loads(REFERENCE.read_text())[workload]


def declared_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    if not BENCHMARK.is_file():
        raise BenchError(f"no {BENCHMARK.name} at {ROOT}")
    bench = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def with_units(values: dict[str, float], units: dict[str, str]) -> dict:
    missing = sorted(values.keys() - units.keys())
    if missing:
        raise BenchError(f"metrics not declared in {BENCHMARK.name}: {', '.join(missing)}")
    return {name: (value, units[name]) for name, value in values.items()}


def run_pass(
    ops, mods: dict, reference: dict | None, tracer=None, latest_start=None, speed=None
) -> dict:
    """Execute the ops once; return wall time, op starts and latencies,
    outputs and failures.

    With a ``reference`` table, an op must match its stored outputs, and an
    op with no stored outputs fails.  With ``latest_start`` (a
    ``perf_counter`` time per op), the pass stops before the first op that
    would start later than its time, so it may cover only a prefix of ``ops``.
    With a ``speed`` (``hostspeed.HostSpeed``), the host is sampled between ops.
    """
    from workloads import compare_reference

    starts, latencies, outputs, failures = [], [], [], {}
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if latest_start is not None and time.perf_counter() > latest_start[i]:
            break
        if speed is not None:
            speed.tick()
        if tracer is not None:
            tracer.op = op.id
        t0 = time.perf_counter()
        starts.append(t0)
        try:
            out = op.run(mods)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            latencies.append(time.perf_counter() - t0)
            outputs.append(None)
            failures[op.id] = [f"raised {type(exc).__name__}: {exc}"]
            continue
        latencies.append(time.perf_counter() - t0)
        outputs.append(json.dumps(out, sort_keys=True))
        problems = op.check(out)
        if reference is not None:
            if op.id in reference:
                problems += compare_reference(out, reference[op.id])
            else:
                problems.append("no stored reference output")
        if problems:
            failures[op.id] = problems
    return {
        "wall": time.perf_counter() - start,
        "starts": starts,
        "latencies": latencies,
        "outputs": outputs,
        "failures": failures,
    }


def end_to_end(
    passes: list[list[float]], setup: list[float], attempted: int, failed: int
) -> tuple[dict, dict]:
    """The gated end-to-end metrics, and op latency percentiles (ms) to print.

    ``passes`` holds the op latencies of each pass.  Each op's latency is
    its median over the passes that ran it, and the pass time is the sum of
    those medians.  The op percentiles are printed but not gated: on
    ``tables`` and ``crosscheck`` each op is timed only two or three times
    per run.
    """
    import numpy as np

    per_op = [statistics.median(p[i] for p in passes if i < len(p)) for i in range(len(passes[0]))]
    gated = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(per_op),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - failed / attempted,
    }
    latency = {
        "op_p50_ms": 1e3 * float(np.percentile(per_op, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(per_op, 90)),
    }
    return gated, latency


def per_layer(traced: list[dict], untraced: list[dict]) -> dict:
    from tracer import layer_metrics

    runs = [layer_metrics(p["spans"]) for p in traced]
    metrics = {name: statistics.median(r[name] for r in runs) for name in runs[0]}
    metrics["trace.overhead_share"] = statistics.median(p["wall"] for p in traced) / statistics.median(
        p["wall"] for p in untraced
    ) - 1.0
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    from hostspeed import HostSpeed
    from tracer import Tracer
    from workloads import build

    units = declared_units()
    mods = load_library()
    speed = None if trace else HostSpeed()
    setup = [] if trace else measure_setup(speed)
    ops = build(workload, seed)
    reference = load_reference(workload)

    untraced, traced = [], []
    end = time.perf_counter() + seconds
    if trace:
        # alternate whole untraced and traced passes while another pair fits
        while True:
            untraced.append(run_pass(ops, mods, reference))
            tracer = Tracer()
            with tracer.install(mods):
                result = run_pass(ops, mods, reference, tracer)
            result["spans"] = tracer.spans
            result["missing"] = tracer.missing
            for i, (a, b) in enumerate(zip(untraced[0]["outputs"], result["outputs"])):
                if a != b:
                    result["failures"].setdefault(ops[i].id, []).append(
                        "traced output differs from the untraced output"
                    )
            if not traced:
                tracer.write(SPAN_DIR / f"spans-{workload}-seed{seed}.tsv.gz")
            traced.append(result)
            cycle = statistics.median(p["wall"] for p in untraced) + statistics.median(
                p["wall"] for p in traced
            )
            if time.perf_counter() + cycle > end:
                break
    else:
        # whole passes, then a last one cut short at the end of the run, so
        # that every run measures for about ``seconds`` whatever its pass time
        untraced.append(run_pass(ops, mods, reference, speed=speed))
        latest_start = [end - t for t in untraced[0]["latencies"]]
        while len(untraced[-1]["latencies"]) == len(ops):
            result = run_pass(ops, mods, reference, latest_start=latest_start, speed=speed)
            if not result["latencies"]:
                break
            untraced.append(result)
        speed.tick()

    passes = untraced + traced
    for p in untraced[1:]:
        for i, (a, b) in enumerate(zip(untraced[0]["outputs"], p["outputs"])):
            if a != b:
                p["failures"].setdefault(ops[i].id, []).append("output changed between passes")
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    info = {
        "ops": len(ops),
        "passes": len(untraced),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "failures": {k: v for p in passes for k, v in p["failures"].items()},
        "missing": traced[0]["missing"] if traced else [],
        "walls": [p["wall"] for p in passes],
    }
    if trace:
        return with_units(per_layer(traced, untraced), units), info
    corrected = [
        [lat * speed.factor(t) for lat, t in zip(p["latencies"], p["starts"])] for p in untraced
    ]
    setup_corrected = [s * speed.factor(t) for t, s in setup]
    metrics, info["latency"] = end_to_end(corrected, setup_corrected, attempted, failed)
    raw, _ = end_to_end([p["latencies"] for p in untraced], [s for _, s in setup], attempted, failed)
    info["uncorrected"] = {name: raw[name] for name in ("setup_s", "wall_s")}
    info["host_factor"] = statistics.median(speed.factor(t) for t in speed.starts)
    return with_units(metrics, units), info


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    os.environ.update(THREAD_CAPS)
    os.environ.pop("CHIRAL_LDP_THREADS", None)
    args = parse_args(argv)
    try:
        metrics, info = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(
        f"# {info['ops']} ops x {info['passes']} untraced + {info['traced_passes']} traced "
        f"passes; {info['failed']} of {info['attempted']} op runs failed "
        f"(failed_share {info['failed'] / info['attempted']:.6g})"
    )
    print("# pass times (s): " + " ".join(f"{w:.3f}" for w in info["walls"]))
    for op_id, problems in sorted(info["failures"].items()):
        print(f"# FAILED {op_id}: {'; '.join(problems)}")
    for name in info["missing"]:
        print(f"# entry point {name} not found; its metrics read 0")
    for name, value in info.get("latency", {}).items():
        beyond = samples_beyond(info["ops"], 90)
        note = f"{info['ops']} ops" + (f", {beyond} beyond p90" if name == "op_p90_ms" else "")
        print(f"# {name} = {value:.6g} ms  ({note}; printed, not gated)")
    for name, value in info.get("uncorrected", {}).items():
        print(f"# uncorrected {name} = {value:.6g} s  (host speed factor {info['host_factor']:.4g})")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    result = {
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

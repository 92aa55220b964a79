"""Seeded workloads: the ops each benchmark run executes, and their checks.

Every workload is a closed loop with one client and no think time: ops run
one after another in a single process.  The seed only picks the inputs; the
library sees nothing but those inputs.

Inputs come from a fixed pool.  A workload is a list of slots (a table row,
a query anchor, a cross-check case); each slot has ``VARIANTS`` variants of
its inputs, and the seed picks one variant per slot.  ``pool(workload)``
lists every op any seed can produce, so ``reference.json`` stores an output
for each of them and every run, whatever its seed, is checked against stored
values.

* ``tables``: every convergence experiment on its default grid at its
  default level, its smallest grid point also at a second, seeded level near
  it, plus ``clt_check`` at n=2000 and n=20000.  An op is one table row.  Long product scans over
  many indices; the sampler is idle.
* ``queries``: single ``log_prob`` queries for all four statistic/side pairs
  and single-index ``log_sf_index``/``log_cdf_index`` queries.  Each query
  touches few indices, so per-query set-up and the ``log_kv`` route choice
  dominate.
* ``crosscheck``: the Monte Carlo cross-checks (surrogate sampler, matrix
  probe, KS statistics) against the exact laws.  The sampler, probe and KS
  layers do most of the work.

An op returns a flat dict of outputs.  Keys starting ``num:`` are exact
values compared with stored references to a relative tolerance, keys
starting ``sha:`` are checksums that must match bit for bit, and the rest
are checked only by the op's own seed-independent checks.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

__all__ = ["WORKLOADS", "VARIANTS", "Op", "build", "pool", "compare_reference", "stored_part", "REL_TOL"]

WORKLOADS = ("tables", "queries", "crosscheck")
VARIANTS = 8

# Stored exact values must agree to this relative tolerance (log K_v is
# documented to 1e-8 relative, the tail quadrature to 1e-10).
REL_TOL = 1e-8
_ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class Op:
    """One timed unit of work: a table row, a query or a cross-check."""

    id: str
    run: Callable[[dict], dict]  # modules by name -> outputs
    check: Callable[[dict], list[str]]  # outputs -> failure messages


def build(workload: str, seed: int) -> list[Op]:
    """The ops of ``workload`` for ``seed``; the same seed gives the same ops."""
    rng = random.Random(f"{workload}/{seed}")
    ops = [slot(rng.randrange(VARIANTS)) for slot in _slots(workload)]
    if workload == "queries":
        rng.shuffle(ops)
    return ops


def pool(workload: str) -> list[Op]:
    """Every op that ``build(workload, seed)`` can return, for any seed."""
    ops = {}
    for slot in _slots(workload):
        for variant in range(VARIANTS):
            op = slot(variant)
            ops.setdefault(op.id, op)
    return list(ops.values())


def _slots(workload: str) -> list[Callable[[int], Op]]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return {"tables": _tables, "queries": _queries, "crosscheck": _crosscheck}[workload]()


def _variant_rng(slot: object, variant: int) -> random.Random:
    """The generator of one slot's variant; it does not depend on the seed."""
    return random.Random(f"{slot!r}/{variant}")


def _finite(outputs: dict, *keys: str) -> list[str]:
    return [f"{k} = {outputs[k]!r} is not finite" for k in keys if not math.isfinite(outputs[k])]


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

# The library's default grid per theorem, pinned here so that the workload
# stays the same if the library's defaults change.
_THEOREM_GRIDS = {
    "t1-right": ((25, 0), (50, 0), (100, 0), (200, 0)),
    "t1-left": ((25, 0), (50, 0), (100, 0)),
    "t2": ((25, 0), (50, 0), (100, 0)),
    "t3-right": ((1000, 0), (10000, 0)),
    "t3-left": ((300, 0), (1000, 0), (3000, 0)),
    "t4-item1": ((1000, 0), (10000, 0)),
    "t4-item2": ((1000, 80), (2000, 160), (4000, 320)),
    "t4-item3": ((200, 200), (500, 500), (1000, 1000)),
}
# Default level per theorem.  The seeded second level lies within 3% of it,
# so a row's cost, which depends strongly on the level, moves little with
# the seed.  Only the smallest grid point gets the second level, which keeps
# a pass short enough for two in one run.
_THEOREM_LEVELS = {
    "t1-right": 1.5,
    "t1-left": 0.5,
    "t2": 2.0,
    "t3-right": 1.0,
    "t3-left": 1.0,
    "t4-item1": 1.0,
    "t4-item2": 1.0,
    "t4-item3": 1.0,
}
_SECOND_LEVEL_SPREAD = 1.03
_CLT_SIZES = (2000, 20000)


def _table_row(tag: str, n: int, v: int, x: float, mods: dict) -> dict:
    (row,) = mods["asymptotics_lab"].converge_table(tag, grid=((n, v),), x=x)
    return {
        "num:exact": float(row.exact),
        "num:rate_target": float(row.rate_target),
        "scaled_gap": float(row.scaled_gap),
    }


def _check_table_row(outputs: dict) -> list[str]:
    bad = _finite(outputs, *outputs)
    if not bad and not outputs["num:exact"] > 0.0:
        bad.append(f"decay exponent {outputs['num:exact']!r} is not positive")
    return bad


def _clt(n: int, mods: dict) -> dict:
    rows = mods["asymptotics_lab"].clt_check(n, 0)
    out = {}
    for i, row in enumerate(rows):
        out[f"num:exact{i}"] = float(row.exact)
        out[f"abs_gap{i}"] = float(row.abs_gap)
    return out


def _check_clt(outputs: dict) -> list[str]:
    bad = []
    for key, value in outputs.items():
        if key.startswith("num:") and not 0.0 < value < 1.0:
            bad.append(f"{key} = {value!r} is not a probability in (0, 1)")
    return bad


def _row_op(tag: str, n: int, v: int, x: float) -> Op:
    return Op(f"{tag} n={n} v={v} x={x!r}", partial(_table_row, tag, n, v, x), _check_table_row)


def _second_level(tag: str, n: int, v: int, variant: int) -> Op:
    # variants spaced evenly in log between 1/spread and spread times the default
    step = (2 * variant + 1) / VARIANTS - 1.0
    return _row_op(tag, n, v, _THEOREM_LEVELS[tag] * _SECOND_LEVEL_SPREAD**step)


def _tables() -> list[Callable[[int], Op]]:
    slots = []
    for tag, grid in _THEOREM_GRIDS.items():
        for n, v in grid:
            op = _row_op(tag, n, v, _THEOREM_LEVELS[tag])
            slots.append(lambda variant, op=op: op)
        slots.append(partial(_second_level, tag, *grid[0]))
    for n in _CLT_SIZES:
        op = Op(f"clt n={n} v=0", partial(_clt, n), _check_clt)
        slots.append(lambda variant, op=op: op)
    return slots


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

# Anchor points (n, v, x) per statistic/side pair, spanning n in [1, 1e4],
# v in [0, 1e4] and x in [1e-6, 10].  A variant moves n and v by up to about
# 10% and x by 2%, which keeps each query's cost close to its anchor's, so
# the pass time does not swing with the seed.  No anchor has v within 10% of
# 30, where log_kv switches route and a query's cost changes tenfold.  The
# (15, 10, 1e-3) minimum is the slow small-argument integral route.
_PRODUCT_ANCHORS = {
    ("max", "ge"): (
        (1, 0, 1e-6), (1, 10000, 0.3), (2, 1, 1.5), (5, 0, 3.0), (10, 3, 10.0),
        (10, 1000, 1.2), (25, 0, 1.5), (50, 40, 2.0), (100, 0, 1.5), (1000, 0, 1.5),
        (3000, 0, 1.2), (10000, 0, 3.0),
    ),
    ("max", "le"): (
        (1, 0, 0.5), (1, 40, 1e-6), (10, 0, 1.0), (10, 40, 0.5), (20, 3, 1.5),
        (50, 1000, 0.9), (100, 0, 1.0), (1000, 0, 1.0), (1000, 100, 1.3),
        (3000, 10, 1.3), (10000, 0, 1.3), (10000, 10000, 1.2),
    ),
    ("min", "ge"): (
        (1, 0, 1e-6), (1, 3, 10.0), (3, 0, 0.5), (10, 0, 1.0), (10, 40, 1e-3),
        (10, 10000, 0.5), (30, 3, 1.0), (100, 0, 1.0), (15, 10, 1e-3),
        (1000, 100, 1e-3), (10000, 100, 1e-6), (10000, 3000, 1e-3),
    ),
    ("min", "le"): (
        (1, 0, 0.01), (1, 1000, 1.5), (10, 3, 1.5), (10, 1000, 10.0), (30, 0, 1.5),
        (1000, 3000, 1e-6), (1000, 60, 0.1), (10000, 100, 1e-3), (10000, 3000, 1e-6),
        (30, 40, 0.5), (3000, 1000, 0.01), (50, 5, 2.0),
    ),
}

# Anchor points (n, v, j, x) for single-index queries.  The first block has
# n <= 20 and v <= 5, small enough for the mpmath oracle to confirm.
_INDEX_ANCHORS = (
    (1, 0, 1, 0.5), (1, 0, 1, 2.0), (2, 1, 1, 0.3), (2, 1, 2, 1.0),
    (3, 0, 2, 0.7), (3, 2, 3, 1.5), (5, 0, 1, 0.1), (5, 2, 3, 0.8),
    (5, 5, 5, 1.2), (8, 1, 4, 0.6), (10, 0, 10, 1.0), (10, 3, 1, 0.05),
    (12, 4, 6, 0.9), (15, 2, 15, 1.3), (20, 0, 7, 0.4), (20, 5, 20, 0.95),
    (1, 10000, 1, 1e-6), (1, 40, 1, 3.0), (10, 100, 5, 0.5), (30, 0, 30, 1.1),
    (50, 10, 25, 0.02), (100, 0, 50, 0.8), (100, 1000, 100, 1.0), (200, 40, 1, 1e-3),
    (300, 0, 300, 1.0), (500, 1000, 250, 2.0), (1000, 0, 1000, 1.0), (1000, 0, 1, 0.001),
    (1000, 40, 500, 0.7), (2000, 5, 2000, 1.05), (3000, 3000, 1500, 1.0),
    (5000, 0, 2500, 0.7), (10000, 0, 10000, 1.0), (10000, 10000, 10000, 1.0),
    (10000, 20, 1, 1e-6), (10000, 300, 5000, 0.5), (7000, 7000, 3500, 1.4),
    (400, 2, 100, 0.25), (60, 60, 30, 0.6), (2, 9000, 2, 5.0), (4, 25, 2, 10.0),
    (150, 0, 150, 1.5), (800, 800, 400, 0.9), (25, 1, 12, 0.45), (6, 3, 6, 3.0),
    (9000, 50, 9000, 0.99), (40, 4000, 20, 0.2), (250, 8, 125, 1e-4),
    (3, 1, 3, 2.5), (7, 0, 5, 0.9), (500, 45, 1, 0.3), (2500, 500, 2500, 1.2),
)

# A variant moves an anchor's n and v by a factor in [1/1.1, 1.1], x by 2%.
_SIZE_SPREAD = 1.1
_LEVEL_SPREAD = 1.02


def _jitter_int(rng: random.Random, value: int, lowest: int) -> int:
    if value == 0:
        return 0
    f = math.exp(rng.uniform(-math.log(_SIZE_SPREAD), math.log(_SIZE_SPREAD)))
    return max(lowest, round(value * f))


def _jitter_level(rng: random.Random, x: float) -> float:
    return x * math.exp(rng.uniform(-math.log(_LEVEL_SPREAD), math.log(_LEVEL_SPREAD)))


def _product_query(stat: str, side: str, n: int, v: int, x: float, mods: dict) -> dict:
    core = mods["core_types"]
    query = core.TailQuery(
        core.Statistic.MAX_SQ if stat == "max" else core.Statistic.MIN_SQ,
        core.Direction.GE if side == "ge" else core.Direction.LE,
        x,
    )
    return {"num:log_p": float(mods["exact_dist"].log_prob(core.EnsembleParams(n, v), query))}


def _check_log_p(outputs: dict) -> list[str]:
    bad = _finite(outputs, *(k for k in outputs if k.startswith("num:")))
    bad += [f"{k} = {val!r} > 0" for k, val in outputs.items() if val > 0.0]
    return bad


def _index_query(n: int, v: int, j: int, x: float, mods: dict) -> dict:
    params = mods["core_types"].EnsembleParams(n, v)
    exact = mods["exact_dist"]
    return {
        "num:log_sf": float(exact.log_sf_index(params, j, x)),
        "num:log_cdf": float(exact.log_cdf_index(params, j, x)),
    }


def _check_index(outputs: dict) -> list[str]:
    # sf and cdf come from one quadrature today, so the complement holds by
    # construction; the check guards a change that computes both sides.
    bad = _check_log_p(outputs)
    if not bad:
        total = float(np.logaddexp(outputs["num:log_sf"], outputs["num:log_cdf"]))
        if abs(total) > 1e-9:
            bad.append(f"log(sf + cdf) = {total!r}: sf and cdf are not complements")
    return bad


def _product_op(stat: str, side: str, anchor: tuple, variant: int) -> Op:
    rng = _variant_rng((stat, side, anchor), variant)
    n0, v0, x0 = anchor
    n = _jitter_int(rng, n0, 1)
    v = _jitter_int(rng, v0, 0)
    x = _jitter_level(rng, x0)
    return Op(
        f"{stat}-{side} n={n} v={v} x={x!r}",
        partial(_product_query, stat, side, n, v, x),
        _check_log_p,
    )


def _index_op(anchor: tuple, variant: int) -> Op:
    rng = _variant_rng(("index", anchor), variant)
    n0, v0, j0, x0 = anchor
    n = _jitter_int(rng, n0, 1)
    v = _jitter_int(rng, v0, 0)
    j = min(n, _jitter_int(rng, j0, 1))
    x = _jitter_level(rng, x0)
    return Op(f"index n={n} v={v} j={j} x={x!r}", partial(_index_query, n, v, j, x), _check_index)


def _queries() -> list[Callable[[int], Op]]:
    slots = [
        partial(_product_op, stat, side, anchor)
        for (stat, side), anchors in _PRODUCT_ANCHORS.items()
        for anchor in anchors
    ]
    return slots + [partial(_index_op, anchor) for anchor in _INDEX_ANCHORS]


# ---------------------------------------------------------------------------
# crosscheck
# ---------------------------------------------------------------------------

# KS bounds of the `verify` battery, kept at the same significance when the
# sample size differs: bound(N) = bound_verify * sqrt(N_verify / N).
_SAMPLER_KS = (0.006, 200_000)
_PROBE_KS = (0.035, 5_000)
# Binomial z-scores beyond this are a failure; |z| > 5 happens with
# probability below 1e-6 for a correct law, so any seed passes.
_Z_MAX = 5.0

# Sizes are below `verify`'s so that a pass takes a few seconds and several
# fit in one run; the KS bounds are rescaled to them.
_YJ_CASE = ((5, 2), 3, 50_000)  # (n, v), j, draws: `sample --ks`
# ks_statistic_max holds n * 2^15 log_kv points per sample point in memory.
_PROBE_KS_CASE = ((3, 1), 400)
# Probe sizes and levels where the exact max cdf is about 0.2, 0.5 and 0.75.
_PROBE_LEVEL_CASES = (
    ((20, 3), 500, (1.0, 1.075, 1.15)),
    ((64, 0), 100, (1.025, 1.075, 1.125)),
)
# `verify` sampler-vs-product-law, at 10k of its draws.
_EXTREMES_CASE = ((10, 0), 10_000, 1.1)


def _sha(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype="<f8").tobytes()).hexdigest()


def _ks_bound(reference: tuple[float, int], count: int) -> float:
    bound, size = reference
    return bound * math.sqrt(size / count)


def _z_score(sample: np.ndarray, level: float, log_p: float) -> float:
    p = math.exp(log_p)
    hit = float(np.mean(sample <= level))
    return (hit - p) / math.sqrt(p * (1.0 - p) / sample.size)


def _sample_ks(seed: int, mods: dict) -> dict:
    (n, v), j, count = _YJ_CASE
    params = mods["core_types"].EnsembleParams(n, v)
    sampler = mods["sampler"]
    values = sampler.sample_yj(params, j, seed, count).values
    return {
        "sha:draws": _sha(values),
        "ks": float(sampler.ks_statistic(params, j, values)),
        "ks_bound": _ks_bound(_SAMPLER_KS, count),
    }


def _probe_ks(seed: int, mods: dict) -> dict:
    (n, v), count = _PROBE_KS_CASE
    params = mods["core_types"].EnsembleParams(n, v)
    sampler = mods["sampler"]
    out = sampler.matrix_probe_extremes(sampler.MatrixProbeConfig(params), seed, count)
    return {
        "ks": float(sampler.ks_statistic_max(params, out["max"])),
        "ks_bound": _ks_bound(_PROBE_KS, count),
    }


def _check_ks(outputs: dict) -> list[str]:
    bad = _finite(outputs, "ks")
    if not bad and not outputs["ks"] < outputs["ks_bound"]:
        bad.append(f"KS {outputs['ks']!r} not below {outputs['ks_bound']!r}")
    return bad


def _probe_levels(n: int, v: int, count: int, levels: tuple, seed: int, mods: dict) -> dict:
    params = mods["core_types"].EnsembleParams(n, v)
    sampler = mods["sampler"]
    out = sampler.matrix_probe_extremes(sampler.MatrixProbeConfig(params), seed, count)
    result = {}
    for level in levels:
        log_p = float(mods["exact_dist"].log_prob_max_le(params, level))
        result[f"num:log_p_max_le_{level}"] = log_p
        result[f"z_{level}"] = _z_score(out["max"], level, log_p)
    return result


def _extremes(seed: int, mods: dict) -> dict:
    (n, v), count, level = _EXTREMES_CASE
    params = mods["core_types"].EnsembleParams(n, v)
    out = mods["sampler"].sample_extremes_independent(params, seed, count)
    log_p = float(mods["exact_dist"].log_prob_max_le(params, level))
    return {
        "sha:max": _sha(out["max"]),
        "sha:min": _sha(out["min"]),
        f"num:log_p_max_le_{level}": log_p,
        f"z_{level}": _z_score(out["max"], level, log_p),
    }


def _check_z(outputs: dict) -> list[str]:
    bad = _finite(outputs, *outputs.keys() - {k for k in outputs if k.startswith("sha:")})
    bad += [
        f"{k} = {val!r} beyond +-{_Z_MAX}"
        for k, val in outputs.items()
        if k.startswith("z_") and not abs(val) <= _Z_MAX
    ]
    return bad


def _sampler_seed(case: str, variant: int) -> int:
    return _variant_rng(case, variant).randrange(2**32)


def _sample_ks_op(variant: int) -> Op:
    (n, v), j, draws = _YJ_CASE
    tag = f"sample-ks n={n} v={v} j={j} count={draws}"
    seed = _sampler_seed(tag, variant)
    return Op(f"{tag} seed={seed}", partial(_sample_ks, seed), _check_ks)


def _probe_ks_op(variant: int) -> Op:
    (n, v), count = _PROBE_KS_CASE
    tag = f"probe-ks n={n} v={v} count={count}"
    seed = _sampler_seed(tag, variant)
    return Op(f"{tag} seed={seed}", partial(_probe_ks, seed), _check_ks)


def _probe_levels_op(case: tuple, variant: int) -> Op:
    (n, v), count, levels = case
    tag = f"probe-levels n={n} v={v} count={count}"
    seed = _sampler_seed(tag, variant)
    return Op(f"{tag} seed={seed}", partial(_probe_levels, n, v, count, levels, seed), _check_z)


def _extremes_op(variant: int) -> Op:
    (n, v), count, _ = _EXTREMES_CASE
    tag = f"extremes n={n} v={v} count={count}"
    seed = _sampler_seed(tag, variant)
    return Op(f"{tag} seed={seed}", partial(_extremes, seed), _check_z)


def _crosscheck() -> list[Callable[[int], Op]]:
    levels = [partial(_probe_levels_op, case) for case in _PROBE_LEVEL_CASES]
    return [_sample_ks_op, _probe_ks_op, *levels, _extremes_op]


# ---------------------------------------------------------------------------
# stored references
# ---------------------------------------------------------------------------


def compare_reference(outputs: dict, stored: dict) -> list[str]:
    """Differences between an op's outputs and its stored reference."""
    bad = []
    for key, want in stored.items():
        got = outputs.get(key)
        if got is None:
            bad.append(f"{key} missing")
        elif key.startswith("sha:"):
            if got != want:
                bad.append(f"{key} = {got} differs from the stored {want}")
        elif not abs(got - want) <= REL_TOL * abs(want) + _ABS_FLOOR:
            bad.append(f"{key} = {got!r} differs from the stored {want!r}")
    return bad


def stored_part(outputs: dict) -> dict:
    """The outputs a reference file keeps: exact values and checksums."""
    return {k: v for k, v in outputs.items() if k.startswith(("num:", "sha:"))}

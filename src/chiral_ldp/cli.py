"""Command-line front end emitting CSV or JSON tables.

Subcommands: ``rate`` (rate-function evaluation), ``prob`` (exact tail
log-probabilities), ``sample`` / ``matrix`` (the two sampling routes),
``converge`` (limit-theorem experiments), ``verify`` (invariant suites).

Default output is CSV on stdout with diagnostics on stderr; ``--format
json`` emits one structured record instead (schema shipped at
``data/output_schema.json``).  Floats are printed with 17 significant
digits so every value round-trips losslessly.  Exit codes: 0 success,
1 verification failure, 2 usage or guard violation, 3 numeric failure:
a non-finite Bessel or ladder value, or a reverse ladder sum that did not
converge, reported with the partial estimate on stderr.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from ._quad import QuadratureError
from .asymptotics_lab import THEOREM_TAGS, clt_check, converge_table
from .core_types import Direction, EnsembleParams, Statistic, TailQuery, classify_alpha
from .exact_dist import IndexTails, index_tails, log_prob_from_tails
from .rate_functions import (
    MdpMinRegime,
    mdp_max_left_const,
    mdp_max_right_const,
    mdp_min_rate,
    rate_max_left,
    rate_max_right,
    rate_min_right,
)
from .sampler import MatrixProbeConfig, _ks_index, _ks_max, matrix_probe_extremes, sample_yj
from .verification import all_passed, run_checks

SCHEMA_VERSION = "1"

_RATE_KINDS = (
    "max-right",
    "max-left",
    "min-right",
    "mdp-max-right",
    "mdp-max-left",
    "mdp-min-small-v",
    "mdp-min-vscale",
    "mdp-min-alpha",
)


@dataclass
class OutputRecord:
    """One command's structured output: echo, rows, and side notes."""

    command: str
    parameters: dict
    results: list[dict]
    diagnostics: list[str] = field(default_factory=list)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}" if math.isfinite(value) else str(value)
    return str(value)


def _emit_csv(record: OutputRecord, out: TextIO, err: TextIO) -> None:
    echo = " ".join(f"{k}={_fmt(v)}" for k, v in record.parameters.items())
    err.write(f"# {record.command} {echo}\n")
    for line in record.diagnostics:
        err.write(f"# {line}\n")
    writer = csv.writer(out, lineterminator="\n")
    if record.results:
        header = list(record.results[0].keys()) + ["schema_version"]
        writer.writerow(header)
        for row in record.results:
            writer.writerow([_fmt(row[k]) for k in header[:-1]] + [SCHEMA_VERSION])


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}" if math.isfinite(value) else f'"{value}"'
    text = str(value).replace("\\", "\\\\").replace('"', '\\"')
    return f'"{text}"'


def _json_object(mapping: dict) -> str:
    inner = ", ".join(f'"{k}": {_json_scalar(v)}' for k, v in mapping.items())
    return "{" + inner + "}"


def _emit_json(record: OutputRecord, out: TextIO) -> None:
    rows = ", ".join(_json_object(r) for r in record.results)
    notes = ", ".join(_json_scalar(d) for d in record.diagnostics)
    out.write(
        "{"
        f'"schema_version": "{SCHEMA_VERSION}", '
        f'"command": {_json_scalar(record.command)}, '
        f'"parameters": {_json_object(record.parameters)}, '
        f'"results": [{rows}], '
        f'"diagnostics": [{notes}]'
        "}\n"
    )


def _emit(record: OutputRecord, fmt: str, out: TextIO, err: TextIO) -> None:
    if fmt == "json":
        _emit_json(record, out)
    else:
        _emit_csv(record, out, err)


def _parse_alpha(text: str) -> float:
    lowered = text.strip().lower()
    if lowered in ("inf", "infinity"):
        return math.inf
    try:
        value = float(lowered)
    except ValueError:
        raise ValueError(f"alpha must be a number, '0', or 'inf', got {text!r}")
    if value < 0.0:
        raise ValueError("alpha must be >= 0")
    return value


def _cmd_rate(args) -> tuple[OutputRecord, int]:
    alpha = _parse_alpha(args.alpha)
    x = args.x
    regime = classify_alpha(alpha)
    params = {"alpha": args.alpha, "x": x, "which": args.which}
    if args.which == "max-right":
        ev = rate_max_right(regime, x)
    elif args.which == "max-left":
        ev = rate_max_left(regime, x)
    elif args.which == "min-right":
        ev = rate_min_right(regime, x)
    else:
        ev = None
    if ev is not None:
        row = {
            "which": args.which,
            "alpha": args.alpha,
            "x": x,
            "value": ev.value,
            "branch": ev.branch,
            "kappa": ev.kappa_used,
            "warning": ev.warning,
        }
        diags = [f"warning: {ev.warning}"] if ev.warning else []
        return OutputRecord("rate", params, [row], diags), 0
    if args.which == "mdp-max-right":
        value, branch = mdp_max_right_const(regime) * x * x, "mdp_speed_n_l2"
    elif args.which == "mdp-max-left":
        value, branch = mdp_max_left_const(regime) * x**3, "mdp_speed_n2_l3"
    elif args.which == "mdp-min-small-v":
        value, branch = mdp_min_rate(MdpMinRegime.SMALL_V, x), "mdp_speed_n2_l2"
    elif args.which == "mdp-min-vscale":
        value, branch = mdp_min_rate(MdpMinRegime.V_SCALE, x), "mdp_speed_v2_proof_form"
    else:  # mdp-min-alpha
        value, branch = (
            mdp_min_rate(MdpMinRegime.ALPHA_POSITIVE, x, alpha),
            "mdp_speed_n2_l4",
        )
    row = {
        "which": args.which,
        "alpha": args.alpha,
        "x": x,
        "value": value,
        "branch": branch,
        "kappa": None,
        "warning": None,
    }
    return OutputRecord("rate", params, [row]), 0


def _ladder_note(tails: IndexTails) -> str:
    """Which tail side each index summed directly, and where the ladder
    stopped; over a batch of sample points, counts over all (point, index)
    pairs, the furthest stop and the largest bound."""
    top = tails.log_sf.shape[-1]
    batch = tails.log_sf.ndim == 2
    direct = int(np.count_nonzero(tails.cdf_direct))
    points = f" at {tails.log_sf.size // top} sample points" if batch else ""
    note = (
        f"gamma-shape ladder over indices 1..{top}{points}: "
        f"cdf summed directly for {direct}, sf for {tails.log_sf.size - direct}"
    )
    stop = int(np.max(tails.stop))
    if stop:
        note += (
            f"; reverse {'sums stopped by' if batch else 'sum stopped at'} index {stop} "
            f"with dropped tail below {float(np.max(tails.truncation_bound)):.1e} relative"
        )
    return note


def _cmd_prob(args) -> tuple[OutputRecord, int]:
    params_obj = EnsembleParams(args.n, args.v)
    stat = Statistic.MAX_SQ if args.stat == "max" else Statistic.MIN_SQ
    side = Direction.GE if args.side == "ge" else Direction.LE
    query = TailQuery(stat, side, args.x)
    params = {
        "n": args.n,
        "v": args.v,
        "x": args.x,
        "stat": args.stat,
        "side": args.side,
    }
    tails = index_tails(params_obj, args.x)
    diags = [_ladder_note(tails)]
    try:
        lp = log_prob_from_tails(tails, query)
    except QuadratureError as exc:
        diags.append(f"numeric failure: {exc}")
        row = {
            "n": args.n,
            "v": args.v,
            "x": args.x,
            "stat": args.stat,
            "side": args.side,
            "log_probability": exc.partial,
            "probability": None,
        }
        if exc.partial is not None and exc.rel_err is not None:
            diags.append(
                f"partial estimate {exc.partial:.17g} with relative error {exc.rel_err:.3e}"
            )
        return OutputRecord("prob", params, [row], diags), 3
    if lp == -math.inf:
        diags.append(
            "log-probability is -inf (event probability underflows double precision)"
        )
        probability = 0.0
    else:
        probability = math.exp(lp) if lp > -745.0 else 0.0
        if lp <= -745.0:
            diags.append("probability underflows; only the log value is meaningful")
    row = {
        "n": args.n,
        "v": args.v,
        "x": args.x,
        "stat": args.stat,
        "side": args.side,
        "log_probability": lp,
        "probability": probability,
    }
    return OutputRecord("prob", params, [row], diags), 0


def _cmd_sample(args) -> tuple[OutputRecord, int]:
    params_obj = EnsembleParams(args.n, args.v)
    batch = sample_yj(params_obj, args.j, args.seed, args.count)
    params = {
        "n": args.n,
        "v": args.v,
        "j": args.j,
        "seed": args.seed,
        "count": args.count,
    }
    diags: list[str] = []
    if args.summary:
        t = 2.0 * args.n * batch.values
        rows = [
            {
                "count": args.count,
                "mean_y": float(batch.values.mean()),
                "mean_t": float(t.mean()),
                "sd_t": float(t.std(ddof=1)) if args.count > 1 else 0.0,
                "se_t": float(t.std(ddof=1) / math.sqrt(args.count))
                if args.count > 1
                else 0.0,
            }
        ]
        diags.append("t denotes 2nY_j")
    elif args.ks:
        ks, tails = _ks_index(params_obj, args.j, batch.values)
        rows = [{"count": args.count, "ks": ks}]
        diags.append(_ladder_note(tails))
    else:
        rows = [
            {"replicate": i, "y": float(y)} for i, y in enumerate(batch.values)
        ]
    return OutputRecord("sample", params, rows, diags), 0


def _cmd_matrix(args) -> tuple[OutputRecord, int]:
    params_obj = EnsembleParams(args.n, args.v)
    config = MatrixProbeConfig(params_obj)
    out = matrix_probe_extremes(config, args.seed, args.count)
    params = {"n": args.n, "v": args.v, "seed": args.seed, "count": args.count}
    resample_count = int(out["resample"].sum())
    diags = []
    if resample_count:
        diags.append(
            f"{resample_count} replicate(s) flagged for resampling "
            "(iteration did not certify convergence)"
        )
    if args.summary:
        rows = [
            {
                "count": args.count,
                "mean_max": float(out["max"].mean()),
                "mean_min": float(out["min"].mean()),
                "resample_count": resample_count,
            }
        ]
    elif args.ks:
        ks, tails = _ks_max(params_obj, out["max"])
        rows = [{"count": args.count, "ks": ks, "resample_count": resample_count}]
        diags.append(_ladder_note(tails))
    else:
        rows = [
            {
                "replicate": i,
                "max": float(mx),
                "min": float(mn),
                "resample": bool(rs),
            }
            for i, (mx, mn, rs) in enumerate(
                zip(out["max"], out["min"], out["resample"])
            )
        ]
    return OutputRecord("matrix", params, rows, diags), 0


def _parse_grid(args) -> tuple[tuple[int, int], ...] | None:
    if args.grid is not None and args.n is not None:
        raise ValueError("pass either --grid or --n, not both")
    if args.grid is not None:
        pairs = []
        for chunk in args.grid.split(","):
            left, sep, right = chunk.partition(":")
            if not sep:
                raise ValueError(f"grid entries are n:v, got {chunk!r}")
            pairs.append((int(left), int(right)))
        return tuple(pairs)
    if args.n is not None:
        ns = [int(s) for s in args.n.split(",")]
        if args.v is None:
            vs = [0] * len(ns)
        else:
            vs = [int(s) for s in args.v.split(",")]
            if len(vs) == 1:
                vs = vs * len(ns)
        if len(vs) != len(ns):
            raise ValueError("--v must list one value or match --n in length")
        return tuple(zip(ns, vs))
    return None


def _cmd_converge(args) -> tuple[OutputRecord, int]:
    grid = _parse_grid(args)
    params = {
        "theorem": args.theorem,
        "x": args.x,
        "grid": args.grid,
        "n": args.n,
        "v": args.v,
    }
    diags: list[str] = []
    if args.theorem == "clt":
        pairs = grid if grid is not None else ((2000, 0),)
        if args.x is not None:
            diags.append("--x is ignored for the clt experiment (levels are derived)")
        rows = []
        for n, v in pairs:
            for r in clt_check(n, v):
                rows.append(
                    {
                        "theorem": "clt",
                        "n": r.n,
                        "v": r.v,
                        "y": r.y,
                        "g_arg": r.g_arg,
                        "exact": r.exact,
                        "target": r.target,
                        "abs_gap": r.abs_gap,
                        "target_display": r.target_display,
                        "abs_gap_display": r.abs_gap_display,
                    }
                )
        return OutputRecord("converge", params, rows, diags), 0
    table = converge_table(args.theorem, grid=grid, x=args.x)
    rows = []
    for r in table:
        if r.note:
            diags.append(f"(n={r.n}, v={r.v}): {r.note}")
        rows.append(
            {
                "theorem": args.theorem,
                "n": r.n,
                "v": r.v,
                "x": r.x,
                "l": r.l,
                "scaling": r.scaling,
                "exact": r.exact,
                "predicted": r.predicted,
                "rate_target": r.rate_target,
                "scaled_gap": r.scaled_gap,
                "alt_rate_target": r.alt_rate_target,
                "alt_scaled_gap": r.alt_scaled_gap,
                "note": r.note,
            }
        )
    return OutputRecord("converge", params, rows, diags), 0


def _cmd_verify(args) -> tuple[OutputRecord, int]:
    results = run_checks(quick=args.quick)
    rows = [
        {
            "name": r.name,
            "passed": r.passed,
            "detail": r.detail,
            "elapsed_ms": int(r.elapsed * 1000),
        }
        for r in results
    ]
    failures = [r.name for r in results if not r.passed]
    diags = [f"FAILED: {name}" for name in failures]
    ok = all_passed(results)
    diags.append(
        f"{len(results) - len(failures)}/{len(results)} checks passed "
        f"({'quick' if args.quick else 'full'} suite)"
    )
    return OutputRecord("verify", {"quick": args.quick}, rows, diags), (0 if ok else 1)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiral-ldp",
        description=(
            "Deviation probabilities and rate functions for the extreme "
            "squared eigenvalue moduli of the chiral two-block ensemble."
        ),
        epilog=(
            "Exit codes: 0 success, 1 verification failure, 2 usage or guard "
            "violation, 3 numeric failure (non-finite Bessel or ladder value, or "
            "a reverse ladder sum that did not converge; the partial estimate is "
            "reported on stderr)."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default="csv",
            help="output format (default csv)",
        )

    p_rate = sub.add_parser("rate", help="evaluate a rate function")
    p_rate.add_argument("--alpha", required=True, help="v/n limit: a number, 0, or inf")
    p_rate.add_argument("--x", type=float, required=True, help="deviation level")
    p_rate.add_argument("--which", choices=_RATE_KINDS, required=True)
    add_format(p_rate)
    p_rate.set_defaults(handler=_cmd_rate)

    p_prob = sub.add_parser("prob", help="exact tail log-probability")
    p_prob.add_argument("--n", type=int, required=True)
    p_prob.add_argument("--v", type=int, default=0)
    p_prob.add_argument("--x", type=float, required=True, help="threshold level")
    p_prob.add_argument("--stat", choices=("max", "min"), required=True)
    p_prob.add_argument("--side", choices=("ge", "le"), required=True)
    add_format(p_prob)
    p_prob.set_defaults(handler=_cmd_prob)

    p_sample = sub.add_parser("sample", help="draw one index's surrogate variable")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--v", type=int, default=0)
    p_sample.add_argument("--j", type=int, required=True, help="index in [1, n]")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--count", type=int, required=True)
    group = p_sample.add_mutually_exclusive_group()
    group.add_argument("--summary", action="store_true", help="moments instead of draws")
    group.add_argument(
        "--ks", action="store_true", help="KS distance against the exact law"
    )
    add_format(p_sample)
    p_sample.set_defaults(handler=_cmd_sample)

    p_matrix = sub.add_parser("matrix", help="sample extremes from explicit matrices")
    p_matrix.add_argument("--n", type=int, required=True, help="block size, at most 64")
    p_matrix.add_argument("--v", type=int, default=0)
    p_matrix.add_argument("--seed", type=int, default=0)
    p_matrix.add_argument("--count", type=int, required=True)
    group = p_matrix.add_mutually_exclusive_group()
    group.add_argument("--summary", action="store_true", help="moments instead of draws")
    group.add_argument(
        "--ks", action="store_true", help="KS distance of the max against the product law"
    )
    add_format(p_matrix)
    p_matrix.set_defaults(handler=_cmd_matrix)

    p_conv = sub.add_parser("converge", help="limit-theorem convergence experiment")
    p_conv.add_argument(
        "--theorem", choices=THEOREM_TAGS + ("clt",), required=True
    )
    p_conv.add_argument("--x", type=float, default=None, help="deviation level")
    p_conv.add_argument(
        "--grid", default=None, help="comma-separated n:v pairs, e.g. 1000:80,2000:160"
    )
    p_conv.add_argument("--n", default=None, help="comma-separated n values")
    p_conv.add_argument(
        "--v", default=None, help="comma-separated v values (default 0, broadcast)"
    )
    add_format(p_conv)
    p_conv.set_defaults(handler=_cmd_converge)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument(
        "--quick", action="store_true", help="deterministic subset only"
    )
    add_format(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        record, code = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    _emit(record, args.format, sys.stdout, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

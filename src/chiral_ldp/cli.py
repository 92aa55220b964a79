"""Command-line front end emitting CSV or JSON tables.

Subcommands: ``rate`` (rate-function evaluation), ``prob`` (exact tail
log-probabilities), ``sample`` / ``matrix`` (the two sampling routes),
``converge`` (limit-theorem experiments), ``verify`` (invariant suites).

Handlers return rows, notes and an exit code; :func:`main` hands them, with
the command and the parser's options as its parameters, to the CSV or the
JSON writer.  Default output is CSV on stdout with diagnostics on stderr;
``--format json`` emits one structured record instead (schema shipped at
``data/output_schema.json``).  Floats are printed with 17 significant
digits so every value round-trips losslessly.  Exit codes: 0 success, 1
verification failure, 2 usage or guard violation, 3 numeric failure: a
non-finite Bessel or ladder value, or a reverse ladder sum that did not
converge, reported by every command with the partial estimate on stderr.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from dataclasses import asdict
from typing import Sequence, TextIO

import numpy as np

from ._quad import QuadratureError
from .asymptotics_lab import THEOREM_TAGS, THEOREMS, clt_check, converge_table
from .core_types import Direction, EnsembleParams, Statistic, TailQuery, check_alpha
from .exact_dist import _ks, index_tails, log_prob_from_tails
from .sampler import MatrixProbeConfig, matrix_probe_extremes, sample_yj
from .verification import all_passed, run_checks

SCHEMA_VERSION = "1"

# the `rate --which` kinds, one per limit theorem
_RATES = {t.kind: t for t in THEOREMS.values()}

# parsed entries that say what runs and how it prints, not what it runs on
_NOT_PARAMETERS = ("subcommand", "handler", "format", "summary", "ks")

_Result = tuple[list[dict], list[str], int]  # rows, diagnostics, exit code

# what a JSON string may not hold raw: the quote, the backslash and U+0000-U+001F
_JSON_ESCAPES = {ord('"'): '\\"', ord("\\"): "\\\\", **{c: f"\\u{c:04x}" for c in range(32)}}


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}" if math.isfinite(value) else str(value)
    return str(value)


def _emit_csv(
    command: str, parameters: dict, rows: list[dict], notes: list[str], out: TextIO, err: TextIO
) -> None:
    echo = " ".join(f"{k}={_fmt(v)}" for k, v in parameters.items())
    err.write(f"# {command} {echo}\n")
    for line in notes:
        err.write(f"# {line}\n")
    writer = csv.writer(out, lineterminator="\n")
    if rows:
        header = list(rows[0].keys()) + ["schema_version"]
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(row[k]) for k in header[:-1]] + [SCHEMA_VERSION])


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, (bool, int, np.integer)) or (
        isinstance(value, float) and math.isfinite(value)
    ):
        return _fmt(value)
    return f'"{str(value).translate(_JSON_ESCAPES)}"'


def _json_object(mapping: dict) -> str:
    inner = ", ".join(f'"{k}": {_json_scalar(v)}' for k, v in mapping.items())
    return "{" + inner + "}"


def _emit_json(
    command: str, parameters: dict, rows: list[dict], notes: list[str], out: TextIO
) -> None:
    results = ", ".join(_json_object(r) for r in rows)
    diagnostics = ", ".join(_json_scalar(d) for d in notes)
    out.write(
        "{"
        f'"schema_version": "{SCHEMA_VERSION}", '
        f'"command": {_json_scalar(command)}, '
        f'"parameters": {_json_object(parameters)}, '
        f'"results": [{results}], '
        f'"diagnostics": [{diagnostics}]'
        "}\n"
    )


def _echo(args: argparse.Namespace) -> dict:
    """The parsed options, in the parser's order, less ``_NOT_PARAMETERS``."""
    return {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}


def _parse_alpha(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"alpha must be a number, '0', or 'inf', got {text!r}")
    return check_alpha(value)


def _cmd_rate(args) -> _Result:
    alpha = _parse_alpha(args.alpha)
    ev = _RATES[args.which].rate_at(alpha, args.x)
    row = {
        "which": args.which,
        "alpha": args.alpha,
        "x": args.x,
        "value": ev.value,
        "branch": ev.branch,
        "kappa": ev.kappa_used,
        "warning": ev.warning,
    }
    diags = [f"warning: {ev.warning}"] if ev.warning else []
    return [row], diags, 0


def _failure_notes(exc: QuadratureError) -> list[str]:
    """The numeric failure's cause, then its partial estimate when it has one."""
    notes = [f"numeric failure: {exc}"]
    if exc.partial is not None and exc.rel_err is not None:
        notes.append(f"partial estimate {exc.partial:.17g} with relative error {exc.rel_err:.3e}")
    return notes


def _cmd_prob(args) -> _Result:
    query = TailQuery(Statistic(args.stat), Direction(args.side), args.x)
    tails = index_tails(EnsembleParams(args.n, args.v), args.x, stat=query.statistic)
    diags = [tails.note()]
    code, probability = 0, None
    try:
        lp = log_prob_from_tails(tails, query)
    except QuadratureError as exc:
        diags += _failure_notes(exc)
        code, lp = 3, exc.partial
    else:
        probability = math.exp(lp) if lp > -745.0 else 0.0
        if lp == -math.inf:
            diags.append(
                "log-probability is -inf (event probability underflows double precision)"
            )
        elif lp <= -745.0:
            diags.append("probability underflows; only the log value is meaningful")
    row = {**_echo(args), "log_probability": lp, "probability": probability}
    return [row], diags, code


def _cmd_sample(args) -> _Result:
    params_obj = EnsembleParams(args.n, args.v)
    batch = sample_yj(params_obj, args.j, args.seed, args.count)
    diags: list[str] = []
    if args.summary:
        t = 2.0 * args.n * batch.values
        sd = t.std(ddof=1) if args.count > 1 else 0.0
        rows = [
            {
                "count": args.count,
                "mean_y": float(batch.values.mean()),
                "mean_t": float(t.mean()),
                "sd_t": float(sd),
                "se_t": float(sd / math.sqrt(args.count)),
            }
        ]
        diags.append("t denotes 2nY_j")
    elif args.ks:
        ks, tally = _ks(params_obj, batch.values, args.j)
        rows = [{"count": args.count, "ks": ks}]
        diags.append(tally.note())
    else:
        rows = [
            {"replicate": i, "y": float(y)} for i, y in enumerate(batch.values)
        ]
    return rows, diags, 0


def _cmd_matrix(args) -> _Result:
    params_obj = EnsembleParams(args.n, args.v)
    out = matrix_probe_extremes(MatrixProbeConfig(params_obj), args.seed, args.count)
    resample_count = int(out["resample"].sum())
    diags = []
    if resample_count:
        diags.append(
            f"{resample_count} replicate(s) flagged for resampling "
            "(M was numerically singular: smallest modulus not finite and > 0)"
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
        ks, tally = _ks(params_obj, out["max"], Statistic.MAX_SQ)
        rows = [{"count": args.count, "ks": ks, "resample_count": resample_count}]
        diags.append(tally.note())
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
    return rows, diags, 0


def _parse_grid(args) -> tuple[tuple[int, int], ...] | None:
    if args.grid is not None and args.n is not None:
        raise ValueError("pass either --grid or --n, not both")
    if args.v is not None and args.n is None:
        raise ValueError("--v needs --n (a --grid entry n:v carries its own v)")
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


def _cmd_converge(args) -> _Result:
    grid = _parse_grid(args)
    diags: list[str] = []
    if args.theorem == "clt":
        pairs = grid if grid is not None else ((2000, 0),)
        if args.x is not None:
            diags.append("--x is ignored for the clt experiment (levels are derived)")
        table = [r for n, v in pairs for r in clt_check(n, v)]
    else:
        table = converge_table(args.theorem, grid=grid, x=args.x)
        diags += [f"(n={r.n}, v={r.v}): {r.note}" for r in table if r.note]
    # the field order of CltRow and ConvergenceRow is the column order
    rows = [{"theorem": args.theorem, **asdict(r)} for r in table]
    return rows, diags, 0


def _cmd_verify(args) -> _Result:
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
    diags.append(
        f"{len(results) - len(failures)}/{len(results)} checks passed "
        f"({'quick' if args.quick else 'full'} suite)"
    )
    return rows, diags, 0 if all_passed(results) else 1


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

    def add_modes(p: argparse.ArgumentParser, ks_help: str) -> None:
        group = p.add_mutually_exclusive_group()
        group.add_argument("--summary", action="store_true", help="moments instead of draws")
        group.add_argument("--ks", action="store_true", help=ks_help)

    p_rate = sub.add_parser("rate", help="evaluate a rate function")
    p_rate.add_argument("--alpha", required=True, help="v/n limit: a number, 0, or inf")
    p_rate.add_argument("--x", type=float, required=True, help="deviation level")
    p_rate.add_argument("--which", choices=tuple(_RATES), required=True)
    p_rate.set_defaults(handler=_cmd_rate)

    p_prob = sub.add_parser("prob", help="exact tail log-probability")
    p_prob.add_argument("--n", type=int, required=True)
    p_prob.add_argument("--v", type=int, default=0)
    p_prob.add_argument("--x", type=float, required=True, help="threshold level")
    p_prob.add_argument("--stat", choices=("max", "min"), required=True)
    p_prob.add_argument("--side", choices=("ge", "le"), required=True)
    p_prob.set_defaults(handler=_cmd_prob)

    p_sample = sub.add_parser("sample", help="draw one index's surrogate variable")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--v", type=int, default=0)
    p_sample.add_argument("--j", type=int, required=True, help="index in [1, n]")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--count", type=int, required=True)
    add_modes(p_sample, "KS distance against the exact law")
    p_sample.set_defaults(handler=_cmd_sample)

    p_matrix = sub.add_parser("matrix", help="sample extremes from explicit matrices")
    p_matrix.add_argument("--n", type=int, required=True, help="block size, at most 64")
    p_matrix.add_argument("--v", type=int, default=0)
    p_matrix.add_argument("--seed", type=int, default=0)
    p_matrix.add_argument("--count", type=int, required=True)
    add_modes(p_matrix, "KS distance of the max against the product law")
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
    p_conv.set_defaults(handler=_cmd_converge)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument(
        "--quick", action="store_true", help="deterministic subset only"
    )
    p_verify.set_defaults(handler=_cmd_verify)

    for p in sub.choices.values():
        p.add_argument(
            "--format", choices=("csv", "json"), default="csv", help="output format (default csv)"
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        rows, diags, code = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QuadratureError as exc:
        print("\n".join(_failure_notes(exc)), file=sys.stderr)
        return 3
    if args.format == "json":
        _emit_json(args.subcommand, _echo(args), rows, diags, sys.stdout)
    else:
        _emit_csv(args.subcommand, _echo(args), rows, diags, sys.stdout, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

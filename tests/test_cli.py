"""Tests for the command line interface.

Everything goes through ``chiral_ldp.cli.main(argv)`` directly so the tests
see the same code path as the console script: CSV/JSON row schemas, the
17-digit float round trip, diagnostics on stderr, and the exit-code contract
(0 ok, 1 verification failure, 2 usage or guard, 3 numeric failure).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest

import chiral_ldp.cli as cli_module
import chiral_ldp.exact_dist as exact_dist
from chiral_ldp._quad import QuadratureError
from chiral_ldp.cli import main
from oracles import ks_critical

# Frozen reference values, computed once with mpmath (50 digits) and
# independent of the library code under test.
RATE_PINS = {
    ("max-right", "0", "1.5"): 0.18906978378367123604,
    ("max-right", "inf", "2"): 1.6137056388801093812,
    ("min-right", "0", "2"): 1.8068528194400546906,
}
CLOSED_TAIL_LOG_HALF = -0.50765194821075233095  # log P(2Y_1 >= 0.5) at n=1, v=0

RATE_HEADER = ["which", "alpha", "x", "value", "branch", "kappa", "warning", "schema_version"]
PROB_HEADER = ["n", "v", "x", "stat", "side", "log_probability", "probability", "schema_version"]
CONV_HEADER = [
    "theorem", "n", "v", "x", "l", "scaling", "exact", "predicted",
    "rate_target", "scaled_gap", "alt_rate_target", "alt_scaled_gap",
    "note", "schema_version",
]
CLT_HEADER = [
    "theorem", "n", "v", "y", "g_arg", "exact", "target", "abs_gap",
    "target_display", "abs_gap_display", "schema_version",
]
VERIFY_HEADER = ["name", "passed", "detail", "elapsed_ms", "schema_version"]


def run_cli(argv):
    """Invoke main() capturing (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def csv_rows(text):
    """Parse CSV output into (header, list of dict rows)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, [dict(zip(header, row)) for row in reader]


def load_schema():
    import importlib.resources as resources

    return json.loads(
        resources.files("chiral_ldp").joinpath("data/output_schema.json").read_text()
    )


class TestRateCommand:
    """CSV schema and pinned values for the rate subcommand."""

    def test_header_and_pinned_values(self):
        for (which, alpha, x), expected in RATE_PINS.items():
            code, out, err = run_cli(
                ["rate", "--which", which, "--alpha", alpha, "--x", x]
            )
            assert code == 0
            header, rows = csv_rows(out)
            assert header == RATE_HEADER
            assert len(rows) == 1
            assert float(rows[0]["value"]) == pytest.approx(expected, rel=1e-15)
            assert rows[0]["schema_version"] == "1"
            assert rows[0]["warning"] == ""

    def test_zero_region_row(self):
        # inside [0, 1] the right rate vanishes and kappa is not defined
        code, out, _ = run_cli(["rate", "--which", "max-right", "--alpha", "0", "--x", "1"])
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0]["value"]) == 0.0
        assert rows[0]["branch"] == "zero_region"
        assert rows[0]["kappa"] == ""

    def test_branch_labels(self):
        cases = {
            ("max-right", "0", "1.5"): "zero_alpha",
            ("max-right", "inf", "2"): "infinite_alpha",
            ("min-right", "0", "2"): "above_one",
            ("min-right", "0", "0.5"): "below_one",
        }
        for (which, alpha, x), branch in cases.items():
            _, out, _ = run_cli(["rate", "--which", which, "--alpha", alpha, "--x", x])
            _, rows = csv_rows(out)
            assert rows[0]["branch"] == branch

    def test_display_form_carries_warning(self):
        # the published infinite-alpha left form is not a true rate function;
        # the CLI must hand it over but flag it loudly
        code, out, err = run_cli(
            ["rate", "--which", "max-left", "--alpha", "inf", "--x", "0.5"]
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0]["branch"] == "infinite_alpha_display"
        assert rows[0]["warning"] != ""
        assert float(rows[0]["value"]) < 0.0
        assert "# warning:" in err

    def test_diagnostics_go_to_stderr_prefixed(self):
        _, out, err = run_cli(["rate", "--which", "max-right", "--alpha", "0", "--x", "1.5"])
        assert "#" not in out
        for line in err.strip().split("\n"):
            assert line.startswith("# ")


class TestProbCommand:
    """Exact tail probabilities end to end through the CLI."""

    def test_closed_form_round_trip(self):
        code, out, err = run_cli(
            ["prob", "--n", "1", "--v", "0", "--x", "0.5", "--stat", "max", "--side", "ge"]
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == PROB_HEADER
        lp = float(rows[0]["log_probability"])
        assert lp == pytest.approx(CLOSED_TAIL_LOG_HALF, rel=1e-13)
        assert float(rows[0]["probability"]) == pytest.approx(math.exp(lp), rel=1e-15)
        assert "gamma-shape ladder over indices 1..1" in err

    def test_underflow_reports_zero_with_diagnostic(self):
        # P(max <= 0.2) at n=60 is around e^-1907: far below double range
        code, out, err = run_cli(
            ["prob", "--n", "60", "--v", "0", "--x", "0.2", "--stat", "max", "--side", "le"]
        )
        assert code == 0
        _, rows = csv_rows(out)
        lp = float(rows[0]["log_probability"])
        assert lp < -745.0
        assert float(rows[0]["probability"]) == 0.0
        assert "probability underflows" in err

    def test_quadrature_failure_exits_3_with_partial(self, monkeypatch):
        def boom(tails, query):
            raise QuadratureError("synthetic failure", partial=-1.0, rel_err=1e-3)

        monkeypatch.setattr(cli_module, "log_prob_from_tails", boom)
        code, out, err = run_cli(
            ["prob", "--n", "5", "--v", "0", "--x", "0.9", "--stat", "max", "--side", "ge"]
        )
        assert code == 3
        _, rows = csv_rows(out)
        assert float(rows[0]["log_probability"]) == -1.0
        assert rows[0]["probability"] == ""
        assert "numeric failure: synthetic failure" in err
        assert "partial estimate" in err

    def test_non_finite_bessel_exits_3_with_partial(self, monkeypatch):
        # a NaN from kve must end as a numeric failure, never as a number
        monkeypatch.setattr(
            exact_dist, "kve", lambda order, t: np.full(np.shape(order), np.nan)
        )
        code, out, err = run_cli(
            ["prob", "--n", "5", "--v", "2", "--x", "0.9", "--stat", "max", "--side", "le"]
        )
        assert code == 3
        _, rows = csv_rows(out)
        assert rows[0]["probability"] == ""
        assert "numeric failure: non-finite ladder value" in err
        assert "partial estimate nan with relative error inf" in err


class TestExitCodes:
    """Usage and guard failures exit 2 with an error line on stderr."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["rate", "--which", "max-right", "--alpha", "-1", "--x", "1.5"],
             "alpha must be >= 0"),
            (["prob", "--n", "1", "--x", "0", "--stat", "max", "--side", "ge"],
             "level x must be finite and > 0"),
            (["matrix", "--n", "100", "--count", "2"],
             "matrix probe is limited to n <= 64"),
            (["sample", "--n", "2", "--j", "0", "--count", "2"],
             "index j must lie in [1, n]"),
            (["converge", "--theorem", "t1-right", "--grid", "25:0", "--n", "25"],
             "pass either --grid or --n, not both"),
            (["converge", "--theorem", "t1-right", "--grid", "25-0"],
             "grid entries are n:v"),
        ],
    )
    def test_guard_failures(self, argv, fragment):
        code, out, err = run_cli(argv)
        assert code == 2
        assert fragment in err
        assert "error:" in err

    def test_argparse_rejects_unknown_choice(self):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(["rate", "--which", "sideways", "--alpha", "0", "--x", "1.5"])
        assert exc_info.value.code == 2

    def test_verification_failure_exits_1(self, monkeypatch):
        import types

        fake = [types.SimpleNamespace(name="synthetic", passed=False,
                                      detail="forced", elapsed=0.0)]
        monkeypatch.setattr(cli_module, "run_checks", lambda quick: fake)
        code, out, err = run_cli(["verify", "--quick"])
        assert code == 1
        assert "FAILED: synthetic" in err
        assert "0/1 checks passed" in err


class TestJsonOutput:
    """--format json emits one record validating against the packaged schema."""

    @pytest.mark.parametrize(
        "argv, command",
        [
            (["rate", "--which", "max-right", "--alpha", "inf", "--x", "2"], "rate"),
            (["rate", "--which", "max-right", "--alpha", "0", "--x", "1"], "rate"),
            (["prob", "--n", "1", "--v", "0", "--x", "0.5", "--stat", "max",
              "--side", "ge"], "prob"),
            (["sample", "--n", "2", "--v", "1", "--j", "2", "--count", "3",
              "--seed", "3"], "sample"),
            (["matrix", "--n", "1", "--count", "2", "--seed", "4"], "matrix"),
            (["converge", "--theorem", "clt", "--grid", "500:0"], "converge"),
            (["verify", "--quick"], "verify"),
            (["sample", "--n", "5", "--v", "2", "--j", "3", "--count", "50",
              "--seed", "3", "--ks"], "sample"),
            (["matrix", "--n", "3", "--v", "1", "--count", "30", "--seed", "4",
              "--ks"], "matrix"),
        ],
    )
    def test_records_validate(self, argv, command):
        jsonschema = pytest.importorskip("jsonschema")
        schema = load_schema()
        code, out, _ = run_cli(argv + ["--format", "json"])
        assert code == 0
        record = json.loads(out)
        jsonschema.validate(record, schema)
        assert record["schema_version"] == "1"
        assert record["command"] == command
        assert isinstance(record["results"], list) and record["results"]
        assert all(isinstance(d, str) for d in record["diagnostics"])

    def test_json_value_matches_pin(self):
        _, out, _ = run_cli(
            ["rate", "--which", "max-right", "--alpha", "inf", "--x", "2",
             "--format", "json"]
        )
        record = json.loads(out)
        assert record["results"][0]["value"] == pytest.approx(
            RATE_PINS[("max-right", "inf", "2")], rel=1e-15
        )
        assert record["results"][0]["branch"] == "infinite_alpha"


class TestSampleCommand:
    """Sampling subcommand: rows, summary statistics, KS mode."""

    def test_default_rows(self):
        code, out, _ = run_cli(
            ["sample", "--n", "2", "--v", "1", "--j", "2", "--count", "5", "--seed", "3"]
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["replicate", "y", "schema_version"]
        assert [int(r["replicate"]) for r in rows] == [0, 1, 2, 3, 4]
        assert all(float(r["y"]) > 0 for r in rows)

    def test_summary_mean_matches_known_expectation(self):
        # at j=1, v=0 the scaled draw 2nY_1 has mean pi/2
        code, out, err = run_cli(
            ["sample", "--n", "1", "--j", "1", "--count", "20000", "--summary"]
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["count", "mean_y", "mean_t", "sd_t", "se_t", "schema_version"]
        row = rows[0]
        assert int(row["count"]) == 20000
        gap = abs(float(row["mean_t"]) - math.pi / 2)
        assert gap <= 4.0 * float(row["se_t"])
        assert "t denotes 2nY_j" in err

    def test_ks_mode_below_critical_band(self):
        code, out, _ = run_cli(
            ["sample", "--n", "5", "--v", "2", "--j", "3", "--count", "8000",
             "--seed", "11", "--ks"]
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["count", "ks", "schema_version"]
        assert float(rows[0]["ks"]) < ks_critical(8000)

    def test_ks_mode_reports_the_ladder(self):
        # one diagnostic: points evaluated, the furthest reverse-sum stop
        # (within the ladder's cap) and the largest truncation bound
        code, _, err = run_cli(
            ["sample", "--n", "5", "--v", "2", "--j", "3", "--count", "2000",
             "--seed", "11", "--ks"]
        )
        assert code == 0
        notes = [line for line in err.splitlines() if "gamma-shape ladder" in line]
        assert len(notes) == 1
        assert notes[0].startswith("# gamma-shape ladder over indices 1..3 at 2000 sample points")
        stop = int(notes[0].split("reverse sums stopped by index ")[1].split()[0])
        assert 3 <= stop <= 3 + 40 * math.sqrt(5) + 100
        bound = float(notes[0].split("dropped tail below ")[1].split()[0])
        assert bound <= math.exp(-40.0)

    def test_seeded_output_is_reproducible(self):
        argv = ["sample", "--n", "3", "--v", "2", "--j", "2", "--count", "10",
                "--seed", "77"]
        assert run_cli(argv)[1] == run_cli(argv)[1]


class TestMatrixCommand:
    """Matrix probe subcommand."""

    def test_n1_collapses_max_and_min(self):
        code, out, _ = run_cli(["matrix", "--n", "1", "--count", "3", "--seed", "4"])
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["replicate", "max", "min", "resample", "schema_version"]
        for row in rows:
            assert row["max"] == row["min"]
            assert row["resample"] == "false"

    def test_summary_keys(self):
        code, out, _ = run_cli(
            ["matrix", "--n", "2", "--v", "1", "--count", "40", "--seed", "6",
             "--summary"]
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == ["count", "mean_max", "mean_min", "resample_count",
                          "schema_version"]
        row = rows[0]
        assert int(row["count"]) == 40
        assert float(row["mean_max"]) >= float(row["mean_min"]) > 0

    def test_ks_mode_reports_the_ladder(self):
        code, out, err = run_cli(
            ["matrix", "--n", "3", "--v", "1", "--count", "200", "--seed", "6", "--ks"]
        )
        assert code == 0
        header, _ = csv_rows(out)
        assert header == ["count", "ks", "resample_count", "schema_version"]
        notes = [line for line in err.splitlines() if "gamma-shape ladder" in line]
        assert len(notes) == 1
        assert notes[0].startswith("# gamma-shape ladder over indices 1..3 at 200 sample points")
        assert "; reverse sums stopped by index" in notes[0]


class TestConvergeCommand:
    """Convergence experiment subcommand."""

    def test_theorem_rows_and_shrinking_gap(self):
        code, out, _ = run_cli(["converge", "--theorem", "t1-right", "--n", "25,50"])
        assert code == 0
        header, rows = csv_rows(out)
        assert header == CONV_HEADER
        assert [int(r["n"]) for r in rows] == [25, 50]
        target = RATE_PINS[("max-right", "0", "1.5")]
        for row in rows:
            assert row["theorem"] == "t1-right"
            assert float(row["rate_target"]) == pytest.approx(target, rel=1e-15)
        gaps = [float(r["scaled_gap"]) for r in rows]
        assert gaps[1] < gaps[0]

    def test_clt_rows_and_ignored_x_diagnostic(self):
        code, out, err = run_cli(
            ["converge", "--theorem", "clt", "--grid", "500:0", "--x", "1.0"]
        )
        assert code == 0
        header, rows = csv_rows(out)
        assert header == CLT_HEADER
        assert [float(r["g_arg"]) for r in rows] == pytest.approx([0.0, 2.0], abs=1e-12)
        for row in rows:
            assert 0.0 < float(row["exact"]) < 1.0
            assert float(row["abs_gap"]) < float(row["abs_gap_display"])
        assert "--x is ignored" in err


class TestVerifyCommand:
    """Self-check subcommand wraps the verification module."""

    def test_quick_suite_green(self):
        code, out, err = run_cli(["verify", "--quick"])
        assert code == 0
        header, rows = csv_rows(out)
        assert header == VERIFY_HEADER
        assert rows, "quick suite must contain checks"
        assert all(r["passed"] == "true" for r in rows)
        assert "checks passed (quick suite)" in err


class TestDeterminism:
    """Outputs are bit-identical across runs and across concurrent callers."""

    def test_thread_count_does_not_change_output(self):
        # the value prob prints must not depend on how many threads run the
        # exact layer at once: no shared scratch state between calls
        from concurrent.futures import ThreadPoolExecutor

        from chiral_ldp.core_types import Direction, EnsembleParams, Statistic, TailQuery

        argv = ["prob", "--n", "30", "--v", "0", "--x", "1.2", "--stat", "max",
                "--side", "ge"]
        code, out, _ = run_cli(argv)
        assert code == 0
        printed = float(csv_rows(out)[1][0]["log_probability"])

        params = EnsembleParams(30, 0)
        queries = [
            TailQuery(stat, side, x)
            for stat in (Statistic.MAX_SQ, Statistic.MIN_SQ)
            for side in (Direction.GE, Direction.LE)
            for x in (0.3, 1.2, 4.0)
        ]
        target = queries.index(TailQuery(Statistic.MAX_SQ, Direction.GE, 1.2))
        serial = [exact_dist.log_prob(params, q) for q in queries]
        for threads in (1, 4):
            with ThreadPoolExecutor(max_workers=threads) as pool:
                concurrent = list(pool.map(lambda q: exact_dist.log_prob(params, q),
                                           queries * 3))
            assert concurrent == serial * 3
        assert serial[target] == printed

    def test_repeat_runs_identical(self):
        argv = ["rate", "--which", "max-left", "--alpha", "2.5", "--x", "0.7"]
        assert run_cli(argv)[1] == run_cli(argv)[1]

"""Tests for the command line interface.

Everything goes through ``chiral_ldp.cli.main(argv)`` directly so the tests
see the same code path as the console script: CSV/JSON row schemas, the
17-digit float round trip, diagnostics on stderr, and the exit-code contract
(0 ok, 1 verification failure, 2 usage or guard, 3 numeric failure).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chiral_ldp.cli as cli_module
import chiral_ldp.exact_dist as exact_dist
import chiral_ldp.sampler as sampler
import chiral_ldp.verification as verification
from chiral_ldp._quad import QuadratureError
from chiral_ldp.asymptotics_lab import THEOREMS, converge_table
from chiral_ldp.cli import main
from oracles import ks_critical

# Frozen reference values, computed once with mpmath (50 digits) and
# independent of the library code under test.
RATE_PINS = {
    ("max-right", "0", "1.5"): 0.18906978378367123604,
    ("max-right", "inf", "2"): 1.6137056388801093812,
    ("min-right", "0", "2"): 1.8068528194400546906,
    # at subnormal alpha, where 1/alpha overflows, the alpha = 0 rate
    ("min-right", "1e-309", "2"): 1.8068528194400546906,
    # where the rates vanish like (x-1)^2, (1-x)^3/3 and x^4/4
    ("max-right", "0", "1.00000001"): 9.9999998117839159997e-17,
    ("max-left", "0", "0.999999999999"): 3.3331121210282869973e-37,
    ("mdp-min-vscale", "0", "1e-8"): 2.4999999999999998759e-33,
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

    def test_kappa_below_the_square_root_of_the_smallest_normal(self):
        # x^2 underflows here, but kappa is about x since alpha << x
        argv = ["rate", "--which", "max-left", "--alpha", "1e-320", "--x", "1e-200"]
        code, out, _ = run_cli(argv)
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0]["kappa"]) == 1e-200
        assert float(rows[0]["value"]) == 459.01701859880916

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

    @pytest.mark.parametrize(
        "which, expected", [("mdp-max-left", 4.0 / 3.0 * 0.7**3), ("mdp-min-alpha", 0.7**4 / 4.0)]
    )
    def test_huge_finite_alpha_reaches_the_limit(self, which, expected):
        # (1+alpha)^2 overflowed above alpha ~ 1.3e154 and crashed the command
        code, out, _ = run_cli(["rate", "--which", which, "--alpha", "1e300", "--x", "0.7"])
        assert code == 0
        _, rows = csv_rows(out)
        assert float(rows[0]["value"]) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("which", [t.kind for t in THEOREMS.values()])
    def test_the_whole_double_range_gives_a_rate_or_a_refusal(self, which):
        # overflowing values read inf; only the flagged display goes negative
        for alpha in ("0", "1e-309", "1e-300", "1", "1e300", "1.7e308", "inf"):
            for x in ("1e-6", "0.5", "2", "1e103", "1e160"):
                code, out, err = run_cli(["rate", "--which", which, "--alpha", alpha, "--x", x])
                assert code in (0, 2), (alpha, x, err)
                assert "nan" not in out + err, (alpha, x)
                if code == 0:
                    row = csv_rows(out)[1][0]
                    assert float(row["value"]) >= 0.0 or row["warning"], (alpha, x)

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

    @pytest.mark.parametrize(
        "stat, x, window",
        [("max", "1.2", lambda first, last: 1 < first and last == 10**6),
         ("min", "0.01", lambda first, last: first == 1 and last < 2 * 10**4)],
    )
    def test_diagnostic_names_the_index_window(self, stat, x, window):
        # at n = 1e6 the max's upper tail lives in the top indices and the
        # min's in about x n low ones
        code, out, err = run_cli(
            ["prob", "--n", "1000000", "--v", "0", "--x", x, "--stat", stat, "--side", "ge"]
        )
        assert code == 0
        note = next(line for line in err.splitlines() if "gamma-shape ladder" in line)
        first, last = map(int, note.split("over indices ")[1].split(":")[0].split(".."))
        assert window(first, last)
        assert float(note.split("dropped tail below ")[1].split()[0]) <= math.exp(-40.0)

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
        # a NaN from the Bessel values must end as a numeric failure, never
        # as a number
        monkeypatch.setattr(exact_dist, "_kve_sums", lambda t, v: np.full((2, t.size), np.nan))
        code, out, err = run_cli(
            ["prob", "--n", "5", "--v", "2", "--x", "0.9", "--stat", "max", "--side", "le"]
        )
        assert code == 3
        _, rows = csv_rows(out)
        assert rows[0]["probability"] == ""
        assert "numeric failure: non-finite ladder value" in err
        assert "partial estimate nan with relative error inf" in err

    @pytest.mark.parametrize(
        "stat, side, log_probability, probability",
        [("max", "ge", "-inf", 0.0), ("max", "le", "0", 1.0),
         ("min", "ge", "-inf", 0.0), ("min", "le", "0", 1.0)],
    )
    def test_overflowing_threshold_gives_the_exact_limit(
        self, stat, side, log_probability, probability
    ):
        # t = 2x = inf: every sf is exactly 0 and every cdf 1; the printed
        # zero has no sign
        code, out, err = run_cli(
            ["prob", "--n", "1", "--v", "0", "--x", "1e308", "--stat", stat, "--side", side]
        )
        assert code == 0
        _, rows = csv_rows(out)
        assert rows[0]["log_probability"] == log_probability
        assert float(rows[0]["probability"]) == probability
        assert "numeric failure" not in err
        assert ("log-probability is -inf" in err) == (log_probability == "-inf")

    def test_threshold_below_the_bessel_range_exits_3(self):
        # t = 2x = 1e-305 lies below the trapezoid rule's range, which ends
        # near 2e-304
        code, out, err = run_cli(
            ["prob", "--n", "1", "--v", "0", "--x", "5e-306", "--stat", "max", "--side", "le"]
        )
        assert code == 3
        assert "numeric failure: non-finite ladder value at t=1e-305" in err


class TestExitCodes:
    """Usage and guard failures exit 2 with an error line on stderr."""

    @pytest.mark.parametrize(
        "argv, fragment",
        [
            (["rate", "--which", "max-right", "--alpha", "-1", "--x", "1.5"],
             "alpha must be >= 0"),
            (["rate", "--which", "max-right", "--alpha", "abc", "--x", "2"],
             "alpha must be a number, '0', or 'inf', got 'abc'"),
            (["converge", "--theorem", "t1-right", "--n", "25,50", "--v", "0,1,2"],
             "--v must list one value or match --n in length"),
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
            (["converge", "--theorem", "t1-right", "--v", "5"], "--v needs --n"),
            (["converge", "--theorem", "t4-item2", "--grid", "1000:80", "--v", "5"],
             "--v needs --n"),
            (["matrix", "--n", "3", "--count", "0", "--summary"], "count must be positive"),
            (["matrix", "--n", "3", "--count", "-2"], "count must be positive"),
            (["rate", "--which", "max-right", "--alpha", "0", "--x", "inf"],
             "x must be finite and >= 0, got inf"),
            (["rate", "--which", "max-left", "--alpha", "2", "--x", "inf"],
             "x must be finite and >= 0, got inf"),
            (["rate", "--which", "mdp-min-vscale", "--alpha", "0", "--x", "inf"],
             "x must be finite and >= 0, got inf"),
            (["rate", "--which", "mdp-max-right", "--alpha", "0", "--x", "nan"],
             "x must be finite and >= 0, got nan"),
            (["rate", "--which", "mdp-max-right", "--alpha", "0", "--x", "-1"],
             "x must be finite and >= 0, got -1.0"),
            (["rate", "--which", "mdp-max-left", "--alpha", "2", "--x", "-1"],
             "x must be finite and >= 0, got -1.0"),
            # the rates' own guards keep their messages and their order
            (["rate", "--which", "max-right", "--alpha", "0", "--x", "nan"],
             "x must be > 0"),
            (["rate", "--which", "mdp-min-alpha", "--alpha", "0", "--x", "-1"],
             "x must be >= 0"),
            (["rate", "--which", "mdp-min-alpha", "--alpha", "0", "--x", "inf"],
             "alpha-positive regime needs alpha > 0"),
            # converge refuses the levels that rate refuses, with its message
            (["converge", "--theorem", "t3-left", "--n", "300", "--x", "-1"],
             "x must be finite and >= 0, got -1.0"),
            (["converge", "--theorem", "t3-right", "--n", "300", "--x", "-1"],
             "x must be finite and >= 0, got -1.0"),
        ],
    )
    def test_guard_failures(self, argv, fragment):
        code, out, err = run_cli(argv)
        assert code == 2
        assert fragment in err
        assert "error:" in err

    @pytest.mark.parametrize("which", ["max-right", "min-right"])
    def test_refused_level_leaves_only_the_error_line(self, which):
        # the rate still runs before the level check, so that its own guards
        # speak first, but its numpy warnings at x = inf do not reach stderr
        result = TestImportCost._fresh(
            ["-m", "chiral_ldp.cli", "rate", "--which", which, "--alpha", "2", "--x", "inf"]
        )
        assert result.returncode == 2
        assert result.stderr == "error: x must be finite and >= 0, got inf\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "3", "--j", "1", "--count", "2"],
            ["matrix", "--n", "3", "--count", "5", "--summary"],
        ],
        ids=["sample", "matrix"],
    )
    def test_seed_beyond_the_philox_key_exits_2(self, argv):
        # a Philox key word holds seeds below 2**64; the largest one runs
        for seed in (2**64, 2**64 + 5):
            code, out, err = run_cli(argv + ["--seed", str(seed)])
            assert (code, out) == (2, "")
            assert err == f"error: seed and stream must be in [0, 2**64), got seed {seed}\n"
        code, _, err = run_cli(argv + ["--seed", str(2**64 - 1)])
        assert code == 0 and "error" not in err

    def test_argparse_rejects_unknown_choice(self):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(["rate", "--which", "sideways", "--alpha", "0", "--x", "1.5"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "5", "--v", "2", "--j", "3", "--count", "40", "--ks"],
            ["matrix", "--n", "3", "--v", "1", "--count", "40", "--ks"],
        ],
    )
    def test_ks_failure_reports_the_partial_estimate(self, argv, monkeypatch):
        # a truncation target no reverse sum reaches within its cap makes the
        # KS ladder fail; the partial distance is reported as prob reports its
        monkeypatch.setattr(exact_dist, "_TRUNCATION_NATS", 1e6)
        code, out, err = run_cli(argv)
        assert code == 3
        assert out == ""
        cause, partial = err.splitlines()
        assert cause.startswith("numeric failure: reverse ladder sum at t=")
        words = partial.split()
        assert words[:2] == ["partial", "estimate"] and words[3:6] == ["with", "relative", "error"]
        assert 0.0 < float(words[2]) < 1.0

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
            # int() accepts the tab, and the grid text is echoed with it
            (["converge", "--theorem", "t1-right", "--grid", "25:0\t"], "converge"),
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

    def test_json_scalar_escapes_every_control_character(self):
        text = "".join(map(chr, range(0x20))) + '"\\ ok'
        assert json.loads(cli_module._json_scalar(text)) == text

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


class TestParameterEcho:
    """Each command echoes its parameters, and only those, in the order its
    parser declares them, whatever the order on the command line: on the
    CSV stderr line and as the JSON record's parameters.  Mode flags
    (--summary, --ks) and --format are not echoed."""

    @pytest.mark.parametrize(
        "argv, echo",
        [
            (["rate", "--which", "max-right", "--x", "1.5", "--alpha", "0"],
             "rate alpha=0 x=1.5 which=max-right"),
            (["prob", "--side", "le", "--stat", "min", "--x", "0.5", "--n", "3"],
             "prob n=3 v=0 x=0.5 stat=min side=le"),
            (["sample", "--n", "2", "--j", "2", "--count", "3"],
             "sample n=2 v=0 j=2 seed=0 count=3"),
            (["sample", "--ks", "--seed", "3", "--count", "50", "--j", "3", "--v", "2",
              "--n", "5"],
             "sample n=5 v=2 j=3 seed=3 count=50"),
            (["matrix", "--summary", "--count", "30", "--n", "3"],
             "matrix n=3 v=0 seed=0 count=30"),
            (["converge", "--theorem", "clt", "--grid", "500:0"],
             "converge theorem=clt x= grid=500:0 n= v="),
            (["converge", "--v", "0", "--n", "500,600", "--theorem", "clt"],
             "converge theorem=clt x= grid= n=500,600 v=0"),
            (["verify", "--quick"], "verify quick=true"),
        ],
    )
    def test_echo_in_parser_order(self, argv, echo, monkeypatch):
        import types

        # the echo does not depend on the checks: skip running them
        fake = [types.SimpleNamespace(name="synthetic", passed=True, detail="", elapsed=0.0)]
        monkeypatch.setattr(cli_module, "run_checks", lambda quick: fake)
        code, _, err = run_cli(argv)
        assert code == 0
        assert err.splitlines()[0] == f"# {echo}"
        code, out, _ = run_cli(argv + ["--format", "json"])
        assert code == 0
        keys = [pair.split("=")[0] for pair in echo.split()[1:]]
        assert list(json.loads(out)["parameters"]) == keys


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

    def test_summary_of_one_draw_has_no_spread(self):
        code, out, _ = run_cli(["sample", "--n", "5", "--j", "1", "--count", "1", "--summary"])
        assert code == 0
        row = csv_rows(out)[1][0]
        assert int(row["count"]) == 1
        assert float(row["sd_t"]) == 0.0 and float(row["se_t"]) == 0.0

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

    def test_singular_replicates_are_reported(self, monkeypatch):
        # P = Q in replicate 0 makes its M the zero matrix
        real = sampler._complex_rect

        def rect(u, rows, cols, var_component):
            z = real(u, rows, cols, var_component)
            z[0] = 1.0
            return z

        monkeypatch.setattr(sampler, "_complex_rect", rect)
        code, out, err = run_cli(
            ["matrix", "--n", "3", "--v", "1", "--count", "5", "--seed", "6", "--summary"]
        )
        assert code == 0
        assert int(csv_rows(out)[1][0]["resample_count"]) == 1
        assert "# 1 replicate(s) flagged for resampling (M was numerically singular" in err


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

    def test_default_grid_gives_one_row_per_entry(self):
        code, out, _ = run_cli(["converge", "--theorem", "t1-right"])
        assert code == 0
        rows = csv_rows(out)[1]
        assert [(int(r["n"]), int(r["v"])) for r in rows] == list(THEOREMS["t1-right"].grid)

    def test_rate_and_converge_read_one_table(self):
        """Every theorem's ``rate`` kind gives the converge row's target bit
        for bit, and both commands offer exactly the table's entries."""
        n, v = 40, 12
        for tag, theorem in THEOREMS.items():
            for x in (f * theorem.x for f in (0.3, 0.63, 1.1, 1.3, 2.3)):
                code, out, _ = run_cli(
                    ["rate", "--which", theorem.kind, "--alpha", repr(v / n), "--x", repr(x)]
                )
                assert code == 0, (tag, x)
                (row,) = csv_rows(out)[1]
                (conv,) = converge_table(tag, grid=((n, v),), x=x)
                assert float(row["value"]) == conv.rate_target, (tag, x)
        sub = next(
            a for a in cli_module._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )

        def choices(command, dest):
            action = next(a for a in sub.choices[command]._actions if a.dest == dest)
            return tuple(action.choices)

        assert choices("rate", "which") == tuple(t.kind for t in THEOREMS.values())
        assert choices("converge", "theorem") == tuple(THEOREMS) + ("clt",)

    def test_statement_form_at_huge_levels(self):
        # from x ~ 6.7e153 4x^2 overflowed and log(inf - inf) printed nan
        code, out, _ = run_cli(["converge", "--theorem", "t4-item2", "--grid", "10000:100", "--x", "1e160"])
        assert code == 0
        assert "nan" not in out
        (row,) = csv_rows(out)[1]
        assert float(row["alt_rate_target"]) == pytest.approx(math.log(1e160), rel=1e-15)

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

    def test_full_suite_green(self):
        # the sampler, probe and rate-trend checks run only in the full suite
        results = verification.run_checks(quick=False)
        assert [r.name for r in results] == verification.check_names(quick=False)
        assert [r.name for r in results if not r.passed] == []

    def test_a_raising_check_fails_and_the_suite_goes_on(self, monkeypatch):
        def boom():
            raise RuntimeError("forced")

        name, _ = verification._QUICK[0]
        monkeypatch.setattr(verification, "_QUICK", ((name, boom),) + verification._QUICK[1:])
        results = verification.run_checks(quick=True)
        assert (results[0].name, results[0].passed) == (name, False)
        assert results[0].detail == "raised RuntimeError: forced"
        assert all(r.passed for r in results[1:])


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

    def test_concurrent_callers_share_the_block_pool(self, monkeypatch):
        # four user threads call the pooled entry points at once, with more
        # pool threads than the machine may have CPUs and a short switch
        # interval; each gets the serial result, and none waits forever
        import threading

        from chiral_ldp.core_types import EnsembleParams

        monkeypatch.setattr(exact_dist, "_WORKERS", 3)
        monkeypatch.setattr(exact_dist, "_CHUNK_ELEMENTS", 30_000)
        params = EnsembleParams(3, 1)
        config = sampler.MatrixProbeConfig(params)
        x = np.linspace(0.2, 2.0, 500)

        def calls(seed):
            probe = sampler.matrix_probe_extremes(config, seed, 700)
            return [
                sampler.ks_statistic_max(params, x * (1.0 + seed / 100.0)).hex(),
                probe["max"].tobytes(),
                probe["min"].tobytes(),
                probe["resample"].tobytes(),
                sampler.sample_yj(params, 2, seed, 900).values.tobytes(),
            ]

        seeds = range(4)
        serial = [calls(seed) for seed in seeds]
        concurrent = {}

        def user(seed):
            concurrent[seed] = [calls(seed) for _ in range(3)]

        users = [threading.Thread(target=user, args=(seed,), daemon=True) for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in users:
                thread.start()
            for thread in users:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in users)
        assert [concurrent[seed] for seed in seeds] == [[want] * 3 for want in serial]

    def test_repeat_runs_identical(self):
        argv = ["rate", "--which", "max-left", "--alpha", "2.5", "--x", "0.7"]
        assert run_cli(argv)[1] == run_cli(argv)[1]


class TestImportCost:
    """Importing the library and the CLI stays cheap: scipy loads only for
    ``verify``."""

    @staticmethod
    def _fresh(args):
        src = str(Path(cli_module.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        return subprocess.run(
            [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
        )

    def test_scipy_integrate_is_not_imported(self):
        # scipy.integrate alone adds about a third of a second to every start
        result = self._fresh([
            "-c", "import sys, chiral_ldp, chiral_ldp.cli\n"
            "print('scipy.integrate' in sys.modules)",
        ])
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_scipy_special_is_not_imported(self):
        # scipy.special takes about 0.25 s to import; every command but
        # verify runs without it
        commands = [
            ["prob", "--n", "5", "--v", "2", "--x", "0.9", "--stat", "max", "--side", "ge"],
            ["rate", "--which", "min-right", "--alpha", "2.5", "--x", "1.5"],
            ["converge", "--theorem", "t1-right", "--grid", "20:0,40:0"],
            ["converge", "--theorem", "clt", "--n", "200"],
            ["sample", "--n", "5", "--v", "2", "--j", "3", "--count", "200", "--ks"],
            ["matrix", "--n", "3", "--v", "1", "--count", "50", "--ks"],
        ]
        code = (
            "import contextlib, io, sys, numpy as np\n"
            "import chiral_ldp, chiral_ldp.cli\n"
            "from chiral_ldp import Direction, EnsembleParams, Statistic, TailQuery\n"
            "params = EnsembleParams(5, 2)\n"
            "chiral_ldp.log_prob(params, TailQuery(Statistic.MAX_SQ, Direction.GE, 1.5))\n"
            "chiral_ldp.ks_statistic(params, 3, np.linspace(0.05, 2.0, 40))\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert chiral_ldp.cli.main(argv) == 0, argv\n"
            "print('scipy.special' in sys.modules)"
        )
        result = self._fresh(["-c", code])
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"

    def test_verify_quick_runs_in_a_fresh_process(self):
        result = self._fresh(["-m", "chiral_ldp.cli", "verify", "--quick"])
        assert result.returncode == 0, result.stdout + result.stderr

"""The output digest of tools/cli_digest.py: what it masks and what it keeps."""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "cli_digest.py"
_SPEC = importlib.util.spec_from_file_location("cli_digest", _PATH)
cli_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_digest)

VERIFY_CSV = (
    "name,passed,detail,elapsed_ms,schema_version\n"
    'tail-complement,true,"worst 6.7e-16, bound 1e-09",{a},1\n'
    "sf-monotone,false,ok,{b},1\n"
)
VERIFY_JSON = (
    '{{"schema_version": "1", "command": "verify", "parameters": {{"quick": true}}, '
    '"results": [{{"name": "a", "passed": true, "detail": "x", "elapsed_ms": {a}}}, '
    '{{"name": "b", "passed": true, "detail": "y", "elapsed_ms": {b}}}], "diagnostics": []}}\n'
)


@pytest.mark.parametrize("text", [VERIFY_CSV, VERIFY_JSON])
def test_only_the_timings_are_masked(text):
    fast, slow = text.format(a=0, b=3), text.format(a=1250, b=7)
    masked = cli_digest.mask_elapsed(fast)
    assert masked == cli_digest.mask_elapsed(slow)
    assert masked == text.format(a="-", b="-")


@pytest.mark.parametrize(
    "text",
    [
        "",
        "n,v,x,stat,side,log_probability,probability,schema_version\n5,0,1,max,ge,-1,0.3,1\n",
        '{"schema_version": "1", "command": "prob", "results": [{"elapsed": 3}]}\n',
    ],
)
def test_other_output_is_left_as_it_is(text):
    assert cli_digest.mask_elapsed(text) == text


def test_a_listing_line_hashes_stdout_and_stderr():
    command = "rate --which max-right --alpha 0 --x 1.5"
    out, err, code, rest = cli_digest.digest(command).split(" ", 3)
    assert (code, rest) == ("0", command)
    assert err == hashlib.sha256(b"# rate alpha=0 x=1.5 which=max-right\n").hexdigest()
    assert out != hashlib.sha256(b"").hexdigest()

"""The pool digest of tools/pool_digest.py: one well-formed line per output,
the same on a second run."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "pool_digest.py"
_SPEC = importlib.util.spec_from_file_location("pool_digest", _PATH)
pool_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pool_digest)


def test_a_listing_is_the_same_twice_and_well_formed():
    from workloads import pool  # perfbench/, which the tool puts on the path

    mods = pool_digest.run.load_library()
    ops = pool("queries")[:3]
    lines, failures = pool_digest.listing("queries", mods, ops)
    assert failures == {}
    assert pool_digest.listing("queries", mods, ops) == (lines, {})
    assert [line.split("\t")[1] for line in lines] == [op.id for op in ops]
    for line in lines:
        workload, _, key, value = line.split("\t")
        assert workload == "queries" and key == "num:log_p"
        assert float.fromhex(value).hex() == value

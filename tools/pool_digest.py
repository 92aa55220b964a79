"""Digest the benchmark pool's outputs, to compare two trees bit for bit.

    python3 tools/pool_digest.py > listing.txt

The pool-side twin of ``tools/cli_digest.py``.  Runs every op that
``perfbench/workloads.pool`` lists for each workload once, through
``perfbench/run.run_pass`` against the stored reference outputs, with BLAS
pools capped as ``run.THREAD_CAPS`` caps them and the package imported
from this tree's ``src/``, and prints one tab-separated line per output:

    workload op key value

with floats as ``float.hex``, in op order and then key order, and last the
number of lines and the sha256 of the listing.  Two trees whose listings
match give the same bits on every output of the pool.  Exits 1, naming the
failures on stderr, when any op raises, fails its check or differs from
its stored reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import run  # noqa: E402  (perfbench/run.py, importable from the line above)


def _value(value) -> str:
    return value.hex() if isinstance(value, float) else str(value)


def listing(workload: str, mods: dict, ops: list | None = None) -> tuple[list[str], dict]:
    """The listing lines of ``ops`` (all of ``workload``'s pool when None),
    run once with ``mods`` (``run.load_library()``), and the failures of
    the pass, by op id."""
    from workloads import pool

    ops = pool(workload) if ops is None else ops
    result = run.run_pass(ops, mods, run.load_reference(workload))
    lines = [
        f"{workload}\t{op.id}\t{key}\t{_value(value)}"
        for op, text in zip(ops, result["outputs"])
        if text is not None  # an op that raised, listed among the failures
        for key, value in sorted(json.loads(text).items())
    ]
    return lines, result["failures"]


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(argv)
    os.environ.update(run.THREAD_CAPS)  # before numpy loads
    from workloads import WORKLOADS

    mods = run.load_library()
    lines, failures = [], {}
    for workload in WORKLOADS:
        more, failed = listing(workload, mods)
        lines += more
        failures.update({f"{workload} {op}": problems for op, problems in failed.items()})
    text = "".join(f"{line}\n" for line in lines)
    sys.stdout.write(text)
    print(f"{len(lines)} outputs, sha256 {hashlib.sha256(text.encode()).hexdigest()}")
    for op, problems in failures.items():
        print(f"failed: {op}: {'; '.join(problems)}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

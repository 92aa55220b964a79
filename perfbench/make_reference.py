"""Record the stored reference outputs that runs compare against.

    python3 perfbench/make_reference.py

Runs every op that any seed can produce (``workloads.pool``) once, untraced,
and stores per op id the exact values (``num:``) and draw checksums
(``sha:``) in ``reference.json``.  Recording stops without writing if any
op fails its own checks.  Run it only when the workloads change.
"""

from __future__ import annotations

import json
import os
import sys

import run


def main() -> int:
    os.environ.update(run.THREAD_CAPS)
    os.environ.pop("CHIRAL_LDP_THREADS", None)
    from workloads import WORKLOADS, pool, stored_part

    mods = run.load_library()
    stored = {}
    for workload in WORKLOADS:
        ops = pool(workload)
        result = run.run_pass(ops, mods, None)
        if result["failures"]:
            for op_id, problems in result["failures"].items():
                print(f"FAILED {op_id}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        stored[workload] = {op.id: stored_part(json.loads(out)) for op, out in zip(ops, result["outputs"])}
        print(f"{workload}: {len(ops)} ops recorded in {result['wall']:.1f} s", flush=True)
    run.REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

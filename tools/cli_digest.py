"""Digest the command line's outputs, to compare two trees byte for byte.

    python3 tools/cli_digest.py [--full] > listing.txt

Runs every command of ``COMMANDS`` (with ``--full``, the full ``verify``
too), each in a fresh ``python -m chiral_ldp.cli`` process that imports the
package from this tree's ``src/``, and prints one line per command:

    sha256(stdout) sha256(stderr) exit command

``verify``'s ``elapsed_ms`` column is a timing, so its values are masked
(CSV and JSON) before hashing.  Two trees whose listings match print the
same bytes on every command listed, timings aside.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PROB = "prob --n 1000 --v 10 --stat {stat} --side {side} --x {x}"

COMMANDS: tuple[str, ...] = (
    *(
        _PROB.format(stat=stat, side=side, x=x)
        for stat, x in (("max", 1.3), ("min", 0.3))
        for side in ("ge", "le")
    ),
    "prob --n 1000000 --x 1 --stat max --side le",
    "prob --n 1000000 --x 1 --stat max --side ge",
    "prob --n 1000000 --v 7 --x 0.01 --stat min --side le",
    "prob --n 50 --v 3 --x 1e308 --stat max --side ge",
    "prob --n 50 --v 3 --x 1e308 --stat min --side le",
    "prob --n 200 --v 40 --x 0.9 --stat max --side le --format json",
    "prob --n 5 --x -1 --stat max --side ge",
    "sample --n 5 --v 2 --j 3 --count 20",
    "sample --n 50 --v 3 --j 10 --count 1000 --summary",
    "sample --n 5 --v 2 --j 3 --count 500 --ks",
    "sample --n 200 --j 200 --count 2000 --ks",
    "sample --n 200 --v 5 --j 1 --count 1000 --ks --format json",
    "matrix --n 4 --v 1 --count 10",
    "matrix --n 10 --v 2 --count 100 --summary",
    "matrix --n 3 --v 1 --count 400 --ks",
    "matrix --n 20 --count 200 --ks --format json",
    *(
        f"converge --theorem {theorem}{grid}"
        for theorem in ("t1-right", "t2", "t4-item2", "clt")
        for grid in ("", " --n 500,2000 --format json")
    ),
    "converge --theorem t4-item2 --n 500,2000 --v 50,200 --format json",
    "converge --theorem t4-item3 --grid 1000:1000",
    "rate --which mdp-max-left --alpha 0 --x 0.5",
    "rate --which mdp-max-right --alpha 0 --x 1.5",
    "rate --which max-left --alpha inf --x 0.5 --format json",
    # the edges of the double range, where kappa, the constants or x^p overflow
    *(
        f"rate --which {which} --alpha {alpha} --x {x}"
        for which, alpha, x in (
            ("max-left", "5e307", "0.5"),
            ("min-right", "5e307", "1"),
            ("max-right", "1.7e308", "2"),
            ("mdp-max-right", "1e308", "1"),
            ("mdp-min-alpha", "1e-300", "1"),
            ("mdp-max-left", "0", "1e103"),
            ("mdp-min-alpha", "1", "1e103"),
            ("mdp-min-vscale", "0", "1e154"),
            ("max-right", "1", "1e160"),
            ("min-right", "1", "1e160"),
            ("max-right", "1.7e308", "1.2e154"),
            ("min-right", "1.7e308", "1.2e154"),
        )
    ),
    "converge --theorem t4-item2 --grid 10000:100 --x 1e160",
    # near x = 1 the rates vanish, and a form that subtracts O(1) terms loses them
    "rate --which max-right --alpha 0 --x 1.00000001",
    "rate --which max-left --alpha 0 --x 0.999999999999",
    "rate --which mdp-min-vscale --alpha 0 --x 1e-8",
    "converge --theorem t4-item2 --grid 10000:100 --x 1e-3",
    # at subnormal alpha 1/alpha overflows; where kappa underflows log kappa does
    "rate --which min-right --alpha 1e-309 --x 2",
    "rate --which max-left --alpha 1e300 --x 1e-200",
    "verify --quick",
    "verify --quick --format json",
)

_JSON_ELAPSED = re.compile(r'"elapsed_ms": -?\d+')


def mask_elapsed(stdout: str) -> str:
    """``stdout`` with every ``elapsed_ms`` value replaced by ``-``: the
    column of a CSV table whose header names it, or the member of a JSON
    record; any other text is returned as it is."""
    if stdout.startswith("{"):
        return _JSON_ELAPSED.sub('"elapsed_ms": -', stdout)
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or "elapsed_ms" not in rows[0]:
        return stdout
    at = rows[0].index("elapsed_ms")
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(rows[0])
    writer.writerows(row[:at] + ["-"] + row[at + 1 :] for row in rows[1:])
    return out.getvalue()


def digest(command: str) -> str:
    """One listing line: the hashes of ``command``'s masked stdout and its
    stderr, its exit code, and the command."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "chiral_ldp.cli", *shlex.split(command)],
        capture_output=True, text=True, env=env,
    )
    out = hashlib.sha256(mask_elapsed(done.stdout).encode()).hexdigest()
    err = hashlib.sha256(done.stderr.encode()).hexdigest()
    return f"{out} {err} {done.returncode} {command}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--full", action="store_true", help="add the full verify suite")
    args = parser.parse_args(argv)
    for command in COMMANDS + (("verify",) if args.full else ()):
        print(digest(command), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

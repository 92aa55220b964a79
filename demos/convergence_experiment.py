"""Exact finite-size exponents marching toward their limiting rates.

For each limit theorem the library computes -log P exactly at finite
(n, v), divides by the theorem's speed, and compares with the limiting
rate.  This script prints one table per regime so the convergence (and
its finite-size bias) is visible row by row.

Total run time is a few seconds.
"""

from chiral_ldp import converge_table

HEADERS = ("n", "v", "exact/speed", "target", "gap")


def show(title, rows, note=""):
    print()
    print(title)
    print("-" * len(title))
    print(f"{HEADERS[0]:>8} {HEADERS[1]:>6} {HEADERS[2]:>12} "
          f"{HEADERS[3]:>10} {HEADERS[4]:>9}")
    for r in rows:
        print(f"{r.n:>8} {r.v:>6} {r.exact / r.scaling:>12.6f} "
              f"{r.rate_target:>10.6f} {r.scaled_gap:>9.5f}"
              + (f"   {r.note}" if r.note else ""))
    if note:
        print(note)


show(
    "Large deviations, max above the edge (speed n), x = 1.5",
    converge_table("t1-right", grid=((25, 0), (50, 0), (100, 0), (200, 0))),
    "Gap shrinks roughly like log(n)/n: the prefactor is polynomial in n.",
)

show(
    "Large deviations, max below the edge (speed n^2), x = 0.5",
    converge_table("t1-left", grid=((25, 0), (50, 0), (100, 0))),
    "Pushing ALL eigenvalues below 0.5 costs n^2: every index participates.",
)

show(
    "Large deviations, min above x (speed n^2), x = 2.0",
    converge_table("t2", grid=((25, 0), (50, 0), (100, 0)), x=2.0),
)

show(
    "Moderate deviations, max right (speed n l^2), l = n^(-1/3)",
    converge_table("t3-right", grid=((1000, 0), (10_000, 0))),
    "The scaled exponent crosses 1 from above as the window narrows.",
)

show(
    "Moderate deviations, max left (speed n^2 l^3), l = n^(-1/4)",
    converge_table("t3-left", grid=((10_000, 0), (100_000, 0), (1_000_000, 0))),
)

rows = converge_table("t4-item2")  # v = sqrt(n): v grows while v/n falls
show(
    "Min at the v-scale (speed v^2), l = v/n, v = sqrt(n)",
    rows,
    "Converges to the proof-form constant 0.122572, not the statement-form\n"
    "0.161754; the alt_* columns in the library carry the latter.",
)

print()
print("Adjudication: gap to each candidate constant along the same grid")
print(f"{'n':>8} {'proof-form gap':>15} {'statement-form gap':>19}")
for r in rows:
    print(f"{r.n:>8} {r.scaled_gap:>15.5f} {r.alt_scaled_gap:>19.5f}")
print("The exponent falls toward the proof value: its gap to the proof form")
print("shrinks row by row while the gap to the statement form grows.")

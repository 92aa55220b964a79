"""Monte Carlo draws against the exact law, two ways.

First the fast path: the independent surrogate sampler for a single index
variable Y_j, checked against its exact law by moments and a KS statistic.
Then the slow path: eigenvalues of actually-sampled block matrices, whose
scaled extreme moduli must match the independent model in distribution --
that distributional identity is what makes everything else in the library
tractable.

Run time is a few seconds.
"""

import math

import numpy as np

from chiral_ldp import (
    Direction,
    EnsembleParams,
    MatrixProbeConfig,
    Statistic,
    TailQuery,
    ks_statistic,
    ks_statistic_max,
    log_prob,
    matrix_probe_extremes,
    sample_yj,
)

print("Surrogate sampler for Y_j at (n, v, j) = (5, 2, 3)")
print("--------------------------------------------------")
params = EnsembleParams(5, 2)
batch = sample_yj(params, j=3, seed=11, count=100_000)
t = 2.0 * params.n * batch.values
mean, sd = float(t.mean()), float(t.std(ddof=1))
se = sd / math.sqrt(t.size)
# E[2nY_j] = 2 Gamma(j+1/2) Gamma(j+v+1/2) / (Gamma(j) Gamma(j+v))
ref = 2.0 * math.exp(
    math.lgamma(3.5) + math.lgamma(5.5) - math.lgamma(3.0) - math.lgamma(5.0)
)
print(f"draws            : {t.size}")
print(f"mean of 2nY_j    : {mean:.5f} +- {se:.5f}")
print(f"closed-form mean : {ref:.5f}   (z = {(mean - ref) / se:+.2f})")
ks = ks_statistic(params, 3, batch.values)
print(f"KS vs exact CDF  : {ks:.5f}  (99.9% band at this size: "
      f"{math.sqrt(-0.5 * math.log(0.0005)) / math.sqrt(t.size):.5f})")

print()
print("Reproducibility: the stream is keyed by (seed, j), so a rerun or a")
print("longer batch reproduces the same leading draws bit for bit:")
again = sample_yj(params, j=3, seed=11, count=10)
print(f"  first 3, count 1e5: {batch.values[:3]}")
print(f"  first 3, count 10 : {again.values[:3]}")
assert np.array_equal(batch.values[:10], again.values)

print()
print("Matrix probe at (n, v) = (3, 1): the real ensemble")
print("--------------------------------------------------")
config = MatrixProbeConfig(EnsembleParams(3, 1))
out = matrix_probe_extremes(config, seed=7, count=2000)
print(f"replicates       : {out['max'].size} "
      f"({int(out['resample'].sum())} flagged as numerically singular)")
print(f"mean scaled max  : {float(out['max'].mean()):.5f}")
print(f"mean scaled min  : {float(out['min'].mean()):.5f}")

ks_max = ks_statistic_max(EnsembleParams(3, 1), out["max"])
print(f"KS of max sample vs independent-model CDF: {ks_max:.5f}")

x = 1.1
query = TailQuery(Statistic.MAX_SQ, Direction.LE, x)
exact = math.exp(log_prob(EnsembleParams(3, 1), query))
emp = float((out["max"] <= x).mean())
band = 4.0 * math.sqrt(exact * (1.0 - exact) / out["max"].size)
print(f"P(max <= {x}): exact {exact:.5f}, empirical {emp:.5f} "
      f"(4 sigma band {band:.5f})")
print()
print("The coupled eigenvalue moduli and the independent surrogates agree in")
print("distribution for extreme statistics; the library computes with the")
print("surrogates and uses matrices only for spot checks like this one.")

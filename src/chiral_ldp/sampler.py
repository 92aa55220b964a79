"""Reproducible samplers for the squared-modulus law and a direct matrix probe.

Two independent routes to the same distributions:

* :func:`sample_yj` draws the independent surrogate variables ``Y_j`` whose
  order statistics match the squared eigenvalue moduli.  ``2n Y_j`` has
  density proportional to ``t^(2j+v-1) K_v(t)``, realised exactly as
  ``2 sqrt(G_a G_b)`` with independent ``G_a ~ Gamma(j)`` and
  ``G_b ~ Gamma(j+v)``.
* :func:`matrix_probe_extremes` builds the block matrix from two complex
  Gaussian rectangles and takes its extreme eigenvalue moduli from a
  batched dense eigensolve per block of replicates.  It exists to
  cross-check the surrogate route against the ensemble itself, so it shares
  no sampling code with it.

Every draw is a pure function of ``(seed, stream, replicate index)``.  The
gamma sampler is pinned (Marsaglia-Tsang with a fixed rejection budget and
Box-Muller normals) instead of delegating to ``Generator.gamma`` so that
values are stable across numpy versions; Philox is used purely as a
counter-based source of 64-bit words (Salmon et al., SC'11), which both
routes read raw and turn into uniforms by one map, (w >> 11) * 2**-53 (see
:func:`_uniforms`).  Each replicate owns a fixed slab of words (144 for a
``Y_j``: 24 rounds of 3 per gamma, two gammas; 4 n (n + v) for a probe
matrix), row i starting at word i * (words per row) of the (seed, stream)
Philox stream.  Philox emits four words per counter value, and every row
length is a multiple of four, so :func:`_stream_rows` starts any block of
rows directly at counter first row * (words per row) / 4, with no
generator carried from block to block.  Both routes hand their replicate
count and words per row to the exact layer's
:func:`exact_dist._run_blocks`, which cuts the replicates into blocks and
runs them on its thread pool, each block drawing its own words and writing
its own slice of the output, so the values are the same bits for any block
size and CPU count.  Rejection rounds are evaluated lazily: round r only
for the rows no earlier round accepted, so a draw costs about one round,
not 24.

:func:`ks_statistic`, :func:`ks_statistic_max` and :func:`ks_statistic_min`
compare a sample with its exact law through the exact layer's
:func:`exact_dist._ks`, which the command line's ``sample --ks`` and
``matrix --ks`` call too.  It evaluates the exact cdf (cdf_j, prod_j cdf_j
or 1 - prod_j sf_j) at every sample point by the gamma-shape ladder, so the
distance is exact, not interpolated from a grid; the exact layer runs the
ladder over blocks of points on the same pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_types import EnsembleParams, Statistic, check_index, derived_scales
from .exact_dist import _ks, _run_blocks

__all__ = [
    "SampleBatch",
    "MatrixProbeConfig",
    "sample_yj",
    "sample_extremes_independent",
    "matrix_probe_extremes",
    "ks_statistic",
    "ks_statistic_max",
    "ks_statistic_min",
]

# Rejection rounds per gamma draw, three words each.  Acceptance per round
# exceeds 0.95 for shape >= 1, so 24 rounds leave a failure probability below
# 1e-30 per draw; nearly all rows stop after round 0 (see _gamma_from_words).
# sample_yj draws the 2 * 24 * 3 = 144 words of each row in blocks of at most
# _CHUNK_ELEMENTS // _WORKERS // 144 rows (3472 rows, 4 MB, on two CPUs).
_GAMMA_ROUNDS = 24

# Stream id offset for the matrix probe, disjoint from index streams 1..n.
_MATRIX_STREAM = 2**32


@dataclass(frozen=True)
class SampleBatch:
    """A reproducible batch of draws from one stream."""

    seed: int
    stream: int
    count: int
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.count != self.values.shape[0]:
            raise ValueError("count does not match values length")


@dataclass(frozen=True)
class MatrixProbeConfig:
    """Settings for the direct matrix probe.

    The probe assembles dense matrices, so it is capped at small sizes;
    the surrogate sampler covers everything larger.
    """

    params: EnsembleParams

    def __post_init__(self) -> None:
        if self.params.n > 64:
            raise ValueError("matrix probe is limited to n <= 64")


def _stream_rows(seed: int, stream: int, rows: slice, shape: tuple[int, ...]) -> np.ndarray:
    """Rows ``rows`` of the given shape of the 64-bit words of the Philox
    stream keyed by (seed, stream).

    The words fill in C order, four per counter value, so row i is words
    i * w .. (i + 1) * w - 1 of the stream (w words per row, a multiple of
    four), which a generator started at counter ``rows.start * w // 4``
    reaches first: row i is a pure function of (seed, stream, i) however
    the rows are split.  Every key is built here: a seed or stream outside
    [0, 2**64) raises ``ValueError`` naming it.
    """
    for name, value in (("seed", seed), ("stream", stream)):
        if not 0 <= value < 2**64:
            raise ValueError(f"seed and stream must be in [0, 2**64), got {name} {value}")
    words = math.prod(shape)
    assert words % 4 == 0, "a row must start on a Philox counter"
    size = (rows.stop - rows.start, *shape)
    bits = np.random.Philox(
        key=np.array([seed, stream], dtype=np.uint64), counter=rows.start * words // 4
    )
    return bits.random_raw(size)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """(w >> 11) * 2**-53 of each Philox word w, as ``Generator.random`` maps a word to [0, 1)."""
    return (words >> 11) * 2.0**-53


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # 1 - u1 lies in (0, 1], so the log never diverges.
    r = np.sqrt(-2.0 * np.log1p(-u1))
    ang = 2.0 * math.pi * u2
    return r * np.cos(ang), r * np.sin(ang)


def _gamma_from_words(shape_a: float, words: np.ndarray) -> np.ndarray:
    """Marsaglia-Tsang Gamma(shape_a) draws, one per row of Philox words.

    ``words`` has shape (count, _GAMMA_ROUNDS, 3); the first accepted round
    per row wins.  Rounds are evaluated lazily, each converting the words it
    reads to uniforms (see :func:`_uniforms`): round 0 on every row
    (read as a view), round r only on the rows that rounds 0 .. r-1
    rejected.  Every test is element-wise, so each row's draw is the one an
    evaluation of all rounds for all rows would pick.  Raises
    ``RuntimeError`` when a row rejects all rounds.  ``shape_a`` is j or
    j + v, after :func:`check_index`, so it is at least 1.
    """
    d = shape_a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)

    pending = slice(None)  # round 0 reads every row, as a view
    for r in range(_GAMMA_ROUNDS):
        u1, u2, u3 = _uniforms(words[pending, r]).T
        # the cosine half of _box_muller: 1 - u1 lies in (0, 1]
        z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)

        base = 1.0 + c * z
        valid = base > 0.0
        vcube = np.where(valid, base, 1.0) ** 3
        # Squeeze first, full log test second; both against the same u3.
        squeeze = u3 < 1.0 - 0.0331 * z**4
        with np.errstate(divide="ignore"):
            logu = np.log(np.where(u3 > 0.0, u3, 1.0))
        full = logu < 0.5 * z**2 + d - d * vcube + d * np.log(vcube)
        accept = valid & (u3 > 0.0) & (squeeze | full)

        if r == 0:  # every row takes round 0's draw; later rounds overwrite the rejected
            out, pending = d * vcube, np.flatnonzero(~accept)
        else:
            out[pending[accept]] = d * vcube[accept]
            pending = pending[~accept]
        if pending.size == 0:
            return out
    raise RuntimeError("gamma rejection budget exhausted")


def sample_yj(
    params: EnsembleParams, j: int, seed: int, count: int
) -> SampleBatch:
    """Draw ``count`` replicates of the surrogate variable ``Y_j``.

    Stream ``j`` of ``seed``; extending ``count`` preserves earlier values.
    Rows are drawn in blocks on the exact layer's thread pool, so memory
    does not grow with ``count``; the values do not depend on the blocks.
    """
    check_index(params, j)
    if count < 1:
        raise ValueError("count must be positive")
    shape = (2, _GAMMA_ROUNDS, 3)
    t = np.empty(count)

    def block(rows: slice) -> None:
        w = _stream_rows(seed, j, rows, shape)
        ga = _gamma_from_words(float(j), w[:, 0])
        gb = _gamma_from_words(float(j + params.v), w[:, 1])
        t[rows] = 2.0 * np.sqrt(ga * gb)

    _run_blocks(block, count, math.prod(shape))
    return SampleBatch(seed=seed, stream=j, count=count, values=t / (2.0 * params.n))


def sample_extremes_independent(
    params: EnsembleParams, seed: int, count: int
) -> dict[str, np.ndarray]:
    """Extremes of the scaled squared moduli via the independent surrogate.

    Returns arrays of ``max_j X_j`` and ``min_j X_j`` where
    ``X_j = sqrt(n/(n+v)) Y_j``.  Streams are per index, so the result for
    a given replicate is independent of n in the shared low indices.
    """
    if count < 1:
        raise ValueError("count must be positive")
    scales = derived_scales(params)
    running_max = np.full(count, -np.inf)
    running_min = np.full(count, np.inf)
    for j in range(1, params.n + 1):
        x = scales.modulus_scale * sample_yj(params, j, seed, count).values
        np.maximum(running_max, x, out=running_max)
        np.minimum(running_min, x, out=running_min)
    return {"max": running_max, "min": running_min}


def _complex_rect(
    u: np.ndarray, rows: int, cols: int, var_component: float
) -> np.ndarray:
    """One (count, rows, cols) complex Gaussian block from a uniform slab.

    ``u`` has shape (count, 2 * rows * cols); consecutive uniform pairs feed
    Box-Muller, giving real and imaginary parts with the given per-component
    variance.
    """
    count = u.shape[0]
    pairs = u.reshape(count, rows * cols, 2)
    zre, zim = _box_muller(pairs[:, :, 0], pairs[:, :, 1])
    z = (zre + 1j * zim) * math.sqrt(var_component)
    return z.reshape(count, rows, cols)


def matrix_probe_extremes(
    config: MatrixProbeConfig, seed: int, count: int
) -> dict[str, np.ndarray]:
    """Extreme eigenvalue moduli from directly sampled block matrices.

    Builds ``M = conj(P - Q)^T (P + Q)`` from independent complex Gaussian
    rectangles and returns the scaled statistics ``sqrt(n/(n+v)) |lambda|``
    for the largest and smallest eigenvalue modulus of each replicate.

    Variance convention: real and imaginary parts of each entry of P and Q
    are independent N(0, 1/(4n)), so E|entry|^2 = 1/(2n).  This is the
    normalisation under which the probe's extreme statistics match the
    independent surrogate law exactly; halving it (E|entry|^2 = 1/(4n))
    shrinks every squared modulus by 2 and fails the distributional check
    outright, so the convention here is load-bearing, not cosmetic.

    Every modulus of each replicate comes from a batched dense
    eigensolve, so there is no iteration to converge.  The result carries a
    ``resample`` flag marking replicates whose smallest modulus is not
    finite and > 0, that is whose M was numerically singular (a
    measure-zero event); callers wanting a usable minimum should redraw
    those under a fresh seed.

    Replicates are drawn and solved in blocks on the exact layer's thread
    pool, so memory does not grow with ``count``; the values do not depend
    on the blocks.
    """
    if count < 1:
        raise ValueError("count must be positive")
    params = config.params
    n, v = params.n, params.v
    scales = derived_scales(params)
    per_rect = 2 * (n + v) * n
    top = np.empty(count)
    bottom = np.empty(count)

    def block(rows: slice) -> None:
        u = _uniforms(_stream_rows(seed, _MATRIX_STREAM, rows, (2 * per_rect,)))
        p = _complex_rect(u[:, :per_rect], n + v, n, 1.0 / (4.0 * n))
        q = _complex_rect(u[:, per_rect:], n + v, n, 1.0 / (4.0 * n))
        phi = p + q
        psi = p - q
        m = np.swapaxes(psi.conj(), 1, 2) @ phi
        mods = np.abs(np.linalg.eigvals(m))
        top[rows] = mods.max(axis=1)
        bottom[rows] = mods.min(axis=1)

    _run_blocks(block, count, 2 * per_rect)
    return {
        "max": scales.modulus_scale * top,
        "min": scales.modulus_scale * bottom,
        "resample": ~(np.isfinite(bottom) & (bottom > 0.0)),
    }


def ks_statistic(
    params: EnsembleParams,
    j: int,
    y_values: np.ndarray,
) -> float:
    """Kolmogorov-Smirnov distance of a ``Y_j`` sample from its exact law.

    The exact cdf is evaluated at every sample point by the gamma-shape
    ladder, so the distance is exact up to the ladder's rounding, not
    interpolated.  Raises ``ValueError`` unless ``y_values`` is a nonempty
    1-d array of finite values > 0, and :class:`QuadratureError` when the
    ladder fails at some point.
    """
    return _ks(params, y_values, j)[0]


def ks_statistic_max(
    params: EnsembleParams,
    x_values: np.ndarray,
) -> float:
    """Kolmogorov-Smirnov distance of a max-statistic sample from its law.

    ``x_values`` are scaled maxima ``sqrt(n/(n+v)) max_j |zeta_j|^2``.  The
    exact cdf ``prod_j P(X_j <= x)`` is evaluated at every sample point by
    the gamma-shape ladder, so the distance is exact, not interpolated.
    Input checks and failures as in :func:`ks_statistic`.
    """
    return _ks(params, x_values, Statistic.MAX_SQ)[0]


def ks_statistic_min(
    params: EnsembleParams,
    x_values: np.ndarray,
) -> float:
    """Kolmogorov-Smirnov distance of a min-statistic sample from its law.

    ``x_values`` are scaled minima ``sqrt(n/(n+v)) min_j |zeta_j|^2``.  The
    exact cdf ``1 - prod_j P(X_j >= x)``, evaluated as
    ``-expm1(sum_j log P(X_j >= x))``, is taken at every sample point by the
    gamma-shape ladder.  Input checks and failures as in :func:`ks_statistic`.
    """
    return _ks(params, x_values, Statistic.MIN_SQ)[0]

"""Reproducible samplers for the squared-modulus law and a direct matrix probe.

Two independent routes to the same distributions:

* :func:`sample_yj` draws the independent surrogate variables ``Y_j`` whose
  order statistics match the squared eigenvalue moduli.  ``2n Y_j`` has
  density proportional to ``t^(2j+v-1) K_v(t)``, realised exactly as
  ``2 sqrt(G_a G_b)`` with independent ``G_a ~ Gamma(j)`` and
  ``G_b ~ Gamma(j+v)``.
* :func:`matrix_probe_extremes` builds the block matrix from two complex
  Gaussian rectangles and extracts extreme eigenvalue moduli by power and
  inverse iteration.  It exists to cross-check the surrogate route against
  the ensemble itself, so it shares no sampling code with it.

Every draw is a pure function of ``(seed, stream, replicate index)``.  The
gamma sampler is pinned (Marsaglia-Tsang with a fixed rejection budget and
Box-Muller normals) instead of delegating to ``Generator.gamma`` so that
values are stable across numpy versions; Philox is used purely as a
counter-based uniform source.

:func:`ks_statistic` and :func:`ks_statistic_max` compare a sample with its
exact law.  They evaluate the exact cdf at every sample point, all points in
one batch of the gamma-shape ladder (:mod:`chiral_ldp.exact_dist`), so the
distance is exact, not interpolated from a grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core_types import EnsembleParams, derived_scales
from .exact_dist import IndexDistribution, IndexTails, _checked, _tails_at

__all__ = [
    "SampleBatch",
    "MatrixProbeConfig",
    "sample_yj",
    "sample_extremes_independent",
    "matrix_probe_extremes",
    "ks_statistic",
    "ks_statistic_max",
]

# Rejection rounds per gamma draw.  Acceptance per round exceeds 0.95 for
# shape >= 1, so 24 rounds leave a failure probability below 1e-30 per draw.
_GAMMA_ROUNDS = 24
_UNIFORMS_PER_GAMMA = 3 * _GAMMA_ROUNDS

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
    power_iters: int = 500
    tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.params.n > 64:
            raise ValueError("matrix probe is limited to n <= 64")
        if self.power_iters < 1:
            raise ValueError("power_iters must be positive")
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")


def _uniform_block(seed: int, stream: int, shape: tuple[int, ...]) -> np.ndarray:
    """Counter-based uniforms in [0, 1), keyed by (seed, stream).

    Fills in C order, so row i is a pure function of (seed, stream, i)
    for any fixed trailing shape: prefixes of longer runs coincide.
    """
    if seed < 0 or stream < 0:
        raise ValueError("seed and stream must be nonnegative")
    key = np.array([seed, stream], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    return gen.random(shape)


def _box_muller(u1: np.ndarray, u2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # 1 - u1 lies in (0, 1], so the log never diverges.
    r = np.sqrt(-2.0 * np.log1p(-u1))
    ang = 2.0 * math.pi * u2
    return r * np.cos(ang), r * np.sin(ang)


def _gamma_from_uniforms(shape_a: float, uniforms: np.ndarray) -> np.ndarray:
    """Marsaglia-Tsang Gamma(shape_a) draws, one per row of uniforms.

    ``uniforms`` has shape (count, _GAMMA_ROUNDS, 3); the first accepted
    round per row wins.  Requires shape_a >= 1 (always true here: shapes
    are j and j + v with j >= 1, v >= 0).
    """
    if shape_a < 1.0:
        raise ValueError("gamma shape must be >= 1")
    d = shape_a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)

    u1 = uniforms[:, :, 0]
    u2 = uniforms[:, :, 1]
    u3 = uniforms[:, :, 2]
    z, _ = _box_muller(u1, u2)

    base = 1.0 + c * z
    valid = base > 0.0
    vcube = np.where(valid, base, 1.0) ** 3
    # Squeeze first, full log test second; both against the same u3.
    squeeze = u3 < 1.0 - 0.0331 * z**4
    with np.errstate(divide="ignore"):
        logu = np.log(np.where(u3 > 0.0, u3, 1.0))
    full = logu < 0.5 * z**2 + d - d * vcube + d * np.log(vcube)
    accept = valid & (u3 > 0.0) & (squeeze | full)

    if not np.all(accept.any(axis=1)):
        raise RuntimeError("gamma rejection budget exhausted")
    first = np.argmax(accept, axis=1)
    rows = np.arange(uniforms.shape[0])
    return d * vcube[rows, first]


def sample_yj(
    params: EnsembleParams, j: int, seed: int, count: int
) -> SampleBatch:
    """Draw ``count`` replicates of the surrogate variable ``Y_j``.

    Stream ``j`` of ``seed``; extending ``count`` preserves earlier values.
    """
    if not 1 <= j <= params.n:
        raise ValueError("index j must lie in [1, n]")
    if count < 1:
        raise ValueError("count must be positive")
    u = _uniform_block(seed, j, (count, 2 * _UNIFORMS_PER_GAMMA))
    ua = u[:, :_UNIFORMS_PER_GAMMA].reshape(count, _GAMMA_ROUNDS, 3)
    ub = u[:, _UNIFORMS_PER_GAMMA:].reshape(count, _GAMMA_ROUNDS, 3)
    ga = _gamma_from_uniforms(float(j), ua)
    gb = _gamma_from_uniforms(float(j + params.v), ub)
    t = 2.0 * np.sqrt(ga * gb)
    return SampleBatch(seed=seed, stream=j, count=count, values=t / (2.0 * params.n))


def sample_extremes_independent(
    params: EnsembleParams, seed: int, count: int
) -> dict[str, np.ndarray]:
    """Extremes of the scaled squared moduli via the independent surrogate.

    Returns arrays of ``max_j X_j`` and ``min_j X_j`` where
    ``X_j = sqrt(n/(n+v)) Y_j``.  Streams are per index, so the result for
    a given replicate is independent of n in the shared low indices.
    """
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


# A single small step-to-step delta is not convergence: with two nearly tied
# moduli the norm sequence oscillates, and deltas pass through zero while the
# error envelope is still large.  Demand a run of consecutive small deltas.
_CONVERGED_STREAK = 8


def _power_iteration(
    m: np.ndarray, iters: int, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue modulus of each matrix in a batch.

    Returns (estimate, converged).  A replicate counts as converged once the
    relative change of the estimate stays below tol for a streak of
    consecutive iterations; replicates that never settle within the budget
    are reported unconverged but keep their final (best) estimate.
    """
    count, n, _ = m.shape
    w = np.ones(n) + 1e-3 * np.arange(n)
    w = np.broadcast_to(w / np.linalg.norm(w), (count, n)).astype(complex)
    w = np.ascontiguousarray(w)
    est = np.zeros(count)
    streak = np.zeros(count, dtype=int)
    for _ in range(iters):
        mw = np.einsum("kij,kj->ki", m, w)
        nrm = np.linalg.norm(mw, axis=1)
        small = np.abs(nrm - est) <= tol * np.maximum(nrm, 1e-300)
        streak = np.where(small, streak + 1, 0)
        est = nrm
        if np.all(streak >= _CONVERGED_STREAK):
            break
        # nrm = 0 only for the zero matrix, which has measure zero.
        w = mw / np.maximum(nrm, 1e-300)[:, None]
    return est, streak >= _CONVERGED_STREAK


def _batched_inverse(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Invert a batch of matrices, flagging (not raising on) singular ones."""
    count, n, _ = m.shape
    singular = np.zeros(count, dtype=bool)
    try:
        return np.linalg.inv(m), singular
    except np.linalg.LinAlgError:
        inv = np.empty_like(m)
        eye = np.eye(n, dtype=m.dtype)
        for k in range(count):
            try:
                inv[k] = np.linalg.inv(m[k])
            except np.linalg.LinAlgError:
                inv[k] = eye
                singular[k] = True
        return inv, singular


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

    The result carries a ``resample`` flag marking replicates whose power
    or inverse iteration did not converge within the budget (or whose M was
    numerically singular, a measure-zero event); flagged entries hold the
    best available estimate and callers wanting certified values should
    redraw them under a fresh seed.
    """
    params = config.params
    n, v = params.n, params.v
    scales = derived_scales(params)
    per_block = 2 * (n + v) * n
    u = _uniform_block(seed, _MATRIX_STREAM, (count, 2 * per_block))
    p = _complex_rect(u[:, :per_block], n + v, n, 1.0 / (4.0 * n))
    q = _complex_rect(u[:, per_block:], n + v, n, 1.0 / (4.0 * n))
    phi = p + q
    psi = p - q
    m = np.einsum("kij,kil->kjl", psi.conj(), phi)

    if n == 1:
        mods = np.abs(m[:, 0, 0])
        top = bottom = mods
        resample = np.zeros(count, dtype=bool)
    else:
        top, conv_top = _power_iteration(m, config.power_iters, config.tol)
        inv, singular = _batched_inverse(m)
        inv_top, conv_bot = _power_iteration(inv, config.power_iters, config.tol)
        bottom = 1.0 / inv_top
        resample = ~conv_top | ~conv_bot | singular
    return {
        "max": scales.modulus_scale * top,
        "min": scales.modulus_scale * bottom,
        "resample": resample,
    }


def _sorted_sample(name: str, values: np.ndarray) -> np.ndarray:
    """``values`` sorted, once checked to be a nonempty 1-d array of finite
    values > 0."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-d array, got shape {arr.shape}")
    bad = np.flatnonzero(~(np.isfinite(arr) & (arr > 0.0)))
    if bad.size:
        raise ValueError(
            f"{name} must be finite and > 0, got {name}[{bad[0]}] = {float(arr[bad[0]])!r}"
        )
    return np.sort(arr)


def _ks_distance(cdf: np.ndarray) -> float:
    """Kolmogorov-Smirnov distance of a sorted sample whose exact cdf values
    at the sample points are ``cdf``."""
    k = np.arange(1, cdf.size + 1)
    d_plus = np.max(k / cdf.size - cdf)
    d_minus = np.max(cdf - (k - 1) / cdf.size)
    return float(max(d_plus, d_minus))


def _ks_index(
    params: EnsembleParams, j: int, y_values: np.ndarray
) -> tuple[float, IndexTails]:
    """:func:`ks_statistic` and the ladder tails it was computed from."""
    top = IndexDistribution(params, j).j
    t = _sorted_sample("y_values", y_values) * (2.0 * params.n)
    tails = _tails_at(t, params.v, top)
    return _checked(_ks_distance(np.exp(tails.log_cdf[:, -1])), tails), tails


def _ks_max(params: EnsembleParams, x_values: np.ndarray) -> tuple[float, IndexTails]:
    """:func:`ks_statistic_max` and the ladder tails it was computed from."""
    t = _sorted_sample("x_values", x_values) * derived_scales(params).c
    tails = _tails_at(t, params.v, params.n)
    return _checked(_ks_distance(np.exp(np.sum(tails.log_cdf, axis=1))), tails), tails


def ks_statistic(
    params: EnsembleParams,
    j: int,
    y_values: np.ndarray,
) -> float:
    """Kolmogorov-Smirnov distance of a ``Y_j`` sample from its exact law.

    The exact cdf is evaluated at every sample point by the gamma-shape
    ladder, all points in one batch, so the distance is exact up to the
    ladder's rounding, not interpolated.  Raises ``ValueError`` unless
    ``y_values`` is a nonempty 1-d array of finite values > 0, and
    :class:`QuadratureError` when the ladder fails at some point.
    """
    return _ks_index(params, j, y_values)[0]


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
    return _ks_max(params, x_values)[0]

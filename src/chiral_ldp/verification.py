"""Named invariant checks behind the command-line ``verify`` subcommand.

Two suites.  ``quick`` runs the deterministic algebraic, ladder and
quadrature invariants in a couple of seconds; the full suite adds the
statistical and convergence checks at their acceptance tolerances (roughly
half a minute).  Every check is a pure function of fixed seeds, so a pass or
fail is reproducible bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._quad import log_integral_adaptive
from .asymptotics_lab import clt_check, converge_table, lemma_ma_sums
from .core_types import (
    Direction,
    EnsembleParams,
    Statistic,
    TailQuery,
    classify_alpha,
    derived_scales,
)
from .exact_dist import (
    _ladder_sums,
    log_prob,
    log_prob_max_le,
    log_sf_index,
)
from .rate_functions import (
    mdp_max_left_const,
    mdp_max_right_const,
    rate_max_left,
    rate_max_right,
    rate_min_right,
)
from .sampler import (
    MatrixProbeConfig,
    ks_statistic,
    ks_statistic_max,
    matrix_probe_extremes,
    sample_yj,
)
from .special_fn import log_kv
from .tau_geometry import TauParams, minimizer_xj, tau, tau_prime

# Largest |sf + cdf - 1| the tail-complement check accepts, with sf from the
# forward ladder sum and cdf from the reverse one.
COMPLEMENT_TOL = 1e-9


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named invariant check."""

    name: str
    passed: bool
    detail: str
    elapsed: float


def _alphas() -> tuple:
    return (0.0, 0.1, 1.0, 10.0, classify_alpha(math.inf))


def _check_rate_boundary_zeros() -> tuple[bool, str]:
    worst = 0.0
    for alpha in _alphas():
        worst = max(worst, abs(rate_max_right(alpha, 1.0).value))
        worst = max(worst, abs(rate_max_left(alpha, 1.0).value))
    return worst <= 1e-12, f"max boundary value {worst:.3e} (tol 1e-12)"


def _check_min_rate_continuity() -> tuple[bool, str]:
    worst = 0.0
    for alpha in _alphas():
        below = rate_min_right(alpha, 1.0 - 1e-12).value
        at = rate_min_right(alpha, 1.0).value
        worst = max(worst, abs(below - at))
    return worst <= 1e-10, f"max branch mismatch at x=1: {worst:.3e} (tol 1e-10)"


def _check_kappa_identity() -> tuple[bool, str]:
    from .tau_geometry import kappa

    rng = np.random.default_rng(42)
    alpha = 10.0 ** rng.uniform(-3.0, 2.0, size=10_000)
    x = 10.0 ** rng.uniform(-2.0, 1.0, size=10_000)
    k = np.array([float(kappa(a, xx)) for a, xx in zip(alpha, x)])
    resid = np.abs(k * (k + alpha) - (1.0 + alpha) * x * x)
    worst = float(resid.max())
    return worst <= 1e-10, f"max |kappa(kappa+alpha)-(1+alpha)x^2| = {worst:.3e}"


def _check_closed_form_tail() -> tuple[bool, str]:
    # n=1, v=0: P(2Y_1 >= t) = t K_1(t)
    params = EnsembleParams(1, 0)
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        got = math.exp(log_sf_index(params, 1, t / 2.0))
        want = t * math.exp(float(log_kv(1.0, t)))
        worst = max(worst, abs(got - want) / want)
    return worst <= 1e-6, f"max rel error vs t*K_1(t): {worst:.3e} (tol 1e-6)"


def _check_tail_complement() -> tuple[bool, str]:
    cases = ((7, 2, 4, 0.9), (20, 3, 11, 1.1), (50, 0, 50, 1.02))
    worst = 0.0
    for n, v, j, x in cases:
        # both sides summed directly: forward for sf, reverse for cdf
        t = derived_scales(EnsembleParams(n, v)).c * x
        sums = _ladder_sums(np.array([t]), v, j, force_reverse=True)
        gap = abs(math.exp(sums.log_sf[0, -1]) + math.exp(sums.log_cdf[0, -1]) - 1.0)
        worst = max(worst, gap if sums.converged[0] else math.inf)
    ok = worst <= COMPLEMENT_TOL
    return ok, f"max |sf+cdf-1| = {worst:.3e} (tol {COMPLEMENT_TOL:.1e})"


def _check_max_tail_sandwich() -> tuple[bool, str]:
    params = EnsembleParams(20, 3)
    x = 1.2
    logs = np.array(
        [log_sf_index(params, j, x) for j in range(1, 21)]
    )
    query = TailQuery(Statistic.MAX_SQ, Direction.GE, x)
    lp = log_prob(params, query)
    lo = float(logs.max())
    hi = float(logs.max() + math.log(np.exp(logs - logs.max()).sum()))
    ok = lo - 1e-9 <= lp <= hi + 1e-9
    return ok, f"max_j sf {lo:.6f} <= log P {lp:.6f} <= sum_j sf {hi:.6f}"


def _log_gamma_tail(a: float, b: float, upper: bool) -> float:
    """log of int over y of y^b e^{-y}, upper=[a,inf) else (0,a], by quadrature."""

    def logf(y: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return b * np.log(y) - y

    if upper:
        hi = max(4.0 * a, b + 60.0 * math.sqrt(max(b, 1.0)) + 60.0)
        val, _ = log_integral_adaptive(logf, a, hi, max(a, min(b, hi)), math.sqrt(max(b, 1.0)))
    else:
        val, _ = log_integral_adaptive(logf, 0.0, a, min(b, a), math.sqrt(max(b, 1.0)))
    return val


def _check_gamma_tail_sandwich() -> tuple[bool, str]:
    checks = 0
    for b in (0.5, 3.0, 20.0):
        # upper tail, a >= b+1
        for a in (b + 1.0, b + 2.0, 2.0 * b + 2.0):
            val = _log_gamma_tail(a, b, upper=True)
            lo = b * math.log(a) - a
            hi = (b + 1.0) * math.log(a) - a
            if not (lo - 1e-9 <= val <= hi + 1e-9):
                return False, f"upper tail bound broken at a={a}, b={b}"
            checks += 1
        # upper tail, a < b+1
        for a in (max(b - 1.0, 0.1), b / 2.0 + 0.05):
            val = _log_gamma_tail(a, b, upper=True)
            lo = b * math.log(b) - (b + 1.0)
            hi = math.log(2.0 * (b + 1.0)) + b * math.log(b) - b
            if not (lo - 1e-9 <= val <= hi + 1e-9):
                return False, f"upper head bound broken at a={a}, b={b}"
            checks += 1
        # lower range, a > b
        for a in (b + 0.5, 2.0 * b + 1.0):
            val = _log_gamma_tail(a, b, upper=False)
            lo = (b + 1.0) * math.log(b) - b - math.log(b + 1.0)
            hi = math.log(a) + b * math.log(b) - b
            if not (lo - 1e-9 <= val <= hi + 1e-9):
                return False, f"lower range bound broken at a={a}, b={b}"
            checks += 1
        # lower range, a < b-1
        if b > 1.2:
            for a in (b - 1.2, b / 2.0):
                val = _log_gamma_tail(a, b, upper=False)
                lo = (b + 1.0) * math.log(a) - a - math.log(b + 1.0)
                hi = (b + 1.0) * math.log(a) - a
                if not (lo - 1e-9 <= val <= hi + 1e-9):
                    return False, f"lower head bound broken at a={a}, b={b}"
                checks += 1
    return True, f"{checks} sandwich inequalities hold"


def _log_tau_integral(p: TauParams, lo: float, hi: float) -> float:
    xj = minimizer_xj(p)

    def logf(y: np.ndarray) -> np.ndarray:
        return -p.v * np.asarray(tau(p, y))

    width = 1.0 / math.sqrt(p.v * max(float(tau_prime(p, xj * 1.001)) / (0.001 * xj), 1.0))
    mode = min(max(xj, lo), hi)
    val, _ = log_integral_adaptive(logf, lo, hi, mode, max(width, 1e-3 * xj))
    return val


def _check_exponent_tail_sandwich() -> tuple[bool, str]:
    checks = 0
    for j, v in ((2, 10.0), (5, 50.0)):
        p = TauParams(j, v)
        xj = minimizer_xj(p)
        # right tail from a > x_j, any M > a
        a, big_m = 1.5 * xj, 3.0 * xj
        val = _log_tau_integral(p, a, max(10.0 * xj, a + 50.0 / v))
        ta, tm = float(tau(p, a)), float(tau(p, big_m))
        hi = -v * ta - math.log(v * float(tau_prime(p, a)))
        lo = -v * ta - math.log(v * float(tau_prime(p, big_m))) + math.log1p(
            -math.exp(v * (ta - tm))
        )
        if not (lo - 1e-9 <= val <= hi + 1e-9):
            return False, f"right-tail bound broken at j={j}, v={v}"
        checks += 1
        # head up to a < x_j, with a_1 in (0, a)
        a, a1 = 0.6 * xj, 0.3 * xj
        val = _log_tau_integral(p, 1e-12, a)
        ta, t1 = float(tau(p, a)), float(tau(p, a1))
        hi = -v * ta - math.log(-v * float(tau_prime(p, a)))
        lo = -v * ta - math.log(-v * float(tau_prime(p, a1))) + math.log1p(
            -math.exp(v * (ta - t1))
        )
        if not (lo - 1e-9 <= val <= hi + 1e-9):
            return False, f"head bound broken at j={j}, v={v}"
        checks += 1
    return True, f"{checks} exponent-integral sandwiches hold"


def _check_sum_residuals() -> tuple[bool, str]:
    worst = 0.0
    for n in (100, 10_000):
        for v in (0, 7):
            ma = lemma_ma_sums(n, v)
            worst = max(worst, abs(ma.residual_1), abs(ma.residual_2))
    return worst <= 1.0, f"max |residual| = {worst:.4f} (bound 1)"


def _check_sampler_determinism() -> tuple[bool, str]:
    params = EnsembleParams(5, 2)
    one = sample_yj(params, 3, seed=11, count=64).values
    two = sample_yj(params, 3, seed=11, count=64).values
    prefix = sample_yj(params, 3, seed=11, count=32).values
    same = bool(np.array_equal(one, two) and np.array_equal(one[:32], prefix))
    return same, "replays and prefixes are bit-identical" if same else "mismatch"


def _check_mdp_constants() -> tuple[bool, str]:
    pairs = (
        (0.0, 1.0, 1.0 / 3.0),
        (2.0, 1.5, 0.75),
        (classify_alpha(math.inf), 2.0, 4.0 / 3.0),
    )
    worst = 0.0
    for alpha, right, left in pairs:
        worst = max(worst, abs(mdp_max_right_const(alpha) - right))
        worst = max(worst, abs(mdp_max_left_const(alpha) - left))
    return worst <= 1e-12, f"max constant error {worst:.3e}"


def _check_sampler_ks() -> tuple[bool, str]:
    params = EnsembleParams(5, 2)
    values = sample_yj(params, 3, seed=20240817, count=200_000).values
    ks = ks_statistic(params, 3, values)
    return ks < 0.006, f"KS = {ks:.5f} at 2e5 draws (bound 0.006)"


def _check_probe_ks() -> tuple[bool, str]:
    config = MatrixProbeConfig(EnsembleParams(3, 1))
    out = matrix_probe_extremes(config, seed=7, count=5000)
    ks = ks_statistic_max(EnsembleParams(3, 1), out["max"])
    return ks <= 0.035, f"KS = {ks:.5f} at 5000 replicates (bound 0.035)"


def _check_sampler_mean() -> tuple[bool, str]:
    params = EnsembleParams(1, 0)
    t = 2.0 * sample_yj(params, 1, seed=3, count=100_000).values
    mean, se = float(t.mean()), float(t.std(ddof=1) / math.sqrt(t.size))
    z = (mean - math.pi / 2.0) / se
    return abs(z) <= 4.0, f"mean 2nY_1 = {mean:.5f}, z = {z:+.2f} vs pi/2"


def _check_gumbel_tail_gap() -> tuple[bool, str]:
    rows = clt_check(2000, 0)
    ok = rows[0].abs_gap <= 0.10 and rows[1].abs_gap <= 0.06
    return ok, (
        f"gaps {rows[0].abs_gap:.4f} (tol 0.10), {rows[1].abs_gap:.4f} (tol 0.06)"
    )


def _trend(rows) -> tuple[bool, float]:
    gaps = [r.scaled_gap for r in rows]
    return all(b < a for a, b in zip(gaps, gaps[1:])), gaps[-1]


def _check_max_right_rate_trend() -> tuple[bool, str]:
    rows = converge_table("t1-right", x=1.5)
    decreasing, last = _trend(rows)
    rel = last / rows[-1].rate_target
    return decreasing and rel <= 0.25, (
        f"gaps decreasing={decreasing}, final rel gap {rel:.3f} (tol 0.25)"
    )


def _check_max_left_rate_trend() -> tuple[bool, str]:
    rows = converge_table("t1-left", x=0.5)
    decreasing, last = _trend(rows)
    rel = last / rows[-1].rate_target
    return decreasing and rel <= 0.20, (
        f"gaps decreasing={decreasing}, final rel gap {rel:.3f} (tol 0.20)"
    )


def _check_min_rate_trend() -> tuple[bool, str]:
    details = []
    ok = True
    for x, tol in ((0.5, 0.20), (2.0, 0.20)):
        rows = converge_table("t2", x=x)
        decreasing, last = _trend(rows)
        rel = last / rows[-1].rate_target
        ok = ok and decreasing and rel <= tol
        details.append(f"x={x}: rel {rel:.3f}")
    return ok, "; ".join(details) + " (tol 0.20, decreasing)"


def _check_mdp_max_trend() -> tuple[bool, str]:
    rows = converge_table("t3-right", x=1.0)
    rel = rows[-1].scaled_gap / rows[-1].rate_target
    return rel <= 0.30, f"final rel gap {rel:.3f} (tol 0.30)"


def _check_vscale_rate_gap() -> tuple[bool, str]:
    rows = converge_table("t4-item2", grid=((2000, 160),), x=1.0)
    rel = rows[-1].scaled_gap / rows[-1].rate_target
    return rel <= 0.30, f"rel gap {rel:.3f} at (2000,160) (tol 0.30)"


def _check_sampler_vs_product_law() -> tuple[bool, str]:
    from .sampler import sample_extremes_independent

    params = EnsembleParams(10, 0)
    mx = sample_extremes_independent(params, seed=5, count=100_000)["max"]
    phat = float(np.mean(mx <= 1.1))
    want = math.exp(log_prob_max_le(params, 1.1))
    se = math.sqrt(want * (1.0 - want) / mx.size)
    z = (phat - want) / se
    return abs(z) <= 3.0, f"empirical {phat:.5f} vs exact {want:.5f}, z = {z:+.2f}"


_QUICK: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("rate-boundary-zeros", _check_rate_boundary_zeros),
    ("min-rate-continuity", _check_min_rate_continuity),
    ("kappa-identity", _check_kappa_identity),
    ("closed-form-tail", _check_closed_form_tail),
    ("tail-complement", _check_tail_complement),
    ("max-tail-sandwich", _check_max_tail_sandwich),
    ("gamma-tail-sandwich", _check_gamma_tail_sandwich),
    ("exponent-tail-sandwich", _check_exponent_tail_sandwich),
    ("sum-residuals", _check_sum_residuals),
    ("sampler-determinism", _check_sampler_determinism),
    ("mdp-constants", _check_mdp_constants),
)

_FULL_EXTRA: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("sampler-ks", _check_sampler_ks),
    ("probe-ks", _check_probe_ks),
    ("sampler-mean", _check_sampler_mean),
    ("sampler-vs-product-law", _check_sampler_vs_product_law),
    ("gumbel-tail-gap", _check_gumbel_tail_gap),
    ("max-right-rate-trend", _check_max_right_rate_trend),
    ("max-left-rate-trend", _check_max_left_rate_trend),
    ("min-rate-trend", _check_min_rate_trend),
    ("mdp-max-trend", _check_mdp_max_trend),
    ("vscale-rate-gap", _check_vscale_rate_gap),
)


def check_names(quick: bool = False) -> list[str]:
    """Names of the checks a suite runs, in execution order."""
    table = _QUICK if quick else _QUICK + _FULL_EXTRA
    return [name for name, _ in table]


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run a suite and collect one CheckResult per invariant."""
    table = _QUICK if quick else _QUICK + _FULL_EXTRA
    results = []
    for name, fn in table:
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # surface, don't abort the suite
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)

"""Named invariant checks behind the command-line ``verify`` subcommand.

Two suites.  ``quick`` runs the deterministic algebraic, ladder and
integral-sandwich invariants in a couple of seconds; the full suite adds the
statistical and convergence checks at their acceptance tolerances (roughly
half a minute).  Every check is a pure function of fixed seeds, so a pass or
fail is reproducible bit for bit.  The two checks that compare with
``scipy.special`` import it themselves, which keeps scipy off the import
path of the package and of every other command.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from ._quad import QuadratureError
from .asymptotics_lab import clt_check, converge_table, lemma_ma_sums
from .core_types import (
    Direction,
    EnsembleParams,
    Statistic,
    TailQuery,
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
    ks_statistic_min,
    matrix_probe_extremes,
    sample_yj,
)
from .tau_geometry import TauParams, minimizer_xj, tau, tau_prime

__all__ = ["CheckResult", "all_passed", "check_names", "run_checks"]

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


_ALPHAS = (0.0, 0.1, 1.0, 10.0, math.inf)


def _check_rate_boundary_zeros() -> tuple[bool, str]:
    rates = (rate_max_right, rate_max_left)
    worst = max(abs(rate(alpha, 1.0).value) for alpha in _ALPHAS for rate in rates)
    return worst <= 1e-12, f"max boundary value {worst:.3e} (tol 1e-12)"


def _check_min_rate_continuity() -> tuple[bool, str]:
    worst = max(
        abs(rate_min_right(a, 1.0 - 1e-12).value - rate_min_right(a, 1.0).value) for a in _ALPHAS
    )
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
    # n=1: P(X_1 >= x) = P(G_1 G_{v+1} >= s) = 2 s^{(v+1)/2} K_{v+1}(t) / v!
    # with s = t^2/4 (DLMF 10.32.10), against scipy's K_{v+1}, which shares
    # no code with the ladder's trapezoid rule
    from scipy.special import kve

    worst = 0.0
    for v in (0, 1, 5, 30):
        params = EnsembleParams(1, v)
        c = derived_scales(params).c
        for t in (1e-6, 0.5, 1.0, 2.0, 5.0, 30.0):
            got = math.exp(log_sf_index(params, 1, t / c))
            log_want = (v + 1) * math.log(0.5 * t) + math.log(2.0 * kve(v + 1, t)) - t
            want = math.exp(log_want - math.lgamma(v + 1))
            worst = max(worst, abs(got - want) / want)
    return worst <= 1e-12, f"max rel error vs 2 s^((v+1)/2) K_(v+1)(t)/v!: {worst:.3e} (tol 1e-12)"


def _check_tail_complement() -> tuple[bool, str]:
    # the last two run the closed-form sf_1 at large v against the reverse
    # sum of the increments
    cases = ((7, 2, 4, 0.9), (20, 3, 11, 1.1), (50, 0, 50, 1.02))
    cases += ((3, 1000, 2, 1.0), (2, 10000, 1, 0.5))
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
    logs = np.array([log_sf_index(params, j, x) for j in range(1, 21)])
    query = TailQuery(Statistic.MAX_SQ, Direction.GE, x)
    lp = log_prob(params, query)
    lo = float(logs.max())
    hi = float(logs.max() + math.log(np.exp(logs - logs.max()).sum()))
    ok = lo - 1e-9 <= lp <= hi + 1e-9
    return ok, f"max_j sf {lo:.6f} <= log P {lp:.6f} <= sum_j sf {hi:.6f}"


def _log_gamma_tail(a: float, b: float, upper: bool) -> float:
    """log of int y^b e^{-y} dy over [a, inf) when upper else (0, a], in
    closed form by the regularized incomplete gamma functions (DLMF 8.2)."""
    from scipy.special import gammainc, gammaincc, gammaln

    tail = gammaincc(b + 1.0, a) if upper else gammainc(b + 1.0, a)
    return float(gammaln(b + 1.0) + math.log(tail))


def _check_gamma_tail_sandwich() -> tuple[bool, str]:
    # (name, tail side, points a, lower bound, upper bound) at each shape b
    sandwiches = (
        ("upper tail", True, lambda b: (b + 1.0, b + 2.0, 2.0 * b + 2.0),
         lambda a, b: b * math.log(a) - a, lambda a, b: (b + 1.0) * math.log(a) - a),
        ("upper head", True, lambda b: (max(b - 1.0, 0.1), b / 2.0 + 0.05),
         lambda a, b: b * math.log(b) - (b + 1.0),
         lambda a, b: math.log(2.0 * (b + 1.0)) + b * math.log(b) - b),
        ("lower range", False, lambda b: (b + 0.5, 2.0 * b + 1.0),
         lambda a, b: (b + 1.0) * math.log(b) - b - math.log(b + 1.0),
         lambda a, b: math.log(a) + b * math.log(b) - b),
        ("lower head", False, lambda b: (b - 1.2, b / 2.0) if b > 1.2 else (),
         lambda a, b: (b + 1.0) * math.log(a) - a - math.log(b + 1.0),
         lambda a, b: (b + 1.0) * math.log(a) - a),
    )
    checks = 0
    for b in (0.5, 3.0, 20.0):
        for name, upper, points, lower_bound, upper_bound in sandwiches:
            for a in points(b):
                val = _log_gamma_tail(a, b, upper)
                if not (lower_bound(a, b) - 1e-9 <= val <= upper_bound(a, b) + 1e-9):
                    return False, f"{name} bound broken at a={a}, b={b}"
                checks += 1
    return True, f"{checks} sandwich inequalities hold"


# Composite Gauss-Legendre rule for the tau integrals: equal panels, two
# orders whose disagreement certifies the value.
_TAU_PANELS = 16
_TAU_ORDERS = (24, 32)
_TAU_RULE_TOL = 1e-12


def _log_tau_integral(p: TauParams, lo: float, hi: float) -> float:
    """log of int exp(-v tau_j(y)) dy over [lo, hi], by the composite rule at
    both orders; raises QuadratureError when they differ by more than
    _TAU_RULE_TOL in the log."""
    edges = np.linspace(lo, hi, _TAU_PANELS + 1)
    half = 0.5 * np.diff(edges)[:, None]
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    vals = []
    for order in _TAU_ORDERS:
        x, w = leggauss(order)
        terms = -p.v * tau(p, mid + half * x) + np.log(half * w)
        peak = float(np.max(terms))
        vals.append(peak + math.log(float(np.sum(np.exp(terms - peak)))))
    gap = abs(vals[1] - vals[0])
    if not gap <= _TAU_RULE_TOL:
        raise QuadratureError(
            f"tau integral over [{lo}, {hi}] at j={p.j}, v={p.v}: orders "
            f"{_TAU_ORDERS} differ by {gap:.1e}",
            partial=vals[1],
            rel_err=gap,
        )
    return vals[1]


def _check_exponent_tail_sandwich() -> tuple[bool, str]:
    checks = 0
    for j, v in ((2, 10.0), (5, 50.0)):
        p = TauParams(j, v)
        xj = minimizer_xj(p)
        # right tail over [a, .) with a > x_j and far point M > a, and head
        # over (0, a] with a < x_j and far point a_1 in (0, a)
        a_right = 1.5 * xj
        for name, a, far, lo_x, hi_x in (
            ("right-tail", a_right, 3.0 * xj, a_right, max(10.0 * xj, a_right + 50.0 / v)),
            ("head", 0.6 * xj, 0.3 * xj, 1e-12, 0.6 * xj),
        ):
            val = _log_tau_integral(p, lo_x, hi_x)
            ta, tf = float(tau(p, a)), float(tau(p, far))
            hi = -v * ta - math.log(abs(v * float(tau_prime(p, a))))
            lo = -v * ta - math.log(abs(v * float(tau_prime(p, far)))) + math.log1p(
                -math.exp(v * (ta - tf))
            )
            if not (lo - 1e-9 <= val <= hi + 1e-9):
                return False, f"{name} bound broken at j={j}, v={v}"
            checks += 1
    return True, f"{checks} exponent-integral sandwiches hold"


def _check_sum_residuals() -> tuple[bool, str]:
    sums = [lemma_ma_sums(n, v) for n in (100, 10_000) for v in (0, 7)]
    worst = max(max(abs(ma.residual_1), abs(ma.residual_2)) for ma in sums)
    return worst <= 1.0, f"max |residual| = {worst:.4f} (bound 1)"


def _check_sampler_determinism() -> tuple[bool, str]:
    params = EnsembleParams(5, 2)
    one = sample_yj(params, 3, seed=11, count=64).values
    two = sample_yj(params, 3, seed=11, count=64).values
    prefix = sample_yj(params, 3, seed=11, count=32).values
    same = bool(np.array_equal(one, two) and np.array_equal(one[:32], prefix))
    return same, "replays and prefixes are bit-identical" if same else "mismatch"


def _check_mdp_constants() -> tuple[bool, str]:
    pairs = ((0.0, 1.0, 1.0 / 3.0), (2.0, 1.5, 0.75), (math.inf, 2.0, 4.0 / 3.0))
    worst = max(
        max(abs(mdp_max_right_const(a) - right), abs(mdp_max_left_const(a) - left))
        for a, right, left in pairs
    )
    return worst <= 1e-12, f"max constant error {worst:.3e}"


def _check_sampler_ks() -> tuple[bool, str]:
    params = EnsembleParams(5, 2)
    values = sample_yj(params, 3, seed=20240817, count=200_000).values
    ks = ks_statistic(params, 3, values)
    return ks < 0.006, f"KS = {ks:.5f} at 2e5 draws (bound 0.006)"


def _check_probe_ks() -> tuple[bool, str]:
    params = EnsembleParams(3, 1)
    out = matrix_probe_extremes(MatrixProbeConfig(params), seed=7, count=5000)
    ks_max = ks_statistic_max(params, out["max"])
    ks_min = ks_statistic_min(params, out["min"])
    return max(ks_max, ks_min) <= 0.035, (
        f"KS max = {ks_max:.5f}, min = {ks_min:.5f} at 5000 replicates (bound 0.035)"
    )


def _check_sampler_mean() -> tuple[bool, str]:
    params = EnsembleParams(1, 0)
    t = 2.0 * sample_yj(params, 1, seed=3, count=100_000).values
    mean, se = float(t.mean()), float(t.std(ddof=1) / math.sqrt(t.size))
    z = (mean - math.pi / 2.0) / se
    return abs(z) <= 4.0, f"mean 2nY_1 = {mean:.5f}, z = {z:+.2f} vs pi/2"


def _check_gumbel_tail_gap() -> tuple[bool, str]:
    rows = clt_check(2000, 0)
    ok = rows[0].abs_gap <= 0.10 and rows[1].abs_gap <= 0.06
    return ok, f"gaps {rows[0].abs_gap:.4f} (tol 0.10), {rows[1].abs_gap:.4f} (tol 0.06)"


def _rate_gap(
    theorem: str,
    levels: tuple[float, ...],
    tol: float,
    falling: bool = True,
    grid: tuple[tuple[int, int], ...] | None = None,
) -> tuple[bool, str]:
    """At each level of ``theorem``'s table, the last row's scaled gap over
    the rate is at most ``tol``; when ``falling``, the gaps fall row by row."""
    ok, details = True, []
    for x in levels:
        rows = converge_table(theorem, grid=grid, x=x)
        rel = rows[-1].scaled_gap / rows[-1].rate_target
        decreasing = all(b.scaled_gap < a.scaled_gap for a, b in zip(rows, rows[1:]))
        ok = ok and rel <= tol and (decreasing or not falling)
        trend = f", decreasing={decreasing}" if falling else ""
        details.append(f"x={x}: rel gap {rel:.3f}{trend}")
    return ok, "; ".join(details) + f" (tol {tol:.2f})"


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
    ("max-right-rate-trend", partial(_rate_gap, "t1-right", (1.5,), 0.25)),
    ("max-left-rate-trend", partial(_rate_gap, "t1-left", (0.5,), 0.20)),
    ("min-rate-trend", partial(_rate_gap, "t2", (0.5, 2.0), 0.20)),
    ("mdp-max-trend", partial(_rate_gap, "t3-right", (1.0,), 0.30, False)),
    ("vscale-rate-gap", partial(_rate_gap, "t4-item2", (1.0,), 0.30, False, ((2000, 160),))),
)


def _suite(quick: bool) -> tuple[tuple[str, Callable[[], tuple[bool, str]]], ...]:
    return _QUICK if quick else _QUICK + _FULL_EXTRA


def check_names(quick: bool = False) -> list[str]:
    """Names of the checks a suite runs, in execution order."""
    return [name for name, _ in _suite(quick)]


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run a suite and collect one CheckResult per invariant."""
    results = []
    for name, fn in _suite(quick):
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # surface, don't abort the suite
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.passed for r in results)

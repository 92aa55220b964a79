"""Independent numeric oracles used to pin test values.

Everything here deliberately avoids the package's own code paths: Bessel
values come from a high-precision saddle-window quadrature of the integral
representation or from mpmath.besselk, incomplete-gamma tails and the
Bessel-free gamma-product law from mpmath's gammainc (and, at large j, from
a saddle-point expansion built on scipy's digamma), minimizers from
interval bisection (in double precision, and at 40 digits of tau_j'
itself), matrix spectra from companion matrices with chosen
roots, and the finite-alpha rate displays from mpmath at as many digits as
their cancellation needs.  Headline constants frozen into the test files
were produced by these routines at >= 30 significant digits.

The eager surrogate sampler at the end is the sampler's byte-identity
oracle: it draws every uniform of a batch at once and runs every rejection
round for every row, as the sampler did before it went lazy.

Validation of the Bessel oracle (one-off, recorded here): it matches
mpmath.besselk to full working precision on a 14-point matrix spanning
v in [0, 1000], x in [1e-3, 1e5], matches scipy.special.kve at
(v, x) = (10000, 1e5) where kve does not overflow, and matches the two-term
small-argument closed form at (10000, 1e-3) to 3e-11.  With its first
window step capped at 1 it also matches mpmath.besselk exactly at
v in {0, 1, 5, 30}, x in [1e-8, 100]; uncapped, the v = 0 window at x = 1e-8
spanned [0, 1e4] and missed the integrand's fall near t = 20 (log K_0 off by
3.7e-7).
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.optimize import brentq
from scipy.special import digamma, erfcx, polygamma


def _quad(f, points):
    """mp.quad of f over the breakpoints ``points``, at the working
    precision; raises when mpmath's own error estimate exceeds 1e-12 of the
    value, so an oracle that has not converged cannot pin a test value."""
    value, error = mp.quad(f, points, error=True)
    if not error <= 1e-12 * abs(value):
        raise ArithmeticError(
            f"quadrature error estimate {mp.nstr(error, 3)} against value {mp.nstr(value, 3)}"
        )
    return value


def log_kv_oracle(v: float, x: float, dps: int = 30) -> float:
    """log K_v(x) by tanh-sinh quadrature of exp(-x cosh t) cosh(v t).

    The integrand is factored at its peak t0 = asinh(v/x) so every evaluated
    value is O(1); each window edge is pushed out by doubling until the
    factored exponent has dropped 130 nats, which bounds the truncated mass
    by e^-130 relative to the peak.
    """
    with mp.workdps(dps):
        v_, x_ = mp.mpf(v), mp.mpf(x)
        t0 = mp.asinh(v_ / x_) if v > 0 else mp.mpf(0)
        c = -x_ * mp.cosh(t0) + v_ * t0

        def drop(t):
            return -(-x_ * mp.cosh(t) + v_ * t - c)

        # the peak width, at most 1: at v = 0 and x << 1 the integrand stays
        # flat up to t ~ log(2/x) and the window must resolve its fall there
        step = min(mp.mpf(1), 1 / mp.sqrt(mp.sqrt(x_ * x_ + v_ * v_)))
        hi = t0 + step
        while drop(hi) < 130:
            hi = t0 + 2 * (hi - t0)
        lo = max(t0 - step, mp.mpf(0))
        while lo > 0 and drop(lo) < 130:
            lo = max(t0 - 2 * (t0 - lo), mp.mpf(0))

        def g(t):
            corr = (1 + mp.exp(-2 * v_ * t)) / 2 if v > 0 else mp.mpf(1)
            return mp.exp(-x_ * mp.cosh(t) + v_ * t - c) * corr

        val = _quad(g, [lo, (lo + t0) / 2, t0, (t0 + hi) / 2, hi])
        return float(c + mp.log(val))


def kve_oracle(v: float, x: float, dps: int = 30) -> float:
    """e^x K_v(x) from mpmath.besselk, rounded once."""
    with mp.workdps(dps):
        return float(mp.besselk(v, mp.mpf(x)) * mp.exp(mp.mpf(x)))


def log_zj_oracle(j: int, v: int, dps: int = 30) -> float:
    """log Z_j in the duplication form (2j+v-2) log 2 + log G(j) + log G(j+v)."""
    with mp.workdps(dps):
        return float(
            (2 * j + v - 2) * mp.log(2)
            + mp.loggamma(j)
            + mp.loggamma(j + v)
        )


def closed_tail_log(t: float, dps: int = 30) -> float:
    """log of the n=1, v=0 survival t K_1(t)."""
    with mp.workdps(dps):
        return float(mp.log(mp.mpf(t) * mp.besselk(1, mp.mpf(t))))


def index_cdf_oracle(n: int, v: int, j: int, x: float, dps: int = 25) -> float:
    """P(X_j <= x) by direct mpmath quadrature of the t-scale density.

    Counts on mpmath.besselk, so stay at moderate (j, v) when using it.
    """
    with mp.workdps(dps):
        c = 2 * mp.sqrt(mp.mpf(n) * (n + v))
        lz = (2 * j + v - 2) * mp.log(2) + mp.loggamma(j) + mp.loggamma(j + v)

        def f(t):
            return mp.exp(
                (2 * j + v - 1) * mp.log(t) + mp.log(mp.besselk(v, t)) - lz
            )

        mode = mp.mpf(max(2 * j + v - mp.mpf("1.5"), mp.mpf("0.5")))
        hi = c * mp.mpf(x)
        pts = sorted({mp.mpf(0), min(mode, hi), hi})
        return float(_quad(f, pts))


def gamma_product_tail_oracle(
    n: int, v: int, j: int, x: float, upper: bool, dps: int = 30
) -> float:
    """P(X_j >= x) when upper else P(X_j <= x), without any Bessel function.

    On the t scale X_j is 2 sqrt(G_j G_{j+v}) with independent gamma
    variables, so with s = n (n+v) x^2 the tail is the Gamma(j) average of
    the regularized incomplete gamma function of shape j+v at s/g.
    """
    with mp.workdps(dps):
        s = mp.mpf(n) * (n + v) * mp.mpf(x) ** 2
        a, b = mp.mpf(j), mp.mpf(j + v)
        log_norm = mp.loggamma(a)

        def f(g):
            dens = mp.exp((a - 1) * mp.log(g) - g - log_norm)
            y = s / g
            q = mp.gammainc(b, y, mp.inf, regularized=True) if upper else mp.gammainc(
                b, 0, y, regularized=True
            )
            return dens * q

        # the product's mass sits near g ~ j and g ~ s / (j+v)
        pts = sorted({mp.mpf(0), a, s / b, 4 * a + 40, mp.inf})
        return float(_quad(f, pts))


def gamma_product_log_sf_oracle(j: int, v: int, log_s: float, dps: int = 30) -> float:
    """log P(G_j G_{j+v} >= s) by the integral of
    :func:`gamma_product_tail_oracle`, for upper tails so deep that P
    underflows a double.

    The integrand is taken relative to its value at its peak g*, where
    g (g + v) = s when s/g* is well above j+v, so that mpmath's absolute
    tolerance does not swamp a value of, say, 1e-94; breakpoints 1, 2, 4,
    8 and 16 sqrt(g*) either side of g* (the peak is about sqrt(g*/2)
    wide) let the rule resolve it.
    """
    with mp.workdps(dps):
        s = mp.exp(mp.mpf(log_s))
        a, b = mp.mpf(j), mp.mpf(j + v)
        log_norm = mp.loggamma(a)

        def f(g):
            return mp.exp((a - 1) * mp.log(g) - g - log_norm) * mp.gammainc(
                b, s / g, mp.inf, regularized=True
            )

        peak = (mp.sqrt((b - a) ** 2 + 4 * s) - (b - a)) / 2
        top, width = f(peak), mp.sqrt(peak)
        pts = sorted({mp.mpf(0), mp.inf} | {
            peak + k * width for k in (-16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16) if peak + k * width > 0
        })
        return float(mp.log(top) + mp.log(_quad(lambda g: f(g) / top, pts)))


# Gauss-Legendre nodes and weights of the saddle-point oracle's rule and check
_LEGENDRE = {points: np.polynomial.legendre.leggauss(points) for points in (20, 40)}


def saddle_point_log_tail_oracle(j: int, v: int, log_s: float) -> float:
    """The log tail of G_j G_{j+v} beyond s by the Lugannani-Rice formula:
    log P(G_j G_{j+v} >= s) for log s above the mean of log G_j + log G_{j+v},
    log P(G_j G_{j+v} <= s) below it; in double precision, any j, and finite
    where P underflows.

    log G_j + log G_{j+v} has the cumulant generating function
    K(theta) = lnG(j+theta) - lnG(j) + lnG(j+v+theta) - lnG(j+v), so the
    saddle point theta solves K'(theta) = psi(j+theta) + psi(j+v+theta)
    = log s (brentq), with theta > 0 above the mean and -j < theta < 0
    below it.  With w = sign(theta) sqrt(2 (theta log s - K(theta))) and
    u = theta sqrt(K''(theta)), the upper tail is
    1 - Phi(w) + phi(w) (1/u - 1/w) and the lower one
    Phi(w) - phi(w) (1/u - 1/w) (Lugannani & Rice, Adv. Appl. Probab. 12,
    1980); both are phi(w) (R(|w|) + 1/|u| - 1/|w|), with the Mills ratio
    R(z) = (1 - Phi(z)) / phi(z) from erfcx.  theta log s - K(theta) is
    taken as the integral of log s - K'(t) over (0, theta) by 40-point
    Gauss-Legendre in y = log(j + t), checked against 20 points, rather
    than from differences of gammaln values: lnG(j) is about j log j, and
    its rounding alone puts 2e-9 into P at j = 1e6.  In y the integrand
    stays smooth where theta >> j, 10 and more standard deviations into the
    upper tail at j <= 30, which a rule in t does not resolve.  At the mean
    (theta = 0) the formula is singular.  The expansion's relative error in
    P falls like j^-1.4 to j^-1.5 at a fixed number of standard deviations
    into either tail, and grows with that number (the tests state the
    laws).
    """
    a, b = float(j), float(j + v)

    def k1(g):  # K'(theta) at g = j + theta
        return digamma(g) + digamma(g + (b - a))

    mean = k1(a)
    if log_s > mean:
        lo, hi = 0.0, 1.0
        while k1(a + hi) < log_s:
            hi *= 2.0
    elif log_s < mean:
        # psi(j + theta) falls to -inf as theta falls to -j
        lo, hi = -0.5 * a, 0.0
        while k1(a + lo) > log_s:
            lo = 0.5 * (lo - a)
    else:
        raise ValueError("the saddle-point oracle is singular at the mean")
    theta, info = brentq(lambda t: k1(a + t) - log_s, lo, hi, rtol=1e-15, full_output=True)
    if not info.converged:
        raise ArithmeticError(f"saddle point not found: {info.flag}")
    span = math.log1p(theta / a)  # log(j + theta) - log j

    def legendre(points: int) -> float:
        nodes, weights = _LEGENDRE[points]
        g = a * np.exp(0.5 * span * (nodes + 1.0))  # j + t, and dt = g dy
        return 0.5 * span * float(np.dot(weights, (log_s - k1(g)) * g))

    half_w2 = legendre(40)
    # each node rounds log s - K'(t) by a few ulp of K'(t), which lies
    # between log s and the mean
    tol = 8.0 * np.finfo(float).eps * abs(theta) * max(1.0, abs(log_s), abs(mean))
    if not abs(half_w2 - legendre(20)) <= tol:
        raise ArithmeticError("Gauss-Legendre rule for theta log s - K(theta) not converged")
    w = math.sqrt(2.0 * half_w2)
    u = abs(theta) * math.sqrt(polygamma(1, a + theta) + polygamma(1, b + theta))
    mills = math.sqrt(0.5 * math.pi) * float(erfcx(w / math.sqrt(2.0)))
    return -half_w2 - 0.5 * math.log(2.0 * math.pi) + math.log(mills + 1.0 / u - 1.0 / w)


def gamma_tail_log(a: float, b: float, upper: bool, dps: int = 30) -> float:
    """log of int y^b e^-y dy over (a, inf) when upper else (0, a)."""
    with mp.workdps(dps):
        if upper:
            val = mp.gammainc(mp.mpf(b) + 1, mp.mpf(a), mp.inf)
        else:
            val = mp.gammainc(mp.mpf(b) + 1, 0, mp.mpf(a))
        return float(mp.log(val))


def finite_alpha_rate_oracle(which: str, alpha: float, x: float) -> float:
    """The published finite-alpha display of ``which`` ("max-right",
    "max-left" or "min-right"), evaluated as written, and its closed limits
    at alpha = 0 and alpha = inf (for "max-left" the pointwise limit
    x^2 - x^4/4 - 3/4 - log x, not the published infinite-alpha display).

    The displays cancel O(alpha^2) terms down to the rate, which near x = 1
    is as small as (x - 1)^3, so they run at 200 digits plus twice the
    decades of alpha."""
    decades = math.ceil(math.log10(alpha)) if 1.0 < alpha < math.inf else 0
    with mp.workdps(200 + 2 * decades):
        x_ = mp.mpf(x)
        lx = mp.log(x_)
        if alpha == 0.0:
            value = {
                "max-right": 2 * (x_ - lx - 1),
                "max-left": -lx - (x_ * x_ - 4 * x_ + 3) / 2,
                "min-right": 2 * x_ - mp.mpf(1.5) - lx if x_ >= 1 else x_ * x_ / 2,
            }[which]
        elif alpha == math.inf:
            value = {
                "max-right": x_**2 - 2 * lx - 1,
                "max-left": x_**2 - x_**4 / 4 - mp.mpf(0.75) - lx,
                "min-right": x_**2 - lx - mp.mpf(0.75) if x_ >= 1 else x_**4 / 4,
            }[which]
        else:
            a = mp.mpf(alpha)
            k = 2 * (1 + a) * x_ * x_ / (a + mp.sqrt(a * a + 4 * (1 + a) * x_ * x_))
            if which == "max-right":
                value = a * mp.log((1 + a) / (a + k)) + 2 * (k - mp.log(x_) - 1)
            elif which == "max-left":
                value = (a + a * a / 2) * mp.log1p((1 - k) / (k + a)) - mp.log(x_) - (a + 3 - k) * (1 - k) / 2
            elif x_ >= 1:
                value = a * ((a + 2) / 2 * mp.log1p(1 / a) - mp.log1p(k / a)) + 2 * k - (3 + a) / 2 - mp.log(x_)
            else:
                value = a * a / 2 * mp.log1p(k / a) - (a * k - k * k) / 2
        return float(value)


def bisect_minimizer(j: int, v: float, tol: float = 1e-14) -> float:
    """Root of tau_j' by plain bisection from the analytic bracket."""
    lo = 2.0 * math.sqrt((j - 0.75) * (j + v - 0.75)) / v
    hi = 2.0 * math.sqrt((j - 0.5) * (j + v - 0.5)) / v

    def fprime(x: float) -> float:
        s = math.sqrt(1.0 + x * x)
        return x / (1.0 + s) + x / (2.0 * v * (1.0 + x * x)) - (2.0 * j - 1.0) / (v * x)

    flo = fprime(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = fprime(mid)
        if fm == 0.0 or hi - lo <= tol * mid:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def minimizer_oracle(j: float, v: float, dps: int = 40) -> float:
    """Root x_j of tau_j' by bisection of tau_j' itself at dps digits, from
    the analytic bracket (not from the cubic that the package solves)."""
    with mp.workdps(dps):
        j_, v_ = mp.mpf(j), mp.mpf(v)
        lo = 2 * mp.sqrt((j_ - mp.mpf(0.75)) * (j_ + v_ - mp.mpf(0.75))) / v_
        hi = 2 * mp.sqrt((j_ - mp.mpf(0.5)) * (j_ + v_ - mp.mpf(0.5))) / v_

        def fprime(x):
            s = mp.sqrt(1 + x * x)
            return x / (1 + s) + x / (2 * v_ * (1 + x * x)) - (2 * j_ - 1) / (v_ * x)

        while hi - lo > lo * mp.mpf(10) ** (8 - dps):
            mid = (lo + hi) / 2
            if fprime(mid) > 0:
                hi = mid
            else:
                lo = mid
        return float((lo + hi) / 2)


def tau_integral_log(
    j: int, v: float, lo: float, hi: float | None, dps: int = 30
) -> float:
    """log of int exp(-v tau_j(y)) dy over (lo, hi), hi=None meaning +inf.

    Factored at the best point inside the range so the quadrature sees O(1)
    values; the infinite tail is cut where the exponent has dropped 200 nats.
    """
    with mp.workdps(dps):
        j_, v_ = mp.mpf(j), mp.mpf(v)

        def tau_mp(y):
            s = mp.sqrt(1 + y * y)
            return s - mp.log(1 + s) + mp.log(1 + y * y) / (4 * v_) - (
                2 * j_ - 1
            ) * mp.log(y) / v_

        xj = mp.mpf(bisect_minimizer(j, float(v)))
        lo_ = mp.mpf(lo)
        anchor = min(max(xj, lo_), mp.mpf(hi)) if hi is not None else max(xj, lo_)
        c = -v_ * tau_mp(anchor)
        if hi is None:
            cut = anchor + 1
            while -v_ * tau_mp(cut) - c > -200:
                cut = anchor + 2 * (cut - anchor)
            hi_ = cut
        else:
            hi_ = mp.mpf(hi)

        def g(y):
            return mp.exp(-v_ * tau_mp(y) - c)

        pts = sorted({lo_, anchor, (anchor + hi_) / 2, hi_})
        return float(c + mp.log(_quad(g, pts)))


def ks_critical(count: int, level: float = 0.001) -> float:
    """One-sample Kolmogorov-Smirnov critical distance at the given level."""
    return math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(count)


# Marsaglia-Tsang rejection rounds per gamma draw, three uniforms each.
_GAMMA_ROUNDS = 24


def _eager_gamma(shape_a: float, uniforms: np.ndarray) -> np.ndarray:
    """Gamma(shape_a) draws, one per row of the (count, 24, 3) uniforms:
    every round is evaluated for every row and the first accepted wins."""
    d = shape_a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    u1 = uniforms[:, :, 0]
    u2 = uniforms[:, :, 1]
    u3 = uniforms[:, :, 2]
    z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * math.pi * u2)
    base = 1.0 + c * z
    valid = base > 0.0
    vcube = np.where(valid, base, 1.0) ** 3
    squeeze = u3 < 1.0 - 0.0331 * z**4
    with np.errstate(divide="ignore"):
        logu = np.log(np.where(u3 > 0.0, u3, 1.0))
    full = logu < 0.5 * z**2 + d - d * vcube + d * np.log(vcube)
    accept = valid & (u3 > 0.0) & (squeeze | full)
    if not np.all(accept.any(axis=1)):
        raise RuntimeError("gamma rejection budget exhausted")
    first = np.argmax(accept, axis=1)
    return d * vcube[np.arange(uniforms.shape[0]), first]


def eager_sample_yj(n: int, v: int, j: int, seed: int, count: int) -> np.ndarray:
    """Values of ``sample_yj(EnsembleParams(n, v), j, seed, count)`` from one
    (count, 144) array of Philox uniforms keyed by (seed, j)."""
    gen = np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))
    u = gen.random((count, 6 * _GAMMA_ROUNDS))
    ga = _eager_gamma(float(j), u[:, : 3 * _GAMMA_ROUNDS].reshape(count, _GAMMA_ROUNDS, 3))
    gb = _eager_gamma(float(j + v), u[:, 3 * _GAMMA_ROUNDS :].reshape(count, _GAMMA_ROUNDS, 3))
    return 2.0 * np.sqrt(ga * gb) / (2.0 * n)

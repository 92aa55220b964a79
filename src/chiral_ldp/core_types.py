"""Core parameter types, derived scales, and log-probability arithmetic.

Everything downstream works with the scaled squared modulus

    X_j = sqrt(n / (n + v)) * Y_j,

where the Y_j are the independent per-index variables of the squared-modulus
decomposition.  This module owns the ensemble parameters, the scale constants
that convert between the X scale and the integration variable t = 2*n*y, the
guards on alpha = lim v/n and on the index j, tail-query descriptors, and the
small log-space helpers shared by every other module.

Probabilities are carried as natural logarithms throughout; log 0 is the
sentinel ``-inf`` and is propagated by ordinary float arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

__all__ = [
    "LOG_ZERO",
    "EnsembleParams",
    "Scales",
    "Statistic",
    "Direction",
    "TailQuery",
    "derived_scales",
    "log1mexp",
    "centering_a",
    "centering_a_consistent",
    "gumbel_cdf",
    "gumbel_sf",
]

LOG_ZERO = float("-inf")


@dataclass(frozen=True)
class EnsembleParams:
    """Matrix size ``n >= 1`` and rectangularity index ``v >= 0`` (both integers)."""

    n: int
    v: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise TypeError(f"n must be an int, got {type(self.n).__name__}")
        if not isinstance(self.v, int) or isinstance(self.v, bool):
            raise TypeError(f"v must be an int, got {type(self.v).__name__}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.v < 0:
            raise ValueError(f"v must be >= 0, got {self.v}")


@dataclass(frozen=True)
class Scales:
    """Scale constants derived from (n, v).

    Attributes
    ----------
    c : float
        Threshold conversion ``2*sqrt(n*(n+v))``; a query at level x on the
        X scale becomes one at ``c*x`` on the t = 2*n*y scale.
    s : float
        Fluctuation scale ``n*(n+v)/(2n+v)`` entering the extreme-value limit.
    modulus_scale : float
        ``sqrt(n/(n+v))``; multiplies a squared eigenvalue modulus to land on
        the X scale.
    """

    c: float
    s: float
    modulus_scale: float


def derived_scales(params: EnsembleParams) -> Scales:
    """Compute the scale constants for the given parameters."""
    n, v = params.n, params.v
    return Scales(
        c=2.0 * math.sqrt(n * (n + v)),
        s=n * (n + v) / (2.0 * n + v),
        modulus_scale=math.sqrt(n / (n + v)),
    )


def check_alpha(alpha) -> float:
    """``float(alpha)`` for an alpha = lim v/n in [0, inf].

    The three regimes are plain floats: ``0.0``, a finite positive value,
    or ``math.inf``.  Raises ``ValueError`` for NaN or a negative value.
    """
    alpha = float(alpha)
    if math.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    if alpha < 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    return alpha


def check_index(params: EnsembleParams, j: int) -> int:
    """``j`` when it indexes one of the n variables X_1 .. X_n, else raise."""
    if not 1 <= j <= params.n:
        raise ValueError(f"index j must lie in [1, n], got j = {j} with n = {params.n}")
    return j


class Statistic(enum.Enum):
    """Which extreme of the scaled squared moduli a query refers to."""

    MAX_SQ = "max"
    MIN_SQ = "min"


class Direction(enum.Enum):
    """Tail direction of a query."""

    GE = "ge"
    LE = "le"


@dataclass(frozen=True)
class TailQuery:
    """A tail event {statistic direction x} on the X scale, e.g. max >= 1.5."""

    statistic: Statistic
    direction: Direction
    x: float

    def __post_init__(self) -> None:
        if not (self.x > 0.0 and math.isfinite(self.x)):
            raise ValueError(f"query level x must be finite and > 0, got {self.x}")


def log1mexp(log_p: float) -> float:
    """log(1 - exp(log_p)) for log_p <= 0, stable over the whole range.

    Uses expm1 when exp(log_p) is close to 1 and log1p otherwise; the
    crossover at -log 2 keeps both branches well conditioned.
    """
    if log_p > 0.0:
        if log_p < 1e-12:  # tolerate tiny positive round-off
            log_p = 0.0
        else:
            raise ValueError(f"log1mexp needs log_p <= 0, got {log_p}")
    if log_p == 0.0:
        return LOG_ZERO
    if log_p > -math.log(2.0):
        return math.log(-math.expm1(log_p))
    # + 0.0 turns the -0.0 of log1p(-0.0), where exp(log_p) underflows, into 0.0
    return math.log1p(-math.exp(log_p)) + 0.0


def centering_a(y: float) -> float:
    """Centering sequence a(y) = sqrt(log y) - log(2*pi*log y)/sqrt(log y).

    Defined for y > 1 only.  This is the published display form; see
    centering_a_consistent for the variant whose Gumbel approximation
    actually matches the exact tail at finite sizes.
    """
    if y <= 1.0:
        raise ValueError(f"centering_a needs y > 1, got {y}")
    ly = math.log(y)
    root = math.sqrt(ly)
    return root - math.log(2.0 * math.pi * ly) / root


def centering_a_consistent(y: float) -> float:
    """Self-consistent two-term centering for the max fluctuation law.

    The exceedance count over the top indices behaves like
    sqrt(y) * (phi(u) - u*Phibar(u)) at standardized level u, and the
    Gumbel limit requires that count to tend to e^{-g}.  Inverting
    sqrt(y) * phi(u)/u^2 = e^{-g} to two terms gives

        u = sqrt(log y) - log(sqrt(2*pi) * log y)/sqrt(log y) + g/sqrt(log y),

    so the correct centering constant is log(sqrt(2*pi)*log y), not
    log(2*pi*log y) as in the published display.  With the display form
    the exceedance count tends to sqrt(2*pi)*e^{-g} instead of e^{-g},
    an O(1) offset that no sample size removes (measured: count 1.836 ->
    1.890 rising over n = 2e3 -> 2e5 at g = 0, rather than -> 1).
    """
    if y <= 1.0:
        raise ValueError(f"centering_a_consistent needs y > 1, got {y}")
    ly = math.log(y)
    root = math.sqrt(ly)
    return root - math.log(math.sqrt(2.0 * math.pi) * ly) / root


def gumbel_cdf(g: float) -> float:
    """Standard Gumbel distribution function exp(-exp(-g))."""
    return math.exp(-math.exp(-g))


def gumbel_sf(g: float) -> float:
    """Standard Gumbel survival function 1 - exp(-exp(-g)), computed stably."""
    return -math.expm1(-math.exp(-g))

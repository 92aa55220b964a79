"""The per-index normalizing constant log Z_j, in log space.

Bessel K values are not computed here: the exact layer takes the two orders
it needs, K_v and K_{v+1}, from a trapezoid rule (:mod:`.exact_dist`).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["log_Zj"]

_LOG2 = math.log(2.0)
_lgamma = np.vectorize(math.lgamma, otypes=[float])


def log_Zj(j, v: float) -> np.ndarray | float:
    """log of Z_j = int_0^inf t^{2j+v-1} K_v(t) dt.

    Evaluated in closed form: Z_j = 2^{2j+v-2} Gamma(j) Gamma(j+v), the
    Legendre-duplication reduction of
    sqrt(pi) Gamma(2j+2v) Gamma(j) / (2^{v+1} Gamma(j+v+1/2)).
    """
    j_arr = np.asarray(j, dtype=float)
    if np.any(j_arr < 1.0):
        raise ValueError("index j must be >= 1")
    if v < 0.0:
        raise ValueError("order must be >= 0")
    out = (2.0 * j_arr + v - 2.0) * _LOG2 + _lgamma(j_arr) + _lgamma(j_arr + v)
    return float(out) if out.ndim == 0 else out

"""Deviation probabilities for extreme squared eigenvalue moduli of the
chiral two-block random matrix ensemble.

The package computes exact finite-(n, v) tail probabilities of the scaled
maximum and minimum squared eigenvalue modulus from the independent-radii
product law by a closed gamma-shape ladder over the indices, evaluates the
limiting rate functions of the large- and moderate-deviation theorems in
every v-growth regime, and provides two independent sampling routes plus
convergence experiments that measure how fast the finite-size exponents
approach their limits.

Each module's ``__all__`` is its public list; the package re-exports all of
them, so a public name is added or removed in its module alone.
"""

from . import (
    asymptotics_lab,
    core_types,
    exact_dist,
    rate_functions,
    sampler,
    special_fn,
    tau_geometry,
    verification,
)
from .asymptotics_lab import *  # noqa: F403
from .core_types import *  # noqa: F403
from .exact_dist import *  # noqa: F403
from .rate_functions import *  # noqa: F403
from .sampler import *  # noqa: F403
from .special_fn import *  # noqa: F403
from .tau_geometry import *  # noqa: F403
from .verification import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *asymptotics_lab.__all__,
    *core_types.__all__,
    *exact_dist.__all__,
    *rate_functions.__all__,
    *sampler.__all__,
    *special_fn.__all__,
    *tau_geometry.__all__,
    *verification.__all__,
    "__version__",
]

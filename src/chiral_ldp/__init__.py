"""Deviation probabilities for extreme squared eigenvalue moduli of the
chiral two-block random matrix ensemble.

The package computes exact finite-(n, v) tail probabilities of the scaled
maximum and minimum squared eigenvalue modulus from the independent-radii
product law by a closed gamma-shape ladder over the indices, evaluates the
limiting rate functions of the large- and moderate-deviation theorems in
every v-growth regime, and provides two independent sampling routes plus
convergence experiments that measure how fast the finite-size exponents
approach their limits.
"""

from .asymptotics_lab import (
    AsymptoticPrediction,
    CltRow,
    ConvergenceRow,
    MaSums,
    RegimeError,
    THEOREM_TAGS,
    clt_check,
    converge_table,
    lemma_ma_sums,
    predict_log_cdf_bounded_v,
    predict_log_cdf_large_v,
    predict_log_sf_bounded_v,
    predict_log_sf_large_v,
)
from .core_types import (
    LOG_ZERO,
    Direction,
    EnsembleParams,
    Scales,
    Statistic,
    TailQuery,
    centering_a,
    centering_a_consistent,
    derived_scales,
    gumbel_cdf,
    gumbel_sf,
)
from .exact_dist import (
    IndexTails,
    QuadratureError,
    index_tails,
    log_cdf_index,
    log_prob,
    log_prob_max_ge,
    log_prob_max_le,
    log_prob_min_ge,
    log_prob_min_le,
    log_sf_index,
)
from .rate_functions import (
    RateEval,
    mdp_max_left_const,
    mdp_max_right_const,
    mdp_min_alpha_const,
    rate_max_left,
    rate_max_left_infinity_consistent,
    rate_max_right,
    rate_min_right,
    vscale_rate,
    vscale_rate_statement_form,
)
from .sampler import (
    MatrixProbeConfig,
    SampleBatch,
    ks_statistic,
    ks_statistic_max,
    ks_statistic_min,
    matrix_probe_extremes,
    sample_extremes_independent,
    sample_yj,
)
from .special_fn import log_Zj
from .tau_geometry import (
    TauParams,
    bracket_xj,
    kappa,
    minimizer_xj,
    tau,
    tau_prime,
    tau_second,
    u,
)
from .verification import CheckResult, all_passed, check_names, run_checks

__version__ = "0.1.0"

__all__ = [
    "AsymptoticPrediction",
    "CheckResult",
    "CltRow",
    "ConvergenceRow",
    "Direction",
    "EnsembleParams",
    "IndexTails",
    "LOG_ZERO",
    "MaSums",
    "MatrixProbeConfig",
    "QuadratureError",
    "RateEval",
    "RegimeError",
    "SampleBatch",
    "Scales",
    "Statistic",
    "THEOREM_TAGS",
    "TailQuery",
    "TauParams",
    "all_passed",
    "bracket_xj",
    "centering_a",
    "centering_a_consistent",
    "check_names",
    "clt_check",
    "converge_table",
    "derived_scales",
    "gumbel_cdf",
    "gumbel_sf",
    "index_tails",
    "kappa",
    "ks_statistic",
    "ks_statistic_max",
    "ks_statistic_min",
    "lemma_ma_sums",
    "log_Zj",
    "log_cdf_index",
    "log_prob",
    "log_prob_max_ge",
    "log_prob_max_le",
    "log_prob_min_ge",
    "log_prob_min_le",
    "log_sf_index",
    "matrix_probe_extremes",
    "mdp_max_left_const",
    "mdp_max_right_const",
    "mdp_min_alpha_const",
    "minimizer_xj",
    "predict_log_cdf_bounded_v",
    "predict_log_cdf_large_v",
    "predict_log_sf_bounded_v",
    "predict_log_sf_large_v",
    "rate_max_left",
    "rate_max_left_infinity_consistent",
    "rate_max_right",
    "rate_min_right",
    "run_checks",
    "sample_extremes_independent",
    "sample_yj",
    "tau",
    "tau_prime",
    "tau_second",
    "u",
    "vscale_rate",
    "vscale_rate_statement_form",
    "__version__",
]

"""The package's public names: each module's ``__all__`` is the one list of
its names, and ``chiral_ldp`` re-exports every one of them."""

import importlib

import chiral_ldp

MODULES = (
    "asymptotics_lab", "core_types", "exact_dist", "rate_functions",
    "sampler", "special_fn", "tau_geometry", "verification",
)

# The names `import chiral_ldp` offered while the package kept its own list,
# and the four module exports that list had missed.
EXPORTED = {
    "AsymptoticPrediction", "CheckResult", "CltRow", "ConvergenceRow", "Direction",
    "EnsembleParams", "IndexTails", "LOG_ZERO", "MaSums", "MatrixProbeConfig",
    "QuadratureError", "RateEval", "RegimeError", "SampleBatch", "Scales", "Statistic",
    "THEOREM_TAGS", "TailQuery", "TauParams", "all_passed", "bracket_xj", "centering_a",
    "centering_a_consistent", "check_names", "clt_check", "converge_table",
    "derived_scales", "gumbel_cdf", "gumbel_sf", "index_tails", "kappa", "ks_statistic",
    "ks_statistic_max", "ks_statistic_min", "lemma_ma_sums", "log_Zj", "log_cdf_index",
    "log_prob", "log_prob_max_ge", "log_prob_max_le", "log_prob_min_ge", "log_prob_min_le",
    "log_sf_index", "matrix_probe_extremes", "mdp_max_left_const", "mdp_max_right_const",
    "mdp_min_alpha_const", "minimizer_xj", "predict_log_cdf_bounded_v",
    "predict_log_cdf_large_v", "predict_log_sf_bounded_v", "predict_log_sf_large_v",
    "rate_max_left", "rate_max_left_infinity_consistent", "rate_max_right",
    "rate_min_right", "run_checks", "sample_extremes_independent", "sample_yj", "tau",
    "tau_prime", "tau_second", "u", "vscale_rate", "vscale_rate_statement_form",
}
ADDED = {"log_prob_from_tails", "THEOREMS", "LimitTheorem", "log1mexp"}


def test_the_package_list_is_the_module_lists():
    modules = [importlib.import_module(f"chiral_ldp.{name}") for name in MODULES]
    want = [name for module in modules for name in module.__all__] + ["__version__"]
    assert chiral_ldp.__all__ == want
    assert len(set(want)) == len(want)
    assert len(EXPORTED) == 65
    assert set(want) == EXPORTED | ADDED | {"__version__"}
    namespace = {}
    exec("from chiral_ldp import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(want)
    for module in modules:
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), (module.__name__, name)

"""
reclab: return-time statistics for random subshifts.

The package computes the geometric compound Poisson (Polya-Aeppli) limit
law of return counts to shrinking cylinders at periodic points, the
cluster parameter theta of concrete random and Gibbs measure families, and
the exact finite-n return-count distributions they induce, through three
independent engines (automaton dynamic programming, exhaustive word
enumeration, Monte Carlo).

The top-level names are lazy (PEP 562): ``reclab.X`` imports the module
that defines X on first use, so importing the package loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports at the top level
_EXPORTS = {
    "checks": ("PatternClass", "ReturnPattern", "binomial_moment_enumeration",
               "check_psi_mixing", "classify_pattern", "is_rare", "overlap_count_check",
               "rare_vs_main_split", "theta_cluster_estimate"),
    "experiments": ("ExperimentConfig", "run_annealed", "run_quenched", "tv_distance"),
    "gibbs": ("GibbsSystem", "PerronData", "Potential", "bernoulli_potential",
              "build_transfer_matrix", "fit_decay_factor", "normalize_potential",
              "perron_eigendata"),
    "models": ("CountableModel", "Environment", "MarginalModel", "TwoElementModel"),
    "polya_aeppli": ("CountDistribution", "PolyaAeppliParams", "pa_binomial_moment",
                     "pa_mean_variance", "pa_pgf", "pa_pmf", "pa_pmf_table", "pa_sample_many"),
    "returns": ("BudgetError", "count_returns", "enumerate_count_distribution",
                "exact_count_distribution", "expected_return_count", "observation_time"),
    "sampling": ("monte_carlo_count_distribution",),
    "symbolic": ("PeriodicPoint", "TransitionMatrix", "Word", "as_word", "minimal_period",
                 "self_overlaps"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

"""
reclab: return-time statistics for random subshifts.

The package computes the geometric compound Poisson (Polya-Aeppli) limit
law of return counts to shrinking cylinders at periodic points, the
cluster parameter theta of concrete random and Gibbs measure families, and
the exact finite-n return-count distributions they induce, through three
independent engines (automaton dynamic programming, exhaustive word
enumeration, Monte Carlo).
"""

from .experiments import (
    ExperimentConfig,
    overlap_count_check,
    run_annealed,
    run_quenched,
    theta_cluster_estimate,
    tv_distance,
)
from .gibbs import (
    GibbsSystem,
    PerronData,
    Potential,
    bernoulli_potential,
    build_transfer_matrix,
    fit_decay_factor,
    normalize_potential,
    perron_eigendata,
)
from .models import (
    CountableModel,
    Environment,
    MarginalModel,
    MixingProfile,
    TwoElementModel,
    check_psi_mixing,
)
from .polya_aeppli import (
    CountDistribution,
    PolyaAeppliParams,
    pa_binomial_moment,
    pa_mean_variance,
    pa_pgf,
    pa_pmf,
    pa_pmf_table,
    pa_sample_many,
)
from .returns import (
    BudgetError,
    PatternClass,
    ReturnPattern,
    binomial_moment_enumeration,
    classify_pattern,
    count_returns,
    enumerate_count_distribution,
    exact_count_distribution,
    expected_return_count,
    is_rare,
    monte_carlo_count_distribution,
    observation_time,
    rare_vs_main_split,
)
from .symbolic import (
    PeriodicPoint,
    TransitionMatrix,
    Word,
    as_word,
    minimal_period,
    self_overlaps,
)

__version__ = "0.1.0"

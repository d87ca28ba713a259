"""
Checks of the paper's claims by routes independent of the pipeline, which
never imports this module: ``reclab selfcheck`` runs ``_SELFCHECKS``, the
tests run the rest (``check_psi_mixing``, ``overlap_count_check``,
``theta_cluster_estimate`` and the moment layer below).

The moment method classifies return-time tuples into blocks of immediate
returns (consecutive gaps at most M), with overlaps in units of the minimal
period m, and calls a tuple "rare" when an inter-block distance minus n
falls below a cutoff.  ``binomial_moment_enumeration`` sums fiber masses
over all r-fold return-time tuples, the binomial moment E[C(count, r)], and
``rare_vs_main_split`` splits that sum.  Both run one recurrence over
placement levels: level k holds, per last placement, the mass of the
k-tuples ending there in a main and a rare vector; the next placement
follows a long gap (g >= n, prefix sums over earlier starts) or a
self-overlap gap (an extension factor of ``returns._placement_suffix``), and
a gap in the rare window moves mass to the rare vector.  It costs
horizon * r * (overlaps + 2) terms; the moment sum has an empty rare window.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import models as models_mod
from . import polya_aeppli as pa_mod
from . import returns as returns_mod
from . import sampling as sampling_mod
from .experiments import ExperimentConfig, _environments
from .gibbs import GibbsSystem, Potential, bernoulli_potential
from .models import Environment, MarginalModel, TwoElementModel, ratio_convergence
from .polya_aeppli import PolyaAeppliParams
from .returns import (
    BudgetError, _checked_target, _placement_suffix, _window_mask, expected_return_count,
)
from .sampling import _checked_sampling, _sampled_classes
from .symbolic import PeriodicPoint, TransitionMatrix, Word, as_word, self_overlaps

__all__ = [
    "ReturnPattern", "PatternClass", "classify_pattern", "is_rare", "binomial_moment_enumeration",
    "rare_vs_main_split", "MixingReport", "check_psi_mixing", "OverlapRow", "overlap_count_check",
    "theta_cluster_estimate",
]

DEFAULT_BUDGET_TUPLES = 50_000_000


# ---------------------------------------------------------------------------
# return-pattern taxonomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReturnPattern:
    """A strictly increasing tuple of return times within [1, horizon]."""

    times: tuple[int, ...]
    horizon: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(int(v) for v in self.times))
        v = self.times
        if len(v) == 0:
            raise ValueError("return pattern must contain at least one time")
        if v[0] < 1 or v[-1] > self.horizon or any(a >= b for a, b in zip(v, v[1:])):
            raise ValueError(
                f"times must satisfy 1 <= v_1 < ... < v_r <= {self.horizon}, got {v}"
            )


@dataclass(frozen=True)
class PatternClass:
    """Block decomposition of a return pattern.

    ``heads`` are 1-based indices into the pattern marking block starts
    (the first is always 1); gaps at most the block threshold are
    within-block, larger gaps separate blocks.  Overlaps are within-block
    gaps in units of the minimal period m; within-block gaps that are not
    multiples of m are reported in ``non_multiple_gaps`` rather than
    rejected (they cannot arise from a periodic-point cylinder, but the
    classifier accepts general patterns).  ``delta`` is the minimal
    head-to-previous-tail distance between consecutive blocks, None for a
    single block.
    """

    j: int
    heads: tuple[int, ...]
    individual_overlaps: tuple[float, ...]
    total_overlap: float
    delta: int | None
    non_multiple_gaps: tuple[int, ...]


def classify_pattern(pattern, block_gap: int, period: int) -> PatternClass:
    """Decompose a return pattern into blocks of immediate returns.

    ``block_gap`` is the threshold M: consecutive gaps <= M stay within a
    block, gaps > M start a new one.  ``period`` is the unit m for the
    overlap counts.
    """
    if isinstance(pattern, ReturnPattern):
        times = pattern.times
    else:
        times = tuple(int(v) for v in pattern)
        times = ReturnPattern(times, horizon=max(times, default=0)).times
    if period < 1:
        raise ValueError("period must be >= 1")
    if block_gap < period:
        raise ValueError(f"block threshold {block_gap} must be >= period {period}")
    heads = [1]
    overlaps: list[float] = []
    non_multiple: list[int] = []
    inter_gaps: list[int] = []
    for k in range(1, len(times)):
        gap = times[k] - times[k - 1]
        if gap > block_gap:
            heads.append(k + 1)
            inter_gaps.append(gap)
        else:
            overlaps.append(gap / period)
            if gap % period != 0:
                non_multiple.append(gap)
    return PatternClass(
        j=len(heads),
        heads=tuple(heads),
        individual_overlaps=tuple(overlaps),
        total_overlap=float(sum(overlaps)),
        delta=min(inter_gaps) if inter_gaps else None,
        non_multiple_gaps=tuple(non_multiple),
    )


def is_rare(pattern_class: PatternClass, delta: int, n: int) -> bool:
    """True when the minimal inter-block distance minus n is below delta."""
    if pattern_class.j == 1:
        return False
    return pattern_class.delta - n < delta


# ---------------------------------------------------------------------------
# moment sums over return-time tuples
# ---------------------------------------------------------------------------


def binomial_moment_enumeration(
    model,
    env: Environment,
    target,
    horizon: int,
    r: int,
    budget_terms: int = DEFAULT_BUDGET_TUPLES,
) -> float:
    """Sum of fiber masses of all r-fold return-time tuples in [1, horizon].

    The sum runs over strictly increasing tuples (v_1 < ... < v_r); the
    mass of a tuple is the fiber mass of the intersection of the shifted
    target cylinders, zero when overlapping placements conflict, and the
    whole sum equals the binomial moment E[C(count, r)] of the return
    count.  It is the module's placement recurrence with an empty rare
    window, which leaves the result identical to the naive tuple-by-tuple
    sum.
    """
    tw = _checked_target(model, target, horizon)
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return 1.0
    return _placement_recurrence(model, env, tw, horizon, r, range(0), budget_terms)[1]


def rare_vs_main_split(
    model,
    env: Environment,
    target,
    horizon: int,
    r: int,
    delta: int,
    block_gap: int,
    period: int,
    budget_tuples: int = DEFAULT_BUDGET_TUPLES,
) -> tuple[float, float]:
    """Split the r-th moment sum into its rare and main parts.

    A return-time tuple is rare when some inter-block distance (a
    consecutive gap above ``block_gap``) minus the target length falls
    below ``delta``; the two partial sums reproduce
    ``binomial_moment_enumeration`` up to rounding.  ``budget_tuples`` caps
    the recurrence's term count, as ``budget_terms`` does there.
    """
    tw = _checked_target(model, target, horizon)
    if r < 1:
        raise ValueError("r must be >= 1")
    if block_gap < period:
        raise ValueError(f"block threshold {block_gap} must be >= period {period}")
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    # an inter-block gap g is rare when g - n < delta; overlap gaps are below n
    rare_gaps = range(block_gap + 1, len(tw) + delta)
    return _placement_recurrence(model, env, tw, horizon, r, rare_gaps, budget_tuples)


def _placement_recurrence(
    model, env: Environment, tw, horizon: int, r: int, rare_gaps: range, budget_terms: int
) -> tuple[float, float]:
    """(rare, main) fiber-mass sums over the r-fold return-time tuples (r >= 1);
    a tuple is rare once a consecutive gap lies in ``rare_gaps``.  The
    recurrence is the one described in the module docstring."""
    if r > horizon:
        return 0.0, 0.0
    n = len(tw)
    overlaps = sorted(g for g in self_overlaps(tw) if g < n) if n >= 2 else []
    terms = horizon * r * (len(overlaps) + 2)
    if terms > budget_terms:
        raise BudgetError(f"enumeration needs {terms} terms, budget is {budget_terms}")
    suffix = _placement_suffix(model, env, tw, horizon)
    a_mass = suffix[:, 0]
    # the long rare gaps [lo, hi], empty when hi = lo - 1
    lo = max(n, rare_gaps.start)
    hi = max(rare_gaps.stop - 1, lo - 1)
    starts = np.arange(horizon)

    def gap_sums(pref, g_lo, g_hi):
        # per placement v, the level summed over earlier u with g_lo <= v - u <= g_hi
        return pref[np.maximum(starts - g_lo + 1, 0)] - pref[np.maximum(starts - g_hi, 0)]

    main, rare = a_mass.copy(), np.zeros(horizon)
    for _ in range(2, r + 1):
        pref_main = np.concatenate(([0.0], np.cumsum(main)))  # pref[j] = sum_{u<=j}
        pref_rare = np.concatenate(([0.0], np.cumsum(rare)))
        keep = gap_sums(pref_main, n, lo - 1) + gap_sums(pref_main, hi + 1, horizon)
        new_main = a_mass * keep
        new_rare = a_mass * (gap_sums(pref_rare, n, horizon) + gap_sums(pref_main, lo, hi))
        for g in overlaps:
            ext = suffix[g:, n - g]
            if g in rare_gaps:
                new_rare[g:] += (main[: horizon - g] + rare[: horizon - g]) * ext
            else:
                new_main[g:] += main[: horizon - g] * ext
                new_rare[g:] += rare[: horizon - g] * ext
        main, rare = new_main, new_rare
    return float(rare.sum()), float(main.sum())


# ---------------------------------------------------------------------------
# psi-mixing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixingReport:
    max_marginal_deviation: float
    max_fiber_deviation: float
    pairs_checked: int


def check_psi_mixing(
    model,
    k_list: Sequence[int],
    cylinder_pool: Sequence,
    environment: Environment | None = None,
    offset: int = 0,
) -> MixingReport:
    """Worst-case relative deviation between joint and product cylinder masses.

    For each ordered pool pair (A, B) and gap k, compares the mass of
    "A at offset, B at offset+|A|+k" against the product of the two
    single-cylinder masses, for the marginal measure and (when an
    environment is given) for the fiber measure.  Each joint mass is one
    ``_pattern_mass`` pass, independent of the single masses.  Product
    models should come out at zero to rounding.
    """
    words = [as_word(w).symbols for w in cylinder_pool]
    if any(k < 0 for k in k_list):
        raise ValueError("gaps must be nonnegative")
    marginal = model if model.environment_free else MarginalModel(model)
    worst_marginal = worst_fiber = 0.0
    for a, b, k in itertools.product(words, words, k_list):
        pattern = a + (None,) * k + b
        # the marginal weights read no coordinate; the window sets the length
        blank = Environment(window=np.zeros(len(pattern)), source_seed=0)
        product = model.marginal_cylinder_mass(a) * model.marginal_cylinder_mass(b)
        joint = _pattern_mass(marginal, blank, pattern)
        worst_marginal = max(worst_marginal, _deviation(joint, product))
        if environment is not None:
            product = model.fiber_cylinder_mass(environment, a, offset) * (
                model.fiber_cylinder_mass(environment, b, offset + len(a) + k))
            joint = _pattern_mass(model, environment, (None,) * offset + pattern)
            worst_fiber = max(worst_fiber, _deviation(joint, product))
    return MixingReport(worst_marginal, worst_fiber, len(words) ** 2 * len(k_list))


def _deviation(joint: float, product: float) -> float:
    return abs(joint - product) / product if product > 0 else 0.0


def _pattern_mass(model, env: Environment, pattern) -> float:
    """Mass of the words that carry pattern[i] at position i wherever it is
    not None (any symbol there): one forward pass over ``model.dp_tables``,
    the chain the exact DP reads.  The start states are weighted by whether
    they spell the pattern's head; then a fixed position applies its
    symbol's table, a free one the sum over symbols."""
    pattern = tuple(pattern) + (None,) * (model.depth - 1 - len(pattern))
    fixed = tuple(s for s in pattern if s is not None)
    alphabet, states, init, tables = model.dp_tables(env, fixed, len(pattern), 0)
    head = len(states[0])
    mass = np.array([p * all(c is None or alphabet.index(c) == s for c, s in zip(pattern, state))
                     for p, state in zip(init, states)])
    for i, c in enumerate(pattern[head:]):
        table = tables[min(i, len(tables) - 1)]
        mass = (table.sum(axis=0) if c is None else table[alphabet.index(c)]) @ mass
    return float(mass.sum())


# ---------------------------------------------------------------------------
# experiment-level checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverlapRow:
    n: int
    u: int
    env_index: int
    expected_count: float
    limit: float


def overlap_count_check(config: ExperimentConfig, u_list: Sequence[int]) -> list[OverlapRow]:
    """Expected counts of hits to the deepened cylinder A_{n+mu} over the
    horizon of A_n, against the limit theta^u * t.  u = 0 is the mean law:
    the expected return count against t."""
    if not u_list or min(u_list) < 0:
        raise ValueError(f"u_list must be nonempty and nonnegative, got {tuple(u_list)}")
    m = config.point.period
    theta = config.model.theta(config.point)
    window = max(config.horizon(n) + n + m * max(u_list) for n in config.n_list)
    out = []
    for i, env in enumerate(_environments(config, window)):
        for n in config.n_list:
            horizon = config.horizon(n)
            for u in u_list:
                target = config.point.prefix(n + m * u)
                expected = expected_return_count(config.model, env, target, horizon)
                out.append(
                    OverlapRow(n=n, u=u, env_index=i, expected_count=expected,
                               limit=theta**u * config.t)
                )
    return out


def theta_cluster_estimate(
    model, env, target, period: int, horizon: int, trials: int, seed
) -> float:
    """Empirical cluster parameter: fraction of returns at lag exactly m.

    A return at lag ``period`` after its predecessor continues a cluster;
    a cluster of size s contributes s-1 such returns out of s, so with
    geometric cluster sizes the fraction over *all* observed returns
    estimates theta.  (Dividing by the gap count instead is biased upward:
    a window whose last cluster is cut off by the horizon contributes its
    returns but no closing long gap.)  The returns are read off Monte
    Carlo's samples, a slab of rows at a time, as class masks: drawn
    straight from the uniforms on product fibers, read off the sampled
    words at depth > 1.  Returns NaN without any returns.
    """
    tw = _checked_sampling(model, target, horizon, trials)
    if period < 1:
        raise ValueError("period must be >= 1")
    at_period = returns_total = 0
    for hits, classes in _sampled_classes(model, env, tw, horizon, trials, seed):
        mask = _window_mask(hits, classes, horizon)
        returns_total += int(mask.sum())
        at_period += int((mask[:, period:] & mask[:, :-period]).sum())
    if returns_total == 0:
        return float("nan")
    return at_period / returns_total


# ---------------------------------------------------------------------------
# self-check suite (small-scale module invariants): each measure returns the
# worst deviation it finds, and its row passes when compare(worst, bound)
# ---------------------------------------------------------------------------


def _worst(deviations) -> float:
    """The largest deviation; NaN if any is NaN, so a NaN fails its row."""
    return float(np.max(list(deviations)))


def _pmf_normalization() -> float:
    return _worst(abs(pa_mod.pa_pmf_table(PolyaAeppliParams(t=t, p=p)).total() - 1.0)
                  for t in (1.0, 5.0) for p in (0.0, 0.5, 0.9))


def _poisson_relative_error() -> float:
    devs = []
    for t in (0.5, 2.0):
        params = PolyaAeppliParams(t=t, p=0.0)
        for r in range(31):
            want = math.exp(-t) * t**r / math.factorial(r)
            devs.append(abs(pa_mod.pa_pmf(params, r) - want) / want)
    return _worst(devs)


def _moment_consistency() -> float:
    params = PolyaAeppliParams(t=2.0, p=0.5)
    # deep truncation: the C(r,k)-weighted tail must be negligible up to k=5
    masses = pa_mod.pa_pmf_table(params, r_max=400).masses
    return _worst(abs(sum(math.comb(r, k) * m for r, m in enumerate(masses))
                      - pa_mod.pa_binomial_moment(params, k)) for k in range(6))


def _pgf_consistency() -> float:
    params = PolyaAeppliParams(t=1.5, p=0.5)
    masses = pa_mod.pa_pmf_table(params).masses
    return _worst(abs(sum(z**r * m for r, m in enumerate(masses)) - pa_mod.pa_pgf(params, z))
                  for z in (0.0, 0.25, 0.5, 0.9))


def _sampler_tv() -> float:
    params = PolyaAeppliParams(t=2.0, p=0.5)
    sample = pa_mod.pa_sample_many(params, 100_000, np.random.default_rng(7))
    table = pa_mod.pa_pmf_table(params, r_max=int(sample.max()))
    emp = np.bincount(sample, minlength=len(table.masses)) / len(sample)
    return 0.5 * float(np.abs(emp - np.array(table.masses)).sum() + table.tail_mass)


def _two_element_theta() -> float:
    model = TwoElementModel(0.3, 0.7, 0.5)
    theta = model.theta(PeriodicPoint(Word((0,))))
    return _worst((abs(model.marginal_symbol_weight(0) - 0.5), abs(theta - 0.5)))


def _two_element_ratios() -> float:
    rows = ratio_convergence(TwoElementModel(0.3, 0.7, 0.5), PeriodicPoint(Word((0,))), 8)
    return _worst(abs(ratio - 0.5) for n, ratio, _ in rows if n in (2, 4, 8))


def _oracle_cases():
    model = TwoElementModel(0.3, 0.7, 0.5)
    env = model.draw_environment(20, 11)
    for target, horizon in (("0", 8), ("01", 6), ("00", 10)):
        dp = returns_mod.exact_count_distribution(model, env, target, horizon, r_max=horizon)
        yield model, env, target, horizon, dp.masses


def _dp_vs_enumeration() -> float:
    devs = []
    for model, env, target, horizon, dp in _oracle_cases():
        brute = returns_mod.enumerate_count_distribution(model, env, target, horizon).masses
        devs += (abs(dp[r] - (brute[r] if r < len(brute) else 0.0)) for r in range(horizon + 1))
    return _worst(devs)


def _mc_vs_dp_in_se(trials: int = 20_000) -> float:
    """Worst |MC - DP| mass, less 1e-9 of slack, in Monte Carlo standard errors."""
    devs = []
    for model, env, target, horizon, dp in _oracle_cases():
        mc = sampling_mod.monte_carlo_count_distribution(
            model, env, target, horizon, trials, seed=5, r_max=horizon
        ).masses
        for r in range(horizon + 1):
            se = math.sqrt(max(dp[r] * (1 - dp[r]), 1e-12) / trials)
            devs.append((abs(mc[r] - dp[r]) - 1e-9) / se)
    return _worst(devs)


def _moment_identity() -> float:
    model = TwoElementModel(0.4, 0.6, 0.3)
    env = model.draw_environment(24, 3)
    masses = returns_mod.exact_count_distribution(model, env, "010", 9, r_max=9).masses
    return _worst(abs(sum(math.comb(r, k) * m for r, m in enumerate(masses))
                      - binomial_moment_enumeration(model, env, "010", 9, k))
                  for k in range(4))


def _partition_relative_error() -> float:
    model = TwoElementModel(0.5, 0.5, 0.5)
    env = model.draw_environment(50, 1)
    rare, main = rare_vs_main_split(
        model, env, "00", 40, r=2, delta=4, block_gap=1, period=1
    )
    total = binomial_moment_enumeration(model, env, "00", 40, 2)
    return abs((rare + main) - total) / max(total, 1.0)


def _normalizer_closed_form() -> float:
    """Worst relative deviation of the closed-form countable normaliser from
    its definition, the truncated series added term by term."""
    us = (0.5, 0.75, 1.0)
    devs = []
    for u, closed in zip(us, models_mod._normalizers(np.array(us))):
        terms = (1.0 / (n * math.log(n) ** (1.0 + u))
                 for n in range(3, models_mod._NORMALIZER_TERMS + 1))
        midpoint = math.log(models_mod._NORMALIZER_TERMS + 0.5) ** (-u) / u
        summed = 1.0 / (math.fsum(terms) + midpoint)
        devs.append(abs(closed - summed) / summed)
    return _worst(devs)


def _golden_mean() -> GibbsSystem:
    golden = TransitionMatrix([[1, 1], [1, 0]])
    return GibbsSystem(golden, Potential.constant(0.0, golden, depth=2))


def _gibbs_product() -> float:
    iid = GibbsSystem(TransitionMatrix.full(2), bernoulli_potential([0.3, 0.7]))
    return _worst((abs(iid.cylinder_mass("01") - 0.21),
                   abs(iid.theta(PeriodicPoint(Word((0,)))) - 0.3)))


def _overlaps_off_period() -> float:
    rng = np.random.default_rng(3)
    bad = 0
    for _ in range(50):
        m = int(rng.integers(1, 6))
        while True:
            gen = tuple(int(s) for s in rng.integers(0, 3, size=m))
            try:
                point = PeriodicPoint(Word(gen))
                break
            except ValueError:
                continue
        n = int(rng.integers(2 * m, 12 * m + 1))
        bad += sum(1 for ell in self_overlaps(point.prefix(n)) if ell <= n - m and ell % m)
    return float(bad)


def _mean_identity() -> float:
    model = TwoElementModel(0.25, 0.7, 0.4)
    env = model.draw_environment(40, 9)
    masses = returns_mod.exact_count_distribution(model, env, "01", 30, r_max=30).masses
    return abs(sum(r * m for r, m in enumerate(masses))
               - returns_mod.expected_return_count(model, env, "01", 30))


# (name, comparison, bound, measure)
_SELFCHECKS = [
    ("pmf-normalization", operator.lt, 1e-10, _pmf_normalization),
    ("poisson-reduction-relative", operator.le, 1e-12, _poisson_relative_error),
    ("moment-consistency", operator.lt, 1e-8, _moment_consistency),
    ("pgf-consistency", operator.lt, 1e-10, _pgf_consistency),
    ("sampler-agreement-tv", operator.lt, 0.02, _sampler_tv),
    ("two-element-theta", operator.lt, 1e-15, _two_element_theta),
    ("two-element-ratios", operator.lt, 1e-12, _two_element_ratios),
    ("countable-normalizer-closed-form", operator.le, 4e-15, _normalizer_closed_form),
    ("oracle-dp-vs-enumeration", operator.lt, 1e-12, _dp_vs_enumeration),
    ("oracle-mc-vs-dp-in-se", operator.le, 4.0, _mc_vs_dp_in_se),
    ("moment-identity", operator.lt, 1e-10, _moment_identity),
    ("partition-identity-relative", operator.lt, 1e-11, _partition_relative_error),
    ("gibbs-eigenvalue", operator.lt, 1e-10,
     lambda: abs(_golden_mean().perron.lam - (1 + math.sqrt(5)) / 2)),
    ("gibbs-forbidden-mass", operator.eq, 0.0, lambda: _golden_mean().cylinder_mass("11")),
    ("gibbs-product", operator.lt, 1e-12, _gibbs_product),
    ("overlap-multiples-violations", operator.eq, 0.0, _overlaps_off_period),
    ("mean-identity", operator.lt, 1e-10, _mean_identity),
]

"""
Quenched and annealed convergence experiments.

An experiment fixes a model, a periodic point x with minimal period m, a
time parameter t and a list of cylinder lengths n.  For each sampled
environment and each n it computes the horizon N = floor(t / marginal mass
of the n-cylinder), obtains the law of the return count from the enabled
engines, and compares it with the geometric compound Poisson law with
rate (1 - theta) t and cluster parameter theta, whose mean is exactly t.
The comparison metric is total variation with the truncation tails folded
into a shared overflow bucket.

Horizons always use the *marginal* cylinder mass; the quenched laws vary
with the environment around it.  Environment and trial streams are derived
from the master seed by environment index, so environment i and its laws
are the same whatever the number of environments.

A quenched run is one n-major pass: the environments are drawn once, and
each (n, engine) runs over all of them.  Models whose fiber measure is the
same on every environment (``environment_free``, e.g. Gibbs systems) get
their exact laws computed once per (n, engine) and shared by all
environments; the limit-law table is built once per r_max.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .polya_aeppli import Pmf, PolyaAeppliParams, pa_pmf_table
from .returns import (
    DEFAULT_BUDGET_CELLS,
    DEFAULT_BUDGET_WORDS,
    BudgetError,
    CountDistribution,
    _checked_sampling,
    _sampled_classes,
    _window_mask,
    enumerate_count_distribution,
    exact_count_distribution,
    expected_return_count,
    monte_carlo_count_distribution,
    observation_time,
)
from .symbolic import PeriodicPoint

__all__ = [
    "ENGINES",
    "ExperimentConfig",
    "QuenchedRow",
    "QuenchedResult",
    "AnnealedRow",
    "run_quenched",
    "run_annealed",
    "mean_convergence_check",
    "overlap_count_check",
    "tv_distance",
    "theta_cluster_estimate",
]

ENGINES = ("exact-dp", "enumeration", "monte-carlo")

DELTA_RULES = {
    "n": lambda n: n,
    "2n": lambda n: 2 * n,
}

BLOCK_RULES = {
    "half_n": lambda n: max(n // 2, 1),
}


def _integral(value, field: str) -> int:
    """``value`` as an int, or a ValueError naming ``field`` if it is not integral."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _positive_real(value, field: str) -> float:
    """``value`` as a float, or a ValueError naming ``field`` if it is not a
    real number that is positive and finite as a float."""
    error = ValueError(f"{field} must be a finite positive number, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error
    try:
        out = float(value)
    except OverflowError:
        raise error from None
    if not (0.0 < out < math.inf):
        raise error
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    model: object
    point: PeriodicPoint
    n_list: tuple[int, ...]
    t: float
    environments: int = 20
    trials: int = 0
    master_seed: int = 0
    engines: tuple[str, ...] = ("exact-dp",)
    delta_rule: str = "n"
    block_rule: str = "half_n"
    r_max: int = 64
    budget_cells: int = DEFAULT_BUDGET_CELLS
    budget_words: int = DEFAULT_BUDGET_WORDS

    def __post_init__(self) -> None:
        for name in ("environments", "trials", "master_seed", "r_max",
                     "budget_cells", "budget_words"):
            object.__setattr__(self, name, _integral(getattr(self, name), name))
        object.__setattr__(self, "n_list", tuple(_integral(n, "n_list") for n in self.n_list))
        object.__setattr__(self, "engines", tuple(self.engines))
        object.__setattr__(self, "t", _positive_real(self.t, "t"))
        if not self.n_list:
            raise ValueError("n_list must be nonempty")
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ValueError("n_list must be strictly increasing")
        m = self.point.period
        if self.n_list[0] < 2 * m:
            raise ValueError(
                f"every n must be >= 2m = {2 * m}, got n = {self.n_list[0]}"
            )
        if self.environments < 1:
            raise ValueError("need at least one environment")
        unknown = set(self.engines) - set(ENGINES)
        if unknown:
            raise ValueError(f"unknown engines {sorted(unknown)}; valid: {ENGINES}")
        if not self.engines:
            raise ValueError("at least one engine must be enabled")
        if "monte-carlo" in self.engines and self.trials < 1:
            raise ValueError("monte-carlo engine needs trials >= 1")
        if self.delta_rule not in DELTA_RULES:
            raise ValueError(f"unknown delta rule {self.delta_rule!r}")
        if self.block_rule not in BLOCK_RULES:
            raise ValueError(f"unknown block rule {self.block_rule!r}")

    def horizon(self, n: int) -> int:
        mass = self.model.marginal_cylinder_mass(self.point.prefix(n))
        return observation_time(self.t, mass)

    def window_length(self) -> int:
        return max(self.horizon(n) + n for n in self.n_list)

    def delta_of(self, n: int) -> int:
        return DELTA_RULES[self.delta_rule](n)

    def block_of(self, n: int) -> int:
        return BLOCK_RULES[self.block_rule](n)


@dataclass(frozen=True, eq=False)
class QuenchedRow:
    """One count law against its limit law; quenched and annealed rows alike."""

    n: int
    engine: str
    horizon: int
    theta: float
    distribution: CountDistribution
    theoretical: Pmf
    tv: float
    mean_abs_err: float


AnnealedRow = QuenchedRow


@dataclass(frozen=True, eq=False)
class QuenchedResult:
    env_index: int
    environment: object
    rows: tuple[QuenchedRow, ...]


def environment_seed(master_seed: int, env_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(env_index, 0))


def trial_seed(master_seed: int, env_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(env_index, 1))


def tv_distance(a, b) -> float:
    """Total variation with tails folded into a shared overflow bucket."""
    cut = min(a.r_max, b.r_max)
    am = list(a.masses)
    bm = list(b.masses)
    tail_a = a.tail_mass + math.fsum(am[cut + 1 :])
    tail_b = b.tail_mass + math.fsum(bm[cut + 1 :])
    core = math.fsum(abs(x - y) for x, y in zip(am[: cut + 1], bm[: cut + 1]))
    return 0.5 * (core + abs(tail_a - tail_b))


def _compare(config: ExperimentConfig, n: int, engine: str, horizon: int, theta: float,
             dist: CountDistribution, theo: Pmf) -> QuenchedRow:
    """The row comparing ``dist`` with the limit law ``theo``."""
    return QuenchedRow(
        n=n,
        engine=engine,
        horizon=horizon,
        theta=theta,
        distribution=dist,
        theoretical=theo,
        tv=tv_distance(dist, theo),
        mean_abs_err=abs(dist.mean() - config.t),
    )


def _group_rows(quenched: list[QuenchedResult]) -> dict[tuple[int, str], list[QuenchedRow]]:
    """Rows per (n, engine), in environment order."""
    by_key: dict[tuple[int, str], list[QuenchedRow]] = {}
    for res in quenched:
        for row in res.rows:
            by_key.setdefault((row.n, row.engine), []).append(row)
    return by_key


def _run_engine(config: ExperimentConfig, env, engine: str, target, n: int, horizon: int, env_index: int) -> CountDistribution:
    try:
        if engine == "exact-dp":
            return exact_count_distribution(
                config.model, env, target, horizon,
                r_max=config.r_max, budget_cells=config.budget_cells,
            )
        if engine == "enumeration":
            return enumerate_count_distribution(
                config.model, env, target, horizon, budget_words=config.budget_words
            )
        return monte_carlo_count_distribution(
            config.model, env, target, horizon,
            trials=config.trials,
            seed=trial_seed(config.master_seed, env_index),
            r_max=config.r_max,
        )
    except BudgetError as exc:
        raise BudgetError(
            f"{exc} (engine {engine}, n={n}, horizon={horizon}, "
            f"environment {env_index})"
        ) from exc


def _environments(config: ExperimentConfig, window: int) -> list:
    """The run's environments over ``window`` positions, by environment index."""
    return [
        config.model.draw_environment(window, environment_seed(config.master_seed, i))
        for i in range(config.environments)
    ]


def run_quenched(config: ExperimentConfig, threads: int = 0) -> list[QuenchedResult]:
    """One result per environment, by index, with its rows in (n, engine) order.

    One n-major pass over environments drawn once: theta and each n's target
    and horizon are computed once, then each (n, engine) runs over the
    environments, once in all for an exact engine on an ``environment_free``
    model, else once per environment (Monte Carlo with that environment's
    trial seed).  ``threads`` is accepted for compatibility and ignored.
    """
    del threads
    model = config.model
    envs = _environments(config, config.window_length())
    theta = model.theta(config.point)
    params = PolyaAeppliParams(t=(1.0 - theta) * config.t, p=theta)
    tables: dict[int, Pmf] = {}
    rows: list[list[QuenchedRow]] = [[] for _ in envs]
    for n in config.n_list:
        target = config.point.prefix(n)
        horizon = config.horizon(n)
        for engine in config.engines:
            if model.environment_free and engine != "monte-carlo":
                dists = [_run_engine(config, envs[0], engine, target, n, horizon, 0)] * len(envs)
            else:
                dists = [_run_engine(config, env, engine, target, n, horizon, i)
                         for i, env in enumerate(envs)]
            for env_rows, dist in zip(rows, dists):
                if dist.r_max not in tables:
                    tables[dist.r_max] = pa_pmf_table(params, r_max=dist.r_max)
                env_rows.append(_compare(config, n, engine, horizon, theta, dist,
                                         tables[dist.r_max]))
    return [
        QuenchedResult(env_index=i, environment=env, rows=tuple(env_rows))
        for i, (env, env_rows) in enumerate(zip(envs, rows))
    ]


def run_annealed(
    config: ExperimentConfig, quenched: list[QuenchedResult] | None = None, threads: int = 0
) -> list[AnnealedRow]:
    """Environment-averaged laws with the same comparison columns.

    The rows of one (n, engine) must share one ``r_max``, as those of
    ``run_quenched`` do; the average is compared with their limit law.
    ``threads`` is accepted for compatibility and ignored.
    """
    del threads
    if config.environments < 2:
        raise ValueError("annealed averaging needs at least 2 environments")
    if quenched is None:
        quenched = run_quenched(config)
    by_key = _group_rows(quenched)
    out = []
    for n in config.n_list:
        for engine in config.engines:
            rows = by_key[(n, engine)]
            r_max = rows[0].distribution.r_max
            if any(row.distribution.r_max != r_max for row in rows):
                raise ValueError(
                    f"rows of n={n}, engine {engine} differ in r_max; "
                    "annealed averaging needs one r_max"
                )
            k = len(rows)
            masses = tuple(
                math.fsum(row.distribution.masses[r] for row in rows) / k
                for r in range(r_max + 1)
            )
            tail = math.fsum(row.distribution.tail_mass for row in rows) / k
            bias = max(row.distribution.bias_bound for row in rows)
            dist = CountDistribution(
                masses=masses, tail_mass=tail,
                provenance=rows[0].distribution.provenance, bias_bound=bias,
            )
            out.append(_compare(config, n, engine, rows[0].horizon, rows[0].theta, dist,
                                rows[0].theoretical))
    return out


@dataclass(frozen=True)
class MeanRow:
    n: int
    env_index: int
    expected_count: float
    abs_err: float


def mean_convergence_check(config: ExperimentConfig) -> list[MeanRow]:
    """Exact expected return counts per environment and n, against t: the
    u = 0 case of ``overlap_count_check``."""
    return [
        MeanRow(n=row.n, env_index=row.env_index, expected_count=row.expected_count,
                abs_err=abs(row.expected_count - config.t))
        for row in overlap_count_check(config, (0,))
    ]


@dataclass(frozen=True)
class OverlapRow:
    n: int
    u: int
    env_index: int
    expected_count: float
    limit: float


def overlap_count_check(config: ExperimentConfig, u_list: Sequence[int]) -> list[OverlapRow]:
    """Expected counts of hits to the deepened cylinder A_{n+mu} over the
    horizon of A_n, against the limit theta^u * t.  u = 0 reproduces
    ``mean_convergence_check``."""
    if not u_list or min(u_list) < 0:
        raise ValueError(f"u_list must be nonempty and nonnegative, got {tuple(u_list)}")
    m = config.point.period
    theta = config.model.theta(config.point)
    window = max(
        config.horizon(n) + n + m * max(u_list) for n in config.n_list
    )
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
    Carlo's samples, a slab of rows at a time: class codes on product
    fibers, words at depth > 1.  Returns NaN without any returns.
    """
    tw = _checked_sampling(model, target, horizon, trials)
    if period < 1:
        raise ValueError("period must be >= 1")
    at_period = returns_total = 0
    for codes, classes in _sampled_classes(model, env, tw, horizon, trials, seed, chunk=2048):
        mask = _window_mask(codes, classes, horizon)
        returns_total += int(mask.sum())
        at_period += int((mask[:, period:] & mask[:, :-period]).sum())
    if returns_total == 0:
        return float("nan")
    return at_period / returns_total

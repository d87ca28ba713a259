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
are the same whatever the number of environments.  An environment-free
model, whose laws read no coordinate, draws environment i from the plain
seed i instead: a Gibbs run thus builds no seed sequence at all.

A quenched run is one n-major pass: the environments are drawn once, and
each (n, engine) runs over all of them.  The exact DP takes them along an
environment axis, in one ``exact_count_distributions`` call per n; Monte
Carlo and enumeration run one environment after another.  Models whose
fiber measure is the same on every environment (``environment_free``,
e.g. Gibbs systems) get their exact laws computed once per (n, engine) and
shared by all environments; the limit-law table is built once per r_max.
The checks of the paper's other claims over these configs (the
overlap-count law, the cluster estimate) live in ``reclab.checks``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .polya_aeppli import CountDistribution, PolyaAeppliParams, check_r_max, pa_pmf_table
from .returns import (
    DEFAULT_BUDGET_CELLS,
    DEFAULT_BUDGET_WORDS,
    BudgetError,
    _dp_cells,
    _enumeration_words,
    enumerate_count_distribution,
    exact_count_distribution,
    exact_count_distributions,
    observation_time,
)
from .sampling import monte_carlo_count_distribution
from .symbolic import PeriodicPoint

__all__ = [
    "ENGINES", "ExperimentConfig", "QuenchedRow", "QuenchedResult", "run_quenched",
    "run_annealed", "tv_distance",
]

ENGINES = ("exact-dp", "enumeration", "monte-carlo")


def _integral(value, field: str) -> int:
    """``value`` as an int, or a ValueError naming ``field`` if it is not integral."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return int(value)


def _nonnegative(value, field: str) -> int:
    """``value`` as a nonnegative int, or a ValueError naming ``field``: numpy
    seeds refuse negative entropy, and a count law needs r_max >= 0."""
    out = _integral(value, field)
    if out < 0:
        raise ValueError(f"{field} must be a nonnegative integer, got {value!r}")
    return out


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
    r_max: int = 64
    budget_cells: int = DEFAULT_BUDGET_CELLS
    budget_words: int = DEFAULT_BUDGET_WORDS

    def __post_init__(self) -> None:
        for name in ("environments", "trials", "budget_cells", "budget_words"):
            object.__setattr__(self, name, _integral(getattr(self, name), name))
        for name in ("master_seed", "r_max"):
            object.__setattr__(self, name, _nonnegative(getattr(self, name), name))
        check_r_max(self.r_max)
        object.__setattr__(self, "n_list", tuple(_integral(n, "n_list") for n in self.n_list))
        object.__setattr__(self, "engines", tuple(self.engines))
        for engine in self.engines:
            if not isinstance(engine, str):
                raise ValueError(f"engines must be engine names, got {engine!r}")
        if len(set(self.engines)) < len(self.engines):
            raise ValueError(f"engines must not repeat, got {list(self.engines)}")
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
        # refuses a point the model cannot carry, before any horizon reads it
        self.model.theta(self.point)

    def horizon(self, n: int) -> int:
        mass = self.model.marginal_cylinder_mass(self.point.prefix(n))
        return observation_time(self.t, mass)

    def window_length(self) -> int:
        return max(self.horizon(n) + n for n in self.n_list)


@dataclass(frozen=True, eq=False)
class QuenchedRow:
    """One count law against its limit law; quenched and annealed rows alike."""

    n: int
    engine: str
    horizon: int
    theta: float
    distribution: CountDistribution
    theoretical: CountDistribution
    tv: float
    mean_abs_err: float


@dataclass(frozen=True, eq=False)
class QuenchedResult:
    env_index: int
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
             dist: CountDistribution, theo: CountDistribution) -> QuenchedRow:
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


def _run_engine(config: ExperimentConfig, env, engine: str, target, horizon: int,
                env_index: int) -> CountDistribution:
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


def _check_budgets(config: ExperimentConfig, horizons: dict[int, int]) -> None:
    """Raise, naming the engine, n and the horizon, the BudgetError an exact
    engine would raise at some n: no engine's cost depends on the environment."""
    for n, horizon in horizons.items():
        tw = config.model.validate_target(config.point.prefix(n))
        for engine in config.engines:
            try:
                if engine == "exact-dp":
                    _dp_cells(config.model, tw, horizon, config.r_max, config.budget_cells)
                elif engine == "enumeration":
                    _enumeration_words(config.model, horizon + n, config.budget_words)
            except BudgetError as exc:
                raise BudgetError(f"{exc} (engine {engine}, n={n}, horizon={horizon})") from exc


def _environments(config: ExperimentConfig, window: int) -> list:
    """The run's environments over ``window`` positions, by environment index;
    an ``environment_free`` model, which reads no coordinate, is seeded with
    the plain index, so a Gibbs run never loads ``numpy.random``."""
    model = config.model
    return [
        model.draw_environment(
            window, i if model.environment_free else environment_seed(config.master_seed, i)
        )
        for i in range(config.environments)
    ]


def run_quenched(config: ExperimentConfig) -> list[QuenchedResult]:
    """One result per environment, by index, with its rows in (n, engine) order.

    One n-major pass over environments drawn once, after each n's horizon
    passed the exact engines' budgets: theta and each n's target are computed
    once, then each (n, engine) runs over the environments: once in all for
    an exact engine on an ``environment_free`` model, as one stacked DP over
    all of them for the exact DP on any other, else once per environment
    (Monte Carlo with that environment's trial seed).
    Environment i is drawn from the master seed's child (i, 0), or from the
    plain seed i when the model is ``environment_free``.
    """
    model = config.model
    horizons = {n: config.horizon(n) for n in config.n_list}
    _check_budgets(config, horizons)
    envs = _environments(config, config.window_length())
    theta = model.theta(config.point)
    params = PolyaAeppliParams(t=(1.0 - theta) * config.t, p=theta)
    tables: dict[int, CountDistribution] = {}
    rows: list[list[QuenchedRow]] = [[] for _ in envs]
    for n, horizon in horizons.items():
        target = config.point.prefix(n)
        for engine in config.engines:
            if model.environment_free and engine != "monte-carlo":
                dists = [_run_engine(config, envs[0], engine, target, horizon, 0)] * len(envs)
            elif engine == "exact-dp":
                dists = exact_count_distributions(model, envs, target, horizon, config.r_max,
                                                  config.budget_cells)
            else:
                dists = [_run_engine(config, env, engine, target, horizon, i)
                         for i, env in enumerate(envs)]
            for env_rows, dist in zip(rows, dists):
                if dist.r_max not in tables:
                    tables[dist.r_max] = pa_pmf_table(params, r_max=dist.r_max)
                env_rows.append(_compare(config, n, engine, horizon, theta, dist,
                                         tables[dist.r_max]))
    return [QuenchedResult(env_index=i, rows=tuple(env_rows)) for i, env_rows in enumerate(rows)]


def run_annealed(
    config: ExperimentConfig, quenched: list[QuenchedResult] | None = None
) -> list[QuenchedRow]:
    """Environment-averaged laws with the same comparison columns.

    The rows of one (n, engine) must share one ``r_max``, as those of
    ``run_quenched`` do; the average is compared with their limit law.
    """
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

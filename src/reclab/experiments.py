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
from the master seed by index, so runs are reproducible regardless of the
thread count.  Models whose fiber measure is the same on every environment
(``environment_free``, e.g. Gibbs systems) get their exact laws computed
once per (engine, n) and shared by all environments; the limit-law table is
built once per (parameters, r_max).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .polya_aeppli import Pmf, PolyaAeppliParams, pa_pmf_table
from .returns import (
    DEFAULT_BUDGET_CELLS,
    DEFAULT_BUDGET_WORDS,
    CountDistribution,
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
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "engines", tuple(self.engines))
        if not self.n_list:
            raise ValueError("n_list must be nonempty")
        if list(self.n_list) != sorted(set(self.n_list)):
            raise ValueError("n_list must be strictly increasing")
        m = self.point.period
        if self.n_list[0] < 2 * m:
            raise ValueError(
                f"every n must be >= 2m = {2 * m}, got n = {self.n_list[0]}"
            )
        if not (self.t > 0.0):
            raise ValueError("t must be positive")
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
    from .returns import BudgetError

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
        if engine == "monte-carlo":
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
    raise ValueError(f"unknown engine {engine!r}")


def _memoised(memo: dict, key, build):
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _quenched_one(config: ExperimentConfig, env_index: int, memo: dict) -> QuenchedResult:
    """Rows of one environment; ``memo`` carries what the run's environments share.

    Limit-law tables are shared per (parameters, r_max).  When the model's
    fiber measure is the same on every environment (``environment_free``),
    the exact engines' laws are shared per (engine, n) as well; Monte Carlo
    rows always sample with their own environment's trial seed.
    """
    window = config.window_length()
    env = config.model.draw_environment(window, environment_seed(config.master_seed, env_index))
    theta = config.model.theta(config.point)
    params = PolyaAeppliParams(t=(1.0 - theta) * config.t, p=theta)
    shared_laws = getattr(config.model, "environment_free", False)
    rows = []
    for n in config.n_list:
        target = config.point.prefix(n)
        horizon = config.horizon(n)
        for engine in config.engines:
            def law():
                return _run_engine(config, env, engine, target, n, horizon, env_index)

            if shared_laws and engine != "monte-carlo":
                dist = _memoised(memo, ("law", engine, n), law)
            else:
                dist = law()
            theo = _memoised(
                memo, ("table", params, dist.r_max),
                lambda: pa_pmf_table(params, r_max=dist.r_max),
            )
            rows.append(_compare(config, n, engine, horizon, theta, dist, theo))
    return QuenchedResult(env_index=env_index, environment=env, rows=tuple(rows))


def run_quenched(config: ExperimentConfig, threads: int = 0) -> list[QuenchedResult]:
    """One result per environment, ordered by environment index.

    Results do not depend on the thread count.  The automatic choice
    (threads=0) runs sequentially.  Threads help where sampling dominates
    and hurt where the DP does: on 2 CPUs with BLAS threads 1, two threads
    took ``bench/configs/countable_mc.json`` from 6.8-7.6 s to 4.8-5.8 s
    but ``configs/quenched_two_element.json`` from 4.6-4.8 s to 6.8-8.2 s.
    Environment 0 runs first, so the laws and tables it leaves for the
    others are computed once.
    """
    memo: dict = {}
    first = _quenched_one(config, 0, memo)
    rest = range(1, config.environments)
    workers = threads if threads > 0 else 1
    if workers == 1 or config.environments == 1:
        return [first] + [_quenched_one(config, i, memo) for i in rest]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return [first] + list(pool.map(lambda i: _quenched_one(config, i, memo), rest))


def run_annealed(
    config: ExperimentConfig, quenched: list[QuenchedResult] | None = None, threads: int = 0
) -> list[AnnealedRow]:
    """Environment-averaged laws with the same comparison columns."""
    if config.environments < 2:
        raise ValueError("annealed averaging needs at least 2 environments")
    if quenched is None:
        quenched = run_quenched(config, threads=threads)
    by_key = _group_rows(quenched)
    out = []
    for n in config.n_list:
        for engine in config.engines:
            rows = by_key[(n, engine)]
            r_max = min(row.distribution.r_max for row in rows)
            k = len(rows)
            masses = tuple(
                math.fsum(row.distribution.masses[r] for row in rows) / k
                for r in range(r_max + 1)
            )
            tail = (
                math.fsum(
                    row.distribution.tail_mass
                    + math.fsum(row.distribution.masses[r_max + 1 :])
                    for row in rows
                )
                / k
            )
            bias = max(row.distribution.bias_bound for row in rows)
            dist = CountDistribution(
                masses=masses, tail_mass=tail,
                provenance=rows[0].distribution.provenance, bias_bound=bias,
            )
            # the quenched rows already carry the limit law at their r_max
            theo = rows[0].theoretical
            if theo.r_max != r_max:
                theo = pa_pmf_table(
                    PolyaAeppliParams(t=(1.0 - rows[0].theta) * config.t, p=rows[0].theta),
                    r_max=r_max,
                )
            out.append(_compare(config, n, engine, rows[0].horizon, rows[0].theta, dist, theo))
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
    for i in range(config.environments):
        env = config.model.draw_environment(window, environment_seed(config.master_seed, i))
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
    returns but no closing long gap.)  Returns NaN without any returns.
    """
    from .symbolic import as_word

    tw = as_word(target).symbols
    n = len(tw)
    length = horizon + n
    seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    chunk = 2048
    n_chunks = (trials + chunk - 1) // chunk
    children = seq.spawn(n_chunks)
    tarr = np.array(tw)
    at_period = 0
    returns_total = 0
    done = 0
    for c in range(n_chunks):
        take = min(chunk, trials - done)
        rng = np.random.default_rng(children[c])
        words = model.sample_words(env, 0, length, take, rng)
        match = np.ones((take, horizon), dtype=bool)
        for d in range(n):
            match &= words[:, 1 + d : 1 + d + horizon] == tarr[d]
        returns_total += int(match.sum())
        if horizon > period:
            at_period += int((match[:, period:] & match[:, :-period]).sum())
        done += take
    if returns_total == 0:
        return float("nan")
    return at_period / returns_total

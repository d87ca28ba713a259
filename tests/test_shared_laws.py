"""Laws shared across environments and sampler-cutoff targets."""

import pytest

from reclab import (
    CountableModel,
    ExperimentConfig,
    GibbsSystem,
    MarginalModel,
    PeriodicPoint,
    Potential,
    TransitionMatrix,
    TwoElementModel,
    Word,
    exact_count_distribution,
    monte_carlo_count_distribution,
    run_annealed,
    run_quenched,
)
from reclab import experiments

GOLDEN = TransitionMatrix([[1, 1], [1, 0]])


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(experiments, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(experiments, name, counted)
    return calls


def test_gibbs_exact_laws_computed_once_per_n(monkeypatch):
    system = GibbsSystem(GOLDEN, Potential.constant(0.0, GOLDEN, depth=2))
    config = ExperimentConfig(
        system, PeriodicPoint(Word((0,))), (2, 3), 1.0,
        environments=3, master_seed=7, trials=4000,
        engines=("exact-dp", "enumeration", "monte-carlo"), r_max=12,
    )
    dp_calls = _counting(monkeypatch, "exact_count_distribution")
    enum_calls = _counting(monkeypatch, "enumerate_count_distribution")
    mc_calls = _counting(monkeypatch, "monte_carlo_count_distribution")
    results = run_quenched(config)
    assert len(dp_calls) == len(config.n_list)
    assert len(enum_calls) == len(config.n_list)
    assert len(mc_calls) == len(config.n_list) * config.environments
    base = results[0].rows
    for res in results[1:]:
        for row, row0 in zip(res.rows, base):
            if row.engine == "monte-carlo":
                assert row.distribution.masses != row0.distribution.masses
            else:
                assert row.distribution.masses == row0.distribution.masses
                assert row.tv == row0.tv


def test_environment_dependent_laws_are_not_shared(monkeypatch):
    model = TwoElementModel(0.3, 0.7, 0.5)
    config = ExperimentConfig(
        model, PeriodicPoint(Word((0,))), (4, 6), 1.0,
        environments=3, master_seed=11, engines=("exact-dp",), r_max=16,
    )
    dp_calls = _counting(monkeypatch, "exact_count_distributions")
    results = run_quenched(config)
    # one stacked DP per n, over every environment
    assert [len(args[1]) for args in dp_calls] == [config.environments] * len(config.n_list)
    for k in range(len(config.n_list)):
        laws = {res.rows[k].distribution.masses for res in results}
        assert len(laws) == config.environments


def test_limit_law_table_built_once_per_run(monkeypatch):
    model = TwoElementModel(0.3, 0.7, 0.5)
    config = ExperimentConfig(
        model, PeriodicPoint(Word((0,))), (4, 6, 8), 1.0,
        environments=3, master_seed=2, trials=300,
        engines=("exact-dp", "monte-carlo"), r_max=16,
    )
    table_calls = _counting(monkeypatch, "pa_pmf_table")
    quenched = run_quenched(config)
    annealed = run_annealed(config, quenched=quenched)
    assert len(table_calls) == 1
    tables = {id(row.theoretical) for res in quenched for row in res.rows}
    tables |= {id(row.theoretical) for row in annealed}
    assert len(tables) == 1


def test_monte_carlo_rejects_targets_above_the_cutoff():
    model = CountableModel(0.5, alphabet_cutoff=16)
    env = model.draw_environment(12, 0)
    dp = exact_count_distribution(model, env, (20,), 10, r_max=8)
    assert 0.0 < dp.masses[0] < 1.0
    for m in (model, MarginalModel(model)):
        with pytest.raises(ValueError, match="cutoff"):
            monte_carlo_count_distribution(m, env, (20,), 10, trials=100, seed=0)
        with pytest.raises(ValueError, match="cutoff"):
            monte_carlo_count_distribution(m, env, (3, 17), 9, trials=100, seed=0)
    # the cutoff symbol itself is still sampled
    mc = monte_carlo_count_distribution(model, env, (16,), 10, trials=100, seed=0)
    assert mc.total() == pytest.approx(1.0)

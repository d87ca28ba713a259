"""One exact-DP core for product and Markov measures.

Stationary product measures (``MarginalModel``) run their counting steps in
blocks like Gibbs systems; quenched product models keep every automaton
state and stay on the plain step while their weights change; an i.i.d.
Gibbs system is the one-chain-state case of the same core.  The operator
cache stays bounded when weight tables never repeat.
"""

import tracemalloc

import numpy as np
import pytest

from reclab import (
    CountableModel,
    GibbsSystem,
    MarginalModel,
    PeriodicPoint,
    TransitionMatrix,
    TwoElementModel,
    Word,
    bernoulli_potential,
    enumerate_count_distribution,
    exact_count_distribution,
    observation_time,
)
from reclab import returns


def _spy(monkeypatch):
    """Record block applications and the (states, steps) of each stationary run."""
    applied, runs = [], []
    apply_block = returns._apply_block
    counting_steps = returns._counting_steps

    def spy_apply(power, dist):
        applied.append(1)
        return apply_block(power, dist)

    def spy_steps(keep_op, emit_op, dist, steps):
        runs.append((dist.shape[0], steps))
        return counting_steps(keep_op, emit_op, dist, steps)

    monkeypatch.setattr(returns, "_apply_block", spy_apply)
    monkeypatch.setattr(returns, "_counting_steps", spy_steps)
    return applied, runs


def _case(model, generator, n):
    target = PeriodicPoint(Word(generator)).prefix(n)
    horizon = observation_time(1.0, model.marginal_cylinder_mass(target))
    return model.draw_environment(horizon + n, 1), target, horizon


@pytest.mark.parametrize(
    "base, generator, n",
    [(TwoElementModel(0.3, 0.7, 0.5), (0,), 14), (CountableModel(0.5), (3,), 5)],
    ids=["two-element", "countable"],
)
def test_marginal_model_runs_in_blocks(monkeypatch, base, generator, n):
    model = MarginalModel(base)
    env, target, horizon = _case(model, generator, n)
    applied, runs = _spy(monkeypatch)
    fast = exact_count_distribution(model, env, target, horizon)
    # every counting step is stationary
    assert runs == [(n, horizon)]
    assert applied
    monkeypatch.setattr(returns, "_BLOCK_FLOATS_MAX", 0)
    plain = exact_count_distribution(model, env, target, horizon)
    np.testing.assert_allclose(fast.masses, plain.masses, rtol=0, atol=1e-12)
    assert abs(fast.tail_mass - plain.tail_mass) <= 1e-12


def test_quenched_two_element_keeps_every_automaton_state(monkeypatch):
    model = TwoElementModel(0.3, 0.7, 0.5)
    env, target, horizon = _case(model, (0,), 12)
    _, runs = _spy(monkeypatch)
    exact_count_distribution(model, env, target, horizon)
    assert [states for states, _ in runs] == [12]


def test_weights_changing_to_the_end_never_take_blocks(monkeypatch):
    model = CountableModel(0.5)
    env, target, horizon = _case(model, (3,), 5)
    applied, runs = _spy(monkeypatch)
    law = exact_count_distribution(model, env, target, horizon)
    # continuous coordinates: only the last position starts a stationary run
    assert runs == [(5, 1)]
    assert not applied
    monkeypatch.setattr(returns, "_BLOCK_FLOATS_MAX", 0)
    assert exact_count_distribution(model, env, target, horizon).masses == law.masses


def test_countable_dp_memory_does_not_grow_with_the_horizon():
    # continuous coordinates never repeat a weight table, so an unbounded
    # operator cache would keep one operator triple per position
    model = CountableModel(0.5)
    target = (3,) * 6
    peaks = []
    for horizon in (400, 1600):
        env = model.draw_environment(horizon + len(target), 1)
        tracemalloc.start()
        try:
            exact_count_distribution(model, env, target, horizon, r_max=8)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # the weight table holds two floats per position: the target symbol and
    # the lumped rest; its temporaries take a few times that
    table_growth = (1600 - 400) * 2 * 8
    assert peaks[1] - peaks[0] < 16 * table_growth


def test_iid_gibbs_is_the_one_chain_state_case(monkeypatch):
    system = GibbsSystem(TransitionMatrix.full(3), bernoulli_potential([0.2, 0.5, 0.3]))
    target, horizon = (1, 2, 1), 8
    calls = []
    core = returns._exact_dp

    def spy_core(tw, length, alphabet, states, init, weights, r_max):
        calls.append((list(states), weights.shape))
        return core(tw, length, alphabet, states, init, weights, r_max)

    monkeypatch.setattr(returns, "_exact_dp", spy_core)
    dp = exact_count_distribution(system, None, target, horizon, r_max=horizon)
    # one chain state and one weight table for every position
    assert calls == [([()], (1, 3, 1, 1))]
    brute = enumerate_count_distribution(system, None, target, horizon)
    np.testing.assert_allclose(dp.masses, brute.masses, rtol=0, atol=1e-12)
    assert dp.tail_mass == 0.0

"""The exact DP over a stack of environments against one run per environment.

``exact_count_distributions`` steps the (state, count) tables of several
environments together; each environment must keep the arithmetic of its own
``exact_count_distribution`` run: the same laws bit for bit, the same
stationary tail from its own last weight change (so the same block path),
and its own reachable states.  Memory stays that of a chunk of the stack,
an over-budget run is refused before any table is built or any
environment is drawn, and an empty environment list is refused.
"""

import tracemalloc

import numpy as np
import pytest

from reclab import (
    BudgetError,
    CountableModel,
    Environment,
    ExperimentConfig,
    GibbsSystem,
    PeriodicPoint,
    Potential,
    TransitionMatrix,
    TwoElementModel,
    Word,
    as_word,
    exact_count_distribution,
    run_quenched,
)
from reclab import returns
from reclab.returns import exact_count_distributions

TWO = TwoElementModel(0.3, 0.7, 0.05)


def _laws(model, envs, target, horizon, r_max):
    stacked = exact_count_distributions(model, envs, target, horizon, r_max=r_max)
    alone = [exact_count_distribution(model, env, target, horizon, r_max=r_max) for env in envs]
    return stacked, alone


def _assert_same_bits(stacked, alone):
    assert len(stacked) == len(alone)
    for s, a in zip(stacked, alone):
        assert s.masses == a.masses
        assert s.tail_mass == a.tail_mass
        assert s.provenance == a.provenance == "exact-dp"


def _spy_tails(monkeypatch):
    """(steps, blocks applied) of each stationary tail, in call order."""
    tails = []
    counting_steps, apply_block = returns._counting_steps, returns._apply_block

    def spy_apply(power, dist):
        tails[-1][1] += 1
        return apply_block(power, dist)

    def spy_steps(keep_op, emit_op, dist, steps):
        tails.append([steps, 0])
        return counting_steps(keep_op, emit_op, dist, steps)

    monkeypatch.setattr(returns, "_apply_block", spy_apply)
    monkeypatch.setattr(returns, "_counting_steps", spy_steps)
    return tails


def _two_element_envs(length):
    """Coordinates whose last change falls at different positions: one
    environment ends in a long constant run, the others change to the end."""
    rng = np.random.default_rng(4)
    windows = [rng.integers(0, 2, length).astype(np.int8) for _ in range(4)]
    windows[1][length - 300 :] = 1  # a long constant tail
    windows[2][length - 3 :] = 0
    windows[3][-1] = 1 - windows[3][-2]  # changes at the last position
    return [Environment(window=w) for w in windows]


def test_two_element_steady_positions_differ_and_one_tail_takes_blocks(monkeypatch):
    target, horizon, r_max = (0,) * 8, 1200, 12
    envs = _two_element_envs(horizon + len(target))
    tails = _spy_tails(monkeypatch)
    alone = [exact_count_distribution(TWO, env, target, horizon, r_max=r_max) for env in envs]
    alone_tails = sorted(map(tuple, tails))
    tails.clear()
    stacked = exact_count_distributions(TWO, envs, target, horizon, r_max=r_max)
    _assert_same_bits(stacked, alone)
    # every environment enters its own tail: the same steps, the same blocks
    assert sorted(map(tuple, tails)) == alone_tails
    assert len({steps for steps, _ in tails}) == len(envs)
    assert [blocks > 0 for _, blocks in sorted(tails)] == [False, False, False, True]


@pytest.mark.parametrize("target, horizon", [((3,) * 4, 616), ((3, 4, 3), 300), ((5, 3), 120)])
def test_countable_environments(target, horizon):
    model = CountableModel(0.5)
    envs = [model.draw_environment(horizon + len(target), seed) for seed in range(5)]
    _assert_same_bits(*_laws(model, envs, target, horizon, r_max=20))


def test_two_symbol_two_element_targets():
    # three columns (0, 1 and the lumped rest) per table
    model = TwoElementModel(0.25, 0.6, 0.4)
    target, horizon = (0, 1, 1, 0, 1), 200
    envs = [model.draw_environment(horizon + len(target), seed) for seed in range(6)]
    _assert_same_bits(*_laws(model, envs, target, horizon, r_max=16))


def test_horizon_zero_and_one_environment():
    envs = [TWO.draw_environment(8, seed) for seed in range(3)]
    stacked, alone = _laws(TWO, envs, (0, 0, 0), 0, r_max=4)
    _assert_same_bits(stacked, alone)
    assert stacked[0].masses == (1.0, 0.0, 0.0, 0.0, 0.0)
    _assert_same_bits(*_laws(TWO, envs[:1], (0, 1, 0), 5, r_max=5))


@pytest.mark.parametrize("horizon, budget_cells", [(0, 10**9), (5, 10**9), (5, 1)])
def test_an_empty_environment_list_is_refused(horizon, budget_cells):
    # refused at every horizon, before the budget check
    with pytest.raises(ValueError, match="need at least one environment"):
        exact_count_distributions(TWO, [], (0, 1), horizon, budget_cells=budget_cells)


class ShortStackModel(TwoElementModel):
    """Gives the tables only up to the last change of the weights from
    ``start`` to the window's end; the last one holds for every later
    position, asked for or not."""

    def dp_tables(self, env, tw, length, start=0):
        alphabet, states, init, later = super().dp_tables(env, tw, len(env.window), start)
        changes = np.flatnonzero((later[1:] != later[:-1]).any(axis=(1, 2, 3)))
        stop = min(length - start, changes[-1] + 2 if changes.size else 1)
        return alphabet, states, init, later[:stop]


@pytest.mark.parametrize("windows", [[(0, 1, 0)], [(0, 1, 0), (1, 0, 0), (1, 1, 1), (0, 0, 1)]])
def test_a_short_stack_of_tables_holds_its_last_for_every_later_position(windows):
    # the weights stop changing by position 3, long before the counting starts
    # at position 8, so the model gives 1 to 3 tables where the DP steps 8
    target, horizon = (0,) * 8, 40
    full, short = TwoElementModel(0.3, 0.7, 0.5), ShortStackModel(0.3, 0.7, 0.5)
    envs = [Environment(window=np.array(w + (w[-1],) * (horizon + 5), dtype=np.int8))
            for w in windows]
    assert {len(short.dp_tables(env, target, horizon + 8)[3]) for env in envs} >= {3}
    stacked = exact_count_distributions(short, envs, target, horizon, r_max=12)
    _assert_same_bits(stacked, exact_count_distributions(full, envs, target, horizon, r_max=12))
    _assert_same_bits(stacked, [exact_count_distribution(short, env, target, horizon, r_max=12)
                                for env in envs])


class ZeroableModel:
    """Symbols 0, 1, 2 with weights (u/2, (1 - u)/2, 1/2) at coordinate u:
    an environment of zero coordinates never draws symbol 0."""

    environment_free = False

    def validate_target(self, target):
        return as_word(target).symbols

    def dp_width(self, tw):
        return 3

    def dp_tables(self, env, tw, length, start=0):
        u = env.coordinates(start, length - start)
        weights = np.column_stack([u / 2, (1 - u) / 2, np.full(len(u), 0.5)])
        return [0, 1, 2], [()], [1.0], weights[:, :, None, None]


def test_an_environment_with_a_zero_weight_steps_on_its_own_states(monkeypatch):
    model = ZeroableModel()
    target, horizon = (0, 2, 0), 40
    rng = np.random.default_rng(2)
    windows = [rng.random(horizon + 3), np.zeros(horizon + 3), rng.random(horizon + 3)]
    envs = [Environment(window=w) for w in windows]
    stacks = []
    stack_steps = returns._stack_steps

    def spy(model, envs, tw, last, steady, blocks, dist, *args):
        stacks.append((sorted(steady), len(dist)))
        return stack_steps(model, envs, tw, last, steady, blocks, dist, *args)

    monkeypatch.setattr(returns, "_stack_steps", spy)
    stacked, alone = _laws(model, envs, target, horizon, r_max=8)
    _assert_same_bits(stacked, alone)
    # without symbol 0 only the automaton's start state is reachable
    assert sorted(stacks[:2]) == [([0, 2], 3), ([1], 1)]
    assert stacked[1].masses[0] == 1.0


def test_memory_stays_that_of_a_chunk_of_the_stack():
    target, horizon = (0,) * 12, 4096
    length = horizon + len(target)
    envs = [TWO.draw_environment(length, seed) for seed in range(16)]
    # weights of the whole stack: (environments, positions, symbols)
    whole = len(envs) * length * 2 * 8
    tracemalloc.start()
    try:
        exact_count_distributions(TWO, envs, target, horizon, r_max=16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole / 2


def test_an_over_budget_stack_is_refused_before_any_table_or_draw(monkeypatch):
    built, drawn = [], []
    model = TwoElementModel(0.3, 0.7, 0.5)
    dp_tables, draw = type(model).dp_tables, type(model).draw_environment
    monkeypatch.setattr(type(model), "dp_tables", lambda *a: built.append(a) or dp_tables(*a))
    monkeypatch.setattr(type(model), "draw_environment",
                        lambda *a: drawn.append(a) or draw(*a))
    envs = [Environment(window=np.zeros(30, dtype=np.int8)) for _ in range(3)]
    with pytest.raises(BudgetError, match="exact DP needs"):
        exact_count_distributions(model, envs, (0,) * 6, 24, r_max=8, budget_cells=1000)
    assert built == []
    config = ExperimentConfig(
        model, PeriodicPoint(Word((0,))), (4, 6), 1.0,
        environments=4, engines=("exact-dp",), r_max=16, budget_cells=1000,
    )
    with pytest.raises(BudgetError, match=r"engine exact-dp, n=4"):
        run_quenched(config)
    assert drawn == [] and built == []


def _chunk_cases():
    """(model, envs, target, horizon, r_max) of the cases above, by name."""
    countable = CountableModel(0.5)
    two_symbols = TwoElementModel(0.25, 0.6, 0.4)
    short = ShortStackModel(0.3, 0.7, 0.5)
    rng = np.random.default_rng(2)
    cases = {
        "two-element-tails": (TWO, _two_element_envs(1208), (0,) * 8, 1200, 12),
        "two-symbols": (two_symbols, [two_symbols.draw_environment(205, seed)
                                      for seed in range(6)], (0, 1, 1, 0, 1), 200, 16),
        "one-environment": (TWO, [TWO.draw_environment(8, 0)], (0, 1, 0), 5, 5),
        "short-stack": (short, [Environment(window=np.array(w + (w[-1],) * 45, dtype=np.int8))
                                for w in [(0, 1, 0), (1, 0, 0), (1, 1, 1), (0, 0, 1)]],
                        (0,) * 8, 40, 12),
        # the last draws zeros only after position 20: symbol 0 is used in early chunks
        "zero-weight": (ZeroableModel(), [Environment(window=w) for w in
                                          [rng.random(43), np.zeros(43), rng.random(43),
                                           np.where(np.arange(43) < 20, rng.random(43), 0.0)]],
                        (0, 2, 0), 40, 8),
    }
    for target, horizon in [((3,) * 4, 616), ((3, 4, 3), 300), ((5, 3), 120)]:
        cases[f"countable-{len(target)}"] = (
            countable, [countable.draw_environment(horizon + len(target), seed)
                        for seed in range(5)], target, horizon, 20)
    return cases


CHUNK_CASES = _chunk_cases()


def _chunked(monkeypatch, model, target, positions):
    """Let the DP's first pass read ``positions`` positions of tables at a time."""
    monkeypatch.setattr(returns, "_TABLE_CHUNK_FLOATS", positions * model.dp_width(target))


@pytest.mark.parametrize("positions", [1, 2, 3, 7])
@pytest.mark.parametrize("name", sorted(CHUNK_CASES))
def test_a_first_pass_in_small_chunks_keeps_the_bits(monkeypatch, name, positions):
    model, envs, target, horizon, r_max = CHUNK_CASES[name]
    stacked, alone = _laws(model, envs, target, horizon, r_max)
    _chunked(monkeypatch, model, target, positions)
    _assert_same_bits(exact_count_distributions(model, envs, target, horizon, r_max=r_max),
                      stacked)
    _assert_same_bits([exact_count_distribution(model, env, target, horizon, r_max=r_max)
                       for env in envs], alone)


def _spy_steady(monkeypatch):
    """The ``steady`` positions of each ``_stack_steps`` call, in call order."""
    calls = []
    stack_steps = returns._stack_steps

    def spy(model, envs, tw, last, steady, *args):
        calls.append(dict(steady))
        return stack_steps(model, envs, tw, last, steady, *args)

    monkeypatch.setattr(returns, "_stack_steps", spy)
    return calls


@pytest.mark.parametrize("change", [13, 14, 15])
def test_a_last_change_next_to_a_chunk_edge_is_found(monkeypatch, change):
    # chunks of 7 positions: position 14 opens the third chunk
    target, horizon = (0,) * 3, 40
    window = np.zeros(horizon + len(target), dtype=np.int8)
    window[change:] = 1
    env = Environment(window=window)
    calls = _spy_steady(monkeypatch)
    whole = exact_count_distribution(TWO, env, target, horizon, r_max=8)
    _chunked(monkeypatch, TWO, target, 7)
    chunked = exact_count_distribution(TWO, env, target, horizon, r_max=8)
    assert calls == [{0: change}, {0: change}]
    _assert_same_bits([chunked], [whole])


def test_a_model_that_answers_fewer_tables_ends_its_first_pass(monkeypatch):
    # a constant window: the short-stack model answers one table however
    # many positions are asked for, and so does a Gibbs system
    golden = GibbsSystem(TransitionMatrix([[1, 1], [1, 0]]),
                         Potential.constant(0.0, TransitionMatrix([[1, 1], [1, 0]]), depth=2))
    short = ShortStackModel(0.3, 0.7, 0.5)
    stack_steps = returns._stack_steps
    for model, env in [(short, Environment(window=np.zeros(48, dtype=np.int8))),
                       (golden, golden.draw_environment(48, 0))]:
        calls, first_pass = [], []
        dp_tables = type(model).dp_tables
        monkeypatch.setattr(type(model), "dp_tables",
                            lambda *a, dp_tables=dp_tables: calls.append(a) or dp_tables(*a))
        monkeypatch.setattr(returns, "_stack_steps",
                            lambda *a: first_pass.append(len(calls)) or stack_steps(*a))
        _chunked(monkeypatch, model, (0,) * 8, 2)
        exact_count_distribution(model, env, (0,) * 8, 40, r_max=12)
        assert first_pass == [1]


def test_the_first_pass_of_a_long_horizon_holds_a_chunk_of_its_tables(monkeypatch):
    # the weights settle at position 40, so the DP runs in blocks from there
    target, horizon = (0,) * 4, 600_000
    length = horizon + len(target)
    window = np.ones(length, dtype=np.int8)
    window[:40] = np.random.default_rng(5).integers(0, 2, 40)
    env = Environment(window=window)
    whole = length * TWO.dp_width(target) * 8  # one table of floats per position
    tracemalloc.start()
    try:
        chunked = exact_count_distribution(TWO, env, target, horizon, r_max=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < whole / 10
    _chunked(monkeypatch, TWO, target, length)  # the whole table in one call
    _assert_same_bits([chunked], [exact_count_distribution(TWO, env, target, horizon, r_max=8)])

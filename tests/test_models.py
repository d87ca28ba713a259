import math

import numpy as np
import pytest
from scipy import integrate

from reclab import (
    CountableModel,
    Environment,
    MarginalModel,
    PeriodicPoint,
    TwoElementModel,
    Word,
    check_psi_mixing,
    monte_carlo_count_distribution,
)
from reclab import sampling
from reclab.models import _NORMALIZER_TERMS, _normalizers, ratio_convergence


@pytest.fixture(scope="module")
def two_elt():
    return TwoElementModel(0.3, 0.7, 0.5)


@pytest.fixture(scope="module")
def countable():
    return CountableModel(epsilon=0.5, alphabet_cutoff=2048)


def _class_frequencies(model, env, symbols, length: int, trials: int, seed) -> np.ndarray:
    """(len(symbols), length): the fraction of Monte Carlo's ``trials`` rows
    that draw each of ``symbols`` (in alphabet order) at each position."""
    counts = np.zeros((len(symbols), length))
    for hits, _ in sampling._sampled_classes(model, env, symbols, length - len(symbols),
                                              trials, seed):
        counts += hits[: len(symbols)].sum(axis=1)
    return counts / trials


def test_constructor_validation():
    for bad in (0.0, 1.0, -0.2, 1.4):
        with pytest.raises(ValueError):
            TwoElementModel(bad, 0.5, 0.5)
        with pytest.raises(ValueError):
            TwoElementModel(0.5, 0.5, bad)
    with pytest.raises(ValueError):
        CountableModel(epsilon=1.5)


def test_environment_determinism(two_elt):
    a = two_elt.draw_environment(100, 42)
    b = two_elt.draw_environment(100, 42)
    assert np.array_equal(a.window, b.window)
    c = two_elt.draw_environment(100, 43)
    assert not np.array_equal(a.window, c.window)


def test_driving_frequency(two_elt):
    env = two_elt.draw_environment(1_000_000, 7)
    freq0 = float((env.window == 0).mean())
    assert abs(freq0 - 0.5) < 0.0015  # 3 sigma


def test_fiber_cylinder_mass(two_elt):
    env = Environment(window=np.array([0, 1, 0, 0], dtype=np.int8))
    assert two_elt.fiber_cylinder_mass(env, "00", 0) == pytest.approx(0.21)
    # weight of symbol 0 is alpha on coordinate 0, beta on coordinate 1
    assert two_elt.fiber_cylinder_mass(env, "0", 1) == pytest.approx(0.7)
    assert two_elt.fiber_cylinder_mass(env, "1", 1) == pytest.approx(0.3)
    # per-position weights are stochastic
    total = two_elt.fiber_cylinder_mass(env, "0", 2) + two_elt.fiber_cylinder_mass(
        env, "1", 2
    )
    assert total == pytest.approx(1.0, abs=1e-12)
    # equal weights across symbols: one-symbol mass is uniform at any offset
    flat = TwoElementModel(0.5, 0.5, 0.3)
    for offset in range(3):
        assert flat.fiber_cylinder_mass(env, "0", offset) == pytest.approx(0.5)
        assert flat.fiber_cylinder_mass(env, "1", offset) == pytest.approx(0.5)


def test_window_overflow_is_an_error(two_elt):
    env = two_elt.draw_environment(5, 0)
    with pytest.raises(ValueError):
        two_elt.fiber_cylinder_mass(env, "000", 3)
    with pytest.raises(ValueError):
        monte_carlo_count_distribution(two_elt, env, "0", 5, trials=10, seed=0)


def test_marginal_weights(two_elt):
    assert two_elt.marginal_symbol_weight(0) == pytest.approx(0.5)
    assert two_elt.marginal_symbol_weight(1) == pytest.approx(0.5)
    assert two_elt.marginal_cylinder_mass("01") == pytest.approx(0.25)
    skew = TwoElementModel(0.3, 0.7, 0.2)
    assert skew.marginal_symbol_weight(0) == pytest.approx(0.3 * 0.2 + 0.7 * 0.8)
    # alpha = beta: marginal weight is alpha regardless of the driving coin
    flat = TwoElementModel(0.4, 0.4, 0.9)
    assert flat.marginal_symbol_weight(0) == pytest.approx(0.4)


@pytest.mark.parametrize("alpha, beta, driving_p", [(0.3, 0.7, 0.5), (0.3, 0.7, 0.2),
                                                    (0.1, 0.45, 1 / 3), (0.9, 0.6, 0.77)])
def test_two_element_marginal_weights_are_the_closed_forms(alpha, beta, driving_p):
    model = TwoElementModel(alpha, beta, driving_p)
    p, q = driving_p, 1.0 - driving_p
    want = [alpha * p + beta * q, (1.0 - alpha) * p + (1.0 - beta) * q, 0.0]
    vector = model.marginal_symbol_weights([0, 1, 2])
    assert vector.tolist() == want
    assert [model.marginal_symbol_weight(s) for s in (0, 1, 2)] == want
    marginal = MarginalModel(model)
    assert marginal.marginal_symbol_weights([2, 1, 0]).tolist() == want[::-1]
    assert [marginal.marginal_symbol_weight(s) for s in (0, 1, 2)] == want


def test_theta_closed_form(two_elt):
    assert two_elt.theta(PeriodicPoint(Word((0,)))) == pytest.approx(0.5)
    assert two_elt.theta(PeriodicPoint(Word((0, 1)))) == pytest.approx(0.25)
    sym = TwoElementModel(0.5, 0.5, 0.3)
    assert sym.theta(PeriodicPoint(Word((0, 1, 0, 0, 1)))) == pytest.approx(
        0.5**5
    )
    flat = TwoElementModel(0.4, 0.4, 0.9)
    assert flat.theta(PeriodicPoint(Word((0,)))) == pytest.approx(0.4)


def test_theta_depends_only_on_cyclic_word():
    model = TwoElementModel(0.3, 0.6, 0.25)
    a = model.theta(PeriodicPoint(Word((0, 0, 1))))
    b = model.theta(PeriodicPoint(Word((0, 1, 0))))
    c = model.theta(PeriodicPoint(Word((1, 0, 0))))
    assert a == pytest.approx(b) and b == pytest.approx(c)


def test_theta_ratio_sequence_is_constant(two_elt):
    x = PeriodicPoint(Word((0, 1)))
    theta = two_elt.theta(x)
    for _, ratio, _ in ratio_convergence(two_elt, x, 14):
        assert ratio == pytest.approx(theta, abs=1e-13)
    with pytest.raises(ValueError):
        ratio_convergence(two_elt, x, 3)


@pytest.mark.parametrize(
    "model, generator",
    [
        (TwoElementModel(0.3, 0.7, 0.5), (0, 1)),
        (TwoElementModel(0.2, 0.9, 0.35), (1, 1, 0)),
        (CountableModel(0.5, alphabet_cutoff=256), (3, 4)),
        (MarginalModel(CountableModel(0.3, alphabet_cutoff=64)), (5,)),
    ],
    ids=["two-element", "two-element-period-3", "countable", "marginal-countable"],
)
def test_ratio_convergence_rows_of_product_models_equal_theta(model, generator):
    x = PeriodicPoint(Word(generator))
    theta = model.theta(x)
    rows = ratio_convergence(model, x, 12)
    assert [n for n, _, _ in rows] == list(range(1, 13))
    for _, ratio, dev in rows:
        assert dev == abs(ratio - theta) <= 1e-13


def test_fiber_sampling_frequencies(two_elt):
    env = two_elt.draw_environment(20, 3)
    freq0 = _class_frequencies(two_elt, env, (0,), 20, 40_000, seed=0)[0]
    p0 = two_elt.symbol_weight_matrix(env, 0, 20, [0])[:, 0]
    band = 4 * np.sqrt(p0 * (1 - p0) / 40_000)
    assert np.all(np.abs(freq0 - p0) <= band + 1e-9)


def test_degenerate_weights_ignore_the_environment():
    flat = TwoElementModel(0.4, 0.4, 0.5)
    env_a = flat.draw_environment(16, 1)
    env_b = flat.draw_environment(16, 2)
    assert not np.array_equal(env_a.window, env_b.window)
    wa = flat.symbol_weight_matrix(env_a, 0, 16, [0, 1])
    wb = flat.symbol_weight_matrix(env_b, 0, 16, [0, 1])
    assert np.array_equal(wa, wb)
    law_a = monte_carlo_count_distribution(flat, env_a, "01", 14, trials=100, seed=3)
    law_b = monte_carlo_count_distribution(flat, env_b, "01", 14, trials=100, seed=3)
    assert (law_a.masses, law_a.tail_mass) == (law_b.masses, law_b.tail_mass)


def test_marginal_is_environment_average(two_elt):
    # one long window sliced into many independent environments
    n_envs, width = 20_000, 3
    env = two_elt.draw_environment(n_envs * width, 123)
    p0 = two_elt._weight_of_zero(env.window).reshape(n_envs, width)
    word = (0, 1, 0)
    masses = p0[:, 0] * (1 - p0[:, 1]) * p0[:, 2]
    want = two_elt.marginal_cylinder_mass(word)
    se = masses.std(ddof=1) / math.sqrt(n_envs)
    assert abs(masses.mean() - want) <= 4 * se


def test_check_psi_mixing_product_models(two_elt):
    env = two_elt.draw_environment(64, 5)
    report = check_psi_mixing(
        two_elt, k_list=[0, 1, 3], cylinder_pool=["0", "01", "110"], environment=env
    )
    assert report.max_marginal_deviation < 1e-12
    assert report.max_fiber_deviation < 1e-12
    assert report.pairs_checked == 27
    # the fiber pair sits past the offset, where the weights differ
    shifted = check_psi_mixing(
        two_elt, k_list=[0, 1, 3], cylinder_pool=["0", "01", "110"], environment=env, offset=5
    )
    assert shifted.max_fiber_deviation < 1e-12


def test_check_psi_mixing_countable(countable):
    env = countable.draw_environment(32, 6)
    report = check_psi_mixing(
        countable, k_list=[0, 2], cylinder_pool=[(3,), (4, 5)], environment=env
    )
    assert report.max_marginal_deviation < 1e-9
    assert report.max_fiber_deviation < 1e-9


# -- countable model ---------------------------------------------------------


def test_countable_weights_are_stochastic(countable):
    for u in (0.5, 0.62, 0.99):
        grid = np.arange(3, countable.alphabet_cutoff + 1)
        w = countable.symbol_weight_matrix(
            Environment(window=np.array([u])), 0, 1, grid
        )[0]
        truncated = float(w.sum())
        assert truncated < 1.0
        assert 1.0 - truncated <= countable.tail_mass_bound
    assert countable.marginal_symbol_weight(1) == 0.0
    assert countable.marginal_symbol_weight(2) == 0.0


def test_countable_marginal_weight_against_quadrature(countable):
    # independent oracle: adaptive quadrature instead of Gauss-Legendre
    for s in (3, 7, 50):
        val, err = integrate.quad(
            lambda u: countable.normalizer(u) / (s * math.log(s) ** (1 + u)),
            countable.epsilon,
            1.0,
        )
        val /= 1.0 - countable.epsilon
        assert countable.marginal_symbol_weight(s) == pytest.approx(val, abs=1e-10)


def test_countable_normalizer_against_slow_sum(countable):
    for s in (0.5, 0.8, 1.0):
        grid = np.arange(3, 500_001, dtype=float)
        partial = float(np.sum(1.0 / (grid * np.log(grid) ** (1.0 + s))))
        sandwich_lo = partial + math.log(500_001.0) ** (-s) / s
        sandwich_hi = partial + math.log(500_000.0) ** (-s) / s
        inv_g = 1.0 / countable.normalizer(s)
        assert sandwich_lo - 1e-12 <= inv_g <= sandwich_hi + 1e-12


def test_countable_marginal_sums_close_to_one(countable):
    head = sum(countable.marginal_symbol_weight(s) for s in range(3, 2049))
    assert head + countable.tail_mass_bound >= 1.0 - 1e-9
    assert head < 1.0


def test_countable_theta_and_ratios(countable):
    x = PeriodicPoint(Word((3, 4)))
    theta = countable.theta(x)
    assert theta == pytest.approx(
        countable.marginal_symbol_weight(3) * countable.marginal_symbol_weight(4)
    )
    for _, ratio, _ in ratio_convergence(countable, x, 10):
        assert ratio == pytest.approx(theta, abs=1e-9)
    with pytest.raises(ValueError):
        countable.theta(PeriodicPoint(Word((2,))))


def test_countable_environment_support(countable):
    env = countable.draw_environment(5_000, 17)
    assert env.window.min() >= countable.epsilon
    assert env.window.max() <= 1.0


def test_countable_sampling_leaves_the_tail_to_no_symbol(countable):
    env = countable.draw_environment(8, 2)
    # the cutoff symbol's interval ends at the truncated sum, short of 1: a
    # uniform past it draws no symbol of the alphabet
    _, hi = sampling._class_bounds(countable, env, [countable.alphabet_cutoff], 8)
    assert np.all(hi[0] < 1.0)
    assert np.all(1.0 - hi[0] <= countable.tail_mass_bound)
    freq3 = _class_frequencies(countable, env, (3,), 8, 5_000, seed=4)[0]
    w3 = countable.symbol_weight_matrix(env, 0, 8, [3])[:, 0]
    assert np.all(np.abs(freq3 - w3) <= 4 * np.sqrt(w3 * (1 - w3) / 5_000))


# -- marginal adapter ---------------------------------------------------------


def test_marginal_model_matches_marginal(two_elt):
    marg = MarginalModel(two_elt)
    env = marg.draw_environment(10, 0)
    assert marg.fiber_cylinder_mass(env, "01", 3) == pytest.approx(
        two_elt.marginal_cylinder_mass("01")
    )
    assert marg.theta(PeriodicPoint(Word((0,)))) == pytest.approx(0.5)


def test_marginal_model_sampling(two_elt):
    marg = MarginalModel(two_elt)
    env = marg.draw_environment(6, 0)
    freq0 = _class_frequencies(marg, env, (0,), 6, 50_000, seed=2).mean()
    assert abs(freq0 - 0.5) <= 4 * math.sqrt(0.25 / (50_000 * 6))


# -- countable normaliser in closed form ------------------------------------


def _summed_normalizer(u: float) -> float:
    """G(u) by its definition: the truncated series added term by term, plus
    the midpoint-rule remainder."""
    n_max = _NORMALIZER_TERMS
    terms = (1.0 / (n * math.log(n) ** (1.0 + u)) for n in range(3, n_max + 1))
    return 1.0 / (math.fsum(terms) + math.log(n_max + 0.5) ** (-u) / u)


def test_closed_form_normalizer_against_the_summed_definition():
    fixed = [np.finfo(float).eps, 1e-3, 0.5, 0.75, 0.999, 1.0]
    us = fixed + list(np.random.default_rng(11).uniform(0.0, 1.0, 20))
    for u, closed in zip(us, _normalizers(np.array(us))):
        want = _summed_normalizer(u)
        assert abs(closed - want) <= 4e-15 * want, u


def test_normalizer_refuses_u_outside_its_domain(countable):
    for u in (0.0, -0.5, float("nan")):
        with pytest.raises(ValueError, match="u > 0"):
            countable.normalizer(u)


def test_normalizer_entries_do_not_depend_on_the_array(countable):
    us = np.random.default_rng(12).uniform(countable.epsilon, 1.0, 257)
    whole = _normalizers(us)
    assert [countable.normalizer(u) for u in us] == whole.tolist()
    for size in (1, 2, 7, 64):
        pieces = [_normalizers(us[i : i + size]) for i in range(0, len(us), size)]
        assert np.array_equal(np.concatenate(pieces), whole)
    assert countable.normalizer(0.5) == _normalizers(np.array([0.5]))[0]


def test_countable_weight_matrix_against_per_coordinate_weights(countable):
    env = countable.draw_environment(40, 6)
    symbols = [1, 2, 3, 4, 17, 2048, 10**6]
    mat = countable.symbol_weight_matrix(env, 0, 40, symbols)
    for i, u in enumerate(env.window):
        g = countable.normalizer(u)
        for j, s in enumerate(symbols):
            want = g / (s * math.log(s) ** (1.0 + u)) if s >= 3 else 0.0
            assert mat[i, j] == pytest.approx(want, rel=1e-14, abs=0.0)


def test_vector_marginal_weights_are_the_scalar_ones(monkeypatch):
    model = CountableModel(0.5, alphabet_cutoff=2048)
    symbols = range(3, 2049)
    vector = model.marginal_symbol_weights(symbols)
    assert vector.tolist() == [model.marginal_symbol_weight(s) for s in symbols]
    assert model.marginal_symbol_weights([1, 2]).tolist() == [0.0, 0.0]
    # a symbol gets the same bits at any place of the array, in any slab, at
    # every repeat, and past the cutoff too
    by_symbol = dict(zip(symbols, vector.tolist()))
    by_symbol.update({1: 0.0, 2: 0.0, 4096: model.marginal_symbol_weight(4096),
                      10**6: model.marginal_symbol_weight(10**6)})
    mixed = np.random.default_rng(5).permutation(
        list(range(1, 2049)) + [4096, 10**6] * 3 + [100] * 5
    ).tolist()
    assert model.marginal_symbol_weights(mixed).tolist() == [by_symbol[s] for s in mixed]
    monkeypatch.setattr("reclab.models._SLAB_CELLS", 7 * 64)  # slabs of 7 symbols
    assert model.marginal_symbol_weights(mixed).tolist() == [by_symbol[s] for s in mixed]
    row = MarginalModel(model).symbol_weight_matrix(model.draw_environment(3, 0), 0, 3, symbols)
    assert np.array_equal(row, np.tile(vector, (3, 1)))


def test_marginal_cumulative_weights_are_the_tiled_cumsum(monkeypatch):
    # the class bounds are the cumulative weights Monte Carlo draws from
    base = CountableModel(0.5, alphabet_cutoff=256)
    model = MarginalModel(base)
    env = model.draw_environment(30, 0)
    symbols = list(model.alphabet)
    cum = np.cumsum(np.tile(base.marginal_symbol_weights(symbols), (30, 1)), axis=1)
    monkeypatch.setattr(sampling, "_SLAB_CELLS", 1000)  # slabs of 10, then 3, positions
    # a prefix of the alphabet, and the whole of it (the truncated tail keeps hi < 1)
    for distinct in ([3, 7, 100], [5, 256]):
        columns = [symbols.index(s) for s in distinct]
        lo, hi = sampling._class_bounds(model, env, distinct, 30)
        starts = np.column_stack([np.zeros(30), cum])[:, columns]
        assert np.array_equal(lo, starts.T)
        assert np.array_equal(hi, cum[:, columns].T)
    # the weights stay bound to the environment's window
    with pytest.raises(ValueError, match="window overflow"):
        sampling._class_bounds(model, env, [3], 31)

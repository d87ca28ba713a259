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
)
from reclab.models import _NORMALIZER_TERMS, SENTINEL_SYMBOL, _normalizers


@pytest.fixture(scope="module")
def two_elt():
    return TwoElementModel(0.3, 0.7, 0.5)


@pytest.fixture(scope="module")
def countable():
    return CountableModel(epsilon=0.5, alphabet_cutoff=2048)


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
    env = Environment(window=np.array([0, 1, 0, 0], dtype=np.int8), source_seed=0)
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
        two_elt.sample_words(env, 2, 4, 10, np.random.default_rng(0))


def test_marginal_weights(two_elt):
    assert two_elt.marginal_symbol_weight(0) == pytest.approx(0.5)
    assert two_elt.marginal_symbol_weight(1) == pytest.approx(0.5)
    assert two_elt.marginal_cylinder_mass("01") == pytest.approx(0.25)
    skew = TwoElementModel(0.3, 0.7, 0.2)
    assert skew.marginal_symbol_weight(0) == pytest.approx(0.3 * 0.2 + 0.7 * 0.8)
    # alpha = beta: marginal weight is alpha regardless of the driving coin
    flat = TwoElementModel(0.4, 0.4, 0.9)
    assert flat.marginal_symbol_weight(0) == pytest.approx(0.4)


def test_theta_closed_form(two_elt):
    assert two_elt.theta_closed_form(PeriodicPoint(Word((0,)))) == pytest.approx(0.5)
    assert two_elt.theta_closed_form(PeriodicPoint(Word((0, 1)))) == pytest.approx(0.25)
    sym = TwoElementModel(0.5, 0.5, 0.3)
    assert sym.theta_closed_form(PeriodicPoint(Word((0, 1, 0, 0, 1)))) == pytest.approx(
        0.5**5
    )
    flat = TwoElementModel(0.4, 0.4, 0.9)
    assert flat.theta_closed_form(PeriodicPoint(Word((0,)))) == pytest.approx(0.4)


def test_theta_depends_only_on_cyclic_word():
    model = TwoElementModel(0.3, 0.6, 0.25)
    a = model.theta_closed_form(PeriodicPoint(Word((0, 0, 1))))
    b = model.theta_closed_form(PeriodicPoint(Word((0, 1, 0))))
    c = model.theta_closed_form(PeriodicPoint(Word((1, 0, 0))))
    assert a == pytest.approx(b) and b == pytest.approx(c)


def test_theta_ratio_sequence_is_constant(two_elt):
    x = PeriodicPoint(Word((0, 1)))
    theta = two_elt.theta_closed_form(x)
    for ratio in two_elt.theta_ratio_sequence(x, [2, 3, 5, 9, 14]):
        assert ratio == pytest.approx(theta, abs=1e-13)
    with pytest.raises(ValueError):
        two_elt.theta_ratio_sequence(x, [4, 4])


def test_fiber_sampling_frequencies(two_elt):
    env = two_elt.draw_environment(20, 3)
    rng = np.random.default_rng(0)
    words = two_elt.sample_words(env, 0, 20, 40_000, rng)
    p0 = two_elt.symbol_weight_matrix(env, 0, 20, [0])[:, 0]
    freq0 = (words == 0).mean(axis=0)
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
    words_a = flat.sample_words(env_a, 0, 16, 100, np.random.default_rng(3))
    words_b = flat.sample_words(env_b, 0, 16, 100, np.random.default_rng(3))
    assert np.array_equal(words_a, words_b)


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


def test_condition_iv_witness(two_elt, countable):
    profile = two_elt.mixing_profile()
    assert profile.eta1 < 1.0
    assert profile.eta1 >= max(0.3, 0.7, 1 - 0.3, 1 - 0.7)
    assert 0.0 < profile.eta0 <= min(0.3, 0.7, 1 - 0.3, 1 - 0.7)
    assert all(v == 0.0 for v in profile.psi)
    # the mean-convergence results need psi(k) k^q -> 0 for some q above
    # 2 log(eta1) / log(eta0); psi is 0 here, so every q will do
    threshold = 2.0 * math.log(profile.eta1) / math.log(profile.eta0)
    assert threshold == pytest.approx(2 * math.log(0.7) / math.log(0.3))
    cprofile = countable.mixing_profile()
    assert cprofile.eta1 < 1.0
    assert cprofile.eta0 is None  # no threshold without a cylinder-mass lower bound


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
            Environment(window=np.array([u]), source_seed=0), 0, 1, grid
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
    theta = countable.theta_closed_form(x)
    assert theta == pytest.approx(
        countable.marginal_symbol_weight(3) * countable.marginal_symbol_weight(4)
    )
    for ratio in countable.theta_ratio_sequence(x, [4, 6, 10]):
        assert ratio == pytest.approx(theta, abs=1e-9)
    with pytest.raises(ValueError):
        countable.theta_closed_form(PeriodicPoint(Word((2,))))


def test_countable_environment_support(countable):
    env = countable.draw_environment(5_000, 17)
    assert env.window.min() >= countable.epsilon
    assert env.window.max() <= 1.0


def test_countable_sampling_and_sentinel(countable):
    env = countable.draw_environment(8, 2)
    rng = np.random.default_rng(4)
    words = countable.sample_words(env, 0, 8, 5_000, rng)
    valid = (words >= 3) & (words <= countable.alphabet_cutoff)
    sentinel = words == SENTINEL_SYMBOL
    assert np.all(valid | sentinel)
    assert sentinel.mean() > 0.0  # heavy tail: the sentinel does appear
    w3 = countable.symbol_weight_matrix(env, 0, 8, [3])[:, 0]
    freq3 = (words == 3).mean(axis=0)
    assert np.all(np.abs(freq3 - w3) <= 4 * np.sqrt(w3 * (1 - w3) / 5_000))


def test_environment_csv_export(tmp_path, two_elt):
    env = two_elt.draw_environment(4, 21)
    path = tmp_path / "env.csv"
    env.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,coordinate"
    assert len(lines) == 5


# -- marginal adapter ---------------------------------------------------------


def test_marginal_model_matches_marginal(two_elt):
    marg = MarginalModel(two_elt)
    env = marg.draw_environment(10, 0)
    assert marg.fiber_cylinder_mass(env, "01", 3) == pytest.approx(
        two_elt.marginal_cylinder_mass("01")
    )
    assert marg.theta_closed_form(PeriodicPoint(Word((0,)))) == pytest.approx(0.5)


def test_marginal_model_sampling(two_elt):
    marg = MarginalModel(two_elt)
    env = marg.draw_environment(6, 0)
    words = marg.sample_words(env, 0, 6, 50_000, np.random.default_rng(2))
    freq0 = (words == 0).mean()
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


def test_vector_marginal_weights_are_the_scalar_ones():
    symbols = range(3, 2049)
    vector = CountableModel(0.5, alphabet_cutoff=2048).marginal_symbol_weights(symbols)
    cold = CountableModel(0.5, alphabet_cutoff=2048)
    assert vector.tolist() == [cold.marginal_symbol_weight(s) for s in symbols]
    # past the cutoff the weights are computed afresh, with the same bits
    small = CountableModel(0.5, alphabet_cutoff=64)
    large = CountableModel(0.5, alphabet_cutoff=4096)
    past = small.marginal_symbol_weights([1, 2, 100, 3, 4096, 100])
    want = [large.marginal_symbol_weight(s) for s in (100, 3, 4096, 100)]
    assert past.tolist() == [0.0, 0.0] + want
    row = MarginalModel(cold).symbol_weight_matrix(cold.draw_environment(3, 0), 0, 3, symbols)
    assert np.array_equal(row, np.tile(vector, (3, 1)))


def test_marginal_cumulative_weights_are_the_tiled_cumsum():
    from reclab.models import _cumulative_weights

    base = CountableModel(0.5, alphabet_cutoff=256)
    model = MarginalModel(base)
    env = model.draw_environment(40, 0)
    symbols = model.alphabet
    tiled = np.tile(base.marginal_symbol_weights(symbols), (30, 1))
    slabs = list(_cumulative_weights(model, env, 3, 30, symbols, cells=1000))
    assert [i for i, _ in slabs] == list(range(0, 30, 1000 // len(symbols)))
    cum = np.concatenate([c for _, c in slabs])
    assert cum.shape == (30, len(symbols) + 1)
    assert (cum[:, 0] == 0.0).all()
    assert np.array_equal(cum[:, 1:], np.cumsum(tiled, axis=1))
    # the weights stay bound to the environment's window
    with pytest.raises(ValueError, match="window overflow"):
        model.symbol_weight_matrix(env, 30, 11, symbols)
    with pytest.raises(ValueError, match="window overflow"):
        list(_cumulative_weights(model, env, 30, 11, symbols, cells=1000))

import math

import numpy as np
import pytest

from reclab import (
    GibbsSystem,
    PeriodicPoint,
    Potential,
    TransitionMatrix,
    Word,
    bernoulli_potential,
    build_transfer_matrix,
    check_psi_mixing,
    fit_decay_factor,
    normalize_potential,
    perron_eigendata,
)

PHI = (1.0 + math.sqrt(5.0)) / 2.0


@pytest.fixture(scope="module")
def golden():
    return TransitionMatrix([[1, 1], [1, 0]])


@pytest.fixture(scope="module")
def golden_system(golden):
    return GibbsSystem(golden, Potential.constant(0.0, golden, depth=2))


@pytest.fixture(scope="module")
def coin_system():
    return GibbsSystem(TransitionMatrix.full(2), bernoulli_potential([0.3, 0.7], depth=2))


def test_depth_one_normalized_coin():
    full = TransitionMatrix.full(2)
    op = build_transfer_matrix(Potential.constant(math.log(0.5), full, depth=1), full)
    assert op.matrix.shape == (1, 1)
    assert op.matrix[0, 0] == pytest.approx(1.0)


def test_bernoulli_depth_two_eigendata(coin_system):
    assert coin_system.perron.lam == pytest.approx(1.0, abs=1e-12)
    # conformal weights are the stationary one-symbol masses
    assert coin_system.perron.nu == pytest.approx(np.array([0.3, 0.7]), abs=1e-12)
    assert coin_system.perron.h == pytest.approx(np.array([1.0, 1.0]), abs=1e-10)


def test_golden_mean_eigenvalue(golden_system):
    assert golden_system.perron.lam == pytest.approx(PHI, abs=1e-10)


def test_perron_on_plain_matrices():
    data = perron_eigendata(np.array([[1.0, 1.0], [1.0, 0.0]]))
    assert data.lam == pytest.approx(PHI, abs=1e-12)
    assert data.residual <= 1e-10
    assert perron_eigendata(np.array([[2.5]])).lam == pytest.approx(2.5)
    doubly = perron_eigendata(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert doubly.lam == pytest.approx(1.0)
    assert doubly.h == pytest.approx(np.array([1.0, 1.0]))


def test_perron_rejects_bad_matrices():
    with pytest.raises(ValueError):
        perron_eigendata(np.array([[1.0, -0.1], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        perron_eigendata(np.eye(2))  # reducible
    with pytest.raises(ValueError):
        perron_eigendata(np.array([[0.0, 1.0], [1.0, 0.0]]))  # periodic


def test_power_iteration_path():
    rng = np.random.default_rng(0)
    mat = rng.random((80, 80)) + 0.01
    data = perron_eigendata(mat)
    dense = np.linalg.eigvals(mat)
    assert data.lam == pytest.approx(float(np.max(dense.real)), rel=1e-9)
    assert data.residual <= 1e-10


def test_build_rejects_non_mixing():
    with pytest.raises(ValueError):
        build_transfer_matrix(
            Potential.constant(0.0, TransitionMatrix([[0, 1], [1, 0]]), depth=2),
            TransitionMatrix([[0, 1], [1, 0]]),
        )


def test_potential_domain_validation(golden):
    with pytest.raises(ValueError):
        # "11" is not admissible but appears; "10" is missing
        build_transfer_matrix(
            Potential(2, {(0, 0): 0.0, (0, 1): 0.0, (1, 1): 0.0}), golden
        )


def test_normalize_is_idempotent_on_normalized(coin_system):
    norm2 = normalize_potential(
        coin_system.normalized,
        coin_system.transitions,
        perron_eigendata(build_transfer_matrix(coin_system.normalized, coin_system.transitions)),
    )
    for word, value in coin_system.normalized.values.items():
        assert norm2.values[word] == pytest.approx(value, abs=1e-12)


def test_normalized_golden_mean_has_zero_pressure(golden, golden_system):
    op = build_transfer_matrix(golden_system.normalized, golden)
    assert np.max(np.abs(op.matrix.sum(axis=0) - 1.0)) < 1e-10
    assert math.log(perron_eigendata(op).lam) == pytest.approx(0.0, abs=1e-10)


def test_cylinder_masses_product_case(coin_system):
    assert coin_system.cylinder_mass("01") == pytest.approx(0.21, abs=1e-12)
    assert coin_system.cylinder_mass("0101") == pytest.approx(0.0441, abs=1e-12)
    uniform = GibbsSystem(TransitionMatrix.full(2), bernoulli_potential([0.5, 0.5]))
    for word in ("0", "01", "110", "0110"):
        assert uniform.cylinder_mass(word) == pytest.approx(
            0.5 ** len(word.replace(",", "")), abs=1e-13
        )


def test_cylinder_masses_golden_mean(golden_system):
    assert golden_system.cylinder_mass("11") == 0.0
    # Parry values: state masses (phi^2, 1)/(phi^2 + 1)
    assert golden_system.cylinder_mass("0") == pytest.approx(
        (5 + math.sqrt(5)) / 10, abs=1e-10
    )
    assert golden_system.cylinder_mass("1") == pytest.approx(
        (5 - math.sqrt(5)) / 10, abs=1e-10
    )


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_kolmogorov_consistency(depth, golden):
    rng = np.random.default_rng(depth)
    words = golden.admissible_tuples(depth)
    potential = Potential(depth, {w: float(rng.normal(scale=0.4)) for w in words})
    system = GibbsSystem(golden, potential)
    for m in range(1, 4):
        for w in golden.admissible_tuples(m):
            left = sum(system.cylinder_mass((a,) + w) for a in range(2))
            right = sum(system.cylinder_mass(w + (a,)) for a in range(2))
            mass = system.cylinder_mass(w)
            assert left == pytest.approx(mass, abs=1e-12)
            assert right == pytest.approx(mass, abs=1e-12)
    total = sum(system.cylinder_mass(w) for w in golden.admissible_tuples(4))
    assert total == pytest.approx(1.0, abs=1e-10)


def test_theta_values(coin_system, golden_system):
    assert coin_system.theta(PeriodicPoint(Word((0,)))) == pytest.approx(0.3, abs=1e-12)
    uniform = GibbsSystem(TransitionMatrix.full(2), bernoulli_potential([0.5, 0.5]))
    for gen in ((0,), (0, 1), (0, 0, 1)):
        x = PeriodicPoint(Word(gen))
        assert uniform.theta(x) == pytest.approx(0.5 ** x.period, abs=1e-12)
    assert golden_system.theta(PeriodicPoint(Word((0,)))) == pytest.approx(
        1.0 / PHI, abs=1e-12
    )
    with pytest.raises(ValueError):
        golden_system.theta(PeriodicPoint(Word((1,))))


def test_theta_matches_ratio_limit(golden):
    rng = np.random.default_rng(3)
    for depth in (1, 2, 3):
        words = golden.admissible_tuples(depth)
        system = GibbsSystem(
            golden, Potential(depth, {w: float(rng.normal(scale=0.3)) for w in words})
        )
        for gen in ((0,), (0, 1)):
            x = PeriodicPoint(Word(gen))
            rows = system.ratio_convergence(x, 12)
            n, ratio, dev = rows[-1]
            assert ratio == pytest.approx(system.theta(x), abs=1e-8)
            assert dev < 1e-8


def test_ratio_deviations_vanish_beyond_memory(coin_system, golden_system):
    rows = coin_system.ratio_convergence(PeriodicPoint(Word((0,))), 10)
    assert all(dev < 1e-14 for _, _, dev in rows)
    rows = golden_system.ratio_convergence(PeriodicPoint(Word((0,))), 10)
    assert all(dev < 1e-14 for _, _, dev in rows)
    with pytest.raises(ValueError):
        coin_system.ratio_convergence(PeriodicPoint(Word((0, 1))), 3)


def test_fit_decay_factor():
    assert fit_decay_factor([0.0, 0.0, 0.0]) == 0.0
    assert fit_decay_factor([1e-3]) == 0.0
    geometric = [0.5**n for n in range(1, 12)]
    assert fit_decay_factor(geometric) == pytest.approx(0.5, rel=1e-6)
    assert fit_decay_factor([0.1, 0.1, 0.1, 0.1]) == pytest.approx(1.0, abs=1e-9)


def test_chain_sampling_matches_masses(golden_system):
    rng = np.random.default_rng(12)
    words = golden_system.sample_words(None, 0, 6, 40_000, rng)
    # empirical 2-cylinder frequencies at a middle position
    for pair in ((0, 0), (0, 1), (1, 0), (1, 1)):
        freq = float(np.mean((words[:, 2] == pair[0]) & (words[:, 3] == pair[1])))
        mass = golden_system.cylinder_mass(pair)
        assert abs(freq - mass) <= 4 * math.sqrt(max(mass * (1 - mass), 1e-9) / 40_000)


def test_depth_three_system_on_full_shift():
    full = TransitionMatrix.full(2)
    rng = np.random.default_rng(5)
    words = full.admissible_tuples(3)
    system = GibbsSystem(full, Potential(3, {w: float(rng.normal(scale=0.5)) for w in words}))
    total = sum(system.cylinder_mass(w) for w in full.admissible_tuples(5))
    assert total == pytest.approx(1.0, abs=1e-10)
    # short words shorter than the chain memory
    assert system.cylinder_mass("0") + system.cylinder_mass("1") == pytest.approx(
        1.0, abs=1e-12
    )


def _brute_deviation(system, pool, k):
    """Largest relative deviation of the joint mass, summed over every gap
    word, from the product of the two cylinder masses."""
    from itertools import product

    worst = 0.0
    for a in pool:
        for b in pool:
            joint = math.fsum(
                system.cylinder_mass(a + gap + b) for gap in product((0, 1), repeat=k)
            )
            ma, mb = system.cylinder_mass(a), system.cylinder_mass(b)
            worst = max(worst, abs(joint - ma * mb) / (ma * mb))
    return worst


def test_psi_mixing_of_a_markov_chain_past_the_gap_expansion(golden_system):
    # the gap is a run of free steps of the chain, never a product of
    # one-symbol weights; the brute force sums 2**13 gap words
    pool = [(0,), (0, 1)]
    env = golden_system.draw_environment(64, 0)
    deviations = {}
    for k in (12, 13, 20):
        report = check_psi_mixing(golden_system, [k], pool, environment=env)
        assert report.max_fiber_deviation == pytest.approx(report.max_marginal_deviation)
        deviations[k] = report.max_marginal_deviation
    assert deviations[13] == pytest.approx(_brute_deviation(golden_system, pool, 13), rel=1e-6)
    assert deviations[20] < deviations[13] < deviations[12] < 1e-5


def test_periodic_pattern_is_refused_at_both_primitivity_checks():
    with pytest.raises(ValueError, match="not primitive"):
        perron_eigendata([[0, 1], [1, 0]])
    flip = TransitionMatrix([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="not topologically mixing"):
        build_transfer_matrix(Potential.constant(0.0, flip, depth=2), flip)

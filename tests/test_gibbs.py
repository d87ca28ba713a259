import math
from pathlib import Path

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
from reclab.models import ratio_convergence

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
    mat = build_transfer_matrix(Potential.constant(math.log(0.5), full, depth=1), full)
    assert mat.shape == (1, 1)
    assert mat[0, 0] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "size, potential",
    [
        (2, bernoulli_potential([0.3, 0.7])),
        (3, bernoulli_potential([0.2, 0.3, 0.5])),
        (3, Potential(1, {(0,): 0.3, (1,): -1.2, (2,): 0.5})),
        (4, Potential(1, {(0,): 0.0, (1,): 1.0, (2,): -0.4, (3,): 2.5})),
    ],
)
def test_depth_one_chain_tables_are_the_symbol_masses(size, potential):
    system = GibbsSystem(TransitionMatrix.full(size), potential)
    assert system.states == ((),)
    assert system.state_masses.tolist() == [1.0]
    init, nxt, prob = system.chain_tables()
    assert init.tolist() == [1.0]
    assert nxt.tolist() == [[0] * size]
    assert prob[0].tolist() == [system.cylinder_mass((a,)) for a in range(size)]


def test_chain_tables_are_built_once_per_system(coin_system):
    tables = coin_system.chain_tables()
    coin_system.dp_tables(None, (0, 1), 8, 0)
    assert coin_system.chain_tables() is tables
    assert not any(table.flags.writeable for table in tables)


def test_bernoulli_depth_two_eigendata(coin_system):
    # the Perron data is that of exp(value - log 0.7), the largest value
    # subtracted: weights 3/7 and 1 in place of 0.3 and 0.7, so lam = 1 / 0.7
    assert coin_system.perron.lam == pytest.approx(1.0 / 0.7, abs=1e-12)
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


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_perron_rejects_bad_matrices():
    with pytest.raises(ValueError):
        perron_eigendata(np.array([[1.0, -0.1], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        perron_eigendata(np.eye(2))  # reducible
    with pytest.raises(ValueError):
        perron_eigendata(np.array([[0.0, 1.0], [1.0, 0.0]]))  # periodic
    # lam overflows to inf and the residual is NaN, which must not pass the check
    with pytest.raises(ValueError, match="did not reach the required residual: nan"):
        perron_eigendata(np.array([[1e308, 1e308], [1e308, 0.0]]))


def _eig_oracle(mat):
    """(lam, h, nu) of a positive matrix from LAPACK, normalised as
    ``perron_eigendata`` normalises them: sum(nu) = 1 and nu . h = 1."""
    values, right = np.linalg.eig(mat)
    lam = float(values.real.max())
    nu = np.abs(right[:, np.argmax(values.real)].real)
    values, left = np.linalg.eig(mat.T)
    h = np.abs(left[:, np.argmax(values.real)].real)
    nu = nu / nu.sum()
    return lam, h / float(nu @ h), nu


def _wielandt(k):
    """The primitive k x k 0/1 matrix of largest primitivity exponent, (k - 1)**2 + 1."""
    mat = np.zeros((k, k))
    mat[np.arange(k - 1), np.arange(1, k)] = 1.0
    mat[k - 1, :2] = 1.0
    return mat


def _two_state(eps):
    return np.array([[1.0 - eps, eps], [eps, 1.0 - eps]])


SQUARING_CASES = {
    **{f"random-{k}": np.random.default_rng(0).random((k, k)) + 0.01 for k in (1, 2, 5, 80, 128)},
    "golden-mean": np.array([[1.0, 1.0], [1.0, 0.0]]),
    **{f"wielandt-{k}": _wielandt(k) for k in (3, 6, 10)},
    **{f"two-state-{eps:g}": _two_state(eps) for eps in (1e-3, 1e-9, 1e-12)},
}


@pytest.mark.parametrize("name", sorted(SQUARING_CASES))
def test_squaring_matches_the_dense_eigensolver(name):
    mat = SQUARING_CASES[name]
    data = perron_eigendata(mat)
    lam, h, nu = _eig_oracle(mat)
    assert data.lam == pytest.approx(lam, rel=1e-12)
    assert data.h == pytest.approx(h, rel=1e-10, abs=1e-10 * h.max())
    assert data.nu == pytest.approx(nu, rel=1e-10, abs=1e-10 * nu.max())
    assert (data.h > 0).all() and (data.nu > 0).all()
    assert data.residual <= 1e-10


def test_squaring_keeps_eigenvectors_scaled_far_apart():
    # D M D^-1 has M's eigenvalue and the eigenvectors D nu, h D^-1, which
    # span e^-300 to 1; scaled by its largest entry, its weights go down to
    # e^-600 (a potential plus a coboundary of size 300)
    mat = SQUARING_CASES["random-5"]
    scale = np.exp(-300.0 * np.linspace(0.0, 1.0, len(mat)))
    spread = scale[:, None] * mat / scale[None, :]
    top = spread.max()
    spread = spread / top
    assert spread.min() < math.exp(-590)
    lam, h, nu = _eig_oracle(mat)
    nu = scale * nu / float((scale * nu).sum())
    h = h / scale / float(nu @ (h / scale))
    data = perron_eigendata(spread)
    assert data.lam == pytest.approx(lam / top, rel=1e-12)
    # entry by entry: the smallest entries are as exact as the largest
    assert data.nu == pytest.approx(nu, rel=1e-10)
    assert data.h == pytest.approx(h, rel=1e-10)
    assert data.residual <= 1e-10


def test_squaring_refuses_a_matrix_too_close_to_reducible():
    # 1 - 1e-30 rounds to 1: the off-diagonal mass only doubles with each
    # square, and would need about 100 squarings to settle
    with pytest.raises(ValueError, match="did not settle within 64 squarings"):
        perron_eigendata(_two_state(1e-30))


def test_bench_builds_and_converge_runs_call_no_dense_linear_algebra(monkeypatch, tmp_path):
    # Perron data by squaring, the countable Gauss-Legendre rule by Newton's
    # method: neither bench config's converge run calls numpy.linalg
    from reclab import cli

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg ran on a converge path")

    for name in ("eig", "eigvals", "eigh", "eigvalsh", "solve", "lstsq", "svd", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    golden = TransitionMatrix([[1, 1], [1, 0]])
    system = GibbsSystem(golden, Potential.constant(0.0, golden, depth=2))
    assert system.perron.lam == pytest.approx(PHI, abs=1e-12)
    configs = Path(__file__).resolve().parents[1] / "bench" / "configs"
    for name in ("gibbs_markov", "countable_mc"):
        out = tmp_path / name
        assert cli.main(["converge", "--config", str(configs / f"{name}.json"),
                         "--out", str(out)]) == 0


def test_a_128_state_system_is_the_product_measure():
    system = GibbsSystem(TransitionMatrix.full(2), bernoulli_potential([0.3, 0.7], depth=8))
    assert len(system.states) == 128
    assert system.perron.lam == pytest.approx(1.0 / 0.7, abs=1e-12)  # lam * exp(-log 0.7)
    for word in [(0,), (1, 0, 1), (0, 0, 1, 1, 1, 0, 1), (1,) * 8, (0, 1) * 6]:
        product = math.prod(0.7 if a else 0.3 for a in word)
        assert system.cylinder_mass(word) == pytest.approx(product, rel=1e-12)


@pytest.mark.parametrize("value", [1000.0, -746.0, math.inf, -math.inf, math.nan])
def test_build_refuses_weights_that_are_not_positive_finite_floats(golden, value):
    with pytest.raises(ValueError, match=r"at word \(0, 0\) has weight exp\(value\)"):
        build_transfer_matrix(Potential.constant(value, golden, depth=2), golden)


def test_shifted_potentials_build_the_same_system(golden, golden_system):
    # the largest value is subtracted before exponentiating: every constant
    # builds the system of constant 0, bit for bit, where exp(value) alone
    # would overflow (709, 1000), vanish (-746) or lose digits (300)
    point = PeriodicPoint(Word((0, 1)))
    for constant in (300.0, 709.0, 1000.0, -744.0, -746.0):
        system = GibbsSystem(golden, Potential.constant(constant, golden, depth=2))
        assert system.perron.lam == golden_system.perron.lam
        assert system.theta(point) == golden_system.theta(point)
        assert system.normalized.values == golden_system.normalized.values
        assert system.state_masses.tolist() == golden_system.state_masses.tolist()
        assert system.potential.values[(0, 0)] == constant
    # a non-constant shift leaves the normalised potential, up to rounding
    values = {(0, 0): 0.1, (0, 1): -0.4, (1, 0): 0.25}
    base = GibbsSystem(golden, Potential(2, values))
    for shift in (0.7, 720.0, -760.0):
        moved = GibbsSystem(golden, Potential(2, {w: v + shift for w, v in values.items()}))
        assert moved.theta(point) == pytest.approx(base.theta(point), rel=1e-13)
        for word in ["0", "01", "0010", "10100"]:
            assert moved.cylinder_mass(word) == pytest.approx(base.cylinder_mass(word), rel=1e-13)


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
        perron_eigendata(build_transfer_matrix(coin_system.normalized, coin_system.transitions)),
    )
    for word, value in coin_system.normalized.values.items():
        assert norm2.values[word] == pytest.approx(value, abs=1e-12)


def test_normalized_golden_mean_has_zero_pressure(golden, golden_system):
    mat = build_transfer_matrix(golden_system.normalized, golden)
    assert np.max(np.abs(mat.sum(axis=0) - 1.0)) < 1e-10
    assert math.log(perron_eigendata(mat).lam) == pytest.approx(0.0, abs=1e-10)


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
            rows = ratio_convergence(system, x, 12)
            n, ratio, dev = rows[-1]
            assert ratio == pytest.approx(system.theta(x), abs=1e-8)
            assert dev < 1e-8


def test_ratio_deviations_vanish_beyond_memory(coin_system, golden_system):
    rows = ratio_convergence(coin_system, PeriodicPoint(Word((0,))), 10)
    assert all(dev < 1e-14 for _, _, dev in rows)
    rows = ratio_convergence(golden_system, PeriodicPoint(Word((0,))), 10)
    assert all(dev < 1e-14 for _, _, dev in rows)
    with pytest.raises(ValueError):
        ratio_convergence(coin_system, PeriodicPoint(Word((0, 1))), 3)


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

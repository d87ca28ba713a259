"""Joint cylinder masses across a gap against a brute-force gap expansion.

``check_psi_mixing`` takes the mass of {A at offset, B at offset+|A|+k}
from one forward pass over the model's ``dp_tables`` (``_pattern_mass``).
The oracle here sums the masses of the full cylinders A.g.B over every gap
word g instead; it reads no DP table.  On a truncated countable alphabet
the gap symbols are the alphabet plus ``PAST``, which stands for every
symbol past the cutoff and weighs what the alphabet leaves of 1.
"""

import itertools
import math

import numpy as np
import pytest

from reclab import (
    CountableModel,
    GibbsSystem,
    MarginalModel,
    Potential,
    TransitionMatrix,
    TwoElementModel,
)
from reclab.models import _pattern_mass

PAST = "past the cutoff"
POOL = [(0,), (0, 1), (1, 1, 0)]


def _gap_expansion(mass, symbols, a, b, k):
    """Sum of ``mass`` over the full cylinders A.g.B, g over all of symbols^k."""
    return math.fsum(mass(a + gap + b) for gap in itertools.product(symbols, repeat=k))


def _product_mass(model, env, offset):
    """Mass of a word at ``offset`` under a product measure: the product of
    its symbols' weights there, PAST weighing 1 minus the alphabet's."""

    def mass(word):
        weights = model.symbol_weight_matrix(env, offset, len(word), model.alphabet)
        return math.prod(
            1.0 - row.sum() if s == PAST else row[model.alphabet.index(s)]
            for row, s in zip(weights, word)
        )

    return mass


def _assert_joint_masses(model, env, mass, symbols, pool, gaps, offset=0):
    for a, b in itertools.product(pool, repeat=2):
        for k in gaps:
            joint = _pattern_mass(model, env, (None,) * offset + a + (None,) * k + b)
            assert joint == pytest.approx(
                _gap_expansion(mass, symbols, a, b, k), rel=1e-12, abs=1e-15
            )


@pytest.mark.parametrize("marginal", [False, True], ids=["fiber", "marginal"])
def test_two_element_joint_mass_at_an_offset(marginal):
    base = TwoElementModel(0.3, 0.7, 0.5)
    model = MarginalModel(base) if marginal else base
    env = base.draw_environment(24, 5)
    offset = 3
    _assert_joint_masses(
        model, env, _product_mass(model, env, offset), (0, 1), POOL, range(5), offset
    )


@pytest.mark.parametrize("marginal", [False, True], ids=["fiber", "marginal"])
def test_countable_joint_mass(marginal):
    base = CountableModel(0.5, alphabet_cutoff=8)
    model = MarginalModel(base) if marginal else base
    env = base.draw_environment(16, 6)
    offset = 2
    symbols = tuple(base.alphabet) + (PAST,)
    pool = [(3,), (4, 3), (8,)]
    _assert_joint_masses(
        model, env, _product_mass(model, env, offset), symbols, pool, range(4), offset
    )


def test_golden_mean_joint_mass_across_long_gaps():
    golden = TransitionMatrix([[1, 1], [1, 0]])
    system = GibbsSystem(golden, Potential.constant(0.0, golden, depth=2))
    env = system.draw_environment(16, 0)
    _assert_joint_masses(system, env, system.cylinder_mass, (0, 1), [(0,), (0, 1)], (12, 13))


def test_chain_joint_mass_equals_the_gap_expansion():
    # depth 4 on the full 2-shift: three head symbols, so the patterns below
    # include ones shorter than the start state
    full = TransitionMatrix.full(2)
    rng = np.random.default_rng(11)
    words = full.admissible_tuples(4)
    system = GibbsSystem(full, Potential(4, dict(zip(words, rng.normal(size=len(words))))))
    env = system.draw_environment(16, 0)
    pool = [(0,), (1, 1), (1, 0, 1, 1)]
    _assert_joint_masses(system, env, system.cylinder_mass, (0, 1), pool, range(5))

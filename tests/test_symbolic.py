import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reclab import (
    PeriodicPoint,
    TransitionMatrix,
    Word,
    as_word,
    minimal_period,
    self_overlaps,
)


def test_word_parse_forms():
    assert Word.parse("0,1,2").symbols == (0, 1, 2)
    assert Word.parse("0101").symbols == (0, 1, 0, 1)  # compact binary
    assert Word.parse("7").symbols == (7,)
    assert as_word([3, 4]).symbols == (3, 4)
    assert as_word("10,2").symbols == (10, 2)
    with pytest.raises(ValueError):
        Word(())
    with pytest.raises(ValueError):
        Word((0, -3))


def test_word_round_trip():
    w = Word((0, 12, 5))
    assert Word.parse(w.to_text()) == w


def test_minimal_period_examples():
    assert minimal_period("000") == 1
    assert minimal_period("0101") == 2
    assert minimal_period("011") == 3
    assert minimal_period("00100") == 3  # weak period, need not divide length


def test_self_overlaps_examples():
    assert self_overlaps((7, 7, 7, 7)) == {1, 2, 3}
    assert self_overlaps("0,1") == set()
    assert self_overlaps("01010") == {2, 4}
    assert self_overlaps("0010") == {3}


def test_periodic_point_minimality():
    x = PeriodicPoint(Word((0, 0, 1, 0, 0)))
    assert x.period == 5
    with pytest.raises(ValueError):
        PeriodicPoint(Word((0, 1, 0, 1)))
    with pytest.raises(ValueError):
        PeriodicPoint(Word((2, 2)))


def test_cylinder_at():
    assert PeriodicPoint(Word((0,))).prefix(3).symbols == (0, 0, 0)
    assert PeriodicPoint(Word((0, 1))).prefix(5).symbols == (0, 1, 0, 1, 0)
    assert PeriodicPoint(Word((0, 1, 2))).prefix(4).symbols == (0, 1, 2, 0)
    with pytest.raises(ValueError):
        PeriodicPoint(Word((0, 1))).prefix(0)


def _random_periodic_point(rng, max_period=5, alphabet=3):
    while True:
        m = int(rng.integers(1, max_period + 1))
        gen = tuple(int(s) for s in rng.integers(0, alphabet, size=m))
        try:
            return PeriodicPoint(Word(gen))
        except ValueError:
            continue


def test_overlap_multiples_structure():
    # every self-overlap of A_n(x) short of n - m is a multiple of m
    rng = np.random.default_rng(8)
    for _ in range(300):
        x = _random_periodic_point(rng)
        m = x.period
        n = int(rng.integers(2 * m, 12 * m + 1))
        word = x.prefix(n)
        for ell in self_overlaps(word):
            if ell <= n - m:
                assert ell % m == 0, (x.generator.symbols, n, ell)


def test_minimal_period_of_deep_cylinders():
    rng = np.random.default_rng(9)
    for _ in range(100):
        x = _random_periodic_point(rng)
        m = x.period
        for k in (2, 3, 5):
            assert minimal_period(x.prefix(k * m)) == m


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=30))
def test_minimal_period_is_a_period(symbols):
    w = Word(tuple(symbols))
    d = minimal_period(w)
    assert 1 <= d <= len(w)
    assert all(w[i] == w[i + d] for i in range(len(w) - d))
    # nothing smaller is a period
    for e in range(1, d):
        assert any(w[i] != w[i + e] for i in range(len(w) - e))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=2), min_size=2, max_size=25))
def test_overlaps_match_definition(symbols):
    w = tuple(symbols)
    got = self_overlaps(w)
    want = {
        ell
        for ell in range(1, len(w))
        if w[ell:] == w[: len(w) - ell]
    }
    assert got == want


def test_transition_matrix_basics():
    golden = TransitionMatrix([[1, 1], [1, 0]])
    assert golden.matrix[0, 1] == 1 and golden.matrix[1, 1] == 0
    assert golden.is_topologically_mixing()
    assert not TransitionMatrix([[1, 0], [0, 1]]).is_topologically_mixing()
    # period-2 cycle: irreducible but not mixing
    assert not TransitionMatrix([[0, 1], [1, 0]]).is_topologically_mixing()
    assert golden.word_is_admissible("0101")
    assert not golden.word_is_admissible("011")
    assert len(golden.admissible_tuples(3)) == 5
    assert golden.admissible_tuples(0) == [()]
    with pytest.raises(ValueError):
        TransitionMatrix([[1, 2], [0, 1]])


@pytest.mark.parametrize("entries", [[[0.5, 1], [1, 1]], [[1.5, 1], [1, 0]], [[257, 1], [1, 0]]])
def test_transition_entries_are_checked_before_the_cast(entries):
    with pytest.raises(ValueError, match="entries must be 0 or 1"):
        TransitionMatrix(entries)


def test_words_refuse_bool_symbols():
    with pytest.raises(ValueError, match="got True"):
        Word((True, False))


def test_words_refuse_negative_symbols():
    # a negative symbol would index a transition matrix from its end
    with pytest.raises(ValueError, match="got -1"):
        Word((-1,))


def test_orbit_admissibility_wraps_around():
    golden = TransitionMatrix([[1, 1], [1, 0]])
    assert golden.orbit_is_admissible(PeriodicPoint(Word((0, 1))))
    assert not golden.orbit_is_admissible(PeriodicPoint(Word((1,))))

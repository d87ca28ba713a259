"""
Finite words, cylinders, periodic points and self-overlap structure.

Words are finite sequences of natural-number symbols; a word of length n
names the n-cylinder of all one-sided sequences starting with it.  A
periodic point is stored by one minimal period of its generator word.

Serialisation: words render as comma-separated symbol lists; binary words
also parse from the compact form "0101".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

__all__ = [
    "Word",
    "PeriodicPoint",
    "TransitionMatrix",
    "as_word",
    "minimal_period",
    "self_overlaps",
]

@dataclass(frozen=True)
class Word:
    """An immutable finite word over the natural numbers: every symbol is a
    nonnegative integer."""

    symbols: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.symbols) == 0:
            raise ValueError("words must be nonempty")
        for s in self.symbols:
            if isinstance(s, bool) or not isinstance(s, (int, np.integer)) or s < 0:
                raise ValueError(f"symbols must be nonnegative integers, got {s!r}")
        object.__setattr__(self, "symbols", tuple(int(s) for s in self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self) -> Iterator[int]:
        return iter(self.symbols)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return Word(self.symbols[idx])
        return self.symbols[idx]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.symbols + as_word(other).symbols)

    def to_text(self) -> str:
        return ",".join(str(s) for s in self.symbols)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse "0,1,2" style lists; "0101" is accepted as compact binary."""
        text = text.strip()
        if not text:
            raise ValueError("empty word text")
        if "," in text:
            return cls(tuple(int(part) for part in text.split(",")))
        if len(text) >= 2 and set(text) <= {"0", "1"}:
            return cls(tuple(int(c) for c in text))
        return cls((int(text),))


def as_word(w) -> Word:
    """Coerce a Word, symbol sequence, or text form into a Word."""
    if isinstance(w, Word):
        return w
    if isinstance(w, str):
        return Word.parse(w)
    return Word(tuple(w))


def _border_array(symbols: tuple[int, ...]) -> list[int]:
    # border[i] = length of the longest proper border of symbols[:i+1]
    border = [0] * len(symbols)
    k = 0
    for i in range(1, len(symbols)):
        while k > 0 and symbols[i] != symbols[k]:
            k = border[k - 1]
        if symbols[i] == symbols[k]:
            k += 1
        border[i] = k
    return border


def minimal_period(w) -> int:
    """Smallest d >= 1 with w[i] == w[i+d] for all valid i."""
    word = as_word(w)
    border = _border_array(word.symbols)
    return len(word) - border[-1]


def self_overlaps(w) -> set[int]:
    """Proper shifts l in [1, n-1] at which the word overlaps itself.

    l is an overlap iff the length-(n-l) suffix equals the prefix, i.e. the
    word has a border of length n-l; the set is read off the border chain.
    """
    word = as_word(w)
    n = len(word)
    if n < 2:
        return set()
    border = _border_array(word.symbols)
    out: set[int] = set()
    b = border[-1]
    while b > 0:
        out.add(n - b)
        b = border[b - 1]
    return out


@dataclass(frozen=True)
class PeriodicPoint:
    """A periodic sequence, stored as one minimal period.

    The generator's length is required to be the minimal period of the
    point: no proper divisor of len(generator) may generate the same
    sequence.  ("00100" is a valid generator of a period-5 point; "0101"
    is rejected because "01" generates the same point.)
    """

    generator: Word

    def __post_init__(self) -> None:
        g = as_word(self.generator)
        object.__setattr__(self, "generator", g)
        m = len(g)
        d = minimal_period(g)
        if d < m and m % d == 0:
            raise ValueError(
                f"generator {g.to_text()!r} has minimal period {d} < {m}; "
                f"pass the minimal generator"
            )

    @property
    def period(self) -> int:
        return len(self.generator)

    def symbol_at(self, i: int) -> int:
        return self.generator.symbols[i % self.period]

    def prefix(self, n: int) -> Word:
        if n < 1:
            raise ValueError(f"cylinder length must be >= 1, got {n}")
        m = self.period
        reps = n // m + 1
        return Word((self.generator.symbols * reps)[:n])


def _is_primitive(matrix) -> bool:
    """True iff some power of the nonnegative square ``matrix`` is strictly
    positive; never for the empty matrix.

    Powers up to size^2 are checked, which is past the Wielandt bound
    n^2 - 2n + 2, so the test is exact.
    """
    pattern = (np.asarray(matrix) > 0).astype(np.int64)
    reach = pattern
    for _ in range(pattern.shape[0] ** 2):
        if reach.all():
            return True
        reach = np.minimum(reach @ pattern, 1)
    return False


class TransitionMatrix:
    """A 0/1 transition matrix over a finite alphabet {0..size-1}."""

    def __init__(self, entries) -> None:
        raw = np.asarray(entries)
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {raw.shape}")
        # checked before the cast, which would wrap or truncate other values
        if not np.isin(raw, (0, 1)).all():
            raise ValueError("transition matrix entries must be 0 or 1")
        self.matrix = raw.astype(np.int8)
        self.size = raw.shape[0]

    @classmethod
    def full(cls, size: int) -> "TransitionMatrix":
        return cls(np.ones((size, size), dtype=np.int8))

    def is_full(self) -> bool:
        return bool(self.matrix.all())

    def is_topologically_mixing(self) -> bool:
        """True iff some power of the matrix is strictly positive (``_is_primitive``)."""
        return _is_primitive(self.matrix)

    def word_is_admissible(self, w) -> bool:
        word = as_word(w)
        for s in word.symbols:
            if s >= self.size:
                return False
        for a, b in zip(word.symbols, word.symbols[1:]):
            if not self.matrix[a, b]:
                return False
        return True

    def admissible_tuples(self, length: int) -> list[tuple[int, ...]]:
        """All admissible symbol tuples of the given length, lexicographically.

        length 0 yields the single empty tuple.
        """
        if length < 0:
            raise ValueError("length must be nonnegative")
        prefixes: list[tuple[int, ...]] = [()]
        for i in range(length):
            if i == 0:
                prefixes = [(a,) for a in range(self.size)]
            else:
                prefixes = [
                    p + (b,)
                    for p in prefixes
                    for b in range(self.size)
                    if self.matrix[p[-1], b]
                ]
        return prefixes

    def orbit_is_admissible(self, x: PeriodicPoint) -> bool:
        """Admissibility of the full periodic orbit, wrap-around included."""
        g = x.generator.symbols
        if any(s >= self.size for s in g):
            return False
        m = len(g)
        return all(self.matrix[g[i], g[(i + 1) % m]] for i in range(m))

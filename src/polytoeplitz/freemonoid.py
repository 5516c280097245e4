"""Words over free semigroups and their graded-lexicographic enumeration.

A :class:`Word` is a finite sequence of generator indices over one free
semigroup; a :class:`MultiWord` is a tuple of words, one per tensor factor,
and an :class:`IndexPair` a reduced pair of multi-words.
:func:`graded_lex_layout` gives the enumeration as rank arrays, on which the
model decides right divisibility and comparability by offset arithmetic;
:class:`WordList` and :class:`RankMap` are read-only views that address
words by rank and make a :class:`Word` only when one is asked for.
"""

from __future__ import annotations

import collections.abc
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatch, NotComparable, TruncationError

__all__ = [
    "Word",
    "MultiWord",
    "IndexPair",
    "enumerate_words",
    "WordList",
    "RankMap",
    "graded_lex_layout",
    "multiword_unindex",
    "reverse",
    "word_offset",
    "word_rank",
]


@dataclass(frozen=True)
class Word:
    """A word over the free semigroup on ``alphabet_size`` generators.

    ``letters`` holds 1-based generator indices; the empty tuple is the
    semigroup identity.
    """

    letters: tuple[int, ...]
    alphabet_size: int

    def __post_init__(self) -> None:
        if self.alphabet_size < 1:
            raise DimensionMismatch(f"alphabet_size must be >= 1, got {self.alphabet_size}")
        for g in self.letters:
            if not 1 <= g <= self.alphabet_size:
                raise DimensionMismatch(
                    f"letter {g} outside alphabet [1, {self.alphabet_size}]"
                )

    def __len__(self) -> int:
        return len(self.letters)

    @staticmethod
    def identity(alphabet_size: int) -> "Word":
        return Word((), alphabet_size)

    def render(self) -> str:
        """Human-readable form: ``g1.g2.g1`` for nonempty words, ``e`` for the identity."""
        if not self.letters:
            return "e"
        return ".".join(f"g{g}" for g in self.letters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Word({self.render()}, n={self.alphabet_size})"


@dataclass(frozen=True)
class MultiWord:
    """An element of the product of ``k`` free semigroups, one word per factor."""

    parts: tuple[Word, ...]

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def total_degree(self) -> int:
        return sum(len(p) for p in self.parts)

    @staticmethod
    def identity(alphabet_sizes: Sequence[int]) -> "MultiWord":
        return MultiWord(tuple(Word.identity(n) for n in alphabet_sizes))

    def render(self) -> str:
        if self.k == 1:
            return self.parts[0].render()
        return "(" + ", ".join(p.render() for p in self.parts) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MultiWord({self.render()})"


@dataclass(frozen=True)
class IndexPair:
    """A reduced pair of multi-words, the index set of Fourier coefficients.

    Membership requires that in each factor at most one of ``left[i]``,
    ``right[i]`` is nonempty, so the signed degree ``s_i = |left_i| -
    |right_i|`` of each factor determines which side holds its word.
    """

    left: MultiWord
    right: MultiWord

    def __post_init__(self) -> None:
        if self.left.k != self.right.k:
            raise DimensionMismatch("left/right multi-words have different factor counts")
        for a, b in zip(self.left.parts, self.right.parts):
            if a.alphabet_size != b.alphabet_size:
                raise DimensionMismatch("left/right factor alphabets disagree")
            if len(a) > 0 and len(b) > 0:
                raise NotComparable(
                    f"({a.render()}, {b.render()}) has both sides nonempty in one factor"
                )

    @property
    def total_weight(self) -> int:
        """Sum of |s_i| over factors, i.e. total degree of both sides combined."""
        return self.left.total_degree + self.right.total_degree

    def render(self) -> str:
        return f"({self.left.render()} | {self.right.render()})"


def enumerate_words(n: int, max_len: int) -> list[Word]:
    """All words of length <= ``max_len`` in graded-lexicographic order.

    The identity comes first, then words by increasing length, lexicographic
    within a length.  Deterministic; total count is sum of n**d, d=0..max_len.
    """
    return list(WordList(n, max_len))


class WordList(collections.abc.Sequence):
    """The words of :func:`enumerate_words` as a read-only sequence indexed by rank.

    Length, indexing and membership cost O(1) or O(``max_len``) and make at
    most one :class:`Word`; only iteration makes every word, one at a time.
    """

    def __init__(self, n: int, max_len: int) -> None:
        if n < 1:
            raise DimensionMismatch(f"alphabet size must be >= 1, got {n}")
        if max_len < 0:
            raise TruncationError(f"max_len must be >= 0, got {max_len}")
        self.n = n
        self.max_len = max_len
        self._count = _block_count(n, max_len)

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, rank: int) -> Word:
        rank = operator.index(rank)
        if not -self._count <= rank < self._count:
            raise IndexError(f"rank {rank} outside a list of {self._count} words")
        return _unrank_word(rank % self._count, self.n)

    def __iter__(self) -> Iterator[Word]:
        for d in range(self.max_len + 1):
            for letters in itertools.product(range(1, self.n + 1), repeat=d):
                yield Word(letters, self.n)

    def __contains__(self, w: object) -> bool:
        return isinstance(w, Word) and w.alphabet_size == self.n and len(w) <= self.max_len

    def rank(self, w: Word) -> int:
        """The rank of ``w``; :class:`KeyError` when ``w`` is not in the list."""
        if w not in self:
            raise KeyError(w)
        return word_rank(w)


class RankMap(collections.abc.Mapping):
    """Read-only map from the words of a :class:`WordList` to ``value(rank)``.

    A lookup is one rank computation plus the truncation check of
    :meth:`WordList.rank`; iteration follows the list's graded-lex order.
    With the default ``value`` the map sends each word to its rank.
    """

    def __init__(self, words: WordList, value: Callable[[int], Any] = int) -> None:
        self.words = words
        self._value = value

    def __getitem__(self, w: Word) -> Any:
        return self._value(self.words.rank(w))

    def __iter__(self) -> Iterator[Word]:
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)


@functools.lru_cache(maxsize=16)
def graded_lex_layout(n: int, max_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The enumeration of :func:`enumerate_words` as arrays ``(start, lengths, offsets)``.

    ``start[d]`` is the rank of the first word of length ``d`` (``start[-1]``
    the word count); the word at rank ``r`` has length ``lengths[r]`` and base-n
    offset ``offsets[r] = r - start[lengths[r]]``, its letters minus one read as
    base-``n`` digits.  Its length-``e`` suffix is the word at offset
    ``offsets[r] % n**e`` and the prefix before it the one at ``offsets[r] // n**e``.
    Built once per ``(n, max_len)`` and shared: the arrays are read-only.
    """
    if n < 1:
        raise DimensionMismatch(f"alphabet size must be >= 1, got {n}")
    if max_len < 0:
        raise TruncationError(f"max_len must be >= 0, got {max_len}")
    start = np.concatenate([[0], np.cumsum(n ** np.arange(max_len + 1, dtype=np.int64))])
    lengths = np.repeat(np.arange(max_len + 1, dtype=np.int64), np.diff(start))
    offsets = np.arange(start[-1], dtype=np.int64) - start[lengths]
    for a in (start, lengths, offsets):
        a.flags.writeable = False
    return start, lengths, offsets


def word_offset(w: Word) -> int:
    """The base-``n`` offset of ``w`` within the words of its length (letters minus one as digits)."""
    offset = 0
    for g in w.letters:
        offset = offset * w.alphabet_size + (g - 1)
    return offset


def word_rank(w: Word) -> int:
    """Position of ``w`` in the graded-lexicographic enumeration of its alphabet."""
    n = w.alphabet_size
    d = len(w)
    # all words shorter than d precede it
    rank = (n**d - 1) // (n - 1) if n > 1 else d
    return rank + word_offset(w)


def _block_count(n: int, max_len: int) -> int:
    return (n ** (max_len + 1) - 1) // (n - 1) if n > 1 else max_len + 1


def multiword_unindex(idx: int, alphabet_sizes: Sequence[int], trunc: Sequence[int]) -> MultiWord:
    """The multi-word at ``idx`` of the truncated tensor basis, first factor slowest.

    Each factor's rank is its word's position in :func:`enumerate_words`; the
    ranks combine in row-major order, matching Kronecker products of
    per-factor operators, so the all-identity multi-word sits at 0.
    """
    if len(alphabet_sizes) != len(trunc):
        raise DimensionMismatch("alphabet/truncation tuple lengths differ")
    counts = [_block_count(n, L) for n, L in zip(alphabet_sizes, trunc)]
    total = 1
    for c in counts:
        total *= c
    if not 0 <= idx < total:
        raise TruncationError(f"index {idx} outside [0, {total})")
    ranks: list[int] = []
    for c in reversed(counts):
        ranks.append(idx % c)
        idx //= c
    ranks.reverse()
    parts = []
    for rank, n, L in zip(ranks, alphabet_sizes, trunc):
        parts.append(_unrank_word(rank, n))
    return MultiWord(tuple(parts))


def _unrank_word(rank: int, n: int) -> Word:
    d = 0
    block = 1
    while rank >= block:
        rank -= block
        block *= n
        d += 1
    letters = []
    for _ in range(d):
        letters.append(rank % n + 1)
        rank //= n
    letters.reverse()
    return Word(tuple(letters), n)


def reverse(w: Word) -> Word:
    """The word with its letters in reverse order; an involution."""
    return Word(tuple(reversed(w.letters)), w.alphabet_size)

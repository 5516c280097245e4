import pytest
from hypothesis import given, strategies as st

from polytoeplitz.errors import DimensionMismatch, NotComparable, TruncationError
from polytoeplitz.freemonoid import (
    IndexPair,
    MultiWord,
    Word,
    enumerate_words,
    graded_lex_layout,
    multiword_unindex,
    reverse,
    word_offset,
)
from polytoeplitz.model import FockSpace

from conftest import make_spec
from oracles import comparable, degree_vector, right_divides, simplify


def w(letters, n=2):
    return Word(tuple(letters), n)


def mw(*parts):
    return MultiWord(tuple(parts))


class TestRightDivides:
    def test_suffix_quotient(self):
        assert right_divides(w([2]), w([1, 2])) == w([1])

    def test_equal_words_give_identity(self):
        assert right_divides(w([1, 2]), w([1, 2])) == w([])

    def test_different_suffix_absent(self):
        assert right_divides(w([1]), w([2])) is None

    def test_longer_divisor_absent(self):
        assert right_divides(w([1, 2]), w([2])) is None

    def test_alphabet_mismatch(self):
        with pytest.raises(DimensionMismatch):
            right_divides(w([1], n=2), w([1], n=3))


class TestComparable:
    def test_reflexive(self):
        u = mw(w([1, 2]), w([1], n=1))
        assert comparable(u, u)

    def test_suffix_pair(self):
        assert comparable(mw(w([1, 2])), mw(w([2])))

    def test_distinct_generators(self):
        assert not comparable(mw(w([1])), mw(w([2])))

    def test_coordinatewise(self):
        a = mw(w([1, 2]), w([1]))
        b = mw(w([2]), w([2]))
        assert not comparable(a, b)  # second factor fails

    def test_symmetric(self):
        a, b = mw(w([1, 2])), mw(w([2]))
        assert comparable(a, b) == comparable(b, a)


class TestSimplify:
    def test_equal_pair_reduces_to_identity(self):
        u = mw(w([1, 2]))
        pair = simplify(u, u)
        assert pair.left == mw(w([]))
        assert pair.right == mw(w([]))
        assert degree_vector(pair) == (0,)

    def test_suffix_case(self):
        pair = simplify(mw(w([1, 2])), mw(w([2])))
        assert pair.left == mw(w([1]))
        assert pair.right == mw(w([]))
        assert degree_vector(pair) == (1,)

    def test_two_factor_case_split(self):
        omega = mw(w([1, 2]), w([]))
        gamma = mw(w([2]), w([1]))
        pair = simplify(omega, gamma)
        assert pair.left == mw(w([1]), w([]))
        assert pair.right == mw(w([]), w([1]))
        assert degree_vector(pair) == (1, -1)

    def test_not_comparable_raises(self):
        with pytest.raises(NotComparable):
            simplify(mw(w([1])), mw(w([2])))

    def test_idempotent_on_reduced_pairs(self):
        pair = simplify(mw(w([1, 2])), mw(w([2])))
        again = simplify(pair.left, pair.right)
        assert again == pair

    def test_both_sides_nonempty_rejected(self):
        with pytest.raises(NotComparable):
            IndexPair(left=mw(w([1])), right=mw(w([2])))


class TestEnumeration:
    def test_single_generator(self):
        words = enumerate_words(1, 2)
        assert words == [Word((), 1), Word((1,), 1), Word((1, 1), 1)]

    def test_two_generators_depth_one(self):
        assert enumerate_words(2, 1) == [w([]), w([1]), w([2])]

    def test_count_all_lengths(self):
        assert len(enumerate_words(2, 3)) == 1 + 2 + 4 + 8

    def test_graded_then_lexicographic(self):
        words = enumerate_words(2, 2)
        lengths = [len(u) for u in words]
        assert lengths == sorted(lengths)
        depth2 = [u.letters for u in words if len(u) == 2]
        assert depth2 == sorted(depth2)

    @given(st.integers(1, 3), st.integers(0, 5))
    def test_layout_matches_enumeration(self, n, max_len):
        words = enumerate_words(n, max_len)
        start, lengths, offsets = graded_lex_layout(n, max_len)
        assert start[-1] == len(words)
        assert lengths.tolist() == [len(u) for u in words]
        assert offsets.tolist() == [word_offset(u) for u in words]
        # suffix and prefix of each word by offset arithmetic
        for rank, u in enumerate(words):
            for e in range(len(u) + 1):
                o = int(offsets[rank])
                assert words[start[e] + o % n**e].letters == u.letters[len(u) - e :]
                assert words[start[len(u) - e] + o // n**e].letters == u.letters[: len(u) - e]

    def test_bad_args(self):
        with pytest.raises(DimensionMismatch):
            enumerate_words(0, 2)
        with pytest.raises(TruncationError):
            enumerate_words(2, -1)
        with pytest.raises(DimensionMismatch):
            graded_lex_layout(0, 2)
        with pytest.raises(TruncationError):
            graded_lex_layout(2, -1)


def shift_space(sizes, trunc):
    """A Fock space over alphabets ``sizes`` truncated at ``trunc``, every generator at weight 1/n."""
    entries = [(i + 1, (j,), 1.0 / n) for i, n in enumerate(sizes) for j in range(1, n + 1)]
    return FockSpace(make_spec(len(sizes), sizes, (1,) * len(sizes), entries), trunc)


class TestIndexing:
    def test_vacuum_is_zero(self):
        u = MultiWord.identity((2, 3))
        assert shift_space((2, 3), (2, 2)).index_of(u) == 0

    def test_single_factor_graded_order(self):
        u = mw(Word((1, 1), 1))
        assert shift_space((1,), (3,)).index_of(u) == 2

    def test_round_trip_all(self):
        trunc = (2, 1)
        sizes = (2, 3)
        space = shift_space(sizes, trunc)
        total = (1 + 2 + 4) * (1 + 3)
        assert space.dim == total
        for idx in range(total):
            u = multiword_unindex(idx, sizes, trunc)
            assert space.multiword_at(idx) == u
            assert space.index_of(u) == idx

    def test_out_of_truncation(self):
        with pytest.raises(TruncationError):
            shift_space((2,), (2,)).index_of(mw(w([1, 1, 1])))
        with pytest.raises(TruncationError):
            multiword_unindex(10**6, (2,), (2,))


class TestReverse:
    def test_example(self):
        assert reverse(w([1, 2])) == w([2, 1])

    def test_identity(self):
        assert reverse(w([])) == w([])

    @given(st.lists(st.integers(min_value=1, max_value=3), max_size=8))
    def test_involution(self, letters):
        u = Word(tuple(letters), 3)
        assert reverse(reverse(u)) == u


@given(
    st.lists(st.integers(min_value=1, max_value=2), max_size=5),
    st.lists(st.integers(min_value=1, max_value=2), max_size=5),
)
def test_simplify_lands_in_reduced_set(a, b):
    omega, gamma = mw(w(a)), mw(w(b))
    if comparable(omega, gamma):
        pair = simplify(omega, gamma)
        # at most one side nonempty per factor, degrees split by sign
        la, lb = len(pair.left.parts[0]), len(pair.right.parts[0])
        assert la == 0 or lb == 0
        s = degree_vector(pair)[0]
        assert la == max(s, 0) and lb == max(-s, 0)


def test_render_forms():
    assert w([]).render() == "e"
    assert w([1, 2, 1]).render() == "g1.g2.g1"
    assert mw(w([1]), w([], n=1)).render() == "(g1, e)"


def test_word_validation():
    with pytest.raises(DimensionMismatch):
        Word((3,), 2)
    with pytest.raises(DimensionMismatch):
        Word((0,), 2)

"""Truncated tensor Fock spaces and the universal model operators.

The space is the span of ``e_w`` for multi-words ``w`` within a per-factor
degree truncation, tensored with a coefficient space of dimension
``coeff_dim``.  Weighted left/right creation operators are compressions
``P T P`` of their full-space counterparts; each verification routine states
the subspace on which the identity it checks is exact.

Basis order is graded-lexicographic per factor with the vacuum first and the
first factor slowest, so Kronecker products of per-factor matrices line up
with :meth:`FockSpace.index_of` and :meth:`FockSpace.multiword_at`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, SpecError, TruncationError
from .freemonoid import (
    IndexPair,
    MultiWord,
    Word,
    WordList,
    graded_lex_layout,
    multiword_unindex,
    reverse,
    word_offset,
)
from .weights import PolydomainSpec, WeightTable, build_weight_table
from .weights import series_tail_bound, univariate_series

__all__ = [
    "FockSpace",
    "FockOperator",
    "PairStructure",
    "weighted_left_creation",
    "weighted_right_creation",
    "monomial",
    "scalar_kernel",
    "truncated_gram_kernel",
]


class FockSpace:
    """Truncated ``K (x) F^2(H_{n_1}) (x) ... (x) F^2(H_{n_k})`` with its weights."""

    def __init__(
        self,
        spec: PolydomainSpec,
        trunc: Sequence[int],
        coeff_dim: int = 1,
        weights: Optional[WeightTable] = None,
    ) -> None:
        if len(trunc) != spec.k:
            raise SpecError("truncation tuple length differs from factor count")
        if coeff_dim < 1:
            raise SpecError("coefficient dimension must be >= 1")
        self.spec = spec
        self.trunc = tuple(int(L) for L in trunc)
        self.coeff_dim = int(coeff_dim)
        self.weights = weights if weights is not None else build_weight_table(spec, self.trunc)
        if self.weights.trunc != self.trunc:
            raise SpecError("weight table truncation differs from requested truncation")
        # views over the graded-lex ranks: words by rank, and ranks by word
        self.factor_words: list[WordList] = [table.words for table in self.weights.tables]
        # per factor (start, lengths, offsets) of the graded-lex ranks, shared read-only
        self.factor_layouts = [graded_lex_layout(n, L) for n, L in zip(spec.n, self.trunc)]
        self.factor_dims = tuple(len(ws) for ws in self.factor_words)
        self.dim = int(np.prod(self.factor_dims))
        self._basis: Optional[list[MultiWord]] = None
        self._degrees: Optional[np.ndarray] = None
        self._pairs: Optional[PairStructure] = None
        # (side, factor, letters) -> the factor-rank action of word_action
        self._word_cache: dict[tuple, Action] = {}

    # -- basis bookkeeping -------------------------------------------------

    @property
    def total_dim(self) -> int:
        return self.coeff_dim * self.dim

    def basis(self) -> list[MultiWord]:
        if self._basis is None:
            self._basis = [
                MultiWord(combo) for combo in itertools.product(*self.factor_words)
            ]
        return self._basis

    def index_of(self, w: MultiWord) -> int:
        idx = 0
        for i, part in enumerate(w.parts):
            try:
                idx = idx * self.factor_dims[i] + self.factor_words[i].rank(part)
            except KeyError:
                raise TruncationError(f"{part.render()} outside truncation {self.trunc[i]}") from None
        return idx

    def multiword_at(self, idx: int) -> MultiWord:
        """The basis multi-word at ``idx``, from its factor ranks; no basis is built."""
        return multiword_unindex(int(idx), self.spec.n, self.trunc)

    def degree_table(self) -> np.ndarray:
        """Integer array (dim, k): degree vector of each basis multi-word."""
        if self._degrees is None:
            cols = []
            for i, (_, degs, _) in enumerate(self.factor_layouts):
                before, _, after = self.split(i, coeff=False)
                cols.append(np.tile(np.repeat(degs, after), before))
            self._degrees = np.stack(cols, axis=1)
        return self._degrees

    def safe_mask(self, headroom: Sequence[int]) -> np.ndarray:
        """Boolean mask over Fock basis indices with per-factor degree headroom."""
        if len(headroom) != self.spec.k:
            raise DimensionMismatch("headroom tuple length differs from factor count")
        degs = self.degree_table()
        limits = np.array([L - h for L, h in zip(self.trunc, headroom)], dtype=np.int64)
        return np.all(degs <= limits[None, :], axis=1)

    # -- operator construction ----------------------------------------------

    def split(self, i: int, coeff: bool = True) -> tuple[int, int, int]:
        """``(before, d_i, after)``: a basis index as three digits, factor ``i``'s word rank in the middle.

        ``before`` counts the coefficient space (when ``coeff``) and the earlier factors, ``after`` the later ones.
        """
        before = (self.coeff_dim if coeff else 1) * math.prod(self.factor_dims[:i])
        return before, self.factor_dims[i], math.prod(self.factor_dims[i + 1 :])

    def creation_action(self, i: int, word: Word, side: str = "left") -> Action:
        """The creation by ``word`` on factor ``i``'s word ranks, where it acts alone.

        ``side="left"`` prepends ``word``; ``side="right"`` appends the
        reversed word.  Returns ``(src, dst, vals)`` with ``A e_src = vals *
        e_dst``, at most ``d_i`` long: a factor column ``gamma`` maps to
        ``sqrt(b_gamma / b_target)`` times the target word, and columns whose
        image leaves the truncation are dropped.  Targets are found by rank
        arithmetic: prepending a word at offset ``u`` to a length-``d`` word
        at offset ``o`` gives offset ``u * n**d + o``, appending one of length
        ``e`` at offset ``v`` gives ``o * n**e + v``.  Both are increasing in
        the column, so ``dst`` is increasing.  On ``K (x) Fock`` the creation
        is the identity on the other digits of :meth:`split`.
        """
        if not 0 <= i < self.spec.k:
            raise DimensionMismatch(f"factor index {i} outside range")
        if word.alphabet_size != self.spec.n[i]:
            raise DimensionMismatch("word alphabet does not match the factor")
        if side not in ("left", "right"):
            raise SpecError(f"unknown side {side!r}")
        n, L, e = self.spec.n[i], self.trunc[i], len(word)
        start, lengths, offsets = self.factor_layouts[i]
        # the columns whose image stays inside the truncation, in rank order
        cols = np.arange(start[max(L - e + 1, 0)])
        d = lengths[cols]
        if side == "left":
            target = word_offset(word) * n**d + offsets[cols]
        else:
            target = offsets[cols] * n**e + word_offset(reverse(word))
        rows = start[d + e] + target
        b = self.weights.values[i]
        return cols, rows, np.sqrt(b[cols] / b[rows]).astype(complex)

    def word_action(self, i: int, w: Word, side: str = "left") -> Action:
        """``(src, dst, vals)`` of the universal model's ``W_w`` on factor ``i``'s ranks, cached.

        The last letter's :meth:`creation_action` composed with the prefix's
        action where its targets meet the prefix's domain: each value is
        ``prefix value * letter value``, the bits of a CSR product of the
        letters, and the entries stay in row-major order.
        """
        key = (side, i, w.letters)
        if key not in self._word_cache:
            src, dst, vals = self.creation_action(i, Word(w.letters[-1:], w.alphabet_size), side)
            if len(w) > 1:
                p_src, p_dst, p_vals = self.word_action(i, Word(w.letters[:-1], w.alphabet_size), side)
                at, hit = linalg.lookup(p_src, dst)
                src, dst, vals = src[hit], p_dst[at[hit]], p_vals[at[hit]] * vals[hit]
            self._word_cache[key] = (src, dst, vals)
        return self._word_cache[key]

    def creation_product(self, i: int, word: Word, side: str = "left") -> linalg.Entries:
        """The creation of :meth:`creation_action` as stored entries on ``K (x) Fock``, the one lift over :meth:`split`."""
        src, dst, vals = self.creation_action(i, word, side)
        before, d_i, after = self.split(i)
        n = self.total_dim
        base = np.arange(before)[:, None, None] * (d_i * after) + np.arange(after)
        keys = (base + dst[:, None] * after) * n + (base + src[:, None] * after)
        return linalg.Entries(keys.ravel(), np.broadcast_to(vals[:, None], keys.shape).flatten(), (n, n))

    # -- comparability structure --------------------------------------------

    def pair_structure(self) -> "PairStructure":
        """The all-pairs arrays (:class:`PairStructure`), built on first use; only tests read them."""
        if self._pairs is None:
            self._pairs = _build_pair_structure(self)
        return self._pairs

    def classify_pairs(self, keys: np.ndarray) -> "PairClasses":
        """Comparability, reduced class and entry weights of the basis pairs with row-major keys ``row * dim + col``.

        Per factor the shorter word of a pair must be the suffix of the longer
        one of its length (:func:`_suffix_quotient`); the quotient left over
        names the factor's reduced pair under the id scheme of
        :func:`_factor_pairs`, and the factor weighs ``sqrt(b_shorter /
        b_longer)``.  Weights multiply in factor order, as in the pair
        arrays, so every value equals the pair structure's bit for bit.
        Storage is the five outputs, linear in the number of pairs asked
        about, and the temporaries of one factor at a time.
        """
        keys = np.asarray(keys, dtype=np.int64)
        size = keys.size
        out = PairClasses(
            np.ones(size, dtype=bool), np.zeros(size, dtype=np.int64), np.ones(size), np.ones(size),
            np.zeros(size, dtype=np.int64),
        )
        for i in range(self.spec.k):
            self._classify_factor(i, keys, self.split(i, coeff=False)[2], out)
        return out

    def _classify_factor(self, i: int, keys: np.ndarray, stride: int, out: "PairClasses") -> None:
        """Fold factor ``i``, at place value ``stride`` in a basis index, into ``out`` in place.

        The factor's word ranks, lengths and offsets are int32 where its word
        count allows; the class id and representative key stay int64.
        """
        comparable, cls, tau, tau_rep, rep = out
        count = self.factor_dims[i]
        index = linalg.index_dtype(2 * count)
        layout = tuple(a.astype(index) for a in self.factor_layouts[i])
        lengths = layout[1]
        r = keys // (self.dim * stride)
        r %= count
        r = r.astype(index)
        c = keys // stride
        c %= count
        c = c.astype(index)
        row_long = lengths[r] >= lengths[c]
        longer, shorter = np.where(row_long, r, c), np.where(row_long, c, r)
        del r, c
        suffix, quot = _suffix_quotient(layout, self.spec.n[i], longer, lengths[shorter])
        comparable &= suffix == shorter
        del suffix
        cls *= 2 * count - 1
        cls += self._class_digit(i, quot, row_long)
        # the representative's row-major key: quot in the longer side's digit, the empty word in the other
        place = np.where(row_long, self.dim * stride, stride)
        place *= quot
        rep += place
        del place
        b = self.weights.values[i]
        t = b[shorter]
        np.divide(t, b[longer], out=t)
        tau *= np.sqrt(t, out=t)
        del t
        t_rep = b[quot]
        np.divide(b[0], t_rep, out=t_rep)
        tau_rep *= np.sqrt(t_rep, out=t_rep)

    @property
    def n_classes(self) -> int:
        """Number of reduced pairs: per factor ``(q, e)`` for every word ``q`` and ``(e, q)`` for ``q != e``."""
        return math.prod(2 * count - 1 for count in self.factor_dims)

    def class_of(self, pair: IndexPair) -> int:
        """Class id of a reduced pair, -1 when one of its words leaves the truncation."""
        if pair.left.k != self.spec.k:
            raise DimensionMismatch("pair has the wrong number of factors")
        cid = 0
        for i, (u, v) in enumerate(zip(pair.left.parts, pair.right.parts)):
            if u.alphabet_size != self.spec.n[i]:
                raise DimensionMismatch("pair alphabet does not match the factor")
            try:
                rank = self.factor_words[i].rank(v if len(v) else u)
            except KeyError:
                return -1
            cid = cid * (2 * self.factor_dims[i] - 1) + int(self._class_digit(i, rank, not len(v)))
        return cid

    def _class_digit(self, i: int, quot, left):
        """Factor ``i``'s digit of a class id, the inverse of :meth:`class_factors`.

        The digit is the quotient's rank ``quot`` where the left side holds
        the quotient (``left``) or the quotient is empty, and ``count + quot
        - 1`` otherwise: the id scheme of :func:`_factor_pairs`.  Takes ints
        or arrays, as ``np.where`` does.
        """
        return np.where(left | (quot == 0), quot, self.factor_dims[i] + quot - 1)

    def class_factors(self, classes: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per factor, first factor first, ``(quotient rank, row is the longer word)`` of each class id.

        Class ids are mixed radix ``2 d_i - 1``, first factor slowest; the
        factor digit ``j`` names ``(q, e)`` with ``q`` at rank ``j`` when ``j <
        d_i`` and ``(e, q)`` with ``q`` at rank ``j - d_i + 1`` otherwise.
        One Python ``int`` gives ints and bools, an array gives arrays.
        """
        per_factor = []
        rem = classes
        for i in reversed(range(self.spec.k)):
            count = self.factor_dims[i]
            rem, jid = divmod(rem, 2 * count - 1)
            per_factor.append((jid - (count - 1) * (jid >= count), jid < count))
        per_factor.reverse()
        return per_factor

    def adjoint_classes(self, classes: np.ndarray) -> np.ndarray:
        """The class id of each reduced pair with its sides swapped, ``(q, e) <-> (e, q)`` in every factor."""
        swapped = np.zeros_like(classes)
        for i, (quot, row_long) in enumerate(self.class_factors(classes)):
            swapped = swapped * (2 * self.factor_dims[i] - 1) + self._class_digit(i, quot, ~row_long)
        return swapped

    def class_pair(self, c: int) -> IndexPair:
        """The reduced pair of class ``c``; class 0 is the identity pair."""
        left, right = [], []
        for i, (quot, row_long) in enumerate(self.class_factors(int(c))):
            word, empty = self.factor_words[i][quot], Word.identity(self.spec.n[i])
            left.append(word if row_long else empty)
            right.append(empty if row_long else word)
        return IndexPair(MultiWord(tuple(left)), MultiWord(tuple(right)))

    def term_entries(self, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Where each ``W_left W_right^*`` of the reduced pairs with ids ``classes`` is supported, and its entries there.

        Returns ``(term, keys, vals)``: for each class in turn, its position
        in ``classes``, the row-major keys ``row * dim + col`` of its members
        (:meth:`class_members`, one call for all classes) and the complex
        entry at each.  The entry at ``(row, col)`` is the weight of
        ``W_left`` times that of ``W_right``, each the product in factor
        order of ``sqrt(b_shorter / b_longer)`` over the factors where that
        side is nonempty (the entry weight, multiplied in the order of the
        creation products).
        """
        classes = np.asarray(classes, dtype=np.int64)
        term, keys = self._members(classes)
        left = np.ones(keys.size)
        right = np.ones(keys.size)
        for i, (_, row_long) in enumerate(self.class_factors(classes)):
            # factor i's digits of the row and the column
            _, d_i, after = self.split(i, coeff=False)
            r_i = keys // (self.dim * after) % d_i
            c_i = keys // after % d_i
            b = self.weights.values[i]
            # a factor with both sides empty has r_i == c_i, whose weight is exactly 1
            long_row = row_long[term]
            left *= np.where(long_row, np.sqrt(b[c_i] / b[r_i]), 1.0)
            right *= np.where(long_row, 1.0, np.sqrt(b[r_i] / b[c_i]))
        return term, keys, (left * right).astype(complex)

    def class_members(self, classes: np.ndarray) -> np.ndarray:
        """Row-major keys ``row * dim + col`` of the comparable pairs in the given classes.

        Per factor a class ``(q, e)`` holds the pairs ``(q.y, y)`` and a class
        ``(e, q)`` the pairs ``(y, q.y)``, for every word ``y`` with ``|q| +
        |y| <= L``: the first ``start[L - |q| + 1]`` ranks.  A class's members
        are the products of its factors' members, first factor slowest.
        """
        return self._members(classes)[1]

    def _members(self, classes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`class_members`, with the position in ``classes`` of each member's class."""
        classes = np.asarray(classes, dtype=np.int64)
        per_factor = []  # (quotient, row is the longer word, member count) per factor and class
        for i, (quot, row_long) in enumerate(self.class_factors(classes)):
            start, lengths, _ = self.factor_layouts[i]
            per_factor.append((quot, row_long, start[self.trunc[i] - lengths[quot] + 1]))
        sizes = np.ones(classes.size, dtype=np.int64)
        for _, _, size in per_factor:
            sizes *= size
        owner = np.repeat(np.arange(classes.size), sizes)
        # position of each member within its class; the last factor's digit is the fastest
        rem = np.arange(owner.size, dtype=np.int64)
        rem -= np.repeat(np.cumsum(sizes) - sizes, sizes)
        keys = np.zeros(owner.size, dtype=np.int64)
        place = 1
        for i in reversed(range(self.spec.k)):
            quot, row_long, size = per_factor[i]
            start, lengths, offsets = self.factor_layouts[i]
            s = size[owner]
            y = rem % s
            rem //= s
            del s
            # the word q.y, at offset offsets[q] * n**e + offsets[y] among the words of length |q| + e
            e = lengths[y]
            qy = self.spec.n[i] ** e
            qy *= offsets[quot][owner]
            e += lengths[quot][owner]
            qy += start[e]
            del e
            qy += offsets[y]
            long_row = row_long[owner]
            keys += np.where(long_row, qy, y) * (self.dim * place)
            keys += np.where(long_row, y, qy) * place
            del y, qy, long_row
            place *= self.factor_dims[i]
        return owner, keys


# -- stored-entry kernels ------------------------------------------------------
# Operators with at most one entry per row and per column (creations and their
# products) move basis vectors: an action is ``(src, dst, vals)`` with
# ``A e_src = vals * e_dst`` on one factor's word ranks, the middle digit of
# :meth:`FockSpace.split`.  A matrix is carried in the one stored-entry format
# of :func:`linalg.stored_entries`, row-major keys ``row * n + col`` and
# values.  ``cpmaps`` scatters the universal model's diagonals along the
# actions on that digit; ``brownhalmos`` moves stored entries' digits by them
# and sums the terms here.

Action = tuple[np.ndarray, np.ndarray, np.ndarray]


def accumulate_entries(terms) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise sum of ``(keys, vals)`` terms, each folded in as it comes.

    ``terms`` may be a generator: each term is merged into the running sorted
    ``(keys, acc)`` and dropped before the next is drawn, so no two terms are
    held at once.  A key met for the first time enters at ``0.0`` and every
    term then adds its value in list order, so each entry is summed in the
    order a dense accumulator would add the terms, signed zeros included.
    Each term's keys must be distinct; a term whose keys are not ascending is
    sorted first.
    """
    keys = np.empty(0, dtype=np.int64)
    acc = np.empty(0, dtype=complex)
    for term_keys, vals in terms:
        if np.any(term_keys[1:] < term_keys[:-1]):
            order = np.argsort(term_keys)
            term_keys, vals = term_keys[order], vals[order]
            del order
        pos, hit = linalg.lookup(keys, term_keys)
        # each term key's place once the new keys are in: its insertion point,
        # shifted by the new keys before it
        fresh = ~hit
        pos += np.cumsum(fresh)
        pos -= fresh
        if fresh.any():
            old = np.ones(keys.size + np.count_nonzero(fresh), dtype=bool)
            old[pos[fresh]] = False
            grown = np.empty(old.size, dtype=np.int64)
            grown[old] = keys
            grown[pos] = term_keys
            keys = grown
            grown = np.zeros(old.size, dtype=complex)
            grown[old] = acc
            acc = grown
            del grown, old
        np.add.at(acc, pos, vals)
        # the last term goes before the next is drawn
        del term_keys, vals, pos, hit, fresh
    return keys, acc


@dataclass
class FockOperator:
    """An operator on ``K (x) Fock`` with basis bookkeeping attached."""

    space: FockSpace
    matrix: linalg.MatrixLike

    def __post_init__(self) -> None:
        n = self.space.total_dim
        if self.matrix.shape != (n, n):
            raise DimensionMismatch(
                f"operator shape {self.matrix.shape} does not match space dim {n}"
            )

    @property
    def dense(self) -> np.ndarray:
        return linalg.as_dense(self.matrix)

    def adjoint(self) -> "FockOperator":
        return FockOperator(self.space, linalg.adjoint(self.matrix))

    def blocks(self) -> np.ndarray:
        """View as (c, c, dim, dim): coefficient block (x, y) against basis pair (row, col)."""
        c, d = self.space.coeff_dim, self.space.dim
        return self.dense.reshape(c, d, c, d).transpose(0, 2, 1, 3)


class PairClasses(NamedTuple):
    """Per basis pair, from :meth:`FockSpace.classify_pairs`; all but ``comparable`` hold only where it does."""

    comparable: np.ndarray    # bool
    cls: np.ndarray           # reduced-pair class id
    tau: np.ndarray           # entry weight
    tau_rep: np.ndarray       # entry weight of the class representative
    rep: np.ndarray           # row-major key rep_row * dim + rep_col of the representative


@dataclass
class PairStructure:
    """Every comparable basis pair of a space as index arrays: the reference the tests compare against.

    No routine of the package reads these arrays; the stored-entry classifier
    (:meth:`FockSpace.classify_pairs`, :meth:`FockSpace.class_members`) and
    the class arithmetic on :class:`FockSpace` decide everything they hold.
    ``rows``/``cols`` list the comparable pairs ``(row, col)`` of Fock basis
    indices in row-major order; ``tau`` holds each pair's entry weight and
    ``cls`` the integer id of its reduced representative, whose basis indices
    are ``rep_row``/``rep_col`` and whose position in the pair arrays is
    ``rep_pos``.  Storage grows with the number of comparable pairs (the
    Kronecker product of the per-factor counts), not with ``dim**2``.
    """

    space: FockSpace
    rows: np.ndarray          # (n_pairs,) int, row-major sorted
    cols: np.ndarray          # (n_pairs,) int
    tau: np.ndarray           # (n_pairs,) float
    cls: np.ndarray           # (n_pairs,) int
    n_classes: int
    rep_row: np.ndarray       # (n_classes,) basis index of the left word
    rep_col: np.ndarray       # (n_classes,) basis index of the right word
    rep_pos: np.ndarray       # (n_classes,) position of the representative pair
    tau_rep: np.ndarray       # (n_classes,)
    s_abs: np.ndarray         # (n_classes,) total |s|
    s_vectors: np.ndarray     # (n_classes, k) signed degree vectors

    @property
    def comp(self) -> np.ndarray:
        """Dense ``(dim, dim)`` comparability mask, built on each access (small spaces only)."""
        mask = np.zeros((self.space.dim, self.space.dim), dtype=bool)
        mask[self.rows, self.cols] = True
        return mask


def _suffix_quotient(layout, n: int, longer: np.ndarray, e) -> tuple[np.ndarray, np.ndarray]:
    """Ranks of the length-``e`` suffix and of the quotient left of it, for the words at ranks ``longer``.

    A word of length ``d`` at base-``n`` offset ``o`` (its rank minus the
    count of shorter words) has as length-``e`` suffix the word at offset
    ``o mod n**e`` and as quotient the word at offset ``o // n**e``.  ``e``
    is one length or one per word.
    """
    start, lengths, offsets = layout
    o, p = offsets[longer], n**e
    return start[e] + o % p, start[lengths[longer] - e] + o // p


def _factor_pairs(space: FockSpace, i: int):
    """Comparable pairs of factor ``i``: ``(rows, cols, tau, jid)`` row-major, and the class count.

    A pair whose column right-divides its row reduces to ``(quotient, e)``,
    with id the quotient's rank; the transposed pair reduces to ``(e,
    quotient)``, with id ``count + rank - 1``.
    """
    n, L = space.spec.n[i], space.trunc[i]
    count = space.factor_dims[i]
    lengths = space.factor_layouts[i][1]
    b = space.weights.values[i]
    big, small, quot = [], [], []
    for e in range(L + 1):
        x = np.flatnonzero(lengths >= e)
        s, q = _suffix_quotient(space.factor_layouts[i], n, x, e)
        big.append(x)
        small.append(s)
        quot.append(q)
    big, small, quot = (np.concatenate(a) for a in (big, small, quot))
    proper = big != small
    rows = np.concatenate([big, small[proper]])
    cols = np.concatenate([small, big[proper]])
    jid = np.concatenate([quot, count + quot[proper] - 1])
    # both orientations weigh sqrt(b_shorter / b_longer)
    tau = np.sqrt(b[small] / b[big])
    tau = np.concatenate([tau, tau[proper]])
    order = np.argsort(rows * count + cols)
    return rows[order], cols[order], tau[order], jid[order], 2 * count - 1


def _build_pair_structure(space: FockSpace) -> PairStructure:
    k = space.spec.k
    rows, cols, tau, cls = None, None, None, None
    width = 1
    radices = []
    for i in range(k):
        r_i, c_i, t_i, j_i, ncls_i = _factor_pairs(space, i)
        radices.append(ncls_i)
        d_i = space.factor_dims[i]
        if rows is None:
            rows, cols, tau, cls = r_i, c_i, t_i, j_i
        else:
            rows = (rows[:, None] * d_i + r_i[None, :]).ravel()
            cols = (cols[:, None] * d_i + c_i[None, :]).ravel()
            tau = (tau[:, None] * t_i[None, :]).ravel()
            cls = (cls[:, None] * ncls_i + j_i[None, :]).ravel()
        width *= d_i
    keys = rows * width + cols
    order = np.argsort(keys)
    keys, rows, cols, tau, cls = keys[order], rows[order], cols[order], tau[order], cls[order]

    n_classes = 1
    for r in radices:
        n_classes *= r
    ids = np.arange(n_classes, dtype=np.int64)
    # decompose class ids back into per-factor reduced pairs
    per_factor_ids = []
    rem = ids
    for r in reversed(radices):
        per_factor_ids.append(rem % r)
        rem = rem // r
    per_factor_ids.reverse()
    rep_row = np.zeros(n_classes, dtype=np.int64)
    rep_col = np.zeros(n_classes, dtype=np.int64)
    s_vectors = np.zeros((n_classes, k), dtype=np.int64)
    for i, jids in enumerate(per_factor_ids):
        count = space.factor_dims[i]
        left_rank = np.where(jids < count, jids, 0)
        right_rank = np.where(jids < count, 0, jids - count + 1)
        rep_row = rep_row * count + left_rank
        rep_col = rep_col * count + right_rank
        lengths = space.factor_layouts[i][1]
        s_vectors[:, i] = lengths[left_rank] - lengths[right_rank]
    # reduced representatives always sit inside the truncation
    rep_pos = np.searchsorted(keys, rep_row * width + rep_col)
    return PairStructure(
        space=space,
        rows=rows,
        cols=cols,
        tau=tau,
        cls=cls,
        n_classes=n_classes,
        rep_row=rep_row,
        rep_col=rep_col,
        rep_pos=rep_pos,
        tau_rep=tau[rep_pos],
        s_abs=np.abs(s_vectors).sum(axis=1),
        s_vectors=s_vectors,
    )


# -- universal model operators ----------------------------------------------


def _weighted_creation(space: FockSpace, i: int, j: int, side: str) -> FockOperator:
    n = space.spec.n[i]
    if not 1 <= j <= n:
        raise DimensionMismatch(f"generator index {j} outside 1..{n}")
    return FockOperator(space, space.creation_product(i, Word((j,), n), side))


def weighted_left_creation(space: FockSpace, i: int, j: int) -> FockOperator:
    """The weighted left creation by generator ``g_j`` of factor ``i``.

    Maps ``e_w`` to ``sqrt(b_w / b_{g_j w})`` times the shifted basis vector,
    zero when the shift leaves the truncation; ampliated over the other
    factors and the coefficient space.
    """
    return _weighted_creation(space, i, j, "left")


def weighted_right_creation(space: FockSpace, i: int, j: int) -> FockOperator:
    """The weighted right creation by generator ``g_j`` of factor ``i``."""
    return _weighted_creation(space, i, j, "right")


def monomial(space: FockSpace, pair: IndexPair, coefficient: np.ndarray) -> FockOperator:
    """The elementary operator ``A (x) W_left W_right^*`` for a reduced pair, as scipy's CSR.

    The Fock part is :meth:`FockSpace.term_entries` of the pair's class: it
    is supported on the class's members, in row-major order.  The coefficient
    enters as ``A[0, 0] * fock``, or ``kron(A, fock)`` when ``coeff_dim > 1``.
    A pair with a word beyond the truncation (class -1) gives the zero operator.
    Its one reader, ``bench/gen.py``, adds the terms with scipy's ``+``, so
    scipy is imported here, where it runs; no command calls this.
    """
    import scipy.sparse as sp

    A = np.atleast_2d(np.asarray(coefficient, dtype=complex))
    c = space.coeff_dim
    if A.shape != (c, c):
        raise DimensionMismatch(f"coefficient shape {A.shape} does not match ({c}, {c})")
    cid = space.class_of(pair)
    _, keys, vals = space.term_entries(np.array([cid] if cid >= 0 else [], dtype=np.int64))
    fock = sp.csr_matrix((vals, np.divmod(keys, space.dim)), shape=(space.dim, space.dim))
    if c == 1:
        mat = complex(A[0, 0]) * fock
    else:
        mat = sp.kron(sp.csr_matrix(A), fock, format="csr")
    return FockOperator(space, mat)


# -- scalar reproducing kernel (all n_i = 1) ---------------------------------


def scalar_kernel(
    spec: PolydomainSpec,
    m: Optional[Sequence[int]],
    z: Sequence[complex],
    w: Sequence[complex],
) -> complex:
    """Closed-form reproducing kernel ``prod_i (1 - sum_p a_{i,p} conj(z_i)^p w_i^p)^{-m_i}``.

    Requires every factor to have a single generator and the argument of each
    factor's series to stay inside the unit disc.
    """
    if any(n != 1 for n in spec.n):
        raise SpecError("scalar kernel requires n_i = 1 in every factor")
    orders = tuple(m) if m is not None else spec.m
    if len(orders) != spec.k or len(z) != spec.k or len(w) != spec.k:
        raise DimensionMismatch("z, w, m must have one entry per factor")
    value = 1.0 + 0.0j
    for i in range(spec.k):
        inner = 0.0 + 0.0j
        for word, a in spec.coeffs[i].items():
            p = len(word)
            inner += a * (np.conj(z[i]) ** p) * (w[i] ** p)
        if abs(inner) >= 1.0:
            raise SpecError(
                f"factor {i + 1}: |sum a_p conj(z)^p w^p| = {abs(inner):.4f} >= 1 (divergent)"
            )
        value *= (1.0 - inner) ** (-orders[i])
    return complex(value)


def truncated_gram_kernel(
    spec: PolydomainSpec,
    m: Optional[Sequence[int]],
    z: Sequence[complex],
    w: Sequence[complex],
    trunc: Sequence[int],
) -> tuple[complex, float]:
    """Truncated Gram sum ``sum_w (prod_i b_{i,w_i}) conj(z)^w w^w`` and a tail bound.

    The bound is the :func:`~polytoeplitz.weights.series_tail_bound` of the
    factors' series at ``t_i = |conj(z_i) w_i|``: per factor the closed-form
    total minus the head, combined by the product rule.
    """
    if any(n != 1 for n in spec.n):
        raise SpecError("gram kernel comparison requires n_i = 1 in every factor")
    orders = tuple(m) if m is not None else spec.m
    partials: list[complex] = []
    factors = []
    for i in range(spec.k):
        L = trunc[i]
        masses = {len(word): a for word, a in spec.coeffs[i].items()}
        series = univariate_series(masses, orders[i], L)
        x = np.conj(z[i]) * w[i]
        partials.append(sum(series[p] * x**p for p in range(L + 1)))
        factors.append((masses, orders[i], L, abs(x)))
    value = 1.0 + 0.0j
    for pv in partials:
        value *= pv
    return complex(value), series_tail_bound(factors)

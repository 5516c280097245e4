"""Word-level reference implementations that the tests compare the package against.

The package decides comparability, reduced pairs and entry weights by rank
arithmetic on ``FockSpace`` (``classify_pairs``, ``class_of`` and the class
members), and the torus grading by ``graded_entries``.  These are the
definitions read literally, one word or one stored entry at a time: right
divisibility ``omega = sigma * gamma``, comparability, the simplification of
a comparable pair onto its reduced index pair, the degrees of a multi-word
and the signed degrees of a pair, the entry weight of a pair,
the graded projections and the diagonal unitary between the weighted and
unweighted pictures, the Cesàro window weight of each stored entry, a
tuple's word operators as products of its matrices one letter at a time,
the Berezin tail bound from shells summed one word at a time,
the universal model's creations as matrices, a factor's creation lifted
over the coefficient space and the other factors, the row Gram diagonal as
the map's sum over every basis vector, and the sum of stored-entry terms
over the sorted union of their keys.  Beside them sit scipy's CSR copy of a
matrix's stored entries, the operator forms the program reads only as
entries or runs: the homogeneous parts as CSR operators (the runs of
``graded_entries``), the reversed-series map of a factor as a CSR operator
(``brownhalmos._phi_entries``) and the Cauchy dual ``C (C*C)^+`` of a row,
and the row and its Cauchy dual projection by scipy's sparse arithmetic,
which the program's stored-entry arithmetic must match bit for bit.  Last
comes a symbol keyed by its words: a dict from
``IndexPair`` to coefficient, with its random draw and its evaluation at
the model, which the class-id ``FourierSymbol`` must match bit for bit, and
the two helpers that turn a dict of pairs into a ``FourierSymbol`` and back.
Tests import them as they import ``conftest.make_spec``.
"""

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from polytoeplitz import linalg
from polytoeplitz.brownhalmos import _phi_entries
from polytoeplitz.errors import DimensionMismatch, NotComparable, SpecError
from polytoeplitz.cpmaps import OperatorTuple
from polytoeplitz.freemonoid import IndexPair, MultiWord, Word, reverse
from polytoeplitz.model import FockOperator, FockSpace
from polytoeplitz.toeplitz import FourierSymbol, _gap_places, graded_entries
from polytoeplitz.weights import WeightTable, series_tail_bound


def right_divides(gamma: Word, omega: Word) -> Optional[Word]:
    """Return ``sigma`` with ``omega = sigma * gamma`` if it exists, else ``None``.

    ``omega`` is right-divisible by ``gamma`` exactly when ``omega`` ends with
    ``gamma`` as a suffix.
    """
    if gamma.alphabet_size != omega.alphabet_size:
        raise DimensionMismatch("right_divides requires a common alphabet")
    lg = len(gamma)
    if lg > len(omega):
        return None
    if lg and omega.letters[-lg:] != gamma.letters:
        return None
    return Word(omega.letters[: len(omega) - lg], omega.alphabet_size)


def _comparable_words(omega: Word, gamma: Word) -> bool:
    return right_divides(gamma, omega) is not None or right_divides(omega, gamma) is not None


def comparable(omega: MultiWord, gamma: MultiWord) -> bool:
    """True iff in every factor one word is a right divisor of the other."""
    if omega.k != gamma.k:
        raise DimensionMismatch("multi-words have different factor counts")
    return all(_comparable_words(a, b) for a, b in zip(omega.parts, gamma.parts))


def simplify(omega: MultiWord, gamma: MultiWord) -> IndexPair:
    """Collapse a comparable pair to its reduced representative.

    Per factor: the left component is ``omega_i`` with the suffix ``gamma_i``
    removed when ``omega_i >=_r gamma_i`` (identity otherwise), and
    symmetrically for the right component.  Idempotent on reduced pairs.
    """
    if omega.k != gamma.k:
        raise DimensionMismatch("multi-words have different factor counts")
    lefts: list[Word] = []
    rights: list[Word] = []
    for a, b in zip(omega.parts, gamma.parts):
        sigma = right_divides(b, a)
        beta = right_divides(a, b)
        if sigma is None and beta is None:
            raise NotComparable(f"words {a.render()} and {b.render()} are not comparable")
        lefts.append(sigma if sigma is not None else Word.identity(a.alphabet_size))
        rights.append(beta if beta is not None else Word.identity(a.alphabet_size))
    return IndexPair(MultiWord(tuple(lefts)), MultiWord(tuple(rights)))


def word_degrees(w: MultiWord) -> tuple[int, ...]:
    """The length of each factor's word of ``w``."""
    return tuple(len(p) for p in w.parts)


def degree_vector(pair: IndexPair) -> tuple[int, ...]:
    """The signed degrees ``s_i = |left_i| - |right_i|`` of ``pair``, its torus grading."""
    return tuple(a - b for a, b in zip(word_degrees(pair.left), word_degrees(pair.right)))


def _min_max_b(table: WeightTable, i: int, a: Word, b: Word) -> tuple[float, float]:
    # min/max along right divisibility: the divisor is the smaller word
    if right_divides(b, a) is not None:
        lo, hi = b, a
    elif right_divides(a, b) is not None:
        lo, hi = a, b
    else:
        raise NotComparable(f"words {a.render()}, {b.render()} not comparable")
    return table.b(i, lo), table.b(i, hi)


def tau(table: WeightTable, omega: MultiWord, gamma: MultiWord) -> float:
    """Entry weight of a comparable pair: product over factors of sqrt(b_min/b_max)."""
    out = 1.0
    for i, (a, b) in enumerate(zip(omega.parts, gamma.parts)):
        blo, bhi = _min_max_b(table, i, a, b)
        out *= math.sqrt(blo / bhi)
    return out


def graded_projection(space: FockSpace, p: Sequence[int]) -> FockOperator:
    """Orthogonal projection onto multi-degree ``p``; zero off the degree grid."""
    if len(p) != space.spec.k:
        raise DimensionMismatch("degree tuple length differs from factor count")
    degs = space.degree_table()
    target = np.asarray(p, dtype=np.int64)
    if np.any(target < 0) or np.any(target > np.asarray(space.trunc)):
        diag = np.zeros(space.dim)
    else:
        diag = np.all(degs == target[None, :], axis=1).astype(float)
    return FockOperator(space, sp.diags(np.tile(diag, space.coeff_dim).astype(complex)))


def weighted_fock_unitary(space: FockSpace, direction: str = "forward") -> FockOperator:
    """Diagonal change of coordinates between the weighted and unweighted pictures.

    Forward entries are ``sqrt(prod_i b_{i, w_i})``; the inverse is its
    reciprocal and equals the adjoint with respect to the weighted norm on
    the target, which is the sense in which the map is unitary.  Conjugation
    ``U W U^{-1}`` turns the weighted creations into unit-coefficient shifts
    on columns of degree below the truncation.
    """
    # the product of the factor weights, first factor slowest
    entries = space.weights.values[0]
    for values in space.weights.values[1:]:
        entries = np.multiply.outer(entries, values).ravel()
    if direction == "forward":
        diag = np.sqrt(entries)
    elif direction == "inverse":
        diag = 1.0 / np.sqrt(entries)
    else:
        raise SpecError(f"unknown direction {direction!r}")
    return FockOperator(space, sp.diags(np.tile(diag, space.coeff_dim).astype(complex)))


def per_entry_cesaro_reconstruct(
    T: FockOperator, N: Sequence[int], fejer_weights: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """The stored entries ``(keys, vals)`` of ``cesaro_reconstruct(T, N, fejer_weights)``.

    The window weight is taken per stored entry from the degree gap of its
    row and column words, the factors multiplied in factor order; entries of
    weight zero are dropped.
    """
    space = T.space
    keys, vals = linalg.stored_entries(T.matrix)
    degs = space.degree_table()
    rows, cols = np.divmod(keys, space.total_dim)
    gap = degs[rows % space.dim] - degs[cols % space.dim]
    weight = np.ones(keys.size, dtype=float)
    for i, Ni in enumerate(N):
        diff = np.abs(gap[:, i])
        if fejer_weights:
            weight *= np.maximum(0.0, 1.0 - diff / (Ni + 1.0))
        else:
            weight *= (diff <= Ni).astype(float)
    kept = weight != 0.0
    vals = vals[kept]
    vals *= weight[kept]
    return keys[kept], vals


def word_op(X: OperatorTuple, i: int, w: Word):
    """``X_{i, j_1} ... X_{i, j_p}`` as the product of the word's prefix and its last letter.

    Sparse letters give a CSR product (from a CSR identity), dense ones an
    ndarray.
    """
    if len(w) == 0:
        if sp.issparse(X.ops[i][0]):
            return sp.identity(X.dim_h, format="csr", dtype=complex)
        return np.eye(X.dim_h, dtype=complex)
    return word_op(X, i, Word(w.letters[:-1], w.alphabet_size)) @ X.ops[i][w.letters[-1] - 1]


def per_word_tail_bound(X: OperatorTuple, trunc: Sequence[int]) -> float:
    """The Berezin kernel's tail bound, each shell ``Phi_{i,d}(I)`` summed from zeros one word at a time as ``a_w K_w K_w^*``."""
    factors = []
    for i in range(X.spec.k):
        K = X.kraus(i)[0]
        shells = {}
        for d in range(1, X.spec.degree(i) + 1):
            acc = np.zeros((X.dim_h, X.dim_h), dtype=complex)
            for Kw, (w, a) in zip(K, X.spec.coeffs[i].items()):
                if len(w) == d:
                    acc += a * (Kw @ Kw.conj().T)
            shells[d] = linalg.op_norm(acc)
        factors.append((shells, X.spec.m[i], trunc[i], 1.0))
    return series_tail_bound(factors)


def multi_word_op(X: OperatorTuple, w: MultiWord):
    """``X_{w_1} ... X_{w_k}``, the factors' word operators multiplied in factor order."""
    out = word_op(X, 0, w.parts[0])
    for i in range(1, X.spec.k):
        out = out @ word_op(X, i, w.parts[i])
    return out


def model_matrices(space: FockSpace, side: str = "left") -> OperatorTuple:
    """The universal model of ``space`` as matrices: each letter's Fock block of ``creation_product``, CSR."""
    d = space.dim
    return OperatorTuple(
        spec=space.spec,
        ops=tuple(
            tuple(csr(space.creation_product(i, Word((j,), n), side))[:d, :d] for j in range(1, n + 1))
            for i, n in enumerate(space.spec.n)
        ),
        dim_h=d,
        commutation_checked=True,
    )


def lifted_action(space: FockSpace, i: int, action):
    """A factor-``i`` action ``(src, dst, vals)`` on ``K (x) Fock``: the identity on the coefficient space and the other factors.

    The coefficient space is the outermost factor, then the factors in order,
    so the first ``1 / coeff_dim`` of the entries act on the Fock part;
    ``dst`` is increasing when the factor's ``dst`` is.
    """
    src, dst, vals = action
    d_i = space.factor_dims[i]
    pre = space.coeff_dim * math.prod(space.factor_dims[:i])
    post = math.prod(space.factor_dims[i + 1 :])
    base = np.arange(pre)[:, None, None] * (d_i * post) + np.arange(post)[None, None, :]
    return (
        (base + src[None, :, None] * post).ravel(),
        (base + dst[None, :, None] * post).ravel(),
        np.broadcast_to(vals[None, :, None], (pre, vals.size, post)).ravel(),
    )


def identity_row_gram_diagonal(space: FockSpace, i: int) -> np.ndarray:
    """The diagonal of ``C C^* = phi_right(I)``: the map's entries at all ``total_dim`` basis vectors, summed by row."""
    n = space.total_dim
    keys, vals = _phi_entries(space, i, np.arange(n) * (n + 1), np.ones(n, dtype=complex))
    return np.bincount(keys // n, vals.real, minlength=n)


def accumulate_entries(terms) -> tuple[np.ndarray, np.ndarray]:
    """Entrywise sum of ``(keys, vals)`` terms: sort the union of their keys, then search it once per term.

    Every entry starts at 0.0 and each term adds its value in list order; the
    package's ``model.accumulate_entries`` folds the terms in one at a time
    instead and must agree bit for bit.
    """
    keys = linalg.sorted_unique(np.concatenate([k for k, _ in terms]))
    acc = np.zeros(keys.size, dtype=complex)
    for k, v in terms:
        acc[linalg.lookup(keys, k)[0]] += v
    return keys, acc


def csr(mat) -> sp.csr_matrix:
    """scipy's canonical CSR matrix of the stored entries of ``mat`` (:func:`linalg.stored_entries`).

    Its row pointers are counted by one search of the row starts in the keys.
    """
    keys, vals = linalg.stored_entries(mat)
    indptr = np.searchsorted(keys, np.arange(mat.shape[0] + 1) * mat.shape[1])
    return sp.csr_matrix((vals, keys % mat.shape[1], indptr), shape=mat.shape)


def scipy_build_row(space: FockSpace, i: int) -> sp.csr_matrix:
    """``build_row`` by scipy's arithmetic: the scaled creations stacked by ``sp.hstack``."""
    support = {reverse(w): a for w, a in space.spec.coeffs[i].items() if a != 0.0}
    gamma = sorted(support, key=lambda w: (len(w), w.letters))
    return sp.csr_matrix(
        sp.hstack([math.sqrt(support[alpha]) * csr(space.creation_product(i, alpha, side="right")) for alpha in gamma])
    )


def scipy_cauchy_dual_projection(C: sp.csr_matrix) -> np.ndarray:
    """``cauchy_dual_projection`` by scipy's sparse products: ``C (C*C)^+ C^*``, dense."""
    dual = C @ csr(linalg.pinv_on_range(C.conj().T @ C, rank_tol=1e-10))
    return linalg.as_dense(dual @ C.conj().T)


def homogeneous_decomposition(T: FockOperator) -> dict[tuple[int, ...], FockOperator]:
    """Every nonzero homogeneous part of ``T``, keyed by degree vector in lexicographic order.

    The degree-``s`` part keeps the stored entries whose row and column
    degree vectors differ by ``s``, as CSR; it equals the sum of ``P_{s+p} T
    P_p`` over the grid.  Each part is one run of :func:`graded_entries`.  A
    degree vector with no stored entry has no key: its part is zero.  The
    parts sum to ``T``.
    """
    space = T.space
    keys, vals, present, bounds = graded_entries(T)
    place, L = _gap_places(space)
    gaps = present[:, None] // place % (2 * L + 1) - L
    parts: dict[tuple[int, ...], FockOperator] = {}
    for p, s in enumerate(map(tuple, gaps.tolist())):
        lo, hi = bounds[p], bounds[p + 1]
        parts[s] = FockOperator(space, csr(linalg.Entries(keys[lo:hi], vals[lo:hi], T.matrix.shape)))
    return parts


def phi_right(space: FockSpace, i: int, Y) -> sp.csr_matrix:
    """The reversed-series map of factor ``i`` on the ampliated right model, as CSR.

    The program's ``_phi_entries`` on the stored entries of ``Y`` (dense or
    sparse), written back as a matrix.
    """
    n = space.total_dim
    if Y.shape != (n, n):
        raise DimensionMismatch("operand shape differs from the space dimension")
    return csr(linalg.Entries(*_phi_entries(space, i, *linalg.stored_entries(Y)), Y.shape))


def cauchy_dual(row: linalg.Entries) -> np.ndarray:
    """``C (C*C)^{-1}`` for a row ``C`` from ``build_row``, the inverse taken on the range of ``C^*``.

    The same sparse pseudo-inverse at ``rank_tol=1e-10`` as
    ``cauchy_dual_projection``, which multiplies this dual by ``C^*``; only
    the returned dual is dense.
    """
    C = csr(row)
    return linalg.as_dense(C @ csr(linalg.pinv_on_range(C.conj().T @ C, rank_tol=1e-10)))


@dataclass
class DictSymbol:
    """A finitely supported coefficient family keyed by its reduced pairs' words."""

    space: FockSpace
    coefficients: dict[IndexPair, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        c = self.space.coeff_dim
        for pair, A in list(self.coefficients.items()):
            A = np.atleast_2d(np.asarray(A, dtype=complex))
            if A.shape != (c, c):
                raise DimensionMismatch(f"coefficient at {pair.render()} has shape {A.shape}, want ({c}, {c})")
            self.coefficients[pair] = A

    def support(self) -> list[IndexPair]:
        return sorted(self.coefficients, key=lambda p: (p.total_weight, p.left.render(), p.right.render()))

    def adjoint(self) -> "DictSymbol":
        out: dict[IndexPair, np.ndarray] = {}
        for pair, A in self.coefficients.items():
            swapped = IndexPair(left=pair.right, right=pair.left)
            out[swapped] = out.get(swapped, 0) + A.conj().T
        return DictSymbol(self.space, out)

    def hermitian_part(self) -> "DictSymbol":
        other = self.adjoint()
        keys = set(self.coefficients) | set(other.coefficients)
        merged = {k: 0.5 * (self.coefficients.get(k, 0) + other.coefficients.get(k, 0)) for k in keys}
        return DictSymbol(self.space, merged)


def dict_random_symbol(
    space: FockSpace, rng: np.random.Generator, n_monomials: int = 6, hermitian: bool = False
) -> DictSymbol:
    """``random_symbol`` drawn into a :class:`DictSymbol`: the same draws, keyed by ``class_pair``."""
    c = space.coeff_dim
    count = max(1, min(n_monomials, space.n_classes))
    chosen = rng.choice(space.n_classes, size=count, replace=False)
    if 0 not in chosen:
        chosen = np.append(chosen[:-1], 0)
    coeffs: dict[IndexPair, np.ndarray] = {}
    for cdx in chosen:
        A = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
        A /= max(1.0, linalg.op_norm(A))
        coeffs[space.class_pair(int(cdx))] = A
    sym = DictSymbol(space, coeffs)
    if hermitian:
        sym = DictSymbol(space, {p: 2.0 * A for p, A in sym.hermitian_part().coefficients.items()})
    return sym


def dict_evaluate_at_model(sym: DictSymbol, r: float = 1.0) -> sp.csr_matrix:
    """``evaluate_at_model`` over the render-sorted support: one ``term_entries`` call, ``r ** |s|`` per pair.

    A pair with a word beyond the truncation has no entries.
    """
    space = sym.space
    c, d, n = space.coeff_dim, space.dim, space.total_dim
    support = sym.support()
    classes = np.array([space.class_of(pair) for pair in support], dtype=np.int64)
    kept = np.flatnonzero(classes >= 0)
    owner, members, fock = space.term_entries(classes[kept])
    term = kept[owner]
    fock_rows, fock_cols = np.divmod(members, d)
    blocks = np.arange(c * c)
    rows = (blocks // c * d)[:, None] + fock_rows[None, :]
    cols = (blocks % c * d)[:, None] + fock_cols[None, :]
    keys = (rows * n + cols).ravel()
    order = np.argsort(keys)
    coeffs = np.array([sym.coefficients[pair] for pair in support], dtype=complex)
    radial = np.array([r ** pair.total_weight for pair in support], dtype=float)
    vals = coeffs.reshape(len(support), c * c)[term].T * fock
    vals = (radial[term] * vals).ravel()[order]
    keys = keys[order]
    return csr(linalg.Entries(keys[vals != 0], vals[vals != 0], (n, n)))


def symbol_of(space: FockSpace, coefficients: dict) -> FourierSymbol:
    """The :class:`FourierSymbol` with coefficient ``A`` at the class of each ``pair: A``."""
    ids = np.array([space.class_of(pair) for pair in coefficients], dtype=np.int64)
    c = space.coeff_dim
    stack = np.array([np.atleast_2d(A) for A in coefficients.values()], dtype=complex).reshape(-1, c, c)
    order = np.argsort(ids)
    return FourierSymbol(space, ids[order], stack[order])


def pair_coefficients(sym: FourierSymbol) -> dict[IndexPair, np.ndarray]:
    """The coefficients of ``sym`` keyed by their reduced pairs, in class-id order."""
    return {sym.space.class_pair(int(cid)): A for cid, A in zip(sym.classes, sym.coeffs)}

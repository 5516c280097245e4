"""Row contractions from the right model, their Cauchy dual projection, and the structural equation.

For each factor the weighted right creations assemble into a row contraction
whose columns are scaled by the square roots of the (reversed) series
coefficients.  Multi-Toeplitz operators satisfy a compression identity
against that row; the residual computed here measures its failure.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, SpecError
from .freemonoid import reverse
from .model import Action, FockOperator, FockSpace, accumulate_entries

__all__ = [
    "build_row",
    "range_projection",
    "cauchy_dual_projection",
    "bh_residual",
    "bh_scan",
]


def build_row(space: FockSpace, i: int) -> linalg.Entries:
    """The factor-``i`` row contraction ``C = [sqrt(a at reverse(alpha)) Lambda_alpha ...]`` on ``space``, as stored entries.

    ``alpha`` runs over the reversal of the coefficient support in
    graded-lexicographic order, and ``Lambda_alpha`` is the right creation by
    ``alpha`` on the coefficient-ampliated space, so ``C`` has shape
    ``(n, n * len(gamma))`` with ``n = space.total_dim`` and column block ``g``
    is ``C[:, g*n:(g+1)*n]``: each block's keys move by the block's column
    offset.  Each column holds at most one entry, as a creation moves one
    basis vector.  ``C C^*`` is the reversed-series completely positive map
    applied to the identity, a diagonal; the row-contraction bound ``||CC*||
    <= 1`` is verified on it up to ``1e-9``.
    """
    spec = space.spec
    if not 0 <= i < spec.k:
        raise DimensionMismatch(f"factor index {i} outside range")
    top = float(_row_gram_diagonal(space, i).max())
    if top > 1.0 + 1e-9:
        raise SpecError(f"row is not a contraction: ||CC*|| = {top:.6f}")
    support = {reverse(w): a for w, a in spec.coeffs[i].items() if a != 0.0}
    gamma = sorted(support, key=lambda w: (len(w), w.letters))
    n = space.total_dim
    keys, vals = [], []
    for g, alpha in enumerate(gamma):
        block = space.creation_product(i, alpha, side="right")
        rows, cols = np.divmod(block.keys, n)
        keys.append(rows * (n * len(gamma)) + g * n + cols)
        vals.append(block.vals * math.sqrt(support[alpha]))
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    return linalg.Entries(keys[order], np.concatenate(vals)[order], (n, n * len(gamma)))


def _conjugate_entries(action: Action, d_i: int, places, keys, digits, a: float, vals) -> tuple[np.ndarray, np.ndarray]:
    """The entries of ``a A Y A^*``, for ``Y`` with values ``vals`` at the row-major ``keys``.

    ``A`` acts on one factor's digit (:meth:`FockSpace.split`), of base ``d_i``;
    ``digits`` holds it for each key's row and column, at place values ``places``
    in the key.  Entries with both digits in the domain of ``A`` move by ``shift
    = dst - src`` in each digit and are multiplied by ``a``, ``lam_row`` and
    ``conj(lam_col)``; every other entry is annihilated.  ``A`` is injective and
    increasing, so the moved keys are distinct and sorted when ``keys`` are.
    """
    src, dst, lam = action
    slot = np.full(d_i, -1, dtype=np.int64)
    slot[src] = np.arange(src.size)
    sr, sc = (slot[d] for d in digits)
    hit = (sr >= 0) & (sc >= 0)
    sr, sc = sr[hit], sc[hit]
    shift = dst - src
    moved = keys[hit]
    moved += (shift * places[0])[sr]
    moved += (shift * places[1])[sc]
    # (a * (lam_row * conj(lam_col))) * vals, each product in this operand
    # order; each index array goes once read, as this runs beside the map's sum
    scale = lam[sr]
    del sr
    lam_col = lam[sc]
    del sc
    np.multiply(scale, np.conjugate(lam_col, out=lam_col), out=scale)
    del lam_col
    np.multiply(a, scale, out=scale)
    picked = vals[hit]
    del hit
    return moved, np.multiply(scale, picked, out=picked)


def _phi_entries(space: FockSpace, i: int, keys: np.ndarray, vals: np.ndarray):
    # each right creation moves factor i's digit injectively, so conjugation by
    # it gathers and scatters the stored entries and keeps at most their count;
    # the digits are taken once per map, each word's term summed in when made
    _, d_i, after = space.split(i)
    places = (space.total_dim * after, after)
    digits = [keys // p % d_i for p in places]
    return accumulate_entries(
        _conjugate_entries(space.creation_action(i, reverse(w), side="right"), d_i, places, keys, digits, a, vals)
        for w, a in space.spec.coeffs[i].items()
    )


def _alternating_terms(space: FockSpace, i: int, keys: np.ndarray, vals: np.ndarray):
    # the terms (-1)**(j-1) C(m, j) Phi^j of the alternating sum, in order;
    # each power is mapped on before its term is drawn, so the term scales
    # the power's own values and no earlier term is held through the map
    m = space.spec.m[i]
    keys, vals = _phi_entries(space, i, keys, vals)
    for j in range(1, m + 1):
        power_keys, power = keys, vals
        if j < m:
            keys, vals = _phi_entries(space, i, keys, vals)
        yield power_keys, np.multiply(((-1) ** (j - 1)) * math.comb(m, j), power, out=power)
        del power_keys, power


def range_projection(space: FockSpace, i: int) -> np.ndarray:
    """Projection onto the vectors with nonvacuum factor-``i`` component."""
    degs = space.degree_table()
    return np.diag(np.tile((degs[:, i] > 0).astype(complex), space.coeff_dim))


def _product_entries(keys: np.ndarray, vals: np.ndarray, inner: int, right: linalg.Entries):
    """The entries of ``A @ right`` as scipy's CSR product leaves them, for ``A`` with ``inner`` columns.

    ``A`` is given by its row-major ``keys`` (``row * inner + col``) and
    ``vals`` in stored order: row by row, a row's entries in any order.
    Each ``A[i, j]`` meets row ``j`` of ``right`` in key order; an output
    entry is summed from zero in the order its terms are formed, and dropped
    when the sum is zero; a row's entries come last formed first, as
    ``csr_matmat`` leaves them.  Returns the output's row-major ``(keys,
    vals)`` in that order.
    """
    width = right.shape[1]
    rows, cols = np.divmod(keys, inner)
    starts = np.searchsorted(right.keys, np.arange(right.shape[0] + 1) * width)
    count = starts[cols + 1] - starts[cols]
    left = np.repeat(np.arange(keys.size), count)
    at = np.arange(left.size) - np.repeat(np.cumsum(count) - count - starts[cols], count)
    # the terms in the order they are formed, each output entry's summed in
    # that order; 0 + the sum from its first term is the sum from zero
    out, total, first = linalg.sum_by_key(rows[left] * width + right.keys[at] % width, vals[left] * right.vals[at])
    total = 0 + total
    # by row, each row's entries by their first term, the last formed first
    placed = np.lexsort((-first, out // width))
    placed = placed[total[placed] != 0]
    return out[placed], total[placed]


def cauchy_dual_projection(C: linalg.Entries) -> np.ndarray:
    """``C (C*C)^{-1} C^*``, the orthogonal projection onto the range of the row ``C``.

    The inverse is the Hermitian pseudo-inverse of ``C*C`` on its range at
    ``rank_tol=1e-10``; eigenvalues near the rank cutoff raise
    :class:`NumericalRankError`.  Each column of ``C`` moves one basis
    vector, so ``C*C`` is block diagonal by target vector, each block rank
    one and at most ``C.shape[1] // C.shape[0]`` wide; the Gram matrix, its
    pseudo-inverse and the dual ``C (C*C)^{-1}`` stay stored entries, and
    only the returned ``(dim, dim)`` projection is dense.  The three products
    are formed as scipy's sparse products form them (:func:`_product_entries`),
    ``C*C`` as the transpose of ``C^T conj(C)`` with the rows of ``C^T`` in
    key order, so each sum runs in their order (``notes/decisions.md``, "No
    scipy below the cutoff").
    """
    n, width = C.shape
    rows, cols = np.divmod(C.keys, width)
    by_column = np.lexsort((rows, cols))
    conj = linalg.Entries(C.keys, C.vals.conj(), C.shape)
    keys, vals = _product_entries(cols[by_column] * n + rows[by_column], C.vals[by_column], n, conj)
    keys = keys % width * width + keys // width
    order = np.argsort(keys)
    P = linalg.pinv_on_range(linalg.Entries(keys[order], vals[order], (width, width)), rank_tol=1e-10)
    dual = _product_entries(C.keys, C.vals, width, P)
    keys, vals = _product_entries(*dual, width, linalg.adjoint(C))
    order = np.argsort(keys)
    return linalg.as_dense(linalg.Entries(keys[order], vals[order], (n, n)))


def _row_gram_diagonal(space: FockSpace, i: int) -> np.ndarray:
    # each right creation is injective and moves factor i's digit alone, so CC* = Phi(I)
    # is diagonal, one entry per word rank: the map's terms at I, summed in coefficient order
    acc = np.zeros(space.factor_dims[i], dtype=complex)
    for w, a in space.spec.coeffs[i].items():
        _, dst, lam = space.creation_action(i, reverse(w), side="right")
        acc[dst] += a * (lam * np.conjugate(lam))
    return acc.real


def _min_positive_gram_eig(space: FockSpace, i: int) -> float:
    """Smallest positive eigenvalue of ``C C^*`` for factor ``i``.

    ``C C^*`` is the reversed-series map at the identity, a diagonal, so its
    spectrum is :func:`_row_gram_diagonal`; eigenvalues up to ``1e-12``
    times ``max(lambda_max, 1)`` count as zero.
    """
    eigs = np.sort(_row_gram_diagonal(space, i))
    positive = eigs[eigs > 1e-12 * max(float(eigs[-1]), 1.0)]
    return float(positive[0]) if positive.size else 0.0


def _in_range_entries(space: FockSpace, i: int, matrix) -> tuple[np.ndarray, np.ndarray]:
    """The stored entries of ``Q Y Q``: those whose row and column are both nonvacuum in factor ``i``."""
    n = space.total_dim
    keys, vals = linalg.stored_entries(matrix)
    q = np.tile(space.degree_table()[:, i] > 0, space.coeff_dim)
    in_range = q[keys // n]
    in_range &= q[keys % n]
    return keys[in_range], vals[in_range]


def _residual_terms(space: FockSpace, i: int, matrix):
    # Q Y Q, then minus the alternating sum: the stored entries are read again
    # after the maps rather than held through them, and each side is made
    # only when the sum draws it
    rhs_keys, rhs_vals = accumulate_entries(_alternating_terms(space, i, *linalg.stored_entries(matrix)))
    yield _in_range_entries(space, i, matrix)
    yield rhs_keys, np.negative(rhs_vals, out=rhs_vals)


def bh_residual(T: FockOperator, i: int) -> float:
    """Residual of the factor-``i`` structural equation for ``T``.

    The equation compressed to the range of ``C^*`` is conjugated by the row
    into the equivalent base-space identity

        ``Q T Q = sum_{j=1}^{m_i} (-1)^(j-1) C(m_i, j) Phi^j(T)``

    with ``Q`` the projection onto nonvacuum factor-``i`` vectors.  The
    conjugation is injective on operators supported on that range, and
    dividing the deviation norm by the smallest positive eigenvalue of the
    row's Gram matrix upper-bounds the norm of the original compressed
    residual.  Lowering operators never leave the truncation, so the identity
    is exact on the whole truncated space.

    Both sides are computed on the stored entries of ``T``, which is never
    densified; the Frobenius norm runs over the union of their supports.
    """
    space = T.space
    if not 0 <= i < space.spec.k:
        raise DimensionMismatch(f"factor index {i} outside range")
    _, diff = accumulate_entries(_residual_terms(space, i, T.matrix))
    lam = _min_positive_gram_eig(space, i)
    if lam <= 0.0:
        raise SpecError("row Gram matrix has no positive spectrum")
    # the Frobenius norm by einsum's own loop, not BLAS ddot, which threads on
    # long inputs and then rounds by the thread count
    parts = diff.view(float)  # real and imaginary parts, interleaved
    return float(np.sqrt(np.einsum("i,i", parts, parts))) / lam


def bh_scan(T: FockOperator, tol: float = 1e-9, factors: Optional[Sequence[int]] = None) -> dict:
    """Per-factor residual report for the structural equation, over ``factors`` (0-based; all by default).

    A clean scan is labeled ``BH-consistent``: satisfying the equation is
    necessary for the weighted multi-Toeplitz class but not known to be
    sufficient, so no structural claim is made.
    """
    residuals = [bh_residual(T, i) for i in (range(T.space.spec.k) if factors is None else factors)]
    satisfied = all(r <= tol for r in residuals)
    return {
        "residuals": residuals,
        "tolerance": tol,
        "satisfied": satisfied,
        "classification": "BH-consistent" if satisfied else "BH-violated",
    }

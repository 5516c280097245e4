"""Shared numerical kernels: the stored-entry format, Hermitian eigenwork, norms, PSD tests, matrix I/O.

Everything here is deterministic; verdict paths never use randomized
initialization.  A sparse matrix is its stored entries, an :class:`Entries`
(sorted distinct row-major keys, complex values and a shape); every layer
reads a matrix's entries with :func:`stored_entries`, which also reads a
dense array and any foreign sparse matrix through its own ``tocoo()``, and
:func:`sorted_unique` and :func:`lookup` are the key arithmetic between.  A
non-finite entry gives NaN without a solver call.  The operators the checks
compare split, after a permutation, into many small blocks, and
:func:`op_norm`, :func:`psd_check` and :func:`pinv_on_range` take their
blocks from one routine by one rule: a matrix with a side of at most
``_DIRECT_SIDE`` is one block, the dense array itself; any other splits into
the connected components of its nonzero pattern, read from its stored
entries by a numpy hook-and-shortcut labeller (:func:`_components`), and
each stack of blocks of one shape takes one batched LAPACK call.
:func:`psd_check` and :func:`pinv_on_range` split at every size, refusing
with ``MemoryError`` past the dense cutoff, before any block is built,
stacks that may not fit in ``MemAvailable``; there :func:`op_norm` runs one
Lanczos iteration on the whole operator, and :func:`norm_bracket` bounds a
norm from both sides from one pass over the stored entries.  Lanczos is the
one reader of scipy here and imports it on its first call, so a run that
stays below the cutoff loads no scipy module (``notes/decisions.md``, "No
scipy below the cutoff").
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import IO, Optional, Tuple, Union

import numpy as np

from .errors import DimensionMismatch, NumericalRankError, SpecError

__all__ = [
    "Entries",
    "as_dense",
    "adjoint",
    "hermitize",
    "psd_check",
    "op_norm",
    "block_norms",
    "psd_within",
    "herm_sqrt",
    "pinv_on_range",
    "save_matrix",
    "load_matrix",
]

# past this side op_norm runs Lanczos and the block stacks are counted against MemAvailable
_DENSE_NORM_CUTOFF = 600
# a matrix with a side no longer than this is one spectral block, its dense array
_DIRECT_SIDE = 8
# entry lines parsed together by load_matrix, and the fields of one
_LOAD_BLOCK = 512
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("re", float), ("im", float)])


# -- the stored-entry format ---------------------------------------------------
# Every layer reads and writes a matrix's entries one way: sorted, distinct
# int64 row-major keys ``row * ncols + col`` with complex values in that order.


@dataclass(frozen=True, eq=False)
class Entries:
    """A sparse matrix of ``shape``: complex ``vals`` at the sorted distinct int64 row-major ``keys``.

    Explicit zeros are entries like any other.  The arrays are not copied
    in or out: no reader writes to them.
    """

    keys: np.ndarray
    vals: np.ndarray
    shape: Tuple[int, int]


# a dense array, or the stored entries of a sparse one; every reader here
# also takes a foreign sparse matrix (one with a ``tocoo()``), via _operand
MatrixLike = Union[np.ndarray, Entries]


def _operand(mat) -> MatrixLike:
    """``mat`` as an array or an :class:`Entries`: a foreign sparse matrix is read into its stored entries."""
    if isinstance(mat, Entries):
        return mat
    if hasattr(mat, "tocoo"):
        return Entries(*stored_entries(mat), mat.shape)
    return np.asarray(mat)


def as_dense(mat: MatrixLike) -> np.ndarray:
    """``mat`` as a complex array; stored entries are added to zeros, so ``-0.0`` reads ``0.0``."""
    mat = _operand(mat)
    if not isinstance(mat, Entries):
        return np.asarray(mat, dtype=complex)
    out = np.zeros(mat.shape[0] * mat.shape[1], dtype=complex)
    out[mat.keys] += mat.vals
    return out.reshape(mat.shape)


def adjoint(mat: MatrixLike) -> MatrixLike:
    mat = _operand(mat)
    if not isinstance(mat, Entries):
        return np.conj(mat).T
    rows, cols = np.divmod(mat.keys, mat.shape[1])
    moved = cols * mat.shape[0] + rows
    order = np.argsort(moved)
    return Entries(moved[order], mat.vals[order].conj(), mat.shape[::-1])


def hermitize(mat: MatrixLike) -> np.ndarray:
    """``0.5 * (m + m^*)`` of a square matrix, or of each matrix of a ``(..., r, r)`` stack."""
    m = as_dense(mat)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionMismatch(f"expected a square matrix, got {m.shape}")
    return 0.5 * (m + m.conj().swapaxes(-1, -2))


def strict_max(*values: float) -> float:
    """``max`` of ``values``, but NaN when any is NaN (``max`` drops a NaN not in first place)."""
    return math.nan if any(math.isnan(v) for v in values) else max(values)


def stored_entries(mat: MatrixLike) -> Tuple[np.ndarray, np.ndarray]:
    """The entries of ``mat`` as sorted distinct row-major keys ``row * ncols + col`` and complex values.

    An :class:`Entries` gives its own arrays, not copies: callers do not
    write to them.  A foreign sparse matrix gives its stored entries, read
    through its own ``tocoo()``, with duplicates summed in order
    (:func:`sum_by_key`) and explicit zeros kept, and is never densified; a
    dense input gives its nonzero entries.
    """
    if isinstance(mat, Entries):
        return mat.keys, mat.vals
    if hasattr(mat, "tocoo"):
        coo = mat.tocoo()
        keys, vals, _ = sum_by_key(coo.row.astype(np.int64) * mat.shape[1] + coo.col, coo.data.astype(complex))
        return keys, vals
    flat = np.asarray(mat).ravel()
    keys = np.flatnonzero(flat)
    return keys, flat[keys].astype(complex, copy=False)


def sum_by_key(keys: np.ndarray, vals: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct ``keys`` ascending, the sum of each one's ``vals`` in the order given, and where each first occurs.

    A key's first value is its start and the others are added one at a
    time, as scipy sums a CSR matrix's duplicates; a sum of zero is kept.
    Keys already distinct and ascending come back with their own values.
    """
    if np.all(keys[1:] > keys[:-1]):
        return keys, vals, np.arange(keys.size)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    start = np.flatnonzero(first)
    group = np.cumsum(first) - 1
    rank = np.arange(keys.size) - start[group]
    total = vals[order[start]]
    for r in range(1, int(rank.max(initial=0)) + 1):
        at = rank == r
        total[group[at]] += vals[order[at]]
    return keys[start], total, order[start]


def index_dtype(bound: int) -> type:
    """int32 when every index below ``bound`` fits in it, else int64."""
    return np.int32 if bound < 2**31 else np.int64


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys`` in ascending order, by a sort and a mask.

    The same array as ``np.unique(keys)``, without the hash table numpy uses
    for it, which costs many times the sort on the key counts seen here.
    """
    keys = np.sort(keys)
    keep = np.ones(keys.size, dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    return keys[keep]


def lookup(keys: np.ndarray, want: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Where each key of ``want`` sits in the sorted distinct ``keys``: ``(pos, hit)``.

    ``hit`` marks the keys found; ``pos`` is their position, and at most
    ``keys.size`` elsewhere.
    """
    pos = np.searchsorted(keys, want)
    # a key past the last one is clipped onto it, which it does not equal
    hit = keys.take(pos, mode="clip") == want if keys.size else np.zeros(pos.shape, dtype=bool)
    return pos, hit


# -- spectral blocks -------------------------------------------------------------


def _past_cutoff(shape: Tuple[int, ...]) -> bool:
    """Whether a matrix is past the dense cutoff: longest side over 600 and shortest side over 8."""
    return max(shape) > _DENSE_NORM_CUTOFF and min(shape) > _DIRECT_SIDE


def _mem_available() -> Optional[int]:
    """``MemAvailable`` of ``/proc/meminfo`` in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo") as fh:
            return next(int(line.split()[1]) * 1024 for line in fh if line.startswith("MemAvailable:"))
    except (OSError, ValueError, IndexError, StopIteration):
        return None


def _spectral_blocks(mat: MatrixLike, hermitian: bool):
    """The blocks of ``mat``, or of its Hermitian part, stacked by shape as :func:`_blocks` yields them.

    One rule: a matrix with a side of at most ``_DIRECT_SIDE`` is one block,
    the dense array itself, with no entry gathered.  Any other matrix splits
    into the connected components of the nonzero pattern of its entries
    (:func:`stored_entries`), rows and columns apart, or alike for the
    Hermitian part.  Past the dense cutoff the blocks are counted first, and
    ``MemoryError`` is raised before any stack is built when they may not fit
    in ``MemAvailable``: the stacks, and as much again plus twice the largest
    stack for LAPACK's copies and workspace or the eigenvectors a caller keeps.
    """
    n_r, n_c = mat.shape
    if min(n_r, n_c) <= _DIRECT_SIDE:
        if hermitian:
            m = hermitize(mat)
        else:
            m = as_dense(mat) if isinstance(mat, Entries) else mat
        return [(_unsigned_zeros(m[None]), np.arange(n_r)[None], np.arange(n_c)[None])]
    keys, vals = stored_entries(mat)
    if hermitian:
        # 0.5 * (a_ij + conj(a_ji)) on the union of both patterns, a missing
        # entry read as complex zero: the sum hermitize forms on the dense array
        rows, cols = np.divmod(keys, n_c)
        keys_t = cols * n_c + rows
        union = sorted_unique(np.concatenate([keys, keys_t]))
        a = np.zeros((2, union.size), dtype=complex)
        a[0, lookup(union, keys)[0]] = vals
        a[1, lookup(union, keys_t)[0]] = vals
        keys, vals = union, 0.5 * (a[0] + a[1].conj())
    nonzero = vals != 0
    rows, cols = np.divmod(keys[nonzero], n_c)
    if hermitian:
        label_r = label_c = _components(n_r, rows, cols)
    else:
        label = _components(n_r + n_c, rows, n_r + cols)
        label_r, label_c = label[:n_r], label[n_r:]
    if _past_cutoff(mat.shape):
        cells = np.bincount(label_r, minlength=n_r + n_c) * np.bincount(label_c, minlength=n_r + n_c)
        need = 2 * np.dtype(complex).itemsize * (int(cells.sum()) + int(cells.max()))
        available = _mem_available()
        if available is not None and need > available:
            raise MemoryError(
                f"the spectral blocks of a {n_r}x{n_c} matrix take up to {need} bytes, "
                f"more than the {available} bytes available"
            )
    return _blocks(rows, cols, vals[nonzero], label_r, label_c)


def _unsigned_zeros(stack: np.ndarray) -> np.ndarray:
    # + 0 turns -0.0 into 0.0, which LAPACK reads alike in a dense array and its stored entries
    return stack + 0


def _stack_norms(stack: np.ndarray) -> np.ndarray:
    # the largest singular value of each block of a (count, r, c) stack, by one batched svd
    return np.linalg.svd(stack, compute_uv=False).max(axis=-1, initial=0.0)


def block_norms(stack: np.ndarray) -> np.ndarray:
    """The dense 2-norm of each block of a finite ``(count, r, c)`` stack, by one batched ``svd``.

    The rule :func:`op_norm` applies below the cutoff to each stack of
    :func:`_spectral_blocks`, ``-0.0`` read as ``0.0``: a block with a side
    of at most 8, or with no zero entry, gets the bits ``op_norm`` gives it alone.
    """
    return _stack_norms(_unsigned_zeros(stack))


def _blocks(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, row_label: np.ndarray, col_label: np.ndarray
):
    """The blocks of a matrix, stacked by shape.

    The matrix is given by its nonzero entries ``(rows, cols, vals)``.  Block
    ``l`` is the matrix restricted to the rows and columns labelled ``l``,
    each in its original order; every nonzero entry must lie in a block.
    Blocks with no row or no column are left out.  Each shape yields
    ``(stack, row_index, col_index)``: the ``(count, r, c)`` blocks and the
    ``(count, r)`` and ``(count, c)`` original indices of their rows and
    columns.
    """
    n_blocks = int(max(row_label.max(initial=-1), col_label.max(initial=-1))) + 1
    local = []
    for label in (row_label, col_label):
        order = np.argsort(label, kind="stable")
        size = np.bincount(label, minlength=n_blocks)
        pos = np.empty(label.size, dtype=np.int64)
        pos[order] = np.arange(label.size) - np.repeat(np.cumsum(size) - size, size)
        local.append((size, pos, order))
    (n_r, local_r, order_r), (n_c, local_c, order_c) = local
    shape_id = np.where((n_r > 0) & (n_c > 0), n_r * (n_c.max(initial=0) + 1) + n_c, -1)
    entry_shape = shape_id[row_label[rows]]
    # the rows (columns) sorted by label, each block's in their original order
    sorted_r, sorted_c = shape_id[row_label[order_r]], shape_id[col_label[order_c]]
    for sid in sorted_unique(shape_id[shape_id >= 0]):
        members = np.flatnonzero(shape_id == sid)
        slot = np.empty(n_blocks, dtype=np.int64)
        slot[members] = np.arange(members.size)
        out = np.zeros((members.size, n_r[members[0]], n_c[members[0]]), dtype=vals.dtype)
        hit = entry_shape == sid
        r, c = rows[hit], cols[hit]
        out[slot[row_label[r]], local_r[r], local_c[c]] = vals[hit]
        yield (
            out,
            order_r[sorted_r == sid].reshape(out.shape[:2]),
            order_c[sorted_c == sid].reshape(out.shape[0], out.shape[2]),
        )


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Connected-component label of each of ``n`` nodes joined by the edges ``(a, b)``.

    Components are numbered by their lowest node, as scipy's
    ``connected_components`` numbers them.  Hook and shortcut (Shiloach and
    Vishkin): each round hooks every root onto the lowest root it shares an
    edge with, if that is lower, then jumps pointers until every node points
    at its root.  A parent is never above its node, so each root is the lowest
    node of its tree.  The roots that survive a round are local minima of the
    tree graph, and one with a neighbour that gained no tree is hooked in the
    next round, so the trees of a component at least halve every two rounds:
    at most ``2 * ceil(log2(n)) + 1`` passes over the edges, each followed by
    at most ``ceil(log2(n)) + 1`` jumps (``notes/decisions.md``, "Only the
    stack a run reaches").
    """
    parent = np.arange(n)
    while a.size:
        pa, pb = parent[a], parent[b]
        cross = pa != pb
        if not cross.all():
            # an edge inside one tree stays inside it
            a, b, pa, pb = a[cross], b[cross], pa[cross], pb[cross]
            if not a.size:
                break
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
    root = parent == np.arange(n)
    return (np.cumsum(root) - 1)[parent]


def _finite(mat: MatrixLike) -> bool:
    """Whether every entry (every stored entry of an :class:`Entries`) is finite."""
    data = mat.vals if isinstance(mat, Entries) else mat
    return bool(np.isfinite(data).all())


def psd_check(mat: MatrixLike, tol: float = 1e-9) -> Tuple[bool, float]:
    """Test positive semidefiniteness after Hermitizing.

    Returns ``(verdict, lambda_min)``; the verdict is true iff
    ``lambda_min >= -tol * max(1, lambda_max)``.  An input with a NaN or
    infinite entry gives ``(False, nan)`` without an eigensolver call.  The
    extreme eigenvalues are those of the Hermitian part's blocks
    (:func:`_spectral_blocks`) at every size, one batched ``eigvalsh`` per
    block shape; a row with no nonzero entry is a block, eigenvalue 0.
    """
    mat = _operand(mat)
    if len(mat.shape) != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {mat.shape}")
    if not _finite(mat):
        return False, math.nan
    if mat.shape[0] == 0:
        return True, 0.0
    lo, hi = np.inf, -np.inf
    for stack, _, _ in _spectral_blocks(mat, hermitian=True):
        eigs = np.linalg.eigvalsh(stack)
        lo, hi = min(lo, float(eigs[:, 0].min())), max(hi, float(eigs[:, -1].max()))
    return lo >= -tol * max(1.0, hi), lo


def op_norm(mat: MatrixLike) -> float:
    """Largest singular value; 0.0 for a matrix with no nonzero entry, NaN for one with a non-finite entry.

    A NaN or infinite entry (stored entry, for sparse input) gives NaN
    without an SVD or Lanczos call.  Up to the dense cutoff, or with a side
    of at most ``_DIRECT_SIDE`` at any length, the norm is the dense 2-norm,
    the largest singular value of any block of :func:`_spectral_blocks`
    (the rows and columns split into the connected components of the
    bipartite graph of the nonzero entries), one batched ``svd`` per block
    shape.  Past the cutoff every other input takes one path, so the result
    does not depend on how the operator is stored: read its stored entries,
    answer the zero matrix directly (Lanczos cannot start from it), give a
    matrix whose stored entries all sit on the diagonal its exact norm, the
    largest entry modulus, and run Lanczos (``svds`` from the all-ones
    vector) on their complex CSR matrix otherwise.
    """
    mat = _operand(mat)
    if not _finite(mat):
        return math.nan
    if not _past_cutoff(mat.shape):
        stacks = _spectral_blocks(mat, hermitian=False)
        return max((float(_stack_norms(s).max()) for s, _, _ in stacks), default=0.0)
    keys, vals = stored_entries(mat)
    if not vals.any():
        return 0.0
    rows, cols = np.divmod(keys, mat.shape[1])
    if np.array_equal(rows, cols):
        return float(np.abs(vals).max())
    # Lanczos is scipy's, imported where it runs: no run below the cutoff loads scipy
    import scipy.sparse as sp
    from scipy.sparse.linalg import svds

    # the row pointers by one search of the row starts in the keys, the index type scipy picks given up front
    indptr = np.searchsorted(keys, np.arange(mat.shape[0] + 1) * mat.shape[1])
    index = index_dtype(max(*mat.shape, keys.size))
    csr = sp.csr_matrix((vals, cols.astype(index), indptr.astype(index)), shape=mat.shape)
    v0 = np.ones(min(mat.shape))
    s = svds(csr, k=1, v0=v0, return_singular_vectors=False)
    return float(s[0])


def norm_bracket(mat: MatrixLike) -> Tuple[float, float]:
    """Bounds ``(lo, hi)`` with ``lo <= ||mat|| <= hi``, exact up to the dense cutoff.

    Up to the cutoff, or with a side of at most ``_DIRECT_SIDE``, both are
    :func:`op_norm`.  Past it both come from one pass over the stored
    entries with no BLAS call, so their bits do not depend on the thread
    count: ``hi`` is Schur's test ``sqrt(||mat||_1 ||mat||_inf)``, from the
    largest column and row sums of ``|v|``, and ``lo`` the largest row or
    column 2-norm, ``||mat e_j||`` or ``||mat^* e_i||``.  A non-finite entry
    gives ``(nan, nan)``.
    """
    if not _past_cutoff(mat.shape):
        norm = op_norm(mat)
        return norm, norm
    keys, vals = stored_entries(mat)
    if not np.isfinite(vals).all():
        return math.nan, math.nan
    rows, cols = np.divmod(keys, mat.shape[1])
    mag = np.abs(vals)
    sq = mag * mag
    row_sum, col_sum, row_sq, col_sq = (
        float(np.bincount(index, weights=w).max(initial=0.0))
        for index, w in ((rows, mag), (cols, mag), (rows, sq), (cols, sq))
    )
    return math.sqrt(max(row_sq, col_sq)), math.sqrt(row_sum * col_sum)


def psd_within(lo, hi, tol: float) -> bool:
    """Whether every ``lo >= -tol * (1 + max(hi, 0))``: the membership rule on eigenvalue bounds.

    ``lo`` and ``hi`` are the smallest and largest eigenvalues of one matrix,
    or arrays of them for a stack.  A NaN bound fails.
    """
    return bool(np.all(lo >= -tol * (1.0 + np.maximum(hi, 0.0))))


def herm_sqrt(mat: MatrixLike, tol: float = 1e-9) -> np.ndarray:
    """Hermitian square root via eigendecomposition.

    An input that :func:`psd_within` accepts at ``tol`` has its negative
    eigenvalues clamped to zero, so every defect that membership accepts at
    ``tol`` has a root; anything more negative is a genuine failure and
    raises.
    """
    h = hermitize(mat)
    eigs, vecs = np.linalg.eigh(h)
    if eigs.size and not psd_within(eigs[0], eigs[-1], tol):
        raise SpecError(
            f"herm_sqrt input is not PSD: min eigenvalue {eigs[0]:.3e} below -{tol:.1e}*(1 + max eigenvalue)"
        )
    clipped = np.clip(eigs, 0.0, None)
    return (vecs * np.sqrt(clipped)) @ vecs.conj().T


def pinv_on_range(mat: MatrixLike, rank_tol: float = 1e-12) -> Entries:
    """Pseudo-inverse of a Hermitian PSD matrix, restricted to its range.

    Eigenvalues <= ``rank_tol * lambda_max`` count as kernel.  An eigenvalue
    within a factor of 10 of the cutoff (on either side) is ambiguous and
    raises :class:`NumericalRankError`; an input with a NaN or infinite entry
    raises :class:`SpecError` without an eigensolver call.

    The Hermitian part is split by :func:`_spectral_blocks` at every size; a
    row with no nonzero entry is a 1x1 block with the eigenvalue 0.  Each
    block shape takes one batched ``eigh``.  ``lambda_max``, the cutoff
    and the ambiguity rule run over the eigenvalues of all blocks, and the
    pseudo-inverse is assembled block by block as stored entries, whatever
    the input's storage.
    """
    mat = _operand(mat)
    if len(mat.shape) != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {mat.shape}")
    n = mat.shape[0]
    if not _finite(mat):
        raise SpecError("pinv_on_range input has a non-finite entry")
    parts = [(*np.linalg.eigh(stack), r, c) for stack, r, c in _spectral_blocks(mat, hermitian=True)]
    lam_max = max((float(eigs.max(initial=0.0)) for eigs, _, _, _ in parts), default=0.0)
    keys, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=complex)]
    if lam_max > 0.0:
        cut = rank_tol * lam_max
        eigs = np.concatenate([e.ravel() for e, _, _, _ in parts])
        ambiguous = (np.abs(eigs) > cut / 10.0) & (np.abs(eigs) < cut * 10.0)
        if np.any(ambiguous):
            worst = float(eigs[ambiguous].min())
            raise NumericalRankError(
                f"eigenvalue {worst:.3e} within x10 of rank cutoff {cut:.3e}"
            )
        for eigs, vecs, r, c in parts:
            keep = eigs > cut
            if keep.any():
                inv = np.where(keep, 1.0 / np.where(keep, eigs, 1.0), 0.0)
                block = (vecs * inv[:, None, :]) @ vecs.conj().swapaxes(1, 2)
                keys.append((r[:, :, None] * n + c[:, None, :]).ravel())
                vals.append(block.ravel())
    keys, vals = np.concatenate(keys), np.concatenate(vals)
    order = np.argsort(keys)
    return Entries(keys[order], vals[order], (n, n))


def save_matrix(fh: IO[str], mat: MatrixLike) -> None:
    """Write the coordinate text format: header ``rows cols nnz``, lines ``row col re im``.

    Indices are 0-based; values carry 17 significant digits so a round-trip
    is lossless in double precision.  The lines are the :func:`stored_entries`
    of ``mat``, in key order.
    """
    keys, vals = stored_entries(mat)
    rows, cols = np.divmod(keys, mat.shape[1])
    fh.write(f"{mat.shape[0]} {mat.shape[1]} {keys.size}\n")
    for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        fh.write(f"{r} {c} {v.real:.17g} {v.imag:.17g}\n")


def load_matrix(fh: IO[str]) -> Entries:
    """Read the coordinate text format written by :func:`save_matrix`.

    Entry lines are parsed a block at a time by one ``np.loadtxt`` call, with
    the values of ``float(re) + 1j * float(im)``; lines after the ``nnz``-th
    are ignored.  A block that does not parse is checked line by line only
    then: a missing line, or one without exactly four fields, raises
    :class:`DimensionMismatch` with its line number, anything else the
    parser's ``ValueError``.  A ``(row, col)`` given on several lines holds
    their sum, added in file order (:func:`sum_by_key`); explicit zeros are
    kept.  Raises :class:`SpecError` on a NaN or infinite value, including
    one that overflows to infinity when parsed, and on a sum of lines that
    overflows, named by the first of its lines.
    """
    header = fh.readline().split()
    if len(header) != 3:
        raise DimensionMismatch("matrix file: malformed header (want 'rows cols nnz')")
    try:
        rows, cols, nnz = (int(x) for x in header)
    except ValueError as exc:
        raise DimensionMismatch(f"matrix file: bad header {header!r}") from exc
    if min(rows, cols, nnz) < 0:
        raise DimensionMismatch(f"matrix file: bad header {header!r}: a negative count")
    rr = np.empty(nnz, dtype=np.int64)
    cc = np.empty(nnz, dtype=np.int64)
    vv = np.empty(nnz, dtype=complex)
    # blocks of lines bound the memory held by the text
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a block without data; reported below
        for start in range(0, nnz, _LOAD_BLOCK):
            count = min(_LOAD_BLOCK, nnz - start)
            lines = list(itertools.islice(fh, count))
            try:
                entries = np.loadtxt(lines, dtype=_ENTRY, comments=None, ndmin=1)
            except ValueError:
                _check_entry_lines(lines, count, start)
                raise
            if entries.size != count:  # blank lines parse to nothing
                _check_entry_lines(lines, count, start)
            block = slice(start, start + count)
            rr[block] = entries["row"]
            cc[block] = entries["col"]
            with np.errstate(invalid="ignore"):  # 1j * inf makes a NaN, rejected below
                vv[block] = entries["re"] + 1j * entries["im"]
    if nnz and (rr.max() >= rows or cc.max() >= cols or rr.min() < 0 or cc.min() < 0):
        raise DimensionMismatch("matrix file: entry index outside declared shape")
    bad = np.flatnonzero(~np.isfinite(vv))
    if bad.size:
        raise SpecError(f"matrix file: non-finite value {vv[bad[0]]} on line {bad[0] + 2}")
    with np.errstate(over="ignore"):  # a sum past the largest double is inf, rejected below
        keys, vals, first = sum_by_key(rr * cols + cc, vv)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        at = bad[np.argmin(first[bad])]
        raise SpecError(f"matrix file: non-finite value {vals[at]} on line {first[at] + 2}")
    return Entries(keys, vals, (rows, cols))


def _check_entry_lines(lines: list[str], count: int, start: int) -> None:
    """Raise :class:`DimensionMismatch` at the first of ``count`` entry lines that is missing or not four fields."""
    for j in range(count):
        if j >= len(lines) or len(lines[j].split()) != 4:
            raise DimensionMismatch(f"matrix file: malformed entry line {start + j + 2}")

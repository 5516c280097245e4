"""Shared numerical kernels: Hermitian eigenwork, norms, PSD tests, matrix I/O.

Everything here is deterministic; verdict paths never use randomized
initialization.  Sparse inputs (scipy COO/CSR) are accepted; the block
split reads their stored entries, and they are densified only where a
whole-matrix eigensolver needs them.  A non-finite entry gives NaN without a
solver call.  The operators the checks compare split,
after a permutation, into many small blocks, so up to the dense cutoff
:func:`op_norm` and :func:`psd_check` answer block by block: the connected
components of the nonzero pattern are stacked by shape and each stack takes
one batched LAPACK call.  Inputs with a side of at most ``_DIRECT_SIDE``
take one direct dense call, and above the cutoff :func:`op_norm` runs one
Lanczos iteration on the whole operator.  :func:`pinv_on_range` splits at
every size: a Gram matrix ``C^* C`` of a row whose columns each move one
basis vector is block diagonal by target vector, so its pseudo-inverse is
assembled block by block and returned in the input's kind.
"""

from __future__ import annotations

import itertools
import math
import warnings
from typing import IO, Tuple, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg

from .errors import DimensionMismatch, NumericalRankError, SpecError

__all__ = [
    "as_dense",
    "adjoint",
    "hermitize",
    "psd_check",
    "op_norm",
    "herm_sqrt",
    "pinv_on_range",
    "save_matrix",
    "load_matrix",
]

MatrixLike = Union[np.ndarray, sp.spmatrix]

# dense 2-norm block by block up to this size, Lanczos above
_DENSE_NORM_CUTOFF = 600
# inputs with a side no longer than this take one direct dense call
_DIRECT_SIDE = 8
# entry lines parsed together by load_matrix, and the fields of one
_LOAD_BLOCK = 512
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("re", float), ("im", float)])


def as_dense(mat: MatrixLike) -> np.ndarray:
    if sp.issparse(mat):
        return np.asarray(mat.todense(), dtype=complex)
    return np.asarray(mat, dtype=complex)


def adjoint(mat: MatrixLike) -> MatrixLike:
    if sp.issparse(mat):
        return mat.conj().T
    return np.conj(mat).T


def hermitize(mat: MatrixLike) -> np.ndarray:
    m = as_dense(mat)
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {m.shape}")
    return 0.5 * (m + m.conj().T)


def _split(shape: Tuple[int, ...]) -> bool:
    """Whether a matrix of this shape is answered block by block."""
    return min(shape) > _DIRECT_SIDE and max(shape) <= _DENSE_NORM_CUTOFF


def _nonzero_entries(mat: MatrixLike) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, columns and values of the nonzero entries, in row-major order.

    A sparse input is read from its stored entries (duplicates summed,
    values complex as :func:`as_dense` gives them), never densified.
    """
    if sp.issparse(mat):
        coo = sp.coo_matrix(mat)
        coo.sum_duplicates()
        vals = coo.data.astype(complex)
        keep = vals != 0
        return coo.row[keep], coo.col[keep], vals[keep]
    m = np.asarray(mat)
    rows, cols = np.nonzero(m)
    return rows, cols, m[rows, cols]


def _hermitian_entries(mat: MatrixLike) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_nonzero_entries` of ``hermitize(mat)`` for a sparse square input, from its stored entries.

    Each entry is ``0.5 * (a_ij + conj(a_ji))`` with a missing entry read as
    complex zero, the sum :func:`hermitize` forms on the dense array.
    """
    n = mat.shape[0]
    coo = sp.coo_matrix(mat)
    coo.sum_duplicates()
    keys = coo.row.astype(np.int64) * n + coo.col
    keys_t = coo.col.astype(np.int64) * n + coo.row
    # the sorted union of both patterns, by a sort and a mask
    union = np.sort(np.concatenate([keys, keys_t]))
    first = np.ones(union.size, dtype=bool)
    first[1:] = union[1:] != union[:-1]
    union = union[first]
    a = np.zeros(union.size, dtype=complex)
    a_t = np.zeros(union.size, dtype=complex)
    a[np.searchsorted(union, keys)] = coo.data
    a_t[np.searchsorted(union, keys_t)] = coo.data
    h = 0.5 * (a + a_t.conj())
    keep = h != 0
    rows, cols = np.divmod(union[keep], n)
    return rows, cols, h[keep]


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
    for sid in np.unique(shape_id[shape_id >= 0]):
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
    """Connected-component label of each of ``n`` nodes joined by the edges ``(a, b)``."""
    from scipy.sparse.csgraph import connected_components

    graph = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def _finite(mat: MatrixLike) -> bool:
    """Whether every entry (every stored entry of a sparse input) is finite."""
    data = mat.data if sp.issparse(mat) else mat
    return bool(np.isfinite(data).all())


def psd_check(mat: MatrixLike, tol: float = 1e-9) -> Tuple[bool, float]:
    """Test positive semidefiniteness after Hermitizing.

    Returns ``(verdict, lambda_min)``; the verdict is true iff
    ``lambda_min >= -tol * max(1, lambda_max)``.  An input with a NaN or
    infinite entry gives ``(False, nan)`` without an eigensolver call.  Up to
    the dense cutoff, with more than ``_DIRECT_SIDE`` rows, the Hermitian
    part is split into the connected blocks of its nonzero pattern and the
    extreme eigenvalues are those of the blocks, one batched ``eigvalsh`` per
    block shape; a row with no nonzero entry is a block of its own, with the
    eigenvalue 0.  A sparse input's Hermitian part is then formed on its
    stored entries.
    """
    if not sp.issparse(mat):
        mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {mat.shape}")
    if not _finite(mat):
        return False, math.nan
    if mat.shape[0] == 0:
        return True, 0.0
    if _split(mat.shape):
        if sp.issparse(mat):
            rows, cols, vals = _hermitian_entries(mat)
        else:
            rows, cols, vals = _nonzero_entries(hermitize(mat))
        label = _components(mat.shape[0], rows, cols)
        lo, hi = np.inf, -np.inf
        for stack, _, _ in _blocks(rows, cols, vals, label, label):
            eigs = np.linalg.eigvalsh(stack)
            lo, hi = min(lo, float(eigs[:, 0].min())), max(hi, float(eigs[:, -1].max()))
    else:
        eigs = np.linalg.eigvalsh(hermitize(mat))
        lo, hi = float(eigs[0]), float(eigs[-1])
    return lo >= -tol * max(1.0, hi), lo


def op_norm(mat: MatrixLike) -> float:
    """Largest singular value; 0.0 for a matrix with no nonzero entry, NaN for one with a non-finite entry.

    A NaN or infinite entry (stored entry, for sparse input) gives NaN
    without an SVD or Lanczos call.  Up to the dense cutoff, or with a side
    of at most ``_DIRECT_SIDE`` at any length, the norm is the dense 2-norm,
    taken directly for a side of at most ``_DIRECT_SIDE`` and block by block
    otherwise: the rows and columns are split into the connected components
    of the bipartite graph of the nonzero entries (a sparse input's stored
    entries), and the norm is the largest singular value of any block, one
    batched ``svd`` per block shape.  Above the cutoff, with both sides
    longer than ``_DIRECT_SIDE``, every input takes one path, so the result
    does not depend on how the operator is stored: convert to CSR, answer the
    zero matrix directly (Lanczos cannot start from it), give a matrix whose
    stored entries all sit on the diagonal its exact norm, the largest entry
    modulus, and run Lanczos (``svds`` from the all-ones vector) otherwise.
    """
    if max(mat.shape) > _DENSE_NORM_CUTOFF and min(mat.shape) > _DIRECT_SIDE:
        csr = sp.csr_matrix(mat)
        if not _finite(csr):
            return math.nan
        if csr.count_nonzero() == 0:
            return 0.0
        coo = csr.tocoo()
        coo.sum_duplicates()
        if np.array_equal(coo.row, coo.col):
            return float(np.abs(coo.data).max())
        v0 = np.ones(min(mat.shape))
        s = scipy.sparse.linalg.svds(
            csr.astype(complex), k=1, v0=v0, return_singular_vectors=False
        )
        return float(s[0])
    if not _finite(mat):
        return math.nan
    if not _split(mat.shape):
        m = as_dense(mat) if sp.issparse(mat) else np.asarray(mat)
        return float(np.linalg.norm(m, 2)) if m.any() else 0.0
    rows, cols, vals = _nonzero_entries(mat)
    if not vals.size:
        return 0.0
    n_r = mat.shape[0]
    label = _components(n_r + mat.shape[1], rows, n_r + cols)
    return max(
        float(np.linalg.svd(stack, compute_uv=False).max())
        for stack, _, _ in _blocks(rows, cols, vals, label[:n_r], label[n_r:])
    )


def herm_sqrt(mat: MatrixLike) -> np.ndarray:
    """Hermitian square root via eigendecomposition.

    Eigenvalues in ``[-1e-10*scale, 0)``, with ``scale = max(1, lambda_max)``,
    are clamped to zero; anything more negative is a genuine failure and
    raises.
    """
    h = hermitize(mat)
    eigs, vecs = np.linalg.eigh(h)
    scale = max(1.0, float(eigs[-1])) if eigs.size else 1.0
    if eigs.size and eigs[0] < -1e-10 * scale:
        raise SpecError(
            f"herm_sqrt input is not PSD: min eigenvalue {eigs[0]:.3e} below -1.0e-10*scale"
        )
    clipped = np.clip(eigs, 0.0, None)
    return (vecs * np.sqrt(clipped)) @ vecs.conj().T


def pinv_on_range(mat: MatrixLike, rank_tol: float = 1e-12) -> MatrixLike:
    """Pseudo-inverse of a Hermitian PSD matrix, restricted to its range.

    Eigenvalues <= ``rank_tol * lambda_max`` count as kernel.  An eigenvalue
    within a factor of 10 of the cutoff (on either side) is ambiguous and
    raises :class:`NumericalRankError`; an input with a NaN or infinite entry
    raises :class:`SpecError` without an eigensolver call.

    The Hermitian part (a sparse input's formed on its stored entries) is
    split, at any size with a side longer than ``_DIRECT_SIDE``, into the
    connected blocks of its nonzero pattern; a smaller input is one block,
    and a row with no nonzero entry is a 1x1 block with the eigenvalue 0.
    Each block shape takes one batched ``eigh``.  ``lambda_max``, the cutoff
    and the ambiguity rule run over the eigenvalues of all blocks, and the
    pseudo-inverse is assembled block by block: CSR for a sparse input, a
    dense array otherwise, complex either way.
    """
    sparse = sp.issparse(mat)
    if not sparse:
        mat = np.asarray(mat)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got {mat.shape}")
    n = mat.shape[0]
    if not _finite(mat):
        raise SpecError("pinv_on_range input has a non-finite entry")
    rows, cols, vals = _hermitian_entries(mat) if sparse else _nonzero_entries(hermitize(mat))
    label = _components(n, rows, cols) if n > _DIRECT_SIDE else np.zeros(n, dtype=np.int64)
    parts = [(*np.linalg.eigh(stack), r, c) for stack, r, c in _blocks(rows, cols, vals, label, label)]
    lam_max = max((float(eigs[:, -1].max()) for eigs, _, _, _ in parts), default=0.0)
    entries = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=complex))]
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
                entries.append((
                    np.broadcast_to(r[:, :, None], block.shape).ravel(),
                    np.broadcast_to(c[:, None, :], block.shape).ravel(),
                    block.ravel(),
                ))
    out_r, out_c, out_v = (np.concatenate(part) for part in zip(*entries))
    if sparse:
        return sp.csr_matrix((out_v, (out_r, out_c)), shape=(n, n))
    out = np.zeros((n, n), dtype=complex)
    out[out_r, out_c] = out_v
    return out


def save_matrix(fh: IO[str], mat: MatrixLike) -> None:
    """Write the coordinate text format: header ``rows cols nnz``, lines ``row col re im``.

    Indices are 0-based; values carry 17 significant digits so a round-trip
    is lossless in double precision.
    """
    coo = sp.coo_matrix(mat)
    coo.sum_duplicates()
    fh.write(f"{coo.shape[0]} {coo.shape[1]} {coo.nnz}\n")
    for r, c, v in zip(coo.row, coo.col, coo.data):
        v = complex(v)
        fh.write(f"{r} {c} {v.real:.17g} {v.imag:.17g}\n")


def load_matrix(fh: IO[str]) -> sp.coo_matrix:
    """Read the coordinate text format written by :func:`save_matrix`.

    Entry lines are parsed a block at a time by one ``np.loadtxt`` call, with
    the values of ``float(re) + 1j * float(im)``; lines after the ``nnz``-th
    are ignored.  A block that does not parse is checked line by line only
    then: a missing line, or one without exactly four fields, raises
    :class:`DimensionMismatch` with its line number, anything else the
    parser's ``ValueError``.  Raises :class:`SpecError` on a NaN or infinite
    value, including one that overflows to infinity when parsed.
    """
    header = fh.readline().split()
    if len(header) != 3:
        raise DimensionMismatch("matrix file: malformed header (want 'rows cols nnz')")
    try:
        rows, cols, nnz = (int(x) for x in header)
    except ValueError as exc:
        raise DimensionMismatch(f"matrix file: bad header {header!r}") from exc
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
    return sp.coo_matrix((vv, (rr, cc)), shape=(rows, cols))


def _check_entry_lines(lines: list[str], count: int, start: int) -> None:
    """Raise :class:`DimensionMismatch` at the first of ``count`` entry lines that is missing or not four fields."""
    for j in range(count):
        if j >= len(lines) or len(lines[j].split()) != 4:
            raise DimensionMismatch(f"matrix file: malformed entry line {start + j + 2}")

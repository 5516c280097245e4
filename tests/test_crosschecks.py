"""Independent slow-path oracles for the vectorized verification routines.

Each test recomputes a quantity from first definitions (explicit loops over
basis pairs, literal Kronecker sandwiches, the uncompressed structural
equation) and compares against the fast implementation.  The dense
``(dim, dim)`` comparability tables, classification, structural-equation
residual and universal-model completely positive maps (matrix products,
defects from the identity), and the word-by-word construction layer (dict
weight tables, per-column creations, monomials as products of creation
matrices, operators as sums of sparse monomials) that the index-array
implementations replaced are kept here as oracles; so are the dense symbol
and grading layer (a dense scatter of monomials for the model evaluation,
dense ``(dim, dim)`` degree masks and window weights for the homogeneous
parts, their support and the windowed reconstruction), and the
classification and extraction over the arrays of every comparable pair that
the stored-entry classifier replaced, and the class positions and monomial
entries read off those arrays that the class arithmetic of ``FockSpace``
replaced.  The line-splitting operator file
parser and the ``Word``-keyed dict tables that the one-call block parser and
the rank views replaced are oracles too.  The arithmetic per entry is
unchanged, so they must agree exactly.  So must the per-word completely
positive maps and Berezin rows, the per-point membership test, the
per-radius symbol evaluation and the split-per-part decomposition that the
batched small-tuple passes, the cached symbol layout and the one-pass
grading replaced, down to signed zeros, and so must the word-keyed symbol
(``oracles.DictSymbol``) that the class-id ``FourierSymbol`` replaced, in
its draw, its evaluation and the order of its JSON terms; the scaled-tuple bisection must
return the same tuple bits as the one on defect polynomials.  The
whole-matrix dense SVD and ``eigvalsh`` that the block-by-block ``op_norm`` and ``psd_check`` replaced
are oracles within a few rounding errors, since a block rounds differently
from the whole matrix; so is the whole-matrix ``eigh`` pseudo-inverse that
the block-by-block ``pinv_on_range`` replaced, and the dense Cauchy dual
built on it.  scipy's ``connected_components``, which the numpy labeller of
the blocks replaced, must give the same labels.
"""

import io
import itertools
import json
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st
from scipy.sparse.csgraph import connected_components

from polytoeplitz.brownhalmos import (
    _alternating_terms,
    _min_positive_gram_eig,
    bh_residual,
    build_row,
    cauchy_dual_projection,
    range_projection,
)
from polytoeplitz.cli import _spoiled
from polytoeplitz.cpmaps import (
    OperatorTuple,
    UniversalModel,
    _defect_walk,
    berezin_kernel,
    berezin_transform,
    defect,
    is_member,
    is_pure,
    phi_map,
    random_pure_tuple,
)
from polytoeplitz.freemonoid import (
    IndexPair,
    MultiWord,
    RankMap,
    Word,
    enumerate_words,
    reverse,
)
from polytoeplitz.errors import (
    DimensionMismatch,
    NumericalRankError,
    PolytoeplitzError,
    SpecError,
    TruncationError,
)
from polytoeplitz.linalg import (
    as_dense,
    herm_sqrt,
    hermitize,
    load_matrix,
    lookup,
    norm_bracket,
    op_norm,
    pinv_on_range,
    psd_check,
)
from polytoeplitz.model import FockOperator, FockSpace, accumulate_entries, monomial
from polytoeplitz import brownhalmos as brownhalmos_module
from polytoeplitz import linalg as linalg_module
from polytoeplitz.sampling import random_spec
from polytoeplitz.toeplitz import (
    FourierSymbol,
    ToeplitzReport,
    cesaro_reconstruct,
    evaluate_at_model,
    extract_fourier,
    is_multi_toeplitz,
    pluriharmonic_kernel,
    random_symbol,
    symbol_from_json,
    symbol_to_json,
    _plus_adjoint,
)
from polytoeplitz.weights import PolydomainSpec, build_weight_table

from conftest import make_spec
from oracles import (
    DictSymbol,
    accumulate_entries as oracle_accumulate_entries,
    cauchy_dual,
    comparable,
    csr,
    dict_evaluate_at_model,
    dict_random_symbol,
    graded_projection,
    homogeneous_decomposition,
    identity_row_gram_diagonal,
    lifted_action,
    model_matrices,
    multi_word_op,
    pair_coefficients,
    per_entry_cesaro_reconstruct,
    per_word_tail_bound,
    phi_right,
    scipy_build_row,
    scipy_cauchy_dual_projection,
    simplify,
    tau,
    word_op,
)


def same_bits(a, b):
    """Whether two arrays have the same shape and the same bits, signed zeros and NaN payloads included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.uint8), b.view(np.uint8))


def dict_order_one_table(cmap, n, trunc):
    """Order-1 weights by the suffix recursion, one word at a time."""
    max_deg = max(len(w) for w in cmap)
    out = {}
    for w in enumerate_words(n, trunc):
        if len(w) == 0:
            out[w] = 1.0
            continue
        acc = 0.0
        for cut in range(max(0, len(w) - max_deg), len(w)):
            a = cmap.get(Word(w.letters[cut:], n))
            if a:
                acc += out[Word(w.letters[:cut], n)] * a
        out[w] = acc
    return out


def dict_word_convolve(u, v, n, trunc):
    """``(u * v)[alpha]``: the sum over splittings ``alpha = alpha' alpha''``, one word at a time."""
    out = {}
    for w in enumerate_words(n, trunc):
        acc = 0.0
        for cut in range(len(w) + 1):
            acc += u[Word(w.letters[:cut], n)] * v[Word(w.letters[cut:], n)]
        out[w] = acc
    return out


def dict_weight_tables(spec, trunc):
    tables = []
    for i in range(spec.k):
        b1 = dict_order_one_table(spec.coeffs[i], spec.n[i], trunc[i])
        bm = b1
        for _ in range(spec.m[i] - 1):
            bm = dict_word_convolve(b1, bm, spec.n[i], trunc[i])
        tables.append(bm)
    return tables


def per_column_factor_creation(space, i, word, side):
    """The factor-``i`` creation built column by column from word concatenation."""
    ws = space.factor_words[i]
    index = RankMap(space.factor_words[i])
    b = space.weights.tables[i]
    rows, cols, vals = [], [], []
    for col, gamma in enumerate(ws):
        letters = word.letters + gamma.letters if side == "left" else gamma.letters + reverse(word).letters
        target = Word(letters, word.alphabet_size)
        pos = index.get(target)
        if pos is None:
            continue
        rows.append(pos)
        cols.append(col)
        vals.append(math.sqrt(b[gamma] / b[target]))
    d = space.factor_dims[i]
    return sp.csr_matrix((np.asarray(vals, dtype=complex), (rows, cols)), shape=(d, d))


def ampliated_creation(space, i, word, side):
    """``I_c (x) I_before (x) per_column_factor_creation (x) I_after``, as CSR."""
    before = space.coeff_dim * math.prod(space.factor_dims[:i])
    after = math.prod(space.factor_dims[i + 1 :])
    lam = per_column_factor_creation(space, i, word, side)
    return sp.kron(sp.kron(sp.identity(before), lam, format="csr"), sp.identity(after), format="csr")


def product_monomial(space, pair, A):
    """``A (x) W_left W_right^*`` as Kronecker and matrix products of per-column creations."""
    def creation(w):
        out = per_column_factor_creation(space, 0, w.parts[0], "left")
        for i in range(1, len(w.parts)):
            out = sp.kron(out, per_column_factor_creation(space, i, w.parts[i], "left"), format="csr")
        return sp.csr_matrix(out)

    A = np.atleast_2d(np.asarray(A, dtype=complex))
    fock = sp.csr_matrix(creation(pair.left) @ creation(pair.right).conj().T)
    if space.coeff_dim == 1:
        return complex(A[0, 0]) * fock
    return sp.kron(sp.csr_matrix(A), fock, format="csr")


def sparse_sum_evaluate_at_model(sym: DictSymbol, r):
    """``sum r^{|s|} A (x) W_left W_right^*`` as a sum of sparse product monomials, densified."""
    space = sym.space
    acc = None
    for pair in sym.support():
        term = (r ** pair.total_weight) * product_monomial(space, pair, sym.coefficients[pair])
        acc = term if acc is None else acc + term
    if acc is None:
        return np.zeros((space.total_dim, space.total_dim), dtype=complex)
    return as_dense(acc)


def dense_scatter_evaluate_at_model(sym: DictSymbol, r):
    """``sum r^{|s|} A (x) W_left W_right^*`` scattered term by term into a dense array."""
    space = sym.space
    n = space.total_dim
    out = np.zeros((n, n), dtype=complex)
    for pair in sym.support():
        term = monomial(space, pair, sym.coefficients[pair]).matrix.tocoo()
        out[term.row, term.col] = (r ** pair.total_weight) * term.data
    return out


def dense_degree_gap(space, i):
    """``(dim, dim)`` factor-``i`` degree of the row word minus that of the column word."""
    degs = space.degree_table()
    return degs[:, i][:, None] - degs[None, :, i]


def dense_mask_homogeneous_part(T, s):
    """The degree-``s`` part as ``T`` times a dense 0/1 degree mask."""
    space = T.space
    mask = np.ones((space.dim, space.dim), dtype=bool)
    for i, si in enumerate(s):
        mask &= dense_degree_gap(space, i) == si
    c = space.coeff_dim
    return T.dense * np.kron(np.ones((c, c)), mask)


def dense_homogeneous_support(T, tol=0.0):
    """Degree gaps of the basis pairs whose largest coefficient-block entry exceeds ``tol``."""
    space = T.space
    degs = space.degree_table()
    c = space.coeff_dim
    mags = np.abs(T.dense).reshape(c, space.dim, c, space.dim).max(axis=(0, 2))
    rows, cols = np.nonzero(mags > tol)
    return sorted({tuple(int(x) for x in degs[r] - degs[q]) for r, q in zip(rows, cols)})


def dense_cesaro_reconstruct(T, N, fejer_weights=True):
    """``T`` times the dense ``(dim, dim)`` product of per-factor window weights."""
    space = T.space
    weight = np.ones((space.dim, space.dim), dtype=float)
    for i, Ni in enumerate(N):
        diff = np.abs(dense_degree_gap(space, i))
        if fejer_weights:
            weight *= np.maximum(0.0, 1.0 - diff / (Ni + 1.0))
        else:
            weight *= (diff <= Ni).astype(float)
    c = space.coeff_dim
    return T.dense * np.kron(np.ones((c, c)), weight)


def dense_factor_pair_tables(space, i):
    """Dense per-factor comparability, entry weight and reduced-pair id by the definition."""
    ws = space.factor_words[i]
    count = len(ws)
    b = space.weights.tables[i]
    comp = np.zeros((count, count), dtype=bool)
    tau_ = np.zeros((count, count), dtype=float)
    jid = np.full((count, count), -1, dtype=np.int64)
    letters = [w.letters for w in ws]
    index = RankMap(space.factor_words[i])
    n = space.spec.n[i]
    for x in range(count):
        lx = letters[x]
        bx = b[ws[x]]
        for y in range(count):
            ly = letters[y]
            if len(lx) >= len(ly):
                if len(ly) == 0 or lx[len(lx) - len(ly):] == ly:
                    # omega >=_r gamma: reduced pair (quotient, e)
                    quotient = Word(lx[: len(lx) - len(ly)], n)
                    comp[x, y] = True
                    tau_[x, y] = math.sqrt(b[ws[y]] / bx)
                    jid[x, y] = index[quotient]
            elif ly[len(ly) - len(lx):] == lx:
                # gamma >_r omega: reduced pair (e, quotient)
                quotient = Word(ly[: len(ly) - len(lx)], n)
                comp[x, y] = True
                tau_[x, y] = math.sqrt(bx / b[ws[y]])
                jid[x, y] = count + index[quotient] - 1
    return comp, tau_, jid, 2 * count - 1


def dense_pair_tables(space):
    """Dense ``(dim, dim)`` ``comp``/``tau``/``cls`` as Kronecker products of the factor tables."""
    comp, tau_, cls = None, None, None
    for i in range(space.spec.k):
        c_i, t_i, j_i, ncls_i = dense_factor_pair_tables(space, i)
        if comp is None:
            comp, tau_, cls = c_i, t_i, j_i
        else:
            comp = (comp[:, None, :, None] & c_i[None, :, None, :]).reshape(
                comp.shape[0] * c_i.shape[0], -1
            )
            tau_ = (tau_[:, None, :, None] * t_i[None, :, None, :]).reshape(comp.shape)
            cls = (cls[:, None, :, None] * ncls_i + j_i[None, :, None, :]).reshape(comp.shape)
    return comp, np.where(comp, tau_, 0.0), np.where(comp, cls, -1)


def reported_scaling(T, scaling, structural, tol):
    """``(least, most)`` bounds on ``scaling / max(1, ||T||)`` as a report settles it.

    Both are the exact-norm value, unless the norm bracket ``lo <= ||T|| <=
    hi`` settles which check is worst and the verdict; then they are
    ``scaling / max(1, hi)`` and ``scaling / max(1, lo)``, and the report
    gives the second.  Up to the dense cutoff the bracket is the exact norm
    (notes/decisions.md, "The verdict from a norm bracket").
    """
    exact = scaling / max(1.0, op_norm(T.matrix))
    lo, hi = norm_bracket(T.matrix)
    least, most = scaling / max(1.0, hi), scaling / max(1.0, lo)
    bound = max(structural, 0.0)
    if not math.isfinite(hi) or least <= bound < most or (structural <= tol and least <= tol < most):
        return exact, exact
    return least, most


def dense_classification(T, tol=1e-10):
    """The classification over the dense tables and the dense block array of ``T``."""
    space = T.space
    ps = space.pair_structure()
    comp, tau_, cls = dense_pair_tables(space)
    E = T.blocks()
    structural = 0.0
    worst = None
    if np.any(~comp):
        mags = np.abs(E).max(axis=(0, 1)) * ~comp
        structural = float(mags.max())
        if structural > 0.0:
            r, c = np.unravel_index(int(np.argmax(mags)), mags.shape)
            worst = (space.multiword_at(int(r)), space.multiword_at(int(c)))
    ratio = np.where(comp, tau_ / ps.tau_rep[cls], 0.0)
    expected = ratio[None, None, :, :] * E[:, :, ps.rep_row[cls], ps.rep_col[cls]]
    dev = np.abs(E - expected).max(axis=(0, 1)) * comp
    scaling = float(dev.max())
    least, most = reported_scaling(T, scaling, structural, tol)
    if least > structural and scaling > 0.0:
        r, c = np.unravel_index(int(np.argmax(dev)), dev.shape)
        worst = (space.multiword_at(int(r)), space.multiword_at(int(c)))
    max_violation = max(structural, most)
    return ToeplitzReport(
        verdict=bool(max_violation <= tol),
        max_violation=max_violation,
        worst_pair=worst if max_violation > 0.0 else None,
        checked_pairs=space.dim * space.dim,
        structural_violation=structural,
        scaling_violation=scaling,
        tolerance=tol,
    ).to_dict()


def pair_positions(ps, rows, cols):
    """Position of each basis pair in the pair arrays, -1 where not comparable."""
    dim = ps.space.dim
    want = np.asarray(rows, dtype=np.int64) * dim + np.asarray(cols, dtype=np.int64)
    pos, hit = lookup(ps.rows * dim + ps.cols, want)
    return np.where(hit, pos, -1)


def pair_array_classification(T, tol=1e-10):
    """The classification over the pair structure's arrays of every comparable pair.

    Returns the report dict and the ``(c, c, n_pairs)`` coefficient blocks
    of ``T`` at the comparable pairs, the input of
    :func:`pair_array_extraction`.  ``||T||`` is always computed.
    """
    space = T.space
    ps = space.pair_structure()
    c, d = space.coeff_dim, space.dim
    coo = sp.coo_matrix(T.matrix)
    coo.sum_duplicates()
    x, rows = np.divmod(coo.row.astype(np.int64), d)
    y, cols = np.divmod(coo.col.astype(np.int64), d)
    pos = pair_positions(ps, rows, cols)
    inside = pos >= 0
    E = np.zeros((c, c, ps.rows.size), dtype=complex)
    E[x[inside], y[inside], pos[inside]] = coo.data[inside]
    out_keys, out_mags = rows[~inside] * d + cols[~inside], np.abs(coo.data[~inside])
    structural = 0.0
    worst = None
    if out_mags.size:
        structural = float(out_mags.max())
        if structural > 0.0:
            r, c_ = divmod(int(out_keys[out_mags == structural].min()), d)
            worst = (space.multiword_at(r), space.multiword_at(c_))
    ratio = ps.tau / ps.tau_rep[ps.cls]
    expected = ratio[None, None, :] * E[:, :, ps.rep_pos[ps.cls]]
    dev = np.abs(E - expected).max(axis=(0, 1))
    scaling = float(dev.max())
    least, most = reported_scaling(T, scaling, structural, tol)
    if least > max(structural, 0.0) and scaling > 0.0:
        p = int(np.argmax(dev))
        worst = (space.multiword_at(int(ps.rows[p])), space.multiword_at(int(ps.cols[p])))
    max_violation = max(structural, most)
    report = ToeplitzReport(
        verdict=bool(max_violation <= tol),
        max_violation=max_violation,
        worst_pair=worst if max_violation > 0.0 else None,
        checked_pairs=d * d,
        structural_violation=structural,
        scaling_violation=scaling,
        tolerance=tol,
    )
    return report.to_dict(), E


def pair_array_extraction(T, E, drop_tol=0.0):
    """The coefficients read off the representative entries of every class, in class-id order."""
    ps = T.space.pair_structure()
    raw = E[:, :, ps.rep_pos] / ps.tau_rep[None, None, :]
    kept = np.flatnonzero(np.abs(raw).max(axis=(0, 1)) > drop_tol)
    return {pair_array_class_pair(ps, int(cdx)): np.array(raw[:, :, cdx]) for cdx in kept}


def pair_array_class_pair(ps, c):
    """The reduced pair of class ``c``, spelled from its representative's basis indices."""
    space = ps.space
    return IndexPair(space.multiword_at(int(ps.rep_row[c])), space.multiword_at(int(ps.rep_col[c])))


def pair_array_class_positions(ps, c):
    """Positions of the pairs of class ``c`` in the pair arrays, row-major; empty for ``c = -1``."""
    if c < 0:
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(ps.cls == c)


def pair_array_monomial_entries(ps, pair):
    """``(pos, vals)``: the positions of the pair's class in the pair arrays and the entries of ``W_left W_right^*`` there.

    The class is the one of the pair's own basis pair; a word beyond the
    truncation gives no entries.  The weight loop runs per factor over the
    gathered rows and columns, in factor order.
    """
    space = ps.space
    try:
        at = pair_positions(ps, [space.index_of(pair.left)], [space.index_of(pair.right)])[0]
    except TruncationError:
        at = -1
    pos = pair_array_class_positions(ps, int(ps.cls[at]) if at >= 0 else -1)
    rows, cols = ps.rows[pos], ps.cols[pos]
    left = np.ones(pos.size)
    right = np.ones(pos.size)
    stride = space.dim
    for i, (u, v) in enumerate(zip(pair.left.parts, pair.right.parts)):
        stride //= space.factor_dims[i]
        r_i = rows // stride % space.factor_dims[i]
        c_i = cols // stride % space.factor_dims[i]
        b = space.weights.values[i]
        if len(u):
            left *= np.sqrt(b[c_i] / b[r_i])
        elif len(v):
            right *= np.sqrt(b[r_i] / b[c_i])
    return pos, (left * right).astype(complex)


def beyond_truncation_pair(space, i=0):
    """The pair whose left word on factor ``i`` is one letter longer than the truncation."""
    parts = [Word.identity(n) for n in space.spec.n]
    beyond = list(parts)
    beyond[i] = Word((1,) * (space.trunc[i] + 1), space.spec.n[i])
    return IndexPair(MultiWord(tuple(beyond)), MultiWord(tuple(parts)))


def dense_phi_right(space, i, Y):
    n = space.total_dim
    acc = np.zeros((n, n), dtype=complex)
    for w, a in space.spec.coeffs[i].items():
        lam = ampliated_creation(space, i, reverse(w), "right").tocoo()
        src, dst, vals = lam.col, lam.row, lam.data
        weights = a * np.outer(vals, vals.conj())
        acc[np.ix_(dst, dst)] += weights * Y[np.ix_(src, src)]
    return acc


def dense_min_positive_gram_eig(space, i, rank_tol=1e-12):
    d = space.factor_dims[i]
    M = np.zeros((d, d), dtype=complex)
    for w, a in space.spec.coeffs[i].items():
        lam = per_column_factor_creation(space, i, reverse(w), "right")
        M += a * (lam @ lam.conj().T).toarray()
    eigs = np.linalg.eigvalsh(hermitize(M))
    positive = eigs[eigs > rank_tol * max(float(eigs[-1]), 1.0)]
    return float(positive[0]) if positive.size else 0.0


def dense_alternating_phi_sum(space, i, T):
    m = space.spec.m[i]
    acc = np.zeros_like(T)
    power = T
    for j in range(1, m + 1):
        power = dense_phi_right(space, i, power)
        acc += ((-1) ** (j - 1)) * math.comb(m, j) * power
    return acc


def dense_bh_residual(T, i):
    """``||Q T Q - sum_j (-1)^(j-1) C(m, j) Phi^j(T)||_F`` on dense operands, over the Gram bound."""
    space = T.space
    q = np.tile((space.degree_table()[:, i] > 0).astype(float), space.coeff_dim)
    Td = T.dense
    diff = Td * np.outer(q, q) - dense_alternating_phi_sum(space, i, Td)
    return float(np.linalg.norm(diff)) / dense_min_positive_gram_eig(space, i)


def dense_phi_map(spec, i, X, Y):
    """``sum a_w X_w Y X_w^*`` by matrix products, accumulated on a dense array."""
    acc = np.zeros((X.dim_h, X.dim_h), dtype=complex)
    for w, a in spec.coeffs[i].items():
        Xw = word_op(X, i, w)
        term = Xw @ Y @ Xw.conj().T
        acc += a * as_dense(term)
    return acc


def dense_defect(spec, X, p):
    """The defect by dense maps, started from the dense identity at every call."""
    Y = np.eye(X.dim_h, dtype=complex)
    for i in reversed(range(spec.k)):
        for _ in range(p[i]):
            Y = Y - dense_phi_map(spec, i, X, Y)
    return Y


def dense_pure_factors(spec, X, power_cap, tol):
    """Per-factor purity entries of ``is_pure`` from dense iterates ``Phi_i^p(I)``."""
    factors = []
    for i in range(spec.k):
        Y = np.eye(X.dim_h, dtype=complex)
        norms, reached = [], None
        for p in range(1, power_cap + 1):
            Y = dense_phi_map(spec, i, X, Y)
            norms.append(op_norm(Y))
            if norms[-1] < tol:
                reached = p
                break
        radius = norms[-1] / norms[-2] if len(norms) >= 2 and norms[-2] > 0 else None
        factors.append({"power": reached, "norms_tail": norms[-3:], "radius_estimate": radius})
    return factors


def oracle_spaces(rng):
    """Spaces covering one-generator factors, three factors and a coefficient space."""
    yield FockSpace(random_spec(rng, k=1, max_n=1), (5,))
    yield FockSpace(random_spec(rng, k=2, max_n=1), (3, 4), coeff_dim=2)
    yield FockSpace(random_spec(rng, k=3), (2, 2, 1))
    yield FockSpace(random_spec(rng, k=3, max_n=1), (2, 1, 3), coeff_dim=2)
    for _ in range(4):
        spec = random_spec(rng)
        yield FockSpace(spec, (3,) * spec.k if spec.k == 2 else (4,), coeff_dim=int(rng.integers(1, 3)))


def oracle_operators(space, rng):
    """A planted operator, a perturbed and a spoiled copy of it, and a random dense one."""
    n = space.total_dim
    planted = evaluate_at_model(random_symbol(space, rng, n_monomials=5)).dense
    noisy = planted + 1e-6 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    spoiled = planted.copy()
    spoiled[int(rng.integers(n)), int(rng.integers(n))] += 1e-3
    rand = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return [planted, noisy, spoiled, rand]


def naive_toeplitz_violation(T):
    """Entrywise definition: zero off comparability, weight-ratio along it."""
    space = T.space
    E = T.blocks()
    structural = 0.0
    scaling = 0.0
    for wi in range(space.dim):
        omega = space.multiword_at(wi)
        for gi in range(space.dim):
            gamma = space.multiword_at(gi)
            block = E[:, :, wi, gi]
            if not comparable(omega, gamma):
                structural = max(structural, float(np.abs(block).max()))
                continue
            pair = simplify(omega, gamma)
            ri = space.index_of(pair.left)
            ci = space.index_of(pair.right)
            ratio = tau(space.weights, omega, gamma) / tau(
                space.weights, pair.left, pair.right
            )
            dev = np.abs(block - ratio * E[:, :, ri, ci]).max()
            scaling = max(scaling, float(dev))
    return structural, scaling


def test_is_multi_toeplitz_matches_naive(rng):
    for trial in range(6):
        spec = random_spec(rng)
        space = FockSpace(spec, (2,) * spec.k, coeff_dim=int(rng.integers(1, 3)))
        if trial % 2 == 0:
            T = evaluate_at_model(random_symbol(space, rng, n_monomials=4))
            M = T.dense + 1e-5 * (
                rng.standard_normal(T.dense.shape) + 1j * rng.standard_normal(T.dense.shape)
            )
            T = FockOperator(space, M)
        else:
            n = space.total_dim
            T = FockOperator(
                space, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )
        structural, scaling = naive_toeplitz_violation(T)
        report = is_multi_toeplitz(T, tol=1e-10)
        assert report.structural_violation == np.float64(structural)
        assert abs(report.scaling_violation - scaling) <= 1e-12 * max(1.0, scaling)


def test_homogeneous_part_matches_projection_sum(rng):
    spec = random_spec(rng, k=2, max_n=2)
    space = FockSpace(spec, (2, 2), coeff_dim=2)
    n = space.total_dim
    T = FockOperator(space, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    parts = homogeneous_decomposition(T)
    for s in [(0, 0), (1, -1), (2, 1), (-2, 0)]:
        via_mask = parts[s].dense
        via_proj = np.zeros_like(via_mask)
        for p in itertools.product(range(3), range(3)):
            target = tuple(si + pi for si, pi in zip(s, p))
            left = graded_projection(space, target).dense
            right = graded_projection(space, p).dense
            via_proj += left @ T.dense @ right
        assert np.abs(via_mask - via_proj).max() < 1e-13


def test_pluriharmonic_kernel_matches_entrywise(rng):
    spec = random_spec(rng, k=2, max_n=2)
    space = FockSpace(spec, (2, 2), coeff_dim=2)
    sym = random_symbol(space, rng, n_monomials=5)
    r = 0.6
    gamma = as_dense(pluriharmonic_kernel(sym, r))
    c = space.coeff_dim
    coeffs = pair_coefficients(sym)
    for wi in range(space.dim):
        omega = space.multiword_at(wi)
        for gi in range(space.dim):
            gw = space.multiword_at(gi)
            block = gamma[wi * c : (wi + 1) * c, gi * c : (gi + 1) * c]
            if not comparable(omega, gw):
                assert np.abs(block).max() == 0.0
                continue
            pair = simplify(omega, gw)
            A = coeffs.get(pair)
            expected = (
                np.zeros((c, c))
                if A is None
                else tau(space.weights, omega, gw) * r ** pair.total_weight * A
            )
            assert np.abs(block - expected).max() < 1e-14


def test_berezin_transform_matches_literal_sandwich(rng):
    spec = random_spec(rng, k=1, max_n=2)
    trunc = (2,)
    space = FockSpace(spec, trunc, coeff_dim=2)
    X = random_pure_tuple(spec, rng, dims=(2,), shrink=0.8)
    kernel = berezin_kernel(X, trunc)
    n = space.total_dim
    g = FockOperator(space, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    fast = berezin_transform(g, X, kernel)

    K = kernel.matrix  # (dim*dH, dH)
    big = np.kron(np.eye(space.coeff_dim), K)
    literal = big.conj().T @ np.kron(g.dense, np.eye(X.dim_h)) @ big
    assert np.abs(fast - literal).max() < 1e-12


def test_bh_residual_matches_uncompressed_equation(rng):
    # the conjugated base-space residual used by bh_residual upper-bounds the
    # literal range-restricted equation residual, and both agree on the verdict
    for trial in range(4):
        spec = random_spec(rng, k=1, max_deg=2)
        space = FockSpace(spec, (3,))
        row = build_row(space, 0)
        C = as_dense(row)
        gram = C.conj().T @ C
        pinv = as_dense(pinv_on_range(gram, 1e-10))
        dual = C @ pinv
        proj_range_cstar = pinv @ gram

        if trial % 2 == 0:
            T = evaluate_at_model(random_symbol(space, rng, n_monomials=4))
        else:
            n = space.total_dim
            T = FockOperator(
                space, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )

        m = spec.m[0]
        psi = np.zeros((space.total_dim, space.total_dim), dtype=complex)
        acc = T.dense
        for j in range(m):
            if j > 0:
                acc = phi_right(space, 0, acc).toarray()
            psi += ((-1) ** j) * math.comb(m, j + 1) * acc
        lhs = dual.conj().T @ T.dense @ dual
        n_cols = row.shape[1] // row.shape[0]
        rhs = proj_range_cstar @ np.kron(np.eye(n_cols), psi) @ proj_range_cstar
        literal = float(np.linalg.norm(lhs - rhs))
        fast = bh_residual(T, 0)
        assert literal <= fast + 1e-10
        if fast <= 1e-9:
            assert literal <= 1e-9
        else:
            assert literal > 1e-9 or fast <= 1e-6


def test_cauchy_dual_equation_forms_agree(rng):
    # C'(C*C) = C on the range of C*, connecting the dual to the row itself
    spec = random_spec(rng, k=1, max_deg=2)
    space = FockSpace(spec, (4,))
    row = build_row(space, 0)
    C = as_dense(row)
    gram = C.conj().T @ C
    dual = cauchy_dual(row)
    assert np.abs(dual @ gram - C @ (as_dense(pinv_on_range(gram, 1e-10)) @ gram)).max() < 1e-10
    # and the projection form annihilates the orthogonal complement
    Q = range_projection(space, 0)
    assert np.abs((np.eye(space.total_dim) - Q) @ dual).max() < 1e-10


def test_pair_structure_matches_dense_tables(rng):
    for space in oracle_spaces(rng):
        ps = space.pair_structure()
        comp, tau_, cls = dense_pair_tables(space)
        # the same comparable set, in row-major order
        assert np.array_equal(np.argwhere(comp), np.stack([ps.rows, ps.cols], axis=1))
        assert np.array_equal(ps.comp, comp)
        assert np.array_equal(ps.cls, cls[ps.rows, ps.cols])
        assert np.array_equal(ps.tau, tau_[ps.rows, ps.cols])
        assert np.array_equal(ps.tau_rep, tau_[ps.rep_row, ps.rep_col])
        assert np.array_equal(ps.cls[ps.rep_pos], np.arange(ps.n_classes))


def test_classification_matches_dense_oracle(rng):
    for space in oracle_spaces(rng):
        for M in oracle_operators(space, rng):
            T = FockOperator(space, M)
            assert is_multi_toeplitz(T).to_dict() == dense_classification(T)


def test_classification_dense_and_csr_agree_with_ties(rng):
    spec = make_spec(
        2, (2, 2), (1, 2), [(1, (1,), 0.5), (1, (2,), 0.5), (2, (1,), 0.25), (2, (2,), 0.5), (2, (2, 1), 0.2)]
    )
    space = FockSpace(spec, (2, 2), coeff_dim=2)
    ps = space.pair_structure()
    planted = evaluate_at_model(random_symbol(space, rng, n_monomials=5)).dense
    d = space.dim
    noncomp = np.argwhere(~ps.comp)
    # equal structural spoils at two non-comparable pairs, the later one written first
    (r1, c1), (r2, c2) = noncomp[3], noncomp[len(noncomp) // 2]
    structural = planted.copy()
    structural[d + r2, c2] += 2e-3
    structural[r1, d + c1] -= 2e-3
    # equal scaling spoils at two comparable non-representative pairs whose
    # class is absent from the symbol, so both deviations are exactly 5
    zero = np.abs(FockOperator(space, planted).blocks()).max(axis=(0, 1)) == 0.0
    rep = ps.rep_pos[ps.cls]
    free = np.flatnonzero(
        (rep != np.arange(ps.rows.size))
        & zero[ps.rows, ps.cols]
        & zero[ps.rows[rep], ps.cols[rep]]
    )
    p1, p2 = free[1], free[-1]
    scaling = planted.copy()
    scaling[ps.rows[p2], ps.cols[p2]] += 5.0
    scaling[ps.rows[p1], ps.cols[p1]] += 5.0
    for M, (r, c) in ((structural, (r1, c1)), (scaling, (ps.rows[p1], ps.cols[p1]))):
        dense = is_multi_toeplitz(FockOperator(space, M)).to_dict()
        csr = is_multi_toeplitz(FockOperator(space, sp.csr_matrix(M))).to_dict()
        assert dense == csr == dense_classification(FockOperator(space, M))
        # the first maximum in row-major order, as np.argmax picks over the dense grid
        first = [space.multiword_at(int(r)).render(), space.multiword_at(int(c)).render()]
        assert dense["worst_pair"] == first


def test_classify_pairs_and_class_members_match_pair_structure(rng):
    for space in oracle_spaces(rng):
        ps = space.pair_structure()
        comp, tau_, cls = dense_pair_tables(space)
        d = space.dim
        grid = space.classify_pairs(np.arange(d * d))
        assert np.array_equal(grid.comparable, comp.reshape(-1))
        inside = grid.comparable
        assert np.array_equal(grid.cls[inside], ps.cls)
        assert np.array_equal(grid.tau[inside], ps.tau)
        assert np.array_equal(grid.tau_rep[inside], ps.tau_rep[ps.cls])
        assert np.array_equal(grid.rep[inside], (ps.rep_row * d + ps.rep_col)[ps.cls])
        members = space.class_members(np.arange(ps.n_classes))
        # class by class, each class's pairs (in the order the factors enumerate them)
        assert np.array_equal(np.sort(members), ps.rows * d + ps.cols)
        for c in rng.choice(ps.n_classes, size=min(6, ps.n_classes), replace=False):
            pos = pair_array_class_positions(ps, int(c))
            assert np.array_equal(space.class_members([c]), ps.rows[pos] * d + ps.cols[pos])


def test_class_arithmetic_matches_pair_structure():
    for space in oracle_spaces(np.random.default_rng(5)):
        ps = space.pair_structure()
        assert space.n_classes == ps.n_classes
        for c in range(ps.n_classes):
            pair = space.class_pair(c)
            assert space.index_of(pair.left) == ps.rep_row[c]
            assert space.index_of(pair.right) == ps.rep_col[c]
            assert space.class_of(pair) == ps.cls[ps.rep_pos[c]] == c
        assert space.class_pair(0) == IndexPair(space.multiword_at(0), space.multiword_at(0))
        assert space.class_of(beyond_truncation_pair(space)) == -1


def test_monomial_entries_match_pair_structure_oracle():
    for space in oracle_spaces(np.random.default_rng(6)):
        ps = space.pair_structure()
        d = space.dim
        pairs = [pair_array_class_pair(ps, c) for c in range(ps.n_classes)]
        pairs.append(beyond_truncation_pair(space, space.spec.k - 1))
        for pair in pairs:
            # one class, or none for the pair beyond the truncation (class -1), as monomial asks
            cid = space.class_of(pair)
            _, keys, vals = space.term_entries([cid] if cid >= 0 else [])
            pos, expected = pair_array_monomial_entries(ps, pair)
            assert np.array_equal(keys, ps.rows[pos] * d + ps.cols[pos])
            assert np.array_equal(vals, expected)
        assert keys.size == 0


def test_term_entries_match_pair_structure_oracle_in_one_call():
    # every class of the space, in a shuffled order, in one batched call
    rng = np.random.default_rng(7)
    for space in oracle_spaces(rng):
        ps = space.pair_structure()
        d = space.dim
        classes = rng.permutation(ps.n_classes)
        term, keys, vals = space.term_entries(classes)
        for t, c in enumerate(classes):
            pos, expected = pair_array_monomial_entries(ps, pair_array_class_pair(ps, int(c)))
            assert np.array_equal(keys[term == t], ps.rows[pos] * d + ps.cols[pos])
            assert np.array_equal(vals[term == t], expected)


@settings(max_examples=40, deadline=None)
@given(
    n=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    trunc=st.lists(st.integers(0, 3), min_size=3, max_size=3),
)
def test_closed_form_class_and_pair_counts(n, trunc):
    # per factor d = sum_j n^j words and sum_w |w| = sum_j j n^j letters, over lengths j <= L;
    # a comparable pair is a word with itself or a word with one of its proper suffixes, either way round
    trunc = trunc[: len(n)]
    words = [sum(ni**j for j in range(L + 1)) for ni, L in zip(n, trunc)]
    letters = [sum(j * ni**j for j in range(L + 1)) for ni, L in zip(n, trunc)]
    # keep the oracle's arrays small
    assume(math.prod(words) <= 2000)
    generators = [(i + 1, (j,), 0.5 / ni) for i, ni in enumerate(n) for j in range(1, ni + 1)]
    space = FockSpace(make_spec(len(n), n, (1,) * len(n), generators), trunc)
    ps = space.pair_structure()
    assert space.dim == math.prod(words)
    assert space.n_classes == ps.n_classes == math.prod(2 * d - 1 for d in words)
    assert ps.rows.size == math.prod(d + 2 * s for d, s in zip(words, letters))


def unheld_members(T):
    """Sorted keys of the comparable pairs holding no stored entry of ``T`` whose class representative holds one."""
    space = T.space
    ps = space.pair_structure()
    d, n = space.dim, space.total_dim
    keys, _ = linalg_module.stored_entries(T.matrix)
    pair_keys = ps.rows * d + ps.cols
    holds = np.isin(pair_keys, keys // n % d * d + keys % d)
    return pair_keys[holds[ps.rep_pos][ps.cls] & ~holds]


CASE_KINDS = (
    "planted",
    "planted with stored zeros",
    "representatives only",
    "member removed",
    "structural tie",
    "scaling tie",
)


def _case_operator(space, rng, kind):
    """A CSR operator of the given kind, built around a planted symbol on ``space``."""
    ps = space.pair_structure()
    c, d, n = space.coeff_dim, space.dim, space.total_dim
    coo = csr(evaluate_at_model(random_symbol(space, rng, n_monomials=3)).matrix).tocoo()
    rows, cols, vals = coo.row.astype(np.int64), coo.col.astype(np.int64), coo.data
    planted_keys = set((rows * n + cols).tolist())
    # each pair's representative, and whether a block there holds a planted entry
    rep = ps.rep_pos[ps.cls]
    fock_zero = np.ones(ps.rows.size, dtype=bool)
    fock_zero[pair_positions(ps, rows % d, cols % d)] = False

    def add(r, c_, v):
        return np.append(rows, r), np.append(cols, c_), np.append(vals, v)

    if kind == "planted with stored zeros":
        # zeros at random cells and at the representative of a class absent from the symbol
        r, c_ = rng.integers(n, size=4), rng.integers(n, size=4)
        absent = np.flatnonzero(fock_zero[ps.rep_pos])
        if absent.size:
            cdx = rng.choice(absent)
            r = np.append(r, int(rng.integers(c)) * d + ps.rep_row[cdx])
            c_ = np.append(c_, int(rng.integers(c)) * d + ps.rep_col[cdx])
        rows, cols, vals = add(r, c_, np.zeros(r.size))
    elif kind == "representatives only":
        chosen = rng.choice(ps.n_classes, size=min(3, ps.n_classes), replace=False)
        x, y = rng.integers(c, size=chosen.size), rng.integers(c, size=chosen.size)
        rows, cols = x * d + ps.rep_row[chosen], y * d + ps.rep_col[chosen]
        vals = rng.standard_normal(chosen.size) + 1j * rng.standard_normal(chosen.size)
    elif kind == "member removed":
        # a planted entry at a non-representative pair whose representative entry is planted
        fock_pos = pair_positions(ps, rows % d, cols % d)
        rep_keys = (rows // d * d + ps.rows[rep[fock_pos]]) * n + cols // d * d + ps.cols[rep[fock_pos]]
        hit = (rep[fock_pos] != fock_pos) & np.isin(rep_keys, list(planted_keys))
        drop = rng.choice(np.flatnonzero(hit))
        keep = np.arange(rows.size) != drop
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
    elif kind == "structural tie":
        bad = np.argwhere(~ps.comp)
        if len(bad) >= 2:
            (r1, c1), (r2, c2) = bad[rng.choice(len(bad), size=2, replace=False)]
            x, y = rng.integers(c, size=2), rng.integers(c, size=2)
            rows, cols, vals = add([x[0] * d + r1, x[1] * d + r2], [y[0] * d + c1, y[1] * d + c2], [2e-3, -2e-3j])
    elif kind == "scaling tie":
        free = np.flatnonzero((rep != np.arange(ps.rows.size)) & fock_zero & fock_zero[rep])
        if free.size >= 2:
            p = rng.choice(free, size=2, replace=False)
            rows, cols, vals = add(ps.rows[p], ps.cols[p], [5.0, -5.0])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 3),
    max_n=st.integers(1, 2),
    coeff_dim=st.integers(1, 2),
    kind=st.sampled_from(CASE_KINDS),
    dense=st.booleans(),
    drop_tol=st.sampled_from([0.0, 0.3]),
)
@example(seed=1, k=3, max_n=2, coeff_dim=2, kind="member removed", dense=False, drop_tol=0.0)
@example(seed=1, k=2, max_n=2, coeff_dim=1, kind="member removed", dense=False, drop_tol=0.0)
@example(seed=2, k=2, max_n=1, coeff_dim=2, kind="planted with stored zeros", dense=False, drop_tol=0.0)
@example(seed=3, k=2, max_n=2, coeff_dim=1, kind="structural tie", dense=False, drop_tol=0.0)
@example(seed=4, k=1, max_n=2, coeff_dim=2, kind="scaling tie", dense=True, drop_tol=0.0)
@example(seed=5, k=3, max_n=1, coeff_dim=1, kind="representatives only", dense=False, drop_tol=0.3)
# dim * c = 686, past the dense cutoff: the report divides by the bracket's lower end
@example(seed=3604, k=3, max_n=2, coeff_dim=2, kind="planted", dense=False, drop_tol=0.0)
def test_stored_entry_classification_equals_oracles(seed, k, max_n, coeff_dim, kind, dense, drop_tol):
    rng = np.random.default_rng(seed)
    spec = random_spec(rng, k=k, max_n=max_n)
    trunc = tuple(int(rng.integers(1, {1: 5, 2: 3, 3: 2}[k] + 1)) for _ in range(k))
    space = FockSpace(spec, trunc, coeff_dim=coeff_dim)
    M = _case_operator(space, rng, kind)
    T = FockOperator(space, M.toarray() if dense else M)
    expected, E = pair_array_classification(T)
    # each basis pair is classified once: the pairs of the stored entries, then
    # only the members of the represented classes that hold no stored entry
    asked = []
    classify_pairs = space.classify_pairs
    space.classify_pairs = lambda keys: asked.append(keys) or classify_pairs(keys)
    assert is_multi_toeplitz(T).to_dict() == expected == dense_classification(T)
    del space.classify_pairs
    entry_keys, _ = linalg_module.stored_entries(T.matrix)
    d, n = space.dim, space.total_dim
    assert len(asked) == 2
    assert np.array_equal(asked[0], entry_keys // n % d * d + entry_keys % d)
    assert np.array_equal(asked[1], unheld_members(T))
    if kind == "member removed" and coeff_dim == 1:
        assert asked[1].size
    # extraction from every kind, under a tolerance no violation exceeds
    report = is_multi_toeplitz(T, tol=math.inf)
    sym = extract_fourier(T, drop_tol=drop_tol, report=report)
    oracle = pair_array_extraction(T, E, drop_tol)
    assert list(pair_coefficients(sym)) == list(oracle)
    for B, A in zip(sym.coeffs, oracle.values()):
        assert B.tobytes() == A.tobytes()


def test_alternating_sum_matches_dense_oracle(rng):
    # the right-hand side of bh_residual's equation, entry by entry, from dense and CSR input
    for space in oracle_spaces(rng):
        for M in oracle_operators(space, rng):
            for i in range(space.spec.k):
                expected = dense_alternating_phi_sum(space, i, M)
                for operand in (M, sp.csr_matrix(M)):
                    entries = accumulate_entries(_alternating_terms(space, i, *linalg_module.stored_entries(operand)))
                    assert np.array_equal(as_dense(linalg_module.Entries(*entries, M.shape)), expected)


# both signed zeros, exact values and values whose sums round
ENTRY_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, 1e-17, -3.5e15]) | st.floats(-10.0, 10.0)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), coeff_dim=st.integers(1, 2), n_terms=st.integers(1, 6))
def test_entry_fold_matches_sort_and_search_oracle(data, coeff_dim, n_terms):
    # row-major keys of a space of total dimension 3 * coeff_dim, few enough
    # that the terms overlap, each term's keys distinct and in any order
    n = 3 * coeff_dim
    terms = []
    for _ in range(n_terms):
        keys = data.draw(st.lists(st.integers(0, n * n - 1), unique=True, max_size=n * n))
        parts = data.draw(st.lists(ENTRY_PARTS, min_size=2 * len(keys), max_size=2 * len(keys)))
        terms.append((np.array(keys, dtype=np.int64), np.array(parts, dtype=float).view(complex)))
    want_keys, want = oracle_accumulate_entries(terms)
    got_keys, got = accumulate_entries(iter(terms))
    assert same_bits(got_keys, want_keys) and same_bits(got, want)


def test_map_and_alternating_sum_fold_as_the_oracle_sums(rng, monkeypatch):
    # the map's word terms and the alternating sum's powers, on spaces with a
    # coefficient space too, summed by the fold and by sort and search
    def oracle_sum(terms):
        return oracle_accumulate_entries(list(terms))

    for space in oracle_spaces(rng):
        for M in oracle_operators(space, rng):
            keys, vals = linalg_module.stored_entries(sp.csr_matrix(M))
            for i in range(space.spec.k):
                got_keys, got = accumulate_entries(_alternating_terms(space, i, keys, vals))
                with monkeypatch.context() as patched:
                    patched.setattr(brownhalmos_module, "accumulate_entries", oracle_sum)
                    want_keys, want = oracle_sum(_alternating_terms(space, i, keys, vals))
                assert same_bits(got_keys, want_keys) and same_bits(got, want)


def test_bh_residual_matches_dense_oracle(rng):
    # the residual entries agree exactly (test above); the Frobenius norm sums
    # their squares over the stored entries instead of the dense grid, so on
    # operators far from the equation its last bits follow the summation order
    # and are held to the rounding bound of an n*n-term sum.  Multi-Toeplitz
    # operators, where reports compare residuals, agree exactly.
    eps = np.finfo(float).eps
    for space in oracle_spaces(rng):
        n = space.total_dim
        planted, *others = oracle_operators(space, rng)
        for i in range(space.spec.k):
            expected = dense_bh_residual(FockOperator(space, planted), i)
            assert bh_residual(FockOperator(space, planted), i) == expected
            csr = FockOperator(space, sp.csr_matrix(planted))
            assert bh_residual(csr, i) == expected
            for M in others:
                expected = dense_bh_residual(FockOperator(space, M), i)
                got = bh_residual(FockOperator(space, sp.csr_matrix(M)), i)
                assert abs(got - expected) <= n * n * eps * expected


def test_phi_right_matches_dense_oracle(rng):
    for space in oracle_spaces(rng):
        n = space.total_dim
        Y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for i in range(space.spec.k):
            expected = dense_phi_right(space, i, Y)
            assert np.array_equal(phi_right(space, i, Y).toarray(), expected)
            assert np.array_equal(phi_right(space, i, sp.csr_matrix(Y)).toarray(), expected)


def test_row_gram_diagonal_matches_eigvalsh(rng):
    for space in oracle_spaces(rng):
        for i in range(space.spec.k):
            assert _min_positive_gram_eig(space, i) == dense_min_positive_gram_eig(space, i)


def lift_spaces(rng):
    """Spaces at ``coeff_dim`` 1 and 2 and ``k`` 1 and 2, besides the oracle spaces."""
    yield from oracle_spaces(rng)
    for k, coeff_dim in itertools.product((1, 2), (1, 2)):
        spec = random_spec(rng, k=k, max_deg=3)
        yield FockSpace(spec, (3, 2)[:k], coeff_dim=coeff_dim)


def test_creation_product_is_the_lifted_factor_action(rng):
    # the one lift of a creation: its CSR holds the lifted oracle's entries, in keys and bits
    for space in lift_spaces(rng):
        n = space.total_dim
        for i, n_i in enumerate(space.spec.n):
            for word in enumerate_words(n_i, space.trunc[i] + 1):
                for side in ("left", "right"):
                    src, dst, vals = lifted_action(space, i, space.creation_action(i, word, side))
                    expected = sp.csr_matrix((vals, (dst, src)), shape=(n, n))
                    got = csr(space.creation_product(i, word, side))
                    assert np.array_equal(got.indptr, expected.indptr) and np.array_equal(got.indices, expected.indices)
                    assert same_bits(got.data, expected.data), (i, word, side)


def test_row_is_the_scaled_lifted_creations(rng):
    # the row's column blocks are the per-column lifted right creations by the
    # reversed support, graded-lexicographic, each times sqrt(a): same structure, same bits
    for space in lift_spaces(rng):
        for i in range(space.spec.k):
            support = {reverse(w): a for w, a in space.spec.coeffs[i].items() if a != 0.0}
            gamma = sorted(support, key=lambda w: (len(w), w.letters))
            blocks = [math.sqrt(support[alpha]) * ampliated_creation(space, i, alpha, "right") for alpha in gamma]
            expected = sp.csr_matrix(sp.hstack(blocks))
            got = csr(build_row(space, i))
            assert got.shape == expected.shape == (space.total_dim, space.total_dim * len(gamma))
            assert np.array_equal(got.indptr, expected.indptr) and np.array_equal(got.indices, expected.indices)
            assert same_bits(got.data, expected.data), (i, gamma)


def test_row_gram_diagonal_is_the_identity_sum_on_factor_ranks(rng):
    # each distinct diagonal entry of the map's sum at every basis vector, in its bits
    for space in lift_spaces(rng):
        for i in range(space.spec.k):
            got = brownhalmos_module._row_gram_diagonal(space, i)
            d_i = space.factor_dims[i]
            full = identity_row_gram_diagonal(space, i).reshape(-1, d_i, math.prod(space.factor_dims[i + 1 :]))
            assert got.shape == (d_i,)
            for b, a in itertools.product(range(full.shape[0]), range(full.shape[2])):
                assert same_bits(got, full[b, :, a]), (i, b, a)


def model_tuples(rng):
    """Each universal model of the oracle spaces, both sides, with its creations as matrices."""
    for space in oracle_spaces(rng):
        for side in ("left", "right"):
            yield UniversalModel(space, side), model_matrices(space, side)


def test_universal_word_actions_are_the_letter_products(rng):
    # the composed triples are the stored entries of the CSR product of the
    # letters, in keys and bits; words past the truncation act as 0
    spaces = list(oracle_spaces(rng))
    for k, coeff_dim in itertools.product((1, 2, 3), (1, 2)):
        spec = random_spec(rng, k=k, max_deg=3)
        spaces.append(FockSpace(spec, (3, 2, 2)[:k], coeff_dim=coeff_dim))
    for space in spaces:
        for side in ("left", "right"):
            X = model_matrices(space, side)
            for i, n in enumerate(space.spec.n):
                words = [w for w in enumerate_words(n, min(space.trunc[i] + 1, 4)) if len(w)]
                for w in words + list(space.spec.coeffs[i]):
                    # the word's action lifted to K (x) Fock, then its Fock part
                    src, dst, vals = lifted_action(space, i, space.word_action(i, w, side))
                    m = src.size // space.coeff_dim
                    src, dst, vals = src[:m], dst[:m], vals[:m]
                    keys, expected = linalg_module.stored_entries(word_op(X, i, w))
                    assert np.array_equal(dst * X.dim_h + src, keys), (side, i, w)
                    assert same_bits(vals, expected), (side, i, w)


def test_kraus_stack_is_the_per_word_stack(rng):
    for X in list(small_tuples(rng)) + [M for _, M in model_tuples(rng)]:
        for i in range(X.spec.k):
            K, a = X.kraus(i)
            words, coeffs = zip(*X.spec.coeffs[i].items())
            assert same_bits(K, np.stack([as_dense(word_op(X, i, w)) for w in words]))
            assert same_bits(a, np.array(coeffs))


def exactly_diagonal(M):
    """Whether every off-diagonal entry of the square array ``M`` is zero."""
    return np.array_equal(M, np.diag(np.diag(M)))


def test_phi_map_matches_dense_oracle(rng):
    # the universal model's operands are diagonals: the map of the identity
    # and of a random complex diagonal is the dense oracle's diagonal, bit
    # for bit, and the oracle is exactly diagonal
    for W, M in model_tuples(rng):
        spec, n = W.spec, W.dim_h
        y = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for i in range(spec.k):
            for arg in (W.identity(), y):
                expected = dense_phi_map(spec, i, M, np.diag(arg))
                assert exactly_diagonal(expected)
                assert same_bits(phi_map(W, i, arg), np.diag(expected))
            with pytest.raises(DimensionMismatch):
                phi_map(W, i, np.diag(y))


def test_defect_and_purity_match_dense_oracle(rng):
    for W, M in model_tuples(rng):
        spec = W.spec
        for p in itertools.product(*(range(mi + 1) for mi in spec.m)):
            expected = dense_defect(spec, M, p)
            assert exactly_diagonal(expected)
            assert same_bits(defect(W, p), np.diag(expected))
        cap = max(W.dim_h, 2)
        _, report = is_pure(W, power_cap=cap, tol=1e-9)
        assert report["factors"] == dense_pure_factors(spec, M, cap, 1e-9)


def test_defect_walk_matches_defect_at_every_point(rng):
    for W, M in model_tuples(rng):
        points = list(itertools.product(*(range(mi + 1) for mi in W.spec.m)))
        walked = list(_defect_walk(W))
        assert [p for p, _ in walked] == points
        for p, D in walked:
            assert same_bits(D, defect(W, p))
            assert same_bits(D, np.diag(dense_defect(W.spec, M, p)))
    # dense tuples walk the same lattice on ndarrays
    for _ in range(3):
        spec = random_spec(rng)
        X = random_pure_tuple(spec, rng, dims=(2,) * spec.k, shrink=0.9)
        for p, D in _defect_walk(X):
            assert np.array_equal(D, defect(X, p))
            assert np.array_equal(D, dense_defect(spec, X, p))


# the largest truncation the oracle test draws for each alphabet size
ORACLE_TRUNC = {1: 13, 2: 8, 3: 6}


def test_weight_tables_match_dict_oracle(rng):
    cases = [(space.spec, space.trunc) for space in oracle_spaces(rng)]
    for _ in range(40):
        spec = random_spec(rng, max_n=3, max_m=4, max_deg=3)
        cases.append((spec, tuple(int(rng.integers(0, ORACLE_TRUNC[n] + 1)) for n in spec.n)))
    # an explicit zero coefficient and words of degree 3, at every order up to 4
    for n, L in ORACLE_TRUNC.items():
        cmap = {Word((j,), n): 0.25 + 0.5 * j for j in range(1, n + 1)}
        cmap[Word((n, n), n)] = 0.0
        cmap[Word((1, 1, 1), n)] = 0.75
        cmap[Word((n, 1, n), n)] = 1.5
        for m in range(1, 5):
            cases.append((PolydomainSpec(k=1, n=(n,), m=(m,), coeffs=(cmap,)), (L,)))
    for spec, trunc in cases:
        table = build_weight_table(spec, trunc)
        for i, expected in enumerate(dict_weight_tables(spec, trunc)):
            # same words, same order, same bits
            assert list(table.tables[i].items()) == list(expected.items())
            assert table.values[i].tobytes() == np.array(list(expected.values())).tobytes()


def test_factor_creation_matches_per_column_oracle(rng):
    for space in oracle_spaces(rng):
        for i in range(space.spec.k):
            n, L = space.spec.n[i], space.trunc[i]
            # every word up to one letter beyond the truncation, on both sides
            for word in enumerate_words(n, L + 1):
                for side in ("left", "right"):
                    got = space.creation_product(i, word, side)
                    expected = ampliated_creation(space, i, word, side)
                    assert got.keys.size == expected.nnz
                    assert np.array_equal(as_dense(got), expected.toarray())
        # the model's matrices keep the Fock part: the same creations with no coefficient slot
        fock = FockSpace(space.spec, space.trunc, weights=space.weights)
        for side in ("left", "right"):
            ops = model_matrices(space, side).ops
            for i, n in enumerate(space.spec.n):
                for j in range(1, n + 1):
                    expected = ampliated_creation(fock, i, Word((j,), n), side)
                    assert np.array_equal(ops[i][j - 1].toarray(), expected.toarray())


def test_monomial_matches_product_oracle(rng):
    for space in oracle_spaces(rng):
        c = space.coeff_dim
        pairs = [space.class_pair(c) for c in range(space.n_classes)]
        pairs.append(beyond_truncation_pair(space))
        for pair in pairs:
            A = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
            got = monomial(space, pair, A).matrix
            expected = product_monomial(space, pair, A)
            assert got.nnz == expected.nnz
            assert np.array_equal(got.toarray(), expected.toarray())
        assert monomial(space, pairs[-1], A).matrix.nnz == 0


def test_evaluate_at_model_matches_sparse_sum_oracle(rng):
    for space in oracle_spaces(rng):
        sym = random_symbol(space, rng, n_monomials=6)
        parts = [Word.identity(n) for n in space.spec.n]
        beyond = list(parts)
        beyond[-1] = Word((1,) * (space.trunc[-1] + 1), space.spec.n[-1])
        c = space.coeff_dim
        coeffs = pair_coefficients(sym)
        with_beyond = dict(coeffs)
        with_beyond[IndexPair(MultiWord(tuple(parts)), MultiWord(tuple(beyond)))] = np.ones((c, c))
        empty = FourierSymbol(space, [], np.zeros((0, c, c)))
        # a term beyond the truncation, which a class-id symbol cannot hold, adds nothing to the oracles
        for s, words in ((sym, coeffs), (sym, with_beyond), (empty, {})):
            # one batched pass gives the bits of the per-term monomials, at dyadic radii and others
            for r in (0.0, 0.3, 0.5, 0.7, 1.0):
                got = evaluate_at_model(s, r).matrix
                assert isinstance(got, linalg_module.Entries)
                # it stores no explicit zeros
                assert np.count_nonzero(got.vals) == got.vals.size
                assert np.array_equal(as_dense(got), sparse_sum_evaluate_at_model(DictSymbol(space, words), r))
                assert np.array_equal(as_dense(got), dense_scatter_evaluate_at_model(DictSymbol(space, words), r))


def grading_operators(space, rng):
    """A planted CSR operator, a random sparse one with explicit zeros, and a random dense one."""
    n = space.total_dim
    planted = evaluate_at_model(random_symbol(space, rng, n_monomials=5))
    scattered = sp.random(n, n, density=0.2, random_state=rng, format="csr", dtype=complex)
    scattered.data[::7] = 0.0
    dense = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return [planted, FockOperator(space, scattered), FockOperator(space, dense)]


def test_grading_matches_dense_mask_oracles(rng):
    for space in oracle_spaces(rng):
        grid = list(itertools.product(*(range(-L, L + 1) for L in space.trunc)))
        for T in grading_operators(space, rng):
            parts = homogeneous_decomposition(T)
            assert list(parts) == sorted(parts)
            for s in grid:
                expected = dense_mask_homogeneous_part(T, s)
                if s in parts:
                    assert sp.isspmatrix_csr(parts[s].matrix)
                    assert np.array_equal(parts[s].matrix.toarray(), expected)
                else:
                    assert not expected.any()
            for tol in (0.0, 0.5):
                support = [s for s, part in parts.items() if (np.abs(part.matrix.data) > tol).any()]
                assert support == dense_homogeneous_support(T, tol)
            for fejer in (True, False):
                k = space.spec.k
                for N in ((0,) * k, (1,) * k, tuple(2 * L for L in space.trunc)):
                    got = cesaro_reconstruct(T, N, fejer_weights=fejer).matrix
                    assert isinstance(got, linalg_module.Entries)
                    assert np.array_equal(as_dense(got), dense_cesaro_reconstruct(T, N, fejer))


@st.composite
def cesaro_cases(draw):
    """(factor count, largest generator count, truncation, cutoffs with 0 <= N_i <= 2 L_i + 1)."""
    k, max_n, max_L = draw(st.sampled_from([(1, 2, 3), (2, 2, 2), (3, 1, 3)]))
    trunc = tuple(draw(st.integers(0, max_L)) for _ in range(k))
    return k, max_n, trunc, tuple(draw(st.integers(0, 2 * L + 1)) for L in trunc)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), case=cesaro_cases())
# weights 2/3, 2/3 and 4/5 at the gap (1, 1, 1): their product rounds by the factor order
@example(seed=0, case=(3, 1, (2, 2, 2), (2, 2, 4)))
def test_cesaro_weight_table_matches_per_entry_oracle(seed, case):
    k, max_n, trunc, N = case
    rng = np.random.default_rng(seed)
    space = FockSpace(random_spec(rng, k=k, max_n=max_n), trunc, coeff_dim=int(rng.integers(1, 3)))
    for T in grading_operators(space, rng):
        for fejer in (True, False):
            got = linalg_module.stored_entries(cesaro_reconstruct(T, N, fejer_weights=fejer).matrix)
            expected = per_entry_cesaro_reconstruct(T, N, fejer)
            assert same_bits(got[0], expected[0]) and same_bits(got[1], expected[1]), (N, fejer)


# -- the operator file reader ---------------------------------------------------


def split_block_load_matrix(fh):
    """The coordinate text format parsed by splitting lines, 512 at a time, one conversion per column."""
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
    for start in range(0, nnz, 512):
        count = min(512, nnz - start)
        fields = [line.split() for line in itertools.islice(fh, count)]
        fields += [[]] * (count - len(fields))
        widths = np.fromiter(map(len, fields), dtype=np.int64, count=count)
        bad = np.flatnonzero(widths != 4)
        if bad.size:
            raise DimensionMismatch(f"matrix file: malformed entry line {start + bad[0] + 2}")
        flat = list(itertools.chain.from_iterable(fields))
        block = slice(start, start + count)
        rr[block] = np.array(flat[0::4], dtype=np.int64)
        cc[block] = np.array(flat[1::4], dtype=np.int64)
        with np.errstate(invalid="ignore"):
            vv[block] = np.array(flat[2::4], dtype=float) + 1j * np.array(flat[3::4], dtype=float)
    if nnz and (rr.max() >= rows or cc.max() >= cols or rr.min() < 0 or cc.min() < 0):
        raise DimensionMismatch("matrix file: entry index outside declared shape")
    bad = np.flatnonzero(~np.isfinite(vv))
    if bad.size:
        raise SpecError(f"matrix file: non-finite value {vv[bad[0]]} on line {bad[0] + 2}")
    loaded = sp.coo_matrix((vv, (rr, cc)), shape=(rows, cols))
    # lines of one (row, col) summing past the largest double: the first such line names the sum
    summed = loaded.tocsr().tocoo()
    bad = ~np.isfinite(summed.data)
    if bad.any():
        line = np.flatnonzero(np.isin(rr * cols + cc, summed.row[bad] * cols + summed.col[bad]))[0]
        value = summed.data[(summed.row == rr[line]) & (summed.col == cc[line])][0]
        raise SpecError(f"matrix file: non-finite value {value} on line {line + 2}")
    return loaded


def load_outcome(loader, text):
    """What a reader makes of ``text``: its canonical CSR arrays and value bits, or the error and its message.

    A COO result is read as scipy's CSR conversion reads it, duplicate lines
    summed in file order and explicit zeros kept.  A parser ``ValueError``
    keeps only its type: numpy words it differently per parser.
    """
    fh = io.StringIO(text)
    try:
        loaded = loader(fh)
    except (ValueError, PolytoeplitzError) as exc:
        return type(exc), None if type(exc) is ValueError else str(exc)
    m = loaded.tocsr() if sp.issparse(loaded) else csr(loaded)
    return m.shape, m.indptr.tolist(), m.indices.tolist(), m.data.tobytes(), fh.read()


# 17 significant digits as save_matrix writes them, signed zeros, subnormals and values near 1e308
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3]
value_texts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.sampled_from(EDGE_VALUES).map(lambda v: f"{v:.17g}"),
    st.sampled_from(EDGE_VALUES).map(repr),
    st.from_regex(r"[+-]?[0-9]{1,19}(\.[0-9]{0,19})?([eE][+-]?[0-9]{1,3})?", fullmatch=True),
)


@settings(max_examples=150, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), value_texts, value_texts,
                  st.sampled_from([" ", "\t", "  "])),
        max_size=30,
    ),
    trailing=st.sampled_from(["", "junk after the entries\n", "1 2 3\n\n"]),
)
@example(entries=[(0, 0, "-0", "-0", " "), (1, 2, "-0.0", "0", " "), (3, 3, "0", "-0.0", " ")], trailing="")
@example(entries=[(0, 0, "1.79769313486231581e308", "0", " ")], trailing="")  # rounds to the largest double
@example(entries=[(0, 0, "1.7976931348623159e308", "0", " ")], trailing="")  # overflows to inf
@example(entries=[(1, 2, "1", "0", " "), (3, 4, "-1e308", "1e308", " "), (1, 2, "0", "0", " "),
                  (3, 4, "-1e308", "1e308", " ")], trailing="")  # a sum of lines overflows to inf
@example(entries=[(1, 1, "1", "0", " "), (2, 2, "1e308", "0", " "), (0, 0, "-1e308", "1", " "),
                  (0, 0, "-1e308", "1", " "), (2, 2, "1e308", "0", " ")], trailing="")  # two, first in file and in key order
def test_load_matrix_matches_split_block_oracle(entries, trailing):
    lines = [sep.join((str(r), str(c), re, im)) for r, c, re, im, sep in entries]
    text = f"7 7 {len(entries)}\n" + "".join(line + "\n" for line in lines) + trailing
    assert load_outcome(load_matrix, text) == load_outcome(split_block_load_matrix, text)


def _entry_lines(count, value="1.5 -2.5"):
    return [f"{j % 5} {(3 * j) % 5} {value}" for j in range(count)]


def _with(lines, at, replacement):
    out = list(lines)
    out[at] = replacement
    return out


# (entry lines, declared nnz, error) with one fault, or two to pin which one wins;
# 600 lines put faults in the second block of 512
LOAD_FAULTS = {
    "short file": (_entry_lines(3), 5, DimensionMismatch),
    "short file in the second block": (_entry_lines(590), 600, DimensionMismatch),
    "blank line": (_with(_entry_lines(4), 2, ""), 4, DimensionMismatch),
    "whitespace line": (_with(_entry_lines(4), 1, " \t "), 4, DimensionMismatch),
    "blank line in the second block": (_with(_entry_lines(600), 555, ""), 600, DimensionMismatch),
    "three fields": (_with(_entry_lines(4), 3, "1 1 2.0"), 4, DimensionMismatch),
    "five fields": (_with(_entry_lines(4), 0, "1 1 2.0 0.0 7"), 4, DimensionMismatch),
    "five fields in the second block": (_with(_entry_lines(600), 520, "1 1 2.0 0.0 7"), 600, DimensionMismatch),
    "trailing # field": (_with(_entry_lines(4), 2, "1 1 2.0 0.0 #"), 4, DimensionMismatch),
    "comment line": (_with(_entry_lines(4), 1, "# 1 1 2.0 0.0"), 4, DimensionMismatch),
    "# glued to a value": (_with(_entry_lines(4), 2, "1 1 2.0 0.0#"), 4, ValueError),
    "non-numeric index": (_with(_entry_lines(4), 1, "1 x 2.0 0.0"), 4, ValueError),
    "non-numeric value": (_with(_entry_lines(4), 1, "1 1 abc 0.0"), 4, ValueError),
    "fractional index": (_with(_entry_lines(4), 1, "1.0 1 2.0 0.0"), 4, ValueError),
    "bad token, bad width later in its block": (
        _with(_with(_entry_lines(9), 1, "1 x 2 0"), 7, "1 1"), 9, DimensionMismatch),
    "bad token, bad width in the next block": (
        _with(_with(_entry_lines(600), 1, "1 x 2 0"), 550, "1 1"), 600, ValueError),
    "index outside the shape": (_with(_entry_lines(4), 2, "5 1 2.0 0.0"), 4, DimensionMismatch),
    "negative index": (_with(_entry_lines(4), 2, "1 -1 2.0 0.0"), 4, DimensionMismatch),
    "nan value": (_with(_entry_lines(4), 2, "1 1 nan 0.0"), 4, SpecError),
    "infinite imaginary part": (_with(_entry_lines(4), 3, "1 1 0.0 -inf"), 4, SpecError),
    "overflow to infinity": (_with(_entry_lines(4), 1, "1 1 1e400 0.0"), 4, SpecError),
    "non-finite value in the second block": (_with(_entry_lines(600), 599, "1 1 0.0 inf"), 600, SpecError),
}


@pytest.mark.parametrize("fault", sorted(LOAD_FAULTS))
def test_load_matrix_faults_keep_their_error(fault):
    lines, nnz, error = LOAD_FAULTS[fault]
    text = f"5 5 {nnz}\n" + "".join(line + "\n" for line in lines)
    got = load_outcome(load_matrix, text)
    assert got[0] is error
    # same type and, for the program's own errors, the same message and line number
    assert got == load_outcome(split_block_load_matrix, text)


def test_load_matrix_ignores_lines_after_the_last_entry():
    text = "2 2 2\n0 0 1 0\n1 1 0 1\nnot an entry\n0 0 nan nan\n"
    fh = io.StringIO(text)
    A = load_matrix(fh)
    assert np.array_equal(as_dense(A), np.array([[1, 0], [0, 1j]]))
    assert fh.read() == "not an entry\n0 0 nan nan\n"
    assert load_outcome(load_matrix, text) == load_outcome(split_block_load_matrix, text)


# -- words on demand ------------------------------------------------------------


def listed_words(n, L):
    """The words of length <= L over n letters in graded-lex order, one object each."""
    return [Word(letters, n) for d in range(L + 1) for letters in itertools.product(range(1, n + 1), repeat=d)]


def word_view_spaces(rng):
    yield from oracle_spaces(rng)
    for _ in range(6):
        spec = random_spec(rng, max_n=3)
        yield FockSpace(spec, tuple(int(L) for L in rng.integers(0, 4, size=spec.k)))


def test_word_views_match_word_keyed_dicts(rng):
    for space in word_view_spaces(rng):
        for i in range(space.spec.k):
            n, L = space.spec.n[i], space.trunc[i]
            words = listed_words(n, L)
            weights = dict(zip(words, space.weights.values[i].tolist()))
            ranks = {w: r for r, w in enumerate(words)}
            table, listed = space.weights.tables[i], space.factor_words[i]
            index = RankMap(listed)
            assert len(table) == len(index) == len(listed) == len(words) == space.factor_dims[i]
            assert list(table.items()) == list(weights.items())
            assert list(index.items()) == list(ranks.items())
            assert list(listed) == words
            assert [listed[r] for r in range(len(words))] == words
            assert listed[-1] == words[-1]
            for w in words:
                assert w in table and w in index and w in listed
                assert type(table[w]) is float and table[w] == weights[w]
                assert space.weights.b(i, w) == weights[w]
                assert index[w] == ranks[w] and listed.rank(w) == ranks[w]
            # a word one letter beyond the truncation, and one over another alphabet
            for outside in (Word((1,) * (L + 1), n), Word((1,), n + 1)):
                assert outside not in table and outside not in index and outside not in listed
                assert index.get(outside) is None and table.get(outside) is None
                with pytest.raises(KeyError):
                    table[outside]
                with pytest.raises(TruncationError):
                    space.weights.b(i, outside)
            with pytest.raises(IndexError):
                listed[len(words)]


def test_multiword_at_matches_listed_basis(rng):
    for space in word_view_spaces(rng):
        listed = [MultiWord(parts) for parts in itertools.product(
            *(listed_words(n, L) for n, L in zip(space.spec.n, space.trunc)))]
        assert space.basis() == listed
        assert [space.multiword_at(i) for i in range(space.dim)] == listed
        for i in (0, space.dim - 1):
            assert space.index_of(space.multiword_at(i)) == i
        with pytest.raises(TruncationError):
            space.multiword_at(space.dim)


# -- block-by-block spectral checks ----------------------------------------------


def dense_op_norm(mat):
    """The whole-matrix 2-norm by one dense SVD; 0.0 for the zero matrix."""
    m = as_dense(mat)
    return float(np.linalg.norm(m, 2)) if m.any() else 0.0


def dense_psd_check(mat, tol):
    """``(verdict, lambda_min, lambda_max)`` of the Hermitian part, zeros unsigned, by one dense ``eigvalsh``."""
    h = hermitize(mat) + 0
    if h.shape[0] == 0:
        return True, 0.0, 0.0
    eigs = np.linalg.eigvalsh(h)
    lo, hi = float(eigs[0]), float(eigs[-1])
    return lo >= -tol * max(1.0, hi), lo, hi


def permuted_blocks(rng, shapes, empty_rows, empty_cols, block):
    """A block-diagonal matrix with rows and columns permuted at random.

    ``block(rng, r, c)`` fills each ``r x c`` block; ``empty_rows`` and
    ``empty_cols`` zero rows and columns follow the blocks.
    """
    n_r = sum(r for r, _ in shapes) + empty_rows
    n_c = sum(c for _, c in shapes) + empty_cols
    out = np.zeros((n_r, n_c), dtype=complex)
    at_r = at_c = 0
    for r, c in shapes:
        out[at_r:at_r + r, at_c:at_c + c] = block(rng, r, c)
        at_r, at_c = at_r + r, at_c + c
    return out[rng.permutation(n_r)][:, rng.permutation(n_c)]


def complex_block(rng, r, c):
    return rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))


@settings(max_examples=150, deadline=None)
@given(
    shapes=st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)), max_size=14),
    empty_rows=st.integers(0, 12),
    empty_cols=st.integers(0, 12),
    seed=st.integers(0, 2**32 - 1),
    sparse=st.booleans(),
)
@example(shapes=[(1, 1)] * 12, empty_rows=0, empty_cols=0, seed=1, sparse=True)  # all 1x1 blocks
@example(shapes=[(30, 20)], empty_rows=0, empty_cols=0, seed=2, sparse=False)  # a single full block
@example(shapes=[], empty_rows=12, empty_cols=9, seed=3, sparse=True)  # the zero matrix
@example(shapes=[(2, 5), (6, 1), (3, 3)], empty_rows=4, empty_cols=0, seed=4, sparse=False)  # rectangular
def test_block_op_norm_matches_dense_svd(shapes, empty_rows, empty_cols, seed, sparse):
    rng = np.random.default_rng(seed)
    m = permuted_blocks(rng, shapes, empty_rows, empty_cols, complex_block)
    got = op_norm(sp.csr_matrix(m) if sparse else m)
    expected = dense_op_norm(m)
    assert abs(got - expected) <= 1e-14 * expected


def psd_block(kind):
    """Blocks for the PSD test: Gram, rank-deficient Gram, Hermitian, or arbitrary."""
    def block(rng, r, c):
        B = complex_block(rng, r, r)
        if kind == "gram":
            return B @ B.conj().T
        if kind == "singular":  # a zero eigenvalue in every block
            B[:, -1] = 0
            return B @ B.conj().T
        if kind == "hermitian":
            return B + B.conj().T
        return B
    return block


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 7), max_size=14),
    empty=st.integers(0, 12),
    kind=st.sampled_from(["gram", "singular", "hermitian", "general"]),
    seed=st.integers(0, 2**32 - 1),
    sparse=st.booleans(),
)
@example(sizes=[1] * 12, empty=0, kind="hermitian", seed=1, sparse=True)  # all 1x1 blocks
@example(sizes=[25], empty=0, kind="singular", seed=2, sparse=False)  # a single full block
@example(sizes=[], empty=12, kind="gram", seed=3, sparse=True)  # the zero matrix
@example(sizes=[3, 4, 2], empty=5, kind="gram", seed=4, sparse=False)  # empty rows give the eigenvalue 0
def test_block_psd_check_matches_dense_eigvalsh(sizes, empty, kind, seed, sparse):
    rng = np.random.default_rng(seed)
    n = sum(sizes) + empty
    m = permuted_blocks(rng, [(s, s) for s in sizes], empty, empty, psd_block(kind))
    # the same permutation on both sides keeps the blocks square
    perm = rng.permutation(n)
    m = m[perm][:, perm]
    for tol in (1e-9, 0.0):
        verdict, lo = psd_check(sp.csr_matrix(m) if sparse else m, tol)
        expected, lo_dense, hi_dense = dense_psd_check(m, tol)
        assert abs(lo - lo_dense) <= 1e-13 * max(1.0, hi_dense)
        if abs(lo_dense + tol * max(1.0, hi_dense)) > 1e-13 * max(1.0, hi_dense):
            assert verdict == expected


def dense_pinv_on_range(mat, rank_tol=1e-12):
    """The pseudo-inverse on the range by one whole-matrix ``eigh`` of the Hermitian part, zeros unsigned.

    The cutoff and the ambiguity rule are the program's.
    """
    h = hermitize(mat) + 0
    eigs, vecs = np.linalg.eigh(h)
    lam_max = float(eigs[-1]) if eigs.size else 0.0
    if lam_max <= 0.0:
        return np.zeros_like(h)
    cut = rank_tol * lam_max
    ambiguous = (np.abs(eigs) > cut / 10.0) & (np.abs(eigs) < cut * 10.0)
    if np.any(ambiguous):
        raise NumericalRankError(f"eigenvalue {eigs[np.argmax(ambiguous)]:.3e} within x10 of rank cutoff")
    inv = np.where(eigs > cut, 1.0 / np.where(eigs > cut, eigs, 1.0), 0.0)
    return (vecs * inv) @ vecs.conj().T


def spectrum_block(zeros):
    """Hermitian PSD blocks ``V diag(lam) V^*`` with ``lam`` in ``[0.5, 2]``, the last ``zeros`` of them 0."""
    def block(rng, size):
        V, _ = np.linalg.qr(complex_block(rng, size, size))
        lam = rng.uniform(0.5, 2.0, size)
        lam[size - min(zeros, size):] = 0.0
        return (V * lam) @ V.conj().T
    return block


def hermitian_permuted_blocks(rng, sizes, empty, block):
    """A block-diagonal Hermitian matrix, ``empty`` zero rows and columns after the blocks, under one permutation on both sides."""
    n = sum(sizes) + empty
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for size in sizes:
        out[at:at + size, at:at + size] = block(rng, size)
        at += size
    perm = rng.permutation(n)
    return out[perm][:, perm]


@settings(max_examples=150, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 7), max_size=14),
    empty=st.integers(0, 12),
    zeros=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    sparse=st.booleans(),
)
@example(sizes=[1] * 12, empty=0, zeros=0, seed=1, sparse=True)  # all 1x1 blocks
@example(sizes=[25], empty=0, zeros=1, seed=2, sparse=False)  # a single full block
@example(sizes=[], empty=12, zeros=0, seed=3, sparse=True)  # the zero matrix
@example(sizes=[], empty=12, zeros=0, seed=3, sparse=False)
@example(sizes=[3, 4, 2], empty=5, zeros=1, seed=4, sparse=False)  # zero rows and columns
@example(sizes=[2, 3], empty=1, zeros=0, seed=5, sparse=True)  # below the split: one block
def test_block_pinv_on_range_matches_dense_eigh(sizes, empty, zeros, seed, sparse):
    rng = np.random.default_rng(seed)
    m = hermitian_permuted_blocks(rng, sizes, empty, spectrum_block(zeros))
    got = pinv_on_range(sp.csr_matrix(m) if sparse else m)
    assert isinstance(got, linalg_module.Entries)
    assert got.shape == m.shape
    assert np.abs(as_dense(got) - dense_pinv_on_range(m)).max(initial=0.0) <= 1e-12


@pytest.mark.parametrize("sparse", [False, True])
def test_ambiguous_eigenvalue_outside_the_top_block_raises(rng, sparse):
    # lambda_max = 2 sits in the first block, so the cut is 2e-12 and 1e-11 in a
    # later block is ambiguous; against that block's own top, 1e-3, it would not be
    top = np.diag([2.0, 1.0, 1.5])
    V, _ = np.linalg.qr(complex_block(rng, 2, 2))
    low = (V * np.array([1e-3, 1e-11])) @ V.conj().T
    m = np.zeros((12, 12), dtype=complex)
    m[:3, :3], m[3:5, 3:5] = top, low
    m[5:, 5:] = np.eye(7)
    perm = rng.permutation(12)
    m = m[perm][:, perm]
    with pytest.raises(NumericalRankError):
        dense_pinv_on_range(m)
    with pytest.raises(NumericalRankError):
        pinv_on_range(sp.csr_matrix(m) if sparse else m)


def test_cauchy_dual_matches_dense_oracle(rng):
    for trunc, k, coeff_dim in ((4, 1, 1), (5, 1, 1), (3, 1, 2), ((2, 2), 2, 1)):
        spec = random_spec(rng, k=k, max_n=2)
        space = FockSpace(spec, trunc if isinstance(trunc, tuple) else (trunc,), coeff_dim=coeff_dim)
        for i in range(k):
            row = build_row(space, i)
            C = as_dense(row)
            expected = C @ dense_pinv_on_range(C.conj().T @ C, 1e-10)
            assert np.abs(cauchy_dual(row) - expected).max() <= 1e-12


# -- component labels ---------------------------------------------------------------
# scipy's connected_components, which the numpy hook-and-shortcut labeller
# replaced, is the oracle: the labels must be equal, not only the partition,
# since the block stacks are built in label order.


def scipy_components(n, a, b):
    graph = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(n, n))
    return connected_components(graph, directed=False)[1]


def random_graphs(rng, count):
    """``(n, a, b)`` for ``count`` random graphs: multi-edges, self-loops, isolated nodes, some with no edge."""
    for j in range(count):
        n = int(rng.integers(0, 301))
        m = 0 if j % 10 == 0 or n == 0 else int(rng.integers(0, 2 * n))
        a, b = rng.integers(0, max(n, 1), (2, m))
        loops = rng.random(m) < 0.1
        b[loops] = a[loops]
        repeat = rng.integers(0, max(m, 1), m // 4)
        yield n, np.concatenate([a, b[repeat]]), np.concatenate([b, a[repeat]])


def test_component_labels_match_scipy_on_random_graphs(rng):
    for n, a, b in random_graphs(rng, 1200):
        assert np.array_equal(linalg_module._components(n, a, b), scipy_components(n, a, b)), n


@pytest.mark.parametrize("reverse", [False, True])
def test_component_labels_match_scipy_on_a_long_path(reverse):
    # one chain of hooks 10**5 deep: the pointer jumps flatten it
    n = 10**5
    a, b = np.arange(n - 1), np.arange(1, n)
    if reverse:
        a, b = b, a
    labels = linalg_module._components(n, a, b)
    assert np.array_equal(labels, scipy_components(n, a, b))
    assert not labels.any()


def test_component_labels_match_scipy_on_the_spectral_block_calls(rng, monkeypatch):
    # the Hermitian (square) and bipartite (rows then columns) graphs _spectral_blocks builds
    calls = []
    labeller = linalg_module._components

    def recorded(n, a, b):
        calls.append((n, a.copy(), b.copy()))
        return labeller(n, a, b)

    monkeypatch.setattr(linalg_module, "_components", recorded)
    sizes = []
    for trunc, k, coeff_dim in ((4, 1, 1), (3, 1, 2), ((2, 2), 2, 1), ((3, 2), 2, 2)):
        spec = random_spec(rng, k=k, max_n=2)
        space = FockSpace(spec, trunc if isinstance(trunc, tuple) else (trunc,), coeff_dim=coeff_dim)
        T = csr(evaluate_at_model(random_symbol(space, rng, n_monomials=4)).matrix)
        wide = T[:, : T.shape[1] // 2 + 9]
        op_norm(T)
        op_norm(wide)
        psd_check(T)
        pinv_on_range(T.conj().T @ T)
        if T.shape[0] > 8:
            sizes += [2 * T.shape[0], sum(wide.shape), T.shape[0], T.shape[0]]
    assert len(sizes) >= 8 and [n for n, _, _ in calls] == sizes
    for n, a, b in calls:
        assert np.array_equal(labeller(n, a, b), scipy_components(n, a, b)), n


# -- one block at a short side ----------------------------------------------------
# A matrix with a side of at most 8 is one block, the dense array itself: the
# direct whole-matrix LAPACK calls op_norm and psd_check once made, kept here as
# oracles, must come back bit for bit, with a -0.0 entry read as 0.0, as in the
# CSR copy, which stores no zeros.


def direct_op_norm(mat):
    """The whole-matrix 2-norm by one dense SVD in the input's dtype, zeros unsigned; 0.0 for the zero matrix."""
    m = (as_dense(mat) if sp.issparse(mat) else np.asarray(mat)) + 0
    return float(np.linalg.norm(m, 2)) if m.any() else 0.0


def short_side_inputs(rng):
    """Matrices with a side of at most 8, a -0.0 entry in each: complex, real and CSR, square and long."""
    for shape in ((1, 1), (2, 2), (5, 5), (8, 8), (3, 5), (8, 700), (900, 2)):
        m = complex_block(rng, *shape)
        m[rng.random(shape) < 0.3] = 0
        m[0, 0] = complex(-0.0, -0.0)
        yield m
        yield m.real.copy()
        yield sp.csr_matrix(m)
    yield np.zeros((4, 4), dtype=complex)


def test_short_side_norm_and_psd_match_the_whole_matrix_call(rng, monkeypatch):
    # a foreign sparse input is read into its stored entries at the boundary,
    # so the split is refused where it starts, at the component labeller
    def refuse(*args, **kwargs):
        raise AssertionError("a matrix with a short side split into blocks")

    monkeypatch.setattr(linalg_module, "_components", refuse)
    for m in short_side_inputs(rng):
        assert same_bits(op_norm(m), direct_op_norm(m)), m.shape
        if m.shape[0] == m.shape[1]:
            for tol in (1e-9, 0.0):
                verdict, lo = psd_check(m, tol)
                expected, lo_dense, _ = dense_psd_check(m, tol)
                assert verdict == expected and same_bits(lo, lo_dense), m.shape


@pytest.mark.parametrize("sparse", [False, True])
def test_short_side_pinv_matches_the_whole_matrix_eigh(rng, sparse):
    for sizes, empty, zeros in (([1], 0, 0), ([3], 1, 1), ([2, 3], 1, 0), ([4, 4], 0, 1), ([], 5, 0)):
        m = hermitian_permuted_blocks(rng, sizes, empty, spectrum_block(zeros))
        m[m == 0] = complex(-0.0, -0.0)
        # CSR drops the -0.0 entries, and both sides read every zero unsigned
        mat = sp.csr_matrix(m) if sparse else m
        assert same_bits(as_dense(pinv_on_range(mat)), dense_pinv_on_range(mat)), (sizes, empty)


# -- batched small-tuple CP maps, symbol layouts and one-pass grading ---------------
# The per-word, per-point and per-radius loops these replaced, kept as oracles.
# Their bits must come back exactly, signed zeros included: the Kronecker slots
# of k = 2 tuples hold exact zeros, and LAPACK's Householder steps read their sign.


def per_point_is_member(spec, X, tol=1e-9):
    """``is_member`` with one ``eigvalsh`` per lattice point."""
    verdict = True
    witness = ((0,) * spec.k, np.inf)
    for p, D in _defect_walk(X):
        if isinstance(X, UniversalModel):
            D = np.diag(D)  # the universal model's defects are diagonals
        eigs = np.linalg.eigvalsh(hermitize(D))
        lo, hi = float(eigs[0]), float(eigs[-1])
        if lo < witness[1]:
            witness = (p, lo)
        if lo < -tol * (1.0 + max(hi, 0.0)):
            verdict = False
    return verdict, witness


def per_word_berezin_rows(spec, X, trunc):
    """The kernel rows built one basis multi-word at a time from cached word products."""
    table = build_weight_table(spec, trunc)
    root = herm_sqrt(defect(X, spec.m))
    space = FockSpace(spec, trunc, weights=table)
    rows = np.empty((space.dim, X.dim_h, X.dim_h), dtype=complex)
    for idx, w in enumerate(space.basis()):
        Xw = as_dense(multi_word_op(X, w))
        b = math.prod(table.b(i, part) for i, part in enumerate(w.parts))
        rows[idx] = math.sqrt(b) * (root @ Xw.conj().T)
    return rows


def scaled_tuple_random_pure_tuple(spec, rng, dims, shrink=1.0):
    """``random_pure_tuple`` bisecting on a new scaled tuple per step, tested by :func:`per_point_is_member`."""
    dim_h = int(np.prod(dims))
    ops = []
    for i in range(spec.k):
        row = []
        for _ in range(spec.n[i]):
            Y = rng.standard_normal((dims[i], dims[i])) + 1j * rng.standard_normal((dims[i], dims[i]))
            Y /= max(1.0, op_norm(Y))
            before = int(np.prod(dims[:i])) if i else 1
            after = int(np.prod(dims[i + 1 :])) if i + 1 < spec.k else 1
            row.append(np.kron(np.kron(np.eye(before), Y), np.eye(after)).astype(complex))
        ops.append(tuple(row))
    raw = OperatorTuple(spec=spec, ops=tuple(ops), dim_h=dim_h, commutation_checked=True)

    def member_at(r):
        X = OperatorTuple(spec=spec, ops=tuple(tuple(r * A for A in fac) for fac in raw.ops),
                          dim_h=dim_h, commutation_checked=True)
        return per_point_is_member(spec, X)[0]

    lo, hi = 0.0, 1.0
    while member_at(hi):
        lo = hi
        hi *= 2.0
        if hi > 64.0:
            break
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if member_at(mid):
            lo = mid
        else:
            hi = mid
    return raw.scaled(shrink * lo)


def per_radius_evaluate_at_model(sym, r):
    """``evaluate_at_model`` redoing the term entries and the row-major sort at every radius, ``r ** |s|`` per pair."""
    space = sym.space
    c, d, n = space.coeff_dim, space.dim, space.total_dim
    term, members, fock = space.term_entries(sym.classes)
    fock_rows, fock_cols = np.divmod(members, d)
    radial = np.array([r ** space.class_pair(int(cid)).total_weight for cid in sym.classes], dtype=float)
    vals = sym.coeffs.reshape(-1, c * c)[term].T * fock
    vals = radial[term] * vals
    blocks = np.arange(c * c)
    rows = (blocks // c * d)[:, None] + fock_rows[None, :]
    cols = (blocks % c * d)[:, None] + fock_cols[None, :]
    keys, vals = (rows * n + cols).ravel(), vals.ravel()
    order = np.argsort(keys)
    keys, vals = keys[order], vals[order]
    nonzero = vals != 0
    rows, cols = np.divmod(keys[nonzero], n)
    return sp.csr_matrix((vals[nonzero], cols, np.searchsorted(rows, np.arange(n + 1))), shape=(n, n))


def split_homogeneous_decomposition(T):
    """``homogeneous_decomposition`` by a stable argsort of the codes and one CSR per ``np.split`` group."""
    from polytoeplitz.toeplitz import _degree_gaps, _gap_places

    n = T.space.total_dim
    keys, vals, code = _degree_gaps(T)
    place, L = _gap_places(T.space)
    rows, cols = np.divmod(keys, n)
    order = np.argsort(code, kind="stable")
    grouped = code[order]
    bounds = np.flatnonzero(grouped[1:] != grouped[:-1]) + 1
    parts = {}
    for idx in np.split(order, bounds) if order.size else []:
        r = rows[idx]
        indptr = np.searchsorted(r, np.arange(n + 1))
        gap = tuple(int(x) for x in code[idx[0]] // place % (2 * L + 1) - L)
        parts[gap] = sp.csr_matrix(
            (vals[idx], cols[idx], indptr), shape=(n, n)
        )
    return parts


def small_tuples(rng, count=12):
    """Seeded pure tuples with slot dims 1-3 (1 in the first four), Kronecker slots for k = 2, and one scaled universal model's matrices."""
    for j in range(count):
        spec = random_spec(rng, k=1 + j % 2)
        dims = rng.integers(1, 4, size=spec.k) if j >= 4 else np.ones(spec.k)
        yield random_pure_tuple(spec, rng, dims=tuple(int(x) for x in dims), shrink=0.9)
    space = FockSpace(random_spec(rng, k=2), (2, 2))
    yield model_matrices(space).scaled(0.5)


def test_batched_phi_map_matches_per_word_oracle(rng):
    for X in small_tuples(rng):
        n = X.dim_h
        Y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        for i in range(X.spec.k):
            # -I makes imaginary parts -0.0: a sum not started from zeros keeps them
            for arg in (np.eye(n), -np.eye(n), Y, np.zeros((n, n))):
                assert same_bits(phi_map(X, i, arg), dense_phi_map(X.spec, i, X, arg))


def test_batched_is_member_matches_per_point_oracle(rng):
    # each tuple with the matrices it scales: a model scales its matrix copy
    for X, M in [(X, X) for X in small_tuples(rng)] + list(model_tuples(rng)):
        assert is_member(X) == per_point_is_member(X.spec, X)
        # a point outside: its witness is the first most negative defect
        far = M.scaled(3.0)
        got = is_member(far)
        assert got == per_point_is_member(X.spec, far)
        assert not got[0]


def test_batched_berezin_rows_match_per_word_oracle(rng):
    for X in small_tuples(rng, count=8):
        trunc = (3,) * X.spec.k
        got = berezin_kernel(X, trunc)
        assert same_bits(got.rows, per_word_berezin_rows(X.spec, X, trunc))


def test_berezin_tail_bound_matches_per_word_shell_oracle(rng):
    # the shells come from the one Kraus conjugation at Y = I; the oracle sums a_w K_w K_w^* word by word
    bounds = []
    for X in small_tuples(rng, count=8):
        for trunc in ((2,) * X.spec.k, (3,) * X.spec.k):
            got = berezin_kernel(X, trunc).tail_bound
            assert same_bits(np.float64(got), np.float64(per_word_tail_bound(X, trunc)))
            bounds.append(got)
    assert any(0.0 < b < math.inf for b in bounds)


def test_polynomial_bisection_matches_scaled_tuple_oracle():
    # 500 seeded draws, slot dims 1-3, one and two factors, up to m = 3 and degree 2
    for seed in range(500):
        spec = random_spec(np.random.default_rng(seed))
        dims = tuple(int(x) for x in np.random.default_rng(10_000 + seed).integers(1, 4, size=spec.k))
        got = random_pure_tuple(spec, np.random.default_rng(seed), dims=dims, shrink=0.85)
        expected = scaled_tuple_random_pure_tuple(spec, np.random.default_rng(seed), dims, shrink=0.85)
        for fac_got, fac_expected in zip(got.ops, expected.ops):
            for A, B in zip(fac_got, fac_expected):
                assert same_bits(A, B), (seed, dims)


def test_cached_layout_matches_per_radius_oracle(rng):
    for space in oracle_spaces(rng):
        sym = random_symbol(space, rng, n_monomials=6)
        # the same support with other coefficients builds its own layout
        other = FourierSymbol(space, sym.classes, 2.0 * sym.coeffs + 1j)
        empty = FourierSymbol(space, [], np.zeros((0, space.coeff_dim, space.coeff_dim)))
        layouts = {}
        for s in (sym, other, empty, sym):
            for r in (0.0, 0.3, 0.5, 1.0, 0.3):
                got = csr(evaluate_at_model(s, r).matrix)
                expected = per_radius_evaluate_at_model(s, r)
                assert same_bits(got.indptr, expected.indptr)
                assert same_bits(got.indices, expected.indices)
                assert same_bits(got.data, expected.data)
                # built on the symbol's first evaluation and kept on it
                assert layouts.setdefault(id(s), s._layout) is s._layout


def test_one_pass_decomposition_matches_split_oracle(rng):
    for space in oracle_spaces(rng):
        for T in grading_operators(space, rng):
            got = homogeneous_decomposition(T)
            expected = split_homogeneous_decomposition(T)
            assert list(got) == list(expected)
            for s, part in got.items():
                for name in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(part.matrix, name), getattr(expected[s], name))
                assert same_bits(part.matrix.data, expected[s].data)


def test_class_id_symbol_matches_the_word_keyed_oracle_bit_for_bit():
    # the battery's draws: a random spec at truncation 3, coefficient dimension
    # 1 or 2; the same rng gives the same classes and coefficient bits, and the
    # evaluation at the model the same CSR, signed zeros included
    rng = np.random.default_rng(35)
    for _ in range(16):
        spec = random_spec(rng)
        space = FockSpace(spec, (3,) * spec.k, coeff_dim=int(rng.integers(1, 3)))
        seed = int(rng.integers(2**32))
        for n_monomials, hermitian in ((5, False), (6, False), (5, True)):
            sym = random_symbol(space, np.random.default_rng(seed), n_monomials=n_monomials, hermitian=hermitian)
            old = dict_random_symbol(space, np.random.default_rng(seed), n_monomials=n_monomials, hermitian=hermitian)
            assert sym.classes.tolist() == sorted(space.class_of(pair) for pair in old.coefficients)
            for pair, A in pair_coefficients(sym).items():
                assert same_bits(A, old.coefficients[pair])
            for r in (0.0, 0.3, 0.5, 0.7, 1.0):
                got = csr(evaluate_at_model(sym, r).matrix)
                expected = dict_evaluate_at_model(old, r)
                for name in ("indptr", "indices", "data"):
                    assert same_bits(getattr(got, name), getattr(expected, name)), (r, name)


def test_plus_adjoint_matches_the_word_keyed_hermitian_part_on_signed_zeros(rng):
    # coefficients of signed zeros and ones, so that the order of the adjoint's
    # 0 + A^*, the zero fill and the sum shows in the sign bits
    for space in oracle_spaces(rng):
        c = space.coeff_dim
        for _ in range(20):
            classes = np.sort(rng.choice(space.n_classes, size=min(8, space.n_classes), replace=False))
            coeffs = np.empty((classes.size, c, c), dtype=complex)
            coeffs.real = rng.choice([0.0, -0.0, 1.0, -1.0], size=coeffs.shape)
            coeffs.imag = rng.choice([0.0, -0.0, 1.0, -1.0], size=coeffs.shape)
            got = pair_coefficients(_plus_adjoint(FourierSymbol(space, classes, coeffs)))
            old = DictSymbol(space, pair_coefficients(FourierSymbol(space, classes, coeffs))).hermitian_part()
            expected = {pair: 2.0 * A for pair, A in old.coefficients.items()}
            assert list(got) == sorted(expected, key=space.class_of)
            for pair, A in got.items():
                assert same_bits(A, expected[pair])


@settings(max_examples=60, deadline=None)
@given(
    n=st.lists(st.integers(1, 12), min_size=1, max_size=2),
    coeff_dim=st.integers(1, 2),
    n_monomials=st.integers(1, 40),
    hermitian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=[12], coeff_dim=1, n_monomials=40, hermitian=False, seed=0)
def test_json_round_trip_keeps_ids_and_bits_in_the_render_order(n, coeff_dim, n_monomials, hermitian, seed):
    # past nine letters the render order is not the rank order: g10 sorts before g2
    trunc = tuple(2 if ni <= 4 else 1 for ni in n)
    spec = make_spec(len(n), n, (1,) * len(n), [(i + 1, (j,), 0.5 / ni) for i, ni in enumerate(n) for j in range(1, ni + 1)])
    space = FockSpace(spec, trunc, coeff_dim=coeff_dim)
    sym = random_symbol(space, np.random.default_rng(seed), n_monomials=n_monomials, hermitian=hermitian)
    doc = json.loads(json.dumps(symbol_to_json(sym)))

    def multiword(parts):
        return MultiWord(tuple(Word(tuple(letters), ni) for letters, ni in zip(parts, n)))

    written = [IndexPair(multiword(term["left"]), multiword(term["right"])) for term in doc["terms"]]
    assert written == DictSymbol(space, pair_coefficients(sym)).support()
    back = symbol_from_json(space, doc)
    assert same_bits(back.classes, sym.classes)
    assert same_bits(back.coeffs, sym.coeffs)


# -- scipy's sparse arithmetic, bit for bit --------------------------------------
# The program's sparse matrices are their stored entries; the scipy arithmetic
# they replaced is the oracle: scipy's todense, + and @ start each output entry
# at 0 (so -0.0 reads 0.0), + and @ drop an entry that sums to exactly 0, and
# @ sums each entry in the order of the left operand's column indices.


def csr_bits(m):
    """The canonical CSR arrays of ``m`` and the bits of its values."""
    m = csr(m) if isinstance(m, linalg_module.Entries) else m.tocsr()
    m.sort_indices()
    return m.shape, m.indptr.tolist(), m.indices.tolist(), m.data.astype(complex).tobytes()


def test_row_and_cauchy_dual_projection_match_scipy_bit_for_bit():
    # the battery's draws of the Cauchy dual check, at the truncations it
    # runs, and words up to length 4, where a row holds up to four entries
    # and the order of each sum shows in its bits
    rng = np.random.default_rng(31)
    for max_deg in [2] * 8 + [4] * 8:
        spec = random_spec(rng, k=1, max_deg=max_deg)
        for trunc in (2, 3, 4):
            for coeff_dim in (1, 2):
                space = FockSpace(spec, (trunc,), coeff_dim=coeff_dim)
                row = build_row(space, 0)
                expected = scipy_build_row(space, 0)
                assert csr_bits(row) == csr_bits(expected), (spec, trunc)
                got = cauchy_dual_projection(row)
                assert same_bits(got, scipy_cauchy_dual_projection(expected)), (spec, trunc, coeff_dim)


def signed_zero_entries(rng, shape):
    """Stored entries with ``-0.0`` parts, explicit zeros and duplicates, as scipy's COO, and as ``Entries``."""
    count = shape[0] * shape[1] // 2
    rows, cols = rng.integers(shape[0], size=count), rng.integers(shape[1], size=count)
    parts = rng.choice([0.0, -0.0, 1.0, -1.0, 0.1, 1e-3, -1e-3], size=(count, 2))
    coo = sp.coo_matrix((parts[:, 0] + 1j * parts[:, 1], (rows, cols)), shape=shape)
    coo.data[: count // 3] = complex(-0.0, -0.0)
    return coo, linalg_module.Entries(*linalg_module.stored_entries(coo.tocsr()), shape)


def test_dense_copy_and_adjoint_match_scipy_on_signed_zeros(rng):
    for shape in ((1, 1), (3, 5), (6, 6), (9, 4)):
        for _ in range(20):
            coo, entries = signed_zero_entries(rng, shape)
            want = np.asarray(coo.tocsr().todense(), dtype=complex)
            assert as_dense(entries).tobytes() == want.tobytes()
            assert as_dense(coo).tobytes() == np.asarray(coo.todense(), dtype=complex).tobytes()
            assert csr_bits(linalg_module.adjoint(entries)) == csr_bits(coo.tocsr().conj().T)


def test_spoiled_sum_matches_scipy_on_signed_zeros(rng):
    space = FockSpace(make_spec(1, (2,), (1,), [(1, (1,), 0.5), (1, (2,), 0.5)]), (2,), coeff_dim=2)
    n = space.total_dim
    for _ in range(40):
        _, entries = signed_zero_entries(rng, (n, n))
        T = FockOperator(space, entries)
        # a cell of its own, and cells that hold -1e-3, a signed zero or an explicit zero
        cells = [divmod(int(k), n) for k in rng.choice(n * n, size=2, replace=False)]
        cells += [divmod(int(k), n) for k in entries.keys[entries.vals == -1e-3][:1]]
        cells += [divmod(int(k), n) for k in entries.keys[entries.vals == 0][:2]]
        for row, col in cells:
            want = csr(entries) + sp.csr_matrix(([1e-3], ([row], [col])), shape=(n, n))
            assert csr_bits(_spoiled(T, row, col).matrix) == csr_bits(want), (row, col)

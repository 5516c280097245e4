"""Weighted multi-Toeplitz structure: detection, symbols, reconstruction.

An operator is weighted multi-Toeplitz when its matrix vanishes at
non-comparable basis pairs and scales along comparable ones by the ratio of
entry weights to the weight of the reduced representative.  The routines
here check that definition on the stored entries of an operator by
word-offset arithmetic, extract the Fourier coefficient family, and rebuild
operators from it.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import linalg
from .cpmaps import OperatorTuple
from .errors import DimensionMismatch, SpecError
from .freemonoid import IndexPair, MultiWord, Word
from .model import FockOperator, FockSpace
from .sampling import normal_blocks
from .weights import json_int, json_number

__all__ = [
    "FourierSymbol",
    "ToeplitzReport",
    "NotMultiToeplitz",
    "is_multi_toeplitz",
    "graded_entries",
    "extract_fourier",
    "evaluate_at_model",
    "evaluate_at_tuple",
    "cesaro_reconstruct",
    "pluriharmonic_kernel",
    "random_symbol",
    "symbol_to_json",
    "symbol_from_json",
]


class NotMultiToeplitz(SpecError):
    """Raised when a symbol is requested from a non-Toeplitz operator."""

    def __init__(self, report: "ToeplitzReport") -> None:
        super().__init__(
            f"operator is not weighted multi-Toeplitz "
            f"(max violation {report.max_violation:.3e})"
        )
        self.report = report


@dataclass(frozen=True, eq=False)
class FourierSymbol:
    """Finitely supported coefficient family ``{A_s}`` of reduced pairs: ``coeffs[j]`` is ``A`` at class ``classes[j]``.

    The class ids (:meth:`~polytoeplitz.model.FockSpace.class_factors`)
    increase strictly, as int64; the stack is ``(m, c, c)`` complex.
    """

    space: FockSpace
    classes: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self) -> None:
        classes = np.asarray(self.classes, dtype=np.int64)
        coeffs = np.asarray(self.coeffs, dtype=complex)
        c = self.space.coeff_dim
        if coeffs.shape != (classes.size, c, c):
            raise DimensionMismatch(f"coefficient stack has shape {coeffs.shape}, want {(classes.size, c, c)}")
        if classes.ndim != 1 or np.any(classes[1:] <= classes[:-1]) or (
            classes.size and not 0 <= classes[0] <= classes[-1] < self.space.n_classes
        ):
            raise SpecError(f"class ids must increase strictly within [0, {self.space.n_classes})")
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "coeffs", coeffs)

    @functools.cached_property
    def _layout(self) -> tuple[np.ndarray, ...]:
        """The radius-independent part of :func:`evaluate_at_model`, built on first use.

        Returns ``(term, fock, order, keys, degree)``: the term and value of
        each Fock entry of :meth:`~polytoeplitz.model.FockSpace.term_entries`;
        over the entries of all ``c * c`` coefficient blocks (block-major),
        the permutation to row-major order and the keys in that order; and
        each class's total degree ``|s|``.
        """
        space = self.space
        c, d, n = space.coeff_dim, space.dim, space.total_dim
        term, members, fock = space.term_entries(self.classes)
        fock_rows, fock_cols = np.divmod(members, d)
        blocks = np.arange(c * c)
        rows = (blocks // c * d)[:, None] + fock_rows[None, :]
        cols = (blocks % c * d)[:, None] + fock_cols[None, :]
        keys = (rows * n + cols).ravel()
        order = np.argsort(keys)
        factors = space.class_factors(self.classes)
        degree = sum(space.factor_layouts[i][1][quot] for i, (quot, _) in enumerate(factors))
        return term, fock, order, keys[order], degree


def _plus_adjoint(sym: FourierSymbol) -> FourierSymbol:
    """The symbol of ``T + T^*``, for ``T`` the operator of ``sym``, as ``2 * (0.5 * (A_s + A^*))``.

    The adjoint moves the coefficient ``A`` at a class to ``0 + A^*`` (a
    signed zero made positive) at its :meth:`~FockSpace.adjoint_classes`
    class.  A class missing on one side reads as a zero block there.
    """
    space, c = sym.space, sym.space.coeff_dim
    swapped = space.adjoint_classes(sym.classes)
    classes = linalg.sorted_unique(np.concatenate([sym.classes, swapped]))
    own, adjoint = np.zeros((2, classes.size, c, c), dtype=complex)
    own[np.searchsorted(classes, sym.classes)] = sym.coeffs
    adjoint[np.searchsorted(classes, swapped)] = 0 + sym.coeffs.conj().transpose(0, 2, 1)
    return FourierSymbol(space, classes, 2.0 * (0.5 * (own + adjoint)))


@dataclass
class ToeplitzReport:
    verdict: bool
    max_violation: float
    worst_pair: Optional[tuple[MultiWord, MultiWord]]
    checked_pairs: int
    skipped_pairs: int = 0
    structural_violation: float = 0.0
    scaling_violation: float = 0.0
    tolerance: float = 0.0
    # for extract_fourier, the classes whose representative pair holds a stored
    # entry: (their ids, ascending, the representatives' entry weights, the
    # (c, c, n) coefficient blocks there)
    blocks: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default=None, repr=False, compare=False
    )

    def to_dict(self) -> dict:
        return {
            "verdict": bool(self.verdict),
            "max_violation": float(self.max_violation),
            "worst_pair": None
            if self.worst_pair is None
            else [self.worst_pair[0].render(), self.worst_pair[1].render()],
            "checked_pairs": int(self.checked_pairs),
            "skipped_pairs": int(self.skipped_pairs),
            "structural_violation": float(self.structural_violation),
            "scaling_violation": float(self.scaling_violation),
            "tolerance": float(self.tolerance),
        }

    def render(self) -> str:
        lines = [
            f"multi-Toeplitz verdict: {'yes' if self.verdict else 'NO'}",
            f"  max violation: {self.max_violation:.3e} (tolerance {self.tolerance:.1e})",
            f"  structural (non-comparable entries): {self.structural_violation:.3e}",
            f"  scaling (weight-ratio relation):     {self.scaling_violation:.3e}",
            f"  basis pairs checked: {self.checked_pairs}, skipped: {self.skipped_pairs}",
        ]
        if self.worst_pair is not None:
            lines.append(
                f"  worst pair: row {self.worst_pair[0].render()}, "
                f"column {self.worst_pair[1].render()}"
            )
        return "\n".join(lines)


def _words_at(space: FockSpace, key) -> tuple[MultiWord, MultiWord]:
    """The basis multi-words of the basis pair with row-major key ``row * dim + col``."""
    r, c = divmod(int(key), space.dim)
    return space.multiword_at(r), space.multiword_at(c)


def is_multi_toeplitz(T: FockOperator, tol: float = 1e-10) -> ToeplitzReport:
    """Decide weighted multi-Toeplitz structure over every basis pair, from the stored entries of ``T``.

    Checks (a) zero entries at non-comparable pairs (absolute tolerance) and
    (b) the weight-ratio relation against the reduced representative entry at
    comparable pairs (relative to ``max(1, ||T||)``).  Each stored entry is
    classified by word-offset arithmetic (:meth:`FockSpace.classify_pairs`).
    The relation (b) can fail only at a stored entry or at a member of a class
    whose representative entry is stored; the members of those classes are
    enumerated (:meth:`FockSpace.class_members`) and every other comparable
    pair has deviation exactly 0.  ``||T||`` matters only when the scaling
    deviation exceeds the structural one.  Then it is bracketed first
    (:func:`linalg.norm_bracket`: exact up to the dense cutoff, Schur's test
    and the largest row or column norm past it), and Lanczos
    (:func:`linalg.op_norm`) runs only when the bracket leaves open the
    verdict or whether the scaling check gives the worst pair.  Otherwise
    ``max_violation`` is ``max(structural, scaling / max(1, lo))``: the
    exact-norm value up to the cutoff, an upper bound on it past the cutoff,
    with the same verdict and worst pair.  The worst pair is the first maximum
    in row-major order.
    Reduced representatives always sit inside the truncation, so no pair is
    skipped; a count is kept anyway for the report schema.  Storage grows
    with the stored entries and the members of the classes they touch, not
    with ``dim**2`` or the number of comparable pairs.
    """
    space = T.space
    structural, worst, candidates, dev, blocks = _entry_deviations(space, T.matrix)
    scaling = float(dev.max()) if dev.size else 0.0

    max_violation = structural
    # otherwise scaling / max(1, ||T||) <= structural; NaN takes this branch
    if not scaling <= structural:
        # scaling / max(1, ||T||) lies in [least, most]; ||T|| itself is needed
        # only when that range leaves open which check is worst, or the verdict
        bound = max(structural, 0.0)
        lo, hi = linalg.norm_bracket(T.matrix)
        least, most = scaling / max(1.0, hi), scaling / max(1.0, lo)
        if (
            not math.isfinite(hi)
            or least <= bound < most
            or (structural <= tol and least <= tol < most)
        ):
            least = most = scaling / max(1.0, linalg.op_norm(T.matrix))
        if least > bound and scaling > 0.0:
            worst = _words_at(space, candidates[np.argmax(dev)])
        max_violation = linalg.strict_max(structural, most)
    return ToeplitzReport(
        verdict=bool(max_violation <= tol),
        max_violation=max_violation,
        worst_pair=worst if max_violation > 0.0 else None,
        checked_pairs=space.dim * space.dim,
        skipped_pairs=0,
        structural_violation=structural,
        scaling_violation=scaling,
        tolerance=tol,
        blocks=blocks,
    )


def _entry_deviations(space: FockSpace, matrix):
    """The two checks of :func:`is_multi_toeplitz` on the stored entries of ``matrix``.

    Returns ``(structural, worst, candidates, dev, blocks)``: the largest
    entry at a non-comparable pair and its first pair in row-major order
    (None when it is 0), the sorted candidate pairs with the scaling
    deviation at each, and the representative blocks.  Each basis pair is
    classified once: a candidate that holds a stored entry takes that entry's
    class, and only the members that hold none are classified here.  Each
    array is dropped once its last reader has run.
    """
    d, n, c = space.dim, space.total_dim, space.coeff_dim
    entry_keys, vals = linalg.stored_entries(matrix)
    # the basis pair of each entry; with one coefficient dimension, the entry's own key
    keys = entry_keys if n == d else entry_keys // n % d * d + entry_keys % d
    comparable, cls, tau, tau_rep, rep = space.classify_pairs(keys)

    structural, worst = 0.0, None
    out_mags = np.abs(vals[~comparable])
    if out_mags.size:
        structural = float(out_mags.max())
        if structural > 0.0:
            worst = _words_at(space, keys[~comparable][out_mags == structural].min())

    # the classes whose representative pair holds a stored entry
    at_rep = comparable & (rep == keys)
    classes, first = np.unique(cls[at_rep], return_index=True)
    rep_keys, rep_tau = rep[at_rep][first], tau_rep[at_rep][first]
    del out_mags, cls, at_rep
    # per comparable entry: its pair's weight ratio, representative, coefficient block and key
    ratio = tau[comparable] / tau_rep[comparable]
    del tau, tau_rep
    rep, keys = rep[comparable], keys[comparable]
    block = entry_keys[comparable] // (n * d) * c + entry_keys[comparable] % n // d if c > 1 else 0
    del entry_keys

    # the candidates: the pairs holding a comparable entry, and the members of
    # the classes above that hold none, which alone are classified here
    held = keys if n == d else linalg.sorted_unique(keys)
    members = space.class_members(classes)
    fresh = np.sort(members[~linalg.lookup(held, members)[1]])
    candidates = np.insert(held, np.searchsorted(held, fresh), fresh)
    del members, held
    # the coefficient blocks at the candidates; the last one is the zero block
    # read where a representative holds no stored entry
    E = np.zeros((c, c, candidates.size + 1), dtype=complex)
    pos = linalg.lookup(candidates, keys)[0]
    E.reshape(c * c, -1)[block, pos] = vals[comparable]
    ratios = np.empty(candidates.size)
    reps = np.empty(candidates.size, dtype=np.int64)
    ratios[pos], reps[pos] = ratio, rep
    del keys, block, vals, comparable, ratio, rep, pos
    at = np.searchsorted(candidates, fresh)
    fresh_classes = space.classify_pairs(fresh)
    ratios[at], reps[at] = fresh_classes.tau / fresh_classes.tau_rep, fresh_classes.rep
    blocks = (classes, rep_tau, E[:, :, linalg.lookup(candidates, rep_keys)[0]])

    pos, hit = linalg.lookup(candidates, reps)
    pos[~hit] = candidates.size
    expected = E[:, :, pos]
    del reps, pos, hit
    # ratio * E[rep] - E, each operation in the order of the dense rule
    np.multiply(ratios, expected, out=expected)
    np.subtract(E[:, :, :-1], expected, out=expected)
    del E, ratios
    dev = np.abs(expected).max(axis=(0, 1))
    return structural, worst, candidates, dev, blocks


def _gap_places(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Place values and offsets ``L_i`` of the encoded degree gap.

    The factor-``i`` gap lies in ``[-L_i, L_i]``, so a gap vector is encoded
    as ``sum_i (gap_i + L_i) * place_i`` in mixed radix ``2 L_i + 1``, first
    factor slowest; codes then order like the gap vectors, lexicographically.
    """
    L = np.asarray(space.trunc, dtype=np.int64)
    place = np.ones(L.size, dtype=np.int64)
    for i in range(L.size - 2, -1, -1):
        place[i] = place[i + 1] * (2 * L[i + 1] + 1)
    return place, L


def _degree_gaps(T: FockOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stored entries of ``T`` and the encoded torus degree gap of each.

    Returns ``(keys, vals, code)``: the entries of :func:`linalg.stored_entries`
    and the code (see :func:`_gap_places`) of ``degree_table()[row % dim] -
    degree_table()[col % dim]``.  The encoding is linear in the degrees, so
    each entry's code is a difference of two per-word codes.
    """
    space = T.space
    keys, vals = linalg.stored_entries(T.matrix)
    place, L = _gap_places(space)
    # the code of each basis word, once per coefficient index
    word_code = np.tile(space.degree_table() @ place, space.coeff_dim)
    rows, cols = np.divmod(keys, space.total_dim)
    code = word_code[rows]
    code -= word_code[cols]
    code += int(L @ place)
    return keys, vals, code


def graded_entries(T: FockOperator) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The stored entries of ``T`` in (encoded degree gap, key) order.

    Returns ``(keys, vals, present, bounds)``: the entries of
    :func:`linalg.stored_entries`, the codes (see :func:`_gap_places`) that
    occur, ascending, and the run bounds, so that the entries of code
    ``present[p]`` are ``keys[bounds[p]:bounds[p + 1]]``, in row-major order.
    One stable counting sort of the codes (numpy's radix sort, on the
    narrowest unsigned type that holds them) orders the entries; the keys and
    values are fresh arrays.
    """
    keys, vals, code = _degree_gaps(T)
    place, L = _gap_places(T.space)
    n_codes = int(np.prod(2 * L + 1))
    order = np.argsort(code.astype(np.min_scalar_type(n_codes - 1)), kind="stable")
    sizes = np.bincount(code, minlength=n_codes)
    del code
    # one gather at a time, so the unsorted keys are gone before the values are copied
    keys = keys[order]
    vals = vals[order]
    del order
    present = np.flatnonzero(sizes)
    bounds = np.concatenate([[0], np.cumsum(sizes[present])])
    return keys, vals, present, bounds


def extract_fourier(T: FockOperator, report: ToeplitzReport, drop_tol: float = 0.0) -> FourierSymbol:
    """Read the coefficient family off the reduced representative entries of ``report = is_multi_toeplitz(T)``.

    Each coefficient is the block at the representative pair divided by its
    entry weight (equivalently multiplied by the square-rooted weights of
    both sides); coefficients whose largest magnitude is at most
    ``drop_tol`` (``>= 0``) are dropped, so classes without a stored
    representative entry never appear.  Refuses operators whose report
    fails, with :class:`NotMultiToeplitz`.
    """
    if not drop_tol >= 0.0:
        raise SpecError(f"drop tolerance must be >= 0, got {drop_tol}")
    if not report.verdict:
        raise NotMultiToeplitz(report)
    classes, tau_rep, E = report.blocks
    raw = E / tau_rep[None, None, :]
    kept = np.flatnonzero(np.abs(raw).max(axis=(0, 1)) > drop_tol)
    return FourierSymbol(T.space, classes[kept], raw[:, :, kept].transpose(2, 0, 1))


def evaluate_at_model(sym: FourierSymbol, r: float = 1.0) -> FockOperator:
    """The operator ``sum r^{|s|} A (x) W_left W_right^*`` on the symbol's space, as stored entries.

    Distinct reduced pairs have disjoint supports (every comparable basis pair
    reduces to one pair), so the terms' entries are gathered, not added.  The
    Fock entries ``v`` of all terms come from one
    :meth:`~polytoeplitz.model.FockSpace.term_entries` call, kept with the
    sort into row-major order on the symbol (``FourierSymbol._layout``), so
    another radius of the same symbol pays only for the values.  Coefficient
    block ``(x, y)`` puts ``r^{|s|} * (A[x, y] * v)`` at row ``x*dim + row``
    and column ``y*dim + col``, the products
    :func:`~polytoeplitz.model.monomial` and the radial scaling form, in
    their order.  Exact zeros are dropped.
    """
    c = sym.space.coeff_dim
    term, fock, order, keys, degree = sym._layout
    # r ** |s| as Python's power of an int exponent, which numpy's vectorised power does not always match
    radial = np.array([r**d for d in range(int(degree.max(initial=0)) + 1)], dtype=float)[degree]
    # row b holds coefficient entry A.flat[b] of each member's term
    vals = sym.coeffs.reshape(-1, c * c)[term].T * fock
    vals = (radial[term] * vals).ravel()[order]
    kept = vals != 0
    return FockOperator(sym.space, linalg.Entries(keys[kept], vals[kept], (sym.space.total_dim,) * 2))


def evaluate_at_tuple(sym: FourierSymbol, X: OperatorTuple) -> np.ndarray:
    """The matrix ``sum A (x) X_left X_right^*`` on K (x) H.

    ``X_u`` is the product in factor order of the factors' word operators,
    read by the rank of each class digit's quotient, on its side, from
    :meth:`~polytoeplitz.cpmaps.OperatorTuple.word_stack`.  The terms are
    summed in class-id order.
    """
    space, c, d = sym.space, sym.space.coeff_dim, X.dim_h
    factors = space.class_factors(sym.classes)
    stacks = [X.word_stack(i, int(space.factor_layouts[i][1][quot].max(initial=0))) for i, (quot, _) in enumerate(factors)]
    # per factor, the word rank of each class's left side, then of its right side
    sides = [[np.where(row_long == left, quot, 0) for quot, row_long in factors] for left in (True, False)]
    out = np.zeros((c * d, c * d), dtype=complex)
    for j, A in enumerate(sym.coeffs):
        X_left, X_right = (functools.reduce(np.matmul, [s[r[j]] for s, r in zip(stacks, side)]) for side in sides)
        out += np.kron(A, X_left @ X_right.conj().T)
    return out


def cesaro_reconstruct(
    T: FockOperator, N: Sequence[int], fejer_weights: bool = True
) -> FockOperator:
    """Windowed sum of homogeneous parts with per-factor cutoffs ``N >= 0``, as stored entries.

    With ``fejer_weights`` the degree-``s`` part enters with weight
    ``prod_i (1 - |s_i|/(N_i + 1))`` on ``|s_i| <= N_i``; these means converge
    to ``T`` as the cutoffs grow but stay strictly below it at any finite
    window.  Without weights the sum is the plain degree cutoff, which
    reproduces ``T`` exactly as soon as every ``N_i`` reaches the largest
    degree difference the truncation supports (``N_i >= L_i`` suffices, so in
    particular ``N_i >= 2 L_i`` does).  The weights are tabled once per
    encoded degree gap, the factors multiplied in factor order, and gathered
    by each stored entry's code; entries of weight zero are dropped.
    """
    space = T.space
    if len(N) != space.spec.k:
        raise DimensionMismatch("cutoff tuple length differs from factor count")
    if any(Ni < 0 for Ni in N):
        raise SpecError(f"cutoffs must be nonnegative, got {tuple(N)}")
    place, L = _gap_places(space)
    codes = np.arange(int(np.prod(2 * L + 1)))
    table = np.ones(codes.size, dtype=float)
    for i, Ni in enumerate(N):
        diff = np.abs(codes // place[i] % (2 * L[i] + 1) - L[i])
        if fejer_weights:
            table *= np.maximum(0.0, 1.0 - diff / (Ni + 1.0))
        else:
            table *= diff <= Ni
    keys, vals, code = _degree_gaps(T)
    weight = table[code]
    del code
    kept = weight != 0.0
    vals = vals[kept]
    vals *= weight[kept]
    return FockOperator(space, linalg.Entries(keys[kept], vals, T.matrix.shape))


def pluriharmonic_kernel(sym: FourierSymbol, r: float) -> linalg.Entries:
    """The structured kernel of a symbol at radius ``r``, as stored entries.

    Block entry at a comparable basis pair ``(w, g)`` is
    ``tau_(w,g) r^{|s(w,g)|} A_{s(w,g)}``; zero blocks elsewhere.  That is
    :func:`evaluate_at_model` with the Fock index slow: entry ``[w*c + x,
    g*c + y]`` here is entry ``[x*dim + w, y*dim + g]`` there, and the
    kernel permutes exactly the stored entries of the model operator.
    """
    if not 0.0 <= r < 1.0:
        raise SpecError(f"radius must lie in [0, 1), got {r}")
    c, d = sym.space.coeff_dim, sym.space.dim
    model = evaluate_at_model(sym, r).matrix
    rows, cols = np.divmod(model.keys, d * c)
    moved = (rows % d * c + rows // d) * (d * c) + cols % d * c + cols // d
    order = np.argsort(moved)
    return linalg.Entries(moved[order], model.vals[order], (d * c, d * c))


def random_symbol(
    space: FockSpace,
    rng: np.random.Generator,
    n_monomials: int = 6,
    hermitian: bool = False,
) -> FourierSymbol:
    """A random finitely supported symbol on ``space`` (test helper).

    Draws distinct reduced pairs from the truncation, always including the
    identity pair (it replaces the last draw when not drawn), and attaches
    normalized complex Gaussian coefficient matrices; with ``hermitian`` the
    symbol is symmetrized so the evaluated operator is self-adjoint.
    """
    c = space.coeff_dim
    count = max(1, min(n_monomials, space.n_classes))
    chosen = rng.choice(space.n_classes, size=count, replace=False)
    # class 0 is the identity pair
    if 0 not in chosen:
        chosen = np.append(chosen[:-1], 0)
    coeffs = normal_blocks(rng, count, c)
    order = np.argsort(chosen)
    sym = FourierSymbol(space, chosen[order], coeffs[order])
    return _plus_adjoint(sym) if hermitian else sym


def symbol_to_json(sym: FourierSymbol) -> dict:
    """The JSON form of ``sym``: the words and coefficient of each class, by ``(|s|, left.render(), right.render())``."""
    pairs = [sym.space.class_pair(int(cid)) for cid in sym.classes]
    order = sorted(range(len(pairs)), key=lambda j: (pairs[j].total_weight, pairs[j].left.render(), pairs[j].right.render()))
    terms = [
        {
            "left": [list(w.letters) for w in pairs[j].left.parts],
            "right": [list(w.letters) for w in pairs[j].right.parts],
            "re": np.real(sym.coeffs[j]).tolist(),
            "im": np.imag(sym.coeffs[j]).tolist(),
        }
        for j in order
    ]
    return {
        "k": sym.space.spec.k,
        "n": list(sym.space.spec.n),
        "coeff_dim": sym.space.coeff_dim,
        "terms": terms,
    }


def _term_name(pair: IndexPair) -> str:
    """How an error names a symbol term: its left and right words."""
    return f"symbol term {pair.left.render()} | {pair.right.render()}"


def symbol_from_json(space: FockSpace, doc: Union[str, dict]) -> FourierSymbol:
    """Parse the form written by :func:`symbol_to_json`.

    A malformed document, a pair given twice, or a coefficient that is not
    a finite ``(coeff_dim, coeff_dim)`` matrix, raises :class:`SpecError`.
    Every term is checked; then a term with a word beyond the truncation,
    which has no class, is dropped.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid symbol JSON: {exc}") from exc
    try:
        sizes = tuple(json_int(x, "n") for x in doc.get("n", ()))
        c, terms = json_int(doc.get("coeff_dim", 1), "coeff_dim"), list(doc.get("terms", []))
    except (AttributeError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed symbol document: {exc}") from exc
    if sizes != space.spec.n or c != space.coeff_dim:
        raise DimensionMismatch("symbol document does not match the target space")
    coeffs: dict[IndexPair, np.ndarray] = {}
    for term in terms:
        try:
            # strict: one word per factor, no more and no fewer
            left, right = (
                MultiWord(tuple(
                    Word(tuple(json_int(g, "letter") for g in ls), n) for ls, n in zip(term[side], sizes, strict=True)
                ))
                for side in ("left", "right")
            )
            re, im = (
                np.asarray([[json_number(x, part) for x in row] for row in term[part]], dtype=float)
                for part in ("re", "im")
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"malformed symbol term {term!r}: {exc}") from exc
        pair = IndexPair(left=left, right=right)
        if pair in coeffs:
            raise SpecError(f"duplicate {_term_name(pair)}")
        if re.shape != (c, c) or im.shape != (c, c):
            raise SpecError(f"{_term_name(pair)}: re and im must have shape {(c, c)}, got {re.shape} and {im.shape}")
        if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
            raise SpecError(f"{_term_name(pair)}: non-finite coefficient")
        coeffs[pair] = re + 1j * im
    ids = np.array([space.class_of(pair) for pair in coeffs], dtype=np.int64)
    kept = np.flatnonzero(ids >= 0)
    kept = kept[np.argsort(ids[kept])]
    return FourierSymbol(space, ids[kept], np.array(list(coeffs.values()), dtype=complex).reshape(-1, c, c)[kept])

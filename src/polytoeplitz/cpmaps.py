"""Completely positive maps, polydomain membership, and Berezin transforms.

An :class:`OperatorTuple` holds one matrix tuple per factor, acting on a
common finite-dimensional Hilbert space; entries of different factors must
commute.  The maps here implement the defining positivity conditions of the
polydomain and the kernel that transports operators from the universal model
(:class:`UniversalModel`, which holds no matrix) to an arbitrary member tuple.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import linalg
from .errors import DimensionMismatch, SpecError
from .freemonoid import Word, word_rank
from .model import FockOperator, FockSpace
from .weights import PolydomainSpec, series_tail_bound

__all__ = [
    "OperatorTuple",
    "UniversalModel",
    "phi_map",
    "defect",
    "is_member",
    "is_pure",
    "BerezinKernel",
    "berezin_kernel",
    "berezin_transform",
    "intertwining_residual",
    "random_pure_tuple",
]

@dataclass
class OperatorTuple:
    """A point of (a candidate for) the polydomain on a concrete Hilbert space, as matrices."""

    spec: PolydomainSpec
    ops: tuple[tuple[np.ndarray, ...], ...]
    dim_h: int
    commutation_checked: bool = False
    _kraus_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if len(self.ops) != self.spec.k:
            raise DimensionMismatch("need one operator tuple per factor")
        for i, fac in enumerate(self.ops):
            if len(fac) != self.spec.n[i]:
                raise DimensionMismatch(
                    f"factor {i + 1} needs {self.spec.n[i]} operators, got {len(fac)}"
                )
            for X in fac:
                if X.shape != (self.dim_h, self.dim_h):
                    raise DimensionMismatch("operator shape differs from dim_h")

    def check_commutation(self) -> float:
        """Max relative cross-factor commutator norm; marks the tuple checked.

        Each commutator norm is divided by ``max(1, ||A|| ||B||)``; a worst
        value above ``1e-10``, or NaN, raises :class:`SpecError`.
        """
        worst = 0.0
        for p, q in itertools.combinations(range(self.spec.k), 2):
            for A in self.ops[p]:
                for B in self.ops[q]:
                    comm = A @ B - B @ A
                    scale = max(1.0, linalg.op_norm(A) * linalg.op_norm(B))
                    worst = linalg.strict_max(worst, linalg.op_norm(comm) / scale)
        if not worst <= 1e-10:  # NaN included
            raise SpecError(f"cross-factor commutation violated: {worst:.3e} > 1e-10")
        self.commutation_checked = True
        return worst

    def identity(self) -> np.ndarray:
        """The identity on H."""
        return np.eye(self.dim_h, dtype=complex)

    def kraus(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Factor ``i``'s ``X_w`` in coefficient order, by rank from :meth:`word_stack`, and the ``a_w``; cached."""
        if i not in self._kraus_cache:
            words, coeffs = zip(*self.spec.coeffs[i].items())
            self._kraus_cache[i] = (
                self.word_stack(i, self.spec.degree(i))[[word_rank(w) for w in words]],
                np.array(coeffs, dtype=float),
            )
        return self._kraus_cache[i]

    def word_stack(self, i: int, max_len: int) -> np.ndarray:
        """``X_w`` for factor ``i``'s words ``|w| <= max_len`` in graded-lexicographic order, dense.

        Built a word length at a time by one stacked product: the word at
        offset ``o`` of length ``d`` is its prefix at offset ``o // n`` times
        the letter ``o % n + 1``.
        """
        n = self.spec.n[i]
        letters = np.stack([linalg.as_dense(A) for A in self.ops[i]])
        levels = [np.eye(self.dim_h, dtype=complex)[None]]
        for d in range(1, max_len + 1):
            offsets = np.arange(n**d)
            levels.append(levels[-1][offsets // n] @ letters[offsets % n])
        return np.concatenate(levels)

    def scaled(self, r: float) -> "OperatorTuple":
        """``r X``."""
        return OperatorTuple(
            spec=self.spec,
            ops=tuple(tuple(r * X for X in fac) for fac in self.ops),
            dim_h=self.dim_h,
            commutation_checked=self.commutation_checked,
        )


class UniversalModel(NamedTuple):
    """The weighted creation tuple of ``space`` on its Fock part, whose creations commute exactly.

    Its word operators move basis vectors (:meth:`FockSpace.word_action`), so
    its completely positive maps carry their operands as diagonals.
    """

    space: FockSpace
    side: str = "left"

    @property
    def spec(self) -> PolydomainSpec:
        return self.space.spec

    @property
    def dim_h(self) -> int:
        return self.space.dim

    def identity(self) -> np.ndarray:
        """The identity's diagonal."""
        return np.ones(self.dim_h, dtype=complex)


def _conjugations(X: OperatorTuple, i: int, Y: np.ndarray) -> np.ndarray:
    """``a_w (K_w Y) K_w^*`` over factor ``i``'s :meth:`~OperatorTuple.kraus` words, a leading axis in coefficient order.

    ``Y`` is a ``(..., dim_h, dim_h)`` stack, taken in one stacked product.
    """
    K, a = X.kraus(i)
    lead = (1,) * (Y.ndim - 2)
    K = K.reshape(K.shape[0], *lead, *K.shape[1:])
    return a.reshape(-1, *lead, 1, 1) * ((K @ Y) @ K.conj().swapaxes(-1, -2))


def phi_map(X: OperatorTuple | UniversalModel, i: int, Y: np.ndarray) -> np.ndarray:
    """The factor-i completely positive map ``Y -> sum a_w X_w Y X_w^*``.

    On the universal model ``Y`` and the result are diagonals, vectors of
    length ``dim_h``: each word's :meth:`~FockSpace.word_action` moves the
    middle digit of :meth:`~FockSpace.split` from ``src`` to ``dst`` times
    ``|val|**2``, one scatter per word.  Matrix tuples take one stacked
    product over the :meth:`~OperatorTuple.kraus` stack (:func:`_conjugations`).
    Either way the terms are added from zeros in coefficient order.
    """
    if isinstance(X, OperatorTuple):
        acc = np.zeros((X.dim_h, X.dim_h), dtype=complex)
        for term in _conjugations(X, i, linalg.as_dense(Y)):
            acc += term
        return acc
    if Y.shape != (X.dim_h,):
        raise DimensionMismatch(f"the universal model's operand is its diagonal, shape ({X.dim_h},), got {Y.shape}")
    acc = np.zeros(X.space.split(i, coeff=False), dtype=complex)
    if acc.shape[0] * acc.shape[2] == 1:
        # one factor: the same products, scattered on the diagonal itself
        acc = acc.reshape(-1)
        for w, a in X.spec.coeffs[i].items():
            src, dst, lam = X.space.word_action(i, w, X.side)
            acc[dst] = acc[dst] + a * (lam.conj() * (lam * Y[src]))
        return acc
    Y = Y.reshape(acc.shape)
    for w, a in X.spec.coeffs[i].items():
        src, dst, lam = X.space.word_action(i, w, X.side)
        # the order of the dense products (X_w Y) X_w^* on the diagonal
        acc[:, dst] = acc.take(dst, axis=1) + a * (lam.conj()[:, None] * (lam[:, None] * Y.take(src, axis=1)))
    return acc.ravel()


def defect(X: OperatorTuple | UniversalModel, p: Sequence[int]) -> np.ndarray:
    """``(id - Phi_1)^{p_1} ... (id - Phi_k)^{p_k}`` applied to the identity.

    The rightmost factor acts first; for commuting tuples the order is
    immaterial.  Starts from ``X.identity()``, so the universal model yields
    the defect's diagonal and a matrix tuple a matrix.
    """
    spec = X.spec
    if len(p) != spec.k:
        raise DimensionMismatch("power tuple length differs from factor count")
    if any(pi < 0 or pi > mi for pi, mi in zip(p, spec.m)):
        raise SpecError(f"powers {tuple(p)} outside 0..m = {spec.m}")
    Y = X.identity()
    for i in reversed(range(spec.k)):
        for _ in range(p[i]):
            # Y by keyword: the benchmark tracer (bench/tracing.py) reads it as args[3] or kwargs["Y"]
            Y = Y - phi_map(X, i, Y=Y)
    return Y


def _lattice_walk(m: Sequence[int], start, step):
    """Yield ``(p, D(p))`` over ``0 <= p <= m`` in product order: ``D(0) = start``, ``D(p) = step(j, D(p - e_j))``.

    ``j`` is the first nonzero index of ``p``; the order visits ``p - e_j`` first.
    """
    values: dict[tuple[int, ...], np.ndarray] = {}
    for p in itertools.product(*(range(mi + 1) for mi in m)):
        j = next((i for i, pi in enumerate(p) if pi), None)
        values[p] = start if j is None else step(j, values[p[:j] + (p[j] - 1,) + p[j + 1 :]])
        yield p, values[p]


def _defect_walk(X: OperatorTuple | UniversalModel):
    """Yield ``(p, defect(X, p))`` over ``0 <= p <= m`` in product order.

    Each point costs one map (:func:`_lattice_walk`): ``D(p) = D(p - e_j) -
    Phi_j(D(p - e_j))``.  :func:`defect` applies factor ``j`` last, so every
    ``D(p)`` equals ``defect(X, p)`` exactly.
    """
    # Y by keyword: the benchmark tracer (bench/tracing.py) reads it as args[3] or kwargs["Y"]
    return _lattice_walk(X.spec.m, X.identity(), lambda j, prev: prev - phi_map(X, j, Y=prev))


def _extreme_eigs(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest eigenvalue of the Hermitian part of each matrix, one batched ``eigvalsh``."""
    eigs = np.linalg.eigvalsh(linalg.hermitize(stack))
    return eigs[:, 0], eigs[:, -1]


def is_member(X: OperatorTuple | UniversalModel, tol: float = 1e-9) -> tuple[bool, tuple[tuple[int, ...], float]]:
    """Membership test: every defect ``0 <= p <= m`` must be PSD up to ``tol``.

    Returns the verdict and a witness ``(p, min eigenvalue)`` for the most
    negative defect found (the first in product order), or the first whose
    eigenvalues are NaN, which fails the verdict.  The defects come
    from one walk over the lattice (one map per point), not from the identity
    at every point, and are answered by one batched ``eigvalsh``; on the
    universal model they are diagonals, whose eigenvalues are their entries.
    """
    if isinstance(X, OperatorTuple) and not X.commutation_checked:
        X.check_commutation()
    points, defects = zip(*_defect_walk(X))
    if isinstance(X, OperatorTuple):
        lo, hi = _extreme_eigs(np.stack(defects))
    else:
        diagonals = np.stack(defects).real
        lo, hi = diagonals.min(axis=1), diagonals.max(axis=1)
    # the first most negative defect, or the first NaN one
    j = int(np.argmin(lo))
    return linalg.psd_within(lo, hi, tol), (points[j], float(lo[j]))


def _phi_power_norms(X: OperatorTuple | UniversalModel, i: int):
    """Yield ``||Phi_i^p(I)||`` for ``p = 1, 2, ...``, the iterates started from ``X.identity()``.

    The universal model's iterates are diagonals, whose norm is the largest
    entry modulus; matrix tuples take :func:`linalg.op_norm`.
    """
    Y = X.identity()
    while True:
        # Y by keyword: the benchmark tracer (bench/tracing.py) reads it as args[3] or kwargs["Y"]
        Y = phi_map(X, i, Y=Y)
        yield linalg.op_norm(Y) if isinstance(X, OperatorTuple) else float(np.abs(Y).max())


def is_pure(X: OperatorTuple | UniversalModel, power_cap: int = 60, tol: float = 1e-9) -> tuple[bool, dict]:
    """Whether iterates ``Phi_i^p(I)`` fall below ``tol`` within ``power_cap`` powers.

    The norms come from :func:`_phi_power_norms`.  The report carries the
    per-factor norm sequences and a crude spectral radius estimate from the
    last ratio, as a fallback diagnostic when the cap is hit.
    """
    report: dict = {"factors": []}
    pure = True
    for i in range(X.spec.k):
        norms, reached = [], None
        for p, norm in zip(range(1, power_cap + 1), _phi_power_norms(X, i)):
            norms.append(norm)
            if norm < tol:
                reached = p
                break
        radius_est = None
        if len(norms) >= 2 and norms[-2] > 0:
            radius_est = norms[-1] / norms[-2]
        report["factors"].append(
            {"power": reached, "norms_tail": norms[-3:], "radius_estimate": radius_est}
        )
        if reached is None:
            pure = False
    report["pure"] = pure
    return pure, report


# -- Berezin kernel -----------------------------------------------------------


@dataclass
class BerezinKernel:
    """The truncated kernel matrix together with its space and tail metadata.

    ``matrix`` maps H into Fock (x) H with the Fock index slow; ``rows`` is
    the same data as a (dim, d_H, d_H) stack, one block per multi-word of the
    basis of ``space`` (its ``coeff_dim`` is 1).
    ``tail_bound`` bounds the norm of the discarded part of the defining
    series: the :func:`~polytoeplitz.weights.series_tail_bound` of the
    per-factor scalar majorants at ``t = 1``, inf when a majorant diverges.
    ``phi_power_norms`` records the per-factor norms of the power iterates at
    one degree past the truncation.
    """

    space: FockSpace
    rows: np.ndarray
    tail_bound: float
    phi_power_norms: tuple[float, ...]

    @property
    def dim_h(self) -> int:
        return self.rows.shape[1]

    @property
    def matrix(self) -> np.ndarray:
        d = self.rows.shape[0]
        return self.rows.reshape(d * self.dim_h, self.dim_h)

    def gram(self) -> np.ndarray:
        """K*K on H."""
        return np.einsum("oij,oik->jk", self.rows.conj(), self.rows)

    def norm(self) -> float:
        eigs = np.linalg.eigvalsh(linalg.hermitize(self.gram()))
        return math.sqrt(max(float(eigs[-1]), 0.0))


def berezin_kernel(X: OperatorTuple, trunc: Sequence[int], tol: float = 1e-9) -> BerezinKernel:
    """The kernel rows ``sqrt(b_w) Delta^{1/2} X_w^*`` over the basis of ``FockSpace(X.spec, trunc)``.

    The rows are built a word length at a time by stacked products
    (:meth:`OperatorTuple.word_stack`).  ``Delta`` is the full defect at
    ``p = m``; its Hermitian square root (:func:`linalg.herm_sqrt`) clamps
    the negative eigenvalues that :func:`is_member` at ``tol`` accepts and
    refuses anything worse.
    The discarded-tail bound takes per-factor scalar majorants whose masses
    are the shell norms ``||Phi_{i,d}(I)||``.
    """
    spec = X.spec
    space = FockSpace(spec, trunc)
    trunc, values = space.trunc, space.weights.values
    root = linalg.herm_sqrt(defect(X, spec.m), tol)
    # X_w and b_w over the basis, first factor slowest, multiplied in factor order
    Xw, b = X.word_stack(0, trunc[0]), values[0]
    for i in range(1, spec.k):
        Xw = (Xw[:, None] @ X.word_stack(i, trunc[i])[None]).reshape(-1, X.dim_h, X.dim_h)
        b = np.multiply.outer(b, values[i]).ravel()
    rows = np.sqrt(b)[:, None, None] * (root @ Xw.conj().transpose(0, 2, 1))

    # scalar majorants: per factor, shell norms ||Phi_{i,d}(I)|| for d <= deg f_i
    factors, power_norms = [], []
    for i in range(spec.k):
        terms = _conjugations(X, i, X.identity())
        shells: dict[int, float] = {}
        for d in range(1, spec.degree(i) + 1):
            acc = np.zeros((X.dim_h, X.dim_h), dtype=complex)
            for term, w in zip(terms, spec.coeffs[i]):
                if len(w) == d:
                    acc += term
            shells[d] = linalg.op_norm(acc)
        factors.append((shells, spec.m[i], trunc[i], 1.0))
        Y = X.identity()
        for _ in range(trunc[i] + 1):
            # Y by keyword: the benchmark tracer (bench/tracing.py) reads it as args[3] or kwargs["Y"]
            Y = phi_map(X, i, Y=Y)
        power_norms.append(linalg.op_norm(Y))
    return BerezinKernel(
        space=space, rows=rows, tail_bound=series_tail_bound(factors), phi_power_norms=tuple(power_norms)
    )


def berezin_transform(
    g: FockOperator, X: OperatorTuple, kernel: Optional[BerezinKernel] = None
) -> np.ndarray:
    """The compression ``(I (x) K^*)(g (x) I)(I (x) K)`` as a matrix on K (x) H.

    Completely positive by construction; unital up to the kernel's tail on
    pure tuples.
    """
    space = g.space
    if kernel is None:
        kernel = berezin_kernel(X, space.trunc)
    if kernel.space.trunc != space.trunc or kernel.space.dim != space.dim:
        raise DimensionMismatch("kernel truncation differs from the operator's space")
    R = kernel.rows
    dH = kernel.dim_h
    c = space.coeff_dim
    blocks = g.blocks()
    out = np.zeros((c * dH, c * dH), dtype=complex)
    for x in range(c):
        for y in range(c):
            G = blocks[x, y]
            GR = np.tensordot(G, R, axes=([1], [0]))
            out[x * dH : (x + 1) * dH, y * dH : (y + 1) * dH] = np.einsum(
                "oij,oik->jk", R.conj(), GR
            )
    return out


def intertwining_residual(kernel: BerezinKernel, X: OperatorTuple) -> float:
    """Max over (i, j) of ``||K X_{i,j}^* - (W_{i,j}^* (x) I) K||`` on the safe rows of ``kernel.space``.

    The identity is exact on rows whose factor-i degree leaves one unit of
    headroom, so the residual is measured there (headroom 1 in the tested
    factor only).  ``W_{i,j}`` moves the middle digit of :meth:`FockSpace.split`
    alone, so a row of ``(W_{i,j}^* (x) I) K`` with digit ``src`` is ``conj(val)``
    times the row of ``K`` with digit ``dst``, and zero off the domain.
    """
    space, R, dH = kernel.space, kernel.rows, kernel.dim_h
    worst = 0.0
    for i in range(space.spec.k):
        headroom = [0] * space.spec.k
        headroom[i] = 1
        mask = space.safe_mask(headroom)
        for j in range(1, space.spec.n[i] + 1):
            src, dst, vals = space.creation_action(i, Word((j,), space.spec.n[i]), side="left")
            lhs = np.zeros((*space.split(i), dH, dH), dtype=R.dtype)
            lhs[:, src] = vals.conj()[:, None, None, None] * R.reshape(lhs.shape)[:, dst]
            Xij = linalg.as_dense(X.ops[i][j - 1])
            rhs = R @ Xij.conj().T
            diff = (lhs.reshape(R.shape) - rhs)[mask]
            worst = linalg.strict_max(worst, linalg.op_norm(diff.reshape(-1, dH)))
    return worst


# -- test-point generator -----------------------------------------------------


def _defect_polynomials(X: OperatorTuple) -> np.ndarray:
    """The defects of ``r X`` as matrix polynomials in ``t = r**2``, over ``0 <= p <= m`` in product order.

    Returns ``C`` of shape ``(points, degree + 1, dim_h, dim_h)`` with
    ``defect(r X, p) = sum_s t**s C[p, s]`` exactly, up to rounding:
    ``Phi_i`` at ``r X`` is ``sum_w a_w t**|w| X_w Y X_w^*``, so the walk of
    :func:`_defect_walk` runs on coefficient stacks, each word shifting the
    degree by its length.
    """
    spec = X.spec
    top = sum(mi * spec.degree(i) for i, mi in enumerate(spec.m))

    def step(j: int, prev: np.ndarray) -> np.ndarray:
        C = prev.copy()
        for term, w in zip(_conjugations(X, j, prev), spec.coeffs[j]):
            C[len(w) :] -= term[: top + 1 - len(w)]
        return C

    start = np.zeros((top + 1, X.dim_h, X.dim_h), dtype=complex)
    start[0] = np.eye(X.dim_h)
    return np.stack([C for _, C in _lattice_walk(spec.m, start, step)])


def random_pure_tuple(
    spec: PolydomainSpec,
    rng: np.random.Generator,
    dims: Optional[Sequence[int]] = None,
    shrink: float = 1.0,
) -> OperatorTuple:
    """Draw a random member of the polydomain on a small tensor-product space.

    Each factor acts on its own tensor slot (``X_{i,j} = I (x) Y_{i,j} (x) I``),
    which makes cross-factor commutation automatic; a single factor needs no
    tensor structure.  The raw draw is scaled to the largest radius that
    keeps membership at ``tol=1e-9`` (bisection to ``1e-6``), then by
    ``shrink``; ``shrink < 1`` buys strict purity and finite tail bounds.
    The defects of the scaled draw are tabulated once as polynomials in the
    squared radius (:func:`_defect_polynomials`), so a bisection step is one
    Horner pass and one batched ``eigvalsh``.
    """
    if dims is None:
        dims = [2] * spec.k
    if len(dims) != spec.k:
        raise DimensionMismatch("one slot dimension per factor required")
    dim_h = int(np.prod(dims))
    ops: list[tuple[np.ndarray, ...]] = []
    for i in range(spec.k):
        # each letter's real then imaginary parts, letter after letter, as one draw
        z = rng.standard_normal((spec.n[i], 2, dims[i], dims[i]))
        letters = z[:, 0] + 1j * z[:, 1]
        letters /= np.fmax(1.0, linalg.block_norms(letters))[:, None, None]
        before = int(np.prod(dims[:i])) if i else 1
        after = int(np.prod(dims[i + 1 :])) if i + 1 < spec.k else 1
        ops.append(tuple(np.kron(np.kron(np.eye(before), Y), np.eye(after)).astype(complex) for Y in letters))
    raw = OperatorTuple(spec=spec, ops=tuple(ops), dim_h=dim_h, commutation_checked=True)
    polys = _defect_polynomials(raw)

    def member_at(r: float) -> bool:
        # Horner in t = r**2 over every defect at once
        t = r * r
        acc = polys[:, -1]
        for s in range(polys.shape[1] - 2, -1, -1):
            acc = acc * t + polys[:, s]
        return linalg.psd_within(*_extreme_eigs(acc), 1e-9)

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

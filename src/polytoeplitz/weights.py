"""Polydomain specifications and the associated weight tables.

A :class:`PolydomainSpec` is the tuple ``(k, n, m, {a_{i,alpha}})`` of factor
count, alphabet sizes, positivity orders and nonnegative coefficients.  The
weight ``b_{i,alpha}`` attached to a word is the corresponding coefficient of
``(1 - f_i)^{-m_i}``; it is computed here by a suffix recursion for the order-1
table followed by word convolution, and cross-checked by a literal
factorization-sum oracle.

Both steps read one plan per shape, cached by ``(n, L)``: the
graded-lexicographic ranks (:func:`~polytoeplitz.freemonoid.graded_lex_layout`)
of each word, its prefix and its suffix, for every cut.  A convolution is
one ``bincount`` over the plan, and each word length of the recursion one
gather and one ``bincount``.  ``bincount`` adds in input order from ``0.0``,
and the plan lists each word's cuts in ascending order, as the word-by-word
definition reads, so the values do not depend on the vectorization.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import IO, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatch, SpecError, TruncationError
from .freemonoid import (
    RankMap,
    Word,
    WordList,
    graded_lex_layout,
    word_rank,
)
from .linalg import index_dtype

__all__ = [
    "PolydomainSpec",
    "WeightTable",
    "build_weight_table",
    "brute_force_weight",
    "compactness_ratios",
    "univariate_series",
    "univariate_series_weights",
    "series_tail_bound",
    "spec_from_json",
]


@dataclass(frozen=True)
class PolydomainSpec:
    """Defining data of a regular polydomain.

    ``coeffs[i]`` maps words over the i-th alphabet to finite nonnegative reals.
    Every generator must carry a strictly positive coefficient, the empty word
    must be absent, and the support must be finite (it is: a dict).
    """

    k: int
    n: tuple[int, ...]
    m: tuple[int, ...]
    coeffs: tuple[Mapping[Word, float], ...]

    def __post_init__(self) -> None:
        if self.k < 1 or len(self.n) != self.k or len(self.m) != self.k:
            raise SpecError("k, n, m must be consistent and k >= 1")
        if any(ni < 1 for ni in self.n) or any(mi < 1 for mi in self.m):
            raise SpecError("alphabet sizes and orders must be positive")
        if len(self.coeffs) != self.k:
            raise SpecError("one coefficient map per factor is required")
        for i, (ni, cmap) in enumerate(zip(self.n, self.coeffs)):
            for w, a in cmap.items():
                if w.alphabet_size != ni:
                    raise SpecError(f"factor {i + 1}: word over wrong alphabet")
                if len(w) == 0:
                    raise SpecError(f"factor {i + 1}: constant term must be zero")
                if not math.isfinite(a):
                    raise SpecError(f"factor {i + 1}: non-finite coefficient {a}")
                if a < 0:
                    raise SpecError(f"factor {i + 1}: negative coefficient {a}")
            for j in range(1, ni + 1):
                g = Word((j,), ni)
                if cmap.get(g, 0.0) <= 0.0:
                    raise SpecError(
                        f"factor {i + 1}: generator g{j} needs a strictly positive coefficient"
                    )

    def degree(self, i: int) -> int:
        """Maximal support degree of the i-th coefficient family."""
        return max(len(w) for w in self.coeffs[i])


@dataclass
class WeightTable:
    """All weights ``b_{i,alpha}`` up to the per-factor truncation degrees.

    ``values[i]`` holds factor ``i``'s weights in graded-lexicographic order
    (the order of :func:`~polytoeplitz.freemonoid.enumerate_words`), for
    array code that addresses words by rank; ``tables[i]`` is a read-only
    view that maps each :class:`Word` to ``values[i][rank]`` as a float, and
    ``tables[i].words`` the list of its words, neither storing a word.
    """

    spec: PolydomainSpec
    trunc: tuple[int, ...]
    tables: tuple[RankMap, ...] = field(repr=False)
    values: tuple[np.ndarray, ...] = field(repr=False)

    def b(self, i: int, w: Word) -> float:
        try:
            return self.tables[i][w]
        except KeyError:
            raise TruncationError(
                f"weight for {w.render()} not tabulated (truncation {self.trunc[i]})"
            ) from None

    def write_csv(self, fh: IO[str]) -> None:
        """Rows ``factor, word, b`` with words rendered as ``g1.g2``."""
        writer = csv.writer(fh)
        writer.writerow(["factor", "word", "b"])
        for i, table in enumerate(self.tables):
            for w, b in table.items():
                writer.writerow([i + 1, w.render(), repr(b)])


@functools.lru_cache(maxsize=16)
def _cut_plan(n: int, max_len: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(word, prefix, suffix)``: the ranks of every cut ``alpha = alpha' alpha''`` with ``|alpha| <= max_len``.

    One entry per word and per cut, word-major with the cuts of a word in
    ascending prefix length, so that a ``bincount`` over ``word`` sums each
    word's terms in that order.  Built without a sort: the suffix length
    counts down within each word's run of ``|alpha| + 1`` entries.  The
    arrays are read-only and int32 when the ranks and the entry count fit.
    """
    start, lengths, offsets = graded_lex_layout(n, max_len)
    count = lengths + 1
    total = int(count.sum())
    index = index_dtype(max(total, int(start[-1])))
    start, lengths, offsets = (a.astype(index) for a in (start, lengths, offsets))
    word = np.repeat(np.arange(start[-1], dtype=index), count)
    # the suffix lengths count down to 0: the last entry of a word's run minus the entry
    e = np.repeat((np.cumsum(count) - 1).astype(index), count)
    e -= np.arange(total, dtype=index)
    prefix, suffix = np.divmod(np.repeat(offsets, count), n ** np.arange(max_len + 1, dtype=index)[e])
    prefix += start[np.repeat(lengths, count) - e]
    suffix += start[e]
    for a in (word, prefix, suffix):
        a.flags.writeable = False
    return word, prefix, suffix


def _order_one_values(cmap: Mapping[Word, float], n: int, L: int) -> np.ndarray:
    # b1[alpha] = sum over proper suffixes gamma in the support of b1[prefix] * a[gamma]
    start = graded_lex_layout(n, L)[0]
    # coefficient of each word by rank; zero off the support
    coeff = np.zeros(start[-1])
    for w, a in cmap.items():
        if len(w) <= L:
            coeff[word_rank(w)] = a
    word, prefix, suffix = _cut_plan(n, L)
    a = coeff.take(suffix)
    # a cut adds only where its suffix carries a coefficient: never the empty suffix
    hit = a != 0.0
    word, prefix, a = word[hit], prefix[hit], a[hit]
    bounds = np.searchsorted(word, start)
    out = np.empty(start[-1])
    out[0] = 1.0
    for d in range(1, L + 1):
        run = slice(bounds[d], bounds[d + 1])
        out[start[d] : start[d + 1]] = np.bincount(
            word[run] - start[d], weights=out.take(prefix[run]) * a[run], minlength=n**d
        )
    return out


def build_weight_table(spec: PolydomainSpec, trunc: Sequence[int]) -> WeightTable:
    """Tabulate ``b_{i,alpha}`` for all ``|alpha| <= trunc[i]``.

    The order-1 family satisfies the suffix recursion; higher orders are
    word convolutions of it, matching the coefficients of ``(1-f_i)^{-m_i}``.
    """
    if len(trunc) != spec.k:
        raise SpecError("truncation tuple length differs from factor count")
    if any(L < 0 for L in trunc):
        raise SpecError("truncation degrees must be nonnegative")
    tables, values = [], []
    for i in range(spec.k):
        n, L = spec.n[i], trunc[i]
        b1 = _order_one_values(spec.coeffs[i], n, L)
        bm = b1
        if spec.m[i] > 1:
            # (b1 * bm)[alpha] = sum over cuts alpha = alpha' alpha'' of b1[alpha'] * bm[alpha'']
            word, prefix, suffix = _cut_plan(n, L)
            head = b1.take(prefix)
            for _ in range(spec.m[i] - 1):
                bm = np.bincount(word, weights=head * bm.take(suffix), minlength=b1.size)
        values.append(bm)
        tables.append(RankMap(WordList(n, L), bm.item))
    return WeightTable(spec=spec, trunc=tuple(trunc), tables=tuple(tables), values=tuple(values))


@functools.lru_cache(maxsize=12)
def _compositions(d: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The ``(lo, hi)`` spans of each composition of ``d`` into nonempty parts.

    Ordered by the number of cuts, then lexicographically by the cuts, as
    ``itertools.combinations`` lists them.
    """
    compositions = []
    for cuts in itertools.chain.from_iterable(itertools.combinations(range(1, d), j) for j in range(d)):
        bounds = (0,) + cuts + (d,)
        compositions.append(tuple(zip(bounds, bounds[1:])))
    return tuple(compositions)


def brute_force_weight(spec: PolydomainSpec, i: int, alpha: Word) -> float:
    """Oracle value of ``b_{i,alpha}`` by literal factorization enumeration.

    Sums over all ordered factorizations ``alpha = gamma_1 ... gamma_j`` with
    nonempty parts the product of coefficients times the binomial
    ``C(j+m_i-1, m_i-1)``.  Cost 2**(|alpha|-1) compositions; refuse beyond 12.
    """
    d = len(alpha)
    if d > 12:
        raise SpecError("brute-force oracle limited to |alpha| <= 12")
    if d == 0:
        return 1.0
    n, m = spec.n[i], spec.m[i]
    letters = alpha.letters
    if not all(1 <= g <= n for g in letters):
        raise DimensionMismatch(f"{alpha.render()} has a letter outside alphabet [1, {n}]")
    # coefficients by letter tuple, so a cut looks up its slice of the letters
    cmap = {w.letters: a for w, a in spec.coeffs[i].items()}
    total = 0.0
    for spans in _compositions(d):
        prod = 1.0
        for lo, hi in spans:
            a = cmap.get(letters[lo:hi], 0.0)
            if a == 0.0:
                prod = 0.0
                break
            prod *= a
        if prod:
            total += prod * math.comb(len(spans) + m - 1, m - 1)
    return total


def univariate_series(masses: Mapping[int, float], m: int, L: int) -> list[float]:
    """Taylor coefficients ``b_0 .. b_L`` of ``(1 - sum_p masses[p] z^p)^{-m}``.

    ``masses`` maps a degree ``p >= 1`` to a nonnegative coefficient.  Computed
    by univariate power-series inversion and repeated multiplication.
    """
    c = [0.0] * (L + 1)
    c[0] = 1.0
    for p, a in masses.items():
        if p <= L:
            c[p] -= a
    inv = [0.0] * (L + 1)
    inv[0] = 1.0
    for p in range(1, L + 1):
        inv[p] = -sum(c[q] * inv[p - q] for q in range(1, p + 1))
    out = inv
    for _ in range(m - 1):
        out = [sum(out[q] * inv[p - q] for q in range(p + 1)) for p in range(L + 1)]
    return out


def univariate_series_weights(spec: PolydomainSpec, i: int, trunc: int) -> list[float]:
    """Second oracle for ``n_i = 1``: the :func:`univariate_series` of ``(1-f_i)^{-m_i}``."""
    if spec.n[i] != 1:
        raise SpecError("series oracle only applies to single-generator factors")
    return univariate_series({len(w): a for w, a in spec.coeffs[i].items()}, spec.m[i], trunc)


def _factor_tail(
    masses: Mapping[int, float], m: int, L: int, t: float, k: int = 1
) -> tuple[float, float, float]:
    """``(tail, total, eta)`` of one factor of :func:`series_tail_bound`."""
    support = {p: a for p, a in masses.items() if a != 0.0}
    if t == 0.0 or not support:
        return 0.0, 1.0, 0.0
    deg = max(support)
    F = 0.0
    for p in range(deg, 0, -1):
        F = (F + support.get(p, 0.0)) * t
    if F >= 1.0:
        return math.inf, math.inf, math.inf
    gap = 1.0 - F
    nu = ((L + 2) * (m * deg + m + 2) + 3 * k) * 2.0**-53
    g = nu / (1.0 - nu)  # Higham's gamma_N
    cond = m * F / gap
    if g * cond > 0.125:
        # 1 - F has lost its leading digits: no finite bound is certain
        return math.inf, math.inf, math.inf
    eta = 2.0 * g * (1.0 + cond)
    total = 1.0 / math.prod([gap] * m)
    head = 0.0
    for b in reversed(univariate_series(support, m, L)):
        head = head * t + b
    if not math.isfinite(head):
        return math.inf, math.inf, math.inf
    return max(total - head, 0.0) + eta * total, total, eta


def series_tail_bound(factors: Sequence[tuple[Mapping[int, float], int, int, float]]) -> float:
    """Bound on the part of ``prod_i (1 - F_i(t_i))^{-m_i}`` beyond degrees ``L_i``.

    ``factors`` lists ``(masses, m, L, t)``: ``F(t) = sum_p masses[p] t^p``
    with nonnegative masses, ``t >= 0``.  A factor's tail is its closed-form
    total ``(1 - F(t))^{-m}`` minus its head ``sum_{p<=L} b_p t^p``, plus
    ``eta * total``.  The rounding allowance ``eta = 2 gamma_N (1 + m F / (1 -
    F))`` is twice the first-order error of ``N = (L + 2)(m deg F + m + 2) +
    3 k`` roundings (Horner, series, power, subtraction, product rule), with
    ``1 - F``'s condition number; ``notes/decisions.md`` derives it.  Tails
    combine as ``sum_i tail_i prod_{j != i} total_j (1 + eta_j)``.  The bound
    is inf when some ``F_i(t_i) >= 1`` or ``1 - F_i`` has too few digits to
    certify, and exactly 0.0 when every ``t_i = 0`` or every mass is zero.
    """
    parts = [_factor_tail(*f, k=len(factors)) for f in factors]
    bound = 0.0
    for i, (tail, _, _) in enumerate(parts):
        if tail == 0.0:
            continue
        other = 1.0
        for j, (_, total, eta) in enumerate(parts):
            if j != i:
                other *= total * (1.0 + eta)
        bound += tail * other
    return bound


def compactness_ratios(table: WeightTable, i: int) -> dict:
    """All ratios ``b_{g_j alpha} / b_alpha`` for ``|alpha| < trunc[i]``: ``ratios[j - 1, r]`` for ``alpha`` at rank ``r``.

    One gather over the graded-lexicographic layout: ``g_j alpha``, for
    ``|alpha| = d``, is the word at rank ``start[d + 1] + (j - 1) n**d +
    offset(alpha)``.  Also returns the supremum and the per-degree maximum,
    the tail trend callers report; no convergence is asserted.
    """
    n, L = table.spec.n[i], table.trunc[i]
    start, lengths, offsets = graded_lex_layout(n, L)
    d, b = lengths[: start[L]], table.values[i]
    ratios = b[start[d + 1] + np.arange(n)[:, None] * n**d + offsets[: d.size]] / b[: d.size]
    return {
        "ratios": ratios,
        "sup": float(ratios.max(initial=0.0)),
        "max_by_degree": {e: float(ratios[:, start[e] : start[e + 1]].max()) for e in range(L)},
    }


def json_int(value, name: str) -> int:
    """``value`` when it is a JSON integer; a bool, a number with a fraction or a string raises :class:`SpecError`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{name} must be an integer, got {value!r}")
    return value


def json_number(value, name: str) -> float:
    """``value`` as a float when it is a JSON integer or real; a bool or a string raises :class:`SpecError`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(f"{name} must be a number, got {value!r}")
    return float(value)


def spec_from_json(doc: str | dict) -> PolydomainSpec:
    """Parse the interchange form ``{"k":.., "n":[..], "m":[..], "coeffs":[..]}``.

    Each coefficient entry is ``{"i": factor (1-based), "word": [letters], "a": value}``.
    """
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
    try:
        k = json_int(doc["k"], "k")
        n = tuple(json_int(x, "n") for x in doc["n"])
        m = tuple(json_int(x, "m") for x in doc["m"])
        entries = doc["coeffs"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SpecError(f"malformed spec document: {exc}") from exc
    if len(n) != k or len(m) != k:
        raise SpecError("n and m must each list one entry per factor")
    # before any Word is built, which would raise DimensionMismatch on n_i < 1
    if any(ni < 1 for ni in n) or any(mi < 1 for mi in m):
        raise SpecError("alphabet sizes and orders must be positive")
    if not isinstance(entries, list):
        raise SpecError("malformed spec document: coeffs must be a list")
    maps: list[dict[Word, float]] = [dict() for _ in range(k)]
    for entry in entries:
        try:
            i = json_int(entry["i"], "i") - 1
            letters = tuple(json_int(g, "letter") for g in entry["word"])
            a = json_number(entry["a"], "a")
        except (KeyError, TypeError, ValueError) as exc:
            raise SpecError(f"malformed coefficient entry {entry!r}: {exc}") from exc
        if not 0 <= i < k:
            raise SpecError(f"coefficient factor index {i + 1} outside 1..{k}")
        w = Word(letters, n[i])
        if w in maps[i]:
            raise SpecError(f"duplicate coefficient for factor {i + 1}, word {w.render()}")
        maps[i][w] = a
    return PolydomainSpec(k=k, n=n, m=m, coeffs=tuple(maps))

import io
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polytoeplitz.cli import main
from polytoeplitz.errors import NotComparable, SpecError, TruncationError
from polytoeplitz.freemonoid import MultiWord, Word, WordList, graded_lex_layout
from polytoeplitz.model import FockSpace
from polytoeplitz.sampling import ones_series_spec, random_spec
from polytoeplitz.weights import (
    PolydomainSpec,
    brute_force_weight,
    build_weight_table,
    compactness_ratios,
    _cut_plan,
    _factor_tail,
    series_tail_bound,
    spec_from_json,
    univariate_series_weights,
)

from conftest import make_spec
from oracles import tau


def test_empty_word_weight_is_one(bergman2_spec):
    table = build_weight_table(bergman2_spec, (4,))
    assert table.b(0, Word((), 1)) == 1.0


def test_single_variable_order_two_weights(bergman2_spec):
    # coefficients of (1-z)^{-2} are 1, 2, 3, ...
    table = build_weight_table(bergman2_spec, (5,))
    for p in range(6):
        assert table.b(0, Word((1,) * p, 1)) == pytest.approx(p + 1, rel=1e-14)


def test_two_generator_ball_weights_are_one(two_gen_ball_spec):
    table = build_weight_table(two_gen_ball_spec, (3,))
    for word, value in table.tables[0].items():
        assert value == pytest.approx(1.0, rel=1e-14)


def test_ones_series_weights_double():
    table = build_weight_table(ones_series_spec(1, 8), (8,))
    for d in range(1, 9):
        assert table.b(0, Word((1,) * d, 1)) == pytest.approx(2.0 ** (d - 1), rel=1e-14)


def test_brute_force_examples(bergman2_spec):
    assert brute_force_weight(bergman2_spec, 0, Word((1, 1, 1), 1)) == pytest.approx(4.0)
    spec3 = make_spec(1, (1,), (3,), [(1, (1,), 1.0)])
    assert brute_force_weight(spec3, 0, Word((1, 1), 1)) == pytest.approx(6.0)


def test_brute_force_refuses_long_words(bergman2_spec):
    with pytest.raises(SpecError):
        brute_force_weight(bergman2_spec, 0, Word((1,) * 13, 1))


def test_oracle_equivalence_randomized(rng):
    for _ in range(25):
        spec = random_spec(rng)
        trunc = tuple(5 for _ in range(spec.k))
        table = build_weight_table(spec, trunc)
        for i in range(spec.k):
            for w, b in table.tables[i].items():
                if len(w) == 0:
                    continue
                ref = brute_force_weight(spec, i, w)
                assert abs(b - ref) <= 1e-12 * max(1.0, ref)


def test_univariate_series_cross_oracle(rng):
    for _ in range(10):
        spec = random_spec(rng, k=1, max_n=1, max_deg=3)
        table = build_weight_table(spec, (9,))
        series = univariate_series_weights(spec, 0, 9)
        for p in range(10):
            got = table.b(0, Word((1,) * p, 1))
            assert abs(got - series[p]) <= 1e-12 * max(1.0, abs(series[p]))


def test_homogeneity_scaling(rng):
    spec = random_spec(rng, k=1, max_n=2, max_deg=2)
    t = 1.37
    scaled = PolydomainSpec(
        k=1,
        n=spec.n,
        m=spec.m,
        coeffs=({w: a * t ** len(w) for w, a in spec.coeffs[0].items()},),
    )
    base = build_weight_table(spec, (5,))
    other = build_weight_table(scaled, (5,))
    for w, b in base.tables[0].items():
        assert other.b(0, w) == pytest.approx(b * t ** len(w), rel=1e-12)


class TestTauMu:
    def test_equal_pair(self, bergman2_spec):
        table = build_weight_table(bergman2_spec, (4,))
        u = MultiWord((Word((1, 1), 1),))
        assert tau(table, u, u) == pytest.approx(1.0)

    def test_against_vacuum(self, bergman2_spec):
        table = build_weight_table(bergman2_spec, (4,))
        alpha = MultiWord((Word((1, 1, 1), 1),))
        e = MultiWord((Word((), 1),))
        b3 = table.b(0, Word((1, 1, 1), 1))
        assert tau(table, alpha, e) == pytest.approx(1.0 / math.sqrt(b3), rel=1e-14)

    def test_bergman_example(self, bergman2_spec):
        table = build_weight_table(bergman2_spec, (4,))
        omega = MultiWord((Word((1, 1, 1), 1),))
        gamma = MultiWord((Word((1,), 1),))
        assert tau(table, omega, gamma) == pytest.approx(math.sqrt(2.0 / 4.0), rel=1e-14)

    def test_symmetry_and_mu_identity(self, rng):
        # mu, the weighted-basis weight prod_i 1/b at the longer word, is tau
        # times prod_i 1/sqrt(b_a b_b)
        spec = random_spec(rng, k=2, max_n=2, max_deg=2)
        table = build_weight_table(spec, (3, 3))
        for _ in range(40):
            parts_o, parts_g = [], []
            for i in range(2):
                n = spec.n[i]
                stem = tuple(int(rng.integers(1, n + 1)) for _ in range(rng.integers(0, 3)))
                ext = tuple(int(rng.integers(1, n + 1)) for _ in range(rng.integers(0, 2)))
                if rng.random() < 0.5:
                    parts_o.append(Word(ext + stem, n))
                    parts_g.append(Word(stem, n))
                else:
                    parts_o.append(Word(stem, n))
                    parts_g.append(Word(ext + stem, n))
            omega, gamma = MultiWord(tuple(parts_o)), MultiWord(tuple(parts_g))
            t = tau(table, omega, gamma)
            assert t == pytest.approx(tau(table, gamma, omega), rel=1e-14)
            prod, mu = 1.0, 1.0
            for i, (a, b) in enumerate(zip(omega.parts, gamma.parts)):
                blo = min(table.b(i, a), table.b(i, b))
                bhi = max(table.b(i, a), table.b(i, b))
                prod *= 1.0 / math.sqrt(blo * bhi)
                mu /= table.b(i, a if len(a) >= len(b) else b)
            assert mu == pytest.approx(t * prod, rel=1e-12)

    def test_not_comparable(self, two_gen_ball_spec):
        table = build_weight_table(two_gen_ball_spec, (3,))
        with pytest.raises(NotComparable):
            tau(table, MultiWord((Word((1,), 2),)), MultiWord((Word((2,), 2),)))


class TestCompactnessRatios:
    def test_ones_series_order_one_is_two(self):
        table = build_weight_table(ones_series_spec(1, 13), (13,))
        ratios = compactness_ratios(table, 0)
        # the words of length >= 1 are the ranks after the empty word's 0
        for r in ratios["ratios"][:, 1:].ravel():
            assert r == pytest.approx(2.0, abs=1e-12)
        assert ratios["sup"] == pytest.approx(2.0, abs=1e-12)

    def test_single_shift_all_one(self, single_shift_spec):
        table = build_weight_table(single_shift_spec, (6,))
        ratios = compactness_ratios(table, 0)
        assert all(r == pytest.approx(1.0) for r in ratios["ratios"].ravel())

    @pytest.mark.parametrize("seed", range(6))
    def test_ratios_are_the_per_word_quotients(self, seed):
        # the gather by rank against b(g_j alpha) / b(alpha) read one word at a time
        spec = random_spec(np.random.default_rng(seed), max_n=3)
        table = build_weight_table(spec, (4,) * spec.k)
        for i in range(spec.k):
            n = spec.n[i]
            got = compactness_ratios(table, i)
            words = WordList(n, 3)
            for r, alpha in enumerate(words):
                for j in range(1, n + 1):
                    assert got["ratios"][j - 1, r] == table.b(i, Word((j, *alpha.letters), n)) / table.b(i, alpha)
            assert got["ratios"].shape == (n, len(words))
            assert got["sup"] == got["ratios"].max()
            assert list(got["max_by_degree"]) == [0, 1, 2, 3]

    def test_ones_series_higher_order_trend(self):
        # degree-d ratio 2(d+4)/(d+3) for order 2: decreasing toward 2
        table = build_weight_table(ones_series_spec(2, 13), (13,))
        by_degree = compactness_ratios(table, 0)["max_by_degree"]
        for d in range(1, 12):
            assert by_degree[d] == pytest.approx(2.0 * (d + 4) / (d + 3), rel=1e-12)
            assert by_degree[d + 1] <= by_degree[d] + 1e-12


class TestSpecIO:
    def test_rejects_zero_generator(self):
        with pytest.raises(SpecError):
            spec_from_json({"k": 1, "n": [2], "m": [1], "coeffs": [{"i": 1, "word": [1], "a": 1.0}]})

    def test_rejects_constant_term(self):
        with pytest.raises(SpecError):
            spec_from_json(
                {
                    "k": 1,
                    "n": [1],
                    "m": [1],
                    "coeffs": [
                        {"i": 1, "word": [1], "a": 1.0},
                        {"i": 1, "word": [], "a": 0.5},
                    ],
                }
            )

    def test_rejects_bad_json(self):
        with pytest.raises(SpecError):
            spec_from_json("{not json")

    def test_rejects_negative(self):
        with pytest.raises(SpecError):
            spec_from_json(
                {
                    "k": 1,
                    "n": [1],
                    "m": [1],
                    "coeffs": [
                        {"i": 1, "word": [1], "a": 1.0},
                        {"i": 1, "word": [1, 1], "a": -0.5},
                    ],
                }
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, value):
        doc = {
            "k": 1,
            "n": [1],
            "m": [1],
            "coeffs": [{"i": 1, "word": [1], "a": 1.0}, {"i": 1, "word": [1, 1], "a": value}],
        }
        with pytest.raises(SpecError, match="non-finite"):
            spec_from_json(doc)
        # the generator coefficient too, and through the JSON text form
        doc["coeffs"] = [{"i": 1, "word": [1], "a": value}]
        with pytest.raises(SpecError, match="non-finite"):
            spec_from_json(json.dumps(doc))


def test_csv_export(bergman2_spec):
    table = build_weight_table(bergman2_spec, (3,))
    buf = io.StringIO()
    table.write_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0] == "factor,word,b"
    assert lines[1].startswith("1,e,")
    assert len(lines) == 1 + 4


def test_truncation_error_on_missing_word(bergman2_spec):
    table = build_weight_table(bergman2_spec, (2,))
    with pytest.raises(TruncationError):
        table.b(0, Word((1, 1, 1), 1))


# the benchmark's `deep` polydomain (k=1, n=2, m=3, every word of length <= 2)
DEEP_DIR = Path(__file__).parent / "data" / "weights_deep_trunc8"


def test_weights_report_and_csv_match_golden_files(tmp_path):
    out = tmp_path / "out"
    rc = main(["weights", "--spec", str(DEEP_DIR / "spec.json"), "--trunc", "8", "--seed", "0",
               "--out", str(out)])
    assert rc == 0
    for name in ("weights-report.json", "weights.csv"):
        assert (out / name).read_bytes() == (DEEP_DIR / name).read_bytes(), name


def test_fock_space_builds_few_words(monkeypatch):
    # the construction works on rank arrays; Word objects are made only to
    # enumerate the basis, not per cut, per target or per monomial
    spec = spec_from_json((DEEP_DIR / "spec.json").read_text())
    made = []
    original = Word.__post_init__

    def counting(self):
        made.append(None)
        original(self)

    monkeypatch.setattr(Word, "__post_init__", counting)
    space = FockSpace(spec, (10,))
    assert space.dim == 2047
    assert len(made) < 1.5 * space.dim


def test_a_second_table_of_a_shape_reuses_its_plans_and_they_are_read_only():
    # the plans and layouts depend on (n, L) only: a second spec of the same
    # shape, with other coefficients and order, plans nothing
    n, L = 2, 7
    first = make_spec(1, (n,), (2,), [(1, (1,), 0.5), (1, (2,), 0.25), (1, (2, 1), 0.125)])
    second = make_spec(1, (n,), (3,), [(1, (1,), 0.75), (1, (2,), 1.0), (1, (1, 1), 0.0)])
    build_weight_table(first, (L,))
    plans, layouts = _cut_plan.cache_info(), graded_lex_layout.cache_info()
    space = FockSpace(second, (L,))
    assert _cut_plan.cache_info().misses == plans.misses
    assert _cut_plan.cache_info().hits > plans.hits
    assert graded_lex_layout.cache_info().misses == layouts.misses
    assert space.factor_layouts[0] is graded_lex_layout(n, L)
    for a in (*_cut_plan(n, L), *graded_lex_layout(n, L)):
        with pytest.raises(ValueError):
            a[0] = 1
        with pytest.raises(ValueError):
            a += 1


def exact_tail(masses, m, L, t):
    """Exact ``(tail, total)`` of ``(1 - F(t))^{-m}`` past degree ``L``; tail inf when F(t) >= 1.

    Uses the recurrence ``p h_p = sum_q a_q t^q (m q + p - q) h_{p-q}`` for the
    terms ``h_p = b_p t^p``, which follows from ``(1 - F) G' = m F' G``.
    """
    t = Fraction(t)
    scaled = {q: Fraction(a) * t**q for q, a in masses.items()}
    F = sum(scaled.values(), Fraction(0))
    if F >= 1:
        return math.inf, math.inf
    total = 1 / (1 - F) ** m
    h = [Fraction(1)]
    for p in range(1, L + 1):
        terms = (c * (m * q + p - q) * h[p - q] for q, c in scaled.items() if q <= p)
        h.append(sum(terms, Fraction(0)) / p)
    return total - sum(h, Fraction(0)), total


def old_ratio_rule(masses, m, L, horizon=60):
    """The replaced rule: series to ``L + horizon`` closed by the last term ratio."""
    top = L + horizon
    b1 = [1.0] + [0.0] * top
    for p in range(1, top + 1):
        b1[p] = sum(masses.get(d, 0.0) * b1[p - d] for d in range(1, min(p, max(masses)) + 1))
    bm = b1
    for _ in range(m - 1):
        bm = [sum(b1[q] * bm[p - q] for q in range(p + 1)) for p in range(top + 1)]
    tail = sum(bm[L + 1 :])
    if bm[top] > 0.0 and bm[top - 1] > 0.0:
        ratio = bm[top] / bm[top - 1]
        if ratio >= 1.0:
            return math.inf
        tail += bm[top] * ratio / (1.0 - ratio)
    return tail


def assert_brackets_exact_tail(masses, m, L, t):
    tail, total = exact_tail(masses, m, L, t)
    bound = series_tail_bound([(masses, m, L, t)])
    if tail == math.inf:
        assert bound == math.inf
        return
    assert bound == math.inf or Fraction(bound) >= tail
    # the computed difference may itself exceed the exact tail by up to eta * total
    _, _, eta = _factor_tail(masses, m, L, t)
    assert eta == math.inf or Fraction(bound) <= tail + 2 * Fraction(eta) * total


@settings(max_examples=200, deadline=None)
@given(
    st.dictionaries(st.integers(1, 4), st.just(0.0) | st.floats(1e-3, 1.0), min_size=1),
    st.just(0.0) | st.floats(1e-3, 1.2),
    st.floats(0.0, 1.1, exclude_min=True, exclude_max=True),
    st.integers(1, 3),
    st.integers(0, 30),
)
def test_series_tail_bound_brackets_exact_tail(weights, t, target, m, L):
    # scale the masses so that F(t) lands on the drawn target
    raw = sum(a * t**p for p, a in weights.items())
    masses = {p: a * target / raw for p, a in weights.items()} if raw > 0 else weights
    assert_brackets_exact_tail(masses, m, L, t)


NAMED_TAILS = [
    ({1: 0.05, 2: 0.88}, 3, 5),
    ({1: 0.1, 2: 0.88}, 1, 3),
    ({2: 0.9}, 1, 4),
    ({2: 1.0}, 1, 4),
]


@pytest.mark.parametrize("masses, m, L", NAMED_TAILS)
def test_named_tails_bounded_where_ratio_rule_falls_short(masses, m, L):
    assert_brackets_exact_tail(masses, m, L, 1.0)
    tail, _ = exact_tail(masses, m, L, 1.0)
    assert old_ratio_rule(masses, m, L) < tail


def test_series_tail_bound_zero_and_product_rule():
    assert series_tail_bound([({1: 0.5}, 2, 3, 0.0)]) == 0.0
    assert series_tail_bound([({1: 0.0, 2: 0.0}, 2, 3, 1.0)]) == 0.0
    # F(t) = 0.1, but b_2 = 1e600 overflows: no finite bound is certified
    assert series_tail_bound([({1: 1e300, 2: 1e300}, 1, 3, 1e-301)]) == math.inf
    # a vanishing factor contributes its total 1 to the other factor's tail
    one = _factor_tail({1: 0.5}, 2, 3, 1.0, k=2)[0]
    assert series_tail_bound([({1: 0.5}, 2, 3, 1.0), ({1: 0.5}, 1, 3, 0.0)]) == one
    assert series_tail_bound([({1: 1.0}, 1, 3, 1.0), ({1: 0.5}, 1, 3, 0.0)]) == math.inf
    # two factors: total minus head of the product series, below the product rule
    tail1, total1 = exact_tail({1: 0.3, 2: 0.2}, 2, 3, 1.0)
    tail2, total2 = exact_tail({1: 0.4}, 1, 5, 1.0)
    exact = total1 * total2 - (total1 - tail1) * (total2 - tail2)
    rule = tail1 * total2 + tail2 * total1
    bound = series_tail_bound([({1: 0.3, 2: 0.2}, 2, 3, 1.0), ({1: 0.4}, 1, 5, 1.0)])
    assert exact < rule <= Fraction(bound) <= rule * (1 + 1e-9)

import io
import json
import math
from pathlib import Path

import pytest

from polytoeplitz.cli import main
from polytoeplitz.errors import NotComparable, SpecError, TruncationError
from polytoeplitz.freemonoid import MultiWord, Word
from polytoeplitz.model import FockSpace
from polytoeplitz.sampling import ones_series_spec, random_spec
from polytoeplitz.weights import (
    PolydomainSpec,
    brute_force_weight,
    build_weight_table,
    compactness_ratios,
    mu,
    spec_from_json,
    spec_to_json,
    tau,
    univariate_series_weights,
)

from conftest import make_spec


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
        e = MultiWord((Word((), 1),))
        assert mu(table, e, e) == pytest.approx(1.0)

    def test_against_vacuum(self, bergman2_spec):
        table = build_weight_table(bergman2_spec, (4,))
        alpha = MultiWord((Word((1, 1, 1), 1),))
        e = MultiWord((Word((), 1),))
        b3 = table.b(0, Word((1, 1, 1), 1))
        assert tau(table, alpha, e) == pytest.approx(1.0 / math.sqrt(b3), rel=1e-14)
        assert mu(table, alpha, e) == pytest.approx(1.0 / b3, rel=1e-14)

    def test_bergman_example(self, bergman2_spec):
        table = build_weight_table(bergman2_spec, (4,))
        omega = MultiWord((Word((1, 1, 1), 1),))
        gamma = MultiWord((Word((1,), 1),))
        assert tau(table, omega, gamma) == pytest.approx(math.sqrt(2.0 / 4.0), rel=1e-14)

    def test_symmetry_and_mu_identity(self, rng):
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
            prod = 1.0
            for i, (a, b) in enumerate(zip(omega.parts, gamma.parts)):
                blo = min(table.b(i, a), table.b(i, b))
                bhi = max(table.b(i, a), table.b(i, b))
                prod *= 1.0 / math.sqrt(blo * bhi)
            assert mu(table, omega, gamma) == pytest.approx(t * prod, rel=1e-12)

    def test_not_comparable(self, two_gen_ball_spec):
        table = build_weight_table(two_gen_ball_spec, (3,))
        with pytest.raises(NotComparable):
            tau(table, MultiWord((Word((1,), 2),)), MultiWord((Word((2,), 2),)))


class TestCompactnessRatios:
    def test_ones_series_order_one_is_two(self):
        table = build_weight_table(ones_series_spec(1, 13), (13,))
        ratios = compactness_ratios(table, 0)
        for (j, alpha), r in ratios["ratios"].items():
            if len(alpha) >= 1:
                assert r == pytest.approx(2.0, abs=1e-12)
        assert ratios["sup"] == pytest.approx(2.0, abs=1e-12)

    def test_single_shift_all_one(self, single_shift_spec):
        table = build_weight_table(single_shift_spec, (6,))
        ratios = compactness_ratios(table, 0)
        assert all(r == pytest.approx(1.0) for r in ratios["ratios"].values())

    def test_ones_series_higher_order_trend(self):
        # degree-d ratio 2(d+4)/(d+3) for order 2: decreasing toward 2
        table = build_weight_table(ones_series_spec(2, 13), (13,))
        by_degree = compactness_ratios(table, 0)["max_by_degree"]
        for d in range(1, 12):
            assert by_degree[d] == pytest.approx(2.0 * (d + 4) / (d + 3), rel=1e-12)
            assert by_degree[d + 1] <= by_degree[d] + 1e-12


class TestSpecIO:
    def test_round_trip(self, rng):
        spec = random_spec(rng)
        doc = spec_to_json(spec)
        again = spec_from_json(doc)
        assert again == spec

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
    assert len(made) < 3 * space.dim

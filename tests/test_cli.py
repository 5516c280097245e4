import argparse
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from polytoeplitz import brownhalmos, cli, linalg, toeplitz
from polytoeplitz.cli import build_parser, main
from polytoeplitz.cpmaps import BerezinKernel, random_pure_tuple
from polytoeplitz.freemonoid import IndexPair, MultiWord, Word
from polytoeplitz.model import FockSpace, monomial, weighted_left_creation
from polytoeplitz.toeplitz import (
    evaluate_at_model,
    random_symbol,
    symbol_from_json,
    symbol_to_json,
)
from polytoeplitz.weights import spec_from_json

from oracles import csr, pair_coefficients, symbol_of


def strict_json(text):
    """Parse as strict JSON: the non-standard NaN and Infinity literals raise."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(text, parse_constant=reject)


def write_spec(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


BERGMAN = {"k": 1, "n": [1], "m": [2], "coeffs": [{"i": 1, "word": [1], "a": 1.0}]}
BALL = {
    "k": 1,
    "n": [2],
    "m": [1],
    "coeffs": [{"i": 1, "word": [1], "a": 1.0}, {"i": 1, "word": [2], "a": 1.0}],
}
ONES = {
    "k": 1,
    "n": [1],
    "m": [1],
    "coeffs": [{"i": 1, "word": [1] * p, "a": 1.0} for p in range(1, 14)],
}

# the benchmark's `wide` polydomain: k=2, n=(2,2), m=(2,2), every word of length <= 2 in each factor
WIDE = {
    "k": 2,
    "n": [2, 2],
    "m": [2, 2],
    "coeffs": [
        {"i": i, "word": list(w), "a": a}
        for i in (1, 2)
        for w, a in (((1,), 1.0), ((2,), 0.5), ((1, 1), 0.25), ((1, 2), 0.25), ((2, 1), 0.25), ((2, 2), 0.25))
    ],
}

# the benchmark's `deep` polydomain: k=1, n=2, m=3, every word of length <= 2
DEEP = {
    "k": 1,
    "n": [2],
    "m": [3],
    "coeffs": [
        {"i": 1, "word": list(w), "a": a}
        for w, a in (((1,), 1.0), ((2,), 0.5), ((1, 1), 0.25), ((1, 2), 0.25), ((2, 1), 0.25), ((2, 2), 0.25))
    ],
}


def test_weights_command_ones_ratio(tmp_path):
    spec = write_spec(tmp_path / "spec.json", ONES)
    rc = main(["weights", "--spec", spec, "--trunc", "13", "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "weights-report.json").read_text())
    by_degree = report["ratio_trend"][0]["max_by_degree"]
    for d in range(1, 13):
        assert by_degree[str(d)] == pytest.approx(2.0, abs=1e-12)
    csv_text = (tmp_path / "out" / "weights.csv").read_text()
    assert csv_text.splitlines()[0] == "factor,word,b"


def test_weights_command_bergman_column(tmp_path):
    spec = write_spec(tmp_path / "spec.json", BERGMAN)
    rc = main(["weights", "--spec", spec, "--trunc", "6", "--out", str(tmp_path / "out")])
    assert rc == 0
    rows = (tmp_path / "out" / "weights.csv").read_text().strip().splitlines()[1:]
    values = [float(r.split(",")[2]) for r in rows]
    assert values == [float(p + 1) for p in range(7)]


def test_malformed_spec_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"k": 1, "n": [1], "m": [1], "coeffs": []}')
    rc = main(["weights", "--spec", str(bad), "--trunc", "4"])
    assert rc == 2
    # coefficients that are not a list, a document that is not an object, a
    # k, n, m, factor index or letter that is not a JSON integer, and a
    # coefficient that is not a JSON number
    not_integers = (1.5, True, "2")
    # each bad entry replaces the first and keeps the others, so the document
    # is refused for that entry alone and not for a generator left without one
    entry, *rest = BALL["coeffs"]
    for doc in (
        dict(BALL, coeffs=5), dict(BALL, coeffs=None), [BALL],
        *(dict(BALL, k=v) for v in not_integers),
        *(dict(BALL, n=[v]) for v in not_integers),
        *(dict(BALL, m=[v]) for v in (1.5, True, "1")),
        *(dict(BALL, coeffs=[dict(entry, i=v), *rest]) for v in (1.5, True, "1")),
        *(dict(BALL, coeffs=[dict(entry, word=[v]), *rest]) for v in (1.5, True, "1")),
        *(dict(BALL, coeffs=[dict(entry, a=v), *rest]) for v in ("0.5", True, None, [0.5])),
    ):
        bad.write_text(json.dumps(doc))
        assert main(["weights", "--spec", str(bad), "--trunc", "4"]) == 2, doc
    # an empty alphabet, whatever the coefficients
    for coeffs in ([], [{"i": 1, "word": [1], "a": 1.0}]):
        bad.write_text(json.dumps({"k": 1, "n": [0], "m": [1], "coeffs": coeffs}))
        assert main(["weights", "--spec", str(bad), "--trunc", "4"]) == 2, coeffs


# each a symbol document on BALL's space that the parser must refuse with exit 2
IDENTITY_TERM = {"left": [[]], "right": [[]], "re": [[1.0]], "im": [[0.0]]}
MALFORMED_SYMBOLS = [
    *({"k": 1, "n": [2], "coeff_dim": 1, "terms": [{k: v for k, v in IDENTITY_TERM.items() if k != key}]}
      for key in IDENTITY_TERM),
    {"k": 1, "n": [2], "coeff_dim": 1, "terms": 5},
    [IDENTITY_TERM],
    {"k": 1, "n": [2], "coeff_dim": 1, "terms": [dict(IDENTITY_TERM, re=[1.0], im=[[0.0, 0.0], [0.0, 0.0]])]},
    {"k": 1, "n": [2], "coeff_dim": 1, "terms": [dict(IDENTITY_TERM, re=1.0, im=0.0)]},
    {"k": 1, "n": [2], "coeff_dim": 1, "terms": [dict(IDENTITY_TERM, left=[[1], [2]])]},
    {"k": 1, "n": [2], "coeff_dim": 1, "terms": [5]},
    {"k": 1, "n": 2, "coeff_dim": 1, "terms": []},
    # a letter, size or coefficient dimension that is not a JSON integer
    *({"k": 1, "n": [2], "coeff_dim": 1, "terms": [dict(IDENTITY_TERM, left=[[v]])]} for v in (1.5, True, "1")),
    *({"k": 1, "n": [v], "coeff_dim": 1, "terms": [IDENTITY_TERM]} for v in (2.0, "2")),
    *({"k": 1, "n": [2], "coeff_dim": v, "terms": [IDENTITY_TERM]} for v in (1.7, 1.0, True, "1")),
    # a coefficient entry that is not a JSON number
    *({"k": 1, "n": [2], "coeff_dim": 1, "terms": [dict(IDENTITY_TERM, **{part: [[v]]})]}
      for part in ("re", "im") for v in ("1.0", True, None)),
    # two terms on the same pair
    {"k": 1, "n": [2], "coeff_dim": 1, "terms": [IDENTITY_TERM, dict(IDENTITY_TERM, re=[[2.0]])]},
]


@pytest.mark.parametrize("command", ["fourier", "kernel-psd"])
def test_malformed_symbol_exits_2(tmp_path, capsys, command):
    spec_path = write_spec(tmp_path / "spec.json", BALL)
    for j, doc in enumerate(MALFORMED_SYMBOLS):
        (tmp_path / "symbol.json").write_text(json.dumps(doc))
        out = tmp_path / str(j)
        argv = [command, "--spec", spec_path, "--trunc", "2", "--symbol", str(tmp_path / "symbol.json")]
        assert main([*argv, "--radius", "0.5", "--out", str(out)]) == 2, doc
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


def test_malformed_tuple_manifest_exits_2(tmp_path, capsys):
    spec_path = write_spec(tmp_path / "spec.json", BERGMAN)
    for files in (5, None, [5], ["X_1_1.mtx"], [[1]]):
        (tmp_path / "tuple.json").write_text(json.dumps({"dim_h": 2, "files": files}))
        argv = ["berezin", "--spec", spec_path, "--trunc", "2", "--tuple", str(tmp_path / "tuple.json")]
        assert main(argv) == 2, files
        assert "malformed tuple manifest" in capsys.readouterr().err
    # a well-formed file of the declared shape: dim_h itself is refused
    (tmp_path / "X.mtx").write_text("0 0 0\n")
    for dim_h in (0, -1, 2.5, "2"):
        (tmp_path / "tuple.json").write_text(json.dumps({"dim_h": dim_h, "files": [["X.mtx"]]}))
        argv = ["berezin", "--spec", spec_path, "--trunc", "2", "--tuple", str(tmp_path / "tuple.json")]
        assert main(argv) == 2, dim_h
        assert "malformed tuple manifest" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_coefficient_exits_2(tmp_path, capsys, value):
    # json.dumps writes NaN / Infinity / -Infinity, which json.loads accepts
    doc = dict(BALL, coeffs=BALL["coeffs"] + [{"i": 1, "word": [1, 2], "a": value}])
    spec = write_spec(tmp_path / "spec.json", doc)
    rc = main(["weights", "--spec", spec, "--trunc", "3", "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "weights-report.json").exists()


def test_nan_oracle_value_fails_weights(tmp_path, monkeypatch):
    # max(worst, nan) keeps worst; the verdict must see the NaN instead
    monkeypatch.setattr("polytoeplitz.cli.brute_force_weight", lambda spec, i, w: math.nan)
    spec = write_spec(tmp_path / "spec.json", BALL)
    rc = main(["weights", "--spec", spec, "--trunc", "3", "--out", str(tmp_path / "out")])
    assert rc == 1
    report = strict_json((tmp_path / "out" / "weights-report.json").read_text())
    assert report["passed"] is False
    assert report["oracle_worst_relative_error"] == "nan"


def test_infinite_tail_bound_is_written_as_strict_json(tmp_path):
    # the truncated universal model of the two-generator ball has shell-norm sum 1
    spec = write_spec(tmp_path / "spec.json", BALL)
    space = FockSpace(spec_from_json(BALL), (2,))
    files = []
    for j in (1, 2):
        with open(tmp_path / f"W_{j}.mtx", "w") as fh:
            linalg.save_matrix(fh, weighted_left_creation(space, 0, j).matrix)
        files.append(f"W_{j}.mtx")
    (tmp_path / "tuple.json").write_text(json.dumps({"dim_h": space.dim, "files": [files]}))
    rc = main(["berezin", "--spec", spec, "--trunc", "2", "--tuple", str(tmp_path / "tuple.json"),
               "--out", str(tmp_path / "out")])
    assert rc == 0
    report = strict_json((tmp_path / "out" / "berezin-report.json").read_text())
    assert report["tail_bound"] == "inf"


def test_nanmax_propagates_nan_in_any_place():
    assert linalg.strict_max(0.0, 2.0, 1.0) == 2.0
    for values in ((math.nan, 1.0), (1.0, math.nan), (0.0, 2.0, math.nan)):
        assert math.isnan(linalg.strict_max(*values))


def test_single_truncation_degree_broadcasts(tmp_path):
    coeffs = [{"i": 1, "word": [1], "a": 1.0}, {"i": 2, "word": [1], "a": 1.0}]
    doc = {"k": 2, "n": [1, 1], "m": [1, 2], "coeffs": coeffs}
    spec = write_spec(tmp_path / "spec.json", doc)
    assert main(["model", "--spec", spec, "--trunc", "2", "--out", str(tmp_path / "a")]) == 0
    report = json.loads((tmp_path / "a" / "model-report.json").read_text())
    assert report["trunc"] == [2, 2]
    assert main(["model", "--spec", spec, "--trunc", "2,3", "--out", str(tmp_path / "b")]) == 0
    assert json.loads((tmp_path / "b" / "model-report.json").read_text())["trunc"] == [2, 3]
    assert main(["model", "--spec", spec, "--trunc", "2,3,4"]) == 2


def test_missing_spec_file_exits_2(tmp_path):
    rc = main(["weights", "--spec", str(tmp_path / "nope.json"), "--trunc", "4"])
    assert rc == 2


def test_model_command_writes_matrices(tmp_path):
    spec = write_spec(tmp_path / "spec.json", BALL)
    rc = main(["model", "--spec", spec, "--trunc", "3", "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "model-report.json").read_text())
    assert report["passed"]
    assert report["defect_vs_vacuum_projection"] < 1e-10
    with open(tmp_path / "out" / "W_1_1.mtx") as fh:
        W = linalg.load_matrix(fh)
    assert W.shape == (15, 15)


def test_toeplitz_fourier_round_trip(tmp_path, rng):
    spec_path = write_spec(tmp_path / "spec.json", BALL)
    spec = spec_from_json(BALL)
    space = FockSpace(spec, (3,), coeff_dim=2)
    sym = random_symbol(space, rng, n_monomials=5)
    T = evaluate_at_model(sym)
    with open(tmp_path / "op.mtx", "w") as fh:
        linalg.save_matrix(fh, T.dense)

    rc = main(
        [
            "toeplitz",
            "--spec", spec_path,
            "--trunc", "3",
            "--coeff-dim", "2",
            "--operator", str(tmp_path / "op.mtx"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "toeplitz-report.json").read_text())
    assert report["report"]["verdict"]

    rc = main(
        [
            "fourier",
            "--spec", spec_path,
            "--trunc", "3",
            "--coeff-dim", "2",
            "--symbol", str(tmp_path / "out" / "symbol.json"),
            "--radius", "1.0",
            "--out", str(tmp_path / "out2"),
        ]
    )
    assert rc == 0
    with open(tmp_path / "out2" / "operator.mtx") as fh:
        back = linalg.as_dense(linalg.load_matrix(fh))
    assert np.abs(back - T.dense).max() < 1e-12


def test_toeplitz_dimension_mismatch_exits_3(tmp_path):
    spec_path = write_spec(tmp_path / "spec.json", BALL)
    with open(tmp_path / "op.mtx", "w") as fh:
        linalg.save_matrix(fh, np.eye(4))
    rc = main(
        ["toeplitz", "--spec", spec_path, "--trunc", "3", "--operator", str(tmp_path / "op.mtx")]
    )
    assert rc == 3


@pytest.mark.parametrize("header", ["15 15 -1", "-5 15 0"])
def test_toeplitz_negative_header_count_exits_3(tmp_path, capsys, header):
    spec_path = write_spec(tmp_path / "spec.json", BALL)
    (tmp_path / "op.mtx").write_text(header + "\n")
    rc = main(["toeplitz", "--spec", spec_path, "--trunc", "3", "--operator", str(tmp_path / "op.mtx")])
    assert rc == 3
    assert "matrix file: bad header" in capsys.readouterr().err


def test_toeplitz_rejects_junk_operator(tmp_path, rng):
    spec_path = write_spec(tmp_path / "spec.json", BALL)
    M = rng.standard_normal((15, 15))
    with open(tmp_path / "op.mtx", "w") as fh:
        linalg.save_matrix(fh, M)
    rc = main(
        ["toeplitz", "--spec", spec_path, "--trunc", "3", "--operator", str(tmp_path / "op.mtx")]
    )
    assert rc == 1


NON_FINITE = ["nan", "inf", "-inf", "1e400"]


def _planted_file(tmp_path, rng, bad=None):
    """A planted operator on BALL at trunc 3 (dim 15); ``bad`` replaces one entry's real part."""
    space = FockSpace(spec_from_json(BALL), (3,))
    T = evaluate_at_model(random_symbol(space, rng, n_monomials=4))
    path = tmp_path / "op.mtx"
    with open(path, "w") as fh:
        linalg.save_matrix(fh, T.dense)
    if bad is not None:
        lines = path.read_text().splitlines()
        r, c, _, im = lines[2].split()
        lines[2] = f"{r} {c} {bad} {im}"
        path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("command", ["toeplitz", "brown-halmos"])
def test_non_finite_operator_entry_exits_2(tmp_path, rng, capsys, command, bad):
    spec_path = write_spec(tmp_path / "spec.json", BALL)
    op = _planted_file(tmp_path, rng, bad)
    out = tmp_path / "out"
    rc = main([command, "--spec", spec_path, "--trunc", "3", "--operator", op, "--out", str(out)])
    assert rc == 2
    assert "non-finite value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["toeplitz", "brown-halmos"])
def test_duplicate_lines_summing_past_the_largest_double_exit_2(tmp_path, capsys, command):
    # each line is finite, their sum is inf: it loaded as one inf entry, and
    # both commands exited 1 with NaN reports and overflow warnings
    spec_path = write_spec(tmp_path / "spec.json", BALL)
    op = tmp_path / "op.mtx"
    op.write_text("15 15 3\n3 4 1.0 0.0\n0 0 1e308 0.0\n0 0 1e308 0.0\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([command, "--spec", spec_path, "--trunc", "3", "--operator", str(op), "--out", str(out)])
    assert rc == 2
    assert "matrix file: non-finite value (inf+0j) on line 3" in capsys.readouterr().err
    assert not caught, [str(w.message) for w in caught]
    assert not out.exists()


@pytest.mark.parametrize("drop_tol", ["-1", "nan"])
def test_negative_or_nan_drop_tol_exits_2(tmp_path, rng, capsys, drop_tol):
    # -1 would keep every class, zero ones included; NaN would keep none
    spec_path = write_spec(tmp_path / "spec.json", BALL)
    op = _planted_file(tmp_path, rng)
    out = tmp_path / "out"
    argv = ["toeplitz", "--spec", spec_path, "--trunc", "3", "--operator", op, "--drop-tol", drop_tol]
    rc = main([*argv, "--out", str(out)])
    assert rc == 2
    assert "--drop-tol must be >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_non_finite_symbol_coefficient_exits_2(tmp_path, rng, capsys, bad):
    spec_path = write_spec(tmp_path / "spec.json", BALL)
    space = FockSpace(spec_from_json(BALL), (3,))
    doc = symbol_to_json(random_symbol(space, rng, n_monomials=3))
    doc["terms"][1]["im"] = [[12345.5]]
    sym_path = tmp_path / "symbol.json"
    sym_path.write_text(json.dumps(doc).replace("12345.5", bad))
    out = tmp_path / "out"
    rc = main(["fourier", "--spec", spec_path, "--trunc", "3", "--symbol", str(sym_path), "--out", str(out)])
    assert rc == 2
    assert "non-finite coefficient" in capsys.readouterr().err
    assert not out.exists()


def _write_tuple(tmp_path, X):
    """The manifest and one matrix file per operator of ``X``, as ``berezin --tuple`` reads them."""
    files = []
    for i, ops in enumerate(X.ops):
        row = []
        for j, mat in enumerate(ops, start=1):
            name = f"X_{i + 1}_{j}.mtx"
            with open(tmp_path / name, "w") as fh:
                linalg.save_matrix(fh, mat)
            row.append(name)
        files.append(row)
    (tmp_path / "tuple.json").write_text(json.dumps({"dim_h": X.dim_h, "files": files}))


def test_berezin_command(tmp_path, rng):
    spec_path = write_spec(tmp_path / "spec.json", BERGMAN)
    spec = spec_from_json(BERGMAN)
    X = random_pure_tuple(spec, rng, dims=(3,), shrink=0.85)
    _write_tuple(tmp_path, X)
    space = FockSpace(spec, (4,))
    T = evaluate_at_model(random_symbol(space, rng, n_monomials=3))
    with open(tmp_path / "op.mtx", "w") as fh:
        linalg.save_matrix(fh, T.dense)
    rc = main(
        [
            "berezin",
            "--spec", spec_path,
            "--trunc", "4",
            "--tuple", str(tmp_path / "tuple.json"),
            "--operator", str(tmp_path / "op.mtx"),
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "berezin-report.json").read_text())
    assert report["member"] and report["pure"]
    assert report["intertwining_residual"] < 1e-9
    with open(tmp_path / "out" / "berezin-transform.mtx") as fh:
        transformed = linalg.load_matrix(fh)
    assert transformed.shape == (X.dim_h, X.dim_h)


def _write_scalar_tuple(tmp_path, x):
    """The 1x1 tuple ``X = [[x]]`` for the one-variable shift ``f = z`` (k=1, n=1, m=1)."""
    spec = {"k": 1, "n": [1], "m": [1], "coeffs": [{"i": 1, "word": [1], "a": 1.0}]}
    with open(tmp_path / "X.mtx", "w") as fh:
        linalg.save_matrix(fh, np.array([[x]], dtype=complex))
    (tmp_path / "tuple.json").write_text(json.dumps({"dim_h": 1, "files": [["X.mtx"]]}))
    return ["berezin", "--spec", write_spec(tmp_path / "spec.json", spec), "--trunc", "3",
            "--tuple", str(tmp_path / "tuple.json"), "--out", str(tmp_path / "out")]


# I - X X^* = -3 has no square root; at 1e200 the defect overflows to NaN
@pytest.mark.parametrize("x, min_eig", [(2.0, pytest.approx(-3.0)), (1e200, "nan")])
def test_berezin_outside_the_polydomain_fails_without_a_kernel(tmp_path, x, min_eig):
    # a failed verification, not an input error
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(_write_scalar_tuple(tmp_path, x)) == 1
    report = strict_json((tmp_path / "out" / "berezin-report.json").read_text())
    assert report["member"] is False and report["passed"] is False
    assert report["membership_witness"] == {"p": [1], "min_eig": min_eig}
    kernel_keys = {"kernel_norm", "gram_vs_identity", "tail_bound", "phi_power_norms", "intertwining_residual"}
    assert not kernel_keys & set(report)


def test_berezin_kernel_accepts_the_defect_membership_accepts(tmp_path):
    # I - X X^* = -5e-10 is within --tol 1e-9 of PSD: a member, whose defect has the root 0;
    # the tuple is not pure and its kernel is 0, not an isometry, so the verification fails
    assert main(_write_scalar_tuple(tmp_path, math.sqrt(1.0 + 5e-10))) == 1
    report = strict_json((tmp_path / "out" / "berezin-report.json").read_text())
    assert report["member"] is True and report["pure"] is False and report["passed"] is False
    assert report["membership_witness"]["min_eig"] < 0.0
    assert report["kernel_norm"] == 0.0
    assert report["gram_vs_identity"] == 1.0
    kernel_keys = {"kernel_norm", "gram_vs_identity", "tail_bound", "phi_power_norms", "intertwining_residual"}
    assert kernel_keys <= set(report)


def test_berezin_fails_a_kernel_that_is_not_an_isometry_within_the_tail(tmp_path, rng, monkeypatch):
    # the pure tuple of test_berezin_command: ||K^*K - I|| is 0.046 within the tail bound 0.40
    spec_path = write_spec(tmp_path / "spec.json", BERGMAN)
    _write_tuple(tmp_path, random_pure_tuple(spec_from_json(BERGMAN), rng, dims=(3,), shrink=0.85))
    argv = ["berezin", "--spec", spec_path, "--trunc", "4", "--tuple", str(tmp_path / "tuple.json")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    gram = BerezinKernel.gram
    # half the Gram matrix keeps ||K|| <= 1 but puts K^*K about 0.5 from I
    monkeypatch.setattr(BerezinKernel, "gram", lambda kernel: 0.5 * gram(kernel))
    assert main([*argv, "--out", str(tmp_path / "halved")]) == 1
    report = strict_json((tmp_path / "halved" / "berezin-report.json").read_text())
    assert report["kernel_norm"] <= 1.0
    assert report["member"] is True and report["pure"] is True and report["passed"] is False
    assert report["gram_vs_identity"] > report["tail_bound"]


def test_brown_halmos_command(tmp_path, rng):
    spec_path = write_spec(tmp_path / "spec.json", BALL)
    spec = spec_from_json(BALL)
    space = FockSpace(spec, (3,))
    T = evaluate_at_model(random_symbol(space, rng, n_monomials=4))
    with open(tmp_path / "op.mtx", "w") as fh:
        linalg.save_matrix(fh, T.dense)
    rc = main(
        [
            "brown-halmos",
            "--spec", spec_path,
            "--trunc", "3",
            "--operator", str(tmp_path / "op.mtx"),
            "--factor", "1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "brown-halmos-report.json").read_text())
    assert report["satisfied"]
    assert report["classification"] == "BH-consistent"


@pytest.mark.parametrize("spoil", [False, True])
def test_brown_halmos_factor_reports_its_residual_of_the_full_scan(tmp_path, rng, spoil):
    # k = 2: --factor j reads the j-th residual of the scan over both factors, bit for bit
    spec_path = write_spec(tmp_path / "spec.json", WIDE)
    T = evaluate_at_model(random_symbol(FockSpace(spec_from_json(json.dumps(WIDE)), (2, 2)), rng, n_monomials=6))
    if spoil:
        T = cli._spoiled(T, 1, 0)
    with open(tmp_path / "op.mtx", "w") as fh:
        linalg.save_matrix(fh, T.matrix)
    argv = ["brown-halmos", "--spec", spec_path, "--trunc", "2", "--operator", str(tmp_path / "op.mtx")]
    assert main([*argv, "--out", str(tmp_path / "all")]) == (1 if spoil else 0)
    full = strict_json((tmp_path / "all" / "brown-halmos-report.json").read_text())
    assert full["classification"] == ("BH-violated" if spoil else "BH-consistent")
    for j in (1, 2):
        rc = main([*argv, "--factor", str(j), "--out", str(tmp_path / f"factor{j}")])
        one = strict_json((tmp_path / f"factor{j}" / "brown-halmos-report.json").read_text())
        assert one["factors"] == [j]
        assert [float(r).hex() for r in one["residuals"]] == [float(full["residuals"][j - 1]).hex()]
        assert one["classification"] == full["classification"]
        assert rc == (1 if spoil else 0)


def test_kernel_psd_command(tmp_path, rng):
    spec_path = write_spec(tmp_path / "spec.json", BALL)
    spec = spec_from_json(BALL)
    space = FockSpace(spec, (3,))
    sym = random_symbol(space, rng, n_monomials=4, hermitian=True)
    (tmp_path / "symbol.json").write_text(json.dumps(symbol_to_json(sym)))
    rc = main(
        [
            "kernel-psd",
            "--spec", spec_path,
            "--trunc", "3",
            "--symbol", str(tmp_path / "symbol.json"),
            "--radius", "0.5",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "out" / "kernel-psd-report.json").read_text())
    assert report["verdicts_agree"]


def test_symbol_term_beyond_truncation_is_dropped_by_fourier_and_kernel_psd(tmp_path):
    # g1.g1.g1 has no basis word at --trunc 2: both commands evaluate the symbol without it
    spec_path = write_spec(tmp_path / "spec.json", BALL)
    identity = {"left": [[]], "right": [[]], "re": [[1.0]], "im": [[0.0]]}
    beyond = {"left": [[1, 1, 1]], "right": [[]], "re": [[0.5]], "im": [[0.0]]}
    for name, terms in (("kept", [identity]), ("beyond", [identity, beyond])):
        doc = {"k": 1, "n": [2], "coeff_dim": 1, "terms": terms}
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        common = ["--spec", spec_path, "--trunc", "2", "--symbol", str(tmp_path / f"{name}.json")]
        assert main(["fourier", *common, "--radius", "0.5", "--out", str(tmp_path / name / "f")]) == 0
        assert main(["kernel-psd", *common, "--radius", "0.5", "--out", str(tmp_path / name / "k")]) == 0
    kept, dropped = tmp_path / "kept", tmp_path / "beyond"
    assert (dropped / "f" / "operator.mtx").read_bytes() == (kept / "f" / "operator.mtx").read_bytes()
    report = strict_json((dropped / "f" / "fourier-report.json").read_text())
    assert report["terms"] == 1
    assert report["norm"] == strict_json((kept / "f" / "fourier-report.json").read_text())["norm"]
    got = (dropped / "k" / "kernel-psd-report.json").read_bytes()
    assert got == (kept / "k" / "kernel-psd-report.json").read_bytes()


def test_verify_command_passes(tmp_path):
    rc = main(["verify", "--seed", "3", "--out", str(tmp_path / "out")])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "verify-report.json").read_text())
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(names)


def test_verify_report_matches_golden_file(tmp_path):
    # the seeded battery report is pinned byte for byte
    rc = main(["verify", "--seed", "42", "--trunc", "4", "--out", str(tmp_path / "out")])
    assert rc == 0
    golden = Path(__file__).parent / "data" / "verify_seed42_trunc4.json"
    assert (tmp_path / "out" / "verify-report.json").read_bytes() == golden.read_bytes()


@pytest.mark.parametrize("seed", [0, 5, 13])
def test_verify_reports_match_golden_files_for_more_seeds(tmp_path, seed):
    # each seed draws one- and two-factor specs with m from 1 to 3 in every check
    assert main(["verify", "--seed", str(seed), "--trunc", "4", "--out", str(tmp_path / "out")]) == 0
    golden = Path(__file__).parent / "data" / f"verify_seed{seed}_trunc4.json"
    assert (tmp_path / "out" / "verify-report.json").read_bytes() == golden.read_bytes()


def _grading_check(seed):
    report = cli.run_verify_battery(seed, 4)
    return next(c for c in report["checks"] if c["name"] == "homogeneous_decomposition")


def _misgrade_key_5(monkeypatch):
    # the entry at key 5 (row 0, column 5) of every graded operator that stores
    # it moves to the neighbouring code: T's and T^*'s parts then disagree by it
    degree_gaps = toeplitz._degree_gaps

    def shifted(T):
        keys, vals, code = degree_gaps(T)
        n_codes = int(np.prod([2 * L + 1 for L in T.space.trunc]))
        code = code.copy()
        at = keys == 5
        code[at] += np.where(code[at] == n_codes - 1, -1, 1)
        return keys, vals, code

    monkeypatch.setattr(toeplitz, "_degree_gaps", shifted)


def _rescale_key_3(monkeypatch):
    # the reconstruction's entry at key 3 (row 0, column 3), where it is stored, is off by 1e-9
    reconstruct = cli._cesaro_entries

    def scaled(T, N, fejer_weights):
        keys, vals = reconstruct(T, N, fejer_weights)
        vals[keys == 3] *= 1 + 1e-9
        return keys, vals

    monkeypatch.setattr(cli, "_cesaro_entries", scaled)


@pytest.mark.parametrize("seed, worst", [(0, 1.9889679423822786), (7, 2.60346413722241)])
def test_grading_check_reports_a_misgraded_entry(monkeypatch, seed, worst):
    # the check reports the largest disagreement the misgraded entry makes
    _misgrade_key_5(monkeypatch)
    check = _grading_check(seed)
    assert check["passed"] is False
    assert check["worst"] == worst


@pytest.mark.parametrize("fault", [None, _misgrade_key_5, _rescale_key_3])
@pytest.mark.parametrize("doc, trunc", [(WIDE, (3, 3)), (DEEP, (6,))])
def test_grading_blocks_report_the_one_block_worst(monkeypatch, fault, doc, trunc):
    # n = 450 in blocks of 36 rows, and n = 254 in blocks of 64 rows, the last
    # one short: every entry meets the arithmetic of the whole draw in one block
    space = FockSpace(spec_from_json(json.dumps(doc)), trunc, coeff_dim=2)
    n = space.total_dim
    assert n % (cli._GRADING_BLOCK_CELLS // n) != 0
    if fault is not None:
        fault(monkeypatch)
    blocked = cli._grading_gap(space, np.random.default_rng(3))
    monkeypatch.setattr(cli, "_GRADING_BLOCK_CELLS", n * n)
    whole = cli._grading_gap(space, np.random.default_rng(3))
    assert np.float64(blocked).tobytes() == np.float64(whole).tobytes()
    assert (blocked == 0.0) == (fault is None)


def _failed_checks(seed):
    return [c for c in cli.run_verify_battery(seed, 4)["checks"] if not c["passed"]]


def test_classification_with_unit_representative_weights_fails_the_roundtrip(monkeypatch):
    # every representative weighs 1: the weight ratios of the planted operators
    # no longer match their entries, and the round trip alone fails, by name
    classify_pairs = FockSpace.classify_pairs

    def unit_representatives(space, keys):
        classes = classify_pairs(space, keys)
        return classes._replace(tau_rep=np.ones_like(classes.tau_rep))

    monkeypatch.setattr(FockSpace, "classify_pairs", unit_representatives)
    assert _failed_checks(0) == [{
        "name": "toeplitz_roundtrip",
        "passed": False,
        "error": "NotMultiToeplitz: operator is not weighted multi-Toeplitz (max violation 1.920e-01)",
    }]


def test_a_term_left_out_of_the_fold_fails_the_structural_equation(monkeypatch):
    # each sum of more than one term loses its last: the map, the alternating
    # sum and the residual all go wrong, and the structural-equation check
    # alone fails, by name
    accumulate = brownhalmos.accumulate_entries

    def last_left_out(terms):
        terms = list(terms)
        return accumulate(iter(terms[:-1] if len(terms) > 1 else terms))

    monkeypatch.setattr(brownhalmos, "accumulate_entries", last_left_out)
    failed = _failed_checks(0)
    assert [c["name"] for c in failed] == ["brown_halmos_residual"]
    assert failed[0]["worst"] == 17.595004510964316


def test_a_check_that_raises_fails_by_name(monkeypatch, tmp_path, capsys):
    # the defect check raises: it alone fails, carrying the exception, the
    # other checks still report, and verify exits 1
    expected = {c["name"] for c in cli.run_verify_battery(0, 3)["checks"]} - {"defect_identity"}

    def broken(delta):
        raise ArithmeticError("no residual")

    monkeypatch.setattr(cli, "_vacuum_residual", broken)
    assert main(["verify", "--trunc", "3", "--seed", "0", "--out", str(tmp_path)]) == 1
    report = strict_json((tmp_path / "verify-report.json").read_text())
    failed = [c for c in report["checks"] if not c["passed"]]
    assert failed == [{"name": "defect_identity", "passed": False, "error": "ArithmeticError: no residual"}]
    assert {c["name"] for c in report["checks"]} - {"defect_identity"} == expected
    assert "in broken" in capsys.readouterr().err


def test_a_check_out_of_memory_still_exits_3(monkeypatch, capsys):
    def exhausted(delta):
        raise MemoryError("residual")

    monkeypatch.setattr(cli, "_vacuum_residual", exhausted)
    assert main(["verify", "--trunc", "3", "--seed", "0"]) == 3
    assert "out of memory" in capsys.readouterr().err


def test_grading_check_reports_a_wrong_reconstruction(monkeypatch):
    _rescale_key_3(monkeypatch)
    check = _grading_check(0)
    assert check["passed"] is False
    assert 0.0 < check["worst"] < 1e-8
    assert check["worst"] == 2.3080354840324322e-09


GOLDEN_FOURIER = Path(__file__).parent / "data" / "fourier_k2_trunc3"


@pytest.mark.parametrize("radius, tag", [("1.0", "r1"), ("0.0", "r0")])
def test_fourier_report_and_operator_match_golden_files(tmp_path, radius, tag):
    # a hermitian symbol on k=2, n=(2,2), L=3 with coeff_dim 2 (total dim 450)
    args = ["--spec", str(GOLDEN_FOURIER / "spec.json"), "--trunc", "3", "--coeff-dim", "2",
            "--symbol", str(GOLDEN_FOURIER / "symbol.json"), "--out", str(tmp_path / "out")]
    assert main(["fourier", *args, "--radius", radius]) == 0
    for got, golden in (
        ("fourier-report.json", f"fourier-report-{tag}.json"),
        ("operator.mtx", f"operator-{tag}.mtx"),
    ):
        assert (tmp_path / "out" / got).read_bytes() == (GOLDEN_FOURIER / golden).read_bytes()


def test_kernel_psd_report_matches_golden_file(tmp_path):
    args = ["--spec", str(GOLDEN_FOURIER / "spec.json"), "--trunc", "3", "--coeff-dim", "2",
            "--symbol", str(GOLDEN_FOURIER / "symbol.json"), "--out", str(tmp_path / "out")]
    assert main(["kernel-psd", *args, "--radius", "0.5"]) == 0
    got = (tmp_path / "out" / "kernel-psd-report.json").read_bytes()
    assert got == (GOLDEN_FOURIER / "kernel-psd-report.json").read_bytes()


GOLDEN_BEREZIN = Path(__file__).parent / "data" / "berezin_k2_trunc3"


def test_berezin_report_and_transform_match_golden_files(tmp_path):
    # a stored pure tuple on the golden k=2 spec (dim_h 4), the golden operator at L=3, coeff_dim 2
    args = ["--spec", str(GOLDEN_FOURIER / "spec.json"), "--trunc", "3", "--coeff-dim", "2",
            "--tuple", str(GOLDEN_BEREZIN / "tuple.json"), "--operator", str(GOLDEN_FOURIER / "operator-r1.mtx"),
            "--out", str(tmp_path / "out")]
    assert main(["berezin", *args]) == 0
    for name in ("berezin-report.json", "berezin-transform.mtx"):
        assert (tmp_path / "out" / name).read_bytes() == (GOLDEN_BEREZIN / name).read_bytes()


def test_the_berezin_check_builds_one_weight_table_per_tuple(monkeypatch):
    # the kernel builds its space once and the intertwining residual reads it off the kernel
    from polytoeplitz import weights

    original, calls = weights.build_weight_table, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("polytoeplitz") and getattr(module, "build_weight_table", None) is original:
            monkeypatch.setattr(module, "build_weight_table", counted)
    cli._check_berezin(np.random.default_rng(0), 4)
    assert len(calls) == 6


# the golden symbol at --trunc 4 --coeff-dim 2: dim * c = 1922, past the dense cutoff
PAST_CUTOFF = ["--spec", str(GOLDEN_FOURIER / "spec.json"), "--trunc", "4", "--coeff-dim", "2"]


def past_cutoff_block_bytes():
    """The memory guard's bound there: the Hermitian part's block bytes, as much again, and twice the largest."""
    space = FockSpace(spec_from_json((GOLDEN_FOURIER / "spec.json").read_text()), (4, 4), coeff_dim=2)
    op = csr(evaluate_at_model(symbol_from_json(space, (GOLDEN_FOURIER / "symbol.json").read_text()), 0.5).matrix)
    herm = (0.5 * (op + op.conj().T)).tocsr()
    herm.eliminate_zeros()
    cells = np.bincount(connected_components(abs(herm), directed=False)[1]) ** 2
    return 2 * 16 * (int(cells.sum()) + int(cells.max()))


def test_kernel_psd_refuses_before_allocating_what_does_not_fit(tmp_path, monkeypatch, capsys):
    need = past_cutoff_block_bytes()

    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called after the refusal")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(linalg, "_mem_available", lambda: need - 1)
    argv = ["kernel-psd", *PAST_CUTOFF, "--symbol", str(GOLDEN_FOURIER / "symbol.json")]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert f"take up to {need} bytes" in err and f"the {need - 1} bytes available" in err
    assert not (tmp_path / "out").exists()
    # exactly enough, or an unreadable figure, runs the command
    monkeypatch.undo()
    for available in (need, None):
        monkeypatch.setattr(linalg, "_mem_available", lambda: available)
        out = tmp_path / str(available)
        assert main([*argv, "--out", str(out)]) == 0
        assert strict_json((out / "kernel-psd-report.json").read_text())["verdicts_agree"]
    # below the cutoff (--trunc 3, dim * c = 450) the figure is not read, and the golden bytes come back

    def unread():
        raise AssertionError("MemAvailable read below the cutoff")

    monkeypatch.setattr(linalg, "_mem_available", unread)
    test_kernel_psd_report_matches_golden_file(tmp_path / "golden")


def test_kernel_psd_checks_its_input_before_the_memory_it_needs(tmp_path, monkeypatch, capsys):
    # with too little memory for any block stack, bad input still exits 2, not 3
    monkeypatch.setattr(linalg, "_mem_available", lambda: 1000)
    common = ["kernel-psd", *PAST_CUTOFF]
    symbol = ["--symbol", str(GOLDEN_FOURIER / "symbol.json")]
    for radius in ("2", "1", "-0.5", "nan"):
        assert main([*common, *symbol, "--radius", radius]) == 2
        assert "--radius must be a finite number in [0, 1)" in capsys.readouterr().err
    assert main([*common, "--symbol", str(tmp_path / "missing.json")]) == 2
    assert "cannot read symbol file" in capsys.readouterr().err
    assert main([*common, *symbol]) == 3
    assert "the 1000 bytes available" in capsys.readouterr().err


def test_brown_halmos_report_matches_golden_file(tmp_path):
    # the structural equation on the lifted k=2 space pins the reversed-series map and the Gram bound
    args = ["--spec", str(GOLDEN_FOURIER / "spec.json"), "--trunc", "3", "--coeff-dim", "2",
            "--operator", str(GOLDEN_FOURIER / "operator-r1.mtx"), "--out", str(tmp_path / "out")]
    assert main(["brown-halmos", *args]) == 0
    got = (tmp_path / "out" / "brown-halmos-report.json").read_bytes()
    assert got == (GOLDEN_FOURIER / "brown-halmos-report.json").read_bytes()


SRC = Path(__file__).resolve().parents[1] / "src"
# OpenBLAS takes its thread count from the first of these that is set
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def run_at_blas_threads(threads, commands, out):
    """Run ``main`` on each argv of ``commands`` in one fresh process, with the outputs under ``out``.

    ``threads=None`` leaves OpenBLAS at its default thread count.  Each
    command writes into ``out/<position>``.
    """
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argvs = [[*argv, "--out", str(out / str(j))] for j, argv in enumerate(commands)]
    code = "import json, sys; from polytoeplitz.cli import main; sys.exit(max(main(a) for a in json.loads(sys.argv[1])))"
    subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], env=env, check=True, capture_output=True, timeout=600
    )
    return [out / str(j) for j in range(len(commands))]


def test_golden_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at one BLAS thread the golden commands give the golden bytes, and the
    # verify seeds that once moved by an ulp give the bytes of the default count
    golden = ["--spec", str(GOLDEN_FOURIER / "spec.json"), "--trunc", "3", "--coeff-dim", "2",
              "--symbol", str(GOLDEN_FOURIER / "symbol.json")]
    pinned = [
        (["fourier", *golden, "--radius", "1.0"], "fourier-report.json", GOLDEN_FOURIER / "fourier-report-r1.json"),
        (["fourier", *golden, "--radius", "0.0"], "fourier-report.json", GOLDEN_FOURIER / "fourier-report-r0.json"),
        (["kernel-psd", *golden, "--radius", "0.5"], "kernel-psd-report.json", GOLDEN_FOURIER / "kernel-psd-report.json"),
        (["verify", "--seed", "42", "--trunc", "4"], "verify-report.json",
         Path(__file__).parent / "data" / "verify_seed42_trunc4.json"),
    ]
    seeds = [["verify", "--seed", str(seed), "--trunc", "4"] for seed in (15, 19, 55, 69)]
    one = run_at_blas_threads(1, [argv for argv, _, _ in pinned] + seeds, tmp_path / "one")
    default = run_at_blas_threads(None, seeds, tmp_path / "default")
    for got, (_, name, expected) in zip(one, pinned):
        assert (got / name).read_bytes() == expected.read_bytes()
    for a, b in zip(one[len(pinned):], default):
        assert (a / "verify-report.json").read_bytes() == (b / "verify-report.json").read_bytes()


def test_reports_past_the_cutoff_do_not_depend_on_the_blas_thread_count(tmp_path):
    # at trunc 5 (dim 3969) the symbol of every pair of words of length <= 1
    # stores 19593 entries, past the dense cutoff.  Its copy with every entry
    # moved by a relative 1e-3 has each factor's structural residual summed
    # over 19154 entries, past the length at which BLAS ddot threads.
    spec = write_spec(tmp_path / "spec.json", WIDE)
    space = FockSpace(spec_from_json(json.dumps(WIDE)), (5, 5))
    rng = np.random.default_rng(7)

    def multiword(a, b):
        return MultiWord((Word(a, 2), Word(b, 2)))

    empty = multiword((), ())
    short = [w for letter in (1, 2) for w in (multiword((letter,), ()), multiword((), (letter,)))]
    pairs = [IndexPair(empty, empty)] + [p for w in short for p in (IndexPair(w, empty), IndexPair(empty, w))]
    sym = symbol_of(space, {p: rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)) for p in pairs})
    planted = evaluate_at_model(sym).matrix
    moved = csr(planted)
    moved.data = moved.data * (1.0 + 1e-3 * rng.standard_normal(moved.nnz))
    for name, mat in (("planted.mtx", planted), ("moved.mtx", moved)):
        with open(tmp_path / name, "w") as fh:
            linalg.save_matrix(fh, mat)
    common = ["--spec", spec, "--trunc", "5", "--operator"]
    commands = [
        ["toeplitz", *common, str(tmp_path / "planted.mtx")],
        # a tolerance the residuals pass, for a zero exit code
        ["brown-halmos", *common, str(tmp_path / "moved.mtx"), "--tol", "1e3"],
    ]
    one = run_at_blas_threads(1, commands, tmp_path / "one")
    default = run_at_blas_threads(None, commands, tmp_path / "default")
    for a, b, name in zip(one, default, ("toeplitz-report.json", "brown-halmos-report.json")):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_model_report_matches_golden_file(tmp_path):
    # the universal model at dim 2047: defect residual and purity pinned byte for byte
    spec = write_spec(tmp_path / "spec.json", DEEP)
    rc = main(["model", "--spec", spec, "--trunc", "10", "--out", str(tmp_path / "out")])
    assert rc == 0
    golden = Path(__file__).parent / "data" / "model_deep_trunc10.json"
    assert (tmp_path / "out" / "model-report.json").read_bytes() == golden.read_bytes()


def test_invalid_tolerance_exits_2(tmp_path):
    spec_path = write_spec(tmp_path / "spec.json", BERGMAN)
    rc = main(["weights", "--spec", spec_path, "--trunc", "4", "--tol", "-1"])
    assert rc == 2


@pytest.mark.parametrize("tol", ["inf", "-inf"])
def test_infinite_tolerance_exits_2(tmp_path, capsys, tol):
    # at inf every check `worst <= tol` passed vacuously, and model and weights exited 0
    spec_path = write_spec(tmp_path / "spec.json", BERGMAN)
    for command in ("model", "weights"):
        out = tmp_path / command
        assert main([command, "--spec", spec_path, "--trunc", "3", f"--tol={tol}", "--out", str(out)]) == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_oracle_degree_below_one_exits_2(tmp_path, capsys, degree):
    # below 1 no word was checked, and the report read "passed": true
    spec_path = write_spec(tmp_path / "spec.json", BERGMAN)
    out = tmp_path / "out"
    argv = ["weights", "--spec", spec_path, "--trunc", "4", f"--oracle-degree={degree}", "--out", str(out)]
    assert main(argv) == 2
    assert "--oracle-degree must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_commands_below_the_cutoff_load_no_scipy_linear_algebra(tmp_path):
    # no scipy module at all: importing scipy.sparse alone costs about 0.3 s and
    # 15 MB, and only Lanczos, past the cutoff, reads scipy
    golden = ["--spec", str(GOLDEN_FOURIER / "spec.json"), "--trunc", "3", "--coeff-dim", "2"]
    with open(GOLDEN_FOURIER / "operator-r1.mtx") as fh:
        planted = csr(linalg.load_matrix(fh))
    assert 8 < planted.shape[0] <= 600  # split into blocks by the labeller, no Lanczos
    spoiled = planted.tolil()
    spoiled[1, 1] += 0.25
    with open(tmp_path / "spoiled.mtx", "w") as fh:
        linalg.save_matrix(fh, spoiled)
    ball = write_spec(tmp_path / "ball.json", BALL)
    # the commands that draw nothing, then verify, which draws; weights on the
    # ball at --trunc 3 checks all 14 of its words and samples none
    commands = [
        (["model", "--spec", ball, "--trunc", "3"], 0),
        (["toeplitz", *golden, "--operator", str(GOLDEN_FOURIER / "operator-r1.mtx")], 0),
        (["toeplitz", *golden, "--operator", str(tmp_path / "spoiled.mtx")], 1),
        (["brown-halmos", *golden, "--operator", str(GOLDEN_FOURIER / "operator-r1.mtx")], 0),
        (["fourier", *golden, "--symbol", str(GOLDEN_FOURIER / "symbol.json")], 0),
        (["kernel-psd", *golden, "--symbol", str(GOLDEN_FOURIER / "symbol.json")], 0),
        (["weights", "--spec", ball, "--trunc", "3"], 0),
        (["verify", "--trunc", "3"], 0),
    ]
    argvs = [[*argv, "--out", str(tmp_path / str(j))] for j, (argv, _) in enumerate(commands)]
    code = (
        "import json, sys\n"
        "from polytoeplitz.cli import main\n"
        "argvs = json.loads(sys.argv[1])\n"
        "imported = sorted(sys.modules)\n"
        "codes = [main(a) for a in argvs[:-1]]\n"
        "drawless = sorted(sys.modules)\n"
        "codes.append(main(argvs[-1]))\n"
        "print(json.dumps({'codes': codes, 'imported': imported, 'drawless': drawless,"
        " 'modules': sorted(sys.modules)}))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], env=env, check=True, capture_output=True, text=True,
        timeout=600,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [expected for _, expected in commands]
    loaded = [m for m in result["modules"] if m == "scipy" or m.startswith("scipy.")]
    assert not loaded, loaded
    # nor does a command that draws nothing import a numpy module the import
    # did not: numpy 2.4 loads numpy.random and numpy.ma lazily, and none of
    # them pays for either
    late = [m for m in set(result["drawless"]) - set(result["imported"]) if m.startswith("numpy")]
    assert not late, late
    # verify draws, and loads numpy.random, but no other numpy module
    late = {m for m in set(result["modules"]) - set(result["drawless"]) if m.startswith("numpy")}
    assert "numpy.random" in late
    assert all(m == "numpy.random" or m.startswith("numpy.random.") for m in late), sorted(late)


def test_importing_the_cli_loads_no_random_generator():
    # numpy.random and, through secrets, OpenSSL's libcrypto (_hashlib) are 6 MB
    # of a process that draws nothing; only a command that draws imports them
    code = (
        "import json, sys\n"
        "from polytoeplitz.cli import build_parser\n"
        "build_parser()\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True, timeout=120
    )
    modules = set(json.loads(done.stdout.splitlines()[-1]))
    assert "polytoeplitz.cli" in modules
    loaded = sorted(m for m in modules if m == "_hashlib" or m == "numpy.random" or m.startswith("numpy.random."))
    assert not loaded, loaded


def test_op_norm_does_not_depend_on_storage_above_cutoff():
    # the `deep` planted operator (bench/gen.py --workload deep --seed 0) at
    # radius 0.5, dim 2047: CSR and dense storage take one Lanczos path
    space = FockSpace(spec_from_json(json.dumps(DEEP)), (10,))
    doc = (Path(__file__).parent / "data" / "deep_planted_symbol.json").read_text()
    A = evaluate_at_model(symbol_from_json(space, doc), 0.5).matrix
    assert linalg.op_norm(A) == linalg.op_norm(linalg.as_dense(A))


def test_verify_rejects_per_factor_truncation(capsys):
    # the battery draws its own specs, so it takes one degree, not one per factor
    assert main(["verify", "--trunc", "4,3"]) == 2
    assert "one truncation degree" in capsys.readouterr().err


# the options of each subcommand: each is read by its command, and a new one must be added here
OPTIONS = {
    "weights": {"--spec", "--trunc", "--tol", "--seed", "--out", "--oracle-degree"},
    "model": {"--spec", "--trunc", "--coeff-dim", "--tol", "--out"},
    "verify": {"--trunc", "--seed", "--out"},
    "toeplitz": {"--spec", "--trunc", "--coeff-dim", "--tol", "--out", "--operator", "--drop-tol"},
    "fourier": {"--spec", "--trunc", "--coeff-dim", "--out", "--symbol", "--radius"},
    "berezin": {"--spec", "--trunc", "--coeff-dim", "--tol", "--out", "--tuple", "--operator"},
    "brown-halmos": {"--spec", "--trunc", "--coeff-dim", "--tol", "--out", "--operator", "--factor"},
    "kernel-psd": {"--spec", "--trunc", "--coeff-dim", "--tol", "--out", "--symbol", "--radius"},
}


def test_main_calls_share_one_parser_and_help_is_unchanged(tmp_path, capsys, monkeypatch):
    build_parser.cache_clear()
    spec = write_spec(tmp_path / "spec.json", BERGMAN)
    assert main(["weights", "--spec", spec, "--trunc", "3", "--out", str(tmp_path / "a")]) in (0, 1)
    # the command function is looked up per call, so replacing it still takes effect
    monkeypatch.setattr(cli, "cmd_weights", lambda cfg, args: 7)
    assert main(["weights", "--spec", spec, "--trunc", "3"]) == 7
    assert build_parser.cache_info().misses == 1
    assert build_parser() is build_parser()
    capsys.readouterr()
    # the shared parser prints the help of a freshly built one
    fresh = build_parser.__wrapped__()
    sub = next(a for a in fresh._actions if isinstance(a, argparse._SubParsersAction))
    for argv, parser in (([], fresh), (["kernel-psd"], sub.choices["kernel-psd"])):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == parser.format_help()


def test_subcommand_options_match_the_table():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        name: {flag for action in p._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }
    assert got == OPTIONS


def test_option_the_command_does_not_read_is_rejected(tmp_path, capsys):
    # each of these ran, ignoring the option, when every subcommand took every option
    spec = write_spec(tmp_path / "spec.json", BERGMAN)
    golden = ["--spec", str(GOLDEN_FOURIER / "spec.json"), "--trunc", "3", "--coeff-dim", "2",
              "--symbol", str(GOLDEN_FOURIER / "symbol.json")]
    for argv in (
        ["model", "--spec", spec, "--trunc", "3", "--seed", "1"],
        ["fourier", *golden, "--tol", "1e-3"],
        ["verify", "--coeff-dim", "2"],
        ["verify", "--tol", "1e-6"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_nan_tolerance_exits_2(tmp_path, rng, capsys):
    # every verdict `violation <= nan` is false, so NaN read as "verification failed" (exit 1)
    spec_path = write_spec(tmp_path / "spec.json", BALL)
    op = _planted_file(tmp_path, rng)
    argv = ["toeplitz", "--spec", spec_path, "--trunc", "3", "--operator", op, "--tol", "nan"]
    assert main(argv) == 2
    assert "tolerance must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["-1", "2", "inf", "-inf", "nan", "1.0000000000000002"])
def test_fourier_radius_outside_closed_unit_interval_exits_2(tmp_path, capsys, radius):
    # -1 and 2 passed, inf gave "norm": "nan" and passed, nan failed only inside the SVD
    out = tmp_path / "out"
    args = ["--spec", str(GOLDEN_FOURIER / "spec.json"), "--trunc", "3", "--coeff-dim", "2",
            "--symbol", str(GOLDEN_FOURIER / "symbol.json"), "--out", str(out)]
    assert main(["fourier", *args, f"--radius={radius}"]) == 2
    assert "--radius must be a finite number in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_memory_error_exits_3(tmp_path, monkeypatch, capsys):
    # exit 1 means "verification failed"; running out of memory is not a verdict
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 3.88 GiB for an array\nwith shape (16129, 16129)")

    monkeypatch.setattr("polytoeplitz.cli.evaluate_at_model", exhausted)
    args = ["--spec", str(GOLDEN_FOURIER / "spec.json"), "--trunc", "3", "--coeff-dim", "2",
            "--symbol", str(GOLDEN_FOURIER / "symbol.json")]
    assert main(["fourier", *args]) == 3
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 3.88 GiB for an array with shape (16129, 16129)\n"


def test_operator_commands_make_no_word_list(tmp_path, monkeypatch):
    # toeplitz and brown-halmos address words by rank: on the `deep` planted operator
    # (dim 2047) neither enumerates words nor builds the multi-word basis
    import polytoeplitz.freemonoid as freemonoid

    spec = write_spec(tmp_path / "spec.json", DEEP)
    space = FockSpace(spec_from_json(json.dumps(DEEP)), (10,))
    doc = (Path(__file__).parent / "data" / "deep_planted_symbol.json").read_text()
    T = evaluate_at_model(symbol_from_json(space, doc))
    op = tmp_path / "planted.mtx"
    with open(op, "w") as fh:
        linalg.save_matrix(fh, T.matrix)

    def refuse(*args, **kwargs):
        raise AssertionError("words enumerated")

    # enumerate_words iterates a WordList, so src/ imports of it are refused too
    monkeypatch.setattr(freemonoid, "enumerate_words", refuse)
    monkeypatch.setattr(freemonoid.WordList, "__iter__", refuse)
    monkeypatch.setattr(FockSpace, "basis", refuse)
    for command in ("toeplitz", "brown-halmos"):
        out = tmp_path / command
        argv = [command, "--spec", spec, "--trunc", "10", "--operator", str(op), "--out", str(out)]
        assert main(argv) == 0
        assert strict_json((out / f"{command}-report.json").read_text())["command"] == command


def test_no_command_builds_the_pair_arrays(tmp_path, monkeypatch, rng):
    # the arrays over every comparable pair are a test reference: the battery, the
    # symbol commands, monomials and random symbols classify by word-offset arithmetic
    def refuse(self):
        raise AssertionError("pair structure built")

    monkeypatch.setattr(FockSpace, "pair_structure", refuse)
    test_verify_report_matches_golden_file(tmp_path / "verify")
    for radius, tag in (("1.0", "r1"), ("0.0", "r0")):
        test_fourier_report_and_operator_match_golden_files(tmp_path / tag, radius, tag)
    test_kernel_psd_report_matches_golden_file(tmp_path / "kernel")
    space = FockSpace(spec_from_json((GOLDEN_FOURIER / "spec.json").read_text()), (3, 3))
    sym = random_symbol(space, rng, n_monomials=6)
    total = sum(monomial(space, pair, A).matrix for pair, A in pair_coefficients(sym).items())
    assert np.array_equal(total.toarray(), linalg.as_dense(evaluate_at_model(sym).matrix))

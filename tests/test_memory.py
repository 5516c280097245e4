"""Peak-memory guards: classification, the structural equation, evaluation and the model are sparse.

A planted multi-Toeplitz operator on ``k=2, n=(2,2), L=5`` (dim 3969) is
built as a sparse sum of monomials and written to disk; ``toeplitz`` and
``brown-halmos`` then run on it, each in a fresh interpreter that reports its
own peak resident set size.  Dense ``(dim, dim)`` working arrays at this size
take well over a gigabyte, so the bound catches any return to them.
``toeplitz`` also runs at ``L=6`` (dim 16129), where the arrays over all
1,990,921 comparable pairs would take it past its tighter bound; in-process,
classifying and extracting at dim 3969 must not build the pair structure.
In-process at dim 3969, classification and each factor's structural-equation
residual are traced per stored entry of the planted operator.
``fourier`` evaluates the planted symbol at dim 3969 and at ``L=6``
(dim 16129), where one dense complex ``(dim, dim)`` array takes 4.2 GB and
the arrays over all comparable pairs would take it past its tighter bound.
``kernel-psd`` evaluates the planted symbol at dim 3969 and checks the
positivity of the kernel and of the model operator block by block; the dense
kernel, its conjugate and their sum took three 252 MB arrays there.
``model`` on ``k=1, n=2, L=10`` (dim 2047) runs the universal model's
completely positive maps; dense defect iterates there peak near 450 MB.
In-process at ``L=6`` (dim 16129), the model's defect and purity are traced
per basis vector: each creation acts on one factor's word ranks, so nothing
of the space's dimension outlives the call but the returned diagonal.
The symbol and grading routines are also traced in-process: for sparse
inputs they allocate less than one byte per ``(dim, dim)`` cell.
One draw of the battery's grading check at ``n = 450`` is traced against the
peak it had when it held one CSR per degree part of ``T`` and of ``T^*``, and
against one row block: it reads its normals a row block at a time through
two cursors on the one stream, the real parts from a copy of the generator
and the imaginary parts from the generator itself, and holds no ``(n, n)``
array.  ``verify --seed 0 --trunc 4`` in a fresh interpreter stays within a
few megabytes of the peak of the import with ``numpy.random``, which verify
imports where it draws, and one battery call traces little more than that one
row block; ``weights --trunc 14`` on one factor
of ``n = 2`` (dim 32767), whose cached cut plan holds 458,753 entries, within
its bound above it.
``intertwining_residual`` on the Berezin kernel of a random pure tuple at
``L=4`` (dim 961) is traced against one dense complex ``(dim, dim)`` array.
``cauchy_dual_projection`` on ``k=1, n=2, L=10`` (dim 2047, ``|gamma| = 6``,
Gram side 12282) runs in a fresh interpreter: the dense Gram matrix alone
takes 2.4 GB there, while its blocks, one per target vector, are at most six
wide, which a test that patches the eigensolver checks at ``L=4..6``.
Importing the program and building its parser, in a fresh interpreter, stays
below the peak it had when every process imported ``numpy.random``.
"""

import copy
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.sparse as sp

import polytoeplitz
from polytoeplitz import cli, linalg
from polytoeplitz.brownhalmos import bh_residual, build_row, cauchy_dual_projection
from polytoeplitz.cli import _GRADING_BLOCK_CELLS, _grading_gap
from polytoeplitz.cpmaps import UniversalModel, berezin_kernel, defect, intertwining_residual, is_pure, random_pure_tuple
from polytoeplitz.freemonoid import IndexPair, MultiWord, Word
from polytoeplitz.model import FockOperator, FockSpace, monomial
from polytoeplitz.toeplitz import (
    cesaro_reconstruct,
    evaluate_at_model,
    extract_fourier,
    is_multi_toeplitz,
    symbol_to_json,
)
from polytoeplitz.weights import spec_from_json

from oracles import homogeneous_decomposition, symbol_of

PEAK_RSS_LIMIT_MB = 400
# importing the program alone takes about 60 MB; the pair arrays at dim 16129 took 258 MB in all
TOEPLITZ_PEAK_RSS_LIMIT_MB = 150
# the same for fourier, where the pair arrays and their per-class argsort took 231 MB in all
FOURIER_PEAK_RSS_LIMIT_MB = 120
MODEL_PEAK_RSS_LIMIT_MB = 300
CAUCHY_PEAK_RSS_LIMIT_MB = 300
# traced bytes above the input per stored entry of the planted operator at L = 5:
# the classification held 269 and the structural equation 163-165 when they
# classified every candidate pair again and summed the map's terms all at once;
# never to be raised
TOEPLITZ_BYTES_PER_ENTRY = 130
BH_BYTES_PER_ENTRY = 150
# traced bytes per basis vector of the universal model's defect and purity at L = 6,
# held after the call (the returned complex diagonal is 16) and at peak: the space
# cached every creation lifted over the whole basis when they were 142.7 and 206.5;
# never to be raised
MODEL_HELD_BYTES_PER_VECTOR = 24
MODEL_PEAK_BYTES_PER_VECTOR = 100
# one grading-check draw at n = 450 as it was with one CSR per degree part of T and of T^*
# held together (19,651,312 bytes traced); never to be raised
GRADING_DRAW_PEAK_BYTES = 19_651_312
# the same draw graded one row block at a time: the whole draw's triples, graded
# at once, traced 17,021,215 bytes; never to be raised
GRADING_BLOCK_PEAK_BYTES = 8_000_000
# the same draw read one row block at a time: 4,936,333 bytes traced when the
# whole (n, n) draw was filled first; never to be raised
GRADING_STREAM_PEAK_BYTES = 2_500_000
# the peak RSS of verify --seed 0 --trunc 4 above a bare import of the CLI and
# of numpy.random in the same way: 8.8 MB with the whole grading draw held;
# never to be raised
VERIFY_ABOVE_IMPORT_MB = 6
# traced bytes at the peak of one run_verify_battery(0, 4) call, the program's
# own arrays without the library pages that RSS counts: 2,115,507 bytes with
# the grading draw read a row block at a time; never to be raised
VERIFY_TRACED_PEAK_BYTES = 2_500_000
# the peak RSS of weights --trunc 14 on one factor of n = 2 (dim 32767) above a
# bare import: 9.9 MB with per-cut gathers, 21.8 MB with the cached plan of
# every cut (5.5 MB held) and the plan-length arrays each convolution gathers;
# never to be raised
WEIGHTS_ABOVE_IMPORT_MB = 26
# a fresh import of the CLI with its parser built: 49-52 MB when it imported
# scipy.sparse (about 15 MB of it), 36 MB with numpy.random (6 MB of it), 30.8
# MB without either
IMPORT_PEAK_RSS_LIMIT_MB = 34

# every word of length <= 2 in both factors, letter-dependent coefficients
SPEC = {
    "k": 2,
    "n": [2, 2],
    "m": [2, 2],
    "coeffs": [
        {"i": i, "word": list(w), "a": a}
        for i in (1, 2)
        for w, a in (((1,), 1.0), ((2,), 0.5), ((1, 1), 0.25), ((1, 2), 0.25), ((2, 1), 0.25), ((2, 2), 0.25))
    ],
}

# one factor of the same polydomain, for the universal model at L = 10
MODEL_SPEC = {"k": 1, "n": [2], "m": [3], "coeffs": [c for c in SPEC["coeffs"] if c["i"] == 1]}

# (left, right) letters per factor of each planted term, with its coefficient
TERMS = [
    (((), ()), ((), ()), 1.0),
    (((1,), ()), ((), ()), 0.5 - 0.25j),
    (((), (2,)), ((), ()), -0.3),
    (((), ()), ((2, 1), ()), 0.2j),
    (((1, 2), ()), ((), (1,)), 0.1 + 0.1j),
    (((), ()), ((1,), (2, 2)), -0.05),
]

# The child reports the peak RSS of its own image (VmHWM).  Its ru_maxrss would
# not do: Linux carries the starting process's peak into it across fork and
# exec, so it would read at least the peak of the test run that started it.
# Beside it, its resident anonymous memory and mapped file pages at the end.
REPORT_PEAK = """
with open("/proc/self/status") as fh:
    status = {ln.split(":")[0]: ln.split()[1] for ln in fh if ln.startswith(("VmHWM:", "RssAnon:", "RssFile:"))}
sys.stderr.write("peak_kib=%(VmHWM)s anon_kib=%(RssAnon)s file_kib=%(RssFile)s\\n" % status)
"""

CHILD = """
import sys
from polytoeplitz.cli import main
code = main(sys.argv[1:])
""" + REPORT_PEAK + """
sys.exit(code)
"""

IMPORT_CHILD = """
import sys
from polytoeplitz.cli import build_parser
build_parser()
""" + REPORT_PEAK

# the same with the generator verify makes for itself, so verify is charged for its work alone
IMPORT_RANDOM_CHILD = """
import sys
import numpy.random
from polytoeplitz.cli import build_parser
build_parser()
""" + REPORT_PEAK

# the largest deviation from range_projection goes to err.txt in the working directory
CAUCHY_CHILD = """
import json, sys
import numpy as np
from polytoeplitz.brownhalmos import build_row, cauchy_dual_projection, range_projection
from polytoeplitz.model import FockSpace
from polytoeplitz.weights import spec_from_json
spec = spec_from_json(json.loads(sys.argv[1]))
space = FockSpace(spec, (int(sys.argv[2]),))
P = cauchy_dual_projection(build_row(space, 0))
P -= range_projection(space, 0)
with open("err.txt", "w") as fh:
    fh.write(repr(float(np.abs(P).max())))
""" + REPORT_PEAK


def _multiword(parts):
    return MultiWord(tuple(Word(p, 2) for p in parts))


def _planted_pairs():
    return [(IndexPair(_multiword(left), _multiword(right)), a) for left, right, a in TERMS]


def _planted_matrix(trunc):
    """The planted operator at ``(trunc, trunc)`` as a CSR sum of monomials, built on a space of its own."""
    space = FockSpace(spec_from_json(SPEC), (trunc, trunc))
    total = None
    for pair, a in _planted_pairs():
        term = monomial(space, pair, np.array([[a]])).matrix
        total = term if total is None else total + term
    return total


def _planted_operator(tmp_path, trunc=5):
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    with open(tmp_path / "planted.mtx", "w") as fh:
        linalg.save_matrix(fh, _planted_matrix(trunc))


def _planted_symbol(space):
    return symbol_of(space, {pair: np.array([[a]]) for pair, a in _planted_pairs()})


def _run_child(tmp_path, argv, child=CHILD):
    code, rss = _child_rss(tmp_path, argv, child)
    return code, rss["peak"]


def _child_rss(tmp_path, argv, child=CHILD):
    """The child's exit code and its ``peak``, ``anon`` and ``file`` resident sizes in MB."""
    env = dict(os.environ)
    src = str(Path(polytoeplitz.__file__).resolve().parents[1])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", child, *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    line = [ln for ln in proc.stderr.splitlines() if ln.startswith("peak_kib=")]
    assert line, proc.stderr
    fields = dict(field.split("=") for field in line[0].split())
    return proc.returncode, {key[:-4]: int(kib) / 1024.0 for key, kib in fields.items()}


def test_sparse_operator_checks_stay_below_peak_rss_limit(tmp_path):
    _planted_operator(tmp_path)
    common = ["--spec", "spec.json", "--trunc", "5", "--operator", "planted.mtx"]
    code, toeplitz_mb = _run_child(tmp_path, ["toeplitz", *common, "--out", "out"])
    assert code == 0
    report = json.loads((tmp_path / "out" / "toeplitz-report.json").read_text())
    assert report["report"]["verdict"] and report["symbol_terms"] == len(TERMS)
    code, bh_mb = _run_child(tmp_path, ["brown-halmos", *common])
    assert code == 0
    assert toeplitz_mb < PEAK_RSS_LIMIT_MB, f"toeplitz peak RSS {toeplitz_mb:.0f} MB"
    assert bh_mb < PEAK_RSS_LIMIT_MB, f"brown-halmos peak RSS {bh_mb:.0f} MB"


def test_toeplitz_at_dim_16129_stays_below_peak_rss_limit(tmp_path):
    _planted_operator(tmp_path, trunc=6)
    argv = ["toeplitz", "--spec", "spec.json", "--trunc", "6", "--operator", "planted.mtx", "--out", "out"]
    code, mb = _run_child(tmp_path, argv)
    assert code == 0
    report = json.loads((tmp_path / "out" / "toeplitz-report.json").read_text())
    assert report["report"]["verdict"] and report["symbol_terms"] == len(TERMS)
    assert mb < TOEPLITZ_PEAK_RSS_LIMIT_MB, f"toeplitz --trunc 6 peak RSS {mb:.0f} MB"


def test_classification_and_extraction_build_no_pair_structure():
    space = FockSpace(spec_from_json(SPEC), (5, 5))
    planted = _planted_matrix(5)
    T = FockOperator(space, planted)
    sym = extract_fourier(T, report=is_multi_toeplitz(T))
    assert sym.classes.size == len(TERMS)
    # g1 and g2 in the first factor are not comparable
    row = space.index_of(_multiword(((1,), ())))
    col = space.index_of(_multiword(((2,), ())))
    spoiled = planted + sp.csr_matrix(([1e-3], ([row], [col])), shape=planted.shape)
    assert not is_multi_toeplitz(FockOperator(space, spoiled)).verdict
    assert space._pairs is None


def test_classification_and_structural_equation_hold_few_bytes_per_stored_entry():
    space = FockSpace(spec_from_json(SPEC), (5, 5))
    T = FockOperator(space, _planted_matrix(5))
    calls = [(lambda: is_multi_toeplitz(T), TOEPLITZ_BYTES_PER_ENTRY)]
    calls += [(lambda i=i: bh_residual(T, i), BH_BYTES_PER_ENTRY) for i in range(space.spec.k)]
    for call, limit in calls:
        call()  # the space's degree table is cached outside the trace
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_entry = peak / T.matrix.nnz
        assert per_entry <= limit, f"{per_entry:.1f} bytes per stored entry, limit {limit}"


def test_model_stays_below_peak_rss_limit(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(MODEL_SPEC))
    code, model_mb = _run_child(tmp_path, ["model", "--spec", "spec.json", "--trunc", "10"])
    assert code == 0
    assert model_mb < MODEL_PEAK_RSS_LIMIT_MB, f"model peak RSS {model_mb:.0f} MB"


def test_universal_model_maps_hold_few_bytes_per_basis_vector():
    space = FockSpace(spec_from_json(SPEC), (6, 6))
    space.degree_table()  # built outside the trace
    W = UniversalModel(space)
    tracemalloc.start()
    try:
        D = defect(W, space.spec.m)
        pure, _ = is_pure(W, power_cap=max(space.trunc) + 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pure and D.shape == (space.dim,)
    for name, got, limit in (("held", held, MODEL_HELD_BYTES_PER_VECTOR), ("peak", peak, MODEL_PEAK_BYTES_PER_VECTOR)):
        per_vector = got / space.dim
        assert per_vector <= limit, f"{name}: {per_vector:.1f} bytes per basis vector, limit {limit}"


def test_cauchy_dual_projection_at_dim_2047_stays_below_peak_rss_limit(tmp_path):
    code, mb = _run_child(tmp_path, [json.dumps(MODEL_SPEC), "10"], child=CAUCHY_CHILD)
    assert code == 0
    err = float((tmp_path / "err.txt").read_text())
    assert err <= 1e-9, f"|P - range_projection| = {err:.3e}"
    assert mb < CAUCHY_PEAK_RSS_LIMIT_MB, f"cauchy_dual_projection peak RSS {mb:.0f} MB"


def test_cauchy_dual_eigensolver_calls_stay_within_one_target_vector(monkeypatch):
    # C*C is block diagonal by target vector: no eigensolver call is wider than the row
    spec = spec_from_json(MODEL_SPEC)
    eigh = np.linalg.eigh
    sides = []

    def recording(a, *args, **kwargs):
        sides.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    for trunc in (4, 5, 6):
        space = FockSpace(spec, (trunc,))
        row = build_row(space, 0)
        sides.clear()
        cauchy_dual_projection(row)
        assert sides and max(sides) <= row.shape[1] // row.shape[0], (trunc, sides)


def test_fourier_stays_below_peak_rss_limit(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    sym = _planted_symbol(FockSpace(spec_from_json(SPEC), (5, 5)))
    (tmp_path / "symbol.json").write_text(json.dumps(symbol_to_json(sym)))
    for trunc, limit in (("5", PEAK_RSS_LIMIT_MB), ("6", FOURIER_PEAK_RSS_LIMIT_MB)):
        argv = ["fourier", "--spec", "spec.json", "--trunc", trunc, "--symbol", "symbol.json"]
        code, mb = _run_child(tmp_path, [*argv, "--out", f"out{trunc}"])
        assert code == 0
        report = json.loads((tmp_path / f"out{trunc}" / "fourier-report.json").read_text())
        assert report["terms"] == len(TERMS)
        assert mb < limit, f"fourier --trunc {trunc} peak RSS {mb:.0f} MB"


def test_kernel_psd_stays_below_peak_rss_limit(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(SPEC))
    sym = _planted_symbol(FockSpace(spec_from_json(SPEC), (5, 5)))
    (tmp_path / "symbol.json").write_text(json.dumps(symbol_to_json(sym)))
    argv = ["kernel-psd", "--spec", "spec.json", "--trunc", "5", "--symbol", "symbol.json", "--out", "out"]
    code, mb = _run_child(tmp_path, argv)
    assert code == 0
    assert json.loads((tmp_path / "out" / "kernel-psd-report.json").read_text())["verdicts_agree"]
    assert mb < PEAK_RSS_LIMIT_MB, f"kernel-psd --trunc 5 peak RSS {mb:.0f} MB"


def test_symbol_and_grading_allocate_no_dense_square():
    space = FockSpace(spec_from_json(SPEC), (5, 5))
    sym = _planted_symbol(space)
    T = evaluate_at_model(sym)  # the operator the grading calls read, built outside the trace
    limit = space.dim * space.dim  # one byte per (dim, dim) cell
    calls = [
        lambda: evaluate_at_model(sym, 0.5),
        lambda: homogeneous_decomposition(T),
        lambda: cesaro_reconstruct(T, (2, 2)),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit, f"{peak} bytes traced, limit {limit}"


def _grading_space():
    """The space of the battery's largest grading draw, ``n = 450``."""
    space = FockSpace(spec_from_json(SPEC), (3, 3), coeff_dim=2)
    assert space.total_dim == 450
    return space


def _traced_grading_peak():
    """The bytes one grading-check draw at ``n = 450`` traces, its degree table cached outside the trace."""
    space = _grading_space()
    _grading_gap(space, np.random.default_rng(0))
    tracemalloc.start()
    try:
        worst = _grading_gap(space, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert worst == 0.0
    return peak


def test_grading_check_draw_stays_below_the_per_part_peak():
    # one draw of the battery's grading check, where T and T^* are graded
    peak = _traced_grading_peak()
    assert peak <= GRADING_DRAW_PEAK_BYTES, f"{peak} bytes traced, limit {GRADING_DRAW_PEAK_BYTES}"


def test_grading_check_draw_holds_one_row_block_of_triples():
    # its triples are graded a block of rows at a time
    peak = _traced_grading_peak()
    assert peak <= GRADING_BLOCK_PEAK_BYTES, f"{peak} bytes traced, limit {GRADING_BLOCK_PEAK_BYTES}"


def test_grading_check_draw_holds_one_row_block_of_the_draw():
    # the whole draw is 3.24 MB at n = 450; its normals are read a block of rows at a time
    peak = _traced_grading_peak()
    assert peak <= GRADING_STREAM_PEAK_BYTES, f"{peak} bytes traced, limit {GRADING_STREAM_PEAK_BYTES}"


def test_intertwining_residual_allocates_less_than_a_dense_square():
    spec = spec_from_json(SPEC)
    X = random_pure_tuple(spec, np.random.default_rng(7), dims=(2, 2))
    kernel = berezin_kernel(X, (4, 4))
    limit = kernel.space.dim * kernel.space.dim * 16  # one dense complex (dim, dim) array, 14.1 MiB
    tracemalloc.start()
    try:
        residual = intertwining_residual(kernel, X)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert residual < 1e-9
    assert peak < limit, f"{peak} bytes traced, limit {limit}"


class RecordingGenerator:
    """A generator that keeps a copy of each array of normals it hands out.

    Its copies record into the same list, each draw tagged with the cursor
    that made it: 0 for the generator itself, 1 for a copy of it.
    """

    def __init__(self, rng, draws=None, cursor=0):
        self.rng, self.cursor = rng, cursor
        self.draws = [] if draws is None else draws

    def __deepcopy__(self, memo):
        return RecordingGenerator(copy.deepcopy(self.rng, memo), self.draws, self.cursor + 1)

    def standard_normal(self, size=None, out=None):
        got = self.rng.standard_normal(size, out=out)
        self.draws.append((self.cursor, got.copy()))
        return got


def test_grading_check_draws_its_normals_one_row_block_at_a_time(monkeypatch):
    # the one stream holds the (n, n) real parts, then the imaginary parts: a
    # copy taken at entry reads the real parts a row block at a time, and the
    # generator itself, past the real parts, the imaginary parts; each graded
    # block holds the whole draw's rows, and the generator ends where the
    # whole draw leaves it
    space = _grading_space()
    n = space.total_dim
    blocks = []
    cesaro_entries = cli._cesaro_entries

    def recording_cesaro_entries(T, *args, **kwargs):
        blocks.append((int(T.matrix.keys[0]) // n, T.matrix.vals.reshape(-1, n).copy()))
        return cesaro_entries(T, *args, **kwargs)

    monkeypatch.setattr(cli, "_cesaro_entries", recording_cesaro_entries)
    rng = RecordingGenerator(np.random.default_rng(0))
    assert _grading_gap(space, rng) == 0.0
    assert max(draw.size for _, draw in rng.draws) <= _GRADING_BLOCK_CELLS
    assert all(draw.shape[1] == n for _, draw in rng.draws)
    whole = np.random.default_rng(0)
    re, im = whole.standard_normal((n, n)), whole.standard_normal((n, n))
    shared = np.concatenate([draw for cursor, draw in rng.draws if cursor == 0])
    copied = np.concatenate([draw for cursor, draw in rng.draws if cursor == 1])
    assert {cursor for cursor, _ in rng.draws} == {0, 1}
    assert shared.tobytes() == re.tobytes() + im.tobytes()
    assert copied.tobytes() == re.tobytes()
    height = len(blocks[0][1])
    assert [a for a, _ in blocks] == list(range(0, n, height))
    assert blocks[-1][0] + len(blocks[-1][1]) == n
    for a, rows in blocks:
        assert rows.size <= _GRADING_BLOCK_CELLS
        assert rows.real.tobytes() == re[a : a + len(rows)].tobytes()
        assert rows.imag.tobytes() == im[a : a + len(rows)].tobytes()
    assert rng.rng.standard_normal(4).tobytes() == whole.standard_normal(4).tobytes()


def test_verify_peaks_within_a_few_megabytes_of_the_import(tmp_path):
    # the battery's largest array was its (n, n) grading draw, 3.24 MB at n = 450
    # the anonymous memory is the program's own; file pages grow as the first
    # LAPACK calls map more of the library's code
    code, verify = _child_rss(tmp_path, ["verify", "--seed", "0", "--trunc", "4", "--out", "out"])
    assert code == 0
    code, imported = _child_rss(tmp_path, [], child=IMPORT_RANDOM_CHILD)
    assert code == 0
    assert verify["peak"] - imported["peak"] <= VERIFY_ABOVE_IMPORT_MB, (
        f"verify peak RSS {verify['peak']:.1f} MB, import {imported['peak']:.1f} MB; at the end "
        f"RssAnon {verify['anon']:.2f} against {imported['anon']:.2f} MB, "
        f"RssFile {verify['file']:.2f} against {imported['file']:.2f} MB"
    )


def test_verify_battery_traces_at_most_its_bound():
    # the program's own allocations, which the RSS bound above cannot tell from
    # the library code pages the first LAPACK calls map
    cli._generator(0)  # imports numpy.random, whose modules are not the battery's memory

    tracemalloc.start()
    try:
        report = cli.run_verify_battery(0, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report["passed"]
    assert peak <= VERIFY_TRACED_PEAK_BYTES, f"{peak} bytes traced, limit {VERIFY_TRACED_PEAK_BYTES}"


def test_single_factor_weights_at_trunc_14_peak_within_their_plan_bound(tmp_path):
    (tmp_path / "spec.json").write_text(json.dumps(MODEL_SPEC))
    code, weights_mb = _run_child(tmp_path, ["weights", "--spec", "spec.json", "--trunc", "14", "--out", "out"])
    assert code == 0
    code, import_mb = _run_child(tmp_path, [], child=IMPORT_CHILD)
    assert code == 0
    assert weights_mb - import_mb <= WEIGHTS_ABOVE_IMPORT_MB, (
        f"weights peak RSS {weights_mb:.1f} MB, import {import_mb:.1f} MB"
    )


def test_importing_the_program_stays_below_peak_rss_limit(tmp_path):
    code, mb = _run_child(tmp_path, [], child=IMPORT_CHILD)
    assert code == 0
    assert mb < IMPORT_PEAK_RSS_LIMIT_MB, f"import and parser peak RSS {mb:.0f} MB"

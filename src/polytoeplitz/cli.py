"""Command-line entry point.

Subcommands build weight tables, construct the universal model, run the
verification battery, classify operators, and evaluate symbols.  All reports
are JSON with canonical key order so a fixed seed reproduces byte-identical
output; exit codes are 0 (pass), 1 (verification failure), 2 (input error),
3 (dimension/format error).
"""

from __future__ import annotations

import argparse
import copy
import functools
import json
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from numpy.random import default_rng

from . import linalg
from .brownhalmos import (
    bh_residual,
    bh_scan,
    build_row,
    cauchy_dual_projection,
    range_projection,
)
from .cpmaps import (
    OperatorTuple,
    UniversalModel,
    berezin_kernel,
    berezin_transform,
    defect,
    intertwining_residual,
    is_member,
    is_pure,
    random_pure_tuple,
)
from .errors import (
    DimensionMismatch,
    PolytoeplitzError,
    SpecError,
    TruncationError,
)
from .freemonoid import Word, WordList
from .model import (
    FockOperator,
    FockSpace,
    accumulate_entries,
    weighted_left_creation,
    weighted_right_creation,
)
from .sampling import ones_series_spec, random_spec
from .toeplitz import (
    FourierSymbol,
    _cesaro_entries,
    evaluate_at_model,
    extract_fourier,
    graded_entries,
    is_multi_toeplitz,
    pluriharmonic_kernel,
    random_symbol,
    symbol_from_json,
    symbol_to_json,
)
from .weights import (
    PolydomainSpec,
    WeightTable,
    brute_force_weight,
    build_weight_table,
    compactness_ratios,
    spec_from_json,
    univariate_series_weights,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_FORMAT = 3


# options only some subcommands take; main() gives the others the default
_SHARED = {
    "coeff-dim": {"type": int, "default": 1, "help": "coefficient space dimension"},
    "tol": {"type": float, "default": 1e-9, "help": "verification tolerance"},
    "seed": {"type": int, "default": 0, "help": "RNG seed for sampled checks"},
}


@dataclass
class RunConfig:
    spec_path: Optional[str]
    trunc: tuple[int, ...]
    coeff_dim: int
    tol: float
    seed: int
    out: Optional[Path]

    def __post_init__(self) -> None:
        if any(L < 1 for L in self.trunc):
            raise SpecError("truncation degrees must be >= 1")
        if self.coeff_dim < 1:
            raise SpecError("coefficient dimension must be >= 1")
        if not 0 < self.tol < math.inf:  # NaN included; at inf every check passes
            raise SpecError(f"tolerance must be positive and finite, got {self.tol}")


def _broadcast_trunc(trunc: tuple[int, ...], k: int) -> tuple[int, ...]:
    """One truncation degree per factor; a single degree applies to all ``k``."""
    if len(trunc) == 1:
        return trunc * k
    if len(trunc) != k:
        raise SpecError(f"truncation needs 1 or {k} entries, got {len(trunc)}")
    return trunc


def _load_spec(path: Optional[str]) -> PolydomainSpec:
    if path is None:
        raise SpecError("--spec is required for this command")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from exc
    return spec_from_json(text)


def _space(cfg: RunConfig) -> FockSpace:
    """The space of ``--spec``, ``--trunc`` and ``--coeff-dim``."""
    spec = _load_spec(cfg.spec_path)
    return FockSpace(spec, _broadcast_trunc(cfg.trunc, spec.k), coeff_dim=cfg.coeff_dim)


def _save_matrix(out: Path, name: str, mat: linalg.MatrixLike) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with open(out / name, "w") as fh:
        linalg.save_matrix(fh, mat)


def _finite_json(value):
    """``value`` with each non-finite float replaced by ``"nan"``, ``"inf"`` or ``"-inf"``.

    Strict JSON has no literal for them, so reports carry them as strings.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {key: _finite_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_json(v) for v in value]
    return value


def _emit(report: dict, out: Optional[Path], name: str) -> None:
    text = json.dumps(_finite_json(report), sort_keys=True, indent=2, allow_nan=False) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text)
        sys.stdout.write(f"wrote {out / name}\n")


def _vacuum_residual(delta: np.ndarray) -> float:
    """``max |delta - e_0|``: the universal model's defect diagonal against the vacuum projection's."""
    return float(np.abs(delta - np.eye(1, delta.size)[0]).max())


def _load_operator(space: FockSpace, path: str) -> FockOperator:
    try:
        with open(path) as fh:
            mat = linalg.load_matrix(fh)
    except OSError as exc:
        raise SpecError(f"cannot read operator file {path}: {exc}") from exc
    if mat.shape != (space.total_dim, space.total_dim):
        raise DimensionMismatch(
            f"operator shape {mat.shape} does not match space dimension {space.total_dim}"
        )
    return FockOperator(space, mat)


# -- subcommands ---------------------------------------------------------------


def _oracle_error(table: WeightTable, i: int, w: Word) -> float:
    """Relative error of the table's weight of ``w`` in factor ``i`` against the factorization oracle."""
    ref = brute_force_weight(table.spec, i, w)
    return abs(table.b(i, w) - ref) / max(1.0, abs(ref))


def cmd_weights(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.oracle_degree < 1:  # no word to check would pass vacuously
        raise SpecError(f"--oracle-degree must be >= 1, got {args.oracle_degree}")
    spec = _load_spec(cfg.spec_path)
    trunc = _broadcast_trunc(cfg.trunc, spec.k)
    table = build_weight_table(spec, trunc)
    rng = default_rng(cfg.seed)

    oracle_worst = 0.0
    oracle_count = 0
    for i in range(spec.k):
        words = WordList(spec.n[i], min(trunc[i], args.oracle_degree))
        # the nonempty words are the ranks after the identity's 0, 80 of them drawn when there are more
        ranks = range(1, len(words)) if len(words) <= 81 else rng.choice(len(words) - 1, 80, replace=False) + 1
        for r in ranks:
            oracle_worst = linalg.strict_max(oracle_worst, _oracle_error(table, i, words[int(r)]))
            oracle_count += 1

    series_worst = 0.0
    for i in range(spec.k):
        if spec.n[i] == 1:
            series = univariate_series_weights(spec, i, trunc[i])
            for p in range(trunc[i] + 1):
                got = table.b(i, Word((1,) * p, 1))
                err = abs(got - series[p]) / max(1.0, abs(series[p]))
                series_worst = linalg.strict_max(series_worst, err)

    trend = []
    for i in range(spec.k):
        ratios = compactness_ratios(table, i)
        trend.append(
            {
                "factor": i + 1,
                "sup": ratios["sup"],
                "max_by_degree": {str(d): v for d, v in ratios["max_by_degree"].items()},
            }
        )

    passed = oracle_worst <= cfg.tol and series_worst <= cfg.tol
    report = {
        "command": "weights",
        "seed": cfg.seed,
        "trunc": list(trunc),
        "oracle_checked_words": oracle_count,
        "oracle_worst_relative_error": oracle_worst,
        "series_worst_relative_error": series_worst,
        "ratio_trend": trend,
        "tolerance": cfg.tol,
        "passed": passed,
    }
    _emit(report, cfg.out, "weights-report.json")
    if cfg.out is not None:
        with open(cfg.out / "weights.csv", "w") as fh:
            table.write_csv(fh)
        sys.stdout.write(f"wrote {cfg.out / 'weights.csv'}\n")
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_model(cfg: RunConfig, args: argparse.Namespace) -> int:
    space = _space(cfg)
    spec, trunc = space.spec, space.trunc

    W = UniversalModel(space, side="left")
    defect_residual = _vacuum_residual(defect(W, spec.m))
    pure, pure_report = is_pure(W, power_cap=max(trunc) + 1, tol=cfg.tol)

    if cfg.out is not None:
        for i in range(spec.k):
            for j in range(1, spec.n[i] + 1):
                for tag, op in (
                    ("W", weighted_left_creation(space, i, j)),
                    ("Lambda", weighted_right_creation(space, i, j)),
                ):
                    _save_matrix(cfg.out, f"{tag}_{i + 1}_{j}.mtx", op.matrix)
    passed = defect_residual <= cfg.tol and pure
    report = {
        "command": "model",
        "trunc": list(trunc),
        "coeff_dim": cfg.coeff_dim,
        "fock_dim": space.dim,
        "defect_vs_vacuum_projection": defect_residual,
        "pure": pure,
        "pure_powers": [f["power"] for f in pure_report["factors"]],
        "tolerance": cfg.tol,
        "passed": passed,
    }
    _emit(report, cfg.out, "model-report.json")
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_toeplitz(cfg: RunConfig, args: argparse.Namespace) -> int:
    if not args.drop_tol >= 0.0:
        raise SpecError(f"--drop-tol must be >= 0, got {args.drop_tol}")
    T = _load_operator(_space(cfg), args.operator)
    report = is_multi_toeplitz(T, tol=cfg.tol)
    sys.stdout.write(report.render() + "\n")
    doc = {"command": "toeplitz", "report": report.to_dict()}
    if report.verdict:
        sym = extract_fourier(T, report, drop_tol=args.drop_tol)
        doc["symbol_terms"] = sym.classes.size
        if cfg.out is not None:
            cfg.out.mkdir(parents=True, exist_ok=True)
            (cfg.out / "symbol.json").write_text(
                json.dumps(symbol_to_json(sym), sort_keys=True, indent=2) + "\n"
            )
    _emit(doc, cfg.out, "toeplitz-report.json")
    return EXIT_PASS if report.verdict else EXIT_FAIL


def _load_symbol(space: FockSpace, path: str) -> FourierSymbol:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise SpecError(f"cannot read symbol file {path}: {exc}") from exc
    return symbol_from_json(space, doc)


def cmd_fourier(cfg: RunConfig, args: argparse.Namespace) -> int:
    # the closed unit interval; NaN and inf fail the comparison too
    if not 0.0 <= args.radius <= 1.0:
        raise SpecError(f"--radius must be a finite number in [0, 1], got {args.radius}")
    sym = _load_symbol(_space(cfg), args.symbol)
    op = evaluate_at_model(sym, args.radius)
    report = {
        "command": "fourier",
        "radius": args.radius,
        # the terms with a word beyond the truncation were dropped when parsed
        "terms": sym.classes.size,
        "norm": linalg.op_norm(op.matrix),
        "passed": True,
    }
    if cfg.out is not None:
        _save_matrix(cfg.out, "operator.mtx", op.matrix)
    _emit(report, cfg.out, "fourier-report.json")
    return EXIT_PASS


def _load_tuple(spec: PolydomainSpec, manifest_path: str) -> OperatorTuple:
    try:
        doc = json.loads(Path(manifest_path).read_text())
    except OSError as exc:
        raise SpecError(f"cannot read tuple manifest {manifest_path}: {exc}") from exc
    base = Path(manifest_path).parent
    try:
        dim_h = doc["dim_h"]
        files = doc["files"]
    except (KeyError, TypeError) as exc:
        raise SpecError(f"malformed tuple manifest: {exc}") from exc
    if isinstance(dim_h, bool) or not isinstance(dim_h, int) or dim_h < 1:
        raise SpecError(f"malformed tuple manifest: dim_h must be an integer >= 1, got {dim_h!r}")
    if not (isinstance(files, list) and all(isinstance(r, list) and all(isinstance(f, str) for f in r) for r in files)):
        raise SpecError("malformed tuple manifest: files must be a list of lists of file names")
    if len(files) != spec.k:
        raise DimensionMismatch("manifest must list one file row per factor")
    ops = []
    for i, row in enumerate(files):
        if len(row) != spec.n[i]:
            raise DimensionMismatch(
                f"factor {i + 1} needs {spec.n[i]} operator files, got {len(row)}"
            )
        mats = []
        for fname in row:
            with open(base / fname) as fh:
                mat = linalg.load_matrix(fh)
            if mat.shape != (dim_h, dim_h):
                raise DimensionMismatch(f"{fname}: shape {mat.shape} differs from dim_h {dim_h}")
            mats.append(linalg.as_dense(mat))
        ops.append(tuple(mats))
    return OperatorTuple(spec=spec, ops=tuple(ops), dim_h=dim_h)


def _isometry_excess(gram_dev: np.ndarray, tail_bound: float) -> float:
    """``||K^*K - I|| - max(1e-8, tail_bound)``, given ``gram_dev = K^*K - I``: K is isometric up to its tail where <= 0."""
    return linalg.op_norm(gram_dev) - linalg.strict_max(1e-8, tail_bound)


def cmd_berezin(cfg: RunConfig, args: argparse.Namespace) -> int:
    spec = _load_spec(cfg.spec_path)
    trunc = _broadcast_trunc(cfg.trunc, spec.k)
    X = _load_tuple(spec, args.tuple)
    commutation = X.check_commutation()
    member, witness = is_member(X, tol=cfg.tol)
    pure, pure_report = is_pure(X, tol=cfg.tol)
    report = {
        "command": "berezin",
        "trunc": list(trunc),
        "commutation_defect": commutation,
        "member": member,
        "membership_witness": {"p": list(witness[0]), "min_eig": witness[1]},
        "pure": pure,
        "tolerance": cfg.tol,
    }
    if not member:
        # outside the polydomain the defect has no square root: no kernel
        report["passed"] = False
        _emit(report, cfg.out, "berezin-report.json")
        return EXIT_FAIL
    kernel = berezin_kernel(X, trunc, tol=cfg.tol)
    kernel_norm = kernel.norm()
    residual = intertwining_residual(kernel, X)
    gram_dev = kernel.gram() - np.eye(X.dim_h)
    # K is an isometry only for a pure tuple
    isometric = _isometry_excess(gram_dev, kernel.tail_bound) <= 0.0
    passed = pure and isometric and kernel_norm <= 1.0 + cfg.tol and residual <= max(cfg.tol, 1e-9)
    report.update(
        kernel_norm=kernel_norm,
        gram_vs_identity=float(np.abs(gram_dev).max()),
        tail_bound=kernel.tail_bound,
        phi_power_norms=list(kernel.phi_power_norms),
        intertwining_residual=residual,
        passed=passed,
    )
    if args.operator is not None:
        cspace = FockSpace(spec, trunc, coeff_dim=cfg.coeff_dim, weights=kernel.space.weights)
        T = _load_operator(cspace, args.operator)
        transformed = berezin_transform(T, X, kernel)
        report["transform_norm"] = linalg.op_norm(transformed)
        if cfg.out is not None:
            _save_matrix(cfg.out, "berezin-transform.mtx", transformed)
    _emit(report, cfg.out, "berezin-report.json")
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_brown_halmos(cfg: RunConfig, args: argparse.Namespace) -> int:
    T = _load_operator(_space(cfg), args.operator)
    k = T.space.spec.k
    if args.factor is not None and not 1 <= args.factor <= k:
        raise DimensionMismatch(f"--factor must lie in 1..{k}")
    factors = range(k) if args.factor is None else [args.factor - 1]
    scan = bh_scan(T, tol=cfg.tol, factors=factors)
    scan["factors"] = [i + 1 for i in factors]
    scan["command"] = "brown-halmos"
    _emit(scan, cfg.out, "brown-halmos-report.json")
    return EXIT_PASS if scan["satisfied"] else EXIT_FAIL


def _psd_verdicts(sym: FourierSymbol, r: float, tol: float) -> tuple[tuple[bool, float], tuple[bool, float]]:
    """:func:`linalg.psd_check` of the pluriharmonic kernel of ``sym`` at radius ``r``, and of its model operator there."""
    kernel = linalg.psd_check(pluriharmonic_kernel(sym, r), tol)
    return kernel, linalg.psd_check(evaluate_at_model(sym, r).matrix, tol)


def cmd_kernel_psd(cfg: RunConfig, args: argparse.Namespace) -> int:
    # NaN and inf fail the comparison too
    if not 0.0 <= args.radius < 1.0:
        raise SpecError(f"--radius must be a finite number in [0, 1), got {args.radius}")
    sym = _load_symbol(_space(cfg), args.symbol)
    (kernel_psd, kernel_min), (model_psd, model_min) = _psd_verdicts(sym, args.radius, cfg.tol)
    agree = kernel_psd == model_psd
    report = {
        "command": "kernel-psd",
        "radius": args.radius,
        "kernel_psd": kernel_psd,
        "kernel_min_eig": kernel_min,
        "model_psd": model_psd,
        "model_min_eig": model_min,
        "verdicts_agree": agree,
        "tolerance": cfg.tol,
        "passed": agree,
    }
    _emit(report, cfg.out, "kernel-psd-report.json")
    return EXIT_PASS if agree else EXIT_FAIL


# -- the verification battery ---------------------------------------------------
# Each check draws from the shared generator in battery order and returns its
# entries; its working arrays are freed before the next check starts.


def _check(name: str, worst: float, tol: float, count: int, **extra) -> dict:
    out = {
        "name": name,
        "worst": float(worst),
        "tolerance": float(tol),
        "count": int(count),
        "passed": bool(worst <= tol),
    }
    out.update(extra)
    return out


def _check_weights_oracle(rng: np.random.Generator, trunc_degree: int) -> list[dict]:
    """Weight tables against the factorization oracle."""
    worst = 0.0
    specs_checked = 0
    for _ in range(20):
        spec = random_spec(rng)
        table = build_weight_table(spec, (6,) * spec.k)
        for i in range(spec.k):
            # the words of length 1..5 are the ranks after the identity's 0
            count = len(WordList(spec.n[i], 5)) - 1
            pick = rng.choice(count, size=min(25, count), replace=False)
            for idx in pick:
                worst = linalg.strict_max(worst, _oracle_error(table, i, table.tables[i].words[int(idx) + 1]))
        specs_checked += 1
    return [_check("weights_oracle", worst, 1e-12, specs_checked)]


def _check_ones_series_ratio(rng: np.random.Generator, trunc_degree: int) -> list[dict]:
    """All-ones series ratios: order 1 is exactly 2, higher orders decrease monotonically."""
    worst = 0.0
    observed = {}
    for m in (1, 2, 3):
        table = build_weight_table(ones_series_spec(m, 13), (13,))
        ratios = [
            table.b(0, Word((1,) * (d + 1), 1)) / table.b(0, Word((1,) * d, 1))
            for d in range(13)
        ]
        if m == 1:
            # the constant-2 ratio starts at |alpha| = 1; the vacuum ratio is 1
            worst = linalg.strict_max(worst, *(abs(r - 2.0) for r in ratios[1:]))
        else:
            worst = linalg.strict_max(worst, *(ratios[d + 1] - ratios[d] for d in range(1, 12)))
        observed[str(m)] = ratios[12]
    return [_check("ones_series_ratio", worst, 1e-12, 3, observed_ratio_at_12=observed)]


def _check_defect_identity(rng: np.random.Generator, trunc_degree: int) -> list[dict]:
    """Defect identity on the universal model."""
    worst = 0.0
    for _ in range(4):
        spec = random_spec(rng)
        W = UniversalModel(FockSpace(spec, (trunc_degree,) * spec.k))
        worst = linalg.strict_max(worst, _vacuum_residual(defect(W, spec.m)))
    return [_check("defect_identity", worst, 1e-10, 4)]


def _check_berezin(rng: np.random.Generator, trunc_degree: int) -> list[dict]:
    """Berezin kernel: isometry up to tail, intertwining on safe rows."""
    worst_iso, worst_int = 0.0, 0.0
    for _ in range(6):
        spec = random_spec(rng)
        trunc = (trunc_degree,) * spec.k
        X = random_pure_tuple(spec, rng, dims=(2,) * spec.k, shrink=0.85)
        kernel = berezin_kernel(X, trunc)
        worst_iso = linalg.strict_max(worst_iso, _isometry_excess(kernel.gram() - np.eye(X.dim_h), kernel.tail_bound))
        worst_int = linalg.strict_max(worst_int, intertwining_residual(kernel, X))
    return [
        _check("berezin_isometry_within_tail", worst_iso, 0.0, 6),
        _check("berezin_intertwining", worst_int, 1e-9, 6),
    ]


def _check_toeplitz_roundtrip(rng: np.random.Generator, trunc_degree: int) -> list[dict]:
    """Toeplitz roundtrip and injected-violation detection."""
    worst = 0.0
    detected = True
    last_flagged = None
    for t in range(8):
        spec = random_spec(rng, max_deg=2)
        trunc = tuple(min(trunc_degree, 3 if spec.k == 2 else trunc_degree) for _ in range(spec.k))
        space = FockSpace(spec, trunc, coeff_dim=int(rng.integers(1, 3)))
        sym = random_symbol(space, rng, n_monomials=6)
        T = evaluate_at_model(sym)
        report = is_multi_toeplitz(T, tol=1e-10)
        worst = linalg.strict_max(worst, report.max_violation)
        back = extract_fourier(T, report)
        # a class missing from the extracted symbol reads as a zero block
        pos, hit = linalg.lookup(back.classes, sym.classes)
        got = np.zeros_like(sym.coeffs)
        got[hit] = back.coeffs[pos[hit]]
        worst = linalg.strict_max(worst, *np.abs(got - sym.coeffs).max(axis=(1, 2)).tolist())
        d = space.dim
        # the non-comparable pairs: every pair outside the members of all classes
        bad = np.ones(d * d, dtype=bool)
        bad[space.class_members(np.arange(space.n_classes))] = False
        bad = np.flatnonzero(bad)
        if len(bad):
            row, col = divmod(int(bad[rng.integers(len(bad))]), d)
            spoiled = is_multi_toeplitz(_spoiled(T, row, col), tol=1e-10)
            detected = detected and not spoiled.verdict
            if spoiled.worst_pair is not None:
                last_flagged = [w.render() for w in spoiled.worst_pair]
    flagged = 0.0 if detected else 1.0
    return [
        _check("toeplitz_roundtrip", worst, 1e-10, 8),
        _check("toeplitz_violation_detected", flagged, 0.0, 8, flagged_pair=last_flagged),
    ]


def _spoiled(T: FockOperator, row: int, col: int) -> FockOperator:
    """``T`` plus ``1e-3`` at ``(row, col)``, summed from zero; as in scipy's sparse sum, an entry summing to zero goes."""
    spoil = (np.array([row * T.matrix.shape[1] + col]), np.array([1e-3 + 0j]))
    keys, vals = accumulate_entries([(T.matrix.keys, T.matrix.vals), spoil])
    kept = vals != 0
    return FockOperator(T.space, linalg.Entries(keys[kept], vals[kept], T.matrix.shape))


# cells of the draw the grading check grades at a time: one block of whole rows
_GRADING_BLOCK_CELLS = 2**14


def _stored_block(B: np.ndarray, row: int, col: int, n: int) -> linalg.Entries:
    """The ``(n, n)`` matrix storing every entry of the C-ordered ``B`` with its corner at ``(row, col)``, sharing its memory."""
    h, w = B.shape
    keys = (np.arange(row, row + h)[:, None] * n + np.arange(col, col + w)).ravel()
    return linalg.Entries(keys, B.reshape(-1), (n, n))


def _residual_max(M: np.ndarray, keys: np.ndarray, vals: np.ndarray) -> float:
    """Largest entry of ``|M - E|``, where ``E`` has ``vals`` at the distinct row-major ``keys``."""
    if keys.size == M.size:
        # distinct keys at every cell: the residual is the gathered difference
        return float(np.abs(M.reshape(-1)[keys] - vals).max())
    residual = M.copy()
    residual.reshape(-1)[keys] -= vals
    return float(np.abs(residual).max())


def _grading_gap(space: FockSpace, rng: np.random.Generator) -> float:
    """Largest deviation of one dense draw on ``space`` from the three grading identities.

    The windowed reconstruction and the homogeneous parts each sum to the
    draw ``T``, and the degree ``-s`` part of ``T^*``, adjoined, is the degree
    ``s`` part of ``T``.  The parts are read as :func:`graded_entries` runs;
    the adjoint identity merges the two triples on one sorted key, ``code *
    n**2 + key``, reading a missing entry as 0.  All three are entry-local,
    so they are checked on one block of rows ``[a, b)`` of ``T`` at a time,
    about ``_GRADING_BLOCK_CELLS`` cells, against its adjoint, the columns
    ``[a, b)`` of ``T^*``; every entry meets the same arithmetic as in one
    block.

    The draw is ``standard_normal((n, n)) + 1j * standard_normal((n, n))``:
    ``rng``'s one stream holds every real part, in C order, before the
    imaginary parts.  It is read through two cursors, so that no more than a
    block of it is held: a copy of ``rng`` taken at entry yields the real
    parts a block at a time, and ``rng`` itself, once moved past the ``n**2``
    real normals, the imaginary parts.  ``rng`` ends where the whole draw
    leaves it.
    """
    n = space.total_dim
    height = max(1, _GRADING_BLOCK_CELLS // n)
    real = copy.deepcopy(rng)
    part = np.empty((height, n))
    for a in range(0, n, height):
        rng.standard_normal(out=part[: min(height, n - a)])
    # entry (r, c, v) of the degree -s part of T* is entry (c, r, conj v) of the
    # degree s part of T, and code(-s) = n_codes - 1 - code(s)
    n_codes = int(np.prod([2 * L + 1 for L in space.trunc]))
    worst = 0.0
    block = np.empty((height, n), dtype=complex)
    for a in range(0, n, height):
        rows = block[: min(height, n - a)]
        rows.real = real.standard_normal(out=part[: len(rows)])
        rows.imag = rng.standard_normal(out=part[: len(rows)])
        T = FockOperator(space, _stored_block(rows, a, 0, n))
        keys, vals = _cesaro_entries(T, tuple(2 * L for L in space.trunc), fejer_weights=False)
        worst = linalg.strict_max(worst, _residual_max(rows, keys - a * n, vals))
        keys, vals, present, bounds = graded_entries(T)
        del T
        worst = linalg.strict_max(worst, _residual_max(rows, keys - a * n, vals))
        # the codes are ascending and each run's keys too: the merged keys are sorted
        keys += np.repeat(present * n * n, np.diff(bounds))
        adjoint = np.conjugate(rows.T, order="C")
        adj_keys, adj_vals, present, bounds = graded_entries(FockOperator(space, _stored_block(adjoint, 0, a, n)))
        del adjoint
        adj_rows, adj_cols = np.divmod(adj_keys, n)
        del adj_keys
        flipped = np.repeat((n_codes - 1 - present) * n * n, np.diff(bounds)) + adj_cols * n + adj_rows
        del adj_rows, adj_cols
        order = np.argsort(flipped)
        adj_keys = flipped[order]
        del flipped
        adj_vals = adj_vals[order]
        del order
        if np.array_equal(keys, adj_keys):
            np.conjugate(adj_vals, out=adj_vals)
            adj_vals -= vals
            gap = np.abs(adj_vals).max(initial=0.0)
        else:
            gap = np.abs(accumulate_entries([(keys, vals), (adj_keys, -adj_vals.conj())])[1]).max(initial=0.0)
        worst = linalg.strict_max(worst, float(gap))
    return worst


def _check_homogeneous_decomposition(rng: np.random.Generator, trunc_degree: int) -> list[dict]:
    """Homogeneous decomposition, windowed reconstruction, adjoint grading."""
    worst = 0.0
    for _ in range(4):
        spec = random_spec(rng)
        space = FockSpace(spec, (3,) * spec.k, coeff_dim=2)
        worst = linalg.strict_max(worst, _grading_gap(space, rng))
    return [_check("homogeneous_decomposition", worst, 1e-12, 4)]


def _check_radial_monotonicity(rng: np.random.Generator, trunc_degree: int) -> list[dict]:
    """Radial norm monotonicity."""
    worst = 0.0
    for _ in range(6):
        spec = random_spec(rng)
        space = FockSpace(spec, (3,) * spec.k, coeff_dim=1)
        sym = random_symbol(space, rng, n_monomials=5)
        radii = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0]
        norms = [linalg.op_norm(evaluate_at_model(sym, r).matrix) for r in radii]
        for a, b in zip(norms, norms[1:]):
            worst = linalg.strict_max(worst, a - b)
    return [_check("radial_monotonicity", worst, 1e-10, 6)]


def _check_kernel_psd_equivalence(rng: np.random.Generator, trunc_degree: int) -> list[dict]:
    """Kernel and model positivity verdicts agree."""
    agree = True
    for _ in range(8):
        spec = random_spec(rng)
        space = FockSpace(spec, (3,) * spec.k, coeff_dim=int(rng.integers(1, 3)))
        sym = random_symbol(space, rng, n_monomials=5, hermitian=True)
        for r in (0.3, 0.7):
            (v1, _), (v2, _) = _psd_verdicts(sym, r, 1e-9)
            agree = agree and (v1 == v2)
    return [_check("kernel_psd_equivalence", 0.0 if agree else 1.0, 0.0, 16)]


def _check_brown_halmos_residual(rng: np.random.Generator, trunc_degree: int) -> list[dict]:
    """Structural equation residuals for random multi-Toeplitz operators."""
    worst = 0.0
    for _ in range(6):
        spec = random_spec(rng)
        trunc = tuple(min(trunc_degree, 3 if spec.k == 2 else trunc_degree) for _ in range(spec.k))
        space = FockSpace(spec, trunc, coeff_dim=int(rng.integers(1, 3)))
        sym = random_symbol(space, rng, n_monomials=6)
        T = evaluate_at_model(sym)
        for i in range(spec.k):
            worst = linalg.strict_max(worst, bh_residual(T, i))
    return [_check("brown_halmos_residual", worst, 1e-9, 6)]


def _check_cauchy_dual(rng: np.random.Generator, trunc_degree: int) -> list[dict]:
    """Cauchy dual projection identities at small size."""
    worst_p, worst_q = 0.0, 0.0
    for _ in range(3):
        spec = random_spec(rng, k=1)
        space = FockSpace(spec, (trunc_degree,))
        P = cauchy_dual_projection(build_row(space, 0))
        worst_p = linalg.strict_max(worst_p, float(np.abs(P @ P - P).max()))
        worst_p = linalg.strict_max(worst_p, float(np.abs(P - P.conj().T).max()))
        worst_q = linalg.strict_max(worst_q, float(np.abs(P - range_projection(space, 0)).max()))
    return [
        _check("cauchy_dual_idempotent", worst_p, 1e-10, 3),
        _check("cauchy_dual_range", worst_q, 1e-9, 3),
    ]


# battery order fixes the draws from the shared generator
_BATTERY = (
    _check_weights_oracle,
    _check_ones_series_ratio,
    _check_defect_identity,
    _check_berezin,
    _check_toeplitz_roundtrip,
    _check_homogeneous_decomposition,
    _check_radial_monotonicity,
    _check_kernel_psd_equivalence,
    _check_brown_halmos_residual,
    _check_cauchy_dual,
)


def run_verify_battery(seed: int, trunc_degree: int = 4) -> dict:
    """The default property battery; deterministic for a fixed seed.

    Each check carries its own fixed tolerance; the top-level ``tolerance``
    is the default of the other subcommands' ``--tol``, kept in the report.
    A check that raises fails by name with what it raised (traceback to stderr)
    and the others still run; a ``MemoryError`` is no verdict (exit 3).
    """
    rng = default_rng(seed)
    checks = []
    for run in _BATTERY:
        try:
            checks += run(rng, trunc_degree)
        except MemoryError:
            raise
        except Exception as exc:
            traceback.print_exc()
            name = run.__name__.removeprefix("_check_")
            checks.append({"name": name, "passed": False, "error": f"{type(exc).__name__}: {exc}"})
    checks.sort(key=lambda c: c["name"])
    return {
        "command": "verify",
        "seed": seed,
        "trunc_degree": trunc_degree,
        "tolerance": 1e-9,
        "checks": checks,
        "passed": all(c["passed"] for c in checks),
    }


def cmd_verify(cfg: RunConfig, args: argparse.Namespace) -> int:
    if len(cfg.trunc) != 1:
        raise SpecError(f"verify takes one truncation degree, got {len(cfg.trunc)}")
    report = run_verify_battery(cfg.seed, trunc_degree=cfg.trunc[0])
    _emit(report, cfg.out, "verify-report.json")
    return EXIT_PASS if report["passed"] else EXIT_FAIL


# -- argument plumbing ----------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every :func:`main` call."""
    parser = argparse.ArgumentParser(
        prog="polytoeplitz",
        description="Operator models of regular polydomains and multi-Toeplitz verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *shared: str, needs_spec: bool = True) -> None:
        """``--trunc``, ``--out`` and the ``_SHARED`` options the subcommand reads."""
        if needs_spec:
            p.add_argument("--spec", required=True, help="polydomain spec JSON file")
        p.add_argument("--trunc", default="4", help="truncation degrees, e.g. '4' or '4,3'")
        for name in shared:
            p.add_argument(f"--{name}", **_SHARED[name])
        p.add_argument("--out", default=None, help="output directory (stdout if omitted)")

    p = sub.add_parser("weights", help="build weight tables, oracle cross-check, ratio trend")
    common(p, "tol", "seed")
    p.add_argument("--oracle-degree", type=int, default=6, help="max degree for oracle checks")

    p = sub.add_parser("model", help="construct the universal model and check its defect")
    common(p, "coeff-dim", "tol")

    p = sub.add_parser("verify", help="run the full property battery")
    common(p, "seed", needs_spec=False)

    p = sub.add_parser("toeplitz", help="classify an operator file and extract its symbol")
    common(p, "coeff-dim", "tol")
    p.add_argument("--operator", required=True, help="operator in coordinate matrix format")
    p.add_argument("--drop-tol", type=float, default=0.0, help="drop coefficients at/below this")

    p = sub.add_parser("fourier", help="evaluate a symbol file radially at the model")
    common(p, "coeff-dim")
    p.add_argument("--symbol", required=True, help="symbol JSON file")
    p.add_argument("--radius", type=float, default=1.0)

    p = sub.add_parser("berezin", help="kernel checks for an operator tuple manifest")
    common(p, "coeff-dim", "tol")
    p.add_argument("--tuple", required=True, help="tuple manifest JSON")
    p.add_argument("--operator", default=None, help="optional operator to transform")

    p = sub.add_parser("brown-halmos", help="structural-equation residuals of an operator")
    common(p, "coeff-dim", "tol")
    p.add_argument("--operator", required=True)
    p.add_argument("--factor", type=int, default=None, help="1-based factor selector")

    p = sub.add_parser("kernel-psd", help="compare kernel and model positivity of a symbol")
    common(p, "coeff-dim", "tol")
    p.add_argument("--symbol", required=True)
    p.add_argument("--radius", type=float, default=0.5)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    shared = {
        name: getattr(args, name.replace("-", "_"), option["default"])
        for name, option in _SHARED.items()
    }
    try:
        cfg = RunConfig(
            spec_path=getattr(args, "spec", None),
            trunc=tuple(int(x) for x in str(args.trunc).split(",")),
            coeff_dim=shared["coeff-dim"],
            tol=shared["tol"],
            seed=shared["seed"],
            out=Path(args.out) if args.out else None,
        )
        # looked up on each call, so the shared parser holds no command function
        command = globals()["cmd_" + args.command.replace("-", "_")]
        return command(cfg, args)
    except (DimensionMismatch, TruncationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_FORMAT
    except MemoryError as exc:
        # exit 1 would read as a failed verification
        sys.stderr.write(f"error: out of memory: {' '.join(str(exc).split())}\n")
        return EXIT_FORMAT
    except (PolytoeplitzError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

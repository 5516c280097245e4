"""Acceptance criteria, one test (or tightly scoped group) per criterion.

Each test prints a PASS line on success; a failing assert carries the
measured value.  Criterion 2's approach band at degree 12 is asserted exactly
as stated even though the closed-form ratios sit outside it; see
notes/decisions.md at the repository root for the analysis.
"""

import itertools
import math
import time

import numpy as np
import pytest

from polytoeplitz import linalg
from polytoeplitz.brownhalmos import (
    bh_residual,
    build_row,
    cauchy_dual_projection,
    range_projection,
)
from polytoeplitz.cli import main
from polytoeplitz.cpmaps import (
    UniversalModel,
    berezin_kernel,
    intertwining_residual,
    random_pure_tuple,
    defect,
)
from polytoeplitz.freemonoid import Word
from polytoeplitz.model import FockOperator, FockSpace, scalar_kernel, truncated_gram_kernel
from polytoeplitz.sampling import ones_series_spec, random_spec
from polytoeplitz.toeplitz import (
    cesaro_reconstruct,
    evaluate_at_model,
    extract_fourier,
    is_multi_toeplitz,
    pluriharmonic_kernel,
    random_symbol,
)
from polytoeplitz.weights import brute_force_weight, build_weight_table, univariate_series_weights

from oracles import homogeneous_decomposition, phi_right

SEED = 1234


def report(n, detail):
    print(f"ACCEPTANCE {n}: PASS ({detail})")


def test_criterion_01_weight_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    started = time.monotonic()
    worst_oracle = 0.0
    worst_series = 0.0
    for _ in range(200):
        spec = random_spec(rng)
        trunc = (8,) * spec.k
        table = build_weight_table(spec, trunc)
        for i in range(spec.k):
            words = [w for w in table.tables[i] if len(w) > 0]
            low = [w for w in words if len(w) <= 3]
            high = [w for w in words if len(w) > 3]
            sample = low + [
                high[int(j)] for j in rng.choice(len(high), size=min(12, len(high)), replace=False)
            ]
            for w in sample:
                ref = brute_force_weight(spec, i, w)
                worst_oracle = max(
                    worst_oracle, abs(table.b(i, w) - ref) / max(1.0, abs(ref))
                )
            if spec.n[i] == 1:
                series = univariate_series_weights(spec, i, 8)
                for p in range(9):
                    got = table.b(i, Word((1,) * p, 1))
                    worst_series = max(
                        worst_series, abs(got - series[p]) / max(1.0, abs(series[p]))
                    )
    elapsed = time.monotonic() - started
    assert worst_oracle <= 1e-12, f"factorization oracle deviation {worst_oracle:.3e}"
    assert worst_series <= 1e-12, f"series oracle deviation {worst_series:.3e}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    report(1, f"200 specs, oracle dev {worst_oracle:.1e}, series dev {worst_series:.1e}, {elapsed:.1f}s")


def _ones_ratios(m, top=13):
    table = build_weight_table(ones_series_spec(m, top), (top,))
    return [
        table.b(0, Word((1,) * (d + 1), 1)) / table.b(0, Word((1,) * d, 1))
        for d in range(top)
    ]


def test_criterion_02_ones_ratio_order_one_exact():
    ratios = _ones_ratios(1)
    worst = max(abs(r - 2.0) for r in ratios[1:13])
    assert worst <= 1e-12, f"order-1 ratio deviates from 2 by {worst:.3e}"
    report(2, f"m=1 ratio exactly 2 for degrees 1..12 (dev {worst:.1e})")


def test_criterion_02_ones_ratio_monotone():
    for m in (2, 3):
        ratios = _ones_ratios(m)
        for d in range(1, 12):
            assert ratios[d + 1] <= ratios[d] + 1e-12, (m, d, ratios[d : d + 2])
    report(2, "m=2,3 degree ratios monotone (tol 1e-12)")


def test_criterion_02_ones_ratio_band_at_degree_12():
    # Stated band: |ratio(12) - 2| <= 0.1 for m = 2, 3.  The exact values are
    # 2*(12+4)/(12+3) and 2*(12+3)*(12+8)/((12+2)*(12+7)), i.e. deviations
    # 2/15 = 0.133... and 0.2556...; the assert below records the criterion
    # as stated.  See the decisions ledger for the blocking analysis.
    observed = {}
    for m in (2, 3):
        ratios = _ones_ratios(m)
        observed[m] = ratios[12]
    closed_forms = {2: 2 * 16 / 15, 3: 2 * 15 * 20 / (14 * 19)}
    for m in (2, 3):
        assert observed[m] == pytest.approx(closed_forms[m], rel=1e-12)
    deviations = {m: abs(observed[m] - 2.0) for m in (2, 3)}
    print(f"observed ratio(12): {observed}, deviations from 2: {deviations}")
    for m in (2, 3):
        assert deviations[m] <= 0.1, (
            f"m={m}: |ratio(12) - 2| = {deviations[m]:.6f} > 0.1; the exact "
            f"closed form makes the stated band unattainable at degree 12 "
            f"(it is reached near degree {17 if m == 2 else 35})"
        )
    report(2, f"band at degree 12: {deviations}")


def test_criterion_03_defect_identity():
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for trial in range(20):
        k = 1 if trial % 2 == 0 else 2
        spec = random_spec(rng, k=k)
        trunc = (5,) if k == 1 else (4, 4)
        space = FockSpace(spec, trunc)
        W = UniversalModel(space)
        # the defect's diagonal against the vacuum projection's, e_0
        vac = np.zeros(space.dim)
        vac[0] = 1.0
        dev = float(np.abs(defect(W, spec.m) - vac).max())
        worst = max(worst, dev)
    assert worst <= 1e-10, f"defect identity deviation {worst:.3e}"
    report(3, f"20 specs, worst deviation {worst:.1e}")


def test_criterion_04_berezin_kernel():
    rng = np.random.default_rng(SEED + 4)
    worst_excess = 0.0
    worst_inter = 0.0
    worst_norm = 0.0
    for trial in range(50):
        k = 1 if trial % 2 == 0 else 2
        spec = random_spec(rng, k=k)
        if k == 1:
            dims = (int(rng.integers(2, 7)),)
        else:
            dims = (2, int(rng.integers(2, 4)))
        trunc = (4,) * k
        X = random_pure_tuple(spec, rng, dims=dims, shrink=0.85)
        kernel = berezin_kernel(X, trunc)
        dev = linalg.op_norm(kernel.gram() - np.eye(X.dim_h))
        allowance = max(1e-8, kernel.tail_bound)
        worst_excess = max(worst_excess, dev - allowance)
        worst_norm = max(worst_norm, kernel.norm())
        worst_inter = max(worst_inter, intertwining_residual(kernel, X))
    assert worst_excess <= 0.0, f"isometry defect exceeded tail bound by {worst_excess:.3e}"
    assert worst_norm <= 1.0 + 1e-9, f"kernel norm {worst_norm:.12f} exceeds 1"
    assert worst_inter <= 1e-9, f"intertwining residual {worst_inter:.3e}"
    report(
        4,
        f"50 tuples, intertwining {worst_inter:.1e}, contraction ({worst_norm:.6f}), "
        f"isometry within tail",
    )


def _toeplitz_test_space(rng, coeff_max=2):
    k = int(rng.integers(1, 3))
    spec = random_spec(rng, k=k)
    if k == 1:
        trunc = (4,)
    else:
        trunc = tuple(3 if max(spec.n) == 2 else 4 for _ in range(k))
    c = int(rng.integers(1, coeff_max + 1))
    return FockSpace(spec, trunc, coeff_dim=c)


def test_criterion_05_toeplitz_round_trip():
    rng = np.random.default_rng(SEED + 5)
    worst_coeff = 0.0
    worst_violation = 0.0
    detections = 0
    spaces = [_toeplitz_test_space(rng) for _ in range(20)]
    for trial in range(100):
        space = spaces[trial % len(spaces)]
        sym = random_symbol(space, rng, n_monomials=int(rng.integers(1, 11)))
        T = evaluate_at_model(sym)
        rep = is_multi_toeplitz(T, tol=1e-10)
        assert rep.verdict, rep.to_dict()
        worst_violation = max(worst_violation, rep.max_violation)
        back = extract_fourier(T, rep)
        a_at, b_at = (dict(zip(s.classes.tolist(), s.coeffs)) for s in (sym, back))
        c = space.coeff_dim
        for key in set(a_at) | set(b_at):
            a = a_at.get(key, np.zeros((c, c)))
            b = b_at.get(key, np.zeros((c, c)))
            worst_coeff = max(worst_coeff, float(np.abs(a - b).max()))
        ps = space.pair_structure()
        bad = np.argwhere(~ps.comp)
        if len(bad):
            row, col = (int(x) for x in bad[rng.integers(len(bad))])
            M = T.dense.copy()
            M[row, col] += 1e-3
            spoiled = is_multi_toeplitz(FockOperator(space, M), tol=1e-10)
            assert not spoiled.verdict
            detections += 1
    assert worst_coeff <= 1e-12, f"coefficient recovery error {worst_coeff:.3e}"
    assert worst_violation <= 1e-10, f"toeplitz violation {worst_violation:.3e}"
    assert detections > 0
    report(
        5,
        f"100 symbols, recovery {worst_coeff:.1e}, violation {worst_violation:.1e}, "
        f"{detections} injected defects detected",
    )


def test_criterion_06_homogeneous_decomposition():
    rng = np.random.default_rng(SEED + 6)
    worst_sum = 0.0
    worst_adj = 0.0
    worst_recon = 0.0
    fejer_gap = 0.0
    for _ in range(10):
        k = int(rng.integers(1, 3))
        spec = random_spec(rng, k=k)
        trunc = (3,) * k
        space = FockSpace(spec, trunc, coeff_dim=int(rng.integers(1, 3)))
        n = space.total_dim
        T = FockOperator(space, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        total = np.zeros((n, n), dtype=complex)
        parts, adjoint_parts = homogeneous_decomposition(T), homogeneous_decomposition(T.adjoint())
        zero = FockOperator(space, np.zeros((n, n), dtype=complex))
        for s in itertools.product(*(range(-L, L + 1) for L in trunc)):
            # an absent degree vector has the zero part
            part = parts.get(s, zero)
            total += part.dense
            adj = adjoint_parts.get(tuple(-x for x in s), zero).adjoint()
            worst_adj = max(worst_adj, float(np.abs(part.dense - adj.dense).max()))
        worst_sum = max(worst_sum, float(np.abs(total - T.dense).max()))
        N = tuple(2 * L for L in trunc)
        recon = cesaro_reconstruct(T, N, fejer_weights=False)
        worst_recon = max(worst_recon, float(np.abs(recon.dense - T.dense).max()))
        fejer = cesaro_reconstruct(T, N, fejer_weights=True)
        fejer_gap = max(fejer_gap, float(np.abs(fejer.dense - T.dense).max()))
    assert worst_sum == 0.0, f"homogeneous parts sum deviation {worst_sum:.3e}"
    assert worst_adj == 0.0, f"adjoint grading deviation {worst_adj:.3e}"
    assert worst_recon == 0.0, f"cutoff reconstruction deviation {worst_recon:.3e}"
    print(f"informational: smoothed-window gap at N=2L is {fejer_gap:.3e} (never exact)")
    report(6, "sum/adjoint/windowed reconstruction exact at N = 2L")


def test_criterion_07_radial_monotonicity():
    rng = np.random.default_rng(SEED + 7)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 3))
        spec = random_spec(rng, k=k)
        trunc = (4,) if k == 1 else (3,) * k
        space = FockSpace(spec, trunc, coeff_dim=1)
        sym = random_symbol(space, rng, n_monomials=int(rng.integers(2, 8)))
        radii = [0.0, 0.2, 0.45, 0.7, 0.9, 1.0]
        norms = [linalg.op_norm(evaluate_at_model(sym, r).matrix) for r in radii]
        for a, b in zip(norms, norms[1:]):
            worst = max(worst, a - b)
    assert worst <= 1e-10, f"norm decreased along the radius by {worst:.3e}"
    report(7, f"50 symbols, worst monotonicity defect {worst:.1e}")


def test_criterion_08_schur_type_equivalence():
    rng = np.random.default_rng(SEED + 8)
    agreements = 0
    verdicts = {True: 0, False: 0}
    for _ in range(50):
        k = int(rng.integers(1, 3))
        spec = random_spec(rng, k=k)
        trunc = (3,) * k if k == 2 else (4,)
        space = FockSpace(spec, trunc, coeff_dim=int(rng.integers(1, 3)))
        sym = random_symbol(space, rng, n_monomials=5, hermitian=True)
        for r in (0.3, 0.7):
            v_kernel, _ = linalg.psd_check(pluriharmonic_kernel(sym, r), 1e-9)
            v_model, _ = linalg.psd_check(evaluate_at_model(sym, r).dense, 1e-9)
            assert v_kernel == v_model
            agreements += 1
            verdicts[v_kernel] += 1
    report(8, f"{agreements} comparisons agree (PSD {verdicts[True]}, non-PSD {verdicts[False]})")


def test_criterion_09_brown_halmos():
    rng = np.random.default_rng(SEED + 9)
    worst = 0.0
    spaces = []
    for _ in range(20):
        k = int(rng.integers(1, 3))
        spec = random_spec(rng, k=k)
        trunc = (4,) * k
        spaces.append(FockSpace(spec, trunc, coeff_dim=int(rng.integers(1, 3))))
    for trial in range(100):
        space = spaces[trial % len(spaces)]
        sym = random_symbol(space, rng, n_monomials=int(rng.integers(1, 9)))
        T = evaluate_at_model(sym)
        for i in range(space.spec.k):
            worst = max(worst, bh_residual(T, i))
    assert worst <= 1e-9, f"structural-equation residual {worst:.3e}"

    worst_proj = 0.0
    worst_idem = 0.0
    worst_dual = 0.0
    for _ in range(8):
        spec = random_spec(rng, k=1)
        space = FockSpace(spec, (5,) if max(spec.n) == 1 else (4,))
        row = build_row(space, 0)
        P = cauchy_dual_projection(row)
        worst_idem = max(worst_idem, float(np.abs(P @ P - P).max()))
        worst_proj = max(worst_proj, float(np.abs(P - range_projection(space, 0)).max()))
        # dual identity against the alternating-sum form
        C = linalg.as_dense(row)
        gram = C.conj().T @ C
        pinv = linalg.as_dense(linalg.pinv_on_range(gram, 1e-10))
        m = spec.m[0]
        psi = np.zeros((space.total_dim, space.total_dim), dtype=complex)
        acc = np.eye(space.total_dim, dtype=complex)
        for j in range(m):
            if j > 0:
                acc = phi_right(space, 0, acc).toarray()
            psi += ((-1) ** j) * math.comb(m, j + 1) * acc
        lhs = C @ pinv
        rhs = C @ np.kron(np.eye(row.shape[1] // row.shape[0]), psi) @ (pinv @ gram)
        worst_dual = max(worst_dual, float(np.abs(lhs - rhs).max()))
    assert worst_proj <= 1e-9, f"range-projection identity deviation {worst_proj:.3e}"
    assert worst_dual <= 1e-9, f"dual identity deviation {worst_dual:.3e}"
    assert worst_idem <= 1e-10, f"projection idempotency deviation {worst_idem:.3e}"
    report(
        9,
        f"100 operators, residual {worst:.1e}; projection {worst_proj:.1e}, "
        f"dual identity {worst_dual:.1e}, idempotency {worst_idem:.1e}",
    )


def test_criterion_10_scalar_kernel():
    rng = np.random.default_rng(SEED + 10)
    checked = 0
    worst_bound = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 3))
        spec = random_spec(rng, k=k, max_n=1, max_deg=3)
        # largest radius with the factor series strictly below one
        radii = []
        for i in range(k):
            lo, hi = 0.0, 1.0
            while sum(a * hi ** (2 * len(w)) for w, a in spec.coeffs[i].items()) < 1.0:
                lo, hi = hi, hi * 2.0
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if sum(a * mid ** (2 * len(w)) for w, a in spec.coeffs[i].items()) < 1.0:
                    lo = mid
                else:
                    hi = mid
            radii.append(lo)
        scale = 0.8
        while True:
            z = tuple(
                scale * radii[i] * rng.random() * np.exp(2j * np.pi * rng.random())
                for i in range(k)
            )
            w = tuple(
                scale * radii[i] * rng.random() * np.exp(2j * np.pi * rng.random())
                for i in range(k)
            )
            value, bound = truncated_gram_kernel(spec, None, z, w, (30,) * k)
            if bound <= 1e-6:
                break
            scale *= 0.9
        closed = scalar_kernel(spec, None, z, w)
        # the analytic bound can sit far below double round-off; allow for the
        # evaluation error of the two expressions themselves
        slack = 1e-13 * (1.0 + abs(closed))
        assert abs(closed - value) <= bound + slack, (abs(closed - value), bound)
        worst_bound = max(worst_bound, bound)
        checked += 1
    assert checked == 20
    assert worst_bound <= 1e-6
    report(10, f"20 points, all within tail bound (worst bound {worst_bound:.1e})")


def test_criterion_11_determinism(tmp_path):
    rc1 = main(["verify", "--seed", "42", "--out", str(tmp_path / "a")])
    rc2 = main(["verify", "--seed", "42", "--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    a = (tmp_path / "a" / "verify-report.json").read_bytes()
    b = (tmp_path / "b" / "verify-report.json").read_bytes()
    assert a == b, "verify reports differ between identically seeded runs"
    report(11, f"byte-identical verify reports ({len(a)} bytes)")

import numpy as np
import pytest
import scipy.sparse as sp

from polytoeplitz import linalg
from polytoeplitz.errors import SpecError
from polytoeplitz.freemonoid import IndexPair, MultiWord, Word
from polytoeplitz.linalg import op_norm, psd_check
from polytoeplitz.model import FockOperator, FockSpace, monomial
from polytoeplitz.sampling import random_spec
from polytoeplitz.weights import PolydomainSpec
from polytoeplitz.toeplitz import (
    FourierSymbol,
    NotMultiToeplitz,
    cesaro_reconstruct,
    evaluate_at_model,
    evaluate_at_tuple,
    extract_fourier,
    is_multi_toeplitz,
    pluriharmonic_kernel,
    random_symbol,
    symbol_from_json,
    symbol_to_json,
)

from conftest import fock_identity
from oracles import degree_vector, homogeneous_decomposition, model_matrices, pair_coefficients, symbol_of


def random_operator(space, rng):
    n = space.total_dim
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return FockOperator(space, M)


class TestIsMultiToeplitz:
    def test_identity_passes_cleanly(self, rng):
        spec = random_spec(rng, k=2, max_n=2)
        space = FockSpace(spec, (2, 2), coeff_dim=2)
        report = is_multi_toeplitz(fock_identity(space))
        assert report.verdict
        assert report.max_violation == 0.0
        assert report.skipped_pairs == 0

    def test_monomials_pass(self, rng):
        spec = random_spec(rng, k=2, max_n=2)
        space = FockSpace(spec, (2, 2))
        for cdx in rng.choice(space.n_classes, size=5, replace=False):
            op = monomial(space, space.class_pair(int(cdx)), np.eye(1))
            assert is_multi_toeplitz(op).verdict

    def test_single_noncomparable_entry_detected(self, two_gen_ball_spec, rng):
        space = FockSpace(two_gen_ball_spec, (3,))
        M = np.eye(space.dim, dtype=complex)
        row = space.index_of(MultiWord((Word((1,), 2),)))
        col = space.index_of(MultiWord((Word((2,), 2),)))
        M[row, col] = 1e-3
        report = is_multi_toeplitz(FockOperator(space, M), tol=1e-10)
        assert not report.verdict
        assert report.worst_pair == (space.multiword_at(row), space.multiword_at(col))
        assert report.max_violation == pytest.approx(1e-3)

    def test_scaling_violation_detected(self, bergman2_spec):
        # correct sparsity pattern but wrong weight ratio along the diagonal band
        space = FockSpace(bergman2_spec, (3,))
        W = space.creation_product(0, Word((1,), 1))
        M = linalg.as_dense(W)
        M[1, 0] *= 1.0 + 1e-3
        report = is_multi_toeplitz(FockOperator(space, M), tol=1e-10)
        assert not report.verdict
        assert report.structural_violation == 0.0
        assert report.scaling_violation > 1e-5

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("index", [0, 1])  # the identity class's representative, then a member
    def test_nan_at_a_comparable_pair_fails(self, rng, sparse, index):
        spec = random_spec(rng, k=2, max_n=2)
        space = FockSpace(spec, (2, 2), coeff_dim=2)
        # random_symbol always plants the identity pair, so the diagonal is stored
        M = evaluate_at_model(random_symbol(space, rng, n_monomials=4)).dense
        M[index, index] = np.nan
        report = is_multi_toeplitz(FockOperator(space, sp.csr_matrix(M) if sparse else M))
        assert not report.verdict
        assert np.isnan(report.max_violation)
        assert report.structural_violation == 0.0 and np.isnan(report.scaling_violation)

    def test_closure_under_sums_and_scalars(self, rng):
        spec = random_spec(rng, k=1, max_n=2)
        space = FockSpace(spec, (3,), coeff_dim=2)
        a = evaluate_at_model(random_symbol(space, rng, n_monomials=4))
        b = evaluate_at_model(random_symbol(space, rng, n_monomials=4))
        combo = FockOperator(space, 2.5j * a.dense + 0.7 * b.dense)
        assert is_multi_toeplitz(combo).verdict


# k=1, n=2, m=3, every word of length <= 2: at trunc 9 the space has dim 1023,
# past the dense cutoff of linalg.op_norm
PAST_CUTOFF_SPEC = PolydomainSpec(
    k=1,
    n=(2,),
    m=(3,),
    coeffs=(
        {
            Word(w, 2): a
            for w, a in (((1,), 1.0), ((2,), 0.5), ((1, 1), 0.25), ((1, 2), 0.25), ((2, 1), 0.25), ((2, 2), 0.25))
        },
    ),
)


class TestVerdictPastTheCutoff:
    """Past the cutoff ``||T||`` is bracketed, and Lanczos runs only when the bracket leaves the answer open."""

    TOL = 1e-10

    @pytest.fixture
    def space(self):
        return FockSpace(PAST_CUTOFF_SPEC, (9,))

    @pytest.fixture
    def planted(self, space, rng):
        # scaled so that 1 < lo < hi: the bracket's ends give different relative deviations
        return 10.0 * evaluate_at_model(random_symbol(space, rng, n_monomials=6)).dense

    @staticmethod
    def member_entry(space, M):
        """A stored entry of ``M`` at a comparable pair that is not its class representative."""
        rows, cols = np.nonzero(M)
        pairs = space.classify_pairs(rows * space.dim + cols)
        j = np.flatnonzero(pairs.comparable & (pairs.rep != rows * space.dim + cols))[0]
        return rows[j], cols[j]

    @staticmethod
    def noncomparable_pair(space, rng):
        rows, cols = rng.integers(space.dim, size=(2, 500))
        j = np.flatnonzero(~space.classify_pairs(rows * space.dim + cols).comparable)[0]
        return rows[j], cols[j]

    def exact(self, monkeypatch, T):
        """The report of the exact-norm path: ``||T||`` from ``op_norm`` at both ends of the bracket."""
        norm = op_norm(T.matrix)
        with monkeypatch.context() as m:
            m.setattr(linalg, "norm_bracket", lambda mat: (norm, norm))
            return is_multi_toeplitz(T, tol=self.TOL)

    def test_planted_and_spoiled_decide_without_lanczos(self, space, planted, rng, monkeypatch):
        structural, scaling = planted.copy(), planted.copy()
        r, c = self.noncomparable_pair(space, rng)
        structural[r, c] += 1e-3
        scaling[self.member_entry(space, planted)] *= 1.0 + 1e-3
        cases = [(planted, True), (structural, False), (scaling, False)]
        expected = [self.exact(monkeypatch, FockOperator(space, sp.csr_matrix(M))) for M, _ in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("Lanczos called although the bracket decides")

        monkeypatch.setattr(sp.linalg, "svds", refuse)
        for (M, verdict), exact in zip(cases, expected):
            report = is_multi_toeplitz(FockOperator(space, sp.csr_matrix(M)), tol=self.TOL)
            assert report.verdict is exact.verdict is verdict
            assert report.worst_pair == exact.worst_pair
            assert report.structural_violation == exact.structural_violation
            assert report.scaling_violation == exact.scaling_violation
            # scaling / max(1, lo) bounds the exact-norm value from above
            assert report.max_violation >= exact.max_violation * (1.0 - 1e-12)
        assert expected[1].worst_pair == (space.multiword_at(r), space.multiword_at(c))

    @pytest.mark.parametrize("threshold", ["tol", "structural"])
    def test_bracket_straddling_a_threshold_runs_lanczos(self, space, planted, rng, monkeypatch, threshold):
        lo, hi = linalg.norm_bracket(sp.csr_matrix(planted))
        assert 1.0 < lo < hi
        # a scaling spoil of t * sqrt(lo * hi) leaves to ||T|| itself whether
        # scaling / ||T|| passes t: the tolerance, which decides the verdict, or
        # a structural violation, which then decides the worst pair
        spoiled = planted.copy()
        t = self.TOL
        if threshold == "structural":
            t = 1e-6
            spoiled[self.noncomparable_pair(space, rng)] = t
        spoiled[self.member_entry(space, planted)] += t * np.sqrt(lo * hi)
        T = FockOperator(space, sp.csr_matrix(spoiled))
        lo, hi = linalg.norm_bracket(T.matrix)
        exact = self.exact(monkeypatch, T)
        assert exact.scaling_violation / hi <= t < exact.scaling_violation / lo

        calls = []

        def counted(mat):
            calls.append(mat.shape)
            return op_norm(mat)

        monkeypatch.setattr(linalg, "op_norm", counted)
        report = is_multi_toeplitz(T, tol=self.TOL)
        assert calls == [T.matrix.shape]
        assert report.to_dict() == exact.to_dict()

class TestHomogeneousParts:
    def test_monomial_concentrated(self, rng):
        spec = random_spec(rng, k=1, max_n=2)
        space = FockSpace(spec, (3,))
        cdx = int(rng.integers(space.n_classes))
        pair = space.class_pair(cdx)
        op = monomial(space, pair, np.eye(1))
        s = degree_vector(pair)
        parts = homogeneous_decomposition(op)
        assert np.abs(parts[s].dense - op.dense).max() == 0.0
        # every other degree, (s[0] + 1,) among them, has no part
        assert list(parts) == [s]

    def test_parts_sum_to_operator(self, rng):
        spec = random_spec(rng, k=2, max_n=2)
        space = FockSpace(spec, (2, 2), coeff_dim=2)
        T = random_operator(space, rng)
        parts = homogeneous_decomposition(T)
        assert set(parts) <= {(s1, s2) for s1 in range(-2, 3) for s2 in range(-2, 3)}
        acc = np.zeros_like(T.dense)
        for part in parts.values():
            acc += part.dense
        assert np.abs(acc - T.dense).max() == 0.0

    def test_part_norm_bounded(self, rng):
        spec = random_spec(rng, k=1, max_n=2)
        space = FockSpace(spec, (3,))
        T = random_operator(space, rng)
        nT = op_norm(T.matrix)
        parts = homogeneous_decomposition(T)
        assert list(parts) == [(s,) for s in range(-3, 4)]
        for part in parts.values():
            assert op_norm(part.matrix) <= nT + 1e-12

    def test_support_detection(self, rng):
        spec = random_spec(rng, k=1, max_n=2)
        space = FockSpace(spec, (3,))
        pair = space.class_pair(int(rng.integers(space.n_classes)))
        op = monomial(space, pair, np.eye(1))
        assert list(homogeneous_decomposition(op)) == [degree_vector(pair)]


class TestExtractFourier:
    def test_identity_symbol(self, rng):
        spec = random_spec(rng, k=2, max_n=2)
        space = FockSpace(spec, (2, 2), coeff_dim=2)
        T = fock_identity(space)
        sym = extract_fourier(T, is_multi_toeplitz(T))
        assert sym.classes.size == 1
        pair, A = next(iter(pair_coefficients(sym).items()))
        assert pair.left == MultiWord.identity(spec.n)
        assert pair.right == MultiWord.identity(spec.n)
        assert np.abs(A - np.eye(2)).max() == 0.0

    def test_monomial_round_trip(self, rng):
        spec = random_spec(rng, k=2, max_n=2)
        space = FockSpace(spec, (2, 2), coeff_dim=2)
        pair = space.class_pair(int(rng.integers(space.n_classes)))
        A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        T = monomial(space, pair, A)
        sym = extract_fourier(T, is_multi_toeplitz(T))
        coeffs = pair_coefficients(sym)
        assert set(coeffs) == {pair}
        assert np.abs(coeffs[pair] - A).max() < 1e-12

    def test_random_sum_round_trip(self, rng):
        for _ in range(5):
            spec = random_spec(rng)
            space = FockSpace(spec, (3,) * spec.k, coeff_dim=2)
            sym = random_symbol(space, rng, n_monomials=8)
            T = evaluate_at_model(sym)
            back = extract_fourier(T, is_multi_toeplitz(T))
            a_at, b_at = (dict(zip(s.classes.tolist(), s.coeffs)) for s in (sym, back))
            for key in set(a_at) | set(b_at):
                a = a_at.get(key, np.zeros((2, 2)))
                b = b_at.get(key, np.zeros((2, 2)))
                assert np.abs(a - b).max() < 1e-12

    def test_refuses_non_toeplitz(self, rng):
        spec = random_spec(rng, k=1, max_n=2)
        space = FockSpace(spec, (2,))
        T = random_operator(space, rng)
        with pytest.raises(NotMultiToeplitz) as info:
            extract_fourier(T, is_multi_toeplitz(T))
        assert info.value.report.max_violation > 1e-6

    @pytest.mark.parametrize("drop_tol", [-1.0, float("nan")])
    def test_rejects_negative_or_nan_drop_tol(self, rng, drop_tol):
        space = FockSpace(random_spec(rng, k=1, max_n=2), (2,))
        with pytest.raises(SpecError, match="drop tolerance"):
            T = fock_identity(space)
            extract_fourier(T, is_multi_toeplitz(T), drop_tol=drop_tol)


class TestEvaluateSymbol:
    def test_identity_everywhere(self, rng, bergman2_spec):
        space = FockSpace(bergman2_spec, (3,), coeff_dim=2)
        # class 0 is the identity pair
        sym = FourierSymbol(space, [0], [np.eye(2)])
        out = evaluate_at_model(sym)
        assert np.abs(out.dense - np.eye(space.total_dim)).max() == 0.0
        X = model_matrices(space)
        full = evaluate_at_tuple(sym, X)
        assert np.abs(full - np.eye(2 * space.dim)).max() == 0.0

    def test_radius_zero_keeps_constant_term(self, rng):
        spec = random_spec(rng, k=1, max_n=2)
        space = FockSpace(spec, (3,), coeff_dim=2)
        sym = random_symbol(space, rng, n_monomials=6)
        # random_symbol always draws class 0, the identity pair
        assert sym.classes[0] == 0
        const = sym.coeffs[0]
        out = evaluate_at_model(sym, 0.0)
        expected = np.kron(const, np.eye(space.dim))
        assert np.abs(out.dense - expected).max() < 1e-14

    def test_radial_norm_monotone(self, rng):
        for _ in range(5):
            spec = random_spec(rng)
            space = FockSpace(spec, (3,) * spec.k)
            sym = random_symbol(space, rng, n_monomials=6)
            radii = [0.0, 0.2, 0.5, 0.7, 0.9, 1.0]
            norms = [op_norm(evaluate_at_model(sym, r).matrix) for r in radii]
            for a, b in zip(norms, norms[1:]):
                assert a <= b + 1e-10


class TestCesaro:
    def test_window_zero_is_constant_part(self, rng):
        spec = random_spec(rng, k=1, max_n=2)
        space = FockSpace(spec, (3,))
        T = random_operator(space, rng)
        out = cesaro_reconstruct(T, (0,))
        assert np.abs(out.dense - homogeneous_decomposition(T)[(0,)].dense).max() == 0.0

    def test_cutoff_exact_past_twice_truncation(self, rng):
        spec = random_spec(rng, k=2, max_n=2)
        space = FockSpace(spec, (2, 2), coeff_dim=2)
        T = random_operator(space, rng)
        out = cesaro_reconstruct(T, (4, 4), fejer_weights=False)
        assert np.abs(out.dense - T.dense).max() == 0.0

    # at the cutoff -1 the Fejer weight at gap 0 was 0/0; below it every weight was 1 + |gap|
    @pytest.mark.parametrize("fejer", [True, False])
    @pytest.mark.parametrize("N", [(-1,), (-2,), (3, -1)])
    def test_negative_cutoff_is_rejected(self, rng, N, fejer):
        space = FockSpace(random_spec(rng, k=len(N), max_n=2), (2,) * len(N))
        with pytest.raises(SpecError, match="nonnegative"):
            cesaro_reconstruct(random_operator(space, rng), N, fejer_weights=fejer)

    def test_fejer_error_decreases(self, rng):
        spec = random_spec(rng, k=1, max_n=2)
        space = FockSpace(spec, (3,))
        sym = random_symbol(space, rng, n_monomials=6)
        T = evaluate_at_model(sym)
        errors = [
            op_norm(cesaro_reconstruct(T, (N,)).dense - T.dense) for N in (1, 3, 6, 12, 24)
        ]
        for a, b in zip(errors, errors[1:]):
            assert b <= a + 1e-12
        # strictly positive at any finite window when off-diagonal mass exists
        parts = homogeneous_decomposition(T)
        if any(s != (0,) and np.abs(part.matrix.data).max() > 1e-12 for s, part in parts.items()):
            assert errors[-1] > 0.0


class TestPluriharmonicKernel:
    def test_identity_symbol_kernel(self, rng, bergman2_spec):
        space = FockSpace(bergman2_spec, (3,), coeff_dim=2)
        # class 0 is the identity pair
        sym = FourierSymbol(space, [0], [np.eye(2)])
        gamma = pluriharmonic_kernel(sym, 0.5)
        ok, _ = psd_check(gamma, 1e-12)
        assert ok

    def test_psd_equivalence_both_directions(self, rng):
        hits = {True: 0, False: 0}
        for _ in range(12):
            spec = random_spec(rng)
            space = FockSpace(spec, (2,) * spec.k, coeff_dim=2)
            sym = random_symbol(space, rng, n_monomials=5, hermitian=True)
            for r in (0.3, 0.7):
                v_kernel, _ = psd_check(pluriharmonic_kernel(sym, r), 1e-9)
                v_model, _ = psd_check(evaluate_at_model(sym, r).dense, 1e-9)
                assert v_kernel == v_model
                hits[v_kernel] += 1
        # the sample should exercise both verdicts
        assert hits[True] > 0 and hits[False] > 0

    def test_threshold_matches_model_minimum(self, single_shift_spec):
        # symbol I + c(W + W*): kernel PSD exactly while the model stays PSD
        space = FockSpace(single_shift_spec, (4,))
        e = Word((), 1)
        g = Word((1,), 1)
        r = 0.9

        def verdict_kernel(c):
            sym = symbol_of(
                space,
                {
                    IndexPair(MultiWord((e,)), MultiWord((e,))): np.eye(1),
                    IndexPair(MultiWord((g,)), MultiWord((e,))): np.array([[c]]),
                    IndexPair(MultiWord((e,)), MultiWord((g,))): np.array([[c]]),
                },
            )
            ok, _ = psd_check(pluriharmonic_kernel(sym, r), 1e-12)
            return ok, sym

        lo, hi = 0.0, 5.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            ok, _ = verdict_kernel(mid)
            if ok:
                lo = mid
            else:
                hi = mid
        threshold = 0.5 * (lo + hi)

        # independent computation straight from the model operator
        def verdict_model(c):
            _, sym = verdict_kernel(c)
            ok, _ = psd_check(evaluate_at_model(sym, r).dense, 1e-12)
            return ok

        assert verdict_model(threshold * 0.98)
        assert not verdict_model(threshold * 1.02)

    def test_rejects_bad_radius(self, rng, bergman2_spec):
        space = FockSpace(bergman2_spec, (2,))
        sym = random_symbol(space, rng, n_monomials=2)
        from polytoeplitz.errors import SpecError

        with pytest.raises(SpecError):
            pluriharmonic_kernel(sym, 1.0)


class TestSymbolJson:
    def test_round_trip(self, rng):
        spec = random_spec(rng, k=2, max_n=2)
        space = FockSpace(spec, (2, 2), coeff_dim=2)
        sym = random_symbol(space, rng, n_monomials=6)
        doc = symbol_to_json(sym)
        back = symbol_from_json(space, doc)
        assert np.array_equal(back.classes, sym.classes)
        assert np.abs(back.coeffs - sym.coeffs).max() == 0.0

    def test_dimension_guard(self, rng, bergman2_spec):
        space = FockSpace(bergman2_spec, (2,))
        other = FockSpace(bergman2_spec, (2,), coeff_dim=2)
        sym = random_symbol(space, rng, n_monomials=2)
        from polytoeplitz.errors import DimensionMismatch

        with pytest.raises(DimensionMismatch):
            symbol_from_json(other, symbol_to_json(sym))

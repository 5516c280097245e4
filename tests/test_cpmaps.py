import itertools

import numpy as np
import pytest

from polytoeplitz.cpmaps import (
    OperatorTuple,
    UniversalModel,
    _phi_power_norms,
    berezin_kernel,
    berezin_transform,
    defect,
    intertwining_residual,
    is_member,
    is_pure,
    phi_map,
    random_pure_tuple,
)
from polytoeplitz.errors import SpecError
from polytoeplitz.linalg import herm_sqrt, psd_check
from polytoeplitz.model import FockSpace
from polytoeplitz.sampling import random_spec
from polytoeplitz.toeplitz import evaluate_at_model, evaluate_at_tuple, random_symbol

from conftest import fock_identity
from oracles import model_matrices


def scalar_tuple(spec, values):
    """k=1 tuple of 1x1 matrices."""
    ops = tuple(np.array([[v]], dtype=complex) for v in values)
    t = OperatorTuple(spec=spec, ops=(ops,), dim_h=1)
    t.commutation_checked = True
    return t


def zero_tuple(spec, dim_h=2):
    ops = tuple(
        tuple(np.zeros((dim_h, dim_h), dtype=complex) for _ in range(spec.n[i]))
        for i in range(spec.k)
    )
    t = OperatorTuple(spec=spec, ops=ops, dim_h=dim_h)
    t.commutation_checked = True
    return t


class TestPhiMap:
    def test_zero_point(self, single_shift_spec):
        X = zero_tuple(single_shift_spec)
        assert np.abs(phi_map(X, 0, np.eye(2))).max() == 0.0

    def test_zero_argument(self, single_shift_spec, rng):
        X = random_pure_tuple(single_shift_spec, rng)
        assert np.abs(phi_map(X, 0, np.zeros((X.dim_h, X.dim_h)))).max() == 0.0

    def test_scalar_square(self, single_shift_spec):
        X = scalar_tuple(single_shift_spec, [0.6])
        out = phi_map(X, 0, np.eye(1))
        assert out[0, 0] == pytest.approx(0.36)

    def test_positivity_preserving(self, rng):
        spec = random_spec(rng, k=1)
        X = random_pure_tuple(spec, rng, dims=(3,), shrink=0.9)
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        out = phi_map(X, 0, B @ B.conj().T)
        ok, _ = psd_check(out, 1e-10)
        assert ok


class TestDefect:
    def test_zero_point_gives_identity(self, bergman2_spec):
        X = zero_tuple(bergman2_spec)
        assert np.abs(defect(X, (2,)) - np.eye(2)).max() == 0.0

    def test_left_model_vacuum_projection(self, rng):
        for _ in range(5):
            spec = random_spec(rng)
            space = FockSpace(spec, (4,) * spec.k)
            W = UniversalModel(space, side="left")
            # the defect's diagonal against the vacuum projection's, e_0
            vac = np.zeros(space.dim)
            vac[0] = 1.0
            assert np.abs(defect(W, spec.m) - vac).max() < 1e-10

    def test_right_model_vacuum_projection(self, rng):
        # the right model realizes the reversed series; using a
        # reversal-closed coefficient family lets the same spec drive both
        from polytoeplitz.freemonoid import reverse
        from polytoeplitz.weights import PolydomainSpec

        spec = random_spec(rng, k=1, max_deg=2)
        closed = dict(spec.coeffs[0])
        for w, a in spec.coeffs[0].items():
            closed.setdefault(reverse(w), a)
        avg = {w: 0.5 * (closed[w] + closed[reverse(w)]) for w in closed}
        spec_sym = PolydomainSpec(k=1, n=spec.n, m=spec.m, coeffs=(avg,))
        space_sym = FockSpace(spec_sym, (4,))
        lam = UniversalModel(space_sym, side="right")
        vac = np.zeros(space_sym.dim)
        vac[0] = 1.0
        assert np.abs(defect(lam, spec_sym.m) - vac).max() < 1e-10

    def test_rejects_bad_powers(self, bergman2_spec):
        X = zero_tuple(bergman2_spec)
        with pytest.raises(SpecError):
            defect(X, (3,))


class TestMembership:
    def test_zero_belongs(self, bergman2_spec):
        ok, _ = is_member(zero_tuple(bergman2_spec))
        assert ok

    def test_truncated_model_belongs(self, rng):
        spec = random_spec(rng)
        space = FockSpace(spec, (3,) * spec.k)
        W = UniversalModel(space)
        ok, _ = is_member(W)
        assert ok

    def test_scalar_outside_with_witness(self, single_shift_spec):
        X = scalar_tuple(single_shift_spec, [2.0])
        ok, (p, lo) = is_member(X)
        assert not ok
        assert p == (1,)
        assert lo == pytest.approx(-3.0)


class TestPurity:
    def test_zero_is_pure(self, bergman2_spec):
        pure, _ = is_pure(zero_tuple(bergman2_spec))
        assert pure

    def test_truncated_model_nilpotent(self, rng):
        spec = random_spec(rng, k=1)
        L = 3
        space = FockSpace(spec, (L,))
        W = UniversalModel(space)
        pure, report = is_pure(W, power_cap=L + 1, tol=1e-12)
        assert pure
        assert report["factors"][0]["power"] <= L + 1

    def test_unitary_scalar_not_pure(self, single_shift_spec):
        X = scalar_tuple(single_shift_spec, [1.0])
        pure, _ = is_pure(X, power_cap=30)
        assert not pure


class TestBerezinKernel:
    def test_zero_point_kernel(self, bergman2_spec):
        X = zero_tuple(bergman2_spec, dim_h=3)
        K = berezin_kernel(X, (3,))
        assert np.abs(K.gram() - np.eye(3)).max() < 1e-14
        # only the vacuum row is populated
        assert np.abs(K.rows[1:]).max() == 0.0
        assert np.abs(K.rows[0] - np.eye(3)).max() < 1e-14
        assert K.tail_bound == 0.0

    def test_isometry_on_pure_points(self, rng):
        for _ in range(5):
            spec = random_spec(rng)
            X = random_pure_tuple(spec, rng, dims=(2,) * spec.k, shrink=0.85)
            K = berezin_kernel(X, (4,) * spec.k)
            dev = np.abs(K.gram() - np.eye(X.dim_h)).max()
            assert dev <= max(1e-8, K.tail_bound)

    def test_contraction(self, rng):
        spec = random_spec(rng, k=1)
        X = random_pure_tuple(spec, rng, dims=(4,), shrink=0.95)
        K = berezin_kernel(X, (4,))
        assert K.norm() <= 1.0 + 1e-9

    def test_intertwining(self, rng):
        for _ in range(5):
            spec = random_spec(rng)
            trunc = (3,) * spec.k
            X = random_pure_tuple(spec, rng, dims=(2,) * spec.k, shrink=0.9)
            K = berezin_kernel(X, trunc)
            assert intertwining_residual(K, X) < 1e-12

    def test_nan_entry_gives_a_nan_intertwining_residual(self):
        # the NaN sits in the first factor's term, which is measured first
        rng = np.random.default_rng(3)
        spec = random_spec(rng, k=2, max_n=1)
        assert spec.n == (1, 1)
        trunc = (3, 3)
        X = random_pure_tuple(spec, rng, dims=(2, 2), shrink=0.9)
        K = berezin_kernel(X, trunc)
        assert intertwining_residual(K, X) < 1e-12
        spoiled = X.ops[0][0].copy()
        spoiled[0, 0] = np.nan
        Y = OperatorTuple(spec=spec, ops=((spoiled,), X.ops[1]), dim_h=X.dim_h)
        assert np.isnan(intertwining_residual(K, Y))

    def test_universal_model_kernel_inputs_match_its_matrix_copy(self, rng):
        # the model's defect and power iterates are diagonals; the same
        # creations as matrices give the same kernel root and power norms,
        # so the same kernel, and the same purity
        for _ in range(3):
            spec = random_spec(rng)
            trunc = (3,) * spec.k
            space = FockSpace(spec, trunc)
            W, M = UniversalModel(space), model_matrices(space)
            root = herm_sqrt(np.diag(defect(W, spec.m)))
            assert np.abs(root - herm_sqrt(defect(M, spec.m))).max() < 1e-12
            norms = tuple(next(itertools.islice(_phi_power_norms(W, i), L, None)) for i, L in enumerate(trunc))
            assert norms == pytest.approx(berezin_kernel(M, trunc).phi_power_norms, abs=1e-12)
            assert is_pure(W, power_cap=4)[0] and is_pure(M, power_cap=4)[0]

    def test_power_norms_are_the_iterate_norms_one_degree_past_the_truncation(self, rng):
        # one norm of the (L_i + 1)-th iterate per factor, to the bit
        for _ in range(3):
            spec = random_spec(rng)
            trunc = tuple(int(L) for L in rng.integers(1, 4, size=spec.k))
            X = random_pure_tuple(spec, rng, dims=(2,) * spec.k, shrink=0.85)
            norms = tuple(next(itertools.islice(_phi_power_norms(X, i), L, None)) for i, L in enumerate(trunc))
            assert berezin_kernel(X, trunc).phi_power_norms == norms


class TestBerezinTransform:
    def test_unital_up_to_tail(self, rng):
        spec = random_spec(rng, k=1)
        trunc = (4,)
        X = random_pure_tuple(spec, rng, dims=(3,), shrink=0.8)
        space = FockSpace(spec, trunc)
        K = berezin_kernel(X, trunc)
        out = berezin_transform(fock_identity(space), X, K)
        assert np.abs(out - np.eye(3)).max() <= max(1e-8, K.tail_bound)

    def test_positivity(self, rng):
        spec = random_spec(rng, k=1)
        trunc = (3,)
        space = FockSpace(spec, trunc, coeff_dim=2)
        X = random_pure_tuple(spec, rng, dims=(2,), shrink=0.9)
        n = space.total_dim
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        from polytoeplitz.model import FockOperator

        g = FockOperator(space, B @ B.conj().T)
        out = berezin_transform(g, X)
        ok, lo = psd_check(out, 1e-9)
        assert ok, lo

    def test_mean_value_at_scaled_model(self, rng):
        # evaluating a symbol radially commutes with the transform, exactly,
        # when the point is a scaled copy of the model itself
        spec = random_spec(rng, k=1, max_n=2)
        trunc = (3,)
        space = FockSpace(spec, trunc, coeff_dim=2)
        sym = random_symbol(space, rng, n_monomials=5)
        T = evaluate_at_model(sym, 0.9)
        X = model_matrices(FockSpace(spec, trunc, weights=space.weights)).scaled(0.5)
        lhs = berezin_transform(T, X)
        rhs = evaluate_at_model(sym, 0.45).dense
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_mean_value_random_point_within_tail(self, rng):
        spec = random_spec(rng, k=1, max_n=2)
        trunc = (5,)
        space = FockSpace(spec, trunc, coeff_dim=1)
        sym = random_symbol(space, rng, n_monomials=4)
        X = random_pure_tuple(spec, rng, dims=(2,), shrink=0.7)
        K = berezin_kernel(X, trunc)
        r = 0.8
        lhs = berezin_transform(evaluate_at_model(sym, r), X, K)
        rhs = evaluate_at_tuple(sym, X.scaled(r))
        scale = max(1.0, float(np.abs(rhs).max()))
        assert np.abs(lhs - rhs).max() <= max(1e-8, 3.0 * K.tail_bound) * scale


class TestRandomPureTuple:
    def test_membership_and_purity(self, rng):
        for _ in range(3):
            spec = random_spec(rng)
            X = random_pure_tuple(spec, rng, dims=(2,) * spec.k, shrink=0.9)
            ok, _ = is_member(X)
            assert ok
            pure, _ = is_pure(X, power_cap=200, tol=1e-8)
            assert pure

    def test_cross_factor_commutation_automatic(self, rng):
        spec = random_spec(rng, k=2)
        X = random_pure_tuple(spec, rng, dims=(2, 3))
        assert X.check_commutation() < 1e-12

    @pytest.mark.parametrize("factor", [0, 1])
    def test_nan_entry_fails_the_commutation_check(self, rng, factor):
        spec = random_spec(rng, k=2)
        X = random_pure_tuple(spec, rng, dims=(2, 3))
        ops = [list(fac) for fac in X.ops]
        ops[factor][0] = ops[factor][0].copy()
        ops[factor][0][1, 1] = np.nan
        Y = OperatorTuple(spec=spec, ops=tuple(map(tuple, ops)), dim_h=X.dim_h)
        with pytest.raises(SpecError, match="nan"):
            Y.check_commutation()
        assert not Y.commutation_checked
        with pytest.raises(SpecError):
            is_member(Y)

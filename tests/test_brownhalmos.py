import math

import numpy as np
import pytest

from polytoeplitz.brownhalmos import (
    bh_residual,
    bh_scan,
    build_row,
    cauchy_dual_projection,
    range_projection,
)
from polytoeplitz.errors import SpecError
from polytoeplitz.linalg import as_dense, pinv_on_range
from polytoeplitz.model import FockOperator, FockSpace, weighted_right_creation
from polytoeplitz.sampling import random_spec
from polytoeplitz.toeplitz import evaluate_at_model, random_symbol
from polytoeplitz.weights import build_weight_table

from conftest import fock_identity, make_spec
from oracles import cauchy_dual, degree_vector, phi_right


def column_blocks(C):
    """The column blocks ``C[:, g*n:(g+1)*n]`` of a row, one per word of its ``gamma``, dense."""
    n, dense = C.shape[0], as_dense(C)
    return [dense[:, g * n:(g + 1) * n] for g in range(C.shape[1] // n)]


class TestBuildRow:
    def test_single_shift_single_column(self, single_shift_spec):
        space = FockSpace(single_shift_spec, (4,))
        (column,) = column_blocks(build_row(space, 0))
        lam = weighted_right_creation(space, 0, 1)
        assert np.abs(column - lam.dense).max() == 0.0

    def test_ball_columns_isometric_orthogonal(self, two_gen_ball_spec):
        space = FockSpace(two_gen_ball_spec, (3,))
        # the ball's coefficients are 1, so each block is its unscaled column
        c1, c2 = column_blocks(build_row(space, 0))
        # isometric off the top degree, orthogonal ranges
        interior = space.safe_mask((1,))
        g1 = (c1.conj().T @ c1)[np.ix_(interior, interior)]
        assert np.abs(g1 - np.eye(interior.sum())).max() < 1e-12
        assert np.abs(c1.conj().T @ c2).max() < 1e-12

    def test_cc_star_is_reversed_series_map(self, rng):
        spec = random_spec(rng, k=1, max_n=2, max_deg=2)
        space = FockSpace(spec, (3,))
        C = as_dense(build_row(space, 0))
        expected = phi_right(space, 0, np.eye(space.total_dim, dtype=complex))
        assert np.abs(C @ C.conj().T - expected.toarray()).max() < 1e-12

    def test_row_contraction_bound(self, rng):
        for _ in range(5):
            spec = random_spec(rng)
            space = FockSpace(spec, (3,) * spec.k)
            for i in range(spec.k):
                build_row(space, i)  # raises if ||CC*|| > 1


    def test_row_that_is_not_a_contraction_is_refused(self):
        # coefficients of f = 1.5 z over the weights of f = z: CC* = 1.5 off the vacuum
        spec = make_spec(1, (1,), (1,), [(1, (1,), 1.5)])
        weights = build_weight_table(make_spec(1, (1,), (1,), [(1, (1,), 1.0)]), (3,))
        space = FockSpace(spec, (3,), weights=weights)
        with pytest.raises(SpecError, match="not a contraction"):
            build_row(space, 0)


class TestCauchyDual:
    def test_single_shift_dual_is_row(self, single_shift_spec):
        # lone isometric column: C*C = I on its domain, so the dual equals C
        space = FockSpace(single_shift_spec, (4,))
        row = build_row(space, 0)
        dual = cauchy_dual(row)
        C = as_dense(row)
        # compare where the column is supported (top-degree column is clipped)
        mask = space.safe_mask((1,))
        assert np.abs((dual - C)[:, mask]).max() < 1e-12

    def test_projection_identities(self, rng):
        for _ in range(4):
            spec = random_spec(rng, k=1, max_deg=2)
            space = FockSpace(spec, (4,))
            P = cauchy_dual_projection(build_row(space, 0))
            assert np.abs(P @ P - P).max() < 1e-10
            assert np.abs(P - P.conj().T).max() < 1e-10
            Q = range_projection(space, 0)
            assert np.abs(P - Q).max() < 1e-9

    def test_range_excludes_slot_vacuum(self, rng):
        spec = random_spec(rng, k=2, max_n=2, max_deg=1)
        space = FockSpace(spec, (2, 2))
        Q = range_projection(space, 1)
        degs = space.degree_table()
        for idx in range(space.dim):
            assert Q[idx, idx] == (1.0 if degs[idx, 1] > 0 else 0.0)

    def test_dual_identity_via_alternating_sum(self, rng):
        # C (C*C)^{-1} equals C applied to the block-diagonal alternating sum,
        # restricted to the range of C*
        spec = random_spec(rng, k=1, max_deg=2)
        space = FockSpace(spec, (4,))
        row = build_row(space, 0)
        C = as_dense(row)
        gram = C.conj().T @ C
        pinv = as_dense(pinv_on_range(gram, 1e-10))
        lhs = C @ pinv

        m = spec.m[0]
        I = np.eye(space.total_dim, dtype=complex)
        psi = np.zeros_like(I)
        acc = I
        for j in range(m):
            if j > 0:
                acc = phi_right(space, 0, acc).toarray()
            psi += ((-1) ** j) * math.comb(m, j + 1) * acc
        n_cols = row.shape[1] // row.shape[0]
        rhs = C @ np.kron(np.eye(n_cols), psi) @ (pinv @ gram)
        assert np.abs(lhs - rhs).max() < 1e-9


class TestBhResidual:
    def test_monomials_satisfy(self, rng):
        for _ in range(4):
            spec = random_spec(rng)
            space = FockSpace(spec, (3,) * spec.k, coeff_dim=2)
            pair = space.class_pair(int(rng.integers(space.n_classes)))
            from polytoeplitz.model import monomial

            A = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            T = monomial(space, pair, A)
            for i in range(spec.k):
                assert bh_residual(T, i) < 1e-9

    def test_random_toeplitz_satisfy(self, rng):
        for _ in range(5):
            spec = random_spec(rng)
            space = FockSpace(spec, (3,) * spec.k, coeff_dim=int(rng.integers(1, 3)))
            T = evaluate_at_model(random_symbol(space, rng, n_monomials=6))
            scan = bh_scan(T)
            assert scan["satisfied"]
            assert scan["classification"] == "BH-consistent"

    def test_identity_reduces_to_defect_identity(self, rng):
        # for T = I both sides equal the projection onto nonvacuum slot vectors
        spec = random_spec(rng, k=1, max_deg=2)
        space = FockSpace(spec, (4,))
        T = fock_identity(space)
        Q = range_projection(space, 0)
        m = spec.m[0]
        alt, power = np.zeros_like(Q), T.dense
        for j in range(1, m + 1):
            power = phi_right(space, 0, power).toarray()
            alt += ((-1) ** (j - 1)) * math.comb(m, j) * power
        assert np.abs(alt - Q).max() < 1e-12
        assert bh_residual(T, 0) < 1e-12

    def test_factor_resolved_violation(self, rng):
        # slot-2 diagonal junk violates factor 2 but leaves factor 1 clean
        spec = make_spec(2, (1, 1), (1, 1), [(1, (1,), 1.0), (2, (1,), 1.0)])
        space = FockSpace(spec, (3, 3))
        d2 = rng.uniform(0.5, 2.0, size=4)
        diag = np.kron(np.ones(4), d2)
        T = FockOperator(space, np.diag(diag.astype(complex)))
        res1 = bh_residual(T, 0)
        res2 = bh_residual(T, 1)
        assert res1 < 1e-12
        assert res2 > 1e-3
        scan = bh_scan(T)
        assert not scan["satisfied"]
        assert scan["classification"] == "BH-violated"

    def test_zero_operator(self, rng):
        spec = random_spec(rng, k=1)
        space = FockSpace(spec, (3,))
        T = FockOperator(space, np.zeros((space.total_dim, space.total_dim), complex))
        assert bh_residual(T, 0) == 0.0


class TestHomogeneousCommutation:
    def test_creation_commutes_through_row(self, rng):
        # a monomial with nonnegative slot degree moves across the row into
        # its block-diagonal copy
        spec = random_spec(rng, k=1, max_n=2, max_deg=2)
        space = FockSpace(spec, (4,))
        from polytoeplitz.model import monomial

        plus = [c for c in range(space.n_classes) if degree_vector(space.class_pair(c))[0] >= 0]
        pair = space.class_pair(int(rng.choice(plus)))
        q = monomial(space, pair, np.eye(1)).dense
        row = build_row(space, 0)
        C = as_dense(row)
        lhs = q @ C
        rhs = C @ np.kron(np.eye(row.shape[1] // row.shape[0]), q)
        # exact away from the top degrees that the row or monomial clips
        head = pair.left.total_degree + spec.degree(0)
        mask = np.tile(space.safe_mask((head,)), 1)
        cols = np.tile(np.tile(mask, space.coeff_dim), row.shape[1] // row.shape[0])
        assert np.abs((lhs - rhs)[:, cols]).max() < 1e-12

    def test_adjoint_case_negative_degree(self, rng):
        spec = random_spec(rng, k=1, max_n=2, max_deg=2)
        space = FockSpace(spec, (4,))
        from polytoeplitz.model import monomial

        minus = [c for c in range(space.n_classes) if degree_vector(space.class_pair(c))[0] < 0]
        pair = space.class_pair(int(rng.choice(minus)))
        q = monomial(space, pair, np.eye(1)).dense
        row = build_row(space, 0)
        C = as_dense(row)
        lhs = C.conj().T @ q
        rhs = np.kron(np.eye(row.shape[1] // row.shape[0]), q) @ C.conj().T
        head = pair.right.total_degree + spec.degree(0)
        mask = np.tile(space.safe_mask((head,)), space.coeff_dim)
        cols = mask
        assert np.abs((lhs - rhs)[:, cols]).max() < 1e-12

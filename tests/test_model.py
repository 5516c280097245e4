import itertools
import math

import numpy as np
import pytest

from polytoeplitz.errors import SpecError
from polytoeplitz.freemonoid import IndexPair, MultiWord, Word
from polytoeplitz.model import (
    FockSpace,
    monomial,
    scalar_kernel,
    truncated_gram_kernel,
    weighted_left_creation,
    weighted_right_creation,
)
from polytoeplitz.sampling import random_spec

from oracles import comparable, graded_projection, homogeneous_decomposition, simplify, tau, weighted_fock_unitary



def basis_vec(space, mw):
    v = np.zeros(space.dim, dtype=complex)
    v[space.index_of(mw)] = 1.0
    return v


class TestCreationOperators:
    def test_left_on_vacuum(self, rng):
        spec = random_spec(rng, k=1, max_n=2)
        space = FockSpace(spec, (3,))
        W = weighted_left_creation(space, 0, 1)
        out = W.dense @ basis_vec(space, MultiWord.identity(spec.n))
        g1 = MultiWord((Word((1,), spec.n[0]),))
        b = space.weights.b(0, g1.parts[0])
        expected = basis_vec(space, g1) / math.sqrt(b)
        assert np.abs(out - expected).max() < 1e-14

    def test_bergman_column_value(self, bergman2_spec):
        space = FockSpace(bergman2_spec, (5,))
        W = weighted_left_creation(space, 0, 1)
        # from weight 3 at degree 2 to weight 4 at degree 3
        assert W.dense[3, 2] == pytest.approx(math.sqrt(3.0) / 2.0)

    def test_top_degree_column_vanishes(self, bergman2_spec):
        space = FockSpace(bergman2_spec, (4,))
        W = weighted_left_creation(space, 0, 1)
        top = space.index_of(MultiWord((Word((1,) * 4, 1),)))
        assert np.abs(W.dense[:, top]).max() == 0.0

    def test_left_right_agree_single_generator(self, bergman2_spec):
        space = FockSpace(bergman2_spec, (4,))
        W = weighted_left_creation(space, 0, 1)
        L = weighted_right_creation(space, 0, 1)
        assert np.abs(W.dense - L.dense).max() == 0.0

    def test_right_appends(self, two_gen_ball_spec):
        space = FockSpace(two_gen_ball_spec, (3,))
        L2 = weighted_right_creation(space, 0, 2)
        src = MultiWord((Word((1,), 2),))
        dst = MultiWord((Word((1, 2), 2),))
        out = L2.dense @ basis_vec(space, src)
        assert np.abs(out - basis_vec(space, dst)).max() < 1e-14

    def test_cross_factor_commutation(self, rng):
        spec = random_spec(rng, k=2, max_n=2)
        space = FockSpace(spec, (2, 2))
        W = weighted_left_creation(space, 0, 1)
        L = weighted_right_creation(space, 1, 1)
        comm = W.dense @ L.dense - L.dense @ W.dense
        assert np.abs(comm).max() < 1e-14


class TestMonomial:
    def test_identity_pair(self, bergman2_spec):
        space = FockSpace(bergman2_spec, (3,), coeff_dim=2)
        pair = IndexPair(MultiWord.identity((1,)), MultiWord.identity((1,)))
        op = monomial(space, pair, np.eye(2))
        assert np.abs(op.dense - np.eye(space.total_dim)).max() == 0.0

    def test_entries_match_simplification(self, rng):
        # entry <W_a W_b* e_g, e_w> is tau(w, g) exactly when the pair reduces there
        spec = random_spec(rng, k=2, max_n=2, max_deg=2)
        trunc = (2, 2)
        space = FockSpace(spec, trunc)
        for cdx in rng.choice(space.n_classes, size=min(6, space.n_classes), replace=False):
            pair = space.class_pair(int(cdx))
            op = monomial(space, pair, np.eye(1)).dense
            for gi, wi in itertools.product(range(space.dim), repeat=2):
                gamma, omega = space.multiword_at(gi), space.multiword_at(wi)
                entry = op[wi, gi]
                if comparable(omega, gamma) and simplify(omega, gamma) == pair:
                    assert entry == pytest.approx(
                        tau(space.weights, omega, gamma), rel=1e-12
                    )
                else:
                    assert entry == 0.0

    def test_column_norm_identity(self, rng):
        # ||W_a W_b* e_g||^2 equals the sum of tau^2 over matching rows
        spec = random_spec(rng, k=1, max_n=2, max_deg=2)
        space = FockSpace(spec, (3,))
        pair = space.class_pair(int(rng.integers(space.n_classes)))
        op = monomial(space, pair, np.eye(1)).dense
        for gi in range(space.dim):
            gamma = space.multiword_at(gi)
            expected = 0.0
            for wi in range(space.dim):
                omega = space.multiword_at(wi)
                if comparable(omega, gamma) and simplify(omega, gamma) == pair:
                    expected += tau(space.weights, omega, gamma) ** 2
            assert np.linalg.norm(op[:, gi]) ** 2 == pytest.approx(expected, abs=1e-12)


class TestGradedProjection:
    def test_vacuum(self, bergman2_spec):
        space = FockSpace(bergman2_spec, (3,))
        P = graded_projection(space, (0,)).dense
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.array_equal(P, expected)

    def test_resolution_of_identity(self, rng):
        spec = random_spec(rng, k=2, max_n=2)
        space = FockSpace(spec, (2, 2), coeff_dim=2)
        total = sum(
            graded_projection(space, p).dense
            for p in itertools.product(range(3), range(3))
        )
        assert np.abs(total - np.eye(space.total_dim)).max() == 0.0

    def test_orthogonality(self, bergman2_spec):
        space = FockSpace(bergman2_spec, (3,))
        P1 = graded_projection(space, (1,)).dense
        P2 = graded_projection(space, (2,)).dense
        assert np.abs(P1 @ P2).max() == 0.0

    def test_negative_degree_is_zero(self, bergman2_spec):
        space = FockSpace(bergman2_spec, (3,))
        assert np.abs(graded_projection(space, (-1,)).dense).max() == 0.0


class TestWeightedFockUnitary:
    def test_diagonal_values(self, bergman2_spec):
        space = FockSpace(bergman2_spec, (4,))
        U = weighted_fock_unitary(space, "forward").dense
        assert np.allclose(np.diag(U), np.sqrt(np.arange(1.0, 6.0)))
        assert U[0, 0] == 1.0

    def test_inverse_is_reciprocal(self, rng):
        spec = random_spec(rng, k=2, max_n=2)
        space = FockSpace(spec, (2, 2))
        U = weighted_fock_unitary(space, "forward").dense
        V = weighted_fock_unitary(space, "inverse").dense
        assert np.abs(U @ V - np.eye(space.dim)).max() < 1e-12

    def test_conjugation_gives_unit_shift(self, bergman2_spec):
        space = FockSpace(bergman2_spec, (4,))
        U = weighted_fock_unitary(space, "forward").dense
        V = weighted_fock_unitary(space, "inverse").dense
        W = weighted_left_creation(space, 0, 1).dense
        shifted = U @ W @ V
        for col in range(space.dim - 1):
            assert shifted[col + 1, col] == pytest.approx(1.0, rel=1e-12)

    def test_unknown_direction(self, bergman2_spec):
        space = FockSpace(bergman2_spec, (2,))
        with pytest.raises(SpecError):
            weighted_fock_unitary(space, "sideways")

    def test_matches_the_per_word_weights_bitwise(self, rng):
        # against the product of the factor weights of each basis multi-word
        for k, trunc in ((1, (4,)), (2, (2, 3)), (3, (2, 1, 2))):
            spec = random_spec(rng, k=k, max_n=2)
            space = FockSpace(spec, trunc, coeff_dim=2)
            b = np.array(
                [math.prod(space.weights.b(i, part) for i, part in enumerate(w.parts)) for w in space.basis()],
                dtype=float,
            )
            for direction, diag in (("forward", np.sqrt(b)), ("inverse", 1.0 / np.sqrt(b))):
                got = weighted_fock_unitary(space, direction).matrix.diagonal()
                want = np.tile(diag, 2).astype(complex)
                assert got.tobytes() == want.tobytes(), (k, direction)


class TestAdjointGrading:
    def test_adjoint_part_relation(self, rng):
        spec = random_spec(rng, k=2, max_n=2)
        space = FockSpace(spec, (2, 2), coeff_dim=2)
        n = space.total_dim
        M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        from polytoeplitz.model import FockOperator

        T = FockOperator(space, M)
        parts, adjoint_parts = homogeneous_decomposition(T), homogeneous_decomposition(T.adjoint())
        assert sorted(adjoint_parts) == sorted(tuple(-x for x in s) for s in parts)
        for s in [(0, 0), (1, 0), (-1, 2), (2, -1)]:
            lhs = adjoint_parts[s].dense
            rhs = parts[tuple(-x for x in s)].adjoint().dense
            assert np.abs(lhs - rhs).max() == 0.0


class TestScalarKernel:
    def test_origin(self, rng):
        spec = random_spec(rng, k=2, max_n=1, max_deg=2)
        z = (0.0 + 0.0j, 0.0 + 0.0j)
        assert scalar_kernel(spec, None, z, z) == pytest.approx(1.0)

    def test_szego_form(self, single_shift_spec):
        r = 0.5
        val = scalar_kernel(single_shift_spec, None, (r,), (r,))
        assert val == pytest.approx(1.0 / (1.0 - r * r), rel=1e-14)

    def test_divergence_raises(self, single_shift_spec):
        with pytest.raises(SpecError):
            scalar_kernel(single_shift_spec, None, (1.2,), (1.2,))

    def test_requires_single_generator(self, two_gen_ball_spec):
        with pytest.raises(SpecError):
            scalar_kernel(two_gen_ball_spec, None, (0.1,), (0.1,))

    def test_gram_agreement(self, single_shift_spec):
        r = 0.5
        val = scalar_kernel(single_shift_spec, None, (r,), (r,))
        approx, bound = truncated_gram_kernel(single_shift_spec, None, (r,), (r,), (30,))
        assert bound < 1e-8
        assert abs(val - approx) <= bound

    def test_gram_agreement_two_factors(self, rng):
        for _ in range(5):
            spec = random_spec(rng, k=2, max_n=1, max_deg=2)
            z = tuple(0.3 * np.exp(2j * np.pi * rng.random()) for _ in range(2))
            w = tuple(0.3 * np.exp(2j * np.pi * rng.random()) for _ in range(2))
            val = scalar_kernel(spec, None, z, w)
            approx, bound = truncated_gram_kernel(spec, None, z, w, (30, 30))
            assert np.isfinite(bound)
            assert abs(val - approx) <= bound + 1e-15


def test_basis_round_trip(rng):
    spec = random_spec(rng, k=2, max_n=2)
    space = FockSpace(spec, (2, 3))
    for idx in range(space.dim):
        assert space.index_of(space.multiword_at(idx)) == idx


def test_safe_mask_counts(bergman2_spec):
    space = FockSpace(bergman2_spec, (4,))
    assert space.safe_mask((0,)).sum() == 5
    assert space.safe_mask((2,)).sum() == 3

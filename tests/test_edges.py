"""Degenerate and boundary configurations."""

import numpy as np

from polytoeplitz.brownhalmos import bh_residual, build_row
from polytoeplitz.cpmaps import UniversalModel, defect
from polytoeplitz.freemonoid import Word
from polytoeplitz.linalg import as_dense
from polytoeplitz.model import FockSpace
from polytoeplitz.toeplitz import (
    evaluate_at_model,
    extract_fourier,
    is_multi_toeplitz,
    random_symbol,
)
from polytoeplitz.weights import brute_force_weight, build_weight_table

from conftest import make_spec


def test_support_degree_beyond_truncation():
    # f = z + 0.7 z^3 truncated at degree 2: weights ignore the unreachable
    # term, the clipped row column vanishes, identities stay exact
    spec = make_spec(1, (1,), (2,), [(1, (1,), 1.0), (1, (1, 1, 1), 0.7)])
    table = build_weight_table(spec, (2,))
    for p in range(3):
        w = Word((1,) * p, 1)
        assert abs(table.b(0, w) - brute_force_weight(spec, 0, w)) < 1e-13
    space = FockSpace(spec, (2,))
    W = UniversalModel(space)
    # the defect's diagonal against the vacuum projection's, e_0
    vac = np.zeros(3)
    vac[0] = 1.0
    assert np.abs(defect(W, spec.m) - vac).max() < 1e-12
    row = build_row(space, 0)
    n = space.total_dim
    assert row.shape == (n, 2 * n)
    assert np.abs(as_dense(row)[:, n:]).max() == 0.0


def test_minimal_truncation(rng):
    spec = make_spec(1, (1,), (1,), [(1, (1,), 0.5)])
    space = FockSpace(spec, (1,))
    T = evaluate_at_model(random_symbol(space, rng, n_monomials=2))
    assert is_multi_toeplitz(T).verdict
    assert bh_residual(T, 0) < 1e-12
    back = extract_fourier(T, is_multi_toeplitz(T))
    again = evaluate_at_model(back)
    assert np.abs(again.dense - T.dense).max() < 1e-13


def test_three_dimensional_coefficients(rng):
    spec = make_spec(
        2,
        (2, 1),
        (1, 3),
        [(1, (1,), 1.0), (1, (2,), 0.4), (2, (1,), 0.9), (2, (1, 1), 0.2)],
    )
    space = FockSpace(spec, (2, 2), coeff_dim=3)
    sym = random_symbol(space, rng, n_monomials=7)
    T = evaluate_at_model(sym)
    assert is_multi_toeplitz(T).verdict
    back = extract_fourier(T, is_multi_toeplitz(T))
    assert np.array_equal(back.classes, sym.classes)
    assert np.abs(back.coeffs - sym.coeffs).max() < 1e-12
    for i in range(2):
        assert bh_residual(T, i) < 1e-9


def test_zero_higher_coefficient_allowed():
    spec = make_spec(1, (2,), (1,), [(1, (1,), 1.0), (1, (2,), 0.3), (1, (1, 2), 0.0)])
    table = build_weight_table(spec, (3,))
    assert table.b(0, Word((1, 2), 2)) > 0.0
    space = FockSpace(spec, (3,))
    row = build_row(space, 0)
    # zero coefficients contribute no column block
    assert row.shape[1] // row.shape[0] == 2

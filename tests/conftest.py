import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import settings

from polytoeplitz.freemonoid import Word
from polytoeplitz.model import FockOperator
from polytoeplitz.weights import PolydomainSpec

# Hypothesis draws the same examples on every run, seeded from each test, so a
# failing draw fails again on the next run; the per-test @settings inherit
# this.  ``pytest --hypothesis-profile=fresh`` draws afresh instead.
settings.register_profile("derandomized", derandomize=True)
settings.register_profile("fresh", derandomize=False)
settings.load_profile("derandomized")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def single_shift_spec():
    """k=1, one generator, f = z."""
    return PolydomainSpec(k=1, n=(1,), m=(1,), coeffs=({Word((1,), 1): 1.0},))


def fock_identity(space):
    """The identity on ``K (x) Fock`` as a CSR operator."""
    return FockOperator(space, sp.identity(space.total_dim, format="csr", dtype=complex))


def make_spec(k, n, m, entries):
    """entries: list of (factor 1-based, letters tuple, value)."""
    maps = [dict() for _ in range(k)]
    for i, letters, a in entries:
        maps[i - 1][Word(tuple(letters), n[i - 1])] = a
    return PolydomainSpec(k=k, n=tuple(n), m=tuple(m), coeffs=tuple(maps))


@pytest.fixture
def bergman2_spec():
    """k=1, one generator, f = z, order 2 (weights 1,2,3,...)."""
    return make_spec(1, (1,), (2,), [(1, (1,), 1.0)])


@pytest.fixture
def two_gen_ball_spec():
    """k=1, two generators, f = Z1 + Z2, order 1 (all weights 1)."""
    return make_spec(1, (2,), (1,), [(1, (1,), 1.0), (1, (2,), 1.0)])

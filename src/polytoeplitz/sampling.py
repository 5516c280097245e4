"""Random instance generators shared by the verification battery and tests."""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import linalg
from .freemonoid import Word, enumerate_words
from .weights import PolydomainSpec

__all__ = ["random_spec", "ones_series_spec"]


def random_spec(
    rng: np.random.Generator,
    k: Optional[int] = None,
    max_n: int = 2,
    max_m: int = 3,
    max_deg: int = 2,
) -> PolydomainSpec:
    """A random polydomain spec: generators always present, higher words by coin flip."""
    if k is None:
        k = int(rng.integers(1, 3))
    n = tuple(int(rng.integers(1, max_n + 1)) for _ in range(k))
    m = tuple(int(rng.integers(1, max_m + 1)) for _ in range(k))
    coeffs = []
    for i in range(k):
        cmap: dict[Word, float] = {}
        for j in range(1, n[i] + 1):
            cmap[Word((j,), n[i])] = float(rng.uniform(0.05, 2.0))
        if max_deg >= 2:
            for w in enumerate_words(n[i], max_deg):
                if len(w) >= 2 and rng.random() < 0.5:
                    cmap[w] = float(rng.uniform(0.0, 2.0))
        coeffs.append(cmap)
    return PolydomainSpec(k=k, n=n, m=m, coeffs=tuple(coeffs))


def ones_series_spec(m: int, degree: int) -> PolydomainSpec:
    """Single-variable spec whose series has every coefficient equal to one.

    The weights then depend only on word length, for any alphabet size, so
    the one-generator table stands in for the general all-ones series.
    """
    return PolydomainSpec(
        k=1,
        n=(1,),
        m=(m,),
        coeffs=({Word((1,) * p, 1): 1.0 for p in range(1, degree + 1)},),
    )


def normal_blocks(rng: np.random.Generator, count: int, r: int) -> np.ndarray:
    """``count`` complex Gaussian ``(r, r)`` blocks, each divided by ``max(1, its 2-norm)`` (:func:`linalg.block_norms`).

    Each block's real then imaginary parts, block after block, are one draw
    of ``(count, 2, r, r)`` normals.
    """
    z = rng.standard_normal((count, 2, r, r))
    blocks = z[:, 0] + 1j * z[:, 1]
    blocks /= np.fmax(1.0, linalg.block_norms(blocks))[:, None, None]
    return blocks

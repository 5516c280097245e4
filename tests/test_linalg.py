import io
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from polytoeplitz import linalg
from polytoeplitz.errors import DimensionMismatch, NumericalRankError, SpecError
from polytoeplitz.linalg import (
    Entries,
    adjoint,
    herm_sqrt,
    hermitize,
    load_matrix,
    lookup,
    norm_bracket,
    op_norm,
    pinv_on_range,
    psd_check,
    save_matrix,
    sorted_unique,
    stored_entries,
)

from oracles import csr


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestPsdCheck:
    def test_identity(self):
        ok, lo = psd_check(np.eye(3))
        assert ok and lo == pytest.approx(1.0)

    def test_indefinite(self):
        ok, lo = psd_check(np.diag([1.0, -1.0]))
        assert not ok and lo == pytest.approx(-1.0)

    def test_gram_matrices(self, rng):
        for _ in range(10):
            B = random_complex(rng, (6, 6))
            ok, _ = psd_check(B.conj().T @ B)
            assert ok

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatch):
            psd_check(np.ones((2, 3)))


def blocks_past_cutoff(rng, n, largest, kind):
    """A side-``n`` matrix of random blocks at most ``largest`` wide, some rows empty, under one permutation.

    ``kind`` fills the blocks: ``"gram"`` (PSD, each with a zero eigenvalue),
    ``"hermitian"`` (indefinite) or ``"general"`` (psd_check reads its
    Hermitian part).
    """
    m = np.zeros((n, n), dtype=complex)
    at = 0
    while at < n - 10:
        size = min(int(rng.integers(1, largest + 1)), n - 10 - at)
        B = random_complex(rng, (size, size))
        if kind == "gram":
            B[:, -1] = 0
            B = B @ B.conj().T
        elif kind == "hermitian":
            B = B + B.conj().T
        m[at:at + size, at:at + size] = B
        at += size
    perm = rng.permutation(n)
    return m[perm][:, perm]


class TestPsdCheckPastTheCutoff:
    """Past the dense cutoff psd_check splits into blocks as below it: no eigvalsh wider than a block."""

    @pytest.fixture
    def narrow_eigvalsh(self, monkeypatch):
        eigvalsh = np.linalg.eigvalsh
        widest = [0]

        def narrow(a, *args, **kwargs):
            assert np.shape(a)[-1] <= widest[0], f"eigvalsh on a side of {np.shape(a)[-1]}"
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", narrow)
        return widest

    @pytest.mark.parametrize("kind", ["gram", "hermitian", "general"])
    def test_matches_the_dense_eigvalsh(self, rng, narrow_eigvalsh, kind):
        for n, largest in ((601, 7), (900, 30), (1200, 60)):
            m = blocks_past_cutoff(rng, n, largest, kind)
            narrow_eigvalsh[0] = n
            eigs = np.linalg.eigvalsh(hermitize(m))
            narrow_eigvalsh[0] = largest
            scale = max(1.0, float(np.abs(eigs).max()))
            for tol in (1e-9, 0.0):
                expected = eigs[0] >= -tol * max(1.0, eigs[-1])
                for mat in (m, sp.csr_matrix(m)):
                    verdict, lo = psd_check(mat, tol)
                    assert abs(lo - eigs[0]) <= 1e-12 * scale, (n, kind)
                    if abs(eigs[0] + tol * max(1.0, eigs[-1])) > 1e-12 * scale:
                        assert verdict == expected, (n, kind, tol)

    def test_zero_and_nan_keep_their_answers(self, narrow_eigvalsh):
        narrow_eigvalsh[0] = 1
        n = 700
        for mat in (np.zeros((n, n)), sp.csr_matrix((n, n))):
            assert psd_check(mat) == (True, 0.0)
        m = np.eye(n, dtype=complex)
        m[n // 2, n // 3] = np.nan
        for mat in (m, sp.csr_matrix(m)):
            ok, lo = psd_check(mat)
            assert ok is False and np.isnan(lo)


def path_matrix(n):
    """The tridiagonal ``2I - shift - shift^*``, PSD and one connected block of side ``n``."""
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csr", dtype=complex)


class TestMemoryGuard:
    """Past the cutoff the block stacks are counted against MemAvailable before any is built."""

    N = 1000
    # one stack of side 1000: the stacks, and as much again plus twice the largest
    NEED = 2 * 16 * (N * N + N * N)

    def test_refuses_before_building_a_stack(self, monkeypatch):
        monkeypatch.setattr(linalg, "_mem_available", lambda: self.NEED - 1)
        mat = path_matrix(self.N)
        for call in (psd_check, pinv_on_range):
            tracemalloc.start()
            try:
                with pytest.raises(MemoryError) as exc:
                    call(mat)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            message = str(exc.value)
            assert f"take up to {self.NEED} bytes" in message and f"the {self.NEED - 1} bytes" in message
            # the one stack alone takes 16 MB
            assert peak < 16 * self.N * self.N // 4, peak

    def test_exactly_enough_or_an_unreadable_figure_runs(self, monkeypatch):
        mat = path_matrix(self.N)
        expected = float(np.linalg.eigvalsh(mat.toarray())[0])
        for available in (self.NEED, None):
            monkeypatch.setattr(linalg, "_mem_available", lambda: available)
            ok, lo = psd_check(mat)
            assert ok and abs(lo - expected) <= 1e-12
            assert abs(csr(pinv_on_range(mat)) @ mat - sp.eye(self.N)).max() < 1e-8

    def test_not_read_at_or_below_the_cutoff(self, rng, monkeypatch):
        def refuse():
            raise AssertionError("MemAvailable read below the cutoff")

        monkeypatch.setattr(linalg, "_mem_available", refuse)
        m = blocks_past_cutoff(rng, 600, 20, "gram")
        for mat in (m, sp.csr_matrix(m), path_matrix(600)):
            assert psd_check(mat)[0]
        pinv_on_range(path_matrix(600))

    def test_mem_available_reads_meminfo(self):
        available = linalg._mem_available()
        assert available is None or available > 0


class TestComponents:
    """The numpy labeller behind the block split; scipy is its oracle in test_crosschecks."""

    def test_components_are_numbered_by_their_lowest_node(self):
        a, b = np.array([5, 4, 1, 6]), np.array([3, 0, 4, 6])
        assert linalg._components(7, a, b).tolist() == [0, 0, 1, 2, 0, 2, 3]

    def test_no_node_or_no_edge(self):
        none = np.zeros(0, dtype=np.int64)
        assert linalg._components(0, none, none).size == 0
        assert linalg._components(4, none, none).tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_labels_a_long_path_within_50_ms(self, reverse):
        # the side of the `wide` space at L=8 (dim 261121), joined into one chain
        # of hooks as deep as it is long; best of five against a noisy machine
        n = 511**2
        a, b = np.arange(n - 1), np.arange(1, n)
        if reverse:
            a, b = b, a
        times = []
        for _ in range(5):
            start = time.perf_counter()
            labels = linalg._components(n, a, b)
            times.append(time.perf_counter() - start)
        assert not labels.any()
        assert min(times) < 0.05, times


class TestOpNorm:
    def test_zero(self):
        assert op_norm(np.zeros((3, 3))) == 0.0

    def test_zero_above_dense_cutoff(self):
        # Lanczos cannot start from a zero matrix; the norm is answered directly
        n = 700
        stored_zeros = sp.csr_matrix((np.zeros(3), ([0, 1, 2], [2, 1, 0])), shape=(n, n))
        for mat in (np.zeros((n, n)), sp.csr_matrix((n, n)), stored_zeros):
            assert op_norm(mat) == 0.0

    def test_single_entry_above_dense_cutoff(self):
        n = 700
        mat = sp.csr_matrix(([-2.5], ([3], [600])), shape=(n, n))
        assert op_norm(mat) == pytest.approx(2.5, rel=1e-12)
        assert op_norm(mat.toarray()) == pytest.approx(2.5, rel=1e-12)

    def test_sparse_diagonal_above_dense_cutoff_is_exact(self, rng):
        # the largest entry modulus is the exact norm of a diagonal matrix
        n = 700
        d = random_complex(rng, (n,))
        mat = sp.diags(d, format="csr")
        assert op_norm(mat) == np.abs(d).max()
        assert abs(op_norm(mat) - np.linalg.norm(mat.toarray(), 2)) <= 1e-12
        # duplicate diagonal entries are summed first; explicit zeros are harmless
        dup = sp.coo_matrix(
            (np.array([1.0, 2.0 - 1j, 0.0]), ([5, 5, 7], [5, 5, 7])), shape=(n, n)
        )
        assert op_norm(dup) == abs(3.0 - 1j)
        assert abs(op_norm(dup) - np.linalg.norm(dup.toarray(), 2)) <= 1e-12

    def test_unitary(self, rng):
        B = random_complex(rng, (5, 5))
        q, _ = np.linalg.qr(B)
        assert op_norm(q) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert op_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0)

    def test_sparse_large_matches_dense(self, rng):
        d = np.zeros((700, 700))
        idx = rng.integers(0, 700, size=300)
        d[idx, (idx + 1) % 700] = rng.standard_normal(300)
        smat = sp.csr_matrix(d)
        assert op_norm(smat) == pytest.approx(np.linalg.norm(d, 2), rel=1e-8)

    def test_short_side_takes_the_direct_dense_norm(self, rng, monkeypatch):
        # a side of at most 8 is answered by one dense call at any length
        def refuse(*args, **kwargs):
            raise AssertionError("Lanczos called on a matrix with a short side")

        monkeypatch.setattr(sp.linalg, "svds", refuse)
        for shape in ((700, 8), (3, 900)):
            m = random_complex(rng, shape)
            for mat in (m, sp.csr_matrix(m)):
                assert op_norm(mat) == np.linalg.norm(m, 2)

    def test_block_norms_are_each_blocks_op_norm_to_the_bit(self, rng):
        # side <= 8 with signed zeros, and past it with no zero entry
        for c, count in ((1, 10), (3, 40), (8, 40), (12, 3)):
            stack = random_complex(rng, (count, c, c))
            if c <= 8:
                stack[rng.random(stack.shape) < 0.3] = complex(-0.0, -0.0)
            norms = linalg.block_norms(stack)
            assert norms.tobytes() == np.array([op_norm(b) for b in stack]).tobytes()


def bracket_cases(rng):
    """Matrices past the 600 cutoff: random sparse, rectangular, diagonal and zero, as CSR and dense."""
    for shape in ((601, 601), (1200, 700), (650, 1200)):
        m = sp.random(*shape, density=0.004, random_state=rng, format="csr")
        m.data = m.data * rng.standard_normal(m.nnz) + 1j * rng.standard_normal(m.nnz)
        yield m
    yield sp.diags(random_complex(rng, (900,)), format="csr")
    # a dense array whose columns have one 2-norm each, far below Schur's bound
    yield random_complex(rng, (610, 640))
    yield sp.csr_matrix((750, 750))
    yield np.zeros((601, 610))


class TestNormBracket:
    @pytest.fixture(autouse=True)
    def no_lanczos(self, monkeypatch):
        # past the cutoff the bracket is one pass over the entries
        def refuse(*args, **kwargs):
            raise AssertionError("Lanczos called for a norm bracket")

        monkeypatch.setattr(sp.linalg, "svds", refuse)

    def test_brackets_the_dense_norm(self, rng):
        for mat in bracket_cases(rng):
            lo, hi = norm_bracket(mat)
            m = mat.toarray() if sp.issparse(mat) else mat
            norm = float(np.linalg.svd(m, compute_uv=False).max(initial=0.0))
            # the dense SVD itself rounds: allow it a few ulp of the norm
            slack = 1e-13 * norm
            assert lo - slack <= norm <= hi + slack, mat.shape
            assert 0.0 <= lo <= hi

    def test_zero_and_diagonal_are_exact(self, rng):
        n = 700
        d = random_complex(rng, (n,))
        assert norm_bracket(sp.diags(d, format="csr")) == (np.abs(d).max(),) * 2
        assert norm_bracket(sp.csr_matrix((n, n))) == (0.0, 0.0)

    def test_at_or_below_the_cutoff_it_is_op_norm(self, rng):
        for shape in ((600, 600), (20, 30), (700, 8), (3, 900)):
            m = random_complex(rng, shape)
            m[rng.random(shape) < 0.9] = 0.0
            for mat in (m, sp.csr_matrix(m)):
                assert norm_bracket(mat) == (op_norm(mat),) * 2, shape

    def test_stored_zeros_and_duplicates(self):
        # duplicates are summed before the bounds; explicit zeros add nothing
        n = 700
        mat = sp.coo_matrix(
            (np.array([1.0, 2.0 - 1j, 0.0, 4.0]), ([5, 5, 7, 9], [5, 5, 8, 9])), shape=(n, n)
        )
        assert norm_bracket(mat) == (4.0, 4.0)


def nonfinite_inputs(bad):
    """Matrices holding one ``bad`` entry: dense and CSR, at 1x1, on the block path and above the 600 cutoff."""
    for n in (1, 20, 601):
        m = np.zeros((n, n), dtype=complex)
        m[np.arange(n), np.arange(n)] = 1.0
        m[np.arange(n - 1), np.arange(1, n)] = 0.5
        m[n // 2, n // 2] = bad
        yield m
        yield sp.csr_matrix(m)


class TestNonFinite:
    @pytest.fixture(autouse=True)
    def no_solvers(self, monkeypatch):
        # the answer must come without an SVD, eigensolver or Lanczos call
        def refuse(*args, **kwargs):
            raise AssertionError("solver called on a non-finite input")

        for name in ("svd", "eigvalsh", "eigh", "norm"):
            monkeypatch.setattr(np.linalg, name, refuse)
        monkeypatch.setattr(sp.linalg, "svds", refuse)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), complex(1.0, np.nan)])
    def test_op_norm_is_nan(self, bad):
        for m in nonfinite_inputs(bad):
            assert np.isnan(op_norm(m)), m.shape

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), complex(1.0, np.nan)])
    def test_psd_check_fails_with_nan(self, bad):
        for m in nonfinite_inputs(bad):
            ok, lo = psd_check(m)
            assert ok is False and np.isnan(lo), m.shape

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), complex(1.0, np.nan)])
    def test_pinv_on_range_rejects(self, bad):
        for m in nonfinite_inputs(bad):
            with pytest.raises(SpecError):
                pinv_on_range(m)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf), complex(1.0, np.nan)])
    def test_norm_bracket_is_nan(self, bad):
        for m in nonfinite_inputs(bad):
            lo, hi = norm_bracket(m)
            assert np.isnan(lo) and np.isnan(hi), m.shape

    def test_rectangular_dense_nan(self):
        assert np.isnan(op_norm(np.array([[1.0, np.nan, 0.0]])))


class TestHermSqrt:
    def test_identity(self):
        assert np.allclose(herm_sqrt(np.eye(4)), np.eye(4))

    def test_diagonal(self):
        assert np.allclose(herm_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_square_recovers(self, rng):
        B = random_complex(rng, (7, 7))
        M = B @ B.conj().T
        R = herm_sqrt(M)
        assert np.abs(R @ R - M).max() < 1e-10 * max(1.0, np.abs(M).max())

    def test_clamps_tiny_negatives(self):
        M = np.diag([1.0, -1e-12])
        R = herm_sqrt(M)
        assert R[1, 1] == 0.0

    def test_rejects_genuinely_negative(self):
        with pytest.raises(SpecError):
            herm_sqrt(np.diag([1.0, -0.5]))


class TestPinvOnRange:
    def test_invertible(self, rng):
        B = random_complex(rng, (5, 5))
        M = B @ B.conj().T + np.eye(5)
        assert np.abs(linalg.as_dense(pinv_on_range(M)) @ M - np.eye(5)).max() < 1e-10

    def test_projection_fixed(self):
        P = np.diag([1.0, 1.0, 0.0])
        assert np.allclose(linalg.as_dense(pinv_on_range(P)), P)

    def test_m_pinv_m(self, rng):
        B = random_complex(rng, (6, 3))
        M = B @ B.conj().T  # rank 3 PSD
        pinv = linalg.as_dense(pinv_on_range(M))
        assert np.abs(M @ pinv @ M - M).max() < 1e-9

    def test_ambiguous_rank_raises(self):
        M = np.diag([1.0, 3e-12])
        with pytest.raises(NumericalRankError):
            pinv_on_range(M, rank_tol=1e-12)


def signed_zero_hermitian(rng, n):
    """A Hermitian ``(n, n)`` array with about half its off-diagonal pairs zero, every zero ``-0.0 - 0.0j``."""
    a = random_complex(rng, (n, n))
    h = a @ a.conj().T if rng.random() < 0.5 else a + a.conj().T
    gone = np.triu(rng.random((n, n)) < 0.5, 1)
    h[gone | gone.T] = 0.0
    return np.where(h == 0, complex(-0.0, -0.0), h)


def test_short_side_spectra_read_a_signed_zero_as_its_csr_copy(rng):
    # the CSR copy stores no zeros, so the direct path must not see the sign
    # of the dense array's zeros; at side <= 8 both take it
    def bits(x):
        return linalg.as_dense(x).tobytes()

    for _ in range(100):
        h = signed_zero_hermitian(rng, int(rng.integers(2, 9)))
        csr = sp.csr_matrix(h)
        assert bits(psd_check(h)[1]) == bits(psd_check(csr)[1])
        assert bits(op_norm(h)) == bits(op_norm(csr))
        try:
            expected = bits(pinv_on_range(csr, rank_tol=1e-10))
        except NumericalRankError:
            continue
        assert bits(pinv_on_range(h, rank_tol=1e-10)) == expected


class TestAdjoint:
    def test_involution(self, rng):
        A = random_complex(rng, (4, 6))
        assert np.array_equal(adjoint(adjoint(A)), A)

    def test_product_rule(self, rng):
        A = random_complex(rng, (4, 5))
        B = random_complex(rng, (5, 3))
        assert np.abs(adjoint(A @ B) - adjoint(B) @ adjoint(A)).max() < 1e-13

    def test_norm_submultiplicative(self, rng):
        A = random_complex(rng, (5, 5))
        B = random_complex(rng, (5, 5))
        assert op_norm(A @ B) <= op_norm(A) * op_norm(B) + 1e-10


class TestMatrixFile:
    def test_round_trip_lossless(self, rng):
        A = random_complex(rng, (5, 7))
        A[rng.random((5, 7)) < 0.4] = 0.0
        buf = io.StringIO()
        save_matrix(buf, A)
        buf.seek(0)
        B = linalg.as_dense(load_matrix(buf))
        assert np.array_equal(A, B)

    def test_header_and_layout(self):
        buf = io.StringIO()
        save_matrix(buf, np.array([[0.0, 1.5 + 2.5j]]))
        lines = buf.getvalue().splitlines()
        assert lines[0] == "1 2 1"
        assert lines[1] == "0 1 1.5 2.5"

    def test_sparse_input(self, rng):
        A = sp.random(40, 40, density=0.05, random_state=7, dtype=float)
        buf = io.StringIO()
        save_matrix(buf, A)
        buf.seek(0)
        B = load_matrix(buf)
        assert np.abs(A.toarray() - linalg.as_dense(B)).max() == 0.0

    def test_malformed_header(self):
        with pytest.raises(DimensionMismatch):
            load_matrix(io.StringIO("1 2\n"))

    def test_entry_outside_shape(self):
        with pytest.raises(DimensionMismatch):
            load_matrix(io.StringIO("1 1 1\n0 3 1.0 0.0\n"))

    def test_duplicate_lines_sum_in_file_order_and_zeros_are_kept(self):
        # pinned as scipy's COO to CSR conversion read this file: duplicate
        # lines summed in file order (0.1 + 0.2 + 0.3 is 0.6000000000000001,
        # not 0.6), a sum of zero and an explicit 0 0 kept, and a -0 real part
        # kept in the entries but written back as -0
        text = (
            "3 4 9\n2 1 0.5 -0\n0 3 1.25 2\n2 1 0.25 0\n1 0 0 0\n0 3 -1.25 -2\n1 2 -0 -0\n"
            "0 0 0.1 -0.5\n0 0 0.2 0\n0 0 0.3 0\n"
        )
        loaded = load_matrix(io.StringIO(text))
        keys, vals = stored_entries(loaded)
        assert loaded.shape == (3, 4)
        assert keys.tolist() == [0, 3, 4, 6, 9]
        assert vals.view(np.uint64).tolist() == [
            4603579539098121012, 13826050856027422720, 0, 0, 0, 0, 9223372036854775808, 0, 4604930618986332160, 0,
        ]
        buf = io.StringIO()
        save_matrix(buf, loaded)
        assert buf.getvalue() == "3 4 5\n0 0 0.60000000000000009 -0.5\n0 3 0 0\n1 0 0 0\n1 2 -0 0\n2 1 0.75 0\n"

    def test_rejects_a_sum_of_lines_past_the_largest_double_by_its_first_line(self):
        # (2, 2) and (0, 0) both sum to inf; (2, 2) comes first in the file, (0, 0) in key order
        text = "3 3 5\n1 1 1 0\n2 2 1e308 0\n0 0 -1e308 1\n0 0 -1e308 1\n2 2 1e308 0\n"
        with pytest.raises(SpecError, match=r"^matrix file: non-finite value \(inf\+0j\) on line 3$"):
            load_matrix(io.StringIO(text))

    @pytest.mark.parametrize("entry", ["nan 0", "0 inf", "-inf 1", "1e400 0", "0 -1e999"])
    def test_rejects_non_finite_values(self, entry):
        text = f"3 3 2\n0 0 1 0\n1 2 {entry}\n"
        with pytest.raises(SpecError, match="non-finite value .* on line 3"):
            load_matrix(io.StringIO(text))


def summed_coo(mat):
    """A COO copy of ``mat`` after scipy's ``sum_duplicates``; a dense input keeps its nonzero entries."""
    coo = sp.coo_matrix(mat, copy=True)
    coo.sum_duplicates()
    return coo


def reader_cases(rng):
    """``(name, matrix)`` for every kind of input the reader takes."""
    dense = random_complex(rng, (5, 7))
    dense[rng.random((5, 7)) < 0.5] = 0
    yield "dense", dense
    yield "dense real", dense.real.copy()
    yield "canonical csr", sp.csr_matrix(dense)
    yield "csc", sp.csc_matrix(dense)
    # unsorted, with duplicates (two and three deep) and explicit zeros
    rows = np.array([4, 0, 2, 0, 2, 3, 4, 1, 0, 3])
    cols = np.array([6, 1, 0, 1, 0, 5, 2, 2, 1, 4])
    vals = np.array([1.5, 2 - 1j, 0.25j, -3, 4.0, 0.0, -0.5, 1j, 0.125, 0.0])
    yield "unsorted coo with duplicates and zeros", sp.coo_matrix((vals, (rows, cols)), shape=(5, 7))
    yield "csr with duplicates", sp.csr_matrix((vals, cols, [0, 3, 4, 6, 8, 10]), shape=(5, 7))
    yield "empty sparse", sp.csr_matrix((0, 4), dtype=complex)
    yield "all-zero dense", np.zeros((3, 2), dtype=complex)
    yield "tall", sp.random(40, 3, density=0.3, format="csr", rng=rng)


class TestStoredEntries:
    def test_reader_matches_coo_sum_duplicates(self, rng):
        for name, mat in reader_cases(rng):
            before = mat.copy()
            keys, vals = stored_entries(mat)
            coo = summed_coo(mat)
            want_keys, want_vals = coo.row.astype(np.int64) * mat.shape[1] + coo.col, coo.data.astype(complex)
            assert keys.dtype == np.int64 and vals.dtype == complex, name
            assert np.array_equal(keys, want_keys), name
            assert np.array_equal(vals.view(float), want_vals.view(float)), name
            assert np.all(np.diff(keys) > 0), name
            # the input keeps its entries
            if sp.issparse(mat):
                assert (mat != before).nnz == 0 and mat.nnz == before.nnz, name
            else:
                assert np.array_equal(mat, before), name

    def test_duplicates_are_summed_and_explicit_zeros_kept(self):
        mat = sp.coo_matrix(([1.0, 2.0, 0.0, 3.0], ([1, 0, 0, 1], [1, 2, 0, 1])), shape=(2, 3))
        keys, vals = stored_entries(mat)
        assert keys.tolist() == [0, 2, 4]
        assert vals.tolist() == [0.0, 2.0, 4.0]

    def test_writer_round_trips_to_the_canonical_csr(self, rng):
        # the stored entries are a canonical CSR matrix's, in its order; an
        # Entries hands back its own arrays and reads densely as scipy does
        for name, mat in reader_cases(rng):
            keys, vals = stored_entries(mat)
            entries = Entries(keys, vals, mat.shape)
            got_keys, got_vals = stored_entries(entries)
            assert got_keys is keys and got_vals is vals, name
            got = csr(entries)
            want = summed_coo(mat).tocsr()
            assert got.shape == mat.shape, name
            assert np.array_equal(got.indptr, want.indptr), name
            assert np.array_equal(got.indices, want.indices), name
            assert np.array_equal(got.data, want.data.astype(complex)), name
            dense = np.asarray(want.toarray(), dtype=complex)
            assert linalg.as_dense(entries).tobytes() == dense.tobytes(), name

    def test_sorted_unique_and_lookup(self, rng):
        keys = rng.integers(0, 50, size=200)
        uniq = sorted_unique(keys)
        assert np.array_equal(uniq, np.unique(keys))
        want = np.arange(-3, 55)
        pos, hit = lookup(uniq, want)
        assert np.array_equal(hit, np.isin(want, keys))
        assert np.array_equal(uniq[pos[hit]], want[hit])
        assert np.all(pos <= uniq.size)
        pos, hit = lookup(np.zeros(0, dtype=np.int64), want)
        assert not hit.any()


import math

import numpy as np
import pytest

from altproj import linalg
from altproj.projector import build, least_squares_set

from helpers import canonical_controlled, canonical_random
from reference import sym_eig


def frob(a):
    return np.linalg.norm(a)


class TestOrthonormalize:
    def test_identity_unchanged(self):
        b = linalg.orthonormalize(np.eye(2))
        assert np.allclose(b.T @ b, np.eye(2), atol=1e-14)
        assert b.shape == (2, 2)

    def test_normalization_only(self):
        b = linalg.orthonormalize(np.array([[2.0], [0.0]]))
        assert np.allclose(np.abs(b), [[1.0], [0.0]], atol=1e-14)

    def test_rank_deficient_collapses(self):
        # two identical directions span a single line
        b = linalg.orthonormalize(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert b.shape == (2, 1)
        assert np.allclose(np.abs(b[:, 0]), [1 / np.sqrt(2)] * 2, atol=1e-14)

    def test_rank_deficient_basis_is_contiguous(self):
        # the kept columns of the SVD's factor, sliced, would be strided
        b = linalg.orthonormalize(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        assert b.shape == (3, 2) and b.flags.c_contiguous

    def test_rank_cutoff_is_relative(self):
        # singular values ~1.4 and ~7e-7: kept at the relative cutoff
        # RANK_TOL = 1e-10, at every scale of the data
        columns = np.array([[1.0, 1.0], [0.0, 1e-6]])
        assert linalg.RANK_TOL == 1e-10
        for j in (-500, 0, 500):
            assert linalg.orthonormalize(2.0 ** j * columns).shape == (2, 2)

    @pytest.mark.parametrize("value", ["1e-3", "not-a-number"])
    def test_rank_cutoff_reads_no_environment_variable(self, monkeypatch, value):
        # ALTPROJ_TOL once set the cutoff: 1e-3 dropped the second column,
        # and a value that is not a number failed every call
        monkeypatch.setenv("ALTPROJ_TOL", value)
        columns = np.array([[1.0, 1.0], [0.0, 1e-6]])
        assert linalg.orthonormalize(columns).shape == (2, 2)
        assert linalg.orthogonal_complement(columns).shape == (2, 0)

    def test_zero_columns_give_empty_basis(self):
        assert linalg.orthonormalize(np.zeros((3, 2))).shape == (3, 0)
        assert linalg.orthonormalize(np.zeros((3, 0))).shape == (3, 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_same_column_space(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((7, 4))
        b = linalg.orthonormalize(a)
        assert frob(b.T @ b - np.eye(b.shape[1])) < 1e-12
        # mutual projection residuals: each spans the other
        assert frob(a - b @ (b.T @ a)) < 1e-10 * frob(a)
        pa = np.linalg.lstsq(a, b, rcond=None)[0]
        assert frob(b - a @ pa) < 1e-10


class TestSvd:
    """The package's one factorization, :func:`linalg.sine_svd`: the thin SVD
    of R = a - b (b^T a), whose singular values are the principal sines."""

    def test_identity(self):
        # b empty: R = a, every sine is 1
        x, s, yt = linalg.sine_svd(np.eye(3), np.zeros((3, 0)))
        assert np.allclose(s, 1.0)
        assert np.allclose((x * s) @ yt, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        # b = e1 removes the first column of a = [e1, e2]
        _, s, _ = linalg.sine_svd(np.eye(3)[:, :2], np.eye(3)[:, :1])
        assert np.allclose(s, [1.0, 0.0])

    def test_permutation(self):
        # a permuted basis of the plane orthogonal to b
        _, s, _ = linalg.sine_svd(np.eye(3)[:, [1, 0]], np.eye(3)[:, 2:])
        assert np.allclose(s, [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        a = linalg.orthonormalize(rng.standard_normal((6, 3)))
        b = linalg.orthonormalize(rng.standard_normal((6, 2)))
        x, s, yt = linalg.sine_svd(a, b)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0) and np.all(s <= 1.0 + 1e-14)
        r = a - b @ (b.T @ a)
        assert frob(r - (x * s) @ yt) <= 1e-12
        assert frob(x.T @ x - np.eye(3)) < 1e-12 and frob(yt @ yt.T - np.eye(3)) < 1e-12
        # sines of the principal angles whose cosines are the singular
        # values of a^T b; the k_a - k_b sines with no cosine equal 1
        cos = np.linalg.svd(a.T @ b, compute_uv=False)
        assert np.allclose(s[::-1][:2]**2 + cos**2, 1.0, atol=1e-12)
        assert np.allclose(s[::-1][2:], 1.0, atol=1e-12)


class TestPinv:
    """The Moore-Penrose pseudo-inverse of the restricted operator, which the
    package never forms as a matrix: :func:`least_squares_set` applies it to
    the data from the stored factorization, dropping the sines at or below
    the null-space cutoff. Its identities are checked on the assembled map
    from coordinates of the data to coordinates of the minimum-norm
    solution."""

    @staticmethod
    def pseudo_inverse(q, b):
        # data: the V-perp part of each codomain column (the column of a
        # zero sine need not lie in V-perp), for B the basis *b* of V; its
        # coordinates are e_j on the columns of the sines above the cutoff
        x, a = q.codomain_basis, q.domain_basis
        data = x - b @ (b.T @ x)
        return np.column_stack([a.T @ least_squares_set(q, data[:, j]).min_norm_solution
                                for j in range(x.shape[1])])

    def test_identity(self):
        # U orthogonal to V: the operator is the identity on U
        g = canonical_controlled([np.pi / 2, np.pi / 2])
        q = build(g)
        assert np.allclose(q.matrix.T @ q.matrix, np.eye(2), atol=1e-14)
        p = self.pseudo_inverse(q, g.w_space.basis)
        assert np.allclose(p @ q.matrix, np.eye(2), atol=1e-14)

    def test_zero(self):
        # U inside V: the operator and its pseudo-inverse are zero
        g = canonical_random(6, dim=9, dim_u=2, dim_w=4, shared_dims=2)
        q = build(g)
        p = self.pseudo_inverse(q, g.w_space.basis)
        assert p.shape == (2, 2) and np.allclose(p, 0.0)

    def test_diagonal_reciprocal(self):
        # sines 0.5 and 1e-6 (below the cutoff 1.4e-4): the coordinates of
        # the solution are 1 / 0.5 and 0
        g = canonical_controlled([np.arcsin(0.5), np.arcsin(1e-6)])
        q = build(g)
        p = self.pseudo_inverse(q, g.w_space.basis)
        y = q.matrix[0] / q.sines[0]  # the right singular vector of sine 0.5
        assert np.allclose(p, np.outer(y, [2.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_penrose_identities(self, seed):
        # seed 0 shares a direction: a zero sine, a rank-deficient operator
        g = canonical_random(seed, dim=7, dim_u=3, dim_w=3, shared_dims=int(seed == 0))
        q = build(g)
        m = q.matrix
        p = self.pseudo_inverse(q, g.w_space.basis)
        scale = max(frob(m), 1.0)
        assert frob(m @ p @ m - m) < 1e-10 * scale
        assert frob(p @ m @ p - p) < 1e-10 * scale
        assert frob((m @ p) - (m @ p).T) < 1e-10
        assert frob((p @ m) - (p @ m).T) < 1e-10


class TestSymEig:
    def test_diagonal(self):
        w, v = sym_eig(np.diag([2.0, 1.0]))
        assert np.allclose(w, [2.0, 1.0])
        assert np.allclose(np.abs(v), np.eye(2), atol=1e-14)

    def test_offdiagonal(self):
        w, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [1.0, -1.0])

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("seed", range(5))
    def test_gram_eigenvalues_are_squared_singular_values(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((6, 4))
        w, v = sym_eig(q.T @ q)
        s = np.linalg.svd(q, compute_uv=False)
        assert np.allclose(np.sort(w), np.sort(s**2), atol=1e-10)
        assert frob(v.T @ v - np.eye(4)) < 1e-12
        t = q.T @ q
        assert frob((v * w) @ v.T - t) <= 1e-12 * max(frob(t), 1.0)


class TestOrthogonalComplement:
    def test_empty_basis_gives_identity(self):
        assert np.allclose(linalg.orthogonal_complement(np.zeros((3, 0))), np.eye(3))

    @pytest.mark.parametrize("seed", range(4))
    def test_complement_properties(self, seed):
        rng = np.random.default_rng(seed)
        b = linalg.orthonormalize(rng.standard_normal((7, 3)))
        c = linalg.orthogonal_complement(b)
        assert c.shape == (7, 4)
        assert frob(b.T @ c) < 1e-12
        assert frob(c.T @ c - np.eye(4)) < 1e-12


class TestLengths:
    """:func:`linalg.lengths`, the one measure of length of the engine's error
    norms, residuals and divergence cap, and of the least-squares residual."""

    @pytest.mark.parametrize("k", [1, 2, 3, 25])
    def test_in_range_rows_keep_the_bits_of_the_plain_sum(self, k):
        rows = np.random.default_rng(k).standard_normal((40, k))
        assert np.array_equal(linalg.lengths(rows), np.sqrt(np.einsum("ij,ij->i", rows, rows)))
        for row in rows:
            assert linalg.lengths(row) == float(np.linalg.norm(row))

    @pytest.mark.parametrize("j", [-1074 + 60, -600, 515, 600, 1023 - 10])
    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_scaling_by_a_power_of_two_scales_every_length_exactly(self, j, k):
        # rows of norm about 1 scaled by 2^j: their squares underflow or
        # overflow, their lengths do not
        rows = np.random.default_rng(k).uniform(0.5, 1.0, (30, k))
        scaled = np.ldexp(rows, j)
        assert np.array_equal(linalg.lengths(scaled), np.ldexp(linalg.lengths(rows), j))
        for row, row_scaled in zip(rows, scaled):
            assert linalg.lengths(row_scaled) == math.ldexp(linalg.lengths(row), j)

    def test_edge_rows(self):
        rows = np.array([[0.0, 0.0], [3e-320, 4e-320], [np.nan, 1.0], [np.inf, 1.0],
                         [1.5e308, 1.5e308], [-3 * 2.0 ** 600, 4 * 2.0 ** 600]])
        got = linalg.lengths(rows)
        assert got[0] == 0.0
        assert got[1] == np.hypot(3e-320, 4e-320)  # subnormal entries
        assert np.isnan(got[2])
        assert got[3] == got[4] == np.inf  # a length past the largest float
        assert got[5] == 5 * 2.0 ** 600
        assert linalg.lengths(np.zeros(0)) == 0.0
        assert linalg.lengths(np.zeros((2, 0))).tolist() == [0.0, 0.0]

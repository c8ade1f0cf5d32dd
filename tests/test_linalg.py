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
    of R = a - b (b^T a), whose singular values are the principal sines, and
    the singular values of b^T a, the principal cosines."""

    def test_identity(self):
        # b empty: R = a, every sine is 1
        x, s, yt, _ = linalg.sine_svd(np.eye(3), np.zeros((3, 0)))
        assert np.allclose(s, 1.0)
        assert np.allclose((x * s) @ yt, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        # b = e1 removes the first column of a = [e1, e2]
        _, s, _, _ = linalg.sine_svd(np.eye(3)[:, :2], np.eye(3)[:, :1])
        assert np.allclose(s, [1.0, 0.0])

    def test_permutation(self):
        # a permuted basis of the plane orthogonal to b
        _, s, _, _ = linalg.sine_svd(np.eye(3)[:, [1, 0]], np.eye(3)[:, 2:])
        assert np.allclose(s, [1.0, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        a = linalg.orthonormalize(rng.standard_normal((6, 3)))
        b = linalg.orthonormalize(rng.standard_normal((6, 2)))
        x, s, yt, cosines = linalg.sine_svd(a, b)
        assert np.all(np.diff(s) <= 0) and np.all(s >= 0) and np.all(s <= 1.0 + 1e-14)
        r = a - b @ (b.T @ a)
        assert frob(r - (x * s) @ yt) <= 1e-12
        assert frob(x.T @ x - np.eye(3)) < 1e-12 and frob(yt @ yt.T - np.eye(3)) < 1e-12
        # sines and cosines of the same principal angles
        cos = np.zeros(3)
        cos[:2] = np.linalg.svd(a.T @ b, compute_uv=False)
        assert np.allclose(s**2 + np.sort(cos**2), 1.0, atol=1e-12)
        assert np.allclose(cosines, cos[:2], atol=1e-12)


class TestPinv:
    """The Moore-Penrose pseudo-inverse of the restricted operator, which the
    package never forms as a matrix: :func:`least_squares_set` applies it to
    the data from the stored factorization, dropping the sines at or below
    the null-space cutoff. Its identities are checked on the assembled map
    from coordinates of the data to coordinates of the minimum-norm
    solution."""

    @staticmethod
    def pseudo_inverse(q):
        # data: the V-perp part of each codomain column (the column of a
        # zero sine need not lie in V-perp); its coordinates are e_j on the
        # columns of the sines above the cutoff
        x, a, b = q.codomain_basis, q.domain_basis, q.constraint_basis
        data = x - b @ (b.T @ x)
        return np.column_stack([a.T @ least_squares_set(q, data[:, j]).min_norm_solution
                                for j in range(x.shape[1])])

    def test_identity(self):
        # U orthogonal to V: the operator is the identity on U
        q = build(canonical_controlled([np.pi / 2, np.pi / 2]))
        assert np.allclose(q.matrix.T @ q.matrix, np.eye(2), atol=1e-14)
        p = self.pseudo_inverse(q)
        assert np.allclose(p @ q.matrix, np.eye(2), atol=1e-14)

    def test_zero(self):
        # U inside V: the operator and its pseudo-inverse are zero
        q = build(canonical_random(6, dim=9, dim_u=2, dim_w=4, shared_dims=2))
        p = self.pseudo_inverse(q)
        assert p.shape == (2, 2) and np.allclose(p, 0.0)

    def test_diagonal_reciprocal(self):
        # sines 0.5 and 1e-6 (below the cutoff 1.4e-4): the coordinates of
        # the solution are 1 / 0.5 and 0
        q = build(canonical_controlled([np.arcsin(0.5), np.arcsin(1e-6)]))
        p = self.pseudo_inverse(q)
        y = q.matrix[0] / q.sines[0]  # the right singular vector of sine 0.5
        assert np.allclose(p, np.outer(y, [2.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_penrose_identities(self, seed):
        # seed 0 shares a direction: a zero sine, a rank-deficient operator
        q = build(canonical_random(seed, dim=7, dim_u=3, dim_w=3, shared_dims=int(seed == 0)))
        m = q.matrix
        p = self.pseudo_inverse(q)
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

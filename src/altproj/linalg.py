"""Dense real linear-algebra substrate: orthonormalization, symmetric
eigendecomposition, the thin factorization behind the principal sines and
cosines (the one factorization a problem's analysis takes), and orthogonal
complements (for the tests' reference only).

Everything is backed by LAPACK via numpy.linalg; this module pins down the
rank-tolerance conventions used throughout the package.
"""

import numpy as np

from .validation import as_matrix, global_tol


def orthonormalize(columns, tol=None):
    """Orthonormal basis of the column space of *columns*.

    Rank-deficient input yields fewer columns; singular values below
    ``tol * s_max`` are treated as zero (default: the global tolerance,
    overridable via ALTPROJ_TOL). A zero or empty input returns a (d x 0)
    matrix rather than raising.
    """
    a = as_matrix(columns)
    if tol is None:
        tol = global_tol()
    if tol <= 0:
        raise ValueError("tol must be positive")
    if a.shape[1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((a.shape[0], 0))
    rank = int(np.count_nonzero(s > tol * s[0]))
    return u[:, :rank]


def sym_eig(m):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues nonincreasing and
    orthonormal eigenvector columns. Non-symmetric input signals a caller
    bug and is rejected.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > 1e-12 * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric to relative tolerance 1e-12")
    w, v = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def sine_svd(a, b):
    """Thin SVD (x, s, yt) of R = a - b (b^T a), the component of span(a)
    orthogonal to span(b), for orthonormal bases a (d x k_a) and b (d x k_b),
    and the principal cosines: the min(k_a, k_b) singular values of the
    cross-Gram matrix b^T a, nonincreasing and clipped to [0, 1].

    R is the ambient form of the projection onto span(b)-perp restricted to
    span(a). Its singular values are the sines of the principal angles
    between the two spans, nonincreasing (when k_a > k_b, k_a - k_b of them
    equal 1). Taking them from R rather than as sqrt(1 - cos^2) keeps small
    angles accurate. Memory is O(d (k_a + k_b)); no d x d array is formed.
    Returns (x, s, yt, cosines).
    """
    bta = b.T @ a
    x, s, yt = np.linalg.svd(a - b @ bta, full_matrices=False)
    cosines = np.clip(np.linalg.svd(bta, compute_uv=False), 0.0, 1.0)
    return x, s, yt, cosines


def orthogonal_complement(basis, tol=None):
    """Orthonormal basis of the orthogonal complement of span(basis) in R^d.

    Computed as the right null space of basis^T via a full SVD; an empty
    basis yields the identity. This costs O(d^2) memory and O(d^3) time;
    the analysis itself uses :func:`sine_svd`.
    """
    b = as_matrix(basis)
    if tol is None:
        tol = global_tol()
    d = b.shape[0]
    if b.shape[1] == 0:
        return np.eye(d)
    u, s, _ = np.linalg.svd(b, full_matrices=True)
    if s.size == 0 or s[0] <= 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > tol * s[0]))
    return u[:, rank:]

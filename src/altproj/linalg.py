"""Dense real linear-algebra substrate: orthonormalization, the thin
factorization behind the principal sines (the one factorization a problem's
analysis takes: the angle report, least squares, the limit, the loop and the
spectral check all read its singular values and vectors), and orthogonal
complements (for the tests' reference only).

Everything is backed by LAPACK via numpy.linalg; this module pins down the
rank-tolerance conventions used throughout the package.
"""

import numpy as np

from .validation import as_matrix, global_tol


def orthonormalize(columns):
    """Orthonormal basis of the column space of *columns*.

    Rank-deficient input yields fewer columns; singular values below
    ``global_tol() * s_max`` are treated as zero. A zero or empty input
    returns a (d x 0) matrix rather than raising.
    """
    a = as_matrix(columns)
    if a.shape[1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    if s.size == 0 or s[0] <= 0.0:
        return np.zeros((a.shape[0], 0))
    rank = int(np.count_nonzero(s > global_tol() * s[0]))
    return u[:, :rank]


def sine_svd(a, b):
    """Thin SVD (x, s, yt) of R = a - b (b^T a), the component of span(a)
    orthogonal to span(b), for orthonormal bases a (d x k_a) and b (d x k_b).

    R is the ambient form of the projection onto span(b)-perp restricted to
    span(a). Its singular values are the sines of the principal angles
    between the two spans, nonincreasing (when k_a > k_b, k_a - k_b of them
    equal 1). Taking them from R rather than as sqrt(1 - cos^2) keeps small
    angles accurate. Memory is O(d (k_a + k_b)); no d x d array is formed.
    """
    return np.linalg.svd(a - b @ (b.T @ a), full_matrices=False)


def orthogonal_complement(basis):
    """Orthonormal basis of the orthogonal complement of span(basis) in R^d.

    Computed as the right null space of basis^T via a full SVD; an empty
    basis yields the identity. This costs O(d^2) memory and O(d^3) time;
    the analysis itself uses :func:`sine_svd`.
    """
    b = as_matrix(basis)
    d = b.shape[0]
    if b.shape[1] == 0:
        return np.eye(d)
    u, s, _ = np.linalg.svd(b, full_matrices=True)
    if s.size == 0 or s[0] <= 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(s > global_tol() * s[0]))
    return u[:, rank:]

"""Dense real linear-algebra substrate: orthonormalization, the thin
factorization behind the principal sines (the one factorization a problem's
analysis takes: the angle report, least squares, the limit and the loop all
read its singular values and vectors), and orthogonal
complements (for the tests' reference only).

Everything is backed by LAPACK via numpy.linalg. This module also holds the
package's one rank cutoff, and its one measure of length (:func:`lengths`).
"""

import numpy as np

from .validation import as_matrix

# Every rank decision keeps the singular values above RANK_TOL * s_max: the
# cutoff is relative to the data's own scale, so rank is scale invariant.
RANK_TOL = 1e-10
_TINY = np.finfo(float).tiny


def _rank(s):
    """The number of the nonincreasing singular values *s* above RANK_TOL * s_max."""
    return int(np.count_nonzero(s > RANK_TOL * s[0])) if s.size else 0


def orthonormalize(columns):
    """Orthonormal basis of the column space of *columns*.

    Rank-deficient input yields fewer columns; singular values at or below
    ``RANK_TOL * s_max`` are treated as zero. A zero or empty input returns a
    (d x 0) matrix rather than raising.
    """
    a = as_matrix(columns)
    if a.shape[1] == 0:
        return a.copy()
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, :_rank(s)]


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
    return u[:, _rank(s):]


def _sum_of_squares(a):
    """The sum of squares of the vector *a*, by a BLAS dot, or of each row of
    the matrix *a*, by one einsum."""
    return a @ a if a.ndim == 1 else np.einsum("ij,ij->i", a, a)


def lengths(a):
    """The Euclidean length of the vector *a*, as a float, or of each row of
    the matrix *a*, as an array: the square root of the sum of squares.

    Where that sum overflows, or falls below the smallest normal float (a
    zero row among them), the row is scaled by the power of two that brings
    its largest entry into [1/2, 1), and its length scaled back. Scaling by
    a power of two is exact, so such a length is right wherever it is a
    finite float. Every other row keeps the bits of the plain sum, and is
    read once; a row holding a NaN gives NaN.
    """
    # a sum that overflows is mended below; a length that does is inf
    with np.errstate(over="ignore"):
        sq = np.atleast_1d(_sum_of_squares(a))
        out = np.sqrt(sq)
        bad = np.flatnonzero((sq < _TINY) | (sq == np.inf))
        if bad.size:
            rows = np.atleast_2d(a)[bad]
            e = np.frexp(np.abs(rows).max(axis=1, initial=0.0))[1]
            scaled = np.ldexp(rows, -e[:, None])
            out[bad] = np.ldexp(np.sqrt(_sum_of_squares(scaled if a.ndim == 2 else scaled[0])), e)
    return out if a.ndim == 2 else float(out[0])

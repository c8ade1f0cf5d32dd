"""Principal angles between subspaces.

Computes the two scalars that govern the convergence theory: the minimum-angle
cosine between the iterate direction space and the orthogonal complement of the
constraint direction space (here called ``nu``), and the sine of the Friedrichs
angle between the two direction spaces (here called ``gamma``). The Friedrichs
angle is the minimum angle after removing the intersection from both spaces.

Both are read from the principal sines between the direction spaces, which
the restricted projector stores: the singular values of R = A - B (B^T A) for
orthonormal bases A of U and B of V (see :func:`altproj.projector.build`).
The report factorizes nothing beyond the small cross-Gram matrix A^T B of the
principal cosines. The complement of V is never formed, so memory is O(d k),
and small angles are computed from their sines rather than as
sqrt(1 - cos^2).

Convention: the cosine of an angle over an empty pair of (reduced) spaces is 0,
so gamma = 1 when one direction space is contained in the other. This matches
the supremum over an empty set; the reference definitions leave this case open.
"""

from dataclasses import dataclass

import numpy as np

from .validation import INTERSECTION_TOL, as_matrix, readonly


@dataclass(frozen=True)
class AngleReport:
    """Principal-angle summary of a canonicalized geometry.

    ``principal_cosines`` are between the two direction spaces; ``nu`` is the
    minimum-angle cosine against the complement of the constraint directions;
    ``gamma`` the Friedrichs-angle sine between the direction spaces.
    """

    principal_cosines: np.ndarray
    theta_min_cos: float
    friedrichs_cos: float
    nu: float
    gamma: float
    intersection_dim: int
    tol: float

    def __post_init__(self):
        object.__setattr__(self, "principal_cosines", readonly(self.principal_cosines))


def principal_cosines(a_basis, b_basis):
    """Nonincreasing singular values of the cross-Gram matrix a^T b, clipped
    to [0, 1]. Either basis empty yields an empty list."""
    a = as_matrix(a_basis, name="a_basis")
    b = as_matrix(b_basis, rows=a.shape[0], name="b_basis")
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros(0)
    s = np.linalg.svd(a.T @ b, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def min_angle_cos(a, b):
    """Cosine of the minimum angle between the direction spaces of *a* and *b*
    (largest principal cosine); 0 when either space is trivial."""
    cos = principal_cosines(a.basis, b.basis)
    return float(cos[0]) if cos.size else 0.0


def _reduced_pair(a_basis, b_basis, tol):
    """Split off the intersection: returns (a_reduced, b_reduced, dim_intersection)
    where the reduced bases span a ∩ J-perp and b ∩ J-perp for J = a ∩ b."""
    a = as_matrix(a_basis)
    b = as_matrix(b_basis, rows=a.shape[0])
    if a.shape[1] == 0 or b.shape[1] == 0:
        return a, b, 0
    x, s, yt = np.linalg.svd(a.T @ b, full_matrices=True)
    j = int(np.count_nonzero(s >= 1.0 - tol))
    return a @ x[:, j:], b @ yt.T[:, j:], j


def friedrichs_cos(a, b, tol=INTERSECTION_TOL):
    """Cosine of the Friedrichs angle between the direction spaces of *a* and
    *b*, together with the dimension of their intersection.

    The intersection is detected as the span of principal-vector pairs with
    cosine >= 1 - tol; the Friedrichs cosine is the largest principal cosine
    between the reduced spaces (0 if either reduced space is trivial).
    """
    a_red, b_red, dim_j = _reduced_pair(a.basis, b.basis, tol)
    cos = principal_cosines(a_red, b_red)
    return (float(cos[0]) if cos.size else 0.0), dim_j


def compute_report(q):
    """Full :class:`AngleReport` for the restricted projector *q* of a
    canonicalized geometry (:func:`altproj.projector.build`).

    ``nu``, ``gamma`` and ``intersection_dim`` are read from the principal
    sines that *q* stores: ``nu`` is the largest sine (the operator norm),
    the sines at or below the null-space cutoff span the intersection, and
    ``gamma`` is the smallest sine above it (the reduced minimum modulus,
    or 1 if there is none). ``friedrichs_cos`` is the principal cosine
    paired with ``gamma``.
    """
    cosines = principal_cosines(q.domain_basis, q.constraint_basis)
    dim_j = q.nullspace_basis.shape[1]
    return AngleReport(
        principal_cosines=cosines,
        theta_min_cos=float(cosines[0]) if cosines.size else 0.0,
        friedrichs_cos=float(cosines[dim_j]) if dim_j < cosines.size else 0.0,
        nu=q.norm,
        gamma=q.reduced_min_modulus or 1.0,
        intersection_dim=dim_j,
        tol=q.tol,
    )

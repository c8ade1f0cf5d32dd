"""Principal angles between subspaces.

Computes the two scalars that govern the convergence theory: the minimum-angle
cosine between the iterate direction space and the orthogonal complement of the
constraint direction space (here called ``nu``), and the sine of the Friedrichs
angle between the two direction spaces (here called ``gamma``). The Friedrichs
angle is the minimum angle after removing the intersection from both spaces.

Both come from the principal sines between the direction spaces, the singular
values of R = A - B (B^T A) for orthonormal bases A of U and B of V (see
:func:`altproj.linalg.sine_svd`). The complement of V is never formed, so
memory is O(d k), and small angles are computed from their sines rather than
as sqrt(1 - cos^2).

Convention: the cosine of an angle over an empty pair of (reduced) spaces is 0,
so gamma = 1 when one direction space is contained in the other. This matches
the supremum over an empty set; the reference definitions leave this case open.
"""

from dataclasses import dataclass

import numpy as np

from .validation import INTERSECTION_TOL, as_matrix, readonly
from . import linalg
from .subspace import require_canonical
from .projector import nullspace_cutoff


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


def compute_report(g, tol=INTERSECTION_TOL):
    """Full :class:`AngleReport` for a canonicalized geometry.

    ``nu``, ``gamma`` and ``intersection_dim`` come from the principal sines,
    the singular values of the thin d x k_u matrix R = A - B (B^T A): ``nu``
    is the largest sine, the sines at or below the null-space cutoff span the
    intersection, and ``gamma`` is the smallest sine above it (1 if none).
    ``friedrichs_cos`` is the principal cosine paired with ``gamma``.
    """
    require_canonical(g)
    u0 = g.u_space.basis
    w0 = g.w_space.basis

    cosines = principal_cosines(u0, w0)
    theta_min = float(cosines[0]) if cosines.size else 0.0

    sines = linalg.sine_svd(u0, w0)[1]
    nu = float(sines[0]) if sines.size else 0.0
    reduced = sines > nullspace_cutoff(tol)
    dim_j = int(sines.size - np.count_nonzero(reduced))
    gamma = float(sines[reduced].min()) if np.any(reduced) else 1.0
    fc = float(cosines[dim_j]) if dim_j < cosines.size else 0.0

    return AngleReport(
        principal_cosines=cosines,
        theta_min_cos=theta_min,
        friedrichs_cos=fc,
        nu=nu,
        gamma=gamma,
        intersection_dim=dim_j,
        tol=tol,
    )

"""Principal angles between subspaces.

Computes the two scalars that govern the convergence theory: the minimum-angle
cosine between the iterate direction space and the orthogonal complement of the
constraint direction space (here called ``nu``), and the sine of the Friedrichs
angle between the two direction spaces (here called ``gamma``). The Friedrichs
angle is the minimum angle after removing the intersection from both spaces.

Both are read from the principal sines between the direction spaces, which
the restricted projector stores: the singular values of R = A - B (B^T A) for
orthonormal bases A of U and B of V (see :func:`altproj.projector.build`).
The principal cosines, the singular values of B^T A, are stored beside them,
so the report is a read of the projector and factorizes nothing. The
complement of V is never formed, so memory is O(d k), and small angles are
computed from their sines rather than as sqrt(1 - cos^2).

Convention: the cosine of an angle over an empty pair of (reduced) spaces is 0,
so gamma = 1 when one direction space is contained in the other. This matches
the supremum over an empty set; the reference definitions leave this case open.
"""

from dataclasses import dataclass

import numpy as np

from .validation import readonly


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


def compute_report(q):
    """Full :class:`AngleReport` for the restricted projector *q* of a
    canonicalized geometry (:func:`altproj.projector.build`).

    Every field is read from *q*; nothing is factorized. ``nu``, ``gamma``
    and ``intersection_dim`` come from the principal sines: ``nu`` is the
    largest sine (the operator norm), the sines at or below the null-space
    cutoff span the intersection, and ``gamma`` is the smallest sine above
    it (the reduced minimum modulus, or 1 if there is none). The cosines are
    those *q* stores; ``friedrichs_cos`` is the one paired with ``gamma``.
    """
    cosines = q.cosines
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

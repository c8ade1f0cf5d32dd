"""Principal angles between subspaces.

Computes the two scalars that govern the convergence theory: the minimum-angle
cosine between the iterate direction space and the orthogonal complement of the
constraint direction space (here called ``nu``), and the sine of the Friedrichs
angle between the two direction spaces (here called ``gamma``). The Friedrichs
angle is the minimum angle after removing the intersection from both spaces.

Both are principal sines between the direction spaces, which the restricted
projector stores: the singular values of R = A - B (B^T A) for orthonormal
bases A of U and B of V (see :func:`altproj.projector.build`). So the report
is a read of the projector and factorizes nothing. The complement of V is
never formed, so memory is O(d k), and small angles are read from their sines
rather than computed as sqrt(1 - cos^2). The principal cosines themselves are
not needed by the analysis; the tests recompute them as an oracle.

Convention: the cosine of an angle over an empty pair of (reduced) spaces is 0,
so gamma = 1 when one direction space is contained in the other. This matches
the supremum over an empty set; the reference definitions leave this case open.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class AngleReport:
    """Principal-angle summary of a canonicalized geometry.

    ``nu`` is the minimum-angle cosine against the complement of the
    constraint directions; ``gamma`` the Friedrichs-angle sine between the
    direction spaces; ``intersection_dim`` the dimension of their
    intersection, decided at the intersection tolerance ``tol``.
    """

    nu: float
    gamma: float
    intersection_dim: int
    tol: float


def compute_report(q):
    """The :class:`AngleReport` of the restricted projector *q* of a
    canonicalized geometry (:func:`altproj.projector.build`).

    Every field is read from the principal sines of *q*; nothing is
    factorized. ``nu`` is the largest sine (the operator norm), the sines at
    or below the null-space cutoff span the intersection, and ``gamma`` is
    the smallest sine above it (the reduced minimum modulus, or 1 if there
    is none).
    """
    return AngleReport(
        nu=q.norm,
        gamma=q.reduced_min_modulus or 1.0,
        intersection_dim=q.nullspace_basis.shape[1],
        tol=q.tol,
    )

"""The restricted projection operator at the heart of the analysis.

For a canonicalized geometry (U linear, W = V + w with w = P_W 0 in V-perp),
the operator Q maps U into V-perp by orthogonal projection; its adjoint
projects back onto U. With A an orthonormal basis of U and B one of V, its
ambient form is the d x k_u matrix R = A - B (B^T A), and the thin SVD
R = X S Y^T gives everything else: the singular values S are the principal
sines between U and V, X spans the range of Q and Y gives the null space.
In the basis A Y of U the operator is diagonal, so the iteration steps
elementwise on the sines; no second factorization (of R^T R or of B^T A,
say) is taken, and B is read by the factorization only, not stored.
Nothing of size d x d is formed, so memory is O(d k).

The angle report reads the two scalars that govern the convergence theory
off the sines: ``nu`` = ||Q|| and ``gamma``, the sine of the Friedrichs angle
(the minimum angle once the intersection is removed from both spaces). The
cosine of an angle over an empty pair of reduced spaces is taken as 0 (the
supremum over an empty set), so gamma = 1 when one direction space is
contained in the other.

The least-squares machinery built on the operator (minimum-norm solution, null
space, affine solution set) serves as the independent oracle for the limit of
the alternating-projection iteration.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .validation import INTERSECTION_TOL, as_vector, frozen
from .subspace import project
from . import linalg


# The sines at or below NULLSPACE_CUTOFF count as zero, as read through
# RestrictedProjector.kept: a principal cosine c >= 1 - tol, tol =
# INTERSECTION_TOL, is a sine sqrt(1 - c^2) <= sqrt(tol (2 - tol)). Keeping
# the two thresholds coupled is what makes the angle identities hold on
# near-degenerate inputs.
NULLSPACE_CUTOFF = math.sqrt(INTERSECTION_TOL * (2.0 - INTERSECTION_TOL))


@dataclass(frozen=True)
class RestrictedProjector:
    """Projection of the iterate space into the complement of the constraint
    directions, as the thin factorization R = X S Y^T of its ambient form
    R = A - B (B^T A). It is the one analysis of a problem: the angle
    report, the least-squares set, the limit and the iteration all read it.

    Attributes
    ----------
    right_vectors : (k_u, k_u) ndarray
        Y^T: orthonormal rows, the right singular vectors of R in
        coordinates of ``domain_basis``. In the basis A Y the operator is
        diagonal, with the sines on its diagonal.
    domain_basis : (d, k_u) ndarray
        Orthonormal basis A of the iterate direction space U.
    codomain_basis : (d, k_u) ndarray
        The left singular vectors X of R: orthonormal columns whose span
        contains the range of the operator (a subspace of V-perp).
    sines : (k_u,) ndarray
        The singular values S, nonincreasing: the principal sines between
        U and V. Those at or below NULLSPACE_CUTOFF count as zero.
    """

    right_vectors: np.ndarray
    domain_basis: np.ndarray
    codomain_basis: np.ndarray
    sines: np.ndarray

    @property
    def matrix(self):
        """S Y^T, formed on each access: the operator from coordinates in
        ``domain_basis`` to coordinates in ``codomain_basis``, so
        codomain_basis @ matrix == R and matrix^T @ matrix == R^T R."""
        return self.sines[:, None] * self.right_vectors

    @property
    def kept(self):
        """Mask of the sines above the null-space cutoff."""
        return self.sines > NULLSPACE_CUTOFF

    @cached_property
    def nullspace_basis(self):
        """(d, k_n) orthonormal basis of the null space, in ambient
        coordinates: A Y over the sines that ``kept`` drops, frozen."""
        return frozen(self.domain_basis @ self.right_vectors[~self.kept].T)

    @property
    def norm(self):
        """Operator norm (largest singular value), in [0, 1]."""
        return float(self.sines[0]) if self.sines.size else 0.0

    @property
    def reduced_min_modulus(self):
        """Smallest singular value above the null-space cutoff; 0 if none."""
        kept = self.sines[self.kept]
        return float(kept.min()) if kept.size else 0.0


@dataclass(frozen=True)
class LeastSquaresSet:
    """The affine set of least-squares solutions: min_norm_solution + null space."""

    min_norm_solution: np.ndarray
    nullspace_basis: np.ndarray
    residual_norm: float


def build(g):
    """Analyze a canonicalized geometry: the restricted projector from one
    thin factorization (:func:`altproj.linalg.sine_svd`), whose sines at or
    below NULLSPACE_CUTOFF span the null space. Nothing is copied: the
    arrays it makes are frozen in place, and *g*'s bases stored as they are."""
    if not g.is_canonical:
        raise ValueError("geometry must be canonicalized first (call .canonical())")
    a = g.u_space.basis
    x, sigma, yt = map(frozen, linalg.sine_svd(a, g.w_space.basis))
    return RestrictedProjector(
        right_vectors=yt,
        domain_basis=a,
        codomain_basis=x,
        sines=sigma,
    )


@dataclass(frozen=True)
class AngleReport:
    """Principal-angle summary of a canonicalized geometry: ``nu``, the
    minimum-angle cosine against the complement of the constraint
    directions; ``gamma``, the Friedrichs-angle sine between the direction
    spaces; and the dimension of their intersection, the number of sines
    at or below NULLSPACE_CUTOFF."""

    nu: float
    gamma: float
    intersection_dim: int


def compute_report(q):
    """The :class:`AngleReport` of the restricted projector *q*, read from
    its sines: ``nu`` is the operator norm, the sines at or below the
    null-space cutoff span the intersection, and ``gamma`` is the reduced
    minimum modulus, or 1 if no sine lies above the cutoff."""
    return AngleReport(
        nu=q.norm,
        gamma=q.reduced_min_modulus or 1.0,
        intersection_dim=q.nullspace_basis.shape[1],
    )


def least_squares_set(q, w):
    """Least-squares solutions of 'Qu = w' as an affine set, for any w in R^d.

    Returns the minimum-norm solution, the null-space basis, and the optimal
    residual norm. The solution comes from the stored factorization: with
    the sines S_k above the null-space cutoff and their right singular
    vectors Y_k, it is Y_k S_k^-1 X_k^T w. The kept left vectors X_k lie in
    V-perp, so this is the minimum-norm least-squares solution whatever
    component w has in V, and ||w - R c|| its residual. Its normal equation
    is checked by the tests, on an operator formed from the bases, not from
    these factors. The residual is taken in ambient coordinates, because w
    may have a component outside the range of the codomain basis.
    """
    w = as_vector(w, dim=q.codomain_basis.shape[0], name="w")
    kept = q.kept
    yt_k, s_k = q.right_vectors[kept], q.sines[kept]
    sol_c = yt_k.T @ ((q.codomain_basis.T @ w)[kept] / s_k)
    residual = linalg.lengths(w - q.codomain_basis @ (q.matrix @ sol_c))
    return LeastSquaresSet(
        min_norm_solution=frozen(q.domain_basis @ sol_c),
        nullspace_basis=q.nullspace_basis,
        residual_norm=residual,
    )


def limit_point(q, w, u0):
    """The limit of the iteration: minimum-norm solution plus the null-space
    component of the initial iterate."""
    u0 = as_vector(u0, dim=q.domain_basis.shape[0], name="u0")
    lss = least_squares_set(q, w)
    n = q.nullspace_basis
    return lss.min_norm_solution + n @ (n.T @ u0)


def distance_to_w(g, u):
    """Distance from *u* to the constraint set W; :func:`project` checks *u*."""
    return linalg.lengths(u - project(g.w_space, u))

"""The restricted projection operator at the heart of the analysis.

For a canonicalized geometry (U linear, W = V + w with w = P_W 0 in V-perp),
the operator Q maps U into V-perp by orthogonal projection; its adjoint
projects back onto U. With A an orthonormal basis of U and B one of V, its
ambient form is the d x k_u matrix R = A - B (B^T A), and the thin SVD
R = X S Y^T gives everything else: the singular values S are the principal
sines between U and V, X spans the range of Q and Y gives the null space.
In the basis A Y of U the operator is diagonal, so the iteration and the
spectral check step elementwise on the sines; no second factorization (of
R^T R or of B^T A, say) is taken. Nothing of size d x d is formed, so memory
is O(d k).

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

import numpy as np

from .validation import INTERSECTION_TOL, as_vector, frozen
from .subspace import project
from . import linalg


def nullspace_cutoff(tol):
    """Singular-value cutoff matching an intersection-cosine threshold of
    1 - tol: a principal cosine c >= 1 - tol corresponds to a singular value
    sqrt(1 - c^2) <= sqrt(tol * (2 - tol)). Keeping the two thresholds coupled
    is what makes the angle identities hold on near-degenerate inputs."""
    return math.sqrt(tol * (2.0 - tol))


@dataclass(frozen=True)
class RestrictedProjector:
    """Projection of the iterate space into the complement of the constraint
    directions, as the thin factorization R = X S Y^T of its ambient form
    R = A - B (B^T A). It is the one analysis of a problem: the angle
    report, the least-squares set, the limit, the iteration and the spectral
    check all read it.

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
    constraint_basis : (d, k_w) ndarray
        Orthonormal basis B of the constraint direction space V.
    sines : (k_u,) ndarray
        The singular values S, nonincreasing: the principal sines between
        U and V. Those at or below ``nullspace_cutoff(tol)`` count as zero.
    nullspace_basis : (d, k_n) ndarray
        Orthonormal basis of the null space, in ambient coordinates.
    """

    right_vectors: np.ndarray
    domain_basis: np.ndarray
    codomain_basis: np.ndarray
    constraint_basis: np.ndarray
    sines: np.ndarray
    nullspace_basis: np.ndarray
    tol: float

    @property
    def matrix(self):
        """S Y^T, formed on each access: the operator from coordinates in
        ``domain_basis`` to coordinates in ``codomain_basis``, so
        codomain_basis @ matrix == R and matrix^T @ matrix == R^T R."""
        return self.sines[:, None] * self.right_vectors

    @property
    def kept(self):
        """Mask of the sines above the null-space cutoff."""
        return self.sines > nullspace_cutoff(self.tol)

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


def build(g, tol=INTERSECTION_TOL):
    """Analyze a canonicalized geometry: the restricted projector from one
    thin factorization (:func:`altproj.linalg.sine_svd`). *tol* is the
    intersection tolerance, in (0, 1); sines at or below
    ``nullspace_cutoff(tol)`` span the null space. Nothing is copied: the
    arrays it makes are frozen in place, and *g*'s bases stored as they are."""
    if not 0.0 < tol < 1.0:  # also rejects NaN
        raise ValueError(f"intersection tolerance must lie in (0, 1), got {tol!r}")
    if not g.is_canonical:
        raise ValueError("geometry must be canonicalized first (call .canonical())")
    a = g.u_space.basis
    b = g.w_space.basis
    x, sigma, yt = map(frozen, linalg.sine_svd(a, b))
    return RestrictedProjector(
        right_vectors=yt,
        domain_basis=a,
        codomain_basis=x,
        constraint_basis=b,
        sines=sigma,
        nullspace_basis=frozen(a @ yt[sigma <= nullspace_cutoff(tol)].T),
        tol=tol,
    )


@dataclass(frozen=True)
class AngleReport:
    """Principal-angle summary of a canonicalized geometry: ``nu``, the
    minimum-angle cosine against the complement of the constraint
    directions; ``gamma``, the Friedrichs-angle sine between the direction
    spaces; and the dimension of their intersection, decided at the
    intersection tolerance ``tol``."""

    nu: float
    gamma: float
    intersection_dim: int
    tol: float


def compute_report(q):
    """The :class:`AngleReport` of the restricted projector *q*, read from
    its sines: ``nu`` is the operator norm, the sines at or below the
    null-space cutoff span the intersection, and ``gamma`` is the reduced
    minimum modulus, or 1 if no sine lies above the cutoff."""
    return AngleReport(
        nu=q.norm,
        gamma=q.reduced_min_modulus or 1.0,
        intersection_dim=q.nullspace_basis.shape[1],
        tol=q.tol,
    )


def least_squares_set(q, w):
    """Least-squares solutions of 'Qu = w' as an affine set.

    Returns the minimum-norm solution, the null-space basis, and the optimal
    residual norm. The solution comes from the stored factorization: with
    the sines S_k above the null-space cutoff and their right singular
    vectors Y_k, it is Y_k S_k^-1 X_k^T w. Its normal equation is checked by
    the tests, on an operator formed from the bases, not from these factors.
    The residual is taken in ambient coordinates, because w may have a
    component outside the range of the codomain basis.
    """
    w = as_vector(w, dim=q.codomain_basis.shape[0], name="w")
    # ||B^T w|| is the distance from w to V-perp
    if np.linalg.norm(q.constraint_basis.T @ w) > 1e-10 * (1.0 + np.linalg.norm(w)):
        raise ValueError("w must lie in the codomain (the complement of the constraint directions)")
    kept = q.kept
    yt_k, s_k = q.right_vectors[kept], q.sines[kept]
    sol_c = yt_k.T @ ((q.codomain_basis.T @ w)[kept] / s_k)
    residual = float(np.linalg.norm(w - q.codomain_basis @ (q.matrix @ sol_c)))
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
    return float(np.linalg.norm(u - project(g.w_space, u)))

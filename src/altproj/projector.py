"""The restricted projection operator at the heart of the analysis.

For a canonicalized geometry (U linear, W = V + w with w = P_W 0 in V-perp),
the operator Q maps U into V-perp by orthogonal projection; its adjoint
projects back onto U. With A an orthonormal basis of U and B one of V, its
ambient form is the d x k_u matrix R = A - B (B^T A), and the thin SVD
R = X S Y^T gives everything else: the singular values S are the principal
sines between U and V, X spans the range of Q and Y gives the null space.
Nothing of size d x d is formed, so memory is O(d k).

The least-squares machinery built on top of it (minimum-norm solution, null
space, affine solution set) serves as the independent oracle for the limit of
the alternating-projection iteration.
"""

import math
from dataclasses import dataclass

import numpy as np

from .validation import INTERSECTION_TOL, as_vector, readonly
from .subspace import project, require_canonical
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
    R = A - B (B^T A).

    Attributes
    ----------
    matrix : (k_u, k_u) ndarray
        S Y^T: the operator from coordinates in ``domain_basis`` to
        coordinates in ``codomain_basis``, so codomain_basis @ matrix == R
        and matrix^T @ matrix == R^T R.
    domain_basis : (d, k_u) ndarray
        Orthonormal basis A of the iterate direction space U.
    codomain_basis : (d, k_u) ndarray
        The left singular vectors X of R: orthonormal columns whose span
        contains the range of the operator (a subspace of V-perp).
    constraint_basis : (d, k_w) ndarray
        Orthonormal basis B of the constraint direction space V.
    norm : float
        Operator norm (largest singular value), in [0, 1].
    reduced_min_modulus : float
        Smallest singular value above the nullspace cutoff; 0 if none.
    nullspace_basis : (d, k_n) ndarray
        Orthonormal basis of the null space, in ambient coordinates.
    """

    matrix: np.ndarray
    domain_basis: np.ndarray
    codomain_basis: np.ndarray
    constraint_basis: np.ndarray
    norm: float
    reduced_min_modulus: float
    nullspace_basis: np.ndarray
    tol: float

    def __post_init__(self):
        for name in ("matrix", "domain_basis", "codomain_basis", "constraint_basis",
                     "nullspace_basis"):
            object.__setattr__(self, name, readonly(getattr(self, name)))


@dataclass(frozen=True)
class LeastSquaresSet:
    """The affine set of least-squares solutions: min_norm_solution + null space."""

    min_norm_solution: np.ndarray
    nullspace_basis: np.ndarray
    residual_norm: float

    def __post_init__(self):
        object.__setattr__(self, "min_norm_solution", readonly(self.min_norm_solution))
        object.__setattr__(self, "nullspace_basis", readonly(self.nullspace_basis))


def build(g, tol=INTERSECTION_TOL):
    """Build the restricted projector for a canonicalized geometry."""
    require_canonical(g)
    a = g.u_space.basis
    b = g.w_space.basis
    x, sigma, yt = linalg.sine_svd(a, b)

    nonzero = sigma > nullspace_cutoff(tol)
    norm = float(sigma[0]) if sigma.size else 0.0
    gamma = float(sigma[nonzero].min()) if np.any(nonzero) else 0.0
    return RestrictedProjector(
        matrix=sigma[:, None] * yt,
        domain_basis=a,
        codomain_basis=x,
        constraint_basis=b,
        norm=norm,
        reduced_min_modulus=gamma,
        nullspace_basis=a @ yt[~nonzero].T,
        tol=tol,
    )


def apply(q, u):
    """Image of an ambient vector of U under the operator, in ambient coordinates."""
    u = as_vector(u, dim=q.domain_basis.shape[0], name="u")
    return q.codomain_basis @ (q.matrix @ (q.domain_basis.T @ u))


def adjoint_apply(q, v):
    """Adjoint applied to an ambient vector of V-perp: the projection onto U."""
    v = as_vector(v, dim=q.codomain_basis.shape[0], name="v")
    return q.domain_basis @ (q.matrix.T @ (q.codomain_basis.T @ v))


def _check_in_codomain(q, w):
    # ||B^T w|| is the distance from w to V-perp
    if np.linalg.norm(q.constraint_basis.T @ w) > 1e-10 * (1.0 + np.linalg.norm(w)):
        raise ValueError("w must lie in the codomain (the complement of the constraint directions)")


def least_squares_set(q, w):
    """Least-squares solutions of 'Qu = w' as an affine set.

    Returns the minimum-norm solution (via the pseudo-inverse of the
    coordinate matrix), the null-space basis, and the optimal residual norm.
    The normal equation is verified internally. The residual is taken in
    ambient coordinates, because w may have a component outside the range
    of the codomain basis.
    """
    w = as_vector(w, dim=q.codomain_basis.shape[0], name="w")
    _check_in_codomain(q, w)
    m = q.matrix
    wc = q.codomain_basis.T @ w
    if min(m.shape) > 0 and q.norm > 0.0:
        rcond = nullspace_cutoff(q.tol) / q.norm
        sol_c = np.linalg.pinv(m, rcond=rcond) @ wc
    else:
        sol_c = np.zeros(m.shape[1])
    # normal equation: M^T M s = M^T wc
    ne = np.linalg.norm(m.T @ (m @ sol_c) - m.T @ wc)
    if ne > 1e-10 * (1.0 + np.linalg.norm(wc)):
        raise ArithmeticError("normal equation violated beyond tolerance; ill-conditioned input")
    residual = float(np.linalg.norm(w - q.codomain_basis @ (m @ sol_c)))
    return LeastSquaresSet(
        min_norm_solution=q.domain_basis @ sol_c,
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
    """Distance from *u* to the constraint set W."""
    u = as_vector(u, dim=g.dim_ambient, name="u")
    return float(np.linalg.norm(u - project(g.w_space, u)))

"""Independent references for the tests.

The complement-based reference for the restricted projector and the angle
report is the dense algorithm the package used before it moved to the thin
factorization R = A - B (B^T A): it forms an explicit orthonormal basis C of
V-perp (a full d x d SVD), represents the operator by the cross-Gram matrix
C^T A, and derives gamma as sqrt(1 - cos^2) from the Friedrichs cosine. It
shares no step with :func:`altproj.linalg.sine_svd`, so the tests use it as
an independent oracle.

The geometric reference iterates the paper's step P_U(u + alpha (P_W u - u))
on ambient vectors, which shares no step with the engine's coordinate loop.

The diagonal Landweber reference iterates u <- u + alpha sigma (w - sigma u)
step by step, which shares no step with the closed form through the filter
polynomial that :func:`altproj.problems.run_diagonal_landweber` evaluates.
"""

from types import SimpleNamespace

import numpy as np

from altproj.angles import friedrichs_cos, principal_cosines
from altproj.engine import geometric_step
from altproj.linalg import orthogonal_complement
from altproj.projector import distance_to_w, nullspace_cutoff
from altproj.subspace import project
from altproj.validation import INTERSECTION_TOL


def reference_build(g, tol=INTERSECTION_TOL):
    """Operator norm, reduced minimum modulus and null space from the
    (d - k_w) x k_u matrix C^T A."""
    a = g.u_space.basis
    c = orthogonal_complement(g.w_space.basis)
    m = c.T @ a
    k_u = a.shape[1]

    sigma = np.zeros(k_u)
    if min(m.shape) > 0:
        _, s, yt = np.linalg.svd(m, full_matrices=True)
        sigma[: s.size] = s
        right = yt.T
    else:
        right = np.eye(k_u)

    nonzero = sigma > nullspace_cutoff(tol)
    return SimpleNamespace(
        matrix=m,
        domain_basis=a,
        codomain_basis=c,
        norm=float(sigma[0]) if k_u > 0 else 0.0,
        reduced_min_modulus=float(sigma[nonzero].min()) if np.any(nonzero) else 0.0,
        nullspace_basis=a @ right[:, ~nonzero],
        tol=tol,
    )


def reference_least_squares(ref, w):
    """Minimum-norm least-squares solution of Qu = w and its residual, for
    data w in V-perp, through the pseudo-inverse of C^T A."""
    m = ref.matrix
    wc = ref.codomain_basis.T @ w
    if min(m.shape) > 0 and ref.norm > 0.0:
        sol_c = np.linalg.pinv(m, rcond=nullspace_cutoff(ref.tol) / ref.norm) @ wc
    else:
        sol_c = np.zeros(m.shape[1])
    return ref.domain_basis @ sol_c, float(np.linalg.norm(wc - m @ sol_c))


def reference_report(g, tol=INTERSECTION_TOL):
    """nu as the largest cosine between U and the explicit V-perp; gamma as
    sqrt(1 - fc^2) from the Friedrichs cosine of the reduced pair."""
    u0 = g.u_space.basis
    nu_cos = principal_cosines(u0, orthogonal_complement(g.w_space.basis))
    fc, dim_j = friedrichs_cos(g.u_space, g.w_space, tol=tol)
    return SimpleNamespace(
        nu=float(nu_cos[0]) if nu_cos.size else 0.0,
        gamma=float(np.sqrt(max(0.0, 1.0 - fc * fc))),
        friedrichs_cos=fc,
        intersection_dim=dim_j,
    )


def geometric_reference(g, schedule, u0, n):
    """*n* steps of the geometric form from P_U u0: returns the iterates as
    rows of an (n + 1, d) array and the distance of each to W."""
    u = project(g.u_space, u0)
    iterates, residuals = [u], [distance_to_w(g, u)]
    for alpha in schedule.alphas(n):
        u = geometric_step(g, u, alpha)
        iterates.append(u)
        residuals.append(distance_to_w(g, u))
    return np.array(iterates), np.array(residuals)


def diagonal_landweber_reference(p, r, d, schedule, max_iters):
    """*max_iters* steps of the gradient iteration on the diagonal model with
    singular values i^-p and data i^-r, from u = 0, one step at a time."""
    i = np.arange(1, int(d) + 1, dtype=float)
    sigma = i ** (-float(p))
    w = i ** (-float(r))
    u = np.zeros(int(d))
    for alpha in schedule.alphas(int(max_iters)):
        u = u + alpha * sigma * (w - sigma * u)
    return u

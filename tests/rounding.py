"""Rounding bounds for the tests' oracles, each derived in its docstring.

The package checks what a caller passes, once, and does not check again
what it computes itself: the bases that ``linalg.orthonormalize`` returns,
the offsets that ``AffineSubspace.from_span``, ``translate`` and
``ProblemGeometry.canonical`` form, and the least-squares solution of
``projector.least_squares_set``. The tests check those results with the
bounds below, which follow the data each result was computed from.

Notation: u = 2^-53 is the unit roundoff. An inner product of length n is
computed with a relative error of at most gamma_n = n u / (1 - n u) (Higham,
Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1), and
gamma_n <= 2 n u = n eps for n u <= 1/2. ``gamma(n)`` is that upper bound,
so every bound below has a factor of about 2 to spare at first order, which
covers the second-order terms that the derivations drop.
"""

import math

import numpy as np

EPS = np.finfo(float).eps  # 2 u


def gamma(n):
    """n eps, an upper bound on gamma_n for n u <= 1/2."""
    return n * EPS


def gram_error(basis):
    """||B^T B - I||_F, computed from the basis alone."""
    k = basis.shape[1]
    return float(np.linalg.norm(basis.T @ basis - np.eye(k)))


def gram_bound(d, k):
    """A bound on the Gram error of the d x k left factor of LAPACK's SVD.

    The factor is a product of Householder reflectors (the QR and
    bidiagonalization stages: at most 2k, each of length at most d) and of
    the plane rotations of the bidiagonal SVD, on k x k blocks. Applied in
    floating point, each is an exactly orthogonal transformation plus a
    perturbation of relative size gamma(c d) for a small constant c (Higham,
    ch. 19). So the computed factor is U + dU, with U exactly orthonormal and
    ||dU||_F <= sqrt(k) * 2k * gamma(d + k), taking c d = d + k to cover both
    stages. Then U^T U - I + (U^T dU + dU^T U + dU^T dU) has norm at most
    2 ||dU||_F + ||dU||_F^2, and the test's own U^T U adds k gamma(d). A
    factor 3 in place of 2 covers both extra terms.
    """
    return 3.0 * math.sqrt(k) * 2 * k * gamma(d + k)


def canonical_offset_bound(basis, scale):
    """A bound on ||fl(B^T o)||, for an offset o that the package forms from
    the d x k basis B and data of norm at most *scale*.

    Let delta bound ||B^T B - I||: the test computes it from B, and adds the
    k gamma(d) of its own rounding. from_span forms c = fl(B^T p) = B^T p + e1,
    v = fl(B c) = B c + e2 and o = fl(p - v) = p - v + e3, with
    ||e1|| <= gamma(d) sqrt(k) ||p|| (each column of B has norm about 1),
    ||e2|| <= gamma(k) sqrt(k) ||c|| and ||e3|| <= u ||o||. So

        B^T o = -(B^T B - I) B^T p - (B^T B) e1 - B^T (e2 - e3),

    of norm at most (1 + delta) (delta + (gamma(d) + gamma(k)) sqrt(k) + u)
    ||p||, and the test's fl(B^T o) adds gamma(d) sqrt(k) ||o|| <= gamma(d)
    sqrt(k) ||p||.

    translate forms fl(fl(o' + s) - fl(B fl(B^T s))) from the old offset o'
    and the shift s: the same steps, with one more rounding of o' + s, give
    ||B^T o'|| plus the same form in ||o'|| + ||s||; the caller adds
    ||B^T o'||, which it computes with another gamma(d) sqrt(k) ||o'||.
    canonical translates W by the offset of U.

    With *scale* = ||p||, or ||o'|| + ||s|| for a translate, the sum is at
    most (1 + delta) (delta + (3 gamma(d) + gamma(k)) sqrt(k) + 2 u) scale,
    and 2 u = gamma(1) <= gamma(1) sqrt(k).
    """
    d, k = basis.shape
    delta = gram_error(basis) + k * gamma(d)
    return (1.0 + delta) * (delta + gamma(3 * d + k + 1) * math.sqrt(max(k, 1))) * scale


def normal_equation_bound(d, k_u, k_w, sol_norm, w_norm):
    """A bound on the normal-equation residual M^T (M x - C^T w) of the
    minimum-norm least-squares solution x that least_squares_set returns,
    in coordinates of U's basis A, with its part along the null space
    projected out. M = C^T A is formed by the test from an orthonormal basis
    C of V-perp (a full SVD of V's basis B), so it reads no factor of the
    package's projector.

    The package forms R^ = fl(A - B (B^T A)) = R + F, with ||F|| of order
    (gamma(k_w) sqrt(k_w) + u) sqrt(k_u), as in canonical_offset_bound. Its
    SVD is backward stable: X S Y^T = R^ + G exactly, with ||G|| <=
    p(d, k_u) u ||R^|| for a modest polynomial p (Higham, ch. 19), taken here
    as d k_u. x = Y_k S_k^-1 X_k^T w is the minimum-norm solution of the
    truncated R~ = X S Y^T, up to a rounding of gamma(d + k_u) ||x||, so the
    kept part of R~^T (R~ x - w) is 0 to within that. With R = R~ - E and
    eta = ||E|| <= ||F|| + ||G||,

        R^T (R x - w) = R~^T (R~ x - w) - E^T (R~ x - w) - R^T E x,

    whose last two terms have norms of at most eta (||x|| + ||w||) and
    eta ||x||, as ||R|| <= 1. C and M carry the test's own rounding, of the
    same form (a full SVD of a d x k_w matrix, and products of length d).
    Rounding every constant up to one gamma of the largest length, the sum
    is at most 4 gamma(d (k_u + k_w + 2)) (2 ||x|| + ||w||).
    """
    return 4.0 * gamma(d * (k_u + k_w + 2)) * (2.0 * sol_norm + w_norm)


def least_squares_agreement_bounds(d, k_u, k_w, sines, cutoff, x_norm, r_norm, w_norm):
    """Bounds on how far the least-squares solution and residual of the
    package, for data w of norm *w_norm* and any direction, may lie from
    those of ``np.linalg.lstsq`` on R = A - B (B^T A) formed by the test,
    truncated at the same *cutoff*: a pair (on ||x - x'||, on |r - r'|).
    *sines* are the package's singular values of R, *x_norm* and *r_norm*
    the norms of lstsq's solution and residual.

    Each side solves the problem of a matrix R + E with ||E|| <= eta,
    eta = gamma(d (k_u + k_w + 2)), as in normal_equation_bound (forming R,
    its SVD or lstsq's, and the rounding of the solution), and ||R|| <= 1.
    Let sigma be the smallest kept sine and delta its gap to the largest
    dropped one (sigma itself if none is dropped). When no sine lies within
    2 eta of the cutoff and delta > 4 eta, both sides keep the same sines
    (Weyl), and the kept singular subspaces of R + E turn by at most
    eta / delta (Wedin), so the truncated operators differ from the exact
    truncation by tau = eta (1 + 2 / delta) at most. Wedin's three-term
    expansion of the pseudo-inverse of a perturbation of the same rank
    then moves the solution by at most tau (2 ||x|| / sigma + ||r|| /
    (sigma - eta)^2), and the residual, the distance from w to the range,
    by at most tau (||x|| + 2 ||w|| / sigma). Each side lies that far from
    the exact truncated problem, hence the factor 2. A margin that fails
    raises ValueError; with no sine kept both solutions are 0, and sigma
    and delta are taken as 1.
    """
    eta = gamma(d * (k_u + k_w + 2))
    kept, dropped = sines[sines > cutoff], sines[sines <= cutoff]
    sigma = float(kept.min()) if kept.size else 1.0
    delta = sigma - float(dropped.max()) if kept.size and dropped.size else sigma
    if delta <= 4 * eta or np.any(np.abs(sines - cutoff) <= 2 * eta):
        raise ValueError("a sine lies too near the cutoff for the same truncation")
    tau = eta * (1.0 + 2.0 / delta)
    return (2 * tau * (2 * x_norm / sigma + r_norm / (sigma - eta) ** 2),
            2 * tau * (x_norm + 2 * w_norm / sigma))

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
The stepwise reference takes the engine's coordinate step one step at a time
and tests the stop rules after each step, which shares no step with the
prefix products over blocks of steps that the engine evaluates.

The stepwise filter pair is :func:`altproj.schedule.filter_pair` as it was
before it squared runs of equal coefficients: one update per step. Where no
two consecutive coefficients are equal the package takes exactly these
updates, so the two agree bit for bit.

The error recursion check propagates an initial error by the direct
recursion with the dense k_u x k_u matrix R^T R, one step at a time, beside
the spectral expansion that multiplies each component by its filter
polynomial F_n(s^2): the expansion that the engine's block loop evaluates.

The diagonal Landweber reference iterates u <- u + alpha sigma (w - sigma u)
step by step, which shares no step with the closed form through the filter
polynomial that :func:`altproj.problems.run_diagonal_landweber` evaluates.

The symmetric eigendecomposition :func:`sym_eig` is the eigen-oracle for
R^T R: the package reads the eigenpairs (s^2, Y) from its one SVD and
factorizes nothing else.

The principal cosines, which the package never computes, are taken here
from the cross-Gram matrix a^T b, and the Friedrichs cosine from an explicit
split of the intersection; the tests pair them with the principal sines that
:func:`altproj.projector.build` stores. The
remaining helpers state identities of the paper in their explicit form (the
relaxed projection onto W, the translation of a projection, the operator and
its adjoint on ambient vectors, the product lemma) for the tests to check the
package against.
"""

import math
from types import SimpleNamespace

import numpy as np

from altproj import engine
from altproj import projector as proj
from altproj.engine import IterationTrace, estimate_rate, geometric_step
from altproj.linalg import lengths, orthogonal_complement
from altproj.projector import NULLSPACE_CUTOFF, distance_to_w
from altproj.schedule import filter_pair
from altproj.subspace import project
from altproj.validation import INTERSECTION_TOL, as_matrix, as_vector


def sym_eig(m):
    """Eigendecomposition of a symmetric matrix.

    Returns (eigenvalues, eigenvectors) with eigenvalues nonincreasing and
    orthonormal eigenvector columns. Non-symmetric input signals a caller
    bug and is rejected.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    scale = np.linalg.norm(a)
    if np.linalg.norm(a - a.T) > 1e-12 * max(scale, 1e-300):
        raise ValueError("matrix is not symmetric to relative tolerance 1e-12")
    w, v = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def _basis_pair(a_basis, b_basis):
    """Both bases as matrices, which must have the same number of rows."""
    a = as_matrix(a_basis, name="a_basis")
    b = as_matrix(b_basis, name="b_basis")
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"b_basis must have {a.shape[0]} rows, got {b.shape[0]}")
    return a, b


def principal_cosines(a_basis, b_basis):
    """Nonincreasing singular values of the cross-Gram matrix a^T b, clipped
    to [0, 1]. Either basis empty yields an empty list."""
    a, b = _basis_pair(a_basis, b_basis)
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros(0)
    s = np.linalg.svd(a.T @ b, compute_uv=False)
    return np.clip(s, 0.0, 1.0)


def _reduced_pair(a_basis, b_basis, tol):
    """Split off the intersection: returns (a_reduced, b_reduced, dim_intersection)
    where the reduced bases span a ∩ J-perp and b ∩ J-perp for J = a ∩ b."""
    a, b = _basis_pair(a_basis, b_basis)
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


def translate_identity_check(a, s, u):
    """Both sides of the projection translation identity:
    returns (P_{a+s} u, P_a(u - s) + s)."""
    s = as_vector(s, dim=a.dim_ambient, name="s")
    u = as_vector(u, dim=a.dim_ambient, name="u")
    lhs = project(a.translate(s), u)
    rhs = project(a, u - s) + s
    return lhs, rhs


def relaxed_w_projection_formula(g, u, alpha):
    """Relaxed projection onto W in the explicit form u + alpha*(w - P_{V-perp} u),
    with w the canonical offset of W and V its direction space."""
    u = as_vector(u, dim=g.dim_ambient, name="u")
    bv = g.w_space.basis
    p_vperp_u = u - bv @ (bv.T @ u)
    return u + alpha * (g.w_offset - p_vperp_u)


def apply(q, u):
    """Image of an ambient vector of U under the operator, in ambient coordinates."""
    u = as_vector(u, dim=q.domain_basis.shape[0], name="u")
    return q.codomain_basis @ (q.matrix @ (q.domain_basis.T @ u))


def adjoint_apply(q, v):
    """Adjoint applied to an ambient vector of V-perp: the projection onto U."""
    v = as_vector(v, dim=q.codomain_basis.shape[0], name="v")
    return q.domain_basis @ (q.matrix.T @ (q.codomain_basis.T @ v))


def product_lemma_check(s_values, horizon=None):
    """For a sequence in [0, 2], returns (sum of s*(2-s), product of |1-s|)
    over the first *horizon* terms. Out-of-range values are rejected."""
    s = np.asarray(s_values, dtype=float)
    if horizon is not None:
        s = s[:horizon]
    if s.size and (s.min() < 0 or s.max() > 2):
        raise ValueError("sequence values must lie in [0, 2]")
    partial_sum = float(np.sum(s * (2.0 - s)))
    abs_product = float(np.prod(np.abs(1.0 - s)))
    return partial_sum, abs_product


def reference_build(g):
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

    nonzero = sigma > NULLSPACE_CUTOFF
    return SimpleNamespace(
        matrix=m,
        domain_basis=a,
        codomain_basis=c,
        norm=float(sigma[0]) if k_u > 0 else 0.0,
        reduced_min_modulus=float(sigma[nonzero].min()) if np.any(nonzero) else 0.0,
        nullspace_basis=a @ right[:, ~nonzero],
    )


def reference_least_squares(ref, w):
    """Minimum-norm least-squares solution of Qu = w and its residual, for
    data w in V-perp, through the pseudo-inverse of C^T A."""
    m = ref.matrix
    wc = ref.codomain_basis.T @ w
    if min(m.shape) > 0 and ref.norm > 0.0:
        sol_c = np.linalg.pinv(m, rcond=NULLSPACE_CUTOFF / ref.norm) @ wc
    else:
        sol_c = np.zeros(m.shape[1])
    return ref.domain_basis @ sol_c, float(np.linalg.norm(wc - m @ sol_c))


def reference_report(g):
    """nu as the largest cosine between U and the explicit V-perp; gamma as
    sqrt(1 - fc^2) from the Friedrichs cosine of the reduced pair."""
    u0 = g.u_space.basis
    nu_cos = principal_cosines(u0, orthogonal_complement(g.w_space.basis))
    fc, dim_j = friedrichs_cos(g.u_space, g.w_space)
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


def stepwise_filter_pair(schedule, lam, n):
    """(F_n(lam), 1 - F_n(lam)) from one update per step: F is the running
    product of the factors 1 - alpha_j lam, 1 - F the sum of alpha_j lam F_j."""
    lam = np.asarray(lam, dtype=float)
    f, g, buf = np.ones_like(lam), np.zeros_like(lam), np.empty_like(lam)
    for alpha in schedule.alphas(n).tolist():
        np.multiply(lam, alpha, out=buf)
        g += np.multiply(buf, f, out=buf)
        f *= np.subtract(1.0, np.multiply(lam, alpha, out=buf), out=buf)
    return f, g


def error_recursion_check(q, schedule, e0, n):
    """Propagate an initial error n steps by the direct recursion with the
    dense k_u x k_u matrix R^T R, and by the spectral expansion, which
    multiplies each component in the stored right singular basis by its
    filter polynomial F_n(s_i^2); returns the pair (iterated, spectral) for
    comparison. Neither side factorizes anything.

    The initial error must be orthogonal to the null space (a component above
    tolerance is rejected: the recursion keeps errors in that complement).
    """
    e0 = as_vector(e0, dim=q.domain_basis.shape[0], name="e0")
    nb = q.nullspace_basis
    if nb.shape[1] > 0:
        if lengths(nb.T @ e0) > 1e-10 * (1.0 + lengths(e0)):
            raise ValueError("e0 has a null-space component above tolerance")
    a, yt = q.domain_basis, q.right_vectors
    m = q.matrix
    t = m.T @ m

    c = a.T @ e0
    for alpha in schedule.alphas(n):
        c = c - alpha * (t @ c)
    iterated = a @ c

    factors = filter_pair(schedule, q.sines ** 2, n)[0]
    spectral = a @ (yt.T @ (factors * (yt @ (a.T @ e0))))
    return iterated, spectral


def diagonal_landweber_reference(p, r, d, schedule, max_iters):
    """*max_iters* steps of the gradient iteration on the diagonal model with
    singular values i^-p and data i^-r, from u = 0, one step at a time.

    The steps run on the data scaled by the power of two c that puts the
    largest w_i / sigma_i near 2^1000, and multiply by alpha last, so that
    neither a subnormal alpha sigma_i nor a subnormal iterate loses bits:
    the only rounding below the normal range is the one of u / c."""
    i = np.arange(1, int(d) + 1, dtype=float)
    sigma = i ** (-float(p))
    w = i ** (-float(r))
    c = 2.0 ** (1000 - math.frexp(float(np.max(w / sigma)))[1])
    w = c * w
    u = np.zeros(int(d))
    for alpha in schedule.alphas(int(max_iters)):
        u = u + alpha * (sigma * (w - sigma * u))
    return u / c


def stepwise_reference(q, w, schedule, u0, max_iters=10_000, conv_tol=1e-10):
    """:func:`altproj.engine.run_alternating` one step at a time: each step
    z <- z + alpha s (X^T w - s z) on the coordinates, then the stop rules on
    the new error, in the engine's order. Returns the trace and every
    iterate A Y z, as the rows of an (n_steps + 1, d) array. Reads the
    engine's stop constants when called, so a test that patches them
    patches both. Expects valid arguments."""
    a, yt, s, x = q.domain_basis, q.right_vectors, q.sines, q.codomain_basis
    limit = proj.limit_point(q, w, u0)
    u0 = np.asarray(u0, dtype=float)
    w = np.asarray(w, dtype=float)
    c = a.T @ u0
    projected = bool(np.linalg.norm(u0 - a @ c) > 1e-10 * (1.0 + np.linalg.norm(u0)))
    z = yt @ c
    z_lim = yt @ (a.T @ limit)
    wc = x.T @ w
    r_perp = float(np.linalg.norm(w - x @ wc))

    rz = wc - s * z
    d = z - z_lim
    errors = [math.sqrt(d @ d)]
    residuals = [math.hypot(r_perp, math.sqrt(rz @ rz))]
    coords, used = [z], []
    e_cap = engine.DIVERGENCE_CAP * errors[0] if errors[0] > 0 else math.inf
    n_terms = max_iters if schedule.length is None else min(max_iters, schedule.length)
    alphas = iter(schedule.alphas(n_terms).tolist())
    n = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            e = errors[-1]
            if not (math.isfinite(e) and math.isfinite(residuals[-1])):
                stop = "nonfinite"
                break
            if e <= conv_tol:
                stop = "converged"
                break
            if n == max_iters:
                stop = "max_iters"
                break
            if e > e_cap:
                stop = "diverged"
                break
            if n >= engine.STALL_WINDOW:
                e_back = errors[-1 - engine.STALL_WINDOW]
                if e_back > 0 and abs(e_back - e) < engine.STALL_RTOL * e_back:
                    stop = "stalled"
                    break
            alpha = next(alphas, None)
            if alpha is None:
                stop = "schedule_exhausted"
                break
            z = z + alpha * (s * rz)
            rz = wc - s * z
            d = z - z_lim
            errors.append(math.sqrt(d @ d))
            residuals.append(math.hypot(r_perp, math.sqrt(rz @ rz)))
            used.append(alpha)
            n += 1
            coords.append(z)
        iterates = (np.array(coords) @ yt) @ a.T

    trace = IterationTrace(
        error_norms=np.asarray(errors),
        residuals=np.asarray(residuals),
        alphas_used=np.asarray(used, dtype=float),
        stop_reason=stop,
        estimated_rate=None,
        final_iterate=iterates[-1],
        limit=limit,
        u0_projected=projected,
    )
    window = min(engine.RATE_WINDOW, len(errors) - 1)
    if window >= 1 and np.all(np.isfinite(trace.error_norms[-(window + 1):])):
        trace.estimated_rate = estimate_rate(trace.error_norms, window)
    return trace, iterates


def normal_equation_residual(g, lss, w):
    """The normal-equation residual M^T (M x - C^T w) of the least-squares set
    *lss* of the canonical geometry *g* and data *w*, with its part along the
    reference null space projected out, and ||x||: x is the minimum-norm
    solution in coordinates of U's basis A, and M = C^T A the operator formed
    by :func:`reference_build` from the bases, so no factor of the package's
    projector is read."""
    ref = reference_build(g)
    a = g.u_space.basis
    x = a.T @ lss.min_norm_solution
    m = ref.matrix
    r = m.T @ (m @ x - ref.codomain_basis.T @ w)
    n = a.T @ ref.nullspace_basis
    return float(np.linalg.norm(r - n @ (n.T @ r))), float(np.linalg.norm(x))

"""The iteration engine.

Runs the relaxed alternating-projection iteration as a variable-step
Landweber iteration on the k_u coordinates c = A^T u of the iterate in an
orthonormal basis A of U. With the restricted projector's thin factorization
R = X M, one step is c <- c + alpha * M^T (X^T w - M c); it equals the
geometric step P_U(u + alpha (P_W u - u)), which :func:`geometric_step` keeps
as the reference the tests iterate. The one entry point,
:func:`run_alternating`, takes the projector of an analyzed problem and the
data w, validates its inputs once, and runs a loop whose cost per step does
not depend on d.
Error norms are measured against the precomputed oracle limit, which is
available in finite dimensions, rather than against successive differences.
"""

import math
from dataclasses import dataclass

import numpy as np

from .schedule import filter_poly
from .validation import as_vector
from .subspace import project, project_relaxed
from . import projector as proj

# Steps over which a run whose error changes by less than its stall_rtol
# counts as stalled.
STALL_WINDOW = 50
# Trailing steps the empirical rate is fitted over.
RATE_WINDOW = 50
# A trace stores the iterate of every step up to THIN_AFTER, then of every
# THIN_STRIDE-th step (and always the last one).
THIN_AFTER = 1000
THIN_STRIDE = 100


@dataclass
class IterationTrace:
    """Per-step record of a run.

    ``error_norms``, ``residuals`` have one entry per recorded iterate
    (n = 0 .. n_final); ``alphas_used`` one entry per step taken. Iterates are
    stored as rows of ``coords`` in the orthonormal ``basis`` A of U, densely
    for THIN_AFTER steps, then thinned; ``iterate_steps`` gives the step
    index of each stored iterate. A run that stops as ``nonfinite`` took
    ``n_steps`` steps, and its last error norm or residual, the first
    non-finite one, belongs to step ``n_steps``.
    """

    coords: np.ndarray
    basis: np.ndarray
    iterate_steps: list
    error_norms: np.ndarray
    residuals: np.ndarray
    alphas_used: np.ndarray
    # converged | max_iters | stalled | diverged | nonfinite | schedule_exhausted
    stop_reason: str
    estimated_rate: float | None
    limit: np.ndarray
    u0_projected: bool

    @property
    def iterates(self):
        """The stored iterates A c as rows of an (n_stored, d) array, formed
        on each access."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.coords @ self.basis.T

    @property
    def n_steps(self):
        return len(self.alphas_used)

    @property
    def final_error(self):
        return float(self.error_norms[-1])


def geometric_step(g, u, alpha):
    """One step of the iteration in the paper's geometric form: the relaxed
    projection onto W followed by the projection onto U. A reference for the
    tests; the engine's loop runs the equivalent coordinate step."""
    return project(g.u_space, project_relaxed(g.w_space, u, alpha))


def run_alternating(q, w, schedule, u0, max_iters=10_000, conv_tol=1e-10, stall_rtol=1e-15,
                    divergence_cap=1e9):
    """Run the iteration u <- u + alpha_n Q*(w - Qu) from the restricted
    projector *q* (:func:`altproj.projector.build`) and data *w* in its
    codomain. With *w* the offset of W of a canonicalized geometry this is
    the alternating iteration u <- P_U(u + alpha_n (P_W u - u)).

    An initial iterate outside U is silently projected and flagged on the
    trace. The run stops when the error reaches *conv_tol* ("converged"),
    after *max_iters* steps ("max_iters"), when the error grows past
    *divergence_cap* times its initial value ("diverged"), when it changes by
    less than *stall_rtol* relative over STALL_WINDOW steps ("stalled"), when
    an error norm or residual is not finite ("nonfinite"), or when a finite
    schedule runs out of terms ("schedule_exhausted").

    The loop works on the coordinates c = A^T u and touches only
    k_u-vectors: the residual vector rc = X^T w - M c gives both the step
    direction M^T rc and the distance to W, hypot(||w - X X^T w||, ||rc||),
    which is exact because w lies in V-perp and R = X M. The trace keeps
    the coordinates; ambient iterates A c are formed only when read.
    """
    a, m, x = q.domain_basis, q.matrix, q.codomain_basis
    # limit_point validates u0 and w; u0 and P_U u0 have the same null-space
    # component, so both give the same limit
    limit = proj.limit_point(q, w, u0)
    u0 = np.asarray(u0, dtype=float)
    w = np.asarray(w, dtype=float)
    c = a.T @ u0
    projected = bool(np.linalg.norm(u0 - a @ c) > 1e-10 * (1.0 + np.linalg.norm(u0)))
    c_lim = a.T @ limit
    wc = x.T @ w
    r_perp = float(np.linalg.norm(w - x @ wc))
    mt = m.T

    rc = wc - m @ c
    d = c - c_lim
    errors = [math.sqrt(d @ d)]
    residuals = [math.hypot(r_perp, math.sqrt(rc @ rc))]
    coords, iterate_steps, used = [c], [0], []
    e_ref = max(errors[0], 1e-300)
    alphas = schedule.stream()
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
            if e > divergence_cap * e_ref:
                stop = "diverged"
                break
            if n >= STALL_WINDOW:
                e_back = errors[-1 - STALL_WINDOW]
                if e_back > 0 and abs(e_back - e) < stall_rtol * e_back:
                    stop = "stalled"
                    break
            alpha = next(alphas, None)
            if alpha is None:
                stop = "schedule_exhausted"
                break
            c = c + alpha * (mt @ rc)
            rc = wc - m @ c
            d = c - c_lim
            errors.append(math.sqrt(d @ d))
            residuals.append(math.hypot(r_perp, math.sqrt(rc @ rc)))
            used.append(alpha)
            n += 1
            if n <= THIN_AFTER or n % THIN_STRIDE == 0:
                coords.append(c)
                iterate_steps.append(n)
    if iterate_steps[-1] != n:
        coords.append(c)
        iterate_steps.append(n)

    trace = IterationTrace(
        coords=np.array(coords),
        basis=a,
        iterate_steps=iterate_steps,
        error_norms=np.asarray(errors),
        residuals=np.asarray(residuals),
        alphas_used=np.asarray(used, dtype=float),
        stop_reason=stop,
        estimated_rate=None,
        limit=limit,
        u0_projected=projected,
    )
    window = min(RATE_WINDOW, len(errors) - 1)
    if window >= 1 and np.all(np.isfinite(trace.error_norms[-(window + 1):])):
        try:
            trace.estimated_rate = estimate_rate(trace, window)
        except ValueError:
            trace.estimated_rate = None
    return trace


def error_recursion_check(q, schedule, e0, n):
    """Propagate an initial error n steps by the direct recursion and by the
    spectral expansion, which multiplies each eigencomponent by its filter
    polynomial F_n; returns the pair (iterated, spectral) for comparison.

    The initial error must be orthogonal to the null space (a component above
    tolerance is rejected: the recursion keeps errors in that complement).
    """
    from .linalg import sym_eig

    e0 = as_vector(e0, dim=q.domain_basis.shape[0], name="e0")
    nb = q.nullspace_basis
    if nb.shape[1] > 0:
        comp = np.linalg.norm(nb.T @ e0)
        if comp > 1e-10 * (1.0 + np.linalg.norm(e0)):
            raise ValueError("e0 has a null-space component above tolerance")
    a = q.domain_basis
    t = q.matrix.T @ q.matrix

    c = a.T @ e0
    for alpha in schedule.alphas(n):
        c = c - alpha * (t @ c)
    iterated = a @ c

    evals, evecs = sym_eig(t) if t.shape[0] > 0 else (np.zeros(0), np.zeros((0, 0)))
    coeffs = evecs.T @ (a.T @ e0)
    spectral = a @ (evecs @ (filter_poly(schedule, evals, n) * coeffs))
    return iterated, spectral


def contraction_factor(q, alpha):
    """Worst-case per-step error factor on the complement of the null space:
    max(1 - alpha * gamma^2, alpha * norm^2 - 1). A scalar *alpha* gives a
    float, an array of them an array of its shape."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha < 0):
        raise ValueError("alpha must be nonnegative")
    g2 = q.reduced_min_modulus ** 2
    n2 = q.norm ** 2
    rho = np.maximum(1.0 - alpha * g2, alpha * n2 - 1.0)
    return float(rho) if rho.ndim == 0 else rho


def estimate_rate(trace, window=50):
    """Empirical per-step contraction factor: exponentiated least-squares slope
    of log error over the trailing *window* steps. Exact zeros in the window
    mean exact convergence and give rate 0."""
    errors = trace.error_norms if isinstance(trace, IterationTrace) else np.asarray(trace, dtype=float)
    if window < 1 or len(errors) < window + 1:
        raise ValueError(f"need at least window+1 = {window + 1} recorded error norms")
    tail = errors[-(window + 1):]
    if np.any(tail <= 0):
        return 0.0
    slope = np.polyfit(np.arange(tail.size), np.log(tail), 1)[0]
    return float(np.exp(slope))


@dataclass(frozen=True)
class RateBound:
    """Theoretical linear-rate bound 1 - eps * gamma^2 / nu^2 for a scaled
    schedule confined to [eps, 2 - eps]."""

    epsilon: float
    nu: float
    gamma: float
    bound: float


def rate_bound(nu, gamma, alphas):
    """Rate bound for the given coefficients on a problem with the given
    norm (*nu*) and reduced minimum modulus (*gamma*). The box margin eps is
    the largest one the coefficients satisfy; an empty margin gives bound 1."""
    if nu <= 0:
        raise ValueError("nu must be positive")
    alphas = np.asarray(alphas, dtype=float)
    s = alphas * nu * nu
    eps = float(max(0.0, min(np.min(s), 2.0 - np.max(s)))) if s.size else 0.0
    bound = 1.0 - eps * (gamma * gamma) / (nu * nu)
    return RateBound(epsilon=eps, nu=float(nu), gamma=float(gamma), bound=float(bound))

"""The iteration engine.

Runs the relaxed alternating-projection iteration in its two equivalent forms:
the geometric form (project onto W with relaxation, then onto U) and the
gradient form (a variable-step Landweber update through the restricted
projector). Error norms are measured against the precomputed oracle limit,
which is available in finite dimensions, rather than against successive
differences.
"""

from dataclasses import dataclass

import numpy as np

from .validation import INTERSECTION_TOL, as_vector
from .subspace import project, project_relaxed, require_canonical
from . import projector as proj


@dataclass
class IterationTrace:
    """Per-step record of a run.

    ``error_norms``, ``residuals`` have one entry per recorded iterate
    (n = 0 .. n_final); ``alphas_used`` one entry per step taken. Iterates are
    stored densely for the first ``thin_after`` steps, then thinned;
    ``iterate_steps`` gives the step index of each stored iterate.
    """

    iterates: list
    iterate_steps: list
    error_norms: np.ndarray
    residuals: np.ndarray
    alphas_used: np.ndarray
    stop_reason: str  # converged | max_iters | stalled | diverged
    estimated_rate: float | None
    limit: np.ndarray
    u0_projected: bool

    @property
    def n_steps(self):
        return len(self.alphas_used)

    @property
    def final_error(self):
        return float(self.error_norms[-1])


def _run_loop(step, error_of, residual_of, u0, alphas, conv_tol,
              stall_window, stall_rtol, divergence_cap, thin_after, thin_stride):
    u = u0
    errors = [error_of(u)]
    residuals = [residual_of(u)]
    iterates = [u.copy()]
    iterate_steps = [0]
    used = []
    stop = "max_iters"
    e_ref = max(errors[0], 1e-300)

    for n, alpha in enumerate(alphas):
        e = errors[-1]
        if e <= conv_tol:
            stop = "converged"
            break
        if e > divergence_cap * e_ref:
            stop = "diverged"
            break
        if len(errors) > stall_window:
            e_back = errors[-1 - stall_window]
            if e_back > 0 and abs(e_back - e) < stall_rtol * e_back:
                stop = "stalled"
                break
        u = step(u, alpha)
        used.append(alpha)
        errors.append(error_of(u))
        residuals.append(residual_of(u))
        k = n + 1
        if k <= thin_after or k % thin_stride == 0:
            iterates.append(u.copy())
            iterate_steps.append(k)
    else:
        if errors[-1] <= conv_tol:
            stop = "converged"

    if iterate_steps[-1] != len(used):
        iterates.append(u.copy())
        iterate_steps.append(len(used))

    return iterates, iterate_steps, np.asarray(errors), np.asarray(residuals), np.asarray(used), stop


def _finish(trace_parts, limit, u0_projected, rate_window):
    iterates, steps, errors, residuals, used, stop = trace_parts
    trace = IterationTrace(
        iterates=iterates,
        iterate_steps=steps,
        error_norms=errors,
        residuals=residuals,
        alphas_used=used,
        stop_reason=stop,
        estimated_rate=None,
        limit=limit,
        u0_projected=u0_projected,
    )
    window = min(rate_window, len(errors) - 1)
    if window >= 1 and np.all(errors[-(window + 1):] >= 0):
        try:
            trace.estimated_rate = estimate_rate(trace, window)
        except ValueError:
            trace.estimated_rate = None
    return trace


def _prepare_u0(basis, u0):
    u0 = as_vector(u0, dim=basis.shape[0], name="u0")
    u0_in = basis @ (basis.T @ u0)
    projected = np.linalg.norm(u0 - u0_in) > 1e-10 * (1.0 + np.linalg.norm(u0))
    return (u0_in if projected else u0), projected


def run_alternating(g, schedule, u0, max_iters=10_000, conv_tol=1e-10, tol=INTERSECTION_TOL,
                    stall_window=50, stall_rtol=1e-15, divergence_cap=1e9,
                    thin_after=1000, thin_stride=100, rate_window=50):
    """Run the iteration in geometric form: relaxed projection onto W followed
    by projection onto U. Requires a canonicalized geometry; an initial iterate
    outside U is silently projected and flagged on the trace."""
    require_canonical(g)
    q = proj.build(g, tol=tol)
    w = g.w_offset
    u0, projected = _prepare_u0(g.u_space.basis, u0)
    limit = proj.limit_point(q, w, u0)

    def step(u, alpha):
        return project(g.u_space, project_relaxed(g.w_space, u, alpha))

    parts = _run_loop(
        step,
        lambda u: float(np.linalg.norm(u - limit)),
        lambda u: proj.distance_to_w(g, u),
        u0, schedule.alphas(max_iters), conv_tol,
        stall_window, stall_rtol, divergence_cap, thin_after, thin_stride,
    )
    return _finish(parts, limit, projected, rate_window)


def run_landweber(q, w, schedule, u0, max_iters=10_000, conv_tol=1e-10,
                  stall_window=50, stall_rtol=1e-15, divergence_cap=1e9,
                  thin_after=1000, thin_stride=100, rate_window=50):
    """Run the iteration in gradient form: u <- u + alpha * Q*(w - Qu), using
    the restricted projector directly. Same contract as :func:`run_alternating`;
    the two produce the same trace on the same problem."""
    w = as_vector(w, dim=q.codomain_basis.shape[0], name="w")
    a, m, x = q.domain_basis, q.matrix, q.codomain_basis
    wc = x.T @ w
    u0, projected = _prepare_u0(a, u0)
    limit = proj.limit_point(q, w, u0)

    def step(u, alpha):
        r = wc - m @ (a.T @ u)
        return u + alpha * (a @ (m.T @ r))

    def residual(u):
        # ambient: w may have a component outside the range of x
        return float(np.linalg.norm(w - x @ (m @ (a.T @ u))))

    parts = _run_loop(
        step,
        lambda u: float(np.linalg.norm(u - limit)),
        residual,
        u0, schedule.alphas(max_iters), conv_tol,
        stall_window, stall_rtol, divergence_cap, thin_after, thin_stride,
    )
    return _finish(parts, limit, projected, rate_window)


def error_recursion_check(q, schedule, e0, n):
    """Propagate an initial error n steps by the direct recursion and by the
    spectral expansion; returns the pair (iterated, spectral) for comparison.

    The initial error must be orthogonal to the null space (a component above
    tolerance is rejected: the recursion keeps errors in that complement).
    """
    from .linalg import sym_eig
    from .schedule import filter_poly

    e0 = as_vector(e0, dim=q.domain_basis.shape[0], name="e0")
    nb = q.nullspace_basis
    if nb.shape[1] > 0:
        comp = np.linalg.norm(nb.T @ e0)
        if comp > 1e-10 * (1.0 + np.linalg.norm(e0)):
            raise ValueError("e0 has a null-space component above tolerance")
    alphas = schedule.alphas(n)
    a = q.domain_basis
    t = q.matrix.T @ q.matrix

    c = a.T @ e0
    for alpha in alphas:
        c = c - alpha * (t @ c)
    iterated = a @ c

    evals, evecs = sym_eig(t) if t.shape[0] > 0 else (np.zeros(0), np.zeros((0, 0)))
    coeffs = evecs.T @ (a.T @ e0)
    factors = np.array([filter_poly(schedule, lam, n) for lam in evals])
    spectral = a @ (evecs @ (factors * coeffs))
    return iterated, spectral


def contraction_factor(q, alpha):
    """Worst-case per-step error factor on the complement of the null space:
    max(1 - alpha * gamma^2, alpha * norm^2 - 1)."""
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    g2 = q.reduced_min_modulus ** 2
    n2 = q.norm ** 2
    return max(1.0 - alpha * g2, alpha * n2 - 1.0)


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
    schedule confined to [eps, 2 - eps], with the per-step factors."""

    epsilon: float
    nu: float
    gamma: float
    bound: float
    per_step_factors: np.ndarray


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
    factors = np.maximum(1.0 - alphas * gamma * gamma, alphas * nu * nu - 1.0)
    return RateBound(epsilon=eps, nu=float(nu), gamma=float(gamma), bound=float(bound),
                     per_step_factors=factors)

"""The iteration engine.

Runs the relaxed alternating-projection iteration as a variable-step
Landweber iteration on the k_u coordinates z = Y^T A^T u of the iterate in
the right singular basis A Y of the restricted projector's thin
factorization R = X S Y^T. There the operator is diagonal, so one step,
z <- z + alpha * s * (X^T w - s * z), is elementwise on k_u-vectors; it
equals the geometric step P_U(u + alpha (P_W u - u)), which
:func:`geometric_step` keeps as the reference the tests iterate. The one
entry point, :func:`run_alternating`, takes the projector of an analyzed
problem and the data w, validates its inputs once, and advances the
iteration a block of steps at a time: n steps multiply each error component
by the filter polynomial F_n(s^2) = prod_{j<n} (1 - alpha_j s^2), so a block
is a prefix product over time, with no Python work per step. The cost per
step does not depend on d and is linear in k_u.
Error norms are measured against the precomputed oracle limit, which is
available in finite dimensions, rather than against successive differences.
"""

import math
from dataclasses import dataclass

import numpy as np

from .schedule import box_margin
from .validation import as_count, as_real, as_vector
from .subspace import project, project_relaxed
from .linalg import lengths
from . import projector as proj

# A run whose error changes by less than STALL_RTOL relative over
# STALL_WINDOW steps counts as stalled, and one whose error passes
# DIVERGENCE_CAP times a nonzero initial error as diverged.
STALL_WINDOW = 50
STALL_RTOL = 1e-15
DIVERGENCE_CAP = 1e9
# Trailing steps the empirical rate is fitted over.
RATE_WINDOW = 50
# The stop rules in the order they are tested after each step.
STOP_REASONS = ("nonfinite", "converged", "max_iters", "diverged", "stalled")
# The loop advances FIRST_BLOCK steps, then blocks twice as long each time,
# up to BLOCK_ELEMENTS entries of the (steps, k_u) block arrays: a run that
# stops early wastes little, and a block's arrays stay in cache.
FIRST_BLOCK = 16
BLOCK_ELEMENTS = 2 ** 15


@dataclass
class IterationTrace:
    """Per-step record of a run.

    ``error_norms``, ``residuals`` have one entry per step's iterate
    (n = 0 .. n_steps); ``alphas_used`` one entry per step taken;
    ``final_iterate`` is the ambient iterate of step ``n_steps``. A run is
    prefix-exact: a run of n steps ends, bit for bit, in the state that a
    longer run with the same arguments reaches at step n, and its per-step
    arrays are the longer run's first entries; so the iterate of any step
    is the final iterate of a run to it. A run that stops as ``nonfinite``
    took ``n_steps`` steps, and its last error norm or residual, the first
    non-finite one, belongs to step ``n_steps``.
    """

    error_norms: np.ndarray
    residuals: np.ndarray
    alphas_used: np.ndarray
    # converged | max_iters | stalled | diverged | nonfinite | schedule_exhausted
    stop_reason: str
    estimated_rate: float | None
    final_iterate: np.ndarray
    limit: np.ndarray
    u0_projected: bool

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


def run_alternating(q, w, schedule, u0, max_iters=10_000, conv_tol=1e-10):
    """Run the iteration u <- u + alpha_n Q*(w - Qu) from the restricted
    projector *q* (:func:`altproj.projector.build`) and data *w*. With *w*
    the offset of W of a canonicalized geometry this is the alternating
    iteration u <- P_U(u + alpha_n (P_W u - u)).

    An initial iterate outside U is silently projected and flagged on the
    trace. The run stops when the error reaches *conv_tol* ("converged"),
    after *max_iters* steps ("max_iters"), when the error grows past
    DIVERGENCE_CAP times a nonzero initial error ("diverged"), when it
    changes by less than STALL_RTOL relative over STALL_WINDOW steps
    ("stalled"), when an error norm or residual is not finite ("nonfinite"),
    or when a finite schedule runs out of terms ("schedule_exhausted").
    After each step the rules are tested in that order, nonfinite first, and
    the first step at which one holds ends the run. *max_iters* must be a
    nonnegative integer (a float with an integral value is accepted) and
    *conv_tol* a number (an int or a float, as validation.as_real reads
    one), not NaN; a negative *conv_tol* disables only "converged".

    The run works in the coordinates z = Y^T A^T u, on the error d = z - z_lim
    and the residual vector rz = X^T w - s z, whose norm with
    ||w - X X^T w|| gives ||w - Qu|| exactly, because R = X S Y^T. That is
    the trace's residual column: the distance to W when *w* lies in V-perp,
    as the offset of a canonicalized geometry does, and the residual of the
    least-squares problem 'Qu = w' otherwise. Since Y is orthogonal, ||d||
    is the error of the iterate. Every such length is measured by
    :func:`altproj.linalg.lengths`. A step multiplies both elementwise by
    1 - alpha_n s^2, so the run advances a block of steps at a time
    (:func:`_block_sizes`) by prefix products over the block, with no Python
    work per step, and tests the stop rules on every step of the block at
    once. The trace keeps the ambient iterate A Y z of the last step only.
    """
    max_iters = as_count(max_iters, "max_iters")
    conv_tol = as_real(conv_tol, "conv_tol")
    if math.isnan(conv_tol):
        raise ValueError("conv_tol must not be NaN")
    a, yt, s, x = q.domain_basis, q.right_vectors, q.sines, q.codomain_basis
    # limit_point validates u0 and w; u0 and P_U u0 have the same null-space
    # component, so both give the same limit
    limit = proj.limit_point(q, w, u0)
    u0 = np.asarray(u0, dtype=float)
    w = np.asarray(w, dtype=float)
    c = a.T @ u0
    projected = bool(lengths(u0 - a @ c) > 1e-10 * (1.0 + lengths(u0)))
    z = yt @ c
    z_lim = yt @ (a.T @ limit)
    wc = x.T @ w
    r_perp = lengths(w - x @ wc)

    # The limit fixes the components of sines above the cutoff (rz_lim is
    # rounding there) and keeps those of zero sines, but a sine in
    # (0, cutoff] still moves its component by alpha s rz_lim per step: the
    # drift term of the error, d_{n+1} = (1 - alpha_n s^2) d_n + alpha_n s rz_lim.
    s2 = s * s
    drift = (s > 0) & ~q.kept
    rz_lim = (wc - s * z_lim)[drift]
    s_drift = s[drift]

    rz = wc - s * z
    d = z - z_lim
    e0 = lengths(d)
    e_cap = DIVERGENCE_CAP * e0 if e0 > 0 else math.inf
    errors, residuals, used = [], [], []
    # the errors of the STALL_WINDOW states before a block, NaN before state 0
    back = np.full(STALL_WINDOW, np.nan)
    # state 0 is tested as a block of one row, reached by no step
    dd, rr, alpha = d[None, :], rz[None, :], np.empty(0)
    n = 0
    # the block arrays are written in place and grown only with the block
    # size: fresh arrays this large would be mapped from the OS, and fault
    # in their pages, on every block
    p_buf = d_buf = r_buf = np.empty((0, s.size))
    blocks = schedule.stream(_block_sizes(s.size, max_iters))
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            e = lengths(dd)
            res = np.hypot(r_perp, lengths(rr))
            hist = np.concatenate([back, e])
            back = hist[e.size:]
            steps = np.arange(n - e.size + 1, n + 1)
            e_back = hist[:e.size]
            hits = np.array([
                ~(np.isfinite(e) & np.isfinite(res)),
                e <= conv_tol,
                steps == max_iters,
                e > e_cap,
                (e_back > 0) & (np.abs(e_back - e) < STALL_RTOL * e_back),
            ])
            rows = np.flatnonzero(hits.any(axis=0))
            taken = rows[0] + 1 if rows.size else e.size
            errors.append(e[:taken])
            residuals.append(res[:taken])
            used.append(alpha[:taken])
            n = int(steps[taken - 1])
            if rows.size:
                stop = STOP_REASONS[int(np.argmax(hits[:, rows[0]]))]
                break
            alpha = next(blocks, None)
            if alpha is None:
                stop = "schedule_exhausted"
                break
            d, rz = dd[-1].copy(), rr[-1].copy()
            if alpha.size > len(p_buf):
                p_buf, d_buf, r_buf = (np.empty((alpha.size, s.size)) for _ in range(3))
            p, dd, rr = p_buf[:alpha.size], d_buf[:alpha.size], r_buf[:alpha.size]
            # p[t] = prod_{j<=t} (1 - alpha_j s^2), the factor of t + 1 steps
            np.multiply.outer(alpha, s2, out=p)
            np.cumprod(np.subtract(1.0, p, out=p), axis=0, out=p)
            np.multiply(p, d, out=dd)
            np.multiply(p, rz, out=rr)
            if s_drift.size:
                # k[t] = sum_{j<=t} alpha_j s prod_{i<j} (1 - alpha_i s^2)
                p_prev = np.vstack([np.ones(s_drift.size), p[:-1, drift]])
                dd[:, drift] += np.cumsum(alpha[:, None] * (s_drift * p_prev), axis=0) * rz_lim
            n += alpha.size
        final_iterate = ((z_lim + dd[taken - 1]) @ yt) @ a.T

    error_norms = np.concatenate(errors)
    trace = IterationTrace(
        error_norms=error_norms,
        residuals=np.concatenate(residuals),
        alphas_used=np.concatenate(used),
        stop_reason=stop,
        estimated_rate=None,
        final_iterate=final_iterate,
        limit=limit,
        u0_projected=projected,
    )
    window = min(RATE_WINDOW, error_norms.size - 1)
    if window >= 1 and np.all(np.isfinite(error_norms[-(window + 1):])):
        trace.estimated_rate = estimate_rate(error_norms, window)
    return trace


def _block_sizes(k, max_iters):
    """Steps per block for k_u = *k*: FIRST_BLOCK, doubling up to
    BLOCK_ELEMENTS // k (at least 1), the last one cut to end at *max_iters*."""
    cap = max(1, BLOCK_ELEMENTS // max(k, 1))
    size, left = min(FIRST_BLOCK, cap), max_iters
    while left > 0:
        yield min(size, left)
        left -= size
        size = min(2 * size, cap)


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


def estimate_rate(errors, window=RATE_WINDOW):
    """Empirical per-step contraction factor from an array of error norms:
    exponentiated least-squares slope of log error over the trailing *window*
    steps. Exact zeros in the window mean exact convergence and give rate 0."""
    errors = np.asarray(errors, dtype=float)
    window = as_count(window, "window")
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
    bound: float


def rate_bound(nu, gamma, alphas):
    """Rate bound for the given coefficients on a problem with the given
    norm (*nu*) and reduced minimum modulus (*gamma*). The box margin eps is
    the largest one the coefficients satisfy; an empty margin gives bound 1."""
    nu, gamma = as_real(nu, "nu"), as_real(gamma, "gamma")
    if not (math.isfinite(nu) and nu > 0 and math.isfinite(gamma) and gamma >= 0):
        raise ValueError(f"need a finite nu > 0 and gamma >= 0, got nu={nu!r}, gamma={gamma!r}")
    alphas = as_vector(alphas, name="alphas")
    eps = box_margin(alphas * nu * nu)
    bound = 1.0 - eps * (gamma * gamma) / (nu * nu)
    return RateBound(epsilon=eps, bound=float(bound))

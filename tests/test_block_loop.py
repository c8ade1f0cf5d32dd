"""The engine's block loop against the stepwise reference at block edges.

``run_alternating`` advances the iteration a block of steps at a time, with
block sizes from ``engine._block_sizes``, and tests the stop rules on every
step of a block at once. A run that stops, or a schedule that ends, on either
side of a block edge must stop where stepping one step at a time stops, with
the same stop reason, steps and coefficients, and the same error norms,
residuals and final iterate up to rounding. A run is prefix-exact: a run cut
short ends in the state that a longer one passes through, bit for bit.
"""

from itertools import islice
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from altproj import engine
from altproj.engine import run_alternating
from altproj.problems import controlled_angle_geometry
from altproj.projector import build, limit_point
from altproj.schedule import KINDS, Schedule
from altproj.subspace import AffineSubspace, ProblemGeometry

from helpers import (iterates_at, property_geometries, property_settings, random_u0,
                     schedule_of)
from reference import geometric_reference, stepwise_reference


def block_edges(k, n):
    """The first *n* block edges for k_u = *k*: the step that ends each block."""
    return np.cumsum(list(islice(engine._block_sizes(k, 10 ** 9), n))).tolist()


def assert_same_run(trace, ref, scale=None):
    """Same stop, steps and coefficients; error norms, residuals and the
    final iterate within 1e-12 of *scale*, by default the largest of 1 and
    the reference's finite error norms: a run that diverges grows its error,
    and the rounding with it, far above e_0."""
    assert trace.stop_reason == ref.stop_reason
    assert trace.n_steps == ref.n_steps
    assert np.array_equal(trace.alphas_used, ref.alphas_used)
    if scale is None:
        errors = ref.error_norms
        scale = np.max(errors[np.isfinite(errors)], initial=1.0)
    for got, want in ((trace.error_norms, ref.error_norms), (trace.residuals, ref.residuals),
                      (trace.final_iterate, ref.final_iterate)):
        assert_close(got, want, 1e-12 * scale)


def assert_close(got, want, tol):
    """Non-finite in the same entries, and within *tol* in the others."""
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) <= tol


@property_settings(150)
@given(property_geometries(), st.sampled_from(KINDS), st.integers(0, 5), st.integers(-1, 1),
       st.sampled_from([1.0, 4.0]), st.sampled_from([1e-9, 1e-6]), st.integers(0, 2 ** 31 - 1))
def test_block_loop_matches_stepwise_reference_at_block_edges(g, kind, edge, offset, reach,
                                                              tol, seed):
    # the horizon, or the length of an explicit schedule, falls on a block
    # edge or one step to either side; reach 4 lets alpha s^2 pass 2, so
    # some runs diverge
    q = build(g)
    horizon = block_edges(q.sines.size, edge + 1)[edge] + offset
    hi = reach / max(q.norm, 0.1) ** 2
    sched = schedule_of(kind, hi, seed, horizon)
    max_iters = horizon + (5 if kind == "explicit" and seed % 2 else 0)
    u0 = random_u0(g, seed)
    w = g.w_offset
    # convergence well above the rounding floor, where the two loops agree
    conv_tol = tol * max(1.0, np.linalg.norm(u0), np.linalg.norm(w))
    kw = dict(max_iters=max_iters, conv_tol=conv_tol)
    with mock.patch.object(engine, "DIVERGENCE_CAP", 1e3):
        assert_same_run(run_alternating(q, w, sched, u0, **kw),
                        stepwise_reference(q, w, sched, u0, **kw)[0])


@property_settings(150)
@given(property_geometries(), st.sampled_from(KINDS), st.integers(0, 5), st.integers(-1, 1),
       st.sampled_from([1.0, 4.0]), st.integers(0, 2 ** 31 - 1))
def test_run_is_prefix_exact(g, kind, edge, offset, reach, seed):
    # a run cut at step n, on a block edge or one step to either side, ends
    # in the state that a run one block longer passes at step n: the same
    # per-step arrays, bit for bit, and the stepwise reference's iterate
    q = build(g)
    edges = block_edges(q.sines.size, edge + 2)
    n, longer = edges[edge] + offset, edges[edge + 1] + 1
    hi = reach / max(q.norm, 0.1) ** 2
    sched = schedule_of(kind, hi, seed, longer)
    u0, w = random_u0(g, seed), g.w_offset
    # convergence well above the rounding floor, where the two loops agree
    kw = dict(conv_tol=1e-9 * max(1.0, np.linalg.norm(u0), np.linalg.norm(w)))
    with mock.patch.object(engine, "DIVERGENCE_CAP", 1e3):
        short = run_alternating(q, w, sched, u0, max_iters=n, **kw)
        long = run_alternating(q, w, sched, u0, max_iters=longer, **kw)
        ref, ref_iterates = stepwise_reference(q, w, sched, u0, max_iters=longer, **kw)
    assert_same_run(long, ref)
    m = short.n_steps
    assert m == min(n, long.n_steps)
    for name, size in (("error_norms", m + 1), ("residuals", m + 1), ("alphas_used", m)):
        assert getattr(short, name).tobytes() == getattr(long, name)[:size].tobytes()
    errors = ref.error_norms
    assert_close(short.final_iterate, ref_iterates[m],
                 1e-12 * np.max(errors[np.isfinite(errors)], initial=1.0))


def line_geometry():
    # U = x-axis, W = {(0, s, 1)}: the sine is 1, so a step of alpha scales
    # the error by exactly 1 - alpha; k_u = 1
    u = AffineSubspace.from_span(np.eye(3)[:, :1])
    w = AffineSubspace.from_span(np.eye(3)[:, 1:2], point=[0.0, 0.0, 1.0])
    return ProblemGeometry(u, w)


# From u0 = (2, 0, 0) the error is 2 |1 - alpha|^n after n constant steps.
U0 = np.array([2.0, 0.0, 0.0])
EDGES = block_edges(1, 4)  # 16, 48, 112, 240
# The first step of the first block, then the last step of a block and the
# first step of the next one, at two edges.
STOP_STEPS = [1, EDGES[0], EDGES[0] + 1, EDGES[1], EDGES[1] + 1]


def run_both(sched, scale=None, **kw):
    g = line_geometry()
    q = build(g)
    trace = run_alternating(q, g.w_offset, sched, U0, **kw)
    assert_same_run(trace, stepwise_reference(q, g.w_offset, sched, U0, **kw)[0], scale)
    return trace


@pytest.mark.parametrize("n", STOP_STEPS)
def test_converges_at_block_position(n):
    # e_n = 2 * 0.5^n is the first error at or below 3 * 0.5^n
    trace = run_both(Schedule.constant(0.5), conv_tol=3.0 * 0.5 ** n)
    assert trace.stop_reason == "converged" and trace.n_steps == n


@pytest.mark.parametrize("n", STOP_STEPS)
def test_max_iters_at_block_position(n):
    trace = run_both(Schedule.constant(0.5), max_iters=n, conv_tol=-1.0)
    assert trace.stop_reason == "max_iters" and trace.n_steps == n


@pytest.mark.parametrize("n", STOP_STEPS)
def test_diverges_at_block_position(n, monkeypatch):
    # e_n = 2 * 1.5^n first exceeds the cap times e_0 = 2 at step n; the
    # rounding grows with the error
    monkeypatch.setattr(engine, "DIVERGENCE_CAP", 1.5 ** n / 1.2)
    trace = run_both(Schedule.constant(2.5), scale=2 * 1.5 ** n)
    assert trace.stop_reason == "diverged" and trace.n_steps == n


@pytest.mark.parametrize("n", STOP_STEPS)
def test_nonfinite_at_block_position(n, monkeypatch):
    # the error grows to 2 * 1.5^(n-1) >= 2, then a step of 1e308 overflows it
    monkeypatch.setattr(engine, "DIVERGENCE_CAP", np.inf)
    sched = Schedule.explicit([2.5] * (n - 1) + [1e308] + [0.5] * 100)
    trace = run_both(sched, scale=2 * 1.5 ** n)
    assert trace.stop_reason == "nonfinite" and trace.n_steps == n
    assert not np.all(np.isfinite(trace.final_iterate))


@pytest.mark.parametrize("n", STOP_STEPS)
def test_schedule_exhausted_at_block_position(n):
    trace = run_both(Schedule.explicit([0.5] * n), max_iters=n + 10, conv_tol=-1.0)
    assert trace.stop_reason == "schedule_exhausted" and trace.n_steps == n


@pytest.mark.parametrize("n", [EDGES[2], EDGES[2] + 1, EDGES[3], EDGES[3] + 1])
def test_stalls_at_block_position(n):
    # m halving steps, then zero steps: the error is constant from step m on,
    # so the run stalls STALL_WINDOW steps later
    m = n - engine.STALL_WINDOW
    trace = run_both(Schedule.explicit([0.5] * m + [0.0] * 500), conv_tol=-1.0)
    assert trace.stop_reason == "stalled" and trace.n_steps == n


def test_stall_window_straddles_two_blocks():
    # the error freezes at step 20, in the second block; the window that
    # detects it reaches from there into the third block
    m = 20
    n = m + engine.STALL_WINDOW
    assert EDGES[0] < m <= EDGES[1] < n <= EDGES[2]
    trace = run_both(Schedule.explicit([0.5] * m + [0.0] * 500), conv_tol=-1.0)
    assert trace.stop_reason == "stalled" and trace.n_steps == n


def test_sub_cutoff_drift_matches_stepwise_and_geometric_form():
    # the sine 2e-5 lies below the null-space cutoff, so the limit keeps that
    # component of u0, yet each step still moves it by alpha s rz_lim, which
    # a translation of both subspaces makes nonzero: the block loop must
    # carry that drift
    g0 = controlled_angle_geometry([2e-5, 0.5], offset_norm=0.3, rotation_seed=3)
    t = np.random.default_rng(11).standard_normal(g0.dim_ambient)
    g = ProblemGeometry(g0.u_space.translate(t), g0.w_space.translate(t)).canonical()
    q = build(g)
    assert np.count_nonzero((q.sines > 0) & ~q.kept) == 1
    sched, u0, n = Schedule.constant(1.0), random_u0(g, 1), 5000
    kw = dict(max_iters=n, conv_tol=-1.0)
    with mock.patch.object(engine, "STALL_RTOL", 0.0):
        trace = run_alternating(q, g.w_offset, sched, u0, **kw)
        ref = stepwise_reference(q, g.w_offset, sched, u0, **kw)[0]
    scale = max(1.0, np.linalg.norm(u0), np.linalg.norm(g.w_offset))
    assert trace.n_steps == n
    assert ref.error_norms[-1] > 1e-7 * scale  # the drift is far above rounding
    assert_same_run(trace, ref, scale)
    # the geometric form shares no step with either loop; its own rounding
    # adds up along the component that barely contracts, ~1e-15 per step
    ref_iterates, ref_residuals = geometric_reference(g, sched, u0, n)
    limit = limit_point(q, g.w_offset, u0)
    tol = 1e-15 * n * scale
    assert np.max(np.abs(trace.error_norms - np.linalg.norm(ref_iterates - limit, axis=1))) <= tol
    assert np.max(np.abs(trace.residuals - ref_residuals)) <= tol
    # every step up to 1000, then every 100th
    steps = list(range(1001)) + list(range(1100, n + 1, 100))
    with mock.patch.object(engine, "STALL_RTOL", 0.0):
        iterates = iterates_at(q, g.w_offset, sched, u0, steps, conv_tol=-1.0)
    assert np.max(np.linalg.norm(iterates - ref_iterates[steps], axis=1)) <= tol


def test_zero_initial_error_sets_no_divergence_cap():
    # U and W are parallel lines, yet rounding leaves their sine just above
    # 0 and below the null-space cutoff: the limit keeps u0's component, so
    # the initial error is 0, while each step still drifts that component by
    # alpha s rz_lim. A zero initial error sets no divergence cap, so both
    # loops take the whole horizon instead of stopping as diverged at step 1
    direction = [[0.1888], [-0.1984], [0.9618]]
    g = ProblemGeometry(AffineSubspace.from_span(direction),
                        AffineSubspace.from_span(direction, point=[0.1757, 0.1583, -0.0018]))
    g = g.canonical()
    q = build(g)
    assert q.sines[0] > 0 and not q.kept[0]
    args = (q, g.w_offset, Schedule.constant(0.7), np.zeros(3))
    kw = dict(max_iters=300, conv_tol=-1.0)
    trace = run_alternating(*args, **kw)
    ref = stepwise_reference(*args, **kw)[0]
    assert trace.error_norms[0] == 0.0 < trace.error_norms[1]
    assert (trace.stop_reason, trace.n_steps) == ("max_iters", 300)
    assert_same_run(trace, ref)

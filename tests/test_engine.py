from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from altproj import engine
from altproj.angles import compute_report
from altproj.engine import (
    contraction_factor,
    error_recursion_check,
    estimate_rate,
    rate_bound,
    run_alternating,
)
from altproj.projector import build, distance_to_w, limit_point, nullspace_cutoff
from altproj.schedule import Schedule, filter_pair
from altproj.subspace import AffineSubspace, ProblemGeometry

from helpers import (canonical_controlled, canonical_random, property_geometries, random_u0,
                     well_conditioned_problem)
from reference import geometric_reference, sym_eig


def one_step_geometry():
    # U = x-axis, W = {(0, s, 1)}: the limit is the origin and a full step
    # from anywhere in U lands exactly on it
    u = AffineSubspace.from_span(np.eye(3)[:, :1])
    w = AffineSubspace.from_span(np.eye(3)[:, 1:2], point=[0.0, 0.0, 1.0])
    return ProblemGeometry(u, w)


class TestRunAlternating:
    def test_one_full_step_converges(self):
        g = one_step_geometry()
        trace = run_alternating(build(g), g.w_offset, Schedule.constant(1.0),
                                np.array([2.0, 0.0, 0.0]))
        assert trace.stop_reason == "converged"
        assert trace.n_steps == 1
        assert np.allclose(trace.limit, 0.0, atol=1e-14)
        assert np.allclose(trace.iterates[-1], 0.0, atol=1e-14)

    def test_half_step_geometric_decay(self, monkeypatch):
        monkeypatch.setattr(engine, "STALL_RTOL", 0.0)
        g = one_step_geometry()
        trace = run_alternating(build(g), g.w_offset, Schedule.constant(0.5),
                                np.array([1.0, 0.0, 0.0]), max_iters=30, conv_tol=-1.0)
        assert np.allclose(trace.error_norms, 0.5 ** np.arange(31), atol=1e-14)
        assert trace.estimated_rate == pytest.approx(0.5, abs=1e-8)

    def test_start_at_limit_takes_no_steps(self):
        g = one_step_geometry()
        trace = run_alternating(build(g), g.w_offset, Schedule.constant(1.0), np.zeros(3))
        assert trace.stop_reason == "converged"
        assert trace.n_steps == 0

    def test_zero_schedule_stalls(self):
        g = one_step_geometry()
        trace = run_alternating(build(g), g.w_offset, Schedule.constant(0.0),
                                np.array([1.0, 0.0, 0.0]), max_iters=500)
        assert trace.stop_reason == "stalled"
        assert trace.final_error == pytest.approx(1.0)

    def test_inadmissible_step_diverges(self):
        g = canonical_controlled([np.pi / 2])  # norm 1, so alpha > 2 grows
        trace = run_alternating(build(g), g.w_offset, Schedule.constant(2.5), random_u0(g, 0),
                                max_iters=1000, divergence_cap=1e3)
        assert trace.stop_reason == "diverged"
        assert np.all(np.diff(trace.error_norms) >= 0)

    def test_requires_canonical_geometry(self):
        u = AffineSubspace.from_span(np.eye(2)[:, :1], point=[0.0, 1.0])
        g = ProblemGeometry(u, AffineSubspace.from_span(np.eye(2)[:, 1:]))
        with pytest.raises(ValueError):  # from build, before any step
            run_alternating(build(g), g.w_offset, Schedule.constant(1.0), np.zeros(2))

    def test_initial_point_outside_domain_is_projected_and_flagged(self, monkeypatch):
        monkeypatch.setattr(engine, "STALL_RTOL", 0.0)
        g = one_step_geometry()
        trace = run_alternating(build(g), g.w_offset, Schedule.constant(0.5),
                                np.array([1.0, 2.0, 3.0]), max_iters=5, conv_tol=-1.0)
        assert trace.u0_projected
        assert np.allclose(trace.iterates[0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_iterate_thinning(self, monkeypatch):
        monkeypatch.setattr(engine, "THIN_AFTER", 10)
        monkeypatch.setattr(engine, "THIN_STRIDE", 50)
        monkeypatch.setattr(engine, "STALL_RTOL", 0.0)
        g = one_step_geometry()
        trace = run_alternating(build(g), g.w_offset, Schedule.constant(0.5),
                                np.array([1.0, 0.0, 0.0]), max_iters=250, conv_tol=-1.0)
        assert trace.iterate_steps[:11] == list(range(11))
        assert trace.iterate_steps[11:] == [50, 100, 150, 200, 250]
        assert len(trace.error_norms) == 251  # error norms stay dense

    def test_overflow_stops_as_nonfinite(self):
        # the first step overflows the iterate to -inf; the run stops there
        # instead of raising or burning its horizon
        g = one_step_geometry()
        sched, u0 = Schedule.constant(1e308), np.array([2.0, 0.0, 0.0])
        trace = run_alternating(build(g), g.w_offset, sched, u0)
        assert trace.stop_reason == "nonfinite"
        assert trace.n_steps == 1
        assert np.isfinite(trace.error_norms[0]) and not np.isfinite(trace.final_error)
        assert not np.all(np.isfinite(trace.iterates[-1]))
        assert trace.estimated_rate is None

    def test_short_explicit_schedule_runs_all_terms(self):
        g = one_step_geometry()
        trace = run_alternating(build(g), g.w_offset, Schedule.explicit([0.5, 0.5, 0.5]),
                                np.array([1.0, 0.0, 0.0]), max_iters=100)
        assert trace.stop_reason == "schedule_exhausted"
        assert trace.n_steps == 3
        assert np.allclose(trace.error_norms, 0.5 ** np.arange(4), atol=1e-15)
        assert trace.iterate_steps == [0, 1, 2, 3]

    def test_explicit_schedule_as_long_as_horizon_stops_at_max_iters(self):
        g = one_step_geometry()
        q, u0 = build(g), np.array([1.0, 0.0, 0.0])
        trace = run_alternating(q, g.w_offset, Schedule.explicit([0.5] * 4), u0, max_iters=4)
        assert trace.stop_reason == "max_iters" and trace.n_steps == 4
        trace = run_alternating(q, g.w_offset, Schedule.explicit([]), u0, max_iters=4)
        assert trace.stop_reason == "schedule_exhausted" and trace.n_steps == 0

    @pytest.mark.parametrize("kw", [dict(max_iters=-1), dict(max_iters=2.7),
                                    dict(max_iters=2.0), dict(conv_tol=float("nan"))])
    def test_rejects_bad_horizon_or_tolerance(self, kw):
        g = one_step_geometry()
        with pytest.raises(ValueError, match="max_iters|conv_tol"):
            run_alternating(build(g), g.w_offset, Schedule.constant(1.0),
                            np.array([1.0, 0.0, 0.0]), **kw)

    @pytest.mark.parametrize("seed", range(4))
    def test_converges_to_oracle_limit(self, seed):
        g = well_conditioned_problem(seed)
        trace = run_alternating(build(g), g.w_offset, Schedule.constant(1.0),
                                random_u0(g, seed + 1), max_iters=5000, conv_tol=1e-12)
        assert trace.stop_reason == "converged"
        assert np.linalg.norm(trace.iterates[-1] - trace.limit) < 1e-10


class TestRunLandweber:
    """The gradient (Landweber) form: the run from a projector and data w in
    its codomain, which need not be the offset of W."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_geometric_form_step_by_step(self, seed, monkeypatch):
        monkeypatch.setattr(engine, "STALL_RTOL", 0.0)
        g = canonical_random(seed, dim=10, dim_u=4, dim_w=4, shared_dims=seed % 2)
        q = build(g)
        u0 = random_u0(g, 500 + seed)
        sched = Schedule.random_uniform(0.2, 1.8, seed=seed)
        tl = run_alternating(q, g.w_offset, sched, u0, max_iters=60, conv_tol=-1.0)
        ref_iterates, ref_residuals = geometric_reference(g, sched, u0, 60)
        limit = limit_point(q, g.w_offset, ref_iterates[0])
        assert tl.n_steps == 60
        assert np.allclose(tl.error_norms, np.linalg.norm(ref_iterates - limit, axis=1),
                           atol=1e-11)
        assert np.allclose(tl.residuals, ref_residuals, atol=1e-11)
        assert np.allclose(tl.iterates[-1], ref_iterates[-1], atol=1e-11)
        assert np.allclose(tl.limit, limit, atol=1e-12)

    def test_null_component_of_start_survives_in_limit(self):
        g = canonical_random(2, dim=8, dim_u=4, dim_w=4, shared_dims=2)
        q = build(g)
        u0 = random_u0(g, 7)
        n_vec = q.nullspace_basis[:, 0]
        t1 = run_alternating(q, g.w_offset, Schedule.constant(1.0), u0, max_iters=2)
        t2 = run_alternating(q, g.w_offset, Schedule.constant(1.0), u0 + 3.0 * n_vec, max_iters=2)
        assert np.allclose(t2.limit, t1.limit + 3.0 * n_vec, atol=1e-11)

    def test_zero_data_from_nullspace_start(self):
        g = canonical_random(4, dim=8, dim_u=4, dim_w=4, shared_dims=1)
        q = build(g)
        u0 = 2.0 * q.nullspace_basis[:, 0]
        trace = run_alternating(q, np.zeros(8), Schedule.constant(1.0), u0)
        assert trace.stop_reason == "converged"
        assert trace.n_steps == 0
        assert np.allclose(trace.limit, u0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_errors_stay_off_the_nullspace(self, seed, monkeypatch):
        monkeypatch.setattr(engine, "STALL_RTOL", 0.0)
        g = canonical_random(seed, dim=8, dim_u=4, dim_w=4, shared_dims=2)
        q = build(g)
        trace = run_alternating(q, g.w_offset, Schedule.constant(0.8), random_u0(g, seed),
                                max_iters=40, conv_tol=-1.0)
        for u, _ in zip(trace.iterates, trace.iterate_steps):
            comp = q.nullspace_basis.T @ (u - trace.limit)
            assert np.linalg.norm(comp) < 1e-10


@settings(max_examples=80, deadline=None, derandomize=True)
@given(property_geometries(), st.integers(0, 2**31 - 1), st.floats(0.1, 10.0))
def test_coordinate_loop_matches_geometric_form(g, seed, u0_scale):
    q = build(g)
    alpha_hi = 2.0 / max(q.norm, 0.1) ** 2
    sched = Schedule.random_uniform(0.0, alpha_hi, seed=seed)
    u0 = random_u0(g, seed, scale=u0_scale)
    w = g.w_offset
    # a function-scoped monkeypatch would fail Hypothesis's health check
    with mock.patch.object(engine, "STALL_RTOL", 0.0):
        trace = run_alternating(q, w, sched, u0, max_iters=20, conv_tol=-1.0,
                                divergence_cap=np.inf)
    ref_iterates, ref_residuals = geometric_reference(g, sched, u0, 20)
    limit = limit_point(q, w, u0)
    assert trace.n_steps == 20 and trace.iterate_steps == list(range(21))
    # rounding of ~20 steps, each of size up to (1 + alpha) times the data
    scale = max(1.0, np.linalg.norm(u0), np.linalg.norm(w))
    tol = 1e-12 * (1.0 + alpha_hi) * scale
    assert np.max(np.abs(trace.error_norms - np.linalg.norm(ref_iterates - limit, axis=1))) <= tol
    assert np.max(np.abs(trace.residuals - ref_residuals)) <= tol
    assert np.max(np.linalg.norm(np.array(trace.iterates) - ref_iterates, axis=1)) <= tol
    # residual_dW is the distance of the ambient iterate A c to W, exactly
    for r, u in zip(trace.residuals, trace.iterates):
        assert abs(r - distance_to_w(g, u)) <= 1e-13 * max(1.0, np.linalg.norm(u), np.linalg.norm(w))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(property_geometries(), st.floats(0.05, 1.0), st.integers(0, 2**31 - 1))
def test_trajectory_is_filter_polynomial_times_initial_error(g, eps, seed):
    # over the kept sines s_k, the error component along each right singular
    # vector Y_k is scaled by exactly F_n(s_k^2) after n steps; Y_k comes
    # from an SVD of the operator taken here, not from the projector's own
    q = build(g)
    assume(q.norm > nullspace_cutoff(q.tol))  # a zero operator has no kept sines
    nu2 = q.norm ** 2
    sched = Schedule.random_uniform(eps / nu2, (2.0 - eps) / nu2, seed=seed)
    with mock.patch.object(engine, "STALL_RTOL", 0.0):
        trace = run_alternating(q, g.w_offset, sched, random_u0(g, seed), max_iters=300,
                                conv_tol=-1.0)
    assert trace.n_steps == 300 and trace.iterate_steps == list(range(301))
    _, sv, vt = np.linalg.svd(q.matrix)
    kept = sv > nullspace_cutoff(q.tol)
    comps = (trace.iterates - trace.limit) @ q.domain_basis @ vt[kept].T
    e0 = np.linalg.norm(trace.iterates[0] - trace.limit)
    for n in (0, 1, 2, 5, 10, 30, 100, 300):
        f = filter_pair(sched, sv[kept] ** 2, n)[0]
        assert np.max(np.abs(comps[n] - f * comps[0])) <= 1e-12 * e0


@settings(max_examples=80, deadline=None, derandomize=True)
@given(property_geometries(), st.floats(0.05, 1.0), st.integers(0, 2**31 - 1))
def test_empirical_rate_within_rate_bound(g, eps, seed):
    # every step scales the error by at most max_i |1 - alpha sigma_i^2| over the
    # sines sigma_i in [gamma, nu], which s_n = alpha_n nu^2 in [eps, 2 - eps]
    # keeps below 1 - eps gamma^2 / nu^2; the fitted rate is a weighted mean
    # of the per-step log ratios, so it obeys the same bound
    q = build(g)
    report = compute_report(q)
    assume(report.nu > nullspace_cutoff(q.tol))  # a zero operator has no bound
    nu2 = report.nu ** 2
    sched = Schedule.random_uniform(eps / nu2, (2.0 - eps) / nu2, seed=seed)
    u0 = random_u0(g, seed)
    scale = max(1.0, np.linalg.norm(u0), np.linalg.norm(limit_point(q, g.w_offset, u0)))
    conv_tol = 1e-6 * scale
    trace = run_alternating(q, g.w_offset, sched, u0, max_iters=300, conv_tol=conv_tol)
    assume(trace.n_steps > 0)
    bound = rate_bound(report.nu, report.gamma, trace.alphas_used)
    assert bound.epsilon >= eps * (1.0 - 1e-12)
    # every ratio but the last is taken above conv_tol; the last step may land
    # on rounding, O(1e-14) of the scale, so its ratio may exceed the bound
    # by that over conv_tol
    assert trace.estimated_rate is not None
    assert trace.estimated_rate <= bound.bound + 1e-14 * scale / conv_tol


class TestErrorRecursion:
    def test_zero_steps_is_identity(self):
        g = canonical_controlled([np.deg2rad(30)])
        q = build(g)
        e0 = g.u_space.basis[:, 0]
        it, sp = error_recursion_check(q, Schedule.constant(1.0), e0, 0)
        assert np.allclose(it, e0, atol=1e-14) and np.allclose(sp, e0, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 5, 20])
    def test_single_angle_closed_form(self, n):
        phi = np.deg2rad(40)
        g = canonical_controlled([phi])
        q = build(g)
        e0 = g.u_space.basis[:, 0]
        alpha = 0.7
        it, sp = error_recursion_check(q, Schedule.constant(alpha), e0, n)
        expected = (1.0 - alpha * np.sin(phi) ** 2) ** n * e0
        assert np.allclose(it, expected, atol=1e-12)
        assert np.allclose(sp, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_iterated_equals_spectral(self, seed):
        rng = np.random.default_rng(seed)
        g = canonical_random(seed, dim=12, dim_u=5, dim_w=5, shared_dims=seed % 2)
        q = build(g)
        e0 = g.u_space.basis @ rng.standard_normal(5)
        n = q.nullspace_basis
        e0 = e0 - n @ (n.T @ e0)
        sched = Schedule.random_uniform(0.1, 1.9, seed=seed + 30)
        it, sp = error_recursion_check(q, sched, e0, 50)
        assert np.allclose(it, sp, atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_spectral_factors_match_filter_polynomials(self, seed):
        # each eigenvalue's filter polynomial as its own product over the
        # drawn coefficients, not through filter_pair, which the check uses;
        # the product order differs, so agreement is to rounding, not exact
        rng = np.random.default_rng(seed)
        g = canonical_random(seed, dim=12, dim_u=5, dim_w=5)
        q = build(g)
        e0 = g.u_space.basis @ rng.standard_normal(5)
        sched = Schedule.random_uniform(0.1, 1.9, seed=seed + 60)
        _, spectral = error_recursion_check(q, sched, e0, 40)
        a, t = q.domain_basis, q.matrix.T @ q.matrix
        evals, evecs = sym_eig(t)
        alphas = sched.alphas(40)
        factors = np.array([np.prod(1.0 - alphas * lam) for lam in evals])
        expected = a @ (evecs @ (factors * (evecs.T @ (a.T @ e0))))
        assert np.allclose(spectral, expected, rtol=0.0, atol=1e-14 * np.linalg.norm(e0))

    def test_error_recursion_factorizes_nothing(self, monkeypatch):
        # the spectral side reads the eigenpairs (s^2, Y) that build stored
        g = canonical_random(3, dim=10, dim_u=4, dim_w=4)
        q = build(g)
        e0 = g.u_space.basis @ np.random.default_rng(3).standard_normal(4)
        sched = Schedule.random_uniform(0.1, 1.9, seed=5)
        expected = error_recursion_check(q, sched, e0, 30)

        def refuse(*args, **kwargs):
            raise AssertionError("error_recursion_check factorized")

        for routine in ("eigh", "eig", "svd"):
            monkeypatch.setattr(np.linalg, routine, refuse)
        got = error_recursion_check(q, sched, e0, 30)
        assert np.array_equal(got[0], expected[0]) and np.array_equal(got[1], expected[1])

    def test_rejects_nullspace_component(self):
        g = canonical_random(1, dim=8, dim_u=4, dim_w=4, shared_dims=1)
        q = build(g)
        with pytest.raises(ValueError):
            error_recursion_check(q, Schedule.constant(1.0), q.nullspace_basis[:, 0], 3)


class TestContractionFactor:
    def test_zero_step_is_one(self):
        g = canonical_controlled([np.deg2rad(30)])
        assert contraction_factor(build(g), 0.0) == pytest.approx(1.0)

    def test_orthogonal_problem_annihilated_in_one_step(self):
        g = canonical_controlled([np.pi / 2])
        assert contraction_factor(build(g), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_angle_example(self):
        # gamma = 0.6, nu = 1: factor max(1 - 0.36, 0) = 0.64
        g = canonical_controlled([np.arcsin(0.6), np.pi / 2])
        assert contraction_factor(build(g), 1.0) == pytest.approx(0.64, abs=1e-12)

    def test_negative_alpha_rejected(self):
        g = canonical_controlled([np.deg2rad(30)])
        with pytest.raises(ValueError):
            contraction_factor(build(g), -1.0)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_eigenvalue_oracle(self, seed):
        # |1 - alpha*lam| is maximized at the extreme nonzero eigenvalues, and
        # both extremes are attained, so the formula equals the discrete max
        rng = np.random.default_rng(seed)
        g = canonical_random(seed, dim=9, dim_u=4, dim_w=4)
        q = build(g)
        t = q.matrix.T @ q.matrix
        evals, _ = sym_eig(t)
        nz = evals[evals > 1e-12]
        for alpha in rng.uniform(0.0, 2.0 / q.norm**2, 4):
            oracle = float(np.max(np.abs(1.0 - alpha * nz)))
            assert contraction_factor(q, alpha) == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_per_step_error_bound_holds(self, seed, monkeypatch):
        monkeypatch.setattr(engine, "STALL_RTOL", 0.0)
        g = well_conditioned_problem(seed)
        q = build(g)
        alpha = 0.9
        trace = run_alternating(q, g.w_offset, Schedule.constant(alpha), random_u0(g, seed),
                                max_iters=200, conv_tol=-1.0)
        rho = contraction_factor(q, alpha)
        e = trace.error_norms
        assert np.all(e[1:] <= rho * e[:-1] + 1e-12 * e[0])


class TestEstimateRate:
    def test_geometric_sequence(self):
        assert estimate_rate([1.0, 0.5, 0.25, 0.125], window=3) == pytest.approx(0.5)

    def test_constant_errors_give_rate_one(self):
        assert estimate_rate([2.0] * 10, window=5) == pytest.approx(1.0)

    def test_exact_zeros_give_rate_zero(self):
        assert estimate_rate([1.0, 0.1, 0.0, 0.0], window=3) == 0.0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            estimate_rate([1.0, 0.5], window=5)


class TestRateBound:
    def test_box_schedule_bound(self):
        rb = rate_bound(1.0, 0.6, [1.0, 1.0, 1.0])
        assert rb.epsilon == pytest.approx(1.0)
        assert rb.bound == pytest.approx(1.0 - 0.36)

    def test_scaled_box_margin(self):
        # nu^2 = 0.25 stretches the admissible box to [0, 8]
        rb = rate_bound(0.5, 0.5, [2.0, 6.0])
        assert rb.epsilon == pytest.approx(0.5)
        assert rb.bound == pytest.approx(1.0 - 0.5 * 0.25 / 0.25)

    def test_boundary_schedule_gives_trivial_bound(self):
        rb = rate_bound(1.0, 1.0, [2.0])
        assert rb.epsilon == 0.0 and rb.bound == 1.0

    @pytest.mark.parametrize("seed", range(5))
    def test_empirical_rate_within_bound(self, seed, monkeypatch):
        monkeypatch.setattr(engine, "STALL_RTOL", 0.0)
        g = well_conditioned_problem(seed)
        q = build(g)
        sched = Schedule.random_uniform(0.3, 1.7, seed=seed)
        trace = run_alternating(q, g.w_offset, sched, random_u0(g, seed + 90),
                                max_iters=300, conv_tol=-1.0)
        rb = rate_bound(q.norm, q.reduced_min_modulus, sched.alphas(300))
        assert rb.bound < 1.0
        if trace.estimated_rate is not None and trace.final_error > 1e-14 * trace.error_norms[0]:
            assert trace.estimated_rate <= rb.bound + 1e-6

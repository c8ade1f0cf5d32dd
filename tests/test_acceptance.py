"""End-to-end acceptance checks, one test per criterion.

Each test prints a single summary line (visible with -s or in failure output);
the pytest verdict for the test is the pass/fail line for the criterion.
All expected values come either from independent dense-linear-algebra oracles
computed inline or from closed forms of the controlled geometries.
"""

import time

import numpy as np
import pytest

from altproj import engine
from altproj.cli import overrelaxation_study, truncation_study
from altproj.engine import (
    contraction_factor,
    error_recursion_check,
    run_alternating,
)
from altproj.problems import diagonal_truncation_norms, random_geometry
from altproj.projector import build, least_squares_set, limit_point
from altproj.schedule import Schedule
from altproj.subspace import AffineSubspace, project

from helpers import canonical_controlled, canonical_random, random_u0, well_conditioned_problem
from reference import geometric_reference, reference_report, sym_eig


def _report(name, detail):
    print(f"[{name}] PASS: {detail}")


def _random_problem(seed):
    """Seeded geometry with ambient dimension up to 30 and subspace dims up to 10."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(4, 31))
    dim_u = int(rng.integers(1, min(10, d - 1) + 1))
    dim_w = int(rng.integers(1, min(10, d - 1) + 1))
    # keep at least one direction of U outside W so the operator is nonzero
    shared = int(rng.integers(0, min(dim_u, dim_w))) if rng.random() < 0.4 else 0
    g = random_geometry(d, dim_u, dim_w, seed, shared_dims=shared).canonical()
    return g


@pytest.fixture(scope="module")
def moderate_rate_runs():
    """50 seeded well-conditioned problems with a constant step whose scaled
    value lies in [0.5, 1.5]; shared by the limit and rate criteria."""
    runs = []
    for seed in range(50):
        rng = np.random.default_rng(10_000 + seed)
        g = well_conditioned_problem(seed)
        q = build(g)
        alpha = rng.uniform(0.5, 1.5) / q.norm**2
        u0 = random_u0(g, 20_000 + seed)
        trace = run_alternating(q, g.w_offset, Schedule.constant(alpha), u0,
                                max_iters=10_000, conv_tol=1e-11)
        runs.append((g, q, alpha, trace))
    return runs


def test_criterion_01_form_equivalence(monkeypatch):
    monkeypatch.setattr(engine, "STALL_RTOL", 0.0)
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        g = _random_problem(seed)
        q = build(g)
        nu = q.norm
        assert nu > 0
        sched = Schedule.random_uniform(0.0, 2.0 / nu**2, seed=seed + 1)
        u0 = random_u0(g, seed + 2)
        kw = dict(max_iters=30, conv_tol=-1.0)
        ref_iterates, ref_residuals = geometric_reference(g, sched, u0, 30)
        ref_errors = np.linalg.norm(ref_iterates - limit_point(q, g.w_offset, u0), axis=1)
        trace = run_alternating(q, g.w_offset, sched, u0, **kw)
        assert trace.n_steps == 30
        scale = max(trace.error_norms[0], 1.0)
        dev = max(
            float(np.max(np.abs(trace.error_norms - ref_errors))),
            float(np.max(np.abs(trace.residuals - ref_residuals))),
            float(np.linalg.norm(trace.iterates[-1] - ref_iterates[-1])),
        )
        assert dev <= 1e-12 * scale
        worst = max(worst, dev / scale)
    elapsed = time.perf_counter() - t0
    assert elapsed <= 10.0
    _report("criterion-01 form-equivalence",
            f"100 problems, the coordinate loop against the geometric form, "
            f"worst per-step deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_limit_correctness(moderate_rate_runs):
    worst = 0.0
    for g, q, alpha, trace in moderate_rate_runs:
        oracle = limit_point(q, g.w_offset, trace.iterates[0])
        gap = float(np.linalg.norm(trace.iterates[-1] - oracle))
        assert trace.n_steps <= 10_000
        assert gap <= 1e-8
        worst = max(worst, gap)
    _report("criterion-02 limit-correctness",
            f"50 problems, worst final gap to oracle limit {worst:.2e}")


def test_criterion_03_rate_bound(moderate_rate_runs):
    worst_slack = -np.inf
    for g, q, alpha, trace in moderate_rate_runs:
        s = alpha * q.norm**2
        eps = min(s, 2.0 - s)
        bound = 1.0 - eps * q.reduced_min_modulus**2 / q.norm**2
        rate = trace.estimated_rate
        assert rate is not None
        assert rate <= bound + 0.02
        worst_slack = max(worst_slack, rate - bound)
    _report("criterion-03 rate-bound",
            f"50 problems, worst empirical-minus-bound slack {worst_slack:.2e} (allowed 0.02)")


@pytest.mark.parametrize("deg", [15.0, 30.0, 60.0])
def test_criterion_04_unrelaxed_classical_rate(deg):
    phi = np.deg2rad(deg)
    g = canonical_controlled([phi], offset_norm=0.3, rotation_seed=int(deg))
    trace = run_alternating(build(g), g.w_offset, Schedule.constant(1.0),
                            random_u0(g, int(deg) + 1), max_iters=10_000, conv_tol=1e-12)
    expected = np.cos(phi) ** 2
    assert trace.estimated_rate == pytest.approx(expected, abs=0.01)
    _report("criterion-04 unrelaxed-rate",
            f"phi={deg}deg empirical {trace.estimated_rate:.6f} vs cos^2 {expected:.6f}")


def test_criterion_05_overrelaxation_beyond_two():
    rows = overrelaxation_study(0.5, [3.0, 4.2], seed=7, max_iters=10_000)
    by_alpha = {row["alpha"]: row for row in rows}

    conv = by_alpha[3.0]
    assert conv["verdict"] == "converged"
    assert conv["trace"].final_error < 1e-8
    assert conv["trace"].n_steps <= 10_000

    div = by_alpha[4.2]
    assert div["verdict"] == "diverged"
    e = div["trace"].error_norms
    tail = e[-min(101, len(e)):]
    assert np.all(np.diff(tail) >= 0)

    # boundary alpha * nu2 = 2: everything strictly below converges, above grows
    grid = overrelaxation_study(0.5, [0.5, 1.5, 2.5, 3.5, 4.5], seed=8, max_iters=30_000)
    for row in grid:
        if row["alpha_nu2"] < 2.0:
            assert row["verdict"] == "converged"
        else:
            assert row["verdict"] == "diverged"
    _report("criterion-05 over-relaxation",
            "alpha=3 converged below 1e-8, alpha=4.2 non-decreasing; boundary at 2 respected")


def test_criterion_06_spectral_oracle():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        g = canonical_random(seed, dim=10, dim_u=5, dim_w=5, shared_dims=seed % 3)
        q = build(g)
        sched = Schedule.random_uniform(0.0, 2.0 / q.norm**2, seed=seed + 40)
        e0 = g.u_space.basis @ rng.standard_normal(5)
        n = q.nullspace_basis
        e0 = e0 - n @ (n.T @ e0)
        iterated, spectral = error_recursion_check(q, sched, e0, 50)
        dev = float(np.linalg.norm(iterated - spectral))
        assert dev <= 1e-10
        worst = max(worst, dev)
    _report("criterion-06 spectral-oracle",
            f"20 problems, n=50, worst iterated-vs-spectral deviation {worst:.2e}")


def test_criterion_07_contraction_formula():
    worst = 0.0
    for seed in range(20):
        g = well_conditioned_problem(100 + seed)
        q = build(g)
        t = q.matrix.T @ q.matrix
        evals, _ = sym_eig(t) if t.size else (np.zeros(0), None)
        nz = evals[evals > 1e-8]
        assert nz.size > 0
        for alpha in np.linspace(0.0, 2.0 / q.norm**2, 9):
            oracle = float(np.max(np.abs(1.0 - alpha * nz)))
            dev = abs(contraction_factor(q, alpha) - oracle)
            assert dev <= 1e-10
            worst = max(worst, dev)
    _report("criterion-07 contraction-formula",
            f"20 geometries x 9-point grid, worst formula-vs-eigen deviation {worst:.2e}")


def test_criterion_08_angle_identities():
    worst_nu, worst_gamma, with_intersection = 0.0, 0.0, 0
    for seed in range(100):
        rng = np.random.default_rng(300 + seed)
        d = int(rng.integers(5, 20))
        dim_u = int(rng.integers(1, min(7, d - 1)))
        dim_w = int(rng.integers(1, min(7, d - 1)))
        # shared directions force intersections; leave U not fully contained in W
        shared = int(rng.integers(0, min(dim_u, dim_w))) if seed % 2 else 0
        g = random_geometry(d, dim_u, dim_w, 300 + seed, shared_dims=shared).canonical()
        q = build(g)
        # the operator's norm and modulus against the angles of the
        # complement-based reference, which shares no step with build
        ref = reference_report(g)
        if ref.intersection_dim >= 1:
            with_intersection += 1
        dn = abs(q.norm - ref.nu)
        dg = abs(q.reduced_min_modulus - ref.gamma)
        assert dn <= 1e-10
        assert dg <= 1e-7
        worst_nu, worst_gamma = max(worst_nu, dn), max(worst_gamma, dg)
    assert with_intersection >= 10
    _report("criterion-08 angle-identities",
            f"100 geometries ({with_intersection} with intersections), "
            f"worst |norm-nu| {worst_nu:.2e}, worst |modulus-gamma| {worst_gamma:.2e}")


def test_criterion_09_limit_formula():
    worst = 0.0
    for seed in range(50):
        g = canonical_random(seed, dim=9, dim_u=4, dim_w=4, shared_dims=1 + seed % 2)
        q = build(g)
        assert q.nullspace_basis.shape[1] >= 1
        u0 = random_u0(g, 600 + seed)
        lp = limit_point(q, g.w_offset, u0)
        lss = least_squares_set(q, g.w_offset)
        solution_set = AffineSubspace.from_span(lss.nullspace_basis,
                                                point=lss.min_norm_solution)
        dev = float(np.linalg.norm(lp - project(solution_set, u0)))
        assert dev <= 1e-10
        worst = max(worst, dev)
    _report("criterion-09 limit-formula",
            f"50 problems with nontrivial null space, worst deviation {worst:.2e}")


def test_criterion_10_stalling_outside_class():
    # norm-1 problem: orthogonal line pair with a unit unreachable offset
    u = AffineSubspace.from_span(np.eye(3)[:, :1])
    w = AffineSubspace.from_span(np.eye(3)[:, 1:2], point=[0.0, 0.0, 1.0])
    from altproj.subspace import ProblemGeometry
    g = ProblemGeometry(u, w)
    u0 = np.array([1.0, 0.0, 0.0])

    # coefficients 2 - 2^{-(n+1)} approach 2 geometrically; none equals 1, so
    # no single step annihilates the error and the filter product freezes
    # near prod_{j>=1}(1 - 2^-j) ~ 0.2888
    fast = Schedule.geometric_to_2(gap=0.5, ratio=0.5)
    t_fast = run_alternating(build(g), g.w_offset, fast, u0, max_iters=100_000, conv_tol=1e-14)
    e0 = t_fast.error_norms[0]
    assert t_fast.final_error >= 0.1 * e0
    assert t_fast.final_error == pytest.approx(0.288788, abs=1e-4)

    # coefficients 2 - 1/(n+1) approach 2 slowly enough to keep making progress
    slow = Schedule.harmonic_to_2()
    t_slow = run_alternating(build(g), g.w_offset, slow, u0, max_iters=100_000, conv_tol=1e-14)
    assert t_slow.final_error < 1e-3 * e0
    _report("criterion-10 stalling",
            f"geometric-approach error froze at {t_fast.final_error:.4f} "
            f">= 0.1, slow-approach error {t_slow.final_error:.2e} < 1e-3")


def test_criterion_11_product_bound():
    rng = np.random.default_rng(2024)
    worst = -np.inf
    for _ in range(1000):
        s = rng.uniform(0.0, 2.0, 200)
        prod = float(np.prod(np.abs(1.0 - s)))
        bound = float(np.exp(-np.sum(np.minimum(s, 2.0 - s))))
        assert prod <= bound * (1.0 + 1e-12)
        worst = max(worst, prod - bound)
    _report("criterion-11 product-bound",
            f"1000 sequences of length 200, worst product-minus-bound {worst:.2e}")


def test_criterion_12_truncation_monotone_growth():
    dims = [10, 100, 1000, 10_000]
    rows = truncation_study(1.0, 0.6, dims, max_iters=1)
    norms = [row["limit_norm"] for row in rows]
    # independent closed-form oracle: sqrt(sum_{i<=d} i^(2(p-r)))
    i = np.arange(1, 10_001, dtype=float)
    cum = np.sqrt(np.cumsum(i ** 0.8))
    for n_val, d in zip(norms, dims):
        assert n_val == pytest.approx(cum[d - 1], rel=1e-12)
    assert np.allclose(norms, diagonal_truncation_norms(1.0, 0.6, dims), rtol=1e-12)
    assert norms[0] < norms[1] < norms[2] < norms[3]
    assert norms[3] > 10.0 * norms[0]
    _report("criterion-12 truncation-growth",
            f"norms {[f'{v:.4g}' for v in norms]} strictly increasing, "
            f"ratio d4/d1 = {norms[3] / norms[0]:.1f} > 10")

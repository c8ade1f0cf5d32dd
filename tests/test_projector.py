import numpy as np
import pytest
from hypothesis import given, strategies as st

from altproj.projector import compute_report
from altproj.linalg import orthogonal_complement
from altproj.projector import build, distance_to_w, least_squares_set, limit_point
from altproj.subspace import AffineSubspace, ProblemGeometry, canonicalize, project

from helpers import (canonical_controlled, canonical_random, property_geometries,
                     property_settings, random_u0)
from reference import adjoint_apply, apply, reference_report


def line(direction, point=None):
    return AffineSubspace.from_span(np.asarray(direction, dtype=float).reshape(-1, 1), point=point)


def orthogonal_offset_geometry():
    # U = x-axis, W = y-axis shifted by e3 (inconsistent, norm 1 operator)
    u = line([1, 0, 0])
    w = line([0, 1, 0], point=[0, 0, 1])
    return ProblemGeometry(u, w).canonical()


class TestBuild:
    def test_orthogonal_lines(self):
        g = ProblemGeometry(line([1, 0, 0]), line([0, 1, 0])).canonical()
        q = build(g)
        a, c = g.u_space.basis, q.codomain_basis
        vperp = orthogonal_complement(g.w_space.basis)
        assert q.matrix.shape == (1, 1)  # k_u x k_u
        assert np.allclose(c.T @ c, np.eye(1), atol=1e-12)
        assert np.allclose(c @ q.matrix, vperp @ (vperp.T @ a), atol=1e-12)  # P_{V-perp} A
        assert q.norm == pytest.approx(1.0, abs=1e-12)
        assert q.reduced_min_modulus == pytest.approx(1.0, abs=1e-12)
        assert q.nullspace_basis.shape[1] == 0

    def test_contained_space_annihilated(self):
        g = ProblemGeometry(
            line([1, 0, 0]),
            AffineSubspace.from_span(np.eye(3)[:, :2]),
        ).canonical()
        q = build(g)
        assert q.norm == pytest.approx(0.0, abs=1e-12)
        assert q.nullspace_basis.shape[1] == 1

    @pytest.mark.parametrize("deg", [15.0, 30.0, 60.0])
    def test_tilted_family_norm(self, deg):
        phi = np.deg2rad(deg)
        g = canonical_controlled([phi])
        q = build(g)
        assert q.norm == pytest.approx(np.sin(phi), abs=1e-12)

    def test_norm_never_exceeds_one(self):
        for seed in range(8):
            g = canonical_random(seed, dim=9, dim_u=4, dim_w=3, shared_dims=seed % 2)
            assert build(g).norm <= 1.0 + 1e-12


class TestAdjoint:
    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_identity(self, seed):
        rng = np.random.default_rng(seed)
        g = canonical_random(seed, dim=8, dim_u=3, dim_w=3)
        q = build(g)
        u = g.u_space.basis @ rng.standard_normal(3)
        v = q.codomain_basis @ rng.standard_normal(q.codomain_basis.shape[1])
        assert np.dot(apply(q, u), v) == pytest.approx(np.dot(u, adjoint_apply(q, v)), abs=1e-12)

    def test_vector_orthogonal_to_domain_maps_to_zero(self):
        g = ProblemGeometry(line([1, 0, 0]), line([0, 1, 0])).canonical()
        q = build(g)
        assert np.allclose(adjoint_apply(q, [0.0, 0.0, 1.0]), 0.0, atol=1e-14)

    def test_composition_scales_by_squared_sine(self):
        phi = np.deg2rad(35)
        g = canonical_controlled([phi])
        q = build(g)
        e1 = g.u_space.basis[:, 0]
        out = adjoint_apply(q, apply(q, e1))
        assert np.allclose(out, np.sin(phi) ** 2 * e1, atol=1e-12)


class TestLeastSquares:
    def test_zero_data(self):
        g = orthogonal_offset_geometry()
        q = build(g)
        lss = least_squares_set(q, np.zeros(3))
        assert np.allclose(lss.min_norm_solution, 0.0)
        assert lss.residual_norm == pytest.approx(0.0, abs=1e-14)

    def test_unreachable_offset(self):
        g = orthogonal_offset_geometry()
        q = build(g)
        lss = least_squares_set(q, g.w_offset)
        # minimizing |(0,0,1) - (t,0,0)| over t gives t = 0, residual 1
        assert np.allclose(lss.min_norm_solution, 0.0, atol=1e-12)
        assert lss.residual_norm == pytest.approx(1.0, abs=1e-12)

    def test_consistent_case_has_zero_residual(self):
        # two lines crossing at the origin
        g = ProblemGeometry(line([1, 0, 0]), line([1, 1, 0])).canonical()
        q = build(g)
        lss = least_squares_set(q, g.w_offset)
        assert lss.residual_norm == pytest.approx(0.0, abs=1e-12)

    def test_data_in_constraint_directions_is_solved_in_least_squares(self):
        # w = e2 lies in V, orthogonal to the range span(e1) of Q: the
        # minimum-norm solution is 0 and the residual ||w||; w was once
        # refused for not lying in V-perp
        g = orthogonal_offset_geometry()
        q = build(g)
        lss = least_squares_set(q, np.array([0.0, 1.0, 0.0]))
        assert np.array_equal(lss.min_norm_solution, np.zeros(3))
        assert lss.residual_norm == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_min_norm_orthogonal_to_nullspace(self, seed):
        g = canonical_random(seed, dim=8, dim_u=4, dim_w=3, shared_dims=1)
        q = build(g)
        lss = least_squares_set(q, g.w_offset)
        assert q.nullspace_basis.shape[1] >= 1
        comp = q.nullspace_basis.T @ lss.min_norm_solution
        assert np.linalg.norm(comp) < 1e-10 * (1.0 + np.linalg.norm(lss.min_norm_solution))

    @pytest.mark.parametrize("seed", range(6))
    def test_pseudo_inverse_of_image_projects_off_nullspace(self, seed):
        # applying the solver to the image of u recovers the component of u
        # orthogonal to the null space
        rng = np.random.default_rng(50 + seed)
        g = canonical_random(seed, dim=8, dim_u=4, dim_w=3, shared_dims=1)
        q = build(g)
        u = g.u_space.basis @ rng.standard_normal(4)
        lss = least_squares_set(q, apply(q, u))
        n = q.nullspace_basis
        expected = u - n @ (n.T @ u)
        assert np.allclose(lss.min_norm_solution, expected, atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_nullspace_lies_in_both_direction_spaces(self, seed):
        g = canonical_random(seed, dim=8, dim_u=4, dim_w=4, shared_dims=2)
        q = build(g)
        n = q.nullspace_basis
        assert n.shape[1] >= 2
        bu, bv = g.u_space.basis, g.w_space.basis
        assert np.linalg.norm(n - bu @ (bu.T @ n)) < 1e-10
        assert np.linalg.norm(n - bv @ (bv.T @ n)) < 1e-10


class TestLimitPoint:
    def test_trivial_nullspace_ignores_start(self):
        g = orthogonal_offset_geometry()
        q = build(g)
        lp1 = limit_point(q, g.w_offset, np.array([1.0, 0.0, 0.0]))
        lp2 = limit_point(q, g.w_offset, np.array([-7.0, 0.0, 0.0]))
        assert np.allclose(lp1, lp2, atol=1e-14)

    def test_zero_data_projects_onto_nullspace(self):
        g = canonical_random(3, dim=8, dim_u=4, dim_w=3, shared_dims=1)
        q = build(g)
        u0 = random_u0(g, 11)
        lp = limit_point(q, np.zeros(8), u0)
        n = q.nullspace_basis
        assert np.allclose(lp, n @ (n.T @ u0), atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_direct_projection_onto_solution_set(self, seed):
        g = canonical_random(seed, dim=8, dim_u=4, dim_w=4, shared_dims=1 + seed % 2)
        q = build(g)
        u0 = random_u0(g, 1000 + seed)
        lp = limit_point(q, g.w_offset, u0)
        lss = least_squares_set(q, g.w_offset)
        solution_set = AffineSubspace.from_span(lss.nullspace_basis, point=lss.min_norm_solution)
        assert np.allclose(lp, project(solution_set, u0), atol=1e-10)


class TestDistance:
    def test_point_on_w(self):
        g = orthogonal_offset_geometry()
        assert distance_to_w(g, np.array([0.0, 2.0, 1.0])) == pytest.approx(0.0, abs=1e-14)

    def test_parallel_lines_constant_distance(self):
        g = ProblemGeometry(line([1, 0]), line([1, 0], point=[0, 1])).canonical()
        for t in (-2.0, 0.0, 5.0):
            assert distance_to_w(g, np.array([t, 0.0])) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [-1.5, 0.0, 2.0])
    def test_closed_form(self, t):
        g = orthogonal_offset_geometry()
        assert distance_to_w(g, np.array([t, 0.0, 0.0])) == pytest.approx(np.hypot(t, 1.0), abs=1e-12)

    def test_far_point(self):
        # the squared distance overflows; the distance 1e160 does not
        g = orthogonal_offset_geometry()
        assert distance_to_w(g, np.array([1e160, 0.0, 0.0])) == 1e160

    @pytest.mark.parametrize("seed", range(5))
    def test_equals_data_residual_on_domain(self, seed):
        rng = np.random.default_rng(70 + seed)
        g = canonical_random(seed, dim=7, dim_u=3, dim_w=3)
        q = build(g)
        u = g.u_space.basis @ rng.standard_normal(3)
        lhs = distance_to_w(g, u)
        rhs = np.linalg.norm(g.w_offset - apply(q, u))
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestSolutionSetOptimality:
    @pytest.mark.parametrize("seed", range(5))
    def test_sampled_solutions_are_first_order_optimal(self, seed):
        # the minimizers of the distance to W over U coincide with the
        # least-squares solution set: sample it and check stationarity
        rng = np.random.default_rng(90 + seed)
        g = canonical_random(seed, dim=8, dim_u=4, dim_w=4, shared_dims=1)
        q = build(g)
        lss = least_squares_set(q, g.w_offset)
        m, a = q.matrix, q.domain_basis
        wc = q.codomain_basis.T @ g.w_offset
        for _ in range(3):
            s = lss.min_norm_solution + lss.nullspace_basis @ rng.standard_normal(
                lss.nullspace_basis.shape[1])
            c = a.T @ s
            grad = m.T @ (m @ c) - m.T @ wc  # gradient of the squared distance on U
            assert np.linalg.norm(grad) < 1e-10
            assert distance_to_w(g, s) == pytest.approx(lss.residual_norm, abs=1e-10)
            # perturbing off the solution set can only increase the distance
            pert = s + 0.1 * (a @ rng.standard_normal(4))
            assert distance_to_w(g, pert) >= lss.residual_norm - 1e-12


class TestAngleIdentities:
    @pytest.mark.parametrize("seed", range(12))
    def test_norm_and_modulus_match_angle_report(self, seed):
        g = canonical_random(seed, dim=9, dim_u=3, dim_w=4, shared_dims=seed % 3)
        q = build(g)
        # the complement-based reference shares no step with build
        ref = reference_report(g)
        assert abs(q.norm - ref.nu) <= 1e-10
        assert abs(q.reduced_min_modulus - ref.gamma) <= 1e-8


def rescaled(g, c):
    """The geometry with every point multiplied by *c*: each subspace rebuilt
    from its spanning vectors and offset, both scaled by c, then
    canonicalized."""
    def scale(a):
        return AffineSubspace.from_span(c * a.basis, point=c * a.offset)

    return canonicalize(ProblemGeometry(scale(g.u_space), scale(g.w_space)))


@property_settings(80)
@given(property_geometries(), st.floats(1e-6, 1e6))
def test_rescaling_keeps_angles_and_scales_residual(g, c):
    # rank and intersection decisions are relative, so a rescaled geometry has
    # the same angles and null space, and its distances scale with it
    gc = rescaled(g, c)
    q, qc = build(g), build(gc)
    report, report_c = compute_report(q), compute_report(qc)
    assert report_c.intersection_dim == report.intersection_dim
    assert report_c.nu == pytest.approx(report.nu, abs=1e-13)
    assert report_c.gamma == pytest.approx(report.gamma, abs=1e-13)
    res = least_squares_set(q, g.w_offset).residual_norm
    res_c = least_squares_set(qc, gc.w_offset).residual_norm
    assert abs(res_c - c * res) <= 1e-12 * c * (1.0 + np.linalg.norm(g.w_offset))

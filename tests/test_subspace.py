import numpy as np
import pytest

from altproj.subspace import (
    AffineSubspace,
    ProblemGeometry,
    canonicalize,
    project,
    project_relaxed,
)

from altproj.projector import build, compute_report, least_squares_set

from reference import (reference_build, reference_least_squares, reference_report,
                       relaxed_w_projection_formula, translate_identity_check)
from rounding import EPS

X_AXIS = AffineSubspace.from_span(np.array([[1.0], [0.0]]))
# the vertical line {(0, s, 1) : s real} in R^3
LINE_3D = AffineSubspace.from_span(np.array([[0.0], [1.0], [0.0]]), point=[0.0, 0.0, 1.0])


def random_subspace(rng, dim, k, affine=True):
    point = rng.standard_normal(dim) if affine else None
    return AffineSubspace.from_span(rng.standard_normal((dim, k)), point=point)


class TestProject:
    def test_onto_x_axis(self):
        assert np.allclose(project(X_AXIS, [3.0, 4.0]), [3.0, 0.0])

    def test_fixed_point(self):
        u = np.array([2.5, 0.0])
        assert np.allclose(project(X_AXIS, u), u)

    def test_affine_line_closed_form(self):
        # minimizing |u - v|^2 over v = (0, s, 1) gives s = u_2
        assert np.allclose(project(LINE_3D, [1.0, 1.0, 0.0]), [0.0, 1.0, 1.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            project(X_AXIS, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotent_and_orthogonal_residual(self, seed):
        rng = np.random.default_rng(seed)
        a = random_subspace(rng, 6, 3)
        u = rng.standard_normal(6)
        p = project(a, u)
        assert np.allclose(project(a, p), p, atol=1e-12)
        assert np.linalg.norm(a.basis.T @ (u - p)) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_nonexpansive(self, seed):
        rng = np.random.default_rng(100 + seed)
        a = random_subspace(rng, 6, 2)
        u, v = rng.standard_normal(6), rng.standard_normal(6)
        lhs = np.linalg.norm(project(a, u) - project(a, v))
        assert lhs <= np.linalg.norm(u - v) + 1e-12


class TestProjectRelaxed:
    def test_zero_alpha_is_identity(self):
        u = np.array([3.0, 4.0])
        assert np.allclose(project_relaxed(X_AXIS, u, 0.0), u)

    def test_alpha_two_reflects(self):
        assert np.allclose(project_relaxed(X_AXIS, [3.0, 4.0], 2.0), [3.0, -4.0])

    def test_alpha_half_is_midpoint(self):
        assert np.allclose(project_relaxed(X_AXIS, [3.0, 4.0], 0.5), [3.0, 2.0])

    def test_alpha_one_is_plain_projection(self):
        u = np.array([3.0, 4.0])
        assert np.allclose(project_relaxed(X_AXIS, u, 1.0), project(X_AXIS, u))

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            project_relaxed(X_AXIS, [1.0, 1.0], -0.1)


class TestTranslateIdentity:
    def test_zero_shift(self):
        lhs, rhs = translate_identity_check(X_AXIS, [0.0, 0.0], [2.0, 3.0])
        assert np.allclose(lhs, rhs)
        assert np.allclose(lhs, project(X_AXIS, [2.0, 3.0]))

    def test_shifted_line(self):
        lhs, rhs = translate_identity_check(X_AXIS, [0.0, 1.0], [2.0, 3.0])
        assert np.allclose(lhs, [2.0, 1.0]) and np.allclose(rhs, [2.0, 1.0])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_five_dim(self, seed):
        rng = np.random.default_rng(seed)
        a = random_subspace(rng, 5, int(rng.integers(1, 4)))
        s, u = rng.standard_normal(5), rng.standard_normal(5)
        lhs, rhs = translate_identity_check(a, s, u)
        assert np.allclose(lhs, rhs, atol=1e-12)


def make_geometry(rng, dim=6, dim_u=2, dim_w=2):
    u = random_subspace(rng, dim, dim_u)
    w = random_subspace(rng, dim, dim_w)
    return ProblemGeometry(u, w)


class TestRelaxedWFormula:
    def test_point_of_w_is_fixed(self):
        g = ProblemGeometry(AffineSubspace.from_span(np.eye(3)[:, :1]), LINE_3D)
        u = np.array([0.0, 2.0, 1.0])  # on the line
        assert np.allclose(relaxed_w_projection_formula(g, u, 1.7), u, atol=1e-12)

    def test_closed_form_example(self):
        g = ProblemGeometry(AffineSubspace.from_span(np.eye(3)[:, :1]), LINE_3D)
        out = relaxed_w_projection_formula(g, [1.0, 0.0, 0.0], 1.0)
        assert np.allclose(out, [0.0, 0.0, 1.0])

    def test_zero_alpha(self):
        g = ProblemGeometry(AffineSubspace.from_span(np.eye(3)[:, :1]), LINE_3D)
        u = np.array([0.3, -0.4, 2.0])
        assert np.allclose(relaxed_w_projection_formula(g, u, 0.0), u)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_generic_relaxed_projection(self, seed):
        rng = np.random.default_rng(200 + seed)
        g = make_geometry(rng)
        u = rng.standard_normal(6)
        alpha = rng.uniform(0.0, 4.0)
        lhs = relaxed_w_projection_formula(g, u, alpha)
        rhs = project_relaxed(g.w_space, u, alpha)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_canonical_offset_in_v_perp(self, seed):
        rng = np.random.default_rng(300 + seed)
        g = make_geometry(rng)
        assert np.linalg.norm(g.w_space.basis.T @ g.w_offset) < 1e-12


class TestCanonicalize:
    def test_already_linear_unchanged(self):
        g = ProblemGeometry(X_AXIS, AffineSubspace.from_span(np.array([[0.0], [1.0]]), point=[1.0, 0.0]))
        assert canonicalize(g) is g

    def test_w_moves_with_u(self):
        u = AffineSubspace.from_span(np.array([[1.0], [0.0]]), point=[0.0, 1.0])
        w = AffineSubspace.from_span(np.array([[0.0], [1.0]]), point=[2.0, 0.0])
        g = canonicalize(ProblemGeometry(u, w))
        assert g.is_canonical
        # W shifted down by the translation that takes U through the origin
        assert np.allclose(project(g.w_space, [0.0, 0.0]), [2.0, 0.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pair(self, seed):
        rng = np.random.default_rng(400 + seed)
        g = canonicalize(make_geometry(rng))
        assert np.linalg.norm(g.u_space.offset) < 1e-12
        assert g.is_canonical

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    def test_canonical_verdict_is_scale_invariant(self, scale):
        def scaled(g, c):
            u, w = g.u_space, g.w_space
            return ProblemGeometry(AffineSubspace(u.basis, c * u.offset),
                                   AffineSubspace(w.basis, c * w.offset))

        g = make_geometry(np.random.default_rng(500))
        for h in (g, g.canonical(), scaled(g, 1e-12)):
            assert scaled(h, scale).is_canonical == h.is_canonical
        assert not scaled(g, 1e-12).is_canonical


class TestValidation:
    def test_nonorthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            AffineSubspace(np.array([[1.0], [1.0]]), np.zeros(2))

    def test_noncanonical_offset_rejected(self):
        with pytest.raises(ValueError):
            AffineSubspace(np.array([[1.0], [0.0]]), np.array([1.0, 0.0]))

    # the squared norm of an offset past ~1.3e154 overflows; the constructor
    # once read inf > inf and accepted these
    @pytest.mark.parametrize("offset", [[1e155, 0.0], [1e200, 1e200]])
    def test_far_noncanonical_offset_rejected(self, offset):
        with pytest.raises(ValueError, match="offset is not canonical"):
            AffineSubspace(np.array([[1.0], [0.0]]), np.array(offset))

    def test_far_canonical_offset_accepted_unchanged(self):
        a = AffineSubspace(np.array([[1.0], [0.0]]), np.array([0.0, 1e200]))
        assert a.offset.tolist() == [0.0, 1e200]

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            AffineSubspace.from_span(np.array([[np.nan], [0.0]]))

    def test_ambient_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ProblemGeometry(X_AXIS, LINE_3D)

    def test_from_span_handles_dependent_columns(self):
        a = AffineSubspace.from_span(np.array([[1.0, 2.0], [1.0, 2.0]]), point=[0.0, 2.0])
        assert a.dim == 1
        assert np.allclose(a.offset, [-1.0, 1.0])  # canonical: closest point to 0


class TestFarPoints:
    def test_far_point_on_a_random_span(self):
        # p lies 1e6 out along the span and 1e-4 off it, so its offset,
        # p - B (B^T p), rounds to the scale of ||p||; the subspace must
        # still be built, and the run's angles and residual match the
        # complement-based reference
        for seed in range(200):
            rng = np.random.default_rng(seed)
            span = rng.standard_normal((10, 3))
            p = span @ rng.standard_normal(3) * 1e6 + 1e-4 * rng.standard_normal(10)
            u = AffineSubspace.from_span(span, point=p)
            w = AffineSubspace.from_span(rng.standard_normal((10, 4)), point=rng.standard_normal(10))
            g = canonicalize(ProblemGeometry(u, w))
            q = build(g)
            report, ref_report = compute_report(q), reference_report(g)
            _, ref_residual = reference_least_squares(reference_build(g), g.w_offset)
            assert abs(report.nu - ref_report.nu) <= 1e-10
            assert abs(report.gamma - ref_report.gamma) <= 1e-8
            residual = least_squares_set(q, g.w_offset).residual_norm
            assert abs(residual - ref_residual) <= 1e-12 * (1.0 + ref_residual)
            # the offset is the step off the span, to rounding that follows ||p||
            off = p - span @ np.linalg.lstsq(span, p, rcond=None)[0]
            assert np.linalg.norm(u.offset - off) <= 100 * EPS * np.linalg.norm(p)

    def test_offset_that_overflows_is_refused(self):
        # B^T p overflows for a finite point this far out along (1, 1, 0)
        span, far = np.array([[1.0], [1.0], [0.0]]), [1.7e308, 1.7e308, 0.0]
        with np.errstate(over="ignore", invalid="ignore"):
            for build_it in (lambda: AffineSubspace.from_span(span, point=far),
                             lambda: AffineSubspace.from_span(span).translate(far)):
                with pytest.raises(ValueError, match="^offset contains non-finite entries$"):
                    build_it()

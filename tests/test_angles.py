import numpy as np
import pytest

from altproj.angles import compute_report
from altproj.projector import build
from altproj.subspace import AffineSubspace, ProblemGeometry

from helpers import canonical_random
from reference import friedrichs_cos, principal_cosines


def line(direction):
    return AffineSubspace.from_span(np.asarray(direction, dtype=float).reshape(-1, 1))


def span(*cols):
    return AffineSubspace.from_span(np.array(cols, dtype=float).T)


class TestPrincipalCosines:
    def test_identical_lines(self):
        b = np.array([[1.0], [0.0]])
        assert np.allclose(principal_cosines(b, b), [1.0])

    def test_orthogonal_lines(self):
        a = np.array([[1.0], [0.0]])
        b = np.array([[0.0], [1.0]])
        assert np.allclose(principal_cosines(a, b), [0.0])

    def test_thirty_degrees(self):
        phi = np.deg2rad(30)
        a = np.array([[1.0], [0.0]])
        b = np.array([[np.cos(phi)], [np.sin(phi)]])
        assert np.allclose(principal_cosines(a, b), [np.cos(phi)])

    def test_empty_basis(self):
        assert principal_cosines(np.zeros((3, 0)), np.eye(3)).size == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_swap_invariance(self, seed):
        rng = np.random.default_rng(seed)
        g = canonical_random(seed, dim=7, dim_u=3, dim_w=2)
        a, b = g.u_space.basis, g.w_space.basis
        del rng
        assert np.allclose(principal_cosines(a, b), principal_cosines(b, a), atol=1e-12)


def min_angle_cos(a, b):
    """The report's minimum-angle cosine between the direction spaces of the
    linear subspaces *a* and *b*: the largest cosine the projector stores."""
    return compute_report(build(ProblemGeometry(a, b))).theta_min_cos


class TestMinAngle:
    def test_orthogonal(self):
        assert min_angle_cos(line([1, 0, 0]), span([0, 1, 0], [0, 0, 1])) == pytest.approx(0.0, abs=1e-14)

    def test_tilted_line_family(self):
        # with the second space the complement of a phi-tilted line, the
        # cosine against the complement is sin(phi)
        phi = np.deg2rad(30)
        w0 = line([np.cos(phi), np.sin(phi), 0.0])
        w0_perp = span([-np.sin(phi), np.cos(phi), 0.0], [0.0, 0.0, 1.0])
        assert min_angle_cos(line([1, 0, 0]), w0_perp) == pytest.approx(np.sin(phi), abs=1e-12)
        del w0

    def test_identical_spaces(self):
        s = span([1, 0, 0], [0, 1, 0])
        assert min_angle_cos(s, s) == pytest.approx(1.0, abs=1e-12)


class TestFriedrichs:
    def test_distinct_lines_no_intersection(self):
        phi = np.deg2rad(40)
        fc, dim_j = friedrichs_cos(line([1, 0]), line([np.cos(phi), np.sin(phi)]))
        assert dim_j == 0
        assert fc == pytest.approx(np.cos(phi), abs=1e-12)

    def test_identical_subspaces_reduce_to_nothing(self):
        s = span([1, 0, 0], [0, 1, 0])
        fc, dim_j = friedrichs_cos(s, s)
        assert (fc, dim_j) == (0.0, 2)

    def test_shared_direction_removed(self):
        phi = np.deg2rad(25)
        a = span([1, 0, 0, 0], [0, 1, 0, 0])
        b = span([1, 0, 0, 0], [0, np.cos(phi), np.sin(phi), 0])
        fc, dim_j = friedrichs_cos(a, b)
        assert dim_j == 1
        assert fc == pytest.approx(np.cos(phi), abs=1e-12)


class TestReport:
    def test_orthogonal_lines_in_r3(self):
        g = ProblemGeometry(line([1, 0, 0]), line([0, 1, 0])).canonical()
        rep = compute_report(build(g))
        assert rep.nu == pytest.approx(1.0, abs=1e-12)  # e1 lies in the complement
        assert rep.gamma == pytest.approx(1.0, abs=1e-12)
        assert rep.intersection_dim == 0

    def test_parallel_spaces(self):
        g = ProblemGeometry(line([1, 0, 0]), line([1, 0, 0])).canonical()
        rep = compute_report(build(g))
        assert rep.nu == pytest.approx(0.0, abs=1e-12)
        assert rep.gamma == pytest.approx(1.0, abs=1e-12)
        assert rep.intersection_dim == 1

    def test_tilted_line_pair(self):
        phi = np.deg2rad(30)
        g = ProblemGeometry(line([1, 0, 0]), line([np.cos(phi), np.sin(phi), 0])).canonical()
        rep = compute_report(build(g))
        assert rep.nu == pytest.approx(np.sin(phi), abs=1e-12)
        assert rep.gamma == pytest.approx(np.sin(phi), abs=1e-12)
        assert rep.theta_min_cos == pytest.approx(np.cos(phi), abs=1e-12)

    def test_requires_canonical_geometry(self):
        u = AffineSubspace.from_span(np.array([[1.0], [0.0]]), point=[0.0, 1.0])
        g = ProblemGeometry(u, line([0, 1]))
        with pytest.raises(ValueError):  # from build
            compute_report(build(g))

    @pytest.mark.parametrize("seed", range(10))
    def test_pythagorean_identity(self, seed):
        g = canonical_random(seed, dim=9, dim_u=3, dim_w=4,
                             shared_dims=seed % 3)
        rep = compute_report(build(g))
        assert rep.gamma**2 + rep.friedrichs_cos**2 == pytest.approx(1.0, abs=1e-10)
        assert 0.0 <= rep.friedrichs_cos <= rep.theta_min_cos + 1e-12 <= 1.0 + 1e-12
        assert 0.0 <= rep.nu <= 1.0 and 0.0 <= rep.gamma <= 1.0
        assert rep.intersection_dim >= (seed % 3)

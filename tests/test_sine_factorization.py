"""The thin factorization R = A - B (B^T A) against the independent
references in ``reference.py``, on geometries that cover every shape the
factorization must handle."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altproj.projector import compute_report
from altproj.linalg import orthogonal_complement
from altproj.projector import build, least_squares_set, limit_point, nullspace_cutoff

from helpers import canonical_controlled, canonical_random, property_geometries
from reference import (normal_equation_residual, principal_cosines, reference_build,
                       reference_least_squares, reference_report)
from rounding import normal_equation_bound

SMALL_ANGLES = [2e-4, 1e-3, 0.5]

CASES = {
    # name: (builder, expected intersection dimension)
    "shared-1": (lambda: canonical_random(1, dim=9, dim_u=4, dim_w=4, shared_dims=1), 1),
    "shared-2": (lambda: canonical_random(2, dim=9, dim_u=4, dim_w=3, shared_dims=2), 2),
    "ku-lt-kw": (lambda: canonical_random(3, dim=10, dim_u=2, dim_w=5), 0),
    "ku-gt-kw": (lambda: canonical_random(4, dim=10, dim_u=5, dim_w=2), 0),
    "ku-gt-kw-shared": (lambda: canonical_random(5, dim=10, dim_u=5, dim_w=3, shared_dims=1), 1),
    "u-in-v": (lambda: canonical_random(6, dim=9, dim_u=2, dim_w=4, shared_dims=2), 2),
    "v-in-u": (lambda: canonical_random(7, dim=9, dim_u=4, dim_w=2, shared_dims=2), 2),
    "u-equals-v": (lambda: canonical_random(8, dim=6, dim_u=3, dim_w=3, shared_dims=3), 3),
    "v-is-everything": (lambda: canonical_random(9, dim=5, dim_u=2, dim_w=5), 2),
    "w-is-a-point": (lambda: canonical_random(11, dim=5, dim_u=2, dim_w=0), 0),
    "d-minus-kw-lt-ku": (lambda: canonical_random(10, dim=7, dim_u=4, dim_w=5), 2),
    "small-angles": (lambda: canonical_controlled(SMALL_ANGLES, offset_norm=0.7), 0),
    "small-angles-rotated": (lambda: canonical_controlled(SMALL_ANGLES, offset_norm=0.7,
                                                          extra_dims=6, rotation_seed=11), 0),
    "small-angles-and-intersection": (lambda: canonical_controlled(
        [0.0] + SMALL_ANGLES, offset_norm=1.3, extra_dims=2, rotation_seed=12), 1),
}


def reachable_data(g, ref, seed):
    """The offset of W plus the V-perp part of a random vector of U: data in
    V-perp with a component in the range of the operator, built from the
    reference's complement only."""
    rng = np.random.default_rng(seed)
    c = ref.codomain_basis
    u = g.u_space.basis @ rng.standard_normal(g.u_space.dim)
    return g.w_offset + c @ (c.T @ u)


def assert_sines_match_reference_cosines(q, g):
    """The stored sines, ascending, paired with the reference cosines,
    nonincreasing, satisfy s^2 + c^2 = 1; the k_u - k_w sines with no
    cosine (when U has more directions than V) equal 1."""
    cos_ref = principal_cosines(g.u_space.basis, g.w_space.basis)
    sines = q.sines[::-1]
    k = cos_ref.size
    assert sines.size == g.u_space.dim and k == min(g.u_space.dim, g.w_space.dim)
    assert np.max(np.abs(sines[:k]**2 + cos_ref**2 - 1.0), initial=0.0) <= 1e-12
    assert np.max(np.abs(sines[k:] - 1.0), initial=0.0) <= 1e-12


def assert_matches_reference(g, seed=0):
    q, ref = build(g), reference_build(g)
    assert_sines_match_reference_cosines(q, g)
    assert q.norm == pytest.approx(ref.norm, abs=1e-12)
    assert q.reduced_min_modulus == pytest.approx(ref.reduced_min_modulus, abs=1e-12)
    n, n_ref = q.nullspace_basis, ref.nullspace_basis
    assert n.shape == n_ref.shape
    assert np.allclose(n @ n.T, n_ref @ n_ref.T, atol=1e-10)

    w = reachable_data(g, ref, seed)
    lss = least_squares_set(q, w)
    sol_ref, residual_ref = reference_least_squares(ref, w)
    # least-squares perturbation bound: eps times the squared condition number
    gamma_q = q.reduced_min_modulus
    rtol = max(1e-12, 1e-15 / gamma_q**2) if gamma_q > 0 else 1e-12
    assert np.linalg.norm(lss.min_norm_solution - sol_ref) <= rtol * (1.0 + np.linalg.norm(sol_ref))
    assert lss.residual_norm == pytest.approx(residual_ref, abs=1e-10 * (1.0 + np.linalg.norm(w)))

    rep, rep_ref = compute_report(q), reference_report(g)
    assert rep.nu == pytest.approx(rep_ref.nu, abs=1e-12)
    # the reference takes gamma as sqrt(1 - fc^2), which is off by up to
    # ~eps / gamma near small angles
    assert rep.gamma == pytest.approx(rep_ref.gamma, abs=1e-10)
    assert rep.intersection_dim == rep_ref.intersection_dim
    return rep


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_complement_reference(name):
    builder, dim_j = CASES[name]
    assert assert_matches_reference(builder()).intersection_dim == dim_j


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.integers(0, 6), st.integers(0, 6), st.integers(0, 6),
       st.integers(0, 2**31 - 1))
def test_generated_geometries_match_complement_reference(dim, dim_u, dim_w, shared, seed):
    dim_u, dim_w = min(dim_u, dim), min(dim_w, dim)
    shared = min(shared, dim_u, dim_w)
    g = canonical_random(seed, dim=dim, dim_u=dim_u, dim_w=dim_w, shared_dims=shared)
    assert_matches_reference(g, seed)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(property_geometries())
def test_stored_cosines_match_reference_on_property_geometries(g):
    assert_sines_match_reference_cosines(build(g), g)


def assert_build_factorizes_once(g):
    """``build`` calls ``np.linalg.svd`` once, on the d x k_u matrix R."""
    calls = []
    svd = np.linalg.svd

    def counted(m, *args, **kwargs):
        calls.append(m.shape)
        return svd(m, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", counted)
        build(g)
    assert calls == [(g.dim_ambient, g.u_space.dim)]


@pytest.mark.parametrize("name", sorted(CASES))
def test_build_takes_one_factorization(name):
    assert_build_factorizes_once(CASES[name][0]())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(property_geometries())
def test_build_takes_one_factorization_on_property_geometries(g):
    assert_build_factorizes_once(g)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_factorizes_nothing(name, monkeypatch):
    q = build(CASES[name][0]())
    expected = compute_report(q)

    def refuse(*args, **kwargs):
        raise AssertionError("compute_report called a numpy.linalg factorization")

    for routine in ("svd", "eigh", "eig", "qr", "pinv", "lstsq"):
        monkeypatch.setattr(np.linalg, routine, refuse)
    rep = compute_report(q)
    assert (rep.nu, rep.gamma, rep.intersection_dim, rep.tol) == (
        expected.nu, expected.gamma, expected.intersection_dim, expected.tol)


@pytest.mark.parametrize("rotation_seed", [None, 1])
def test_small_angle_gamma_is_accurate(rotation_seed):
    phi = 2e-4
    g = canonical_controlled([phi], offset_norm=0.5, extra_dims=3, rotation_seed=rotation_seed)
    q = build(g)
    assert compute_report(q).gamma == pytest.approx(np.sin(phi), rel=1e-12, abs=0.0)
    assert q.reduced_min_modulus == pytest.approx(np.sin(phi), rel=1e-12, abs=0.0)


def test_projector_fields_are_thin():
    g = canonical_random(13, dim=40, dim_u=3, dim_w=5, shared_dims=1)
    q = build(g)
    a, b, x = g.u_space.basis, g.w_space.basis, q.codomain_basis
    assert q.matrix.shape == (3, 3)
    assert x.shape == (40, 3)
    assert np.allclose(q.constraint_basis, b)
    assert np.allclose(x.T @ x, np.eye(3), atol=1e-12)
    vperp = orthogonal_complement(b)
    r = vperp @ (vperp.T @ a)
    assert np.allclose(x @ q.matrix, r, atol=1e-12)
    assert np.allclose(q.matrix.T @ q.matrix, r.T @ r, atol=1e-12)
    assert np.allclose(q.sines, np.linalg.svd(r, compute_uv=False), atol=1e-12)



def test_sine_below_cutoff_is_dropped_from_solve_and_check():
    # sines 0.507 and 1.9e-6 (plus two rounding zeros): the second lies
    # below the null-space cutoff, so the solve and the normal-equation
    # oracle both drop it; the package's own check, now gone, once kept it
    # and rejected the problem
    g = canonical_random(1160396831, dim=10, dim_u=4, dim_w=8, shared_dims=2)
    q, ref = build(g), reference_build(g)
    assert 1e-8 < q.sines[1] <= nullspace_cutoff(q.tol) < q.sines[0]
    assert q.nullspace_basis.shape[1] == 3
    sol_ref, residual_ref = reference_least_squares(ref, g.w_offset)
    lss = least_squares_set(q, g.w_offset)
    assert np.linalg.norm(lss.min_norm_solution - sol_ref) <= 1e-12 * (1.0 + np.linalg.norm(sol_ref))
    assert lss.residual_norm == pytest.approx(residual_ref, abs=1e-12)
    residual, x_norm = normal_equation_residual(g, lss, g.w_offset)
    assert residual <= normal_equation_bound(10, 4, 8, x_norm, np.linalg.norm(g.w_offset))
    u0 = g.u_space.basis @ np.random.default_rng(0).standard_normal(4)
    n_ref = ref.nullspace_basis
    assert np.allclose(limit_point(q, g.w_offset, u0), sol_ref + n_ref @ (n_ref.T @ u0),
                       atol=1e-12)

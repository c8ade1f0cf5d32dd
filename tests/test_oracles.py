"""Oracles for what the package computes and does not check again.

``AffineSubspace(basis, offset)`` checks its caller's input. The bases that
``orthonormalize`` returns, the offsets that ``from_span``, ``translate`` and
``canonical`` form, and the least-squares solution of ``least_squares_set``
are not checked in the package; these properties check them, with the bounds
of ``rounding.py``, which follow the data each result was computed from.
Points are scaled by 2^j, which is exact in floating point, so every bound
must hold at every scale.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from altproj import cli
from altproj.linalg import orthonormalize
from altproj.problems import geometry_from_config, random_geometry
from altproj.projector import build, least_squares_set
from altproj.subspace import AffineSubspace, ProblemGeometry, canonicalize

from helpers import property_geometries
from reference import normal_equation_residual
from rounding import canonical_offset_bound, gram_bound, gram_error, normal_equation_bound

SCALES = st.integers(-60, 60)
SEEDS = st.integers(0, 2**32 - 1)
# points 2^20 times farther along the subspace than off it
FAR = 2.0 ** 20


def norm(x):
    return float(np.linalg.norm(x))


def far_point(rng, a, j):
    """A point 2^j (FAR c + e) for c a point of the direction space of *a* and
    e a small step off it, both standard normal."""
    return 2.0 ** j * (FAR * (a.basis @ rng.standard_normal(a.dim))
                       + rng.standard_normal(a.dim_ambient))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(property_geometries(), SCALES, SEEDS)
def test_orthonormalize_gram_error_within_bound(g, j, seed):
    rng = np.random.default_rng(seed)
    for b in (g.u_space.basis, g.w_space.basis):
        k = b.shape[1]
        basis = orthonormalize(2.0 ** j * (b @ rng.standard_normal((k, k + 1))))
        assert basis.shape == b.shape
        assert gram_error(basis) <= gram_bound(*basis.shape)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(property_geometries(), SCALES, SEEDS)
def test_from_span_offset_is_canonical_to_the_scale_of_the_point(g, j, seed):
    rng = np.random.default_rng(seed)
    for a in (g.u_space, g.w_space):
        p = far_point(rng, a, j)
        made = AffineSubspace.from_span(a.basis, point=p)
        assert norm(made.basis.T @ made.offset) <= canonical_offset_bound(made.basis, norm(p))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(property_geometries(), SCALES, SEEDS)
def test_translate_offset_is_canonical_to_the_scale_of_the_shift(g, j, seed):
    rng = np.random.default_rng(seed)
    for a in (g.u_space, g.w_space):
        s = far_point(rng, a, j)
        moved = a.translate(s)
        assert moved.basis is a.basis
        prior = norm(a.basis.T @ a.offset)
        assert norm(a.basis.T @ moved.offset) <= \
            prior + canonical_offset_bound(a.basis, norm(a.offset) + norm(s))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(property_geometries(), SCALES, SEEDS)
def test_canonical_offsets_are_canonical_to_the_scale_of_the_shift(g, j, seed):
    rng = np.random.default_rng(seed)
    moved = ProblemGeometry(g.u_space.translate(far_point(rng, g.u_space, j)),
                            g.w_space.translate(far_point(rng, g.w_space, j)))
    c = moved.canonical()
    t, w_off, b = moved.u_space.offset, moved.w_space.offset, moved.w_space.basis
    assert c.is_canonical and np.array_equal(c.shift, t)
    # W moves by -t: a translate, whose bound adds the offset it starts from
    assert norm(b.T @ c.w_offset) <= norm(b.T @ w_off) + canonical_offset_bound(
        b, norm(w_off) + norm(t))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(property_geometries(), SCALES)
def test_least_squares_solution_meets_normal_equation(g, j):
    w = 2.0 ** j * g.w_offset
    lss = least_squares_set(build(g), w)
    residual, x_norm = normal_equation_residual(g, lss, w)
    assert residual <= normal_equation_bound(g.dim_ambient, g.u_space.dim, g.w_space.dim,
                                             x_norm, norm(w))


def test_normal_equation_oracle_fails_a_tampered_projector():
    # right singular vectors that are not orthonormal: the solution taken
    # from them misses the operator's normal equation, which the package no
    # longer checks, so the oracle must catch it
    g = canonicalize(random_geometry(6, 2, 2, seed=3))
    q = build(g)
    tampered = dataclasses.replace(q, right_vectors=2.0 * q.right_vectors)
    w_norm = norm(g.w_offset)
    for projector, fails in ((q, False), (tampered, True)):
        residual, x_norm = normal_equation_residual(g, least_squares_set(projector, g.w_offset),
                                                    g.w_offset)
        assert (residual > normal_equation_bound(6, 2, 2, x_norm, w_norm)) == fails


RANDOM_SCENARIO = {
    "version": 1,
    "geometry": {"type": "random", "dim": 9, "dim_u": 3, "dim_w": 4, "seed": 5,
                 "offset_scale": 2.0},
    "schedule": {"kind": "constant", "value": 1.0},
    "u0": {"type": "random", "seed": 2},
}


def test_run_checks_no_subspace_that_it_builds(monkeypatch, tmp_path):
    calls = []
    check = AffineSubspace.__post_init__

    def spy(self):
        calls.append(self)
        check(self)

    monkeypatch.setattr(AffineSubspace, "__post_init__", spy)
    assert cli.run_scenario(RANDOM_SCENARIO, out_dir=tmp_path)["stop_reason"] == "converged"
    assert calls == []
    # the public constructor still runs its checks, through the spy
    AffineSubspace(np.eye(2)[:, :1], np.zeros(2))
    assert len(calls) == 1


def test_canonicalize_and_build_copy_no_basis():
    g = geometry_from_config(RANDOM_SCENARIO["geometry"])
    c = canonicalize(g)
    assert c is not g
    assert np.shares_memory(g.u_space.basis, c.u_space.basis)
    assert np.shares_memory(g.w_space.basis, c.w_space.basis)
    q = build(c)
    assert q.domain_basis is c.u_space.basis and q.constraint_basis is c.w_space.basis
    arrays = (c.u_space.basis, c.u_space.offset, c.w_space.offset, q.right_vectors,
              q.codomain_basis, q.sines, q.nullspace_basis,
              least_squares_set(q, c.w_offset).min_norm_solution)
    assert not any(a.flags.writeable for a in arrays)

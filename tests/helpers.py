"""Shared construction helpers for the test suite."""

import numpy as np
from hypothesis import strategies as st

from altproj.problems import controlled_angle_geometry, random_geometry


def rot2(phi):
    return np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])


def canonical_random(seed, dim=8, dim_u=3, dim_w=3, offset_scale=1.0, shared_dims=0):
    g = random_geometry(dim, dim_u, dim_w, seed, offset_scale=offset_scale,
                        shared_dims=shared_dims)
    return g.canonical()


def canonical_controlled(angles, offset_norm=0.0, extra_dims=0, rotation_seed=None):
    g = controlled_angle_geometry(angles, offset_norm=offset_norm,
                                  extra_dims=extra_dims, rotation_seed=rotation_seed)
    return g.canonical()


def well_conditioned_problem(seed, min_gamma=0.3):
    """Seeded rotated geometry with all principal-angle sines >= min_gamma and
    a random offset; returns the canonical geometry."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    lo = np.arcsin(min_gamma) + 0.02
    angles = rng.uniform(lo, np.pi / 2, k)
    offset_norm = rng.uniform(0.0, 1.5)
    extra = int(rng.integers(0, 3))
    return canonical_controlled(angles, offset_norm=offset_norm, extra_dims=extra,
                                rotation_seed=seed + 10_000)


def random_u0(g, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    b = g.u_space.basis
    return g.u_space.offset + b @ (rng.standard_normal(b.shape[1]) * scale)


@st.composite
def property_geometries(draw):
    """Nested (one direction space inside the other), intersecting, or
    near-parallel (a principal angle of 1e-6 to 1e-2 rad) canonical
    geometries."""
    kind = draw(st.sampled_from(["nested", "intersecting", "near-parallel"]))
    seed = draw(st.integers(0, 2**31 - 1))
    if kind == "near-parallel":
        angles = [draw(st.floats(1e-6, 1e-2)), draw(st.floats(0.2, np.pi / 2))]
        return canonical_controlled(angles, offset_norm=draw(st.floats(0.0, 2.0)),
                                    extra_dims=draw(st.integers(0, 4)), rotation_seed=seed)
    dim = draw(st.integers(3, 12))
    dim_u, dim_w = draw(st.integers(1, dim - 1)), draw(st.integers(1, dim - 1))
    k = min(dim_u, dim_w)
    shared = k if kind == "nested" else draw(st.integers(1, k))
    return canonical_random(seed, dim=dim, dim_u=dim_u, dim_w=dim_w, shared_dims=shared,
                            offset_scale=draw(st.floats(0.1, 10.0)))

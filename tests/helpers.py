"""Shared construction helpers for the test suite."""

import os

import numpy as np
from hypothesis import settings, strategies as st

from altproj.engine import run_alternating
from altproj.problems import controlled_angle_geometry, random_geometry
from altproj.schedule import Schedule


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


def iterates_at(q, w, schedule, u0, steps, **kw):
    """The iterate after each of *steps* steps, as the rows of an array: the
    final iterate of a run of that many steps, which ends where a longer run
    with the same arguments passes that step (the trace is prefix-exact).
    Each run must take all its steps."""
    rows = []
    for n in steps:
        trace = run_alternating(q, w, schedule, u0, max_iters=n, **kw)
        assert trace.n_steps == n, (trace.stop_reason, trace.n_steps, n)
        rows.append(trace.final_iterate)
    return np.array(rows)


def schedule_of(kind, hi, seed, length):
    """A schedule of each kind, its coefficients up to *hi* where the kind
    takes a scale; an explicit one has *length* terms."""
    return {
        "constant": lambda: Schedule.constant(0.7 * hi),
        "cyclic": lambda: Schedule.cyclic([0.3 * hi, hi, 0.6 * hi]),
        "harmonic-to-2": lambda: Schedule.harmonic_to_2(offset=seed % 7),
        "geometric-to-2": lambda: Schedule.geometric_to_2(gap=1.0, ratio=0.9),
        "explicit": lambda: Schedule.explicit(
            np.random.default_rng(seed).uniform(0.0, hi, length)),
        "random-uniform": lambda: Schedule.random_uniform(0.0, hi, seed=seed),
    }[kind]()


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


def property_settings(max_examples):
    """The Hypothesis settings of every property: *max_examples* examples,
    derandomized, with no deadline. With the environment variable
    HYPOTHESIS_PROFILE=wide, ten times as many examples, drawn afresh on
    each run."""
    if os.environ.get("HYPOTHESIS_PROFILE") == "wide":
        return settings(max_examples=10 * max_examples, deadline=None)
    return settings(max_examples=max_examples, deadline=None, derandomize=True)

"""Geometry constructors for experiments and tests.

The controlled-angle constructor makes the two governing scalars analytically
known: each prescribed principal angle phi contributes a singular value
sin(phi) to the restricted projector, so its norm is max sin(phi_i) and its
reduced minimum modulus is min over the nonzero angles of sin(phi_i). Zero
angles create intersection directions.
"""

import math

import numpy as np

from .schedule import filter_pair
from .subspace import AffineSubspace, ProblemGeometry
from .validation import as_count, as_vector, check_keys


def _random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def controlled_angle_geometry(angles, offset_norm=0.0, extra_dims=0, rotation_seed=None):
    """Geometry with prescribed principal angles between the direction spaces.

    Parameters
    ----------
    angles : sequence of float
        Principal angles in radians, each in [0, pi/2]. Zero angles give
        intersection directions.
    offset_norm : float
        Norm of the constraint offset, taken along a direction orthogonal to
        the constraint direction space (so the problem is inconsistent for
        offset_norm > 0 unless the offset is reachable).
    extra_dims : int
        Additional ambient dimensions beyond the 2k+1 needed.
    rotation_seed : int or None
        If given, the whole construction is conjugated by a seeded random
        orthogonal matrix, hiding the coordinate alignment without changing
        any angle.
    """
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if np.any((angles < 0) | (angles > np.pi / 2 + 1e-12)):
        raise ValueError("angles must lie in [0, pi/2]")
    k = angles.size
    d = 2 * k + 1 + int(extra_dims)
    u_span = np.eye(d)[:, :k]
    w_span = np.zeros((d, k))
    for i, phi in enumerate(angles):
        w_span[i, i] = np.cos(phi)
        w_span[k + i, i] = np.sin(phi)
    offset = np.zeros(d)
    offset[2 * k] = offset_norm

    if rotation_seed is not None:
        rot = _random_orthogonal(d, np.random.default_rng(rotation_seed))
        u_span = rot @ u_span
        w_span = rot @ w_span
        offset = rot @ offset

    u_space = AffineSubspace.from_span(u_span)
    w_space = AffineSubspace.from_span(w_span, point=offset)
    return ProblemGeometry(u_space, w_space)


def random_geometry(dim, dim_u, dim_w, seed, offset_scale=1.0, shared_dims=0):
    """Seeded random pair of affine subspaces.

    *shared_dims* spanning directions are common to both direction spaces,
    forcing an intersection of at least that dimension (exactly, generically).
    """
    if shared_dims > min(dim_u, dim_w):
        raise ValueError("shared_dims cannot exceed either subspace dimension")
    rng = np.random.default_rng(seed)
    u_span = rng.standard_normal((dim, dim_u))
    w_fresh = rng.standard_normal((dim, dim_w - shared_dims))
    w_span = np.hstack([u_span[:, :shared_dims], w_fresh])
    u_point = rng.standard_normal(dim) * offset_scale
    w_point = rng.standard_normal(dim) * offset_scale
    u_space = AffineSubspace.from_span(u_span, point=u_point)
    w_space = AffineSubspace.from_span(w_span, point=w_point)
    return ProblemGeometry(u_space, w_space)


def explicit_geometry(u_span, w_span, u_point=None, w_point=None):
    """Geometry from explicit spanning vectors (given as rows) and points."""
    u_mat = np.atleast_2d(np.asarray(u_span, dtype=float)).T
    w_mat = np.atleast_2d(np.asarray(w_span, dtype=float)).T
    u_space = AffineSubspace.from_span(u_mat, point=u_point)
    w_space = AffineSubspace.from_span(w_mat, point=w_point)
    return ProblemGeometry(u_space, w_space)


def random_point_in(space, seed, scale=1.0):
    """Seeded random point of an affine subspace."""
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal(space.dim) * scale
    return space.offset + space.basis @ coords


def diagonal_truncation_norms(p, r, dims):
    """Closed-form minimum-norm-solution norms for the diagonal family with
    singular values i^-p and data coefficients i^-r, truncated to each
    dimension in *dims*: sqrt(sum_{i<=d} i^(2(p-r))). *p* must be finite
    and positive, *r* finite, and each dimension a positive integer (a
    float with an integral value is accepted)."""
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"p must be finite and positive, got {p!r}")
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r!r}")
    if not all(float(d).is_integer() and d >= 1 for d in dims):
        raise ValueError(f"dimensions must be positive integers, got {list(dims)!r}")
    dims = [int(d) for d in dims]
    i = np.arange(1, max(dims) + 1, dtype=float)
    cum = np.cumsum(i ** (2.0 * (p - r)))
    return np.sqrt(cum[np.array(dims) - 1])


def run_diagonal_landweber(p, r, d, schedule, max_iters):
    """The iterate after *max_iters* steps of u <- u + alpha sigma (w - sigma u)
    from u = 0 on the diagonal model, in closed form through the filter
    polynomial: u_i = (1 - F_n(sigma_i^2)) w_i / sigma_i."""
    i = np.arange(1, int(d) + 1, dtype=float)
    sigma = i ** (-float(p))
    w = i ** (-float(r))
    return filter_pair(schedule, sigma * sigma, int(max_iters))[1] * w / sigma


def _require(cond, msg):
    if not cond:
        raise ValueError(msg)


# The keys each geometry type reads, besides "type".
GEOMETRY_KEYS = {
    "explicit": ("u_span", "w_span", "u_point", "w_point"),
    "random": ("dim", "dim_u", "dim_w", "seed", "offset_scale", "shared_dims"),
    "controlled_angle": ("angles_deg", "offset_norm", "extra_dims", "rotation_seed"),
}


def geometry_from_config(cfg):
    """Build a geometry from a scenario config dict (see the cli module). A
    key the type does not read, or an integer field with a fractional
    value, is rejected."""
    kind = cfg.get("type")
    if kind not in GEOMETRY_KEYS:
        raise ValueError(f"unknown geometry type {kind!r}")
    check_keys(cfg, ("type", *GEOMETRY_KEYS[kind]), "geometry")
    if kind == "explicit":
        return explicit_geometry(
            cfg["u_span"], cfg["w_span"],
            u_point=cfg.get("u_point"), w_point=cfg.get("w_point"),
        )
    if kind == "random":
        _require("seed" in cfg, "random geometry requires a seed")
        return random_geometry(
            *(as_count(cfg[key], key) for key in ("dim", "dim_u", "dim_w", "seed")),
            offset_scale=float(cfg.get("offset_scale", 1.0)),
            shared_dims=as_count(cfg.get("shared_dims", 0), "shared_dims"),
        )
    angles = np.deg2rad(as_vector(cfg["angles_deg"], name="angles_deg"))
    seed = cfg.get("rotation_seed")
    return controlled_angle_geometry(
        angles,
        offset_norm=float(cfg.get("offset_norm", 0.0)),
        extra_dims=as_count(cfg.get("extra_dims", 0), "extra_dims"),
        rotation_seed=None if seed is None else as_count(seed, "rotation_seed"),
    )

"""Geometry constructors for experiments and tests.

The controlled-angle constructor makes the two governing scalars analytically
known: each prescribed principal angle phi contributes a singular value
sin(phi) to the restricted projector, so its norm is max sin(phi_i) and its
reduced minimum modulus is min over the nonzero angles of sin(phi_i). Zero
angles create intersection directions.
"""

import math

import numpy as np

from .schedule import Schedule, _filter_runs
from .subspace import AffineSubspace, ProblemGeometry
from .validation import as_count, as_matrix, as_real, as_vector, check_keys


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
    if max(dim_u, dim_w) > dim:
        raise ValueError(f"dim_u and dim_w cannot exceed dim, got dim_u={dim_u} and "
                         f"dim_w={dim_w} with dim={dim}")
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
    u_mat = as_matrix(np.atleast_2d(u_span), name="u_span").T
    w_mat = as_matrix(np.atleast_2d(w_span), name="w_span").T
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
    dimension in *dims*: sqrt(sum_{i<=d} i^(2(p-r))), from the limit sums
    of a zero-step truncation_sums."""
    return np.sqrt(truncation_sums(p, r, dims, Schedule.constant(1.0), 0)[0])


# Indices per block of the diagonal model's pass: its three arrays and the
# filter kernel's four of this length take 448 KiB, inside a core's L2.
LANDWEBER_BLOCK = 2 ** 13


def _diagonal_blocks(p, r, d, schedule, max_iters):
    """The diagonal model over indices 1 .. d, one block of LANDWEBER_BLOCK
    indices at a time: (start, t, u) for the indices start + 1 ..
    start + len(t), where t_i = i^(2(p-r)) = (w_i / sigma_i)^2 and
    u_i = (1 - F_n(sigma_i^2)) sqrt(t_i) is the iterate after *max_iters*
    steps of *schedule*, split into runs once. t is scratch, overwritten by
    the next block; u is the filter kernel's fresh array for each block."""
    p, r = float(p), float(r)
    runs = schedule.runs(int(max_iters))
    i = np.arange(1.0, min(d, LANDWEBER_BLOCK) + 1)
    t, lam = np.empty((2, i.size))
    for start in range(0, d, LANDWEBER_BLOCK):
        k = min(d - start, LANDWEBER_BLOCK)
        np.power(i[:k], 2.0 * (p - r), out=t[:k])
        np.power(i[:k], 2.0 * -p, out=lam[:k])  # sigma^2
        u = _filter_runs(runs, lam[:k], keep_f=False)[1]
        yield start, t[:k], np.multiply(u, np.sqrt(t[:k], out=lam[:k]), out=u)
        i += LANDWEBER_BLOCK


def truncation_sums(p, r, dims, schedule, max_iters):
    """For the diagonal family with singular values i^-p and data i^-r,
    truncated to each dimension d of *dims* (in the order given): the sums
    over i <= d of t_i = i^(2(p-r)), the squared norm of the minimum-norm
    solution, and of u_i^2, the squared norm of the iterate after
    *max_iters* steps of *schedule* from zero. *p* must be finite and
    positive, *r* finite, and *dims* a nonempty list of positive integers
    below 2 ** 53, where float indices stop being exact (a float with an
    integral value is accepted). The schedule's coefficients are split
    into runs once (Schedule.runs), so a constant schedule costs O(1)
    memory in *max_iters*.

    One pass over the largest dimension, in blocks of LANDWEBER_BLOCK
    indices, with no array of its length: each block adds its share of
    each segment between the sorted dimensions, summed pairwise, to
    that segment's running sum, and the segment sums are added in order.
    The rounding grows with the number of blocks and of dimensions, where
    a running sum's grows with d."""
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"p must be finite and positive, got {p!r}")
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r!r}")
    if not dims or not all(float(d).is_integer() and 1 <= d < 2 ** 53 for d in dims):
        raise ValueError(f"dimensions must be positive integers below 2 ** 53, "
                         f"got {list(dims)!r}")
    dims = [int(d) for d in dims]
    ends = sorted(set(dims))
    parts = np.zeros((len(ends), 2))  # each segment's sums of t and of u^2
    j = 0  # the segment that holds index lo + 1
    for start, t, u in _diagonal_blocks(p, r, ends[-1], schedule, max_iters):
        np.square(u, out=u)
        lo, stop = start, start + t.size
        while lo < stop:
            hi = min(ends[j], stop)
            parts[j, 0] += t[lo - start:hi - start].sum()
            parts[j, 1] += u[lo - start:hi - start].sum()
            if hi == ends[j]:
                j += 1
            lo = hi
    totals = dict(zip(ends, np.cumsum(parts, axis=0)))
    return tuple(np.array([totals[d][col] for d in dims]) for col in (0, 1))


def run_diagonal_landweber(p, r, d, schedule, max_iters):
    """The iterate after *max_iters* steps of u <- u + alpha sigma (w - sigma u)
    from u = 0 on the diagonal model, in closed form through the filter
    polynomial: u_i = (1 - F_n(sigma_i^2)) w_i / sigma_i, filled in from the
    blocks of truncation_sums' pass."""
    d = int(d)
    u = np.empty(d)
    for start, _, block in _diagonal_blocks(p, r, d, schedule, max_iters):
        u[start:start + block.size] = block
    return u


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
        if "seed" not in cfg:
            raise ValueError("random geometry requires a seed")
        return random_geometry(
            *(as_count(cfg[key], key) for key in ("dim", "dim_u", "dim_w", "seed")),
            offset_scale=as_real(cfg.get("offset_scale", 1.0), "offset_scale"),
            shared_dims=as_count(cfg.get("shared_dims", 0), "shared_dims"),
        )
    angles = np.deg2rad(as_vector(cfg["angles_deg"], name="angles_deg"))
    seed = cfg.get("rotation_seed")
    return controlled_angle_geometry(
        angles,
        offset_norm=as_real(cfg.get("offset_norm", 0.0), "offset_norm"),
        extra_dims=as_count(cfg.get("extra_dims", 0), "extra_dims"),
        rotation_seed=None if seed is None else as_count(seed, "rotation_seed"),
    )

"""Geometry constructors for experiments and tests.

The controlled-angle constructor makes the two governing scalars analytically
known: each prescribed principal angle phi contributes a singular value
sin(phi) to the restricted projector, so its norm is max sin(phi_i) and its
reduced minimum modulus is min over the nonzero angles of sin(phi_i). Zero
angles create intersection directions.
"""

import math

import numpy as np

from .linalg import lengths
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
    offset_norm = as_real(offset_norm, "offset_norm")
    if not math.isfinite(offset_norm):
        raise ValueError(f"offset_norm must be finite, got {offset_norm!r}")
    extra_dims = as_count(extra_dims, "extra_dims")
    angles = np.atleast_1d(np.asarray(angles, dtype=float))
    if not np.all((angles >= 0) & (angles <= np.pi / 2 + 1e-12)):  # also rejects NaN
        raise ValueError("angles must lie in [0, pi/2]")
    k = angles.size
    d = 2 * k + 1 + extra_dims
    u_span = np.eye(d)[:, :k]
    w_span = np.zeros((d, k))
    for i, phi in enumerate(angles):
        w_span[i, i] = np.cos(phi)
        w_span[k + i, i] = np.sin(phi)
    offset = np.zeros(d)
    offset[2 * k] = offset_norm

    if rotation_seed is not None:
        rot = _random_orthogonal(d, np.random.default_rng(as_count(rotation_seed, "rotation_seed")))
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
    dim, dim_u, dim_w, seed, shared_dims = (as_count(v, name) for v, name in zip(
        (dim, dim_u, dim_w, seed, shared_dims), ("dim", "dim_u", "dim_w", "seed", "shared_dims")))
    offset_scale = as_real(offset_scale, "offset_scale")
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
    """Geometry from explicit spanning vectors (rows, or one vector) and
    points; a span is checked as given, where a boolean is not yet a number."""
    u_mat = as_matrix([u_span] if np.ndim(u_span) == 1 else u_span, name="u_span").T
    w_mat = as_matrix([w_span] if np.ndim(w_span) == 1 else w_span, name="w_span").T
    u_space = AffineSubspace.from_span(u_mat, point=u_point)
    w_space = AffineSubspace.from_span(w_mat, point=w_point)
    return ProblemGeometry(u_space, w_space)


def random_point_in(space, seed, scale=1.0):
    """Seeded random point of an affine subspace."""
    rng = np.random.default_rng(as_count(seed, "seed"))
    coords = rng.standard_normal(space.dim) * as_real(scale, "scale")
    return space.offset + space.basis @ coords


def diagonal_truncation_norms(p, r, dims):
    """Closed-form minimum-norm-solution norms for the diagonal family with
    singular values i^-p and data coefficients i^-r, truncated to each
    dimension in *dims*: sqrt(sum_{i<=d} i^(2(p-r))), the limit norms of a
    zero-step truncation_norms."""
    return truncation_norms(p, r, dims, Schedule.constant(1.0), 0)[0]


# Indices per block of the diagonal model's pass: its three arrays and the
# filter kernel's four of this length take 448 KiB, inside a core's L2.
LANDWEBER_BLOCK = 2 ** 13
_TINY = np.finfo(float).tiny


def _diagonal_gate(p, r, dims, max_iters):
    """The diagonal family's one check, before any array of length d exists:
    (p, r, dims, max_iters) as floats, ints and an int, for *p* finite and
    positive, *r* finite, *dims* a nonempty list of integers in [1, 2 ** 53),
    where float indices stop being exact, and *max_iters* a count."""
    p, r = as_real(p, "p"), as_real(r, "r")
    if not (math.isfinite(p) and p > 0):
        raise ValueError(f"p must be finite and positive, got {p!r}")
    if not math.isfinite(r):
        raise ValueError(f"r must be finite, got {r!r}")
    if not dims or not all(as_real(d, "dimension").is_integer() and 1 <= d < 2 ** 53
                           for d in dims):
        raise ValueError(f"dimensions must be positive integers below 2 ** 53, "
                         f"got {list(dims)!r}")
    return p, r, [int(d) for d in dims], as_count(max_iters, "max_iters")


def _by_halves(c, i, e):
    """c i^e as (c i^(e/2)) i^(e/2), for indices *i* whose power i^e
    overflows: finite wherever the product is a float, and 0 where c is 0,
    whatever the power."""
    h = np.power(i, e / 2, out=np.zeros(i.shape), where=np.not_equal(c, 0.0))
    return c * h * h


def _diagonal_blocks(p, r, d, schedule, max_iters):
    """The diagonal model over indices 1 .. d, one block of LANDWEBER_BLOCK
    indices at a time: (start, x, u) for the indices start + 1 ..
    start + len(x), where x_i = i^(p-r) = w_i / sigma_i and
    u_i = (1 - F_n(sigma_i^2)) x_i is the iterate after *max_iters* steps
    of *schedule*, split into runs once. x is scratch, overwritten by the
    next block; u is the filter kernel's fresh array for each block.
    Where A sigma_i^2 is subnormal, A the sum of the coefficients, 1 - F_n
    is A sigma_i^2 to a relative A sigma_i^2, and u_i is formed as
    A sigma_i w_i: a subnormal 1 - F_n has lost bits that the product by
    x_i would carry into u_i. Where the power in either form overflows,
    u_i takes it as two half powers (_by_halves), so u_i is finite wherever
    it is a float."""
    runs = schedule.runs(max_iters)
    total = math.fsum(alpha * m for alpha, m in runs)
    i = np.arange(1.0, min(d, LANDWEBER_BLOCK) + 1)
    x, lam = np.empty((2, i.size))
    for start in range(0, d, LANDWEBER_BLOCK):
        k = min(d - start, LANDWEBER_BLOCK)
        np.power(i[:k], p - r, out=x[:k])
        np.power(i[:k], 2.0 * -p, out=lam[:k])  # sigma^2, falling along the block
        u = _filter_runs(runs, lam[:k], keep_f=False)[1]
        low = total * lam[:k] < _TINY if total * lam[k - 1] < _TINY else None
        if not math.isinf(max(x[0], x[k - 1])):  # x is monotone
            np.multiply(u, x[:k], out=u)
        else:
            big = np.isinf(x[:k])
            np.multiply(u, x[:k], out=u, where=~big)
            u[big] = _by_halves(u[big], i[:k][big], p - r)
        if low is not None:
            il = i[:k][low]
            v = np.power(il, -(p + r))
            over = np.isinf(v)
            np.multiply(v, total, out=v, where=~over)  # A sigma_i w_i
            v[over] = _by_halves(total, il[over], -(p + r))
            u[low] = v
        yield start, x[:k], u
        i += LANDWEBER_BLOCK


def truncation_norms(p, r, dims, schedule, max_iters):
    """For the diagonal family with singular values i^-p and data i^-r,
    truncated to each dimension d of *dims* (in the order given): the norms
    over i <= d of x_i = i^(p-r), the minimum-norm solution, and of u_i, the
    iterate after *max_iters* steps of *schedule* from zero, for input that
    _diagonal_gate accepts. The schedule's coefficients are split into runs
    once (Schedule.runs), so a constant schedule costs O(1) memory in
    *max_iters*.

    One pass over the largest dimension, in blocks of LANDWEBER_BLOCK
    indices, with no array of its length. The length of each block's share
    of each segment between the sorted dimensions is the root of its sum of
    squares, summed pairwise, or, where that sum leaves the normal range,
    linalg.lengths, which rescales the share; the norm up to each dimension
    is math.hypot of the shares' lengths before it. So a norm is right
    wherever it is a finite float."""
    p, r, dims, max_iters = _diagonal_gate(p, r, dims, max_iters)
    ends = sorted(set(dims))
    shares, totals = ([], []), {}  # the lengths of each share of x and of u
    j = 0  # the segment that holds index lo + 1
    # a power or a square that overflows is mended in the pass (_by_halves,
    # lengths); the context is entered here, never inside the generator,
    # where it would span a yield
    with np.errstate(over="ignore"):
        for start, x, u in _diagonal_blocks(p, r, ends[-1], schedule, max_iters):
            lo, stop = start, start + x.size
            while lo < stop:
                hi = min(ends[j], stop)
                for col, part in zip(shares, (x[lo - start:hi - start],
                                              u[lo - start:hi - start])):
                    sq = np.square(part).sum()
                    col.append(math.sqrt(sq) if _TINY <= sq < math.inf else lengths(part))
                if hi == ends[j]:
                    totals[hi] = [math.hypot(*col) for col in shares]
                    j += 1
                lo = hi
    return tuple(np.array([totals[d][col] for d in dims]) for col in (0, 1))


def run_diagonal_landweber(p, r, d, schedule, max_iters):
    """The iterate after *max_iters* steps of u <- u + alpha sigma (w - sigma u)
    from u = 0 on the diagonal model, in closed form through the filter
    polynomial: u_i = (1 - F_n(sigma_i^2)) w_i / sigma_i, filled in from the
    blocks of truncation_norms' pass, for input that _diagonal_gate accepts."""
    p, r, (d,), max_iters = _diagonal_gate(p, r, [d], max_iters)
    u = np.empty(d)
    with np.errstate(over="ignore"):  # as in truncation_norms
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
    key the type does not read is rejected here, and a bad value by the
    constructor that receives it."""
    kind = cfg.get("type")
    if kind not in GEOMETRY_KEYS:
        raise ValueError(f"unknown geometry type {kind!r}")
    check_keys(cfg, ("type", *GEOMETRY_KEYS[kind]), "geometry")
    args = {key: cfg[key] for key in GEOMETRY_KEYS[kind] if key in cfg}
    if kind == "random" and "seed" not in args:
        raise ValueError("random geometry requires a seed")
    if kind == "controlled_angle":
        args["angles"] = np.deg2rad(as_vector(args.pop("angles_deg"), name="angles_deg"))
    return {"explicit": explicit_geometry, "random": random_geometry,
            "controlled_angle": controlled_angle_geometry}[kind](**args)

"""Input checks.

Each input is checked once, by the entry point that receives it, on the
value its caller passed (a JSON list, not an array made from it, so that a
boolean is seen), with one checker per kind: as_real, as_count, and
as_vector and as_matrix, which share one body. A bad value raises
ValueError; none is truncated.
"""

import numbers

import numpy as np

# Threshold on principal cosines used to detect subspace intersections
# (cosine >= 1 - INTERSECTION_TOL counts as an intersection direction);
# projector.NULLSPACE_CUTOFF is the matching cutoff on the sines.
INTERSECTION_TOL = 1e-8


def as_real(x, name="value"):
    """*x* as a float: an int or a float, as JSON writes a number. A string
    or a boolean, which float() would read, is rejected."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{name} must be a number, got {x!r}")
    return float(x)


def _as_array(x, ndim, dim, name):
    """The one check of as_vector and as_matrix: *x* as a finite float array
    of *ndim* dimensions, and of length *dim* along the first when given."""
    arr = np.asarray(x)
    # a string or a boolean, which float() reads, is refused, also among numbers
    if arr.dtype.kind not in "iuf" or not isinstance(x, np.ndarray) and \
            bool in map(type, np.asarray(x, dtype=object).flat):
        raise ValueError(f"{name} must hold only numbers")
    arr = arr.astype(float, copy=False)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} must have dimension {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_vector(x, dim=None, name="vector"):
    return _as_array(x, 1, dim, name)


def as_matrix(x, name="matrix"):
    return _as_array(x, 2, None, name)


def as_count(x, name="value"):
    """*x* as a nonnegative int: an integer, or a float with an integral
    value (as JSON may write one). A fractional, negative, non-finite or
    boolean value is rejected rather than truncated."""
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < 0:
        raise ValueError(f"{name} must be a nonnegative integer, got {x!r}")
    return int(x)


def check_keys(cfg, allowed, section):
    """Reject a key of the config mapping *cfg* outside *allowed*, naming
    every such key."""
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise ValueError(f"unknown {section} keys: {', '.join(unknown)}")


def readonly(arr):
    """A read-only float copy of *arr*, in its layout: for a caller's array."""
    return frozen(np.array(arr, dtype=float, copy=True))


def frozen(arr):
    """*arr* itself, made read-only: for an array the package has just made."""
    arr.setflags(write=False)
    return arr

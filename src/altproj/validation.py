"""Input validation helpers and the global tolerance policy.

All rank decisions in the package use a single *relative* tolerance,
never an absolute cutoff, so that subspace geometry is scale invariant.
"""

import numbers
import os

import numpy as np

DEFAULT_TOL = 1e-10

# Threshold on principal cosines used to detect subspace intersections
# (cosine >= 1 - INTERSECTION_TOL counts as an intersection direction).
INTERSECTION_TOL = 1e-8

ENV_TOL = "ALTPROJ_TOL"


def global_tol():
    """Global relative rank tolerance, overridable via the ALTPROJ_TOL env var."""
    raw = os.environ.get(ENV_TOL)
    if raw is None:
        return DEFAULT_TOL
    tol = float(raw)
    if not np.isfinite(tol) or tol <= 0:
        raise ValueError(f"{ENV_TOL} must be a positive finite number, got {raw!r}")
    return tol


def as_vector(x, dim=None, name="vector"):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} must have dimension {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_matrix(x, rows=None, name="matrix"):
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if rows is not None and arr.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


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
    """Return a read-only view-safe copy of *arr* (immutability by construction)."""
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out

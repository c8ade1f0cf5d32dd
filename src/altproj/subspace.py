"""Closed affine subspaces of R^d with orthogonal and relaxed projections.

An affine subspace is stored as an orthonormal basis of its direction space
plus the canonical offset (the point of the subspace closest to the origin,
which is orthogonal to the direction space). For the constraint set W with
direction space V, the canonical offset is exactly the vector P_W 0 in V-perp
that drives the whole least-squares analysis.

The constructor checks its caller's input; the subspaces that the package
builds (from_span, translate, canonical) are not checked again, but tested.
"""

from dataclasses import dataclass

import numpy as np

from .validation import as_matrix, as_vector, frozen, readonly
from . import linalg

_ORTHO_ATOL = 1e-12


@dataclass(frozen=True)
class AffineSubspace:
    """Affine subspace given by an orthonormal direction basis and a canonical offset.

    The public constructor is for canonical input: it refuses a basis that
    is not orthonormal, or an offset not orthogonal to it, to within
    _ORTHO_ATOL (times 1 + ||offset|| for the offset). A far subspace that
    the package built (from_span, translate, canonical) carries rounding in
    its offset that follows the point, and may fail that test: rebuild it
    with ``from_span(basis, point=offset)``.

    Attributes
    ----------
    basis : (d, k) ndarray
        Orthonormal columns spanning the direction space.
    offset : (d,) ndarray
        The point of the subspace closest to the origin; orthogonal to the
        direction space.
    """

    basis: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis, name="basis")
        off = as_vector(self.offset, dim=b.shape[0], name="offset")
        k = b.shape[1]  # with k = 0 both norms below are 0
        if np.linalg.norm(b.T @ b - np.eye(k)) > _ORTHO_ATOL * max(1.0, k):
            raise ValueError("basis columns are not orthonormal")
        if linalg.lengths(b.T @ off) > _ORTHO_ATOL * (1.0 + linalg.lengths(off)):
            raise ValueError("offset is not canonical (not orthogonal to the basis)")
        object.__setattr__(self, "basis", readonly(b))
        object.__setattr__(self, "offset", readonly(off))

    @classmethod
    def _made(cls, basis, offset):
        """The subspace of the read-only orthonormal *basis* and an offset just
        formed from it, frozen in place; only an offset that overflowed is refused."""
        if not np.all(np.isfinite(offset)):
            raise ValueError("offset contains non-finite entries")
        a = object.__new__(cls)
        object.__setattr__(a, "basis", basis)
        object.__setattr__(a, "offset", frozen(offset))
        return a

    @classmethod
    def from_span(cls, span, point=None):
        """Build from a spanning set (columns, not necessarily independent,
        which orthonormalize checks) and any point of the subspace. The
        offset is canonicalized."""
        b = linalg.orthonormalize(span)
        d = b.shape[0]
        p = np.zeros(d) if point is None else as_vector(point, dim=d, name="point")
        return cls._made(frozen(b), p - b @ (b.T @ p))

    @property
    def dim_ambient(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    def translate(self, s):
        """The subspace shifted by the vector *s* (offset re-canonicalized)."""
        s = as_vector(s, dim=self.dim_ambient, name="shift")
        return self._made(self.basis, self.offset + s - self.basis @ (self.basis.T @ s))


def project(a, u):
    """Orthogonal projection of *u* onto the affine subspace *a*."""
    u = as_vector(u, dim=a.dim_ambient, name="u")
    r = u - a.offset
    return a.offset + a.basis @ (a.basis.T @ r)


def project_relaxed(a, u, alpha):
    """Relaxed projection u + alpha * (P_a u - u); alpha = 1 is the plain
    projection, alpha = 2 the reflection. :func:`project` checks *u*."""
    if alpha < 0:
        raise ValueError("relaxation coefficient must be nonnegative")
    return u + alpha * (project(a, u) - u)


@dataclass(frozen=True)
class ProblemGeometry:
    """A pair of affine subspaces: the iterate space U and the constraint set W.

    The iteration and every output (nu, gamma, residuals, error norms) are
    unchanged when both are translated, so nothing records a translation.
    """

    u_space: AffineSubspace
    w_space: AffineSubspace

    def __post_init__(self):
        if self.u_space.dim_ambient != self.w_space.dim_ambient:
            raise ValueError("both subspaces must share the ambient dimension")

    @property
    def dim_ambient(self):
        return self.u_space.dim_ambient

    @property
    def is_canonical(self):
        """True when U passes exactly through the origin. An exact zero test
        has no scale: any nonzero offset, however small, is shifted away by
        :meth:`canonical`, which (like :meth:`AffineSubspace.from_span` without
        a point) yields an exactly zero offset."""
        return not np.any(self.u_space.offset)

    @property
    def w_offset(self):
        """The canonical offset of W, i.e. P_W 0, which lies in V-perp."""
        return self.w_space.offset

    def canonical(self):
        """Equivalent geometry with U through the origin: both subspaces
        translated by minus the offset of U."""
        if self.is_canonical:
            return self
        t = self.u_space.offset
        u_lin = AffineSubspace._made(self.u_space.basis, np.zeros(self.dim_ambient))
        return ProblemGeometry(u_lin, self.w_space.translate(-t))


def canonicalize(g):
    """See :meth:`ProblemGeometry.canonical`."""
    return g.canonical()

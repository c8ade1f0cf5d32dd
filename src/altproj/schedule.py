"""Relaxation schedules and their diagnostics.

A schedule is an immutable description of a nonnegative coefficient sequence.
The paper's admissible class is that the scaled sequence s_n = alpha_n * mu
stays in [0, 2] and the series sum s_n (2 - s_n) diverges, the variable-step
Landweber condition. classify decides it for each kind of schedule by a
theorem, in closed form: a verdict, not an estimate from finitely many terms
(for a random schedule, one that holds almost surely).
"""

import bisect
import math
import sys
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .validation import as_count, as_real

KINDS = (
    "constant",
    "cyclic",
    "harmonic-to-2",
    "geometric-to-2",
    "explicit",
    "random-uniform",
)

# The error of mu = nu^2 from the SVD, in units of eps, that classify allows
# for: it also decides the class at mu (1 - MU_ULPS eps) and mu (1 + MU_ULPS eps).
# Measured against 40-digit references: at most 3 on the bundled scenarios,
# 5 on 25-dimensional controlled angles and 13 (standard deviation 4.5) on
# 100 random pairs of 10-dimensional subspaces of R^1500. The error grows
# with the dimension, so the band is known to hold only up to about d = 1500.
MU_ULPS = 32


def _coefficients(values, name):
    """*values* as a tuple of floats, each a finite and nonnegative number (a
    string or a boolean, NaN and the infinities, which a JSON scenario can
    carry, are rejected); *name* is the parameter that holds them."""
    vals = tuple(as_real(v, name) for v in values)
    if not all(math.isfinite(v) and v >= 0 for v in vals):
        raise ValueError("coefficients must be finite and nonnegative")
    return vals


@dataclass(frozen=True)
class Schedule:
    """Immutable, hashable description of a relaxation sequence; generation
    is pure given (kind, params, index). The dataclass constructor checks
    *params* as from_dict does, and keeps the checked copy, read-only."""

    kind: str
    params: MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        checked = type(self).from_dict({**self.params, "kind": self.kind})
        object.__setattr__(self, "params", checked.params)

    def __hash__(self):
        return hash((self.kind, tuple(sorted(self.params.items()))))

    def __reduce__(self):  # a mappingproxy does not pickle: rebuild through the constructor
        return type(self), (self.kind, dict(self.params))

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, kind, params):
        """The schedule of *params* that a named constructor has checked,
        built without a second check."""
        schedule = object.__new__(cls)
        object.__setattr__(schedule, "kind", kind)
        object.__setattr__(schedule, "params", MappingProxyType(params))
        return schedule

    @classmethod
    def constant(cls, value):
        return cls._of("constant", {"value": _coefficients([value], "value")[0]})

    @classmethod
    def cyclic(cls, values):
        vals = _coefficients(values, "values")
        if not vals:
            raise ValueError("cyclic schedule needs a nonempty list of values")
        return cls._of("cyclic", {"values": vals})

    @classmethod
    def harmonic_to_2(cls, offset=0):
        """alpha_n = 2 - 1/(n + 1 + offset): approaches 2 slowly enough that
        the divergent-series condition still holds."""
        return cls._of("harmonic-to-2", {"offset": as_count(offset, "offset")})

    @classmethod
    def geometric_to_2(cls, gap=1.0, ratio=0.5):
        """alpha_n = 2 - gap * ratio^n: approaches 2 so fast that the
        divergent-series condition fails."""
        gap, ratio = as_real(gap, "gap"), as_real(ratio, "ratio")
        if not (0 < gap <= 2):
            raise ValueError("gap must be in (0, 2]")
        if not (0 < ratio < 1):
            raise ValueError("ratio must be in (0, 1)")
        return cls._of("geometric-to-2", {"gap": gap, "ratio": ratio})

    @classmethod
    def explicit(cls, values):
        return cls._of("explicit", {"values": _coefficients(values, "values")})

    @classmethod
    def random_uniform(cls, lo, hi, seed):
        (lo,), (hi,) = _coefficients([lo], "lo"), _coefficients([hi], "hi")
        if hi < lo:
            raise ValueError("need 0 <= lo <= hi")
        return cls._of("random-uniform", {"lo": lo, "hi": hi, "seed": as_count(seed, "seed")})

    # -- generation --------------------------------------------------------

    @property
    def period(self):
        """One period of the coefficients: (value,) for a constant schedule,
        the values of a cyclic one; None for any other kind."""
        if self.kind == "constant":
            return (self.params["value"],)
        return self.params["values"] if self.kind == "cyclic" else None

    @property
    def length(self):
        """Number of terms: finite only for an explicit schedule, else None."""
        return len(self.params["values"]) if self.kind == "explicit" else None

    def alphas(self, n):
        """First *n* coefficients as an array (prefix-stable for every kind);
        *n* must be an integer (a float with an integral value is accepted)."""
        n = as_count(n, "n")
        if self.length is not None and n > self.length:
            raise ValueError(f"explicit schedule has only {self.length} terms, {n} requested")
        return self._terms(0, n, self._generator())

    def runs(self, n):
        """(alpha, m) for each run of m equal consecutive terms among the
        first *n* coefficients, the split of alphas(n), with its errors. A
        constant schedule gives its one run without drawing its terms, in
        O(1) memory whatever *n* is."""
        if self.kind == "constant" and n > 0:
            return [(self.params["value"], as_count(n, "n"))]
        alphas = self.alphas(n)
        # a run starts where a term differs from the one before it (the NaN
        # put before the first term differs from every term)
        starts = np.flatnonzero(np.diff(alphas, prepend=np.nan))
        return list(zip(alphas[starts].tolist(), np.diff(starts, append=alphas.size).tolist()))

    def stream(self, sizes):
        """The coefficients in consecutive blocks, one array per length in
        *sizes*, from one generator: the blocks of sizes n1, n2, ... joined
        equal alphas(n1 + n2 + ...). An explicit schedule ends with the block
        that holds its last term, which may be short; a block past its end
        is not yielded."""
        rng = self._generator()
        start = 0
        for n in sizes:
            block = self._terms(start, n, rng)
            if block.size:
                yield block
            if block.size < n:
                return
            start += n

    def _generator(self):
        # a fresh generator per call keeps generation pure; for PCG64,
        # successive draws of n1 and n2 uniforms equal one draw of n1 + n2
        return np.random.default_rng(self.params["seed"]) if self.kind == "random-uniform" else None

    def _terms(self, start, n, rng):
        """Terms start .. start + n - 1 (fewer past the end of an explicit
        schedule); a random schedule draws them from *rng*, which must have
        produced exactly the first *start* terms."""
        p = self.params
        if vals := self.period:
            vals = np.asarray(vals)
            return vals[np.arange(start, start + n) % vals.size]
        if self.kind == "harmonic-to-2":
            idx = np.arange(start, start + n, dtype=float)
            return 2.0 - 1.0 / (idx + 1.0 + p["offset"])
        if self.kind == "geometric-to-2":
            idx = np.arange(start, start + n, dtype=float)
            return 2.0 - p["gap"] * p["ratio"] ** idx
        if self.kind == "explicit":
            return np.asarray(p["values"][start:start + n], dtype=float)
        if self.kind == "random-uniform":
            return rng.uniform(p["lo"], p["hi"], n)
        raise AssertionError(self.kind)

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        return {"kind": self.kind, **self.params}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ValueError("a schedule must be a JSON object")
        data = dict(data)
        kind = data.pop("kind", None)
        if kind not in KINDS:
            raise ValueError(f"unknown schedule kind {kind!r}")
        try:  # each kind is built by the constructor of the same name
            return getattr(cls, kind.replace("-", "_"))(**data)
        except TypeError as exc:
            raise ValueError(f"bad parameters for schedule kind {kind!r}: {exc}") from exc


def _sign(alpha, mu):
    """The sign of alpha mu - 2, in exact arithmetic on the two floats."""
    (a, b), (c, d) = alpha.as_integer_ratio(), mu.as_integer_ratio()
    return (a * c > 2 * b * d) - (a * c < 2 * b * d)


def _threshold(mu):
    """The least float alpha with alpha mu > 2 in exact arithmetic, or inf:
    the coefficients outside the class at *mu* are those at or above it."""
    top = math.nextafter(2.0 / mu, 0.0)  # below 2 / mu, which rounds to nearest
    while top < math.inf and _sign(top, mu) <= 0:
        top = math.nextafter(top, math.inf)
    return top


def _inside(values, mu):
    """Whether some alpha of *values* (none above 2 / mu) has 0 < alpha mu < 2."""
    return any(alpha > 0 and _sign(alpha, mu) for alpha in values)


def _theorem(schedule, mu):
    """(verdict, first_violation) at *mu* itself, by the theorem for the
    schedule's kind (see classify)."""
    p, kind, top = schedule.params, schedule.kind, _threshold(mu)
    if kind in ("harmonic-to-2", "geometric-to-2"):
        # The terms rise toward 2 and never pass it. For mu <= 1 (top > 2),
        # s_n (2 - s_n) tends to 2 mu (2 - 2 mu) > 0 below 1; at 1 it is
        # (2 - 1/m) / m (harmonic), or at most 2 gap ratio^n (geometric).
        harmonic = kind == "harmonic-to-2"
        if top > 2.0:
            return ("converges" if mu == 1.0 and not harmonic else "diverges"), None
        # For mu > 1, alpha_n >= top once 1 / (n + 1 + offset), or gap ratio^n,
        # is at most 2 - top; the float terms, which never decrease, are
        # bisected for the first, so that their rounding is taken into account.
        term = lambda n: schedule._terms(n, 1, None)[0]
        return "outside-class", bisect.bisect_left(range(2 ** 62), top, key=term)  # term(2^62) is 2
    if kind == "random-uniform":  # i.i.d. terms: the index of a violation is random
        if p["hi"] >= top:
            return "outside-class", None
        # terms of positive mean are added without end, almost surely
        positive = p["lo"] < p["hi"] or _inside([p["lo"]], mu)
        return ("diverges-almost-surely" if positive else "converges"), None
    values = schedule.period or p["values"]  # an explicit one's terms
    over = np.flatnonzero(np.asarray(values) >= top)
    if over.size:
        return "outside-class", int(over[0])
    return ("finite" if kind == "explicit" else
            "diverges" if _inside(values, mu) else "converges"), None


def classify(schedule, mu, horizon=10_000):
    """(verdict, first_violation) of the class for s_n = alpha_n * mu, where
    s_n is the exact product of mu and the float coefficient, at a cost that
    does not grow with *horizon*. *mu* is a computed nu^2, off by a few ulp,
    so the class is also decided at mu (1 -+ MU_ULPS eps): where a verdict
    there differs, the verdict is "ambiguous", unless the first violation
    on either side lies at or past *horizon*, which a run of *horizon* steps
    never reaches. *horizon* must be an integer of at least 1."""
    mu = as_real(mu, "mu")
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be finite and positive, got {mu!r}")
    if as_count(horizon, "horizon") < 1:
        raise ValueError("horizon must be at least 1")
    if schedule.length == 0:
        raise ValueError("an empty explicit schedule has no terms to diagnose")
    verdict, first_violation = _theorem(schedule, mu)
    spread = MU_ULPS * sys.float_info.epsilon
    for widened in (mu * (1 - spread), min(mu * (1 + spread), sys.float_info.max)):
        other, index = _theorem(schedule, widened)
        known = [i for i in (index, first_violation) if i is not None]
        if other != verdict and min(known, default=0) < horizon:
            return "ambiguous", first_violation
    return verdict, first_violation


@dataclass(frozen=True)
class ScheduleDiagnostics:
    """classify's verdict on s_n = alpha_n * scaled_by, and its first terms."""

    scaled_by: float
    verdict: str
    first_violation: int | None  # the first n with s_n > 2, if one is known
    partial_sum: float  # of s_n (2 - s_n) over the horizon
    in_box: bool
    box_eps: float  # largest eps with s_n in [eps, 2 - eps] for all n (0 if none)
    violations: int  # number of terms with s_n > 2 in the horizon


def box_margin(s):
    """The largest eps with every term of the array *s* in [eps, 2 - eps],
    0 if there is none or *s* is empty."""
    return float(max(0.0, min(np.min(s), 2.0 - np.max(s)))) if s.size else 0.0


def diagnose(schedule, mu, horizon=10_000):
    """classify's verdict, with the first *horizon* terms (all of an
    explicit schedule's, if it has fewer) as q copies of a cycle and its
    first r terms: a periodic schedule's one period (Schedule.period), in
    O(P) memory at any horizon, or any other kind's terms (q = 1, r = 0)."""
    verdict, first_violation = classify(schedule, mu, horizon)
    mu, top, horizon = float(mu), _threshold(float(mu)), int(horizon)
    n = min(horizon, schedule.length or horizon)
    cycle = np.asarray(schedule.period[:n]) if schedule.period else schedule.alphas(n)
    q, r = divmod(n, cycle.size)
    s = cycle * mu
    terms, over = s * (2.0 - s), cycle >= top
    box_eps = box_margin(s)
    return ScheduleDiagnostics(
        scaled_by=mu, verdict=verdict, first_violation=first_violation,
        partial_sum=q * float(np.sum(terms)) + float(np.sum(terms[:r])),
        in_box=box_eps > 0.0, box_eps=box_eps,
        violations=q * int(np.count_nonzero(over)) + int(np.count_nonzero(over[:r])))


def filter_pair(schedule, lam, n):
    """(F_n(lam), 1 - F_n(lam)) for the filter polynomial
    F_n(lam) = prod_{j<n} (1 - alpha_j * lam), the factor by which n steps
    multiply the error component of eigenvalue lam (1 at n = 0), in
    O(len lam) memory; a scalar *lam* gives floats, an array of them fresh
    arrays of its shape, and lam is only read. 1 - F_n is the share of the
    minimum-norm solution that n steps from zero reach; it keeps its
    relative accuracy where F_n rounds to 1, and F_n its own where
    1 - alpha lam rounds, whatever n is.

    The coefficients are taken in runs of equal consecutive terms
    (Schedule.runs), and each run costs a fixed number of passes over lam,
    whatever its length: the whole product costs O(len lam) per run, and a
    constant schedule O(len lam) in all (see _filter_runs)."""
    f, g = _filter_runs(schedule.runs(n), np.asarray(lam, dtype=float))
    return (float(f), float(g)) if f.ndim == 0 else (f, g)


def _filter_runs(runs, lam, keep_f=True):
    """(F_n(lam), 1 - F_n(lam)) over the (alpha, m) *runs*, as two fresh
    arrays of lam's shape, worked on in place; lam is only read. With
    *keep_f* false, for a caller that reads only 1 - F, F is left as it was
    before the last run.

    With h = alpha lam, each run sets F_m - 1 (and F_m where F is kept) in
    one of three forms, and one update follows: 1 - F -= F (F_m - 1), then
    F *= F_m.
    - A single step: F_1 = 1 - h, so that a schedule with no two equal
      consecutive terms gives the step-by-step product bit for bit.
    - A run of m > 1 steps, from L = m log1p(max(-h, h - 2)), m times the
      logarithm of |1 - h| from an argument exact near h = 0 and h = 2.
      F_m - 1 is expm1(L) where F_m > 0, so 1 - F keeps its relative
      accuracy where F_m rounds to 1; elsewhere 1 - F_m does not cancel.
      F_m is exp(L) where h < 1/2, where 1 - h rounds and its m-th power
      would compound that rounding m times; where h >= 1/2, 1 - h is exact
      (Sterbenz) and F_m is pow's, which keeps its relative accuracy near
      h = 1 and its sign where h > 1.
    - The last run of a *keep_f* false call with every h < 1: F_m - 1 is
      expm1(L) everywhere, with no pow. pow's F_m is 0 or below only where
      h >= 1 or where it underflows, and there expm1(L) rounds to -1 as
      well, so the results are the same."""
    f, g = np.ones(lam.shape), np.zeros(lam.shape)
    a, b = np.empty(lam.shape), np.empty(lam.shape)  # h, then F_m; F_m - 1
    mask, small = np.empty(lam.shape, dtype=bool), np.empty(lam.shape, dtype=bool)
    last = len(runs) - 1
    for j, (alpha, m) in enumerate(runs):
        keep = keep_f or j < last
        np.multiply(lam, alpha, out=a)
        if m == 1:
            np.negative(a, out=b)
            if keep:
                np.subtract(1.0, a, out=a)
        else:
            np.minimum(a, np.subtract(2.0, a, out=b), out=b)
            np.negative(b, out=b)  # max(-h, h - 2)
            if keep or a.max() >= 1.0:
                np.less(a, 0.5, out=small)
                np.power(np.subtract(1.0, a, out=a), m, out=a)  # F_m
                np.logical_or(np.greater(a, 0.0, out=mask), small, out=mask)
                np.log1p(b, out=b, where=mask)
                np.multiply(b, m, out=b, where=mask)  # L
                if keep:
                    np.exp(b, out=a, where=small)
                np.expm1(b, out=b, where=mask)
                np.subtract(a, 1.0, out=b, where=np.logical_not(mask, out=mask))
            else:
                np.expm1(np.multiply(np.log1p(b, out=b), m, out=b), out=b)
        g -= np.multiply(f, b, out=b)
        if keep:
            f *= a
    return f, g

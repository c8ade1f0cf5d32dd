"""Relaxation schedules and their diagnostics.

A schedule is an immutable description of a nonnegative coefficient sequence.
The convergence condition of interest is that the scaled sequence s_n = alpha_n * mu
stays in [0, 2] and the series sum s_n (2 - s_n) diverges. Divergence of a
series is not decidable from finitely many terms, so the diagnostic verdict is
an explicit numerical heuristic with an "indeterminate" outcome, never a proof.
"""

import math
from dataclasses import dataclass, field

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

# diagnose calls a series diverging when its last quarter still contributes
# at least this share of the partial sum.
GROWTH_FRACTION = 0.01


def _coefficients(values, name):
    """*values* as floats, each a finite and nonnegative number (a string or
    a boolean, NaN and the infinities, which a JSON scenario can carry, are
    rejected); *name* is the parameter that holds them."""
    vals = [as_real(v, name) for v in values]
    if not all(math.isfinite(v) and v >= 0 for v in vals):
        raise ValueError("coefficients must be finite and nonnegative")
    return vals


@dataclass(frozen=True)
class Schedule:
    """Immutable description of a relaxation sequence; generation is pure
    given (kind, params, index)."""

    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def constant(cls, value):
        return cls("constant", {"value": _coefficients([value], "value")[0]})

    @classmethod
    def cyclic(cls, values):
        vals = _coefficients(values, "values")
        if not vals:
            raise ValueError("cyclic schedule needs a nonempty list of values")
        return cls("cyclic", {"values": vals})

    @classmethod
    def harmonic_to_2(cls, offset=0):
        """alpha_n = 2 - 1/(n + 1 + offset): approaches 2 slowly enough that
        the divergent-series condition still holds."""
        return cls("harmonic-to-2", {"offset": as_count(offset, "offset")})

    @classmethod
    def geometric_to_2(cls, gap=1.0, ratio=0.5):
        """alpha_n = 2 - gap * ratio^n: approaches 2 so fast that the
        divergent-series condition fails."""
        gap, ratio = as_real(gap, "gap"), as_real(ratio, "ratio")
        if not (0 < gap <= 2):
            raise ValueError("gap must be in (0, 2]")
        if not (0 < ratio < 1):
            raise ValueError("ratio must be in (0, 1)")
        return cls("geometric-to-2", {"gap": gap, "ratio": ratio})

    @classmethod
    def explicit(cls, values):
        return cls("explicit", {"values": _coefficients(values, "values")})

    @classmethod
    def random_uniform(cls, lo, hi, seed):
        (lo,), (hi,) = _coefficients([lo], "lo"), _coefficients([hi], "hi")
        if hi < lo:
            raise ValueError("need 0 <= lo <= hi")
        if seed is None:
            raise ValueError("random schedules require a seed for reproducibility")
        return cls("random-uniform", {"lo": lo, "hi": hi, "seed": as_count(seed, "seed")})

    # -- generation --------------------------------------------------------

    @property
    def length(self):
        """Number of terms: finite only for an explicit schedule, else None."""
        return len(self.params["values"]) if self.kind == "explicit" else None

    def alphas(self, n):
        """First *n* coefficients as an array (prefix-stable for every kind)."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if self.length is not None and n > self.length:
            raise ValueError(f"explicit schedule has only {self.length} terms, {n} requested")
        return self._terms(0, n, self._generator())

    def runs(self, n):
        """(alpha, m) for each run of m equal consecutive terms among the
        first *n* coefficients, the split of alphas(n), with its errors. A
        constant schedule gives its one run without drawing its terms, in
        O(1) memory whatever *n* is."""
        if self.kind == "constant" and n > 0:
            return [(self.params["value"], n)]
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
        if self.kind == "constant":
            return np.full(n, p["value"])
        if self.kind == "cyclic":
            vals = np.asarray(p["values"])
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


@dataclass(frozen=True)
class ScheduleDiagnostics:
    """Numerical diagnostics of the scaled sequence s_n = alpha_n * scaled_by."""

    scaled_by: float
    partial_sums: np.ndarray  # cumulative sums of s_n * (2 - s_n)
    in_box: bool
    box_eps: float  # largest eps with s_n in [eps, 2 - eps] for all n (0 if none)
    violations: int  # number of terms with s_n outside [0, 2]
    verdict: str  # diverges-numerically | converges-numerically | indeterminate

    def __post_init__(self):
        ps = np.asarray(self.partial_sums, dtype=float)
        ps.setflags(write=False)
        object.__setattr__(self, "partial_sums", ps)


def diagnose(schedule, mu, horizon=10_000, growth_threshold=50.0):
    """Heuristic membership verdict for the divergent-series condition on the
    scaled sequence alpha_n * mu over a finite horizon.

    "diverges-numerically": partial sums exceed *growth_threshold* and the last
    quarter still contributes at least GROWTH_FRACTION of the total.
    "converges-numerically": the tail contribution is numerically negligible.
    Anything else is "indeterminate". Terms outside [0, 2] are counted as
    violations of the admissible class (the verdict then only describes the
    series itself).
    """
    if not (math.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be finite and positive, got {mu!r}")
    if not math.isfinite(growth_threshold):
        raise ValueError(f"growth_threshold must be finite, got {growth_threshold!r}")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if schedule.length == 0:
        raise ValueError("an empty explicit schedule has no terms to diagnose")
    if schedule.length is not None:  # an explicit schedule is diagnosed over its own terms
        horizon = min(horizon, schedule.length)
    s = schedule.alphas(horizon) * mu
    violations = int(np.count_nonzero((s < 0) | (s > 2)))
    terms = s * (2.0 - s)
    cum = np.cumsum(terms)
    total = float(cum[-1])
    tail = total - float(cum[(3 * horizon) // 4 - 1]) if horizon >= 4 else total

    box_eps = float(max(0.0, min(np.min(s), 2.0 - np.max(s))))
    in_box = box_eps > 0.0

    if violations > 0:
        verdict = "indeterminate"
    elif total >= growth_threshold and tail >= GROWTH_FRACTION * max(total, 1e-300):
        verdict = "diverges-numerically"
    elif abs(tail) <= 1e-9:
        verdict = "converges-numerically"
    else:
        verdict = "indeterminate"

    return ScheduleDiagnostics(
        scaled_by=float(mu),
        partial_sums=cum,
        in_box=in_box,
        box_eps=box_eps,
        violations=violations,
        verdict=verdict,
    )


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

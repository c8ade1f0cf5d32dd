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

from .validation import as_count

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


def _coefficients(values):
    """*values* as floats, each finite and nonnegative (NaN and infinities,
    which a JSON scenario can carry, are rejected)."""
    vals = [float(v) for v in values]
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
        return cls("constant", {"value": _coefficients([value])[0]})

    @classmethod
    def cyclic(cls, values):
        vals = _coefficients(values)
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
        if not (0 < gap <= 2):
            raise ValueError("gap must be in (0, 2]")
        if not (0 < ratio < 1):
            raise ValueError("ratio must be in (0, 1)")
        return cls("geometric-to-2", {"gap": float(gap), "ratio": float(ratio)})

    @classmethod
    def explicit(cls, values):
        return cls("explicit", {"values": _coefficients(values)})

    @classmethod
    def random_uniform(cls, lo, hi, seed):
        lo, hi = _coefficients([lo, hi])
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
    multiply the error component of eigenvalue lam (1 at n = 0). Both come
    from one running product over the n steps, in O(len lam) memory; a
    scalar *lam* gives floats, an array of them arrays of its shape.
    1 - F_n, the share of the minimum-norm solution that n steps from zero
    reach, is summed as sum_j alpha_j lam F_j(lam), so it keeps its relative
    accuracy where F_n rounds to 1."""
    lam = np.asarray(lam, dtype=float)
    # one scratch array: alpha_j lam is formed twice rather than kept
    f, g, buf = np.ones_like(lam), np.zeros_like(lam), np.empty_like(lam)
    for alpha in schedule.alphas(n).tolist():
        np.multiply(lam, alpha, out=buf)
        g += np.multiply(buf, f, out=buf)  # alpha_j lam F_j, what step j moves to 1 - F
        f *= np.subtract(1.0, np.multiply(lam, alpha, out=buf), out=buf)
    return (float(f), float(g)) if f.ndim == 0 else (f, g)

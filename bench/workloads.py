"""Benchmark workloads: inputs generated from a seed, and independent oracles.

Each workload writes the inputs a CLI user would give (a scenario file, or
the arguments of a verb), names the argv of ``altproj.cli.main`` and the
output files that call writes, and checks those files against values the
benchmark computes itself with plain numpy. Nothing here imports altproj, so
a defect in the package cannot hide in its own oracle.

``tiny=True`` shrinks every workload to a size that runs in well under a
second; the self-check uses it.
"""

import csv
import json
import math

import numpy as np

# The package's intersection threshold on principal cosines (documented in
# altproj.validation); a sine below this cutoff is an intersection direction.
INTERSECTION_TOL = 1e-8
SINE_CUTOFF = math.sqrt(INTERSECTION_TOL * (2.0 - INTERSECTION_TOL))


def derive_seeds(seed, n):
    """*n* independent 32-bit seeds derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


def rate_bound(nu, gamma, alpha):
    """Linear-rate bound 1 - eps * gamma^2 / nu^2 for a constant alpha,
    with eps the margin of s = alpha * nu^2 inside [0, 2]."""
    s = alpha * nu * nu
    eps = max(0.0, min(s, 2.0 - s))
    return 1.0 - eps * gamma * gamma / (nu * nu)


def _orth(span):
    q, _ = np.linalg.qr(span)
    return q


def _sines(u_basis, w_basis):
    """Sines of the principal angles between two direction spaces, from the
    component of U orthogonal to W (accurate for small angles)."""
    r = u_basis - w_basis @ (w_basis.T @ u_basis)
    return np.linalg.svd(r, compute_uv=False)


class Mismatches:
    """Collects one line per oracle comparison that fails."""

    def __init__(self):
        self.lines = []

    def close(self, name, got, want, rtol=0.0, atol=0.0):
        if got is None or not math.isfinite(got) or abs(got - want) > atol + rtol * abs(want):
            self.lines.append(f"{name}: got {got!r}, oracle {want!r} "
                              f"(rtol {rtol:g}, atol {atol:g})")

    def require(self, name, ok, detail):
        if not ok:
            self.lines.append(f"{name}: {detail}")


def _read_summary(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _check_run_summary(out, s, expected):
    out.close("nu", s.get("nu"), expected["nu"], **expected["tol"]["nu"])
    out.close("gamma", s.get("gamma"), expected["gamma"], **expected["tol"]["gamma"])
    out.close("residual_at_limit", s.get("residual_at_limit"), expected["residual_at_limit"],
              **expected["tol"]["residual_at_limit"])
    out.close("theoretical_bound", s.get("theoretical_bound"), expected["theoretical_bound"],
              atol=1e-12)
    out.require("stop_reason", s.get("stop_reason") == "converged",
                f"got {s.get('stop_reason')!r}, expected 'converged'")
    rate, bound = s.get("empirical_rate"), s.get("theoretical_bound")
    out.require("empirical_rate", rate is not None and bound is not None and rate <= bound,
                f"empirical rate {rate!r} above the bound {bound!r}")


class HighDimAnalysis:
    """`run` on a random geometry in high ambient dimension; the factorization
    layers dominate and the iteration converges in a handful of steps."""

    name = "highd_analysis"
    outputs = ("summary.json",)

    def __init__(self, tiny=False):
        self.dim = 60 if tiny else 1500
        self.dim_u = self.dim_w = 3 if tiny else 10
        self.alpha = 1.0

    def write_inputs(self, seed, work):
        geometry_seed, u0_seed = derive_seeds(seed, 2)
        scenario = {
            "version": 1,
            "comment": "benchmark workload highd_analysis",
            "geometry": {"type": "random", "dim": self.dim, "dim_u": self.dim_u,
                         "dim_w": self.dim_w, "seed": geometry_seed},
            "schedule": {"kind": "constant", "value": self.alpha},
            "u0": {"type": "random", "seed": u0_seed},
            "outputs": {"summary_json": "summary.json"},
        }
        path = work / "scenario.json"
        path.write_text(json.dumps(scenario, indent=1), encoding="utf-8")
        return ["run", str(path), "--out-dir", str(work)]

    def oracle(self, seed):
        geometry_seed, _ = derive_seeds(seed, 2)
        # The documented draw order of a "random" geometry: U span, W span,
        # a point of U, a point of W (offset_scale 1, no shared directions).
        rng = np.random.default_rng(geometry_seed)
        a = rng.standard_normal((self.dim, self.dim_u))
        b = rng.standard_normal((self.dim, self.dim_w))
        pu = rng.standard_normal(self.dim)
        pw = rng.standard_normal(self.dim)
        # nu: the largest cosine between U and V-perp, i.e. the largest sine
        # between U and V; gamma: the smallest sine above the intersection cutoff.
        sines = _sines(_orth(a), _orth(b))
        nu = float(sines.max())
        gamma = float(sines[sines > SINE_CUTOFF].min())
        # Distance between the two affine sets: min ||(pu + A x) - (pw + B y)||.
        m = np.hstack([a, -b])
        coef, *_ = np.linalg.lstsq(m, pw - pu, rcond=None)
        residual = float(np.linalg.norm(m @ coef - (pw - pu)))
        return {
            "nu": nu, "gamma": gamma, "residual_at_limit": residual,
            "theoretical_bound": rate_bound(nu, gamma, self.alpha),
            "tol": {"nu": {"rtol": 1e-10}, "gamma": {"rtol": 1e-10},
                    "residual_at_limit": {"rtol": 1e-9}},
        }

    def check(self, work, expected):
        out = Mismatches()
        _check_run_summary(out, _read_summary(work / "summary.json"), expected)
        return out.lines


class LongHorizon:
    """`run` on a controlled-angle geometry with a small Friedrichs angle and
    over-relaxation above 2: tens of thousands of cheap steps plus the trace."""

    name = "long_horizon"
    outputs = ("summary.json", "trace.csv")

    def __init__(self, tiny=False):
        self.angles_deg = [20.0, 30.0] if tiny else [0.35, 30.0]
        self.extra_dims = 2 if tiny else 20
        self.offset_norm = 0.7
        self.alpha = 7.0

    @property
    def dim(self):
        return 2 * len(self.angles_deg) + 1 + self.extra_dims

    def write_inputs(self, seed, work):
        (rotation_seed,) = derive_seeds(seed, 1)
        # u0 has fixed components along the principal directions of U, so the
        # step count does not depend on the seed: 5e-10 along the slow one
        # (the first angle), 1 along the other, which takes ~6k steps. That
        # keeps a sample near a quarter of a second, so a run holds enough
        # samples for its fastest one to fall in a quiet spell of the host.
        # The rotation is rebuilt from its documented recipe; were that
        # recipe to change, u0 would be projected onto U and only the step
        # count would move.
        rng = np.random.default_rng(rotation_seed)
        q, r = np.linalg.qr(rng.standard_normal((self.dim, self.dim)))
        rot = q * np.sign(np.diag(r))
        u0 = rot[:, :len(self.angles_deg)] @ np.array([5e-10, 1.0])
        scenario = {
            "version": 1,
            "comment": "benchmark workload long_horizon",
            "geometry": {"type": "controlled_angle", "angles_deg": self.angles_deg,
                         "extra_dims": self.extra_dims, "offset_norm": self.offset_norm,
                         "rotation_seed": rotation_seed},
            "schedule": {"kind": "constant", "value": self.alpha},
            "u0": {"type": "explicit", "value": [float(x) for x in u0]},
            "max_iters": 200_000,
            "conv_tol": 1e-10,
            "outputs": {"trace_csv": "trace.csv", "summary_json": "summary.json"},
        }
        path = work / "scenario.json"
        path.write_text(json.dumps(scenario, indent=1), encoding="utf-8")
        return ["run", str(path), "--out-dir", str(work)]

    def oracle(self, seed):
        sines = np.sin(np.deg2rad(self.angles_deg))
        nu, gamma = float(sines.max()), float(sines.min())
        return {
            "nu": nu, "gamma": gamma, "residual_at_limit": self.offset_norm,
            "theoretical_bound": rate_bound(nu, gamma, self.alpha),
            "rho": max(1.0 - self.alpha * gamma * gamma, self.alpha * nu * nu - 1.0),
            "tol": {"nu": {"atol": 1e-12}, "gamma": {"atol": 1e-12},
                    "residual_at_limit": {"atol": 1e-12}},
        }

    def check(self, work, expected):
        out = Mismatches()
        s = _read_summary(work / "summary.json")
        _check_run_summary(out, s, expected)
        with open(work / "trace.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        iters = s.get("iters")
        out.require("trace_csv rows", len(rows) == (iters or 0) + 1,
                    f"{len(rows)} lines for {iters!r} steps, expected steps + 1 (header)")
        out.require("trace_csv header", rows[0] == ["n", "alpha_n", "error_norm",
                                                    "residual_dW", "rho_alpha_n"],
                    f"got {rows[0]!r}")
        if len(rows) > 1:
            first, last = rows[1], rows[-1]
            out.close("alpha_n", float(last[1]), self.alpha)
            out.close("rho_alpha_n", float(first[4]), expected["rho"], atol=1e-12)
            # The iterate approaches a least-squares point, whose distance to
            # W is the optimal residual.
            out.close("residual_dW at the last step", float(last[3]),
                      expected["residual_at_limit"], atol=1e-6)
        return out.lines


class TruncateSweep:
    """`truncate`: the diagonal Landweber family vectorized over d; bound by
    memory traffic, touching neither the projector nor the engine."""

    name = "truncate_sweep"
    outputs = ("truncate.csv",)

    def __init__(self, tiny=False):
        self.p, self.r, self.alpha = 1.0, 0.6, 1.0
        self.dims = [10, 100] if tiny else [1000, 10_000, 100_000]
        self.steps = 50 if tiny else 200

    def write_inputs(self, seed, work):
        # The sweep is fully determined by (p, r, dims, alpha, steps); the
        # seed has nothing to vary here.
        return ["truncate", "--p", repr(self.p), "--r", repr(self.r),
                "--dims", ",".join(str(d) for d in self.dims),
                "--alpha", repr(self.alpha), "--max-iters", str(self.steps),
                "--out", str(work / "truncate.csv")]

    def oracle(self, seed):
        rows = []
        for d in self.dims:
            i = np.arange(1, d + 1, dtype=float)
            limit = math.sqrt(math.fsum(i ** (2.0 * (self.p - self.r))))
            sigma, w = i ** -self.p, i ** -self.r
            # Closed-form filter: u_i = (1 - (1 - alpha sigma_i^2)^n) w_i / sigma_i.
            # log1p(-1) = -inf where alpha sigma^2 = 1, which gives filt = 1.
            with np.errstate(divide="ignore"):
                filt = -np.expm1(self.steps * np.log1p(-self.alpha * sigma * sigma))
            iterate = float(np.linalg.norm(filt * w / sigma))
            rows.append({"d": d, "limit_norm": limit, "iterate_norm": iterate})
        return {"rows": rows}

    def check(self, work, expected):
        out = Mismatches()
        with open(work / "truncate.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        out.require("rows", len(rows) == len(expected["rows"]),
                    f"{len(rows)} rows, expected {len(expected['rows'])}")
        for got, want in zip(rows, expected["rows"]):
            d = want["d"]
            out.require(f"d={d} d", int(got["d"]) == d, f"got {got['d']!r}")
            out.require(f"d={d} iters", int(got["iters"]) == self.steps, f"got {got['iters']!r}")
            out.close(f"d={d} limit_norm", float(got["limit_norm"]), want["limit_norm"],
                      rtol=1e-12)
            out.close(f"d={d} iterate_norm", float(got["iterate_norm"]), want["iterate_norm"],
                      rtol=1e-10)
        return out.lines


WORKLOADS = {w.name: w for w in (HighDimAnalysis, LongHorizon, TruncateSweep)}

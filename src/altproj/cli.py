"""Experiment runner.

Verbs:
  altproj run <scenario.json> [--out-dir DIR]
  altproj overrelax --nu2 V --alphas A1,A2,... --seed S [--max-iters N] [--out CSV]
  altproj truncate --p P --r R --dims D1,D2,... [--alpha A] [--max-iters N] [--out CSV]
  altproj check-schedule <schedule.json> --mu V [--horizon N] [--growth-threshold X]

Scenario files are JSON with a top-level "version" field; all randomness must
be seeded so a scenario fully determines its outputs. Trace CSVs have the
fixed columns n, alpha_n, error_norm, residual_dW, rho_alpha_n.

Exit codes: 0 success, 2 config error, 3 numerical failure (an iteration
that stops as "nonfinite", an SVD that fails to converge, or a violated
normal equation). A run that stops for any other reason, including an
explicit schedule that runs out of terms ("schedule_exhausted"), exits 0.
The ALTPROJ_TOL environment variable overrides the global rank tolerance.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from .validation import INTERSECTION_TOL, as_count, check_keys, global_tol
from .subspace import canonicalize
from .angles import compute_report
from .projector import build, least_squares_set
from .schedule import Schedule, diagnose
from .engine import contraction_factor, rate_bound, run_alternating
from . import problems

SCENARIO_VERSION = 1
SCENARIO_KEYS = frozenset({"version", "comment", "geometry", "schedule", "u0", "max_iters",
                           "conv_tol", "intersection_tol", "outputs"})
# The keys each u0 type reads, besides "type".
U0_KEYS = {"zero": (), "explicit": ("value",), "random": ("seed", "scale")}
OUTPUT_KEYS = ("trace_csv", "summary_json")


class ConfigError(ValueError):
    pass


class NumericalFailure(RuntimeError):
    pass


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _build_u0(cfg, u_space):
    kind = cfg.get("type", "zero")
    if kind not in U0_KEYS:
        raise ConfigError(f"unknown u0 type {kind!r}")
    check_keys(cfg, ("type", *U0_KEYS[kind]), "u0")
    if kind == "zero":
        return np.zeros(u_space.dim_ambient)
    if kind == "explicit":
        return np.asarray(cfg["value"], dtype=float)
    if "seed" not in cfg:
        raise ConfigError("random u0 requires a seed")
    return problems.random_point_in(u_space, as_count(cfg["seed"], "seed"),
                                    scale=float(cfg.get("scale", 1.0)))


def _fmt(x):
    return "" if x is None else f"{x:.17g}"


# One trace row as csv.writer writes it (numbers need no quoting, rows end in
# CRLF), formatted in one operation: half the time of csv.writer over
# per-field strings.
_TRACE_ROW = "%d,%.17g,%.17g,%.17g,%.17g\r\n"


def _write_trace_csv(path, trace, q):
    alphas = trace.alphas_used
    n = alphas.size
    rho = contraction_factor(q, alphas)
    rows = zip(range(n), alphas.tolist(), trace.error_norms[:n].tolist(),
               trace.residuals[:n].tolist(), rho.tolist())
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("n,alpha_n,error_norm,residual_dW,rho_alpha_n\r\n")
        fh.writelines(_TRACE_ROW % row for row in rows)


def run_scenario(path, out_dir=None):
    """Execute a scenario file end to end; returns the summary record dict and
    writes the configured output files."""
    cfg = _load_json(path) if not isinstance(path, dict) else path
    if not isinstance(cfg, dict):
        raise ConfigError("a scenario must be a JSON object")
    if cfg.get("version") != SCENARIO_VERSION:
        raise ConfigError(f"scenario version must be {SCENARIO_VERSION}")
    out_dir = Path(out_dir) if out_dir is not None else Path.cwd()

    try:
        check_keys(cfg, SCENARIO_KEYS, "scenario")
        for section in ("geometry", "schedule", "u0", "outputs"):
            if not isinstance(cfg.get(section, {}), dict):
                raise ValueError(f"{section} must be a JSON object")
        outputs = cfg.get("outputs", {})
        check_keys(outputs, OUTPUT_KEYS, "outputs")
        if not all(isinstance(name, str) for name in outputs.values()):
            raise ValueError("outputs must be file names")
        g = canonicalize(problems.geometry_from_config(cfg["geometry"]))
        sched = Schedule.from_dict(cfg["schedule"])
        u0 = _build_u0(cfg.get("u0", {"type": "zero"}), g.u_space)
        max_iters = as_count(cfg.get("max_iters", 10_000), "max_iters")
        conv_tol = float(cfg.get("conv_tol", 1e-10))
        if not (math.isfinite(conv_tol) and conv_tol >= 0.0):  # also rejects NaN
            raise ValueError(f"conv_tol must be finite and nonnegative, got {conv_tol!r}")
        itol = float(cfg.get("intersection_tol", INTERSECTION_TOL))
    except np.linalg.LinAlgError:
        raise  # a numerical failure, although LinAlgError is a ValueError
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    q = build(g, tol=itol)
    report = compute_report(q)
    trace = run_alternating(q, g.w_offset, sched, u0, max_iters=max_iters, conv_tol=conv_tol)
    lss = least_squares_set(q, g.w_offset)

    if trace.stop_reason == "nonfinite":
        raise NumericalFailure(f"non-finite error norm or residual at step {trace.n_steps}")

    # with no sine above the null-space cutoff, nu is rounding noise of a
    # zero operator (U's directions lie in V), for which neither applies
    operator_nonzero = q.kept.any()
    alphas = trace.alphas_used if trace.n_steps else next(sched.stream([1]), [])
    bound = rate_bound(report.nu, report.gamma, alphas).bound if operator_nonzero else None
    horizon = min(max_iters, 10_000)
    if sched.length is not None:
        horizon = min(horizon, sched.length)
    verdict = diagnose(sched, report.nu ** 2, horizon=horizon).verdict \
        if operator_nonzero and horizon >= 1 else "indeterminate"

    summary = {
        "nu": report.nu,
        "gamma": report.gamma,
        "norm_Q": q.norm,
        "gamma_Q": q.reduced_min_modulus,
        "residual_at_limit": lss.residual_norm,
        "stop_reason": trace.stop_reason,
        "iters": trace.n_steps,
        "final_error": trace.final_error,
        "empirical_rate": trace.estimated_rate,
        "theoretical_bound": bound,
        "schedule_verdict": verdict,
    }

    if "trace_csv" in outputs:
        _write_trace_csv(out_dir / outputs["trace_csv"], trace, q)
    if "summary_json" in outputs:
        with open(out_dir / outputs["summary_json"], "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary


def overrelaxation_study(nu2, alphas, seed, max_iters=10_000):
    """Constant-relaxation sweep on a geometry with operator norm sqrt(nu2).

    Demonstrates convergence for every alpha with alpha*nu2 in (0, 2), even
    beyond the classical limit of 2, and growth above the boundary. Returns a
    list of row dicts (alpha, alpha_nu2, verdict, empirical_rate, rho_alpha).
    """
    if not (0 < nu2 <= 1):
        raise ConfigError("nu2 must be in (0, 1]")
    phi = math.asin(math.sqrt(nu2))
    g = canonicalize(problems.controlled_angle_geometry([phi], offset_norm=0.5,
                                                        rotation_seed=seed))
    q = build(g)
    u0 = problems.random_point_in(g.u_space, seed + 1)
    rows = []
    for alpha in alphas:
        if alpha < 0:
            raise ConfigError("alpha grid values must be nonnegative")
        trace = run_alternating(q, g.w_offset, Schedule.constant(alpha), u0,
                                max_iters=max_iters, conv_tol=1e-9, divergence_cap=1e6)
        e = trace.error_norms
        if trace.stop_reason == "converged":
            verdict = "converged"
        elif trace.stop_reason == "diverged" or (e[-1] > e[0] and e[-1] >= e[max(0, len(e) - 101)]):
            verdict = "diverged"
        else:
            verdict = "not-converged"
        rows.append({
            "alpha": float(alpha),
            "alpha_nu2": float(alpha) * nu2,
            "verdict": verdict,
            "empirical_rate": trace.estimated_rate,
            "rho_alpha": contraction_factor(q, float(alpha)),
            "trace": trace,
        })
    return rows


def truncation_study(p, r, dims, alpha=1.0, max_iters=2000):
    """Dimension-truncation study of the diagonal family with singular values
    i^-p and data i^-r.

    When the infinite-dimensional coefficient series diverges, the minimum-norm
    solution norm grows without bound in the truncation dimension; the study
    reports that growth next to the norm reached by the iteration. The
    iterate of dimension d is the first d components of the largest one, so
    the iteration runs once, at the largest dimension.
    """
    closed = problems.diagonal_truncation_norms(p, r, dims)
    u = problems.run_diagonal_landweber(p, r, max(dims), Schedule.constant(alpha), max_iters)
    iterate_norms = np.sqrt(np.cumsum(u * u))
    return [{
        "d": int(d),
        "limit_norm": float(limit_norm),
        "iterate_norm": float(iterate_norms[int(d) - 1]),
        "iters": int(max_iters),
    } for d, limit_norm in zip(dims, closed)]


def _write_rows_csv(path, rows, columns):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([
                row[c] if not isinstance(row[c], float) else _fmt(row[c])
                for c in columns
            ])


def _parse_float_list(text):
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc


def _cmd_run(args):
    summary = run_scenario(args.scenario, out_dir=args.out_dir)
    json.dump(summary, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _cmd_overrelax(args):
    rows = overrelaxation_study(args.nu2, _parse_float_list(args.alphas), args.seed,
                                max_iters=args.max_iters)
    cols = ["alpha", "alpha_nu2", "verdict", "empirical_rate", "rho_alpha"]
    if args.out:
        _write_rows_csv(args.out, rows, cols)
    for row in rows:
        print(f"alpha={row['alpha']:g} alpha_nu2={row['alpha_nu2']:g} "
              f"verdict={row['verdict']} rho={row['rho_alpha']:g}")
    return 0


def _cmd_truncate(args):
    rows = truncation_study(args.p, args.r, _parse_float_list(args.dims), alpha=args.alpha,
                            max_iters=args.max_iters)
    cols = ["d", "limit_norm", "iterate_norm", "iters"]
    if args.out:
        _write_rows_csv(args.out, rows, cols)
    for row in rows:
        print(f"d={row['d']} limit_norm={row['limit_norm']:.6g} "
              f"iterate_norm={row['iterate_norm']:.6g}")
    return 0


def _cmd_check_schedule(args):
    sched = Schedule.from_dict(_load_json(args.schedule))
    diag = diagnose(sched, args.mu, horizon=args.horizon,
                    growth_threshold=args.growth_threshold)
    out = {
        "verdict": diag.verdict,
        "partial_sum": float(diag.partial_sums[-1]),
        "in_box": diag.in_box,
        "box_eps": diag.box_eps,
        "violations": diag.violations,
        "scaled_by": diag.scaled_by,
    }
    json.dump(out, sys.stdout, indent=2, sort_keys=True)
    print()
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="altproj",
        description="Relaxed alternating projections between affine subspaces: "
                    "experiment runner and schedule diagnostics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out-dir", default=None)
    p_run.set_defaults(func=_cmd_run)

    p_over = sub.add_parser("overrelax", help="constant-relaxation sweep beyond 2")
    p_over.add_argument("--nu2", type=float, required=True)
    p_over.add_argument("--alphas", required=True, help="comma-separated grid")
    p_over.add_argument("--seed", type=int, required=True)
    p_over.add_argument("--max-iters", type=int, default=10_000)
    p_over.add_argument("--out", default=None)
    p_over.set_defaults(func=_cmd_overrelax)

    p_trunc = sub.add_parser("truncate", help="dimension-truncation study")
    p_trunc.add_argument("--p", type=float, required=True)
    p_trunc.add_argument("--r", type=float, required=True)
    p_trunc.add_argument("--dims", required=True, help="comma-separated dimensions")
    p_trunc.add_argument("--alpha", type=float, default=1.0)
    p_trunc.add_argument("--max-iters", type=int, default=2000)
    p_trunc.add_argument("--out", default=None)
    p_trunc.set_defaults(func=_cmd_truncate)

    p_sched = sub.add_parser("check-schedule", help="diagnose a schedule file")
    p_sched.add_argument("schedule")
    p_sched.add_argument("--mu", type=float, required=True)
    p_sched.add_argument("--horizon", type=int, default=10_000)
    p_sched.add_argument("--growth-threshold", type=float, default=50.0)
    p_sched.set_defaults(func=_cmd_check_schedule)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        global_tol()  # fail fast on a malformed ALTPROJ_TOL
        return args.func(args)
    # before ValueError: LinAlgError subclasses it
    except (NumericalFailure, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

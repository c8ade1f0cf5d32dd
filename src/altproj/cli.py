"""Experiment runner.

Verbs: run, overrelax, truncate and check-schedule. The table VERBS gives
each verb's handler, positionals and options, and ``main`` parses argv
against it in one pass: ``--opt value`` or ``--opt=value``, any unambiguous
prefix of an option, options and positionals in any order, the last of a
repeated option winning, and the token after an option taken as its value
even when it starts with "-". ``altproj -h`` lists the verbs and
``altproj VERB -h`` prints a verb's usage, both generated from VERBS. A
command line that does not fit prints "error: ..." and the usage line on
stderr, and ``main`` returns 2.

Scenario and schedule files are JSON, read as UTF-8 (RFC 8259) whatever the
locale. A scenario has a top-level "version" field; all randomness must be
seeded so a scenario fully determines its outputs. Every CSV (run's trace and
the --out of overrelax and truncate) is written as csv.writer writes it, each
float as "%.17g", TRACE_BLOCK rows at a time, never held whole; the trace has
the columns n, alpha_n, error_norm, residual_dW, rho_alpha_n. Every JSON (run's
summary file and stdout, check-schedule's stdout) is indented by two with
sorted keys. An output path that is a directory, or whose directory does not
exist, is rejected before any work. check-schedule diagnoses an explicit
schedule over at most its own terms; run reports only the verdict, with its
max_iters as the horizon.

Exit codes: 0 success, 2 config error (including a file that cannot be read or
is not UTF-8 JSON, an output file that cannot be written, and a MemoryError,
from an allocation of the size that the configuration asked for), 3 numerical
failure (an iteration that stops as "nonfinite", a truncate norm or a JSON
value that is not finite, or an SVD that fails to converge).
A run that stops for any other reason, including an explicit schedule that
runs out of terms ("schedule_exhausted"), exits 0.
The ALTPROJ_TOL environment variable overrides the global rank tolerance.
"""

import dataclasses
import json
import math
import sys
from itertools import chain
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .validation import (INTERSECTION_TOL, as_count, as_real, as_vector, check_keys,
                         global_tol)
from .subspace import canonicalize
from .projector import build, compute_report, least_squares_set
from .schedule import Schedule, classify, diagnose
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


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def _build_u0(cfg, u_space):
    kind = cfg.get("type", "zero")
    if kind not in U0_KEYS:
        raise ConfigError(f"unknown u0 type {kind!r}")
    check_keys(cfg, ("type", *U0_KEYS[kind]), "u0")
    if kind == "zero":
        return np.zeros(u_space.dim_ambient)
    if kind == "explicit":
        return as_vector(cfg["value"], dim=u_space.dim_ambient, name="u0")
    if "seed" not in cfg:
        raise ConfigError("random u0 requires a seed")
    return problems.random_point_in(u_space, cfg["seed"], scale=cfg.get("scale", 1.0))


def _fmt(x):
    """The text of a CSV cell as csv.writer writes it, but a float as "%.17g"."""
    return "" if x is None else f"{x:.17g}" if isinstance(x, float) else str(x)


def _formatted(column):
    """The "%.17g" text of each value of the float64 array *column*, in
    order, each distinct value formatted once. Values are told apart by
    their bits, so -0.0 and NaN keep their own text."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    text = np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inverse].tolist()


def _write_file(path, write, newline=None):
    """Open *path* for writing as UTF-8 text, with ``open``'s *newline*, and
    pass the file to *write*. An OSError, in opening or in writing, is a
    configuration error, as it is in reading."""
    try:
        with open(path, "w", encoding="utf-8", newline=newline) as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _check_output(path):
    """Raise ConfigError unless the directory of *path*, a file to be
    written, exists and *path* is not a directory itself; checked before a
    run, so that no work is lost."""
    if not path.parent.is_dir():
        raise ConfigError(f"cannot write {path}: {path.parent} is not a directory")
    if path.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")


# Rows of a CSV formatted by one "%" and written at once, and the format of
# one row of the trace CSV.
TRACE_BLOCK = 2 ** 10
TRACE_ROW = "%d,%s,%.17g,%s,%s\r\n"


def _write_csv(path, header, row_format, columns):
    """Write the field names *header*, then one row per element of the
    sequences that *columns* returns, as csv.writer writes them (no field
    holds a comma, a quote or a line break, so none is quoted). *columns* is
    called once the file is open, so that formatting counts as writing. Each
    block of TRACE_BLOCK rows is formatted by one "%" of *row_format* and
    written before the next, so the file's text is never held whole."""
    def write(fh):
        cols = columns()
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(cols[0]), TRACE_BLOCK):
            block = [column[start:start + TRACE_BLOCK] for column in cols]
            fh.write(row_format * len(block[0]) % tuple(chain.from_iterable(zip(*block))))

    _write_file(path, write, newline="")


def _write_trace_csv(path, trace, q):
    """Write the trace of a run, one row per step. alpha_n, residual_dW and
    rho_alpha_n repeat values, so each distinct value is formatted once; the
    error norms seldom repeat, so TRACE_ROW formats them."""
    alphas = trace.alphas_used
    n = alphas.size
    _write_csv(path, ("n", "alpha_n", "error_norm", "residual_dW", "rho_alpha_n"), TRACE_ROW,
               lambda: (range(n), _formatted(alphas), trace.error_norms[:n].tolist(),
                        _formatted(trace.residuals[:n]),
                        _formatted(contraction_factor(q, alphas))))


def _write_rows_csv(path, rows, columns):
    """Write the dicts *rows*, the values under the keys *columns*, as _fmt
    gives them."""
    _write_csv(path, columns, ",".join(["%s"] * len(columns)) + "\r\n",
               lambda: [[_fmt(row[c]) for row in rows] for c in columns])


def _json_text(record):
    """The text of every JSON that the program writes: the flat dict *record*
    and a newline. A value that is not finite, which strict JSON cannot
    hold, is a numerical failure."""
    bad = [key for key, value in sorted(record.items())
           if isinstance(value, float) and not math.isfinite(value)]
    if bad:
        raise FloatingPointError(f"non-finite {', '.join(bad)} in the JSON output")
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def run_scenario(path, out_dir=None):
    """Execute a scenario file end to end; returns the summary record dict and
    writes the configured output files."""
    cfg = _load_json(path) if not isinstance(path, dict) else path
    if not isinstance(cfg, dict):
        raise ConfigError("a scenario must be a JSON object")
    version = cfg.get("version")
    if isinstance(version, bool) or version != SCENARIO_VERSION:  # True == 1 in Python
        raise ConfigError(f"scenario version must be {SCENARIO_VERSION}")
    out_dir = Path(out_dir) if out_dir is not None else Path.cwd()

    try:
        check_keys(cfg, SCENARIO_KEYS, "scenario")
        for section in ("geometry", "schedule", "u0", "outputs"):
            if not isinstance(cfg.get(section, {}), dict):
                raise ValueError(f"{section} must be a JSON object")
        outputs = cfg.get("outputs", {})
        check_keys(outputs, OUTPUT_KEYS, "outputs")
        names = list(outputs.values())
        for i, name in enumerate(names):  # written in out_dir, so no directory part
            if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
                raise ValueError(f"outputs must be file names, got {name!r}")
            if name in names[:i]:
                raise ValueError(f"outputs must have distinct file names, got {name!r} twice")
            _check_output(out_dir / name)
        g = canonicalize(problems.geometry_from_config(cfg["geometry"]))
        sched = Schedule.from_dict(cfg["schedule"])
        u0 = _build_u0(cfg.get("u0", {"type": "zero"}), g.u_space)
        max_iters = as_count(cfg.get("max_iters", 10_000), "max_iters")
        conv_tol = as_real(cfg.get("conv_tol", 1e-10), "conv_tol")
        if not (math.isfinite(conv_tol) and conv_tol >= 0.0):  # also rejects NaN
            raise ValueError(f"conv_tol must be finite and nonnegative, got {conv_tol!r}")
        itol = as_real(cfg.get("intersection_tol", INTERSECTION_TOL), "intersection_tol")
    except np.linalg.LinAlgError:
        raise  # a numerical failure, although LinAlgError is a ValueError
    except (KeyError, ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc

    q = build(g, tol=itol)
    report = compute_report(q)
    trace = run_alternating(q, g.w_offset, sched, u0, max_iters=max_iters, conv_tol=conv_tol)
    lss = least_squares_set(q, g.w_offset)

    if trace.stop_reason == "nonfinite":
        raise FloatingPointError(f"non-finite error norm or residual at step {trace.n_steps}")

    # with no sine above the null-space cutoff, nu is rounding noise of a
    # zero operator (U's directions lie in V), for which neither applies
    operator_nonzero = q.kept.any()
    alphas = trace.alphas_used if trace.n_steps else next(sched.stream([1]), [])
    bound = rate_bound(report.nu, report.gamma, alphas).bound if operator_nonzero else None
    verdict = classify(sched, report.nu ** 2, max_iters)[0] \
        if operator_nonzero and max_iters >= 1 and sched.length != 0 else "indeterminate"

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

    text = _json_text(summary)  # a non-finite value fails before any file is written
    if "trace_csv" in outputs:
        _write_trace_csv(out_dir / outputs["trace_csv"], trace, q)
    if "summary_json" in outputs:
        _write_file(out_dir / outputs["summary_json"], lambda fh: fh.write(text))
    return summary


def overrelaxation_study(nu2, alphas, seed, max_iters=10_000):
    """Constant-relaxation sweep on a geometry with operator norm sqrt(nu2).

    Demonstrates convergence for every alpha with alpha*nu2 in (0, 2), even
    beyond the classical limit of 2, and growth above the boundary. Returns a
    list of row dicts (alpha, alpha_nu2, verdict, empirical_rate, rho_alpha).
    """
    seed = as_count(seed, "seed")
    if not (0 < nu2 <= 1):
        raise ConfigError("nu2 must be in (0, 1]")
    schedules = [Schedule.constant(alpha) for alpha in alphas]  # rejects a bad alpha up front
    phi = math.asin(math.sqrt(nu2))
    g = canonicalize(problems.controlled_angle_geometry([phi], offset_norm=0.5,
                                                        rotation_seed=seed))
    q = build(g)
    u0 = problems.random_point_in(g.u_space, seed + 1)
    rows = []
    for alpha, sched in zip(alphas, schedules):
        trace = run_alternating(q, g.w_offset, sched, u0,
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
    both norms come from one pass, at the largest dimension, that holds no
    array of its length. A norm that overflows, or an iterate that the
    coefficients drive to infinity, raises FloatingPointError naming the
    first such dimension.
    """
    sched = Schedule.constant(alpha)
    with np.errstate(all="ignore"):  # a non-finite sum is reported below, by its dimension
        limit_sums, iterate_sums = problems.truncation_sums(p, r, dims, sched, max_iters)
    rows = []
    for d, limit_sum, iterate_sum in zip(dims, limit_sums.tolist(), iterate_sums.tolist()):
        row = {"d": int(d), "limit_norm": math.sqrt(limit_sum),
               "iterate_norm": math.sqrt(iterate_sum), "iters": max_iters}
        for key in ("limit_norm", "iterate_norm"):
            if not math.isfinite(row[key]):
                raise FloatingPointError(f"non-finite {key} at d={row['d']}")
        rows.append(row)
    return rows


def _parse_float_list(text, option):
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list {text!r}") from exc
    if not values:
        raise ConfigError(f"{option} needs at least one value, got {text!r}")
    return values


def _cmd_run(args):
    sys.stdout.write(_json_text(run_scenario(args.scenario, out_dir=args.out_dir)))
    return 0


def _study(args, study, columns, line):
    """The steps of a study verb: check --out before any work, run *study*,
    write its rows to --out when given, and print each row as the format
    string *line* gives it."""
    if args.out:
        _check_output(Path(args.out))
    rows = study()
    if args.out:
        _write_rows_csv(args.out, rows, columns)
    for row in rows:
        print(line.format(**row))
    return 0


def _cmd_overrelax(args):
    return _study(args, lambda: overrelaxation_study(
        args.nu2, _parse_float_list(args.alphas, "--alphas"), args.seed, max_iters=args.max_iters),
        ("alpha", "alpha_nu2", "verdict", "empirical_rate", "rho_alpha"),
        "alpha={alpha:g} alpha_nu2={alpha_nu2:g} verdict={verdict} rho={rho_alpha:g}")


def _cmd_truncate(args):
    return _study(args, lambda: truncation_study(
        args.p, args.r, _parse_float_list(args.dims, "--dims"), alpha=args.alpha,
        max_iters=args.max_iters),
        ("d", "limit_norm", "iterate_norm", "iters"),
        "d={d} limit_norm={limit_norm:.6g} iterate_norm={iterate_norm:.6g}")


def _cmd_check_schedule(args):
    diag = diagnose(Schedule.from_dict(_load_json(args.schedule)), args.mu, horizon=args.horizon)
    sys.stdout.write(_json_text(dataclasses.asdict(diag)))
    return 0


REQUIRED = object()  # the default of an option that must be given

# verb: (handler, one-line help, positional names, {option: (converter, default)}).
# An option's flag is its name with "-" for "_": max_iters is --max-iters.
VERBS = {
    "run": (_cmd_run, "run a scenario file", ("scenario",), {"out_dir": (str, None)}),
    "overrelax": (_cmd_overrelax, "constant-relaxation sweep beyond 2", (), {
        "nu2": (float, REQUIRED), "alphas": (str, REQUIRED), "seed": (int, REQUIRED),
        "max_iters": (int, 10_000), "out": (str, None)}),
    "truncate": (_cmd_truncate, "dimension-truncation study", (), {
        "p": (float, REQUIRED), "r": (float, REQUIRED), "dims": (str, REQUIRED),
        "alpha": (float, 1.0), "max_iters": (int, 2000), "out": (str, None)}),
    "check-schedule": (_cmd_check_schedule, "diagnose a schedule file", ("schedule",), {
        "mu": (float, REQUIRED), "horizon": (int, 10_000)}),
}
METAVARS = {"alphas": "A1,A2,...", "dims": "D1,D2,..."}  # others: the name in capitals


def _flag(name):
    return "--" + name.replace("_", "-")


def _usage(verb=None):
    """The usage line of *verb*, or of the program when *verb* is None."""
    if verb is None:
        return f"usage: altproj {{{','.join(VERBS)}}} ..."
    _, _, positionals, options = VERBS[verb]
    words = list(positionals)
    for name, (_, default) in options.items():
        word = f"{_flag(name)} {METAVARS.get(name, name.upper())}"
        words.append(word if default is REQUIRED else f"[{word}]")
    return f"usage: altproj {verb} {' '.join(words)}"


def _help(verb=None):
    """The text -h prints: one verb's usage and help, or the list of verbs."""
    if verb is not None:
        return f"{_usage(verb)}\n\n{VERBS[verb][1]}"
    width = max(map(len, VERBS))
    lines = [f"  {name:<{width}}  {spec[1]}" for name, spec in VERBS.items()]
    return "\n".join([_usage(), "", "Relaxed alternating projections between affine subspaces: "
                      "experiment runner and schedule diagnostics.", "", "verbs:", *lines, "",
                      "altproj VERB -h prints the options of VERB."])


def _parse_argv(argv):
    """The handler and namespace that the command line *argv* selects from
    VERBS, or (None, help text) when it asks for help. A command line that
    does not fit raises ConfigError, whose text ends in the usage line."""
    if not argv:
        raise ConfigError(f"no verb given\n{_usage()}")
    verb, tokens = argv[0], iter(argv[1:])
    if verb == "-h" or verb.startswith("--h") and "--help".startswith(verb):
        return None, _help()
    if verb not in VERBS:
        raise ConfigError(f"unknown verb {verb!r}\n{_usage()}")
    handler, _, positional_names, options = VERBS[verb]
    flags = {"--help": None, **{_flag(name): name for name in options}}

    def usage_error(what):
        return ConfigError(f"{what}\n{_usage(verb)}")

    values = {name: default for name, (_, default) in options.items()}
    positionals = []
    for token in tokens:
        if token == "--":  # the rest are positionals
            positionals.extend(tokens)
        elif token == "-" or not token.startswith("-"):
            positionals.append(token)
        else:
            given, has_value, text = token.partition("=")
            given = "--help" if given == "-h" else given
            matches = [given] if given in flags else [f for f in flags if f.startswith(given)]
            if len(matches) != 1:
                raise usage_error(f"ambiguous option {given}: could match {', '.join(matches)}"
                                  if matches else f"unknown option {given}")
            flag = matches[0]
            name = flags[flag]
            if name is None:
                return None, _help(verb)
            if not has_value:
                text = next(tokens, None)
                if text is None:
                    raise usage_error(f"option {flag} needs a value")
            convert = options[name][0]
            try:
                values[name] = convert(text)
            except ValueError:
                raise usage_error(f"option {flag}: invalid {convert.__name__} value {text!r}") \
                    from None
    if len(positionals) != len(positional_names):
        raise usage_error(f"positional arguments: expected {' '.join(positional_names) or 'none'}"
                          f", got {' '.join(positionals) or 'none'}")
    missing = [_flag(name) for name, value in values.items() if value is REQUIRED]
    if missing:
        raise usage_error(f"missing required option(s) {', '.join(missing)}")
    return handler, SimpleNamespace(**values, **dict(zip(positional_names, positionals)))


def main(argv=None):
    try:
        handler, args = _parse_argv(sys.argv[1:] if argv is None else argv)
        if handler is None:  # args is the help text
            print(args)
            return 0
        global_tol()  # fail fast on a malformed ALTPROJ_TOL
        # a floating-point fault is reported by the exit code below, not by
        # numpy's warnings
        with np.errstate(all="ignore"):
            return handler(args)
    # before ValueError: LinAlgError subclasses it
    except (np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    # a MemoryError is an allocation of the size the configuration asked for
    except (ConfigError, ValueError, KeyError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

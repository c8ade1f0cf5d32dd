"""Compare the outputs of this checkout with those of another revision.

    python tools/same_outputs.py REV           run JOBS in both trees, report
    python tools/same_outputs.py --compare A B compare two result trees

The first form extracts REV with `git archive REV | tar -x`, runs every job
of the fixed list JOBS (see job_list) with `python -m altproj.cli`, once on
REV's src/ and once on this checkout's, each job in its own directory of a
fresh temporary directory per tree, and prints one line for each difference:
an exit code, or a line of stdout, stderr or an output file, named by job,
file and line. Both trees get the same input files, written from this
checkout. It then prints, module by module, what changed in the literals
that Hypothesis collects from src/ and bench/
(hypothesis.internal.constants_ast): a changed literal re-draws the
derandomized properties of the test suite.

No difference prints nothing. The exit code is 0 whenever the comparison ran,
whatever it found, since a change may move outputs on purpose; it is nonzero
only when the script itself fails.
"""

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = ("orthogonal_offset", "outside_C_stall", "two_lines_30deg")
SEEDS = (1, 7)
MU = ("0.7", "1", "1.3")
SCHEDULES = {  # one of each kind
    "constant": {"value": 1.2},
    "cyclic": {"values": [0.5, 1.5, 2.5]},
    "harmonic-to-2": {"offset": 1},
    "geometric-to-2": {"gap": 0.5, "ratio": 0.9},
    "explicit": {"values": [0.5, 1.0, 1.5, 2.5]},
    "random-uniform": {"lo": 0.1, "hi": 1.9, "seed": 3},
}
TRUNCATE = (
    ["--p", "1", "--r", "0.6", "--dims", "10,100,1000"],
    ["--p", "2", "--r", "0.9", "--dims", "50,500", "--alpha", "1.5", "--max-iters", "300"],
    ["--p", "0.5", "--r", "-99", "--dims", "100"],
    ["--p", "1", "--r", "0.6", "--dims", "1000", "--alpha", "2.5", "--max-iters", "50"],
)
LINES_SHOWN = 10  # differing lines reported per file; the rest are counted


def job_list():
    """[(name, argv, {file name: text})]: the fixed jobs, each with the
    argv of altproj.cli and the input files written into its directory."""
    jobs = []
    for name in SCENARIOS:
        text = (ROOT / "src" / "altproj" / "scenarios" / f"{name}.json").read_text(encoding="utf-8")
        jobs.append((f"run-{name}", ["run", "scenario.json", "--out-dir", "."],
                     {"scenario.json": text}))
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    with tempfile.TemporaryDirectory() as stage:
        for workload, seed in itertools.product(
                (workloads.HighDimAnalysis(), workloads.LongHorizon(), workloads.TruncateSweep()),
                SEEDS):
            work = Path(stage) / f"{workload.name}-{seed}"
            work.mkdir()
            argv = [os.path.relpath(a, work) if a.startswith(str(work)) else a
                    for a in workload.write_inputs(seed, work)]
            jobs.append((work.name, argv, {p.name: p.read_text(encoding="utf-8")
                                           for p in work.iterdir()}))
    jobs.append(("overrelax", ["overrelax", "--nu2", "0.5", "--alphas", "1,2,3,3.8,4.2",
                               "--seed", "1", "--out", "over.csv"], {}))
    for (kind, params), mu, horizon in itertools.product(SCHEDULES.items(), MU, ("", "10001")):
        argv = ["check-schedule", "schedule.json", "--mu", mu]
        argv += ["--horizon", horizon] if horizon else []
        jobs.append((f"check-schedule-{kind}-mu{mu}{'-h' + horizon if horizon else ''}", argv,
                     {"schedule.json": json.dumps({"kind": kind, **params})}))
    for i, args in enumerate(TRUNCATE):
        jobs.append((f"truncate-{i}", ["truncate", *args, "--out", "truncate.csv"], {}))
    return jobs


def run_jobs(jobs, tree, dest):
    """Run each job on *tree*'s src/ in dest/<job>/cwd, keeping its stdout,
    stderr and exit code beside that directory."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    for name, argv, files in jobs:
        cwd = dest / name / "cwd"
        cwd.mkdir(parents=True)
        for file, text in files.items():
            (cwd / file).write_text(text, encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "altproj.cli", *argv], cwd=cwd, env=env,
                              capture_output=True)
        (dest / name / "stdout").write_bytes(done.stdout)
        (dest / name / "stderr").write_bytes(done.stderr)
        (dest / name / "exit_code").write_text(f"{done.returncode}\n", encoding="utf-8")


def compare_trees(old, new):
    """One line for each difference between the result trees *old* and
    *new*: a file present in one only, or a differing line, named by path
    and line number (at most LINES_SHOWN per file, then a count)."""
    files = lambda root: {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}
    old_files, new_files = files(old), files(new)
    report = [f"{path}: only in {'old' if path in old_files else 'new'}"
              for path in sorted(old_files ^ new_files)]
    for path in sorted(old_files & new_files):
        a = (old / path).read_bytes().decode("utf-8", "replace").splitlines()
        b = (new / path).read_bytes().decode("utf-8", "replace").splitlines()
        differing = [(i, x, y) for i, (x, y) in enumerate(itertools.zip_longest(a, b), 1)
                     if x != y]
        for i, x, y in differing[:LINES_SHOWN]:
            report.append(f"{path}:{i}: old {x!r} new {y!r}")
        if len(differing) > LINES_SHOWN:
            report.append(f"{path}: {len(differing) - LINES_SHOWN} more differing lines")
    return report


def literal_sets(tree):
    """{module path: Constants} for every module under tree/src and
    tree/bench, as Hypothesis collects them."""
    from hypothesis.internal.constants_ast import _constants_from_source

    return {p.relative_to(tree).as_posix(): _constants_from_source(p.read_bytes(), limit=True)
            for top in ("src", "bench") for p in sorted((tree / top).rglob("*.py"))}


def compare_literals(old, new):
    """One line per module and literal type whose set differs between the
    trees *old* and *new*: the literals added (+) and removed (-)."""
    from hypothesis.internal.constants_ast import Constants

    a, b = literal_sets(old), literal_sets(new)
    report = []
    for module in sorted(a.keys() | b.keys()):
        for kind in ("integers", "floats", "bytes", "strings"):
            x = getattr(a.get(module, Constants()), kind)
            y = getattr(b.get(module, Constants()), kind)
            if x != y:
                report.append(f"literals {module} {kind}: + {sorted(y - x)!r} - {sorted(x - y)!r}")
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", help="the git revision to compare this checkout with")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"),
                        help="compare two result trees already written, running no job")
    args = parser.parse_args(argv)
    if args.compare:
        report = compare_trees(*args.compare)
    elif args.rev:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            old = tmp / "tree"
            old.mkdir()
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", str(old)], input=archive, check=True)
            jobs = job_list()
            for tree, dest in ((old, tmp / "old"), (ROOT, tmp / "new")):
                run_jobs(jobs, tree, dest)
            report = compare_trees(tmp / "old", tmp / "new") + compare_literals(old, ROOT)
        print(f"{len(jobs)} jobs against {args.rev}: {len(report)} differences", file=sys.stderr)
    else:
        parser.error("give a revision, or --compare OLD NEW")
    for line in report:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Tiny-size self-check of the benchmark itself.

Usage (from the root of a checkout): python3 bench/selfcheck.py

Runs every workload at tiny size through the same code as run.py and exits
1 unless
- every end-to-end metric (trace 0) and every per-layer metric (trace 1)
  named in BENCHMARK.json is emitted, and the tiny samples pass their checks;
- a traced call leaves no tracing wrapper behind, both in the worker
  processes and in this process, where each replaced attribute must be the
  original object again;
- a perturbed oracle value makes every sample count as failed.
"""

import contextlib
import io
import sys
from pathlib import Path

import run
from workloads import WORKLOADS


def perturb(expected):
    """Move one oracle value far outside its tolerance."""
    if "nu" in expected:
        expected["nu"] *= 1.0 + 1e-6
    else:
        expected["rows"][0]["iterate_norm"] *= 1.0 + 1e-6


def check_workload(root, spec, workload):
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        record = run.measure(root, workload, seed=1, seconds=0, trace=trace)
        problems += [f"{workload.name} trace {trace}: {p}"
                     for s in record["samples"] for p in s["problems"]]
        emitted = set(run.metrics_of(record))
        wanted = {m["name"] for m in spec[key]}
        if emitted != wanted:
            problems.append(f"{workload.name} trace {trace}: missing {sorted(wanted - emitted)}, "
                            f"unexpected {sorted(emitted - wanted)}")
    record = run.measure(root, workload, seed=1, seconds=0, trace=0, perturb=perturb)
    if not all(s["problems"] for s in record["samples"]):
        problems.append(f"{workload.name}: a perturbed oracle value was not reported")
    return problems


def check_unwrap_in_process(root):
    """Install the tracer here, make one traced call, remove it, and compare
    every attribute of altproj's modules and classes with the originals."""
    sys.path.insert(0, str(root / "src"))
    import tracing
    import worker  # imports altproj.cli

    def snapshot():
        attrs = {}
        for name, module in list(sys.modules.items()):
            if name == "altproj" or name.startswith("altproj."):
                holders = [module] + [v for v in vars(module).values()
                                      if isinstance(v, type) and v.__module__ == name]
                for holder in holders:
                    attrs.update({(holder, a): v for a, v in vars(holder).items()})
        return attrs

    before = snapshot()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    problems = []
    if not worker.still_wrapped():
        problems.append("in process: installing the tracer wrapped nothing")
    try:
        workload = WORKLOADS["truncate_sweep"](tiny=True)
        work = root / run.OUT_DIR / "selfcheck"
        work.mkdir(parents=True, exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = worker.altproj.cli.main(workload.write_inputs(1, work))
    finally:
        tracer.remove()
    if code != 0 or not any(s["name"] == "cli.main" for s in tracer.spans):
        problems.append(f"in process: traced call exited {code} or recorded no cli.main span")
    after = snapshot()
    changed = [f"{getattr(h, '__name__', h)}.{a}" for (h, a) in before.keys() | after.keys()
               if before.get((h, a)) is not after.get((h, a))]
    problems += [f"in process: not restored: {name}" for name in sorted(changed)]
    problems += [f"in process: still wrapped: {name}" for name in worker.still_wrapped()]
    return problems


def main():
    root = Path.cwd()
    if not (root / "src" / "altproj" / "cli.py").is_file():
        print("error: run from the root of a checkout with src/altproj", file=sys.stderr)
        return 2
    spec = run.benchmark_spec()
    problems = []
    for cls in WORKLOADS.values():
        problems += check_workload(root, spec, cls(tiny=True))
    problems += check_unwrap_in_process(root)
    for line in problems:
        print("SELFCHECK FAILED: " + line)
    if not problems:
        print(f"selfcheck ok: {len(WORKLOADS)} workloads, {len(spec['end_to_end'])} "
              f"end-to-end and {len(spec['per_layer'])} per-layer metrics")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

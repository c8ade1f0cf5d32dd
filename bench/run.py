"""The altproj benchmark.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample is a fresh interpreter (bench/worker.py) that imports
``altproj.cli`` from ``src/`` and calls ``altproj.cli.main`` once on inputs
generated from the seed, as a user's ``altproj`` command would. Samples run
one after another (a closed loop with one client) for about S seconds. After
each one the outputs it wrote are checked against the independent oracles in
bench/workloads.py; a sample that crashes, exits non-zero or mismatches
counts as failed.

--trace 0 reports the end-to-end metrics: setup_s (interpreter start until
``import altproj.cli`` returns, median over the samples), solve_s (wall time
of the call, outputs included, fastest sample) and peak_rss_mb (peak RSS of
the sample's process, median). solve_s takes the fastest sample because on a
shared host the CPU speed swings by up to 1.7x for seconds to minutes. The
workloads are sized so that one solve takes about a quarter of a second: a
run then holds 70-140 samples, and its fastest one falls in a quiet spell of
the host. With solves of 1.5-2 s, ~20 to a run, the fastest sample of ten
runs spread by 18-25% (quartiles over median); their medians spread more.
The median is printed beside it.

--trace 1 alternates untraced and traced samples and reports the per-layer
metrics of bench/tracing.py (the median_low over the traced samples, so
counts stay whole) and the tracing overhead: the fastest traced over the
fastest untraced solve_s.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The exit code is 0 when every sample was correct, 1 when
any failed, and 2 when the checkout has no altproj sources. A record with
provenance, every sample and every mismatch goes to .bench_out/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ".bench_out"
# Enough samples for a median of setup_s even when one solve takes seconds.
MIN_ROUNDS = {0: 3, 1: 1}
SAMPLE_TIMEOUT_S = 150
# highd_analysis moves by ~30% between one and two BLAS threads, so the
# count is fixed for every sample. One thread: on a host of two shared vCPUs
# a second thread gains ~15% at d=1500 and makes each SVD wait for whichever
# vCPU a neighbour is using.
MAX_BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0))


def blas_threads():
    return min(MAX_BLAS_THREADS, nproc())


def worker_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_THREAD_VARS:
        env[var] = str(blas_threads())
    return env


def git_commit(root):
    """The commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root, seed):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": nproc(),
        "blas_threads": blas_threads(),
        "seed": seed,
        "git_commit": git_commit(root),
    }


def spawn(root, env, job):
    """Run one worker; returns its result dict, or raises RuntimeError."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, str(WORKER), json.dumps(job)], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"sample timed out after {exc.timeout} s") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise RuntimeError(f"worker printed no result: {proc.stdout[-2000:]!r}") from exc
    result["setup_s"] = result.pop("imported_at") - started
    return result


def measure(root, workload, seed, seconds, trace, perturb=None):
    """Run samples of *workload* for about *seconds*; returns the record.

    *perturb*, if given, edits the oracle's expected values before any
    check (the self-check uses it to see a wrong oracle reported)."""
    out = root / OUT_DIR
    work = out / f"work-{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = worker_env(root)
    samples = []
    try:
        argv = workload.write_inputs(seed, work)
        expected = workload.oracle(seed)
        if perturb is not None:
            perturb(expected)
        spawn(root, env, {"argv": None})  # warm-up: byte-compile and page in
        spans_path = str(out / f"spans-{workload.name}-seed{seed}.json")
        kinds = (False, True) if trace else (False,)
        start = time.monotonic()
        rounds, round_s = 0, []
        while rounds < MIN_ROUNDS[trace] or \
                time.monotonic() - start + statistics.median(round_s) <= seconds:
            t0 = time.monotonic()
            for traced in kinds:
                for name in workload.outputs:
                    (work / name).unlink(missing_ok=True)
                sample = {"traced": traced, "problems": []}
                try:
                    sample.update(spawn(root, env, {"argv": argv, "trace": traced,
                                                    "spans_path": spans_path}))
                except RuntimeError as exc:
                    sample["problems"].append(str(exc))
                else:
                    sample["problems"] += check_sample(workload, work, expected, sample)
                samples.append(sample)
            rounds += 1
            round_s.append(time.monotonic() - t0)
        inputs = work / "scenario.json"
        inputs = json.loads(inputs.read_text(encoding="utf-8")) if inputs.is_file() else argv
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {"workload": workload.name, "trace": trace, "seconds": seconds,
            "provenance": provenance(root, seed), "inputs": inputs, "samples": samples}


def check_sample(workload, work, expected, sample):
    if sample["exit_code"] != 0:
        return [f"altproj exited {sample['exit_code']}"]
    problems = [f"still wrapped after the traced run: {name}"
                for name in sample.get("still_wrapped", [])]
    try:
        problems += workload.check(work, expected)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"outputs unreadable: {exc!r}")
    return problems


def _stat(fn, samples, key):
    values = [s[key] for s in samples if key in s]
    return fn(values) if values else float("nan")


def metrics_of(record):
    """The reported metrics: end-to-end with trace 0, per-layer with trace 1."""
    plain = [s for s in record["samples"] if not s["traced"]]
    if not record["trace"]:
        return {
            "setup_s": (_stat(statistics.median, plain, "setup_s"), "s"),
            "solve_s": (_stat(min, plain, "solve_s"), "s"),
            "peak_rss_mb": (_stat(statistics.median, plain, "peak_rss_mib"), "MiB"),
        }
    traced = [s for s in record["samples"] if s["traced"] and "layers" in s]
    units = {m["name"]: m["unit"] for m in benchmark_spec()["per_layer"]}
    metrics = {}
    for name in traced[0]["layers"] if traced else []:
        metrics[name] = (statistics.median_low(s["layers"][name] for s in traced), units[name])
    traced_solve = _stat(min, traced, "solve_s")
    metrics["trace.solve_s"] = (traced_solve, "s")
    metrics["trace.overhead"] = (traced_solve / _stat(min, plain, "solve_s"), "ratio")
    return metrics


def benchmark_spec():
    with open(WORKER.parent.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def tail_percentile(n):
    """The highest of p99 and p90 with at least ten of *n* samples beyond it."""
    for q in (99, 90):
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def report(record, metrics):
    """Human-readable lines; tools read only the JSON line printed after them."""
    samples = record["samples"]
    failed = [s for s in samples if s["problems"]]
    plain = [s for s in samples if not s["traced"]]
    print(f"workload {record['workload']}  trace {record['trace']}  "
          f"samples {len(samples)} ({len(samples) - len(plain)} traced)")
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    q = tail_percentile(len(plain))
    print(f"  {len(plain)} untraced samples; solve_s median "
          f"{_stat(statistics.median, plain, 'solve_s'):.6g} s; "
          + (f"p{q} has at least ten samples beyond it" if q else
             "no tail percentile has ten samples beyond it"))
    print(f"  {'failed_frac':42s} {len(failed) / len(samples):14.6g} fraction "
          f"({len(failed)} of {len(samples)} attempted)")
    for s in failed:
        for line in s["problems"]:
            print(f"  FAILED: {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "altproj" / "cli.py").is_file():
        print(f"error: no altproj sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2

    record = measure(root, WORKLOADS[args.workload](), args.seed, args.seconds, args.trace)
    metrics = metrics_of(record)
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    with open(root / OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    report(record, metrics)
    failed = sum(1 for s in record["samples"] if s["problems"])
    print(json.dumps({"correct": failed == 0, "attempted": len(record["samples"]),
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

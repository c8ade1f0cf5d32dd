"""One benchmark sample: a fresh interpreter that imports the CLI and makes
one entry-point call, as a user's ``altproj`` command would.

Usage: python3 bench/worker.py '<job json>'

The job gives the argv for ``altproj.cli.main`` and whether to trace. The
worker prints one JSON line: the monotonic clock reading when the import
returned (the parent subtracts its spawn time to get setup time), the wall
time of the call, the exit code, the peak RSS and, when traced, the
per-layer metrics. With an argv of null it only imports (a warm-up).
"""

import sys
import time

import altproj.cli

IMPORTED_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402  (imported after the timed import on purpose)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def main():
    job = json.loads(sys.argv[1])
    result = {"imported_at": IMPORTED_AT}
    if job["argv"] is None:
        print(json.dumps(result))
        return 0

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = altproj.cli.main(job["argv"])
        result["solve_s"] = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.remove()
    result["exit_code"] = code
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["still_wrapped"] = still_wrapped()
        tracer.dump(job["spans_path"])
    print(json.dumps(result))
    return 0


def still_wrapped():
    """Names in altproj's modules that are still tracing wrappers."""
    found = []
    for name, module in list(sys.modules.items()):
        if name != "altproj" and not name.startswith("altproj."):
            continue
        holders = [(name, module)] + [
            (f"{name}.{k}", v) for k, v in vars(module).items()
            if isinstance(v, type) and v.__module__ == name]
        for prefix, holder in holders:
            for attr, value in vars(holder).items():
                if getattr(value, "traced", False):
                    found.append(f"{prefix}.{attr}")
    return found


if __name__ == "__main__":
    sys.exit(main())

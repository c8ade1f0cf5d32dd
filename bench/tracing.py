"""Outside-in tracing of altproj for the benchmark's traced run.

The tracer replaces public functions with timing wrappers at the attribute
each caller resolves: a name bound by ``from .x import f`` is wrapped in the
importing module as well as in its home module, because the caller looks it
up in its own globals. Every ordinary call becomes a span with a parent id;
calls made once per iteration step are aggregated into a count and a total
time, so that a long run keeps a bounded trace. Spans stay in memory and are
written once, at the end. ``remove`` restores every attribute it replaced.

The cli module's writes are traced through a module-global ``open`` that
shadows the builtin for that module only: a file span lasts from open to
close and records the bytes written.
"""

import builtins
import functools
import json
import time

MODULES = ("cli", "subspace", "angles", "projector", "linalg", "schedule", "engine",
           "problems", "validation")


class Tracer:
    def __init__(self):
        self.spans = []
        self.hot = {}  # (name, enclosing span name) -> [calls, total_s, self_s]
        # One frame per active wrapped call: [child_s, span_id, span_name,
        # parent_id]; a per-step call's frame carries its enclosing span's id
        # and name.
        self._stack = []
        self._patches = []  # (holder, attribute, original or None if absent)
        self._next_id = 1
        self._t0 = time.perf_counter()

    # -- installation --------------------------------------------------------

    def patch(self, holder, attr, name, hot=False, measure=None):
        original = vars(holder)[attr]
        wrapper = self._hot_wrapper(name, original) if hot else \
            self._span_wrapper(name, original, measure)
        setattr(holder, attr, wrapper)
        self._patches.append((holder, attr, original))

    def patch_open(self, module, name):
        """Shadow ``open`` in *module*'s globals with a span-recording one."""
        if "open" in vars(module):
            raise RuntimeError(f"{module.__name__} already defines open")
        tracer = self

        def traced_open(file, mode="r", *args, **kwargs):
            writing = any(c in mode for c in "wax+")
            frame, start = tracer._enter(name + (".write" if writing else ".read"))
            try:
                fh = builtins.open(file, mode, *args, **kwargs)
            except BaseException:
                tracer._exit(frame, start, {"error": True})
                raise
            return _TracedFile(fh, tracer, frame, start, writing)

        traced_open.traced = True
        module.open = traced_open
        self._patches.append((module, "open", None))

    def remove(self):
        for holder, attr, original in reversed(self._patches):
            if original is None:
                delattr(holder, attr)
            else:
                setattr(holder, attr, original)
        self._patches.clear()

    # -- recording -----------------------------------------------------------

    def _enter(self, name):
        stack = self._stack
        frame = [0.0, self._next_id, name, stack[-1][1] if stack else 0]
        self._next_id += 1
        stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, frame, start, attrs):
        end = time.perf_counter()
        dt = end - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += dt
        self.spans.append({
            "id": frame[1], "parent": frame[3], "name": frame[2],
            "start": start - self._t0, "end": end - self._t0,
            "self_s": dt - frame[0], **attrs,
        })

    def _span_wrapper(self, name, fn, measure):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, start = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, start, {"error": True})
                raise
            tracer._exit(frame, start, measure(args, kwargs, result) if measure else {})
            return result

        wrapper.traced = True
        return wrapper

    def _hot_wrapper(self, name, fn):
        stack = self._stack
        hot = self.hot
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0.0, parent[1] if parent else 0, parent[2] if parent else None, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - start
                stack.pop()
                if parent is not None:
                    parent[0] += dt
                key = (name, frame[2])
                agg = hot.get(key)
                if agg is None:
                    agg = hot[key] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - frame[0]

        wrapper.traced = True
        return wrapper

    # -- output --------------------------------------------------------------

    def dump(self, path):
        hot = [{"name": n, "within": w, "calls": c, "total_s": t, "self_s": s}
               for (n, w), (c, t, s) in sorted(self.hot.items(), key=lambda kv: str(kv[0]))]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "hot": hot}, fh)


class _TracedFile:
    """A file object whose span ends when it is closed."""

    def __init__(self, fh, tracer, frame, start, writing):
        self._fh, self._tracer, self._frame = fh, tracer, frame
        self._start, self._writing = start, writing

    def __getattr__(self, attr):
        return getattr(self._fh, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def close(self):
        if self._fh.closed:
            return
        nbytes = self._fh.tell() if self._writing else 0
        self._fh.close()
        self._tracer._exit(self._frame, self._start, {"bytes": nbytes})


# -- what the traced run wraps -------------------------------------------------

def _result_bytes(args, kwargs, result):
    return {"bytes": int(result.nbytes)}


def _steps(args, kwargs, result):
    return {"steps": int(result.n_steps)}


def _elements(args, kwargs, result):
    return {"elements": int(len(result))}


# Elementwise float64 arrays read or written per step of
# ``u = u + alpha * sigma * (w - sigma * u)``: five operations reading nine
# operands and writing five temporaries (the scalar alpha is not an array).
LANDWEBER_ARRAYS_PER_STEP = 14


def _landweber(args, kwargs, result):
    p, r, d, schedule, max_iters = args
    return {"steps": int(max_iters),
            "bytes_computed": int(max_iters) * int(d) * LANDWEBER_ARRAYS_PER_STEP * 8}


def install(tracer):
    """Wrap the public functions on the `run` and `truncate` paths of the CLI."""
    from altproj import cli, engine, linalg, problems, projector, schedule, subspace

    p = tracer.patch
    p(cli, "main", "cli.main")
    p(cli, "run_scenario", "cli.run_scenario")
    p(cli, "truncation_study", "cli.truncation_study")
    tracer.patch_open(cli, "cli")
    p(cli, "canonicalize", "subspace.canonicalize")
    p(cli, "compute_report", "angles.compute_report")
    p(cli, "diagnose", "schedule.diagnose")
    p(cli, "rate_bound", "engine.rate_bound")
    p(cli, "run_alternating", "engine.run_alternating", measure=_steps)
    p(cli, "contraction_factor", "engine.contraction_factor", hot=True)
    for holder in (cli, projector):
        p(holder, "build", "projector.build")
        p(holder, "least_squares_set", "projector.least_squares_set")
    p(projector, "limit_point", "projector.limit_point")
    p(projector, "distance_to_w", "projector.distance_to_w", hot=True)
    p(linalg, "orthogonal_complement", "linalg.orthogonal_complement", measure=_result_bytes)
    p(linalg, "orthonormalize", "linalg.orthonormalize")
    p(problems, "geometry_from_config", "problems.geometry_from_config")
    p(problems, "random_point_in", "problems.random_point_in")
    p(problems, "diagonal_truncation_norms", "problems.diagonal_truncation_norms")
    p(problems, "run_diagonal_landweber", "problems.run_diagonal_landweber", measure=_landweber)
    p(schedule.Schedule, "alphas", "schedule.alphas", measure=_elements)
    p(engine, "project_relaxed", "subspace.project_relaxed", hot=True)
    for holder in (engine, projector, subspace):
        p(holder, "project", "subspace.project", hot=True)
    for holder in (engine, projector, subspace, problems):
        p(holder, "as_vector", "validation.as_vector", hot=True)


# -- per-layer metrics ---------------------------------------------------------

def layer_metrics(tracer):
    """Per-layer metrics of one traced entry-point call (see BENCHMARK.json)."""
    spans = tracer.spans

    def of(name):
        return [s for s in spans if s["name"] == name]

    def total(name, key=None):
        return sum((s.get(key, 0) if key else s["end"] - s["start"]) for s in of(name))

    def hot_calls(name, within=None):
        return sum(c for (n, w), (c, _, _) in tracer.hot.items()
                   if n == name and (within is None or w == within))

    runs = of("engine.run_alternating")
    steps = total("engine.run_alternating", "steps")
    run_ids = {s["id"] for s in runs}
    excluded = sum(s["end"] - s["start"] for s in spans
                   if s["parent"] in run_ids
                   and s["name"] in ("projector.build", "projector.limit_point"))
    loop_s = total("engine.run_alternating") - excluded
    landweber_steps = total("problems.run_diagonal_landweber", "steps")
    elements = total("schedule.alphas", "elements")

    def per_step(name):
        return hot_calls(name, "engine.run_alternating") / steps if steps else 0.0

    m = {
        "linalg.orthogonal_complement.calls": len(of("linalg.orthogonal_complement")),
        "linalg.orthogonal_complement.s": total("linalg.orthogonal_complement"),
        "linalg.orthogonal_complement.bytes": total("linalg.orthogonal_complement", "bytes"),
        "projector.build.calls": len(of("projector.build")),
        "projector.build.s": total("projector.build"),
        "angles.compute_report.s": total("angles.compute_report"),
        "projector.least_squares_set.calls": len(of("projector.least_squares_set")),
        "projector.least_squares_set.s": total("projector.least_squares_set"),
        "engine.run_alternating.s": total("engine.run_alternating"),
        "engine.steps": steps,
        "engine.loop_us_per_step": loop_s / steps * 1e6 if steps else 0.0,
        "subspace.project.calls": hot_calls("subspace.project"),
        "subspace.project.calls_per_step": per_step("subspace.project"),
        "validation.as_vector.calls": hot_calls("validation.as_vector"),
        "validation.as_vector.calls_per_step": per_step("validation.as_vector"),
        "schedule.alphas.elements": elements,
        "schedule.alphas.used_frac": (steps + landweber_steps) / elements if elements else 0.0,
        "engine.contraction_factor.calls": hot_calls("engine.contraction_factor"),
        "cli.write.s": total("cli.write"),
        "cli.write.bytes": total("cli.write", "bytes"),
        "problems.run_diagonal_landweber.s": total("problems.run_diagonal_landweber"),
        "problems.landweber.bytes": total("problems.run_diagonal_landweber", "bytes_computed"),
        "subspace.canonicalize.s": total("subspace.canonicalize"),
        "problems.geometry_from_config.s": total("problems.geometry_from_config"),
        "schedule.diagnose.s": total("schedule.diagnose"),
        "engine.rate_bound.s": total("engine.rate_bound"),
    }
    for module in MODULES:
        prefix = module + "."
        m[module + ".self_s"] = (
            sum(s["self_s"] for s in spans if s["name"].startswith(prefix))
            + sum(agg[2] for (n, _), agg in tracer.hot.items() if n.startswith(prefix)))
    return m

"""The names the benchmark's tracer patches on the package.

``bench/tracing.py`` wraps module attributes by name, so renaming or removing
one of them breaks the traced benchmark run. These tests install the tracer
on the package, check what it measures on a small run, and remove it again.
The last test runs the benchmark's own self-check end to end.
"""

import json
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))

import tracing  # noqa: E402
import worker  # noqa: E402
from altproj import cli  # noqa: E402


@pytest.fixture
def tracer():
    t = tracing.Tracer()
    try:
        tracing.install(t)  # KeyError when a patched name is missing
        yield t
    finally:
        t.remove()
    assert worker.still_wrapped() == []


def test_every_patched_name_is_present_and_wrapped(tracer):
    assert tracer._patches
    for holder, attr, _ in tracer._patches:
        assert getattr(vars(holder)[attr], "traced", False), f"{holder.__name__}.{attr}"


def test_loop_makes_no_per_step_projection_or_validation(tracer, tmp_path):
    cfg = json.loads((resources.files("altproj") / "scenarios" / "two_lines_30deg.json")
                     .read_text())
    cfg["conv_tol"] = 0.0  # run the whole horizon
    cfg["max_iters"] = 200
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
    m = tracing.layer_metrics(tracer)
    assert m["engine.steps"] == 200
    assert m["subspace.project.calls_per_step"] == 0
    assert m["validation.as_vector.calls_per_step"] == 0
    # one call for the trace CSV's whole rho column, not one per row
    assert m["engine.contraction_factor.calls"] == 1
    assert m["cli.write.bytes"] > 0
    # one analysis per run: the report, the least-squares set and the loop
    # all read the projector that run_scenario builds
    assert m["projector.build.calls"] == 1


def test_overrelaxation_study_builds_once(tracer):
    rows = cli.overrelaxation_study(0.5, [0.5, 1.0, 2.0, 3.0], seed=1, max_iters=200)
    assert len(rows) == 4
    m = tracing.layer_metrics(tracer)
    assert m["projector.build.calls"] == 1


def test_selfcheck_passes():
    # the benchmark's tiny-size self-check, in a fresh interpreter; it writes
    # only under the ignored .bench_out/
    proc = subprocess.run([sys.executable, "bench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selfcheck ok" in proc.stdout

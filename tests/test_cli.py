import csv
import dataclasses
import json
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from altproj import cli, linalg
from altproj.engine import contraction_factor, run_alternating
from altproj.problems import (diagonal_truncation_norms, geometry_from_config, random_geometry,
                              run_diagonal_landweber)
from altproj.projector import build
from altproj.schedule import Schedule
from altproj.subspace import canonicalize

from helpers import random_u0
from reference import diagonal_landweber_reference, reference_build, reference_report


def scenario_path(name):
    return resources.files("altproj") / "scenarios" / name


class TestRunScenario:
    def test_two_lines_30deg(self, tmp_path):
        summary = cli.run_scenario(str(scenario_path("two_lines_30deg.json")), out_dir=tmp_path)
        assert summary["nu"] == pytest.approx(0.5, abs=1e-10)
        assert summary["gamma"] == pytest.approx(0.5, abs=1e-8)
        assert summary["stop_reason"] == "converged"
        assert summary["empirical_rate"] == pytest.approx(0.75, abs=1e-6)
        assert summary["theoretical_bound"] == pytest.approx(0.75, abs=1e-10)
        assert summary["residual_at_limit"] == pytest.approx(0.7, abs=1e-10)
        assert (tmp_path / "two_lines_30deg_trace.csv").exists()
        with open(tmp_path / "two_lines_30deg_summary.json") as fh:
            assert json.load(fh)["stop_reason"] == "converged"

    def test_orthogonal_offset_one_step(self, tmp_path):
        summary = cli.run_scenario(str(scenario_path("orthogonal_offset.json")), out_dir=tmp_path)
        assert summary["nu"] == pytest.approx(1.0, abs=1e-12)
        assert summary["iters"] == 1
        assert summary["stop_reason"] == "converged"
        assert summary["residual_at_limit"] == pytest.approx(1.0, abs=1e-12)

    def test_schedule_outside_class_stalls(self, tmp_path):
        summary = cli.run_scenario(str(scenario_path("outside_C_stall.json")), out_dir=tmp_path)
        assert summary["stop_reason"] == "stalled"
        # frozen error ~ prod_{j >= 1} (1 - 2^-j)
        assert summary["final_error"] == pytest.approx(0.288788, abs=1e-4)
        assert summary["schedule_verdict"] == "converges-numerically"

    def test_trace_csv_is_deterministic(self, tmp_path):
        cfg = {
            "version": 1,
            "geometry": {"type": "random", "dim": 7, "dim_u": 3, "dim_w": 3, "seed": 5},
            "schedule": {"kind": "random-uniform", "lo": 0.3, "hi": 1.7, "seed": 9},
            "u0": {"type": "random", "seed": 11},
            "max_iters": 200,
            "outputs": {"trace_csv": "t.csv", "summary_json": "s.json"},
        }
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        cli.run_scenario(dict(cfg), out_dir=tmp_path / "a")
        cli.run_scenario(dict(cfg), out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "t.csv").read_bytes() == (tmp_path / "b" / "t.csv").read_bytes()
        assert (tmp_path / "a" / "s.json").read_bytes() == (tmp_path / "b" / "s.json").read_bytes()
        header = (tmp_path / "a" / "t.csv").read_text().splitlines()[0]
        assert header == "n,alpha_n,error_norm,residual_dW,rho_alpha_n"

    def test_trace_csv_matches_per_row_form(self, tmp_path):
        # the writer as it was, one contraction_factor call and one csv row
        # per step, is the reference for the vectorized one
        g = canonicalize(random_geometry(7, 3, 3, 5))
        q = build(g)
        sched = Schedule.random_uniform(0.0, 2.5 / q.norm ** 2, seed=9)
        trace = run_alternating(build(g), g.w_offset, sched, random_u0(g, 11), max_iters=200)
        assert trace.n_steps > 20
        cli._write_trace_csv(tmp_path / "t.csv", trace, q)
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "alpha_n", "error_norm", "residual_dW", "rho_alpha_n"])
            for n, alpha in enumerate(trace.alphas_used):
                writer.writerow([n, cli._fmt(float(alpha)), cli._fmt(float(trace.error_norms[n])),
                                 cli._fmt(float(trace.residuals[n])),
                                 cli._fmt(contraction_factor(q, float(alpha)))])
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_zero_operator_has_no_bound_or_verdict(self, tmp_path):
        # U's directions lie in V, so nu is rounding noise (~1e-15)
        cfg = {
            "version": 1,
            "geometry": {"type": "random", "dim": 6, "dim_u": 2, "dim_w": 4, "seed": 1,
                         "shared_dims": 2},
            "schedule": {"kind": "constant", "value": 1.0},
        }
        summary = cli.run_scenario(cfg, out_dir=tmp_path)
        assert summary["nu"] < 1e-12
        assert summary["theoretical_bound"] is None
        assert summary["schedule_verdict"] == "indeterminate"

    def test_short_explicit_schedule_runs_to_exhaustion(self, tmp_path):
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["schedule"] = {"kind": "explicit", "values": [1.0, 1.5]}
        del cfg["max_iters"]
        summary = cli.run_scenario(cfg, out_dir=tmp_path)
        assert summary["stop_reason"] == "schedule_exhausted"
        assert summary["iters"] == 2
        rows = (tmp_path / "two_lines_30deg_trace.csv").read_text().splitlines()
        assert [row.split(",")[1] for row in rows[1:]] == ["1", "1.5"]

    def test_wrong_version_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.run_scenario({"version": 2, "geometry": {}, "schedule": {}})

    def test_non_object_scenario_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(cli.ConfigError):
            cli.run_scenario(str(path))

    def test_missing_geometry_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.run_scenario({"version": 1, "schedule": {"kind": "constant", "value": 1.0}})

    def test_unseeded_random_geometry_rejected(self):
        cfg = {
            "version": 1,
            "geometry": {"type": "random", "dim": 5, "dim_u": 2, "dim_w": 2},
            "schedule": {"kind": "constant", "value": 1.0},
        }
        with pytest.raises(cli.ConfigError):
            cli.run_scenario(cfg)

    def test_summary_identities(self, tmp_path):
        cfg = {
            "version": 1,
            "geometry": {"type": "random", "dim": 8, "dim_u": 3, "dim_w": 4,
                         "seed": 17, "shared_dims": 1},
            "schedule": {"kind": "constant", "value": 1.0},
            "u0": {"type": "random", "seed": 3},
            "max_iters": 3000,
        }
        summary = cli.run_scenario(cfg, out_dir=tmp_path)
        # the run reads the angles and the operator from one factorization;
        # the complement-based references share no step with it
        g = canonicalize(geometry_from_config(cfg["geometry"]))
        ref, ref_report = reference_build(g), reference_report(g)
        assert abs(summary["nu"] - ref.norm) <= 1e-9
        assert abs(summary["norm_Q"] - ref_report.nu) <= 1e-9
        assert abs(summary["gamma"] - ref.reduced_min_modulus) <= 1e-7
        assert abs(summary["gamma_Q"] - ref_report.gamma) <= 1e-7
        assert 0.0 <= summary["theoretical_bound"] <= 1.0

    def test_sine_below_cutoff_is_not_a_numerical_failure(self, tmp_path):
        # sines 0.507 and 1.9e-6: the second lies below the null-space
        # cutoff; the normal-equation check once kept it while the solve
        # dropped it, and the run failed as "normal equation violated"
        cfg = {
            "version": 1,
            "geometry": {"type": "random", "dim": 10, "dim_u": 4, "dim_w": 8,
                         "seed": 1160396831, "shared_dims": 2},
            "schedule": {"kind": "constant", "value": 1.0},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 0


class TestOverrelaxation:
    def test_verdicts_flip_at_the_scaled_boundary(self):
        rows = cli.overrelaxation_study(0.5, [0.5, 1.0, 2.0, 3.0, 3.8, 4.2], seed=1,
                                        max_iters=20_000)
        verdicts = {row["alpha"]: row["verdict"] for row in rows}
        for alpha in (0.5, 1.0, 2.0, 3.0, 3.8):
            assert verdicts[alpha] == "converged"  # alpha * nu2 < 2
        assert verdicts[4.2] == "diverged"

    def test_rho_matches_scaled_coefficient(self):
        rows = cli.overrelaxation_study(0.25, [1.0, 4.0], seed=2, max_iters=100)
        # single-angle geometry: gamma^2 = nu^2 = 0.25
        assert rows[0]["rho_alpha"] == pytest.approx(0.75, abs=1e-10)
        assert rows[1]["rho_alpha"] == pytest.approx(0.0, abs=1e-10)

    def test_bad_nu2_rejected(self):
        with pytest.raises(cli.ConfigError):
            cli.overrelaxation_study(1.5, [1.0], seed=0)


class TestTruncation:
    def test_norm_growth_matches_closed_form(self):
        rows = cli.truncation_study(1.0, 1.5, [10, 100, 1000])
        expected = np.sqrt(np.cumsum(np.arange(1, 1001, dtype=float) ** -1.0))
        for row, d in zip(rows, (10, 100, 1000)):
            assert row["limit_norm"] == pytest.approx(expected[d - 1], rel=1e-12)
        # diverging harmonic series: the truncated solution norms keep growing
        assert rows[0]["limit_norm"] < rows[1]["limit_norm"] < rows[2]["limit_norm"]

    def test_iterate_tracks_limit_in_small_dimension(self):
        rows = cli.truncation_study(0.5, 1.0, [5], max_iters=5000)
        assert rows[0]["iterate_norm"] == pytest.approx(rows[0]["limit_norm"], rel=1e-6)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(0.1, 3.0), st.floats(-1.0, 2.0), st.integers(1, 2000), st.data())
    def test_closed_form_matches_step_by_step_iteration(self, p, r, d, data):
        # coefficients up to 1.95 against sigma_1^2 = 1 reach alpha sigma^2 > 1,
        # where factors 1 - alpha sigma^2 change sign
        n = data.draw(st.integers(0, 200), label="max_iters")
        alpha = st.floats(0.0, 1.95)
        kind = data.draw(st.sampled_from(["constant", "cyclic", "explicit", "random-uniform"]),
                         label="kind")
        if kind == "constant":
            sched = Schedule.constant(data.draw(alpha))
        elif kind == "cyclic":
            sched = Schedule.cyclic(data.draw(st.lists(alpha, min_size=1, max_size=5)))
        elif kind == "explicit":
            sched = Schedule.explicit(data.draw(st.lists(alpha, min_size=n, max_size=n)))
        else:
            lo = data.draw(alpha)
            sched = Schedule.random_uniform(lo, data.draw(st.floats(lo, 1.95)),
                                            seed=data.draw(st.integers(0, 2**31 - 1)))
        u = run_diagonal_landweber(p, r, d, sched, n)
        ref = diagonal_landweber_reference(p, r, d, sched, n)
        assert u.shape == (d,)
        # componentwise, so components the iteration has barely reached
        # (u_i ~ n alpha sigma_i w_i, far below w_i / sigma_i) count as much
        # as the ones it has
        np.testing.assert_allclose(u, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["constant", "cyclic", "explicit", "random-uniform"])
    def test_one_pass_matches_per_dimension_runs(self, monkeypatch, kind):
        # the iteration runs once, at the largest dimension; each row's norm
        # is that of the iterate filtered at its own dimension, in input order
        p, r, n, dims = 1.0, 0.6, 60, [1000, 10, 1000, 100]
        sched = {"constant": Schedule.constant(1.3),
                 "cyclic": Schedule.cyclic([0.5, 1.9, 1.2]),
                 "explicit": Schedule.explicit(np.linspace(0.2, 1.9, n)),
                 "random-uniform": Schedule.random_uniform(0.1, 1.9, seed=7)}[kind]
        monkeypatch.setattr(cli, "Schedule", SimpleNamespace(constant=lambda alpha: sched))
        calls = []

        def counted(*args):
            calls.append(args[2])
            return run_diagonal_landweber(*args)

        monkeypatch.setattr(cli.problems, "run_diagonal_landweber", counted)
        rows = cli.truncation_study(p, r, dims, max_iters=n)
        assert calls == [1000]
        assert [row["d"] for row in rows] == dims
        assert [row["iters"] for row in rows] == [n] * len(dims)
        assert [row["limit_norm"] for row in rows] == \
            diagonal_truncation_norms(p, r, dims).tolist()
        for row, d in zip(rows, dims):
            expected = np.linalg.norm(run_diagonal_landweber(p, r, d, sched, n))
            assert row["iterate_norm"] == pytest.approx(expected, rel=1e-12, abs=0)


def _run_config(tmp_path, capsys, cfg):
    """Exit code and captured output of `run` on the scenario *cfg*, and the
    files the run left in its output directory."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = cli.main(["run", str(path), "--out-dir", str(out_dir)])
    return rc, capsys.readouterr(), sorted(f.name for f in out_dir.iterdir())


RANDOM_GEOMETRY = {"type": "random", "dim": 6, "dim_u": 2, "dim_w": 2, "seed": 3}


class TestScenarioSections:
    """Every section rejects a key it does not read and a fractional value
    of an integer field, with exit 2 and no output written."""

    def scenario(self, **sections):
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["u0"] = {"type": "zero"}
        cfg.update(sections)
        return cfg

    @pytest.mark.parametrize("geometry, message", [
        ({"type": "controlled_angle", "angles_deg": [30], "offest_norm": 5.0},
         "unknown geometry keys: offest_norm"),
        ({"type": "explicit", "u_span": [[1, 0, 0]], "w_span": [[0, 1, 0]],
          "w_piont": [0, 0, 1]}, "unknown geometry keys: w_piont"),
        ({**RANDOM_GEOMETRY, "dim": 6.7}, "dim must be a nonnegative integer, got 6.7"),
        ({**RANDOM_GEOMETRY, "seed": 3.9}, "seed must be a nonnegative integer, got 3.9"),
        ({"type": "controlled_angle", "angles_deg": [30], "extra_dims": 1.9},
         "extra_dims must be a nonnegative integer, got 1.9"),
    ])
    def test_geometry(self, tmp_path, capsys, geometry, message):
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(geometry=geometry))
        assert (rc, captured.out, written) == (2, "", [])
        assert message in captured.err

    @pytest.mark.parametrize("u0, message", [
        ({"type": "zero", "seeed": 3}, "unknown u0 keys: seeed"),
        ({"type": "explicit", "value": [1, 0, 0], "scale": 2.0}, "unknown u0 keys: scale"),
        ({"type": "random", "seed": 2.5}, "seed must be a nonnegative integer, got 2.5"),
    ])
    def test_u0(self, tmp_path, capsys, u0, message):
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(u0=u0))
        assert (rc, captured.out, written) == (2, "", [])
        assert message in captured.err

    @pytest.mark.parametrize("schedule, message", [
        ({"kind": "random-uniform", "lo": 0.5, "hi": 1.5, "seed": 3.9},
         "seed must be a nonnegative integer, got 3.9"),
        ({"kind": "harmonic-to-2", "offset": 1.5}, "offset must be a nonnegative integer, got 1.5"),
    ])
    def test_schedule(self, tmp_path, capsys, schedule, message):
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(schedule=schedule))
        assert (rc, captured.out, written) == (2, "", [])
        assert message in captured.err

    @pytest.mark.parametrize("outputs, message", [
        ({"sumary_json": "x.json"}, "unknown outputs keys: sumary_json"),
        ({"trace_csv": "t.csv", "summary_json": 5}, "outputs must be file names"),
    ])
    def test_outputs(self, tmp_path, capsys, outputs, message):
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(outputs=outputs))
        assert (rc, captured.out, written) == (2, "", [])
        assert message in captured.err

    @pytest.mark.parametrize("section, value", [
        ("geometry", [1, 0, 0]), ("u0", []), ("outputs", "summary.json"),
    ])
    def test_section_that_is_not_an_object(self, tmp_path, capsys, section, value):
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(**{section: value}))
        assert (rc, captured.out, written) == (2, "", [])
        assert f"{section} must be a JSON object" in captured.err

    def test_integral_floats_are_accepted(self, tmp_path, capsys):
        def summary(name, geometry, u0):
            work = tmp_path / name
            work.mkdir()
            rc, captured, _ = _run_config(work, capsys, self.scenario(geometry=geometry, u0=u0))
            assert rc == 0
            return json.loads(captured.out)

        as_floats = {key: float(v) if isinstance(v, int) else v
                     for key, v in RANDOM_GEOMETRY.items()}
        assert summary("random_floats", as_floats, {"type": "random", "seed": 4.0}) == \
            summary("random_ints", RANDOM_GEOMETRY, {"type": "random", "seed": 4})
        angle = {"type": "controlled_angle", "angles_deg": [30], "extra_dims": 2,
                 "rotation_seed": 5}
        assert summary("angle_floats", {**angle, "extra_dims": 2.0, "rotation_seed": 5.0},
                       {"type": "zero"}) == summary("angle_ints", angle, {"type": "zero"})


class TestMain:
    def test_run_verb(self, tmp_path, capsys):
        rc = cli.main(["run", str(scenario_path("two_lines_30deg.json")),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stop_reason"] == "converged"

    def test_run_verb_missing_file(self, capsys):
        assert cli.main(["run", "/nonexistent/scenario.json"]) == 2

    def test_overrelax_verb(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        rc = cli.main(["overrelax", "--nu2", "0.5", "--alphas", "1.0,4.2",
                       "--seed", "3", "--max-iters", "2000", "--out", str(out_csv)])
        assert rc == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "alpha,alpha_nu2,verdict,empirical_rate,rho_alpha"
        assert len(lines) == 3
        assert "verdict=converged" in capsys.readouterr().out

    def test_truncate_verb(self, tmp_path, capsys):
        out_csv = tmp_path / "trunc.csv"
        rc = cli.main(["truncate", "--p", "1.0", "--r", "1.5", "--dims", "10,100",
                       "--out", str(out_csv)])
        assert rc == 0
        assert out_csv.read_text().splitlines()[0] == "d,limit_norm,iterate_norm,iters"

    def test_check_schedule_verb(self, tmp_path, capsys):
        sched_file = tmp_path / "sched.json"
        sched_file.write_text(json.dumps({"kind": "constant", "value": 1.0}))
        rc = cli.main(["check-schedule", str(sched_file), "--mu", "1.0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "diverges-numerically"

    def test_bad_schedule_file_gives_config_exit(self, tmp_path, capsys):
        sched_file = tmp_path / "sched.json"
        sched_file.write_text(json.dumps({"kind": "mystery"}))
        assert cli.main(["check-schedule", str(sched_file), "--mu", "1.0"]) == 2

    def test_malformed_tol_env_gives_config_exit(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ALTPROJ_TOL", "not-a-number")
        assert cli.main(["run", str(scenario_path("two_lines_30deg.json")),
                         "--out-dir", str(tmp_path)]) == 2

    def test_unknown_scenario_key_gives_config_exit(self, tmp_path, capsys):
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["max_iter"] = 3  # typo for max_iters
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "unknown scenario keys: max_iter" in capsys.readouterr().err

    def test_overflowing_iterate_gives_numerical_exit(self, tmp_path, capsys):
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["schedule"] = {"kind": "constant", "value": 1e308}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 3
        assert "non-finite error norm or residual at step 1" in capsys.readouterr().err

    @pytest.mark.parametrize("holder, attr", [(np.linalg, "svd"), (linalg, "sine_svd")])
    def test_svd_failure_gives_numerical_exit(self, tmp_path, monkeypatch, capsys,
                                              holder, attr):
        # numpy.linalg.svd fails first while the geometry is built; sine_svd
        # fails once the geometry is ready
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(holder, attr, fail)
        assert cli.main(["run", str(scenario_path("two_lines_30deg.json")),
                         "--out-dir", str(tmp_path)]) == 3
        assert "numerical failure: SVD did not converge" in capsys.readouterr().err

    def test_violated_normal_equation_gives_numerical_exit(self, tmp_path, monkeypatch, capsys):
        cfg = {
            "version": 1,
            "geometry": {"type": "random", "dim": 6, "dim_u": 2, "dim_w": 2, "seed": 3},
            "schedule": {"kind": "constant", "value": 1.0},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))

        def tampered_build(g, tol):
            # right singular vectors that are not orthonormal, so the solve
            # taken from them misses the operator's normal equation
            q = build(g, tol)
            return dataclasses.replace(q, right_vectors=2.0 * q.right_vectors)

        monkeypatch.setattr(cli, "build", tampered_build)
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 3
        assert "numerical failure: normal equation violated" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "0", "1.5", "-1e-8"])
    def test_bad_intersection_tol_gives_config_exit(self, tmp_path, capsys, value):
        # a tolerance outside (0, 1) would set the null-space cutoff to NaN,
        # to 0 or above real sines, or fail in sqrt
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["intersection_tol"] = float(value)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "intersection tolerance must lie in (0, 1)" in capsys.readouterr().err
        assert not (tmp_path / "two_lines_30deg_summary.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("max_iters", -1), ("max_iters", 2.7), ("max_iters", float("inf")),
        ("conv_tol", float("nan")), ("conv_tol", float("inf")), ("conv_tol", -1e-3),
    ])
    def test_bad_horizon_or_tolerance_gives_config_exit(self, tmp_path, capsys, key, value):
        # a negative horizon would leave convergence as the only bound, a
        # fractional one would be truncated, a NaN tolerance would never be
        # reached and an infinite one would be reached at step 0
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg[key] = value
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        message = {"max_iters": "max_iters must be a nonnegative integer",
                   "conv_tol": "conv_tol must be finite and nonnegative"}[key]
        assert message in capsys.readouterr().err
        assert not (tmp_path / "two_lines_30deg_summary.json").exists()
        assert not (tmp_path / "two_lines_30deg_trace.csv").exists()

    def test_integral_float_horizon_is_accepted(self, tmp_path, capsys):
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["max_iters"], cfg["conv_tol"] = 5.0, 0.0
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["stop_reason"] == "max_iters" and out["iters"] == 5

    def test_negative_overrelax_horizon_gives_config_exit(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        rc = cli.main(["overrelax", "--nu2", "0.5", "--alphas", "1.0", "--seed", "3",
                       "--max-iters", "-1", "--out", str(out_csv)])
        assert rc == 2
        assert "max_iters must be a nonnegative integer" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_schedule_coefficient_gives_config_exit(self, tmp_path, capsys, value):
        # json reads NaN and Infinity; such a coefficient is a configuration
        # error, not a run that stops as nonfinite (exit 3)
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["schedule"] = {"kind": "explicit", "values": [0.5, float(value), 0.5]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))  # writes the bare NaN / Infinity tokens
        assert value in path.read_text()
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "coefficients must be finite and nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--mu", "nan"), ("--mu", "inf"), ("--mu", "-inf"),
                                             ("--growth-threshold", "nan"),
                                             ("--growth-threshold", "inf")])
    def test_non_finite_check_schedule_input_gives_config_exit(self, tmp_path, capsys,
                                                               flag, value):
        # a NaN mu passed the old "mu <= 0" check and printed bare NaN tokens
        # that strict JSON readers reject
        sched_file = tmp_path / "sched.json"
        sched_file.write_text(json.dumps({"kind": "constant", "value": 1.0}))
        argv = ["check-schedule", str(sched_file), "--mu", "1.0", f"{flag}={value}"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("args, message", [
        (["--dims=2.5,3"], "dimensions must be positive integers"),
        (["--dims=inf"], "dimensions must be positive integers"),
        (["--dims=0,3"], "dimensions must be positive integers"),
        (["--p=nan"], "p must be finite and positive"),
        (["--p=inf"], "p must be finite and positive"),
        (["--r=nan"], "r must be finite"),
        (["--r=-inf"], "r must be finite"),
    ])
    def test_bad_truncate_input_gives_config_exit(self, tmp_path, capsys, args, message):
        # a fractional dimension used to run silently at its integer part,
        # and a NaN exponent printed nan norms with exit 0
        out_csv = tmp_path / "trunc.csv"
        argv = ["truncate", "--p", "1.0", "--r", "0.6", "--dims", "10,100",
                "--out", str(out_csv)]
        assert cli.main(argv + args) == 2  # argparse keeps the last of a repeated flag
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out_csv.exists()

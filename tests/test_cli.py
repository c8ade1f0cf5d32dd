import csv
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from altproj import cli, linalg, problems
from altproj.engine import contraction_factor, run_alternating
from altproj.problems import (LANDWEBER_BLOCK, diagonal_truncation_norms, geometry_from_config,
                              random_geometry, run_diagonal_landweber, truncation_norms)
from altproj.projector import build
from altproj.schedule import Schedule, classify, diagnose
from altproj.subspace import canonicalize

from helpers import property_settings, random_u0
from reference import (diagonal_landweber_reference, reference_build, reference_least_squares,
                       reference_report)
from rounding import EPS, gamma


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
        # nu^2 sits on the boundary at 1: converges there, outside the class
        # from step ~50 a few ulp above it
        assert summary["schedule_verdict"] == "ambiguous"

    def test_verdict_draws_no_coefficients_and_reads_the_whole_horizon(self, tmp_path,
                                                                       monkeypatch):
        # the run's verdict is classify's, over max_iters steps (it used to
        # be diagnose's over at most 10 000 drawn terms, then thrown away)
        calls = []

        def spy(sched, mu, horizon):
            calls.append(horizon)
            return classify(sched, mu, horizon)

        def refuse(self, n):
            raise AssertionError(f"drew {n} terms")

        monkeypatch.setattr(cli, "classify", spy)
        monkeypatch.setattr(Schedule, "alphas", refuse)
        summary = cli.run_scenario(str(scenario_path("outside_C_stall.json")), out_dir=tmp_path)
        assert (calls, summary["schedule_verdict"]) == ([100_000], "ambiguous")

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

    def test_trace_csv_keeps_signed_zero_and_repeated_values(self, tmp_path):
        # each distinct value is formatted once, keyed by its bits: -0.0 must
        # not take the text of 0.0, and a repeated value keeps its text
        g = canonicalize(random_geometry(7, 3, 3, 5))
        q = build(g)
        alphas = [0.5, 0.5, -0.0, 0.0, 1.25, 1.25, 1.25, -0.0, 0.0, 0.5]
        trace = run_alternating(q, g.w_offset, Schedule.explicit(alphas), random_u0(g, 11),
                                max_iters=len(alphas), conv_tol=0.0)
        assert trace.n_steps == len(alphas)
        cli._write_trace_csv(tmp_path / "t.csv", trace, q)
        rho = contraction_factor(q, trace.alphas_used)
        expected = "n,alpha_n,error_norm,residual_dW,rho_alpha_n\r\n" + "".join(
            "%d,%.17g,%.17g,%.17g,%.17g\r\n" % (n, alpha, trace.error_norms[n],
                                                trace.residuals[n], rho[n])
            for n, alpha in enumerate(trace.alphas_used.tolist()))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()
        assert [line.split(",")[1] for line in expected.splitlines()[3:5]] == ["-0", "0"]

    @pytest.mark.parametrize("n", [0, cli.TRACE_BLOCK - 1, cli.TRACE_BLOCK, cli.TRACE_BLOCK + 1,
                                   2 * cli.TRACE_BLOCK + 1])
    @pytest.mark.parametrize("kind", ["constant", "random-uniform"])
    def test_trace_csv_matches_per_row_form_at_block_edges(self, tmp_path, kind, n):
        # the rows are formatted a block at a time: every row on either side
        # of a block edge must be the row the per-row format gives, with
        # repeated values and -0.0 in every column
        q = build(canonicalize(random_geometry(7, 3, 3, 5)))
        sched = Schedule.constant(1.25) if kind == "constant" else \
            Schedule.random_uniform(0.0, 2.0, seed=n)
        rng = np.random.default_rng(n)
        alphas = sched.alphas(n)
        # a trace holds one more error norm and residual than steps
        errors = np.append(rng.random(n), 0.5)
        residuals = np.append(rng.choice([0.5, 0.25, 0.125], n), 0.5)
        errors[2::5] = errors[0]
        for column in (alphas, errors[:n], residuals[:n]):
            column[3::5], column[4::5] = -0.0, 0.0
        trace = SimpleNamespace(alphas_used=alphas, error_norms=errors, residuals=residuals)
        cli._write_trace_csv(tmp_path / "t.csv", trace, q)
        rho = contraction_factor(q, alphas)
        expected = "n,alpha_n,error_norm,residual_dW,rho_alpha_n\r\n" + "".join(
            "%d,%.17g,%.17g,%.17g,%.17g\r\n" % (i, alphas[i], errors[i], residuals[i], rho[i])
            for i in range(n))
        assert (tmp_path / "t.csv").read_bytes() == expected.encode()
        if n:
            assert {"-0", "0"} <= {line.split(",")[2] for line in expected.splitlines()[1:]}

    @pytest.mark.parametrize("n", [0, cli.TRACE_BLOCK - 1, cli.TRACE_BLOCK, cli.TRACE_BLOCK + 1,
                                   2 * cli.TRACE_BLOCK + 1])
    def test_study_csv_matches_csv_writer_at_block_edges(self, tmp_path, n):
        # the study CSVs go through the trace's block writer: every row on
        # either side of a block edge must be the row csv.writer writes, with
        # float, -0.0, None, int and str cells in every column
        rng = np.random.default_rng(n)
        cells = [lambda i: float(rng.random()), lambda i: -0.0, lambda i: None, lambda i: i,
                 lambda i: f"s{i}"]
        columns = ["a", "b", "c", "d", "e"]
        rows = [{c: cells[(i + j) % len(cells)](i) for j, c in enumerate(columns)}
                for i in range(n)]
        cli._write_rows_csv(tmp_path / "study.csv", rows, columns)
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([cli._fmt(row[c]) if isinstance(row[c], float) else row[c]
                                 for c in columns])
        assert (tmp_path / "study.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        if n:
            assert ",-0," in (tmp_path / "study.csv").read_text()

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

    @pytest.mark.parametrize("case", ["point_on_u", "rotated_axes"])
    def test_far_point_runs_and_matches_the_reference(self, tmp_path, capsys, case):
        # a far point's offset rounds to the scale of the point, not of the
        # offset; the public constructor's checks once refused both runs
        # with exit 2, "offset is not canonical"
        if case == "point_on_u":
            # U is the line along (1, 1, 0) through the origin, W the z axis
            geometry = {"type": "explicit", "u_span": [[1, 1, 0]], "w_span": [[0, 0, 1]],
                        "u_point": [1e6, 1e6, 0], "w_point": [0, 0, 0]}
            distance = 0.0
        else:
            # U = span(e1) through 1e4 e2 and W = span(e2) through e3 / 2, in
            # rotated axes: two lines at right angles, 1/2 apart
            rot = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
            geometry = {"type": "explicit", "u_span": [rot[:, 0].tolist()],
                        "w_span": [rot[:, 1].tolist()], "u_point": (1e4 * rot[:, 1]).tolist(),
                        "w_point": (0.5 * rot[:, 2]).tolist()}
            distance = 0.5
        rc, captured, _ = _run_config(tmp_path, capsys, {
            "version": 1, "geometry": geometry, "schedule": {"kind": "constant", "value": 1.0}})
        assert rc == 0, captured.err
        summary = json.loads(captured.out)
        g = canonicalize(geometry_from_config(geometry))
        ref = reference_report(g)
        _, ref_residual = reference_least_squares(reference_build(g), g.w_offset)
        assert abs(summary["nu"] - ref.nu) <= 1e-10 and abs(summary["nu"] - 1.0) <= 1e-10
        assert abs(summary["gamma"] - ref.gamma) <= 1e-8 and abs(summary["gamma"] - 1.0) <= 1e-8
        # rounding that follows the far point
        tol = 100 * EPS * np.linalg.norm(geometry["u_point"])
        assert abs(summary["residual_at_limit"] - ref_residual) <= tol
        assert abs(summary["residual_at_limit"] - distance) <= tol

    @pytest.mark.parametrize("scale", [1e6, 1e8, 1e10])
    def test_far_point_of_w_runs(self, tmp_path, capsys, scale):
        """U = span(Q e1) and W = span(Q e2) through s Q e2 + Q e3 / 2, with Q
        orthogonal: two lines at right angles, 1/2 apart, whose point on W
        lies s along W. The offset of W rounds to the scale of that point,
        and least_squares_set once re-tested it against 1e-10 (1 + ||w||),
        so the run exited 2 ("w must lie in the codomain ...").

        The bound: from_span forms o = fl(p - b fl(b^T p)) from the point p
        and its computed basis b, which makes an angle theta with Q e2 of at
        most gram_bound(d, 1) / 3 = 2 gamma(d + 1) (the perturbation of an
        SVD factor). So o lies within ||p|| theta + (gamma(d) + gamma(1))
        ||p|| + u ||o|| of Q e3 / 2, and the residual, the distance from o to
        the range of the operator, a line within theta of Q e1, is 1-Lipschitz
        in o and moves by at most theta / 2 with the line. Everything else is
        rounding of data of norm 1/2. With gamma(d) + gamma(1) <= gamma(d + 1),
        the sum is at most 4 gamma(d + 1) (||p|| + 1), as ||o|| <= 1.
        """
        rot = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))[0]
        w_point = scale * rot[:, 1] + 0.5 * rot[:, 2]
        geometry = {"type": "explicit", "u_span": [rot[:, 0].tolist()],
                    "w_span": [rot[:, 1].tolist()], "w_point": w_point.tolist()}
        rc, captured, _ = _run_config(tmp_path, capsys, {
            "version": 1, "geometry": geometry, "schedule": {"kind": "constant", "value": 1.0}})
        assert rc == 0, captured.err
        summary = json.loads(captured.out)
        bound = 4 * gamma(3 + 1) * (np.linalg.norm(w_point) + 1.0)
        assert abs(summary["residual_at_limit"] - 0.5) <= bound

    @pytest.mark.parametrize("k", [-600, 515, 600])
    def test_lengths_whose_squares_leave_the_float_range(self, tmp_path, capsys, k):
        # two_lines_30deg with the offset and u0 scaled by 2^k: the squares
        # of every length underflow (k = -600), which once "converged" after
        # 0 steps with residual_at_limit 0, or overflow, which once exited 3.
        # Scaling by 2^k is exact, so the run must be the unscaled run, and
        # every length 2^k times its length, bit for bit
        runs = []
        for j in (0, k):
            cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
            cfg["geometry"]["offset_norm"] = math.ldexp(cfg["geometry"]["offset_norm"], j)
            cfg["u0"]["value"] = [math.ldexp(x, j) for x in cfg["u0"]["value"]]
            cfg.update(max_iters=200, conv_tol=0)
            out = tmp_path / f"out{j}"
            out.mkdir()
            cfg_path = out / "scenario.json"
            cfg_path.write_text(json.dumps(cfg))
            assert cli.main(["run", str(cfg_path), "--out-dir", str(out)]) == 0
            assert capsys.readouterr().err == ""
            summary = json.loads((out / cfg["outputs"]["summary_json"]).read_text())
            with open(out / cfg["outputs"]["trace_csv"], newline="") as fh:
                rows = list(csv.DictReader(fh))
            runs.append((summary, rows))
        (plain, plain_rows), (scaled, scaled_rows) = runs
        assert (scaled["stop_reason"], scaled["iters"]) == (plain["stop_reason"], plain["iters"])
        assert (plain["stop_reason"], plain["iters"]) == ("max_iters", 200)
        for key in ("final_error", "residual_at_limit"):
            assert scaled[key] == math.ldexp(plain[key], k)
        assert len(scaled_rows) == len(plain_rows) == 200
        for row, plain_row in zip(scaled_rows, plain_rows):
            for key in ("error_norm", "residual_dW"):
                assert float(row[key]) == math.ldexp(float(plain_row[key]), k)


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

    def test_nu2_must_be_a_number(self):
        # True used to run as nu2 = 1
        with pytest.raises(ValueError, match="nu2 must be a number"):
            cli.overrelaxation_study(True, [1.0], seed=0)

    @pytest.mark.parametrize("nu2, alpha", [(0.5, 4.0), (1.0, 2.0)])
    def test_boundary_is_not_converged(self, nu2, alpha):
        # alpha nu2 = 2: classify reads "ambiguous" (with nu2 = 0.5 the
        # computed s^2 is a few ulp above 0.5, so the error grows by
        # 1 + 2e-15 a step, which is rounding), and the run does not converge
        row, = cli.overrelaxation_study(nu2, [alpha], seed=1)
        assert row["verdict"] == "not-converged"

    def test_diverged_is_decided_before_the_cap(self):
        # the error grows by 1.00005 a step, 1.005-fold in 100 steps, far
        # below the divergence cap, yet the class decides the verdict
        row, = cli.overrelaxation_study(0.5, [4.0001], seed=1, max_iters=100)
        assert row["verdict"] == "diverged"
        assert (row["trace"].stop_reason, row["trace"].n_steps) == ("max_iters", 100)

    def test_null_space_sine_is_not_diverged(self):
        # nu2 = 1e-30 leaves a sine of rounding below the null-space cutoff:
        # the limit keeps u0, so the run converges at step 0, and classify is
        # not asked about a sine the engine treats as zero
        row, = cli.overrelaxation_study(1e-30, [1e40], seed=1, max_iters=50)
        assert (row["trace"].stop_reason, row["trace"].n_steps) == ("converged", 0)
        assert row["verdict"] == "converged"

    @property_settings(60)
    @given(st.floats(0.0, 1.0, exclude_min=True), st.integers(0, 2 ** 31 - 1),
           st.integers(1, 20), st.one_of(st.floats(0.0, 10.0),
                                         st.integers(-256, 256).map(lambda k: 2 * (1 + k * EPS))))
    def test_diverged_exactly_outside_the_class(self, nu2, seed, horizon, target):
        # s^2 is the squared kept sine of the study's geometry, built here
        # again; alpha s^2 is drawn near the boundary 2 or anywhere in
        # [0, 10]; a tiny nu2 can leave a sine at or below the null-space
        # cutoff, which keeps every alpha in the class
        phi = math.asin(math.sqrt(nu2))
        s2 = build(canonicalize(problems.controlled_angle_geometry(
            [phi], offset_norm=0.5, rotation_seed=seed))).reduced_min_modulus ** 2
        alpha = target / s2 if s2 else target
        row, = cli.overrelaxation_study(nu2, [alpha], seed, max_iters=horizon)
        if alpha * s2 >= 2 * (1 + 64 * EPS):
            assert row["verdict"] == "diverged"
        if alpha * s2 <= 2 * (1 - 64 * EPS):
            assert row["verdict"] != "diverged"


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

    @property_settings(60)
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

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_subnormal_coefficient_loses_no_bits(self, n):
        # every alpha sigma_i^2 is subnormal, so the iterate is n alpha
        # sigma_i w_i to a relative alpha sigma_i^2; the closed form and the
        # step-by-step reference both give that product rounded once where
        # sigma_i = 1 / i is a power of two (p = 1, r = 0, so w_i = 1)
        alpha, keep = 2.2250738585e-313, [0, 1, 3, 7]
        want = [float(n * Fraction(alpha) / (j + 1)) for j in keep]
        sched = Schedule.constant(alpha)
        assert run_diagonal_landweber(1.0, 0.0, 8, sched, n)[keep].tolist() == want
        assert diagonal_landweber_reference(1.0, 0.0, 8, sched, n)[keep].tolist() == want

    @pytest.mark.parametrize("kind", ["constant", "cyclic", "explicit", "random-uniform"])
    def test_one_pass_matches_per_dimension_runs(self, monkeypatch, kind):
        # the pass runs once, to the largest dimension; each row's norm is
        # that of the iterate filtered at its own dimension, in input order
        p, r, n, dims = 1.0, 0.6, 60, [1000, 10, 1000, 100]
        sched = _sweep_schedule(kind, n)
        monkeypatch.setattr(cli, "Schedule", SimpleNamespace(constant=lambda alpha: sched))
        calls = []

        def counted(*args):
            calls.append(max(args[2]))
            return truncation_norms(*args)

        monkeypatch.setattr(cli.problems, "truncation_norms", counted)
        rows = cli.truncation_study(p, r, dims, max_iters=n)
        assert calls == [1000]
        assert [row["d"] for row in rows] == dims
        assert [row["iters"] for row in rows] == [n] * len(dims)
        assert [row["limit_norm"] for row in rows] == \
            diagonal_truncation_norms(p, r, dims).tolist()
        for row, d in zip(rows, dims):
            expected = np.linalg.norm(run_diagonal_landweber(p, r, d, sched, n))
            assert row["iterate_norm"] == pytest.approx(expected, rel=1e-12, abs=0)


    @pytest.mark.parametrize("p, r", [(1.0, 0.6), (1.0, 1.5), (0.5, 1.0), (2.0, 0.3)])
    def test_norms_are_within_3_ulp_of_exact_sums(self, p, r):
        # against the correctly rounded sum of the same float components
        dims = [10 ** 5, 10 ** 3, 10 ** 4]
        rows = cli.truncation_study(p, r, dims)
        squares = np.square(run_diagonal_landweber(p, r, max(dims), Schedule.constant(1.0), 2000))
        terms = np.arange(1, max(dims) + 1, dtype=float) ** (2.0 * (p - r))
        for row, d in zip(rows, dims):
            for key, parts in (("iterate_norm", squares), ("limit_norm", terms)):
                exact = math.sqrt(math.fsum(parts[:d].tolist()))
                assert abs(row[key] - exact) <= 3 * np.spacing(exact), (key, d)

    @pytest.mark.parametrize("d", [LANDWEBER_BLOCK - 1, LANDWEBER_BLOCK, LANDWEBER_BLOCK + 1,
                                   2 * LANDWEBER_BLOCK + 1])
    @pytest.mark.parametrize("kind", ["constant", "cyclic", "explicit", "random-uniform"])
    def test_blocks_match_step_by_step_iteration_at_block_edges(self, kind, d):
        n = 60
        sched = _sweep_schedule(kind, n)
        u = run_diagonal_landweber(1.0, 0.6, d, sched, n)
        assert u.shape == (d,)
        np.testing.assert_allclose(u, diagonal_landweber_reference(1.0, 0.6, d, sched, n),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ["constant", "cyclic", "explicit", "random-uniform"])
    def test_segment_ends_at_block_edges(self, kind):
        # segments that end just before, at and just after a block's end, and
        # one that spans two blocks, given unsorted and repeated
        p, r, n, b = 1.0, 0.6, 60, LANDWEBER_BLOCK
        dims = [2 * b + 1, b, b - 1, b + 1, b, 2 * b + 1, b - 1]
        sched = _sweep_schedule(kind, n)
        limit_norms, iterate_norms = truncation_norms(p, r, dims, sched, n)
        terms = np.arange(1, 2 * b + 2, dtype=float) ** (2.0 * (p - r))
        for d, limit_norm, iterate_norm in zip(dims, limit_norms, iterate_norms):
            expected = np.linalg.norm(run_diagonal_landweber(p, r, d, sched, n))
            assert iterate_norm == pytest.approx(expected, rel=1e-12, abs=0), d
            # the norm within 5e-16 relative is its square within 1e-15
            assert limit_norm == pytest.approx(math.sqrt(math.fsum(terms[:d].tolist())),
                                               rel=5e-16), d

    def test_study_holds_no_array_of_the_dimension(self):
        # 10**6 float64 values take 7.6 MiB; the pass keeps a few blocks
        tracemalloc.start()
        try:
            rows = cli.truncation_study(1.0, 0.6, [10 ** 6, 10 ** 3], max_iters=200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row["d"] for row in rows] == [10 ** 6, 10 ** 3]
        assert peak < 2 ** 20, f"peak {peak} B"

    def test_study_memory_does_not_grow_with_the_horizon(self):
        # a constant schedule is one run, whatever its length: 10**6 steps
        # drawn one by one would take 7.6 MiB
        tracemalloc.start()
        try:
            rows = cli.truncation_study(1.0, 0.6, [10], max_iters=10 ** 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row["iters"] for row in rows] == [10 ** 6]
        assert peak < 2 ** 20, f"peak {peak} B"

    def test_billion_step_horizon(self, monkeypatch, capsys):
        # no term is drawn, so the horizon costs neither memory nor time;
        # at d = 10 every component has converged
        def refuse(self, n):
            raise AssertionError(f"drew {n} terms")

        monkeypatch.setattr(Schedule, "alphas", refuse)
        assert cli.main(["truncate", "--p", "1", "--r", "0.6", "--dims", "10,100000",
                         "--max-iters", "1000000000"]) == 0
        out, err = capsys.readouterr()
        rows = cli.truncation_study(1.0, 0.6, [10, 10 ** 5], max_iters=10 ** 9)
        assert out.splitlines() == [
            f"d={row['d']} limit_norm={row['limit_norm']:.6g} iterate_norm={row['iterate_norm']:.6g}"
            for row in rows]
        assert err == ""
        assert rows[0]["iterate_norm"] == pytest.approx(rows[0]["limit_norm"], rel=1e-15)

    def test_iterate_norm_whose_squares_underflow(self):
        # components from 1.25e-306 to 5e-300, whose squares all fall below
        # the smallest normal float
        sched = Schedule.constant(1e-300)
        u = run_diagonal_landweber(3.0, -1.0, 2000, sched, 5)
        (row,) = cli.truncation_study(3.0, -1.0, [2000], alpha=1e-300, max_iters=5)
        assert row["iterate_norm"] == pytest.approx(math.hypot(*u.tolist()), rel=1e-12, abs=0)
        assert row["iterate_norm"] == pytest.approx(5.2017382519440e-300, rel=1e-12)

    def test_limit_norm_whose_squares_overflow(self, capsys):
        # w_i / sigma_i = i^100 up to 1e200: a representable norm whose
        # squares overflow
        assert cli.main(["truncate", "--p", "1", "--r", "-99", "--dims", "100",
                         "--max-iters", "5"]) == 0
        (row,) = cli.truncation_study(1.0, -99.0, [100], max_iters=5)
        exact = float(math.isqrt(sum(i ** 200 for i in range(1, 101))))  # integers
        assert row["limit_norm"] == pytest.approx(exact, rel=1e-12)
        assert capsys.readouterr().out.startswith("d=100 limit_norm=1.07432e+200 ")

    def test_iterate_whose_ratios_square_beyond_the_float_range(self):
        # w_i / sigma_i = i^100 is a float, but from i = 35 on its square is
        # not, so the closed form must not pass through the square
        sched = Schedule.constant(1.0)
        u = run_diagonal_landweber(1.0, -99.0, 100, sched, 5)
        assert np.all(np.isfinite(u))
        np.testing.assert_allclose(u, diagonal_landweber_reference(1.0, -99.0, 100, sched, 5),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("p, r, d, alpha, n", [(100, -110, 30, 1.0, 5),
                                                   (1, -200, 40, 1.6e-12, 1),
                                                   (1, -200, 40, 1e-310, 1),
                                                   (1, -400, 10, 1.0, 0)])
    def test_iterate_whose_ratios_overflow(self, p, r, d, alpha, n):
        # w_i / sigma_i = i^(p-r) is not a float for the last entries (the
        # last one, i = 30, in the first case; i = 35 .. 40 in the second
        # and third; i = 6 .. 10 in the fourth), but u_i = (1 - F_n) i^(p-r),
        # up to 5 * 30^10, 1.0329e307, 6.4556e8 and 0, is. In the last two
        # A sigma^2 is subnormal or 0, and A sigma_i w_i = A i^(-(p+r))
        # passes through a power that overflows. Each u_i is within 2 ulp of
        # the exact value, as the entries whose ratio is a float are
        u = run_diagonal_landweber(p, r, d, Schedule.constant(alpha), n)
        for i, got in enumerate(u.tolist(), start=1):
            exact = (1 - (1 - Fraction(alpha) / i ** (2 * p)) ** n) * i ** (p - r)
            assert math.isfinite(got) and \
                abs(Fraction(got) - exact) <= 2 * Fraction(np.spacing(float(exact))), i

    # The three tests below rely on pyproject.toml's filter, which makes any
    # warning an error: an overflow that the pass mends must not warn.
    def test_mended_power_gives_no_warning(self):
        # w_i / sigma_i = i^201 overflows from i = 35 on, so u_i, the step
        # factor A / i^2 times it, is formed by two half powers there;
        # u_40 = 1.6e-12 * 40^199 is a float
        u = run_diagonal_landweber(1, -200, 40, Schedule.constant(1.6e-12), 1)
        assert u[-1] == pytest.approx(1.6e-12 * 40.0 ** 99 * 40.0 ** 100, rel=1e-13)

    def test_limit_norm_whose_squares_overflow_gives_no_warning(self):
        # the squares of i^100 overflow from i = 35 on; their norm does not
        (norm,) = diagonal_truncation_norms(1, -99, [100])
        exact = float(math.isqrt(sum(i ** 200 for i in range(1, 101))))
        assert norm == pytest.approx(exact, rel=1e-12)

    def test_zero_step_iterate_whose_powers_overflow_is_zero(self):
        # no step: A = 0, and A i^1999 is 0 although i^1999 overflows from
        # i = 3 on; it once came out as 0 * inf * inf, NaN
        u = run_diagonal_landweber(1, -2000, 3, Schedule.constant(1.0), 0)
        assert u.tolist() == [0.0, 0.0, 0.0]

    def test_coefficients_are_drawn_once(self, monkeypatch):
        # once per study, not once per block of the iterate
        calls = []
        runs = Schedule.runs

        def counted(self, n):
            calls.append(n)
            return runs(self, n)

        monkeypatch.setattr(Schedule, "runs", counted)
        rows = cli.truncation_study(1.0, 0.6, [10, 3 * LANDWEBER_BLOCK], max_iters=50)
        assert calls == [50]
        assert len(rows) == 2


# The diagonal family's three entry points, on (p, r, d, max_iters);
# diagonal_truncation_norms takes no horizon. The pass is keyed by its
# earlier name, truncation_sums, which the test ids keep.
DIAGONAL_ENTRY_POINTS = {
    "truncation_sums": lambda p, r, d, n: truncation_norms(p, r, [d], Schedule.constant(1.0), n),
    "run_diagonal_landweber":
        lambda p, r, d, n: run_diagonal_landweber(p, r, d, Schedule.constant(1.0), n),
    "diagonal_truncation_norms": lambda p, r, d, n: diagonal_truncation_norms(p, r, [d]),
}
BIG = 10 ** 6  # 7.6 MiB as one float64 array
BAD_DIAGONAL_INPUT = [
    # the first three used to run: a 2-step iterate, 2 components, and NaNs
    (1.0, 0.6, BIG, 2.5, "max_iters must be a nonnegative integer, got 2.5"),
    (1.0, 0.6, 2.5, 3, "dimensions must be positive integers below 2 ** 53, got [2.5]"),
    (math.nan, 0.6, BIG, 3, "p must be finite and positive, got nan"),
    (math.inf, 0.6, BIG, 3, "p must be finite and positive, got inf"),
    (-1.0, 0.6, BIG, 3, "p must be finite and positive, got -1.0"),
    (1.0, math.nan, BIG, 3, "r must be finite, got nan"),
    (1.0, 0.6, 0, 3, "dimensions must be positive integers below 2 ** 53, got [0]"),
    (1.0, 0.6, 2 ** 53, 3, "dimensions must be positive integers below 2 ** 53"),
    (True, 0.6, BIG, 3, "p must be a number, got True"),
    (1.0, 0.6, BIG, True, "max_iters must be a nonnegative integer, got True"),
    (1.0, 0.6, BIG, -1, "max_iters must be a nonnegative integer, got -1"),
]


@pytest.mark.parametrize("entry, p, r, d, n, message", [
    (entry, *case) for entry in DIAGONAL_ENTRY_POINTS for case in BAD_DIAGONAL_INPUT
    if entry != "diagonal_truncation_norms" or case[3] == 3])
def test_diagonal_family_refuses_bad_input(entry, p, r, d, n, message):
    # with the same message at each entry point, before any array of length d exists
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape(message)):
            DIAGONAL_ENTRY_POINTS[entry](p, r, d, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, f"peak {peak} B"


@pytest.mark.parametrize("kwargs, message", [
    ({"angles": [math.nan]}, "angles must lie in [0, pi/2]"),
    ({"angles": [0.5, math.nan]}, "angles must lie in [0, pi/2]"),
    ({"angles": [0.5], "offset_norm": math.nan}, "offset_norm must be finite, got nan"),
    ({"angles": [0.5], "offset_norm": math.inf}, "offset_norm must be finite, got inf"),
    ({"angles": [0.5], "offset_norm": -math.inf}, "offset_norm must be finite, got -inf"),
], ids=["nan-angle", "nan-second-angle", "nan-offset", "inf-offset", "minus-inf-offset"])
def test_controlled_angle_geometry_names_a_bad_angle_or_offset(kwargs, message):
    # NaN compares false, so the range check must fail on it; both are named,
    # not refused later as non-finite entries of a matrix or a point
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        problems.controlled_angle_geometry(**kwargs)


@pytest.mark.parametrize("entry", list(DIAGONAL_ENTRY_POINTS))
def test_diagonal_family_checks_its_input_once(monkeypatch, entry):
    calls = []
    gate = problems._diagonal_gate
    monkeypatch.setattr(problems, "_diagonal_gate",
                        lambda *args: calls.append(args) or gate(*args))
    DIAGONAL_ENTRY_POINTS[entry](1.0, 0.6, 100, 3)
    assert len(calls) == 1


def _sweep_schedule(kind, n):
    """A schedule of *kind* whose first *n* coefficients reach 1.9."""
    return {"constant": Schedule.constant(1.3),
            "cyclic": Schedule.cyclic([0.5, 1.9, 1.2]),
            "explicit": Schedule.explicit(np.linspace(0.2, 1.9, n)),
            "random-uniform": Schedule.random_uniform(0.1, 1.9, seed=7)}[kind]


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


# A valid value of every field that each type of a section reads, and the
# numeric top-level fields; the boolean rows are generated from them.
GEOMETRY_FIELDS = {
    "explicit": {"u_span": [[1, 0, 0], [0, 1, 1]], "w_span": [[0, 1, 0]],
                 "u_point": [0, 0, 2], "w_point": [0, 0, 1]},
    "random": {"dim": 6, "dim_u": 2, "dim_w": 3, "seed": 3, "offset_scale": 2, "shared_dims": 1},
    "controlled_angle": {"angles_deg": [30, 60], "offset_norm": 0.5, "extra_dims": 1,
                         "rotation_seed": 2},
}
U0_FIELDS = {"zero": {}, "explicit": {"value": [1, 0, 0]}, "random": {"seed": 1, "scale": 2}}
TOP_FIELDS = {"max_iters": 100, "conv_tol": 1e-10}
# (section, fields): every type of each section with all its fields set,
# and the top-level fields, whose section is None
FULL_SECTIONS = [
    *(("geometry", {"type": kind, **fields}) for kind, fields in GEOMETRY_FIELDS.items()),
    *(("u0", {"type": kind, **fields}) for kind, fields in U0_FIELDS.items()),
    (None, TOP_FIELDS),
]


def _sections(section, fields):
    """The scenario update that sets *fields* in *section*, or at the top level."""
    return {section: fields} if section else fields


def _with_true(value):
    """*value* with True in its place, or in place of the first number of a list."""
    return [_with_true(value[0]), *value[1:]] if isinstance(value, list) else True


FULL_ROWS = [pytest.param(_sections(section, fields), id=f"{section}-{fields['type']}"
                          if section else "top") for section, fields in FULL_SECTIONS]
# one row per numeric field: a full section with True in that field
BOOLEAN_ROWS = [
    pytest.param(_sections(section, {**fields, key: _with_true(value)}),
                 id="-".join(filter(None, (section, fields.get("type"), key))))
    for section, fields in FULL_SECTIONS for key, value in fields.items() if key != "type"]


class TestScenarioSections:
    """Every section rejects a key it does not read, a fractional value of
    an integer field, a string or a boolean where a number belongs, and a
    value out of its range, with exit 2 and no output written."""

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
        ({"type": "controlled_angle", "angles_deg": [30], "offset_norm": "0.7"},
         "error: offset_norm must be a number, got '0.7'"),
        ({"type": "controlled_angle", "angles_deg": ["30"]},
         "error: angles_deg must hold only numbers"),
        ({"type": "controlled_angle", "angles_deg": [True]},
         "error: angles_deg must hold only numbers"),
        ({"type": "controlled_angle", "angles_deg": [30, True]},
         "error: angles_deg must hold only numbers"),
        ({"type": "explicit", "u_span": [["1", "0", "0"]], "w_span": [[0, 1, 0]]},
         "error: u_span must hold only numbers"),
        ({"type": "controlled_angle", "angles_deg": [120]}, "error: angles must lie in [0, pi/2]"),
        ({**RANDOM_GEOMETRY, "shared_dims": 3},
         "error: shared_dims cannot exceed either subspace dimension"),
        ({"type": "sphere"}, "error: unknown geometry type 'sphere'"),
        # numpy made the list a number array, which hid the boolean, so these ran
        ({"type": "explicit", "u_span": [[True, 0, 0]], "w_span": [[0, 1, 0]],
          "w_point": [0, 0, 1]}, "error: u_span must hold only numbers"),
        ({"type": "explicit", "u_span": [[1, 0, 0]], "w_span": [[0, True, 0]],
          "w_point": [0, 0, 1]}, "error: w_span must hold only numbers"),
    ])
    def test_geometry(self, tmp_path, capsys, geometry, message):
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(geometry=geometry))
        assert (rc, captured.out, written) == (2, "", [])
        assert message in captured.err

    @pytest.mark.parametrize("u0, message", [
        ({"type": "zero", "seeed": 3}, "unknown u0 keys: seeed"),
        ({"type": "explicit", "value": [1, 0, 0], "scale": 2.0}, "unknown u0 keys: scale"),
        ({"type": "random", "seed": 2.5}, "seed must be a nonnegative integer, got 2.5"),
        ({"type": "random", "seed": 1, "scale": "2"}, "error: scale must be a number, got '2'"),
        ({"type": "explicit", "value": ["1", "0", "0"]}, "error: u0 must hold only numbers"),
        ({"type": "explicit", "value": [[1, 0, 0]]},
         "error: u0 must be 1-dimensional, got shape (1, 3)"),
        ({"type": "explicit", "value": [1, float("nan"), 0]},
         "error: u0 contains non-finite entries"),
        ({"type": "uniform"}, "error: unknown u0 type 'uniform'"),
        ({"type": "random"}, "error: random u0 requires a seed"),
    ])
    def test_u0(self, tmp_path, capsys, u0, message):
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(u0=u0))
        assert (rc, captured.out, written) == (2, "", [])
        assert message in captured.err

    @pytest.mark.parametrize("schedule, message", [
        ({"kind": "random-uniform", "lo": 0.5, "hi": 1.5, "seed": 3.9},
         "seed must be a nonnegative integer, got 3.9"),
        ({"kind": "harmonic-to-2", "offset": 1.5}, "offset must be a nonnegative integer, got 1.5"),
        ({"kind": "constant", "value": "1.0"}, "error: value must be a number, got '1.0'"),
        ({"kind": "constant", "value": True}, "error: value must be a number, got True"),
        ({"kind": "cyclic", "values": ["1.0", "0.5"]}, "error: values must be a number, got '1.0'"),
        # used to fail comparing a string, with a TypeError's text
        ({"kind": "geometric-to-2", "gap": "1.0"}, "error: gap must be a number, got '1.0'"),
        ({"kind": "cyclic", "values": []},
         "error: cyclic schedule needs a nonempty list of values"),
        ({"kind": "geometric-to-2", "gap": 3.0}, "error: gap must be in (0, 2]"),
        ({"kind": "geometric-to-2", "ratio": 1.0}, "error: ratio must be in (0, 1)"),
        ({"kind": "random-uniform", "lo": 1.5, "hi": 0.5, "seed": 1}, "error: need 0 <= lo <= hi"),
        ({"kind": "constant", "valeu": 1.0}, "error: bad parameters for schedule kind 'constant'"),
    ])
    def test_schedule(self, tmp_path, capsys, schedule, message):
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(schedule=schedule))
        assert (rc, captured.out, written) == (2, "", [])
        assert message in captured.err

    @pytest.mark.parametrize("key, value", [
        ("conv_tol", "1e-3"), ("conv_tol", True),
    ])
    def test_number_field(self, tmp_path, capsys, key, value):
        # float() reads a string or a boolean, so each used to run
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(**{key: value}))
        assert (rc, captured.out, written) == (2, "", [])
        assert captured.err == f"error: {key} must be a number, got {value!r}\n"

    @pytest.mark.parametrize("outputs, message", [
        ({"sumary_json": "x.json"}, "unknown outputs keys: sumary_json"),
        ({"trace_csv": "t.csv", "summary_json": 5}, "outputs must be file names"),
        # the summary used to overwrite the trace silently
        ({"trace_csv": "x.out", "summary_json": "x.out"},
         "outputs must have distinct file names, got 'x.out' twice"),
    ])
    def test_outputs(self, tmp_path, capsys, outputs, message):
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(outputs=outputs))
        assert (rc, captured.out, written) == (2, "", [])
        assert message in captured.err

    @pytest.mark.parametrize("key", cli.OUTPUT_KEYS)
    @pytest.mark.parametrize("name", ["sub/out.txt", "ABSOLUTE", "", ".", ".."])
    def test_output_that_is_not_a_file_name(self, tmp_path, monkeypatch, capsys, key, name):
        # rejected before the run: no computation, and nothing written, not
        # even into a directory part that exists
        def refuse(*args, **kwargs):
            raise AssertionError("the run started before its outputs were checked")

        monkeypatch.setattr(cli, "canonicalize", refuse)
        out_dir = tmp_path / "out"
        (out_dir / "sub").mkdir(parents=True)
        if name == "ABSOLUTE":
            name = str(tmp_path / "out.txt")
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.scenario(outputs={key: name})))
        rc = cli.main(["run", str(path), "--out-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert f"error: outputs must be file names, got {name!r}" in captured.err
        assert [f for f in tmp_path.rglob("*") if f.is_file()] == [path]

    @pytest.mark.parametrize("section, value", [
        ("geometry", [1, 0, 0]), ("u0", []), ("outputs", "summary.json"),
    ])
    def test_section_that_is_not_an_object(self, tmp_path, capsys, section, value):
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(**{section: value}))
        assert (rc, captured.out, written) == (2, "", [])
        assert f"{section} must be a JSON object" in captured.err

    def test_boolean_rows_cover_every_field(self):
        assert {kind: set(fields) for kind, fields in GEOMETRY_FIELDS.items()} == \
            {kind: set(keys) for kind, keys in problems.GEOMETRY_KEYS.items()}
        assert {kind: set(fields) for kind, fields in U0_FIELDS.items()} == \
            {kind: set(keys) for kind, keys in cli.U0_KEYS.items()}
        assert set(TOP_FIELDS) < cli.SCENARIO_KEYS

    @pytest.mark.parametrize("sections", FULL_ROWS)
    def test_full_sections_run(self, tmp_path, capsys, sections):
        # so that a boolean row fails for its boolean alone
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(**sections))
        assert (rc, captured.err) == (0, "")

    @pytest.mark.parametrize("sections", BOOLEAN_ROWS)
    def test_boolean_in_a_numeric_field(self, tmp_path, capsys, sections):
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(**sections))
        assert (rc, captured.out, written) == (2, "", [])
        assert re.fullmatch(r"error: \w+ must (be a number|be a nonnegative integer"
                            r"|hold only numbers)(, got True)?\n", captured.err), captured.err

    def test_boolean_version(self, tmp_path, capsys):
        # True == 1 in Python, so it used to run as version 1
        rc, captured, written = _run_config(tmp_path, capsys, self.scenario(version=True))
        assert (rc, captured.out, written) == (2, "", [])
        assert captured.err == "error: scenario version must be 1\n"

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


@pytest.fixture
def refuse_work(monkeypatch):
    """Make every verb's first computation fail the test, so that a check
    meant to come before any work is seen to."""
    def refuse(*args, **kwargs):
        raise AssertionError("computation started before the outputs were checked")

    for holder, attr in [(cli, "canonicalize"), (cli, "build"),
                         (problems, "run_diagonal_landweber"),
                         (problems, "diagonal_truncation_norms"),
                         (problems, "truncation_norms")]:
        monkeypatch.setattr(holder, attr, refuse)


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

    @pytest.mark.parametrize("verb", ["overrelax", "truncate"])
    def test_study_csv_is_what_csv_writer_writes(self, tmp_path, capsys, verb):
        out_csv = tmp_path / "study.csv"
        if verb == "overrelax":
            argv = ["--nu2", "0.5", "--alphas", "0,1.0,2.0,4.2", "--seed", "3"]
            rows = cli.overrelaxation_study(0.5, [0.0, 1.0, 2.0, 4.2], 3)
            columns = ["alpha", "alpha_nu2", "verdict", "empirical_rate", "rho_alpha"]
        else:
            argv = ["--p", "1.0", "--r", "0.6", "--dims", "10,100,1000", "--max-iters", "50"]
            rows = cli.truncation_study(1.0, 0.6, [10, 100, 1000], max_iters=50)
            columns = ["d", "limit_norm", "iterate_norm", "iters"]
        assert cli.main([verb, *argv, "--out", str(out_csv)]) == 0
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(columns)
            for row in rows:
                writer.writerow([cli._fmt(row[c]) if isinstance(row[c], float) else row[c]
                                 for c in columns])
        assert out_csv.read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("key", cli.OUTPUT_KEYS)
    def test_missing_out_dir_gives_config_exit(self, tmp_path, capsys, refuse_work, key):
        # checked before the run: it used to compute the whole iteration first
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["outputs"] = {key: "out.txt"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "missing" / "out.txt"
        assert cli.main(["run", str(path), "--out-dir", str(out.parent)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("verb, argv", [
        ("overrelax", ["--nu2", "0.5", "--alphas", "1.0", "--seed", "3"]),
        ("truncate", ["--p", "1.0", "--r", "0.6", "--dims", "10"]),
    ])
    def test_unwritable_study_csv_gives_config_exit(self, tmp_path, capsys, refuse_work,
                                                    verb, argv):
        out_csv = tmp_path / "no" / "such" / "dir" / "study.csv"
        assert cli.main([verb, *argv, "--out", str(out_csv)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out_csv}: ")

    @pytest.mark.parametrize("key", cli.OUTPUT_KEYS)
    def test_output_that_is_a_directory_gives_config_exit(self, tmp_path, capsys, refuse_work,
                                                          key):
        # a name that is a directory in --out-dir is refused before the run
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["outputs"] = {key: "sub"}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "sub"
        out.mkdir()
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")

    @pytest.mark.parametrize("verb, argv", [
        ("overrelax", ["--nu2", "0.5", "--alphas", "1.0", "--seed", "3"]),
        ("truncate", ["--p", "1.0", "--r", "0.6", "--dims", "10"]),
    ])
    def test_study_csv_that_is_a_directory_gives_config_exit(self, tmp_path, capsys,
                                                              refuse_work, verb, argv):
        assert cli.main([verb, *argv, "--out", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {tmp_path}: ")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs a full device")
    def test_failed_write_gives_config_exit(self, capsys):
        # the file opens, and the write fails when it is flushed
        argv = ["truncate", "--p", "1.0", "--r", "0.6", "--dims", "10", "--out", "/dev/full"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write /dev/full: ")

    def test_check_schedule_verb(self, tmp_path, capsys):
        sched_file = tmp_path / "sched.json"
        sched_file.write_text(json.dumps({"kind": "constant", "value": 1.0}))
        rc = cli.main(["check-schedule", str(sched_file), "--mu", "1.0"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "diverges"

    @pytest.mark.parametrize("schedule, message", [
        ({"kind": "mystery"}, "error: unknown schedule kind 'mystery'\n"),
        # an array used to end in a TypeError traceback (exit 1), and a
        # string in the text of dict()'s error
        ([1, 2], "error: a schedule must be a JSON object\n"),
        ("x", "error: a schedule must be a JSON object\n"),
    ], ids=["unknown-kind", "array", "string"])
    def test_bad_schedule_file_gives_config_exit(self, tmp_path, capsys, schedule, message):
        sched_file = tmp_path / "sched.json"
        sched_file.write_text(json.dumps(schedule))
        assert cli.main(["check-schedule", str(sched_file), "--mu", "1.0"]) == 2
        assert capsys.readouterr() == ("", message)

    @pytest.mark.parametrize("value", ["1e-3", "not-a-number"])
    def test_run_reads_no_tolerance_variable(self, tmp_path, monkeypatch, capsys, value):
        # ALTPROJ_TOL once set the rank cutoff, which no scenario records: at
        # 1e-3 it cut U's span (singular values ~1.4 and ~7e-7) to a line 1/2
        # from W, and a value that is not a number made every verb exit 2
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({
            "version": 1,
            "geometry": {"type": "explicit", "u_span": [[1, 0, 0], [1, 1e-6, 0]],
                         "w_span": [[0, 0, 1]], "w_point": [0, 0.5, 0]},
            "schedule": {"kind": "constant", "value": 1.0},
            "outputs": {"trace_csv": "trace.csv", "summary_json": "summary.json"}}))
        outputs = []
        for setting in (None, value):
            if setting is not None:
                monkeypatch.setenv("ALTPROJ_TOL", setting)
            out = tmp_path / f"out{len(outputs)}"
            out.mkdir()
            rc = cli.main(["run", str(path), "--out-dir", str(out)])
            files = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
            outputs.append((rc, capsys.readouterr(), files))
        assert outputs[0][0] == 0 and len(outputs[0][2]) == 2
        assert json.loads(outputs[0][1].out)["residual_at_limit"] <= EPS  # U is a plane
        assert outputs[1] == outputs[0]

    def test_scenario_that_is_not_json_gives_config_exit(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text('{"version": 1,')
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} is not valid JSON: ")

    @pytest.mark.parametrize("value", ["50", "nan", "inf"])
    def test_growth_threshold_is_an_unknown_option(self, tmp_path, capsys, value):
        # the verdict is a theorem's, with no threshold to set; the value,
        # finite or not, is never read
        sched_file = tmp_path / "sched.json"
        sched_file.write_text(json.dumps({"kind": "constant", "value": 1.0}))
        argv = ["check-schedule", str(sched_file), "--mu", "1", "--growth-threshold", value]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: unknown option --growth-threshold",
                                             cli._usage("check-schedule")]

    def test_check_schedule_billion_step_horizon(self, tmp_path, monkeypatch, capsys):
        # a constant schedule is one run: no term is drawn
        def refuse(self, n):
            raise AssertionError(f"drew {n} terms")

        monkeypatch.setattr(Schedule, "alphas", refuse)
        sched_file = tmp_path / "sched.json"
        sched_file.write_text(json.dumps({"kind": "constant", "value": 1.0}))
        argv = ["check-schedule", str(sched_file), "--mu", "1", "--horizon", "1000000000"]
        assert cli.main(argv) == 0
        assert json.loads(capsys.readouterr().out) == {
            "verdict": "diverges", "first_violation": None, "partial_sum": 1e9,
            "in_box": True, "box_eps": 1.0, "violations": 0, "scaled_by": 1.0}

    def test_check_schedule_cyclic_billion_step_horizon(self, tmp_path, monkeypatch, capsys):
        # a cyclic schedule is diagnosed over one period: no term is drawn,
        # and the memory does not grow with the horizon (229 MiB at 10^7
        # when every term was)
        def refuse(self, n):
            raise AssertionError(f"drew {n} terms")

        monkeypatch.setattr(Schedule, "alphas", refuse)
        sched_file = tmp_path / "sched.json"
        sched_file.write_text(json.dumps({"kind": "cyclic", "values": [0.5, 1.5]}))
        argv = ["check-schedule", str(sched_file), "--mu", "1", "--horizon", "1000000001"]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert json.loads(capsys.readouterr().out) == {
            "verdict": "diverges", "first_violation": None, "partial_sum": 750000000.75,
            "in_box": True, "box_eps": 0.5, "violations": 0, "scaled_by": 1.0}

    def test_check_schedule_horizon_below_one_gives_config_exit(self, tmp_path, capsys):
        sched_file = tmp_path / "sched.json"
        sched_file.write_text(json.dumps({"kind": "constant", "value": 1.0}))
        assert cli.main(["check-schedule", str(sched_file), "--mu", "1", "--horizon", "0"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: horizon must be at least 1\n")

    def test_unknown_scenario_key_gives_config_exit(self, tmp_path, capsys):
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["max_iter"] = 3  # typo for max_iters
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "unknown scenario keys: max_iter" in capsys.readouterr().err

    def test_overflowing_iterate_gives_numerical_exit(self, tmp_path, capsys):
        # the first step multiplies the error, 1e10, by 1 - 1e308 / 4; from
        # u0 = e1 the product is finite, 2.5e307, and the run stops as
        # "diverged": only its square overflowed, which once exited 3
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["schedule"] = {"kind": "constant", "value": 1e308}
        cfg["u0"] = {"type": "explicit", "value": [1e10, 0, 0]}
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 3
        assert "non-finite error norm or residual at step 1" in capsys.readouterr().err

    def test_overflowing_squares_give_only_the_named_failure(self, tmp_path, capsys):
        # the data are finite, but the distance between the two parallel
        # lines, 2.1e308, is not a float; numpy's overflow warnings stay off
        # stderr, which names the failure alone. Data whose squares overflow
        # while their lengths do not run (test_lengths_whose_squares_...)
        geometry = {"type": "explicit", "u_span": [[1, 0, 0]], "w_span": [[1, 0, 0]],
                    "w_point": [0, 1.5e308, 1.5e308]}
        rc, captured, _ = _run_config(tmp_path, capsys, {
            "version": 1, "geometry": geometry, "schedule": {"kind": "constant", "value": 1.0}})
        assert rc == 3
        assert captured == ("", "numerical failure: non-finite error norm or residual at step 0\n")

    def test_overflowing_truncate_iterate_gives_numerical_exit(self, tmp_path, capsys):
        # alpha sigma_1^2 = 3, so the first component grows as 2^n; it used
        # to print numpy's overflow warnings and iterate_norm=inf with exit 0
        out_csv = tmp_path / "trunc.csv"
        rc = cli.main(["truncate", "--p", "1", "--r", "0.6", "--dims", "10", "--alpha", "3",
                       "--max-iters", "2000", "--out", str(out_csv)])
        assert rc == 3
        assert capsys.readouterr() == ("", "numerical failure: non-finite iterate_norm at d=10\n")
        assert not out_csv.exists()

    def test_non_finite_diagnosis_gives_numerical_exit(self, tmp_path, capsys):
        # s_n = 1e300 * 1e10 overflows, so s_n (2 - s_n) = -inf; it used to print
        # "partial_sum": -Infinity, which strict JSON readers refuse, with exit 0
        sched_file = tmp_path / "s.json"
        sched_file.write_text(json.dumps({"kind": "constant", "value": 1e300}))
        assert cli.main(["check-schedule", str(sched_file), "--mu", "1e10"]) == 3
        assert capsys.readouterr() == (
            "", "numerical failure: non-finite partial_sum in the JSON output\n")

    def test_non_finite_summary_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # the summary is checked before the first output file is opened
        monkeypatch.setattr(cli, "rate_bound", lambda *args: SimpleNamespace(bound=math.inf))
        rc, captured, written = _run_config(tmp_path, capsys, {
            "version": 1, "geometry": {"type": "controlled_angle", "angles_deg": [30]},
            "schedule": {"kind": "constant", "value": 1.0},
            "outputs": {"trace_csv": "t.csv", "summary_json": "s.json"}})
        assert (rc, written) == (3, [])
        assert captured == ("", "numerical failure: non-finite theoretical_bound "
                                "in the JSON output\n")

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

    def test_scenario_is_read_as_utf8_under_the_c_locale(self, tmp_path):
        # JSON is UTF-8 (RFC 8259); under the C locale a file opened with the
        # locale's encoding is read as ASCII, and the degree sign is refused
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text(encoding="utf-8"))
        cfg["comment"] = "two lines at 30\u00b0 (\u0150)"
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg, ensure_ascii=False), encoding="utf-8")
        src = Path(cli.__file__).resolve().parents[1]
        code = "import sys, altproj.cli; sys.exit(altproj.cli.main(sys.argv[1:]))"
        proc = subprocess.run(
            [sys.executable, "-c", code, "run", str(path), "--out-dir", str(tmp_path)],
            capture_output=True, text=True, cwd=tmp_path, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
                 "PYTHONUTF8": "0"})
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == cli.run_scenario(cfg, out_dir=tmp_path)

    @pytest.mark.parametrize("verb", ["run", "check-schedule"])
    def test_file_that_is_not_utf8_gives_config_exit_naming_it(self, tmp_path, capsys, verb):
        path = tmp_path / "input.json"
        path.write_bytes('{"version": 1, "comment": "30\u00b0"}'.encode("latin-1"))
        argv = [verb, str(path)] + (["--mu", "1"] if verb == "check-schedule" else [])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} is not valid JSON: 'utf-8' codec "
                                       "can't decode byte 0xb0")

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "0", "1.5", "-1e-8", "1e-8"])
    def test_bad_intersection_tol_gives_config_exit(self, tmp_path, capsys, value):
        # the null-space cutoff is the constant projector.NULLSPACE_CUTOFF, so
        # intersection_tol is an unknown scenario key, whatever its value
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["intersection_tol"] = float(value)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: unknown scenario keys: intersection_tol\n"
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

    def test_negative_overrelax_seed_gives_config_exit(self, tmp_path, capsys):
        # the seed used to reach numpy's default_rng, whose message does not
        # name the option
        out_csv = tmp_path / "sweep.csv"
        rc = cli.main(["overrelax", "--nu2", "0.5", "--alphas", "1.0", "--seed", "-1",
                       "--out", str(out_csv)])
        assert rc == 2
        assert "seed must be a nonnegative integer, got -1" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("dim_u, dim_w", [(4, 2), (2, 5)])
    def test_subspace_dimension_above_ambient_gives_config_exit(self, tmp_path, capsys,
                                                                 dim_u, dim_w):
        # such a subspace used to become all of R^dim, and the run converged
        # after one step
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["geometry"] = {"type": "random", "dim": 3, "dim_u": dim_u, "dim_w": dim_w,
                           "seed": 1}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "dim_u and dim_w cannot exceed dim" in err
        assert f"dim_u={dim_u} and dim_w={dim_w} with dim=3" in err
        assert not (tmp_path / "two_lines_30deg_summary.json").exists()

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

    @pytest.mark.parametrize("flag, value", [("--mu", "nan"), ("--mu", "inf"), ("--mu", "-inf")])
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

    @pytest.mark.parametrize("alphas", ["1,-1", "1,nan", "1,inf"])
    def test_bad_alpha_anywhere_in_grid_refused_before_any_work(self, capsys, refuse_work,
                                                                alphas):
        # a negative alpha used to be caught in the loop, after the geometry
        # was built and every earlier alpha had run
        assert cli.main(["overrelax", "--nu2", "0.5", "--alphas", alphas, "--seed", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "coefficients must be finite and nonnegative" in captured.err

    @pytest.mark.parametrize("argv", [
        ["check-schedule", "SCHEDULE", "--mu", "1", "--horizon", str(10 ** 18)],
        ["truncate", "--p", "1", "--r", "0.6", "--dims", str(10 ** 18)],
    ], ids=["check-schedule", "truncate"])
    def test_allocation_failure_gives_config_exit(self, tmp_path, capsys, argv):
        # 10**18 float64 values fit no address space, so the allocation
        # fails at once; it used to end in a MemoryError traceback (exit 1).
        # A harmonic schedule has a run per term (a constant one has one).
        sched_file = tmp_path / "sched.json"
        sched_file.write_text(json.dumps({"kind": "harmonic-to-2"}))
        argv = [str(sched_file) if a == "SCHEDULE" else a for a in argv]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_check_schedule_diagnoses_explicit_schedule_over_its_terms(self, tmp_path, capsys):
        # as run does: the default horizon of 10000 used to exit 2 with
        # "explicit schedule has only 5 terms, 10000 requested"
        sched = Schedule.explicit([1, 1, 1, 1, 1])
        sched_file = tmp_path / "sched.json"
        sched_file.write_text(json.dumps(sched.to_dict()))
        assert cli.main(["check-schedule", str(sched_file), "--mu", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        expected = diagnose(sched, 0.5, horizon=5)
        assert out["partial_sum"] == expected.partial_sum
        assert (out["verdict"], out["box_eps"]) == (expected.verdict, expected.box_eps)

    def test_empty_explicit_schedule_keeps_its_outcomes(self, tmp_path, capsys):
        # indeterminate in run, a configuration error in check-schedule
        cfg = json.loads(scenario_path("two_lines_30deg.json").read_text())
        cfg["schedule"] = {"kind": "explicit", "values": []}
        del cfg["outputs"]
        assert cli.run_scenario(cfg, out_dir=tmp_path)["schedule_verdict"] == "indeterminate"
        sched_file = tmp_path / "sched.json"
        sched_file.write_text(json.dumps(cfg["schedule"]))
        assert cli.main(["check-schedule", str(sched_file), "--mu", "1"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv, option", [
        (["overrelax", "--nu2", "0.5", "--alphas", ",", "--seed", "1"], "--alphas"),
        (["truncate", "--p", "1", "--r", "0.6", "--dims", ",,"], "--dims"),
    ])
    def test_empty_grid_gives_config_exit(self, capsys, argv, option):
        # an empty --alphas grid used to exit 0 with no output, and an
        # empty --dims list to fail in max() without naming the option
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{option} needs at least one value" in captured.err

    @pytest.mark.parametrize("argv, text", [
        (["overrelax", "--nu2", "0.5", "--alphas", "1,x", "--seed", "1"], "1,x"),
        (["truncate", "--p", "1", "--r", "0.6", "--dims", "10,ten"], "10,ten"),
    ])
    def test_non_numeric_grid_gives_config_exit(self, capsys, refuse_work, argv, text):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: bad numeric list {text!r}\n")

    def test_negative_truncate_horizon_gives_config_exit(self, tmp_path, capsys):
        out_csv = tmp_path / "trunc.csv"
        rc = cli.main(["truncate", "--p", "1", "--r", "0.6", "--dims", "10",
                       "--max-iters", "-1", "--out", str(out_csv)])
        assert rc == 2
        assert "max_iters must be a nonnegative integer" in capsys.readouterr().err
        assert not out_csv.exists()

    @pytest.mark.parametrize("args, message", [
        (["--dims=2.5,3"], "dimensions must be positive integers"),
        (["--dims=inf"], "dimensions must be positive integers"),
        (["--dims=0,3"], "dimensions must be positive integers"),
        (["--p=nan"], "p must be finite and positive"),
        (["--p=inf"], "p must be finite and positive"),
        (["--r=nan"], "r must be finite"),
        (["--r=-inf"], "r must be finite"),
        # parsed as 2 ** 53 exactly, where float indices stop being exact
        (["--dims=10,9007199254740993"], "dimensions must be positive integers below 2 ** 53"),
    ])
    def test_bad_truncate_input_gives_config_exit(self, tmp_path, capsys, args, message):
        # a fractional dimension used to run silently at its integer part,
        # and a NaN exponent printed nan norms with exit 0
        out_csv = tmp_path / "trunc.csv"
        argv = ["truncate", "--p", "1.0", "--r", "0.6", "--dims", "10,100",
                "--out", str(out_csv)]
        assert cli.main(argv + args) == 2  # the last of a repeated option wins
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not out_csv.exists()


TRUNCATE = ["truncate", "--p", "1", "--r", "0.6", "--dims", "10,100"]
OVERRELAX = ["overrelax", "--nu2", "0.5", "--alphas", "1.0", "--seed", "3"]


class TestArgv:
    """The command line is parsed against cli.VERBS, with argparse's syntax."""

    @pytest.mark.parametrize("argv, message", [
        ([], "error: no verb given"),
        (["solve"], "error: unknown verb 'solve'"),
        ([*TRUNCATE, "--q", "1"], "error: unknown option --q"),
        ([*TRUNCATE, "-x"], "error: unknown option -x"),
        (["check-schedule", "s.json", "--mu", "1", "--h", "5"],
         "error: ambiguous option --h: could match --help, --horizon"),
        (["truncate", "--p", "1", "--r", "0.6", "--dims"], "error: option --dims needs a value"),
        (["truncate", "--p", "1", "--r", "0.6"], "error: missing required option(s) --dims"),
        (["overrelax", "--alphas", "1"], "error: missing required option(s) --nu2, --seed"),
        (["run"], "error: positional arguments: expected scenario, got none"),
        (["run", "a.json", "b.json"], "error: positional arguments: expected scenario, "
                                      "got a.json b.json"),
        ([*TRUNCATE, "extra"], "error: positional arguments: expected none, got extra"),
        (["truncate", "--p", "one", "--r", "0.6", "--dims", "10"],
         "error: option --p: invalid float value 'one'"),
        ([*OVERRELAX, "--seed=1.5"], "error: option --seed: invalid int value '1.5'"),
        ([*TRUNCATE, "--max-iters", "1e3"], "error: option --max-iters: invalid int value '1e3'"),
    ])
    def test_usage_error_exits_2_with_usage_line(self, capsys, refuse_work, argv, message):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        usage = argv[0] if argv and argv[0] in cli.VERBS else "{run,overrelax,truncate,"
        assert captured.err.splitlines()[-1].startswith(f"usage: altproj {usage}")

    def test_option_equals_value_and_prefix(self, capsys):
        assert cli.main([*TRUNCATE, "--max-iters", "7"]) == 0
        expected = capsys.readouterr().out
        for argv in (["truncate", "--p=1", "--r=0.6", "--dims=10,100", "--max-iters=7"],
                     [*TRUNCATE, "--max", "7"], [*TRUNCATE, "--ma=7"]):
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == expected

    def test_namespace(self):
        handler, args = cli._parse_argv(["check-schedule", "--mu", "2", "--mu", "0.5",
                                         "--ho", "9", "s.json"])
        assert handler is cli._cmd_check_schedule
        assert vars(args) == {"schedule": "s.json", "mu": 0.5, "horizon": 9}
        _, args = cli._parse_argv(["truncate", "--r", "-0.5", "--p", "1", "--dims", "-",
                                   "--out", "--p"])
        assert (args.p, args.r, args.dims, args.out) == (1.0, -0.5, "-", "--p")
        _, args = cli._parse_argv(["run", "--", "-scenario.json"])
        assert (args.scenario, args.out_dir) == ("-scenario.json", None)

    @pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
    def test_help_lists_verbs(self, capsys, flag):
        assert cli.main([flag]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        for verb, (_, help_text, _, _) in cli.VERBS.items():
            assert f"  {verb} " in captured.out and help_text in captured.out

    @pytest.mark.parametrize("verb", cli.VERBS)
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_of_a_verb_names_its_options(self, capsys, refuse_work, verb, flag):
        assert cli.main([verb, flag]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith(f"usage: altproj {verb} ")
        _, help_text, positionals, options = cli.VERBS[verb]
        assert help_text in captured.out
        words = set(captured.out.replace("[", " ").replace("]", " ").split())
        assert words >= {*positionals, *("--" + name.replace("_", "-") for name in options)}

    def test_readme_usage_block_matches_verbs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Command line", 1)[1].split("```", 2)[1]
        documented = {}
        for line in block.strip().splitlines():
            words = line.replace("[", " ").replace("]", " ").split()
            assert words[0] == "altproj"
            documented[words[1]] = {w for w in words if w.startswith("--")}
        assert documented == {verb: {"--" + name.replace("_", "-") for name in options}
                              for verb, (_, _, _, options) in cli.VERBS.items()}

    def test_import_and_call_load_no_argparse(self, tmp_path):
        # in a fresh interpreter: pytest itself has loaded argparse here.
        # numpy.random, which only the seeded geometries and u0 read, costs
        # about 10 ms and 6 MiB to import; a verb that draws nothing must
        # not load it
        (tmp_path / "constant.json").write_text(json.dumps({"kind": "constant", "value": 1.0}))
        code = ("import sys, altproj.cli\n"
                "rc = altproj.cli.main(['truncate', '--p', '1', '--r', '0.6', '--dims', '10',"
                " '--max-iters', '5'])\n"
                "rc += altproj.cli.main(['check-schedule', 'constant.json', '--mu', '1'])\n"
                "print(rc, sorted({'argparse', 'gettext', 'locale', 'numpy.random'}"
                " & set(sys.modules)))\n")
        src = Path(cli.__file__).resolve().parents[1]
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import tiebreak
from tiebreak import cli, mc, quadratic, twoline
from tiebreak.cli import main, parse_grid, parse_vector
from tiebreak.covariance import CoefCovariance, design_covariance
from tiebreak.designs import AssignmentDistribution, TieBreaker
from tiebreak.twoline import covariance_gaussian

import click


_DISTRIBUTIONS = {"uniform-rank": AssignmentDistribution.uniform_rank(),
                  "standard-gaussian": AssignmentDistribution.standard_gaussian()}


@pytest.fixture()
def runner():
    return CliRunner()


def test_runtime_imports_need_only_numpy_and_click():
    # Importing the package and its CLI loads no test-only dependency.
    code = ("import sys, tiebreak, tiebreak.cli; print(sorted("
            "{'scipy', 'hypothesis', 'pytest'} & {m.split('.')[0] for m in sys.modules}))")
    src = os.path.dirname(os.path.dirname(tiebreak.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "[]"


def _rows(output):
    lines = [ln for ln in output.strip().splitlines()
             if ln and not ln.startswith("error:")]
    parsed = list(csv.reader(lines))
    return parsed[0], parsed[1:]


class TestParsers:

    def test_grid_forms(self):
        assert parse_grid("0.25") == [0.25]
        assert parse_grid("0:1:0.5") == [0.0, 0.5, 1.0]
        # The inclusive end survives step round-off.
        assert parse_grid("0:1:0.1")[-1] == pytest.approx(1.0)
        assert len(parse_grid("0:1:0.1")) == 11

    def test_grid_rejections(self):
        for text in ("a", "0:1", "0:1:0", "1:0:0.1", "0:1:0.1:9"):
            with pytest.raises(click.UsageError):
                parse_grid(text)
        # A non-finite end or step is a usage error, not a traceback.
        for text in ("nan:1:0.5", "0:inf:0.5", "0:1:nan", "-inf:0:1", "0:1:inf"):
            with pytest.raises(click.UsageError, match="must be finite"):
                parse_grid(text)

    def test_grid_size_is_bounded(self, monkeypatch):
        # Refused before any point is built: (hi - lo) / step overflows in
        # the first, and the second would hold 10^12 + 1 points.
        for text in ("0:1e308:1e-308", "0:1:1e-12"):
            with pytest.raises(click.UsageError, match="more than"):
                parse_grid(text)
        monkeypatch.setattr(cli, "GRID_POINT_LIMIT", 11)
        assert len(parse_grid("0:1:0.1")) == 11
        with pytest.raises(click.UsageError, match="more than 11 points"):
            parse_grid("0:1:0.09")

    def test_vector(self):
        assert parse_vector("1,-2,0.5") == (1.0, -2.0, 0.5)
        with pytest.raises(click.UsageError):
            parse_vector("1,x")


class TestTwolineCurves:

    def test_rdd_row_exact(self, runner):
        result = runner.invoke(main, ["twoline-curves", "--delta-grid", "0"])
        assert result.exit_code == 0
        assert result.output == (
            "delta,n_var_beta0,n_var_beta1,n_var_beta2,n_var_beta3,"
            "n_cov_beta0_beta3,n_cov_beta1_beta2,efficiency_vs_rdd\n"
            "0.0,4.0,12.0,4.0,12.0,-6.0,-6.0,1.0\n")

    def test_rct_row_exact(self, runner):
        result = runner.invoke(main, ["twoline-curves", "--delta-grid", "1"])
        assert result.exit_code == 0
        assert result.output.splitlines()[1] == \
            "1.0,1.0,3.0,1.0,3.0,0.0,0.0,4.0"

    def test_gaussian_rdd(self, runner):
        result = runner.invoke(main, ["twoline-curves", "--delta-grid", "0",
                                      "--distribution", "standard-gaussian"])
        assert result.exit_code == 0
        _, rows = _rows(result.output)
        var_level = float(rows[0][3])
        assert var_level == pytest.approx(np.pi / (np.pi - 2.0), rel=1e-12)
        assert float(rows[0][7]) == pytest.approx(1.0)

    def test_json_output(self, runner):
        result = runner.invoke(main, ["twoline-curves", "--delta-grid",
                                      "0:1:0.5", "--out", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["columns"][0] == "delta"
        assert len(payload["rows"]) == 3
        assert payload["rows"][0][:3] == [0.0, 4.0, 12.0]

    def test_malformed_grid_exits_2(self, runner):
        result = runner.invoke(main, ["twoline-curves", "--delta-grid", "oops"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("grid", ["nan:1:0.5", "0:inf:0.5", "0:1:nan"])
    def test_non_finite_grid_exits_2(self, runner, grid):
        result = runner.invoke(main, ["twoline-curves", "--delta-grid", grid])
        assert result.exit_code == 2
        assert "must be finite" in result.output

    @pytest.mark.parametrize("grid", ["0:1e308:1e-308", "0:1:1e-12"])
    def test_oversized_grid_exits_2(self, runner, grid):
        result = runner.invoke(main, ["twoline-curves", "--delta-grid", grid])
        assert result.exit_code == 2
        assert "more than" in result.output


class TestGainVariance:

    def test_twoline_rdd_value(self, runner):
        result = runner.invoke(main, ["gain-variance", "--delta-grid", "0",
                                      "--x-grid", "0"])
        assert result.exit_code == 0
        assert result.output.splitlines()[1] == "0.0,0.0,16.0"

    def test_quadratic_rct_centre(self, runner):
        result = runner.invoke(main, ["gain-variance", "--delta-grid", "1",
                                      "--x-grid", "0", "--model", "quadratic"])
        assert result.exit_code == 0
        _, rows = _rows(result.output)
        assert float(rows[0][2]) == pytest.approx(9.0, rel=1e-12)

    def test_quadratic_gaussian_exits_2(self, runner):
        result = runner.invoke(main, ["gain-variance", "--model", "quadratic",
                                      "--distribution", "standard-gaussian"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("model, distribution", [
        ("twoline", "uniform-rank"), ("twoline", "standard-gaussian"),
        ("quadratic", "uniform-rank")])
    def test_grid_matches_per_point_calls(self, runner, model, distribution):
        # One library call per delta covers the whole x grid; every cell
        # must equal the scalar call at that (delta, x) bit for bit.
        result = runner.invoke(main, ["gain-variance", "--delta-grid", "0:1:0.5",
                                      "--x-grid", "-0.5:1:0.75", "--model", model,
                                      "--distribution", distribution])
        assert result.exit_code == 0
        _, rows = _rows(result.output)
        dist = _DISTRIBUTIONS[distribution]
        want = [(d, x, twoline.var_gain_at_x(d, x, dist) if model == "twoline"
                 else quadratic.var_gain_quadratic(d, x))
                for d in (0.0, 0.5, 1.0) for x in (-0.5, 0.25, 1.0)]
        assert [tuple(float(v) for v in row) for row in rows] == want


class TestOptimalDelta:

    def test_interior_solution(self, runner):
        result = runner.invoke(main, ["optimal-delta", "--beta3", "1",
                                      "--lam", "2"])
        assert result.exit_code == 0
        _, rows = _rows(result.output)
        row = [float(v) for v in rows[0]]
        assert row[3] == pytest.approx(np.sqrt(0.5), rel=1e-12)
        assert row[4] == pytest.approx(0.25)          # gain
        assert row[5] == pytest.approx(1.0 / 3.0 - 0.0625)
        assert row[6] == pytest.approx(row[4] + 2.0 * row[5])
        assert row[7] == pytest.approx(0.25)          # cost at n = 1

    def test_nonpositive_lam_exits_2(self, runner):
        result = runner.invoke(main, ["optimal-delta", "--beta3", "1",
                                      "--lam", "0"])
        assert result.exit_code == 2

    def test_non_finite_n_exits_2(self, runner):
        result = runner.invoke(main, ["optimal-delta", "--beta3", "1",
                                      "--lam", "2", "--n", "nan"])
        assert result.exit_code == 2
        assert "n must be finite" in result.output

    @pytest.mark.parametrize("n", ["0", "-5"])
    def test_nonpositive_n_exits_2(self, runner, n):
        result = runner.invoke(main, ["optimal-delta", "--beta3", "1",
                                      "--lam", "2", "--n", n])
        assert result.exit_code == 2
        assert "cohort size n must be positive" in result.output


class TestNoncentral:

    def test_central_window_reduces(self, runner):
        result = runner.invoke(main, ["noncentral", "--a", "-0.5",
                                      "--b", "0.5"])
        assert result.exit_code == 0
        _, rows = _rows(result.output)
        table = {(r[0], r[1]): float(r[2]) for r in rows}
        assert table[("beta2", "beta2")] == pytest.approx(64.0 / 37.0, rel=1e-12)
        assert table[("beta3", "beta3")] == pytest.approx(192.0 / 37.0, rel=1e-12)
        assert table[("beta2", "beta3")] == pytest.approx(0.0, abs=1e-12)

    def test_full_matrix_has_sixteen_rows(self, runner):
        result = runner.invoke(main, ["noncentral", "--a", "0", "--b", "0.6",
                                      "--full"])
        assert result.exit_code == 0
        _, rows = _rows(result.output)
        assert len(rows) == 16

    def test_degenerate_window_exits_3(self, runner):
        result = runner.invoke(main, ["noncentral", "--a", "1", "--b", "1"])
        assert result.exit_code == 3


class TestSearch:

    @pytest.fixture()
    def features_csv(self, tmp_path):
        path = tmp_path / "feat.csv"
        xs = np.linspace(-1.0, 1.0, 41)
        lines = ["x"] + [repr(float(v)) for v in xs]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_ranking_prefers_wide_window(self, runner, features_csv):
        result = runner.invoke(main, ["search", "--features", features_csv,
                                      "--add-intercept", "--theta", "0,1",
                                      "--delta-grid", "0:1:0.5"])
        assert result.exit_code == 0
        _, rows = _rows(result.output)
        assert len(rows) == 3
        assert rows[0][0] == "1"
        assert float(rows[0][2]) == 1.0
        values = [float(r[5]) for r in rows]
        assert values == sorted(values)

    def test_infeasible_grid_exits_3(self, runner, features_csv):
        result = runner.invoke(main, ["search", "--features", features_csv,
                                      "--add-intercept", "--theta", "1,0",
                                      "--theta", "-1,0", "--delta-grid", "0:1:0.5"])
        assert result.exit_code == 3
        # Every score is 1 under theta (1, 0) and -1 under (-1, 0), never
        # inside a window of half-width at most 1.
        assert result.stdout == ""
        assert result.stderr == (
            "error: no feasible design among 6 candidates: 3 no control subjects, "
            "3 no treated subjects\n")

    def test_contrast_requires_vector(self, runner, features_csv):
        result = runner.invoke(main, ["search", "--features", features_csv,
                                      "--add-intercept", "--theta", "0,1",
                                      "--criterion", "contrast"])
        assert result.exit_code == 2

    def test_bad_contrast_exits_2_where_nothing_is_feasible(self, runner, features_csv):
        # Every score is 1 under theta (1, 0): no candidate is feasible, yet
        # a missing or malformed contrast is the usage error it reports.
        for extra in ([], ["--contrast", "1,2,3"], ["--contrast", "0,nan"]):
            result = runner.invoke(main, ["search", "--features", features_csv,
                                          "--add-intercept", "--theta", "1,0",
                                          "--criterion", "contrast"] + extra)
            assert result.exit_code == 2
            assert "contrast" in result.stderr

    @pytest.mark.parametrize("criterion", ["trace", "log-det", "contrast"])
    def test_tables_are_the_report_rows(self, runner, features_csv, criterion):
        contrast = (1.0, 2.0) if criterion == "contrast" else None
        report = tiebreak.design_search(
            tiebreak.FeatureMatrix.from_csv(features_csv, add_intercept=True),
            [(0.0, 1.0), (0.25, 1.0), (-0.5, 2.0), (1.0, 0.0)],
            parse_grid("0:1:0.125"), ps=(0.5, 0.75), criterion=criterion,
            contrast=contrast)
        want = [[rank, ",".join(repr(v) for v in r.evaluation.rule.theta),
                 r.evaluation.rule.delta, r.evaluation.rule.p, criterion, r.value]
                for rank, r in enumerate(report, start=1)]
        args = ["search", "--features", features_csv, "--add-intercept",
                "--theta", "0,1", "--theta", "0.25,1", "--theta", "-0.5,2",
                "--theta", "1,0", "--delta-grid", "0:1:0.125", "--p", "0.5",
                "--p", "0.75", "--criterion", criterion]
        if contrast:
            args += ["--contrast", "1,2"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        cols, rows = _rows(result.output)
        assert cols == ["rank", "theta", "delta", "p", "criterion", "value"]
        assert rows == [[str(cell) if isinstance(cell, (int, str)) else repr(cell)
                         for cell in row] for row in want]
        result = runner.invoke(main, args + ["--out", "json"])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"columns": cols, "rows": want}

    @pytest.mark.parametrize("criterion", ["trace", "log-det"])
    @pytest.mark.parametrize("contrast", ["0,1", "1,2,3"])
    def test_contrast_with_another_criterion_exits_2(self, runner, features_csv,
                                                     criterion, contrast):
        result = runner.invoke(main, ["search", "--features", features_csv,
                                      "--add-intercept", "--theta", "0,1",
                                      "--criterion", criterion, "--contrast", contrast])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"the {criterion} criterion takes no contrast vector" in result.stderr

    def test_malformed_theta_exits_2(self, runner, features_csv):
        result = runner.invoke(main, ["search", "--features", features_csv,
                                      "--add-intercept", "--theta", "0;1"])
        assert result.exit_code == 2


class TestSimulate:

    SMALL = ["simulate", "--n", "400", "--reps", "60", "--seed", "3"]

    def test_small_run_agrees(self, runner):
        result = runner.invoke(main, self.SMALL)
        assert result.exit_code == 0
        cols, rows = _rows(result.output)
        assert cols == ["coef_i", "coef_j", "n_cov_empirical",
                        "n_cov_reference", "se", "abs_dev_se"]
        assert len(rows) == 16
        ref = {(r[0], r[1]): float(r[3]) for r in rows}
        assert ref[("beta2", "beta2")] == pytest.approx(64.0 / 37.0, rel=1e-12)
        assert all(float(r[5]) < 4.0 for r in rows)

    def test_repeat_invocations_byte_identical(self, runner):
        first = runner.invoke(main, self.SMALL)
        second = runner.invoke(main, self.SMALL)
        assert first.output == second.output

    def test_json_report(self, runner):
        result = runner.invoke(main, self.SMALL + ["--out", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["rule"]["type"] == "TieBreaker"
        assert payload["reps_used"] == 60
        assert payload["max_dev_se"] < 4.0

    def test_three_level_rule(self, runner):
        result = runner.invoke(main, ["simulate", "--delta", "0.5",
                                      "--epsilon", "0.1", "--n", "400",
                                      "--reps", "60", "--out", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["rule"]["type"] == "ThreeLevelRule"
        assert payload["reference"] is not None

    def test_sliding_scale_file(self, runner, tmp_path):
        path = tmp_path / "scale.csv"
        path.write_text("x,p\n-1.0,0.0\n1.0,1.0\n")
        result = runner.invoke(main, ["simulate", "--scale", str(path),
                                      "--n", "400", "--reps", "80",
                                      "--out", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["rule"] == {"type": "SlidingScale", "x": [-1.0, 1.0],
                                   "p": [0.0, 1.0]}
        assert payload["max_dev_se"] < 4.0

    def test_sliding_scale_on_gaussian_scores_exits_2(self, runner, tmp_path):
        path = tmp_path / "scale.csv"
        path.write_text("x,p\n-1.0,0.0\n1.0,1.0\n")
        result = runner.invoke(main, ["simulate", "--scale", str(path),
                                      "--distribution", "standard-gaussian",
                                      "--n", "400", "--reps", "10"])
        assert result.exit_code == 2
        assert "rank scale" in result.output

    def test_window_flag_conflicts_exit_2(self, runner):
        result = runner.invoke(main, ["simulate", "--a", "0.2"])
        assert result.exit_code == 2
        result = runner.invoke(main, ["simulate", "--a", "-0.2", "--b", "0.4",
                                      "--epsilon", "0.1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("flags, unused", [
        (["--a", "0.1", "--b", "0.5", "--delta", "0.3"], "--delta"),
        (["--a", "0.1", "--b", "0.5", "--delta", "0.5"], "--delta"),
        (["--scale", "SCALE", "--delta", "0.3"], "--delta"),
        (["--scale", "SCALE", "--p", "0.7"], "--p"),
        (["--epsilon", "0.1", "--p", "0.9"], "--p"),
    ])
    def test_flags_the_rule_does_not_use_exit_2(self, runner, tmp_path, flags, unused):
        # A flag given on the command line counts even at its default value.
        path = tmp_path / "scale.csv"
        path.write_text("x,p\n-1.0,0.0\n1.0,1.0\n")
        flags = [str(path) if f == "SCALE" else f for f in flags]
        result = runner.invoke(main, ["simulate", "--n", "40", "--reps", "4"] + flags)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"{unused} does not apply to the" in result.stderr

    @pytest.mark.parametrize("flags, rule", [
        (["--delta", "0.3", "--p", "0.7"],
         {"type": "TieBreaker", "delta": 0.3, "p": 0.7}),
        (["--a", "0.1", "--b", "0.5", "--p", "0.7"],
         {"type": "IntervalRule", "a": 0.1, "b": 0.5, "p": 0.7}),
        (["--delta", "0.3", "--epsilon", "0.1"],
         {"type": "ThreeLevelRule", "delta": 0.3, "epsilon": 0.1}),
        (["--scale", "SCALE"], {"type": "SlidingScale", "x": [-1.0, 1.0], "p": [0.0, 1.0]}),
    ])
    def test_each_rule_runs_with_its_own_flags(self, runner, tmp_path, flags, rule):
        path = tmp_path / "scale.csv"
        path.write_text("x,p\n-1.0,0.0\n1.0,1.0\n")
        flags = [str(path) if f == "SCALE" else f for f in flags]
        result = runner.invoke(main, ["simulate", "--n", "400", "--reps", "80",
                                      "--out", "json"] + flags)
        assert result.exit_code == 0
        assert json.loads(result.stdout)["rule"] == rule

    def test_degenerate_design_exits_3(self, runner):
        result = runner.invoke(main, ["simulate", "--delta", "1", "--n", "4",
                                      "--reps", "100"])
        assert result.exit_code == 3

    def test_disagreement_exits_4(self, runner, monkeypatch):
        honest = design_covariance(TieBreaker(0.5))
        wrong = CoefCovariance(honest.labels, honest.matrix * 3.0)
        monkeypatch.setattr(mc, "closed_form_reference", lambda config: wrong)
        result = runner.invoke(main, self.SMALL)
        assert result.exit_code == 4
        # The table is still written before the verdict.
        _, rows = _rows(result.output)
        assert len(rows) == 16

    def test_gaussian_distribution_run(self, runner):
        result = runner.invoke(main, ["simulate", "--distribution",
                                      "standard-gaussian", "--n", "400",
                                      "--reps", "60", "--out", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        want = covariance_gaussian(0.5, full=True)
        got = np.array(payload["reference"])
        np.testing.assert_allclose(got, want.matrix, rtol=1e-12)

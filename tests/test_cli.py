import json

import click
import pytest
from click.testing import CliRunner

import pslocal.cli
from pslocal.cli import _parse_budget, main
from pslocal.core import named_correlation, table_from_json, table_to_json


@pytest.fixture
def runner():
    return CliRunner()


def _json(result):
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestBudgetParser:
    def test_units(self):
        assert _parse_budget("90") == 90
        assert _parse_budget("10s") == 10
        assert _parse_budget("2m") == 120
        assert _parse_budget("1h30m") == 5400
        assert _parse_budget(None) is None

    @pytest.mark.parametrize("text", ["5q", "-5", "1e3", "10x"])
    def test_malformed_budget_is_a_usage_error(self, text):
        with pytest.raises(click.UsageError):
            _parse_budget(text)


class TestVerbs:
    def test_vertices_default_scenario(self, runner):
        payload = _json(runner.invoke(main, ["vertices"]))
        assert payload["count"] == 16
        assert len(payload["strategies"]) == 16

    def test_vertices_inline_scenario(self, runner):
        spec = json.dumps(
            {"mA": 2, "mB": 2, "nA": 2, "nB": 2,
             "no_detection_A": True, "no_detection_B": True}
        )
        payload = _json(runner.invoke(main, ["vertices", "--scenario", spec]))
        assert payload["count"] == 81

    def test_facets(self, runner):
        payload = _json(runner.invoke(main, ["facets", "--budget", "5m"]))
        assert payload["count"] == 24

    def test_membership_inside(self, runner):
        result = runner.invoke(
            main,
            ["membership", "--corr", "pr", "--etaA", "2/3", "--etaB", "2/3"],
        )
        payload = _json(result)
        assert payload["inside"]
        assert len(payload["weights"]) == 81

    def test_membership_outside_with_separator(self, runner):
        result = runner.invoke(
            main,
            ["membership", "--corr", "pr", "--etaA", "0.9", "--etaB", "0.9"],
        )
        payload = _json(result)
        assert not payload["inside"]
        assert "separator" in payload

    def test_lift_postselect_round_trip(self, runner, tmp_path):
        lifted = tmp_path / "lifted.json"
        result = runner.invoke(
            main,
            ["lift", "--corr", "pr", "--etaA", "3/4", "--etaB", "4/5",
             "--out", str(lifted)],
        )
        assert result.exit_code == 0
        result = runner.invoke(
            main,
            ["postselect", "--corr", str(lifted), "--etaA", "3/4",
             "--etaB", "4/5"],
        )
        assert result.exit_code == 0
        back = table_from_json(result.output)
        assert back.p == named_correlation("PR").p

    def test_corr_from_file(self, runner, tmp_path):
        path = tmp_path / "corr.json"
        path.write_text(table_to_json(named_correlation("r")))
        result = runner.invoke(
            main,
            ["membership", "--corr", str(path), "--etaA", "1", "--etaB", "1"],
        )
        assert _json(result)["inside"]

    def test_regions_csv(self, runner):
        result = runner.invoke(
            main, ["regions", "--grid", "3", "--format", "csv"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0] == "etaA,etaB,region,above_dashed_curve"
        assert len(lines) == 10

    def test_slice_grid(self, runner):
        result = runner.invoke(
            main,
            ["slice", "--etaA", "0.8", "--etaB", "0.8", "--grid", "3"],
        )
        rows = _json(result)
        assert len(rows) == 9
        center = [r for r in rows if r["x"] == "0" and r["y"] == "0"][0]
        assert center["in_local"] and center["in_ps_local"]

    def test_figure_three(self, runner):
        # A 9-point axis reaches eta = 15/16, inside the dark-gray region.
        rows = _json(runner.invoke(main, ["figure", "--figure", "3",
                                          "--grid", "9"]))
        regions = {r["region"] for r in rows}
        assert {"white", "light-gray", "dark-gray"} <= regions

    def test_quantum_verb(self, runner):
        result = runner.invoke(
            main,
            ["quantum", "--etaA", "1", "--etaB", "0.9", "--restarts", "4"],
        )
        payload = _json(result)
        assert payload["scan"]["violation_found"]
        assert "one_sided_three_input" in payload


class TestErrorHandling:
    def test_domain_error_exits_one(self, runner):
        result = runner.invoke(
            main,
            ["membership", "--corr", "pr", "--etaA", "1.5", "--etaB", "0.5"],
        )
        assert result.exit_code == 1
        assert "error" in json.loads(result.stderr)

    def test_zero_denominator_exits_one(self, runner):
        result = runner.invoke(
            main,
            ["membership", "--corr", "pr", "--etaA", "1/0", "--etaB", "1"],
        )
        assert result.exit_code == 1
        error = json.loads(result.stderr)
        assert error["error"] == "ValueError"
        assert "zero denominator" in error["message"]

    def test_missing_file_exits_one(self, runner):
        result = runner.invoke(
            main,
            ["membership", "--corr", "no-such.json", "--etaA", "1",
             "--etaB", "1"],
        )
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "spec, field",
        [
            ('{"mA":2}', "'mB'"),
            ("[]", "list"),
            ('{"mA":2,"mB":2,"nA":2,"nB":"2"}', "'nB'"),
            ('{"mA":2,"mB":2,"nA":2,"nB":2,"no_detection":"false"}', "'no_detection'"),
            ('{"mA":2,"mB":2,"nA":2,"nB":2,"no_detection_B":[0]}', "'no_detection_B'"),
            ('{"mA":2,"mB":2,"nA":2,"nB":2,"no_detection":true,"no_detection_A":false}',
             "'no_detection'"),
        ],
    )
    def test_malformed_scenario_exits_one(self, runner, spec, field):
        self._assert_domain_error(runner.invoke(main, ["facets", "--scenario", spec]), field)

    @pytest.mark.parametrize(
        "payload, field",
        [
            ([1, 2], "list"),
            ({"scenario": {"mA": 2, "mB": 2, "nB": 2}, "p": {}}, "'nA'"),
            ({"scenario": {"mA": 2, "mB": 2, "nA": 2, "nB": 2}, "p": []}, "'p'"),
            ({"scenario": {"mA": 2, "mB": 2, "nA": 2, "nB": 2},
              "p": {"x=1,y=1": {"a=1,b=1": 0.5}}}, "'a=1,b=1'"),
        ],
    )
    def test_malformed_table_exits_one(self, runner, tmp_path, payload, field):
        path = tmp_path / "corr.json"
        path.write_text(json.dumps(payload))
        result = runner.invoke(
            main, ["membership", "--corr", str(path), "--etaA", "1", "--etaB", "1"]
        )
        self._assert_domain_error(result, field)

    @staticmethod
    def _assert_domain_error(result, field):
        # Exit 1 through the JSON error handler, not an uncaught exception.
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.stderr
        error = json.loads(result.stderr)
        assert error["error"] == "ValueError"
        assert field in error["message"]

    def test_usage_error_exits_two(self, runner):
        assert runner.invoke(main, ["membership", "--corr", "pr"]).exit_code == 2

    def test_bad_figure_number(self, runner):
        result = runner.invoke(main, ["figure", "--figure", "9", "--grid", "3"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args",
        [
            ["quantum", "--etaA", "0.9", "--etaB", "0.9", "--restarts", "0"],
            ["slice", "--etaA", "0.8", "--etaB", "0.8", "--grid", "0",
             "--format", "csv"],
            ["regions", "--grid", "0", "--format", "csv"],
        ],
    )
    def test_zero_size_is_a_usage_error(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)

    @pytest.mark.parametrize("value", [pslocal.cli.GRID_MAX + 1, 10 ** 8])
    @pytest.mark.parametrize("verb", [
        ["slice", "--etaA", "0.8", "--etaB", "0.8"],
        ["figure", "--figure", "1"],
        ["regions"],
    ])
    def test_grid_past_its_cap_is_a_usage_error(self, runner, monkeypatch, verb, value):
        for name in ("_slice_rows", "emit_figure_data"):  # no grid is built
            monkeypatch.setattr(pslocal.cli, name, None)
        result = runner.invoke(main, verb + ["--grid", str(value)])
        assert result.exit_code == 2 and "Invalid value for '--grid'" in result.output

    @pytest.mark.parametrize("value", [pslocal.cli.RESTARTS_MAX + 1, 10 ** 8])
    def test_restarts_past_their_cap_are_a_usage_error(self, runner, monkeypatch, value):
        monkeypatch.setattr(pslocal.cli, "quantum", None)  # no search runs
        args = ["quantum", "--etaA", "0.9", "--etaB", "0.9", "--restarts", str(value)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2 and "Invalid value for '--restarts'" in result.output

    def test_threads_option_is_gone(self, runner):
        assert runner.invoke(main, ["--threads", "1", "vertices"]).exit_code == 2

    def test_slice_basis_option_is_gone(self, runner):
        result = runner.invoke(
            main, ["slice", "--etaA", "0.8", "--etaB", "0.8", "--grid", "3",
                   "--basis", "pr2,pr,r"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("failed", [0, 1])
    def test_verify_paper_exits_one_when_a_claim_fails(self, runner, monkeypatch, failed):
        # The report is emitted unchanged either way; only the exit code
        # tells a script that a claim failed.
        report = {
            "claims": [{"id": "c", "status": "failed" if failed else "verified"}],
            "summary": {"verified": 1 - failed, "failed": failed, "skipped": 0},
        }
        monkeypatch.setattr(pslocal.cli, "run_verification", lambda budget: report)
        result = runner.invoke(main, ["verify-paper", "--budget", "1m"])
        assert result.exit_code == failed
        assert json.loads(result.stdout) == report


def test_verify_paper_runs_dd_once_per_a_priori_polytope(monkeypatch):
    # The census and derive claims share one facet list per scenario
    # (`polytope.local_facets`), so the 81 vertices of the CHSH a-priori
    # polytope go through double description once.
    import pslocal.dd

    sizes = []
    extreme_rays = pslocal.dd.extreme_rays

    def spy(rows, deadline=None):
        sizes.append(len(rows))
        return extreme_rays(rows, deadline=deadline)

    monkeypatch.setattr(pslocal.dd, "extreme_rays", spy)
    pslocal.polytope.local_facets.cache_clear()
    report = pslocal.cli.run_verification(None)
    assert report["summary"] == {"verified": 8, "failed": 0, "skipped": 0}
    assert sizes.count(81) == 1

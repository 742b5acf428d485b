"""Scenario schema validation and the command-line interface."""

import copy
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mgsched import cli
from mgsched import coordinator as co
from mgsched import scenario as sc
from mgsched.charging import IpmError
from mgsched.dispatch import InfeasibleScheduleError


@pytest.fixture(scope="module")
def baseline_doc():
    return sc.load_scenario(sc.baseline_scenario_path())


def _with_field(doc, field, value):
    """Copy of ``doc`` with ``field`` (dotted, with ``[i]`` list indices) set."""
    doc = copy.deepcopy(doc)
    *parents, key = re.sub(r"\[(\d+)\]", r".\1", field).split(".")
    section = doc
    for name in parents:
        section = section[int(name) if name.isdigit() else name]
    section[int(key) if key.isdigit() else key] = value
    return doc


def test_baseline_validates(baseline_doc):
    sc.validate_scenario(baseline_doc)


@pytest.mark.parametrize(
    "section", ["mt_units", "ess", "load", "pv", "wt", "fleet", "pricing", "station", "algorithm"]
)
def test_missing_section_rejected(baseline_doc, section):
    doc = copy.deepcopy(baseline_doc)
    del doc[section]
    with pytest.raises(sc.ScenarioError, match=section):
        sc.validate_scenario(doc)


def test_hourly_length_enforced(baseline_doc):
    doc = copy.deepcopy(baseline_doc)
    doc["load"]["mean"] = doc["load"]["mean"][:23]
    with pytest.raises(sc.ScenarioError, match="24"):
        sc.validate_scenario(doc)


def test_bad_gamma_rejected(baseline_doc):
    doc = copy.deepcopy(baseline_doc)
    doc["algorithm"]["gamma"] = 1.5
    with pytest.raises(sc.ScenarioError, match="gamma"):
        sc.validate_scenario(doc)


@pytest.mark.parametrize(
    "field, value",
    [
        ("pricing.p_ref", float("nan")),
        ("pricing.omega_ref", 0.0),
        ("pricing.omega_ref", float("nan")),
        ("pricing.price_floor", 0.0),
        ("pricing.price_floor", float("nan")),
        ("pricing.tou.peak", float("nan")),
        ("algorithm.step_q", float("nan")),
    ],
)
def test_nonpositive_or_nan_value_rejected(baseline_doc, field, value):
    doc = copy.deepcopy(baseline_doc)
    *parents, key = field.split(".")
    section = doc
    for name in parents:
        section = section[name]
    section[key] = value
    with pytest.raises(sc.ScenarioError, match=field):
        sc.validate_scenario(doc)


@pytest.mark.parametrize(
    "field, value",
    [
        ("pricing.p_ref", "80"),
        ("mt_units[0].p_max", None),
        ("ess.soc_max", "160"),
        ("algorithm.jaya.pop_size", "60"),
        ("fleet.count", True),
        ("pricing.tou.peak", "0.83"),
        ("station.investment", [3000.0]),
        ("algorithm.gamma", None),
        ("algorithm.jaya.restart_cooldown", "100"),
        ("algorithm.ipm.tol", False),
        ("wt.v_in", "3"),
        ("load.mean[3]", "33.0"),
        ("pv.alpha[0]", None),
        ("wt.p_rated[23]", True),
    ],
)
def test_non_number_rejected_by_name(baseline_doc, field, value):
    doc = _with_field(baseline_doc, field, value)
    with pytest.raises(sc.ScenarioError, match=rf"^{re.escape(field)} must be a number$"):
        sc.validate_scenario(doc)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("mt_units[0].p_min", 40.0, "mt_units[0].p_min must not exceed p_max"),
        ("mt_units[2].p_max", float("nan"), "mt_units[2].p_min must not exceed p_max"),
        ("mt_units[0].p_min", -1.0, "mt_units[0].p_min must be non-negative"),
        ("mt_units[1].fuel_slope", -0.1, "mt_units[1].fuel_slope must be non-negative"),
        ("mt_units[1].startup_cost", float("nan"), "mt_units[1].startup_cost must be non-negative"),
        ("ess.soc_start", 500.0, "ess.soc_start must lie in [soc_min, soc_max]"),
        ("ess.soc_min", -1.0, "ess.soc_min must be non-negative"),
        ("ess.p_ch_max", float("nan"), "ess.p_ch_max must be non-negative"),
        ("ess.eta_dc", 1.5, "ess.eta_dc must lie in (0, 1]"),
        ("ess.eta_ch", 0.0, "ess.eta_ch must lie in (0, 1]"),
        ("pv.p_rated[6]", 1.0, "pv.p_rated[6] must be 0 or at least algorithm.step_q"),
        ("wt.p_rated[4]", -30.0, "wt.p_rated[4] must be non-negative"),
        ("pv.alpha[9]", -1.0, "pv.alpha[9] must be positive"),
        ("pv.beta[0]", float("nan"), "pv.beta[0] must be positive"),
        ("wt.k[17]", 0.0, "wt.k[17] must be positive"),
        ("wt.c[2]", 0.0, "wt.c[2] must be positive"),
        ("wt.v_in", 13.0, "wt.v_in, wt.v_rated and wt.v_out must satisfy 0 <= v_in < v_rated < v_out"),
        ("wt.v_in", -1.0, "wt.v_in, wt.v_rated and wt.v_out must satisfy 0 <= v_in < v_rated < v_out"),
        ("wt.v_out", 12.0, "wt.v_in, wt.v_rated and wt.v_out must satisfy 0 <= v_in < v_rated < v_out"),
    ],
)
def test_out_of_range_unit_or_storage_rejected_by_name(baseline_doc, field, value, message):
    doc = _with_field(baseline_doc, field, value)
    with pytest.raises(sc.ScenarioError, match=rf"^{re.escape(message)}$"):
        sc.validate_scenario(doc)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("load.mean[5]", float("nan"), "load.mean[5] must be finite"),
        ("pv.alpha[12]", float("inf"), "pv.alpha[12] must be finite"),
        ("ess.charge_price", float("-inf"), "ess.charge_price must be finite"),
        ("pricing.p_ref", float("inf"), "pricing.p_ref must be finite"),
        ("algorithm.penalty_weight", float("nan"), "algorithm.penalty_weight must be positive"),
        ("algorithm.penalty_weight", -1.0, "algorithm.penalty_weight must be positive"),
        ("algorithm.ipm.tol", float("nan"), "algorithm.ipm.tol must be positive"),
        ("algorithm.ipm.tol", 0.0, "algorithm.ipm.tol must be positive"),
        ("algorithm.pricing_iterations", 2.5, "algorithm.pricing_iterations must be a whole number"),
        ("algorithm.pricing_iterations", float("nan"), "algorithm.pricing_iterations must be a whole number"),
        ("algorithm.jaya.pop_size", 60.5, "algorithm.jaya.pop_size must be a whole number"),
        ("algorithm.jaya.max_iter", float("inf"), "algorithm.jaya.max_iter must be a whole number"),
        ("algorithm.jaya.seed", 1.5, "algorithm.jaya.seed must be a whole number"),
        ("algorithm.jaya.restart_cooldown", 99.9, "algorithm.jaya.restart_cooldown must be a whole number"),
        ("algorithm.ipm.max_iter", 100.5, "algorithm.ipm.max_iter must be a whole number"),
        ("fleet.count", float("nan"), "fleet.count must be a whole number"),
        ("seed", 1.5, "scenario.seed must be a whole number"),
    ],
)
def test_non_finite_fractional_or_nonpositive_rejected_by_name(baseline_doc, field, value, message):
    doc = _with_field(baseline_doc, field, value)
    with pytest.raises(sc.ScenarioError, match=rf"^{re.escape(message)}$"):
        sc.validate_scenario(doc)


def test_whole_numbers_written_as_floats_are_accepted(baseline_doc):
    doc = copy.deepcopy(baseline_doc)
    doc["algorithm"]["pricing_iterations"] = 3.0
    doc["algorithm"]["jaya"].update(pop_size=10.0, max_iter=20.0, seed=7.0)
    rt = sc.prepare(doc)
    assert (rt.pricing_iterations, rt.jaya.pop_size, rt.jaya.max_iter, rt.jaya.seed) == (3, 10, 20, 7)


def test_prepare_rejects_no_pricing_iterations(baseline_doc):
    with pytest.raises(sc.ScenarioError, match="pricing iterations must be at least 1"):
        sc.prepare(baseline_doc, iterations=0)


def test_cli_reports_non_number_on_one_line(baseline_doc, tmp_path, capsys):
    doc = copy.deepcopy(baseline_doc)
    doc["pricing"]["p_ref"] = "80"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err == "invalid scenario: pricing.p_ref must be a number\n"


def test_cli_reports_out_of_range_unit_by_field(baseline_doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_with_field(baseline_doc, "mt_units[0].p_min", 40.0)))
    assert cli.main(["validate", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err == "invalid scenario: mt_units[0].p_min must not exceed p_max\n"


def test_tou_profile_blocks():
    prices = sc.tou_prices(0.83, 0.62, 0.17)
    assert np.all(prices[11:15] == 0.83)
    assert np.all(prices[0:6] == 0.17)
    assert prices[18] == 0.17
    flat_hours = [6, 7, 8, 9, 10, 15, 16, 17, 19, 20, 21, 22, 23]
    assert np.all(prices[flat_hours] == 0.62)


def test_prepare_is_deterministic(baseline_doc):
    a = sc.prepare(baseline_doc, seed=5)
    b = sc.prepare(baseline_doc, seed=5)
    assert a.sessions == b.sessions
    assert np.array_equal(a.tou, b.tou)
    for sa, sb in zip(a.sequences, b.sequences):
        assert np.array_equal(sa.probs, sb.probs)


def test_prepare_override_hooks(baseline_doc):
    rt = sc.prepare(baseline_doc, seed=9, iterations=2)
    assert rt.seed == 9
    assert rt.pricing_iterations == 2


def test_explicit_session_table(tmp_path, baseline_doc):
    from mgsched.ev_fleet import write_sessions_csv

    rt = sc.prepare(baseline_doc, seed=4)
    table = tmp_path / "fleet.csv"
    write_sessions_csv(table, rt.sessions)
    doc = copy.deepcopy(baseline_doc)
    doc["fleet"]["sessions_csv"] = "fleet.csv"
    rt2 = sc.prepare(doc, seed=4, scenario_dir=tmp_path)
    assert [s.ev_id for s in rt2.sessions] == [s.ev_id for s in rt.sessions]
    assert [s.required_energy for s in rt2.sessions] == pytest.approx(
        [s.required_energy for s in rt.sessions]
    )


# --- CLI ---

OUTPUT_FILES = ("records.csv", "prices.csv", "schedule.csv", "charging_plan.csv", "sessions.csv",
                "summary.json", "strategies.csv", "cases.csv")


@pytest.fixture(scope="module")
def quick_scenario(tmp_path_factory):
    doc = sc.load_scenario(sc.baseline_scenario_path())
    doc = copy.deepcopy(doc)
    doc["fleet"]["count"] = 6
    doc["algorithm"]["pricing_iterations"] = 2
    doc["algorithm"]["jaya"] = {"pop_size": 24, "max_iter": 120}
    path = tmp_path_factory.mktemp("scenario") / "quick.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_validate_ok(quick_scenario, capsys):
    assert cli.main(["validate", "--scenario", str(quick_scenario)]) == 0
    assert "scenario OK" in capsys.readouterr().out


def test_cli_validate_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["validate", "--scenario", str(bad)]) == 1
    assert "invalid scenario" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run"])
def test_cli_reports_invalid_scenario(baseline_doc, tmp_path, capsys, command):
    doc = copy.deepcopy(baseline_doc)
    doc["pricing"]["p_ref"] = float("nan")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main([command, "--scenario", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "invalid scenario: pricing.p_ref must be positive\n"


def test_cli_validate_rejects_nan_hourly_value(baseline_doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_with_field(baseline_doc, "load.mean[5]", float("nan"))))
    assert cli.main(["validate", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err == "invalid scenario: load.mean[5] must be finite\n"


@pytest.mark.filterwarnings("ignore")  # the overflow and quadrature warnings on the way
def test_cli_validate_rejects_nan_bins_by_source_and_hour(baseline_doc, tmp_path, capsys):
    # a Weibull density of inf * 0 inside its support integrates to NaN bins
    doc = copy.deepcopy(baseline_doc)
    doc["wt"]["v_in"] = 0.0
    doc["wt"]["k"] = [400.0] * 24
    doc["wt"]["c"] = [1.0] * 24
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err == "invalid scenario: wt[0] cannot be discretized: probabilities must be finite\n"


@pytest.mark.parametrize("command", ["run"])
@pytest.mark.parametrize(
    "error",
    [InfeasibleScheduleError("exact dispatch: HiGHS status 2", {}), IpmError("no convergence within 100 iterations")],
    ids=["infeasible_schedule", "ipm"],
)
def test_cli_reports_solver_failure_on_one_line(quick_scenario, tmp_path, capsys, monkeypatch, command, error):
    def fail(rt):
        raise error

    monkeypatch.setattr(co, "compute_baselines", fail)
    assert cli.main([command, "--scenario", str(quick_scenario), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"{command} failed: {error}\n"


def test_cli_run_writes_outputs(quick_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(quick_scenario), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUT_FILES)
    assert "selected iteration" in capsys.readouterr().out


def test_cli_strategies_table(quick_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(quick_scenario), "--out-dir", str(out)]) == 0
    text = (out / "strategies.csv").read_text().splitlines()
    assert text[0] == "strategy,mg_cost,ev_cost"
    assert [line.split(",")[0] for line in text[1:]] == ["mg_only", "joint", "ev_only"]
    assert "outputs written to" in capsys.readouterr().out


def test_cli_cases_report(quick_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(quick_scenario), "--out-dir", str(out)]) == 0
    lines = (out / "cases.csv").read_text().splitlines()
    assert lines[0].startswith("period,base_load,ev_load_no_dr,ev_load_dr")
    assert len(lines) == 25
    assert "outputs written to" in capsys.readouterr().out


def _csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_cli_run_reports_agree_across_files(quick_scenario, tmp_path):
    """The three reports of one run come from one pricing loop, so the values
    they share are equal in their written (repr) form."""
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(quick_scenario), "--out-dir", str(out)]) == 0
    strategies = {row["strategy"]: row for row in _csv_rows(out / "strategies.csv")}
    (selected,) = [row for row in _csv_rows(out / "records.csv") if row["selected"] == "1"]
    summary = json.loads((out / "summary.json").read_text())
    cases = _csv_rows(out / "cases.csv")
    *_, plan_total = csv.reader((out / "charging_plan.csv").read_text().splitlines())
    prices = _csv_rows(out / "prices.csv")

    assert (strategies["joint"]["mg_cost"], strategies["joint"]["ev_cost"]) == (selected["mg_cost"], selected["ev_cost"])
    assert strategies["mg_only"]["mg_cost"] == repr(summary["mg_cost_ideal"])
    assert strategies["ev_only"]["ev_cost"] == repr(summary["ev_cost_ideal"])
    assert plan_total[0] == "total"
    assert [row["ev_load_dr"] for row in cases] == plan_total[1:]
    assert [row["price_dr"] for row in cases] == [row["real_time_selected"] for row in prices]


def test_cli_run_computes_one_pricing_loop(quick_scenario, tmp_path, monkeypatch):
    calls = {"compute_baselines": 0, "run_joint": 0}

    def counted(name):
        inner = getattr(co, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(co, name, counted(name))
    assert cli.main(["run", "--scenario", str(quick_scenario), "--out-dir", str(tmp_path)]) == 0
    assert calls == {"compute_baselines": 1, "run_joint": 1}


def test_cli_lists_only_run_and_validate(capsys):
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert "{run,validate}" in capsys.readouterr().out


def test_run_does_not_import_scipy_stats(quick_scenario, tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from mgsched import cli\n"
        f"code = cli.main(['run', '--iters', '1', '--scenario', {str(quick_scenario)!r}, "
        f"'--out-dir', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.startswith('scipy.stats')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"

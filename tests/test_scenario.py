"""Scenario schema validation and the command-line interface."""

import contextlib
import copy
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mgsched import cli
from mgsched import coordinator as co
from mgsched import scenario as sc
from mgsched.charging import IpmError, StructuralInfeasibilityError
from mgsched.dispatch import RESIDUAL_TOL, InfeasibleScheduleError


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
        ("station.investment", -1.0, "station.investment must be non-negative"),
        ("fleet.soc_min", 0.95, "fleet.soc_min must lie in [0, soc_expected)"),
        ("fleet.charge_efficiency", 0.0, "fleet.charge_efficiency must lie in (0, 1]"),
        ("algorithm.jaya.pop_size", 1, "algorithm.jaya.pop_size must be at least 2"),
        ("algorithm.jaya.seed", -300, "algorithm.jaya.seed must be non-negative"),
        ("algorithm.jaya.restart_fraction", 1.0, "algorithm.jaya.restart_fraction must lie in (0, 1)"),
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
        ("seed", -1, "scenario.seed must be non-negative"),
        ("station.lifetime_years", 0.0, "station.lifetime_years must be positive"),
        ("fleet.rated_power", 0.0, "fleet.rated_power must be positive"),
        ("fleet.arrival_sigma", -1.0, "fleet.arrival_sigma must be positive"),
        ("fleet.soc_initial_std", 0.0, "fleet.soc_initial_std must be positive"),
        ("fleet.count", 0, "fleet.count must be at least 1"),
        ("fleet.max_dwell", 0, "fleet.max_dwell must be positive"),
        ("algorithm.ipm.max_iter", 0, "algorithm.ipm.max_iter must be at least 1"),
        pytest.param("mt_units[0].p_max", 10**400, "mt_units[0].p_max must be finite", id="p_max-int_beyond_float"),
        pytest.param("load.mean[3]", -(10**400), "load.mean[3] must be finite", id="load-int_beyond_float"),
        pytest.param("fleet.count", 10**400, "fleet.count must be finite", id="count-int_beyond_float"),
        ("load.mean[3]", -1.0, "load.mean[3] must be non-negative"),
        pytest.param("fleet.count", 10**300, "fleet.count must be at most 9223372036854775807",
                     id="count-beyond_intp"),
        pytest.param("algorithm.jaya.pop_size", 10**300,
                     "algorithm.jaya.pop_size must be at most 9223372036854775807", id="pop_size-beyond_intp"),
        pytest.param("fleet.sessions_csv", 5, "fleet.sessions_csv must be a string", id="sessions_csv-int"),
        pytest.param("fleet.sessions_csv", None, "fleet.sessions_csv must be a string", id="sessions_csv-null"),
        pytest.param("fleet.sessions_csv", ["a"], "fleet.sessions_csv must be a string", id="sessions_csv-list"),
    ],
)
def test_non_finite_fractional_or_nonpositive_rejected_by_name(baseline_doc, field, value, message):
    doc = _with_field(baseline_doc, field, value)
    with pytest.raises(sc.ScenarioError, match=rf"^{re.escape(message)}$"):
        sc.validate_scenario(doc)


@pytest.mark.parametrize("section, key", [("algorithm.jaya", "pop_size"), ("fleet", "soc_initial_std")])
def test_key_with_a_record_default_is_still_required(baseline_doc, section, key):
    doc = copy.deepcopy(baseline_doc)
    block = doc
    for name in section.split("."):
        block = block[name]
    del block[key]
    with pytest.raises(sc.ScenarioError, match=rf"^missing '{key}' in {re.escape(section)}$"):
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


def test_prepare_rejects_negative_seed(baseline_doc):
    with pytest.raises(sc.ScenarioError, match=r"^seed must be non-negative$"):
        sc.prepare(baseline_doc, seed=-1)


def _assert_cli_rejects_on_one_line(doc, tmp_path, capsys, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err == f"invalid scenario: {message}\n"


def test_cli_reports_non_number_on_one_line(baseline_doc, tmp_path, capsys):
    doc = _with_field(baseline_doc, "pricing.p_ref", "80")
    _assert_cli_rejects_on_one_line(doc, tmp_path, capsys, "pricing.p_ref must be a number")


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("station", 5, "station must be a JSON object"),
        ("ess", [1, 2], "ess must be a JSON object"),
        ("mt_units[0].p_max", 10**400, "mt_units[0].p_max must be finite"),
    ],
    ids=["scalar_block", "list_block", "int_beyond_float"],
)
def test_cli_reports_malformed_field_on_one_line(baseline_doc, tmp_path, capsys, field, value, message):
    doc = _with_field(baseline_doc, field, value)
    _assert_cli_rejects_on_one_line(doc, tmp_path, capsys, message)


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


@pytest.mark.parametrize("arrival", ["-5.0", "30.0", "0.0", "nan"])
def test_cli_rejects_session_arrival_outside_the_day_by_line(baseline_doc, tmp_path, capsys, arrival):
    # arrivals lie in (0, 24]; outside it a window would start before the day
    # or be clamped to its last hour without notice
    from mgsched.ev_fleet import SESSION_CSV_COLUMNS

    table = tmp_path / "fleet.csv"
    table.write_text(f"{','.join(SESSION_CSV_COLUMNS)}\n0,18.5,30.0,0.5,0.9,-1,-1,7.6\n"
                     f"1,{arrival},30.0,0.5,0.9,-1,-1,7.6\n")
    doc = _with_field(baseline_doc, "fleet.sessions_csv", "fleet.csv")
    _assert_cli_rejects_on_one_line(doc, tmp_path, capsys,
                                    f"{table} line 3: arrival must lie in (0, 24], got {arrival}")


@pytest.mark.parametrize(
    "row, field, rule, got",
    [
        pytest.param("18.5,30.0,0.05,0.9,-1,-1,16.15", "soc_initial", "lie in [0.2, 0.9]", "0.05",
                     id="soc_initial-below-soc_min"),
        pytest.param("18.5,30.0,0.5,0.9,-1,-1,16.15", "required_energy",
                     "be (soc_target - soc_initial) * battery_capacity = 7.6", "16.15", id="energy-contradicts-socs"),
        pytest.param("18.5,30.0,0.5,0.9,-1,-1,1000.0", "required_energy",
                     "be (soc_target - soc_initial) * battery_capacity = 7.6", "1000.0", id="energy-beyond-battery"),
        pytest.param("18.5,-30.0,0.5,0.9,-1,-1,7.6", "mileage", "be finite and non-negative", "-30.0",
                     id="mileage-negative"),
        pytest.param("18.5,30.0,0.5,0.95,-1,-1,8.55", "soc_target", "lie in [0.5, 0.9]", "0.95",
                     id="soc_target-above-charge-target"),
        pytest.param("18.5,thirty,0.5,0.9,-1,-1,7.6", "mileage", "be a number", "thirty", id="mileage-not-a-number"),
    ],
)
def test_cli_rejects_bad_session_row_by_line_and_field(baseline_doc, tmp_path, capsys, row, field, rule, got):
    # every row is held to what a sampled fleet guarantees (fleet.soc_min 0.2,
    # soc_expected 0.9, a 19 kWh battery; 30 km give the charge target 0.9)
    from mgsched.ev_fleet import SESSION_CSV_COLUMNS

    table = tmp_path / "fleet.csv"
    table.write_text(f"{','.join(SESSION_CSV_COLUMNS)}\n0,18.5,30.0,0.5,0.9,-1,-1,7.6\n1,{row}\n")
    doc = _with_field(baseline_doc, "fleet.sessions_csv", "fleet.csv")
    _assert_cli_rejects_on_one_line(doc, tmp_path, capsys, f"{table} line 3: {field} must {rule}, got {got}")


@pytest.mark.parametrize("count", [20, 150])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_written_session_table_reads_back_as_valid(baseline_scaled, tmp_path, count, seed):
    # the table a run writes, including the targets of truncated windows
    from mgsched.ev_fleet import read_sessions_csv, write_sessions_csv

    rt = sc.prepare(baseline_scaled(count), seed=seed)
    table = tmp_path / "sessions.csv"
    write_sessions_csv(table, rt.sessions)
    assert read_sessions_csv(table, rt.ev_params) == [replace(s, target_truncated=False) for s in rt.sessions]


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


def test_cli_validate_reports_an_unservable_fleet_on_one_line(quick_scenario, tmp_path, capsys):
    # feed limits at 1 % of the headroom cannot charge the fleet in its windows
    doc = _with_field(sc.load_scenario(quick_scenario), "algorithm.alpha_cap", 0.01)
    bad = tmp_path / "starved.json"
    bad.write_text(json.dumps(doc))
    assert cli.main(["validate", "--scenario", str(bad)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("infeasible: EVs [") and "Farkas ray" in err
    assert err.count("\n") == 1 and err.endswith("\n")


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


NAN_BINS_ERROR = "invalid scenario: pv[6] cannot be discretized: probabilities must be finite\n"


def _nan_bins_doc(baseline_doc):
    """The baseline with Beta shapes so large that ``betainc`` of them is NaN
    inside the support, so the PV bins are NaN (hour 6 is the first with
    sunlight)."""
    doc = copy.deepcopy(baseline_doc)
    doc["pv"]["alpha"] = [1e308] * 24
    doc["pv"]["beta"] = [1e308] * 24
    return doc


def _steep_wind_doc(baseline_doc):
    """The baseline with a Weibull wind speed so steep that (v / c) ** k
    overflows on most of the ramp."""
    doc = copy.deepcopy(baseline_doc)
    doc["wt"]["v_in"] = 0.0
    doc["wt"]["k"] = [400.0] * 24
    doc["wt"]["c"] = [1.0] * 24
    return doc


def test_cli_validate_rejects_nan_bins_by_source_and_hour(baseline_doc, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_nan_bins_doc(baseline_doc)))
    assert cli.main(["validate", "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err == NAN_BINS_ERROR


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_nan_bins_error_is_the_whole_of_stderr(baseline_doc, tmp_path, command):
    done = _cli_in_own_interpreter(_nan_bins_doc(baseline_doc), tmp_path, command)
    assert done.returncode == 1
    assert done.stderr == NAN_BINS_ERROR


def test_cli_validates_steep_wind_with_empty_stderr(baseline_doc, tmp_path):
    # the overflow is the exact limit S = 0 of the survival function
    done = _cli_in_own_interpreter(_steep_wind_doc(baseline_doc), tmp_path, "validate")
    assert done.returncode == 0
    assert done.stderr == ""


def _cli_in_own_interpreter(doc, tmp_path, command):
    """``mgsched <command>`` on ``doc`` in a separate interpreter: pytest
    captures warnings, so only there does stderr show what a shell user sees."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONWARNINGS", None)
    args = [sys.executable, "-m", "mgsched.cli", command, "--scenario", str(path)]
    if command == "run":
        args += ["--iters", "1", "--out-dir", str(tmp_path / "out")]
    return subprocess.run(args, capture_output=True, text=True, env=env, timeout=120)


def test_discretization_that_succeeds_shows_its_warnings(monkeypatch):
    spec = sc.dist.beta_pv_pdf(2.0, 3.0, 10.0)
    discretize = sc.discretize

    def warn_then_discretize(*args):
        warnings.warn("from the density", RuntimeWarning)
        return discretize(*args)

    want = discretize(spec, 10.0, 2.5)
    monkeypatch.setattr(sc, "discretize", warn_then_discretize)
    with pytest.warns(RuntimeWarning, match="from the density"):
        got = sc._discretized(spec, 10.0, 2.5, "pv[0]")
    assert got.probs.tobytes() == want.probs.tobytes()


@pytest.mark.parametrize("command", ["run"])
@pytest.mark.parametrize(
    "error",
    [
        InfeasibleScheduleError("exact dispatch: HiGHS status 2", {}),
        IpmError("no convergence within 100 iterations"),
        StructuralInfeasibilityError("EVs [3] cannot be charged within their windows", np.ones(2), [3]),
    ],
    ids=["infeasible_schedule", "ipm", "structural"],
)
def test_cli_reports_solver_failure_on_one_line(quick_scenario, tmp_path, capsys, monkeypatch, command, error):
    def fail(rt):
        raise error

    monkeypatch.setattr(co, "compute_baselines", fail)
    assert cli.main([command, "--scenario", str(quick_scenario), "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == f"{command} failed: {error}\n"


# Fields that size memory or run time: the property test never scales them up.
SIZES = ("fleet.count", "algorithm.jaya.pop_size", "algorithm.jaya.max_iter", "algorithm.ipm.max_iter",
         "algorithm.pricing_iterations")


def _numbers_by_field(value, name=""):
    """(dotted field, value) of every number under ``value``."""
    if isinstance(value, dict):
        return [pair for key, item in value.items() for pair in _numbers_by_field(item, f"{name}.{key}" if name else key)]
    if isinstance(value, list):
        return [pair for i, item in enumerate(value) for pair in _numbers_by_field(item, f"{name}[{i}]")]
    return [(name, value)] if isinstance(value, (int, float)) and not isinstance(value, bool) else []


def _names(message, field):
    """``message`` names ``field``: in full, or as the key of a rule of its
    block (``mt_units[0].p_min must not exceed p_max`` names ``p_max``)."""
    block, _, key = field.rpartition(".")
    return field in message or (message.startswith(f"{block}.") and re.search(rf"\b{key}\b", message))


def _one_changed_number_runs_checked_or_fails_by_field(scenario, data, sections):
    """Change one number of ``sections`` of ``scenario``: the run either
    passes its checks or fails on one line that names the field."""
    doc = json.loads(scenario.read_text())
    blocks = {key: doc[key] for key in sections}
    field, value = data.draw(st.sampled_from(_numbers_by_field(blocks)), label="field")
    scales = (0.5,) if field in SIZES else (0.5, 2.0)
    new = data.draw(st.sampled_from([0, -1] + [f * value for f in scales]) | st.floats(0.05, 0.95), label="value")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "changed.json"
        path.write_text(json.dumps(_with_field(doc, field, new)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--iters", "1", "--scenario", str(path), "--out-dir", tmp])
        if code == 0:
            summary = json.loads((Path(tmp) / "summary.json").read_text())
            assert max(summary["max_residuals"].values()) <= RESIDUAL_TOL
            assert summary["charging_plan_residual"] <= RESIDUAL_TOL
            return
    assert code == 1 and "Traceback" not in err.getvalue()
    last = err.getvalue().splitlines()[-1]
    assert last.startswith("run failed: ") or (
        last.startswith("invalid scenario: ") and _names(last.removeprefix("invalid scenario: "), field)
    ), last


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_one_changed_number_runs_checked_or_fails_by_field(quick_scenario, data):
    _one_changed_number_runs_checked_or_fails_by_field(
        quick_scenario, data, ("mt_units", "ess", "fleet", "station", "algorithm"))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(data=st.data())
def test_one_changed_hourly_pricing_or_seed_number_runs_checked_or_fails_by_field(quick_scenario, data):
    _one_changed_number_runs_checked_or_fails_by_field(quick_scenario, data, ("load", "pv", "wt", "pricing", "seed"))


def test_cli_run_writes_outputs(quick_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", str(quick_scenario), "--out-dir", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUT_FILES)
    assert "selected iteration" in capsys.readouterr().out


def _numbers(value):
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    return [value] if isinstance(value, float) else []


def test_cli_run_writes_no_negative_zero(tmp_path):
    # an idle storage period once wrote its discharge as -0.0
    out = tmp_path / "out"
    assert cli.main(["run", "--seed", "1", "--iters", "1", "--out-dir", str(out)]) == 0
    with open(out / "schedule.csv", newline="") as fh:
        assert "-0.0" not in [cell for row in csv.reader(fh) for cell in row]
    summary = json.loads((out / "summary.json").read_text())
    assert [x for x in _numbers(summary) if x == 0.0 and math.copysign(1.0, x) < 0.0] == []


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

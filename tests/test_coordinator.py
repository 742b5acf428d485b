"""Pricing loop, baselines, case report and output writers on a reduced scenario."""

import copy
import json
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import linprog

from mgsched import coordinator as co
from mgsched import scenario as sc
from mgsched.charging import StructuralInfeasibilityError, build_lp, charging_cost, ipm_solve
from mgsched.dispatch import (
    MILP_REL_GAP,
    RESIDUAL_TOL,
    constraint_residuals,
    net_operating_cost,
    solve_upper,
)


@pytest.fixture(scope="module")
def small_doc():
    doc = sc.load_scenario(sc.baseline_scenario_path())
    doc = copy.deepcopy(doc)
    doc["fleet"]["count"] = 6
    doc["algorithm"]["pricing_iterations"] = 2
    doc["algorithm"]["jaya"] = {"pop_size": 24, "max_iter": 120}
    return doc


@pytest.fixture(scope="module")
def small_rt(small_doc):
    return sc.prepare(small_doc, seed=3)


@pytest.fixture(scope="module")
def small_base(small_rt):
    return co.compute_baselines(small_rt)


def test_real_time_price_reference_point():
    profile = co.real_time_price(np.array([30.0]), np.array([50.0]), 80.0, 0.6)
    assert profile.prices[0] == pytest.approx(0.6)


def test_real_time_price_scales_with_load():
    profile = co.real_time_price(np.array([50.0]), np.array([50.0]), 80.0, 0.6)
    assert profile.prices[0] == pytest.approx(0.75)


def test_real_time_price_floors_degenerate_load():
    profile = co.real_time_price(np.zeros(2), np.zeros(2), 80.0, 0.6)
    assert np.all(profile.prices == 0.01)


def test_real_time_price_validates():
    with pytest.raises(ValueError):
        co.real_time_price(np.array([1.0]), np.array([1.0]), 0.0, 0.6)
    with pytest.raises(ValueError):
        co.real_time_price(np.array([-1.0]), np.array([0.0]), 80.0, 0.6)


def _record(index, f1, f2):
    return co.IterationRecord(index=index, prices=None, plan=None, schedule=None,
                              mg_cost=f1, ev_cost=f2, caps=None)


def test_select_single_record():
    records = [_record(0, 10.0, 5.0)]
    assert co.select_joint_optimum(records, 0.0, 0.0) is records[0]


def test_select_breaks_ties_by_lowest_index():
    records = [_record(0, 5.0, 0.0), _record(1, 3.0, 0.0), _record(2, 0.0, 3.0)]
    chosen = co.select_joint_optimum(records, 0.0, 0.0)
    assert chosen.index == 1


def test_select_exact_match_wins():
    records = [_record(0, 9.0, 9.0), _record(1, 4.0, 7.0), _record(2, 8.0, 2.0)]
    assert co.select_joint_optimum(records, 4.0, 7.0).index == 1


def test_select_invariant_under_common_translation():
    rng = np.random.default_rng(1)
    records = [_record(i, float(rng.uniform(0, 100)), float(rng.uniform(0, 100))) for i in range(12)]
    base_choice = co.select_joint_optimum(records, 20.0, 30.0).index
    shift = 55.5
    shifted = [_record(r.index, r.mg_cost + shift, r.ev_cost + shift) for r in records]
    assert co.select_joint_optimum(shifted, 20.0 + shift, 30.0 + shift).index == base_choice


def test_single_iteration_prices_follow_first_plan(small_rt, small_base):
    records = co.run_bilevel(_with_iters(small_rt, 1), small_base)
    assert len(records) == 1
    expected = co.real_time_price(
        records[0].plan.ev_load, small_rt.base_load, small_rt.p_ref,
        small_rt.omega_ref, small_rt.price_floor,
    )
    assert records[0].prices.prices == pytest.approx(expected.prices, abs=1e-12)


def _with_iters(rt, n):
    clone = copy.copy(rt)
    clone.pricing_iterations = n
    return clone


def test_loop_is_deterministic(small_rt, small_base):
    a = co.run_bilevel(small_rt, small_base)
    b = co.run_bilevel(small_rt, co.compute_baselines(small_rt))
    assert [r.mg_cost for r in a] == [r.mg_cost for r in b]
    assert [r.ev_cost for r in a] == [r.ev_cost for r in b]
    for ra, rb in zip(a, b):
        assert np.array_equal(ra.plan.p_ev, rb.plan.p_ev)
        assert np.array_equal(ra.schedule.p_mt, rb.schedule.p_mt)


def test_records_recompute_to_stored_costs(small_rt, small_base):
    for record in co.run_bilevel(small_rt, small_base):
        f1 = net_operating_cost(record.schedule, record.plan.ev_load,
                                record.prices.prices, small_rt.units, small_rt.ess)
        f2 = charging_cost(record.plan, record.prices.prices, small_rt.station)
        assert f1 == pytest.approx(record.mg_cost, abs=1e-9)
        assert f2 == pytest.approx(record.ev_cost, abs=1e-9)


def test_strategies_are_reproducible(small_rt):
    first = co.compute_baselines(small_rt)
    second = co.compute_baselines(small_rt)
    assert first.mg_cost_ideal == second.mg_cost_ideal
    assert first.ev_cost_under_mg == second.ev_cost_under_mg


def test_ev_only_uniform_price_oracle(small_doc):
    # one flat tariff everywhere: the optimal bill is forced by the energy need
    doc = copy.deepcopy(small_doc)
    doc["pricing"]["tou"] = {"peak": 0.62, "flat": 0.62, "offpeak": 0.62}
    rt = sc.prepare(doc, seed=3)
    required = sum(s.required_energy for s in rt.sessions)
    expected = 0.62 * required / rt.ev_params.charge_efficiency + rt.station.daily_cost
    assert co.compute_baselines(rt).ev_cost_ideal == pytest.approx(expected, abs=1e-6)


def _reference_iteration_zero(rt, base):
    """Iteration 0 as the loop solved it before it was taken from the
    baselines: the charging program at the grid tariff and loose caps, then
    JAYA with salt 0, warm-started from the exact schedule."""
    plan, caps = co._solve_lower(rt, rt.tou, co.loose_caps(rt))
    realized = co.real_time_price(plan.ev_load, rt.base_load, rt.p_ref, rt.omega_ref, rt.price_floor)
    inputs = co.upper_inputs(rt, plan.ev_load, realized.prices)
    schedule, mg_cost = solve_upper(inputs, co._jaya_for(rt, salt=0), warm_start=base.schedule)
    return co.IterationRecord(0, realized, plan, schedule, mg_cost,
                              charging_cost(plan, realized.prices, rt.station), caps)


def _record_bytes(record):
    """Every field of a record, each as (dtype, shape, bytes)."""
    def enc(value):
        a = np.asarray(value)
        return a.dtype.str, a.shape, a.tobytes()
    out = {name: enc(getattr(record, name)) for name in ("index", "mg_cost", "ev_cost", "caps")}
    out["prices"] = enc(record.prices.prices)
    for part in ("plan", "schedule"):
        obj = getattr(record, part)
        out.update({f"{part}.{f.name}": enc(getattr(obj, f.name)) for f in fields(obj)})
    return out


@pytest.mark.parametrize("workload, seed", [("baseline", 100033), ("baseline", 100036), ("scaled150", 1)])
def test_iteration_zero_is_bitwise_the_warm_started_search(workload, seed, baseline_scaled):
    doc = sc.load_scenario(sc.baseline_scenario_path()) if workload == "baseline" else baseline_scaled(150)
    rt = _with_iters(sc.prepare(doc, seed=seed), 1)
    base = co.compute_baselines(rt)
    (record,) = co.run_bilevel(rt, base)
    reference = _reference_iteration_zero(rt, base)
    got, want = _record_bytes(record), _record_bytes(reference)
    for name in want:
        if not (name.startswith("schedule.") or name == "mg_cost"):
            assert got[name] == want[name], name
    # The search from the exact schedule may end on another repaired schedule
    # in the last bits.  What justifies not running it: the schedule it starts
    # from and the one it ends on both cost the proven optimum within the
    # MILP's own gap.
    tol = MILP_REL_GAP * abs(base.mg_cost_ideal)
    assert abs(record.mg_cost - base.mg_cost_ideal) <= tol
    assert abs(reference.mg_cost - base.mg_cost_ideal) <= tol
    # Both shortcuts would differ from the record: the exact schedule is not
    # its own repaired encoding, and on baseline input 100036 the ideal cost
    # differs from the record's in the last bits.
    assert any(getattr(base.schedule, f.name).tobytes() != getattr(record.schedule, f.name).tobytes()
               for f in fields(record.schedule))
    assert (record.mg_cost != base.mg_cost_ideal) == (seed == 100036)


@pytest.mark.parametrize("iterations", [1, 2])
def test_iteration_zero_solves_no_program_of_its_own(small_rt, monkeypatch, iterations):
    calls = {"ipm_solve": 0, "solve_upper": 0}

    def counted(name):
        inner = getattr(co, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(co, name, counted(name))
    co.run_joint(_with_iters(small_rt, iterations))
    # the baselines' one charging program, then one of each per later iteration
    assert calls == {"ipm_solve": iterations, "solve_upper": iterations - 1}


def test_ideal_point_does_not_depend_on_the_search_seed(small_rt):
    other = replace(small_rt, jaya=replace(small_rt.jaya, seed=small_rt.jaya.seed + 1))
    a = co.compute_baselines(small_rt)
    b = co.compute_baselines(other)
    assert a.mg_cost_ideal == b.mg_cost_ideal
    assert np.array_equal(a.schedule.p_mt, b.schedule.p_mt)


def test_large_fleet_input_100005_gets_a_feasible_schedule(baseline_scaled):
    # the benchmark's large_fleet scenario and its input 100005: feasible,
    # but a JAYA dispatch on it once ended 3.5e-4 kW short of the balance
    doc = baseline_scaled(150)
    doc["algorithm"]["pricing_iterations"] = 3
    rt = sc.prepare(doc, seed=100005)
    outcome = co.run_joint(rt)
    selected = outcome.selected
    inputs = co.upper_inputs(rt, selected.plan.ev_load, selected.prices.prices)
    assert max(constraint_residuals(selected.schedule, inputs).values()) <= RESIDUAL_TOL


def test_baseline_input_100307_gets_a_feasible_schedule():
    # the benchmark's baseline_day input 100307: a JAYA dispatch on it once
    # ended 7.3e-5 kW short of the balance, so the run failed
    rt = sc.prepare(sc.load_scenario(sc.baseline_scenario_path()), seed=100307)
    outcome = co.run_joint(rt)
    selected = outcome.selected
    inputs = co.upper_inputs(rt, selected.plan.ev_load, selected.prices.prices)
    assert max(constraint_residuals(selected.schedule, inputs).values()) <= RESIDUAL_TOL


def test_case_collapses_when_responses_match(small_rt):
    # with one iteration, the joint outcome is the grid-tariff baseline
    report = co.run_case(small_rt, co.run_joint(_with_iters(small_rt, 1)))
    assert report.ev_load_dr == pytest.approx(report.ev_load_no_dr)
    assert report.price_dr == pytest.approx(report.price_no_dr)
    assert report.peak_to_valley_dr == report.peak_to_valley_no_dr
    assert report.correlation_dr == report.correlation_no_dr


def test_case_report_consistency(small_rt):
    report = co.run_case(small_rt, co.run_joint(_with_iters(small_rt, 1)))
    total = small_rt.base_load + report.ev_load_no_dr
    assert report.peak_to_valley_no_dr == pytest.approx(float(total.max() - total.min()))


def test_correlation_handles_constant_series():
    assert co.price_load_correlation(np.ones(5), np.arange(5.0)) == 0.0


def test_writers_produce_stable_files(tmp_path, small_rt):
    outcome = co.run_joint(small_rt)
    co.write_records_csv(tmp_path / "records.csv", outcome)
    co.write_prices_csv(tmp_path / "prices.csv", small_rt, outcome)
    co.write_summary_json(tmp_path / "summary.json", small_rt, outcome)

    records = (tmp_path / "records.csv").read_text().splitlines()
    assert records[0] == "iteration,mg_cost,ev_cost,distance_to_ideal,selected"
    assert len(records) == len(outcome.records) + 1
    assert sum(line.endswith(",1") for line in records[1:]) == 1

    prices = (tmp_path / "prices.csv").read_text().splitlines()
    assert prices[0] == "period,tou,real_time_initial,real_time_selected"
    assert len(prices) == 25

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["selected_iteration"] == outcome.selected_index
    assert summary["mg_cost_joint"] == outcome.selected.mg_cost
    assert max(summary["max_residuals"].values()) <= 1e-6


def test_fallback_records_the_caps_it_solved_against(tmp_path, small_rt, small_base, monkeypatch):
    # a dispatch that leaves no feed headroom makes the next charging program
    # structurally infeasible, so it falls back to the loose limits
    no_caps = np.zeros(small_rt.tou.size)
    with pytest.raises(StructuralInfeasibilityError):
        ipm_solve(build_lp(small_rt.sessions, small_rt.ev_params, small_rt.tou, no_caps, small_rt.station))
    monkeypatch.setattr(co, "caps_from_schedule", lambda rt, sched: no_caps)
    records = co.run_bilevel(small_rt, small_base)
    assert np.array_equal(records[1].caps, co.loose_caps(small_rt))

    ideal = SimpleNamespace(mg_cost_ideal=0.0, ev_cost_ideal=0.0)
    outcome = co.JointOutcome(records=records, baselines=ideal, selected_index=1)
    co.write_summary_json(tmp_path / "summary.json", small_rt, outcome)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["charging_plan_residual"] <= 1e-6


def test_schedule_limits_of_baseline_seed_6_are_certified_infeasible():
    # the exact ideal schedule of this input commits too little in hours
    # 22-23 for the fleet, and every later schedule too; each such LP carries
    # a Farkas ray that HiGHS confirms, and the loop falls back to the loose limits
    rt = sc.prepare(sc.load_scenario(sc.baseline_scenario_path()), seed=6, iterations=3)
    records = co.run_joint(rt).records
    for previous, record in zip(records, records[1:]):
        caps = co.caps_from_schedule(rt, previous.schedule)
        lp = build_lp(rt.sessions, rt.ev_params, previous.prices.prices, caps, rt.station)
        with pytest.raises(StructuralInfeasibilityError) as err:
            ipm_solve(lp, tol=rt.ipm_tol, max_iter=rt.ipm_max_iter)
        y = err.value.certificate
        assert np.all(y >= 0.0)
        assert np.max(np.abs(lp.G.T @ y)) <= 1e-9 * (1.0 + np.max(np.abs(lp.h)))
        assert lp.h @ y < 0.0
        assert err.value.ev_ids
        highs = linprog(lp.c, A_ub=lp.G, b_ub=lp.h, bounds=(None, None), method="highs")
        assert highs.status == 2
        assert np.array_equal(record.caps, co.loose_caps(rt))

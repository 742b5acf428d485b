"""Microgrid dispatch: cost arithmetic, schedule repair and the search."""

import numpy as np
import pytest

from mgsched.dispatch import (
    EssParams,
    InfeasibleScheduleError,
    MtUnit,
    UpperInputs,
    UpperSchedule,
    _population_fitness,
    constraint_residuals,
    encode_schedule,
    net_operating_cost,
    repair_and_close_balance,
    solve_upper,
    write_schedule_csv,
)
from mgsched.jaya import JayaConfig
from mgsched.sequences import ProbSequence

MT1 = MtUnit("MT1", 1.2, 1.6, 0.35, 0.04, 5.0, 35.0)
MT2 = MtUnit("MT2", 1.2, 1.6, 0.35, 0.04, 5.0, 30.0)
MT3 = MtUnit("MT3", 1.0, 3.5, 0.26, 0.04, 10.0, 65.0)
ESS = EssParams(32.0, 160.0, 40.0, 40.0, 0.95, 0.95, 0.3, 0.5, 0.02, 96.0)
NO_ESS = EssParams(0.0, 0.0, 0.0, 0.0, 0.95, 0.95, 0.3, 0.5, 0.02, 0.0)


def _point_mass(t=24):
    return tuple(ProbSequence(2.5, np.array([1.0])) for _ in range(t))


def _inputs(units, ess, base_load, ev_load=None, prices=None, sequences=None, gamma=0.95):
    base_load = np.asarray(base_load, dtype=float)
    t = base_load.size
    return UpperInputs(
        units=units,
        ess=ess,
        base_load=base_load,
        sequences=sequences if sequences is not None else _point_mass(t),
        gamma=gamma,
        ev_load=np.zeros(t) if ev_load is None else np.asarray(ev_load, dtype=float),
        prices=np.zeros(t) if prices is None else np.asarray(prices, dtype=float),
    )


def _schedule(units, t, **overrides):
    n = len(units)
    fields = dict(
        on=np.zeros((n, t)),
        startup=np.zeros((n, t)),
        p_mt=np.zeros((n, t)),
        r_mt=np.zeros((n, t)),
        p_ch=np.zeros(t),
        p_dc=np.zeros(t),
        p_res=np.zeros(t),
        p_un=np.zeros(t),
        soc=np.full(t + 1, 96.0),
    )
    fields.update(overrides)
    return UpperSchedule(**fields)


def test_net_cost_single_unit_hour():
    # MT3 committed for one hour at 65 kW with 10 kW reserve and a fresh start
    sched = _schedule((MT3,), 1,
                      on=np.array([[1.0]]), startup=np.array([[1.0]]),
                      p_mt=np.array([[65.0]]), r_mt=np.array([[10.0]]))
    cost = net_operating_cost(sched, np.zeros(1), np.zeros(1), (MT3,), NO_ESS)
    assert cost == pytest.approx(21.8)


def test_net_cost_all_off_is_zero():
    sched = _schedule((MT1, MT2, MT3), 4)
    assert net_operating_cost(sched, np.zeros(4), np.zeros(4), (MT1, MT2, MT3), NO_ESS) == 0.0


def test_net_cost_revenue_linearity():
    sched = _schedule((MT3,), 2)
    base = net_operating_cost(sched, np.array([0.0, 0.0]), np.full(2, 0.6), (MT3,), NO_ESS)
    plus = net_operating_cost(sched, np.array([1.0, 0.0]), np.full(2, 0.6), (MT3,), NO_ESS)
    assert plus - base == pytest.approx(-0.6)


def test_net_cost_invariant_under_unit_permutation():
    twin_a = MtUnit("A", 1.2, 1.6, 0.35, 0.04, 5.0, 35.0)
    twin_b = MtUnit("B", 1.2, 1.6, 0.35, 0.04, 5.0, 35.0)
    on = np.array([[1.0, 0.0], [1.0, 1.0]])
    p = np.array([[20.0, 0.0], [30.0, 12.0]])
    sched_ab = _schedule((twin_a, twin_b), 2, on=on, p_mt=p)
    sched_ba = _schedule((twin_b, twin_a), 2, on=on[::-1], p_mt=p[::-1])
    cost_ab = net_operating_cost(sched_ab, np.zeros(2), np.zeros(2), (twin_a, twin_b), NO_ESS)
    cost_ba = net_operating_cost(sched_ba, np.zeros(2), np.zeros(2), (twin_b, twin_a), NO_ESS)
    assert cost_ab == pytest.approx(cost_ba, abs=1e-12)


def _genes(inputs, p_mt, r_mt, p_ch, p_dc, p_res, on):
    x = np.concatenate([np.ravel(p_mt), np.ravel(r_mt), p_ch, p_dc, p_res])
    return x, np.ravel(np.asarray(on, dtype=float))


def test_repair_keeps_larger_storage_action():
    # conflicting charge/discharge requests in period 0: the larger one stays
    inputs = _inputs((MT3,), ESS, [50.0, 50.0])
    x, b = _genes(inputs, [[60.0, 60.0]], [[0.0, 0.0]],
                  np.array([5.0, 0.0]), np.array([3.0, 0.0]), np.zeros(2), [[1.0, 1.0]])
    sched = repair_and_close_balance(x, b, inputs)
    assert sched.p_dc[0] == 0.0
    assert sched.p_ch[0] == pytest.approx(5.0)
    # the trajectory still returns to the boundary state by discharging later
    assert sched.soc[-1] == pytest.approx(96.0)


def test_repair_closes_balance_with_slack():
    # supply 100 vs demand 90 dumps 10 kW into the controlled load
    inputs = _inputs((MT3, MT1), NO_ESS, [90.0])
    x, b = _genes(inputs, [[65.0], [35.0]], [[0.0], [0.0]], np.zeros(1), np.zeros(1), np.zeros(1), [[1.0], [1.0]])
    sched = repair_and_close_balance(x, b, inputs)
    assert sched.p_un[0] == pytest.approx(10.0)
    assert constraint_residuals(sched, inputs)["balance"] <= 1e-12


def test_repair_leaves_deficit_for_penalty():
    inputs = _inputs((MT1,), NO_ESS, [90.0])
    x, b = _genes(inputs, [[35.0]], [[0.0]], np.zeros(1), np.zeros(1), np.zeros(1), [[1.0]])
    sched = repair_and_close_balance(x, b, inputs)
    res = constraint_residuals(sched, inputs)
    assert res["balance"] == pytest.approx(55.0)  # 90 - 35
    fitness = _population_fitness(x[None, :], b[None, :], inputs)[0]
    cost = net_operating_cost(sched, inputs.ev_load, inputs.prices, inputs.units, inputs.ess)
    assert fitness == pytest.approx(cost + 1000.0 * 55.0)


def test_repair_respects_unit_and_storage_limits():
    rng = np.random.default_rng(3)
    inputs = _inputs((MT1, MT2, MT3), ESS, rng.uniform(20.0, 60.0, 24))
    n, t = 3, 24
    x = rng.uniform(0.0, 70.0, 2 * n * t + 3 * t)
    b = rng.integers(0, 2, n * t).astype(float)
    sched = repair_and_close_balance(x, b, inputs)
    res = constraint_residuals(sched, inputs)
    # balance may legitimately stay violated (penalized); the rest is exact
    for key in ("mt_bounds", "soc_recursion", "soc_bounds", "ess_power",
                "soc_boundary", "mt_headroom", "ess_reserve_cap"):
        assert res[key] <= 1e-9, key


def test_storage_trajectory_returns_to_boundary():
    rng = np.random.default_rng(11)
    inputs = _inputs((MT3,), ESS, rng.uniform(30.0, 55.0, 24))
    x = rng.uniform(0.0, 65.0, 2 * 24 + 3 * 24)
    b = np.ones(24)
    sched = repair_and_close_balance(x, b, inputs)
    assert sched.soc[0] == pytest.approx(96.0, abs=1e-9)
    assert sched.soc[-1] == pytest.approx(96.0, abs=1e-9)
    assert np.all(sched.soc >= 32.0 - 1e-9) and np.all(sched.soc <= 160.0 + 1e-9)


def test_penalized_fitness_feasible_equals_cost():
    inputs = _inputs((MT3,), NO_ESS, [50.0, 50.0])
    x, b = _genes(inputs, [[50.0, 50.0]], [[0.0, 0.0]], np.zeros(2), np.zeros(2), np.zeros(2), [[1.0, 1.0]])
    sched = repair_and_close_balance(x, b, inputs)
    cost = net_operating_cost(sched, inputs.ev_load, inputs.prices, inputs.units, inputs.ess)
    assert _population_fitness(x[None, :], b[None, :], inputs)[0] == pytest.approx(cost)


def test_solve_upper_matches_enumeration_on_toy():
    inputs = _inputs((MT1,), NO_ESS, [20.0, 20.0])
    sched, cost = solve_upper(inputs, JayaConfig(pop_size=40, max_iter=300, seed=3))
    # both periods must run; optimum sits exactly at the load point
    oracle = 1.2 + 2 * (1.6 + 0.35 * 20.0)
    assert cost == pytest.approx(oracle, abs=1e-6)
    assert sched.on.tolist() == [[1.0, 1.0]]
    assert sched.p_mt[0] == pytest.approx([20.0, 20.0], abs=1e-6)


def test_solve_upper_zero_load_stays_dark():
    inputs = _inputs((MT1, MT2), NO_ESS, [0.0, 0.0], gamma=0.5)
    sched, cost = solve_upper(inputs, JayaConfig(pop_size=30, max_iter=200, seed=1))
    assert cost == pytest.approx(0.0, abs=1e-9)
    assert np.all(sched.on == 0.0)


def test_solve_upper_reports_infeasibility():
    inputs = _inputs((MT1,), NO_ESS, [200.0])  # beyond total capacity
    with pytest.raises(InfeasibleScheduleError) as err:
        solve_upper(inputs, JayaConfig(pop_size=10, max_iter=30, seed=0))
    assert err.value.residuals["balance"] > 0.0


def test_warm_start_round_trip_is_stable():
    rng = np.random.default_rng(4)
    inputs = _inputs((MT1, MT2, MT3), ESS, rng.uniform(30.0, 55.0, 24))
    x = rng.uniform(0.0, 65.0, 2 * 3 * 24 + 3 * 24)
    b = rng.integers(0, 2, 3 * 24).astype(float)
    sched = repair_and_close_balance(x, b, inputs)
    x2, b2 = encode_schedule(sched)
    again = repair_and_close_balance(x2, b2, inputs)
    for name in ("on", "p_mt", "r_mt", "p_ch", "p_dc", "p_res", "p_un", "soc"):
        assert getattr(again, name) == pytest.approx(getattr(sched, name), abs=1e-9), name


def test_schedule_csv_layout(tmp_path):
    inputs = _inputs((MT1,), NO_ESS, [20.0, 20.0])
    sched, _ = solve_upper(inputs, JayaConfig(pop_size=30, max_iter=150, seed=3))
    path = tmp_path / "schedule.csv"
    write_schedule_csv(path, sched, inputs)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("period,reserve_requirement,p_ch,p_dc,p_res,p_un,soc_start,soc_end")
    assert len(lines) == 3

"""Microgrid dispatch: cost arithmetic, schedule repair and the search."""

import numpy as np
import pytest

from mgsched import coordinator as co
from mgsched import scenario as sc
from mgsched.dispatch import (
    EssParams,
    InfeasibleScheduleError,
    MtUnit,
    UpperInputs,
    UpperSchedule,
    _gene_bounds,
    _population_fitness,
    _repair_population,
    _split_genes,
    constraint_residuals,
    encode_schedule,
    net_operating_cost,
    repair_and_close_balance,
    solve_upper,
    solve_upper_exact,
    warm_start_schedule,
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


def _genes(p_ch, p_dc, on):
    return np.concatenate([p_ch, p_dc]), np.ravel(np.asarray(on, dtype=float))


def test_repair_keeps_larger_storage_action():
    # conflicting charge/discharge requests in period 0: the larger one stays
    inputs = _inputs((MT3,), ESS, [50.0, 50.0])
    x, b = _genes(np.array([5.0, 0.0]), np.array([3.0, 0.0]), [[1.0, 1.0]])
    sched = repair_and_close_balance(x, b, inputs)
    assert sched.p_dc[0] == 0.0
    assert sched.p_ch[0] == pytest.approx(5.0)
    # the trajectory still returns to the boundary state by discharging later
    assert sched.soc[-1] == pytest.approx(96.0)


def test_repair_closes_balance_with_slack():
    # the must-run minimums, 10 + 5 kW, against a demand of 5 kW dump 10 kW
    # into the controlled load
    inputs = _inputs((MT3, MT1), NO_ESS, [5.0])
    x, b = _genes(np.zeros(1), np.zeros(1), [[1.0], [1.0]])
    sched = repair_and_close_balance(x, b, inputs)
    assert sched.p_un[0] == pytest.approx(10.0)
    assert constraint_residuals(sched, inputs)["balance"] <= 1e-12


def test_repair_leaves_deficit_for_penalty():
    inputs = _inputs((MT1,), NO_ESS, [90.0])
    x, b = _genes(np.zeros(1), np.zeros(1), [[1.0]])
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
    x = rng.uniform(0.0, 70.0, 2 * t)
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
    x = rng.uniform(0.0, 65.0, 2 * 24)
    b = np.ones(24)
    sched = repair_and_close_balance(x, b, inputs)
    assert sched.soc[0] == pytest.approx(96.0, abs=1e-9)
    assert sched.soc[-1] == pytest.approx(96.0, abs=1e-9)
    assert np.all(sched.soc >= 32.0 - 1e-9) and np.all(sched.soc <= 160.0 + 1e-9)
    # the reach band alone keeps every step within the rated charge
    assert np.all(sched.p_ch <= ESS.p_ch_max)


def test_genes_of_another_length_are_rejected():
    inputs = _inputs((MT1, MT3), ESS, np.full(24, 40.0))
    b = np.ones(2 * 24)
    repair_and_close_balance(np.zeros(2 * 24), b, inputs)
    # the layout with generator outputs and reserves as genes
    with pytest.raises(ValueError):
        repair_and_close_balance(np.zeros(2 * 2 * 24 + 3 * 24), b, inputs)


def test_penalized_fitness_feasible_equals_cost():
    inputs = _inputs((MT3,), NO_ESS, [50.0, 50.0])
    x, b = _genes(np.zeros(2), np.zeros(2), [[1.0, 1.0]])
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


def test_solve_upper_exact_matches_enumeration_on_toy():
    inputs = _inputs((MT1,), NO_ESS, [20.0, 20.0])
    sched, cost = solve_upper_exact(inputs)
    assert cost == pytest.approx(1.2 + 2 * (1.6 + 0.35 * 20.0), abs=1e-9)
    assert sched.on.tolist() == [[1.0, 1.0]]
    assert sched.startup.tolist() == [[1.0, 0.0]]
    assert sched.p_mt[0] == pytest.approx([20.0, 20.0], abs=1e-9)


@pytest.mark.parametrize("startup_cost, on, cost", [
    (1.2, [1.0, 0.0, 1.0], 2 * 1.2 + 2 * 1.6 + 0.35 * 40.0),  # restart after the idle hour
    (10.0, [1.0, 1.0, 1.0], 10.0 + 3 * 1.6 + 0.35 * 45.0),  # idle at p_min, surplus dumped
])
def test_solve_upper_exact_prices_start_ups(startup_cost, on, cost):
    unit = MtUnit("MT", startup_cost, 1.6, 0.35, 0.04, 5.0, 35.0)
    sched, got = solve_upper_exact(_inputs((unit,), NO_ESS, [20.0, 0.0, 20.0]))
    assert sched.on.tolist() == [on]
    assert got == pytest.approx(cost, abs=1e-9)


def test_solve_upper_exact_never_charges_and_discharges_at_once():
    # storage paid to charge would cycle both ways in one hour without the
    # mode binary
    paid = EssParams(32.0, 160.0, 40.0, 40.0, 0.95, 0.95, -0.2, 0.0, 0.02, 96.0)
    inputs = _inputs((MT3,), paid, [30.0] * 4)
    sched, _ = solve_upper_exact(inputs)
    assert max(constraint_residuals(sched, inputs).values()) <= 1e-9
    assert np.all(sched.p_ch >= 0.0) and np.all(sched.p_dc >= 0.0)


def test_solve_upper_exact_reports_infeasibility():
    inputs = _inputs((MT1,), NO_ESS, [200.0])  # beyond total capacity
    with pytest.raises(InfeasibleScheduleError, match="HiGHS status"):
        solve_upper_exact(inputs)


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


def test_warm_start_schedule_reports_infeasibility():
    inputs = _inputs((MT1,), NO_ESS, [200.0])  # beyond total capacity
    start = repair_and_close_balance(np.zeros(2), np.ones(1), inputs)
    with pytest.raises(InfeasibleScheduleError, match="warm start") as err:
        warm_start_schedule(inputs, start)
    assert err.value.residuals["balance"] > 0.0


def test_warm_start_round_trip_is_stable():
    rng = np.random.default_rng(4)
    inputs = _inputs((MT1, MT2, MT3), ESS, rng.uniform(30.0, 55.0, 24))
    x = rng.uniform(0.0, 65.0, 2 * 24)
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


# --- bitwise oracle for repair and fitness ---------------------------------
#
# The pricing loop feeds every schedule into the next search, so a last-bit
# change in repair or fitness moves a day's cost by several percent.  The two
# functions below are the straightforward formulation (np.clip, np.diff, a
# full step box in the storage recursion, lifts from every unit at its
# minimum and no reserve, constants rebuilt per call); the production code
# must agree with them bit for bit.


def _reference_repair(p_ch, p_dc, on, inputs):
    units, ess = inputs.units, inputs.ess
    pop, n_units, t = on.shape

    p_min = np.array([u.p_min for u in units])[None, :, None]
    p_max = np.array([u.p_max for u in units])[None, :, None]

    p_mt = on * p_min
    r_mt = np.zeros((pop, n_units, t))
    p_res = np.zeros((pop, t))

    keep_ch = p_ch >= p_dc
    p_ch = np.where(keep_ch, np.clip(p_ch, 0.0, ess.p_ch_max), 0.0)
    p_dc = np.where(keep_ch, 0.0, np.clip(p_dc, 0.0, ess.p_dc_max))

    gain_max = ess.eta_ch * ess.p_ch_max
    drop_max = ess.p_dc_max / ess.eta_dc
    delta = ess.eta_ch * p_ch - p_dc / ess.eta_dc

    soc = np.empty((pop, t + 1))
    soc[:, 0] = ess.soc_start
    remaining = t - np.arange(1, t + 1)
    lo_reach = np.maximum(ess.soc_min, ess.soc_start - remaining * gain_max)
    hi_reach = np.minimum(ess.soc_max, ess.soc_start + remaining * drop_max)
    for k in range(t):
        step_lo = np.maximum(soc[:, k] - drop_max, lo_reach[k])
        step_hi = np.minimum(soc[:, k] + gain_max, hi_reach[k])
        soc[:, k + 1] = np.clip(soc[:, k] + delta[:, k], step_lo, step_hi)

    moves = np.diff(soc, axis=1)
    p_ch = np.maximum(moves, 0.0) / ess.eta_ch
    p_dc = np.maximum(-moves, 0.0) * ess.eta_dc

    res_cap = np.minimum(ess.eta_dc * (soc[:, :-1] - ess.soc_min), ess.p_dc_max - p_dc)
    res_cap = np.maximum(res_cap, 0.0)

    supply = p_mt.sum(axis=1) + p_dc - p_ch + inputs.renewable_expectation[None, :]
    demand = inputs.base_load[None, :] + inputs.ev_load[None, :]
    deficit = np.maximum(demand - supply, 0.0)
    for n in sorted(range(n_units), key=lambda i: (units[i].fuel_slope, i)):
        headroom = on[:, n, :] * p_max[0, n, 0] - p_mt[:, n, :] - r_mt[:, n, :]
        add = np.minimum(deficit, np.maximum(headroom, 0.0))
        p_mt[:, n, :] += add
        deficit -= add

    need = inputs.reserve_requirement[None, :] - p_res - r_mt.sum(axis=1)
    np.maximum(need, 0.0, out=need)
    order = sorted(
        [("ess", ess.reserve_price)] + [(n, units[n].reserve_cost) for n in range(n_units)],
        key=lambda item: (item[1], str(item[0])),
    )
    for source, _ in order:
        if source == "ess":
            add = np.minimum(need, res_cap - p_res)
            p_res += add
        else:
            headroom = on[:, source, :] * p_max[0, source, 0] - p_mt[:, source, :] - r_mt[:, source, :]
            add = np.minimum(need, np.maximum(headroom, 0.0))
            r_mt[:, source, :] += add
        need -= add
    reserve_short = need

    supply = p_mt.sum(axis=1) + p_dc - p_ch + inputs.renewable_expectation[None, :]
    p_un = np.maximum(supply - demand, 0.0)
    deficit = np.maximum(demand - supply, 0.0)

    startup = np.maximum(np.diff(on, axis=2, prepend=0.0), 0.0)
    return p_mt, r_mt, p_ch, p_dc, p_res, p_un, soc, startup, deficit, reserve_short


def _reference_fitness(x, b, inputs):
    units, ess = inputs.units, inputs.ess
    pop = x.shape[0]
    n_units, t = len(units), inputs.n_periods
    on = b.reshape(pop, n_units, t)
    p_mt, r_mt, p_ch, p_dc, p_res, p_un, soc, startup, deficit, short = _reference_repair(
        *_split_genes(x, t), on, inputs
    )
    revenue = float(np.dot(inputs.ev_load, inputs.prices))
    cost = -revenue + (
        ess.discharge_price * p_dc + ess.charge_price * p_ch + ess.reserve_price * p_res
    ).sum(axis=1)
    fixed = np.array([u.fixed_fuel for u in units])[None, :, None]
    slope = np.array([u.fuel_slope for u in units])[None, :, None]
    res_c = np.array([u.reserve_cost for u in units])[None, :, None]
    start_c = np.array([u.startup_cost for u in units])[None, :, None]
    cost += (res_c * r_mt + start_c * startup + on * (fixed + slope * p_mt)).sum(axis=(1, 2))
    penalty = inputs.penalty_weight * (deficit.sum(axis=1) + short.sum(axis=1))
    return cost + penalty


# Storage small against its power, so the energy limits and reach bands bind.
TIGHT_ESS = EssParams(10.0, 50.0, 40.0, 40.0, 0.95, 0.9, 0.3, 0.5, 0.02, 30.0)
NO_CHARGE_ESS = EssParams(32.0, 160.0, 0.0, 40.0, 0.95, 0.95, 0.3, 0.5, 0.02, 96.0)
NO_DISCHARGE_ESS = EssParams(32.0, 160.0, 40.0, 0.0, 0.95, 0.95, 0.3, 0.5, 0.02, 96.0)
# Validation accepts -0.0 for the floor and the start, where a box can return
# either sign of zero.
SIGNED_ZERO_ESS = EssParams(-0.0, 50.0, 40.0, 40.0, 0.95, 0.9, 0.3, 0.5, 0.02, -0.0)
ORACLE_ESS = (ESS, TIGHT_ESS, NO_CHARGE_ESS, NO_DISCHARGE_ESS, NO_ESS, SIGNED_ZERO_ESS)
ORACLE_UNITS = ((MT1, MT2, MT3), (MT3,), (MtUnit("Z", 0.5, 0.8, 0.3, 0.04, 0.0, 20.0), MT1))


def _oracle_inputs(rng, case):
    units = ORACLE_UNITS[case % len(ORACLE_UNITS)]
    ess = ORACLE_ESS[case % len(ORACLE_ESS)]
    sequences = tuple(
        ProbSequence(2.5, rng.dirichlet(np.ones(int(rng.integers(1, 12))))) for _ in range(24)
    )
    return _inputs(units, ess, rng.uniform(0.0, 110.0, 24), ev_load=rng.uniform(0.0, 30.0, 24),
                   prices=rng.uniform(0.1, 0.9, 24), sequences=sequences,
                   gamma=float(rng.uniform(0.5, 0.99)))


def _oracle_population(rng, inputs, pop, style):
    """Genes as the search produces them: inside their bounds, never -0.0."""
    lo, hi, n_binary = _gene_bounds(inputs)
    t = inputs.n_periods
    x = rng.uniform(lo, hi, size=(pop, lo.size))
    at_bound = rng.random(x.shape)
    x = np.where(at_bound < 0.15, lo, np.where(at_bound > 0.85, hi, x))
    b = rng.integers(0, 2, size=(pop, n_binary)).astype(float)
    p_ch, p_dc = x[:, :t], x[:, t:]
    tie = rng.random((pop, t)) < 0.2
    p_dc[tie] = p_ch[tie]
    if style == "off":
        b[:] = 0.0
    elif style == "on":
        b[:] = 1.0
    elif style == "charge":  # full charge all day: onto soc_max and the reach band
        p_ch[:] = hi[:t]
        p_dc[:] = 0.0
    elif style == "discharge":  # full discharge all day: onto soc_min
        p_ch[:] = 0.0
        p_dc[:] = hi[t:]
    return x, b


def _as_search_views(x, b):
    """The same genes laid out as the search hands them over: column views of
    one population array."""
    z = np.concatenate([x, b], axis=1)
    return z[:, : x.shape[1]], z[:, x.shape[1] :]


def _same_bits(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    return got.tobytes() == want.tobytes()


def _assert_matches_reference(xv, bv, x, b, inputs, case):
    """Repair and fitness of the genes ``xv``, ``bv`` equal the reference's
    of the same genes ``x``, ``b`` bit for bit; returns the reference repair."""
    pop = x.shape[0]
    n_units, t = len(inputs.units), inputs.n_periods
    got = _repair_population(*_split_genes(xv, t), bv.reshape(pop, n_units, t), inputs)
    want = _reference_repair(*_split_genes(x, t), b.reshape(pop, n_units, t), inputs)
    for name, g, w in zip(("p_mt", "r_mt", "p_ch", "p_dc", "p_res", "p_un", "soc",
                           "startup", "deficit", "reserve_short"), got, want):
        assert _same_bits(g, w), (case, name)
    assert _same_bits(_population_fitness(xv, bv, inputs), _reference_fitness(x, b, inputs)), case
    return want


def test_repair_and_fitness_match_reference_bitwise():
    rng = np.random.default_rng(20261018)
    styles = ("random", "off", "on", "charge", "discharge")
    for case in range(240):
        inputs = _oracle_inputs(rng, case)
        pop = 1 if case % 7 == 0 else int(rng.integers(2, 61))
        x, b = _oracle_population(rng, inputs, pop, styles[case % len(styles)])
        xv, bv = _as_search_views(x, b)
        want = _assert_matches_reference(xv, bv, x, b, inputs, case)

        if pop == 1:
            sched = repair_and_close_balance(x[0], b[0], inputs)
            for name, w in zip(("p_mt", "r_mt", "p_ch", "p_dc", "p_res", "p_un", "soc", "startup"),
                               want):
                assert _same_bits(getattr(sched, name), w[0]), (case, name)

    # Populations of 120-200 put a (P, U, T) array past numpy's 8192-element
    # ufunc buffer.  A restart evaluates rows taken by fancy indexing, which
    # are contiguous copies where the search otherwise hands over views.
    rng = np.random.default_rng(20261020)
    for case in range(40):
        inputs = _oracle_inputs(rng, case)
        pop = int(rng.integers(120, 201))
        x, b = _oracle_population(rng, inputs, pop, styles[case % len(styles)])
        xv, bv = _as_search_views(x, b)
        _assert_matches_reference(xv, bv, x, b, inputs, ("large", case))
        chosen = rng.choice(pop, size=int(rng.integers(1, pop)), replace=False)
        _assert_matches_reference(xv[chosen], bv[chosen], x[chosen], b[chosen], inputs, ("rows", case))


# ---------------------------------------------------------------------------
# The exact MILP as an oracle for the JAYA search on the packaged scenario
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 4, 8])
def test_jaya_never_beats_the_exact_dispatch(seed):
    rt = sc.prepare(sc.load_scenario(sc.baseline_scenario_path()), seed=seed, iterations=3)
    outcome = co.run_joint(rt)
    base = outcome.baselines
    baseline_inputs = co.upper_inputs(rt, base.plan.ev_load, base.shadow_prices.prices)
    _, cold_cost = solve_upper(baseline_inputs, rt.jaya)
    solves = [("baseline, cold JAYA", baseline_inputs, cold_cost)] + [
        (f"iteration {r.index}", co.upper_inputs(rt, r.plan.ev_load, r.prices.prices), r.mg_cost)
        for r in outcome.records
    ]
    exact_costs = []
    for name, inputs, jaya_cost in solves:
        sched, exact_cost = solve_upper_exact(inputs)
        exact_costs.append(exact_cost)
        assert max(constraint_residuals(sched, inputs).values()) <= 1e-9, name
        # both models state the same problem, so no feasible JAYA schedule
        # can cost less than the proven optimum
        assert jaya_cost >= exact_cost - 1e-9, name
        gap = (jaya_cost - exact_cost) / abs(exact_cost)
        print(f"seed {seed} {name}: JAYA {jaya_cost:.2f} $, MILP {exact_cost:.2f} $, gap {gap:.2%}")
    assert exact_costs[0] == base.mg_cost_ideal

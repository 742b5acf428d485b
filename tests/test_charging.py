"""Charging LP construction and the interior-point solver, checked against a
brute-force vertex-enumeration oracle."""

import itertools

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog
from scipy.sparse.linalg import splu

from mgsched import charging
from mgsched import coordinator as co
from mgsched import scenario as sc
from mgsched.charging import (
    IpmError,
    StationParams,
    StructuralInfeasibilityError,
    build_lp,
    charging_cost,
    ipm_solve,
    plan_residuals,
    solve_inequality_lp,
    write_plan_csv,
)
from mgsched.ev_fleet import EvParams, EvSession

PARAMS = EvParams(
    battery_capacity=19.0,
    rated_power=7.5,
    charge_efficiency=0.95,
    e_per_100km=15.0,
    soc_min=0.2,
    soc_max=1.0,
    soc_expected=0.9,
)
STATION = StationParams(investment=3000.0, lifetime_years=10.0)
AMORTIZED = 3000.0 / 3650.0


def _session(ev_id, window, required, soc0=0.5053):
    return EvSession(
        ev_id=ev_id, arrival_hour=float(window[0] if window else 23), mileage=30.0,
        soc_initial=soc0, soc_target=soc0 + required / 19.0,
        required_energy=required, window=tuple(window),
    )


def vertex_optimum(c, G, h):
    """Enumerate basic feasible points of min c'x s.t. Gx <= h."""
    n, m = len(c), len(h)
    best = None
    for rows in itertools.combinations(range(m), n):
        a = G[list(rows)]
        if abs(np.linalg.det(a)) < 1e-10:
            continue
        v = np.linalg.solve(a, h[list(rows)])
        if np.all(G @ v <= h + 1e-9):
            value = float(c @ v)
            if best is None or value < best:
                best = value
    return best


def random_lp(rng):
    """Small bounded LP min c'x s.t. Gx <= h with a strictly feasible point."""
    n = int(rng.integers(2, 7))
    ub = rng.uniform(1.0, 5.0, n)
    x_feasible = rng.uniform(0.2, 0.8) * ub
    k = int(rng.integers(1, 5))
    a = rng.normal(size=(k, n))
    b = a @ x_feasible + rng.uniform(0.1, 2.0, k)
    G = np.vstack([np.eye(n), -np.eye(n), a])
    h = np.concatenate([ub, np.zeros(n), b])
    return rng.normal(size=n), G, h


def test_two_period_plan_hand_solution():
    session = _session(0, (1, 2), required=7.5)
    prices = np.array([0.5, 0.9, 0.3])
    caps = np.full(3, 50.0)
    lp = build_lp([session], PARAMS, prices, caps, STATION)
    plan = ipm_solve(lp, tol=1e-8)
    assert plan.p_ev[0, 2] == pytest.approx(7.5, abs=1e-6)
    assert plan.p_ev[0, 1] == pytest.approx(0.375 / 0.95, abs=1e-6)
    assert plan.variable_cost == pytest.approx(2.605263157894737, abs=1e-6)
    assert plan.total_cost == pytest.approx(2.605263157894737 + AMORTIZED, abs=1e-6)


def test_empty_fleet_costs_only_amortization():
    lp = build_lp([], PARAMS, np.full(3, 0.6), np.full(3, 50.0), STATION)
    assert lp.G.shape == (0, 0)
    plan = ipm_solve(lp)
    assert plan.total_cost == pytest.approx(AMORTIZED)
    assert AMORTIZED == pytest.approx(0.8219, abs=5e-5)
    assert plan.ev_load.tolist() == [0.0, 0.0, 0.0]


def test_uniform_prices_cost_is_forced():
    # with one price everywhere, any optimal plan bills required/eta at that price
    sessions = [_session(0, (0, 1, 2), 6.0), _session(1, (1, 2), 4.0)]
    lp = build_lp(sessions, PARAMS, np.full(3, 0.62), np.full(3, 50.0), STATION)
    plan = ipm_solve(lp)
    expected = 0.62 * (6.0 + 4.0) / 0.95 + AMORTIZED
    assert plan.total_cost == pytest.approx(expected, abs=1e-6)


def test_charging_cost_components():
    session = _session(0, (1, 2), required=7.5)
    prices = np.array([0.5, 0.9, 0.3])
    lp = build_lp([session], PARAMS, prices, np.full(3, 50.0), STATION)
    plan = ipm_solve(lp)
    assert charging_cost(plan, prices, STATION) == pytest.approx(plan.total_cost, abs=1e-9)
    assert charging_cost(plan, 2.0 * prices, STATION) == pytest.approx(
        2.0 * plan.variable_cost + AMORTIZED, abs=1e-8
    )


def test_box_only_lp_sits_at_zero():
    c = np.array([0.4, 1.1, 0.2])
    G = np.vstack([np.eye(3), -np.eye(3)])
    h = np.concatenate([np.full(3, 2.0), np.zeros(3)])
    x, info = solve_inequality_lp(c, G, h)
    assert x == pytest.approx(np.zeros(3), abs=1e-8)
    assert info["gap"] <= 1e-8


def test_random_lps_match_vertex_oracle():
    rng = np.random.default_rng(0)
    for _ in range(40):
        c, G, h = random_lp(rng)
        x, info = solve_inequality_lp(c, G, h, tol=1e-8)
        assert float(c @ x) == pytest.approx(vertex_optimum(c, G, h), abs=1e-6)
        assert info["max_comp"] <= 1e-7


def test_plan_satisfies_all_rows():
    sessions = [_session(i, range(14 + i % 3, 20 + i % 3), 6.0 + 0.3 * i) for i in range(8)]
    prices = np.linspace(0.3, 0.9, 24)
    caps = np.full(24, 18.0)
    lp = build_lp(sessions, PARAMS, prices, caps, STATION)
    plan = ipm_solve(lp)
    assert plan_residuals(plan, lp) <= 1e-6
    delivered = plan.p_ev.sum(axis=1) * 0.95
    for s, got in zip(sessions, delivered):
        assert got >= s.required_energy - 1e-6
        assert got <= (1.0 - s.soc_initial) * 19.0 + 1e-6


def test_price_response_is_monotone():
    # raising one period's price never increases that period's charging
    session = _session(0, (0, 1, 2), required=8.0)
    caps = np.full(3, 50.0)
    previous = None
    for bump in (0.3, 0.5, 0.7, 0.9):
        prices = np.array([0.5, bump, 0.4])
        plan = ipm_solve(build_lp([session], PARAMS, prices, caps, STATION))
        if previous is not None:
            assert plan.p_ev[0, 1] <= previous + 1e-6
        previous = plan.p_ev[0, 1]


def assert_farkas_ray(y, lp):
    """``y`` proves ``lp`` infeasible, and HiGHS agrees."""
    assert np.all(y >= 0.0)
    assert np.max(np.abs(lp.G.T @ y)) <= 1e-9 * (1.0 + np.max(np.abs(lp.h)))
    assert lp.h @ y < 0.0
    highs = linprog(lp.c, A_ub=lp.G, b_ub=lp.h, bounds=(None, None), method="highs")
    assert highs.status == 2


def test_structural_infeasibility_names_vehicles():
    starved = _session(3, (22, 23), required=15.0, soc0=0.2)
    lp = build_lp([starved], PARAMS, np.full(24, 0.6), np.full(24, 50.0), STATION)
    with pytest.raises(StructuralInfeasibilityError) as err:
        ipm_solve(lp)
    assert 3 in err.value.ev_ids
    assert_farkas_ray(err.value.certificate, lp)


def _assert_shared_cap_certified(sessions):
    lp = build_lp(sessions, PARAMS, np.full(24, 0.6), np.full(24, 7.5), STATION)
    with pytest.raises(StructuralInfeasibilityError) as err:
        ipm_solve(lp)
    assert err.value.ev_ids == [0, 1, 2, 3]
    assert_farkas_ray(err.value.certificate, lp)


def test_shared_cap_infeasibility_detected():
    _assert_shared_cap_certified([_session(i, (10, 11), required=7.0) for i in range(4)])


def test_shared_cap_certificate_skips_feasible_vehicle():
    sessions = [_session(i, (10, 11), required=7.0) for i in range(4)]
    _assert_shared_cap_certified(sessions + [_session(9, (15, 16, 17), required=6.0)])


def test_windowless_vehicle_with_demand_is_certified():
    # an EV without a window keeps its energy rows, so its demand cannot vanish
    stranded = _session(7, (), required=3.0)
    alone = build_lp([stranded], PARAMS, np.full(3, 0.6), np.full(3, 50.0), STATION)
    assert alone.n_vars == 0
    with pytest.raises(StructuralInfeasibilityError) as err:
        ipm_solve(alone)
    assert err.value.ev_ids == [7]
    assert err.value.certificate @ alone.h < 0.0

    fleet = [_session(0, (1, 2), required=7.5), stranded]
    beside = build_lp(fleet, PARAMS, np.full(3, 0.6), np.full(3, 50.0), STATION)
    with pytest.raises(StructuralInfeasibilityError) as err:
        ipm_solve(beside)
    assert err.value.ev_ids == [7]
    assert_farkas_ray(err.value.certificate, beside)


def test_windowless_vehicle_without_demand_is_feasible():
    idle = _session(5, (), required=0.0)
    plan = ipm_solve(build_lp([idle], PARAMS, np.full(3, 0.6), np.full(3, 50.0), STATION))
    assert plan.total_cost == pytest.approx(AMORTIZED)
    assert plan.p_ev.shape == (1, 3)


def test_infeasible_dense_lp_carries_a_farkas_ray():
    # x <= 1 and x >= 2 cannot both hold
    G = np.array([[1.0], [-1.0]])
    h = np.array([1.0, -2.0])
    with pytest.raises(StructuralInfeasibilityError) as err:
        solve_inequality_lp(np.array([1.0]), G, h)
    y = err.value.certificate
    assert np.all(y >= 0.0) and y.sum() == pytest.approx(1.0)
    assert abs(G.T @ y)[0] <= 1e-9 * 3.0
    assert h @ y < 0.0


def test_iteration_budget_error_carries_residuals():
    session = _session(0, (1, 2), required=7.5)
    lp = build_lp([session], PARAMS, np.array([0.5, 0.9, 0.3]), np.full(3, 50.0), STATION)
    with pytest.raises(IpmError) as err:
        ipm_solve(lp, tol=1e-12, max_iter=2)
    assert "gap" in err.value.residuals


def test_plan_csv_layout(tmp_path):
    session = _session(4, (1, 2), required=7.5)
    lp = build_lp([session], PARAMS, np.array([0.5, 0.9, 0.3]), np.full(3, 50.0), STATION)
    plan = ipm_solve(lp)
    path = tmp_path / "plan.csv"
    write_plan_csv(path, plan, [4])
    lines = path.read_text().splitlines()
    assert lines[0] == "ev_id,p0,p1,p2"
    assert lines[1].startswith("4,")
    assert lines[-1].startswith("total,")


def test_dense_and_sparse_constraints_give_the_same_solution():
    c, G, h = random_lp(np.random.default_rng(5))
    x_dense, _ = solve_inequality_lp(c, G, h)
    x_sparse, _ = solve_inequality_lp(c, sparse.csc_array(G), h)
    assert x_sparse == pytest.approx(x_dense, abs=1e-12)


def test_singular_kkt_climbs_the_regularization_ladder():
    # the second variable is in no row, so the unregularized KKT is singular
    c = np.array([1.0, 0.0])
    G = np.array([[-1.0, 0.0], [1.0, 0.0]])
    h = np.array([0.0, 2.0])
    x, info = solve_inequality_lp(c, G, h)
    assert x == pytest.approx(np.zeros(2), abs=1e-8)
    assert info["gap"] <= 1e-8


@pytest.mark.parametrize("count", [150, 500, 2000])
def test_production_fleet_matches_highs(count, baseline_scaled):
    rt = sc.prepare(baseline_scaled(count), seed=11)
    lp = build_lp(rt.sessions, rt.ev_params, rt.tou, co.loose_caps(rt), rt.station)
    assert sparse.issparse(lp.G)
    assert lp.G.nnz == 5 * lp.n_vars
    plan = ipm_solve(lp, tol=rt.ipm_tol, max_iter=rt.ipm_max_iter)
    highs = linprog(lp.c, A_ub=lp.G, b_ub=lp.h, bounds=(None, None), method="highs")
    assert highs.status == 0
    assert abs(plan.variable_cost - highs.fun) <= 1e-6 * abs(highs.fun)
    assert plan_residuals(plan, lp) <= 1e-6


@pytest.fixture
def factorizations(monkeypatch):
    """(KKT nonzeros, L + U nonzeros) of every factorization the IPM makes."""
    made = []

    def recorded(kkt, **kwargs):
        factor = splu(kkt, **kwargs)
        made.append((kkt.nnz, factor.L.nnz + factor.U.nnz))
        return factor

    monkeypatch.setattr(charging, "splu", recorded)
    return made


@pytest.mark.parametrize("count", [150, 500, 2000])
def test_kkt_factor_fill_does_not_grow_with_the_fleet(count, baseline_scaled, factorizations):
    # a partial-pivoting LU in COLAMD order of the unreduced system filled to
    # 12.7, 29.7 and 108 times its nonzeros at these sizes
    rt = sc.prepare(baseline_scaled(count), seed=11)
    lp = build_lp(rt.sessions, rt.ev_params, rt.tou, co.loose_caps(rt), rt.station)
    ipm_solve(lp, tol=rt.ipm_tol, max_iter=rt.ipm_max_iter)
    fill = [lu / kkt for kkt, lu in factorizations]
    assert fill[0] <= 3.0  # the symmetric order, all pivots on the diagonal
    assert max(fill) <= 8.0  # pivots off the diagonal near the optimum


def test_infeasible_lps_are_certified_within_eight_factorizations(factorizations):
    # the solve stops at the first dual iterate that is a Farkas ray (4-6
    # factorizations here); waiting for the iterates to diverge takes 9-12
    shared_cap = [_session(i, (10, 11), required=7.0) for i in range(4)]
    lps = [build_lp(shared_cap, PARAMS, np.full(24, 0.6), np.full(24, 7.5), STATION)]
    rt = sc.prepare(sc.load_scenario(sc.baseline_scenario_path()), seed=6, iterations=3)
    for record in co.run_joint(rt).records[:-1]:
        caps = co.caps_from_schedule(rt, record.schedule)
        lps.append(build_lp(rt.sessions, rt.ev_params, record.prices.prices, caps, rt.station))
    for lp in lps:
        factorizations.clear()
        with pytest.raises(StructuralInfeasibilityError):
            ipm_solve(lp, tol=rt.ipm_tol, max_iter=rt.ipm_max_iter)
        assert 0 < len(factorizations) <= 8


@pytest.mark.parametrize("seed", [56, 187, 223])
def test_grid_tariff_lp_keeps_its_accuracy_near_the_optimum(seed):
    # on these baseline inputs the KKT's diagonal holds entries below 1e-10 of
    # both signs late in the solve; with static pivots the Newton steps there
    # lost their accuracy and the solve ended in IpmError at the budget
    rt = sc.prepare(sc.load_scenario(sc.baseline_scenario_path()), seed=seed)
    lp = build_lp(rt.sessions, rt.ev_params, rt.tou, co.loose_caps(rt), rt.station)
    plan = ipm_solve(lp, tol=rt.ipm_tol, max_iter=rt.ipm_max_iter)
    highs = linprog(lp.c, A_ub=lp.G, b_ub=lp.h, bounds=(None, None), method="highs")
    assert abs(plan.variable_cost - highs.fun) <= 1e-6 * abs(highs.fun)
    assert plan_residuals(plan, lp) <= 1e-6

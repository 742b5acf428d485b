"""Real-time pricing loop coupling the microgrid dispatch and EV charging.

Each pricing iteration solves the fleet charging program against the last
announced prices, lets the load-proportional real-time price respond, then
re-dispatches the microgrid against the new EV load and prices.  The joint
operating point is selected afterwards as the iteration whose (microgrid
cost, fleet cost) pair lies closest to the ideal point formed by each side's
stand-alone optimum.  The microgrid side of that point is exact (a HiGHS MILP
of the deterministic dispatch).  Iteration 0 is that baseline itself; JAYA is
the dispatch search of every later pricing iteration, each warm-started from
the schedule before it.

The outcome of one run also yields the strategy table and the price-response
case report; the stand-alone strategies are read off the baselines:

* ``mg_only``  - fleet charges against the grid tariff, the microgrid applies
  its real-time price to that unresponsive load (fleet interests ignored).
* ``ev_only``  - fleet charges against the grid tariff and pays it; the
  microgrid cost is the bare operating cost with no charging revenue.
* ``joint``    - the pricing loop's selected iteration.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from mgsched.charging import (
    ChargingPlan,
    IpmError,
    StationParams,
    StructuralInfeasibilityError,
    build_lp,
    charging_cost,
    ipm_solve,
    plan_residuals,
)
from mgsched.dispatch import (
    UpperInputs,
    UpperSchedule,
    constraint_residuals,
    net_operating_cost,
    solve_upper,
    solve_upper_exact,
    warm_start_schedule,
)
from mgsched.ev_fleet import write_csv
from mgsched.jaya import JayaConfig
from mgsched.scenario import ScenarioRuntime


@dataclass(frozen=True)
class PriceProfile:
    prices: np.ndarray  # $/kWh per period

    def __post_init__(self):
        object.__setattr__(self, "prices", np.asarray(self.prices, dtype=float))
        if np.any(self.prices <= 0.0):
            raise ValueError("prices must be positive")


@dataclass
class IterationRecord:
    index: int
    prices: PriceProfile  # realized real-time prices of this iteration
    plan: ChargingPlan
    schedule: UpperSchedule
    mg_cost: float  # net microgrid operating cost at the realized prices
    ev_cost: float  # fleet bill at the realized prices
    caps: np.ndarray  # feed limits the charging program was solved against


@dataclass
class BaselineOutcomes:
    """Stand-alone optima and their cross costs: iteration 0 of the pricing
    loop, its ideal point, and the two stand-alone strategies."""

    plan: ChargingPlan  # grid-tariff charging plan
    schedule: UpperSchedule
    shadow_prices: PriceProfile  # real-time prices implied by that plan
    mg_cost_ideal: float  # microgrid cost when pricing its own way
    ev_cost_ideal: float  # fleet cost at the grid tariff
    ev_cost_under_mg: float  # fleet bill at the microgrid's real-time prices
    mg_cost_under_ev: float  # bare operating cost with no charging revenue


@dataclass
class CaseReport:
    base_load: np.ndarray
    ev_load_no_dr: np.ndarray
    ev_load_dr: np.ndarray
    price_no_dr: np.ndarray  # real-time price implied by the no-DR load
    price_dr: np.ndarray  # realized real-time price of the DR run
    tou: np.ndarray
    peak_to_valley_no_dr: float
    peak_to_valley_dr: float
    correlation_no_dr: float
    correlation_dr: float


@dataclass
class JointOutcome:
    records: list[IterationRecord]
    baselines: BaselineOutcomes
    selected_index: int

    @property
    def selected(self) -> IterationRecord:
        return self.records[self.selected_index]


def real_time_price(
    ev_load: np.ndarray,
    base_load: np.ndarray,
    p_ref: float,
    omega_ref: float,
    floor: float = 0.01,
) -> PriceProfile:
    """Load-proportional price: total load over the reference load, scaled by
    the reference price, floored to keep the charging program bounded."""
    if p_ref <= 0.0:
        raise ValueError("reference load must be positive")
    total = np.asarray(ev_load, dtype=float) + np.asarray(base_load, dtype=float)
    if np.any(total < 0.0):
        raise ValueError("loads must be non-negative")
    return PriceProfile(np.maximum(total / p_ref * omega_ref, floor))


def select_joint_optimum(records: list[IterationRecord], mg_cost_ideal: float, ev_cost_ideal: float) -> IterationRecord:
    """Record with (mg, ev) costs closest to the ideal point; first wins ties."""
    if not records:
        raise ValueError("no iteration records to select from")
    distances = [np.hypot(r.mg_cost - mg_cost_ideal, r.ev_cost - ev_cost_ideal) for r in records]
    return records[int(np.argmin(distances))]


def loose_caps(rt: ScenarioRuntime) -> np.ndarray:
    """Feed limit before any dispatch is known: that of every unit committed."""
    return _feed_limit(rt, np.ones((len(rt.units), 1)))


def caps_from_schedule(rt: ScenarioRuntime, sched: UpperSchedule) -> np.ndarray:
    """Feed limit implied by a dispatch's commitment."""
    return _feed_limit(rt, sched.on)


def _feed_limit(rt: ScenarioRuntime, on: np.ndarray) -> np.ndarray:
    """Committed generator capacity plus the storage discharge rating, net of
    the base load, per period; ``on`` is the (unit, period) commitment."""
    p_max = np.array([u.p_max for u in rt.units])
    committed = (on * p_max[:, None]).sum(axis=0)
    headroom = committed + rt.ess.p_dc_max - rt.base_load
    return np.maximum(rt.alpha_cap * headroom, 0.0)


def upper_inputs(rt: ScenarioRuntime, ev_load: np.ndarray, prices: np.ndarray) -> UpperInputs:
    return UpperInputs(
        units=rt.units,
        ess=rt.ess,
        base_load=rt.base_load,
        sequences=rt.sequences,
        gamma=rt.gamma,
        ev_load=ev_load,
        prices=prices,
        penalty_weight=rt.penalty_weight,
    )


def _jaya_for(rt: ScenarioRuntime, salt: int) -> JayaConfig:
    return replace(rt.jaya, seed=rt.jaya.seed + salt)


def _solve_lower(rt: ScenarioRuntime, prices: np.ndarray, caps: np.ndarray) -> tuple[ChargingPlan, np.ndarray]:
    """Charging plan and the feed limits it was solved against: ``caps``, or
    the loose limits when the program fell back to them."""
    try:
        lp = build_lp(rt.sessions, rt.ev_params, prices, caps, rt.station)
        return ipm_solve(lp, tol=rt.ipm_tol, max_iter=rt.ipm_max_iter), caps
    except (StructuralInfeasibilityError, IpmError):
        # A thin commitment can leave the fleet's demand unservable (proven by
        # a Farkas certificate) or push the program against a degenerate face;
        # relax to the all-committed limit for this round.
        caps = loose_caps(rt)
        lp = build_lp(rt.sessions, rt.ev_params, prices, caps, rt.station)
        return ipm_solve(lp, tol=rt.ipm_tol, max_iter=rt.ipm_max_iter), caps


def compute_baselines(rt: ScenarioRuntime) -> BaselineOutcomes:
    """Stand-alone optima: the grid-tariff charging plan and the dispatch that
    serves it, costed under each side's own pricing view.

    The microgrid's stand-alone optimum is exact: the deterministic dispatch
    is solved as a MILP (:func:`~mgsched.dispatch.solve_upper_exact`), so the
    ideal point does not depend on a search seed.  This outcome is also
    iteration 0 of the pricing loop (:func:`run_bilevel`).
    """
    plan, _ = _solve_lower(rt, rt.tou, loose_caps(rt))
    shadow = real_time_price(plan.ev_load, rt.base_load, rt.p_ref, rt.omega_ref, rt.price_floor)
    inputs = upper_inputs(rt, plan.ev_load, shadow.prices)
    schedule, mg_cost_ideal = solve_upper_exact(inputs)
    opcost = net_operating_cost(schedule, plan.ev_load, np.zeros_like(rt.tou), rt.units, rt.ess)
    return BaselineOutcomes(
        plan=plan,
        schedule=schedule,
        shadow_prices=shadow,
        mg_cost_ideal=mg_cost_ideal,
        ev_cost_ideal=charging_cost(plan, rt.tou, rt.station),
        ev_cost_under_mg=charging_cost(plan, shadow.prices, rt.station),
        mg_cost_under_ev=opcost,
    )


def run_bilevel(rt: ScenarioRuntime, base: BaselineOutcomes) -> list[IterationRecord]:
    """The pricing loop: each iteration's realized real-time prices are
    announced to the next iteration's charging program.

    Iteration 0 is the baseline: the grid-tariff plan, its shadow prices, and
    the exact schedule in the form a search warm-started from it begins with
    (:func:`~mgsched.dispatch.warm_start_schedule`).  A search there would
    start from the proven optimum of the same inputs, so no charging or
    dispatch program is solved for it.  Each later iteration re-solves both,
    warm-starting JAYA from the previous schedule.

    Runs exactly ``rt.pricing_iterations`` iterations; there is no early exit.
    """
    inputs = upper_inputs(rt, base.plan.ev_load, base.shadow_prices.prices)
    schedule, mg_cost = warm_start_schedule(inputs, base.schedule)
    records = [IterationRecord(0, base.shadow_prices, base.plan, schedule, mg_cost,
                               base.ev_cost_under_mg, loose_caps(rt))]
    for k in range(1, rt.pricing_iterations):
        previous = records[-1]
        plan, solved_caps = _solve_lower(rt, previous.prices.prices, caps_from_schedule(rt, previous.schedule))
        realized = real_time_price(plan.ev_load, rt.base_load, rt.p_ref, rt.omega_ref, rt.price_floor)
        inputs = upper_inputs(rt, plan.ev_load, realized.prices)
        schedule, mg_cost = solve_upper(inputs, _jaya_for(rt, salt=211 * k), warm_start=previous.schedule)
        records.append(
            IterationRecord(
                index=k,
                prices=realized,
                plan=plan,
                schedule=schedule,
                mg_cost=mg_cost,
                ev_cost=charging_cost(plan, realized.prices, rt.station),
                caps=solved_caps,
            )
        )
    return records


def run_joint(rt: ScenarioRuntime) -> JointOutcome:
    base = compute_baselines(rt)
    records = run_bilevel(rt, base)
    selected = select_joint_optimum(records, base.mg_cost_ideal, base.ev_cost_ideal)
    return JointOutcome(records=records, baselines=base, selected_index=selected.index)


def price_load_correlation(prices: np.ndarray, load: np.ndarray) -> float:
    """Pearson correlation, zero when either series is constant."""
    prices = np.asarray(prices, dtype=float)
    load = np.asarray(load, dtype=float)
    if np.std(prices) == 0.0 or np.std(load) == 0.0:
        return 0.0
    return float(np.corrcoef(prices, load)[0, 1])


def peak_to_valley(total_load: np.ndarray) -> float:
    return float(np.max(total_load) - np.min(total_load))


def run_case(rt: ScenarioRuntime, outcome: JointOutcome) -> CaseReport:
    """Compare fleet behaviour without and with price response.

    The no-response case bills the fleet at the grid tariff; the response case
    uses real-time prices.  The report's price series is, in both cases, the
    system's real-time price (for the no-response case the price its load
    would imply), so the correlation column measures how strongly each fleet's
    load pattern drives the system price.
    """
    base = outcome.baselines
    dr_load = outcome.selected.plan.ev_load
    dr_price = outcome.selected.prices.prices
    return CaseReport(
        base_load=rt.base_load,
        ev_load_no_dr=base.plan.ev_load,
        ev_load_dr=dr_load,
        price_no_dr=base.shadow_prices.prices,
        price_dr=dr_price,
        tou=rt.tou,
        peak_to_valley_no_dr=peak_to_valley(rt.base_load + base.plan.ev_load),
        peak_to_valley_dr=peak_to_valley(rt.base_load + dr_load),
        correlation_no_dr=price_load_correlation(base.shadow_prices.prices, base.plan.ev_load),
        correlation_dr=price_load_correlation(dr_price, dr_load),
    )


# ---------------------------------------------------------------------------
# Deterministic output writers (repr floats round-trip exactly and keep runs
# byte-identical)
# ---------------------------------------------------------------------------


def write_records_csv(path, outcome: JointOutcome) -> None:
    base = outcome.baselines
    rows = ([r.index, r.mg_cost, r.ev_cost, np.hypot(r.mg_cost - base.mg_cost_ideal, r.ev_cost - base.ev_cost_ideal),
             int(r.index == outcome.selected_index)] for r in outcome.records)
    write_csv(path, ["iteration", "mg_cost", "ev_cost", "distance_to_ideal", "selected"], rows)


def write_prices_csv(path, rt: ScenarioRuntime, outcome: JointOutcome) -> None:
    columns = [rt.tou, outcome.records[0].prices.prices, outcome.selected.prices.prices]
    write_csv(path, ["period", "tou", "real_time_initial", "real_time_selected"], zip(range(rt.tou.size), *columns))


def write_strategies_csv(path, outcome: JointOutcome) -> None:
    base = outcome.baselines
    joint = outcome.selected
    write_csv(path, ["strategy", "mg_cost", "ev_cost"], [
        ["mg_only", base.mg_cost_ideal, base.ev_cost_under_mg],
        ["joint", joint.mg_cost, joint.ev_cost],
        ["ev_only", base.mg_cost_under_ev, base.ev_cost_ideal],
    ])


def write_cases_csv(path, report: CaseReport) -> None:
    header = ["period", "base_load", "ev_load_no_dr", "ev_load_dr", "total_no_dr", "total_dr",
              "price_no_dr", "price_dr", "tou"]
    columns = [report.base_load, report.ev_load_no_dr, report.ev_load_dr, report.base_load + report.ev_load_no_dr,
               report.base_load + report.ev_load_dr, report.price_no_dr, report.price_dr, report.tou]
    write_csv(path, header, zip(range(report.base_load.size), *columns))


def write_summary_json(path, rt: ScenarioRuntime, outcome: JointOutcome) -> None:
    base = outcome.baselines
    selected = outcome.selected
    inputs = upper_inputs(rt, selected.plan.ev_load, selected.prices.prices)
    residuals = constraint_residuals(selected.schedule, inputs)
    lp = build_lp(rt.sessions, rt.ev_params, selected.prices.prices, selected.caps, rt.station)
    summary = {
        "mg_cost_ideal": base.mg_cost_ideal,
        "ev_cost_ideal": base.ev_cost_ideal,
        "mg_cost_joint": selected.mg_cost,
        "ev_cost_joint": selected.ev_cost,
        "selected_iteration": outcome.selected_index,
        "iterations": len(outcome.records),
        "seed": rt.seed,
        "max_residuals": residuals,
        "charging_plan_residual": plan_residuals(selected.plan, lp),
    }
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

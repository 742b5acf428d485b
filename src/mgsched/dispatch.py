"""Microgrid day-ahead dispatch: microturbine commitment, storage operation
and spinning reserve under a chance-constrained reserve requirement.

The search decides the unit commitments and the storage's charge and
discharge requests; repair builds the rest of the schedule from them.  It
makes the storage dynamics and limits and the start-equals-end storage
boundary hold *by construction*, and sets the generator outputs and reserves
by a priority rule (as genetic unit commitment does): every committed unit
starts at its minimum output, a deficit lift raises the outputs in fuel merit
order, and a reserve lift takes reserve in reserve-cost order.  Only the
power-balance deficit and any un-coverable reserve shortfall remain as
penalty terms for the search.  The storage trajectory construction clamps
each period's end energy into the band from which the boundary state is
still reachable at rated power, which pins the final state exactly.

Repair and fitness are the search's hot path.  At a population of 60 their
arrays hold 60 to 4320 doubles, so the cost of a numpy call is mostly its
overhead, and the code is laid out to make calls few and cheap:

* everything that does not depend on the candidates is built once per
  :class:`UpperInputs`, scalars as 0-d arrays;
* repair works on the unit arrays unit-major, in C-contiguous (U, P, T)
  buffers whose per-unit blocks are contiguous (P, T) arrays, and runs the
  storage recursion time-major, on contiguous rows of one period each.

Their floating-point operations, operands and order are part of the results:
the pricing loop feeds each schedule back into the next search, so a last-bit
change in one fitness value can send the search down another path and move a
day's cost by several percent.  A rewrite for speed must therefore keep every
operation bit for bit, down to the sign of zero that ``np.maximum`` and
``np.minimum`` return on ties and the memory layout that a sum reduces over.
Every array summed over periods, or over units and periods, is candidate-major
and C-contiguous, because the pairwise order of such a sum follows the memory
layout; a sum over units alone adds the unit blocks in unit order,
``(a0 + a1) + a2``.

:func:`solve_upper_exact` solves the same deterministic model exactly, as a
MILP with HiGHS.  It gives the microgrid's stand-alone optimum (the ideal
point) and is the oracle that the search is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy import sparse
from scipy.optimize import Bounds, LinearConstraint, milp

from mgsched.ev_fleet import write_csv
from mgsched.jaya import JayaConfig, optimize
from mgsched.sequences import ProbSequence, expectation, min_reserve_for_confidence

RESIDUAL_TOL = 1e-6
MILP_REL_GAP = 1e-9  # relative optimality gap of the exact dispatch


class InfeasibleScheduleError(RuntimeError):
    """No schedule within tolerance was found; carries worst residuals."""

    def __init__(self, message: str, residuals: dict):
        self.residuals = residuals
        super().__init__(message)


@dataclass(frozen=True)
class MtUnit:
    name: str
    startup_cost: float  # $ per start event
    fixed_fuel: float  # $ per committed hour
    fuel_slope: float  # $ per kWh generated
    reserve_cost: float  # $ per kW of hourly spinning reserve
    p_min: float  # kW
    p_max: float  # kW

    def __post_init__(self):
        for key in ("startup_cost", "fixed_fuel", "fuel_slope", "reserve_cost", "p_min"):
            if not getattr(self, key) >= 0.0:
                raise ValueError(f"{key} must be non-negative")
        if not self.p_min <= self.p_max:
            raise ValueError("p_min must not exceed p_max")


@dataclass(frozen=True)
class EssParams:
    soc_min: float  # kWh
    soc_max: float  # kWh
    p_ch_max: float  # kW
    p_dc_max: float  # kW
    eta_ch: float
    eta_dc: float
    charge_price: float  # $/kWh
    discharge_price: float  # $/kWh
    reserve_price: float  # $/kW per hour of held reserve
    soc_start: float  # kWh, also the required end state

    def __post_init__(self):
        for key in ("soc_min", "p_ch_max", "p_dc_max"):
            if not getattr(self, key) >= 0.0:
                raise ValueError(f"{key} must be non-negative")
        if not self.soc_min <= self.soc_start <= self.soc_max:
            raise ValueError("soc_start must lie in [soc_min, soc_max]")
        for key in ("eta_ch", "eta_dc"):
            if not 0.0 < getattr(self, key) <= 1.0:
                raise ValueError(f"{key} must lie in (0, 1]")


@dataclass
class UpperSchedule:
    """One day's dispatch decisions (arrays indexed [unit, period] / [period])."""

    on: np.ndarray
    startup: np.ndarray
    p_mt: np.ndarray
    r_mt: np.ndarray
    p_ch: np.ndarray
    p_dc: np.ndarray
    p_res: np.ndarray
    p_un: np.ndarray
    soc: np.ndarray  # (T+1,), soc[0] is the boundary state

    @property
    def n_periods(self) -> int:
        return self.p_ch.size

    def total_reserve(self) -> np.ndarray:
        return self.r_mt.sum(axis=0) + self.p_res


@dataclass
class UpperInputs:
    units: tuple[MtUnit, ...]
    ess: EssParams
    base_load: np.ndarray  # (T,) kW
    sequences: tuple[ProbSequence, ...]  # joint renewable output per period
    gamma: float
    ev_load: np.ndarray  # (T,) kW
    prices: np.ndarray  # (T,) $/kWh billed to the EV fleet
    penalty_weight: float = 1000.0
    renewable_expectation: np.ndarray = field(init=False)
    reserve_requirement: np.ndarray = field(init=False)
    # Constants of repair and fitness, built once.  Per-unit columns are
    # (U, 1, 1), so that they broadcast against the unit-major (U, P, T)
    # blocks of a population; one schedule's (U, T) arrays take them as
    # ``[:, 0]``.  Scalars are 0-d arrays, which a ufunc takes as they are,
    # where it would convert a Python float on every call.
    p_min: np.ndarray = field(init=False)
    p_max: np.ndarray = field(init=False)
    fixed_fuel: np.ndarray = field(init=False)
    fuel_slope: np.ndarray = field(init=False)
    reserve_cost: np.ndarray = field(init=False)
    startup_cost: np.ndarray = field(init=False)
    demand: np.ndarray = field(init=False)  # (T,) base plus EV load, kW
    # ``ess``'s parameters by name, minus_revenue (minus the EV energy
    # bill, $) and penalty_weight, as 0-d arrays
    scalars: SimpleNamespace = field(init=False)
    fuel_order: tuple[int, ...] = field(init=False)  # units, cheapest fuel first
    reserve_order: tuple = field(init=False)  # "ess" and units, cheapest reserve first
    # per period, the (low, high) band of end-of-period storage energy from
    # which soc_start is still reachable at rated power
    reach: tuple[tuple[np.ndarray, np.ndarray], ...] = field(init=False)

    def __post_init__(self):
        self.base_load = np.asarray(self.base_load, dtype=float)
        self.ev_load = np.asarray(self.ev_load, dtype=float)
        self.prices = np.asarray(self.prices, dtype=float)
        t = self.base_load.size
        if not (self.ev_load.size == t and self.prices.size == t and len(self.sequences) == t):
            raise ValueError("load, prices and sequences must cover the same periods")
        self.renewable_expectation = np.array([expectation(c) for c in self.sequences])
        self.reserve_requirement = np.array(
            [min_reserve_for_confidence(c, self.gamma) for c in self.sequences]
        )

        units, ess = self.units, self.ess
        for name in ("p_min", "p_max", "fixed_fuel", "fuel_slope", "reserve_cost", "startup_cost"):
            setattr(self, name, np.array([getattr(u, name) for u in units])[:, None, None])
        self.demand = self.base_load + self.ev_load
        self.scalars = SimpleNamespace(**{
            name: np.array(value, dtype=float) for name, value in [
                *vars(ess).items(),
                ("minus_revenue", -float(np.dot(self.ev_load, self.prices))),
                ("penalty_weight", self.penalty_weight),
            ]
        })
        self.fuel_order = tuple(sorted(range(len(units)), key=lambda i: (units[i].fuel_slope, i)))
        sources = [("ess", ess.reserve_price)] + [(n, u.reserve_cost) for n, u in enumerate(units)]
        self.reserve_order = tuple(
            source for source, _ in sorted(sources, key=lambda item: (item[1], str(item[0])))
        )
        remaining = t - np.arange(1, t + 1)
        gain_max = ess.eta_ch * ess.p_ch_max  # kWh gained per full-charge period
        drop_max = ess.p_dc_max / ess.eta_dc  # kWh shed per full-discharge period
        lo_reach = np.maximum(ess.soc_min, ess.soc_start - remaining * gain_max)
        hi_reach = np.minimum(ess.soc_max, ess.soc_start + remaining * drop_max)
        self.reach = tuple((lo_reach[k, ...], hi_reach[k, ...]) for k in range(t))

    @property
    def n_periods(self) -> int:
        return self.base_load.size


def net_operating_cost(
    sched: UpperSchedule,
    ev_load: np.ndarray,
    prices: np.ndarray,
    units: tuple[MtUnit, ...],
    ess: EssParams,
) -> float:
    """Operating cost of generators, storage and reserves minus EV revenue."""
    revenue = float(np.dot(np.asarray(ev_load, dtype=float), np.asarray(prices, dtype=float)))
    ess_cost = float(
        np.sum(ess.discharge_price * sched.p_dc + ess.charge_price * sched.p_ch)
        + np.sum(ess.reserve_price * sched.p_res)
    )
    mt_cost = 0.0
    for n, unit in enumerate(units):
        mt_cost += float(
            np.sum(unit.reserve_cost * sched.r_mt[n])
            + np.sum(unit.startup_cost * sched.startup[n])
            + np.sum(sched.on[n] * (unit.fixed_fuel + unit.fuel_slope * sched.p_mt[n]))
        )
    return -revenue + ess_cost + mt_cost


_ZERO = np.zeros(())  # the 0-d zero that repair boxes with
_ZERO.flags.writeable = False

# ---------------------------------------------------------------------------
# Decision encoding and repair
#
# Continuous genes per candidate: the storage requests [p_ch (T), p_dc (T)];
# binary genes: commitment states u (U*T).  Generator outputs, reserves and
# start-up indicators are derived in repair, not searched.
# ---------------------------------------------------------------------------


def _gene_bounds(inputs: UpperInputs) -> tuple[np.ndarray, np.ndarray, int]:
    ess, t = inputs.ess, inputs.n_periods
    lo = np.zeros(2 * t)
    hi = np.concatenate([np.full(t, ess.p_ch_max), np.full(t, ess.p_dc_max)])
    return lo, hi, len(inputs.units) * t


def _split_genes(x: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The (P, T) ``p_ch`` and ``p_dc`` blocks of a (P, 2T) gene array; any
    other length raises ``ValueError``."""
    p_ch, p_dc = x.reshape(x.shape[0], 2, t).transpose(1, 0, 2)
    return p_ch, p_dc


def _repair_population(p_ch: np.ndarray, p_dc: np.ndarray, on: np.ndarray, inputs: UpperInputs):
    """Vectorized schedule construction for a population of candidates.

    Takes the (P, T) storage requests and the (P, U, T) commitments,
    candidates on axis 0.  Returns (P, U, T) unit arrays and (P, T) storage
    and system arrays; ``soc`` is (P, T + 1).  Also returns the per-candidate
    penalty magnitudes: the power deficit and the reserve shortfall.

    Every committed unit starts at ``p_min`` with no reserve, and the storage
    with no reserve.  The deficit lift then raises outputs in fuel order and
    the reserve lift takes reserve in reserve-cost order.

    The unit arrays are worked on unit-major, in C-contiguous (U, P, T)
    buffers whose per-unit blocks are contiguous (P, T) arrays, and returned
    as their (P, U, T) transposes (``on`` is copied only if its transpose is
    not already such a buffer).  A sum over units adds the blocks in unit
    order, ``(a0 + a1) + a2``, as ``sum`` over the unit axis of a (P, U, T)
    array does.  Every array summed over periods here or in the fitness is
    candidate-major and C-contiguous, because the pairwise order of such a
    sum follows the memory layout.

    Boxes are written as ``np.minimum(np.maximum(...))``, which costs a
    fraction of ``np.clip`` on arrays this small.  Both ufuncs return their
    second operand on a tie, which only shows between zeros of opposite sign.
    The storage boxes have scalar bounds and take ``x`` second, as
    ``np.clip`` returns ``x`` there.  Genes never hold -0.0 (the search's own
    box returns its +0.0 bound).
    """
    s = inputs.scalars
    pop, t = p_ch.shape

    on = np.ascontiguousarray(on.transpose(1, 0, 2))
    on_max = on * inputs.p_max
    p_mt = on * inputs.p_min
    r_mt = np.zeros(on.shape)

    # Storage: mutual exclusion, power limits, then an energy trajectory that
    # stays inside the capacity band and can always return to the boundary
    # state at rated power.
    keep_ch = p_ch >= p_dc
    p_ch = np.where(keep_ch, np.minimum(s.p_ch_max, np.maximum(_ZERO, p_ch)), _ZERO)
    p_dc = np.where(keep_ch, _ZERO, np.minimum(s.p_dc_max, np.maximum(_ZERO, p_dc)))

    # Each period's end energy is boxed into the reach band [lo, hi].  The
    # step's own box needs no operation.  Its floor, soc - p_dc_max / eta_dc:
    # after the power box and the mutual exclusion, delta >= -p_dc_max /
    # eta_dc, and rounded addition is monotone, so soc + delta never lies
    # below it.  Its ceiling, soc + eta_ch * p_ch_max: soc is at least the
    # previous period's lo, which lies at most one full-charge gain below lo.
    # The recursion runs time-major, so that every step reads and writes
    # contiguous rows in place.
    delta = np.empty((t, pop))
    np.subtract(s.eta_ch * p_ch, p_dc / s.eta_dc, out=delta.T)
    soc_t = np.empty((t + 1, pop))
    soc_t[0] = s.soc_start
    rows = list(soc_t)
    for cur, nxt, step, (lo, hi) in zip(rows, rows[1:], delta, inputs.reach):
        np.add(cur, step, out=nxt)
        np.maximum(nxt, lo, out=nxt)
        np.minimum(nxt, hi, out=nxt)
    soc = np.ascontiguousarray(soc_t.T)

    moves = soc[:, 1:] - soc[:, :-1]
    p_ch = np.maximum(moves, _ZERO) / s.eta_ch
    p_dc = np.maximum(-moves, _ZERO) * s.eta_dc

    # Storage reserve cap: the energy above the floor and the unused
    # discharge rating.
    res_cap = np.minimum(s.eta_dc * (soc[:, :-1] - s.soc_min), s.p_dc_max - p_dc)
    np.maximum(res_cap, _ZERO, out=res_cap)
    p_res = np.zeros((pop, t))

    # Deficit lift: close any supply shortfall from committed units' headroom
    # above p_min, cheapest marginal fuel first.  Remaining deficit is
    # penalized (it means the commitment pattern itself is short).
    renewable, demand = inputs.renewable_expectation, inputs.demand
    supply = _sum_units(p_mt) + p_dc - p_ch + renewable
    deficit = np.maximum(demand - supply, _ZERO)
    # A lift changes only its own unit's block, so every unit's headroom can
    # be taken before the loop; on * (p_max - p_min) is never negative.
    headroom = on_max - p_mt
    add = np.empty_like(deficit)
    for n in inputs.fuel_order:
        np.minimum(deficit, headroom[n], out=add)
        np.add(p_mt[n], add, out=p_mt[n])
        np.subtract(deficit, add, out=deficit)

    # Reserve lift: cover the requirement with the cheapest remaining
    # headroom so the chance constraint binds instead of penalizing.
    need = np.full((pop, t), inputs.reserve_requirement)
    np.subtract(on_max, p_mt, out=headroom)
    np.maximum(headroom, _ZERO, out=headroom)
    for source in inputs.reserve_order:
        if source == "ess":
            np.minimum(need, res_cap, out=add)
            np.add(p_res, add, out=p_res)
        else:
            np.minimum(need, headroom[source], out=add)
            np.add(r_mt[source], add, out=r_mt[source])
        np.subtract(need, add, out=need)
    reserve_short = need

    supply = _sum_units(p_mt) + p_dc - p_ch + renewable
    p_un = np.maximum(supply - demand, _ZERO)
    deficit = np.maximum(demand - supply, _ZERO)

    # Start-ups: positive steps of the commitment, from off before period 0.
    # Commitments are 0/1, so each difference is exact.  One pass over the
    # flat buffer; its period-0 entries step across rows and are overwritten.
    startup = np.empty_like(on)
    np.subtract(on.reshape(-1)[1:], on.reshape(-1)[:-1], out=startup.reshape(-1)[1:])
    startup[:, :, 0] = on[:, :, 0]
    np.maximum(startup, _ZERO, out=startup)
    return (p_mt.transpose(1, 0, 2), r_mt.transpose(1, 0, 2), p_ch, p_dc, p_res, p_un, soc,
            startup.transpose(1, 0, 2), deficit, reserve_short)


def _sum_units(blocks: np.ndarray) -> np.ndarray:
    """Sum over the units of a unit-major (U, P, T) array, ``(a0 + a1) + a2``:
    the order in which ``sum`` adds over the unit axis of a (P, U, T) array."""
    total = blocks[0]
    for block in blocks[1:]:
        total = total + block
    return total


def _population_fitness(x: np.ndarray, b: np.ndarray, inputs: UpperInputs) -> np.ndarray:
    s = inputs.scalars
    pop = x.shape[0]
    n_units, t = len(inputs.units), inputs.n_periods
    # Unit-major commitments, handed to repair as the (P, U, T) transpose
    on = b.reshape(pop, n_units, t).transpose(1, 0, 2).copy()
    p_mt, r_mt, p_ch, p_dc, p_res, p_un, soc, startup, deficit, short = _repair_population(
        *_split_genes(x, t), on.transpose(1, 0, 2), inputs
    )

    cost = s.minus_revenue + (
        s.discharge_price * p_dc + s.charge_price * p_ch + s.reserve_price * p_res
    ).sum(axis=1)
    # The unit terms are worked unit-major and written into one C-contiguous
    # (P, U, T) buffer, which is summed over units and periods at once.
    reserve_and_start = inputs.reserve_cost * r_mt.transpose(1, 0, 2)
    reserve_and_start += inputs.startup_cost * startup.transpose(1, 0, 2)
    fuel = inputs.fuel_slope * p_mt.transpose(1, 0, 2)
    np.add(inputs.fixed_fuel, fuel, out=fuel)
    np.multiply(on, fuel, out=fuel)
    unit_cost = np.empty((pop, n_units, t))
    np.add(reserve_and_start, fuel, out=unit_cost.transpose(1, 0, 2))
    cost += unit_cost.sum(axis=(1, 2))

    penalty = s.penalty_weight * (deficit.sum(axis=1) + short.sum(axis=1))
    return cost + penalty


def repair_and_close_balance(
    genes_continuous: np.ndarray, genes_binary: np.ndarray, inputs: UpperInputs
) -> UpperSchedule:
    """Decode one candidate into a schedule with the balance closed by the
    controlled-load slack (supply surplus is dumped; a deficit is left for the
    penalty)."""
    n_units, t = len(inputs.units), inputs.n_periods
    x = np.asarray(genes_continuous, dtype=float)[None, :]
    on = np.asarray(genes_binary, dtype=float).reshape(1, n_units, t)
    p_mt, r_mt, p_ch, p_dc, p_res, p_un, soc, startup, _, _ = _repair_population(
        *_split_genes(x, t), on, inputs
    )
    return UpperSchedule(
        on=on[0], startup=startup[0], p_mt=p_mt[0], r_mt=r_mt[0],
        p_ch=p_ch[0], p_dc=p_dc[0], p_res=p_res[0], p_un=p_un[0], soc=soc[0],
    )


def constraint_residuals(sched: UpperSchedule, inputs: UpperInputs) -> dict[str, float]:
    """Largest violation of each dispatch constraint (kW or kWh)."""
    ess = inputs.ess
    p_min, p_max = inputs.p_min[:, 0], inputs.p_max[:, 0]

    mt_low = np.maximum(sched.on * p_min - sched.p_mt, 0.0)
    mt_high = np.maximum(sched.p_mt - sched.on * p_max, 0.0)

    supply = sched.p_mt.sum(axis=0) + sched.p_dc - sched.p_ch + inputs.renewable_expectation
    demand = inputs.base_load + inputs.ev_load + sched.p_un
    balance = np.abs(supply - demand)

    soc_step = sched.soc[:-1] + ess.eta_ch * sched.p_ch - sched.p_dc / ess.eta_dc
    recursion = np.abs(sched.soc[1:] - soc_step)

    soc_bounds = np.maximum(
        np.maximum(ess.soc_min - sched.soc, 0.0), np.maximum(sched.soc - ess.soc_max, 0.0)
    )
    ess_power = np.maximum(
        np.maximum(sched.p_ch - ess.p_ch_max, 0.0), np.maximum(sched.p_dc - ess.p_dc_max, 0.0)
    )
    ess_power = np.maximum(ess_power, np.minimum(sched.p_ch, sched.p_dc))
    boundary = max(abs(sched.soc[0] - ess.soc_start), abs(sched.soc[-1] - ess.soc_start))

    headroom = np.maximum(sched.p_mt + sched.r_mt - sched.on * p_max, 0.0)
    res_cap = np.minimum(
        ess.eta_dc * (sched.soc[:-1] - ess.soc_min), ess.p_dc_max - sched.p_dc
    )
    reserve_cap = np.maximum(sched.p_res - np.maximum(res_cap, 0.0), 0.0)
    reserve_req = np.maximum(inputs.reserve_requirement - sched.total_reserve(), 0.0)

    return {
        "mt_bounds": float(np.max(mt_low + mt_high, initial=0.0)),
        "balance": float(np.max(balance, initial=0.0)),
        "soc_recursion": float(np.max(recursion, initial=0.0)),
        "soc_bounds": float(np.max(soc_bounds, initial=0.0)),
        "ess_power": float(np.max(ess_power, initial=0.0)),
        "soc_boundary": float(boundary),
        "mt_headroom": float(np.max(headroom, initial=0.0)),
        "ess_reserve_cap": float(np.max(reserve_cap, initial=0.0)),
        "reserve_requirement": float(np.max(reserve_req, initial=0.0)),
    }


def encode_schedule(sched: UpperSchedule) -> tuple[np.ndarray, np.ndarray]:
    """Schedule back to gene vectors (for warm-starting a related solve)."""
    return np.concatenate([sched.p_ch, sched.p_dc]), sched.on.ravel().astype(float)


def _checked(sched: UpperSchedule, inputs: UpperInputs, context: str) -> tuple[UpperSchedule, float]:
    """``sched`` and its net operating cost, or :class:`InfeasibleScheduleError`
    naming every residual above :data:`RESIDUAL_TOL` (NaN counts as above)."""
    residuals = constraint_residuals(sched, inputs)
    offenders = {k: v for k, v in sorted(residuals.items(), key=lambda kv: -kv[1]) if not v <= RESIDUAL_TOL}
    if offenders:
        raise InfeasibleScheduleError(f"{context}; worst residuals {offenders}", residuals)
    return sched, net_operating_cost(sched, inputs.ev_load, inputs.prices, inputs.units, inputs.ess)


def solve_upper(
    inputs: UpperInputs, config: JayaConfig, warm_start: UpperSchedule | None = None
) -> tuple[UpperSchedule, float]:
    """Search the dispatch space; return the best feasible schedule and its cost.

    Raises :class:`InfeasibleScheduleError` when no candidate within the
    iteration budget closes the balance and the reserve requirement.
    """
    lo, hi, n_binary = _gene_bounds(inputs)
    result = optimize(
        lambda x, b: _population_fitness(x, b, inputs),
        lo,
        hi,
        n_binary=n_binary,
        config=config,
        initial=encode_schedule(warm_start) if warm_start is not None else None,
    )
    sched = repair_and_close_balance(result.best.continuous, result.best.binary, inputs)
    return _checked(sched, inputs, f"no feasible schedule within {config.max_iter} iterations")


def warm_start_schedule(inputs: UpperInputs, start: UpperSchedule) -> tuple[UpperSchedule, float]:
    """The schedule that a search warm-started from ``start`` holds before its
    first move, and its cost: ``start``'s genes boxed and thresholded as
    :func:`~mgsched.jaya.optimize` seeds them, then repaired.

    Raises :class:`InfeasibleScheduleError` as :func:`solve_upper` does.
    """
    lo, hi, _ = _gene_bounds(inputs)
    x, b = encode_schedule(start)
    sched = repair_and_close_balance(np.minimum(np.maximum(x, lo), hi), b >= 0.5, inputs)
    return _checked(sched, inputs, "warm start")


def solve_upper_exact(inputs: UpperInputs) -> tuple[UpperSchedule, float]:
    """The deterministic dispatch solved exactly as a MILP with HiGHS.

    After the reserve transform the dispatch is linear apart from the unit
    commitments and the storage's charge/discharge mode, which become
    binaries.  Start-ups are continuous with ``su >= on_t - on_{t-1}`` (off
    before the day), and ``on * p_mt`` is ``p_mt`` because the headroom cap
    forces ``p_mt = 0`` on an uncommitted unit.  The objective is
    :func:`net_operating_cost`; the returned cost is that function evaluated on
    the schedule, so it compares directly with :func:`solve_upper`.

    Raises :class:`InfeasibleScheduleError` when HiGHS does not prove an
    optimum or the schedule fails :data:`RESIDUAL_TOL`.
    """
    ess, t = inputs.ess, inputs.n_periods
    ut = len(inputs.units) * t
    # Column layout: four (U, T) blocks, five (T,) blocks, then soc (T+1,).
    col = np.arange(4 * ut + 6 * t + 1)
    on, su, p_mt, r_mt = (col[k * ut : (k + 1) * ut].reshape(-1, t) for k in range(4))
    p_ch, p_dc, p_res, p_un, mode = (col[4 * ut + k * t : 4 * ut + (k + 1) * t] for k in range(5))
    soc = col[4 * ut + 5 * t :]

    unit_row = np.arange(ut).reshape(-1, t)  # one row per unit and period
    hour_row = np.arange(t)  # one row per period
    sum_row = np.broadcast_to(hour_row, on.shape)  # every unit into its period's row
    net_load = inputs.demand - inputs.renewable_expectation
    # (rows, lower bound, upper bound, [(row, column, coefficient), ...])
    blocks = [
        # generator boxes: on * p_min <= p_mt, and the headroom cap
        # p_mt + r_mt <= on * p_max (which also bounds p_mt)
        (ut, -np.inf, 0.0, [(unit_row, on, inputs.p_min[:, 0]), (unit_row, p_mt, -1.0)]),
        (ut, -np.inf, 0.0, [(unit_row, p_mt, 1.0), (unit_row, r_mt, 1.0), (unit_row, on, -inputs.p_max[:, 0])]),
        (ut, 0.0, np.inf, [(unit_row, su, 1.0), (unit_row, on, -1.0), (unit_row[:, 1:], on[:, :-1], 1.0)]),
        # storage: SOC recursion and one mode per period
        (t, 0.0, 0.0, [(hour_row, soc[1:], 1.0), (hour_row, soc[:-1], -1.0),
                       (hour_row, p_ch, -ess.eta_ch), (hour_row, p_dc, 1.0 / ess.eta_dc)]),
        (t, -np.inf, 0.0, [(hour_row, p_ch, 1.0), (hour_row, mode, -ess.p_ch_max)]),
        (t, -np.inf, ess.p_dc_max, [(hour_row, p_dc, 1.0), (hour_row, mode, ess.p_dc_max)]),
        # storage reserve: energy above the floor and unused discharge rating
        (t, -np.inf, -ess.eta_dc * ess.soc_min, [(hour_row, p_res, 1.0), (hour_row, soc[:-1], -ess.eta_dc)]),
        (t, -np.inf, ess.p_dc_max, [(hour_row, p_res, 1.0), (hour_row, p_dc, 1.0)]),
        (t, inputs.reserve_requirement, np.inf, [(sum_row, r_mt, 1.0), (hour_row, p_res, 1.0)]),
        # balance, with any surplus dumped into p_un
        (t, net_load, net_load, [(sum_row, p_mt, 1.0), (hour_row, p_dc, 1.0),
                                 (hour_row, p_ch, -1.0), (hour_row, p_un, -1.0)]),
    ]
    rows, cols, vals, lbs, ubs = [], [], [], [], []
    first = 0
    for count, lb, ub, terms in blocks:
        for row, column, coef in terms:
            rows.append((first + row).ravel())
            cols.append(column.ravel())
            vals.append(np.broadcast_to(coef, column.shape).ravel())
        lbs.append(np.broadcast_to(lb, count))
        ubs.append(np.broadcast_to(ub, count))
        first += count
    a = sparse.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(first, col.size)
    )

    lo, hi, c = np.zeros(col.size), np.full(col.size, np.inf), np.zeros(col.size)
    hi[on], hi[mode], hi[su] = 1.0, 1.0, 1.0
    hi[p_mt], hi[r_mt] = inputs.p_max[:, 0], inputs.p_max[:, 0]
    hi[p_ch], hi[p_dc], hi[p_res] = ess.p_ch_max, ess.p_dc_max, ess.p_dc_max
    lo[soc], hi[soc] = ess.soc_min, ess.soc_max
    lo[soc[[0, -1]]] = hi[soc[[0, -1]]] = ess.soc_start
    c[on], c[su] = inputs.fixed_fuel[:, 0], inputs.startup_cost[:, 0]
    c[p_mt], c[r_mt] = inputs.fuel_slope[:, 0], inputs.reserve_cost[:, 0]
    c[p_ch], c[p_dc], c[p_res] = ess.charge_price, ess.discharge_price, ess.reserve_price
    integrality = np.zeros(col.size)
    integrality[on] = integrality[mode] = 1

    res = milp(c, constraints=LinearConstraint(a, np.concatenate(lbs), np.concatenate(ubs)),
               integrality=integrality, bounds=Bounds(lo, hi), options={"mip_rel_gap": MILP_REL_GAP})
    if res.status != 0:
        raise InfeasibleScheduleError(f"exact dispatch: HiGHS status {res.status}, {res.message}", {})
    # HiGHS may return a value a rounding error outside its bounds (-6e-14
    # for an idle charge), so box every variable before reading it.
    x = np.minimum(np.maximum(res.x, lo), hi)
    commit = np.round(x[on])
    startup = np.maximum(np.diff(commit, axis=1, prepend=0.0), 0.0)
    sched = UpperSchedule(
        on=commit, startup=startup, p_mt=x[p_mt], r_mt=x[r_mt], p_ch=x[p_ch], p_dc=x[p_dc],
        p_res=x[p_res], p_un=x[p_un], soc=x[soc],
    )
    return _checked(sched, inputs, "exact dispatch")


SCHEDULE_CSV_PREFIX = ["period", "reserve_requirement", "p_ch", "p_dc", "p_res", "p_un", "soc_start", "soc_end"]


def write_schedule_csv(path, sched: UpperSchedule, inputs: UpperInputs) -> None:
    """One row per period with every decision and the reserve requirement."""
    names = [u.name for u in inputs.units]
    header = SCHEDULE_CSV_PREFIX + [
        f"{col}_{name}" for name in names for col in ("on", "startup", "p_mt", "r_mt")
    ]
    columns = [inputs.reserve_requirement, sched.p_ch, sched.p_dc, sched.p_res, sched.p_un,
               sched.soc[:-1], sched.soc[1:]]
    for n in range(len(names)):
        columns += [sched.on[n].astype(int), sched.startup[n].astype(int), sched.p_mt[n], sched.r_mt[n]]
    write_csv(path, header, zip(range(sched.n_periods), *columns))

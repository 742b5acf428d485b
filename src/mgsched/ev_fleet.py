"""Per-EV charging arithmetic and fleet-scenario assembly.

A charging session records one vehicle's arrival, travel demand and state of
charge, plus the window of whole scheduling periods in which it may charge.
A window starts at the first period that begins at or after the arrival, or
at the day's last period for an arrival after 23:00.  Windows are contiguous
and never cross midnight; sessions whose truncated window cannot absorb the
full charge target are flagged.  :func:`write_csv` holds the CSV format of
every table that a run writes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

HORIZON = 24  # hourly periods per scheduling day; arrival hours lie in (0, HORIZON]


@dataclass(frozen=True)
class EvParams:
    battery_capacity: float  # kWh
    rated_power: float  # kW
    charge_efficiency: float
    e_per_100km: float  # kWh per 100 km driven
    soc_min: float
    soc_max: float
    soc_expected: float

    def __post_init__(self):
        for key in ("battery_capacity", "rated_power"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be positive")
        if not 0.0 < self.charge_efficiency <= 1.0:
            raise ValueError("charge_efficiency must lie in (0, 1]")
        if not 0.0 <= self.soc_min < self.soc_expected:
            raise ValueError("soc_min must lie in [0, soc_expected)")
        if not self.soc_expected <= self.soc_max <= 1.0:
            raise ValueError("soc_max must lie in [soc_expected, 1]")


@dataclass(frozen=True)
class EvSession:
    ev_id: int
    arrival_hour: float
    mileage: float  # km
    soc_initial: float
    soc_target: float
    required_energy: float  # kWh delivered into the battery
    window: tuple[int, ...] = ()
    target_truncated: bool = False

    def __post_init__(self):
        if self.soc_target < self.soc_initial - 1e-12:
            raise ValueError("target SOC cannot be below the initial SOC")
        if self.soc_target > 1.0 + 1e-12:
            raise ValueError("target SOC cannot exceed a full battery")
        if self.required_energy < -1e-12:
            raise ValueError("required energy must be non-negative")


def soc_target(soc_initial: float, mileage: float, params: EvParams) -> float:
    """Charge target: initial SOC plus the travel need, boxed into
    [soc_expected, soc_max]."""
    if not params.soc_min <= soc_initial <= params.soc_expected + 1e-12:
        raise ValueError(
            f"initial SOC {soc_initial} outside [{params.soc_min}, {params.soc_expected}]"
        )
    if mileage < 0.0:
        raise ValueError("mileage must be non-negative")
    raw = soc_initial + mileage * params.e_per_100km / (100.0 * params.battery_capacity)
    return min(max(raw, params.soc_expected), params.soc_max)


def build_windows(
    sessions: list[EvSession],
    params: EvParams,
    max_dwell: float = 6.0,
) -> list[EvSession]:
    """Attach charging windows to sessions.

    The window starts at period ceil(arrival), the first period that begins
    at or after the arrival, except that an arrival after 23:00 starts at the
    day's last period, 23, which begins before the vehicle arrives.  It runs
    for ``max_dwell`` periods, truncated at the end of the day.
    ``max_dwell`` is auto-raised to the fleet's rated-power feasibility
    minimum.  Sessions that still cannot absorb their required energy (late
    arrivals cut off at midnight) have the target clamped to the deliverable
    maximum and are flagged.
    """
    if max_dwell <= 0.0:
        raise ValueError("max_dwell must be positive")
    per_period = params.rated_power * params.charge_efficiency  # kWh per period
    needed = max(
        (math.ceil(s.required_energy / per_period - 1e-9) for s in sessions), default=0
    )
    dwell = max(int(math.ceil(max_dwell)), needed, 1)

    out = []
    for s in sessions:
        start = min(int(math.ceil(s.arrival_hour)), HORIZON - 1)
        window = tuple(range(start, min(start + dwell, HORIZON)))
        deliverable = len(window) * per_period
        if s.required_energy <= deliverable + 1e-9:
            out.append(replace(s, window=window))
        else:
            capped_energy = deliverable
            capped_target = s.soc_initial + capped_energy / params.battery_capacity
            out.append(
                replace(
                    s,
                    window=window,
                    soc_target=capped_target,
                    required_energy=capped_energy,
                    target_truncated=True,
                )
            )
    return out


SESSION_CSV_COLUMNS = [
    "ev_id",
    "arrival",
    "mileage",
    "soc_initial",
    "soc_target",
    "window_start",
    "window_end",
    "required_energy",
]


def write_csv(path, header: list[str], rows) -> None:
    """The table ``header`` + ``rows`` as CSV.  Every float is written as its
    ``repr``, which reads back to the same double, so a run's tables are
    byte-identical whenever its values are; every other value (integers
    included) is written as ``str`` writes it."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row] for row in rows)


def write_sessions_csv(path, sessions: list[EvSession]) -> None:
    rows = ([s.ev_id, s.arrival_hour, s.mileage, s.soc_initial, s.soc_target,
             s.window[0] if s.window else -1, s.window[-1] + 1 if s.window else -1, s.required_energy]
            for s in sessions)
    write_csv(path, SESSION_CSV_COLUMNS, rows)


def read_sessions_csv(path, params: EvParams) -> list[EvSession]:
    """The sessions of a session table, each row held to what sampling and
    :func:`build_windows` guarantee: an arrival in (0, 24], a finite
    non-negative mileage, an initial SOC in [soc_min, soc_expected], a target
    from the initial SOC up to the charge target of :func:`soc_target` (below
    it only where a late arrival's window truncated it), and the required
    energy that the two SOC columns imply.  A row that breaks a rule raises
    ``ValueError`` naming the table, the line and the field."""
    sessions = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != SESSION_CSV_COLUMNS:
            raise ValueError(f"unexpected session CSV header: {reader.fieldnames}")
        for row in reader:
            def fail(field, rule):
                return ValueError(f"{path} line {reader.line_num}: {field} must {rule}, got {row[field]}")

            v = {}
            for name in SESSION_CSV_COLUMNS:
                try:
                    v[name] = (int if name in ("ev_id", "window_start", "window_end") else float)(row[name])
                except (TypeError, ValueError):
                    raise fail(name, "be a number") from None
            soc, target = v["soc_initial"], v["soc_target"]
            if not 0.0 < v["arrival"] <= HORIZON:  # NaN fails too
                raise fail("arrival", f"lie in (0, {HORIZON}]")
            if not 0.0 <= v["mileage"] < math.inf:
                raise fail("mileage", "be finite and non-negative")
            if not params.soc_min <= soc <= params.soc_expected:
                raise fail("soc_initial", f"lie in [{params.soc_min}, {params.soc_expected}]")
            charge_target = soc_target(soc, v["mileage"], params)
            if not soc <= target <= charge_target:
                raise fail("soc_target", f"lie in [{soc}, {charge_target}]")
            implied = (target - soc) * params.battery_capacity
            if not abs(v["required_energy"] - implied) <= 1e-9:
                raise fail("required_energy", f"be (soc_target - soc_initial) * battery_capacity = {implied:.6g}")
            start = v["window_start"]
            sessions.append(EvSession(v["ev_id"], v["arrival"], v["mileage"], soc, target, v["required_energy"],
                                      tuple(range(start, v["window_end"])) if start >= 0 else ()))
    return sessions

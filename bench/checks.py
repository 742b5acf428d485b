"""Correctness checks on the files one ``mgsched run`` wrote.

The checks read the written CSVs back (floats are written with ``repr`` and
round-trip exactly) and test them against the scenario runtime the run
prepared:

* the selected dispatch satisfies every ``dispatch.constraint_residuals``
  bound within ``dispatch.RESIDUAL_TOL``;
* the selected charging plan violates its LP by at most ``PLAN_TOL``, both as
  reported in ``summary.json`` and as recomputed from ``charging_plan.csv``;
* the selected iteration's charging LP, re-solved with HiGHS, matches the
  interior-point objective within ``HIGHS_REL_TOL`` relative.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

OUTPUT_FILES = ("records.csv", "schedule.csv", "charging_plan.csv", "prices.csv", "sessions.csv", "summary.json")
PLAN_TOL = 1e-6
HIGHS_REL_TOL = 1e-6


def output_digest(out_dir: Path) -> str:
    """sha256 over the six output files, in a fixed order."""
    digest = hashlib.sha256()
    for name in OUTPUT_FILES:
        digest.update(name.encode())
        digest.update((out_dir / name).read_bytes())
    return digest.hexdigest()


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def schedule_from_csv(path: Path, unit_names: list[str]):
    from mgsched.dispatch import UpperSchedule

    header, *rows = _rows(path)
    col = {name: i for i, name in enumerate(header)}

    def period(name):
        return np.array([float(r[col[name]]) for r in rows])

    def per_unit(prefix):
        return np.array([[float(r[col[f"{prefix}_{u}"]]) for r in rows] for u in unit_names])

    soc_start = period("soc_start")
    return UpperSchedule(
        on=per_unit("on"), startup=per_unit("startup"), p_mt=per_unit("p_mt"), r_mt=per_unit("r_mt"),
        p_ch=period("p_ch"), p_dc=period("p_dc"), p_res=period("p_res"), p_un=period("p_un"),
        soc=np.append(soc_start, period("soc_end")[-1]),
    )


def plan_from_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(per-EV matrix, aggregate row) of ``charging_plan.csv``."""
    _, *rows = _rows(path)
    matrix = np.array([[float(v) for v in r[1:]] for r in rows[:-1]])
    return matrix, np.array([float(v) for v in rows[-1][1:]])


def selected_prices_from_csv(path: Path) -> np.ndarray:
    header, *rows = _rows(path)
    i = header.index("real_time_selected")
    return np.array([float(r[i]) for r in rows])


def selected_lp(rt, outcome):
    """The charging LP the selected iteration solved: prices announced to it
    (grid tariff at iteration 0) and the feed limits it faced, with the same
    structural fallback ``_solve_lower`` applies."""
    from mgsched import coordinator as co
    from mgsched.charging import StructuralInfeasibilityError, build_lp

    k = outcome.selected_index
    announced = rt.tou if k == 0 else outcome.records[k - 1].prices.prices
    caps = outcome.selected.caps if outcome.selected.caps is not None else co.loose_caps(rt)
    try:
        return build_lp(rt.sessions, rt.ev_params, announced, caps, rt.station)
    except StructuralInfeasibilityError:
        return build_lp(rt.sessions, rt.ev_params, announced, co.loose_caps(rt), rt.station)


def highs_objective(lp) -> float:
    if lp.n_vars == 0:
        return 0.0
    res = linprog(lp.c, A_ub=lp.G, b_ub=lp.h, bounds=(None, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the charging LP: {res.message}")
    return float(res.fun)


def check_run(rt, outcome, out_dir: Path) -> tuple[dict, list[str]]:
    """Check one run's outputs; returns (measured values, failure messages)."""
    from mgsched import coordinator as co
    from mgsched.dispatch import RESIDUAL_TOL, constraint_residuals

    failures: list[str] = []
    values: dict[str, float] = {}

    unit_names = [u.name for u in rt.units]
    sched = schedule_from_csv(out_dir / "schedule.csv", unit_names)
    p_ev, ev_load = plan_from_csv(out_dir / "charging_plan.csv")
    prices = selected_prices_from_csv(out_dir / "prices.csv")
    residuals = constraint_residuals(sched, co.upper_inputs(rt, ev_load, prices))
    values["dispatch_max_residual"] = max(residuals.values())
    bad = {k: v for k, v in residuals.items() if not v <= RESIDUAL_TOL}
    if bad:
        failures.append(f"dispatch residuals above {RESIDUAL_TOL}: {bad}")

    summary = json.loads((out_dir / "summary.json").read_text())
    lp = selected_lp(rt, outcome)
    x = np.array([p_ev[i, t] for i, t in lp.columns])
    recomputed = float(np.max(np.maximum(lp.G @ x - lp.h, 0.0), initial=0.0)) if lp.n_vars else 0.0
    values["plan_residual"] = max(float(summary["charging_plan_residual"]), recomputed)
    if not values["plan_residual"] <= PLAN_TOL:
        failures.append(f"charging plan residual {values['plan_residual']} above {PLAN_TOL}")

    ipm = float(lp.c @ x) if lp.n_vars else 0.0
    highs = highs_objective(lp)
    values["highs_rel_diff"] = abs(ipm - highs) / max(1.0, abs(highs))
    if not values["highs_rel_diff"] <= HIGHS_REL_TOL:
        failures.append(f"IPM objective {ipm} differs from HiGHS {highs} by {values['highs_rel_diff']:.3e} relative")

    if summary["mg_cost_joint"] != outcome.selected.mg_cost or summary["ev_cost_joint"] != outcome.selected.ev_cost:
        failures.append("summary.json costs differ from the selected iteration")
    return values, failures

"""Scenario documents of the benchmark workloads.

Every workload is derived from the packaged baseline scenario.  The program
under test only ever receives the generated JSON documents; the workload seed
reaches it as ``mgsched run --seed``, which draws the fleet and seeds JAYA.
"""

from __future__ import annotations

import copy
import json

# EVs of the packaged baseline; ``large_fleet`` scales every kW/kWh quantity
# of the microgrid by the fleet-size ratio so the LP grows and the dispatch
# problem keeps its shape.
BASELINE_FLEET = 20
LARGE_FLEET = 150

WORKLOADS = ("baseline_day", "large_fleet", "fine_reserve")


def baseline_doc(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def fleet_scaled(doc: dict, count: int) -> dict:
    """Copy of ``doc`` with ``count`` EVs and every kW/kWh quantity and
    per-unit fixed cost of the microgrid scaled by ``count / BASELINE_FLEET``
    (the ``large_fleet`` scaling at any fleet size)."""
    factor = count / BASELINE_FLEET
    out = copy.deepcopy(doc)
    out["fleet"]["count"] = count
    for unit in out["mt_units"]:
        for key in ("p_min", "p_max", "startup_cost", "fixed_fuel"):
            unit[key] *= factor
    for key in ("soc_min", "soc_max", "soc_start", "p_ch_max", "p_dc_max"):
        out["ess"][key] *= factor
    out["load"]["mean"] = [v * factor for v in out["load"]["mean"]]
    for source in ("pv", "wt"):
        out[source]["p_rated"] = [v * factor for v in out[source]["p_rated"]]
    out["pricing"]["p_ref"] *= factor
    out["algorithm"]["step_q"] *= factor
    return out


def make_scenario(workload: str, base: dict) -> dict:
    """Scenario document of ``workload`` built from the baseline document."""
    if workload == "baseline_day":
        return copy.deepcopy(base)
    if workload == "large_fleet":
        doc = fleet_scaled(base, LARGE_FLEET)
        doc["algorithm"]["pricing_iterations"] = 3
        return doc
    if workload == "fine_reserve":
        doc = copy.deepcopy(base)
        doc["algorithm"]["step_q"] = 0.1
        doc["algorithm"]["pricing_iterations"] = 1
        return doc
    raise ValueError(f"unknown workload {workload!r}")

"""Helpers shared by several test modules."""

import copy

import pytest

from mgsched import scenario as sc


def _baseline_scaled(count):
    """Packaged baseline with ``count`` EVs and its microgrid's kW/kWh
    quantities scaled by the fleet-size ratio, so the feed limits keep up
    (the benchmark's ``large_fleet`` scaling at any fleet size)."""
    doc = copy.deepcopy(sc.load_scenario(sc.baseline_scenario_path()))
    factor = count / doc["fleet"]["count"]
    doc["fleet"]["count"] = count
    for unit in doc["mt_units"]:
        for key in ("p_min", "p_max", "startup_cost", "fixed_fuel"):
            unit[key] *= factor
    for key in ("soc_min", "soc_max", "soc_start", "p_ch_max", "p_dc_max"):
        doc["ess"][key] *= factor
    doc["load"]["mean"] = [v * factor for v in doc["load"]["mean"]]
    for source in ("pv", "wt"):
        doc[source]["p_rated"] = [v * factor for v in doc[source]["p_rated"]]
    doc["pricing"]["p_ref"] *= factor
    doc["algorithm"]["step_q"] *= factor
    return doc


@pytest.fixture(scope="session")
def baseline_scaled():
    return _baseline_scaled

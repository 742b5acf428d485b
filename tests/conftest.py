"""Helpers shared by several test modules."""

import sys
from pathlib import Path

import pytest

from mgsched import scenario as sc

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


@pytest.fixture(scope="session")
def baseline_scaled():
    """Packaged baseline with ``count`` EVs and its microgrid's kW/kWh
    quantities scaled by the fleet-size ratio, so the feed limits keep up
    (the benchmark's ``large_fleet`` scaling at any fleet size)."""
    base = workloads.baseline_doc(sc.baseline_scenario_path())
    return lambda count: workloads.fleet_scaled(base, count)

"""The benchmark's generated scenarios: reproducible, valid and buildable."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from mgsched import coordinator as co  # noqa: E402
from mgsched import scenario as sc  # noqa: E402
from mgsched.charging import build_lp  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def base():
    return workloads.baseline_doc(sc.baseline_scenario_path())


@pytest.fixture(scope="module")
def runtimes(base):
    """Two independent preparations of every workload at one seed."""
    return {
        name: [sc.prepare(workloads.make_scenario(name, base), seed=SEED) for _ in range(2)]
        for name in workloads.WORKLOADS
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_scenario_is_identical_for_a_seed(base, runtimes, name):
    assert workloads.make_scenario(name, base) == workloads.make_scenario(name, base)
    first, second = runtimes[name]
    assert first.sessions == second.sessions
    assert first.jaya == second.jaya
    for a, b in zip(first.sequences, second.sequences):
        assert a.probs.tobytes() == b.probs.tobytes()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_scenario_validates(base, name):
    sc.validate_scenario(workloads.make_scenario(name, base))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_charging_lp_builds_at_loose_caps(runtimes, name):
    rt = runtimes[name][0]
    lp = build_lp(rt.sessions, rt.ev_params, rt.tou, co.loose_caps(rt), rt.station)
    assert lp.n_sessions == len(rt.sessions)


@pytest.mark.parametrize("name", ["baseline_day", "large_fleet"])
def test_charging_lp_builds_for_many_fleets(base, name):
    doc = workloads.make_scenario(name, base)
    for seed in range(8):
        rt = sc.prepare(doc, seed=seed)
        build_lp(rt.sessions, rt.ev_params, rt.tou, co.loose_caps(rt), rt.station)


def test_workload_shapes(runtimes):
    assert len(runtimes["baseline_day"][0].sessions) == workloads.BASELINE_FLEET
    large = runtimes["large_fleet"][0]
    assert len(large.sessions) == workloads.LARGE_FLEET
    assert large.pricing_iterations == 3
    fine = runtimes["fine_reserve"][0]
    assert fine.pricing_iterations == 1
    assert max(len(s) for s in fine.sequences) == 681


def test_scaling_keeps_the_baseline_per_ev(base):
    scaled = workloads.fleet_scaled(base, 40)
    assert scaled["fleet"]["count"] == 40
    assert scaled["mt_units"][0]["p_max"] == 2 * base["mt_units"][0]["p_max"]
    assert scaled["algorithm"]["step_q"] == 2 * base["algorithm"]["step_q"]
    assert scaled["pricing"]["p_ref"] == 2 * base["pricing"]["p_ref"]
    assert base["fleet"]["count"] == workloads.BASELINE_FLEET  # input left untouched

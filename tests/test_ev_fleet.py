"""EV session arithmetic and window construction."""

import numpy as np
import pytest

from mgsched.distributions import FleetParams, sample_fleet
from mgsched.ev_fleet import (
    EvParams,
    EvSession,
    build_windows,
    read_sessions_csv,
    soc_target,
    write_csv,
    write_sessions_csv,
)

PARAMS = EvParams(
    battery_capacity=19.0,
    rated_power=7.5,
    charge_efficiency=0.95,
    e_per_100km=15.0,
    soc_min=0.2,
    soc_max=1.0,
    soc_expected=0.9,
)

FLEET = FleetParams(
    ev=PARAMS,
    arrival_mu=17.47,
    arrival_sigma=3.41,
    mileage_log_mu=3.623091,
    mileage_log_sigma=0.362735,
)


def test_soc_target_clamps_up_to_expected():
    # raw 0.5 + 40*15/1900 = 0.81579 lies below the expected capacity
    assert soc_target(0.5, 40.0, PARAMS) == pytest.approx(0.9)


def test_soc_target_zero_travel():
    assert soc_target(0.5, 0.0, PARAMS) == pytest.approx(0.9)


def test_soc_target_clamps_at_full():
    # raw 0.2 + 120*15/1900 = 1.147
    assert soc_target(0.2, 120.0, PARAMS) == pytest.approx(1.0)


def test_soc_target_raw_value_in_band():
    # raw 0.55 + 110*15/1900 = 1.418 -> 1.0; raw in (0.9, 1.0) passes through
    raw = 0.85 + 15.0 * 15.0 / 1900.0  # 0.9684
    assert soc_target(0.85, 15.0, PARAMS) == pytest.approx(raw)


def test_soc_target_rejects_out_of_band_initial():
    with pytest.raises(ValueError):
        soc_target(0.95, 10.0, PARAMS)
    with pytest.raises(ValueError):
        soc_target(0.1, 10.0, PARAMS)


def _session(arrival, required=7.0, soc0=0.5):
    target = soc0 + required / PARAMS.battery_capacity
    return EvSession(
        ev_id=0, arrival_hour=arrival, mileage=30.0,
        soc_initial=soc0, soc_target=target, required_energy=required,
    )


def test_window_construction():
    (s,) = build_windows([_session(17.5)], PARAMS, max_dwell=6.0)
    assert s.window == tuple(range(18, 24))


def test_window_truncated_at_midnight():
    (s,) = build_windows([_session(23.2, required=7.6)], PARAMS, max_dwell=6.0)
    assert s.window == (23,)
    assert s.target_truncated
    # target clamped to what one period can deliver
    assert s.required_energy == pytest.approx(7.5 * 0.95)


def test_window_dwell_auto_raised_to_feasibility():
    # 9 kWh needs ceil(9 / 7.125) = 2 periods even though dwell asks for 1
    (s,) = build_windows([_session(10.0, required=9.0, soc0=0.4)], PARAMS, max_dwell=1.0)
    assert len(s.window) == 2
    assert not s.target_truncated


def test_windows_cover_required_energy_for_sampled_fleet():
    sessions = build_windows(sample_fleet(FLEET, 20, seed=42), PARAMS, max_dwell=6.0)
    per_period = PARAMS.rated_power * PARAMS.charge_efficiency
    for s in sessions:
        assert len(s.window) * per_period >= s.required_energy - 1e-9
        assert s.required_energy <= (PARAMS.soc_max - PARAMS.soc_min) * PARAMS.battery_capacity


def test_windows_deterministic_and_order_preserving():
    sessions = sample_fleet(FLEET, 20, seed=42)
    a = build_windows(sessions, PARAMS, max_dwell=6.0)
    b = build_windows(sessions, PARAMS, max_dwell=6.0)
    assert a == b
    assert [s.ev_id for s in a] == [s.ev_id for s in sessions]


def test_session_csv_round_trip(tmp_path):
    sessions = build_windows(sample_fleet(FLEET, 20, seed=42), PARAMS, max_dwell=6.0)
    path = tmp_path / "sessions.csv"
    write_sessions_csv(path, sessions)
    loaded = read_sessions_csv(path, PARAMS)
    assert len(loaded) == len(sessions)
    for orig, back in zip(sessions, loaded):
        assert back.ev_id == orig.ev_id
        assert back.arrival_hour == orig.arrival_hour
        assert back.soc_initial == orig.soc_initial
        assert back.soc_target == orig.soc_target
        assert back.required_energy == orig.required_energy
        assert back.window == orig.window


def test_write_csv_writes_floats_as_repr_and_integers_as_integers(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, ["n", "count", "label", "x", "tiny"], [[np.int64(3), 7, "total", np.float64(0.1), 1e-300]])
    assert path.read_bytes() == b"n,count,label,x,tiny\r\n3,7,total,0.1,1e-300\r\n"

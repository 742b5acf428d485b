"""Scenario file handling: schema validation and runtime preparation.

A scenario is one JSON document holding the generator fleet, storage, hourly
load forecast, hourly renewable distribution parameters, the EV fleet (either
distribution parameters or an explicit session table), pricing constants and
algorithm settings.  :func:`prepare` turns a validated scenario into the
immutable arrays and objects the solvers consume.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from mgsched import distributions as dist
from mgsched.charging import StationParams
from mgsched.dispatch import EssParams, MtUnit
from mgsched.ev_fleet import EvParams, EvSession, build_windows, read_sessions_csv
from mgsched.jaya import JayaConfig
from mgsched.sequences import ProbSequence, convolve, discretize

HOURS = 24


class ScenarioError(ValueError):
    """Scenario document failed validation."""


def baseline_scenario_path() -> Path:
    """Path of the packaged reference scenario."""
    return Path(resources.files("mgsched").joinpath("data/baseline.json"))


def load_scenario(path) -> dict:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from exc
    validate_scenario(doc)
    return doc


def _need(doc: dict, key: str, context: str):
    if key not in doc:
        raise ScenarioError(f"missing '{key}' in {context}")
    return doc[key]


def _is_number(value) -> bool:
    """A real number; ``bool``, strings and ``null`` are not.  NaN and the
    infinities pass here, so that a range rule can name them in its own
    terms; :func:`_check_finite` rejects the rest."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(doc: dict, key: str, context: str):
    """``doc[key]`` when it is a real number."""
    value = _need(doc, key, context)
    if not _is_number(value):
        raise ScenarioError(f"{context}.{key} must be a number")
    return value


def _whole(doc: dict, key: str, context: str):
    """``doc[key]`` when it is a finite number with no fractional part."""
    value = _number(doc, key, context)
    if not (isinstance(value, int) or value.is_integer()):
        raise ScenarioError(f"{context}.{key} must be a whole number")
    return value


def _positive(doc: dict, key: str, context: str):
    """``doc[key]`` when it is a number above zero (NaN is not)."""
    value = _number(doc, key, context)
    if not value > 0.0:
        raise ScenarioError(f"{context}.{key} must be positive")
    return value


def _check_finite(value, name: str) -> None:
    """Reject NaN and the infinities anywhere in the document, by field."""
    if isinstance(value, dict):
        for key, item in value.items():
            _check_finite(item, f"{name}.{key}" if name else str(key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _check_finite(item, f"{name}[{i}]")
    elif isinstance(value, float) and not math.isfinite(value):
        raise ScenarioError(f"{name} must be finite")


def _hourly(values, context: str) -> np.ndarray:
    if not isinstance(values, (list, tuple)) or len(values) != HOURS:
        raise ScenarioError(f"{context} must list exactly {HOURS} hourly values")
    for h, value in enumerate(values):
        if not _is_number(value):
            raise ScenarioError(f"{context}[{h}] must be a number")
    return np.array(values, dtype=float)


def _check_ranges(doc: dict) -> None:
    """The ranges that :class:`MtUnit` and :class:`EssParams` require, named by
    scenario field.  Written as ``not (...)`` so that NaN is rejected too."""
    for i, u in enumerate(doc["mt_units"]):
        for key in ("startup_cost", "fixed_fuel", "fuel_slope", "reserve_cost", "p_min"):
            if not u[key] >= 0.0:
                raise ScenarioError(f"mt_units[{i}].{key} must be non-negative")
        if not u["p_min"] <= u["p_max"]:
            raise ScenarioError(f"mt_units[{i}].p_min must not exceed p_max")
    ess = doc["ess"]
    for key in ("soc_min", "p_ch_max", "p_dc_max"):
        if not ess[key] >= 0.0:
            raise ScenarioError(f"ess.{key} must be non-negative")
    if not ess["soc_min"] <= ess["soc_start"] <= ess["soc_max"]:
        raise ScenarioError("ess.soc_start must lie in [soc_min, soc_max]")
    for key in ("eta_ch", "eta_dc"):
        if not 0.0 < ess[key] <= 1.0:
            raise ScenarioError(f"ess.{key} must lie in (0, 1]")


def _check_renewables(doc: dict) -> None:
    """The ranges that the PV and wind models and :func:`discretize` require,
    named by scenario field and hour.  Written as ``not (...)`` so that NaN is
    rejected too."""
    for name in ("pv", "wt"):
        for h, p_rated in enumerate(doc[name]["p_rated"]):
            if not p_rated >= 0.0:
                raise ScenarioError(f"{name}.p_rated[{h}] must be non-negative")
            if 0.0 < p_rated < doc["algorithm"]["step_q"]:
                raise ScenarioError(f"{name}.p_rated[{h}] must be 0 or at least algorithm.step_q")
    for name, keys in (("pv", ("alpha", "beta")), ("wt", ("k", "c"))):
        for key in keys:
            for h, value in enumerate(doc[name][key]):
                if not value > 0.0:
                    raise ScenarioError(f"{name}.{key}[{h}] must be positive")
    wt = doc["wt"]
    if not 0.0 <= wt["v_in"] < wt["v_rated"] < wt["v_out"]:
        raise ScenarioError("wt.v_in, wt.v_rated and wt.v_out must satisfy 0 <= v_in < v_rated < v_out")


def validate_scenario(doc: dict) -> None:
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    for section in ("mt_units", "ess", "load", "pv", "wt", "fleet", "pricing", "station", "algorithm"):
        _need(doc, section, "scenario")

    units = doc["mt_units"]
    if not isinstance(units, list) or not units:
        raise ScenarioError("mt_units must be a non-empty list")
    for i, u in enumerate(units):
        _need(u, "name", f"mt_units[{i}]")
        for key in ("startup_cost", "fixed_fuel", "fuel_slope", "reserve_cost", "p_min", "p_max"):
            _number(u, key, f"mt_units[{i}]")

    ess = doc["ess"]
    for key in ("soc_min", "soc_max", "p_ch_max", "p_dc_max", "eta_ch", "eta_dc",
                "charge_price", "discharge_price", "reserve_price", "soc_start"):
        _number(ess, key, "ess")
    _check_ranges(doc)

    _hourly(_need(doc["load"], "mean", "load"), "load.mean")

    for name in ("pv", "wt"):
        block = doc[name]
        _hourly(_need(block, "p_rated", name), f"{name}.p_rated")
    for key in ("alpha", "beta"):
        _hourly(_need(doc["pv"], key, "pv"), f"pv.{key}")
    for key in ("k", "c"):
        _hourly(_need(doc["wt"], key, "wt"), f"wt.{key}")
    for key in ("v_in", "v_rated", "v_out"):
        _number(doc["wt"], key, "wt")

    fleet = doc["fleet"]
    has_table = "sessions_csv" in fleet
    keys = ["battery_capacity", "rated_power", "charge_efficiency", "e_per_100km",
            "soc_min", "soc_max", "soc_expected", "max_dwell"]
    if not has_table:
        keys += ["arrival_mu", "arrival_sigma", "mileage_log_mu", "mileage_log_sigma",
                 "soc_initial_mean", "soc_initial_std"]
        _whole(fleet, "count", "fleet")
    for key in keys:
        _number(fleet, key, "fleet")

    pricing = doc["pricing"]
    _need(pricing, "tou", "pricing")
    for key in ("peak", "flat", "offpeak"):
        _positive(pricing["tou"], key, "pricing.tou")
    for key in ("omega_ref", "p_ref", "price_floor"):
        _positive(pricing, key, "pricing")

    for key in ("investment", "lifetime_years"):
        _number(doc["station"], key, "station")

    algo = doc["algorithm"]
    for key in ("jaya", "ipm"):
        _need(algo, key, "algorithm")
    for key in ("gamma", "alpha_cap"):
        _number(algo, key, "algorithm")
    for key in ("step_q", "penalty_weight"):
        _positive(algo, key, "algorithm")
    if not 0.0 < algo["gamma"] <= 1.0:
        raise ScenarioError("algorithm.gamma must lie in (0, 1]")
    if not 0.0 < algo["alpha_cap"] <= 1.0:
        raise ScenarioError("algorithm.alpha_cap must lie in (0, 1]")
    if _whole(algo, "pricing_iterations", "algorithm") < 1:
        raise ScenarioError("algorithm.pricing_iterations must be at least 1")
    jaya = algo["jaya"]
    for key in ("pop_size", "max_iter"):
        _whole(jaya, key, "algorithm.jaya")
    for key in ("seed", "restart_cooldown"):
        if key in jaya:
            _whole(jaya, key, "algorithm.jaya")
    for key in ("thr1", "thr2", "restart_fraction"):
        if key in jaya:
            _number(jaya, key, "algorithm.jaya")
    _positive(algo["ipm"], "tol", "algorithm.ipm")
    _whole(algo["ipm"], "max_iter", "algorithm.ipm")
    _whole(doc, "seed", "scenario")
    _check_renewables(doc)
    _check_finite(doc, "")


# Hour blocks of the grid time-of-use tariff (end-exclusive ranges).
TOU_PEAK_HOURS = range(11, 15)
TOU_OFFPEAK_HOURS = list(range(0, 6)) + [18]


def tou_prices(peak: float, flat: float, offpeak: float) -> np.ndarray:
    prices = np.full(HOURS, flat)
    prices[list(TOU_PEAK_HOURS)] = peak
    prices[TOU_OFFPEAK_HOURS] = offpeak
    return prices


@dataclass
class ScenarioRuntime:
    """Validated scenario unpacked into solver-ready objects."""

    units: tuple[MtUnit, ...]
    ess: EssParams
    base_load: np.ndarray
    renewables: tuple[tuple[dist.PdfSpec, dist.PdfSpec], ...]  # (PV, wind) per hour
    sequences: tuple[ProbSequence, ...]
    sessions: list[EvSession]
    ev_params: EvParams
    station: StationParams
    tou: np.ndarray
    omega_ref: float
    p_ref: float
    price_floor: float
    gamma: float
    alpha_cap: float
    pricing_iterations: int
    penalty_weight: float
    jaya: JayaConfig
    ipm_tol: float
    ipm_max_iter: int
    seed: int


def _discretized(spec: dist.PdfSpec, p_rated: float, q: float, source: str) -> ProbSequence:
    """``discretize``, with any failure reported as the source and hour whose
    distribution gave it (a density that is ``inf * 0`` inside its support
    yields NaN bins, for example).

    The warnings raised on the way to such a failure (numpy's overflow and
    invalid-value warnings, QUADPACK's ``IntegrationWarning``) are dropped
    with it, so that the error is the whole report.  A discretization that
    succeeds shows its warnings after it, as they would have been shown.
    """
    with warnings.catch_warnings(record=True) as caught:
        try:
            seq = discretize(spec, p_rated, q)
        except ValueError as exc:
            raise ScenarioError(f"{source} cannot be discretized: {exc}") from exc
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return seq


def prepare(doc: dict, seed: int | None = None, iterations: int | None = None,
            scenario_dir: Path | None = None) -> ScenarioRuntime:
    """Build the runtime bundle; ``seed``/``iterations`` override the document."""
    validate_scenario(doc)
    run_seed = int(doc["seed"] if seed is None else seed)

    units = tuple(
        MtUnit(
            name=str(u["name"]),
            startup_cost=float(u["startup_cost"]),
            fixed_fuel=float(u["fixed_fuel"]),
            fuel_slope=float(u["fuel_slope"]),
            reserve_cost=float(u["reserve_cost"]),
            p_min=float(u["p_min"]),
            p_max=float(u["p_max"]),
        )
        for u in doc["mt_units"]
    )
    e = doc["ess"]
    ess = EssParams(
        soc_min=float(e["soc_min"]), soc_max=float(e["soc_max"]),
        p_ch_max=float(e["p_ch_max"]), p_dc_max=float(e["p_dc_max"]),
        eta_ch=float(e["eta_ch"]), eta_dc=float(e["eta_dc"]),
        charge_price=float(e["charge_price"]), discharge_price=float(e["discharge_price"]),
        reserve_price=float(e["reserve_price"]), soc_start=float(e["soc_start"]),
    )

    base_load = _hourly(doc["load"]["mean"], "load.mean")
    q = float(doc["algorithm"]["step_q"])

    pv, wt = doc["pv"], doc["wt"]
    renewables, sequences = [], []
    for h in range(HOURS):
        pv_spec = dist.beta_pv_pdf(float(pv["alpha"][h]), float(pv["beta"][h]), float(pv["p_rated"][h]))
        wt_spec = dist.weibull_wt_pdf(
            float(wt["k"][h]), float(wt["c"][h]), float(wt["v_in"]),
            float(wt["v_rated"]), float(wt["v_out"]), float(wt["p_rated"][h]),
        )
        renewables.append((pv_spec, wt_spec))
        seq_pv = _discretized(pv_spec, float(pv["p_rated"][h]), q, f"pv[{h}]")
        seq_wt = _discretized(wt_spec, float(wt["p_rated"][h]), q, f"wt[{h}]")
        sequences.append(convolve(seq_pv, seq_wt))

    f = doc["fleet"]
    ev_params = EvParams(
        battery_capacity=float(f["battery_capacity"]),
        rated_power=float(f["rated_power"]),
        charge_efficiency=float(f["charge_efficiency"]),
        e_per_100km=float(f["e_per_100km"]),
        soc_min=float(f["soc_min"]),
        soc_max=float(f["soc_max"]),
        soc_expected=float(f["soc_expected"]),
    )
    if "sessions_csv" in f:
        csv_path = Path(f["sessions_csv"])
        if not csv_path.is_absolute() and scenario_dir is not None:
            csv_path = scenario_dir / csv_path
        sessions = read_sessions_csv(csv_path)
    else:
        fleet_params = dist.FleetParams(
            ev=ev_params,
            arrival_mu=float(f["arrival_mu"]),
            arrival_sigma=float(f["arrival_sigma"]),
            mileage_log_mu=float(f["mileage_log_mu"]),
            mileage_log_sigma=float(f["mileage_log_sigma"]),
            soc_initial_mean=float(f["soc_initial_mean"]),
            soc_initial_std=float(f["soc_initial_std"]),
        )
        sessions = dist.sample_fleet(fleet_params, int(f["count"]), run_seed)
    sessions = build_windows(sessions, ev_params, max_dwell=float(f["max_dwell"]))

    pr = doc["pricing"]
    algo = doc["algorithm"]
    jcfg = algo["jaya"]
    jaya = JayaConfig(
        pop_size=int(jcfg["pop_size"]),
        max_iter=int(jcfg["max_iter"]),
        seed=int(jcfg.get("seed", run_seed)),
        thr1=float(jcfg.get("thr1", 0.99)),
        thr2=float(jcfg.get("thr2", 1.01)),
        restart_fraction=float(jcfg.get("restart_fraction", 0.2)),
        restart_cooldown=int(jcfg.get("restart_cooldown", 100)),
    )
    n_iters = int(algo["pricing_iterations"] if iterations is None else iterations)
    if n_iters < 1:
        raise ScenarioError("pricing iterations must be at least 1")

    return ScenarioRuntime(
        units=units,
        ess=ess,
        base_load=base_load,
        renewables=tuple(renewables),
        sequences=tuple(sequences),
        sessions=sessions,
        ev_params=ev_params,
        station=StationParams(float(doc["station"]["investment"]), float(doc["station"]["lifetime_years"])),
        tou=tou_prices(float(pr["tou"]["peak"]), float(pr["tou"]["flat"]), float(pr["tou"]["offpeak"])),
        omega_ref=float(pr["omega_ref"]),
        p_ref=float(pr["p_ref"]),
        price_floor=float(pr["price_floor"]),
        gamma=float(algo["gamma"]),
        alpha_cap=float(algo["alpha_cap"]),
        pricing_iterations=n_iters,
        penalty_weight=float(algo["penalty_weight"]),
        jaya=jaya,
        ipm_tol=float(algo["ipm"]["tol"]),
        ipm_max_iter=int(algo["ipm"]["max_iter"]),
        seed=run_seed,
    )

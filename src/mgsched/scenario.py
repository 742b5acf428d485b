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
import sys
import warnings
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import NamedTuple

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
    """The parsed scenario document; :func:`prepare` validates it."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"not valid JSON: {exc}") from exc


def _need(doc: dict, key: str, context: str):
    if not isinstance(doc, dict):
        raise ScenarioError(f"{context} must be a JSON object")
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
    return _fits_float(value, f"{context}.{key}")


def _fits_float(value, name: str):
    """``value``, unless it is a JSON integer that ``float()`` overflows on."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ScenarioError(f"{name} must be finite")
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
        _fits_float(value, f"{context}[{h}]")
    return np.array(values, dtype=float)


def _record(cls, block: dict, context: str, optional=(), **given):
    """``cls`` built from the scenario block ``block``, whose keys are the
    record's dataclass fields other than those in ``given``.

    A ``str`` field is taken as written, an ``int`` field must be a whole
    number and any other field a number.  A field named in ``optional`` keeps
    its dataclass default when the block leaves it out.  The record's own
    range rules report the field first, so their ``ValueError`` becomes a
    :class:`ScenarioError` under ``context``.
    """
    values = dict(given)
    for f in fields(cls):
        if f.name in given or (f.name in optional and f.name not in block):
            continue
        if f.type == "str":
            values[f.name] = str(_need(block, f.name, context))
        elif f.type == "int":
            values[f.name] = int(_whole(block, f.name, context))
        else:
            values[f.name] = float(_number(block, f.name, context))
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{context}.{exc}") from exc


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


class Records(NamedTuple):
    """The records of a scenario document, as :func:`validate_scenario`
    reads them."""

    units: tuple[MtUnit, ...]
    ess: EssParams
    ev: EvParams
    fleet: dist.FleetParams | None  # None when the fleet is a session table
    station: StationParams
    jaya: JayaConfig  # seed 0 when the document leaves it to the run seed


def validate_scenario(doc: dict) -> Records:
    """Read ``doc`` once into its records; a field that is missing, of the
    wrong kind or out of range fails with a :class:`ScenarioError` that names
    it."""
    for section in ("mt_units", "ess", "load", "pv", "wt", "fleet", "pricing", "station", "algorithm"):
        _need(doc, section, "scenario")

    units = doc["mt_units"]
    if not isinstance(units, list) or not units:
        raise ScenarioError("mt_units must be a non-empty list")
    units = tuple(_record(MtUnit, u, f"mt_units[{i}]") for i, u in enumerate(units))
    ess = _record(EssParams, doc["ess"], "ess")

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
    ev = _record(EvParams, fleet, "fleet")
    _positive(fleet, "max_dwell", "fleet")
    sampled = None
    if "sessions_csv" not in fleet:
        if _whole(fleet, "count", "fleet") < 1:
            raise ScenarioError("fleet.count must be at least 1")
        sampled = _record(dist.FleetParams, fleet, "fleet", ev=ev)

    pricing = doc["pricing"]
    _need(pricing, "tou", "pricing")
    for key in ("peak", "flat", "offpeak"):
        _positive(pricing["tou"], key, "pricing.tou")
    for key in ("omega_ref", "p_ref", "price_floor"):
        _positive(pricing, key, "pricing")

    station = _record(StationParams, doc["station"], "station")

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
    jaya = _record(JayaConfig, algo["jaya"], "algorithm.jaya",
                   optional=("seed", "thr1", "thr2", "restart_fraction", "restart_cooldown"))
    _positive(algo["ipm"], "tol", "algorithm.ipm")
    if _whole(algo["ipm"], "max_iter", "algorithm.ipm") < 1:
        raise ScenarioError("algorithm.ipm.max_iter must be at least 1")
    if _whole(doc, "seed", "scenario") < 0:
        raise ScenarioError("scenario.seed must be non-negative")
    _check_renewables(doc)
    _check_finite(doc, "")
    return Records(units, ess, ev, sampled, station, jaya)


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
    records = validate_scenario(doc)
    run_seed = int(doc["seed"] if seed is None else seed)
    if run_seed < 0:
        raise ScenarioError("seed must be non-negative")

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
    if records.fleet is None:
        csv_path = Path(f["sessions_csv"])
        if not csv_path.is_absolute() and scenario_dir is not None:
            csv_path = scenario_dir / csv_path
        sessions = read_sessions_csv(csv_path)
    else:
        sessions = dist.sample_fleet(records.fleet, int(f["count"]), run_seed)
    sessions = build_windows(sessions, records.ev, max_dwell=float(f["max_dwell"]))

    pr = doc["pricing"]
    algo = doc["algorithm"]
    jaya = records.jaya if "seed" in algo["jaya"] else replace(records.jaya, seed=run_seed)
    n_iters = int(algo["pricing_iterations"] if iterations is None else iterations)
    if n_iters < 1:
        raise ScenarioError("pricing iterations must be at least 1")

    return ScenarioRuntime(
        units=records.units,
        ess=records.ess,
        base_load=base_load,
        renewables=tuple(renewables),
        sequences=tuple(sequences),
        sessions=sessions,
        ev_params=records.ev,
        station=records.station,
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

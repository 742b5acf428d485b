"""Scenario file handling: schema validation and runtime preparation.

A scenario is one JSON document holding the generator fleet, storage, hourly
load forecast, hourly renewable distribution parameters, the EV fleet (either
distribution parameters or an explicit session table), pricing constants and
algorithm settings.  :func:`validate_scenario` is the only reader of the
document: it checks and converts every value in one pass, and :func:`prepare`
turns what it read into the immutable arrays and objects the solvers consume.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from mgsched import distributions as dist
from mgsched.charging import StationParams
from mgsched.dispatch import EssParams, MtUnit
from mgsched.ev_fleet import HORIZON, EvParams, EvSession, build_windows, read_sessions_csv
from mgsched.jaya import JayaConfig
from mgsched.sequences import ProbSequence, convolve, discretize


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


def _whole(doc: dict, key: str, context: str) -> int:
    """``doc[key]`` when it is a finite number with no fractional part and
    no larger than numpy's largest array dimension."""
    value = _number(doc, key, context)
    if not (isinstance(value, int) or value.is_integer()):
        raise ScenarioError(f"{context}.{key} must be a whole number")
    limit = np.iinfo(np.intp).max
    if value > limit:
        raise ScenarioError(f"{context}.{key} must be at most {limit}")
    return int(value)


def _positive(doc: dict, key: str, context: str) -> float:
    """``doc[key]`` when it is a number above zero (NaN is not)."""
    value = _number(doc, key, context)
    if not value > 0.0:
        raise ScenarioError(f"{context}.{key} must be positive")
    return float(value)


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
    if not isinstance(values, (list, tuple)) or len(values) != HORIZON:
        raise ScenarioError(f"{context} must list exactly {HORIZON} hourly values")
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
            values[f.name] = _whole(block, f.name, context)
        else:
            values[f.name] = float(_number(block, f.name, context))
    try:
        return cls(**values)
    except ValueError as exc:
        raise ScenarioError(f"{context}.{exc}") from exc


def _check_renewables(hourly: dict, wind_speeds: tuple, step_q: float) -> None:
    """The ranges that the PV and wind models and :func:`discretize` require,
    named by scenario field and hour.  Written as ``not (...)`` so that NaN is
    rejected too."""
    for name in ("pv.p_rated", "wt.p_rated"):
        for h, p_rated in enumerate(hourly[name]):
            if not p_rated >= 0.0:
                raise ScenarioError(f"{name}[{h}] must be non-negative")
            if 0.0 < p_rated < step_q:
                raise ScenarioError(f"{name}[{h}] must be 0 or at least algorithm.step_q")
    for name in ("pv.alpha", "pv.beta", "wt.k", "wt.c"):
        for h, value in enumerate(hourly[name]):
            if not value > 0.0:
                raise ScenarioError(f"{name}[{h}] must be positive")
    v_in, v_rated, v_out = wind_speeds
    if not 0.0 <= v_in < v_rated < v_out:
        raise ScenarioError("wt.v_in, wt.v_rated and wt.v_out must satisfy 0 <= v_in < v_rated < v_out")


@dataclass
class Scenario:
    """Every value of a scenario document, as :func:`validate_scenario`
    reads and converts it."""

    units: tuple[MtUnit, ...]
    ess: EssParams
    base_load: np.ndarray  # load.mean
    hourly: dict[str, np.ndarray]  # the PV and wind fields: "pv.alpha", ..., "wt.p_rated"
    wind_speeds: tuple[float, float, float]  # wt.v_in, wt.v_rated, wt.v_out
    ev_params: EvParams
    max_dwell: float
    fleet: dist.FleetParams | None  # None when the fleet is a session table
    count: int | None  # size of a sampled fleet
    sessions_csv: Path | None
    tou: np.ndarray
    omega_ref: float
    p_ref: float
    price_floor: float
    station: StationParams
    gamma: float
    alpha_cap: float
    step_q: float
    penalty_weight: float
    pricing_iterations: int
    jaya: JayaConfig  # seed 0 when the document leaves it to the run seed
    jaya_seeded: bool  # the document sets algorithm.jaya.seed
    ipm_tol: float
    ipm_max_iter: int
    seed: int


def validate_scenario(doc: dict) -> Scenario:
    """Read and convert every value of ``doc`` in one pass; a field that is
    missing, of the wrong kind or out of range fails with a
    :class:`ScenarioError` that names it."""
    for section in ("mt_units", "ess", "load", "pv", "wt", "fleet", "pricing", "station", "algorithm"):
        _need(doc, section, "scenario")

    units = doc["mt_units"]
    if not isinstance(units, list) or not units:
        raise ScenarioError("mt_units must be a non-empty list")
    units = tuple(_record(MtUnit, u, f"mt_units[{i}]") for i, u in enumerate(units))
    ess = _record(EssParams, doc["ess"], "ess")

    hourly = {f"{name}.{key}": _hourly(_need(doc[name], key, name), f"{name}.{key}")
              for name, key in (("load", "mean"), ("pv", "p_rated"), ("wt", "p_rated"),
                                ("pv", "alpha"), ("pv", "beta"), ("wt", "k"), ("wt", "c"))}
    base_load = hourly.pop("load.mean")
    wind_speeds = tuple(float(_number(doc["wt"], key, "wt")) for key in ("v_in", "v_rated", "v_out"))

    fleet = doc["fleet"]
    ev = _record(EvParams, fleet, "fleet")
    max_dwell = _positive(fleet, "max_dwell", "fleet")
    sampled = count = sessions_csv = None
    if "sessions_csv" in fleet:
        if not isinstance(fleet["sessions_csv"], str):
            raise ScenarioError("fleet.sessions_csv must be a string")
        sessions_csv = Path(fleet["sessions_csv"])
    else:
        count = _whole(fleet, "count", "fleet")
        if count < 1:
            raise ScenarioError("fleet.count must be at least 1")
        sampled = _record(dist.FleetParams, fleet, "fleet", ev=ev)

    pricing = doc["pricing"]
    tou_block = _need(pricing, "tou", "pricing")
    tou = tou_prices(*(_positive(tou_block, key, "pricing.tou") for key in ("peak", "flat", "offpeak")))
    omega_ref, p_ref, price_floor = (_positive(pricing, key, "pricing")
                                     for key in ("omega_ref", "p_ref", "price_floor"))

    station = _record(StationParams, doc["station"], "station")

    algo = doc["algorithm"]
    for key in ("jaya", "ipm"):
        _need(algo, key, "algorithm")
    gamma, alpha_cap = (float(_number(algo, key, "algorithm")) for key in ("gamma", "alpha_cap"))
    step_q, penalty_weight = (_positive(algo, key, "algorithm") for key in ("step_q", "penalty_weight"))
    if not 0.0 < gamma <= 1.0:
        raise ScenarioError("algorithm.gamma must lie in (0, 1]")
    if not 0.0 < alpha_cap <= 1.0:
        raise ScenarioError("algorithm.alpha_cap must lie in (0, 1]")
    pricing_iterations = _whole(algo, "pricing_iterations", "algorithm")
    if pricing_iterations < 1:
        raise ScenarioError("algorithm.pricing_iterations must be at least 1")
    jaya = _record(JayaConfig, algo["jaya"], "algorithm.jaya",
                   optional=("seed", "thr1", "thr2", "restart_fraction", "restart_cooldown"))
    ipm_tol = _positive(algo["ipm"], "tol", "algorithm.ipm")
    ipm_max_iter = _whole(algo["ipm"], "max_iter", "algorithm.ipm")
    if ipm_max_iter < 1:
        raise ScenarioError("algorithm.ipm.max_iter must be at least 1")
    seed = _whole(doc, "seed", "scenario")
    if seed < 0:
        raise ScenarioError("scenario.seed must be non-negative")
    _check_renewables(hourly, wind_speeds, step_q)
    _check_finite(doc, "")
    for h, load in enumerate(base_load):
        if load < 0.0:
            raise ScenarioError(f"load.mean[{h}] must be non-negative")
    return Scenario(units, ess, base_load, hourly, wind_speeds, ev, max_dwell, sampled, count,
                    sessions_csv, tou, omega_ref, p_ref, price_floor, station, gamma, alpha_cap, step_q,
                    penalty_weight, pricing_iterations, jaya, "seed" in algo["jaya"],
                    ipm_tol, ipm_max_iter, seed)


# Hour blocks of the grid time-of-use tariff (end-exclusive ranges).
TOU_PEAK_HOURS = range(11, 15)
TOU_OFFPEAK_HOURS = list(range(0, 6)) + [18]


def tou_prices(peak: float, flat: float, offpeak: float) -> np.ndarray:
    prices = np.full(HORIZON, flat)
    prices[list(TOU_PEAK_HOURS)] = peak
    prices[TOU_OFFPEAK_HOURS] = offpeak
    return prices


@dataclass
class ScenarioRuntime(Scenario):
    """A validated scenario unpacked into solver-ready objects, with the
    run's seed, JAYA seed and pricing iteration count in place of the
    document's."""

    sequences: tuple[ProbSequence, ...]
    sessions: list[EvSession]


def _discretized(spec: dist.PdfSpec, p_rated: float, q: float, source: str) -> ProbSequence:
    """``discretize``, with any failure reported as the source and hour whose
    distribution gave it (Beta shapes so large that ``betainc`` is NaN yield
    NaN bins, for example).

    The warnings raised on the way to such a failure (numpy's overflow and
    invalid-value warnings, say) are dropped with it, so that the error is
    the whole report.  A discretization that succeeds shows its warnings
    after it, as they would have been shown.
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
    """Build the runtime bundle from what :func:`validate_scenario` reads;
    ``seed``/``iterations`` override the document."""
    r = validate_scenario(doc)
    run_seed = r.seed if seed is None else int(seed)
    if run_seed < 0:
        raise ScenarioError("seed must be non-negative")
    n_iters = r.pricing_iterations if iterations is None else int(iterations)
    if n_iters < 1:
        raise ScenarioError("pricing iterations must be at least 1")

    sequences = []
    names = ("pv.alpha", "pv.beta", "pv.p_rated", "wt.k", "wt.c", "wt.p_rated")
    for h, (alpha, beta, pv_rated, k, c, wt_rated) in enumerate(zip(*(r.hourly[n].tolist() for n in names))):
        pv_spec = dist.beta_pv_pdf(alpha, beta, pv_rated)
        wt_spec = dist.weibull_wt_pdf(k, c, *r.wind_speeds, wt_rated)
        seq_pv = _discretized(pv_spec, pv_rated, r.step_q, f"pv[{h}]")
        seq_wt = _discretized(wt_spec, wt_rated, r.step_q, f"wt[{h}]")
        sequences.append(convolve(seq_pv, seq_wt))

    if r.fleet is None:
        csv_path = r.sessions_csv
        if not csv_path.is_absolute() and scenario_dir is not None:
            csv_path = scenario_dir / csv_path
        sessions = read_sessions_csv(csv_path, r.ev_params)
    else:
        sessions = dist.sample_fleet(r.fleet, r.count, run_seed)
    sessions = build_windows(sessions, r.ev_params, max_dwell=r.max_dwell)

    jaya = r.jaya if r.jaya_seeded else replace(r.jaya, seed=run_seed)
    r = replace(r, pricing_iterations=n_iters, jaya=jaya, seed=run_seed)
    return ScenarioRuntime(**vars(r), sequences=tuple(sequences), sessions=sessions)

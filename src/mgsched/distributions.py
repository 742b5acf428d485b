"""Probability models for renewables and EV behaviour.

Continuous models are described by :class:`PdfSpec` records.  A spec carries a
density on its support plus optional point masses (the wind-power model has
atoms at zero output and at rated output, induced by the turbine power curve).
All sampling is a pure function of (parameters, count, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.special import betaln, ndtr, ndtri, xlog1py, xlogy

from mgsched.ev_fleet import HORIZON, EvParams, EvSession, soc_target

SQRT_2PI = math.sqrt(2.0 * math.pi)


class PdfKind(str, Enum):
    BETA_PV = "beta_pv"
    WEIBULL_WT = "weibull_wt"
    ARRIVAL_TIME = "arrival_time"
    MILEAGE = "mileage"
    INITIAL_SOC = "initial_soc"


@dataclass(frozen=True)
class PdfSpec:
    """A continuous probability model with optional point masses.

    ``params`` is a mapping of named real parameters whose meaning depends on
    ``kind``; ``support`` is the closed interval carrying all probability mass
    (in kW for power, hours for time, km for mileage, fraction for SOC).
    """

    kind: PdfKind
    params: dict = field(default_factory=dict)
    support: tuple = (0.0, 1.0)


def pdf_arrival(t, mu: float, sigma: float):
    """Density of the EV arrival time at hour ``t`` in (0, 24].

    The arrival clock wraps at midnight, so the density is the normal density
    folded onto one day: the dominant branch uses ``t - mu`` for
    ``t > mu - 12`` and ``t + 24 - mu`` otherwise, plus the (numerically tiny)
    images one day away so that the density integrates to one.
    """
    t = np.asarray(t, dtype=float)
    if sigma <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not 12.0 < mu <= 24.0:
        raise ValueError(f"mu must lie in (12, 24], got {mu}")
    if np.any(t <= 0.0) or np.any(t > HORIZON):
        raise ValueError("arrival time must lie in (0, 24]")
    out = np.zeros_like(t)
    for shift in (-HORIZON, 0.0, HORIZON):
        out = out + np.exp(-((t - mu + shift) ** 2) / (2.0 * sigma**2))
    return out / (SQRT_2PI * sigma)


def pdf_mileage(m, mu_log: float, sigma_log: float):
    """Density of the daily mileage at ``m`` km (lognormal in ``m``)."""
    m = np.asarray(m, dtype=float)
    if sigma_log <= 0.0:
        raise ValueError(f"sigma must be positive, got {sigma_log}")
    if np.any(m <= 0.0):
        raise ValueError("mileage must be positive")
    return np.exp(-((np.log(m) - mu_log) ** 2) / (2.0 * sigma_log**2)) / (SQRT_2PI * sigma_log * m)


def beta_pv_pdf(alpha: float, beta: float, p_rated: float) -> PdfSpec:
    """PV power model: Beta-distributed fraction of the rated output."""
    if p_rated < 0.0:
        raise ValueError("rated power must be non-negative")
    if p_rated == 0.0:
        # Night hours: all mass at zero output.
        return PdfSpec(PdfKind.BETA_PV, {"alpha": alpha, "beta": beta, "p_rated": 0.0}, (0.0, 0.0))
    if alpha <= 0.0 or beta <= 0.0:
        raise ValueError("Beta shape parameters must be positive")
    return PdfSpec(PdfKind.BETA_PV, {"alpha": alpha, "beta": beta, "p_rated": p_rated}, (0.0, p_rated))


def weibull_wt_pdf(k: float, c: float, v_in: float, v_rated: float, v_out: float, p_rated: float) -> PdfSpec:
    """Wind power model: Weibull wind speed through a piecewise-linear power curve."""
    if p_rated < 0.0:
        raise ValueError("rated power must be non-negative")
    if p_rated == 0.0:
        return PdfSpec(PdfKind.WEIBULL_WT, {"k": k, "c": c, "v_in": v_in, "v_rated": v_rated, "v_out": v_out, "p_rated": 0.0}, (0.0, 0.0))
    if k <= 0.0 or c <= 0.0:
        raise ValueError("Weibull parameters must be positive")
    if not 0.0 <= v_in < v_rated < v_out:
        raise ValueError("wind speeds must satisfy 0 <= cut-in < rated < cut-out")
    params = {"k": k, "c": c, "v_in": v_in, "v_rated": v_rated, "v_out": v_out, "p_rated": p_rated}
    return PdfSpec(PdfKind.WEIBULL_WT, params, (0.0, p_rated))


def arrival_pdf(mu: float, sigma: float) -> PdfSpec:
    return PdfSpec(PdfKind.ARRIVAL_TIME, {"mu": mu, "sigma": sigma}, (0.0, HORIZON))


def mileage_pdf(mu_log: float, sigma_log: float) -> PdfSpec:
    upper = math.exp(mu_log + 10.0 * sigma_log)
    return PdfSpec(PdfKind.MILEAGE, {"mu_log": mu_log, "sigma_log": sigma_log}, (0.0, upper))


def initial_soc_pdf(mean: float, std: float, lo: float, hi: float) -> PdfSpec:
    """Initial EV state of charge: normal truncated to [lo, hi]."""
    if not lo < hi:
        raise ValueError("truncation bounds must satisfy lo < hi")
    if std <= 0.0:
        raise ValueError("std must be positive")
    return PdfSpec(PdfKind.INITIAL_SOC, {"mean": mean, "std": std, "lo": lo, "hi": hi}, (lo, hi))


def weibull_sf(v, k, c):
    """Weibull survival function P(V > v) = exp(-(v / c) ** k) at ``v >= 0``.

    Where ``(v / c) ** k`` overflows to inf, the result is its exact limit 0,
    so the overflow is not reported."""
    with np.errstate(over="ignore"):
        return np.exp(-((np.asarray(v, dtype=float) / c) ** k))


def density(spec: PdfSpec, x):
    """Continuous density of ``spec`` at ``x`` (excluding point masses)."""
    x = np.asarray(x, dtype=float)
    p = spec.params
    if spec.kind is PdfKind.BETA_PV:
        pr = p["p_rated"]
        if pr == 0.0:
            return np.zeros_like(x)
        # Beta density of the output fraction in closed form (no scipy.stats
        # import on the run path); the support's end points carry no mass.
        a, b = p["alpha"], p["beta"]
        u = x / pr
        inside = (u > 0.0) & (u < 1.0)
        u = np.where(inside, u, 0.5)
        log_pdf = xlogy(a - 1.0, u) + xlog1py(b - 1.0, -u) - betaln(a, b)
        return np.where(inside, np.exp(log_pdf), 0.0) / pr
    if spec.kind is PdfKind.WEIBULL_WT:
        pr = p["p_rated"]
        if pr == 0.0:
            return np.zeros_like(x)
        k, c = p["k"], p["c"]
        dv_dp = (p["v_rated"] - p["v_in"]) / pr
        # points off the support get a stand-in inside it and are zeroed below
        inside = (x > 0.0) & (x < pr)
        v = p["v_in"] + np.where(inside, x, 0.5 * pr) * dv_dp
        f_v = (k / c) * (v / c) ** (k - 1.0) * weibull_sf(v, k, c)
        return np.where(inside, f_v * dv_dp, 0.0)
    if spec.kind is PdfKind.ARRIVAL_TIME:
        return pdf_arrival(x, p["mu"], p["sigma"])
    if spec.kind is PdfKind.MILEAGE:
        return pdf_mileage(x, p["mu_log"], p["sigma_log"])
    if spec.kind is PdfKind.INITIAL_SOC:
        mean, std, lo, hi = p["mean"], p["std"], p["lo"], p["hi"]
        z = ndtr((hi - mean) / std) - ndtr((lo - mean) / std)
        raw = np.exp(-((x - mean) ** 2) / (2.0 * std**2)) / (SQRT_2PI * std * z)
        return np.where((x >= lo) & (x <= hi), raw, 0.0)
    raise ValueError(f"unknown pdf kind {spec.kind}")


def atoms(spec: PdfSpec) -> list[tuple[float, float]]:
    """Point masses of ``spec`` as (location, probability) pairs."""
    p = spec.params
    if spec.kind is PdfKind.BETA_PV and p["p_rated"] == 0.0:
        return [(0.0, 1.0)]
    if spec.kind is PdfKind.WEIBULL_WT:
        pr = p["p_rated"]
        if pr == 0.0:
            return [(0.0, 1.0)]
        k, c = p["k"], p["c"]
        at_zero = 1.0 - weibull_sf(p["v_in"], k, c) + weibull_sf(p["v_out"], k, c)
        at_rated = weibull_sf(p["v_rated"], k, c) - weibull_sf(p["v_out"], k, c)
        return [(0.0, float(at_zero)), (pr, float(at_rated))]
    return []


def sample(spec: PdfSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    p = spec.params
    if spec.kind is PdfKind.BETA_PV:
        if p["p_rated"] == 0.0:
            return np.zeros(size)
        return rng.beta(p["alpha"], p["beta"], size=size) * p["p_rated"]
    if spec.kind is PdfKind.WEIBULL_WT:
        if p["p_rated"] == 0.0:
            return np.zeros(size)
        v = p["c"] * rng.weibull(p["k"], size=size)
        return _power_curve(v, p)
    if spec.kind is PdfKind.ARRIVAL_TIME:
        t = np.mod(rng.normal(p["mu"], p["sigma"], size=size), HORIZON)
        return np.where(t == 0.0, HORIZON, t)
    if spec.kind is PdfKind.MILEAGE:
        return np.exp(rng.normal(p["mu_log"], p["sigma_log"], size=size))
    if spec.kind is PdfKind.INITIAL_SOC:
        # Inverse-CDF truncation: exact and seedable; the clip only guards the
        # boundaries against floating-point round-off.
        mean, std, lo, hi = p["mean"], p["std"], p["lo"], p["hi"]
        u_lo = ndtr((lo - mean) / std)
        u_hi = ndtr((hi - mean) / std)
        u = rng.uniform(u_lo, u_hi, size=size)
        return np.clip(mean + std * ndtri(u), lo, hi)
    raise ValueError(f"unknown pdf kind {spec.kind}")


def _power_curve(v: np.ndarray, p: dict) -> np.ndarray:
    pr = p["p_rated"]
    ramp = pr * (v - p["v_in"]) / (p["v_rated"] - p["v_in"])
    out = np.clip(ramp, 0.0, pr)
    return np.where(v >= p["v_out"], 0.0, out)


@dataclass(frozen=True)
class FleetParams:
    """EV ratings plus behaviour distributions for fleet sampling."""

    ev: EvParams
    arrival_mu: float  # hours
    arrival_sigma: float
    mileage_log_mu: float
    mileage_log_sigma: float
    soc_initial_mean: float = 0.5
    soc_initial_std: float = 0.1

    def __post_init__(self):
        for key in ("arrival_sigma", "mileage_log_sigma", "soc_initial_std"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be positive")


def sample_fleet(fleet: FleetParams, count: int, seed: int) -> list:
    """Draw ``count`` EV sessions (arrival, mileage, initial SOC, charge target).

    Deterministic given ``seed``.  Arrival wraps modulo 24 h, mileage is
    lognormal, and the initial SOC is normal truncated to
    [soc_min, soc_expected] so every vehicle still needs charge on arrival.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    arrivals = sample(arrival_pdf(fleet.arrival_mu, fleet.arrival_sigma), rng, count)
    mileages = sample(mileage_pdf(fleet.mileage_log_mu, fleet.mileage_log_sigma), rng, count)
    ev = fleet.ev
    soc_spec = initial_soc_pdf(fleet.soc_initial_mean, fleet.soc_initial_std, ev.soc_min, ev.soc_expected)
    soc_initial = sample(soc_spec, rng, count)

    sessions = []
    for i in range(count):
        target = soc_target(float(soc_initial[i]), float(mileages[i]), ev)
        sessions.append(
            EvSession(
                ev_id=i,
                arrival_hour=float(arrivals[i]),
                mileage=float(mileages[i]),
                soc_initial=float(soc_initial[i]),
                soc_target=target,
                required_energy=(target - float(soc_initial[i])) * ev.battery_capacity,
            )
        )
    return sessions

"""Renewable power models and fleet sampling.

A renewable source's output in one hour is described by a :class:`PdfSpec`:
a density on [0, p_rated] kW plus optional point masses (the wind-power model
has atoms at zero output and at rated output, induced by the turbine power
curve).  :func:`sample_fleet` draws the EV fleet's behaviour, a pure function
of (parameters, count, seed).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import betaln, ndtr, ndtri, xlog1py, xlogy

from mgsched.ev_fleet import HORIZON, EvParams, EvSession, soc_target


class PdfKind(str, Enum):
    BETA_PV = "beta_pv"
    WEIBULL_WT = "weibull_wt"


@dataclass(frozen=True)
class PdfSpec:
    """A renewable power model on [0, ``params["p_rated"]``] kW, with optional
    point masses; ``params`` is a mapping of named real parameters whose
    meaning depends on ``kind``."""

    kind: PdfKind
    params: dict


def beta_pv_pdf(alpha: float, beta: float, p_rated: float) -> PdfSpec:
    """PV power model: Beta-distributed fraction of the rated output."""
    if p_rated < 0.0:
        raise ValueError("rated power must be non-negative")
    if p_rated != 0.0 and (alpha <= 0.0 or beta <= 0.0):
        raise ValueError("Beta shape parameters must be positive")
    # at night (p_rated 0) all mass is at zero output
    return PdfSpec(PdfKind.BETA_PV, {"alpha": alpha, "beta": beta, "p_rated": p_rated})


def weibull_wt_pdf(k: float, c: float, v_in: float, v_rated: float, v_out: float, p_rated: float) -> PdfSpec:
    """Wind power model: Weibull wind speed through a piecewise-linear power curve."""
    if p_rated < 0.0:
        raise ValueError("rated power must be non-negative")
    if p_rated != 0.0:
        if k <= 0.0 or c <= 0.0:
            raise ValueError("Weibull parameters must be positive")
        if not 0.0 <= v_in < v_rated < v_out:
            raise ValueError("wind speeds must satisfy 0 <= cut-in < rated < cut-out")
    return PdfSpec(PdfKind.WEIBULL_WT, {"k": k, "c": c, "v_in": v_in, "v_rated": v_rated, "v_out": v_out,
                                        "p_rated": p_rated})


def weibull_sf(v, k, c):
    """Weibull survival function P(V > v) = exp(-(v / c) ** k) at ``v >= 0``.

    Where ``(v / c) ** k`` overflows to inf, the result is its exact limit 0,
    so the overflow is not reported."""
    with np.errstate(over="ignore"):
        return np.exp(-((np.asarray(v, dtype=float) / c) ** k))


def density(spec: PdfSpec, x):
    """Continuous density of the PV model ``spec`` at ``x`` kW (excluding its
    point mass): the reference that the tests integrate.  A run takes its
    bins from distribution functions in closed form and needs no density."""
    if spec.kind is not PdfKind.BETA_PV:
        raise ValueError(f"no density for pdf kind {spec.kind}")
    x = np.asarray(x, dtype=float)
    p = spec.params
    pr = p["p_rated"]
    if pr == 0.0:
        return np.zeros_like(x)
    # Beta density of the output fraction in closed form; the support's end
    # points carry no mass.
    a, b = p["alpha"], p["beta"]
    u = x / pr
    inside = (u > 0.0) & (u < 1.0)
    u = np.where(inside, u, 0.5)
    log_pdf = xlogy(a - 1.0, u) + xlog1py(b - 1.0, -u) - betaln(a, b)
    return np.where(inside, np.exp(log_pdf), 0.0) / pr


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


def sample_fleet(fleet: FleetParams, count: int, seed: int) -> list[EvSession]:
    """Draw ``count`` EV sessions (arrival, mileage, initial SOC, charge target).

    Deterministic given ``seed``: one generator draws all arrivals, then all
    mileages, then all initial SOCs.  The arrival is normal, wrapped onto the
    day's clock (0, 24]; the mileage is lognormal; the initial SOC is normal
    truncated to [soc_min, soc_expected], so every vehicle still needs charge
    on arrival.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = np.random.default_rng(seed)
    arrivals = np.mod(rng.normal(fleet.arrival_mu, fleet.arrival_sigma, size=count), HORIZON)
    arrivals = np.where(arrivals == 0.0, HORIZON, arrivals)
    mileages = np.exp(rng.normal(fleet.mileage_log_mu, fleet.mileage_log_sigma, size=count))
    ev = fleet.ev
    # Inverse-CDF truncation: exact and seedable; the clip only guards the
    # bounds against floating-point round-off.
    mean, std = fleet.soc_initial_mean, fleet.soc_initial_std
    u = rng.uniform(ndtr((ev.soc_min - mean) / std), ndtr((ev.soc_expected - mean) / std), size=count)
    socs = np.clip(mean + std * ndtri(u), ev.soc_min, ev.soc_expected)

    sessions = []
    for i, (arrival, mileage, soc) in enumerate(zip(arrivals.tolist(), mileages.tolist(), socs.tolist())):
        target = soc_target(soc, mileage, ev)
        sessions.append(EvSession(ev_id=i, arrival_hour=arrival, mileage=mileage, soc_initial=soc,
                                  soc_target=target, required_energy=(target - soc) * ev.battery_capacity))
    return sessions

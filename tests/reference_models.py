"""Reference densities and samplers that the tests check the program against.

A run needs none of them: it samples the fleet in ``sample_fleet`` and takes
PV and wind bins from closed-form distribution functions.
"""

import math

import numpy as np
from scipy.special import ndtr

from mgsched import distributions as dist
from mgsched.ev_fleet import HORIZON

SQRT_2PI = math.sqrt(2.0 * math.pi)


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


def pdf_truncated_normal(x, mean: float, std: float, lo: float, hi: float):
    """Density of the normal (``mean``, ``std``) truncated to [lo, hi]: the
    initial state of charge."""
    x = np.asarray(x, dtype=float)
    z = ndtr((hi - mean) / std) - ndtr((lo - mean) / std)
    raw = np.exp(-((x - mean) ** 2) / (2.0 * std**2)) / (SQRT_2PI * std * z)
    return np.where((x >= lo) & (x <= hi), raw, 0.0)


def power_density(spec: dist.PdfSpec, x):
    """Continuous density of a renewable model at ``x`` kW: the program's own
    for PV, and for wind the Weibull density of the wind speed carried through
    the power curve's linear ramp (the rest of the curve makes the atoms)."""
    if spec.kind is dist.PdfKind.BETA_PV:
        return dist.density(spec, x)
    x = np.asarray(x, dtype=float)
    p = spec.params
    pr = p["p_rated"]
    if pr == 0.0:
        return np.zeros_like(x)
    k, c = p["k"], p["c"]
    dv_dp = (p["v_rated"] - p["v_in"]) / pr
    # points off the support get a stand-in inside it and are zeroed below
    inside = (x > 0.0) & (x < pr)
    v = p["v_in"] + np.where(inside, x, 0.5 * pr) * dv_dp
    f_v = (k / c) * (v / c) ** (k - 1.0) * dist.weibull_sf(v, k, c)
    return np.where(inside, f_v * dv_dp, 0.0)


def sample_power(spec: dist.PdfSpec, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` Monte Carlo draws of a renewable model's output in kW."""
    p = spec.params
    pr = p["p_rated"]
    if pr == 0.0:
        return np.zeros(size)
    if spec.kind is dist.PdfKind.BETA_PV:
        return rng.beta(p["alpha"], p["beta"], size=size) * pr
    v = p["c"] * rng.weibull(p["k"], size=size)
    ramp = np.clip(pr * (v - p["v_in"]) / (p["v_rated"] - p["v_in"]), 0.0, pr)
    return np.where(v >= p["v_out"], 0.0, ramp)

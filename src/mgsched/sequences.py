"""Discrete probability sequences for renewable power.

A continuous power distribution is discretized on a fixed kW grid into a
probability sequence; sequences of independent sources are combined by
convolution (the distribution of the summed output).  The sequence of the
joint output converts the probabilistic spinning-reserve requirement into a
deterministic minimum-reserve value at a given confidence level.

A bin's probability is exact: it is the difference, across the bin, of the
distribution's mass below a power, evaluated once per bin edge.  PV power is
p_rated times a Beta(alpha, beta) fraction, so the mass below p is the
regularized incomplete beta function I_{p / p_rated}(alpha, beta).  Below rated
output, wind power p comes from the wind speed v(p) on the power curve's linear
ramp, so the mass below p is -S(v(p)) up to a constant, with S the Weibull
survival function of the wind speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from mgsched.distributions import PdfKind, PdfSpec, atoms, weibull_sf
# unused here; bench/layers.py counts its calls, and ROADMAP item 4 deletes both
from mgsched.distributions import density  # noqa: F401

SUM_TOL = 1e-9
DISCRETIZATION_TOL = 1e-6
ROUNDOFF = 1e-15  # how far below 0 a probability may fall by round-off alone


class DiscretizationError(ValueError):
    """Probability mass lost in excess of the discretization tolerance."""


@dataclass(frozen=True)
class ProbSequence:
    """Probabilities on the grid 0, q, 2q, ... (index i carries power i*q kW)."""

    step_q: float
    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.step_q <= 0.0:
            raise ValueError(f"step must be positive, got {self.step_q}")
        if self.probs.ndim != 1 or self.probs.size == 0:
            raise ValueError("probs must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.probs)):
            raise ValueError("probabilities must be finite")
        if np.any(self.probs < -ROUNDOFF) or np.any(self.probs > 1.0 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(float(self.probs.sum()) - 1.0) > SUM_TOL:
            raise ValueError(f"probabilities sum to {self.probs.sum()}, not 1")

    def __len__(self):
        return self.probs.size

    @property
    def powers(self) -> np.ndarray:
        return self.step_q * np.arange(self.probs.size)


def discretize(pdf: PdfSpec, p_max: float, q: float) -> ProbSequence:
    """Bin a power distribution onto the grid with step ``q``.

    Bin 0 covers [0, q/2); interior bin i covers [i*q - q/2, i*q + q/2); the
    final bin covers the remainder up to ``p_max``.  Point masses are added to
    the bin containing them.  A non-empty bin [lo, hi) takes its exact mass
    F(hi) - F(lo), where F is the continuous part's mass below a power up to a
    constant: the Beta CDF of p / p_rated for PV, and -S(v(p)) for wind.  Both
    hold p at ``p_rated`` past it, where the power curve is flat.  A bin that
    F steps back across by no more than round-off is empty.  Residual mass
    error below ``1e-6`` is renormalized away; anything larger raises
    :class:`DiscretizationError`.
    """
    if q <= 0.0:
        raise ValueError("step q must be positive")
    if p_max < 0.0:
        raise ValueError("p_max must be non-negative")
    point_masses = atoms(pdf)
    if p_max == 0.0:
        return ProbSequence(q, np.array([1.0]))
    if p_max < q:
        raise ValueError(f"p_max = {p_max} must be at least one step q = {q}")

    n = int(math.ceil(p_max / q))
    edges = np.empty(n + 2)
    edges[0] = 0.0
    edges[1 : n + 1] = (np.arange(1, n + 1) - 0.5) * q
    edges[n + 1] = p_max
    edges = np.minimum(edges, p_max)

    probs = np.zeros(n + 1)
    atom_mass = 0.0
    for loc, weight in point_masses:
        # nearest grid index, so an atom lands in the same bin as samples at
        # its location (the final bin can be empty when p_max < (n - 1/2) q)
        idx = int(np.floor(min(loc, p_max) / q + 0.5))
        probs[min(idx, n)] += weight
        atom_mass += weight
    if atom_mass < 1.0 - 1e-12:
        p = pdf.params
        at = np.minimum(edges, p["p_rated"])
        if pdf.kind is PdfKind.WEIBULL_WT:
            below = -weibull_sf(p["v_in"] + at * ((p["v_rated"] - p["v_in"]) / p["p_rated"]), p["k"], p["c"])
        else:
            below = betainc(p["alpha"], p["beta"], at / p["p_rated"])
        live = np.flatnonzero(edges[1:] > edges[:-1])
        mass = below[live + 1] - below[live]
        # where F is flat, its evaluation can step back by round-off: that bin
        # is empty.  A larger step back fails the range check below.
        probs[live] += np.where((mass < 0.0) & (mass >= -ROUNDOFF), 0.0, mass)

    total = float(probs.sum())
    if abs(total - 1.0) > DISCRETIZATION_TOL:
        raise DiscretizationError(
            f"discretized mass {total} deviates from 1 beyond {DISCRETIZATION_TOL}"
        )
    return ProbSequence(q, probs / total)


def convolve(a: ProbSequence, b: ProbSequence) -> ProbSequence:
    """Sequence of the sum of two independent sequence-valued outputs."""
    if abs(a.step_q - b.step_q) > 1e-12:
        raise ValueError(f"step mismatch: {a.step_q} vs {b.step_q}")
    c = np.convolve(a.probs, b.probs)
    return ProbSequence(a.step_q, c / c.sum())


def expectation(c: ProbSequence) -> float:
    """Expected power of the sequence in kW."""
    return float(np.dot(c.powers, c.probs))


def min_reserve_for_confidence(c: ProbSequence, gamma: float) -> float:
    """Smallest reserve R >= 0 covering the shortfall below the expected output
    with probability at least ``gamma``.

    A reserve R protects against all grid outcomes u*q with R >= E - u*q, so
    the coverage of R = E - u*q is the upper-tail probability from index u.
    The tail is non-increasing in u, hence the minimum reserve corresponds to
    the largest u whose tail still reaches ``gamma``.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"confidence level must lie in (0, 1], got {gamma}")
    tail = np.cumsum(c.probs[::-1])[::-1]
    covered = np.nonzero(tail >= gamma - 1e-12)[0]
    u_star = int(covered[-1]) if covered.size else 0
    return max(0.0, expectation(c) - u_star * c.step_q)

"""Discrete probability sequences for renewable power.

A continuous power distribution is discretized on a fixed kW grid into a
probability sequence; sequences of independent sources are combined by
convolution (the distribution of the summed output).  The sequence of the
joint output converts the probabilistic spinning-reserve requirement into a
deterministic minimum-reserve value at a given confidence level.

Each bin's probability is the integral of the density over the bin, with the
value ``scipy.integrate.quad`` gives, bit for bit.  ``quad`` runs QUADPACK's
QAGS, whose first step applies the 21-point Gauss–Kronrod rule to the whole
interval and stops when the error estimate passes.  That step is computed for
all bins of a distribution at once, from one array call of the density; only
the bins whose estimate fails go on to ``quad`` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from mgsched.distributions import PdfSpec, atoms, density, libm_pow

SUM_TOL = 1e-9
DISCRETIZATION_TOL = 1e-6

# QUADPACK dqk21 (Piessens et al., QUADPACK, 1983).  XGK: the non-negative
# Kronrod abscissae on [-1, 1], largest first; XGK[1], XGK[3], ..., XGK[9] are
# the 10-point Gauss nodes and XGK[10] is the centre.  WGK: their Kronrod
# weights.  WG: the Gauss weights of XGK[1], XGK[3], ..., XGK[9].
XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
])
WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980929765, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# quad's default tolerances (epsabs = epsrel) and QUADPACK's d1mach(4), d1mach(1)
QUAD_EPS = 1.49e-8
EPMACH = float(np.finfo(float).eps)
UFLOW = float(np.finfo(float).tiny)


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
        if np.any(self.probs < -1e-15) or np.any(self.probs > 1.0 + 1e-12):
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
    the bin containing them.  The density is integrated over every non-empty
    bin by :func:`_bin_integrals`, which returns ``integrate.quad``'s values
    bit for bit.  Residual mass error below ``1e-6`` is renormalized away;
    anything larger raises :class:`DiscretizationError`.
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
        live = np.flatnonzero(edges[1:] > edges[:-1])
        probs[live] += _bin_integrals(pdf, edges[live], edges[live + 1])

    total = float(probs.sum())
    if abs(total - 1.0) > DISCRETIZATION_TOL:
        raise DiscretizationError(
            f"discretized mass {total} deviates from 1 beyond {DISCRETIZATION_TOL}"
        )
    return ProbSequence(q, probs / total)


def _bin_integrals(pdf: PdfSpec, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integrals of the density over the intervals [lo, hi] (``lo < hi``), as
    ``integrate.quad(..., limit=200)`` with its default tolerances returns them.

    QAGS's first step is QUADPACK's ``dqk21`` on the whole interval followed
    by the test for an early exit; both are repeated here in QUADPACK's
    operation order, vectorized over the intervals.  An interval that QAGS
    would go on to subdivide is handed to ``quad``.
    """
    centr = 0.5 * (lo + hi)
    hlgth = 0.5 * (hi - lo)
    absc = hlgth[:, None] * XGK[:10]
    f = density(pdf, np.hstack([centr[:, None] - absc, centr[:, None] + absc, centr[:, None]]))
    fv1, fv2, fc = f[:, :10], f[:, 10:20], f[:, 20]

    # dqk21: the Gauss nodes' terms are summed first, then the others
    resg = 0.0
    resk = WGK[10] * fc
    resabs = np.abs(resk)
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        fsum = fv1[:, j] + fv2[:, j]
        if j % 2:
            resg = resg + WG[j // 2] * fsum
        resk = resk + WGK[j] * fsum
        resabs = resabs + WGK[j] * (np.abs(fv1[:, j]) + np.abs(fv2[:, j]))
    reskh = resk * 0.5
    resasc = WGK[10] * np.abs(fc - reskh)
    for j in range(10):
        resasc = resasc + WGK[j] * (np.abs(fv1[:, j] - reskh) + np.abs(fv2[:, j] - reskh))
    result = resk * hlgth
    resabs = resabs * hlgth  # hlgth > 0, so it is its own absolute value
    resasc = resasc * hlgth
    abserr = np.abs((resk - resg) * hlgth)
    scaled = (resasc != 0.0) & (abserr != 0.0)
    # min(1, r**1.5) with r capped at 1 first, which changes no value and
    # keeps pow from overflowing
    ratio = np.minimum(200.0 * abserr[scaled] / resasc[scaled], 1.0)
    abserr[scaled] = resasc[scaled] * libm_pow(ratio, 1.5)
    abserr = np.where(resabs > UFLOW / (50.0 * EPMACH), np.maximum(EPMACH * 50.0 * resabs, abserr), abserr)

    # dqagse: exit after the first step on round-off (ier = 2), on an error
    # within the bound that is not just the spread (resasc), or on no error
    errbnd = np.maximum(QUAD_EPS, QUAD_EPS * np.abs(result))
    roundoff = (abserr <= 100.0 * EPMACH * resabs) & (abserr > errbnd)
    done = roundoff | ((abserr <= errbnd) & (abserr != resasc)) | (abserr == 0.0)
    for i in np.flatnonzero(~done):
        result[i], _ = integrate.quad(lambda x: float(density(pdf, x)), lo[i], hi[i], limit=200)
    return result


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

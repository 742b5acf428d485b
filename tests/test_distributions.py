"""Probability-model tests: closed-form values, quadrature mass checks and
histogram agreement of the samplers with their densities."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.stats import beta as beta_dist
from scipy.stats import chisquare

from mgsched import distributions as dist
from mgsched.ev_fleet import EvParams


def test_arrival_density_at_mean():
    # second branch, exponent vanishes
    expected = 1.0 / (math.sqrt(2.0 * math.pi) * 3.41)
    assert dist.pdf_arrival(17.47, 17.47, 3.41) == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(0.11700, abs=1e-5)


def test_arrival_density_continuous_at_branch_boundary():
    mu, sigma = 17.47, 3.41
    boundary = mu - 12.0
    below = dist.pdf_arrival(boundary - 1e-9, mu, sigma)
    at = dist.pdf_arrival(boundary, mu, sigma)
    above = dist.pdf_arrival(boundary + 1e-9, mu, sigma)
    assert at == pytest.approx(below, rel=1e-6)
    assert at == pytest.approx(above, rel=1e-6)


def test_arrival_density_integrates_to_one():
    total, _ = integrate.quad(lambda t: dist.pdf_arrival(t, 17.47, 3.41), 1e-12, 24.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("t", [0.0, -1.0, 24.5])
def test_arrival_rejects_bad_time(t):
    with pytest.raises(ValueError):
        dist.pdf_arrival(t, 17.47, 3.41)


def test_arrival_rejects_bad_sigma():
    with pytest.raises(ValueError):
        dist.pdf_arrival(12.0, 17.47, 0.0)


def test_mileage_density_at_log_mean():
    mu, sigma = 3.2, 0.88
    m = math.exp(mu)
    expected = 1.0 / (math.sqrt(2.0 * math.pi) * sigma * m)
    assert dist.pdf_mileage(m, mu, sigma) == pytest.approx(expected, rel=1e-12)


def test_mileage_density_integrates_to_one():
    total, _ = integrate.quad(lambda m: dist.pdf_mileage(m, 3.2, 0.88), 1e-9, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_mileage_mode_location():
    mu, sigma = 3.2, 0.88
    grid = np.linspace(1.0, 60.0, 200_000)
    dens = dist.pdf_mileage(grid, mu, sigma)
    assert grid[np.argmax(dens)] == pytest.approx(math.exp(mu - sigma**2), rel=1e-3)


def test_mileage_rejects_nonpositive():
    with pytest.raises(ValueError):
        dist.pdf_mileage(0.0, 3.2, 0.88)


@pytest.mark.parametrize(
    "spec",
    [
        dist.beta_pv_pdf(2.6, 2.4, 38.0),
        dist.weibull_wt_pdf(2.1, 7.0, 3.0, 12.0, 22.0, 30.0),
        dist.arrival_pdf(17.47, 3.41),
        dist.mileage_pdf(3.623091, 0.362735),
        dist.initial_soc_pdf(0.5, 0.1, 0.2, 0.9),
    ],
    ids=["beta_pv", "weibull_wt", "arrival", "mileage", "initial_soc"],
)
def test_total_mass_is_one(spec):
    # density integral over the support plus the point masses
    lo, hi = spec.support
    if spec.kind is dist.PdfKind.MILEAGE:
        hi = np.inf
    integral, _ = integrate.quad(lambda x: float(dist.density(spec, x)), lo, hi, limit=200)
    mass = integral + sum(weight for _, weight in dist.atoms(spec))
    assert mass == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize(
    "alpha, beta", [(0.6, 0.8), (0.6, 1.0), (1.0, 1.0), (1.0, 3.5), (2.6, 2.4), (4.0, 0.7), (2.6, 1.0)]
)
def test_beta_density_matches_scipy_stats(alpha, beta):
    spec = dist.beta_pv_pdf(alpha, beta, 38.0)
    x = np.linspace(0.0, 38.0, 2001)[1:-1]
    reference = beta_dist.pdf(x / 38.0, alpha, beta) / 38.0
    assert dist.density(spec, x) == pytest.approx(reference, rel=1e-12)
    scalar = beta_dist.pdf(13.0 / 38.0, alpha, beta) / 38.0  # as quad calls it
    assert float(dist.density(spec, 13.0)) == pytest.approx(scalar, rel=1e-12)
    outside = np.array([-5.0, -1e-9, 38.0 + 1e-9, 50.0])
    assert np.all(dist.density(spec, outside) == 0.0)


def test_density_nonnegative_on_support():
    spec = dist.weibull_wt_pdf(2.1, 7.0, 3.0, 12.0, 22.0, 30.0)
    xs = np.linspace(0.0, 30.0, 5000)
    assert np.all(dist.density(spec, xs) >= 0.0)


@pytest.mark.parametrize("spec", [dist.beta_pv_pdf(2.6, 2.4, 38.0), dist.beta_pv_pdf(0.9, 1.7, 13.0)])
def test_density_on_array_matches_pointwise_bitwise(spec):
    # discretize evaluates the PV density on arrays; quad does so one point at
    # a time.  Wind bins are exact, so no quadrature reads the wind density.
    xs = np.linspace(-1.0, spec.support[1] + 1.0, 20000)
    pointwise = np.array([float(dist.density(spec, x)) for x in xs])
    assert dist.density(spec, xs).tobytes() == pointwise.tobytes()


FLEET = dist.FleetParams(
    ev=EvParams(
        battery_capacity=19.0,
        rated_power=7.5,
        charge_efficiency=0.95,
        e_per_100km=15.0,
        soc_min=0.2,
        soc_max=1.0,
        soc_expected=0.9,
    ),
    arrival_mu=17.47,
    arrival_sigma=3.41,
    mileage_log_mu=3.623091,
    mileage_log_sigma=0.362735,
)


def test_sample_fleet_deterministic():
    a = dist.sample_fleet(FLEET, 20, seed=42)
    b = dist.sample_fleet(FLEET, 20, seed=42)
    assert a == b


def test_sample_fleet_soc_within_bounds():
    sessions = dist.sample_fleet(FLEET, 500, seed=7)
    socs = np.array([s.soc_initial for s in sessions])
    assert np.all(socs >= 0.2) and np.all(socs <= 0.9)
    targets = np.array([s.soc_target for s in sessions])
    assert np.all(targets >= 0.9 - 1e-12) and np.all(targets <= 1.0 + 1e-12)


def test_sample_fleet_rejects_zero_count():
    with pytest.raises(ValueError):
        dist.sample_fleet(FLEET, 0, seed=1)


def test_arrival_circular_mean_matches_parameter():
    rng = np.random.default_rng(123)
    t = dist.sample(dist.arrival_pdf(17.47, 3.41), rng, 100_000)
    angles = 2.0 * np.pi * t / 24.0
    mean_angle = np.angle(np.mean(np.exp(1j * angles)))
    mean_hour = (mean_angle * 24.0 / (2.0 * np.pi)) % 24.0
    assert mean_hour == pytest.approx(17.47, abs=0.1)


def _chi2_pvalue(spec, rng, n=100_000, bins=40):
    """Histogram of n samples against per-bin density integrals."""
    lo, hi = spec.support
    if spec.kind is dist.PdfKind.MILEAGE:
        hi = float(np.quantile(dist.sample(spec, np.random.default_rng(0), 50_000), 0.999))
    edges = np.linspace(lo, hi, bins + 1)
    samples = dist.sample(spec, rng, n)
    atom_info = dist.atoms(spec)
    observed, expected = [], []
    for mass_loc, mass in atom_info:
        hits = int(np.sum(np.abs(samples - mass_loc) < 1e-12))
        observed.append(hits)
        expected.append(mass * n)
    continuous = samples
    for loc, _ in atom_info:
        continuous = continuous[np.abs(continuous - loc) >= 1e-12]
    counts, _ = np.histogram(continuous, bins=edges)
    for i in range(bins):
        p, _ = integrate.quad(lambda x: float(dist.density(spec, x)), edges[i], edges[i + 1], limit=100)
        observed.append(counts[i])
        expected.append(p * n)
    observed = np.array(observed, dtype=float)
    expected = np.array(expected, dtype=float)
    keep = expected > 5.0
    # account for any off-support tail mass dropped by the kept bins
    scale = observed[keep].sum() / expected[keep].sum()
    return chisquare(observed[keep], expected[keep] * scale).pvalue


@pytest.mark.parametrize(
    "spec",
    [
        dist.beta_pv_pdf(2.6, 2.4, 38.0),
        dist.weibull_wt_pdf(2.1, 7.0, 3.0, 12.0, 22.0, 30.0),
        dist.arrival_pdf(17.47, 3.41),
        dist.mileage_pdf(3.623091, 0.362735),
        dist.initial_soc_pdf(0.5, 0.1, 0.2, 0.9),
    ],
    ids=["beta_pv", "weibull_wt", "arrival", "mileage", "initial_soc"],
)
def test_samplers_match_density(spec):
    p = _chi2_pvalue(spec, np.random.default_rng(2024))
    assert p > 0.01

"""Probability-model tests: closed-form values, quadrature mass checks and
histogram agreement of the fleet's and the reference samplers' draws with
their densities."""

import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr, ndtri
from scipy.stats import beta as beta_dist
from scipy.stats import chisquare

import reference_models as ref

from mgsched import distributions as dist
from mgsched.ev_fleet import EvParams


def test_arrival_density_at_mean():
    # second branch, exponent vanishes
    expected = 1.0 / (math.sqrt(2.0 * math.pi) * 3.41)
    assert ref.pdf_arrival(17.47, 17.47, 3.41) == pytest.approx(expected, rel=1e-10)
    assert expected == pytest.approx(0.11700, abs=1e-5)


def test_arrival_density_continuous_at_branch_boundary():
    mu, sigma = 17.47, 3.41
    boundary = mu - 12.0
    below = ref.pdf_arrival(boundary - 1e-9, mu, sigma)
    at = ref.pdf_arrival(boundary, mu, sigma)
    above = ref.pdf_arrival(boundary + 1e-9, mu, sigma)
    assert at == pytest.approx(below, rel=1e-6)
    assert at == pytest.approx(above, rel=1e-6)


def test_arrival_density_integrates_to_one():
    total, _ = integrate.quad(lambda t: ref.pdf_arrival(t, 17.47, 3.41), 1e-12, 24.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-4)


@pytest.mark.parametrize("t", [0.0, -1.0, 24.5])
def test_arrival_rejects_bad_time(t):
    with pytest.raises(ValueError):
        ref.pdf_arrival(t, 17.47, 3.41)


def test_arrival_rejects_bad_sigma():
    with pytest.raises(ValueError):
        ref.pdf_arrival(12.0, 17.47, 0.0)


def test_mileage_density_at_log_mean():
    mu, sigma = 3.2, 0.88
    m = math.exp(mu)
    expected = 1.0 / (math.sqrt(2.0 * math.pi) * sigma * m)
    assert ref.pdf_mileage(m, mu, sigma) == pytest.approx(expected, rel=1e-12)


def test_mileage_density_integrates_to_one():
    total, _ = integrate.quad(lambda m: ref.pdf_mileage(m, 3.2, 0.88), 1e-9, np.inf, limit=200)
    assert total == pytest.approx(1.0, abs=1e-4)


def test_mileage_mode_location():
    mu, sigma = 3.2, 0.88
    grid = np.linspace(1.0, 60.0, 200_000)
    dens = ref.pdf_mileage(grid, mu, sigma)
    assert grid[np.argmax(dens)] == pytest.approx(math.exp(mu - sigma**2), rel=1e-3)


def test_mileage_rejects_nonpositive():
    with pytest.raises(ValueError):
        ref.pdf_mileage(0.0, 3.2, 0.88)


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


PV = dist.beta_pv_pdf(2.6, 2.4, 38.0)
WIND = dist.weibull_wt_pdf(2.1, 7.0, 3.0, 12.0, 22.0, 30.0)
RENEWABLES = {"beta_pv": PV, "weibull_wt": WIND}

# Density and support of each modelled quantity: the renewable outputs, and
# the arrival, mileage and initial SOC of FLEET's vehicles.
MODELS = {
    "beta_pv": (lambda x: ref.power_density(PV, x), 0.0, 38.0),
    "weibull_wt": (lambda x: ref.power_density(WIND, x), 0.0, 30.0),
    "arrival": (lambda t: ref.pdf_arrival(t, 17.47, 3.41), 0.0, 24.0),
    "mileage": (lambda m: ref.pdf_mileage(m, 3.623091, 0.362735), 0.0, np.inf),
    "initial_soc": (lambda s: ref.pdf_truncated_normal(s, 0.5, 0.1, 0.2, 0.9), 0.2, 0.9),
}
FLEET_FIELDS = {"arrival": "arrival_hour", "mileage": "mileage", "initial_soc": "soc_initial"}


def _point_masses(model):
    return dist.atoms(RENEWABLES[model]) if model in RENEWABLES else []


@pytest.mark.parametrize("model", list(MODELS))
def test_total_mass_is_one(model):
    # density integral over the support plus the point masses
    pdf, lo, hi = MODELS[model]
    integral, _ = integrate.quad(lambda x: float(pdf(x)), lo, hi, limit=200)
    mass = integral + sum(weight for _, weight in _point_masses(model))
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
    xs = np.linspace(0.0, 30.0, 5000)
    assert np.all(ref.power_density(WIND, xs) >= 0.0)


@pytest.mark.parametrize("spec", [dist.beta_pv_pdf(2.6, 2.4, 38.0), dist.beta_pv_pdf(0.9, 1.7, 13.0)])
def test_density_on_array_matches_pointwise_bitwise(spec):
    # discretize evaluates the PV density on arrays; quad does so one point at
    # a time.  Wind bins are exact, so no quadrature reads the wind density.
    xs = np.linspace(-1.0, spec.params["p_rated"] + 1.0, 20000)
    pointwise = np.array([float(dist.density(spec, x)) for x in xs])
    assert dist.density(spec, xs).tobytes() == pointwise.tobytes()


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


def test_sample_fleet_draws_arrivals_then_mileages_then_socs():
    # one generator: all arrival normals, then all mileage normals, then all
    # uniforms of the initial SOC's inverse-CDF truncation
    n = 200
    rng = np.random.default_rng(31)
    arrival = np.mod(rng.normal(17.47, 3.41, n), 24)
    arrival[arrival == 0.0] = 24.0
    mileage = np.exp(rng.normal(3.623091, 0.362735, n))
    u = rng.uniform(ndtr((0.2 - 0.5) / 0.1), ndtr((0.9 - 0.5) / 0.1), n)
    soc = np.clip(0.5 + 0.1 * ndtri(u), 0.2, 0.9)
    got = np.array([(s.arrival_hour, s.mileage, s.soc_initial) for s in dist.sample_fleet(FLEET, n, seed=31)])
    assert got.tobytes() == np.column_stack([arrival, mileage, soc]).tobytes()


def test_arrival_circular_mean_matches_parameter():
    t = np.array([s.arrival_hour for s in dist.sample_fleet(FLEET, 100_000, seed=123)])
    angles = 2.0 * np.pi * t / 24.0
    mean_angle = np.angle(np.mean(np.exp(1j * angles)))
    mean_hour = (mean_angle * 24.0 / (2.0 * np.pi)) % 24.0
    assert mean_hour == pytest.approx(17.47, abs=0.1)


def _chi2_pvalue(samples, pdf, lo, hi, point_masses, bins=40):
    """Histogram of the samples against per-bin density integrals."""
    n = len(samples)
    edges = np.linspace(lo, hi, bins + 1)
    observed, expected = [], []
    for mass_loc, mass in point_masses:
        hits = int(np.sum(np.abs(samples - mass_loc) < 1e-12))
        observed.append(hits)
        expected.append(mass * n)
    continuous = samples
    for loc, _ in point_masses:
        continuous = continuous[np.abs(continuous - loc) >= 1e-12]
    counts, _ = np.histogram(continuous, bins=edges)
    for i in range(bins):
        p, _ = integrate.quad(lambda x: float(pdf(x)), edges[i], edges[i + 1], limit=100)
        observed.append(counts[i])
        expected.append(p * n)
    observed = np.array(observed, dtype=float)
    expected = np.array(expected, dtype=float)
    keep = expected > 5.0
    # account for any off-support tail mass dropped by the kept bins
    scale = observed[keep].sum() / expected[keep].sum()
    return chisquare(observed[keep], expected[keep] * scale).pvalue


@pytest.fixture(scope="module")
def fleet_draws():
    """The arrivals, mileages and initial SOCs that ``sample_fleet`` draws
    for 100 000 vehicles of FLEET."""
    sessions = dist.sample_fleet(FLEET, 100_000, seed=2024)
    return {model: np.array([getattr(s, name) for s in sessions]) for model, name in FLEET_FIELDS.items()}


@pytest.mark.parametrize("model", list(MODELS))
def test_samplers_match_density(model, fleet_draws):
    pdf, lo, hi = MODELS[model]
    if model in FLEET_FIELDS:
        samples = fleet_draws[model]
    else:
        samples = ref.sample_power(RENEWABLES[model], np.random.default_rng(2024), 100_000)
    if model == "mileage":
        hi = math.exp(3.623091 + 0.362735 * ndtri(0.999))  # the 0.999 quantile
    assert _chi2_pvalue(samples, pdf, lo, hi, _point_masses(model)) > 0.01

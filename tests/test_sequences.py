"""Probability-sequence tests: the closed-form bins against 40-digit and
per-bin ``quad`` references, extreme distribution shapes, convolution against
a Monte-Carlo oracle, and the reserve transform against a brute-force scan."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import betainc

import reference_models as ref

from mgsched import cli
from mgsched import scenario as sc
from mgsched.distributions import PdfKind, atoms, beta_pv_pdf, weibull_wt_pdf
from mgsched.sequences import (
    SUM_TOL,
    ProbSequence,
    convolve,
    discretize,
    expectation,
    min_reserve_for_confidence,
)


def test_uniform_discretization_bins():
    # Beta(1,1) scaled to [0, 10] is the uniform density
    seq = discretize(beta_pv_pdf(1.0, 1.0, 10.0), 10.0, 2.5)
    assert seq.probs == pytest.approx([0.125, 0.25, 0.25, 0.25, 0.125], abs=1e-9)


def test_point_mass_discretization():
    seq = discretize(beta_pv_pdf(2.0, 2.0, 0.0), 0.0, 2.5)
    assert seq.probs.tolist() == [1.0]


@pytest.mark.parametrize("alpha,beta,p_rated", [(2.6, 2.4, 38.0), (0.9, 1.7, 13.0), (5.0, 1.2, 25.0)])
def test_discretization_mass_conserved(alpha, beta, p_rated):
    seq = discretize(beta_pv_pdf(alpha, beta, p_rated), p_rated, 2.5)
    assert float(seq.probs.sum()) == pytest.approx(1.0, abs=1e-9)
    assert len(seq) == int(np.ceil(p_rated / 2.5)) + 1


def test_discretization_places_wind_atoms():
    spec = weibull_wt_pdf(2.1, 7.0, 3.0, 12.0, 22.0, 30.0)
    seq = discretize(spec, 30.0, 2.5)
    at_zero = 1.0 - np.exp(-((3.0 / 7.0) ** 2.1)) + np.exp(-((22.0 / 7.0) ** 2.1))
    at_rated = np.exp(-((12.0 / 7.0) ** 2.1)) - np.exp(-((22.0 / 7.0) ** 2.1))
    assert seq.probs[0] >= at_zero - 1e-9
    assert seq.probs[-1] >= at_rated - 1e-9


def test_wind_below_cut_in_puts_all_mass_at_zero():
    # (v / c) ** k overflows, so every wind speed lies below the cut-in
    seq = discretize(weibull_wt_pdf(2.1, 1e-200, 3.0, 12.0, 22.0, 30.0), 30.0, 2.5)
    assert seq.probs[0] == 1.0
    assert not seq.probs[1:].any()


def test_wind_grid_beyond_rated_output_adds_no_mass():
    # above the rated output the power curve is flat: no wind speed maps there
    spec = weibull_wt_pdf(2.1, 7.0, 3.0, 12.0, 22.0, 30.0)
    wide = discretize(spec, 40.0, 2.5).probs
    assert wide[:13] == pytest.approx(discretize(spec, 30.0, 2.5).probs, rel=1e-15, abs=0.0)
    assert not wide[13:].any()


def test_pv_grid_beyond_rated_output_adds_no_mass():
    # the fraction p / p_rated is held at 1 past the rated output
    spec = beta_pv_pdf(2.6, 2.4, 38.0)
    wide = discretize(spec, 48.0, 2.5).probs
    assert wide[:17] == pytest.approx(discretize(spec, 38.0, 2.5).probs, rel=1e-15, abs=0.0)
    assert not wide[17:].any()


def test_discretization_rejects_lost_mass():
    # binning a 38 kW panel onto a 20 kW grid drops real probability mass
    from mgsched.sequences import DiscretizationError

    with pytest.raises(DiscretizationError):
        discretize(beta_pv_pdf(2.6, 2.4, 38.0), 20.0, 2.5)


def _quad_masses(pdf, edges):
    """The integral of the density over each bin, one ``integrate.quad`` call
    per non-empty bin."""
    return [integrate.quad(lambda x: float(ref.power_density(pdf, x)), lo, hi, limit=200)[0] if hi > lo else 0.0
            for lo, hi in zip(edges[:-1], edges[1:])]


def _wind_masses(pdf, edges):
    """The exact mass of each wind bin [lo, hi): S(v(lo)) - S(v(hi)), with S
    the Weibull survival function exp(-(v / c) ** k) and v(p) the wind speed
    at which the power curve's ramp gives p kW."""
    p = pdf.params
    speed = p["v_in"] + np.minimum(edges, p["p_rated"]) * ((p["v_rated"] - p["v_in"]) / p["p_rated"])
    with np.errstate(over="ignore"):
        survival = np.exp(-((speed / p["c"]) ** p["k"]))
    return survival[:-1] - survival[1:]


def _beta_masses(pdf, edges):
    """The exact mass of each PV bin [lo, hi): I(hi) - I(lo), with I the
    regularized incomplete beta function of the output fraction, held at 1
    past the rated output."""
    p = pdf.params
    below = betainc(p["alpha"], p["beta"], np.minimum(edges / p["p_rated"], 1.0))
    return below[1:] - below[:-1]


def _mpmath_beta_masses(pdf, edges):
    """The masses of ``_beta_masses`` from a 40-digit ``mpmath.betainc`` of
    the exact output fraction, each rounded once."""
    p = pdf.params
    with mpmath.workdps(40):
        below = [mpmath.betainc(p["alpha"], p["beta"], 0, min(mpmath.mpf(e) / p["p_rated"], 1), regularized=True)
                 for e in edges.tolist()]
        return np.array([float(hi - lo) for lo, hi in zip(below[:-1], below[1:])])


def _discretize_reference(pdf, p_max, q, bin_masses):
    """``discretize`` written bin by bin, with the masses ``bin_masses`` gives:
    the renormalized bins and the total they were divided by."""
    if p_max == 0.0:
        return np.array([1.0]), 1.0
    n = int(math.ceil(p_max / q))
    edges = np.empty(n + 2)
    edges[0] = 0.0
    edges[1 : n + 1] = (np.arange(1, n + 1) - 0.5) * q
    edges[n + 1] = p_max
    edges = np.minimum(edges, p_max)

    probs = np.zeros(n + 1)
    atom_mass = 0.0
    for loc, weight in atoms(pdf):
        idx = int(np.floor(min(loc, p_max) / q + 0.5))
        probs[min(idx, n)] += weight
        atom_mass += weight
    if atom_mass < 1.0 - 1e-12:
        masses = bin_masses(pdf, edges)
        for i in range(n + 1):
            if edges[i + 1] > edges[i]:
                probs[i] += masses[i]
    total = float(probs.sum())
    return probs / total, total


def _renewable_specs(doc, q=None):
    """(spec, p_max, q) of every hour's PV and wind model of ``doc``, on the
    grid of its ``algorithm.step_q`` unless ``q`` is given."""
    q = doc["algorithm"]["step_q"] if q is None else q
    pv, wt = doc["pv"], doc["wt"]
    for h in range(24):
        yield beta_pv_pdf(pv["alpha"][h], pv["beta"][h], pv["p_rated"][h]), pv["p_rated"][h], q
        wind = weibull_wt_pdf(wt["k"][h], wt["c"][h], wt["v_in"], wt["v_rated"], wt["v_out"], wt["p_rated"][h])
        yield wind, wt["p_rated"][h], q


ORACLE_CASES = {
    "baseline": lambda scaled: _renewable_specs(scaled(20)),
    "large_fleet": lambda scaled: _renewable_specs(scaled(150)),
    "step_0.1": lambda scaled: _renewable_specs(scaled(20), 0.1),
    "shapes": lambda scaled: [
        (beta_pv_pdf(1.0, 1.0, 10.0), 10.0, 2.5),
        # nearly uniform: quad's first error estimate on the end bin is all
        # spread, so it subdivides there although it is within the bound
        (beta_pv_pdf(1.0 + 1e-9, 1.0, 10.0), 10.0, 2.5),
        (beta_pv_pdf(2.6, 2.4, 38.0), 38.0, 2.5),
        (beta_pv_pdf(0.9, 1.7, 13.0), 13.0, 2.5),  # singular at zero output
        (beta_pv_pdf(5.0, 1.2, 25.0), 25.0, 2.5),
        (weibull_wt_pdf(2.1, 7.0, 3.0, 12.0, 22.0, 30.0), 30.0, 2.5),
    ],
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_bins_match_per_bin_quad_bitwise(case, baseline_scaled):
    # Every bin is exact: it is its closed form bit for bit, and agrees with
    # quad to quad's accuracy.  PV bins also lie within a few ulps of a
    # 40-digit reference, and wind bins hold with the atoms all of the mass.
    for spec, p_max, q in ORACLE_CASES[case](baseline_scaled):
        got = discretize(spec, p_max, q).probs
        by_quad, _ = _discretize_reference(spec, p_max, q, _quad_masses)
        if spec.kind is PdfKind.WEIBULL_WT:
            want, total = _discretize_reference(spec, p_max, q, _wind_masses)
            assert abs(total - 1.0) <= 1e-12, (spec, q)
            assert np.abs(got - by_quad).max() <= 1e-13, (spec, q)
        else:
            want, _ = _discretize_reference(spec, p_max, q, _beta_masses)
            by_mpmath, _ = _discretize_reference(spec, p_max, q, _mpmath_beta_masses)
            assert np.abs(got - by_mpmath).max() <= 2e-15, (spec, q)
            assert np.abs(got - by_quad).max() <= 5e-11, (spec, q)  # quad's own error, up to 2.2e-11
        assert got.tobytes() == want.tobytes(), (spec, q)


def test_prepare_imports_neither_scipy_integrate_nor_stats():
    # the bins are closed forms, so a run loads no quadrature and no
    # distribution objects
    src = Path(cli.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from mgsched import cli, scenario as sc\n"
        "sc.prepare(sc.load_scenario(sc.baseline_scenario_path()))\n"
        "print(sorted(m for m in sys.modules if m.startswith(('scipy.integrate', 'scipy.stats'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def _log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


NOON = 12  # the baseline's sunniest hour: 38 kW of PV, 30 kW of wind


def _noon_specs(alpha, beta, k, c):
    """The baseline's noon PV and wind models with the given shapes, each
    with its source name, rated output and step."""
    doc = sc.load_scenario(sc.baseline_scenario_path())
    pv_rated, wt, q = doc["pv"]["p_rated"][NOON], doc["wt"], doc["algorithm"]["step_q"]
    wind = weibull_wt_pdf(k, c, wt["v_in"], wt["v_rated"], wt["v_out"], wt["p_rated"][NOON])
    return [(f"pv[{NOON}]", beta_pv_pdf(alpha, beta, pv_rated), pv_rated, q),
            (f"wt[{NOON}]", wind, wt["p_rated"][NOON], q)]


# 1000 examples take about 2 s.  The shapes span the whole positive float
# range, so (v / c) ** k overflows or underflows, and the Beta density
# x ** (alpha - 1) * (1 - x) ** (beta - 1) / B(alpha, beta) meets inf * 0.
# With both Beta shapes below about 1e-150, scipy's betainc can be wrong and
# not monotone: the example's CDF reads 1.6e-3 up to 0.6 of the rated output
# and about 1e-229 from 0.7 to 0.9.  Such a scenario must fail by field, as
# it does; it must never pass silently.
@settings(max_examples=1000, deadline=None)
@given(alpha=_log_uniform(-300, 300), beta=_log_uniform(-300, 300), k=_log_uniform(-300, 300),
       c=_log_uniform(-300, 300))
@example(alpha=1.10e-222, beta=1.81e-225, k=2.1, c=6.0)
def test_extreme_shapes_give_bins_or_fail_by_field(alpha, beta, k, c):
    for source, spec, p_rated, q in _noon_specs(alpha, beta, k, c):
        try:
            probs = sc._discretized(spec, p_rated, q, source).probs
        except sc.ScenarioError as exc:
            message = str(exc)
            assert message.startswith(f"{source} cannot be discretized: ") and "\n" not in message
        else:
            assert np.all(np.isfinite(probs)) and probs.min() >= 0.0, (source, probs)
            assert abs(probs.sum() - 1.0) <= SUM_TOL, (source, probs)


def test_cdf_round_off_leaves_a_bin_empty():
    # betainc steps back by one ulp near 1 on this grid; that bin holds no mass
    spec = beta_pv_pdf(1.961550223223783, 33.19745814461095, 38.0)
    edges = np.minimum(np.r_[0.0, (np.arange(1, 382) - 0.5) * 0.1, 38.0], 38.0)
    assert _beta_masses(spec, edges).min() < 0.0
    probs = discretize(spec, 38.0, 0.1).probs
    assert probs.min() == 0.0
    assert np.abs(probs - _discretize_reference(spec, 38.0, 0.1, _mpmath_beta_masses)[0]).max() <= 1e-15


def test_wrong_betainc_at_tiny_shapes_fails_by_field():
    # scipy's betainc is not monotone at these shapes, so a bin is negative
    ((source, spec, p_rated, q), _) = _noon_specs(1.10e-222, 1.81e-225, 2.1, 6.0)
    with pytest.raises(sc.ScenarioError, match=r"^pv\[12\] cannot be discretized: probabilities must lie in \[0, 1\]$"):
        sc._discretized(spec, p_rated, q, source)


# 200 examples take about 2 s.
@settings(max_examples=200, deadline=None)
@given(alpha=_log_uniform(-2, 3), beta=_log_uniform(-2, 3))
def test_moderate_beta_shapes_match_mpmath(alpha, beta):
    ((_, spec, p_rated, q), _) = _noon_specs(alpha, beta, 2.1, 6.0)
    want, _ = _discretize_reference(spec, p_rated, q, _mpmath_beta_masses)
    assert np.abs(discretize(spec, p_rated, q).probs - want).max() <= 1e-13


def test_sequence_invariants_enforced():
    with pytest.raises(ValueError):
        ProbSequence(2.5, np.array([0.5, 0.4]))  # does not sum to 1
    with pytest.raises(ValueError):
        ProbSequence(0.0, np.array([1.0]))
    with pytest.raises(ValueError):
        ProbSequence(2.5, np.array([1.5, -0.5]))
    with pytest.raises(ValueError, match="finite"):
        ProbSequence(2.5, np.array([1.0, np.nan, 0.0]))  # the range and sum checks are false for NaN


def test_convolution_two_term_expansion():
    a = ProbSequence(2.5, np.array([0.5, 0.5]))
    b = ProbSequence(2.5, np.array([0.3, 0.7]))
    c = convolve(a, b)
    assert c.probs == pytest.approx([0.15, 0.50, 0.35], abs=1e-15)


def test_convolution_identity_element():
    ident = ProbSequence(2.5, np.array([1.0]))
    b = ProbSequence(2.5, np.array([0.2, 0.5, 0.3]))
    assert convolve(ident, b).probs == pytest.approx(b.probs, abs=1e-15)


def test_convolution_step_mismatch():
    with pytest.raises(ValueError):
        convolve(ProbSequence(2.5, np.array([1.0])), ProbSequence(1.0, np.array([1.0])))


def _random_sequence(rng, n):
    p = rng.uniform(0.05, 1.0, n)
    return ProbSequence(2.5, p / p.sum())


def test_convolution_matches_monte_carlo():
    rng = np.random.default_rng(11)
    a = _random_sequence(rng, 40)
    b = _random_sequence(rng, 40)
    c = convolve(a, b)
    n = 1_000_000
    ia = rng.choice(len(a), size=n, p=a.probs)
    ib = rng.choice(len(b), size=n, p=b.probs)
    counts = np.bincount(ia + ib, minlength=len(c)) / n
    tv = 0.5 * np.abs(counts - c.probs).sum()
    assert tv <= 0.005


def test_convolution_commutative_associative():
    rng = np.random.default_rng(5)
    a, b, c = (_random_sequence(rng, n) for n in (7, 13, 9))
    ab = convolve(a, b)
    assert convolve(b, a).probs == pytest.approx(ab.probs, abs=1e-12)
    left = convolve(ab, c).probs
    right = convolve(a, convolve(b, c)).probs
    assert left == pytest.approx(right, abs=1e-12)


def test_expectation_hand_value():
    c = ProbSequence(2.5, np.array([0.15, 0.50, 0.35]))
    assert expectation(c) == pytest.approx(3.0, abs=1e-12)


def test_expectation_point_mass():
    probs = np.zeros(5)
    probs[3] = 1.0
    assert expectation(ProbSequence(2.5, probs)) == pytest.approx(7.5)


def test_expectation_linear_under_convolution():
    rng = np.random.default_rng(17)
    for _ in range(20):
        a = _random_sequence(rng, int(rng.integers(2, 30)))
        b = _random_sequence(rng, int(rng.integers(2, 30)))
        assert expectation(convolve(a, b)) == pytest.approx(
            expectation(a) + expectation(b), abs=1e-9
        )


def _reserve_scan_oracle(seq, gamma):
    """Smallest candidate reserve whose indicator-weighted mass reaches gamma."""
    e = expectation(seq)
    best = None
    for u in range(len(seq)):
        r = max(0.0, e - u * seq.step_q)
        covered = sum(p for v, p in enumerate(seq.probs) if r >= e - v * seq.step_q - 1e-12)
        if covered >= gamma - 1e-12 and (best is None or r < best):
            best = r
    return best


def test_min_reserve_worked_example():
    c = ProbSequence(2.5, np.array([0.05, 0.15, 0.30, 0.30, 0.20]))
    assert expectation(c) == pytest.approx(6.125)
    assert min_reserve_for_confidence(c, 0.95) == pytest.approx(3.625, abs=1e-12)


def test_min_reserve_full_confidence_covers_expectation():
    c = ProbSequence(2.5, np.array([0.05, 0.15, 0.30, 0.30, 0.20]))
    assert min_reserve_for_confidence(c, 1.0) == pytest.approx(expectation(c))


def test_min_reserve_clamps_at_zero():
    # nearly all mass at the top index: small gamma met with zero reserve
    c = ProbSequence(2.5, np.array([0.01, 0.01, 0.98]))
    assert min_reserve_for_confidence(c, 0.5) == 0.0


def test_min_reserve_matches_scan_oracle():
    rng = np.random.default_rng(3)
    for _ in range(50):
        seq = _random_sequence(rng, int(rng.integers(2, 25)))
        gamma = float(rng.uniform(0.5, 1.0))
        assert min_reserve_for_confidence(seq, gamma) == pytest.approx(
            _reserve_scan_oracle(seq, gamma), abs=1e-9
        )


def test_min_reserve_monotone_in_confidence():
    rng = np.random.default_rng(29)
    gammas = [0.80, 0.85, 0.90, 0.95, 0.99]
    for _ in range(50):
        seq = _random_sequence(rng, int(rng.integers(2, 30)))
        values = [min_reserve_for_confidence(seq, g) for g in gammas]
        assert all(lo <= hi + 1e-12 for lo, hi in zip(values, values[1:]))


def test_min_reserve_rejects_bad_gamma():
    c = ProbSequence(2.5, np.array([1.0]))
    for gamma in (0.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            min_reserve_for_confidence(c, gamma)

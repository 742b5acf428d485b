"""Probability-sequence tests: analytic bin integrals, the vectorized bins
against a per-bin ``quad`` reference, convolution against a Monte-Carlo
oracle, and the reserve transform against a brute-force scan."""

import math

import numpy as np
import pytest
from scipy import integrate

from mgsched import sequences
from mgsched.distributions import atoms, beta_pv_pdf, density, weibull_wt_pdf
from mgsched.sequences import (
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


def test_discretization_rejects_lost_mass():
    # binning a 38 kW panel onto a 20 kW grid drops real probability mass
    from mgsched.sequences import DiscretizationError

    with pytest.raises(DiscretizationError):
        discretize(beta_pv_pdf(2.6, 2.4, 38.0), 20.0, 2.5)


def _discretize_reference(pdf, p_max, q):
    """``discretize`` as it was written with one ``integrate.quad`` call per
    bin: the bitwise reference for the vectorized Gauss–Kronrod bins."""
    if p_max == 0.0:
        return np.array([1.0])
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
        for i in range(n + 1):
            lo, hi = edges[i], edges[i + 1]
            if hi > lo:
                val, _ = integrate.quad(lambda x: float(density(pdf, x)), lo, hi, limit=200)
                probs[i] += val
    return probs / float(probs.sum())


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
        # nearly uniform: the end bin's error estimate is all spread
        # (abserr == resasc), so QAGS goes on although it is within the bound
        (beta_pv_pdf(1.0 + 1e-9, 1.0, 10.0), 10.0, 2.5),
        (beta_pv_pdf(2.6, 2.4, 38.0), 38.0, 2.5),
        (beta_pv_pdf(0.9, 1.7, 13.0), 13.0, 2.5),  # singular at zero output
        (beta_pv_pdf(5.0, 1.2, 25.0), 25.0, 2.5),
        (weibull_wt_pdf(2.1, 7.0, 3.0, 12.0, 22.0, 30.0), 30.0, 2.5),
    ],
}


class _QuadRecorder:
    """Stand-in for ``scipy.integrate`` that records how many integrand
    evaluations each ``quad`` call made."""

    def __init__(self):
        self.nevals = []

    def quad(self, *args, **kwargs):
        val, err, info = integrate.quad(*args, full_output=1, **kwargs)[:3]
        self.nevals.append(info["neval"])
        return val, err


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_bins_match_per_bin_quad_bitwise(case, baseline_scaled):
    for spec, p_max, q in ORACLE_CASES[case](baseline_scaled):
        got = discretize(spec, p_max, q).probs
        want = _discretize_reference(spec, p_max, q)
        assert got.tobytes() == want.tobytes(), (spec, q)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_only_bins_that_qags_subdivides_go_to_quad(case, baseline_scaled, monkeypatch):
    recorder = _QuadRecorder()
    monkeypatch.setattr(sequences, "integrate", recorder)
    bins = sum(len(discretize(*spec)) for spec in ORACLE_CASES[case](baseline_scaled))
    # QAGS's first step costs 21 evaluations; every bin handed on subdivides
    assert all(neval > 21 for neval in recorder.nevals)
    assert len(recorder.nevals) < bins
    if case != "step_0.1":  # at 0.1 kW every bin stops after the first step
        assert recorder.nevals


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

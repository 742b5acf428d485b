"""Acceptance gate: one test per contract criterion, each printing a PASS line.

The ten full pricing-loop runs (seeds 0..9 of the reference scenario) are
computed once in a module fixture and shared by the criteria that consume
them.
"""

import itertools
import time

import numpy as np
import pytest

import reference_models as ref

from mgsched import cli
from mgsched import coordinator as co
from mgsched import distributions as dist
from mgsched import scenario as sc
from mgsched.charging import solve_inequality_lp
from mgsched.dispatch import constraint_residuals
from mgsched.jaya import JayaConfig, optimize
from mgsched.sequences import (
    ProbSequence,
    convolve,
    discretize,
    expectation,
    min_reserve_for_confidence,
)

SEEDS = range(10)


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS {name}: {detail}")


@pytest.fixture(scope="module")
def baseline_doc():
    return sc.load_scenario(sc.baseline_scenario_path())


@pytest.fixture(scope="module")
def joint_runs(baseline_doc):
    """Full 20-iteration joint runs plus baselines and case reports, per seed."""
    runs = {}
    for seed in SEEDS:
        start = time.perf_counter()
        rt = sc.prepare(baseline_doc, seed=seed)
        outcome = co.run_joint(rt)
        report = co.run_case(rt, outcome)
        runs[seed] = {
            "rt": rt,
            "baselines": outcome.baselines,
            "outcome": outcome,
            "report": report,
            "elapsed": time.perf_counter() - start,
        }
    return runs


def test_sequence_algebra_against_monte_carlo():
    """Convolution matches a sampled joint distribution for 100 random models;
    expectation is additive to 1e-9.  Budget: 60 s."""
    rng = np.random.default_rng(2718)
    q = 2.5
    start = time.perf_counter()
    worst_tv = 0.0
    for trial in range(100):
        if trial % 2 == 0:
            p_a = float(rng.uniform(10.0, 40.0))
            spec_a = dist.beta_pv_pdf(float(rng.uniform(0.8, 5.0)), float(rng.uniform(0.8, 5.0)), p_a)
        else:
            p_a = float(rng.uniform(10.0, 40.0))
            spec_a = dist.weibull_wt_pdf(float(rng.uniform(1.5, 3.0)), float(rng.uniform(5.0, 9.0)),
                                         3.0, 12.0, 22.0, p_a)
        p_b = float(rng.uniform(10.0, 40.0))
        spec_b = dist.weibull_wt_pdf(float(rng.uniform(1.5, 3.0)), float(rng.uniform(5.0, 9.0)),
                                     3.0, 12.0, 22.0, p_b)
        seq_a = discretize(spec_a, p_a, q)
        seq_b = discretize(spec_b, p_b, q)
        joint = convolve(seq_a, seq_b)
        assert expectation(joint) == pytest.approx(expectation(seq_a) + expectation(seq_b), abs=1e-9)

        n = 1_000_000
        xa = ref.sample_power(spec_a, rng, n)
        xb = ref.sample_power(spec_b, rng, n)
        idx = np.minimum(np.floor(xa / q + 0.5).astype(int), len(seq_a) - 1) + np.minimum(
            np.floor(xb / q + 0.5).astype(int), len(seq_b) - 1
        )
        counts = np.bincount(idx, minlength=len(joint)) / n
        tv = 0.5 * float(np.abs(counts - joint.probs).sum())
        assert tv <= 0.005, f"trial {trial}: TV {tv}"
        worst_tv = max(worst_tv, tv)
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0
    _report("sequence-algebra", f"100 model pairs, worst 1e6-sample TV {worst_tv:.4f}, {elapsed:.1f}s")


def test_chance_constraint_monte_carlo_coverage(joint_runs):
    """Accepted schedules keep reserve coverage >= gamma - 0.02 in a 1e5-sample
    re-check from the continuous models, every period."""
    run = joint_runs[1]
    rt, outcome = run["rt"], run["outcome"]
    sched = outcome.selected.schedule
    rng = np.random.default_rng(314)
    reserve = sched.r_mt.sum(axis=0) + sched.p_res
    worst = 1.0
    pv_alpha, pv_beta, pv_rated, wt_k, wt_c, wt_rated = (
        rt.hourly[name] for name in ("pv.alpha", "pv.beta", "pv.p_rated", "wt.k", "wt.c", "wt.p_rated"))
    for t in range(24):
        pv = dist.beta_pv_pdf(pv_alpha[t], pv_beta[t], pv_rated[t])
        wt = dist.weibull_wt_pdf(wt_k[t], wt_c[t], *rt.wind_speeds, wt_rated[t])
        samples = ref.sample_power(pv, rng, 100_000) + ref.sample_power(wt, rng, 100_000)
        e_t = expectation(rt.sequences[t])
        coverage = float(np.mean(reserve[t] >= e_t - samples))
        assert coverage >= rt.gamma - 0.02, f"period {t}: coverage {coverage}"
        worst = min(worst, coverage)
    _report("chance-constraint", f"worst period coverage {worst:.4f} vs floor {rt.gamma - 0.02:.2f}")


def test_reserve_monotone_in_confidence():
    """Minimum reserve is non-decreasing in the confidence level."""
    rng = np.random.default_rng(99)
    gammas = [0.80, 0.85, 0.90, 0.95, 0.99]
    for _ in range(50):
        p = rng.uniform(0.02, 1.0, int(rng.integers(3, 40)))
        seq = ProbSequence(2.5, p / p.sum())
        values = [min_reserve_for_confidence(seq, g) for g in gammas]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
    _report("reserve-monotonicity", "50 random sequences x 5 confidence levels")


def test_interior_point_against_vertex_oracle():
    """200 random LPs solved within 1e-6 of enumeration; complementarity
    residual <= 1e-7.  Budget: 30 s."""
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst_gap = 0.0
    worst_comp = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        ub = rng.uniform(1.0, 5.0, n)
        x_feasible = rng.uniform(0.2, 0.8) * ub
        k = int(rng.integers(1, 5))
        a = rng.normal(size=(k, n))
        b = a @ x_feasible + rng.uniform(0.1, 2.0, k)
        G = np.vstack([np.eye(n), -np.eye(n), a])
        h = np.concatenate([ub, np.zeros(n), b])
        c = rng.normal(size=n)
        x, info = solve_inequality_lp(c, G, h, tol=1e-8, max_iter=100)
        best = None
        for rows in itertools.combinations(range(len(h)), n):
            sub = G[list(rows)]
            if abs(np.linalg.det(sub)) < 1e-10:
                continue
            v = np.linalg.solve(sub, h[list(rows)])
            if np.all(G @ v <= h + 1e-9):
                val = float(c @ v)
                best = val if best is None or val < best else best
        assert abs(float(c @ x) - best) <= 1e-6
        assert info["max_comp"] <= 1e-7
        worst_gap = max(worst_gap, abs(float(c @ x) - best))
        worst_comp = max(worst_comp, info["max_comp"])
    elapsed = time.perf_counter() - start
    assert elapsed <= 30.0
    _report(
        "interior-point",
        f"200/200 LPs, worst objective error {worst_gap:.1e}, worst complementarity {worst_comp:.1e}, {elapsed:.1f}s",
    )


def test_jaya_sphere_and_knapsack():
    """Sphere to 1e-3 at population 100 / 1500 iterations in >= 95/100 seeds;
    8-item knapsack matches enumeration in >= 95/100 seeds."""
    sphere = lambda x, b: np.sum(x**2, axis=1)
    lo, hi = np.full(10, -5.0), np.full(10, 5.0)
    sphere_hits = 0
    for seed in range(100):
        res = optimize(sphere, lo, hi, config=JayaConfig(pop_size=100, max_iter=1500, seed=seed))
        sphere_hits += res.best.fitness < 1e-3
    assert sphere_hits >= 95

    rng = np.random.default_rng(7)
    values = rng.uniform(1.0, 10.0, 8)
    weights = rng.uniform(1.0, 5.0, 8)
    capacity = 12.0

    def knapsack(b):
        w = b @ weights
        return np.where(w <= capacity, -(b @ values), -(b @ values) + 1000.0 * (w - capacity))

    combos = (np.arange(256)[:, None] >> np.arange(8)) & 1
    best = float(knapsack(combos).min())
    knapsack_hits = 0
    for seed in range(100):
        res = optimize(lambda x, b: knapsack(b), np.zeros(0), np.zeros(0), n_binary=8,
                       config=JayaConfig(pop_size=100, max_iter=500, seed=seed))
        knapsack_hits += abs(res.best.fitness - best) < 1e-9
    assert knapsack_hits >= 95
    _report("jaya-benchmarks", f"sphere {sphere_hits}/100 below 1e-3, knapsack {knapsack_hits}/100 optimal")


def test_upper_level_feasibility(joint_runs):
    """Selected schedules satisfy every dispatch constraint to 1e-6 (kW/kWh)."""
    worst = 0.0
    for seed in SEEDS:
        run = joint_runs[seed]
        selected = run["outcome"].selected
        inputs = co.upper_inputs(run["rt"], selected.plan.ev_load, selected.prices.prices)
        residuals = constraint_residuals(selected.schedule, inputs)
        for name, value in residuals.items():
            assert value <= 1e-6, f"seed {seed} {name}: {value}"
        worst = max(worst, max(residuals.values()))
    _report("upper-level-feasibility", f"10 schedules, worst residual {worst:.2e}")


def test_strategy_dominance(joint_runs):
    """Joint operation beats each stand-alone strategy on the other side's
    cost in at least 8 of 10 seeds."""
    wins = 0
    for seed in SEEDS:
        run = joint_runs[seed]
        selected = run["outcome"].selected
        base = run["baselines"]
        ev_ok = selected.ev_cost <= base.ev_cost_under_mg
        mg_ok = selected.mg_cost <= base.mg_cost_under_ev
        wins += ev_ok and mg_ok
    assert wins >= 8
    _report("strategy-dominance", f"{wins}/10 seeds dominate both stand-alone strategies")


def test_demand_response_shifting(joint_runs):
    """Price response flattens the total load and weakens the price-load
    coupling in at least 8 of 10 seeds."""
    wins = 0
    for seed in SEEDS:
        report = joint_runs[seed]["report"]
        flat_ok = report.peak_to_valley_dr <= report.peak_to_valley_no_dr
        corr_ok = report.correlation_dr <= report.correlation_no_dr
        wins += flat_ok and corr_ok
    assert wins >= 8
    _report("demand-response-shifting", f"{wins}/10 seeds flatten load and decouple from price")


def test_cli_outputs_are_byte_identical(tmp_path):
    """Repeated runs with one scenario and seed write identical bytes."""
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = cli.main(["run", "--iters", "2", "--seed", "3", "--out-dir", str(out)])
        assert code == 0
    names = ["records.csv", "prices.csv", "schedule.csv", "charging_plan.csv",
             "sessions.csv", "summary.json", "strategies.csv", "cases.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    _report("determinism", f"{len(names)} output files byte-identical across runs")


def test_joint_run_fits_desk_scale_budget(joint_runs):
    """A full 20-iteration joint run completes within five minutes."""
    elapsed = joint_runs[1]["elapsed"]
    assert len(joint_runs[1]["outcome"].records) == 20
    assert elapsed <= 300.0
    _report("desk-scale-runtime", f"20-iteration joint run in {elapsed:.1f}s")

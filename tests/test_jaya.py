"""JAYA optimizer: update rule, stagnation monitor and search behaviour."""

import numpy as np
import pytest

from mgsched.jaya import JayaConfig, jaya_update, optimize, restart_check


def test_update_rule_direct_substitution():
    assert jaya_update(2.0, 5.0, 0.0, 1.0, 1.0) == pytest.approx(7.0)


def test_update_at_best_moves_only_from_worst():
    # positive x equal to the best zeroes the attraction term
    x = 3.0
    moved = jaya_update(x, x, 1.0, 0.7, 0.5)
    assert moved == pytest.approx(x - 0.5 * (1.0 - x))


def test_update_identity_with_zero_randoms():
    assert jaya_update(1.23, 4.0, -2.0, 0.0, 0.0) == 1.23


def test_restart_check_band():
    assert restart_check(1.0, 1.0)
    assert not restart_check(1.0, 0.5)
    assert restart_check(0.0, 0.123)  # collapsed population forces a restart
    assert not restart_check(1.0, 1.5)


def test_sphere_convergence_small_sample():
    f = lambda x, b: np.sum(x**2, axis=1)
    lo, hi = np.full(10, -5.0), np.full(10, 5.0)
    for seed in range(3):
        res = optimize(f, lo, hi, config=JayaConfig(pop_size=100, max_iter=1500, seed=seed))
        assert res.best.fitness < 1e-3


def test_history_monotone_and_bounds_respected():
    f = lambda x, b: np.sum((x - 1.0) ** 2, axis=1)
    res = optimize(f, np.full(4, -2.0), np.full(4, 2.0),
                   config=JayaConfig(pop_size=30, max_iter=200, seed=5))
    assert np.all(np.diff(res.history) <= 1e-15)
    assert np.all(res.best.continuous >= -2.0) and np.all(res.best.continuous <= 2.0)


def test_constant_objective_flat_history():
    res = optimize(lambda x, b: np.full(x.shape[0], 7.0), np.zeros(2), np.ones(2),
                   config=JayaConfig(pop_size=10, max_iter=50, seed=0))
    assert np.all(res.history == 7.0)
    # zero variance forces the degenerate-population restart rule
    assert res.restarts.any()


def test_deterministic_given_seed():
    f = lambda x, b: np.sum(x**2, axis=1) + np.sum(b, axis=1)
    cfg = JayaConfig(pop_size=25, max_iter=120, seed=99)
    r1 = optimize(f, np.full(3, -1.0), np.full(3, 1.0), n_binary=4, config=cfg)
    r2 = optimize(f, np.full(3, -1.0), np.full(3, 1.0), n_binary=4, config=cfg)
    assert r1.best.fitness == r2.best.fitness
    assert np.array_equal(r1.best.continuous, r2.best.continuous)
    assert np.array_equal(r1.best.binary, r2.best.binary)
    assert np.array_equal(r1.history, r2.history)


def test_binary_knapsack_matches_enumeration():
    rng = np.random.default_rng(7)
    values = rng.uniform(1.0, 10.0, 8)
    weights = rng.uniform(1.0, 5.0, 8)
    capacity = 12.0

    def fitness(b):
        w = b @ weights
        return np.where(w <= capacity, -(b @ values), -(b @ values) + 1000.0 * (w - capacity))

    combos = (np.arange(256)[:, None] >> np.arange(8)) & 1
    best = fitness(combos).min()
    hits = 0
    for seed in range(10):
        res = optimize(lambda x, b: fitness(b), np.zeros(0), np.zeros(0), n_binary=8,
                       config=JayaConfig(pop_size=100, max_iter=500, seed=seed))
        hits += abs(res.best.fitness - best) < 1e-9
    assert hits >= 9


def test_scalar_objective_path():
    # a per-candidate objective is mapped over the population rows by the caller
    scalar = lambda x, b: float((x**2).sum())
    population = lambda xs, bs: [scalar(x, b) for x, b in zip(xs, bs)]
    res = optimize(population, np.full(2, -3.0), np.full(2, 3.0),
                   config=JayaConfig(pop_size=20, max_iter=150, seed=2))
    assert res.best.fitness < 1e-2


def test_warm_start_seeds_population():
    f = lambda x, b: np.sum(x**2, axis=1)
    good = np.full(6, 1e-8)
    res = optimize(f, np.full(6, -5.0), np.full(6, 5.0),
                   config=JayaConfig(pop_size=20, max_iter=1, seed=0),
                   initial=(good, np.zeros(0)))
    assert res.best.fitness <= np.sum(good**2) + 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        JayaConfig(pop_size=1)
    with pytest.raises(ValueError):
        JayaConfig(thr1=1.01, thr2=0.99)
    with pytest.raises(ValueError):
        JayaConfig(restart_fraction=0.0)

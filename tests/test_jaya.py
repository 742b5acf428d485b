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


# --- bitwise oracle for the search loop -------------------------------------


def _reference_optimize(objective, lower, upper, n_binary, config, initial):
    """The search written plainly: one stacked population copy per move,
    np.clip boxes and uniform(0, 1) draws.  ``optimize`` must agree with it
    bit for bit."""
    n_cont = lower.size
    rng = np.random.default_rng(config.seed)
    pop = config.pop_size
    x = rng.uniform(lower, upper, size=(pop, n_cont)) if n_cont else np.zeros((pop, 0))
    b = rng.integers(0, 2, size=(pop, n_binary)).astype(float)
    x0, b0 = initial
    x[0] = np.clip(np.asarray(x0, dtype=float), lower, upper)
    b[0] = (np.asarray(b0, dtype=float) >= 0.5).astype(float)
    fitness = np.asarray(objective(x, b), dtype=float)
    evaluations = pop
    history = np.empty(config.max_iter)
    restarts = np.zeros(config.max_iter, dtype=bool)
    var_prev, cooldown = None, 0
    for it in range(config.max_iter):
        best_i, worst_i = int(np.argmin(fitness)), int(np.argmax(fitness))
        r1 = rng.uniform(size=(pop, n_cont + n_binary))
        r2 = rng.uniform(size=(pop, n_cont + n_binary))
        z = np.hstack([x, b])
        z_new = z + r1 * (z[best_i] - np.abs(z)) - r2 * (z[worst_i] - np.abs(z))
        x_new = np.clip(z_new[:, :n_cont], lower, upper)
        b_new = (np.clip(z_new[:, n_cont:], 0.0, 1.0) >= 0.5).astype(float)
        f_new = np.asarray(objective(x_new, b_new), dtype=float)
        evaluations += pop
        improved = f_new < fitness
        x[improved] = x_new[improved]
        b[improved] = b_new[improved]
        fitness[improved] = f_new[improved]
        var_curr = float(np.var(fitness))
        best_i = int(np.argmin(fitness))
        stagnant = var_prev is not None and restart_check(var_prev, var_curr, config.thr1, config.thr2)
        if stagnant and cooldown == 0:
            restarts[it] = True
            cooldown = config.restart_cooldown
            others = np.delete(np.arange(pop), best_i)
            k = min(others.size, max(1, round(config.restart_fraction * pop)))
            chosen = rng.choice(others, size=k, replace=False)
            x[chosen] = rng.uniform(lower, upper, size=(k, n_cont))
            b[chosen] = rng.integers(0, 2, size=(k, n_binary)).astype(float)
            fitness[chosen] = np.asarray(objective(x[chosen], b[chosen]), dtype=float)
            evaluations += k
            var_curr = float(np.var(fitness))
            best_i = int(np.argmin(fitness))
        elif cooldown > 0:
            cooldown -= 1
        history[it] = fitness[best_i]
        var_prev = var_curr
    best_i = int(np.argmin(fitness))
    return x[best_i], b[best_i], float(fitness[best_i]), history, restarts, evaluations


def test_optimize_matches_reference_bitwise():
    # A mixed objective: a shifted sphere plus a coupling of each binary gene
    # to a continuous one, so both parts steer the search.
    weights = np.linspace(-1.0, 1.0, 5)

    def recording(calls):
        def objective(x, b):
            calls.append((x.tobytes(), b.tobytes()))
            return np.sum((x - 0.3) ** 2, axis=1) + np.sum(b * (weights + x[:, :5]), axis=1)
        return objective

    lower, upper = np.r_[np.zeros(4), np.full(4, -2.0)], np.r_[np.full(4, 2.0), np.zeros(4)]
    # The warm start leaves the box, holds -0.0 (as an encoded schedule's idle
    # discharge does) and relaxed binaries on both sides of 0.5.
    initial = (np.array([-0.0, 2.5, 0.3, 1.0, 0.5, -3.0, -0.0, -1.0]),
               np.array([0.2, 0.5, 0.7, 1.0, 0.0]))
    config = JayaConfig(pop_size=24, max_iter=400, seed=13, restart_cooldown=20)
    calls, reference_calls = [], []
    res = optimize(recording(calls), lower, upper, n_binary=5, config=config, initial=initial)
    x, b, best, history, restarts, evaluations = _reference_optimize(
        recording(reference_calls), lower, upper, 5, config, initial)
    assert restarts.sum() >= 1
    assert calls == reference_calls  # every evaluated population, bit for bit
    assert res.history.tobytes() == history.tobytes()
    assert res.restarts.tobytes() == restarts.tobytes()
    assert res.evaluations == evaluations
    assert res.best.continuous.tobytes() == x.tobytes()
    assert res.best.binary.tobytes() == b.tobytes()
    assert np.float64(res.best.fitness).tobytes() == np.float64(best).tobytes()

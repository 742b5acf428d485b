"""JAYA population optimizer with hybrid real/binary coding.

Candidates drift toward the best population member and away from the worst;
improvements are accepted greedily, so the best-so-far fitness is monotone
non-increasing.  A stagnation monitor compares consecutive population fitness
variances and re-initializes a fraction of the non-best individuals when the
ratio settles inside a narrow band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class JayaConfig:
    pop_size: int = 100
    max_iter: int = 1500
    seed: int = 0
    thr1: float = 0.99
    thr2: float = 1.01
    restart_fraction: float = 0.2
    # Iterations to let a disturbance play out before the monitor may fire
    # again; without it, back-to-back restarts starve fine convergence.
    restart_cooldown: int = 100

    def __post_init__(self):
        if not self.pop_size >= 2:
            raise ValueError("pop_size must be at least 2")
        if not self.max_iter >= 1:
            raise ValueError("max_iter must be at least 1")
        if not self.seed >= 0:
            raise ValueError("seed must be non-negative")
        if not 0.0 < self.thr1 < self.thr2:
            raise ValueError("thr1 must lie in (0, thr2)")
        if not 0.0 < self.restart_fraction < 1.0:
            raise ValueError("restart_fraction must lie in (0, 1)")
        if not self.restart_cooldown >= 0:
            raise ValueError("restart_cooldown must be non-negative")


@dataclass
class Candidate:
    continuous: np.ndarray
    binary: np.ndarray
    fitness: float


@dataclass
class JayaResult:
    best: Candidate
    history: np.ndarray  # best fitness per iteration (monotone non-increasing)
    restarts: np.ndarray  # bool flag per iteration
    evaluations: int


def jaya_update(x, x_best, x_worst, r1, r2, out=None):
    """One JAYA move: toward the best, away from the worst.

    Evaluates ``x + r1 * (x_best - |x|) - r2 * (x_worst - |x|)`` in that
    order.  Given ``out``, the move is built there and in the buffer of
    ``|x|``: a population-sized temporary costs more than the arithmetic.
    """
    abs_x = np.abs(x)
    scratch = None if out is None else abs_x
    toward = np.multiply(r1, np.subtract(x_best, abs_x, out=out), out=out)
    away = np.multiply(r2, np.subtract(x_worst, abs_x, out=scratch), out=scratch)
    return np.subtract(np.add(x, toward, out=out), away, out=out)


def restart_check(var_prev: float, var_curr: float, thr1: float = 0.99, thr2: float = 1.01) -> bool:
    """True when the variance ratio signals stagnation (or total collapse)."""
    if var_prev <= 0.0:
        return True
    ratio = var_curr / var_prev
    return thr1 < ratio < thr2


def optimize(
    objective,
    lower: np.ndarray,
    upper: np.ndarray,
    n_binary: int = 0,
    config: JayaConfig = JayaConfig(),
    initial: tuple[np.ndarray, np.ndarray] | None = None,
) -> JayaResult:
    """Minimize ``objective`` over box-bounded continuous and binary variables.

    ``objective`` maps population arrays of shape (pop, n_cont) and
    (pop, n_binary) to a fitness vector.  Binary variables
    are updated in the continuous relaxation and thresholded at 0.5.
    ``initial`` seeds one population member (warm start).  Deterministic
    given ``config.seed``.
    """
    lower = np.atleast_1d(np.asarray(lower, dtype=float))
    upper = np.atleast_1d(np.asarray(upper, dtype=float))
    if lower.shape != upper.shape or np.any(lower > upper):
        raise ValueError("bounds must be equal-shaped with lower <= upper")
    n_cont = lower.size
    if n_cont + n_binary == 0:
        raise ValueError("problem has no variables")

    rng = np.random.default_rng(config.seed)
    pop = config.pop_size

    # One row per candidate, continuous genes first; x and b are views, so a
    # move updates both in one pass and acceptance copies whole rows.
    z = np.empty((pop, n_cont + n_binary))
    x, b = z[:, :n_cont], z[:, n_cont:]
    if n_cont:
        x[:] = rng.uniform(lower, upper, size=(pop, n_cont))
    b[:] = rng.integers(0, 2, size=(pop, n_binary))
    if initial is not None:
        x0, b0 = initial
        x[0] = np.minimum(np.maximum(np.asarray(x0, dtype=float), lower), upper)
        b[0] = np.asarray(b0, dtype=float) >= 0.5

    def evaluate(xs, bs):
        return np.asarray(objective(xs, bs), dtype=float)

    def variance():
        # np.var's own operations, without its per-call overhead
        dev = fitness - fitness.sum() / pop
        dev *= dev
        return float(dev.sum() / pop)

    fitness = evaluate(x, b)
    evaluations = pop
    best_i = int(fitness.argmin())

    history = np.empty(config.max_iter)
    restarts = np.zeros(config.max_iter, dtype=bool)
    var_prev: float | None = None
    cooldown = 0

    z_new = np.empty_like(z)
    x_new, b_new = z_new[:, :n_cont], z_new[:, n_cont:]
    r1, r2 = np.empty_like(z), np.empty_like(z)
    # The box bounds of every gene as population-sized arrays, so that the
    # box is two passes over contiguous memory.  A relaxed binary is boxed
    # into (-inf, inf), which returns it unchanged.
    box_lo = np.tile(np.concatenate([lower, np.full(n_binary, -np.inf)]), (pop, 1))
    box_hi = np.tile(np.concatenate([upper, np.full(n_binary, np.inf)]), (pop, 1))
    for it in range(config.max_iter):
        worst_i = int(fitness.argmax())

        rng.random(out=r1)
        rng.random(out=r2)
        jaya_update(z, z[best_i], z[worst_i], r1, r2, out=z_new)
        # Box the continuous genes (the bound wins a tie, as in np.clip with
        # array bounds) and threshold the relaxed binaries.
        np.maximum(z_new, box_lo, out=z_new)
        np.minimum(z_new, box_hi, out=z_new)
        np.greater_equal(b_new, 0.5, out=b_new)

        f_new = evaluate(x_new, b_new)
        evaluations += pop
        improved = f_new < fitness
        z[improved] = z_new[improved]
        fitness[improved] = f_new[improved]

        var_curr = variance()
        best_i = int(fitness.argmin())
        stagnant = var_prev is not None and restart_check(var_prev, var_curr, config.thr1, config.thr2)
        if stagnant and cooldown == 0:
            restarts[it] = True
            cooldown = config.restart_cooldown
            others = np.delete(np.arange(pop), best_i)
            k = min(others.size, max(1, round(config.restart_fraction * pop)))
            chosen = rng.choice(others, size=k, replace=False)
            if n_cont:
                x[chosen] = rng.uniform(lower, upper, size=(k, n_cont))
            if n_binary:
                b[chosen] = rng.integers(0, 2, size=(k, n_binary))
            fitness[chosen] = evaluate(x[chosen], b[chosen])
            evaluations += k
            var_curr = variance()
            best_i = int(fitness.argmin())
        elif cooldown > 0:
            cooldown -= 1

        history[it] = fitness[best_i]
        var_prev = var_curr

    best_i = int(fitness.argmin())
    best = Candidate(continuous=x[best_i].copy(), binary=b[best_i].copy(), fitness=float(fitness[best_i]))
    return JayaResult(best=best, history=history, restarts=restarts, evaluations=evaluations)

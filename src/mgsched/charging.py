"""EV-fleet charging as a linear program solved by an interior-point method.

The program minimizes the fleet's billed energy cost over per-EV per-period
charging powers, subject to per-period aggregate feed limits, per-EV power
boxes, and per-EV delivered-energy bands (at least the charge target, at most
a full battery).  Billing is grid-side; the battery receives the charge
efficiency times the grid draw.

The solver is an infeasible-start primal-dual path-following method with a
Mehrotra-style centering parameter on the pure-inequality form

    minimize c'x  subject to  G x <= h.

``G`` is sparse: every column (one EV in one period) has five nonzeros, its
two box rows, its period's feed-limit row and its EV's two energy rows.  Rows
with a single nonzero, the box rows here, are eliminated from each Newton
step into the diagonal of its (1,1) block.  What is left is the augmented
system of the feed-limit and energy rows, which is quasi-definite once every
variable has a box row (Vanderbei 1995).  SuperLU factors it in a symmetric
minimum-degree order and keeps the diagonal pivots that order chooses unless
one is tiny against its column, which happens only close to the optimum: at
150 to 2000 EVs the factors hold 1.8 to 5.5 times the system's nonzeros.
When ``G x <= h`` has no solution, the dual iterate diverges along a Farkas
ray that proves it (Todd 2004); the solve stops at the first iterate that is
one, and a failed solve is tested for one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from mgsched.ev_fleet import EvParams, EvSession, write_csv

RAY_TOL = 1e-9  # |G'y| bound of a Farkas ray, relative to 1 + max|h|
NAMED_SHARE = 1e-3  # an EV is named when its band weight is this share of the largest
# SuperLU keeps a diagonal pivot unless it is below this share of its column's
# largest entry.  Near the optimum both diagonal blocks of the KKT matrix hold
# entries of 1e-10 and less, and static pivots (0.0) then lose the Newton step.
PIVOT_THRESH = 1e-3


class StructuralInfeasibilityError(ValueError):
    """``G x <= h`` has no solution, proven by ``certificate``, a Farkas ray
    y >= 0 of unit sum with |G'y| <= RAY_TOL (1 + max|h|) and h'y < 0.  For
    the charging LP, ``ev_ids`` names the EVs whose energy-band rows carry
    weight in y."""

    def __init__(self, message: str, certificate: np.ndarray, ev_ids=()):
        self.certificate = certificate
        self.ev_ids = list(ev_ids)
        super().__init__(message)


class IpmError(RuntimeError):
    """Interior-point solve failed; carries the last residual snapshot."""

    def __init__(self, message: str, residuals: dict | None = None):
        self.residuals = residuals or {}
        super().__init__(message)


@dataclass(frozen=True)
class StationParams:
    investment: float  # $ up-front for the charging station
    lifetime_years: float

    def __post_init__(self):
        if not self.investment >= 0.0:
            raise ValueError("investment must be non-negative")
        if not self.lifetime_years > 0.0:
            raise ValueError("lifetime_years must be positive")

    @property
    def daily_cost(self) -> float:
        return self.investment / (365.0 * self.lifetime_years)


@dataclass
class LpProblem:
    """min c'x + constant  s.t.  G x <= h, with one column per (EV, period)."""

    c: np.ndarray
    G: sparse.csc_array
    h: np.ndarray
    constant: float
    columns: list[tuple[int, int]]  # (session index, period) per variable
    ev_ids: list[int]  # per session, in row order
    n_periods: int

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_sessions(self) -> int:
        return len(self.ev_ids)


@dataclass
class ChargingPlan:
    p_ev: np.ndarray  # (n_sessions, n_periods) kW, grid side
    ev_load: np.ndarray  # (n_periods,) kW
    variable_cost: float  # $
    total_cost: float  # $ including station amortization
    duality_gap: float
    iterations: int


def build_lp(
    sessions: list[EvSession],
    ev: EvParams,
    prices: np.ndarray,
    caps: np.ndarray,
    station: StationParams,
) -> LpProblem:
    """Assemble the charging LP for one pricing iteration.

    ``caps`` is the per-period aggregate feed limit in kW.  Every session
    keeps its two energy-band rows, even one without a window, so a demand
    that cannot be served leaves the LP infeasible and :func:`ipm_solve`
    names it from the Farkas certificate.
    """
    prices = np.asarray(prices, dtype=float)
    caps = np.asarray(caps, dtype=float)
    n_periods = prices.size
    if caps.size != n_periods:
        raise ValueError("caps and prices must cover the same periods")
    if np.any(caps < 0.0):
        raise ValueError("feed limits must be non-negative")

    columns = [(i, t) for i, s in enumerate(sessions) for t in s.window]
    n = len(columns)
    eta = ev.charge_efficiency

    col_ev, col_t = _column_index(columns)
    c = prices[col_t]

    # Row blocks: power box (rated limit, then non-negativity), one aggregate
    # feed limit per used period, then per EV the delivered-energy band
    # required <= eta * sum(p) <= room to full (periods are one hour, so the
    # kW sum is in kWh).  A column's five rows ascend in that order, so they
    # are its CSC indices as they stand.
    used_periods = np.unique(col_t)
    n_cap = used_periods.size
    j = np.arange(n)
    energy_row = 2 * n + n_cap + 2 * col_ev
    indices = np.column_stack(
        [j, n + j, 2 * n + np.searchsorted(used_periods, col_t), energy_row, energy_row + 1]
    ).ravel()
    data = np.tile([1.0, -1.0, 1.0, -eta, eta], n)
    m = 2 * n + n_cap + 2 * len(sessions)
    G = sparse.csc_array((data, indices, np.arange(0, 5 * n + 1, 5)), shape=(m, n))

    energy_rhs = np.array(
        [(-s.required_energy, (1.0 - s.soc_initial) * ev.battery_capacity) for s in sessions]
    ).ravel()
    h = np.concatenate([np.full(n, ev.rated_power), np.zeros(n), caps[used_periods], energy_rhs])
    return LpProblem(
        c=c, G=G, h=h, constant=station.daily_cost,
        columns=columns, ev_ids=[s.ev_id for s in sessions], n_periods=n_periods,
    )


def _column_index(columns: list[tuple[int, int]]) -> tuple[np.ndarray, np.ndarray]:
    """(session index, period) arrays of the LP columns."""
    return tuple(np.array(columns, dtype=np.intp).reshape(-1, 2).T)


def solve_inequality_lp(
    c: np.ndarray,
    G: np.ndarray | sparse.sparray,
    h: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> tuple[np.ndarray, dict]:
    """Solve min c'x s.t. G x <= h by a primal-dual interior-point method.

    ``G`` may be a dense array or a scipy sparse matrix or array.  Returns the
    primal solution and an info dict with the certified duality gap,
    residuals and iteration count.  A failed solve (divergence, a degenerate
    KKT system, the iteration budget) raises :class:`IpmError`, or
    :class:`StructuralInfeasibilityError` when its dual iterate is a Farkas ray.
    """
    c = np.asarray(c, dtype=float)
    h = np.asarray(h, dtype=float)
    n = c.size
    m = h.size
    if n == 0:
        if np.any(h < 0.0):  # every row reads 0 <= h, so those with h < 0 form a ray
            ray = (h < 0.0) / np.count_nonzero(h < 0.0)
            raise StructuralInfeasibilityError(f"Farkas ray with h'y = {h @ ray:.3g} (rows without variables)", ray)
        return np.zeros(0), {"gap": 0.0, "iterations": 0, "primal_residual": 0.0, "dual_residual": 0.0, "max_comp": 0.0}
    if m == 0:
        raise ValueError("an LP without inequality rows is unbounded in this form")
    G = sparse.csc_array(G, dtype=float)
    # Rows with one nonzero leave the Newton system (see ``newton``); the
    # others keep their dual step in the reduced KKT matrix, whose pattern is
    # built once and whose diagonal each factorization overwrites.
    rows = G.tocsr()
    single = np.diff(rows.indptr) == 1
    box_rows = np.flatnonzero(single)
    box_col = rows.indices[rows.indptr[box_rows]]
    box_val = rows.data[rows.indptr[box_rows]]
    kept = np.flatnonzero(~single)
    G_kept = rows[kept]
    kkt = sparse.block_array(
        [[sparse.eye_array(n), G_kept.T], [G_kept, sparse.eye_array(kept.size)]], format="csc"
    )
    diagonal = np.flatnonzero(kkt.indices == np.repeat(np.arange(n + kept.size), np.diff(kkt.indptr)))

    x = np.zeros(n)
    s = np.maximum(h - G @ x, 1.0)
    z = np.ones(m)

    h_scale = 1.0 + float(np.max(np.abs(h)))
    c_scale = 1.0 + float(np.max(np.abs(c)))
    beta = 0.995  # fraction-to-the-boundary

    def residuals():
        r_dual = c + G.T @ z
        r_prim = G @ x + s - h
        gap = abs(float(c @ x + h @ z)) / (1.0 + abs(float(c @ x)))
        return r_prim, r_dual, gap

    def failure(message, info):
        """The error of a failed solve: proven infeasibility when the dual
        iterate, scaled to unit sum, is a Farkas ray, otherwise an
        :class:`IpmError`."""
        y = z / np.sum(z)
        if np.max(np.abs(G.T @ y)) <= RAY_TOL * h_scale and h @ y < 0.0:
            return StructuralInfeasibilityError(f"Farkas ray with h'y = {h @ y:.3g} ({message})", y)
        return IpmError(message, info)

    for it in range(1, max_iter + 1):
        r_prim, r_dual, gap = residuals()
        comp = s * z
        mu = float(comp.mean())
        if (
            not (np.all(np.isfinite(r_prim)) and np.all(np.isfinite(r_dual)) and np.isfinite(mu))
            or max(float(np.max(s)), float(np.max(z))) > 1e30
        ):
            raise failure(f"iterates diverged at iteration {it}", {"mu": mu, "gap": gap})
        if (
            np.max(np.abs(r_prim)) <= tol * h_scale
            and np.max(np.abs(r_dual)) <= tol * c_scale
            and gap <= tol
            and float(comp.max()) <= 10.0 * tol
        ):
            return x, {
                "gap": gap,
                "iterations": it - 1,
                "primal_residual": float(np.max(np.abs(r_prim))),
                "dual_residual": float(np.max(np.abs(r_dual))),
                "max_comp": float(comp.max()),
            }
        # r_dual - c = G'z: stop as soon as the dual iterate is a Farkas ray.
        if h @ z < 0.0 and np.max(np.abs(r_dual - c)) <= RAY_TOL * h_scale * float(np.sum(z)):
            error = failure(f"dual iterate is a Farkas ray at iteration {it}", {"mu": mu, "gap": gap})
            if isinstance(error, StructuralInfeasibilityError):
                raise error

        # Newton step of the augmented KKT system [[reg, G'], [G, -S/Z - reg]]
        # in (dx, dz); forming the normal equations G' diag(z/s) G loses too
        # much precision once the optimal face is degenerate and z/s spans
        # many orders of magnitude.  The dual step of a single-nonzero row i
        # (entry g in column j) is dz_i = w_i (g dx_j - rhs_i) with
        # w_i = 1 / (s_i/z_i + reg), so those rows are eliminated exactly and
        # add g^2 w_i to diagonal entry j.  A primal/dual regularization pair
        # is escalated until the factorization produces finite steps.
        def newton(r_comp):
            rhs = -r_prim + r_comp / z
            reduced = np.concatenate(
                [-r_dual + np.bincount(box_col, box_val * w_box * rhs[box_rows], minlength=n), rhs[kept]]
            )
            step = factor.solve(reduced)
            if np.all(np.isfinite(step)):
                step += factor.solve(reduced - kkt @ step)
            dx = step[:n]
            dz = np.empty(m)
            dz[kept] = step[n:]
            dz[box_rows] = (box_val * dx[box_col] - rhs[box_rows]) * w_box
            ds = -r_prim - G @ dx if np.all(np.isfinite(dx)) else np.full(m, np.nan)
            return dx, ds, dz

        step_limit = 1e10 * (1.0 + float(np.max(s)) + float(np.max(z)))
        dx_a = None
        for reg in (0.0, 1e-10, 1e-7, 1e-4):
            w_box = z[box_rows] / (s[box_rows] + reg * z[box_rows])
            kkt.data[diagonal] = np.concatenate(
                [reg + np.bincount(box_col, box_val**2 * w_box, minlength=n), -s[kept] / z[kept] - reg]
            )
            try:
                factor = splu(kkt, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=PIVOT_THRESH,
                              options={"SymmetricMode": True})
                candidate = newton(comp)
            except (RuntimeError, ValueError):  # splu: "Factor is exactly singular"
                continue
            if all(np.all(np.isfinite(d)) and np.max(np.abs(d), initial=0.0) < step_limit for d in candidate):
                dx_a, ds_a, dz_a = candidate
                break
        if dx_a is None:
            raise failure(f"KKT factorization degenerated at iteration {it}", {"mu": mu, "gap": gap})

        # Predictor (affine) step.
        alpha_p = _max_step(s, ds_a)
        alpha_d = _max_step(z, dz_a)
        mu_aff = float((s + alpha_p * ds_a) @ (z + alpha_d * dz_a)) / m
        sigma = (max(mu_aff, 0.0) / mu) ** 3 if mu > 0 else 0.0

        # Keep the barrier parameter from collapsing while residuals are still
        # large; otherwise the scaling blows up and Newton accuracy is lost.
        mu_floor = 0.1 * tol * (1.0 + abs(float(c @ x))) / m
        if mu > 0.0:
            sigma = max(sigma, min(0.9, mu_floor / mu))

        # Corrector with centering.
        dx, ds, dz = newton(comp + ds_a * dz_a - sigma * mu)
        if not all(np.all(np.isfinite(d)) for d in (dx, ds, dz)):
            dx, ds, dz = dx_a, ds_a, dz_a
        alpha_p = min(1.0, beta * _max_step(s, ds))
        alpha_d = min(1.0, beta * _max_step(z, dz))
        for _ in range(20):
            mu_next = float((s + alpha_p * ds) @ (z + alpha_d * dz)) / m
            if mu_next >= mu_floor or max(alpha_p, alpha_d) < 1e-4:
                break
            alpha_p *= 0.7
            alpha_d *= 0.7

        x = x + alpha_p * dx
        s = s + alpha_p * ds
        z = z + alpha_d * dz

    r_prim, r_dual, gap = residuals()
    raise failure(
        f"no convergence within {max_iter} iterations "
        f"(primal {np.max(np.abs(r_prim)):.2e}, dual {np.max(np.abs(r_dual)):.2e}, gap {gap:.2e})",
        {
            "primal_residual": float(np.max(np.abs(r_prim))),
            "dual_residual": float(np.max(np.abs(r_dual))),
            "gap": gap,
        },
    )


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    shrink = dv < 0.0
    if not np.any(shrink):
        return 1.0
    return float(min(1.0, np.min(-v[shrink] / dv[shrink])))


def ipm_solve(lp: LpProblem, tol: float = 1e-8, max_iter: int = 100) -> ChargingPlan:
    """Solve the charging LP and assemble the plan matrix.  An infeasible LP
    raises :class:`StructuralInfeasibilityError` naming the EVs whose
    energy-band rows carry weight in its certificate."""
    try:
        x, info = solve_inequality_lp(lp.c, lp.G, lp.h, tol=tol, max_iter=max_iter)
    except StructuralInfeasibilityError as exc:
        band = exc.certificate[lp.h.size - 2 * lp.n_sessions :].reshape(-1, 2).sum(axis=1)
        named = [ev_id for ev_id, w in zip(lp.ev_ids, band) if w >= NAMED_SHARE * band.max()]
        message = f"EVs {named} cannot be charged within their windows, rated power and feed limits: {exc}"
        raise StructuralInfeasibilityError(message, exc.certificate, named) from None
    p_ev = np.zeros((lp.n_sessions, lp.n_periods))
    p_ev[_column_index(lp.columns)] = np.where(x > 0.0, x, 0.0)
    ev_load = p_ev.sum(axis=0)
    variable_cost = float(x @ lp.c)
    return ChargingPlan(
        p_ev=p_ev,
        ev_load=ev_load,
        variable_cost=variable_cost,
        total_cost=variable_cost + lp.constant,
        duality_gap=info["gap"],
        iterations=info["iterations"],
    )


def charging_cost(plan: ChargingPlan, prices: np.ndarray, station: StationParams) -> float:
    """Fleet bill at the given prices plus daily station amortization."""
    prices = np.asarray(prices, dtype=float)
    return float(np.dot(prices, plan.ev_load)) + station.daily_cost


def plan_residuals(plan: ChargingPlan, lp: LpProblem) -> float:
    """Largest constraint violation of the plan against its LP (kW / kWh)."""
    x = plan.p_ev[_column_index(lp.columns)]
    return float(np.max(np.maximum(lp.G @ x - lp.h, 0.0), initial=0.0))


def write_plan_csv(path, plan: ChargingPlan, session_ids: list[int]) -> None:
    """EV-by-period charging matrix with a trailing aggregate row."""
    header = ["ev_id"] + [f"p{t}" for t in range(plan.p_ev.shape[1])]
    rows = [[ev_id, *row] for ev_id, row in zip(session_ids, plan.p_ev)]
    write_csv(path, header, rows + [["total", *plan.ev_load]])

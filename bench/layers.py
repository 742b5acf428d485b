"""Which mgsched calls the traced run wraps, and the per-layer metrics
derived from the spans and counters.

Each wrapper names the attribute a caller looks up at call time (for
example ``coordinator.solve_upper``, because ``coordinator`` imported it by
name), so the patched function is the one the program actually calls.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks

COORDINATOR_SPANS = ("run_joint", "compute_baselines", "run_bilevel", "_solve_lower")
CLI_WRITERS = (
    ("coordinator", "write_records_csv"),
    ("coordinator", "write_prices_csv"),
    ("cli", "write_schedule_csv"),
    ("cli", "write_plan_csv"),
    ("cli", "write_sessions_csv"),
    ("coordinator", "write_summary_json"),
)


def _add(counter: str, value_of):
    def after(tracer, args, result):
        tracer.counts[counter] += value_of(args, result)
    return after


def _ipm_done(tracer, args, result):
    lp = args[0]
    dim = lp.n_vars + lp.h.size
    tracer.counts["charging.ipm_iterations"] += result.iterations
    tracer.counts["charging.kkt_dim"] = max(tracer.counts["charging.kkt_dim"], dim)


def _optimize_done(tracer, args, result):
    history = np.asarray(result.history)
    tracer.counts["jaya.evaluations"] += result.evaluations
    tracer.counts["jaya.restarts"] += int(np.count_nonzero(result.restarts))
    tracer.counts["jaya.improved_iters"] += int(np.count_nonzero(np.diff(history) < 0.0))
    tracer.counts["jaya.attempted_iters"] += max(history.size - 1, 0)


def install(tracer) -> None:
    from mgsched import cli, coordinator, dispatch, distributions, scenario, sequences

    tracer.wrap(cli, "main", "cli")
    tracer.wrap(scenario, "load_scenario", "scenario")
    tracer.wrap(scenario, "prepare", "scenario")
    tracer.wrap(scenario, "discretize", "sequences", after=_add("sequences.bins_total", lambda a, r: len(r)))
    tracer.wrap(scenario, "convolve", "sequences")
    tracer.count_calls(sequences, "density", "distributions.density_evals")
    tracer.wrap(distributions, "sample_fleet", "distributions")
    tracer.wrap(scenario, "build_windows", "ev_fleet", after=_add("ev_fleet.sessions", lambda a, r: len(r)))
    for name in COORDINATOR_SPANS:
        tracer.wrap(coordinator, name, "coordinator")
    tracer.wrap(coordinator, "build_lp", "charging")
    tracer.wrap(coordinator, "ipm_solve", "charging", after=_ipm_done)
    tracer.wrap(coordinator, "solve_upper", "dispatch")
    tracer.wrap(dispatch, "_population_fitness", "dispatch")
    tracer.wrap(dispatch, "_repair_population", "dispatch",
                after=_add("dispatch.candidates_repaired", lambda a, r: a[0].shape[0]))
    tracer.wrap(dispatch, "optimize", "jaya", after=_optimize_done)
    modules = {"cli": cli, "coordinator": coordinator}
    for module_name, attr in CLI_WRITERS:
        tracer.wrap(modules[module_name], attr, "cli")


# metric -> the (module, attribute) wrappers it is measured from
SOURCES = {
    "scenario.prepare_s": [("scenario", "prepare")],
    "sequences.discretize_s": [("scenario", "discretize")],
    "sequences.discretize_calls": [("scenario", "discretize")],
    "sequences.bins_total": [("scenario", "discretize")],
    "sequences.convolve_s": [("scenario", "convolve")],
    "distributions.density_evals": [("sequences", "density")],
    "distributions.sample_fleet_s": [("distributions", "sample_fleet")],
    "ev_fleet.build_windows_s": [("scenario", "build_windows")],
    "ev_fleet.sessions": [("scenario", "build_windows")],
    "charging.build_lp_s": [("coordinator", "build_lp")],
    "charging.ipm_solve_s": [("coordinator", "ipm_solve")],
    "charging.ipm_calls": [("coordinator", "ipm_solve")],
    "charging.ipm_iterations": [("coordinator", "ipm_solve")],
    "charging.kkt_dim": [("coordinator", "ipm_solve")],
    "charging.kkt_bytes_computed": [("coordinator", "ipm_solve")],
    "charging.lower_fallbacks": [("coordinator", "_solve_lower"), ("coordinator", "build_lp"),
                                 ("coordinator", "ipm_solve")],
    "dispatch.solve_upper_s": [("coordinator", "solve_upper")],
    "dispatch.solve_upper_calls": [("coordinator", "solve_upper")],
    "dispatch.repair_s": [("dispatch", "_repair_population")],
    "dispatch.repair_calls": [("dispatch", "_repair_population")],
    "dispatch.candidates_repaired": [("dispatch", "_repair_population")],
    "dispatch.fitness_self_s": [("dispatch", "_population_fitness"), ("dispatch", "_repair_population")],
    "jaya.optimize_self_s": [("dispatch", "optimize"), ("dispatch", "_population_fitness")],
    "jaya.evaluations": [("dispatch", "optimize")],
    "jaya.restarts": [("dispatch", "optimize")],
    "jaya.improved_iter_frac": [("dispatch", "optimize")],
    "coordinator.baselines_s": [("coordinator", "compute_baselines")],
    "coordinator.loop_s": [("coordinator", "run_bilevel")],
    "coordinator.self_s": [("coordinator", n) for n in COORDINATOR_SPANS]
    + [("coordinator", "build_lp"), ("coordinator", "ipm_solve"), ("coordinator", "solve_upper")],
    "cli.write_outputs_s": list(CLI_WRITERS),
}


def metrics(tracer, rt, outcome, check_values: dict, out_dir: Path) -> tuple[dict, dict]:
    """(per-layer metrics, absent metric -> reason) of one traced run."""
    t, c = tracer, tracer.counts
    attempted = c["jaya.attempted_iters"]
    records = outcome.records
    last_change = (
        float(np.max(np.abs(records[-1].plan.ev_load - records[-2].plan.ev_load))) if len(records) > 1 else 0.0
    )
    values = {
        "scenario.prepare_s": t.total("prepare"),
        "sequences.discretize_s": t.total("discretize"),
        "sequences.discretize_calls": t.calls("discretize"),
        "sequences.bins_total": c["sequences.bins_total"],
        "sequences.convolve_s": t.total("convolve"),
        "distributions.density_evals": c["distributions.density_evals"],
        "distributions.sample_fleet_s": t.total("sample_fleet"),
        "ev_fleet.build_windows_s": t.total("build_windows"),
        "ev_fleet.sessions": c["ev_fleet.sessions"],
        "charging.build_lp_s": t.total("build_lp"),
        "charging.ipm_solve_s": t.total("ipm_solve"),
        "charging.ipm_calls": t.calls("ipm_solve"),
        "charging.ipm_iterations": c["charging.ipm_iterations"],
        "charging.kkt_dim": c["charging.kkt_dim"],
        "charging.kkt_bytes_computed": c["charging.kkt_dim"] ** 2 * 8,
        "charging.lower_fallbacks": t.children_errors("_solve_lower"),
        "charging.plan_residual": check_values["plan_residual"],
        "charging.highs_rel_diff": check_values["highs_rel_diff"],
        "dispatch.solve_upper_s": t.total("solve_upper"),
        "dispatch.solve_upper_calls": t.calls("solve_upper"),
        "dispatch.repair_s": t.total("_repair_population"),
        "dispatch.repair_calls": t.calls("_repair_population"),
        "dispatch.candidates_repaired": c["dispatch.candidates_repaired"],
        "dispatch.fitness_self_s": t.self_time(["_population_fitness"]),
        "dispatch.max_residual": check_values["dispatch_max_residual"],
        "jaya.optimize_self_s": t.self_time(["optimize"]),
        "jaya.evaluations": c["jaya.evaluations"],
        "jaya.restarts": c["jaya.restarts"],
        "jaya.improved_iter_frac": c["jaya.improved_iters"] / attempted if attempted else 0.0,
        "coordinator.baselines_s": t.total("compute_baselines"),
        "coordinator.loop_s": t.total("run_bilevel"),
        "coordinator.self_s": t.self_time(COORDINATOR_SPANS),
        "coordinator.iterations": len(records),
        "coordinator.selected_iteration": outcome.selected_index,
        "coordinator.ev_load_change_last_kw": last_change,
        "cli.write_outputs_s": sum(t.total(attr) for _, attr in CLI_WRITERS),
        "cli.output_bytes": sum((out_dir / name).stat().st_size for name in checks.OUTPUT_FILES),
    }
    absent = {}
    for metric, sources in SOURCES.items():
        missing = [f"mgsched.{m}.{a}" for m, a in sources if not t.wrapped(f"mgsched.{m}", a)]
        if missing:
            absent[metric] = "not wrapped: " + ", ".join(missing)
            values.pop(metric, None)
    return values, absent

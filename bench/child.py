"""One benchmark process: a single ``mgsched run``, or the charging scale curve.

Started by ``run.py`` in a fresh interpreter so each run pays its own imports
and its peak resident memory is its own.  Usage:

    python3 bench/child.py run   --src SRC --scenario FILE --seed N --out-dir DIR --result FILE [--trace]
    python3 bench/child.py curve --src SRC --scenario FILE --seed N --result FILE

The result file is JSON: timings, checked values, failures and, when traced,
per-layer metrics and the spans themselves.
"""

from time import perf_counter

T_START = perf_counter()  # before mgsched, numpy and scipy are imported

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

CURVE_FLEETS = (20, 50, 100, 200)


def _timed(module, attr: str, sink: dict, key: str):
    """Add the duration of each ``module.attr`` call to ``sink[key]`` and keep
    its last result in ``sink[key + '_result']``."""
    target = getattr(module, attr)

    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        result = target(*args, **kwargs)
        sink[key] = sink.get(key, 0.0) + perf_counter() - t0
        sink[key + "_result"] = result
        return result

    setattr(module, attr, wrapper)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_once(args) -> dict:
    from mgsched import cli, coordinator, scenario

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    times: dict = {}
    _timed(scenario, "load_scenario", times, "load")
    _timed(scenario, "prepare", times, "prepare")
    _timed(coordinator, "run_joint", times, "solve")

    argv = ["run", "--scenario", str(args.scenario), "--seed", str(args.seed), "--out-dir", str(args.out_dir)]
    t_main = perf_counter()
    code = cli.main(argv)
    t_end = perf_counter()
    result = {
        "exit_code": code,
        "setup_s": times["load"] + times["prepare"],
        "solve_s": times["solve"],
        "total_s": t_end - T_START,
        "import_s": t_main - T_START,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if tracer is not None:
        tracer.restore()
    if code != 0:
        result["failures"] = [f"mgsched run exited with {code}"]
        return result

    import checks

    rt, outcome = times["prepare_result"], times["solve_result"]
    summary = json.loads((args.out_dir / "summary.json").read_text())
    values, failures = checks.check_run(rt, outcome, args.out_dir)
    result.update(
        mg_cost_joint_usd=summary["mg_cost_joint"],
        ev_cost_joint_usd=summary["ev_cost_joint"],
        checks=values,
        failures=failures,
        digest=checks.output_digest(args.out_dir),
    )
    if tracer is not None:
        import layers

        result["layers"], result["absent"] = layers.metrics(tracer, rt, outcome, values, args.out_dir)
        result["spans"] = [s.as_dict() for s in tracer.spans]
    return result


def scale_curve(args) -> dict:
    """``build_lp`` + ``ipm_solve`` and HiGHS on the same LP at several fleet
    sizes of the ``large_fleet`` scaling, against the grid tariff."""
    from mgsched import coordinator as co
    from mgsched import scenario as sc
    from mgsched.charging import build_lp, ipm_solve

    import checks
    import workloads

    base = workloads.baseline_doc(args.scenario)
    metrics, failures = {}, []
    for n in CURVE_FLEETS:
        rt = sc.prepare(workloads.fleet_scaled(base, n), seed=args.seed)
        t0 = perf_counter()
        lp = build_lp(rt.sessions, rt.ev_params, rt.tou, co.loose_caps(rt), rt.station)
        t1 = perf_counter()
        plan = ipm_solve(lp, tol=rt.ipm_tol, max_iter=rt.ipm_max_iter)
        t2 = perf_counter()
        highs = checks.highs_objective(lp)
        t3 = perf_counter()
        rel = abs(plan.variable_cost - highs) / max(1.0, abs(highs))
        if not rel <= checks.HIGHS_REL_TOL:
            failures.append(f"{n} EVs: IPM objective differs from HiGHS by {rel:.3e} relative")
        metrics[f"charging.build_lp_s.ev{n}"] = t1 - t0
        metrics[f"charging.ipm_solve_s.ev{n}"] = t2 - t1
        metrics[f"charging.kkt_dim.ev{n}"] = lp.n_vars + lp.h.size
        metrics[f"charging.highs_s.ev{n}"] = t3 - t2
        metrics[f"charging.highs_rel_diff.ev{n}"] = rel
    return {"layers": metrics, "failures": failures, "peak_rss_mb": _peak_rss_mb()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "curve"))
    parser.add_argument("--src", type=Path, required=True)
    parser.add_argument("--scenario", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", type=Path)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src))
    try:
        result = run_once(args) if args.mode == "run" else scale_curve(args)
    except Exception:  # reported to the parent as a failed run
        result = {"failures": [traceback.format_exc()]}
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands:
  run       one pricing-loop run; writes records/schedule/plan/prices/sessions
            CSVs, summary.json, the stand-alone vs joint cost table
            (strategies.csv) and the price-response comparison (cases.csv)
            into --out-dir
  validate  scenario schema, and the fleet's grid-tariff charging LP solved
            under the loose feed limits (exit code 0/1)
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from mgsched import coordinator as co
from mgsched import scenario as sc
from mgsched.charging import IpmError, StructuralInfeasibilityError, build_lp, ipm_solve, write_plan_csv
from mgsched.dispatch import InfeasibleScheduleError, write_schedule_csv
from mgsched.ev_fleet import write_sessions_csv


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        type=Path,
        default=None,
        help="scenario JSON (defaults to the packaged baseline)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mgsched", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full joint pricing-loop run")
    _add_common(p_run)
    p_run.add_argument("--iters", type=int, default=None, help="override the pricing iteration count")
    p_run.add_argument("--out-dir", type=Path, default=Path("."), help="directory for output files")

    p_val = sub.add_parser("validate", help="scenario schema and feasibility checks")
    _add_common(p_val)
    return parser


def _load_runtime(args) -> sc.ScenarioRuntime | None:
    """The prepared scenario, or None after reporting why it is invalid."""
    path = args.scenario if args.scenario is not None else sc.baseline_scenario_path()
    try:
        doc = sc.load_scenario(path)
        iters = getattr(args, "iters", None)
        return sc.prepare(doc, seed=args.seed, iterations=iters, scenario_dir=Path(path).parent)
    except (sc.ScenarioError, OSError, ValueError) as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return None


def cmd_run(args, rt: sc.ScenarioRuntime) -> int:
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)
    outcome = co.run_joint(rt)
    sel = outcome.selected

    co.write_records_csv(out / "records.csv", outcome)
    co.write_prices_csv(out / "prices.csv", rt, outcome)
    inputs = co.upper_inputs(rt, sel.plan.ev_load, sel.prices.prices)
    write_schedule_csv(out / "schedule.csv", sel.schedule, inputs)
    write_plan_csv(out / "charging_plan.csv", sel.plan, [s.ev_id for s in rt.sessions])
    write_sessions_csv(out / "sessions.csv", rt.sessions)
    co.write_summary_json(out / "summary.json", rt, outcome)
    co.write_strategies_csv(out / "strategies.csv", outcome)
    co.write_cases_csv(out / "cases.csv", co.run_case(rt, outcome))

    base = outcome.baselines
    print(f"selected iteration {outcome.selected_index} of {len(outcome.records)}")
    print(f"microgrid cost: ideal {base.mg_cost_ideal:.2f} $, joint {sel.mg_cost:.2f} $")
    print(f"fleet cost:     ideal {base.ev_cost_ideal:.2f} $, joint {sel.ev_cost:.2f} $")
    print(f"outputs written to {out}")
    return 0


def cmd_validate(args, rt: sc.ScenarioRuntime) -> int:
    lp = build_lp(rt.sessions, rt.ev_params, rt.tou, co.loose_caps(rt), rt.station)
    try:
        ipm_solve(lp, tol=rt.ipm_tol, max_iter=rt.ipm_max_iter)
    except StructuralInfeasibilityError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 1
    truncated = [s.ev_id for s in rt.sessions if s.target_truncated]
    if truncated:
        print(f"note: charge targets truncated at end of day for EVs {truncated}")
    print(f"scenario OK: {len(rt.sessions)} EV sessions, {len(rt.units)} generators, "
          f"{rt.pricing_iterations} pricing iterations")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rt = _load_runtime(args)
    if rt is None:
        return 1
    handlers = {
        "run": cmd_run,
        "validate": cmd_validate,
    }
    try:
        return handlers[args.command](args, rt)
    except (InfeasibleScheduleError, IpmError, StructuralInfeasibilityError) as exc:
        # a solver that ends without a checked result: one line, not a traceback
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""mgsched benchmark: day-ahead schedules through the real ``mgsched run`` path.

    python3 bench/run.py --workload baseline_day --seed 1 --seconds 30 --trace 0

Run from the root of a source tree (``src/mgsched`` must exist).  Each
schedule is one ``mgsched run`` in a fresh interpreter (``bench/child.py``)
on a generated scenario document; its outputs are checked (``checks.py``)
and hashed.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

* ``--trace 0`` runs the workload's fixed list of inputs derived from
  ``--seed`` (repeating them while ``--seconds`` allows) and reports the
  end-to-end metrics: medians over schedules for times and memory, medians
  over the distinct inputs for costs.
* ``--trace 1`` runs input ``--seed`` once untraced and once traced, plus
  the charging scale curve, and reports the per-layer metrics.

Working files, the full result with its environment, and the trace's spans
go to ``.bench_work/`` at the root.  The exit code is 0 only when every
schedule passed every check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HARD_LIMIT_S = 170.0  # the whole command must end within 180 s

# Distinct inputs per untraced run; sized so that one run takes about
# ``run_seconds`` on a 2-CPU machine.  Input i runs mgsched with seed
# ``seed + SEED_STRIDE * i``; input 0 is the seed itself.
INPUTS = {"baseline_day": 2, "large_fleet": 2, "fine_reserve": 3}
SEED_STRIDE = 100_003


def input_seeds(workload: str, seed: int) -> list[int]:
    return [seed + SEED_STRIDE * i for i in range(INPUTS[workload])]


class Session:
    """State of one benchmark command: work directory, deadline, results."""

    def __init__(self, workload: str, seed: int, trace: bool, src_digest: str):
        self.t0 = time.monotonic()
        self.workload = workload
        self.src_digest = src_digest
        self.src = ROOT / "src"
        self.work = ROOT / ".bench_work" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.baseline = self.src / "mgsched" / "data" / "baseline.json"
        self.scenario = self.work / "scenario.json"
        doc = workloads.make_scenario(workload, workloads.baseline_doc(self.baseline))
        self.scenario.write_text(json.dumps(doc, indent=1, sort_keys=True))
        self.digest_store = ROOT / ".bench_work" / "digests.json"
        self.runs: list[dict] = []
        self.count = 0

    def elapsed(self) -> float:
        return time.monotonic() - self.t0

    def child(self, mode: str, seed: int, trace: bool = False) -> dict:
        """Run ``child.py`` to completion (or kill it at the hard limit)."""
        self.count += 1
        tag = f"{self.count:02d}-{mode}-{seed}{'-traced' if trace else ''}"
        result_file = self.work / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "child.py"), mode, "--src", str(self.src), "--seed", str(seed),
               "--result", str(result_file)]
        if mode == "run":
            cmd += ["--scenario", str(self.scenario), "--out-dir", str(self.work / tag)]
        else:
            cmd += ["--scenario", str(self.baseline)]
        if trace:
            cmd.append("--trace")
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:  # subprocess.run kills and waits for the child
            result = {"failures": [f"{tag}: killed after {timeout:.0f} s"]}
        else:
            if result_file.is_file():
                result = json.loads(result_file.read_text())
            else:
                message = f"{tag}: exited with {proc.returncode} without a result:\n{proc.stderr[-2000:]}"
                result = {"failures": [message]}
        result.update(tag=tag, mode=mode, seed=seed, traced=trace)
        self.runs.append(result)
        return result

    def check_digests(self) -> None:
        """Outputs of one (source, workload, seed) must be byte-identical in
        every run, in this command and in earlier commands in this tree."""
        store = json.loads(self.digest_store.read_text()) if self.digest_store.is_file() else {}
        for r in self.runs:
            if "digest" not in r:
                continue
            key = f"{self.src_digest[:16]}/{self.workload}/{r['seed']}"
            expected = store.setdefault(key, r["digest"])
            if r["digest"] != expected:
                r.setdefault("failures", []).append(f"outputs of {key} differ from an earlier run")
        self.digest_store.write_text(json.dumps(store, indent=1, sort_keys=True))

    def failed(self) -> list[dict]:
        return [r for r in self.runs if r.get("failures")]


def measure(session: Session, seed: int, seconds: float) -> dict:
    """End-to-end metrics of untraced schedules: every input once, then
    repeats while time allows."""
    seeds = input_seeds(session.workload, seed)
    deadline = time.monotonic() + seconds
    longest = 0.0
    i = 0
    while i < len(seeds) or time.monotonic() + longest <= deadline:
        if session.elapsed() + longest > HARD_LIMIT_S:
            break
        start = time.monotonic()
        session.child("run", seeds[i % len(seeds)])
        longest = max(longest, time.monotonic() - start)
        i += 1
    session.check_digests()

    good = [r for r in session.runs if not r.get("failures")]
    if not good:
        return {}
    values = {name: statistics.median(r[name] for r in good)
              for name in ("setup_s", "solve_s", "total_s", "peak_rss_mb")}
    first = {}
    for r in good:
        first.setdefault(r["seed"], r)
    for name in ("mg_cost_joint_usd", "ev_cost_joint_usd"):
        values[name] = statistics.median(r[name] for r in first.values())
    return values


def trace(session: Session, seed: int) -> tuple[dict, dict]:
    """Per-layer metrics from one traced schedule and the scale curve, and
    the reason for each metric the tracer could not measure."""
    plain = session.child("run", seed)
    traced = session.child("run", seed, trace=True)
    curve = session.child("curve", seed)
    session.check_digests()

    values = {}
    for r in (traced, curve):
        values.update(r.get("layers", {}))
    if "total_s" in plain and "total_s" in traced:
        values["trace.overhead_s"] = traced["total_s"] - plain["total_s"]
    if "spans" in traced:
        (session.work / "spans.json").write_text(json.dumps(traced.pop("spans")))
    return values, traced.get("absent", {})


def environment() -> dict:
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    commit = None  # an exported source tree has no history
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except OSError:
            pass
    src_digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mgsched").rglob("*")):
        if path.suffix in (".py", ".json"):
            src_digest.update(path.relative_to(ROOT).as_posix().encode())
            src_digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mgsched" / "cli.py").is_file():
        print(f"no mgsched source tree under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # SystemExit unwinds through subprocess.run, which kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = environment()
    session = Session(args.workload, args.seed, bool(args.trace), env["src_sha256"])
    if args.trace:
        values, absent = trace(session, args.seed)
    else:
        values, absent = measure(session, args.seed, args.seconds), {}
    # BENCHMARK.json names the reported metrics and their units
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec if m["name"] in values}
    failed = session.failed()
    attempted = len(session.runs)
    (session.work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace, "environment": env,
         "metrics": metrics, "runs": session.runs}, indent=1, default=str))

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for r in failed:
        for message in r["failures"]:
            print(f"FAILED {r['tag']}: {message}")
    for m in spec:
        if m["name"] not in values:
            print(f"absent: {m['name']} ({absent.get(m['name'], 'no schedule produced it')})")
    print(f"{args.workload} seed {args.seed}: {attempted} attempted, {len(failed)} failed, "
          f"failed_frac {len(failed) / attempted:.3f} ratio")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

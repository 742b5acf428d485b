"""The benchmark's output checks (``bench/checks.py``) on a short
``mgsched run``.  They read the written tables back and re-solve the
selected charging LP from the run's own objects (the scenario runtime, the
pricing records, ``coordinator.upper_inputs``, ``LpProblem.columns``), so a
change to those that the benchmark's run would trip on fails here too."""

import checks

from mgsched import cli, coordinator, scenario


def test_benchmark_checks_pass_on_a_two_iteration_run(tmp_path, monkeypatch):
    results = {}

    def keep_result(module, name):
        target = getattr(module, name)

        def wrapper(*args, **kwargs):
            results[name] = target(*args, **kwargs)
            return results[name]

        monkeypatch.setattr(module, name, wrapper)

    keep_result(scenario, "prepare")
    keep_result(coordinator, "run_joint")
    assert cli.main(["run", "--seed", "1", "--iters", "2", "--out-dir", str(tmp_path)]) == 0
    values, failures = checks.check_run(results["prepare"], results["run_joint"], tmp_path)
    assert failures == []
    assert set(values) == {"dispatch_max_residual", "plan_residual", "highs_rel_diff"}

"""Every benchmark workload's traced run still finds every seam it wraps in the package."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_passes_its_checks(workload):
    # the tracer patches functions in metrics, zo_core, oracle, baselines,
    # lipschitz and the problem classes by name, so a trim that drops one of
    # them fails here rather than in the benchmark; each workload's output
    # check also runs against the problem's current storage
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    # one gradient per inner step of each evaluation, so a faster kernel shows
    # in problems.grad_s, not as fewer calls: hyperclean_wide makes 72
    # evaluations of 100 steps, logreg_traced 20 optimizer and 1 probe
    # evaluations of 150 steps
    steps = {"hyperclean_wide": 72 * 100, "logreg_traced": (20 + 1) * 150}
    if workload in steps:
        assert metrics["problems.grad_calls"]["value"] == steps[workload]
    if workload == "logreg_traced":
        # the metrics' one evaluation per run is the final iterate, new to the optimizer
        assert metrics["harness.metrics.probe_evals"]["value"] == 1
        assert metrics["harness.metrics.redundant_evals"]["value"] == 0

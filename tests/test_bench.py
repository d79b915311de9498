"""The benchmark's traced run still finds every seam it wraps in the package."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_logreg_run_passes_its_checks():
    # the tracer patches functions in metrics, zo_core and oracle by name, so a
    # trim that drops one of them fails here rather than in the benchmark
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "logreg_traced",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    # the metrics' one evaluation per run is the final iterate, new to the optimizer
    assert metrics["harness.metrics.probe_evals"]["value"] == 1
    assert metrics["harness.metrics.redundant_evals"]["value"] == 0

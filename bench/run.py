"""hozog benchmark: four tuning workloads, timed end to end and per layer.

One run, as the last stdout line a JSON object with correct, attempted,
failed and metrics (the end-to-end metrics, or with --trace 1 the
per-layer ones):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeat mode, every workload (or the --workload given) N times with seeds
1..N, each run in a fresh process, then each metric's median, quartiles
and spread next to its bound from BENCHMARK.json:

    python3 bench/run.py --repeat N [--workload NAME] [--seconds S] [--trace 0|1]

Exit status is 1 when an output check fails, 2 when the program's sources
are not beside the benchmark.
"""

from __future__ import annotations

import os
import sys

# Single-threaded BLAS and no worker override; both must be set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HOZOG_MAX_WORKERS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

SETUP_SLICE = 0.1  # seconds of set-up repeats before each tuning call
MIN_CALLS = 3


def measure(workload, seconds: float):
    """Alternate speed-probe blocks, set-up slices and tuning calls for about
    ``seconds``.

    Each round is a probe block, a slice of repeated set-ups and one tuning
    call; a last probe block closes the window.  A call starts only if it is
    expected to end less than half a call past the window.  Times are CPU
    seconds of the process, so waiting for a processor held by another
    process is left out, and are scaled to the reference speed with the
    probe blocks next to them (``speed``): a set-up slice with the block
    before it, a call with the mean of the blocks before and after it.  Only
    the first call's output is kept; every later one is compared with it.

    Returns the scaled per-slice median set-up times, the scaled call times,
    the wall times of the calls, the first output, whether every output
    equalled it, the evaluations attempted and failed, and the last spec.
    """
    blocks, slice_cpu, call_cpu, call_wall = [speed.probe_block()], [], [], []
    first, same, attempted, failed = None, True, 0, 0
    deadline = time.perf_counter() + seconds
    while len(call_wall) < MIN_CALLS or time.perf_counter() + call_wall[-1] / 2 < deadline:
        times = []
        slice_end = time.perf_counter() + SETUP_SLICE
        while not times or time.perf_counter() < slice_end:
            t0 = time.process_time()
            spec = workload.setup()
            times.append(time.process_time() - t0)
        slice_cpu.append(statistics.median(times))
        w0, c0 = time.perf_counter(), time.process_time()
        out = workload.run(spec)
        call_cpu.append(time.process_time() - c0)
        call_wall.append(time.perf_counter() - w0)
        blocks.append(speed.probe_block())
        a, f = workload.evaluations(out)
        attempted, failed = attempted + a, failed + f
        if first is None:
            first = out
        else:
            same = same and workload.same_output(first, out)
    ref = speed.PROBE_REF_S
    setups = [t * ref / blocks[i] for i, t in enumerate(slice_cpu)]
    calls = [t * ref / ((blocks[i] + blocks[i + 1]) / 2) for i, t in enumerate(call_cpu)]
    print("  probe blocks, ms: " + " ".join(f"{1e3 * b:.3f}" for b in blocks), file=sys.stderr)
    return setups, calls, call_wall, first, same, attempted, failed, spec


def run_once(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "hozog" / "__init__.py").is_file():
        print(f"bench: no hozog sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import hozog
    from hozog.oracle import evaluate
    from workloads import WORKLOADS

    if not Path(hozog.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: hozog imported from {hozog.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        workload = WORKLOADS[name](seed, Path(tmp))
        # warm-up: first-call costs stay out of the timings
        warm = workload.setup()
        evaluate(warm, np.zeros(warm.p))
        speed.probe_block()
        setup_times, call_times, call_wall, first, same, attempted, failed, spec = measure(
            workload, seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        errors = workload.check(spec, first)
        if not same:
            errors.append("repeated tuning calls gave different results")
        run_s = statistics.fmean(call_times)

        if trace:
            from tracer import Tracer, layer_metrics, traced

            tracer = Tracer()
            before = speed.probe_block()
            with traced(tracer):
                t0 = time.process_time()
                out = workload.run(spec)
                traced_cpu = time.process_time() - t0
            a, f = workload.evaluations(out)
            attempted, failed = attempted + a, failed + f
            if not workload.same_output(first, out):
                errors.append("the traced call gave a different result")
            values = layer_metrics(tracer)
            if values["zo_core.optimizer_evals"] != workload.optimizer_evals:
                errors.append(f"traced optimizer evaluations {values['zo_core.optimizer_evals']}, "
                              f"expected {workload.optimizer_evals}")
            tracer.dump(OUT_DIR / f"{name}-seed{seed}.spans.npz")
            # the probe runs slower while the spans are alive (the garbage
            # collector walks them), so the closing block runs after they are freed
            del tracer
            after = speed.probe_block()
            traced_s = traced_cpu * speed.PROBE_REF_S / ((before + after) / 2)
            values["bench.trace_overhead_s"] = traced_s - run_s
            declared = SPEC["per_layer"]
        else:
            values = {
                "setup_s": statistics.median(setup_times),
                "run_s": run_s,
                "evals_per_s": workload.required_evals / run_s,
                "peak_rss_mb": peak_rss_mb,
            }
            declared = SPEC["end_to_end"]

    for err in errors:
        print(f"bench: {name} seed {seed}: {err}", file=sys.stderr)
    print(f"{name} seed={seed} calls={len(call_times)} setup_slices={len(setup_times)} "
          f"attempted={attempted} failed={failed} wall_mean_s={statistics.fmean(call_wall):.4f}")
    print("  call seconds, wall: " + " ".join(f"{v:.4f}" for v in call_wall), file=sys.stderr)
    print("  call seconds, scaled: " + " ".join(f"{v:.4f}" for v in call_times), file=sys.stderr)
    for m in declared:
        print(f"  {m['name']:36s} {values[m['name']]:.6g} {m['unit']}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def repeat(names, n: int, seconds: float, trace: bool) -> int:
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    status = 0
    for name in names:
        runs = []
        for seed in range(1, n + 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
            if result is None or not result["correct"]:
                status = 1
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                if result is None:
                    continue
            runs.append(result)
            shown = "" if trace else "  ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} {shown}", flush=True)
        if not runs:
            continue
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{name}: {len(runs)} runs, failed share {shares}")
        for m in declared:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else float("nan")
            bound = f"bound {m['bound']:.3f}" if "bound" in m else ""
            print(f"  {m['name']:36s} median {med:.6g} {m['unit']:6s} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.3f} {bound}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, help="run each workload this many times")
    args = parser.parse_args(argv)
    if args.repeat:
        names = [args.workload] if args.workload else WORKLOAD_NAMES
        return repeat(names, args.repeat, args.seconds, bool(args.trace))
    if args.workload is None:
        parser.error("--workload is required without --repeat")
    return run_once(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

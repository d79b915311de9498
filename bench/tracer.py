"""Span tracing around hozog's module boundaries, applied from outside.

The tracer replaces module attributes (and a few class attributes) with
wrappers that record one span per call: name, start, end and parent span.
Spans are held in flat in-memory arrays while the traced call runs and are
written out once, after it ends.  Nothing in hozog is edited; removing the
patches restores the original functions.

Per-layer figures are derived from the spans afterwards.  A span's self
time is its duration minus the durations of its direct children, so the
self times of all spans add up to the root span's duration.
"""

from __future__ import annotations

import json
import time
from array import array
from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp

import hozog.baselines as baselines
import hozog.harness.metrics as metrics
import hozog.harness.runner as runner
import hozog.lipschitz as lipschitz
import hozog.oracle as oracle
import hozog.zo_core as zo_core
from hozog.errors import NonFiniteObjective
from hozog.problems import HyperCleanProblem, LogRegProblem, SyntheticBilevel

# span name -> layer it belongs to
LAYER = {
    "data_io.load_libsvm": "data_io",
    "harness.runner.build_objective": "harness.runner",
    "harness.runner.run_experiment": "harness.runner",
    "problems.inner_loss_grad": "problems",
    "problems.outer_value": "problems",
    "inner_solvers.solve": "inner_solvers",
    "oracle.evaluate": "oracle",
    "oracle.evaluate_batch": "oracle",
    "zo_core.run_hozog": "zo_core",
    "zo_core.meta_iter": "zo_core",
    "zo_core.sample_directions": "zo_core",
    "zo_core.hozog_step": "zo_core",
    "harness.metrics.compute_metrics": "harness.metrics",
    "harness.metrics.TraceWriter.__call__": "harness.metrics",
    "baselines.random_search": "baselines",
    "lipschitz.empirical_lipschitz": "lipschitz",
    "bench.residual": "bench",
}

PROBLEM_CLASSES = (LogRegProblem, HyperCleanProblem, SyntheticBilevel)


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names = list(LAYER)
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []
        self.suspended = False  # set while the benchmark itself calls a wrapped function
        self.grad_problem = None

    def open(self, name: str, **attrs) -> int:
        idx = len(self.name)
        self.name.append(self._name_id[name])
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        if attrs:
            self.attrs[idx] = attrs
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, **attrs) -> None:
        self.end[idx] = time.perf_counter_ns()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[self.name[idx]]} closed out of order")
        if attrs:
            self.attrs.setdefault(idx, {}).update(attrs)

    def current(self) -> int:
        return self._stack[-1] if self._stack else -1

    def span(self, name: str, fn, attrs_of=None, result_attrs=None):
        """Wrapper of ``fn`` that records one span per call."""

        def wrapper(*args, **kwargs):
            if self.suspended:
                return fn(*args, **kwargs)
            idx = self.open(name, **(attrs_of(*args, **kwargs) if attrs_of else {}))
            try:
                result = fn(*args, **kwargs)
            except NonFiniteObjective:
                self.close(idx, failed=True)
                raise
            except BaseException:
                self.close(idx)
                raise
            self.close(idx, **(result_attrs(result) if result_attrs else {}))
            return result

        return wrapper

    def dump(self, path) -> None:
        """Write the spans as one compressed .npz: per-span name index, start
        and end (ns), parent index (-1 for a root), the name table, and the
        attributes as JSON keyed by span index."""
        attrs = {i: {k: v for k, v in a.items() if k != "lam"} for i, a in self.attrs.items()}
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            names=np.array(self.names),
            attrs=np.array(json.dumps({str(i): a for i, a in attrs.items() if a})),
        )


def _lam_key(lam) -> bytes:
    return np.atleast_1d(np.asarray(lam, dtype=float)).tobytes()


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    t = tracer
    load = t.span("data_io.load_libsvm", runner.load_libsvm,
                  result_attrs=lambda ds: {"rows": len(ds)})
    patch(runner, "load_libsvm", load)
    patch(runner, "build_objective",
          t.span("harness.runner.build_objective", runner.build_objective))
    patch(runner, "run_experiment",
          t.span("harness.runner.run_experiment", runner.run_experiment))

    run_hozog = t.span("zo_core.run_hozog", zo_core.run_hozog)
    patch(zo_core, "run_hozog", run_hozog)
    patch(runner, "run_hozog", run_hozog)
    search = t.span("baselines.random_search", baselines.random_search)
    patch(baselines, "random_search", search)
    patch(runner, "random_search", search)
    patch(lipschitz, "empirical_lipschitz",
          t.span("lipschitz.empirical_lipschitz", lipschitz.empirical_lipschitz,
                 attrs_of=lambda spec, box, n_pairs, *a, **k: {"pairs": n_pairs}))

    def grad_span(fn):
        def wrapper(problem, w, lam):
            if t.suspended:
                return fn(problem, w, lam)
            if t.grad_problem is None:
                t.grad_problem = problem
            idx = t.open("problems.inner_loss_grad")
            try:
                return fn(problem, w, lam)
            finally:
                t.close(idx)
        return wrapper

    for cls in PROBLEM_CLASSES:
        patch(cls, "inner_loss_grad", grad_span(cls.inner_loss_grad))
        patch(cls, "outer_value", t.span("problems.outer_value", cls.outer_value))

    solve = oracle.solve

    def traced_solve(loss_grad, alg, lam):
        idx = t.open("inner_solvers.solve", steps=alg.steps)
        try:
            w = solve(loss_grad, alg, lam)
        finally:
            t.close(idx)
        # the residual is the benchmark's own extra gradient, kept out of the
        # solver's and the problem's figures by its own span
        res = t.open("bench.residual")
        t.suspended = True
        try:
            norm = float(np.linalg.norm(loss_grad(w, lam)))
        finally:
            t.suspended = False
            t.close(res, residual=norm)
        return w

    patch(oracle, "solve", traced_solve)

    evaluate = t.span("oracle.evaluate", oracle.evaluate,
                      attrs_of=lambda spec, lam: {"lam": _lam_key(lam)})
    for module in (oracle, zo_core, baselines, metrics):
        patch(module, "evaluate", evaluate)
    batch = t.span("oracle.evaluate_batch", oracle.evaluate_batch,
                   attrs_of=lambda spec, lams, *a, **k: {"width": len(lams)})
    for module in (zo_core, lipschitz):
        patch(module, "evaluate_batch", batch)

    # A meta-iteration runs from its direction draw to its descent step.
    sample_directions, hozog_step = zo_core.sample_directions, zo_core.hozog_step

    def traced_sample(*args, **kwargs):
        t.open("zo_core.meta_iter")
        idx = t.open("zo_core.sample_directions")
        try:
            return sample_directions(*args, **kwargs)
        finally:
            t.close(idx)

    def traced_step(*args, **kwargs):
        idx = t.open("zo_core.hozog_step")
        try:
            return hozog_step(*args, **kwargs)
        finally:
            t.close(idx)
            t.close(t.current())

    patch(zo_core, "sample_directions", traced_sample)
    patch(zo_core, "hozog_step", traced_step)

    patch(metrics, "compute_metrics",
          t.span("harness.metrics.compute_metrics", metrics.compute_metrics))
    patch(metrics.TraceWriter, "__call__",
          t.span("harness.metrics.TraceWriter.__call__", metrics.TraceWriter.__call__))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _matrix_bytes(m) -> int:
    if sp.issparse(m):
        return int(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
    return int(np.asarray(m).nbytes)


def grad_bytes_computed(problem) -> int:
    """Bytes the matrix products of one inner_loss_grad call read, from array sizes.

    Both problems with a design matrix read it twice per gradient (forward
    product and transposed product) plus the other operand of each product.
    The synthetic problem has no matrix product.
    """
    if isinstance(problem, LogRegProblem):
        n, d = problem.x_train.shape
        return 2 * _matrix_bytes(problem.x_train) + 8 * d + 8 * n
    if isinstance(problem, HyperCleanProblem):
        n, d = problem.x_train.shape
        k = problem.n_classes
        return 2 * _matrix_bytes(problem.x_train) + 8 * k * d + 8 * n * k
    return 0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the recorded spans (values only, no units)."""
    t = tracer
    n = len(t.name)
    names = np.frombuffer(t.name, dtype=np.int32)
    start = np.frombuffer(t.start, dtype=np.int64)
    end = np.frombuffer(t.end, dtype=np.int64)
    parent = np.frombuffer(t.parent, dtype=np.int64)
    dur = (end - start) / 1e9
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def ids(name):
        return np.flatnonzero(names == t._name_id[name])

    def total(name, values=dur):
        return float(values[ids(name)].sum())

    def median(name, scale):
        sel = ids(name)
        return float(np.median(dur[sel]) * scale) if sel.size else 0.0

    def layer_self(layer):
        return sum(total(name, self_time) for name, owner in LAYER.items() if owner == layer)

    def attr(idx, key, default=None):
        return t.attrs.get(int(idx), {}).get(key, default)

    # each evaluation belongs to its nearest ancestor among these callers
    callers = {
        t._name_id["zo_core.meta_iter"]: "optimizer",
        t._name_id["harness.metrics.compute_metrics"]: "probe",
        t._name_id["baselines.random_search"]: "baselines",
    }
    batch_id = t._name_id["oracle.evaluate_batch"]
    evals = ids("oracle.evaluate")
    optimizer_lams: set = set()
    optimizer_evals = probe_evals = redundant = samples = diverged = unbatched = 0
    for idx in evals:  # spans are stored in start order
        up = parent[idx]
        if up < 0 or names[up] != batch_id:
            unbatched += 1
        caller = None
        while up >= 0:
            caller = callers.get(int(names[up]))
            if caller:
                break
            up = parent[up]
        key = attr(idx, "lam")
        if caller == "optimizer":
            optimizer_evals += 1
            optimizer_lams.add(key)
        elif caller == "probe":
            probe_evals += 1
            redundant += key in optimizer_lams
        elif caller == "baselines":
            samples += 1
            diverged += bool(attr(idx, "failed", False))

    load_s = total("data_io.load_libsvm")
    rows = sum(attr(i, "rows", 0) for i in ids("data_io.load_libsvm"))
    residuals = [attr(i, "residual", 0.0) for i in ids("bench.residual")]
    widths = [attr(i, "width") for i in ids("oracle.evaluate_batch")]
    return {
        "data_io.load_s": load_s,
        "data_io.rows_per_s": rows / load_s if load_s > 0 else 0.0,
        "harness.runner.build_objective_s": total("harness.runner.build_objective"),
        "problems.grad_calls": int(ids("problems.inner_loss_grad").size),
        "problems.grad_us_p50": median("problems.inner_loss_grad", 1e6),
        "problems.grad_s": total("problems.inner_loss_grad"),
        "problems.grad_bytes_computed": grad_bytes_computed(t.grad_problem),
        "problems.outer_s": total("problems.outer_value"),
        "inner_solvers.solve_ms_p50": median("inner_solvers.solve", 1e3),
        "inner_solvers.steps": int(sum(attr(i, "steps", 0) for i in ids("inner_solvers.solve"))),
        "inner_solvers.self_s": layer_self("inner_solvers"),
        "inner_solvers.residual_max": float(max(residuals)) if residuals else 0.0,
        "oracle.evaluations": int(evals.size),
        "oracle.evaluate_ms_p50": median("oracle.evaluate", 1e3),
        "oracle.self_s": layer_self("oracle"),
        "oracle.batch_width_mean": float(np.mean(widths)) if widths else 0.0,
        "oracle.unbatched_evals": unbatched,
        "zo_core.meta_iter_ms_p50": median("zo_core.meta_iter", 1e3),
        "zo_core.self_s": layer_self("zo_core"),
        "zo_core.optimizer_evals": optimizer_evals,
        "harness.metrics.probe_s": total("harness.metrics.compute_metrics"),
        "harness.metrics.probe_evals": probe_evals,
        "harness.metrics.redundant_evals": redundant,
        "harness.metrics.writer_self_s": total("harness.metrics.TraceWriter.__call__", self_time),
        "baselines.samples": samples,
        "baselines.diverged": diverged,
        "baselines.self_s": layer_self("baselines"),
        "lipschitz.pairs": int(sum(attr(i, "pairs", 0) for i in ids("lipschitz.empirical_lipschitz"))),
        "lipschitz.self_s": layer_self("lipschitz"),
    }

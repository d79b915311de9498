"""The determinism contract on every path: a run is a pure function of (problem, lambda0, config).

Each problem of the shared table (``CONFIGS`` in conftest.py) is rebuilt from
its config under each variant and run through ``run_hozog``, ``random_search``
and ``empirical_lipschitz``.  ``empirical_lipschitz`` and ``random_search``
evaluate their points through ``evaluate_batch``, so the 8 Lipschitz points
go through one block solve of 8 models and the 6 samples through one of 6,
and the BLAS thread count must not change those blocks' bits either.
lambda_T, each event's f, model and gradient, each sample's f, the incumbent
and the Lipschitz ratio must be the plain run's bitwise.  The storage rows
change only the summation order, and the one-column blocks solve each point
on its own, where BLAS may pick another kernel than for the block, so those
rows hold to 1e-12 relative (``TestStorage``'s tolerance).  A new path adds
its row to ``VARIANTS``.
"""

import contextlib
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

import hozog.baselines as baselines
import hozog.lipschitz as lipschitz
import hozog.oracle as oracle
import hozog.zo_core as zo_core
from conftest import CONFIGS, build
from hozog import InnerSolver, RandomSearchConfig
from hozog.data_io import random_classification_dataset, split_2_1_1
from hozog.problems import LogRegProblem, logreg_objective
from tracer import Tracer, traced

HOZOG = {"q": 3, "mu": 0.5, "gamma": 0.5, "iterations": 4, "seed": 7}
# each row's context, storage of the problem's x_* matrices, run keywords and rtol
VARIANTS = {
    "rerun": {},
    "max_workers=4": {"max_workers": 4},
    "traced": {"context": lambda: traced(Tracer())},
    "csr": {"storage": sp.csr_matrix, "rtol": 1e-12},
    "dense": {"storage": lambda m: m.toarray() if sp.issparse(m) else m, "rtol": 1e-12},
    "block_width=1": {"context": lambda: mock.patch.object(oracle, "BLOCK_WIDTH", 1),
                      "rtol": 1e-12},
}


def outputs(name, data, context=contextlib.nullcontext, storage=None, **run_kwargs):
    """Build problem ``name`` from its config and run the three methods on it."""
    with context():
        cfg, spec = build(name, data, HOZOG)
        if storage is not None:
            prob = spec.problem
            stored = {f.name: storage(getattr(prob, f.name))
                      for f in dataclasses.fields(prob) if f.name.startswith("x_")}
            spec = dataclasses.replace(spec, problem=dataclasses.replace(prob, **stored))
        events = []
        final = zo_core.run_hozog(spec, np.full(spec.p, cfg.lambda0), cfg.hozog,
                                  recorder=events.append, **run_kwargs)
        box = [[-2.0, 2.0]] * spec.p
        search = RandomSearchConfig(budget=6, box=box, seed=8)
        samples = []
        incumbent = baselines.random_search(spec, search, recorder=samples.append, **run_kwargs)
        report = lipschitz.empirical_lipschitz(spec, box, n_pairs=4, seed=9, **run_kwargs)
    return {
        "lambda_T": final,
        "f": np.array([e.evaluation.f_value for e in events]),
        "model": np.array([e.evaluation.model for e in events]),
        "gradient": np.array([e.gradient for e in events]),
        "search_f": np.array([e.evaluation.f_value for e in samples]),
        "incumbent": incumbent,
        "ratio": np.array([report.empirical_max_ratio]),
    }


def assert_same(got, want, rtol=0.0):
    for key, expected in want.items():
        if rtol:
            assert np.linalg.norm(got[key] - expected) <= rtol * np.linalg.norm(expected), key
        else:
            assert got[key].tobytes() == expected.tobytes(), key


@pytest.fixture(scope="module")
def plain(data):
    return {problem: outputs(problem, data) for problem in CONFIGS}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("problem", CONFIGS)
def test_every_path_gives_the_plain_runs_outputs(data, plain, problem, variant):
    options = dict(VARIANTS[variant])
    rtol = options.pop("rtol", 0.0)
    assert_same(outputs(problem, data, **options), plain[problem], rtol)


def at_one_and_two_blas_threads(child, *args):
    """The unpickled stdout of Python code ``child`` run at 1 and at 2 BLAS threads."""
    tests = Path(__file__).resolve().parent
    roots = [str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH")]
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, roots))}
        out = subprocess.run([sys.executable, "-c", child, *args], env=env, capture_output=True)
        assert out.returncode == 0, out.stderr.decode()
        runs.append(pickle.loads(out.stdout))
    return runs


def test_blas_thread_count_changes_no_bit(data):
    child = (  # importing conftest puts bench/ on the path
        "import conftest, pickle, sys\nfrom test_determinism import CONFIGS, outputs\n"
        "sys.stdout.buffer.write(pickle.dumps({p: outputs(p, sys.argv[1]) for p in CONFIGS}))"
    )
    runs = at_one_and_two_blas_threads(child, str(data))
    for problem in CONFIGS:
        assert_same(runs[1][problem], runs[0][problem])


def acceptance_4_search():
    """``random_search`` at the acceptance-4 shape: the incumbent and each sample's f."""
    data = random_classification_dataset(2000, 40, seed=100, class_sep=2.0, noise_flip=0.05)
    spec = logreg_objective(LogRegProblem.from_datasets(*split_2_1_1(data, seed=0)),
                            InnerSolver(steps=150, lr=0.1, variant="adam"))
    samples = []
    cfg = RandomSearchConfig(budget=64, box=[[-10.0, 10.0]], seed=1)
    incumbent = baselines.random_search(spec, cfg, recorder=samples.append)
    return {"incumbent": incumbent, "search_f": np.array([e.evaluation.f_value for e in samples])}


def test_blas_thread_count_moves_a_realistic_search_by_rounding_only():
    """A 64-column block of 1000 x 40 logreg products is wide enough for
    BLAS to split it differently at 2 threads, so f may move in its last
    bits (measured: 2.9e-16 relative).  The incumbent must not move."""
    child = (
        "import conftest, pickle, sys\nfrom test_determinism import acceptance_4_search\n"
        "sys.stdout.buffer.write(pickle.dumps(acceptance_4_search()))"
    )
    one, two = at_one_and_two_blas_threads(child)
    assert two["incumbent"].tobytes() == one["incumbent"].tobytes()
    np.testing.assert_allclose(two["search_f"], one["search_f"], rtol=1e-12, atol=0)

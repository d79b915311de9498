"""The determinism contract on every path: a run is a pure function of (problem, lambda0, config).

Each problem of the shared table (``CONFIGS`` in conftest.py) is rebuilt from
its config under each variant and run through ``run_hozog``, ``random_search``
and ``empirical_lipschitz``.  ``empirical_lipschitz`` evaluates its points
through ``evaluate_batch``, so its 8 points go through one block solve of
8 models, and the BLAS thread count must not change that block's bits either.
lambda_T, each event's f, model and gradient, the incumbent and the Lipschitz
ratio must be the plain run's bitwise; the storage rows change only the
summation order, so they hold to 1e-12 relative (``TestStorage``'s
tolerance).  A new path adds its row to ``VARIANTS``.
"""

import contextlib
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import hozog.baselines as baselines
import hozog.lipschitz as lipschitz
import hozog.zo_core as zo_core
from conftest import CONFIGS, build
from hozog import RandomSearchConfig
from tracer import Tracer, traced

HOZOG = {"q": 3, "mu": 0.5, "gamma": 0.5, "iterations": 4, "seed": 7}
# each row's context, storage of the problem's x_* matrices, run keywords and rtol
VARIANTS = {
    "rerun": {},
    "max_workers=4": {"max_workers": 4},
    "traced": {"context": lambda: traced(Tracer())},
    "csr": {"storage": sp.csr_matrix, "rtol": 1e-12},
    "dense": {"storage": lambda m: m.toarray() if sp.issparse(m) else m, "rtol": 1e-12},
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
        incumbent = baselines.random_search(spec, search, **run_kwargs)
        report = lipschitz.empirical_lipschitz(spec, box, n_pairs=4, seed=9, **run_kwargs)
    return {
        "lambda_T": final,
        "f": np.array([e.evaluation.f_value for e in events]),
        "model": np.array([e.evaluation.model for e in events]),
        "gradient": np.array([e.gradient for e in events]),
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


def test_blas_thread_count_changes_no_bit(data):
    tests = Path(__file__).resolve().parent
    roots = [str(tests), str(tests.parent / "src"), os.environ.get("PYTHONPATH")]
    child = (  # importing conftest puts bench/ on the path
        "import conftest, pickle, sys\nfrom test_determinism import CONFIGS, outputs\n"
        "sys.stdout.buffer.write(pickle.dumps({p: outputs(p, sys.argv[1]) for p in CONFIGS}))"
    )
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, roots))}
        out = subprocess.run([sys.executable, "-c", child, str(data)], env=env, capture_output=True)
        assert out.returncode == 0, out.stderr.decode()
        runs.append(pickle.loads(out.stdout))
    for problem in CONFIGS:
        assert_same(runs[1][problem], runs[0][problem])

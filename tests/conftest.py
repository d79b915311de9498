import csv
import sys
from pathlib import Path

import pytest
from hypothesis import settings

import hozog.harness.runner as runner
from hozog.data_io import random_classification_dataset, serialize_libsvm, split_2_1_1
from hozog.harness.config import config_from_dict
from hozog.inner_solvers import InnerSolver
from hozog.problems import LogRegProblem, logreg_objective

# the benchmark's modules (workloads, tracer) import as top-level names
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

# one profile for every property test: an inner solve per example outlasts the default deadline
settings.register_profile("hozog", deadline=None)
settings.load_profile("hozog")

# The one problem table that test_determinism.py and test_problem_contract.py
# both run over; a new problem or inner kernel adds its row here.  logreg and
# hyper-cleaning read their rows from the ``data`` fixture's 3-class file.
CONFIGS = {
    "synthetic": {"problem": {"kind": "synthetic", "c": 3.0, "w_star": 1.0},
                  "inner": {"variant": "gd", "steps": 60, "lr": 0.1}},
    "synthetic_closed_form": {"problem": {"kind": "synthetic", "c": 3.0, "w_star": 1.0}},
    "logreg": {"problem": {"kind": "logreg", "binarize_seed": 4, "split_seed": 2},
               "inner": {"steps": 60}},
    "hyperclean": {"problem": {"kind": "hyperclean", "n_train": 100, "n_val": 70, "n_test": 70,
                               "n_groups": 5, "corruption_seed": 3}, "inner": {"steps": 60}},
}


def overflowing_logreg():
    """Logreg with GD at lr 0.1 for 150 steps, whose ridge term makes the model
    grow by |1 - 0.2 e^lam| a step.  In lam (6.3348, 6.3499) the trained model
    is finite but its validation log-loss overflows; the solve diverges above."""
    data = random_classification_dataset(400, 20, seed=5, class_sep=2.0, noise_flip=0.05)
    prob = LogRegProblem.from_datasets(*split_2_1_1(data, seed=0))
    return logreg_objective(prob, InnerSolver(steps=150, lr=0.1))


def build(name, data, hozog=None):
    """Row ``name`` of ``CONFIGS`` as a hozog-run config and the objective it builds."""
    raw = CONFIGS[name]
    problem = raw["problem"]
    if problem["kind"] != "synthetic":
        problem = {**problem, "data": str(data)}
    cfg = config_from_dict({"method": "hozog", **raw, "problem": problem, "hozog": hozog or {}})
    return cfg, runner.build_objective(cfg)


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import REPORTED_LINES
    except ImportError:
        return
    if REPORTED_LINES:
        terminalreporter.section("acceptance criteria")
        for line in REPORTED_LINES:
            terminalreporter.write_line(line)


def read_trace(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def rows_excluding_wall_time(path):
    return [
        {k: v for k, v in row.items() if k != "wall_time_s"} for row in read_trace(path)
    ]


@pytest.fixture(scope="session")
def data(tmp_path_factory):
    path = tmp_path_factory.mktemp("problems") / "multi.libsvm"
    path.write_text(serialize_libsvm(random_classification_dataset(240, 6, n_classes=3, seed=23)))
    return path


@pytest.fixture
def logreg_file(tmp_path):
    ds = random_classification_dataset(120, 8, seed=21, class_sep=2.0)
    path = tmp_path / "binary.libsvm"
    path.write_text(serialize_libsvm(ds))
    return path


@pytest.fixture
def multiclass_file(tmp_path):
    ds = random_classification_dataset(200, 6, n_classes=3, seed=22, class_sep=2.5)
    path = tmp_path / "multi.libsvm"
    path.write_text(serialize_libsvm(ds))
    return path

import csv
import sys
from pathlib import Path

import pytest

from hozog.data_io import random_classification_dataset, serialize_libsvm

# the benchmark's modules (workloads, tracer) import as top-level names
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))


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

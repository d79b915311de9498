"""One property over every CLI command: whatever a config's leaves hold, the CLI
keeps its contract.

Each example draws a valid config (or a tiny LIBSVM file, for ``parse-data``)
and replaces one or two of its leaves with odd values.  ``cli.main`` runs in
process; ``filterwarnings = error`` turns any Python warning (numpy's
overflow warnings included) into an exception that fails the example.
"""

import contextlib
import copy
import io
import json
import os
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hozog.data_io import random_classification_dataset, serialize_libsvm
from hozog.harness.cli import main as cli_main

MISSING = object()  # the key is left out
# half the draws are numbers a leaf may hold, so that some runs reach the solve
FINITE = [1e308, -1e308, 1e300, 1e-300, 700.0, 0.5, 2.5, 0, 1, 2, -1]
LEAF_VALUES = st.sampled_from(FINITE) | st.sampled_from([
    10**400, -(10**400),  # past the double range
    float("nan"), float("inf"), float("-inf"),  # json.dumps writes NaN and Infinity
    5e-324, -5e-324, 1e-310,  # denormals
    True, False, None,
    "", "a", "sphere", "a\nb", "\u0000", "x\u0000y", "\ud800",
    [], [0.5], [[0, 1]], {}, {"a": 1},
    MISSING,
])
# sweep --values tokens, as ast.literal_eval reads them: values every axis takes, odd ones
VALUE_TOKENS = st.sampled_from(["0.1", "0.2", "1", "2", "3"]) | st.sampled_from(
    ["0", "-1", "nan", "1e400", "5e-324", "1e308", "1e-300", "True", "None", "'a'", "[1]", "{}",
     "()", "1j", "x", "1" + "0" * 400])
# tokens a LIBSVM line may hold in place of one of its own
LINE_TOKENS = ["nan", "inf", "1e400", "0:1", "2147483648:1", "1:2:3", "\u0000", "é",
               "", "1:", ":1", "-1:1", "9" * 5000 + ":1", "3:1 2:1"]

PROBLEMS = {
    "synthetic": {"kind": "synthetic", "c": 3.0, "w_star": 1.0},
    "logreg": {"kind": "logreg", "data": "data.libsvm", "split_seed": 0, "binarize_seed": 1},
    "hyperclean": {"kind": "hyperclean", "data": "data.libsvm", "n_train": 12, "n_val": 6,
                   "n_test": 6, "n_groups": 2, "corruption_seed": 0},
}


def valid_config(command: str, method: str, kind: str) -> dict:
    """A small config that ``command`` runs in well under a second."""
    p = PROBLEMS[kind].get("n_groups", 1)
    box = [[-1.0, 1.0] for _ in range(p)]  # rows apart, so that a replacement edits one
    common = {"problem": dict(PROBLEMS[kind]), "inner": {"variant": "gd", "steps": 3, "lr": 0.05},
              "max_workers": 1}
    if command == "lipschitz-report":
        return {**common, "box": box, "n_pairs": 3, "seed": 0, "output": "report.json"}
    section = (
        {"hozog": {"q": 2, "mu": 0.01, "gamma": 0.05, "iterations": 2, "seed": 0,
                   "direction_scheme": "sphere"}}
        if method == "hozog"
        else {"random_search": {"budget": 3, "box": box, "seed": 0}}
    )
    return {"method": method, **common, **section, "lambda0": [0.0] * p, "output": "trace.csv",
            "metric_every": 1}


def leaf_paths(node, path=()):
    """The path of every value below ``node``, sections and list entries included."""
    if not isinstance(node, (dict, list)):
        return
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,)
        yield from leaf_paths(child, path + (key,))


def replaced(cfg, path, value):
    """``cfg`` with the value at ``path`` replaced by ``value``, or removed for MISSING."""
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)  # a later replacement may edit it
    return cfg


@st.composite
def invocations(draw):
    """An argv and the files it reads, as {name: text}."""
    ds = random_classification_dataset(draw(st.integers(24, 32)), 3, draw(st.sampled_from([2, 3])),
                                       seed=draw(st.integers(0, 3)))
    text = serialize_libsvm(ds)
    command = draw(st.sampled_from(["run", "sweep", "lipschitz-report", "parse-data"]))
    if command == "parse-data":
        if draw(st.booleans()):
            lines = text.splitlines()
            row = draw(st.integers(0, len(lines) - 1))
            tokens = lines[row].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(LINE_TOKENS))
            lines[row] = " ".join(tokens)
            text = "\n".join(lines) + "\n"
        summary = draw(st.sampled_from([[], ["--summary"]]))
        return ["parse-data", "--input", "data.libsvm", *summary], {"data.libsvm": text}
    method = "hozog" if command == "sweep" else draw(st.sampled_from(["hozog", "random_search"]))
    cfg = valid_config(command, method, draw(st.sampled_from(sorted(PROBLEMS))))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(leaf_paths(cfg))
        if paths:
            replaced(cfg, draw(st.sampled_from(paths)), draw(LEAF_VALUES))
    argv = [command, "--config", "config.json"]
    if command == "sweep":
        tokens = draw(st.lists(VALUE_TOKENS, min_size=1, max_size=3))
        # both forms, since argparse reads a token with a leading "-1" as an option,
        # and any abbreviation of --values argparse takes
        option = draw(st.sampled_from(["--v", "--va", "--val", "--valu", "--value", "--values"]))
        values = draw(st.sampled_from([lambda v: [f"{option}={v}"], lambda v: [option, v]]))
        argv += ["--axis", draw(st.sampled_from(["q", "mu", "gamma"])), *values(",".join(tokens))]
    return argv, {"config.json": json.dumps(cfg), "data.libsvm": text}


@contextlib.contextmanager
def inside(directory):
    before = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(before)


# Time budget: 20 s.  The 500 examples took about 2 s on a 2-core Xeon; no
# example runs more than a few small inner solves.
@settings(max_examples=500, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_command_exits_with_a_code_and_at_most_one_line(invocation):
    argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp, inside(tmp):
        for name, text in files.items():
            Path(name).write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(argv)
        out, err = out.getvalue(), err.getvalue()
        manifests = sorted(Path().glob("*.manifest.json"))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    # sweep reports a failed value on stdout, in the line run would print
    failed_values = re.findall(r"^\S+: FAILED \(.*\)$", out, re.MULTILINE)
    if code == 0 or failed_values:
        assert err == "", err
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
    assert bool(failed_values) <= (argv[0] == "sweep" and code != 0)
    # a run that fails leaves no manifest; sweep writes one per value that succeeds
    if argv[0] == "sweep":
        assert len(manifests) == out.count(": ok -> "), (manifests, out)
    else:
        assert len(manifests) == (argv[0] == "run" and code == 0), (manifests, out)

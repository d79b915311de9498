"""README.md's examples work: its JSON config blocks load, and its Python quickstart runs."""

import json
import re
from pathlib import Path

import pytest

from hozog.harness.config import config_from_dict, lipschitz_config

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"```json\n(.*?)```", TEXT, re.DOTALL)
PYTHON_BLOCKS = re.findall(r"```python\n(.*?)```", TEXT, re.DOTALL)


def test_readme_shows_an_experiment_and_a_report_config():
    assert sorted("method" in json.loads(block) for block in BLOCKS) == [False, True]


@pytest.mark.parametrize("block", BLOCKS, ids=range(len(BLOCKS)))
def test_readme_config_loads(tmp_path, logreg_file, block):
    raw = json.loads(block)
    if "data" in raw["problem"]:
        raw["problem"]["data"] = str(logreg_file)
    raw["output"] = str(tmp_path / raw["output"])
    cfg = config_from_dict(raw) if "method" in raw else lipschitz_config(raw)
    assert cfg.output == raw["output"]
    assert cfg.inner.variant == raw["inner"]["variant"]


def test_readme_quickstart_runs(capsys):
    assert len(PYTHON_BLOCKS) == 1
    exec(compile(PYTHON_BLOCKS[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("tuned log-ridge weight: [")

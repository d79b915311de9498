"""The JSON config blocks in README.md load through the config parsers."""

import json
import re
from pathlib import Path

import pytest

from hozog.harness.config import config_from_dict, lipschitz_config

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)


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

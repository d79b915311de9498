"""Every module under ``src/hozog`` parses as the oldest Python that
``pyproject.toml``'s ``requires-python`` admits.

This checks syntax only: ``ast.parse`` with ``feature_version`` refuses
grammar newer than that version (``except*`` before 3.11, for one).  It does
not see a library API the older version lacks, such as a ``re`` feature added
later; only importing the package under that version would.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "hozog").rglob("*.py"))
# read with a regex: tomllib is not in the standard library before 3.11
OLDEST = tuple(
    int(part)
    for part in re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.MULTILINE
    ).groups()
)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT / "src")))
def test_a_module_parses_as_the_oldest_version(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=OLDEST)


def test_newer_syntax_is_refused():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=OLDEST)

"""Every ```python block of the README runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{n}" for n in range(len(BLOCKS))])
def test_python_block_runs(source, capsys):
    exec(compile(source, f"{README.name} block", "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out

"""Every ```python block of README.md runs as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_block_runs(block):
    exec(compile(block, str(README), "exec"), {})


def test_module_map_has_a_row_for_every_module():
    text = README.read_text(encoding="utf-8")
    modules = sorted(p.stem for p in (README.parent / "src" / "meetpd").glob("*.py")
                     if p.stem != "__init__")
    assert modules
    assert [m for m in modules if f"| `meetpd.{m}` |" not in text] == []

"""The README's library quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.S | re.M)


def test_quick_start_runs(capsys):
    (block,) = _python_blocks()
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    solution = namespace["solution"]
    assert solution.trajectory.pos.shape == (100, 2)
    assert capsys.readouterr().out.split()[0] in ("True", "False")

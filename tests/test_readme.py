"""The README's Library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, "README.md (Library)", "exec"), {})
    assert capsys.readouterr().out == (
        "{'identity': 'rogers_ramanujan_1', 'N': 1000, 'passed': True, 'first_failure': None}\n"
    )

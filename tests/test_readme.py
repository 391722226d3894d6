"""The README's code runs against the public API as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_code_block(heading):
    """The first ```python block under the given '## ' heading."""
    text = README.read_text()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"^```python\n(.*?)^```$", section, flags=re.DOTALL | re.MULTILINE)
    assert match, f"no python block under '## {heading}'"
    return match.group(1)


def test_library_quick_start_runs_as_written():
    code = readme_code_block("Library quick start")
    namespace = {"__name__": "readme_quick_start"}
    exec(compile(code, f"{README}:Library quick start", "exec"), namespace)
    assert namespace["pot"].v_values.shape[0] > 0

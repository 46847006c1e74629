"""The README's library example runs as written.

Run as a script (``python tests/test_readme.py``), it executes the same
block against whichever kancheck is importable, such as an installed one.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The first python block under the README's ``## Library example``."""
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def run_example() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    return out.getvalue()


def test_library_example_runs_and_prints_the_unfillable_horn():
    assert run_example() == "(1, 2)\n(1, 2)\n"


if __name__ == "__main__":
    print(run_example(), end="")

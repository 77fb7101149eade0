"""The README's library example runs as written against the library."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _block_after(heading: str) -> str:
    """The first ```python block after the line ``heading``."""
    text = README.read_text(encoding="utf-8")
    rest = text[text.index("\n" + heading + "\n"):]
    return re.search(r"```python\n(.*?)```", rest, re.DOTALL).group(1)


def test_library_quick_start_runs(capsys):
    exec(compile(_block_after("## Library quick start"), str(README), "exec"),
         {})
    verdict, gof = capsys.readouterr().out.splitlines()
    assert verdict.split()[0] in ("True", "False")
    assert gof.split()[0] in ("True", "False")

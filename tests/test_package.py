"""The package's public surface: every export resolves, and the README's
library example runs as written."""

import math
import pathlib
import re

import accband

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_every_export_resolves():
    assert len(set(accband.__all__)) == len(accband.__all__)
    assert [name for name in accband.__all__ if not hasattr(accband, name)] == []


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(example, {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2
    assert all(math.isfinite(float(value)) for value in printed)

"""The package's public surface: every export resolves, and the README's
library example runs as written."""

import ast
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


def _numpy_random_uses(path):
    """(line, text) of each import of numpy.random in one source file, and
    of each .random attribute taken on a name bound to numpy."""
    tree = ast.parse(path.read_text(), filename=str(path))
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names.update(alias.asname for alias in node.names
                               if alias.name == "numpy" and alias.asname)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name.startswith("numpy.random")]
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("numpy.random") or (
                    node.module == "numpy"
                    and any(alias.name == "random" for alias in node.names)):
                found.append((node.lineno, f"from {node.module} import ..."))
        elif (isinstance(node, ast.Attribute) and node.attr == "random"
              and isinstance(node.value, ast.Name) and node.value.id in numpy_names):
            found.append((node.lineno, f"{node.value.id}.random"))
    return found


def test_library_never_uses_numpy_random():
    """No module of the library imports numpy.random or reaches it as an
    attribute, so no run mode pays for loading it."""
    package = pathlib.Path(accband.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) >= 10
    found = {path.name: uses for path in sources if (uses := _numpy_random_uses(path))}
    assert found == {}


def test_numpy_random_scan_finds_each_form(tmp_path):
    forms = ["import numpy as np\nphase = np.random.default_rng(0)\n",
             "import numpy\nphase = numpy.random.default_rng(0)\n",
             "import numpy.random\n",
             "from numpy.random import default_rng\n",
             "from numpy import random\n"]
    for i, text in enumerate(forms):
        path = tmp_path / f"form{i}.py"
        path.write_text(text)
        assert _numpy_random_uses(path), text
    clean = tmp_path / "clean.py"
    clean.write_text("import random\nimport numpy as np\nx = random.random()\n")
    assert _numpy_random_uses(clean) == []

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


def _module_uses(path, module):
    """(line, text) of each import of `module` or a submodule of it in one
    source file and, for a dotted module such as numpy.random, of each
    attribute taken by its last name on a name bound to its parent. A
    relative import names a module of the package the file lies in."""
    tree = ast.parse(path.read_text(), filename=str(path))
    package = path.parent.name
    parent, _, leaf = module.rpartition(".")

    def within(name):
        return name == module or name.startswith(module + ".")

    parent_names = {parent}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            parent_names.update(alias.asname for alias in node.names
                                if alias.name == parent and alias.asname)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if within(alias.name)]
        elif isinstance(node, ast.ImportFrom):
            source = ".".join(filter(None, [package if node.level else "", node.module]))
            if within(source) or (
                    source == parent
                    and any(alias.name == leaf for alias in node.names)):
                found.append((node.lineno, f"from {source} import ..."))
        elif (parent and isinstance(node, ast.Attribute) and node.attr == leaf
              and isinstance(node.value, ast.Name) and node.value.id in parent_names):
            found.append((node.lineno, f"{node.value.id}.{leaf}"))
    return found


def _library_uses(module):
    """{file name: uses} of `module` over every source file of the library."""
    package = pathlib.Path(accband.__file__).resolve().parent
    sources = sorted(package.glob("*.py"))
    assert len(sources) >= 10
    return {path.name: uses for path in sources if (uses := _module_uses(path, module))}


def test_library_never_uses_numpy_random():
    """No module of the library imports numpy.random or reaches it as an
    attribute, so no run mode pays for loading it."""
    assert _library_uses("numpy.random") == {}


def test_library_never_imports_scipy():
    """No module of the library imports scipy, so numpy is its only
    runtime dependency."""
    assert _library_uses("scipy") == {}


def test_numpy_random_scan_finds_each_form(tmp_path):
    forms = ["import numpy as np\nphase = np.random.default_rng(0)\n",
             "import numpy\nphase = numpy.random.default_rng(0)\n",
             "import numpy.random\n",
             "from numpy.random import default_rng\n",
             "from numpy import random\n"]
    for i, text in enumerate(forms):
        path = tmp_path / f"form{i}.py"
        path.write_text(text)
        assert _module_uses(path, "numpy.random"), text
    clean = tmp_path / "clean.py"
    clean.write_text("import random\nimport numpy as np\nx = random.random()\n")
    assert _module_uses(clean, "numpy.random") == []


def test_scipy_scan_finds_each_form(tmp_path):
    forms = ["import scipy\n",
             "import scipy.interpolate\n",
             "from scipy.interpolate import CubicSpline\n",
             "from scipy import linalg\n"]
    for i, text in enumerate(forms):
        path = tmp_path / f"form{i}.py"
        path.write_text(text)
        assert _module_uses(path, "scipy"), text
    clean = tmp_path / "clean.py"
    clean.write_text("import numpy as np\nfrom .sturm_liouville import eigen_solve\n")
    assert _module_uses(clean, "scipy") == []


def _sibling_imports(name, candidates):
    """Those of the library modules `candidates` that accband.`name` imports."""
    path = pathlib.Path(accband.__file__).resolve().parent / f"{name}.py"
    return {other for other in candidates if _module_uses(path, f"accband.{other}")}


def test_kernel_modules_sit_below_their_callers():
    """sturm_liouville, which holds the tridiagonal kernels (Thomas and
    cyclic reduction), imports no sibling but errors; geometry and grids
    import none of zonal, euler2d, diagnostics and cli."""
    package = pathlib.Path(accband.__file__).resolve().parent
    siblings = {path.stem for path in package.glob("*.py")} - {"__init__", "sturm_liouville"}
    assert _sibling_imports("sturm_liouville", siblings) <= {"errors"}
    for name in ("geometry", "grids"):
        assert _sibling_imports(name, {"zonal", "euler2d", "diagnostics", "cli"}) == set()


def test_sibling_scan_finds_each_form(tmp_path):
    package = tmp_path / "accband"
    package.mkdir()
    forms = ["from . import zonal\n",
             "from .zonal import solve_fd\n",
             "from accband import zonal\n",
             "import accband.zonal\n"]
    for i, text in enumerate(forms):
        path = package / f"form{i}.py"
        path.write_text(text)
        assert _module_uses(path, "accband.zonal"), text
    clean = package / "clean.py"
    clean.write_text("from .errors import ValidationError\nfrom . import zonal_extra\n")
    assert _module_uses(clean, "accband.zonal") == []

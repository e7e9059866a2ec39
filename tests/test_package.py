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


# ------------------------------------------------------------------
# Test-only surface: the library keeps what a run, a criterion or the
# benchmark calls. Each public top-level function and class is either
# called by perfbench/, by tools/ or by a statement of the library that
# is not itself test-only (accband/__init__'s re-exports aside), or
# listed here with the reason it stays.
# ------------------------------------------------------------------

KEPT_FOR_TESTS = {
    "diagnostics.lyapunov_of_stream": "criterion 8 varies E about the critical stream",
    "diagnostics.zonal_critical_stream":
        "criterion 8's exact critical point, solved in long double",
    "euler2d.state_from_checkpoint":
        "the state a resumed run starts from; no run mode resumes yet",
    "sturm_liouville.prufer_angle":
        "the shooting route's angle, which prufer_eigenvalues inverts",
    "sturm_liouville.prufer_eigenvalues":
        "criterion 3's independent shooting route to the spectrum",
    "sturm_liouville.rayleigh_quotient": "criterion 3 checks each eigenvalue by it",
    "zonal.closed_form_residual": "criterion 1 reads it",
}


def _package_root_names(tree, stems):
    """Names in tree bound to a module of the package (`from . import x`,
    `import accband.x as y`, `from accband import x`), and the stems."""
    names = set(stems)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "accband"):
            names.update(a.asname or a.name for a in node.names if a.name in stems)
        elif isinstance(node, ast.Import):
            names.update(a.asname for a in node.names
                         if a.asname and a.name.startswith("accband."))
    return names


def _references(tree, stems):
    """(statement, names read, names reached in the package) for each
    top-level statement of tree. A name is reached when the statement
    imports it from the package or takes it as an attribute of a package
    module (m.f, acc.m.f)."""
    modules = _package_root_names(tree, stems)

    def last_name(node):
        return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)

    def names(statement):
        read, reached = set(), set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.ImportFrom):
                reached.update(a.name for a in node.names)
            elif isinstance(node, ast.Attribute) and last_name(node.value) in modules:
                reached.add(node.attr)
        return read, reached

    return [(statement, *names(statement)) for statement in tree.body]


def _test_only_surface(package, outside):
    """module.name of each public top-level function and class of the
    package's modules that no caller reaches. Callers are the `outside`
    source files (perfbench/, tools/) and the top-level statements of the
    package's modules but __init__, less the definitions found unreached
    themselves: a name that only unreached ones call is unreached too.
    Within its own module a name is called by reading it; from
    elsewhere, by reaching it."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    trees.pop("__init__", None)
    stems = set(trees)
    called = set()
    for path in outside:
        for _, _, reached in _references(ast.parse(path.read_text()), stems):
            called |= reached
    statements = {module: _references(tree, stems) for module, tree in trees.items()}
    labels, callers = {}, {}
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and node.name not in called):
                labels[node] = f"{module}.{node.name}"
                callers[node] = [
                    statement
                    for other, other_statements in statements.items()
                    for statement, read, reached in other_statements
                    if statement is not node
                    and node.name in (reached | read if other == module else reached)]
    unreached = set()
    while True:
        found = {node for node, by in callers.items()
                 if all(statement in unreached for statement in by)}
        if found == unreached:
            return sorted(labels[node] for node in found)
        unreached = found


def test_library_has_no_unlisted_test_only_surface():
    """A function or class only tests call is moved to the tests
    (tests/oracles.py or the one module that uses it) or listed in
    KEPT_FOR_TESTS with its reason."""
    root = README.parent
    outside = sorted([*(root / "perfbench").glob("*.py"), *(root / "tools").glob("*.py")])
    assert len(outside) >= 8
    package = pathlib.Path(accband.__file__).resolve().parent
    assert _test_only_surface(package, outside) == sorted(KEPT_FOR_TESTS)


def test_test_only_scan_finds_each_form(tmp_path):
    package = tmp_path / "accband"
    package.mkdir()
    (package / "__init__.py").write_text("from .a import only_tested, imported\n")
    (package / "a.py").write_text(
        "def only_tested():\n    return only_tested()\n"
        "def imported(): pass\n"
        "def benched():\n    return helper()\n"
        "def helper(): pass\n"
        "def chained():\n    return chained_helper()\n"
        "def chained_helper(): pass\n"
        "class Attribute: pass\n"
        "def _private(): pass\n")
    (package / "b.py").write_text(
        "from . import a\nfrom .a import imported\n"
        "value = a.Attribute\nchained: int = 0\n"
        "def _local(only_tested):\n    return only_tested\n")
    bench = tmp_path / "bench.py"
    bench.write_text("import accband.a as acc_a\nprint(acc_a.benched())\n"
                     "print(other.chained)\n")
    assert _test_only_surface(package, [bench]) == [
        "a.chained", "a.chained_helper", "a.only_tested"]

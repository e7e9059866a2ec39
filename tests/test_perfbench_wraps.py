"""The accband names the benchmark uses exist.

perfbench/child.py wraps accband functions by module and attribute name
(cli.eigen_solve, zonal.write_profile_csv, svgplot.line_plot,
sturm_liouville.prufer_angle, ...). A wrap of a name that has gone makes
every traced benchmark run fail, so each one is checked here against a
tracer that wraps nothing. perfbench/workloads.py and
perfbench/record_inputs.py call accband too, to check outputs and record
inputs, tools/bench.py calls it to measure a step directly and
tools/launch.py to run the CLI; an ast scan lists what each uses, which
must match USED, BENCH_USED and LAUNCH_USED, and each use must resolve
and accept the arguments it is called with.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
BENCH = PERFBENCH.parent / "tools" / "bench.py"
LAUNCH = PERFBENCH.parent / "tools" / "launch.py"


class CheckingTracer:
    """Stands in for spans.Tracer: checks each wrap target, changes nothing."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, *extra):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        self.wrapped.append((module.__name__, attr))


def load_perfbench(monkeypatch, name):
    """Import perfbench/<name>.py, which imports its siblings (spans.py,
    workloads.py) and may put src/ on sys.path."""
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    siblings = {"spans", "workloads"} - set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        for sibling in siblings:
            sys.modules.pop(sibling, None)
    return module


def test_every_wrapped_layer_exists(monkeypatch):
    tracer = CheckingTracer()
    load_perfbench(monkeypatch, "child").install_tracing(tracer)
    for target in [("accband.cli", "eigen_solve"), ("accband.zonal", "write_profile_csv"),
                   ("accband.svgplot", "line_plot"),
                   ("accband.sturm_liouville", "prufer_angle")]:
        assert target in tracer.wrapped


# ------------------------------------------------------------------
# What perfbench/workloads.py and perfbench/record_inputs.py use of accband
# besides the wraps: record_inputs.py imports it by name, and workloads.py
# reads it from the namespace `acc` that run.load_accband builds (its
# uses are listed here without the `acc.`) and from the parameter `cli`.
# ------------------------------------------------------------------

USERS = ("workloads.py", "record_inputs.py")
USED = {
    "cli", "cli.main", "cli.read_csv", "cli.ParseError",
    "euler2d.read_checkpoint", "euler2d.xi_bound", "euler2d.perturbed_zonal_state",
    "euler2d.advecting_velocity", "euler2d.stream_of", "euler2d.cfl_number",
    "AnnulusGrid.from_band", "BandConfig", "ValidationError",
}


def imported_roots(tree):
    """The names tree's `from accband... import` statements bind, and their objects."""
    roots = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "accband":
            module = importlib.import_module(node.module)
            roots.update({a.asname or a.name: getattr(module, a.name) for a in node.names})
    return roots


def accband_roots(monkeypatch):
    """The names the two files give accband objects, and those objects."""
    roots = dict(vars(load_perfbench(monkeypatch, "run").load_accband()))
    roots.update(imported_roots(ast.parse((PERFBENCH / "record_inputs.py").read_text())))
    return roots


def dotted(node):
    """'a.b.c' for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return base and f"{base}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else None


def accband_uses(tree, roots):
    """Each outermost dotted name on a root, `acc.` dropped, with the
    calls made through it."""
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    calls = {id(n.func): n for n in ast.walk(tree) if isinstance(n, ast.Call)}
    uses = {}
    for node in ast.walk(tree):
        name = None if id(node) in inner else dotted(node)
        name = name and name.removeprefix("acc.")
        if name and name.split(".")[0] in roots:
            uses.setdefault(name, []).extend([calls[id(node)]] if id(node) in calls else [])
    return uses


def assert_uses_resolve(uses, roots):
    """Each use names an existing object that accepts the arguments of its calls."""
    for name, calls in uses.items():
        head, *attrs = name.split(".")
        target = roots[head]
        for attr in attrs:
            assert hasattr(target, attr), name
            target = getattr(target, attr)
        for call in calls:  # the argument nodes stand in for the values
            inspect.signature(target).bind(*call.args, **{k.arg: k for k in call.keywords})


def test_benchmark_uses_of_accband_resolve(monkeypatch):
    roots = accband_roots(monkeypatch)
    uses = {}
    for user in USERS:
        for name, calls in accband_uses(ast.parse((PERFBENCH / user).read_text()), roots).items():
            uses.setdefault(name, []).extend(calls)
    assert set(uses) == USED, "update USED with what the benchmark now uses"
    assert_uses_resolve(uses, roots)


# What tools/bench.py's step_probe imports from accband and calls.
BENCH_USED = {
    "euler2d.perturbed_zonal_state", "euler2d.advecting_velocity",
    "euler2d.stream_of", "euler2d.cfl_number", "euler2d.circulation_targets",
    "euler2d.step", "AnnulusGrid.from_band", "BandConfig",
}


def test_bench_tool_uses_of_accband_resolve():
    tree = ast.parse(BENCH.read_text())
    roots = imported_roots(tree)
    uses = accband_uses(tree, roots)
    assert set(uses) == BENCH_USED, "update BENCH_USED with what tools/bench.py now uses"
    assert_uses_resolve(uses, roots)


# What tools/launch.py's child imports from accband and calls.
LAUNCH_USED = {"cli.main"}


def test_launcher_uses_of_accband_resolve():
    tree = ast.parse(LAUNCH.read_text())
    roots = imported_roots(tree)
    uses = accband_uses(tree, roots)
    assert set(uses) == LAUNCH_USED, "update LAUNCH_USED with what tools/launch.py now uses"
    assert_uses_resolve(uses, roots)

"""The benchmark's layer wraps name functions that exist.

perfbench/child.py wraps accband functions by module and attribute name
(cli.eigen_solve, zonal.write_profile_csv, svgplot.line_plot,
sturm_liouville.prufer_angle, ...). A wrap of a name that has gone makes
every traced benchmark run fail, so each one is checked here against a
tracer that wraps nothing.
"""

import importlib.util
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


class CheckingTracer:
    """Stands in for spans.Tracer: checks each wrap target, changes nothing."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, module, attr, name, *extra):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
        self.wrapped.append((module.__name__, attr))


def test_every_wrapped_layer_exists(monkeypatch):
    # child.py imports its sibling spans.py and puts src/ on sys.path
    monkeypatch.setattr(sys, "path", [str(PERFBENCH), *sys.path])
    had_spans = "spans" in sys.modules
    try:
        spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
        child = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(child)
    finally:
        if not had_spans:
            sys.modules.pop("spans", None)
    tracer = CheckingTracer()
    child.install_tracing(tracer)
    for target in [("accband.cli", "eigen_solve"), ("accband.zonal", "write_profile_csv"),
                   ("accband.svgplot", "line_plot"),
                   ("accband.sturm_liouville", "prufer_angle")]:
        assert target in tracer.wrapped

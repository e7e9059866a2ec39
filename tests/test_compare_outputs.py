"""tools/compare_outputs.py: the per-file comparison of two output trees."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_checkpoint(path, zeta, t):
    header = {"n_rho": 2, "n_phi": 2, "t": t, "payload": "binary <f8 rows"}
    path.write_bytes(json.dumps(header).encode() + b"\n"
                     + np.asarray(zeta, dtype="<f8").tobytes())


def test_verdicts_per_file(tool, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for side in (a, b):
        (side / "run" / "checkpoints").mkdir(parents=True)
        (side / "run" / "same.csv").write_text("t,x\n0.0,1.0\n")
    (a / "run" / "diag.csv").write_text("t,energy,method\n0.0,2.0,fd\n1.0,4.0,fd\n")
    (b / "run" / "diag.csv").write_text("t,energy,method\n0.0,2.0,fd\n1.0,4.000000004,picard\n")
    (a / "run" / "rows.csv").write_text("t\n0.0\n")
    (b / "run" / "rows.csv").write_text("t\n0.0\n1.0\n")
    write_checkpoint(a / "run" / "checkpoints" / "checkpoint_000000.txt", [1.0, -2.0, 0.5, 0.0], 0.1)
    write_checkpoint(b / "run" / "checkpoints" / "checkpoint_000000.txt", [1.0, -2.0, 0.5, 2e-12], 0.1)
    (a / "run" / "summary.json").write_text(json.dumps({"q": {"final": 8.0, "drift": float("nan")}}))
    (b / "run" / "summary.json").write_text(json.dumps({"q": {"final": 6.0, "drift": float("nan")}}))
    (a / "run" / "plot.svg").write_text("<svg>a</svg>")
    (b / "run" / "plot.svg").write_text("<svg>b</svg>")
    (a / "run" / "extra.csv").write_text("t\n0\n")

    verdicts = {str(rel): verdict for rel, verdict in tool.compare_dirs(a, b)}
    assert verdicts == {
        "run/same.csv": "equal",
        "run/diag.csv": "max rel diff: energy 1.0e-09, method text differs (1 columns equal)",
        "run/rows.csv": "structure differs (columns or lengths)",
        "run/checkpoints/checkpoint_000000.txt": "max rel diff: zeta 1.0e-12 (3 columns equal)",
        "run/summary.json": "max rel diff: q.final 2.5e-01 (1 columns equal)",
        "run/plot.svg": "bytes differ (not tabular)",
        "run/extra.csv": "only in a",
    }


def test_one_sided_nan_is_reported(tool):
    assert np.isnan(tool.column_difference(["1.0", "nan"], ["1.0", "2.0"]))
    assert tool.column_difference(["0", "0"], ["0", "0"]) == 0.0

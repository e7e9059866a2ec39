"""A standing check of the CLI's outputs against committed expected values.

SCENARIOS run in process through accband.cli.main. Every number that
tools/compare_outputs.py reads from their files (its own ``_columns``)
must lie within RTOL of tests/expected_outputs.json, by its own measure
``column_difference``: the largest |a - b| of a column over its largest
|value|. Not bytes: numpy's SIMD exp, sin and cos may differ by an ulp
between CPUs. A profile.csv is checked on every PROFILE_ROW_STRIDE-th row
and its last.

Only a change that moves outputs on purpose regenerates the file, with

    PYTHONPATH=src python tests/test_expected_outputs.py --write

run from the repository's root, and says what moved, and by how much.
"""

import importlib.util
import json
import pathlib
import sys
import tempfile

from accband import cli

TESTS = pathlib.Path(__file__).resolve().parent
EXPECTED = TESTS / "expected_outputs.json"
RTOL = 1e-12
PROFILE_ROW_STRIDE = 50
# Numbers that are differences of nearly equal outputs (the methods'
# cross-check, a run's relative drifts): an ulp of their inputs moves them
# by far more than RTOL of themselves.
SKIPPED = {"zonal_crosscheck.csv", "summary.json"}


def _load_compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", TESTS.parent / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = _load_compare_outputs()
MILD = compare_outputs.MILD
SCENARIOS = {
    # criterion 10's stability run
    "stability": compare_outputs.SCENARIOS["stability"],
    "evolve": ["--mode", "evolve", "--n-rho", "24", "--n-phi", "32", "--dt", "0.002",
               "--t-end", "0.02", "--output-stride", "3", "--amplitude", "0.01",
               "--wavenumber", "3", "--seed", "7", "--lambda", "-10", *MILD],
    "spectrum": compare_outputs.SCENARIOS["spectrum"],
    **{f"zonal_{method}": ["--mode", "zonal", "--method", method, "--lambda", "0", *MILD]
       for method in cli.ZONAL_METHODS},
    "figure1": compare_outputs.SCENARIOS["figure1"],
}


def run_outputs(root):
    """{"<scenario>/<file>": {column: [float, ...]}} of every scenario run
    into root, each profile.csv cut to its checked rows."""
    outputs = {}
    for name, argv in SCENARIOS.items():
        out = root / name
        assert cli.main([*argv, "--out", str(out)]) == 0, name
        for path in sorted(out.rglob("*")):
            if path.name in SKIPPED or not path.is_file():
                continue
            columns = compare_outputs._columns(path, path.read_bytes())
            if columns is None:  # an SVG
                continue
            if path.name == "profile.csv":
                n = len(columns["psi"])
                rows = sorted({*range(0, n, PROFILE_ROW_STRIDE), n - 1})
                columns = {key: [values[i] for i in rows] for key, values in columns.items()}
            outputs[path.relative_to(root).as_posix()] = {
                key: [float(v) for v in values] for key, values in columns.items()}
    return outputs


def test_outputs_match_expected(tmp_path):
    expected = json.loads(EXPECTED.read_text())
    outputs = run_outputs(tmp_path)
    assert sorted(outputs) == sorted(expected)
    moved = []
    for name, columns in expected.items():
        assert list(outputs[name]) == list(columns), name
        for key, want in columns.items():
            got = outputs[name][key]
            assert len(got) == len(want), (name, key)
            rel = compare_outputs.column_difference(got, want)
            if not rel <= RTOL:
                moved.append(f"{name} {key}: {rel:.1e}")
    assert not moved, moved


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    with tempfile.TemporaryDirectory(prefix="accband-expected-") as tmp:
        EXPECTED.write_text(json.dumps(run_outputs(pathlib.Path(tmp)), indent=1) + "\n")
    print(f"wrote {EXPECTED}")

#!/usr/bin/env python3
"""Compare the CLI outputs of two revisions of accband, file by file.

    python tools/compare_outputs.py <rev-a> <rev-b>

Run from inside the git repository. Each revision is unpacked with
``git archive`` into one temporary directory, as ``a/`` and ``b/`` (paths
of equal length), and the fixed scenario list SCENARIOS runs against each
tree's own ``src/``, one fresh process per scenario. For every output
file the tool prints ``equal`` when the bytes match, and otherwise the
largest relative difference of each column that differs, max |a - b|
over the largest |value| of that column on either side, and the count
of columns that are equal. Columns are those of a CSV, the
numbers of a checkpoint header plus its payload as ``zeta``, and the
numeric leaves of a JSON file. Files whose numbers cannot be paired (a
different header, row count or shape) are reported as differing in
structure, and text columns only as equal or not.

Exit code: 0 when every file is byte-equal and every scenario exits
alike, 1 otherwise.
"""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import numpy as np

MILD = ["--psi1", "-0.2", "--psi2", "0.2", "--omega", "2.0", "--upsilon", "1.0"]
SCENARIOS = {
    # criterion 10's stability run
    "stability": ["--mode", "stability", "--n-rho", "64", "--n-phi", "64", "--dt", "0.002",
                  "--t-end", "0.02", "--amplitude", "0.01", "--wavenumber", "3",
                  "--seed", "99", "--lambda", "-10", *MILD],
    "evolve": ["--mode", "evolve", "--n-rho", "64", "--n-phi", "64", "--dt", "0.002",
               "--t-end", "0.02", "--output-stride", "3", "--amplitude", "0.01",
               "--wavenumber", "3", "--seed", "7", "--lambda", "-10", *MILD],
    "sweep": ["--mode", "evolve", "--n-rho", "64", "--n-phi", "64", "--dt", "0.002",
              "--t-end", "0.01", "--amplitude", "0.01", "--seed", "3",
              "--sweep=-10,-100", *MILD],
    # exits 2 on its first step, after the t = 0 row and checkpoint
    "evolve_cfl": ["--mode", "evolve", "--n-rho", "48", "--n-phi", "48", "--dt", "5.0",
                   "--t-end", "10.0", "--amplitude", "0.01", *MILD],
    "stability_strided": ["--mode", "stability", "--n-rho", "32", "--n-phi", "32",
                          "--dt", "0.002", "--t-end", "0.03", "--output-stride", "4",
                          "--amplitude", "0.01", "--wavenumber", "3", "--seed", "5",
                          "--lambda", "-10", *MILD],
    "zonal_fd_lambda0": ["--mode", "zonal", "--method", "fd", "--lambda", "0",
                         "--n-zonal", "501", *MILD],
    # the boundary homogenization, the expansion and the Pruefer index check
    "zonal_sl_expansion": ["--mode", "zonal", "--method", "sl_expansion", "--lambda", "-10",
                           *MILD],
    # the velocity a solver supplies itself, not differenced from psi
    "zonal_picard": ["--mode", "zonal", "--method", "picard", "--lambda", "-1", *MILD],
    "zonal_closed_form": ["--mode", "zonal", "--method", "closed_form", "--lambda", "0",
                          *MILD],
    # fd's profile ends, exactly psi1 and psi2 since _finish sets them
    "zonal_fd_exact_ends": ["--mode", "zonal", "--method", "fd", "--lambda", "-1", *MILD],
    # worker threads sharing one cached band spectrum
    "zonal_sweep": ["--mode", "zonal", "--method", "sl_expansion", "--sweep=-10,-100", *MILD],
    "figure1": ["--mode", "zonal", "--lambda", "-3000", "--upsilon", "30000",
                "--psi1", "-5", "--psi2", "-25"],
    # a grid whose 2-D Poisson solve leaves the zonal stream's rows an ulp apart
    "stability_figure1_n_phi_40": ["--mode", "stability", "--n-rho", "16", "--n-phi", "40",
                                   "--dt", "1e-4", "--t-end", "2e-3", "--amplitude", "0.01",
                                   "--seed", "7", "--lambda", "-3000", "--upsilon", "30000",
                                   "--psi1", "-5", "--psi2", "-25"],
    "spectrum": ["--mode", "spectrum"],
}
RUN_CLI = "import sys; from accband.cli import main; sys.exit(main(sys.argv[1:]))"


def unpack(rev, dest):
    """Extract the tree of rev (any git revision) into dest."""
    dest.mkdir()
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_scenarios(tree, out):
    """Run every scenario on tree's src/, into out/<name>; exit codes by name."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    codes = {}
    for name, args in SCENARIOS.items():
        done = subprocess.run([sys.executable, "-c", RUN_CLI, *args, "--out", str(out / name)],
                              cwd=tree, env=env, capture_output=True, text=True)
        codes[name] = done.returncode
    return codes


# ------------------------------------------------------------------
# Per-file comparison
# ------------------------------------------------------------------

def _columns_csv(data):
    rows = list(csv.reader(io.StringIO(data.decode())))
    header, body = rows[0], rows[1:]
    if any(len(row) != len(header) for row in body):
        raise ValueError("ragged rows")
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _columns_checkpoint(data):
    line, payload = data.split(b"\n", 1)
    header = json.loads(line)
    columns = {key: [value] for key, value in header.items()
               if isinstance(value, (int, float))}
    columns["zeta"] = np.frombuffer(payload, dtype="<f8")
    return columns


def _columns_json(data):
    leaves = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{path}[{i}]")
        else:
            leaves[path] = [node]

    walk(json.loads(data), "")
    return leaves


def _columns(path, data):
    if path.suffix == ".csv":
        return _columns_csv(data)
    if path.suffix == ".json":
        return _columns_json(data)
    if data.startswith(b"{") and b'"payload"' in data.split(b"\n", 1)[0]:
        return _columns_checkpoint(data)
    return None


def _as_floats(values):
    try:
        return np.asarray([float(v) for v in values], dtype=float)
    except (TypeError, ValueError):
        return None


def column_difference(a, b):
    """max |a - b| / max |value| over both columns; NaN in both places is
    equal. None for text columns that differ, 0.0 for equal ones."""
    fa, fb = _as_floats(a), _as_floats(b)
    if fa is None or fb is None:
        return 0.0 if list(a) == list(b) else None
    both_nan = np.isnan(fa) & np.isnan(fb)
    with np.errstate(invalid="ignore"):
        diff = np.where(both_nan, 0.0, np.abs(fa - fb))
    if np.any(np.isnan(diff)):
        return float("nan")
    finite = np.abs(np.concatenate([fa[np.isfinite(fa)], fb[np.isfinite(fb)]]))
    scale = float(np.max(finite)) if finite.size else 0.0
    worst = float(np.max(diff)) if diff.size else 0.0
    return worst / scale if scale > 0.0 else worst


def compare_file(path_a, path_b):
    """One line of verdict for two versions of one output file."""
    data_a, data_b = path_a.read_bytes(), path_b.read_bytes()
    if data_a == data_b:
        return "equal"
    try:
        cols_a, cols_b = _columns(path_a, data_a), _columns(path_b, data_b)
    except ValueError:
        cols_a = cols_b = None
    if cols_a is None or cols_b is None:
        return "bytes differ (not tabular)"
    if list(cols_a) != list(cols_b) or any(
            len(cols_a[k]) != len(cols_b[k]) for k in cols_a):
        return "structure differs (columns or lengths)"
    parts, equal = [], 0
    for name in cols_a:
        rel = column_difference(cols_a[name], cols_b[name])
        if rel is None:
            parts.append(f"{name} text differs")
        elif rel == 0.0:
            equal += 1
        else:
            parts.append(f"{name} {rel:.1e}")
    return f"max rel diff: {', '.join(parts) or 'none'} ({equal} columns equal)"


def compare_dirs(dir_a, dir_b):
    """[(relative path, verdict)] over every file under either directory."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    verdicts = []
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            verdicts.append((rel, "only in a"))
        elif rel not in files_a:
            verdicts.append((rel, "only in b"))
        else:
            verdicts.append((rel, compare_file(dir_a / rel, dir_b / rel)))
    return verdicts


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix="accband-compare-") as tmp:
        root = pathlib.Path(tmp)
        codes = {}
        for side, rev in zip("ab", argv):
            unpack(rev, root / side)
            codes[side] = run_scenarios(root / side, root / f"out-{side}")
        same = True
        for name in SCENARIOS:
            if codes["a"][name] != codes["b"][name]:
                same = False
            print(f"scenario {name}: exit {codes['a'][name]} / {codes['b'][name]}")
        for rel, verdict in compare_dirs(root / "out-a", root / "out-b"):
            same = same and verdict == "equal"
            print(f"{rel}: {verdict}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Regenerate ``perfbench/inputs.json``: the evolve input sets and the final
diagnostics row each one produces.

Usage, from the repository root:  python3 perfbench/record_inputs.py

Each set fixes the perturbation seed, the lambdas and a dt at CFL 0.5 of the
initial state (the smaller one over a sweep's lambdas).  Run this only when
a change is meant to alter the numbers: every benchmark run compares its
final diagnostics row with the row recorded here.
"""

import json
import os
import random
import shutil
import sys
import tempfile

import workloads

ROOT = os.path.dirname(workloads.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from accband import cli, euler2d  # noqa: E402
from accband.geometry import BandConfig  # noqa: E402
from accband.grids import AnnulusGrid  # noqa: E402

CFL_TARGET = 0.5


def dt_at_cfl(lam, n, seed):
    config = BandConfig(psi1=-0.2, psi2=0.2, omega=2.0, lam=lam, upsilon=1.0)
    grid = AnnulusGrid.from_band(config, n, n)
    state = euler2d.perturbed_zonal_state(config, grid, 0.01, 3, seed)
    w_rho, w_phi = euler2d.advecting_velocity(euler2d.stream_of(state), grid)
    return CFL_TARGET / euler2d.cfl_number(w_rho, w_phi, 1.0, grid)


def make_set(workload, key):
    spec = workloads.EVOLVE[workload]
    index = workloads.N_SETS if key == "heldout" else int(key)
    rng = random.Random(f"{workload}/{index}")
    if spec["n_lambdas"] == 1:
        lambdas = [-10.0]
    else:
        lambdas = [-k / 10 for k in rng.sample(range(20, 501), spec["n_lambdas"])]
    seed = 1000 + index
    dt = min(dt_at_cfl(lam, spec["n"], seed) for lam in lambdas)
    dt = float(f"{dt:.3g}")
    return {"seed": seed, "lambdas": lambdas, "dt": dt,
            "t_end": spec["steps"] * dt, "steps": spec["steps"]}


def final_rows(workload, inp):
    out = tempfile.mkdtemp(prefix="record_", dir=ROOT)
    try:
        code = cli.main(workloads.evolve_argv(workload, inp, out))
        if code != 0:
            raise SystemExit(f"{workload} {inp}: exit {code}")
        rows = {}
        for lam, d in workloads.subrun_dirs(inp, out).items():
            _, cols = cli.read_csv(os.path.join(d, "diagnostics.csv"))
            rows[repr(lam)] = {name: cols[name][-1] for name in workloads.DIAG_COLUMNS}
        return rows
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main():
    table = {}
    for workload in workloads.EVOLVE:
        table[workload] = {}
        for key in [str(i) for i in range(workloads.N_SETS)] + ["heldout"]:
            inp = make_set(workload, key)
            inp["final"] = final_rows(workload, inp)
            table[workload][key] = inp
            print(workload, key, inp["lambdas"], inp["dt"], flush=True)
    with open(workloads.INPUTS_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The three workloads: their inputs, CLI arguments and output checks.

evolve256_final     one ``--mode evolve`` run at 256^2, diagnostics and
                    checkpoints at t = 0 and at the final state only, so
                    nearly all time is in ``euler2d.step`` on fields larger
                    than L2.
sweep128_everystep  one ``--sweep`` of two negative lambdas at 128^2 with
                    ``output_stride = 1``, so ``diagnostics.record``, text
                    checkpoints and the two worker threads dominate.
zonal_scan          one process calling ``cli.main`` in zonal mode over
                    seeded configurations; only the zonal solvers and the
                    Sturm-Liouville spectrum run, never ``euler2d``.

The evolve inputs come from a fixed table (``inputs.json``, written by
``record_inputs.py``) indexed by the seed, because every run's final
diagnostics row is compared with the row recorded for its input set.
"""

import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
INPUTS_PATH = os.path.join(HERE, "inputs.json")

# MILD_NEG scenario of the test suite: omega = 2, Upsilon = 1, psi = -/+0.2.
BAND = ["--psi1", "-0.2", "--psi2", "0.2", "--omega", "2", "--upsilon", "1"]
PERTURBATION = ["--amplitude", "0.01", "--wavenumber", "3"]

N_SETS = 8
# Maps to an input set of its own that no other seed reaches; keep it out
# of tuning and use it to confirm a claimed gain.
HELD_OUT_SEED = 20261017

EVOLVE = {
    "evolve256_final": {"n": 256, "steps": 40, "stride": "final", "n_lambdas": 1},
    "sweep128_everystep": {"n": 128, "steps": 50, "stride": 1, "n_lambdas": 2},
}
ZONAL_CONFIGS = 24
WORKLOADS = (*EVOLVE, "zonal_scan")

DIAG_COLUMNS = ["t", "energy", "circ1", "circ2", "casimir2", "casimir3",
                "stability_identity", "max_xi", "lambda_circ"]
PROFILE_COLUMNS = ["theta_deg", "psi", "u_nondim", "u_m_per_s"]
# Final-row agreement with the recorded run: round-off, not a scheme change.
FINAL_ROW_RTOL = 1e-9


def input_set(seed):
    return "heldout" if seed == HELD_OUT_SEED else str(seed % N_SETS)


def load_inputs(workload, seed):
    with open(INPUTS_PATH) as fh:
        return json.load(fh)[workload][input_set(seed)]


def stride_of(spec):
    return spec["steps"] if spec["stride"] == "final" else spec["stride"]


def evolve_argv(workload, inp, out):
    spec = EVOLVE[workload]
    n = spec["n"]
    argv = ["--mode", "evolve", "--out", out, "--n-rho", str(n), "--n-phi", str(n),
            "--dt", repr(inp["dt"]), "--t-end", repr(inp["t_end"]),
            "--output-stride", str(stride_of(spec)), "--seed", str(inp["seed"]),
            *PERTURBATION, *BAND]
    lams = inp["lambdas"]
    if len(lams) == 1:
        return argv + ["--lambda", repr(lams[0])]
    return argv + ["--sweep=" + ",".join(repr(lam) for lam in lams)]


def subrun_dirs(inp, out):
    """Output directory of each lambda, as the CLI names them."""
    lams = inp["lambdas"]
    if len(lams) == 1:
        return {lams[0]: out}
    return {lam: os.path.join(out, f"sweep_{lam:g}") for lam in lams}


def zonal_configs(seed):
    """A quarter at lambda = 0 (the cross-check), the rest lambda in [-3000, -1].

    lambda <= 0 stays clear of the positive Dirichlet spectrum, so no
    configuration can fail by resonance.
    """
    rng = random.Random(seed)
    configs = []
    for i in range(ZONAL_CONFIGS):
        if i % 4 == 0:
            lam, method = 0.0, "fd"
        else:
            lam = -round(10 ** rng.uniform(0.0, math.log10(3000.0)), 1)
            method = ("fd", "sl_expansion")[len(configs) % 2]
        upsilon = round(rng.uniform(0.0, 30000.0))
        configs.append({"lambda": lam, "upsilon": float(upsilon), "method": method})
    return configs


def zonal_argv(config, out):
    return ["--mode", "zonal", "--out", out, "--lambda", repr(config["lambda"]),
            "--upsilon", repr(config["upsilon"]), "--method", config["method"]]


# ==================================================================
# Output checks.  Each returns a list of problems; empty means correct.
# ==================================================================

def _csv(cli, path, columns, problems):
    if not os.path.isfile(path):
        problems.append(f"missing {os.path.basename(path)}")
        return None
    try:
        header, cols = cli.read_csv(path)
    except (ValueError, IndexError, cli.ParseError) as err:
        problems.append(f"{os.path.basename(path)} does not parse: {err}")
        return None
    if header != columns:
        problems.append(f"{os.path.basename(path)} header {header}")
        return None
    return cols


def check_evolve_dir(acc, d, lam, steps, stride, t_end, final=None):
    """Check one evolve (sub-)run by its own outputs.

    ``acc`` is a namespace with the accband modules used here (cli,
    euler2d, BandConfig).  Returns (problems, stats).
    """
    problems = []
    stats = {}
    cols = _csv(acc.cli, os.path.join(d, "diagnostics.csv"), DIAG_COLUMNS, problems)
    if cols is None:
        return problems, stats
    stats["rows"] = len(cols["t"])
    n_records = len(range(0, steps, stride)) + 1
    if len(cols["t"]) != n_records:
        return problems + [f"{len(cols['t'])} diagnostics rows, expected {n_records}"], stats
    if abs(cols["t"][-1] - t_end) > 1e-9 * t_end:
        problems.append(f"final t {cols['t'][-1]!r} != t_end {t_end!r}")
    for name in DIAG_COLUMNS:
        if not all(isinstance(v, float) and math.isfinite(v) for v in cols[name]):
            problems.append(f"non-finite {name}")
            return problems, stats

    summary_path = os.path.join(d, "summary.json")
    try:
        with open(summary_path) as fh:
            summary = json.load(fh)
        if summary["records"] != n_records:
            problems.append("summary.json record count")
        stats["energy_drift"] = summary["quantities"]["energy"]["relative_drift"]
        stab = summary["stability"]
        stats["identity_defect"] = abs(stab["defect"]) / abs(stab["rhs"])
    except (OSError, ValueError, KeyError) as err:
        problems.append(f"summary.json: {err!r}")

    ckpts = [os.path.join(d, "checkpoints", f"checkpoint_{i:06d}.txt")
             for i in range(n_records)]
    missing = [p for p in ckpts if not os.path.isfile(p)]
    if missing:
        problems.append(f"{len(missing)} of {n_records} checkpoints missing")
        return problems, stats
    try:
        _, zeta0 = acc.euler2d.read_checkpoint(ckpts[0])
        acc.euler2d.read_checkpoint(ckpts[-1])
    except (ValueError, acc.ValidationError) as err:
        problems.append(f"checkpoint does not parse: {err}")
        return problems, stats

    config = acc.BandConfig(psi1=-0.2, psi2=0.2, omega=2.0, lam=lam, upsilon=1.0)
    bound = acc.euler2d.xi_bound(config, zeta0)
    if max(cols["max_xi"]) > bound + 1e-10:
        problems.append(f"max_xi {max(cols['max_xi']):.6g} above xi_bound {bound:.6g}")
    circ0 = cols["circ1"][0]
    if any(abs(c - circ0) > 1e-8 * max(1.0, abs(circ0)) for c in cols["circ1"]):
        problems.append("circ1 not held")
    if final is not None:
        for name in DIAG_COLUMNS:
            have, want = cols[name][-1], final[name]
            if abs(have - want) > FINAL_ROW_RTOL * max(abs(want), 1e-12):
                problems.append(f"final {name} {have!r} != recorded {want!r}")
    return problems, stats


def check_zonal_dir(acc, d, config):
    problems = []
    cols = _csv(acc.cli, os.path.join(d, "profile.csv"), PROFILE_COLUMNS, problems)
    if cols is not None:
        psi = cols["psi"]
        if psi[0] != -5.0 or psi[-1] != -25.0:
            problems.append(f"boundary values {psi[0]!r}, {psi[-1]!r} != -5, -25")
        if not all(isinstance(v, float) and math.isfinite(v)
                   for name in PROFILE_COLUMNS for v in cols[name]):
            problems.append("non-finite profile value")
    svg = os.path.join(d, "profile.svg")
    if not os.path.isfile(svg) or os.path.getsize(svg) == 0:
        problems.append("missing profile.svg")
    spec = _csv(acc.cli, os.path.join(d, "spectrum.csv"),
                ["index", "eigenvalue", "rel_distance_to_lambda"], problems)
    if spec is not None:
        eig = spec["eigenvalue"]
        if len(eig) != 5 or not all(0 < a < b for a, b in zip(eig, eig[1:])):
            problems.append(f"spectrum {eig}")
    if config["lambda"] == 0.0:
        cross = _csv(acc.cli, os.path.join(d, "zonal_crosscheck.csv"),
                     ["method_a", "method_b", "sup_difference"], problems)
        if cross is not None:
            pairs = list(zip(cross["method_a"], cross["method_b"]))
            if pairs != [("closed_form", "fd"), ("closed_form", "picard"), ("fd", "picard")]:
                problems.append(f"cross-check rows {pairs}")
            if not all(math.isfinite(v) and v <= 1e-4 for v in cross["sup_difference"]):
                problems.append(f"cross-check differences {cross['sup_difference']}")
    return problems

"""accband benchmark: end-to-end run metrics and per-layer timings.

Usage, from the repository root:

    python3 perfbench/run.py --workload evolve256_final --seed 1 --seconds 30 --trace 0

Workloads: evolve256_final, sweep128_everystep, zonal_scan (see
workloads.py), or ``all`` to run the three in turn.  Each workload run is
one fresh ``child.py`` process; runs are closed loop with one client, the
next starting when the previous one has exited, until ``--seconds`` have
passed.  Every run's outputs are checked, and the end-to-end metrics are
medians over the runs.

``--trace 1`` alternates untraced and traced runs (spans recorded by
wrapping accband's public functions, see spans.py) and reports per-layer
metrics and the tracing overhead; it first checks, with a sweep whose dt
breaks the CFL limit, that failing sweep workers are counted as failed.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A fuller record with the run
environment goes to .perfbench/results/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import types

import workloads
from spans import annotate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
MIN_RUNS = 3
MIN_TRACED_PAIRS = 2
# p95 is reported only with at least 10 samples above it.
P95_SAMPLES = 200
RUN_TIMEOUT_S = 120
# Time allowed past --seconds for the last run and, in trace mode, for the
# traced runs that top euler2d.step up to P95_SAMPLES.
TOPUP_S = 130
# One BLAS/OpenMP thread per process: the sweep's two workers already use
# both cores.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("work_per_s", "1/s"),
              ("peak_rss_mb", "MB"), ("output_mb", "MB"))


def load_accband():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "accband", "cli.py")):
        raise SystemExit(f"perfbench: no accband sources under {src}; "
                         "run from the repository root")
    sys.path.insert(0, src)
    from accband import cli, euler2d
    from accband.errors import ValidationError
    from accband.geometry import BandConfig
    return types.SimpleNamespace(cli=cli, euler2d=euler2d, BandConfig=BandConfig,
                                 ValidationError=ValidationError)


# ==================================================================
# One run: spawn, watch, check
# ==================================================================

def _tree_rss_kb(pid):
    """Resident memory of a process and all its descendants."""
    total = 0
    pending = [pid]
    while pending:
        p = pending.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmRSS:"):
                        total += int(line.split()[1])
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children") as fh:
                    pending.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total


def spawn(job, job_path, stderr_path):
    """Run child.py on a job; returns (wall_s, t_spawn, exit code, rusage, peak kB)."""
    with open(job_path, "w") as fh:
        json.dump(job, fh)
    env = {**os.environ, **CHILD_ENV}
    peak = [0]
    done = threading.Event()
    with open(stderr_path, "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"), job_path],
                                cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)

        def sample():
            while not done.wait(0.1):
                peak[0] = max(peak[0], _tree_rss_kb(proc.pid))
                if time.monotonic() - t0 > RUN_TIMEOUT_S:
                    proc.kill()

        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            wall = time.monotonic() - t0
            done.set()
            sampler.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, t0, proc.returncode, usage, max(peak[0], usage.ru_maxrss)


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_once(acc, workload, seed, trace, tag, inp=None):
    """One workload run in a fresh process, with its outputs checked."""
    base = os.path.join(WORK, "work", tag)
    shutil.rmtree(base, ignore_errors=True)
    out = os.path.join(base, "out")
    os.makedirs(out)
    if workload == "zonal_scan":
        configs = workloads.zonal_configs(seed)
        argvs = [workloads.zonal_argv(c, os.path.join(out, f"cfg_{i:02d}"))
                 for i, c in enumerate(configs)]
    else:
        inp = inp or workloads.load_inputs(workload, seed)
        argvs = [workloads.evolve_argv(workload, inp, out)]
    job = {"argvs": argvs, "trace": trace, "result": os.path.join(base, "result.json"),
           "spans": os.path.join(base, "spans.json")}
    wall, t0, code, usage, peak_kb = spawn(job, os.path.join(base, "job.json"),
                                           os.path.join(base, "stderr.txt"))
    try:
        with open(job["result"]) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = None

    subruns = []
    if workload == "zonal_scan":
        for i, config in enumerate(configs):
            problems = []
            if result is None or result["codes"][i] != 0:
                problems.append(f"exit {None if result is None else result['codes'][i]}")
            else:
                problems = workloads.check_zonal_dir(acc, os.path.join(out, f"cfg_{i:02d}"),
                                                     config)
            subruns.append({"name": f"cfg_{i:02d}", "problems": problems, "units": 1})
        setup = None if result is None else result["ready"] - t0
    else:
        spec = workloads.EVOLVE[workload]
        for lam, d in workloads.subrun_dirs(inp, out).items():
            problems, stats = workloads.check_evolve_dir(
                acc, d, lam, inp["steps"], workloads.stride_of(spec), inp["t_end"],
                inp.get("final", {}).get(repr(lam)))
            subruns.append({"name": f"lambda={lam:g}", "problems": problems,
                            "units": inp["steps"], **stats})
        entries = [] if result is None else result["run_entries"]
        setup = max(entries) - t0 if len(entries) == len(subruns) else None
    # A nonzero exit fails the run even when every output looks right.
    if code != 0 or result is None or any(result["codes"]):
        if not any(s["problems"] for s in subruns):
            for s in subruns:
                s["problems"].append(f"exit {code}")

    spans = []
    if trace and result is not None:
        with open(job["spans"]) as fh:
            spans = annotate(json.load(fh))
    run = {
        "run_s": wall, "setup_s": setup, "exit": code, "subruns": subruns,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": peak_kb / 1024.0,
        "output_mb": _tree_bytes(out) / 1e6,
        "units": sum(s["units"] for s in subruns if not s["problems"]),
        "trace": trace, "spans": spans,
    }
    shutil.rmtree(base, ignore_errors=True)
    return run


def self_test(acc):
    """A sweep whose dt breaks the CFL limit: both workers must count as failed.

    Each worker starts, writes the t = 0 diagnostics row and raises in its
    first step.  The CLI's sweep still exits 0 (ROADMAP item 3), so the
    failures must be found in each ``sweep_<lambda>/`` directory.  The test
    requires both workers to have started (their diagnostics hold only the
    t = 0 row) and both sub-runs to be counted as failed; it does not
    require a particular exit code, so it keeps holding once the sweep
    reports its failures itself.  A sweep that stops before its workers
    start (bad arguments) does not pass.
    """
    inp = {"seed": 1, "lambdas": [-10.0, -20.0], "dt": 5.0, "t_end": 50.0, "steps": 10}
    run = run_once(acc, "sweep128_everystep", 0, False, "selftest", inp=inp)
    started = sum(1 for s in run["subruns"] if s.get("rows") == 1)
    failed = sum(1 for s in run["subruns"] if s["problems"])
    if started != 2 or failed != 2:
        raise SystemExit(
            "perfbench self-test: a CFL-breaking sweep must start both workers "
            "(sweep_<lambda>/diagnostics.csv holding only the t=0 row) and have both "
            f"sub-runs counted as failed; {started} of 2 started, {failed} of 2 failed, "
            f"exit {run['exit']}")
    return {"exit": run["exit"], "started_subruns": started, "failed_subruns": failed}


# ==================================================================
# Metrics
# ==================================================================

def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest rank: at 200 samples, p95 has 10 samples above it."""
    return sorted(values)[math.ceil(q * len(values)) - 1]


def end_to_end(runs):
    ok = [r for r in runs if r["setup_s"] is not None]
    return {
        "run_s": median(r["run_s"] for r in runs),
        "setup_s": median(r["setup_s"] for r in ok),
        "work_per_s": median(r["units"] / (r["run_s"] - r["setup_s"]) for r in ok),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
        "output_mb": median(r["output_mb"] for r in runs),
    }


def layer_metrics(traced, untraced):
    """Per-layer metrics pooled over the traced runs.

    Self times and ancestors were computed run by run (``annotate``), so
    pooling never mixes spans of different runs that share an id.
    """
    run_s = sum(r["run_s"] for r in traced)
    n_runs = len(traced)
    spans = [s for r in traced for s in r["spans"]]

    def named(name):
        return [s for s in spans if s["name"] == name]

    def ms(name):
        return [1e3 * (s["end"] - s["start"]) for s in named(name)]

    def p50(name):
        return median(ms(name))

    def share(*names):
        return sum(s["self"] for name in names for s in named(name)) / run_s

    def per_call(name, caller, calls):
        inside = sum(caller in s["ancestors"] for s in named(name))
        return inside / calls if calls else 0.0

    steps = len(named("euler2d.step"))
    step_ms = ms("euler2d.step")
    eigen = named("sturm_liouville.eigen_solve")
    ckpt = named("euler2d.checkpoint")
    initial = {}
    for r in traced:
        for s in r["spans"]:
            if (s["name"] == "euler2d.initial_state"
                    and "euler2d.initial_state" not in s["ancestors"]):
                key = (id(r), s["worker"])
                initial[key] = initial.get(key, 0.0) + 1e3 * (s["end"] - s["start"])
    picard = [s["extra"]["iterations"] for s in named("zonal.solve_picard")]
    return {
        "euler2d.step.calls": steps / n_runs,
        "euler2d.step.p50_ms": median(step_ms),
        "euler2d.step.p95_ms": percentile(step_ms, 0.95) if len(step_ms) >= P95_SAMPLES else 0.0,
        "euler2d.step.self_share": share("euler2d.step"),
        "euler2d.poisson.p50_ms": p50("euler2d.poisson"),
        "euler2d.poisson.calls_per_step": per_call("euler2d.poisson", "euler2d.step", steps),
        "euler2d.poisson.share": share("euler2d.poisson"),
        "euler2d.advect.p50_ms": p50("euler2d.advect"),
        "euler2d.advect.calls_per_step": per_call("euler2d.advect", "euler2d.step", steps),
        "euler2d.advect.share": share("euler2d.advect"),
        "euler2d.checkpoint.calls": len(ckpt) / n_runs,
        "euler2d.checkpoint.p50_ms": p50("euler2d.checkpoint"),
        "euler2d.checkpoint.bytes_per_write":
            statistics.mean(s["extra"]["bytes"] for s in ckpt) if ckpt else 0.0,
        "euler2d.checkpoint.share": share("euler2d.checkpoint"),
        "euler2d.initial_state.ms": median(initial.values()),
        "diagnostics.record.calls": len(named("diagnostics.record")) / n_runs,
        "diagnostics.record.p50_ms": p50("diagnostics.record"),
        "diagnostics.record.share": share("diagnostics.record"),
        "cli.cores_busy": median(r["cpu_s"] / r["run_s"] for r in untraced),
        "cli.self_share": share("cli.dispatch"),
        "zonal.solve_fd.p50_ms": p50("zonal.solve_fd"),
        "zonal.solve_sl_expansion.p50_ms": p50("zonal.solve_sl_expansion"),
        "zonal.solve_picard.p50_ms": p50("zonal.solve_picard"),
        "zonal.solve_picard.iterations": median(picard),
        "zonal.io.share": share("zonal.io"),
        "sturm_liouville.eigen_solve.calls": len(eigen) / n_runs,
        "sturm_liouville.eigen_solve.p50_ms": p50("sturm_liouville.eigen_solve"),
        "sturm_liouville.eigen_solve.share": share("sturm_liouville.eigen_solve"),
        "sturm_liouville.prufer_angle.share": share("sturm_liouville.prufer_angle"),
        "sturm_liouville.eigen_solve.attempts_per_solve":
            per_call("sturm_liouville.prufer_angle", "sturm_liouville.eigen_solve", len(eigen)),
        "trace.overhead": (median(r["run_s"] for r in traced)
                           / median(r["run_s"] for r in untraced) - 1.0),
    }


LAYER_UNITS = {"calls": "count", "calls_per_step": "count", "iterations": "count",
               "p50_ms": "ms", "p95_ms": "ms", "ms": "ms", "bytes_per_write": "B",
               "share": "1", "self_share": "1", "attempts_per_solve": "1",
               "cores_busy": "1", "overhead": "1"}


def layer_unit(name):
    return LAYER_UNITS[name.rsplit(".", 1)[1]]


TABLE_ROWS = (("Poisson (bar_stream_values)", "euler2d.poisson"),
              ("advect_values", "euler2d.advect"),
              ("step()", "euler2d.step"),
              ("diagnostics.record", "diagnostics.record"),
              ("write_checkpoint (text)", "euler2d.checkpoint"))


def baseline_cells(workload, traced):
    """p50 ms and sample count of each baseline-table layer at this grid."""
    if workload not in workloads.EVOLVE:
        return {}
    n = workloads.EVOLVE[workload]["n"]
    cells = {}
    for label, name in TABLE_ROWS:
        samples = [1e3 * (s["end"] - s["start"])
                   for r in traced for s in r["spans"] if s["name"] == name]
        if samples:
            cells[f"{label}|{n}"] = (median(samples), len(samples))
    return cells


def format_table(cells):
    lines = ["| layer | 128² | 256² |", "| --- | --- | --- |"]
    for label, _ in TABLE_ROWS:
        row = [label]
        for n in (128, 256):
            cell = cells.get(f"{label}|{n}")
            row.append("—" if cell is None else f"{cell[0]:.2f} ms (n={cell[1]})")
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)


# ==================================================================
# Entry point
# ==================================================================

def environment(seed, workload):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "accband")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    import numpy
    import scipy
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "seed": seed, "held_out_seed": workloads.HELD_OUT_SEED,
            "input_set": workloads.input_set(seed) if workload in workloads.EVOLVE else seed,
            "child_env": CHILD_ENV}


def measure(acc, workload, seed, seconds, trace):
    """Closed loop of runs for ``seconds``.

    In trace mode untraced and traced runs alternate; after ``seconds`` more
    traced runs follow, if needed, until euler2d.step has P95_SAMPLES samples.
    """
    start = time.monotonic()
    budget = seconds + TOPUP_S
    untraced, traced = [], []
    selftest = self_test(acc) if trace else None
    while True:
        elapsed = time.monotonic() - start
        longest = max((r["run_s"] for r in untraced + traced), default=0.0)
        if trace:
            need_pairs = (elapsed < seconds or len(untraced) < MIN_TRACED_PAIRS
                          or len(traced) < MIN_TRACED_PAIRS)
            steps = sum(s["name"] == "euler2d.step" for r in traced for s in r["spans"])
            need_steps = workload in workloads.EVOLVE and steps < P95_SAMPLES
            wanted = need_pairs or need_steps
            tracing = len(traced) < len(untraced) or not need_pairs
        else:
            wanted = elapsed < seconds or len(untraced) < MIN_RUNS
            tracing = False
        if not wanted:
            break
        if elapsed + longest > budget:
            print(f"   warning: {workload} stopped by the {budget:.0f} s budget after "
                  f"{len(untraced)} untraced and {len(traced)} traced runs, "
                  "fewer than asked for")
            break
        run = run_once(acc, workload, seed, tracing,
                       f"{workload}-{len(untraced) + len(traced)}")
        (traced if tracing else untraced).append(run)
    return untraced, traced, selftest


def report(workload, env, untraced, traced, selftest):
    runs = untraced + traced
    subruns = [s for r in runs for s in r["subruns"]]
    failed = sum(1 for s in subruns if s["problems"])
    e2e = end_to_end(untraced)
    print(f"== {workload}  seed={env['seed']} input_set={env['input_set']} "
          f"commit={env['commit']} src={env['src_sha256']} nproc={env['nproc']} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']}")
    print(f"   {len(untraced)} untraced and {len(traced)} traced runs; "
          f"{len(subruns)} (sub-)runs checked, {failed} failed")
    for s in subruns:
        if s["problems"]:
            print(f"   FAILED {s['name']}: {'; '.join(s['problems'][:4])}")
    extra = {"fail_ratio": (failed / len(subruns), "1")}
    rate = "configs_per_s" if workload == "zonal_scan" else "steps_per_s"
    extra[rate] = (e2e["work_per_s"], "1/s")
    if workload in workloads.EVOLVE:
        for key in ("energy_drift", "identity_defect"):
            extra[key] = (median(s.get(key) for s in subruns), "1")
    extra["cores_busy"] = (median(r["cpu_s"] / r["run_s"] for r in untraced), "1")
    for name, unit in END_TO_END:
        print(f"   {name:<16} {e2e[name]:12.6g} {unit}")
    for name, (value, unit) in extra.items():
        print(f"   {name:<16} {value:12.6g} {unit}")
    result = {"workload": workload, "env": env, "end_to_end": e2e,
              "extra": {k: v[0] for k, v in extra.items()},
              "runs": [{k: v for k, v in r.items() if k != "spans"} for r in runs]}
    if traced:
        layers = layer_metrics(traced, untraced)
        print(f"   self-test: CFL-breaking sweep exited {selftest['exit']}; "
              f"{selftest['started_subruns']} of 2 workers started, "
              f"{selftest['failed_subruns']} of 2 sub-runs counted as failed")
        for name, value in layers.items():
            print(f"   {name:<46} {value:12.6g} {layer_unit(name)}")
        step_n = sum(s["name"] == "euler2d.step" for r in traced for s in r["spans"])
        if 0 < step_n < P95_SAMPLES:
            print(f"   (euler2d.step.p95_ms needs {P95_SAMPLES} samples, have {step_n}: 0)")
        result["per_layer"] = layers
        result["selftest"] = selftest
        result["table"] = baseline_cells(workload, traced)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results",
                        f"{workload}-seed{env['seed']}-trace{int(bool(traced))}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    return result, len(subruns), failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    acc = load_accband()

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    cells = {}
    for workload in names:
        env = environment(args.seed, workload)
        untraced, traced, selftest = measure(acc, workload, args.seed, args.seconds,
                                             bool(args.trace))
        result, n, bad = report(workload, env, untraced, traced, selftest)
        attempted += n
        failed += bad
        prefix = f"{workload}/" if len(names) > 1 else ""
        if args.trace:
            cells.update(result["table"])
            values = {k: (v, layer_unit(k)) for k, v in result["per_layer"].items()}
        else:
            values = {k: (result["end_to_end"][k], u) for k, u in END_TO_END}
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in values.items()})
    if args.trace:
        print("Per-layer baseline table, traced p50 per call (sample count):")
        print(format_table(cells))
    shutil.rmtree(os.path.join(WORK, "work"), ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

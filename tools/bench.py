#!/usr/bin/env python3
"""Benchmark two revisions of accband against each other in alternating pairs.

    python tools/bench.py <rev-a> <rev-b> --label L [--workload W] [--seed N]

Run from the root of the git repository. Both revisions are unpacked with
compare_outputs.unpack into one temporary directory, as ``a/`` and ``b/``
(paths of equal length). Each of PAIRS pairs runs each tree's own,
unchanged ``perfbench/run.py --workload W --seed N --seconds S --trace 0``
once, side a first in pairs 0, 2, 4, ... and side b first in the others,
and collects the end-to-end metrics of its last output line. W defaults
to ``all`` and N to 1; S is the ``run_seconds`` of side a's
BENCHMARK.json, the run length the benchmark sets.

Before the pairs, each tree's ``euler2d.step`` is also measured directly,
in a fresh process of its own with that tree's ``src/`` first on the
path (step_probe): at 128^2, 256^2 and 512^2, on the MILD_NEG band of
the test suite at Courant 0.5 and after two warm-up steps, the minor
page faults of one steady step and the tracemalloc peak of the next, in
fields (the peak's bytes over one n_rho x n_phi float64 field).

After the pairs, each tree's CLI also runs each workload LAUNCHES times
through tools/launch.py, alternating sides as the pairs do: a plain
launcher that imports no numpy and reads the child's wall time and
ru_maxrss from os.wait4, so the reading carries no floor from a large
parent process (perfbench/run.py holds numpy when it starts its child).

``BENCH_<L>.json``, written to the current directory, records the two
commits and their ``src/`` trees, the machine, the command line, each
tree's step figures, each run's count of failed (sub-)runs and, per
metric, each side's values, median and interquartile range, the pairs
each side won (ties count for neither) and ``b_better``: whether b won
at least nine tenths of the pairs and its median beats a's by more than
a's interquartile range. Which direction is better also comes from side
a's BENCHMARK.json. The launcher's ``run_s`` and ``peak_rss_mb`` per
workload, summarized the same way, and its exit codes go under the
``launcher`` key.

Exit code: 0 when every run of both sides checked its outputs as correct,
1 otherwise.
"""

import argparse
import json
import os
import pathlib
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import tracemalloc

import numpy as np

import compare_outputs

# The fewest alternating pairs that can show a gain.
PAIRS = 10
# Launcher runs per side and workload: a check on the pairs, not a claim.
LAUNCHES = 3
STEP_SIZES = (128, 256, 512)
TOOLS = pathlib.Path(__file__).resolve().parent


def run_perfbench(tree, workload, seed, seconds):
    """One run of tree's perfbench/run.py, untraced; its last line, parsed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_launcher(tree, workload, seed):
    """One run of tree's CLI on workload through tools/launch.py; its JSON line."""
    with tempfile.TemporaryDirectory(prefix="accband-launch-") as out:
        done = subprocess.run(
            [sys.executable, str(TOOLS / "launch.py"), str(tree), workload, str(seed), out],
            capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def launcher_layer(trees, workloads, seed):
    """{workload: run_s and peak_rss_mb compared, exit codes} over LAUNCHES
    alternating runs per side."""
    layer = {}
    for workload in workloads:
        runs = {"a": [], "b": []}
        for k in range(LAUNCHES):
            for side in "ab" if k % 2 == 0 else "ba":
                runs[side].append(run_launcher(trees[side], workload, seed))
        layer[workload] = {
            "order": ["ab" if k % 2 == 0 else "ba" for k in range(LAUNCHES)],
            "exit": {side: [r["exit"] for r in runs[side]] for side in "ab"},
            **{name: compare([r[name] for r in runs["a"]], [r[name] for r in runs["b"]],
                             "lower") for name in ("run_s", "peak_rss_mb")}}
        print(f"launcher {workload}: " + ", ".join(
            f"{name} a {layer[workload][name]['a']['median']:.4g}, "
            f"b {layer[workload][name]['b']['median']:.4g}"
            for name in ("run_s", "peak_rss_mb")), flush=True)
    return layer


def step_probe(sizes):
    """{"<n>x<n>": {"peak_fields", "minor_faults"}} of one steady step per size."""
    from accband import euler2d
    from accband.geometry import BandConfig
    from accband.grids import AnnulusGrid

    config = BandConfig(psi1=-0.2, psi2=0.2, omega=2.0, lam=-10.0, upsilon=1.0)
    figures = {}
    for n in sizes:
        grid = AnnulusGrid.from_band(config, n, n)
        state = euler2d.perturbed_zonal_state(config, grid, 0.01, 3, seed=6)
        w_rho, w_phi = euler2d.advecting_velocity(euler2d.stream_of(state), grid)
        dt = 0.5 / euler2d.cfl_number(w_rho, w_phi, 1.0, grid)
        del w_rho, w_phi
        targets = euler2d.circulation_targets(state)
        for _ in range(2):
            state = euler2d.step(state, dt, targets)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        state = euler2d.step(state, dt, targets)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        tracemalloc.start()
        state = euler2d.step(state, dt, targets)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        figures[f"{n}x{n}"] = {"peak_fields": peak / state.zeta.nbytes,
                               "minor_faults": faults}
    return figures


def step_layer(tree):
    """step_probe(STEP_SIZES) run on tree's src/ in a fresh process."""
    code = f"import json, bench; print(json.dumps(bench.step_probe({STEP_SIZES!r})))"
    done = subprocess.run([sys.executable, "-c", code], cwd=tree, capture_output=True,
                          text=True, check=True,
                          env={**os.environ, "PYTHONPATH": f"{tree / 'src'}{os.pathsep}{TOOLS}"})
    return json.loads(done.stdout)


def revision(rev):
    """The commit and the src/ tree object that rev names."""
    names = subprocess.run(["git", "rev-parse", f"{rev}^{{commit}}", f"{rev}:src"],
                           check=True, capture_output=True, text=True).stdout.split()
    return {"rev": rev, "commit": names[0], "src_tree": names[1]}


def machine():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__}


def side_summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(values_a, values_b, better):
    """One metric's summary over the pairs; better is "lower" or "higher"."""
    sign = -1.0 if better == "lower" else 1.0
    a, b = side_summary(values_a), side_summary(values_b)
    b_wins = sum(sign * (vb - va) > 0 for va, vb in zip(values_a, values_b))
    a_wins = sum(sign * (va - vb) > 0 for va, vb in zip(values_a, values_b))
    gain = sign * (b["median"] - a["median"])
    return {"better": better, "a": a, "b": b, "a_wins": a_wins, "b_wins": b_wins,
            "b_better": b_wins >= 0.9 * len(values_a) and gain > a["iqr"]}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--label", required=True)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9_-]+", args.label):
        parser.error("--label takes letters, digits, '_' and '-' only")

    revs = {"a": revision(args.rev_a), "b": revision(args.rev_b)}
    runs = {"a": [], "b": []}
    with tempfile.TemporaryDirectory(prefix="accband-bench-") as tmp:
        trees = {side: pathlib.Path(tmp) / side for side in "ab"}
        for side in "ab":
            compare_outputs.unpack(revs[side]["commit"], trees[side])
        spec = json.loads((trees["a"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        seconds = spec["run_seconds"]
        steps = {side: step_layer(trees[side]) for side in "ab"}
        for size in steps["a"]:
            print(f"step {size}: " + ", ".join(
                f"{side} {steps[side][size]['peak_fields']:.3f} fields, "
                f"{steps[side][size]['minor_faults']} faults" for side in "ab"), flush=True)
        for k in range(PAIRS):
            for side in "ab" if k % 2 == 0 else "ba":
                result = run_perfbench(trees[side], args.workload, args.seed, seconds)
                runs[side].append(result)
                print(f"pair {k} side {side}: " + ", ".join(
                    f"{name} {m['value']:.6g}" for name, m in result["metrics"].items()),
                    flush=True)
        workloads = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
                     else [args.workload])
        launcher = launcher_layer(trees, workloads, args.seed)

    metrics = {}
    for name, first in runs["a"][0]["metrics"].items():
        metrics[name] = {"unit": first["unit"], **compare(
            [r["metrics"][name]["value"] for r in runs["a"]],
            [r["metrics"][name]["value"] for r in runs["b"]],
            better[name.rsplit("/", 1)[-1]])}
        m = metrics[name]
        print(f"{name}: a {m['a']['median']:.6g} (IQR {m['a']['iqr']:.3g}), "
              f"b {m['b']['median']:.6g} (IQR {m['b']['iqr']:.3g}), "
              f"b won {m['b_wins']} of {PAIRS}, a won {m['a_wins']}"
              + ("; b better" if m["b_better"] else ""))
    failed = {side: [r["failed"] for r in runs[side]] for side in "ab"}
    correct = all(r["correct"] for side in "ab" for r in runs[side])
    report = {
        "label": args.label, "a": revs["a"], "b": revs["b"], "machine": machine(),
        "command": ["tools/bench.py", *argv],
        "run_command": ["perfbench/run.py", "--workload", args.workload, "--seed",
                        str(args.seed), "--seconds", str(seconds), "--trace", "0"],
        "pair_order": ["ab" if k % 2 == 0 else "ba" for k in range(PAIRS)],
        "step": steps,
        "launcher": launcher,
        "failed": failed, "correct": correct, "metrics": metrics,
    }
    path = pathlib.Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Run one benchmark workload's CLI in a child process; print its wall time
and peak resident memory as one JSON line.

    python tools/launch.py <tree> <workload> <seed> <out>

<tree> is a checkout of accband. The argument lists come from the tree's
own perfbench/workloads.py, as perfbench/run.py builds them (one for an
evolve workload, one per configuration for zonal_scan), and a child
process runs them in turn through accband.cli.main, with <tree>/src first
on its path and one BLAS thread, as perfbench/child.py does. The outputs
go under <out>. The line holds ``run_s``, ``peak_rss_mb`` and ``exit``,
the first two from os.wait4 on the child: its wall time and ru_maxrss.

This process never imports numpy. Linux carries the resident high-water
mark of the process that starts a child into the child's ru_maxrss at
exec, so a launcher holding numpy (as perfbench/run.py does) puts a floor
of its own size under every reading.
"""

import json
import os
import sys
import time

CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def workload_argvs(tree, workload, seed, out):
    """The CLI argument lists of one workload run, from tree's workloads.py."""
    sys.path.insert(0, os.path.join(tree, "perfbench"))
    import workloads

    if workload == "zonal_scan":
        return [workloads.zonal_argv(config, os.path.join(out, f"cfg_{i:02d}"))
                for i, config in enumerate(workloads.zonal_configs(seed))]
    return [workloads.evolve_argv(workload, workloads.load_inputs(workload, seed), out)]


def launch(tree, workload, seed, out):
    """{"run_s", "peak_rss_mb", "exit"} of one child running the workload."""
    import subprocess

    argvs = workload_argvs(tree, workload, seed, out)
    env = {**os.environ, **CHILD_ENV, "PYTHONPATH": os.path.join(tree, "src")}
    t0 = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.abspath(__file__), "--child",
                             json.dumps(argvs)],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    run_s = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"run_s": run_s, "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "exit": proc.returncode}


def run_cli(argvs):
    """The child: each argument list through accband.cli.main; the worst code."""
    from accband import cli

    return max(cli.main(argv) for argv in argvs)


if __name__ == "__main__":
    if sys.argv[1] == "--child":
        sys.exit(run_cli(json.loads(sys.argv[2])))
    tree, workload, seed, out = sys.argv[1:]
    print(json.dumps(launch(tree, workload, int(seed), out)))

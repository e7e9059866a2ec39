"""One workload run: a fresh process that calls ``accband.cli.main``.

Usage: python3 perfbench/child.py JOB.json

The job file names the CLI argument lists to run in turn, where to write
the result, and whether to trace.  The result records the monotonic time at
which the process was ready to run (``import accband`` done) and the times
at which each ``euler2d.run`` was entered, i.e. when set-up (grid, initial
and reference states) had finished; the harness subtracts its own spawn
time from these, which is valid because ``time.monotonic`` is one
system-wide clock.
"""

import json
import os
import sys
import time

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from accband import cli, diagnostics, euler2d, sturm_liouville, svgplot, zonal  # noqa: E402


def _checkpoint_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _picard_iterations(args, kwargs, result):
    return {"iterations": result.diagnostics["iterations"]}


def install_tracing(tracer):
    """Wrap every layer boundary the per-layer metrics are computed from."""
    wrap = tracer.wrap
    wrap(cli, "dispatch", "cli.dispatch")
    for attr in ("perturbed_zonal_state", "zonal_initial_state"):
        wrap(euler2d, attr, "euler2d.initial_state")
    wrap(euler2d, "run", "euler2d.run")
    wrap(euler2d, "step", "euler2d.step")
    wrap(euler2d, "bar_stream_values", "euler2d.poisson")
    wrap(euler2d, "advect_values", "euler2d.advect")
    wrap(euler2d, "write_checkpoint", "euler2d.checkpoint", _checkpoint_bytes)
    wrap(diagnostics, "record", "diagnostics.record")
    wrap(zonal, "solve_fd", "zonal.solve_fd")
    wrap(zonal, "solve_sl_expansion", "zonal.solve_sl_expansion")
    wrap(zonal, "solve_picard", "zonal.solve_picard", _picard_iterations)
    wrap(zonal, "solve_closed_form_lambda0", "zonal.solve_closed_form")
    wrap(zonal, "write_profile_csv", "zonal.io")
    wrap(svgplot, "line_plot", "zonal.io")
    wrap(cli, "eigen_solve", "sturm_liouville.eigen_solve")
    wrap(zonal, "eigen_solve", "sturm_liouville.eigen_solve")
    wrap(sturm_liouville, "prufer_angle", "sturm_liouville.prufer_angle")


def mark_run_entries(entries):
    """Note the time each euler2d.run starts (cli looks it up on euler2d)."""
    run = euler2d.run

    def marked(*args, **kwargs):
        entries.append(time.monotonic())
        return run(*args, **kwargs)

    euler2d.run = marked


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    tracer = spans.Tracer() if job["trace"] else None
    if tracer is not None:
        install_tracing(tracer)
    entries = []
    mark_run_entries(entries)
    ready = time.monotonic()
    codes = [cli.main(argv) for argv in job["argvs"]]
    if tracer is not None:
        tracer.dump(job["spans"])
    with open(job["result"], "w") as fh:
        json.dump({"ready": ready, "run_entries": entries, "codes": codes}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))

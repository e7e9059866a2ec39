"""Command-line driver.

Modes:
  zonal      solve the steady zonal profile; emit CSV + SVG, a method
             cross-check table when lam = 0, and a short spectrum report
  spectrum   leading eigenvalues of the homogeneous band problem
  evolve     time-step the band flow from the zonal state (optionally
             perturbed); emit diagnostics CSV + checkpoints
  stability  evolve a seeded perturbation and track both sides of the
             zonal-stability identity

Configuration comes from an INI-style file (sections [band], [grid],
[run]; '#' comments) and/or flags, flags winning. Every setting is one
OPTIONS entry; its flag is the file key with '_' -> '-' (n_rho is
--n-rho). Unknown keys and malformed flags are configuration errors.
Exit codes: 0 ok, 1 invalid configuration, 2 numerical failure, 3 I/O
failure.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from dataclasses import make_dataclass, replace

import numpy as np

from .errors import AccBandError, ConfigError, NumericalError, ParseError, ValidationError
from .geometry import BandConfig
from .grids import AnnulusGrid
from . import diagnostics, euler2d, svgplot, zonal
# cli no longer calls eigen_solve (zonal.band_spectrum does), but the
# name stays importable: perfbench/child.py wraps cli.eigen_solve.
from .sturm_liouville import eigen_solve  # noqa: F401

MODES = ("zonal", "evolve", "stability", "spectrum")
ZONAL_METHODS = ("fd", "closed_form", "picard", "sl_expansion")
_CHOICES = {"mode": MODES, "method": ZONAL_METHODS}

# Every setting, declared once: key -> (section, type, default). The
# scenario-file key, its flag (--key with '_' -> '-') and, outside [band],
# its RunSpec field are all derived from this table.
OPTIONS = {
    "theta1_deg": ("band", float, -60.0),
    "theta2_deg": ("band", float, -50.0),
    "psi1": ("band", float, -5.0),
    "psi2": ("band", float, -25.0),
    "omega": ("band", float, 4650.0),
    "lambda": ("band", float, 0.0),
    "upsilon": ("band", float, 0.0),
    "u_scale": ("band", float, 0.1),
    "n_rho": ("grid", int, 128),
    "n_phi": ("grid", int, 128),
    "n_zonal": ("grid", int, 2001),
    "mode": ("run", str, None),
    "dt": ("run", float, 0.0),
    "t_end": ("run", float, 1.0),
    "output_stride": ("run", int, 1),
    "method": ("run", str, "fd"),
    "amplitude": ("run", float, 0.0),
    "wavenumber": ("run", int, 3),
    "seed": ("run", int, 0),
}

# The [band] settings become one BandConfig; every other one is a field.
_RUN_KEYS = [key for key, (section, _, _) in OPTIONS.items() if section != "band"]
RunSpec = make_dataclass(
    "RunSpec",
    [(key, OPTIONS[key][1]) for key in _RUN_KEYS] + [("config", BandConfig), ("out_dir", str)],
    namespace={"__module__": __name__, "__doc__": "One resolved run: settings, band, output."},
)


def _convert(key, text, line):
    """Type one setting's text as OPTIONS says; ParseError if it cannot be."""
    try:
        return OPTIONS[key][1](text)
    except ValueError:
        raise ParseError(f"cannot parse value {text!r}", line=line, key=key) from None


def _check_finite(key, value):
    """ValidationError unless a float setting is a finite number."""
    if not math.isfinite(value):
        raise ValidationError(f"{key} must be finite, got {value!r}")


def _parse_file(path):
    """Strict key = value reader with line numbers."""
    sections = {section for section, _, _ in OPTIONS.values()}
    values = {}
    section = None
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in sections:
                    raise ParseError(f"unknown section [{section}]", line=lineno)
                continue
            if "=" not in line:
                raise ParseError("expected 'key = value'", line=lineno)
            if section is None:
                raise ParseError("key outside of any section", line=lineno)
            key, _, text = line.partition("=")
            key = key.strip()
            if key not in OPTIONS or OPTIONS[key][0] != section:
                raise ParseError(f"unknown key in [{section}]", line=lineno, key=key)
            values[key] = _convert(key, text.strip(), lineno)
    return values


def parse_config(path=None, overrides=None, out_dir="accband_out") -> RunSpec:
    """Merge defaults, an optional config file, and flag overrides."""
    values = {key: default for key, (_, _, default) in OPTIONS.items()}
    if path is not None:
        values.update(_parse_file(path))
    for key, val in (overrides or {}).items():
        if val is not None:
            values[key] = val

    for key, (_, kind, _) in OPTIONS.items():
        if kind is float:
            _check_finite(key, values[key])
    for key, choices in _CHOICES.items():
        if values[key] not in choices:
            raise ValidationError(f"{key} must be one of {choices}, got {values[key]!r}")
    if values["t_end"] < 0:
        raise ValidationError("t_end must be nonnegative")
    if values["amplitude"] < 0:
        raise ValidationError("amplitude must be nonnegative")
    if values["output_stride"] < 1:
        raise ValidationError("output_stride must be at least 1")
    if values["seed"] < 0:
        raise ValidationError("seed must be nonnegative")
    if values["n_zonal"] < 5:
        raise ValidationError("n_zonal must be at least 5")

    config = BandConfig(
        theta1=math.radians(values["theta1_deg"]),
        theta2=math.radians(values["theta2_deg"]),
        psi1=values["psi1"], psi2=values["psi2"], omega=values["omega"],
        lam=values["lambda"], upsilon=values["upsilon"],
        u_scale=values["u_scale"],
    )
    if values["mode"] in ("evolve", "stability"):
        if not values["dt"] > 0:
            raise ValidationError("dt must be positive for evolve/stability runs")
        AnnulusGrid.from_band(config, values["n_rho"], values["n_phi"])  # the grid's checks
    return RunSpec(config=config, out_dir=str(out_dir),
                   **{key: values[key] for key in _RUN_KEYS})


# ==================================================================
# Modes
# ==================================================================

def _solve_profile(spec, method):
    solve, *samples = {
        "closed_form": (zonal.solve_closed_form_lambda0, spec.n_zonal),
        "fd": (zonal.solve_fd, spec.n_zonal),
        "picard": (zonal.solve_picard, spec.n_zonal),
        "sl_expansion": (zonal.solve_sl_expansion,),
    }[method]
    # One call line for every method: the psi1 == psi2 warning names the
    # line that called the solver, so Python's default filter prints it
    # once per process, not once per cross-check solve.
    return solve(spec.config, *samples)


def _spectrum_report(spec, out, n_eigen=5):
    spectrum = zonal.band_spectrum(spec.config.theta1, spec.config.theta2)
    lam = spec.config.lam
    lines, near = ["index,eigenvalue,rel_distance_to_lambda"], []
    for k, mu in enumerate(spectrum.eigenvalues[:n_eigen], start=1):
        rel = abs(lam - mu) / max(abs(mu), 1.0)
        lines.append(f"{k},{float(mu)!r},{float(rel)!r}")
        if rel < 1e-6:
            near.append(float(mu))
    if near:
        lines.append(f"# WARNING lambda={lam} is within rel 1e-6 of {near}")
    (out / "spectrum.csv").write_text("\n".join(lines) + "\n")


def run_mode_zonal(spec, out):
    profile = _solve_profile(spec, spec.method)
    # the plot refuses a non-finite velocity before any file is written
    svgplot.line_plot(
        out / "profile.svg",
        np.degrees(profile.thetas), profile.u_dimensional,
        xlabel="latitude [deg]", ylabel="zonal velocity [m/s]",
        title=f"zonal velocity (lambda={spec.config.lam:g}, "
              f"upsilon={spec.config.upsilon:g})",
    )
    zonal.write_profile_csv(profile, out / "profile.csv")
    _spectrum_report(spec, out)
    if spec.config.lam == 0.0:
        # the requested method's profile is one of the three: solve it once
        profiles = {m: profile if m == spec.method else _solve_profile(spec, m)
                    for m in ("closed_form", "fd", "picard")}
        lines = ["method_a,method_b,sup_difference"]
        names = sorted(profiles)
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                pa, pb = profiles[a], profiles[b]
                diff = np.max(np.abs(
                    np.interp(pb.thetas, pa.thetas, pa.psi) - pb.psi
                ))
                lines.append(f"{a},{b},{float(diff)!r}")
        (out / "zonal_crosscheck.csv").write_text("\n".join(lines) + "\n")
    return 0


def run_mode_spectrum(spec, out):
    _spectrum_report(spec, out, n_eigen=10)
    return 0


def run_mode_evolve(spec, out):
    """Evolve the zonal state, solved once as the run's reference, perturbed
    (at amplitude 0, the reference itself): the evolve and stability modes.

    Every output state of euler2d.run gets a diagnostics.csv row, then a
    checkpoint (evolve) or a stability.csv row (stability), whose rhs is
    the t = 0 stability_lhs. Each row is flushed as it is written, so a
    step that fails mid-run leaves the rows of every state before it.
    After the last state come summary.json and the invariant check, both
    read from the t = 0 record, the last one and two running tallies (the
    largest max_xi and the worst circ1 drift). The loop keeps only the
    current output state and no list of records, so a run's memory does
    not grow with its output count.

    Returns 2 if max|xi| exceeded the transport bound or the inner-wall
    circulation drifted, else 0.
    """
    stability = spec.mode == "stability"
    if stability and spec.config.lam > 0:
        print(
            "warning: lambda > 0 gives no stability guarantee; "
            "the identity is still tracked",
            file=sys.stderr,
        )
    grid = AnnulusGrid.from_band(spec.config, spec.n_rho, spec.n_phi)
    with np.errstate(all="ignore"):  # a huge setting overflows; checked below
        reference = euler2d.zonal_initial_state(spec.config, grid)
        state = euler2d.perturb(reference, spec.amplitude, spec.wavenumber, spec.seed)
    for name, s in (("zonal reference", reference), ("initial", state)):
        if not (np.isfinite(s.zeta).all() and np.isfinite(s.stream).all()):
            raise NumericalError(f"the {name} state is not finite")
    bound = euler2d.xi_bound(spec.config, state.zeta)
    ckpt_dir = out / "checkpoints"
    with contextlib.ExitStack() as files:
        diag_csv = files.enter_context(open(out / "diagnostics.csv", "w", newline=""))
        diag_csv.write(diagnostics.CSV_HEADER + "\n")
        if stability:
            stab_csv = files.enter_context(open(out / "stability.csv", "w", newline=""))
            stab_csv.write("t,lhs,rhs,defect\n")
        else:
            ckpt_dir.mkdir(exist_ok=True)
        outputs = euler2d.run(state, spec.t_end, spec.dt, spec.output_stride)
        del state  # run holds it until its first step
        n = 0  # not enumerate: its reused tuple would keep the last state alive
        for s in outputs:
            rec = diagnostics.record(s, reference=reference)
            n += 1
            if n == 1:
                first, max_xi, circ1_drift = rec, rec.max_xi, 0.0
            max_xi = max(max_xi, rec.max_xi)
            circ1_drift = max(circ1_drift, abs(rec.circ1 - first.circ1))
            diag_csv.write(rec.csv_row() + "\n")
            diag_csv.flush()
            if stability:
                lhs, rhs = rec.stability_lhs, first.stability_lhs
                stab_csv.write(f"{float(s.t)!r},{float(lhs)!r},{float(rhs)!r},"
                               f"{float(lhs - rhs)!r}\n")
                stab_csv.flush()
            else:
                euler2d.write_checkpoint(ckpt_dir / f"checkpoint_{n - 1:06d}.txt", s)
            del s  # not kept while the run steps

    (out / "summary.json").write_text(
        json.dumps(diagnostics.summary(first, rec, n, max_xi), indent=2, sort_keys=True) + "\n"
    )
    breaches = []
    if max_xi > bound + 1e-10:
        breaches.append("max|xi| exceeded the transport bound")
    if circ1_drift > 1e-8 * max(1.0, abs(first.circ1)):
        breaches.append("inner-wall circulation drifted beyond 1e-8")
    if breaches:
        print("invariant breach: " + "; ".join(breaches), file=sys.stderr)
        return 2
    return 0


# ==================================================================
# Entry point
# ==================================================================

def read_csv(path):
    """Bundled reader for every CSV this tool emits (roundtrip checks).

    Returns (header, columns); numeric cells become floats, the rest stay
    strings. Comment lines starting with '#' are skipped.
    """
    with open(path) as fh:
        lines = [ln.strip() for ln in fh
                 if ln.strip() and not ln.lstrip().startswith("#")]
    if not lines:
        raise ParseError("no header line")
    header = lines[0].split(",")
    columns = {name: [] for name in header}
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"row has {len(cells)} cells, header has {len(header)}")
        for name, cell in zip(header, cells):
            try:
                columns[name].append(float(cell))
            except ValueError:
                columns[name].append(cell)
    return header, columns


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as a ParseError, so it exits 1."""

    def error(self, message):
        raise ParseError(message)


@functools.cache
def build_arg_parser():
    """The command-line parser, built once per process (parsing leaves it unchanged)."""
    parser = _ArgumentParser(
        prog="accband",
        description="Zonal jets and barotropic dynamics on a spherical band",
    )
    parser.add_argument("--config", help="INI-style scenario file")
    parser.add_argument("--out", default="accband_out", help="output directory")
    for key, (section, _, default) in OPTIONS.items():
        choices = _CHOICES.get(key)
        parser.add_argument(
            "--" + key.replace("_", "-"), dest=key,
            metavar="{" + ",".join(choices) + "}" if choices else None,
            help=f"[{section}] {key}" + ("" if default is None else f", default {default}"),
        )
    parser.add_argument("--sweep", help="comma-separated lambda values to fan out")
    return parser


def dispatch(spec: RunSpec) -> int:
    import pathlib

    out = pathlib.Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = {
        "zonal": run_mode_zonal,
        "spectrum": run_mode_spectrum,
        "evolve": run_mode_evolve,
        "stability": run_mode_evolve,
    }[spec.mode]
    return runner(spec, out)


_EXIT_CODES = (
    (ConfigError, 1, "configuration error"),
    (NumericalError, 2, "numerical failure"),
    (AccBandError, 2, "error"),
    (OSError, 3, "i/o failure"),
)


def _exit_code(err) -> int:
    """Report a failure on stderr and return its documented exit code."""
    for kind, code, label in _EXIT_CODES:
        if isinstance(err, kind):
            print(f"{label}: {err}", file=sys.stderr)
            return code
    raise err


def main(argv=None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
        overrides = {key: _convert(key, text, None) for key, text in vars(args).items()
                     if key in OPTIONS and text is not None}
        spec = parse_config(args.config, overrides, args.out)
        if args.sweep:
            lams = [_convert("lambda", tok, None) for tok in args.sweep.split(",") if tok.strip()]
            if not lams:
                raise ValidationError("--sweep needs at least one lambda value")
            for v in lams:
                _check_finite("lambda", v)
            # at most one worker thread per core; each lambda runs to
            # completion and the worst exit code wins
            subs = [replace(spec, config=replace(spec.config, lam=v),
                            out_dir=f"{spec.out_dir}/sweep_{v:g}") for v in lams]
            dirs = [sub.out_dir for sub in subs]
            shared = sorted({d for d in dirs if dirs.count(d) > 1})
            if shared:
                raise ValidationError(f"--sweep lambdas share output directories {shared}")
            # imported here, so that no other run loads concurrent.futures
            from concurrent.futures import ThreadPoolExecutor

            workers = min(len(subs), os.cpu_count() or 1)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(dispatch, sub) for sub in subs]
            return max(_exit_code(f.exception()) if f.exception() else f.result()
                       for f in futures)
        return dispatch(spec)
    except (AccBandError, OSError) as err:
        return _exit_code(err)


if __name__ == "__main__":
    sys.exit(main())

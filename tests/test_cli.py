"""CLI: config parsing, run modes, exit codes, determinism."""

import concurrent.futures
import importlib.util
import math
import os
import pathlib
import subprocess
import sys
import types
import warnings
import weakref

import numpy as np
import pytest

import accband
from accband import cli, euler2d
from accband.cli import MODES, OPTIONS, ZONAL_METHODS, main, parse_config
from accband.errors import NearEigenvalue, ParseError, ValidationError
from accband.geometry import BandConfig
from accband.sturm_liouville import prufer_eigenvalues
from accband.zonal import band_problem

MILD_BAND = [
    "--psi1", "-0.2", "--psi2", "0.2", "--omega", "2.0", "--upsilon", "1.0",
]

# One valid, non-default value per option, as it would be typed.
SAMPLE_VALUES = {
    "theta1_deg": "-61.5", "theta2_deg": "-48.25", "psi1": "-0.3", "psi2": "0.4",
    "omega": "3.5", "lambda": "-7", "upsilon": "2.5", "u_scale": "0.2",
    "n_rho": "40", "n_phi": "36", "n_zonal": "301",
    "mode": "stability", "dt": "0.004", "t_end": "0.5", "output_stride": "4",
    "method": "picard", "amplitude": "0.02", "wavenumber": "5", "seed": "11",
}

FLOAT_KEYS = sorted(key for key, (_, kind, _) in OPTIONS.items() if kind is float)


class TestParseConfig:
    def test_empty_file_requires_mode(self, tmp_path):
        path = tmp_path / "empty.ini"
        path.write_text("")
        with pytest.raises(ValidationError, match="mode"):
            parse_config(path)

    def test_figure1_scenario_file(self, tmp_path):
        path = tmp_path / "fig1.ini"
        path.write_text(
            "[band]\n"
            "lambda = -3000  # vorticity slope\n"
            "upsilon = 30000\n"
            "psi1 = -5\n"
            "psi2 = -25\n"
            "[run]\n"
            "mode = zonal\n"
        )
        spec = parse_config(path)
        assert spec.config.lam == -3000.0
        assert spec.config.upsilon == 30000.0
        assert spec.config.psi1 == -5.0 and spec.config.psi2 == -25.0
        assert spec.config.omega == 4650.0  # default
        assert spec.config.theta1 == pytest.approx(math.radians(-60.0))

    def test_negative_dt_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[run]\nmode = evolve\ndt = -1\n")
        with pytest.raises(ValidationError, match="dt"):
            parse_config(path)

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[band]\nomega = 10\nwhat = 3\n")
        with pytest.raises(ParseError) as err:
            parse_config(path)
        assert err.value.line == 3
        assert err.value.key == "what"

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[planets]\nomega = 10\n")
        with pytest.raises(ParseError):
            parse_config(path)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "base.ini"
        path.write_text("[band]\nomega = 10\n[run]\nmode = zonal\n")
        spec = parse_config(path, overrides={"omega": 25.0, "mode": "spectrum"})
        assert spec.config.omega == 25.0
        assert spec.mode == "spectrum"


class TestOptionTable:
    """Every setting is one OPTIONS entry: its file key and its flag agree."""

    @pytest.mark.parametrize("key", sorted(OPTIONS))
    def test_file_and_flag_give_equal_specs(self, key, tmp_path, monkeypatch):
        specs = []
        monkeypatch.setattr(cli, "dispatch", lambda spec: specs.append(spec) or 0)
        settings = {"mode": "evolve", "dt": "0.003", key: SAMPLE_VALUES[key]}
        sections = {}
        for name, text in settings.items():
            sections.setdefault(OPTIONS[name][0], []).append(f"{name} = {text}")
        path = tmp_path / "scenario.ini"
        path.write_text("".join(f"[{section}]\n" + "\n".join(lines) + "\n"
                                for section, lines in sections.items()))
        flags = [tok for name, text in settings.items()
                 for tok in ("--" + name.replace("_", "-"), text)]
        out = str(tmp_path / "out")
        assert main(["--config", str(path), "--out", out]) == 0
        assert main([*flags, "--out", out]) == 0
        from_file, from_flags = specs
        assert from_file == from_flags
        baseline = parse_config(overrides={"mode": "evolve", "dt": 0.003}, out_dir=out)
        assert from_file != baseline  # the setting took effect

    @pytest.mark.parametrize("argv", [
        ["--mode", "bogus"],
        ["--mode", "zonal", "--n-rho", "abc"],
        ["--mode", "zonal", "--n-zonal", "abc"],
        ["--mode", "zonal", "--sweep=a,b"],
        ["--mode", "zonal", "--bogus", "3"],
    ], ids=["mode", "n_rho", "n_zonal", "sweep", "unknown_flag"])
    def test_malformed_flag_exits_one(self, argv, tmp_path, capsys):
        assert main([*argv, "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "Traceback" not in err

    def test_help_exits_zero_and_names_choices(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in (*MODES, *ZONAL_METHODS))


class TestModes:
    def test_zonal_mode_emits_profile_and_crosscheck(self, tmp_path):
        out = tmp_path / "run"
        code = main([
            "--mode", "zonal", "--out", str(out), "--n-zonal", "501",
            "--lambda", "0", *MILD_BAND,
        ])
        assert code == 0
        assert (out / "profile.csv").exists()
        assert (out / "profile.svg").exists()
        assert (out / "spectrum.csv").exists()
        cross = (out / "zonal_crosscheck.csv").read_text().splitlines()
        assert cross[0] == "method_a,method_b,sup_difference"
        assert len(cross) == 4
        worst = max(float(line.split(",")[2]) for line in cross[1:])
        assert worst <= 1e-3

    def test_zonal_crosscheck_reuses_the_requested_profile(self, tmp_path, monkeypatch):
        solves = []
        solve_fd = cli.zonal.solve_fd
        monkeypatch.setattr(cli.zonal, "solve_fd",
                            lambda *args: solves.append(args) or solve_fd(*args))
        assert main(["--mode", "zonal", "--out", str(tmp_path / "run"), "--n-zonal",
                     "201", "--lambda", "0", "--method", "fd", *MILD_BAND]) == 0
        assert len(solves) == 1
        assert len((tmp_path / "run" / "zonal_crosscheck.csv").read_text().splitlines()) == 4

    @pytest.mark.parametrize("method", ZONAL_METHODS)
    def test_thin_band_zonal_run_exits_zero(self, method, tmp_path):
        """A band 0.1 degrees wide near -60 degrees: linspace's round-off on
        its theta grid (about an ulp of theta) exceeds 1e-10 of the step, and
        the fourth-order velocity stencil once refused the grid as not
        uniform (exit 1)."""
        out = tmp_path / "thin"
        assert main(["--mode", "zonal", "--out", str(out), "--theta1-deg", "-60",
                     "--theta2-deg", "-59.9", "--method", method]) == 0
        cross = (out / "zonal_crosscheck.csv").read_text().splitlines()[1:]
        assert len(cross) == 3
        assert max(float(line.split(",")[2]) for line in cross) <= 1e-8

    def test_equal_boundary_values_warn_once_per_zonal_run(self, tmp_path):
        """At lambda = 0 with psi1 == psi2 the run solves four profiles
        (the requested method and the cross-check's three), and stderr
        carries the warning once."""
        src = str(pathlib.Path(accband.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "accband.cli", "--mode", "zonal", "--out",
             str(tmp_path / "equal"), "--method", "sl_expansion", "--lambda", "0",
             "--n-zonal", "201", "--psi1", "-0.2", "--psi2", "-0.2", "--omega", "2.0"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stderr.count("psi1 == psi2") == 1, done.stderr

    def test_zonal_non_finite_velocity_exits_two_without_a_plot(self, tmp_path, monkeypatch,
                                                                capsys):
        solve_fd = cli.zonal.solve_fd

        def nan_velocity(*args):
            profile = solve_fd(*args)
            profile.u_dimensional[len(profile.thetas) // 2] = math.nan
            return profile

        monkeypatch.setattr(cli.zonal, "solve_fd", nan_velocity)
        out = tmp_path / "run"
        assert main(["--mode", "zonal", "--out", str(out), "--n-zonal", "201",
                     "--lambda", "-10", "--method", "fd", *MILD_BAND]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_zonal_figure1_has_boundary_jets(self, tmp_path, plot_pixels, svg_curve):
        out = tmp_path / "fig1"
        code = main([
            "--mode", "zonal", "--out", str(out), "--n-zonal", "2001",
            "--lambda", "-3000", "--upsilon", "30000",
        ])
        assert code == 0
        rows = np.genfromtxt(out / "profile.csv", delimiter=",", names=True)
        speed = np.abs(rows["u_m_per_s"])
        n = len(speed)
        interior = speed[n // 3 : 2 * n // 3]
        assert np.max(speed) >= 3.0 * np.max(interior)
        assert "latitude" in (out / "profile.svg").read_text()
        # the plot draws the table: every vertex is a profile.csv row's pixel
        _, vertices = svg_curve(out / "profile.svg")
        assert vertices == [(round(100 * px), round(100 * py)) for px, py
                            in plot_pixels(rows["theta_deg"], rows["u_m_per_s"])]

    def test_negative_t_end_exits_one_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "neg"
        assert main(["--mode", "evolve", "--out", str(out), "--dt", "0.002",
                     "--t-end", "-1"]) == 1
        assert "t_end" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_one_before_any_output(self, tmp_path, capsys):
        for mode in ("evolve", "stability"):
            out = tmp_path / mode
            assert main(["--mode", mode, "--out", str(out), "--dt", "0.002",
                         "--seed", "-1", "--amplitude", "0.01"]) == 1
            assert "seed" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_flag_exits_one_before_any_output(self, key, text, tmp_path,
                                                          capsys):
        out = tmp_path / "run"
        flag = "--" + key.replace("_", "-")
        assert main(["--mode", "stability", "--out", str(out), "--dt", "0.002",
                     "--t-end", "0.004", "--n-rho", "16", "--n-phi", "16",
                     "--amplitude", "0.01", f"{flag}={text}"]) == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_file_setting_exits_one_before_any_output(self, tmp_path, capsys):
        path = tmp_path / "scenario.ini"
        path.write_text("[run]\nmode = evolve\ndt = 0.002\nt_end = nan\n")
        out = tmp_path / "run"
        assert main(["--config", str(path), "--out", str(out)]) == 1
        assert "t_end must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["--n-zonal", "101", "--sweep=nan,-10", *MILD_BAND], "lambda must be finite"),
        # the lambda = 0 cross-check's velocity stencil needs 5 samples
        (["--method", "picard", "--n-zonal", "4"], "n_zonal must be at least 5"),
    ], ids=["sweep_nan", "n_zonal_4"])
    def test_invalid_zonal_run_exits_one_before_any_output(self, argv, message, tmp_path,
                                                           capsys):
        out = tmp_path / "run"
        assert main(["--mode", "zonal", "--out", str(out), *argv]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()  # a sweep is rejected before any worker starts

    @pytest.mark.parametrize("argv, message", [
        (["--method", "closed_form", "--lambda", "1"], "closed form requires lam = 0"),
        # the default band's contraction factor is 562.8 at this lambda
        (["--method", "picard", "--lambda", "-3000"], "band too wide for |lam| = 3000"),
    ], ids=["closed_form", "picard"])
    def test_method_ruled_out_by_the_flags_exits_one(self, argv, message, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["--mode", "zonal", "--out", str(out), *argv]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error: ")
        assert message in err[0]
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["--mode", "evolve", "--n-rho", "4"],
        ["--mode", "stability", "--n-phi", "7"],
        ["--mode", "evolve", "--n-rho", "4", "--sweep=-10,-20"],
    ], ids=["evolve", "stability", "sweep"])
    def test_too_small_grid_exits_one_before_any_output(self, argv, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out), "--dt", "0.002", "--t-end", "0.004",
                     *MILD_BAND]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "grid needs n_rho >= 8" in err[0]
        assert not out.exists()  # a sweep is rejected before any worker starts

    def test_zonal_run_takes_any_grid(self, tmp_path):
        """The time-stepping grid is checked only in the modes that build it."""
        out = tmp_path / "run"
        assert main(["--mode", "zonal", "--out", str(out), "--n-rho", "4",
                     "--n-zonal", "101", *MILD_BAND]) == 0
        assert (out / "profile.csv").exists()

    def test_spectrum_mode(self, tmp_path):
        out = tmp_path / "spec"
        code = main(["--mode", "spectrum", "--out", str(out), *MILD_BAND])
        assert code == 0
        rows = (out / "spectrum.csv").read_text().splitlines()
        assert rows[0] == "index,eigenvalue,rel_distance_to_lambda"
        eigs = [float(r.split(",")[1]) for r in rows[1:] if not r.startswith("#")]
        assert len(eigs) == 10 and all(np.diff(eigs) > 0)

    def test_lambda_on_an_eigenvalue_warns(self, tmp_path):
        """lambda on the default band's fifth eigenvalue, as shooting finds
        it: the reported spectrum is that close to it, so the warning of
        the non-unique case is printed."""
        config = BandConfig()
        prob = band_problem(config.theta1, config.theta2)
        lam = float(prufer_eigenvalues(prob, n_max=5)[4])
        out = tmp_path / "resonant"
        assert main(["--mode", "zonal", "--lambda", repr(lam), "--out", str(out)]) == 0
        rows = (out / "spectrum.csv").read_text().splitlines()
        assert any(row.startswith("# WARNING") for row in rows)
        fifth = next(row for row in rows if row.startswith("5,"))
        assert float(fifth.split(",")[2]) < 1e-10

    def test_evolve_mode_runs_clean(self, tmp_path):
        out = tmp_path / "evolve"
        code = main([
            "--mode", "evolve", "--out", str(out), "--n-rho", "48",
            "--n-phi", "48", "--dt", "0.002", "--t-end", "0.02",
            "--amplitude", "0.01", "--seed", "7", *MILD_BAND,
        ])
        assert code == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()
        assert rows[0].startswith("t,energy,circ1,circ2")
        assert len(rows) >= 3
        assert any((out / "checkpoints").glob("checkpoint_*.txt"))
        import json

        summary = json.loads((out / "summary.json").read_text())
        assert summary["quantities"]["energy"]["relative_drift"] < 1e-2
        assert summary["records"] == len(rows) - 1

    def test_evolve_cfl_violation_exits_nonzero(self, tmp_path, capsys):
        out = tmp_path / "cfl"
        code = main([
            "--mode", "evolve", "--out", str(out), "--n-rho", "48",
            "--n-phi", "48", "--dt", "5.0", "--t-end", "10.0",
            "--amplitude", "0.01", *MILD_BAND,
        ])
        assert code == 2
        assert "suggested dt" in capsys.readouterr().err

    def test_non_finite_diagnostic_exits_two(self, tmp_path, capsys):
        """A finite but huge omega overflows the diagnostics of the (finite,
        unperturbed) initial state: a numerical failure, not a
        configuration error."""
        with np.errstate(all="ignore"):
            code = main(["--mode", "evolve", "--out", str(tmp_path / "huge"),
                         "--n-rho", "16", "--n-phi", "16", "--dt", "0.001",
                         "--t-end", "0.002", "--omega", "1e300", "--amplitude", "0"])
        assert code == 2
        assert "numerical failure: diagnostic produced a non-finite value" in (
            capsys.readouterr().err)

    HUGE_OMEGA = ["--mode", "evolve", "--omega", "1e300", "--amplitude", "0",
                  "--n-rho", "16", "--n-phi", "16", "--dt", "1e-3", "--t-end", "1e-2"]

    def test_non_finite_diagnostic_is_quiet_in_process(self, tmp_path, capsys):
        """record turns the overflow into NumericalError without numpy's
        warnings, and the t = 0 failure leaves only the CSV header."""
        out = tmp_path / "huge"
        with np.errstate(all="warn"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([*self.HUGE_OMEGA, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "numerical failure: diagnostic produced a non-finite value" in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert (out / "diagnostics.csv").read_text().splitlines() == [
            cli.diagnostics.CSV_HEADER]

    def test_non_finite_diagnostic_is_quiet_on_stderr(self, tmp_path):
        src = str(pathlib.Path(accband.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "accband.cli", *self.HUGE_OMEGA, "--out",
             str(tmp_path / "huge")],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 2
        assert "numerical failure: diagnostic produced a non-finite value" in done.stderr
        assert "RuntimeWarning" not in done.stderr

    def test_initial_state_released_during_strided_run(self, tmp_path, monkeypatch):
        """With outputs every 4th step, the t = 0 state is dropped once its
        row and checkpoint are written, not kept until the next output."""
        step, refs, alive = euler2d.step, [], []

        def spy(state, dt, targets):
            if not refs:
                refs.append(weakref.ref(state))
            alive.append(refs[0]() is not None)
            return step(state, dt, targets)

        monkeypatch.setattr(euler2d, "step", spy)
        assert main(["--mode", "evolve", "--out", str(tmp_path / "run"), "--n-rho", "32",
                     "--n-phi", "32", "--dt", "0.002", "--t-end", "0.016",
                     "--output-stride", "4", "--amplitude", "0.01", *MILD_BAND]) == 0
        assert len(alive) == 8 and not any(alive[2:]), alive

    def test_non_finite_initial_state_exits_two_before_any_file(self, tmp_path,
                                                                 capsys):
        """The perturbation's scale overflows at a huge omega: the run stops
        on the initial state, without numpy's warnings and without a
        header-only diagnostics.csv."""
        out = tmp_path / "huge"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["--mode", "evolve", "--out", str(out), "--omega", "1e300",
                         "--amplitude", "0.01", "--n-rho", "16", "--n-phi", "16",
                         "--dt", "1e-3", "--t-end", "1e-2"])
        err = capsys.readouterr().err
        assert code == 2
        assert "numerical failure: the initial state is not finite" in err
        assert "RuntimeWarning" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (out / "diagnostics.csv").exists()

    def test_stability_failing_first_step_keeps_t0_rows(self, tmp_path, capsys):
        out = tmp_path / "stabfail"
        code = main([
            "--mode", "stability", "--out", str(out), "--n-rho", "32",
            "--n-phi", "32", "--dt", "5", "--t-end", "10",
            "--amplitude", "0.01", "--lambda", "-10", *MILD_BAND,
        ])
        assert code == 2
        assert "suggested dt" in capsys.readouterr().err
        for name, header in (("diagnostics.csv", "t,energy,circ1,circ2"),
                             ("stability.csv", "t,lhs,rhs,defect")):
            rows = (out / name).read_text().splitlines()
            assert len(rows) == 2 and rows[0].startswith(header)
            assert float(rows[1].split(",")[0]) == 0.0
        assert not (out / "summary.json").exists()

    def test_missing_mode_exit_one(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path / "x")]) == 1
        assert "mode" in capsys.readouterr().err

    def test_missing_config_file_exit_three(self, tmp_path, capsys):
        code = main(["--mode", "zonal", "--config",
                     str(tmp_path / "does_not_exist.ini"),
                     "--out", str(tmp_path / "y")])
        assert code == 3
        assert "i/o" in capsys.readouterr().err

    def test_stability_mode_tracks_identity(self, tmp_path):
        out = tmp_path / "stab"
        code = main([
            "--mode", "stability", "--out", str(out), "--n-rho", "48",
            "--n-phi", "48", "--dt", "0.002", "--t-end", "0.02",
            "--amplitude", "0.01", "--wavenumber", "3", "--seed", "3",
            "--lambda", "-10", *MILD_BAND,
        ])
        assert code == 0
        rows = (out / "stability.csv").read_text().splitlines()
        assert rows[0] == "t,lhs,rhs,defect"
        first = rows[1].split(",")
        assert float(first[3]) == 0.0  # defect exactly zero at t = 0
        last = rows[-1].split(",")
        assert abs(float(last[3])) <= 1e-2 * abs(float(last[2]))

    def test_stability_positive_lambda_warns_but_runs(self, tmp_path, capsys):
        out = tmp_path / "stabpos"
        code = main([
            "--mode", "stability", "--out", str(out), "--n-rho", "48",
            "--n-phi", "48", "--dt", "0.002", "--t-end", "0.01",
            "--amplitude", "0.01", "--lambda", "5.0", *MILD_BAND,
        ])
        assert code == 0
        assert "lambda > 0" in capsys.readouterr().err
        assert (out / "stability.csv").exists()

    def test_sweep_fans_out(self, tmp_path):
        out = tmp_path / "sweep"
        code = main([
            "--mode", "zonal", "--out", str(out), "--n-zonal", "301",
            "--sweep=-10,-100", *MILD_BAND,
        ])
        assert code == 0
        assert (out / "sweep_-10" / "profile.csv").exists()
        assert (out / "sweep_-100" / "profile.csv").exists()

    @pytest.mark.parametrize("cpus, workers", [(2, 2), (8, 3), (None, 1)])
    def test_sweep_pool_is_capped_at_the_cores(self, cpus, workers, tmp_path,
                                               monkeypatch, capsys):
        sizes, ran = [], []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        def dispatch(spec):
            ran.append(spec.config.lam)
            if spec.config.lam == -20:
                raise NearEigenvalue("forced")
            return 1 if spec.config.lam == -30 else 0

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(cli, "dispatch", dispatch)
        code = main(["--mode", "zonal", "--out", str(tmp_path),
                     "--sweep=-10,-20,-30", *MILD_BAND])
        assert sizes == [workers]
        assert sorted(ran) == [-30.0, -20.0, -10.0]  # every worker ran
        assert code == 2  # the worst code wins
        assert "numerical failure: forced" in capsys.readouterr().err

    @pytest.mark.parametrize("lams", ["-10,-10", "1234567,1234568"])
    def test_sweep_sharing_a_directory_exits_one(self, lams, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["--mode", "zonal", "--out", str(out), "--n-zonal", "101",
                     f"--sweep={lams}", *MILD_BAND])
        assert code == 1
        assert "share output directories" in capsys.readouterr().err
        assert not out.exists()  # rejected before any worker started

    @pytest.mark.parametrize("argv, artifact", [
        *[(["--mode", "zonal", "--method", method, "--lambda", "0"], "zonal_crosscheck.csv")
          for method in ZONAL_METHODS],
        (["--mode", "spectrum"], "spectrum.csv"),
        *[(["--mode", mode, "--n-rho", "32", "--n-phi", "32", "--dt", "0.002",
            "--t-end", "0.004", "--amplitude", "0.01", "--seed", "7"], "diagnostics.csv")
          for mode in ("evolve", "stability")],
    ], ids=[*(f"zonal-{method}" for method in ZONAL_METHODS), "spectrum", "evolve",
            "stability"])
    def test_never_imports_scipy(self, argv, artifact, tmp_path):
        """No mode imports scipy or numpy.random, perturbed evolve and
        stability runs included (they draw the perturbation phase), and
        none but --sweep loads concurrent.futures for its thread pool."""
        script = (
            "import sys\n"
            "from accband import cli\n"
            f"code = cli.main([*{argv!r}, '--out', {str(tmp_path)!r}, *{MILD_BAND!r}])\n"
            "assert code == 0, code\n"
            "assert 'scipy' not in sys.modules\n"
            "assert 'numpy.random' not in sys.modules\n"
            "assert 'concurrent.futures' not in sys.modules\n"
        )
        src = str(pathlib.Path(accband.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / artifact).exists()

    def test_failing_sweep_exits_two(self, tmp_path, capsys):
        out = tmp_path / "sweepfail"
        code = main([
            "--mode", "evolve", "--out", str(out), "--n-rho", "32",
            "--n-phi", "32", "--dt", "5", "--t-end", "10",
            "--sweep=-10,-20", *MILD_BAND,
        ])
        assert code == 2
        assert capsys.readouterr().err.count("numerical failure") == 2
        for lam in ("-10", "-20"):  # both workers started and wrote t = 0
            rows = (out / f"sweep_{lam}" / "diagnostics.csv").read_text().splitlines()
            assert len(rows) == 2

    def test_stability_mode_checks_invariants(self, tmp_path, capsys, monkeypatch):
        import accband.euler2d as e2

        monkeypatch.setattr(e2, "xi_bound", lambda config, zeta0: -1.0)
        code = main([
            "--mode", "stability", "--out", str(tmp_path / "stab"), "--n-rho", "32",
            "--n-phi", "32", "--dt", "0.002", "--t-end", "0.004",
            "--amplitude", "0.01", "--lambda", "-10", *MILD_BAND,
        ])
        assert code == 2
        assert "transport bound" in capsys.readouterr().err


class TestCsvRoundtrip:
    def test_all_emitted_csvs_parse_back(self, tmp_path):
        from accband.cli import read_csv

        out_z = tmp_path / "z"
        assert main(["--mode", "zonal", "--out", str(out_z), "--n-zonal", "301",
                     "--lambda", "0", *MILD_BAND]) == 0
        out_s = tmp_path / "s"
        assert main(["--mode", "stability", "--out", str(out_s),
                     "--n-rho", "48", "--n-phi", "48", "--dt", "0.002",
                     "--t-end", "0.01", "--amplitude", "0.01",
                     "--lambda", "-10", *MILD_BAND]) == 0
        emitted = [
            out_z / "profile.csv", out_z / "spectrum.csv",
            out_z / "zonal_crosscheck.csv",
            out_s / "diagnostics.csv", out_s / "stability.csv",
        ]
        for path in emitted:
            header, columns = read_csv(path)
            assert header, f"{path.name}: empty header"
            n_rows = {len(col) for col in columns.values()}
            assert len(n_rows) == 1 and n_rows.pop() >= 1, f"{path.name}: ragged"

    @pytest.mark.parametrize("text", ["", "\n \n", "# a comment only\n"])
    def test_file_without_header_is_a_parse_error(self, tmp_path, text):
        from accband.cli import read_csv

        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="no header line"):
            read_csv(path)


class TestDeterminism:
    def test_serial_reruns_bit_identical(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main([
                "--mode", "stability", "--out", str(out), "--n-rho", "48",
                "--n-phi", "48", "--dt", "0.002", "--t-end", "0.02",
                "--amplitude", "0.01", "--seed", "12345", "--lambda", "-10",
                *MILD_BAND,
            ])
            assert code == 0
            outputs.append(
                (out / "diagnostics.csv").read_bytes()
                + (out / "stability.csv").read_bytes()
            )
        assert outputs[0] == outputs[1]


class TestBenchmarkOutputCheck:
    def test_evolve_outputs_pass_the_benchmark_check(self, tmp_path):
        """A small evolve on the benchmark's band passes perfbench's own
        output check, so a change it would reject fails here first."""
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        module_spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(module_spec)
        module_spec.loader.exec_module(workloads)

        out = tmp_path / "evolve"
        assert main(["--mode", "evolve", "--out", str(out), "--n-rho", "32",
                     "--n-phi", "32", "--dt", "0.002", "--t-end", "0.01",
                     "--output-stride", "2", "--lambda", "-10", "--seed", "1",
                     *workloads.PERTURBATION, *workloads.BAND]) == 0
        acc = types.SimpleNamespace(cli=cli, euler2d=euler2d, BandConfig=BandConfig,
                                    ValidationError=ValidationError)
        problems, stats = workloads.check_evolve_dir(acc, str(out), -10.0, steps=5,
                                                     stride=2, t_end=0.01)
        assert problems == []
        assert stats["rows"] == 4


class TestRunReduction:
    """An evolve or stability run reduces its records as it goes (the
    t = 0 record, the last one and running tallies) instead of keeping a
    list of them."""

    STRIDED_EVOLVE = ["--mode", "evolve", "--n-rho", "32", "--n-phi", "32",
                      "--dt", "0.002", "--t-end", "0.03", "--output-stride", "4",
                      "--amplitude", "0.01", "--seed", "5", "--lambda", "-10", *MILD_BAND]
    STABILITY = ["--mode", "stability", "--n-rho", "32", "--n-phi", "32", "--dt", "0.002",
                 "--t-end", "0.016", "--amplitude", "0.01", "--seed", "3",
                 "--lambda", "-10", *MILD_BAND]

    @pytest.mark.parametrize("argv", [STRIDED_EVOLVE, STABILITY], ids=["evolve", "stability"])
    def test_summary_equals_the_list_reduction(self, argv, tmp_path, monkeypatch):
        import json

        from oracles import summary_of_records

        record, records = cli.diagnostics.record, []

        def spy(state, reference):
            records.append(record(state, reference=reference))
            return records[-1]

        monkeypatch.setattr(cli.diagnostics, "record", spy)
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 0
        assert len(records) == len((out / "diagnostics.csv").read_text().splitlines()) - 1
        want = json.loads(json.dumps(summary_of_records(records)))
        got = json.loads((out / "summary.json").read_text())
        assert got == want

    @pytest.mark.parametrize("mode", ["evolve", "stability"])
    @pytest.mark.parametrize("amplitude", ["0.01", "0"])
    def test_zonal_state_solved_once(self, mode, amplitude, tmp_path, monkeypatch):
        """The run solves its zonal state once, and every record compares
        with the very state the run perturbed."""
        solve_fd_rho, perturb = euler2d.solve_fd_rho, euler2d.perturb
        record, solves, zonals, references = cli.diagnostics.record, [], [], []

        def counting(config, rho):
            solves.append(rho)
            return solve_fd_rho(config, rho)

        def spy_perturb(zonal, *args):
            zonals.append(zonal)
            return perturb(zonal, *args)

        def spy_record(state, reference):
            references.append(reference)
            return record(state, reference=reference)

        monkeypatch.setattr(euler2d, "solve_fd_rho", counting)
        monkeypatch.setattr(euler2d, "perturb", spy_perturb)
        monkeypatch.setattr(cli.diagnostics, "record", spy_record)
        assert main(["--mode", mode, "--out", str(tmp_path / "run"), "--n-rho", "16",
                     "--n-phi", "16", "--dt", "0.002", "--t-end", "0.006",
                     "--amplitude", amplitude, "--lambda", "-10", *MILD_BAND]) == 0
        assert len(solves) == 1 and len(zonals) == 1 and len(references) == 4
        assert all(reference is zonals[0] for reference in references)

    @pytest.mark.parametrize("field, breach", [
        ("max_xi", "max|xi| exceeded the transport bound"),
        ("circ1", "inner-wall circulation drifted beyond 1e-8"),
    ])
    def test_one_middle_breach_exits_two(self, field, breach, tmp_path, capsys,
                                         monkeypatch):
        """Only the third of five outputs breaks the invariant: the run
        still writes every row and its summary, then exits 2."""
        import dataclasses

        record, calls = cli.diagnostics.record, []

        def breaking(state, reference):
            rec = record(state, reference=reference)
            calls.append(rec.t)
            if len(calls) == 3:
                rec = dataclasses.replace(rec, **{field: getattr(rec, field) + 1e3})
            return rec

        monkeypatch.setattr(cli.diagnostics, "record", breaking)
        out = tmp_path / "run"
        assert main([*self.STRIDED_EVOLVE, "--out", str(out)]) == 2
        assert len(calls) == 5
        assert capsys.readouterr().err == f"invariant breach: {breach}\n"
        assert (out / "summary.json").exists()

    @pytest.mark.parametrize("mode", ["evolve", "stability"])
    def test_memory_does_not_grow_with_output_count(self, mode, tmp_path):
        """The traced peak of a 16^2 run with 200 outputs is within 16 KB of
        one with 40 (a list of records grew by about 620 B per output)."""
        import gc
        import tracemalloc

        dt = 2.0 ** -9

        def peak(outputs):
            argv = ["--mode", mode, "--out", str(tmp_path / f"run{outputs}"),
                    "--n-rho", "16", "--n-phi", "16", "--dt", repr(dt),
                    "--t-end", repr((outputs - 1) * dt), "--amplitude", "0.01",
                    "--lambda", "-10", *MILD_BAND]
            gc.collect()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(3)  # warm every cache first
        small, large = peak(40), peak(200)
        assert len((tmp_path / "run200" / "diagnostics.csv").read_text().splitlines()) == 201
        assert large - small < 16 * 1024, (small, large)

    @pytest.mark.parametrize("mode", ["evolve", "stability"])
    def test_zonal_reference_is_held_as_a_profile(self, mode, tmp_path):
        """The traced peak of a 64^2 run of 3 steps, in 64^2 float64 fields:
        23.1 (23.2 for stability) with the zonal reference held as two ring
        columns, 25.1 (25.2) when it was held as two full fields."""
        import gc
        import tracemalloc

        def peak(name):
            argv = ["--mode", mode, "--out", str(tmp_path / name), "--n-rho", "64",
                    "--n-phi", "64", "--dt", "0.002", "--t-end", "0.006",
                    "--amplitude", "0.01", "--lambda", "-10", *MILD_BAND]
            gc.collect()
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak("warm")  # warm every cache first
        fields = peak("run") / (64 * 64 * 8)
        assert fields < 24, fields

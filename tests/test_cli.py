"""CLI: config parsing, run modes, exit codes, determinism."""

import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import accband
from accband import cli
from accband.cli import MODES, OPTIONS, ZONAL_METHODS, main, parse_config
from accband.errors import NearEigenvalue, ParseError, ValidationError

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

    def test_zonal_figure1_has_boundary_jets(self, tmp_path):
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
        svg = (out / "profile.svg").read_text()
        assert "<polyline" in svg and "latitude" in svg

    def test_negative_t_end_exits_one_before_any_output(self, tmp_path, capsys):
        out = tmp_path / "neg"
        assert main(["--mode", "evolve", "--out", str(out), "--dt", "0.002",
                     "--t-end", "-1"]) == 1
        assert "t_end" in capsys.readouterr().err
        assert not out.exists()

    def test_spectrum_mode(self, tmp_path):
        out = tmp_path / "spec"
        code = main(["--mode", "spectrum", "--out", str(out), *MILD_BAND])
        assert code == 0
        rows = (out / "spectrum.csv").read_text().splitlines()
        assert rows[0] == "index,eigenvalue,rel_distance_to_lambda"
        eigs = [float(r.split(",")[1]) for r in rows[1:] if not r.startswith("#")]
        assert len(eigs) == 10 and all(np.diff(eigs) > 0)

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

        class RecordingPool(cli.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        def dispatch(spec):
            ran.append(spec.config.lam)
            if spec.config.lam == -20:
                raise NearEigenvalue("forced")
            return 1 if spec.config.lam == -30 else 0

        monkeypatch.setattr(cli, "ThreadPoolExecutor", RecordingPool)
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

    def test_evolve_never_imports_scipy(self, tmp_path):
        script = (
            "import sys\n"
            "from accband import cli\n"
            f"code = cli.main(['--mode', 'evolve', '--out', {str(tmp_path)!r},\n"
            "                 '--n-rho', '32', '--n-phi', '32', '--dt', '0.002',\n"
            f"                 '--t-end', '0.004', *{MILD_BAND!r}])\n"
            "assert code == 0, code\n"
            "assert 'scipy' not in sys.modules\n"
        )
        src = str(pathlib.Path(accband.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert (tmp_path / "diagnostics.csv").exists()

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

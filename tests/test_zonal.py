"""Zonal steady states: closed form, finite differences, Picard, expansion."""

import math
import os
import sys
import threading
from collections import Counter

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from accband import cli, zonal
from accband.errors import (
    ContractionViolated,
    LambdaNotZero,
    MaxIterExceeded,
    NearEigenvalue,
    TooFewSamples,
)
from accband.geometry import BandConfig
from accband.sturm_liouville import eigen_solve, zonal_homogeneous_problem
from accband.zonal import (
    ZonalProfile,
    band_spectrum,
    closed_form_residual,
    contraction_factor,
    eta,
    solve_closed_form_lambda0,
    solve_fd,
    solve_fd_rho,
    solve_picard,
    solve_sl_expansion,
    velocity_profile,
    write_profile_csv,
    zeta_particular,
    _closed_form_constants,
    _solve_pinned,
)

OMEGA_OFF = 1e-30  # stand-in for a switched-off rotation (config needs omega > 0)


def closed_form_values(config, thetas):
    c1, c2 = _closed_form_constants(config)
    return zeta_particular(thetas, config) + c1 * eta(thetas) + c2


class TestClosedForm:
    @pytest.mark.filterwarnings("ignore:psi1 == psi2")
    def test_no_forcing_no_boundary_data_is_zero(self):
        config = BandConfig(psi1=0.0, psi2=0.0, omega=OMEGA_OFF, upsilon=0.0)
        prof = solve_closed_form_lambda0(config, n=201)
        assert np.max(np.abs(prof.psi)) <= 1e-12
        assert np.max(np.abs(prof.u)) <= 1e-12

    def test_pure_harmonic_profile(self):
        config = BandConfig(psi1=0.0, psi2=1.0, omega=OMEGA_OFF, upsilon=0.0)
        prof = solve_closed_form_lambda0(config, n=201)
        th = prof.thetas
        expect = (eta(th) - eta(config.theta1)) / (
            eta(config.theta2) - eta(config.theta1)
        )
        assert np.max(np.abs(prof.psi - expect)) <= 1e-12

    def test_residual_figure1_forcing(self):
        config = BandConfig(lam=0.0, upsilon=30000.0)  # omega = 4650 default
        th = np.linspace(config.theta1, config.theta2, 1000)
        res = closed_form_residual(config, th)
        assert np.max(np.abs(res)) <= 1e-9, f"residual {np.max(np.abs(res)):.2e}"

    def test_rejects_nonzero_lambda(self, fig1_config):
        with pytest.raises(LambdaNotZero):
            solve_closed_form_lambda0(fig1_config, n=64)

    def test_eta_defining_identity(self):
        # eta' cos(theta) = 1, checked by 4th-order differences of eta itself
        th = np.linspace(math.radians(-60), math.radians(-50), 101)
        h = 1e-4
        deta = (eta(th - 2 * h) - 8 * eta(th - h) + 8 * eta(th + h)
                - eta(th + 2 * h)) / (12 * h)
        assert np.max(np.abs(deta * np.cos(th) - 1.0)) <= 1e-10


class TestFiniteDifference:
    def test_matches_closed_form_at_order_two(self):
        config = BandConfig(lam=0.0, upsilon=30000.0)
        errors = []
        for n in (64, 128, 256, 512):
            fd = solve_fd(config, n)
            errors.append(np.max(np.abs(fd.psi - closed_form_values(config, fd.thetas))))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5, f"ratios off: {errors}"

    @pytest.mark.filterwarnings("ignore:psi1 == psi2")
    def test_zero_everything_is_zero(self):
        config = BandConfig(psi1=0.0, psi2=0.0, omega=OMEGA_OFF, upsilon=0.0, lam=-7.0)
        prof = solve_fd(config, n=129)
        assert np.max(np.abs(prof.psi)) <= 1e-12

    def test_figure1_jet_structure(self, fig1_config):
        prof = solve_fd(fig1_config, n=2001)
        speed = np.abs(prof.u_dimensional)
        n = len(speed)
        interior = speed[n // 3 : 2 * n // 3]
        assert np.max(speed) >= 3.0 * np.max(interior), (
            f"peak {np.max(speed):.2f} m/s vs interior {np.max(interior):.2f} m/s"
        )
        # jets sit at the edges, not in the middle
        peak = int(np.argmax(speed))
        assert peak < n // 5 or peak > 4 * n // 5

    def test_near_eigenvalue_detected(self):
        config = BandConfig(psi1=0.0, psi2=1.0, omega=1.0, upsilon=0.0)
        spec = eigen_solve(zonal_homogeneous_problem(config), n_max=1, grid_size=513)
        mu1 = float(spec.eigenvalues[0])
        n = 513
        # lam exactly on the discrete eigenvalue of the same stencil
        bad = BandConfig(psi1=0.0, psi2=1.0, omega=1.0, upsilon=0.0, lam=mu1)
        with pytest.raises(NearEigenvalue):
            # matching grid makes the tridiagonal matrix genuinely singular
            solve_fd(bad, n)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_split_thomas_matches_one_pass_sweep(self, rng, dtype):
        """Factor-then-solve is bit-identical to eliminating the rhs in the
        same sweep as the matrix (the arithmetic of each row is unchanged)."""
        n, modes = 40, 7
        lower = rng.uniform(0.5, 1.0, n)
        upper = lower.copy()
        diag = -2.5 - rng.uniform(0.0, 1.0, (n, modes))
        rhs = rng.standard_normal((n, modes)).astype(dtype)
        if dtype is complex:
            rhs += 1j * rng.standard_normal((n, modes))

        row_scale = float(np.max(np.abs(diag[1:-1])))
        lo, dg, up, b = lower.copy(), diag.copy(), upper.copy(), rhs.copy()
        up[0] = lo[-1] = 0.0
        dg[0] = dg[-1] = row_scale
        b[0], b[-1] = 0.3 * row_scale, -0.7 * row_scale
        piv = np.empty(dg.shape)
        c = np.empty(dg.shape)
        d = np.empty(b.shape, dtype=b.dtype)
        piv[0] = p = dg[0]
        c[0] = up[0] / p
        d[0] = b[0] / p
        for i in range(1, n):
            piv[i] = p = dg[i] - lo[i] * c[i - 1]
            c[i] = up[i] / p
            d[i] = (b[i] - lo[i] * d[i - 1]) / p
        want = np.empty_like(d)
        want[-1] = d[-1]
        for i in range(n - 2, -1, -1):
            want[i] = d[i] - c[i] * want[i + 1]

        got = _solve_pinned(lower, diag, upper, rhs, 0.3, -0.7)
        assert np.array_equal(got, want)

    def test_linear_system_residual_tiny(self, fig1_config):
        prof = solve_fd(fig1_config, n=1001)
        assert prof.diagnostics["linear_residual"] <= 1e-12

    def test_regrid_consistency(self, mild_neg_lam_config):
        coarse = solve_fd(mild_neg_lam_config, 401)
        fine = solve_fd(mild_neg_lam_config, 801)
        resampled = CubicSpline(fine.thetas, fine.psi)(coarse.thetas)
        h = coarse.thetas[1] - coarse.thetas[0]
        assert np.max(np.abs(resampled - coarse.psi)) <= 10 * h**2


class TestPicard:
    def test_lambda0_matches_closed_form_immediately(self):
        config = BandConfig(lam=0.0, upsilon=30000.0)
        prof = solve_picard(config, n=2001)
        assert prof.diagnostics["iterations"] <= 2
        exact = closed_form_values(config, prof.thetas)
        h = math.log(config.r2 / config.r1) / 2000
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(prof.psi - exact)) <= 20 * scale * h**2

    def test_contraction_case_matches_fd(self):
        config = BandConfig(psi1=0.0, psi2=1.0, omega=1.0, lam=1.0, upsilon=0.0)
        assert config.r2 / config.r1 <= math.exp(1.0 / math.sqrt(2.0))
        pic = solve_picard(config, n=8193, tol=1e-12)
        fd = solve_fd(config, n=8193)
        resampled = CubicSpline(pic.thetas, pic.psi)(fd.thetas)
        assert np.max(np.abs(resampled - fd.psi)) <= 1e-8
        assert pic.diagnostics["iterations"] <= 40

    def test_observed_contraction_below_theory(self):
        config = BandConfig(psi1=0.0, psi2=1.0, omega=1.0, lam=-5.0, upsilon=0.0)
        prof = solve_picard(config, n=1001, tol=1e-12)
        q_obs = prof.diagnostics["contraction_observed"]
        assert q_obs <= prof.diagnostics["contraction_theory"] + 1e-12

    def test_contraction_violated(self):
        config = BandConfig(psi1=0.0, psi2=1.0, omega=1.0, lam=-1000.0, upsilon=0.0)
        assert contraction_factor(config) > 1.0
        with pytest.raises(ContractionViolated):
            solve_picard(config, n=257)

    def test_max_iter_exceeded(self):
        config = BandConfig(psi1=0.0, psi2=1.0, omega=1.0, lam=-5.0, upsilon=0.0)
        with pytest.raises(MaxIterExceeded):
            solve_picard(config, n=257, tol=1e-14, max_iter=3)


class TestSLExpansion:
    def test_matches_fd(self, mild_neg_lam_config):
        slp = solve_sl_expansion(mild_neg_lam_config, n_terms=64, grid_size=4097)
        fd = solve_fd(mild_neg_lam_config, 8193)
        resampled = CubicSpline(slp.thetas, slp.psi)(fd.thetas)
        assert np.max(np.abs(resampled - fd.psi)) <= 1e-6


@pytest.fixture
def fresh_spectrum_cache():
    zonal._band_spectrum.cache_clear()
    yield
    zonal._band_spectrum.cache_clear()


@pytest.fixture
def solved_keys(monkeypatch, fresh_spectrum_cache):
    """(theta1, theta2, n_max, grid_size) of every eigen_solve zonal runs."""
    keys = []
    solve = zonal.eigen_solve

    def counted(prob, n_max, grid_size):
        keys.append((prob.a, prob.b, n_max, grid_size))
        return solve(prob, n_max=n_max, grid_size=grid_size)

    monkeypatch.setattr(zonal, "eigen_solve", counted)
    return keys


class TestBandSpectrum:
    def test_equals_fresh_checked_solve(self, fresh_spectrum_cache, mild_config):
        cached = band_spectrum(mild_config.theta1, mild_config.theta2, 5, 2049)
        fresh = eigen_solve(zonal_homogeneous_problem(mild_config), n_max=5,
                            grid_size=2049)
        for name in ("eigenvalues", "eigenfunctions", "grid"):
            assert getattr(cached, name).tobytes() == getattr(fresh, name).tobytes()

    def test_arrays_reject_writes_and_profiles_stay_writable(
            self, fresh_spectrum_cache, mild_neg_lam_config):
        config = mild_neg_lam_config
        spectrum = band_spectrum(config.theta1, config.theta2, 32, 2049)
        for values in (spectrum.eigenvalues, spectrum.eigenfunctions, spectrum.grid):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
        prof = solve_sl_expansion(config)
        assert not np.shares_memory(prof.thetas, spectrum.grid)
        prof.thetas[0] = prof.psi[0] = 0.0
        assert spectrum.grid[0] == config.theta1

    def test_other_band_or_size_misses(self, solved_keys, mild_config):
        t1, t2 = mild_config.theta1, mild_config.theta2
        first = band_spectrum(t1, t2, 4, 513)
        assert band_spectrum(t1, t2, 4, 513) is first
        assert len(solved_keys) == 1
        others = [band_spectrum(math.radians(-61.0), t2, 4, 513),
                  band_spectrum(t1, t2, 5, 513),
                  band_spectrum(t1, t2, 4, 1025)]
        assert all(other is not first for other in others)
        assert len(solved_keys) == 4 == len(set(solved_keys))

    def test_sequential_cli_runs_solve_each_key_once(self, solved_keys, tmp_path):
        band = ["--psi1", "-0.2", "--psi2", "0.2", "--omega", "2.0"]
        runs = [("-10", "1.0", "sl_expansion"), ("-20", "2.0", "fd"),
                ("-30", "5.0", "sl_expansion"), ("0", "1.0", "picard"),
                ("0", "3.0", "sl_expansion")]
        for i, (lam, ups, method) in enumerate(runs):
            assert cli.main(["--mode", "zonal", "--out", str(tmp_path / str(i)),
                             "--n-zonal", "201", "--lambda", lam, "--upsilon", ups,
                             "--method", method, *band]) == 0
        assert cli.main(["--mode", "spectrum", "--out", str(tmp_path / "spec"),
                         *band]) == 0
        counts = Counter(solved_keys)
        assert sorted(key[2:] for key in counts) == [(5, 2049), (10, 2049), (32, 2049)]
        assert set(counts.values()) == {1}

    def test_racing_threads_solve_once(self, solved_keys, mild_config):
        t1, t2 = mild_config.theta1, mild_config.theta2
        results = []
        threads = [threading.Thread(
            target=lambda: results.append(band_spectrum(t1, t2, 3, 257)))
            for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 8 and all(r is results[0] for r in results)
        assert len(solved_keys) == 1

    def test_sweep_threads_share_each_solve(self, solved_keys, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # all three at once
        assert cli.main(["--mode", "zonal", "--out", str(tmp_path),
                         "--sweep=-10,-20,-30", "--method", "sl_expansion",
                         "--psi1", "-0.2", "--psi2", "0.2", "--omega", "2.0"]) == 0
        assert len(solved_keys) == 2


class TestVelocityProfile:
    def test_linear_psi_constant_velocity(self, mild_config):
        th = np.linspace(mild_config.theta1, mild_config.theta2, 65)
        slope = 3.7
        prof = ZonalProfile(th, slope * th, None, None, "finite_difference",
                            config=mild_config)
        out = velocity_profile(prof)
        assert np.max(np.abs(out.u + slope)) <= 1e-10
        assert np.max(np.abs(out.u_dimensional + slope * mild_config.u_scale)) <= 1e-10

    def test_sine_psi_fourth_order(self, mild_config):
        errs = []
        for n in (33, 65):
            th = np.linspace(mild_config.theta1, mild_config.theta2, n)
            prof = ZonalProfile(th, np.sin(th), None, None, "finite_difference",
                                config=mild_config)
            errs.append(np.max(np.abs(velocity_profile(prof).u + np.cos(th))))
        assert errs[1] <= errs[0] / 12.0, f"not 4th order: {errs}"

    def test_too_few_samples(self, mild_config):
        th = np.linspace(mild_config.theta1, mild_config.theta2, 4)
        prof = ZonalProfile(th, th, None, None, "finite_difference", config=mild_config)
        with pytest.raises(TooFewSamples):
            velocity_profile(prof)


class TestGridVariantsAndExport:
    def test_rho_grid_solution_matches_theta_solver(self, mild_neg_lam_config):
        config = mild_neg_lam_config
        rho = np.linspace(math.log(config.r1), math.log(config.r2), 257)
        psi_rho = solve_fd_rho(config, rho)
        r = np.exp(rho)
        thetas = np.arcsin((r**2 - 1) / (r**2 + 1))
        fine = solve_fd(config, 8193)
        expect = CubicSpline(fine.thetas, fine.psi)(thetas)
        h = rho[1] - rho[0]
        assert np.max(np.abs(psi_rho - expect)) <= 10 * h**2

    def test_csv_roundtrip(self, tmp_path, mild_config):
        prof = solve_fd(mild_config, 65)
        path = tmp_path / "profile.csv"
        write_profile_csv(prof, path)
        rows = np.genfromtxt(path, delimiter=",", names=True)
        assert rows.shape[0] == 65
        assert rows["theta_deg"][0] == pytest.approx(math.degrees(mild_config.theta1))
        assert np.allclose(rows["u_m_per_s"], prof.u_dimensional)
        assert np.allclose(rows["psi"], prof.psi)

    def test_equal_boundary_values_warn(self):
        config = BandConfig(psi1=1.0, psi2=1.0, omega=2.0, upsilon=1.0)
        with pytest.warns(UserWarning, match="psi1 == psi2"):
            solve_fd(config, 65)

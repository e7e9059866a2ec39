"""Zonal steady states: closed form, finite differences, Picard, expansion."""

import math
import os
import sys
import threading
from dataclasses import replace

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
    ValidationError,
)
from accband.geometry import BandConfig
from accband.sturm_liouville import _lowest_eigenpairs, _solve_pinned, eigen_solve
from accband.zonal import (
    SL_GRID,
    SL_TERMS,
    ZonalProfile,
    band_problem,
    band_spectrum,
    closed_form_residual,
    contraction_factor,
    eta,
    solve_closed_form_lambda0,
    solve_fd,
    solve_fd_rho,
    solve_picard,
    solve_sl_expansion,
    write_profile_csv,
    zeta_particular,
    _closed_form_constants,
)

from oracles import difference_matrix

OMEGA_OFF = 1e-30  # stand-in for a switched-off rotation (config needs omega > 0)


def closed_form_values(config, thetas):
    c1, c2 = _closed_form_constants(config)
    return zeta_particular(thetas, config) + c1 * eta(thetas) + c2


def one_pass_sweep(lower, diag, upper, rhs, left, right):
    """Pinned tridiagonal solve of one column on numpy scalars, eliminating
    rhs in the same sweep as the matrix."""
    n = len(diag)
    row_scale = float(np.max(np.abs(diag[1:-1])))
    lo, dg, up, b = lower.copy(), diag.copy(), upper.copy(), rhs.copy()
    up[0] = lo[-1] = 0.0
    dg[0] = dg[-1] = row_scale
    b[0], b[-1] = left * row_scale, right * row_scale
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
    return want


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
        n = 513
        # the lowest eigenvalue of solve_fd's own stencil, not the band's
        _, _, d, e = difference_matrix(band_problem(config.theta1, config.theta2), n)
        mu1 = float(_lowest_eigenpairs(d, e, 1)[0][0])
        # lam exactly on the discrete eigenvalue of the same stencil
        bad = BandConfig(psi1=0.0, psi2=1.0, omega=1.0, upsilon=0.0, lam=mu1)
        with pytest.raises(NearEigenvalue):
            # matching grid makes the tridiagonal matrix genuinely singular
            solve_fd(bad, n)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_column_float_path_matches_numpy_scalars(self, rng, dtype):
        """One column is solved on Python floats; the same loop on numpy
        scalars is its bit-for-bit reference for real data (both are IEEE
        double operations). Python and numpy divide complex numbers by
        different formulas, so a complex column agrees to round-off."""
        for n in (3, 4, 41, 2001):
            lower = rng.uniform(0.5, 1.0, n)
            upper = rng.uniform(0.5, 1.0, n)
            # diagonally dominant of either sign: no pivot comes near zero
            diag = rng.choice([-1.0, 1.0], n) * (2.5 + rng.uniform(0.0, 1.0, n))
            rhs = rng.standard_normal(n).astype(dtype)
            if dtype is complex:
                rhs += 1j * rng.standard_normal(n)
            want = one_pass_sweep(lower, diag, upper, rhs, 0.3, -0.7)
            got = _solve_pinned(lower, diag, upper, rhs, 0.3, -0.7)
            assert got.dtype == want.dtype
            if dtype is float:
                assert np.array_equal(got, want)
            else:
                assert np.allclose(got, want, rtol=1e-14, atol=0.0)

    def test_one_column_zero_pivot_raises_near_eigenvalue(self):
        """Pivot 2 is exactly 1 - 1 * 1/1 = 0. Numpy scalars divided by it
        into inf; Python floats raise ZeroDivisionError, which _solve_pinned
        reports as the documented NearEigenvalue."""
        ones = np.ones(5)
        with pytest.raises(NearEigenvalue):
            _solve_pinned(ones, ones, ones, ones, 0.0, 1.0)

    def test_small_pivot_raises_near_eigenvalue(self):
        """Pivot 2 is 1 - 1/(1 + 1e-12), about 1e-12: not zero, but below
        PIVOT_RTOL times the matrix scale 1 + 1 + 1."""
        ones = np.ones(5)
        diag = np.array([1.0, 1.0 + 1e-12, 1.0, 1.0, 1.0])
        with pytest.raises(NearEigenvalue, match=r"pivot 1\.000e-12 below"):
            _solve_pinned(ones, diag, ones, ones, 0.0, 1.0)

    @pytest.mark.parametrize("where", ["lower", "diag", "upper"])
    def test_nan_entry_raises_near_eigenvalue(self, rng, where):
        n = 9
        bands = {"lower": rng.uniform(0.5, 1.0, n), "diag": -2.5 - rng.uniform(0.0, 1.0, n),
                 "upper": rng.uniform(0.5, 1.0, n)}
        bands[where][n // 2] = np.nan
        with pytest.raises(NearEigenvalue):
            _solve_pinned(bands["lower"], bands["diag"], bands["upper"], np.ones(n), 0.0, 1.0)

    @pytest.mark.parametrize("shared", [False, True])
    def test_arguments_left_unchanged(self, rng, shared):
        """Nothing is pinned in place, also when one array is both lower
        and upper, as solve_fd_rho passes it."""
        n = 12
        lower = rng.uniform(0.5, 1.0, n)
        upper = lower if shared else rng.uniform(0.5, 1.0, n)
        diag = -2.5 - rng.uniform(0.0, 1.0, n)
        rhs = rng.standard_normal(n)
        kept = [a.copy() for a in (lower, diag, upper, rhs)]
        want = one_pass_sweep(lower, diag, upper, rhs, 0.3, -0.7)
        got = _solve_pinned(lower, diag, upper, rhs, 0.3, -0.7)
        assert np.array_equal(got, want)
        for arg, before in zip((lower, diag, upper, rhs), kept):
            assert np.array_equal(arg, before)

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


@pytest.fixture
def fresh_spectrum_cache():
    zonal._band_spectrum.cache_clear()
    yield
    zonal._band_spectrum.cache_clear()


class TestSLExpansion:
    def test_matches_fd(self, monkeypatch, fresh_spectrum_cache, mild_neg_lam_config):
        monkeypatch.setattr(zonal, "SL_TERMS", 64)
        monkeypatch.setattr(zonal, "SL_GRID", 4097)
        slp = solve_sl_expansion(mild_neg_lam_config)
        assert (slp.diagnostics["n_terms"], len(slp.thetas)) == (64, 4097)
        fd = solve_fd(mild_neg_lam_config, 8193)
        resampled = CubicSpline(slp.thetas, slp.psi)(fd.thetas)
        assert np.max(np.abs(resampled - fd.psi)) <= 1e-6


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
        full = eigen_solve(band_problem(mild_config.theta1, mild_config.theta2),
                           n_max=SL_TERMS, grid_size=SL_GRID)
        cached = band_spectrum(mild_config.theta1, mild_config.theta2)
        assert len(cached) == SL_TERMS
        assert cached.eigenvalues.tobytes() == full.eigenvalues.tobytes()
        assert cached.eigenfunctions.tobytes() == full.eigenfunctions.tobytes()
        assert cached.grid.tobytes() == full.grid.tobytes()

    def test_arrays_reject_writes_and_profiles_stay_writable(
            self, fresh_spectrum_cache, mild_neg_lam_config):
        config = mild_neg_lam_config
        spectrum = band_spectrum(config.theta1, config.theta2)
        for values in (spectrum.eigenvalues, spectrum.eigenfunctions, spectrum.grid):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 0.0
        prof = solve_sl_expansion(config)
        assert not np.shares_memory(prof.thetas, spectrum.grid)
        prof.thetas[0] = prof.psi[0] = 0.0
        assert spectrum.grid[0] == config.theta1

    def test_other_band_misses(self, solved_keys, mild_config):
        t1, t2 = mild_config.theta1, mild_config.theta2
        full = band_spectrum(t1, t2)
        assert band_spectrum(t1, t2) is full
        assert solved_keys == [(t1, t2, SL_TERMS, SL_GRID)]
        other = band_spectrum(math.radians(-61.0), t2)
        assert not np.shares_memory(other.eigenvalues, full.eigenvalues)
        assert solved_keys[1:] == [(math.radians(-61.0), t2, SL_TERMS, SL_GRID)]

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
        assert [key[2:] for key in solved_keys] == [(SL_TERMS, 2049)]

    def test_racing_threads_solve_once(self, solved_keys, mild_config):
        t1, t2 = mild_config.theta1, mild_config.theta2
        results = []
        threads = [threading.Thread(target=lambda: results.append(band_spectrum(t1, t2)))
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
        assert len(results) == 8
        assert all(r is results[0] for r in results)
        assert len(solved_keys) == 1

    def test_sweep_threads_share_each_solve(self, solved_keys, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 3)  # all three at once
        assert cli.main(["--mode", "zonal", "--out", str(tmp_path),
                         "--sweep=-10,-20,-30", "--method", "sl_expansion",
                         "--psi1", "-0.2", "--psi2", "0.2", "--omega", "2.0"]) == 0
        assert len(solved_keys) == 1


def finish(config, th, psi):
    """The profile of samples whose solver gives no velocity, on a band
    whose boundary values are the samples' own."""
    return zonal._finish(th, psi, replace(config, psi1=psi[0], psi2=psi[-1]), {})


class TestVelocityProfile:
    def test_linear_psi_constant_velocity(self, mild_config):
        th = np.linspace(mild_config.theta1, mild_config.theta2, 65)
        slope = 3.7
        out = finish(mild_config, th, slope * th)
        assert np.max(np.abs(out.u + slope)) <= 1e-10
        assert np.max(np.abs(out.u_dimensional + slope * mild_config.u_scale)) <= 1e-10

    def test_sine_psi_fourth_order(self, mild_config):
        errs = []
        for n in (33, 65):
            th = np.linspace(mild_config.theta1, mild_config.theta2, n)
            errs.append(np.max(np.abs(finish(mild_config, th, np.sin(th)).u + np.cos(th))))
        assert errs[1] <= errs[0] / 12.0, f"not 4th order: {errs}"

    def test_too_few_samples(self, mild_config):
        th = np.linspace(mild_config.theta1, mild_config.theta2, 4)
        with pytest.raises(TooFewSamples):
            finish(mild_config, th, th)

    def test_fd_velocity_on_a_narrow_band_matches_picard(self, mild_neg_lam_config):
        """On a 0.001 degree band x[1] - x[0] is off the mean step by 3.6e-9
        (linspace's round-off), and a velocity differenced with it by as much."""
        config = replace(mild_neg_lam_config, theta1=math.radians(-60.0),
                         theta2=math.radians(-59.999))
        fd = solve_fd(config, 2049)
        picard = solve_picard(config, 8193, tol=1e-13)
        want = np.interp(fd.thetas, picard.thetas, picard.u)
        assert np.max(np.abs(fd.u - want)) <= 5e-10 * np.max(np.abs(want))

    def test_non_uniform_grid_rejected(self, mild_config):
        th = np.linspace(mild_config.theta1, mild_config.theta2, 33)
        th[16] += 1e-3 * (th[1] - th[0])
        with pytest.raises(ValidationError, match="uniform grid"):
            finish(mild_config, th, th)


MILD_BAND = dict(psi1=-0.2, psi2=0.2, omega=2.0, upsilon=1.0)
SOLVERS = {
    "closed_form": lambda config: solve_closed_form_lambda0(config, 201),
    "fd": lambda config: solve_fd(config, 201),
    "picard": lambda config: solve_picard(config, 201),
    "sl_expansion": solve_sl_expansion,
}
# (method, band) pairs; closed_form runs at lam = 0 only, picard on a band
# narrow enough for its map to contract. The last three are bands whose
# ends miss psi1 or psi2 by more than 1e-12 max(1, |psi|) through
# round-off alone: _finish's check, scaled by the terms each end is summed
# from, must still pass them.
EXACT_END_CASES = [
    ("fd", dict(MILD_BAND, lam=-1.0)),
    ("picard", dict(MILD_BAND, lam=-1.0)),
    ("sl_expansion", dict(MILD_BAND, lam=-1.0)),
    ("closed_form", dict(MILD_BAND, lam=0.0)),
    ("fd", dict(MILD_BAND, lam=0.0)),
    ("fd", dict(lam=-3000.0, upsilon=30000.0)),
    ("sl_expansion", dict(lam=-3000.0, upsilon=30000.0)),
    ("fd", dict(psi1=0.3, psi2=-0.7, omega=5.0, upsilon=-2.0, lam=-4.0)),
    ("closed_form", dict(psi1=-0.2, psi2=0.2, omega=1.0, upsilon=1e4, lam=0.0,
                         theta1=math.radians(-70.0), theta2=math.radians(-40.0))),
    ("picard", dict(psi1=-0.2, psi2=0.2, omega=1.0, upsilon=1e5, lam=-0.1,
                    theta1=math.radians(-70.0), theta2=math.radians(-40.0))),
    ("sl_expansion", dict(MILD_BAND, lam=-1.0, theta1=math.radians(-45.0),
                          theta2=math.radians(-44.999))),
]


class TestExactBoundaryValues:
    """Every method's profile has psi[0] == psi1 and psi[-1] == psi2 exactly."""

    @pytest.mark.parametrize("method, band", EXACT_END_CASES,
                             ids=[f"{m}-{i}" for i, (m, _) in enumerate(EXACT_END_CASES)])
    def test_library_profile_ends_are_exact(self, method, band):
        config = BandConfig(**band)
        profile = SOLVERS[method](config)
        assert (profile.psi[0], profile.psi[-1]) == (config.psi1, config.psi2)

    def test_closed_form_end_error_is_rejected(self, monkeypatch):
        """eta off by 1e-6 in the profile, not in the 2-point solve of c1, c2."""
        exact = zonal.eta
        monkeypatch.setattr(zonal, "eta", lambda th: exact(th) + 1e-6 * (np.size(th) > 2))
        with pytest.raises(ValidationError, match="lost the boundary values"):
            solve_closed_form_lambda0(BandConfig(**MILD_BAND, lam=0.0), 201)

    def test_picard_end_error_is_rejected(self, monkeypatch):
        """The t grid's far end off by 1e-6 of its value, not the span
        that the boundary constant mu divides by."""
        linspace = np.linspace

        def skewed(start, stop, num):
            grid = linspace(start, stop, num)
            grid[-1] += 1e-6 * abs(stop)
            return grid

        monkeypatch.setattr(np, "linspace", skewed)
        with pytest.raises(ValidationError, match="lost the boundary values"):
            solve_picard(BandConfig(**MILD_BAND, lam=-1.0), 201)

    def test_sl_expansion_end_error_is_rejected(self, monkeypatch):
        """The expansion off by 1e-6, not the affine shift of the boundary data."""
        solve = zonal.solve_inhomogeneous
        monkeypatch.setattr(zonal, "solve_inhomogeneous",
                            lambda *args, **kwargs: solve(*args, **kwargs) + 1e-6)
        with pytest.raises(ValidationError, match="lost the boundary values"):
            solve_sl_expansion(BandConfig(**MILD_BAND, lam=-1.0))

    def test_fd_cli_profile_ends_are_exact(self, tmp_path):
        out = tmp_path / "fd"
        assert cli.main(["--mode", "zonal", "--method", "fd", "--lambda", "-1", "--out", str(out),
                         "--psi1", "-0.2", "--psi2", "0.2", "--omega", "2.0"]) == 0
        rows = (out / "profile.csv").read_text().splitlines()
        assert (rows[1].split(",")[1], rows[-1].split(",")[1]) == ("-0.2", "0.2")


def one_pass_csv(profile):
    """A profile CSV by one format string over every value, theta_deg's
    included: the reference for the writer's row template."""
    rows = np.column_stack((np.degrees(profile.thetas), profile.psi, profile.u,
                            profile.u_dimensional))
    return ("theta_deg,psi,u_nondim,u_m_per_s\n"
            + "%r,%r,%r,%r\n" * len(rows) % tuple(rows.ravel().tolist()))


@pytest.fixture
def fresh_row_templates():
    zonal._row_template.cache_clear()
    yield
    zonal._row_template.cache_clear()


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

    def test_csv_bytes_match_per_row_writer(self, tmp_path, rng, mild_neg_lam_config):
        """The one-pass writer against the per-row writer it replaced."""
        special = np.array([-0.0, 0.0, 5e-324, -2.2e-308, 1e300, -1e300, -1.5, 0.1])
        values = rng.standard_normal((4, 64)) * 10.0 ** rng.integers(-300, 300, (4, 64))
        cols = np.hstack([[np.roll(special, j) for j in range(4)], values])
        profiles = [
            ZonalProfile(thetas=cols[0], psi=cols[1], u=cols[2], u_dimensional=cols[3],
                         diagnostics={}),
            solve_fd(mild_neg_lam_config, 257),
        ]
        for prof in profiles:
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            write_profile_csv(prof, got)
            with open(want, "w", newline="") as fh:
                fh.write("theta_deg,psi,u_nondim,u_m_per_s\n")
                for th, psi, u, ud in zip(prof.thetas, prof.psi, prof.u, prof.u_dimensional):
                    fh.write(f"{math.degrees(th)!r},{float(psi)!r},{float(u)!r},"
                             f"{float(ud)!r}\n")
            assert got.read_bytes() == want.read_bytes()

    def test_csv_row_template_matches_one_pass_writer(self, tmp_path, fresh_row_templates,
                                                      mild_config):
        lam1 = replace(mild_config, lam=-1.0)
        profiles = [solve_sl_expansion(lam1)]
        for n in (65, 257):  # fd's grid is closed_form's: a cache hit
            profiles += [solve_closed_form_lambda0(mild_config, n), solve_fd(mild_config, n),
                         solve_picard(lam1, n)]
        profiles.append(solve_fd(lam1, 257))  # a second write on one grid: a hit
        for k, profile in enumerate(profiles):
            path = tmp_path / f"profile_{k}.csv"
            write_profile_csv(profile, path)
            assert path.read_bytes() == one_pass_csv(profile).encode()
        info = zonal._row_template.cache_info()
        assert (info.misses, info.hits) == (5, 3)

    def test_row_templates_kept_are_bounded(self, tmp_path, fresh_row_templates, mild_config):
        for n in range(5, 8 + zonal.SPECTRUM_CACHE_SIZE):
            profile = solve_fd(mild_config, n)
            write_profile_csv(profile, tmp_path / "profile.csv")
            assert (tmp_path / "profile.csv").read_bytes() == one_pass_csv(profile).encode()
        info = zonal._row_template.cache_info()
        assert info.misses == 3 + zonal.SPECTRUM_CACHE_SIZE
        assert info.currsize <= zonal.SPECTRUM_CACHE_SIZE

    def test_equal_boundary_values_warn(self):
        config = BandConfig(psi1=1.0, psi2=1.0, omega=2.0, upsilon=1.0)
        with pytest.warns(UserWarning, match="psi1 == psi2"):
            solve_fd(config, 65)

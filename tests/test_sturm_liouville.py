"""Sturm-Liouville machinery: spectra, Rayleigh quotients, expansions."""

import math
import sys
import types

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from accband import sturm_liouville, zonal
from accband.errors import (
    ConvergenceFailure,
    ResonantEigenvalue,
    TooFewSamples,
    ValidationError,
    ZeroFunction,
)
from accband.geometry import BandConfig
from accband.sturm_liouville import (
    MAX_REFINEMENTS,
    SLProblem,
    _inverse_cubic,
    _lowest_eigenpairs,
    _pivot_blocks,
    _sturm_counts,
    _thomas_solve,
    count_sign_changes,
    eigen_solve,
    prufer_eigenvalues,
    rayleigh_quotient,
    solve_inhomogeneous,
)
from accband.zonal import band_problem, homogenize_boundary

from oracles import difference_matrix


def default_band_problem():
    config = BandConfig()
    return band_problem(config.theta1, config.theta2)


def uniform_problem(length):
    """p = w = 1 on [0, length]: mu_n = (n pi / length)^2."""
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return SLProblem(a=0.0, b=length, p=one, w=one, ln_pw_prime=zero)


def textbook_problem():
    """uniform_problem on [0, pi]: mu_n = n^2, y_n = sqrt(2/pi) sin(n x)."""
    return uniform_problem(math.pi)


def shifted_problem():
    """p = 1 + x, w = 1 + x/2 on [0, 1], and the potential q = 200 + 50 cos 3x
    that shifted_matrix subtracts: three negative eigenvalues, then
    positive ones."""
    return SLProblem(a=0.0, b=1.0, p=lambda x: 1.0 + x, w=lambda x: 1.0 + 0.5 * x,
                     ln_pw_prime=lambda x: 1.0 / (1.0 + x) + 0.5 / (1.0 + 0.5 * x))


def shifted_matrix(grid_size):
    """shifted_problem's difference matrix less q/w on its diagonal: the
    matrix of (p y')' + q y = -mu w y, an indefinite operator."""
    x, wi, d, e = difference_matrix(shifted_problem(), grid_size)
    q = 200.0 + 50.0 * np.cos(3.0 * x[1:-1])
    return d - q / wi, e


class TestEigenSolve:
    def test_textbook_spectrum(self):
        spec = eigen_solve(textbook_problem(), n_max=5, grid_size=8193)
        n = np.arange(1, 6)
        rel = np.abs(spec.eigenvalues - n**2) / n**2
        assert np.max(rel) <= 1e-6, f"max rel eigenvalue error {np.max(rel):.2e}"
        amp = math.sqrt(2.0 / math.pi)
        for k in range(5):
            exact = amp * np.sin((k + 1) * spec.grid)
            err = np.max(np.abs(spec.eigenfunctions[k] - exact))
            assert err <= 1e-5, f"mode {k + 1} sup error {err:.2e}"

    def test_eigenvalues_strictly_ascending(self):
        spec = eigen_solve(textbook_problem(), n_max=8, grid_size=1025)
        assert np.all(np.diff(spec.eigenvalues) > 0)

    def test_orthonormal_in_weighted_inner_product(self):
        spec = eigen_solve(default_band_problem(), n_max=6, grid_size=2049)
        x = spec.grid
        w = np.cos(x)
        gram = np.array(
            [
                [np.trapezoid(spec.eigenfunctions[i] * spec.eigenfunctions[j] * w, x)
                 for j in range(6)]
                for i in range(6)
            ]
        )
        assert np.max(np.abs(gram - np.eye(6))) <= 1e-8

    def test_oscillation_counts(self):
        spec = eigen_solve(default_band_problem(), n_max=6, grid_size=2049)
        for k in range(6):
            changes = count_sign_changes(spec.eigenfunctions[k][1:-1])
            assert changes == k, f"mode {k + 1}: {changes} sign changes"

    def test_zonal_spectrum_positive(self):
        spec = eigen_solve(default_band_problem(), n_max=5, grid_size=2049)
        assert spec.eigenvalues[0] > 0

    def test_rejects_coarse_grids(self):
        with pytest.raises(ValidationError):
            eigen_solve(textbook_problem(), n_max=2, grid_size=32)

    @staticmethod
    def _record_attempts(monkeypatch, failing):
        """Order N of each eigen_solve attempt; the node counts of the
        attempts that failing(attempt) picks are shifted off their index."""
        orders = []
        lobatto_eigen, count = sturm_liouville._lobatto_eigen, count_sign_changes

        def recording_eigen(prob, n_max, order):
            orders.append(order)
            return lobatto_eigen(prob, n_max, order)

        def shifted_count(y):
            return count(y) + (1 if failing(len(orders)) else 0)

        monkeypatch.setattr(sturm_liouville, "_lobatto_eigen", recording_eigen)
        monkeypatch.setattr(sturm_liouville, "count_sign_changes", shifted_count)
        return orders

    def test_index_mismatch_doubles_the_order_once(self, monkeypatch):
        orders = self._record_attempts(monkeypatch, lambda attempt: attempt == 1)
        spec = eigen_solve(textbook_problem(), n_max=3, grid_size=257)
        assert orders == [64, 128]
        assert len(spec.grid) == 257
        n = np.arange(1, 4)
        assert np.max(np.abs(spec.eigenvalues - n**2) / n**2) <= 1e-4

    def test_persistent_index_mismatch_raises(self, monkeypatch):
        orders = self._record_attempts(monkeypatch, lambda attempt: True)
        with pytest.raises(ConvergenceFailure, match="node count"):
            eigen_solve(textbook_problem(), n_max=3, grid_size=257)
        assert len(orders) == MAX_REFINEMENTS + 1
        assert orders == [64 * 2**k for k in range(MAX_REFINEMENTS + 1)]


class TestPruferOracle:
    def test_textbook_agreement(self):
        mus = prufer_eigenvalues(textbook_problem(), n_max=4)
        n = np.arange(1, 5)
        assert np.max(np.abs(mus - n**2) / n**2) <= 1e-8

    def test_zonal_matrix_vs_shooting(self):
        prob = default_band_problem()
        spec = eigen_solve(prob, n_max=5, grid_size=8193)
        oracle = prufer_eigenvalues(prob, n_max=5, guesses=spec.eigenvalues)
        rel = np.abs(spec.eigenvalues - oracle) / np.abs(oracle)
        assert np.max(rel) <= 1e-6, f"matrix vs shooting rel error {np.max(rel):.2e}"

    def test_zonal_first_ten_eigenvalues(self):
        prob = default_band_problem()
        spec = eigen_solve(prob, n_max=10, grid_size=16385)
        oracle = prufer_eigenvalues(prob, n_max=10, guesses=spec.eigenvalues)
        rel = np.abs(spec.eigenvalues - oracle) / np.abs(oracle)
        assert np.max(rel) <= 1e-6, f"first-10 rel error {np.max(rel):.2e}"

    def test_long_interval_small_eigenvalues(self):
        """p = w = 1 on [0, 10 pi]: mu_k = k^2 / 100, all below 1, so the
        shooting brackets must scale with |mu| to stay positive."""
        prob = uniform_problem(10.0 * math.pi)
        exact = np.arange(1, 5) ** 2 / 100.0
        spec = eigen_solve(prob, n_max=4, grid_size=8193)
        assert np.max(np.abs(spec.eigenvalues - exact) / exact) <= 1e-6
        for guesses in (None, spec.eigenvalues):
            mus = prufer_eigenvalues(prob, n_max=4, guesses=guesses)
            assert np.max(np.abs(mus - exact) / exact) <= 1e-8

    @pytest.mark.parametrize("mus", [[0.0], [-1.0], [4.0, -1e-12], [np.nan]])
    def test_angle_rejects_nonpositive_mu(self, mus):
        with pytest.raises(ValidationError, match="mu > 0"):
            sturm_liouville.prufer_angle(textbook_problem(), np.array(mus), 64)

    def test_guess_beyond_the_widest_bracket_raises(self):
        """mu_2 = 4 lies below half the guess 10, outside every bracket."""
        with pytest.raises(ConvergenceFailure, match="bracket"):
            prufer_eigenvalues(textbook_problem(), n_max=2, guesses=[1.0, 10.0])

    def test_inversion_reproduces_a_cubic(self):
        """mu read off at a target is exact when mu is a cubic of theta,
        at either end of the samples and between them."""
        angles = np.linspace(0.0, 2.0, 17) ** 1.5 + np.arange(5.0)[:, None]
        targets = angles[:, 0] + np.array([1e-3, 0.4, 1.37, 2.5, 2.828])
        cubic = lambda th: 3.0 - 2.0 * th + 0.5 * th**2 - 0.25 * th**3
        mus = _inverse_cubic(angles, cubic(angles), targets)
        assert np.allclose(mus, cubic(targets), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_max, guesses", [
        (0, None), (-1, None), (5, [1.0, 4.0, 9.0]), (2, [1.0, 4.0, 9.0]),
    ], ids=["zero", "negative", "too_few_guesses", "too_many_guesses"])
    def test_rejects_bad_arguments(self, n_max, guesses):
        with pytest.raises(ValidationError):
            prufer_eigenvalues(textbook_problem(), n_max=n_max, guesses=guesses)


# the default band, a wide one and a 0.1 degree one, in degrees
BANDS = {"default": (-60.0, -50.0), "wide": (-70.0, -40.0), "narrow": (-60.0, -59.9)}


def named_band_problem(band):
    theta1, theta2 = BANDS[band]
    return band_problem(math.radians(theta1), math.radians(theta2))


class TestSpectralRoute:
    """eigen_solve's Legendre-Gauss-Lobatto solve on the band's problem."""

    @pytest.mark.parametrize("band", sorted(BANDS))
    def test_matches_shooting_to_round_off(self, band):
        prob = named_band_problem(band)
        spec = eigen_solve(prob, n_max=32, grid_size=2049)
        oracle = prufer_eigenvalues(prob, n_max=32, guesses=spec.eigenvalues)
        rel = np.abs(spec.eigenvalues - oracle) / oracle
        assert np.max(rel) <= 1e-10, f"spectral vs shooting rel error {np.max(rel):.2e}"

    @pytest.mark.parametrize("band", sorted(BANDS))
    def test_doubled_order_agrees(self, band, monkeypatch):
        """Order N = 96 against N = 192: the solve has converged."""
        prob = named_band_problem(band)
        spec = eigen_solve(prob, n_max=32, grid_size=2049)
        monkeypatch.setattr(sturm_liouville, "MIN_ORDER", 2 * sturm_liouville.MIN_ORDER)
        monkeypatch.setattr(sturm_liouville, "ORDER_PER_PAIR",
                            2 * sturm_liouville.ORDER_PER_PAIR)
        fine = eigen_solve(prob, n_max=32, grid_size=2049)
        rel = np.abs(fine.eigenvalues - spec.eigenvalues) / spec.eigenvalues
        assert np.max(rel) <= 1e-11, f"N vs 2N eigenvalues differ by rel {np.max(rel):.2e}"
        size = np.max(np.abs(spec.eigenfunctions), axis=1)
        diff = np.max(np.abs(fine.eigenfunctions - spec.eigenfunctions), axis=1) / size
        assert np.max(diff) <= 1e-9, f"N vs 2N eigenfunctions differ by {np.max(diff):.2e}"

    @pytest.mark.parametrize("band", sorted(BANDS))
    def test_all_pairs_orthonormal_on_the_grid(self, band):
        spec = eigen_solve(named_band_problem(band), n_max=32, grid_size=2049)
        x, funcs = spec.grid, spec.eigenfunctions
        gram = np.trapezoid(funcs[:, None, :] * funcs[None, :, :] * np.cos(x), x, axis=2)
        assert np.max(np.abs(gram - np.eye(32))) <= 1e-12

    def test_band_spectrum_calls_no_lapack_eigensolver(self, monkeypatch):
        """With BLAS not pinned to one thread, as the CLI runs, OpenBLAS's
        threaded LAPACK stalled on a 2-vCPU machine: numpy.linalg.eigh of
        a 95 x 95 matrix took 121-132 ms a call against 0.8 ms pinned, and
        numpy.polynomial's Legendre roots go through LAPACK's eig. The band
        spectrum is solved without either."""

        def forbidden(name):
            def call(*args, **kwargs):
                raise AssertionError(f"{name} called")
            return call

        class Forbidden(types.ModuleType):
            def __getattr__(self, name):
                raise AssertionError(f"{self.__name__}.{name} used")

        for name in ("eig", "eigh", "eigvals", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, forbidden(f"numpy.linalg.{name}"))
        monkeypatch.setattr(np, "polynomial", Forbidden("numpy.polynomial"), raising=False)
        for name in ("numpy.polynomial", "numpy.polynomial.legendre",
                     "numpy.polynomial.polynomial", "numpy.polynomial.chebyshev"):
            monkeypatch.setitem(sys.modules, name, Forbidden(name))
        zonal._band_spectrum.cache_clear()
        try:
            theta1, theta2 = BANDS["default"]
            spec = zonal.band_spectrum(math.radians(theta1), math.radians(theta2))
        finally:
            zonal._band_spectrum.cache_clear()
        assert len(spec) == zonal.SL_TERMS and np.all(np.diff(spec.eigenvalues) > 0)


class TestTridiagonalOracle:
    """The numpy eigensolver against LAPACK's eigh_tridiagonal."""

    @pytest.mark.parametrize("problem, grid_size, k", [
        ("zonal", 2049, 1), ("zonal", 2049, 5), ("zonal", 2049, 32),
        ("textbook", 8193, 5), ("shifted", 2049, 8), ("shifted", 64, 62),
    ])
    def test_matches_lapack(self, problem, grid_size, k):
        prob = {"zonal": default_band_problem(),
                "textbook": textbook_problem(), "shifted": shifted_problem()}[problem]
        if problem == "shifted":
            d, e = shifted_matrix(grid_size)
        else:
            _, _, d, e = difference_matrix(prob, grid_size)
        vals, vecs = _lowest_eigenpairs(d, e, k)
        ref_vals, ref_vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
        norm_1 = np.max(np.abs(d) + np.r_[np.abs(e), 0.0] + np.r_[0.0, np.abs(e)])
        assert np.max(np.abs(vals - ref_vals)) <= 1e-14 * norm_1
        assert np.min(np.abs(np.sum(vecs * ref_vecs, axis=0))) >= 1.0 - 1e-12
        if problem == "shifted":
            assert np.count_nonzero(vals < 0) == 3
        # y'(a) > 0, on a grid whose first step lies before every first zero
        funcs = eigen_solve(prob, k, 8193).eigenfunctions
        assert np.all(funcs[:, 1] > 0)

    def test_unsettled_inverse_iteration_raises(self, monkeypatch):
        # one solve from the random start cannot show two iterates agreeing
        monkeypatch.setattr("accband.sturm_liouville.MAX_INVERSE_ITERATIONS", 1)
        with pytest.raises(ConvergenceFailure):
            eigen_solve(textbook_problem(), n_max=2, grid_size=257)

    def test_sturm_counts_survive_zero_pivots(self):
        # d - s = 0 at s = 2 makes the first pivot, and others, exactly zero
        d = np.full(40, 2.0)
        e = np.full(39, -1.0)
        exact = 2.0 - 2.0 * np.cos(np.pi * np.arange(1, 41) / 41)
        shifts = np.array([-1.0, 0.5, 1.0, 2.0, 3.0, 4.5])
        pivmin = np.finfo(float).tiny
        assert np.array_equal(_sturm_counts(d, e * e, pivmin, shifts),
                              np.searchsorted(exact, shifts))


class TestTridiagonalKernel:
    def test_unpinned_solve_matches_dense(self, rng):
        """_thomas_solve through the LDL^T pivots of T - s, the factor
        inverse iteration builds, against a dense solve per shift."""
        n = 150  # more than BLOCK_ROWS, so the pivots span blocks
        d = rng.uniform(-1.0, 1.0, n)
        e = rng.uniform(0.5, 1.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        shifts = np.array([-5.0, -3.6, 3.7, 6.0])  # outside the spectrum in [-3, 3]
        piv = np.concatenate([block.copy() for block in _pivot_blocks(
            d, e * e, np.finfo(float).tiny, shifts)])
        factor = (np.concatenate(([0.0], e)), piv, e[:, None] / piv[:-1])
        rhs = rng.standard_normal((n, len(shifts)))
        kept = rhs.copy()
        got = _thomas_solve(factor, rhs)
        assert np.array_equal(rhs, kept)
        matrix = np.diag(e, -1) + np.diag(e, 1)
        for j, s in enumerate(shifts):
            want = np.linalg.solve(matrix + np.diag(d - s), rhs[:, j])
            assert np.max(np.abs(got[:, j] - want)) <= 1e-12 * np.max(np.abs(want))


class TestRayleighQuotient:
    def test_sine_on_unit_problem(self):
        x = np.linspace(0.0, math.pi, 65537)
        val = rayleigh_quotient(textbook_problem(), np.sin(x), x)
        assert abs(val - 1.0) <= 1e-8

    def test_recovers_first_zonal_eigenvalue(self):
        problem = default_band_problem()
        spec = eigen_solve(problem, n_max=3, grid_size=8193)
        for k in range(3):
            val = rayleigh_quotient(problem, spec.eigenfunctions[k], spec.grid)
            rel = abs(val - spec.eigenvalues[k]) / spec.eigenvalues[k]
            assert rel <= 1e-6, f"mode {k + 1} quotient off by rel {rel:.2e}"

    def test_scale_invariance(self):
        x = np.linspace(0.0, math.pi, 2049)
        y = np.sin(x) + 0.3 * np.sin(2 * x)
        q1 = rayleigh_quotient(textbook_problem(), y, x)
        q2 = rayleigh_quotient(textbook_problem(), 7.0 * y, x)
        assert q1 == pytest.approx(q2, rel=1e-13)

    def test_zero_function_rejected(self):
        x = np.linspace(0.0, math.pi, 257)
        with pytest.raises(ZeroFunction):
            rayleigh_quotient(textbook_problem(), np.zeros_like(x), x)

    def test_too_few_samples_rejected(self):
        x = np.linspace(0.0, math.pi, 4)
        with pytest.raises(TooFewSamples):
            rayleigh_quotient(textbook_problem(), np.sin(x), x)

    def test_non_uniform_grid_rejected(self):
        x = math.pi * np.linspace(0.0, 1.0, 257) ** 2
        with pytest.raises(ValidationError, match="uniform grid"):
            rayleigh_quotient(textbook_problem(), np.sin(x), x)


class TestInhomogeneous:
    def test_zero_forcing_gives_zero(self):
        spec = eigen_solve(textbook_problem(), n_max=4, grid_size=1025)
        y = solve_inhomogeneous(lambda x: 0.0 * x, mu=0.0, spectrum=spec, n_terms=4)
        assert np.max(np.abs(y)) == 0.0

    def test_sine_forcing_closed_form(self):
        # y'' = -sin x with Dirichlet zeros has solution y = sin x
        spec = eigen_solve(textbook_problem(), n_max=4, grid_size=8193)
        y = solve_inhomogeneous(lambda x: -np.sin(x), mu=0.0, spectrum=spec, n_terms=1)
        assert np.max(np.abs(y - np.sin(spec.grid))) <= 1e-6

    def test_residual_decreases_with_terms(self):
        config = BandConfig(psi1=-5.0, psi2=-25.0, omega=4650.0, lam=-10.0,
                            upsilon=30000.0)
        forcing, _ = homogenize_boundary(config)
        spec = eigen_solve(band_problem(config.theta1, config.theta2), n_max=32,
                           grid_size=4097)
        x = spec.grid
        hgrid = x[1] - x[0]
        p = np.cos(x)
        w = np.cos(x)
        hx = forcing(x)
        residuals = []
        for n_terms in (4, 8, 16, 32):
            y = solve_inhomogeneous(forcing, mu=config.lam, spectrum=spec,
                                    n_terms=n_terms)
            dy = np.gradient(y, x, edge_order=2)
            flux = np.gradient(p * dy, x, edge_order=2)
            res = flux + config.lam * w * y - hx
            # weak-form magnitude, interior only (gradient ends are one-sided)
            residuals.append(math.sqrt(hgrid * float(np.sum(res[2:-2] ** 2))))
        assert residuals[0] > residuals[1] > residuals[2] > residuals[3], (
            f"residuals not monotone: {residuals}"
        )

    def test_resonant_mu_rejected(self):
        spec = eigen_solve(textbook_problem(), n_max=4, grid_size=1025)
        with pytest.raises(ResonantEigenvalue):
            solve_inhomogeneous(lambda x: -np.sin(x), mu=float(spec.eigenvalues[0]),
                                spectrum=spec, n_terms=4)


class TestHomogenizeBoundary:
    def test_zero_boundary_values(self):
        config = BandConfig(psi1=0.0, psi2=0.0, omega=4650.0, upsilon=30000.0)
        forcing, (a_s, b_s) = homogenize_boundary(config)
        assert a_s == 0.0 and b_s == 0.0
        th = np.linspace(config.theta1, config.theta2, 101)
        expect = config.upsilon * np.cos(th) - config.omega * np.sin(2 * th)
        assert np.max(np.abs(forcing(th) - expect)) <= 1e-9 * config.upsilon

    def test_figure1_shift(self, fig1_config):
        _, (a_s, b_s) = homogenize_boundary(fig1_config)
        dtheta = math.radians(10.0)
        assert a_s == pytest.approx(-20.0 / dtheta, rel=1e-12)
        # the affine shift reproduces the boundary values exactly
        assert a_s * fig1_config.theta1 + b_s == pytest.approx(fig1_config.psi1, abs=1e-12)
        assert a_s * fig1_config.theta2 + b_s == pytest.approx(fig1_config.psi2, abs=1e-12)

    def test_shifted_solution_restores_boundary_values(self, fig1_config):
        forcing, (a_s, b_s) = homogenize_boundary(fig1_config)
        spec = eigen_solve(band_problem(fig1_config.theta1, fig1_config.theta2),
                           n_max=16, grid_size=2049)
        y = solve_inhomogeneous(forcing, mu=fig1_config.lam, spectrum=spec, n_terms=16)
        psi = y + a_s * spec.grid + b_s
        assert psi[0] == pytest.approx(fig1_config.psi1, abs=1e-10)
        assert psi[-1] == pytest.approx(fig1_config.psi2, abs=1e-10)

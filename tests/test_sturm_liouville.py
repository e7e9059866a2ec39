"""Sturm-Liouville machinery: spectra, Rayleigh quotients, expansions."""

import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from accband import sturm_liouville
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
    _difference_matrix,
    _inverse_cubic,
    _lowest_eigenpairs,
    _pivot_blocks,
    _sturm_counts,
    _thomas_solve,
    _tridiagonal_eigen,
    count_sign_changes,
    eigen_solve,
    homogenize_boundary,
    prufer_eigenvalues,
    rayleigh_quotient,
    solve_inhomogeneous,
    zonal_homogeneous_problem,
)


def textbook_problem(h=None):
    """p = w = 1, q = 0 on [0, pi]: mu_n = n^2, y_n = sqrt(2/pi) sin(n x)."""
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return SLProblem(a=0.0, b=math.pi, p=one, q=zero, w=one, h=h)


def shifted_problem():
    """p = 1 + x, w = 1 + x/2, q = 200 + 50 cos 3x on [0, 1]: three
    negative eigenvalues, then positive ones."""
    return SLProblem(a=0.0, b=1.0, p=lambda x: 1.0 + x,
                     q=lambda x: 200.0 + 50.0 * np.cos(3.0 * x),
                     w=lambda x: 1.0 + 0.5 * x)


def q60_problem():
    """p = w = 1, q = 60 on [0, 1]: mu_k = k^2 pi^2 - 60, two of them negative."""
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    return SLProblem(a=0.0, b=1.0, p=one, q=lambda x: 60.0 * one(x), w=one)


def theta_rk4(prob, mus, n_steps):
    """RK4 on the plain angle theta' = cos^2/p + (q + mu w) sin^2 itself,
    with the coefficients sampled at the step points and midpoints."""
    hstep = (prob.b - prob.a) / n_steps
    p, q, w = prob.sample(prob.a + 0.5 * hstep * np.arange(2 * n_steps + 1))

    def f(th, j):
        return np.cos(th) ** 2 / p[j] + (q[j] + mus * w[j]) * np.sin(th) ** 2

    theta = np.zeros_like(mus)
    for i in range(n_steps):
        k1 = f(theta, 2 * i)
        k2 = f(theta + 0.5 * hstep * k1, 2 * i + 1)
        k3 = f(theta + 0.5 * hstep * k2, 2 * i + 1)
        k4 = f(theta + hstep * k3, 2 * i + 2)
        theta = theta + (hstep / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return theta


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
        config = BandConfig()
        spec = eigen_solve(zonal_homogeneous_problem(config), n_max=6, grid_size=2049)
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
        config = BandConfig()
        spec = eigen_solve(zonal_homogeneous_problem(config), n_max=6, grid_size=2049)
        for k in range(6):
            changes = count_sign_changes(spec.eigenfunctions[k][1:-1])
            assert changes == k, f"mode {k + 1}: {changes} sign changes"

    def test_zonal_spectrum_positive(self):
        config = BandConfig()
        spec = eigen_solve(zonal_homogeneous_problem(config), n_max=5, grid_size=2049)
        assert spec.eigenvalues[0] > 0

    def test_rejects_inhomogeneous_and_coarse_grids(self):
        with pytest.raises(ValidationError):
            eigen_solve(textbook_problem(h=np.sin), n_max=2, grid_size=1025)
        with pytest.raises(ValidationError):
            eigen_solve(textbook_problem(), n_max=2, grid_size=32)

    @staticmethod
    def _record_attempts(monkeypatch, failing):
        """Grid size of each eigen_solve attempt; the Pruefer angles of the
        attempts that failing(attempt) picks are shifted off their index."""
        sizes = []
        tridiagonal_eigen, angle = _tridiagonal_eigen, sturm_liouville.prufer_angle

        def recording_eigen(prob, n_max, grid_size):
            sizes.append(grid_size)
            return tridiagonal_eigen(prob, n_max, grid_size)

        def shifted_angle(prob, mus, n_steps):
            return angle(prob, mus, n_steps) + (np.pi if failing(len(sizes)) else 0.0)

        monkeypatch.setattr(sturm_liouville, "_tridiagonal_eigen", recording_eigen)
        monkeypatch.setattr(sturm_liouville, "prufer_angle", shifted_angle)
        return sizes

    def test_index_mismatch_doubles_the_grid_once(self, monkeypatch):
        sizes = self._record_attempts(monkeypatch, lambda attempt: attempt == 1)
        spec = eigen_solve(textbook_problem(), n_max=3, grid_size=257)
        assert sizes == [257, 2 * (257 - 1) + 1]
        assert len(spec.grid) == 513
        n = np.arange(1, 4)
        assert np.max(np.abs(spec.eigenvalues - n**2) / n**2) <= 1e-4

    def test_persistent_index_mismatch_raises(self, monkeypatch):
        sizes = self._record_attempts(monkeypatch, lambda attempt: True)
        with pytest.raises(ConvergenceFailure, match="Pruefer index"):
            eigen_solve(textbook_problem(), n_max=3, grid_size=257)
        assert len(sizes) == MAX_REFINEMENTS + 1
        assert sizes == [256 * 2**k + 1 for k in range(MAX_REFINEMENTS + 1)]


class TestPruferOracle:
    def test_textbook_agreement(self):
        mus = prufer_eigenvalues(textbook_problem(), n_max=4)
        n = np.arange(1, 5)
        assert np.max(np.abs(mus - n**2) / n**2) <= 1e-8

    def test_zonal_matrix_vs_shooting(self):
        config = BandConfig()
        prob = zonal_homogeneous_problem(config)
        spec = eigen_solve(prob, n_max=5, grid_size=8193)
        oracle = prufer_eigenvalues(prob, n_max=5, guesses=spec.eigenvalues)
        rel = np.abs(spec.eigenvalues - oracle) / np.abs(oracle)
        assert np.max(rel) <= 1e-6, f"matrix vs shooting rel error {np.max(rel):.2e}"

    def test_zonal_first_ten_eigenvalues(self):
        prob = zonal_homogeneous_problem(BandConfig())
        spec = eigen_solve(prob, n_max=10, grid_size=16385)
        oracle = prufer_eigenvalues(prob, n_max=10, guesses=spec.eigenvalues)
        rel = np.abs(spec.eigenvalues - oracle) / np.abs(oracle)
        assert np.max(rel) <= 1e-6, f"first-10 rel error {np.max(rel):.2e}"

    def test_plain_angle_closed_form(self):
        """p = w = 1, q = 60 on [0, 1]: mu_k = k^2 pi^2 - 60. The first two
        are negative, which the scaled angle cannot take, so the plain angle
        is inverted at negative mu too."""
        mus = prufer_eigenvalues(q60_problem(), n_max=4)
        exact = (np.arange(1, 5) * np.pi) ** 2 - 60.0
        assert np.sum(exact < 0) == 2
        assert np.max(np.abs(mus - exact) / np.abs(exact)) <= 1e-8

    @pytest.mark.parametrize("problem, mus", [
        ("textbook", [-3.0, 0.5, 4.0, 30.0]),
        ("q60", [-50.0, -10.0, 5.0, 40.0, 300.0]),
    ])
    def test_plain_angle_matches_theta_form(self, problem, mus):
        """The plain angle, integrated as the doubled angle, against RK4 on
        theta itself: the same RK4 in exact arithmetic."""
        prob = {"textbook": textbook_problem(), "q60": q60_problem()}[problem]
        mus = np.array(mus)
        n_steps = 2048
        _, q, w = prob.sample(np.linspace(prob.a, prob.b, 257))
        # the step count the plain angle would inflate to stays below n_steps
        assert 3.0 * (prob.b - prob.a) * np.max(np.abs(q + mus[:, None] * w)) < n_steps
        want = theta_rk4(prob, mus, n_steps)
        got = sturm_liouville.prufer_angle(prob, mus, n_steps)
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

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


class TestTridiagonalOracle:
    """The numpy eigensolver against LAPACK's eigh_tridiagonal."""

    @pytest.mark.parametrize("problem, grid_size, k", [
        ("zonal", 2049, 1), ("zonal", 2049, 5), ("zonal", 2049, 32),
        ("textbook", 8193, 5), ("shifted", 2049, 8), ("shifted", 64, 62),
    ])
    def test_matches_lapack(self, problem, grid_size, k):
        prob = {"zonal": zonal_homogeneous_problem(BandConfig()),
                "textbook": textbook_problem(), "shifted": shifted_problem()}[problem]
        _, _, d, e = _difference_matrix(prob, grid_size)
        vals, vecs = _lowest_eigenpairs(d, e, k)
        ref_vals, ref_vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
        norm_1 = np.max(np.abs(d) + np.r_[np.abs(e), 0.0] + np.r_[0.0, np.abs(e)])
        assert np.max(np.abs(vals - ref_vals)) <= 1e-14 * norm_1
        assert np.min(np.abs(np.sum(vecs * ref_vecs, axis=0))) >= 1.0 - 1e-12
        if problem == "shifted":
            assert np.count_nonzero(vals < 0) == 3
        _, funcs, _ = _tridiagonal_eigen(prob, k, grid_size)
        assert np.all(funcs[:, 1] > 0)  # y'(a) > 0

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
        config = BandConfig()
        spec = eigen_solve(zonal_homogeneous_problem(config), n_max=3, grid_size=8193)
        for k in range(3):
            val = rayleigh_quotient(spec.problem, spec.eigenfunctions[k], spec.grid)
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
        y = solve_inhomogeneous(textbook_problem(), mu=0.0, spectrum=spec, n_terms=4)
        assert np.max(np.abs(y)) == 0.0

    def test_sine_forcing_closed_form(self):
        # y'' = -sin x with Dirichlet zeros has solution y = sin x
        prob = textbook_problem(h=lambda x: -np.sin(x))
        spec = eigen_solve(textbook_problem(), n_max=4, grid_size=8193)
        y = solve_inhomogeneous(prob, mu=0.0, spectrum=spec, n_terms=1)
        assert np.max(np.abs(y - np.sin(spec.grid))) <= 1e-6

    def test_residual_decreases_with_terms(self):
        config = BandConfig(psi1=-5.0, psi2=-25.0, omega=4650.0, lam=-10.0,
                            upsilon=30000.0)
        prob, _ = homogenize_boundary(config)
        spec = eigen_solve(zonal_homogeneous_problem(config), n_max=32, grid_size=4097)
        x = spec.grid
        hgrid = x[1] - x[0]
        p = np.cos(x)
        w = np.cos(x)
        hx = prob.h(x)
        residuals = []
        for n_terms in (4, 8, 16, 32):
            y = solve_inhomogeneous(prob, mu=config.lam, spectrum=spec, n_terms=n_terms)
            dy = np.gradient(y, x, edge_order=2)
            flux = np.gradient(p * dy, x, edge_order=2)
            res = flux + config.lam * w * y - hx
            # weak-form magnitude, interior only (gradient ends are one-sided)
            residuals.append(math.sqrt(hgrid * float(np.sum(res[2:-2] ** 2))))
        assert residuals[0] > residuals[1] > residuals[2] > residuals[3], (
            f"residuals not monotone: {residuals}"
        )

    def test_resonant_mu_rejected(self):
        prob = textbook_problem(h=lambda x: -np.sin(x))
        spec = eigen_solve(textbook_problem(), n_max=4, grid_size=1025)
        with pytest.raises(ResonantEigenvalue):
            solve_inhomogeneous(prob, mu=float(spec.eigenvalues[0]), spectrum=spec,
                                n_terms=4)


class TestHomogenizeBoundary:
    def test_zero_boundary_values(self):
        config = BandConfig(psi1=0.0, psi2=0.0, omega=4650.0, upsilon=30000.0)
        prob, (a_s, b_s) = homogenize_boundary(config)
        assert a_s == 0.0 and b_s == 0.0
        th = np.linspace(config.theta1, config.theta2, 101)
        expect = config.upsilon * np.cos(th) - config.omega * np.sin(2 * th)
        assert np.max(np.abs(prob.h(th) - expect)) <= 1e-9 * config.upsilon

    def test_figure1_shift(self, fig1_config):
        _, (a_s, b_s) = homogenize_boundary(fig1_config)
        dtheta = math.radians(10.0)
        assert a_s == pytest.approx(-20.0 / dtheta, rel=1e-12)
        # the affine shift reproduces the boundary values exactly
        assert a_s * fig1_config.theta1 + b_s == pytest.approx(fig1_config.psi1, abs=1e-12)
        assert a_s * fig1_config.theta2 + b_s == pytest.approx(fig1_config.psi2, abs=1e-12)

    def test_shifted_solution_restores_boundary_values(self, fig1_config):
        prob, (a_s, b_s) = homogenize_boundary(fig1_config)
        spec = eigen_solve(zonal_homogeneous_problem(fig1_config), n_max=16,
                           grid_size=2049)
        y = solve_inhomogeneous(prob, mu=fig1_config.lam, spectrum=spec, n_terms=16)
        psi = y + a_s * spec.grid + b_s
        assert psi[0] == pytest.approx(fig1_config.psi1, abs=1e-10)
        assert psi[-1] == pytest.approx(fig1_config.psi2, abs=1e-10)

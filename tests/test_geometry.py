"""The band's projection (radii forward, grid latitudes back), the
conformal coefficients on grid rings, and the band quadrature."""

import math

import numpy as np
import pytest

from accband.errors import ValidationError
from accband.geometry import BandConfig, alpha_of_rho, beta_of_rho, integral_dsigma
from accband.grids import AnnulusGrid

from oracles import band_area


class TestConfig:
    def test_default_band_radii(self):
        c = BandConfig()
        assert 0.0 < c.r1 < c.r2 < 1.0
        assert c.r1 == pytest.approx(math.cos(c.theta1) / (1 - math.sin(c.theta1)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(theta1=-0.5, theta2=-0.9),   # reversed latitudes
            dict(theta1=-0.5, theta2=0.2),    # crosses the equator
            dict(omega=0.0),                  # nonpositive rotation
            dict(theta1=-1.8, theta2=-0.9),   # below the south pole
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            BandConfig(**kwargs)


class TestProjection:
    """Forward, BandConfig's radii r = cos(theta)/(1 - sin(theta)); back,
    the grid's ring latitudes sin(theta) = (r^2 - 1)/(r^2 + 1)."""

    def test_equator_points(self):
        grid = AnnulusGrid(8, 8, -1.0, 0.0)
        assert grid.r[-1] == pytest.approx(1.0, abs=1e-15)
        assert grid.theta[-1] == pytest.approx(0.0, abs=1e-15)
        x, y = grid.r[-1] * np.cos(grid.phi[1]), grid.r[-1] * np.sin(grid.phi[1])
        assert (x, y) == pytest.approx((np.sqrt(2) / 2, np.sqrt(2) / 2), abs=1e-15)

    def test_band_latitude_value(self):
        # cos(-pi/3) / (1 - sin(-pi/3)) = tan(pi/12)
        r1 = BandConfig(theta1=-np.pi / 3, theta2=-0.5).r1
        assert r1 == pytest.approx(math.tan(math.pi / 12), abs=1e-14)
        assert r1 == pytest.approx(0.26794919243112275, abs=1e-12)

    def test_unproject_examples(self):
        grid = AnnulusGrid(8, 8, math.log(0.5), 0.0)
        assert grid.theta[-1] == pytest.approx(0.0, abs=1e-15)
        assert grid.theta[0] == pytest.approx(math.asin(-0.6), abs=1e-14)

    def test_origin_rejected(self):
        """The plane origin is the South Pole, which no band reaches."""
        with pytest.raises(ValidationError):
            BandConfig(theta1=-np.pi / 2, theta2=-0.9)

    def test_roundtrip_random_band_points(self, rng):
        for _ in range(200):
            theta1, theta2 = np.sort(rng.uniform(-1.45, -0.05, 2))
            config = BandConfig(theta1=float(theta1), theta2=float(theta2))
            grid = AnnulusGrid.from_band(config, 8, 8)
            assert abs(grid.theta[0] - config.theta1) <= 1e-14
            assert abs(grid.theta[-1] - config.theta2) <= 1e-14

    def test_scalar_point_roundtrip(self):
        """One scalar latitude through BandConfig's float radius and back."""
        config = BandConfig(theta1=-1.0, theta2=-0.5)
        assert isinstance(config.r1, float)
        theta = float(AnnulusGrid.from_band(config, 8, 8).theta[0])
        assert theta == pytest.approx(-1.0, abs=1e-14)


class TestConformalCoefficients:
    """alpha_of_rho and beta_of_rho, as the Poisson source, every state
    and the critical stream read them, on the default band's rings."""

    def grid(self):
        return AnnulusGrid.from_band(BandConfig(), 1024, 8)

    def test_alpha_values(self):
        assert alpha_of_rho(-np.inf) == pytest.approx(0.25)  # the plane origin
        assert alpha_of_rho(0.0) == pytest.approx(1.0)       # the equator

    def test_beta_values(self):
        assert beta_of_rho(0.0, omega=4650.0) == pytest.approx(0.0, abs=1e-12)
        assert beta_of_rho(-np.inf, omega=4650.0) == pytest.approx(2 * 4650.0)

    def test_beta_matches_planetary_vorticity(self):
        config = BandConfig()
        grid = self.grid()
        residual = beta_of_rho(grid.rho, config.omega) + 2.0 * config.omega * np.sin(grid.theta)
        assert np.max(np.abs(residual)) <= 1e-12 * config.omega

    def test_alpha_lower_bound_on_band(self):
        config = BandConfig()
        assert np.all(alpha_of_rho(self.grid().rho) >= (1 + config.r1**2) ** 2 / 4 - 1e-14)

    def test_alpha_over_r_squared_is_cosh_squared(self):
        """alpha e^{-2 rho} = cosh^2(rho), which the transport's
        characteristic field is built from."""
        rho = self.grid().rho
        chi = np.cosh(rho) ** 2
        assert np.max(np.abs(alpha_of_rho(rho) * np.exp(-2.0 * rho) - chi) / chi) <= 2e-15


class TestBandIntegral:
    def grid(self, config, n_rho=96, n_phi=64):
        return AnnulusGrid.from_band(config, n_rho, n_phi)

    def test_unit_integrand_gives_band_area(self):
        config = BandConfig()
        grid = self.grid(config)
        f = np.ones((grid.n_rho, grid.n_phi))
        assert integral_dsigma(f, grid) == pytest.approx(band_area(config), rel=2e-5)

    def test_sin_theta_moment(self):
        config = BandConfig()
        grid = self.grid(config)
        f = np.broadcast_to(np.sin(grid.theta)[:, None], (grid.n_rho, grid.n_phi))
        exact = np.pi * (math.sin(config.theta2) ** 2 - math.sin(config.theta1) ** 2)
        assert integral_dsigma(f, grid) == pytest.approx(exact, rel=2e-5)

    def test_odd_in_phi_vanishes(self):
        config = BandConfig()
        grid = self.grid(config)
        vals = np.sin(grid.phi)[None, :] * np.cosh(grid.rho)[:, None]
        assert abs(integral_dsigma(vals, grid)) <= 1e-13

    def test_second_order_convergence(self):
        config = BandConfig()
        exact = band_area(config)
        errors = []
        for n in (32, 64, 128):
            grid = self.grid(config, n_rho=n, n_phi=16)
            errors.append(abs(integral_dsigma(np.ones((n, 16)), grid) - exact))
        ratio1 = errors[0] / errors[1]
        ratio2 = errors[1] / errors[2]
        assert 3.5 <= ratio1 <= 4.5, f"ratios {ratio1:.2f}, {ratio2:.2f}"
        assert 3.5 <= ratio2 <= 4.5, f"ratios {ratio1:.2f}, {ratio2:.2f}"


class TestConformalLaplacian:
    """alpha relates the Laplace-Beltrami operator to the planar Laplacian.

    Oracle: test-local second-order differences in (rho, phi) against the
    hand-computed spherical Laplacians of two smooth fields.
    """

    @staticmethod
    def planar_laplacian(vals, grid):
        lap = np.empty_like(vals)
        h = grid.d_rho
        lap[1:-1] = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / h**2
        lap[0] = lap[1]  # interior comparison only
        lap[-1] = lap[-2]
        lap_phi = (
            np.roll(vals, -1, axis=1) - 2 * vals + np.roll(vals, 1, axis=1)
        ) / grid.d_phi**2
        return np.exp(-2 * grid.rho)[:, None] * (lap + lap_phi)

    @pytest.mark.parametrize(
        "psi_fn,lap_fn",
        [
            (lambda phi, th: np.sin(th) + 0 * phi, lambda phi, th: -2 * np.sin(th) + 0 * phi),
            (
                lambda phi, th: np.cos(th) ** 2 * np.cos(2 * phi),
                lambda phi, th: -6 * np.cos(th) ** 2 * np.cos(2 * phi),
            ),
        ],
    )
    def test_alpha_times_planar_matches_spherical(self, psi_fn, lap_fn):
        config = BandConfig()
        errs = []
        for n, n_phi in ((64, 32), (128, 64)):
            grid = AnnulusGrid.from_band(config, n, n_phi)
            th = grid.theta[:, None]
            phi = grid.phi[None, :]
            vals = psi_fn(phi, th)
            lap_plane = self.planar_laplacian(vals, grid)
            lap_sphere = lap_fn(phi, th)
            a = (1 + np.exp(2 * grid.rho)) ** 2 / 4
            err = np.abs(a[1:-1, None] * lap_plane[1:-1] - lap_sphere[1:-1])
            errs.append(np.max(err))
        assert errs[1] <= errs[0] / 3.2, f"no O(h^2) decay: {errs}"

"""Projection, conformal coefficients, vector transport, band quadrature."""

import math

import numpy as np
import pytest

from accband.errors import OriginUndefined, ValidationError
from accband.geometry import (
    BandConfig,
    alpha,
    band_area,
    beta,
    integral_dsigma,
    project,
    unproject,
    vector_to_plane,
    vector_to_sphere,
)
from accband.grids import AnnulusGrid


def random_band_points(config, rng, n):
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    theta = rng.uniform(config.theta1, config.theta2, n)
    return phi, theta


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
    def test_equator_points(self):
        x, y = project(0.0, 0.0)
        assert (x, y) == pytest.approx((1.0, 0.0), abs=1e-15)
        x, y = project(np.pi / 4, 0.0)
        assert (x, y) == pytest.approx((np.sqrt(2) / 2, np.sqrt(2) / 2), abs=1e-15)

    def test_band_latitude_value(self):
        # cos(-pi/3) / (1 - sin(-pi/3)) = tan(pi/12)
        x, y = project(0.0, -np.pi / 3)
        assert x == pytest.approx(math.tan(math.pi / 12), abs=1e-14)
        assert x == pytest.approx(0.26794919243112275, abs=1e-12)
        assert y == pytest.approx(0.0, abs=1e-15)

    def test_unproject_examples(self):
        phi, theta = unproject(1.0, 0.0)
        assert (phi, theta) == pytest.approx((0.0, 0.0), abs=1e-15)
        phi, theta = unproject(0.5, 0.0)
        assert theta == pytest.approx(math.asin(-0.6), abs=1e-14)

    def test_origin_rejected(self):
        with pytest.raises(OriginUndefined):
            unproject(0.0, 0.0)

    def test_roundtrip_random_band_points(self, rng):
        config = BandConfig()
        phi, theta = random_band_points(config, rng, 10_000)
        x, y = project(phi, theta)
        phi2, theta2 = unproject(x, y)
        assert np.max(np.abs(phi2 - phi)) <= 1e-12
        assert np.max(np.abs(theta2 - theta)) <= 1e-12
        x2, y2 = project(phi2, theta2)
        assert np.max(np.abs(x2 - x)) <= 1e-12
        assert np.max(np.abs(y2 - y)) <= 1e-12

    def test_scalar_point_roundtrip(self):
        """One scalar point through project and unproject, as floats."""
        x, y = project(0.3, -1.0)
        phi, theta = unproject(float(x), float(y))
        assert float(phi) == pytest.approx(0.3, abs=1e-14)
        assert float(theta) == pytest.approx(-1.0, abs=1e-14)


class TestConformalCoefficients:
    def test_alpha_values(self):
        assert alpha(0.0, 0.0) == pytest.approx(0.25)
        assert alpha(1.0, 0.0) == pytest.approx(1.0)

    def test_beta_values(self):
        assert beta(1.0, 0.0, omega=4650.0) == pytest.approx(0.0, abs=1e-12)
        assert beta(0.0, 0.0, omega=4650.0) == pytest.approx(2 * 4650.0)

    def test_beta_matches_planetary_vorticity(self, rng):
        config = BandConfig()
        phi, theta = random_band_points(config, rng, 10_000)
        x, y = project(phi, theta)
        residual = beta(x, y, config.omega) + 2.0 * config.omega * np.sin(theta)
        assert np.max(np.abs(residual)) <= 1e-12 * config.omega

    def test_alpha_lower_bound_on_band(self, rng):
        config = BandConfig()
        phi, theta = random_band_points(config, rng, 1000)
        x, y = project(phi, theta)
        assert np.all(alpha(x, y) >= (1 + config.r1**2) ** 2 / 4 - 1e-14)


class TestVectorTransport:
    def test_zero_maps_to_zero(self):
        assert vector_to_plane(0.0, 0.0, 1.0, -1.0) == (0.0, 0.0)

    def test_pure_zonal_at_phi0(self):
        theta = -0.9
        big_u, big_v = vector_to_plane(1.0, 0.0, 0.0, theta)
        assert big_u == pytest.approx(0.0, abs=1e-15)
        assert big_v == pytest.approx(1.0 - math.sin(theta))

    def test_roundtrip_random(self, rng):
        config = BandConfig()
        phi, theta = random_band_points(config, rng, 10_000)
        u = rng.standard_normal(10_000)
        v = rng.standard_normal(10_000)
        x, y = project(phi, theta)
        big_u, big_v = vector_to_plane(u, v, phi, theta)
        u2, v2 = vector_to_sphere(big_u, big_v, x, y)
        assert np.max(np.abs(u2 - u)) <= 1e-12
        assert np.max(np.abs(v2 - v)) <= 1e-12


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

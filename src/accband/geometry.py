"""Spherical band geometry and the stereographic projection.

The flow domain is an annular band on the unit sphere,

    C = { (phi, theta) : phi in [0, 2pi), theta1 < theta < theta2 },

with -pi/2 < theta1 < theta2 < 0. Projecting stereographically from the
North Pole onto the equatorial plane,

    x = cos(theta)/(1 - sin(theta)) * cos(phi),
    y = cos(theta)/(1 - sin(theta)) * sin(phi),

maps C onto the annulus r1 < sqrt(x^2+y^2) < r2 with
r_i = cos(theta_i)/(1 - sin(theta_i)). The map is conformal with

    alpha(x, y) = (1 + x^2 + y^2)^2 / 4,

relating the Laplace-Beltrami operator to the planar Laplacian
(Delta_sphere = alpha * Delta_plane) and the area elements
(dsigma = dx dy / alpha). The planetary-vorticity profile transported to
the plane is

    beta(x, y) = 2 omega (1 - x^2 - y^2)/(1 + x^2 + y^2) = -2 omega sin(theta).

Both depend on the point only through r^2 = x^2 + y^2, so the library
evaluates them on grid rings, as alpha_of_rho and beta_of_rho of
rho = log r; the grid inverts the projection ring by ring
(AnnulusGrid.theta: sin(theta) = (r^2 - 1)/(r^2 + 1)).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


# ==================================================================
# Problem configuration
# ==================================================================

@dataclass(frozen=True)
class BandConfig:
    """Physical parameters of one band scenario.

    theta1, theta2 : band latitudes in radians, -pi/2 < theta1 < theta2 < 0
    psi1, psi2     : stream-function values on the two boundary circles
    omega          : nondimensional rotation rate (Omega' R' / U')
    lam            : slope of the affine oceanic vorticity F(psi) = -lam*psi + upsilon
    upsilon        : offset of the oceanic vorticity
    u_scale        : dimensional velocity scale in m/s for output conversion
    """

    theta1: float = math.radians(-60.0)
    theta2: float = math.radians(-50.0)
    psi1: float = -5.0
    psi2: float = -25.0
    omega: float = 4650.0
    lam: float = 0.0
    upsilon: float = 0.0
    u_scale: float = 0.1

    def __post_init__(self):
        if not (-math.pi / 2 < self.theta1 < self.theta2 < 0.0):
            raise ValidationError(
                f"need -pi/2 < theta1 < theta2 < 0, got ({self.theta1}, {self.theta2})"
            )
        if not self.omega > 0:
            raise ValidationError(f"omega must be positive, got {self.omega}")
        if not (0.0 < self.r1 < self.r2 < 1.0):
            raise ValidationError("projected radii must satisfy 0 < r1 < r2 < 1")

    @property
    def r1(self):
        return math.cos(self.theta1) / (1.0 - math.sin(self.theta1))

    @property
    def r2(self):
        return math.cos(self.theta2) / (1.0 - math.sin(self.theta2))


# ==================================================================
# Conformal coefficients
# ==================================================================

def alpha_of_rho(rho):
    """alpha on a grid ring, as a function of rho = log r."""
    r2 = np.exp(2.0 * np.asarray(rho, dtype=float))
    return (1.0 + r2) ** 2 / 4.0


def beta_of_rho(rho, omega):
    """beta on a grid ring, as a function of rho = log r."""
    r2 = np.exp(2.0 * np.asarray(rho, dtype=float))
    return 2.0 * omega * (1.0 - r2) / (1.0 + r2)


# ==================================================================
# Metric-aware quadrature
# ==================================================================

def integral_dsigma(values, grid):
    """Integral of grid values over the band, weighted by dsigma.

    dsigma = dx dy / alpha = cos^2(theta(rho)) drho dphi on the grid, so
    the rule is trapezoid in rho (second order) and the exact periodic
    trapezoid in phi (spectrally accurate for smooth integrands). The
    result keeps the dtype of values.
    """
    w = grid.radial_weights * np.cos(grid.theta) ** 2
    return grid.d_phi * np.sum(w[:, None] * values)


def integral_flat(values, grid):
    """Integral against drho dphi (gradient-type integrands), same rule."""
    return grid.d_phi * np.sum(grid.radial_weights[:, None] * values)


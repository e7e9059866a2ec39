"""Structured grid on the projected annulus and field containers.

The annulus D = {r1^2 < x^2+y^2 < r2^2} is discretized in conformal polar
coordinates (rho, phi) with rho = log r:

  * rho uniform on [log r1, log r2], both endpoints included (n_rho nodes);
  * phi uniform periodic on [0, 2pi) (n_phi nodes, node 0 at phi=0).

In these coordinates the planar Laplacian is e^{-2 rho} (d^2/drho^2 +
d^2/dphi^2) and the area element is dx dy = e^{2 rho} drho dphi, so most
quadratures below reduce to flat trapezoid-in-rho / exact-sum-in-phi rules.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GridMismatch, ValidationError


@dataclass(frozen=True)
class AnnulusGrid:
    """Log-radial x periodic-azimuthal grid on the projected annulus.

    Powers of two are preferred for n_phi (FFT efficiency) but any
    n_phi >= 8 works.
    """

    n_rho: int
    n_phi: int
    rho1: float
    rho2: float

    def __post_init__(self):
        if self.n_rho < 8 or self.n_phi < 8:
            raise ValidationError("grid needs n_rho >= 8 and n_phi >= 8")
        if not self.rho1 < self.rho2:
            raise ValidationError("grid needs rho1 < rho2")

    @classmethod
    def from_band(cls, config, n_rho, n_phi):
        return cls(n_rho, n_phi, np.log(config.r1), np.log(config.r2))

    # -- coordinate arrays --------------------------------------------

    @cached_property
    def rho(self):
        return np.linspace(self.rho1, self.rho2, self.n_rho)

    @cached_property
    def phi(self):
        return np.linspace(0.0, 2.0 * np.pi, self.n_phi, endpoint=False)

    @cached_property
    def r(self):
        return np.exp(self.rho)

    @cached_property
    def theta(self):
        """Latitude of each grid ring: sin(theta) = (r^2-1)/(r^2+1)."""
        r2 = self.r**2
        return np.arcsin((r2 - 1.0) / (r2 + 1.0))

    @property
    def d_rho(self):
        return (self.rho2 - self.rho1) / (self.n_rho - 1)

    @property
    def d_phi(self):
        return 2.0 * np.pi / self.n_phi

    @cached_property
    def radial_weights(self):
        """Trapezoid weights in rho (end nodes carry half weight)."""
        w = np.full(self.n_rho, self.d_rho)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @cached_property
    def poisson_factor(self):
        """Pinned radial factor of the Poisson solve, built once per grid.

        One tridiagonal d^2/drho^2 - m^2 per rfft mode m of n_phi, with
        Dirichlet rows pinned at both walls (see zonal._thomas_factor).
        """
        # Imported on first use: grids sits below zonal, and a module-level
        # import here moved scipy's import earlier and added about 50 ms to
        # every process start (numpy.f2py's import slowed; measured, not
        # explained).
        from .zonal import _thomas_factor

        h = self.d_rho
        m = np.arange(self.n_phi // 2 + 1)
        off = np.full(self.n_rho, 1.0 / h**2)
        diag = np.full((self.n_rho, len(m)), -2.0 / h**2) - (m * m)[None, :]
        return _thomas_factor(off, diag, off)

    # -- field constructors -------------------------------------------

    def scalar_field(self, values):
        return ScalarField(self, np.asarray(values, dtype=float))

    def zeros(self):
        return ScalarField(self, np.zeros((self.n_rho, self.n_phi)))

    def mesh(self):
        """(rho, phi) arrays broadcast to the (n_rho, n_phi) field shape."""
        return np.meshgrid(self.rho, self.phi, indexing="ij")

    def compatible_with(self, other):
        return (
            self.n_rho == other.n_rho
            and self.n_phi == other.n_phi
            and abs(self.rho1 - other.rho1) < 1e-13
            and abs(self.rho2 - other.rho2) < 1e-13
        )


def _check_same_grid(a, b):
    if a.grid is not b.grid and not a.grid.compatible_with(b.grid):
        raise GridMismatch("fields live on different grids")


@dataclass
class ScalarField:
    """Grid sample of a scalar (zeta, psi, source terms, ...)."""

    grid: AnnulusGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_rho, self.grid.n_phi):
            raise GridMismatch(
                f"field shape {self.values.shape} does not match grid "
                f"({self.grid.n_rho}, {self.grid.n_phi})"
            )

    def copy(self):
        return ScalarField(self.grid, self.values.copy())

    def __add__(self, other):
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.values - other.values)


@dataclass
class VectorField:
    """Tangent vector field in physical polar components (u_r, u_phi)."""

    grid: AnnulusGrid
    u_r: np.ndarray
    u_phi: np.ndarray

    def __post_init__(self):
        shape = (self.grid.n_rho, self.grid.n_phi)
        if self.u_r.shape != shape or self.u_phi.shape != shape:
            raise GridMismatch("vector component shape does not match grid")

    def __sub__(self, other):
        _check_same_grid(self, other)
        return VectorField(self.grid, self.u_r - other.u_r, self.u_phi - other.u_phi)

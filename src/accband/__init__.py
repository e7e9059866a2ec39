"""Zonal jets and barotropic dynamics on a latitudinal band of a rotating sphere.

The package splits into:

  geometry         band configuration, the stereographic projection's
                   conformal coefficients on grid rings (alpha_of_rho,
                   beta_of_rho), metric-aware quadratures (integral_dsigma,
                   integral_flat)
  grids            the log-radial x periodic grid; fields are plain
                   (n_rho, n_phi) ndarrays on it
  sturm_liouville  regular Sturm-Liouville spectra (Legendre-Lobatto
                   spectral + Pruefer shooting), Rayleigh quotients,
                   eigenfunction expansions, the tridiagonal kernels
  zonal            steady zonal profiles by four independent routes, each
                   built with its velocity; the band's eigenproblem, its
                   one cached spectrum and the boundary homogenization
  euler2d          the time-dependent transport solver on the projected
                   annulus (Poisson, harmonic component, semi-Lagrangian
                   stepping, checkpoints)
  diagnostics      record, the one reduction of a state to its conserved
                   quantities, Lyapunov functional and zonal-stability
                   left side; the Lyapunov functional on any stream field
                   and its zonal critical point
  cli              scenario files, run modes, CSV/SVG artifacts
"""

from .errors import AccBandError, ConfigError, NumericalError
from .geometry import BandConfig
from .grids import AnnulusGrid
from .sturm_liouville import (
    SLProblem,
    SLSpectrum,
    eigen_solve,
    prufer_eigenvalues,
    rayleigh_quotient,
    solve_inhomogeneous,
)
from .zonal import (
    ZonalProfile,
    homogenize_boundary,
    solve_closed_form_lambda0,
    solve_fd,
    solve_picard,
    solve_sl_expansion,
)
from .euler2d import (
    SimState,
    fix_circulation,
    perturb,
    perturbed_zonal_state,
    run,
    step,
    zonal_initial_state,
)
from .diagnostics import (
    DiagnosticRecord,
    casimir,
    record,
)

__all__ = [
    "AccBandError", "ConfigError", "NumericalError",
    "BandConfig", "AnnulusGrid",
    "SLProblem", "SLSpectrum", "eigen_solve", "homogenize_boundary",
    "prufer_eigenvalues", "rayleigh_quotient", "solve_inhomogeneous",
    "ZonalProfile", "solve_closed_form_lambda0", "solve_fd", "solve_picard",
    "solve_sl_expansion",
    "SimState", "fix_circulation", "perturb", "perturbed_zonal_state",
    "run", "step", "zonal_initial_state",
    "DiagnosticRecord", "casimir", "record",
]

__version__ = "0.1.0"

"""Independent oracles that more than one test module shares.

Each is a closed form or a direct formula that the library itself does
not compute this way: the band's area, the planar velocity of a stream
function and the normalized harmonic field of the annulus.
"""

import math

import numpy as np

import accband.euler2d as e2


def band_area(config) -> float:
    """Closed-form band area 2 pi (sin theta2 - sin theta1)."""
    return 2.0 * math.pi * (math.sin(config.theta2) - math.sin(config.theta1))


def velocity_from_stream(psi_values, grid):
    """(u_r, u_phi) = (e^-rho psi_phi, -e^-rho psi_rho)."""
    inv_r = np.exp(-grid.rho)[:, None]
    return inv_r * e2.dphi(psi_values, grid), -inv_r * e2.drho(psi_values, grid)


def harmonic_component(grid):
    """(u_phi, N): the normalized harmonic field U_star = perp-grad(psi_star)/N.

    Purely azimuthal (its u_r is identically 0); its circulation around
    either wall is exactly 1/N times that of perp-grad(psi_star), i.e. the
    circulation carried by lambda_circ * U_star is exactly lambda_circ.
    """
    n = e2.harmonic_normalization(grid)
    u_phi = np.broadcast_to(
        (np.exp(-grid.rho) / ((grid.rho2 - grid.rho1) * n))[:, None],
        (grid.n_rho, grid.n_phi),
    ).copy()
    return u_phi, n

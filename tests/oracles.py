"""Independent oracles that the test modules share.

Each is a closed form or a direct formula that the library itself does
not compute this way: the band's area, the planar velocity of a stream
function, the normalized harmonic field of the annulus, and a run's
summary reduced from the list of all its records.
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


def summary_of_records(records) -> dict:
    """A run's JSON summary reduced from the list of all its records: the
    reference that the CLI's running reduction must equal."""
    first, last = records[0], records[-1]

    def drift(a, b):
        return abs(b - a) / max(1e-30, abs(a))

    entries = {
        "energy": (first.energy, last.energy),
        "circ1": (first.circ1, last.circ1),
        "circ2": (first.circ2, last.circ2),
        "lyapunov": (first.lyapunov, last.lyapunov),
        **{f"casimir{k}": (first.casimirs[k], last.casimirs[k])
           for k in first.casimirs},
    }
    return {
        "t_first": float(first.t),
        "t_last": float(last.t),
        "records": len(records),
        "max_xi_overall": float(max(r.max_xi for r in records)),
        "quantities": {
            name: {"initial": float(a), "final": float(b),
                   "relative_drift": float(drift(a, b))}
            for name, (a, b) in entries.items()
        },
        "stability": {
            "rhs": float(first.stability_lhs),
            "lhs_final": float(last.stability_lhs),
            "defect": float(last.stability_lhs - first.stability_lhs),
        },
    }

"""Conserved quantities and stability diagnostics.

record is the library's one reduction of a state: it evaluates the whole
suite on one state (one CSV row), and summary gives a run's JSON summary
from its first and last records and the tallies the run kept as it went.
All quantities are spherical-band integrals evaluated on the projected
grid with geometry's quadratures: integral_dsigma against the spherical
area element and integral_flat against drho dphi (both trapezoid in rho,
exact periodic sum in phi). The fields of a record, with s = -zeta the
absolute vorticity and psi the full stream function:

  energy            1/2 int (u^2 + v^2) dsigma  =  1/2 int |grad psi|^2 drho dphi
  circ1, circ2      int psi_theta dphi along each wall
                    = -(planar wall circulation)/cos(theta_wall)
  casimirs[k]       int s^k dsigma, casimir(state, k)
  lyapunov          E = 1/2 int [ -lam |grad psi|^2_sph + (s - upsilon)^2 ] dsigma
                        + lam [ a_w int psi_theta|w2 + b_w int psi_theta|w1 ],
                    a_w = psi2 cos(theta2), b_w = -psi1 cos(theta1)
  stability_lhs     -lam ||u - u*||^2 + ||Omega - Omega*||^2, with
                    Omega - Omega* = -(zeta - zeta*), stability_lhs(state, ref)

E is exactly quadratic in psi. zonal_critical_stream builds the zonal
restriction of the discrete quadratic form explicitly (by polarization)
and solves for its critical point with the boundary values pinned; that
state makes the discrete first variation vanish to round-off in every
admissible direction, zonal or not (nonzonal modes decouple exactly in
the phi sum). lyapunov_of_stream evaluates E on any stream field, so the
criteria take its variations about that state.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatch, NumericalError, ValidationError
from .geometry import alpha_of_rho, beta_of_rho, integral_dsigma, integral_flat
from .euler2d import (
    SimState,
    boundary_circulations,
    d2rho,
    drho,
    grad_square_flat,
    laplacian_values,
)

CSV_HEADER = "t,energy,circ1,circ2,casimir2,casimir3,stability_identity,max_xi,lambda_circ"


# ==================================================================
# Circulations and Casimirs
# ==================================================================

def _spherical_circulations(planar, grid):
    """Planar wall circulations -> int psi_theta dphi on each wall."""
    th = grid.theta
    return -planar[0] / math.cos(th[0]), -planar[1] / math.cos(th[-1])


def absolute_vorticity(state: SimState):
    """s = Delta psi + 2 omega sin(theta) = -zeta on this convention."""
    return -state.zeta


def _power(s, k):
    """s**k as ((s s) s) ...: repeated multiplication, far cheaper than pow."""
    out = np.ones_like(s) if k == 0 else s.copy()
    for _ in range(k - 1):
        out *= s
    return out


def casimir(state: SimState, k: int) -> float:
    """int s^k dsigma, s the absolute vorticity, for an int power 0 <= k <= 6."""
    if not isinstance(k, int) or not 0 <= k <= 6:
        raise ValidationError(f"casimir takes an int power 0 <= k <= 6, got {k!r}")
    return integral_dsigma(_power(absolute_vorticity(state), k), state.grid)


# ==================================================================
# Lyapunov functional
# ==================================================================

def _lyapunov_terms(grad_sq, planar_circ, s_values, config, grid):
    """Assemble E from int |grad psi|^2 drho dphi, the planar wall
    circulations of psi and the absolute vorticity."""
    lam = config.lam
    quad = 0.5 * (
        -lam * grad_sq + integral_dsigma((s_values - config.upsilon) ** 2, grid)
    )
    c1p, c2p = planar_circ
    # a_w int psi_theta|theta2 dphi + b_w int psi_theta|theta1 dphi with the
    # critical weights a_w = psi2 cos(theta2), b_w = -psi1 cos(theta1),
    # rewritten through the planar circulations.
    boundary = lam * (config.psi1 * c1p - config.psi2 * c2p)
    return quad + boundary


def lyapunov_of_stream(psi_values, config, grid) -> float:
    """E evaluated on an arbitrary stream field (variation tests).

    The absolute vorticity is produced by the grid's own Laplacian, so E
    is an explicit quadratic form in the nodal values of psi.
    """
    a = alpha_of_rho(grid.rho)[:, None]
    b = beta_of_rho(grid.rho, config.omega)[:, None]
    s_values = a * laplacian_values(psi_values, grid) - b
    return _lyapunov_terms(integral_flat(grad_square_flat(psi_values, grid), grid),
                           boundary_circulations(psi_values, grid),
                           s_values, config, grid)


def _solve_dense_longdouble(a, b):
    """Gaussian elimination with partial pivoting in extended precision.

    LAPACK only handles single/double, and the critical-point system is
    too ill-conditioned for float64 plus iterative refinement.
    """
    a = a.copy()
    b = b.copy()
    n = len(b)
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if a[p, k] == 0.0:
            raise ValidationError("critical-point Hessian is singular")
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        factors = a[k + 1 :, k] / a[k, k]
        a[k + 1 :, k:] -= factors[:, None] * a[k, k:]
        b[k + 1 :] -= factors * b[k]
    x = np.empty_like(b)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1 :] @ x[k + 1 :]) / a[k, k]
    return x


def zonal_critical_stream(config, grid) -> np.ndarray:
    """Exact critical point of the discrete E over zonal stream functions.

    Restricted to the zonal Fourier mode, E(psi) = 1/2 psi^T A psi
    + b^T psi + const with

      A = 2 pi [ -lam D1^T W D1 + M^T W_c M ],      M = diag(alpha e^{-2rho}) D2,
      b = 2 pi [ -M^T W_c (beta + upsilon)
                 - lam (psi1 D1^T e_first - psi2 D1^T e_last) ],

    (W, W_c the radial quadrature weights, plain and with cos^2 theta).
    Zeroing the gradient on the interior nodes with psi(walls) pinned
    gives a second-order zonal steady state whose discrete first
    variation vanishes to round-off in every admissible direction:
    nonzonal modes decouple exactly in the phi sum. Returned in long
    double, the precision it is solved in.
    """
    n = grid.n_rho
    two_pi = 2.0 * math.pi
    # assembly and elimination in extended precision: the interior block
    # is bi-Laplacian-like (condition ~ h^-4, entries ~ h^-4), and float64
    # assembly alone would shift the critical point enough to leave an
    # O(eps * ||A||) first variation. D1, D2 are the grid's own radial
    # stencils applied to the identity.
    d1 = drho(np.eye(n), grid).astype(np.longdouble)
    d2 = d2rho(np.eye(n), grid).astype(np.longdouble)
    a = alpha_of_rho(grid.rho).astype(np.longdouble)
    b_row = beta_of_rho(grid.rho, config.omega).astype(np.longdouble)
    m = (a * np.exp(-2.0 * grid.rho))[:, None] * d2
    w = grid.radial_weights.astype(np.longdouble)
    w_c = w * np.cos(grid.theta) ** 2

    hess = two_pi * (
        -config.lam * d1.T @ (w[:, None] * d1) + m.T @ (w_c[:, None] * m)
    )
    lin = two_pi * (
        -m.T @ (w_c * (b_row + config.upsilon))
        - config.lam * (config.psi1 * d1[0] - config.psi2 * d1[-1])
    )

    psi = np.empty(n, dtype=np.longdouble)
    psi[0], psi[-1] = config.psi1, config.psi2
    interior = slice(1, n - 1)
    rhs = -(lin[interior]
            + hess[interior, 0] * psi[0]
            + hess[interior, -1] * psi[-1])
    psi[interior] = _solve_dense_longdouble(hess[interior, interior], rhs)
    return psi


# ==================================================================
# Stability identity
# ==================================================================

def stability_lhs(state: SimState, reference: SimState) -> float:
    """-lam ||u - u*||^2 + ||Omega - Omega*||^2 of a state.

    ||u - u*||^2 is conformally flat, so a planar integral, and
    Omega - Omega* = -(zeta - zeta*). record comes here too, so this is
    where the two states' grids are checked.
    """
    grid = state.grid
    if not grid.compatible_with(reference.grid):
        raise GridMismatch("state and reference live on different grids")
    velocity = integral_flat(grad_square_flat(state.stream - reference.stream, grid), grid)
    vorticity = integral_dsigma((state.zeta - reference.zeta) ** 2, grid)
    return -state.config.lam * velocity + vorticity


# ==================================================================
# Per-state record
# ==================================================================

@dataclass
class DiagnosticRecord:
    t: float
    energy: float
    circ1: float
    circ2: float
    casimirs: dict
    lyapunov: float
    stability_lhs: float
    max_xi: float
    lambda_circ: float

    def csv_row(self) -> str:
        cells = [self.t, self.energy, self.circ1, self.circ2,
                 self.casimirs[2], self.casimirs[3],
                 self.stability_lhs, self.max_xi, self.lambda_circ]
        return ",".join(repr(float(v)) for v in cells)


def summary(first, last, records, max_xi) -> dict:
    """JSON-ready run summary: initial/final values and relative drifts.

    first and last are the run's t = 0 and final records, records the
    number it made and max_xi the largest max_xi among them.
    """

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
        "records": records,
        "max_xi_overall": float(max_xi),
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


@np.errstate(over="ignore", invalid="ignore")
def record(state: SimState, reference: SimState) -> DiagnosticRecord:
    """Evaluate the full diagnostic suite on one state.

    The flat gradient integral and the wall circulations of the state's
    stream are computed once and shared by the energy, the circulations
    and the Lyapunov functional. A value that is not finite raises
    NumericalError, not a numpy warning.
    """
    grid = state.grid
    psi = state.stream
    grad_sq = integral_flat(grad_square_flat(psi, grid), grid)
    planar_circ = boundary_circulations(psi, grid)
    c1, c2 = _spherical_circulations(planar_circ, grid)
    rec = DiagnosticRecord(
        t=state.t,
        energy=0.5 * grad_sq,
        circ1=c1,
        circ2=c2,
        casimirs={k: casimir(state, k) for k in (2, 3)},
        lyapunov=_lyapunov_terms(grad_sq, planar_circ, absolute_vorticity(state),
                                 state.config, grid),
        stability_lhs=stability_lhs(state, reference),
        max_xi=state.max_xi(),
        lambda_circ=state.lambda_circ,
    )
    for v in (rec.energy, rec.circ1, rec.circ2, rec.lyapunov, rec.stability_lhs,
              rec.max_xi, *rec.casimirs.values()):
        if not math.isfinite(v):
            raise NumericalError("diagnostic produced a non-finite value")
    return rec

"""Zonal steady states of the band flow.

A zonal state is a stream function Psi(theta) solving

    (Psi' cos(theta))' + lam Psi cos(theta)
        = upsilon cos(theta) - omega sin(2 theta),
    Psi(theta1) = psi1,  Psi(theta2) = psi2,

with zonal velocity u(theta) = -Psi'(theta). Four mutually independent
constructions are provided and cross-checked in the tests:

  closed_form   lam = 0 only: Psi = zeta + c1 eta + c2 with
                zeta = -upsilon log cos + omega sin - (omega/2) artanh(sin),
                eta' cos = 1 (eta = artanh(sin theta)); c1, c2 from a
                2x2 solve of the boundary conditions.
  fd            conservative second-order differences, one pinned
                tridiagonal column by sturm_liouville._solve_pinned.
  picard        fixed-point iteration of the integral form of the
                log-radius ODE  u'' = (-lam u + upsilon)/cosh^2(t)
                + 2 omega sinh(t)/cosh^3(t); contracts when
                r2/r1 <= exp((2|lam|)^{-1/2}).
  sl_expansion  eigenfunction expansion of the homogenized problem
                (homogenize_boundary) in the band's eigenbasis.

Each returns a ZonalProfile made by _finish: its ends are checked
against the size of the terms the solver summed them from, then set to
exactly psi1 and psi2 whatever the method; its velocity is the solver's
own u where it has one (closed form, picard), else fourth-order
differences of Psi.

The band's eigenproblem (band_problem: (y' cos)' = -mu y cos) depends on
theta1 and theta2 only, not on lam, upsilon, omega or the boundary
values. band_spectrum solves it once per band in a process, SL_TERMS
pairs on SL_GRID points, and hands every later caller read-only arrays
of that one solve, so a lam scan or a --sweep on one band pays for one
spectral eigen_solve, its node count checked.

The same ODE on the simulation grid's log-radius nodes (solve_fd_rho)
seeds the time-dependent solver with a discretely steady state.
"""

import functools
import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ContractionViolated,
    LambdaNotZero,
    MaxIterExceeded,
    TooFewSamples,
    ValidationError,
)
from .sturm_liouville import (
    SLProblem,
    SLSpectrum,
    _solve_pinned,
    eigen_solve,
    fourth_order_derivative,
    solve_inhomogeneous,
)


@dataclass
class ZonalProfile:
    """Latitude samples of one zonal state and its velocity."""

    thetas: np.ndarray
    psi: np.ndarray
    u: np.ndarray
    u_dimensional: np.ndarray
    diagnostics: dict


def _finish(thetas, psi, config, diagnostics, u=None, sizes=(0.0, 0.0)):
    """Every solver's profile: warn if psi1 == psi2, reject an end more
    than 1e-12 max(1, |its psi|, its size) off, set the ends exactly (in
    the solver's psi) and difference psi for u if the solver has none.
    sizes are those of the terms the solver summed its two ends from, of
    which they carry the round-off; they can dwarf psi."""
    if config.psi1 == config.psi2:
        warnings.warn(
            "psi1 == psi2: the boundary-value problem stays well posed, but the "
            "stability theorems assume distinct boundary values",
            stacklevel=3,  # the line that called the solver
        )
    for end, want, size in zip((0, -1), (config.psi1, config.psi2), sizes):
        if abs(psi[end] - want) > 1e-12 * max(1.0, abs(want), size):
            raise ValidationError("solver lost the boundary values")
    psi[0], psi[-1] = config.psi1, config.psi2
    if u is None:
        u = -fourth_order_derivative(psi, thetas)
    return ZonalProfile(thetas, psi, u, u * config.u_scale, diagnostics)


# ==================================================================
# Closed form (lam = 0)
# ==================================================================

def eta(theta):
    """Homogeneous solution with eta'(theta) cos(theta) = 1."""
    return np.arctanh(np.sin(theta))


def zeta_particular(theta, config):
    """Particular solution of (Psi' cos)' = upsilon cos - omega sin 2theta."""
    s = np.sin(theta)
    return (
        -config.upsilon * np.log(np.cos(theta))
        + config.omega * s
        - 0.5 * config.omega * np.arctanh(s)
    )


def _closed_form_constants(config):
    th = np.array([config.theta1, config.theta2])
    eta_b = eta(th)
    zeta_b = zeta_particular(th, config)
    mat = np.array([[eta_b[0], 1.0], [eta_b[1], 1.0]])
    rhs = np.array([config.psi1 - zeta_b[0], config.psi2 - zeta_b[1]])
    c1, c2 = np.linalg.solve(mat, rhs)
    return float(c1), float(c2)


def solve_closed_form_lambda0(config, n: int) -> ZonalProfile:
    """Explicit lam = 0 profile with analytically exact velocity."""
    if config.lam != 0.0:
        raise LambdaNotZero(f"closed form requires lam = 0, got {config.lam}")
    c1, c2 = _closed_form_constants(config)
    th = np.linspace(config.theta1, config.theta2, n)
    zeta, homogeneous = zeta_particular(th, config), c1 * eta(th)
    psi = zeta + homogeneous + c2
    sizes = [abs(zeta[i]) + abs(homogeneous[i]) + abs(c2) for i in (0, -1)]
    cos = np.cos(th)
    dpsi = config.upsilon * np.tan(th) + config.omega * cos \
        - 0.5 * config.omega / cos + c1 / cos
    return _finish(th, psi, config, {"c1": c1, "c2": c2}, u=-dpsi, sizes=sizes)


def closed_form_residual(config, thetas) -> np.ndarray:
    """Pointwise ODE residual of the closed form, by analytic derivatives.

    residual = Psi'' cos - Psi' sin - (upsilon cos - omega sin 2 theta),
    with Psi', Psi'' differentiated by hand; only round-off survives.
    """
    if config.lam != 0.0:
        raise LambdaNotZero("residual check is for the lam = 0 closed form")
    c1, _ = _closed_form_constants(config)
    th = np.asarray(thetas, dtype=float)
    cos, sin, sec = np.cos(th), np.sin(th), 1.0 / np.cos(th)
    dpsi = config.upsilon * np.tan(th) + config.omega * cos \
        - 0.5 * config.omega * sec + c1 * sec
    d2psi = config.upsilon * sec**2 - config.omega * sin \
        - 0.5 * config.omega * sec * np.tan(th) + c1 * sec * np.tan(th)
    return d2psi * cos - dpsi * sin - (
        config.upsilon * cos - config.omega * np.sin(2.0 * th)
    )


# ==================================================================
# Finite differences
# ==================================================================

def solve_fd(config, n: int) -> ZonalProfile:
    """Second-order conservative finite differences on a uniform theta grid."""
    if n < 3:
        raise TooFewSamples("finite-difference solve needs n >= 3")
    th = np.linspace(config.theta1, config.theta2, n)
    h = th[1] - th[0]
    # cos at the half nodes, zero-padded so row i uses p_half[i], p_half[i + 1]
    p_half = np.concatenate(([0.0], np.cos(0.5 * (th[:-1] + th[1:])), [0.0]))
    cos = np.cos(th)
    lower = p_half[:-1] / h**2
    upper = p_half[1:] / h**2
    diag = -(p_half[:-1] + p_half[1:]) / h**2 + config.lam * cos
    rhs = config.upsilon * cos - config.omega * np.sin(2.0 * th)
    psi = _solve_pinned(lower, diag, upper, rhs, config.psi1, config.psi2)
    residual = (
        lower[1:-1] * psi[:-2] + diag[1:-1] * psi[1:-1] + upper[1:-1] * psi[2:]
        - rhs[1:-1]
    )
    res_rel = float(np.max(np.abs(residual))) / max(
        1.0, float(np.max(np.abs(rhs))), float(np.max(np.abs(psi))) / h**2
    )
    return _finish(th, psi, config, {"linear_residual": res_rel})


def solve_fd_rho(config, rho) -> np.ndarray:
    """The same zonal BVP on log-radius nodes (the simulation grid).

    In rho = log r the equation is
        Psi'' = (-lam Psi + upsilon)/cosh^2(rho) - 2 omega sinh/cosh^3,
    which discretized with the grid's own second difference makes the
    sampled state exactly steady for the time-dependent solver.
    """
    rho = np.asarray(rho, dtype=float)
    n = len(rho)
    h = rho[1] - rho[0]
    ch = np.cosh(rho)
    off = np.full(n, 1.0 / h**2)
    diag = -2.0 / h**2 + config.lam / ch**2
    rhs = config.upsilon / ch**2 - 2.0 * config.omega * np.sinh(rho) / ch**3
    return _solve_pinned(off, diag, off, rhs, config.psi1, config.psi2)


# ==================================================================
# Picard iteration (integral equation in t = -log r)
# ==================================================================

def _cumtrapz(f, dt):
    out = np.empty_like(f)
    out[0] = 0.0
    np.cumsum(0.5 * dt * (f[1:] + f[:-1]), out=out[1:])
    return out


def contraction_factor(config) -> float:
    """Theoretical Picard contraction factor 2 |lam| (t2 - t1)^2."""
    t_span = math.log(config.r2 / config.r1)
    return 2.0 * abs(config.lam) * t_span**2


def solve_picard(config, n: int, tol: float = 1e-10,
                 max_iter: int = 100) -> ZonalProfile:
    """Fixed-point solve of the integral equation on a uniform t grid.

    t = -log r reverses the endpoint order: iterates live in
    X = {f : f(t1) = psi2, f(t2) = psi1} and are mapped back to theta at
    the end. Quadratures are composite trapezoid, O(h^2).
    """
    q = contraction_factor(config)
    if config.lam != 0.0 and q >= 1.0:
        raise ContractionViolated(
            f"2|lam|(t2-t1)^2 = {q:.3f} >= 1: band too wide for |lam| = "
            f"{abs(config.lam)} (need r2/r1 <= exp((2|lam|)^(-1/2)))"
        )

    t1 = math.log(1.0 / config.r2)
    t2 = math.log(1.0 / config.r1)
    t = np.linspace(t1, t2, n)
    dt = t[1] - t[0]
    span = t2 - t1
    kernel = 1.0 / np.cosh(t) ** 2
    drive = 2.0 * config.omega * np.sinh(t) / np.cosh(t) ** 3 \
        + config.upsilon * kernel

    def weighted_integrals(f):
        """I(t) = int_{t1}^t (t - s) f(s) ds and its derivative int f ds."""
        c0 = _cumtrapz(f, dt)
        c1 = _cumtrapz(t * f, dt)
        return t * c0 - c1, c0

    i_drive, c_drive = weighted_integrals(drive)

    u = config.psi2 + (config.psi1 - config.psi2) * (t - t1) / span
    sup_diffs = []
    for iteration in range(max_iter):
        i_u, c_u = weighted_integrals(kernel * u)
        mu = (config.psi1 - config.psi2
              + config.lam * i_u[-1] - i_drive[-1]) / span
        u_next = config.psi2 + mu * (t - t1) - config.lam * i_u + i_drive
        diff = float(np.max(np.abs(u_next - u)))
        sup_diffs.append(diff)
        u = u_next
        if diff <= tol:
            break
    else:
        raise MaxIterExceeded(
            f"Picard iteration left sup-diff {sup_diffs[-1]:.3e} > {tol:.0e} "
            f"after {max_iter} iterations"
        )

    # derivative of the fixed point from the integral equation itself
    i_u, c_u = weighted_integrals(kernel * u)
    mu = (config.psi1 - config.psi2 + config.lam * i_u[-1] - i_drive[-1]) / span
    du_dt = mu - config.lam * c_u + c_drive

    r = np.exp(-t)
    thetas = np.arcsin((r**2 - 1.0) / (r**2 + 1.0))
    u_zonal = du_dt / np.cos(thetas)
    order = np.argsort(thetas)
    diags = {
        "iterations": len(sup_diffs),
        "sup_diffs": sup_diffs,
        "contraction_theory": q,
    }
    if len(sup_diffs) >= 3:
        diags["contraction_observed"] = sup_diffs[-1] / sup_diffs[-2]
    # psi[0] is u at t2, a sum; psi[-1] is u at t1, psi2 itself
    far = abs(config.psi2) + abs(mu * span) + abs(config.lam * i_u[-1]) \
        + abs(i_drive[-1])
    return _finish(thetas[order], u[order], config, diags, u=u_zonal[order],
                   sizes=(far, 0.0))


# ==================================================================
# Eigenfunction expansion
# ==================================================================

SPECTRUM_CACHE_SIZE = 8  # band spectra kept per process, about 0.5 MB each
SL_TERMS = 32  # eigenpairs of the one band solve, all of which sl_expansion sums
SL_GRID = 2049  # points of the one band solve, and of every sl_expansion profile
_SPECTRUM_LOCK = threading.Lock()


def band_problem(theta1, theta2) -> SLProblem:
    """The band's homogeneous eigenproblem: (y' cos)' = -mu y cos."""
    return SLProblem(a=theta1, b=theta2, p=np.cos, w=np.cos,
                     ln_pw_prime=lambda t: -2.0 * np.tan(t))


def homogenize_boundary(config):
    """Shift the zonal band problem to homogeneous Dirichlet data.

    Subtracting the affine interpolant a*theta + b of (psi1, psi2) from
    the stream function leaves y = psi - (a theta + b), zero at both
    walls, with

      (y' cos)' + lam y cos = h(theta),
      h(theta) = a sin(theta) + [upsilon - lam (a theta + b)] cos(theta)
                 - omega sin(2 theta):

    band_problem at mu = lam, forced by h.

    Returns the forcing h and the shift coefficients (a, b).
    """
    th1, th2 = config.theta1, config.theta2
    a_shift = (config.psi2 - config.psi1) / (th2 - th1)
    b_shift = (th2 * config.psi1 - th1 * config.psi2) / (th2 - th1)
    lam, ups, omg = config.lam, config.upsilon, config.omega

    def forcing(theta):
        return (
            a_shift * np.sin(theta)
            + (ups - lam * (a_shift * theta + b_shift)) * np.cos(theta)
            - omg * np.sin(2.0 * theta)
        )

    return forcing, (a_shift, b_shift)


def band_spectrum(theta1, theta2) -> SLSpectrum:
    """The band's spectrum: SL_TERMS eigenpairs on SL_GRID points.

    Each band is solved once, by the full eigen_solve, node-count check
    included, and every caller gets the same read-only arrays, of which
    it slices what it needs: the 5-pair zonal report, the 10-pair
    spectrum mode and sl_expansion share one solve. One lock serializes
    the lookups, so threads asking for the same band at once still solve
    it once.
    """
    with _SPECTRUM_LOCK:
        return _band_spectrum(theta1, theta2)


@functools.lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def _band_spectrum(theta1, theta2):
    spectrum = eigen_solve(band_problem(theta1, theta2),
                           n_max=SL_TERMS, grid_size=SL_GRID)
    for values in (spectrum.eigenvalues, spectrum.eigenfunctions, spectrum.grid):
        values.flags.writeable = False
    return spectrum


def solve_sl_expansion(config) -> ZonalProfile:
    """Homogenize the boundary data and expand in the band's eigenbasis,
    every pair of band_spectrum, on its grid."""
    forcing, (a_s, b_s) = homogenize_boundary(config)
    spectrum = band_spectrum(config.theta1, config.theta2)
    shifted = solve_inhomogeneous(forcing, mu=config.lam, spectrum=spectrum,
                                  n_terms=len(spectrum))
    th = spectrum.grid.copy()  # the profile must not alias the cached grid
    line = a_s * th
    psi = shifted + line + b_s
    sizes = [abs(shifted[i]) + abs(line[i]) + abs(b_s) for i in (0, -1)]
    return _finish(th, psi, config, {"n_terms": len(spectrum)}, sizes=sizes)


# ==================================================================
# Export
# ==================================================================

@functools.lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def _row_template(theta_bytes):
    """The rows of a profile CSV on one theta grid (float64 bytes), theta_deg
    already written: each row is its repr, then ',%r,%r,%r' for psi and u."""
    degrees = np.degrees(np.frombuffer(theta_bytes))
    return "".join([f"{t!r},%r,%r,%r\n" for t in degrees.tolist()])


def write_profile_csv(profile: ZonalProfile, path):
    """CSV export: theta_deg,psi,u_nondim,u_m_per_s, written in one pass.

    The theta column is the same for every profile on a grid, so it is
    formatted once per grid in a process (_row_template) and each row
    formats its three other floats."""
    template = _row_template(np.asarray(profile.thetas, dtype=float).tobytes())
    values = np.column_stack((profile.psi, profile.u, profile.u_dimensional))
    with open(path, "w", newline="") as fh:
        fh.write("theta_deg,psi,u_nondim,u_m_per_s\n")
        fh.write(template % tuple(values.ravel().tolist()))

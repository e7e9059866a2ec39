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
  fd            conservative second-order differences, tridiagonal solve.
  picard        fixed-point iteration of the integral form of the
                log-radius ODE  u'' = (-lam u + upsilon)/cosh^2(t)
                + 2 omega sinh(t)/cosh^3(t); contracts when
                r2/r1 <= exp((2|lam|)^{-1/2}).
  sl_expansion  eigenfunction expansion of the homogenized problem.

The band's eigenproblem (y' cos)' = -mu y cos depends on theta1 and theta2
only, not on lam, upsilon, omega or the boundary values. band_spectrum
solves it once per (theta1, theta2, n_max, grid_size) in a process and
hands every later caller the same read-only SLSpectrum, so a lam scan or
a --sweep on one band pays for one checked eigen_solve per key.

The same ODE on the simulation grid's log-radius nodes (solve_fd_rho)
seeds the time-dependent solver with a discretely steady state.
"""

import functools
import math
import threading
import types
import warnings
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import (
    ContractionViolated,
    LambdaNotZero,
    MaxIterExceeded,
    NearEigenvalue,
    TooFewSamples,
    ValidationError,
)
from .sturm_liouville import (
    SLSpectrum,
    eigen_solve,
    fourth_order_derivative,
    homogenize_boundary,
    solve_inhomogeneous,
    zonal_homogeneous_problem,
)


@dataclass
class ZonalProfile:
    """Latitude samples of one zonal state."""

    thetas: np.ndarray
    psi: np.ndarray
    u: Optional[np.ndarray]
    u_dimensional: Optional[np.ndarray]
    method: str
    config: object = None
    diagnostics: dict = field(default_factory=dict)


def _finish(thetas, psi, config, method, u=None, diagnostics=None):
    psi = np.asarray(psi, dtype=float)
    tol = 1e-12 * max(1.0, abs(config.psi1), abs(config.psi2))
    if abs(psi[0] - config.psi1) > tol or abs(psi[-1] - config.psi2) > tol:
        raise ValidationError("solver lost the boundary values")
    prof = ZonalProfile(
        thetas=np.asarray(thetas, dtype=float), psi=psi,
        u=None, u_dimensional=None, method=method, config=config,
        diagnostics=diagnostics or {},
    )
    if u is not None:
        prof.u = np.asarray(u, dtype=float)
        prof.u_dimensional = prof.u * config.u_scale
        return prof
    return velocity_profile(prof)


def _warn_equal_boundary_values(config):
    if config.psi1 == config.psi2:
        warnings.warn(
            "psi1 == psi2: the boundary-value problem stays well posed, but the "
            "stability theorems assume distinct boundary values",
            stacklevel=3,
        )


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
    _warn_equal_boundary_values(config)
    c1, c2 = _closed_form_constants(config)
    th = np.linspace(config.theta1, config.theta2, n)
    psi = zeta_particular(th, config) + c1 * eta(th) + c2
    # exact endpoints (the 2x2 solve reproduces them to round-off anyway)
    psi[0], psi[-1] = config.psi1, config.psi2
    cos = np.cos(th)
    dpsi = config.upsilon * np.tan(th) + config.omega * cos \
        - 0.5 * config.omega / cos + c1 / cos
    return _finish(th, psi, config, "closed_form", u=-dpsi,
                   diagnostics={"c1": c1, "c2": c2})


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

PIVOT_RTOL = 1e-9  # pivots below this fraction of the matrix scale are singular


def _thomas_factor(lower, diag, upper):
    """Pin the Dirichlet rows, then eliminate: a tridiagonal factor.

    Row i reads lower[i] x[i-1] + diag[i] x[i] + upper[i] x[i+1], batched
    over trailing axes of diag. Rows 0 and n-1 are overwritten in place by
    identity rows, equilibrated to the largest interior diagonal entry.
    The factor depends on the matrix only, so one factor serves every
    right-hand side (see _thomas_solve). The pivots are checked once,
    after the sweep: one below PIVOT_RTOL times the matrix scale, or NaN,
    raises NearEigenvalue.
    """
    row_scale = float(np.max(np.abs(diag[1:-1])))
    upper[0] = lower[-1] = 0.0
    diag[0] = diag[-1] = row_scale
    n = len(diag)
    scale = float(np.max(np.abs(diag)) + np.max(np.abs(lower)) + np.max(np.abs(upper)))
    piv = np.empty(np.shape(diag))
    c = np.empty(np.shape(diag))
    with np.errstate(divide="ignore", invalid="ignore"):
        piv[0] = p = diag[0]
        c[0] = upper[0] / p
        for i in range(1, n):
            piv[i] = p = diag[i] - lower[i] * c[i - 1]
            c[i] = upper[i] / p
    bad = ~(np.abs(piv) >= PIVOT_RTOL * scale)
    if np.any(bad):
        raise NearEigenvalue(
            f"tridiagonal pivot {np.min(np.abs(piv)):.3e} below threshold"
        )
    return lower, piv, c, row_scale


def _thomas_solve(factor, rhs, left, right):
    """Forward and back substitution through a _thomas_factor.

    Rows 0 and n-1 of rhs are overwritten in place by the wall values
    left and right.
    """
    lower, piv, c, row_scale = factor
    rhs[0], rhs[-1] = left * row_scale, right * row_scale
    x = np.empty(np.shape(rhs), dtype=np.result_type(rhs, piv))
    x[0] = d = rhs[0] / piv[0]
    for i in range(1, len(piv)):
        x[i] = d = (rhs[i] - lower[i] * d) / piv[i]
    for i in range(len(piv) - 2, -1, -1):
        x[i] = d = x[i] - c[i] * d
    return x


def _solve_pinned(lower, diag, upper, rhs, left, right):
    """Tridiagonal solve with Dirichlet values left and right pinned at
    both ends; the arguments are overwritten in place."""
    return _thomas_solve(_thomas_factor(lower, diag, upper), rhs, left, right)


def solve_fd(config, n: int) -> ZonalProfile:
    """Second-order conservative finite differences on a uniform theta grid."""
    if n < 3:
        raise TooFewSamples("finite-difference solve needs n >= 3")
    _warn_equal_boundary_values(config)
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
    return _finish(th, psi, config, "finite_difference",
                   diagnostics={"linear_residual": res_rel})


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
    _warn_equal_boundary_values(config)

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
    psi = u[order]
    psi[0], psi[-1] = config.psi1, config.psi2
    return _finish(thetas[order], psi, config, "picard",
                   u=u_zonal[order], diagnostics=diags)


# ==================================================================
# Eigenfunction expansion
# ==================================================================

SPECTRUM_CACHE_SIZE = 8  # band spectra kept per process (each <= a few MB)
_SPECTRUM_LOCK = threading.Lock()


def band_spectrum(theta1, theta2, n_max, grid_size) -> SLSpectrum:
    """First n_max eigenpairs of the band (theta1, theta2), solved once.

    The first call for a key runs the full eigen_solve, Pruefer index check
    included; later calls return the same SLSpectrum, whose arrays are
    read-only. One lock serializes the lookups, so threads asking for the
    same key at once still solve it once.
    """
    with _SPECTRUM_LOCK:
        return _band_spectrum(theta1, theta2, n_max, grid_size)


@functools.lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def _band_spectrum(theta1, theta2, n_max, grid_size):
    # the homogeneous problem reads the band edges and nothing else
    band = types.SimpleNamespace(theta1=theta1, theta2=theta2)
    spectrum = eigen_solve(zonal_homogeneous_problem(band),
                           n_max=n_max, grid_size=grid_size)
    for values in (spectrum.eigenvalues, spectrum.eigenfunctions, spectrum.grid):
        values.flags.writeable = False
    return spectrum


def solve_sl_expansion(config, n_terms: int = 32,
                       grid_size: int = 2049) -> ZonalProfile:
    """Homogenize the boundary data and expand in the band eigenbasis."""
    _warn_equal_boundary_values(config)
    prob, (a_s, b_s) = homogenize_boundary(config)
    spectrum = band_spectrum(config.theta1, config.theta2, n_terms, grid_size)
    shifted = solve_inhomogeneous(prob, mu=config.lam, spectrum=spectrum,
                                  n_terms=n_terms)
    th = spectrum.grid.copy()  # the profile must not alias the cached grid
    psi = shifted + a_s * th + b_s
    psi[0], psi[-1] = config.psi1, config.psi2
    return _finish(th, psi, config, "sl_expansion",
                   diagnostics={"n_terms": n_terms})


# ==================================================================
# Velocity extraction and export
# ==================================================================

def velocity_profile(profile: ZonalProfile) -> ZonalProfile:
    """u = -dPsi/dtheta by fourth-order differences on the uniform grid."""
    th = profile.thetas
    psi = profile.psi
    n = len(th)
    if n < 5:
        raise TooFewSamples("fourth-order stencils need at least 5 samples")
    h = th[1] - th[0]
    if np.max(np.abs(np.diff(th) - h)) > 1e-10 * abs(h):
        raise ValidationError("velocity_profile expects a uniform theta grid")

    u = -fourth_order_derivative(psi, h)
    return replace(profile, u=u, u_dimensional=u * profile.config.u_scale)


def write_profile_csv(profile: ZonalProfile, path):
    """CSV export: theta_deg,psi,u_nondim,u_m_per_s."""
    with open(path, "w", newline="") as fh:
        fh.write("theta_deg,psi,u_nondim,u_m_per_s\n")
        for th, psi, u, ud in zip(profile.thetas, profile.psi,
                                  profile.u, profile.u_dimensional):
            fh.write(f"{math.degrees(th)!r},{float(psi)!r},{float(u)!r},"
                     f"{float(ud)!r}\n")

"""Regular Sturm-Liouville problems on an interval.

Solves

    (p(x) y')' + q(x) y = -mu w(x) y + h(x),   x in (a, b),

with Dirichlet boundary conditions, for continuous positive p (C^1) and w.
Two independent routes to the spectrum are provided:

  * a matrix route: second-order conservative differences of the
    self-adjoint form give a symmetric tridiagonal generalized problem,
    solved by LAPACK bisection/inverse iteration;
  * a shooting route: the Pruefer angle ODE

        theta' = cos^2(theta)/p + (q + mu*w) sin^2(theta),  theta(a) = 0,

    whose boundary value theta(b; mu) is strictly increasing in mu and
    passes through k*pi exactly at the k-th eigenvalue. The angle also
    counts eigenvalues below mu, which makes index verification cheap.

Every eigen_solve result is index-checked against the angle count so no
eigenvalue can be silently skipped. eigen_solve itself keeps nothing
between calls: each call solves and checks afresh, and the one cache of
band spectra lives in zonal.band_spectrum.

The zonal specialization (p = w = cos(theta), q = 0) is produced by
homogenize_boundary, which shifts the band's Dirichlet data to zero.
"""

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConvergenceFailure,
    ResonantEigenvalue,
    ValidationError,
    ZeroFunction,
)

RESONANCE_RTOL = 1e-8  # below this relative separation the expansion is meaningless
MAX_REFINEMENTS = 2  # grid doublings eigen_solve tries before giving up
# prufer_eigenvalues: RK4 steps per angle, first bracket half-width
# (relative to |mu|), and bracket samples per eigenvalue
SHOOT_STEPS = 8192
SHOOT_BRACKET_REL = 2e-2
SHOOT_GRID = 17


@dataclass
class SLProblem:
    """One regular Sturm-Liouville problem.

    Boundary conditions are Dirichlet, y(a) = y(b) = 0: the only kind the
    band model poses.

    ln_pw_prime, when given, is the analytic d/dx log(p(x) w(x)); it
    enables the stiffness-free scaled Pruefer angle, which keeps the
    shooting route cheap for eigenvalues of any size.
    """

    a: float
    b: float
    p: Callable
    q: Callable
    w: Callable
    h: Optional[Callable] = None
    ln_pw_prime: Optional[Callable] = None

    def __post_init__(self):
        if not self.a < self.b:
            raise ValidationError(f"need a < b, got ({self.a}, {self.b})")
        x = np.linspace(self.a, self.b, 257)
        if np.any(self._eval(self.p, x) <= 0) or np.any(self._eval(self.w, x) <= 0):
            raise ValidationError("p and w must be positive on [a, b]")

    @staticmethod
    def _eval(fn, x):
        return np.broadcast_to(np.asarray(fn(x), dtype=float), np.shape(x)).copy()

    def sample(self, x):
        p = self._eval(self.p, x)
        q = self._eval(self.q, x)
        w = self._eval(self.w, x)
        return p, q, w


@dataclass
class SLSpectrum:
    """Leading eigenpairs, weight-orthonormal, on a uniform grid."""

    eigenvalues: np.ndarray      # ascending, shape (n_max,)
    eigenfunctions: np.ndarray   # shape (n_max, grid_size), zero endpoints
    grid: np.ndarray             # shape (grid_size,)
    problem: SLProblem

    def __len__(self):
        return len(self.eigenvalues)


# ==================================================================
# Matrix route
# ==================================================================

def _tridiagonal_eigen(prob, n_max, grid_size):
    """Symmetric tridiagonal generalized eigenproblem on a uniform grid."""
    # imported here, so that runs solving no spectrum (evolve, stability)
    # never load scipy
    from scipy.linalg import eigh_tridiagonal

    x = np.linspace(prob.a, prob.b, grid_size)
    hgrid = x[1] - x[0]
    p_half = prob._eval(prob.p, 0.5 * (x[:-1] + x[1:]))
    _, q, w = prob.sample(x)

    qi = q[1:-1]
    wi = w[1:-1]
    diag = (p_half[:-1] + p_half[1:]) / hgrid**2 - qi
    off = -p_half[1:-1] / hgrid**2
    # similarity transform by W^{-1/2} keeps the matrix symmetric tridiagonal
    d_s = diag / wi
    e_s = off / np.sqrt(wi[:-1] * wi[1:])
    vals, vecs = eigh_tridiagonal(d_s, e_s, select="i", select_range=(0, n_max - 1))

    funcs = np.zeros((n_max, grid_size))
    for k in range(n_max):
        y = vecs[:, k] / np.sqrt(wi)
        norm = math.sqrt(hgrid * float(np.sum(wi * y * y)))
        y = y / norm
        if y[0] < 0:  # sign convention: y'(a) > 0
            y = -y
        funcs[k, 1:-1] = y
    return vals, funcs, x


def eigen_solve(prob: SLProblem, n_max: int, grid_size: int = 1025) -> SLSpectrum:
    """First n_max eigenpairs of the homogeneous problem.

    The matrix spectrum is validated against the Pruefer angle: at the
    k-th eigenvalue the angle at b must sit in ((k-1/2)pi, (k+1/2)pi).
    On an index mismatch the grid is doubled and the solve repeated, up to
    MAX_REFINEMENTS times; persistent disagreement raises ConvergenceFailure.
    """
    if prob.h is not None:
        raise ValidationError("eigen_solve expects the homogeneous problem (h absent)")
    if grid_size < 64:
        raise ValidationError("grid_size must be at least 64")
    if n_max < 1 or n_max > grid_size - 2:
        raise ValidationError("need 1 <= n_max <= grid_size - 2")

    size = grid_size
    for attempt in range(MAX_REFINEMENTS + 1):
        vals, funcs, x = _tridiagonal_eigen(prob, n_max, size)
        angles = prufer_angle(prob, vals, n_steps=max(2048, 64 * n_max))
        k = np.arange(1, n_max + 1)
        ok = np.all(np.abs(angles - k * np.pi) < 0.5 * np.pi)
        if ok:
            return SLSpectrum(vals, funcs, x, prob)
        size = 2 * (size - 1) + 1
    raise ConvergenceFailure(
        "matrix eigenvalues fail the Pruefer index check after refinement"
    )


# ==================================================================
# Shooting route (Pruefer angle)
# ==================================================================

def prufer_angle(prob: SLProblem, mus, n_steps: int) -> np.ndarray:
    """Pruefer angle theta(b; mu), vectorized over an array of mu.

    theta(a) = 0 encodes y(a) = 0, and theta(b; mu) is strictly
    increasing in mu with theta(b) = k pi exactly at the k-th eigenvalue.

    Two exact formulations of the same angle:

      plain   theta' = cos^2/p + (q + mu w) sin^2
      scaled  theta' = sqrt(mu w / p) + (q / S) sin^2
                       + (1/4)(log p w)' sin(2 theta),   S = sqrt(mu p w)

    The scaled form (used when ln_pw_prime is available and all mu > 0)
    has mu-independent stiffness, so fixed-step RK4 stays accurate for
    large eigenvalues. The plain fallback inflates the step count with
    max|q + mu w| to stay resolved.
    """
    mus = np.atleast_1d(np.asarray(mus, dtype=float))
    scaled = prob.ln_pw_prime is not None and np.all(mus > 0)

    if not scaled:
        xs_probe = np.linspace(prob.a, prob.b, 257)
        _, qp, wp = prob.sample(xs_probe)
        qmax = float(np.max(np.abs(qp[None, :] + mus[:, None] * wp[None, :])))
        n_steps = max(n_steps, int(3.0 * (prob.b - prob.a) * qmax) + 1)

    hstep = (prob.b - prob.a) / n_steps
    # coefficient samples at step points and midpoints, reused for all mu
    xs = prob.a + 0.5 * hstep * np.arange(2 * n_steps + 1)
    p, q, w = prob.sample(xs)

    if scaled:
        rate = np.sqrt(mus[None, :] * w[:, None] / p[:, None])   # (pts, n_mu)
        small = q[:, None] / np.sqrt(mus[None, :] * p[:, None] * w[:, None])
        g = 0.25 * prob._eval(prob.ln_pw_prime, xs)

        def f(th, j):
            s = np.sin(th)
            return rate[j] + small[j] * s * s + g[j] * np.sin(2.0 * th)
    else:
        inv_p = 1.0 / p

        def f(th, j):
            s = np.sin(th)
            c = np.cos(th)
            return inv_p[j] * c * c + (q[j] + mus * w[j]) * s * s

    theta = np.zeros_like(mus)
    for i in range(n_steps):
        i0, i1, i2 = 2 * i, 2 * i + 1, 2 * i + 2
        k1 = f(theta, i0)
        k2 = f(theta + 0.5 * hstep * k1, i1)
        k3 = f(theta + 0.5 * hstep * k2, i1)
        k4 = f(theta + hstep * k3, i2)
        theta = theta + (hstep / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return theta


def prufer_eigenvalues(prob: SLProblem, n_max: int, guesses=None) -> np.ndarray:
    """Shooting eigenvalues: solve theta(b; mu) = k pi for k = 1..n_max.

    theta(b; mu) is integrated once for a bracket of mu values around each
    guess (one vectorized pass over all eigenvalues), and the strictly
    increasing angle is inverted by cubic interpolation at k pi. A second
    pass with a bracket a thousand times tighter polishes the roots.
    Independent of the LAPACK route used by eigen_solve.
    """
    if guesses is None:
        guesses = _tridiagonal_eigen(prob, n_max, 513)[0]
    mus = np.asarray(guesses, dtype=float).copy()
    targets = np.pi * np.arange(1, n_max + 1)

    from scipy.interpolate import CubicSpline

    rel = SHOOT_BRACKET_REL
    for sweep in range(2):
        for attempt in range(8):
            scale = np.maximum(np.abs(mus), 1.0)
            grid = mus[:, None] + np.linspace(-1.0, 1.0, SHOOT_GRID)[None, :] * (
                rel * scale[:, None]
            )
            angles = prufer_angle(prob, grid.ravel(), SHOOT_STEPS).reshape(grid.shape)
            covered = (angles[:, 0] < targets) & (targets < angles[:, -1])
            if np.all(covered):
                break
            rel *= 4.0
        else:
            raise ConvergenceFailure("could not bracket the requested eigenvalues")
        mus = np.array(
            [
                float(CubicSpline(angles[k], grid[k])(targets[k]))
                for k in range(n_max)
            ]
        )
        rel = max(rel * 1e-3, 1e-9)
    return mus


# ==================================================================
# Functionals and expansions
# ==================================================================

def fourth_order_derivative(y, h):
    """dy/dx by fourth-order differences on a uniform grid (len(y) >= 5).

    Centered five-point stencil inside, one-sided five-point stencils on
    the two nodes nearest each end.
    """
    dy = np.empty(len(y))
    dy[2:-2] = (y[:-4] - 8 * y[1:-3] + 8 * y[3:-1] - y[4:]) / (12 * h)
    dy[0] = (-25 * y[0] + 48 * y[1] - 36 * y[2] + 16 * y[3] - 3 * y[4]) / (12 * h)
    dy[1] = (-3 * y[0] - 10 * y[1] + 18 * y[2] - 6 * y[3] + y[4]) / (12 * h)
    dy[-2] = (3 * y[-1] + 10 * y[-2] - 18 * y[-3] + 6 * y[-4] - y[-5]) / (12 * h)
    dy[-1] = (25 * y[-1] - 48 * y[-2] + 36 * y[-3] - 16 * y[-4] + 3 * y[-5]) / (12 * h)
    return dy


def rayleigh_quotient(prob: SLProblem, y, x) -> float:
    """Variational quotient recovering an eigenvalue from its function.

    ( p y y' |_a  -  p y y' |_b  +  int_a^b [p (y')^2 - q y^2] )
    divided by <y, y>_w. Scaling y leaves the value unchanged; for
    Dirichlet data the boundary terms vanish.
    """
    y = np.asarray(y, dtype=float)
    p, q, w = prob.sample(x)
    norm = np.trapezoid(w * y * y, x)
    if norm < 1e-14:
        raise ZeroFunction("<y, y>_w is numerically zero")
    h = x[1] - x[0]
    if len(y) < 7 or np.max(np.abs(np.diff(x) - h)) > 1e-10 * abs(h):
        dy = np.gradient(y, x, edge_order=2)
    else:
        dy = fourth_order_derivative(y, h)
    boundary = p[0] * y[0] * dy[0] - p[-1] * y[-1] * dy[-1]
    return float((boundary + np.trapezoid(p * dy * dy - q * y * y, x)) / norm)


def solve_inhomogeneous(prob: SLProblem, mu: float, spectrum: SLSpectrum,
                        n_terms: int) -> np.ndarray:
    """Eigenfunction-expansion solution of the inhomogeneous problem.

    y = sum_n b_n y_n with b_n = <h/w, y_n> / (mu - mu_n); unique iff mu
    avoids the spectrum. Near-resonant mu (relative separation below
    1e-8) raises ResonantEigenvalue: case (b) non-unique solutions are
    detected, not constructed.
    """
    if n_terms < 0 or n_terms > len(spectrum):
        raise ValidationError("need 0 <= n_terms <= len(spectrum)")
    x = spectrum.grid
    if prob.h is None:
        return np.zeros_like(x)
    mus = spectrum.eigenvalues[:n_terms]
    sep = np.abs(mu - mus) / np.maximum(np.maximum(np.abs(mus), np.abs(mu)), 1.0)
    if n_terms and np.min(sep) < RESONANCE_RTOL:
        k = int(np.argmin(sep))
        raise ResonantEigenvalue(
            f"mu = {mu} is within rel {sep[k]:.2e} of eigenvalue {mus[k]}"
        )
    hx = prob._eval(prob.h, x)
    y = np.zeros_like(x)
    for n in range(n_terms):
        yn = spectrum.eigenfunctions[n]
        cn = np.trapezoid(hx * yn, x)  # <h/w, y_n>_w: the weights cancel
        y += cn / (mu - mus[n]) * yn
    return y


# ==================================================================
# Zonal specialization
# ==================================================================

def homogenize_boundary(config):
    """Shift the zonal band problem to homogeneous Dirichlet data.

    Subtracting the affine interpolant a*theta + b of (psi1, psi2) from
    the stream function leaves

      (y' cos)' + lam y cos = -(lam) y cos ...  i.e. the SL problem with
      p = w = cos(theta), q = 0, mu = lam, and forcing

      h(theta) = a sin(theta) + [upsilon - lam (a theta + b)] cos(theta)
                 - omega sin(2 theta).

    Returns the SLProblem and the shift coefficients (a, b).
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

    return replace(zonal_homogeneous_problem(config), h=forcing), (a_shift, b_shift)


def zonal_homogeneous_problem(config) -> SLProblem:
    """The band's homogeneous eigenproblem: (y' cos)' = -lam y cos."""
    return SLProblem(
        a=config.theta1, b=config.theta2,
        p=np.cos, q=lambda t: 0.0 * np.asarray(t), w=np.cos,
        ln_pw_prime=lambda t: -2.0 * np.tan(t),
    )


def count_sign_changes(y) -> int:
    """Interior sign changes of a sampled function (zero samples skipped)."""
    vals = np.asarray(y)
    vals = vals[vals != 0.0]
    return int(np.sum(np.sign(vals[:-1]) != np.sign(vals[1:])))

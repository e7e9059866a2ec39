"""Time-dependent barotropic flow on the projected annulus.

Prognostic variable: the materially transported field

    zeta = alpha * xi + beta,        xi = curl U   (planar),

which obeys  zeta_t + (alpha U) . grad zeta = 0.  Velocity is rebuilt from
zeta each step as U = perp-grad(G xi) + lambda_circ * U_star, where G is
the Dirichlet Green operator of the annulus and U_star the normalized
harmonic field of the doubly connected domain; lambda_circ is closed
algebraically so the circulation around the inner boundary keeps its
initial value (its spherical counterpart is a conserved quantity).

Sign convention (fixed by the zonal oracle test): transporting a stream
function along the projection gives U = perp-grad(psi_plane) and
xi = -Delta_plane psi, hence

    zeta = -(Delta_sphere psi + 2 omega sin(theta)),

i.e. zeta is minus the spherical absolute vorticity. Diagnostics that
need the absolute vorticity therefore evaluate s = -zeta.

Discretization, in (rho, phi) = (log r, azimuth):

  * spectral d/dphi (FFT), second-order d/drho (one-sided at walls);
  * Poisson: FFT in phi + one tridiagonal solve per mode in rho; the
    radial factorisation depends only on the grid and is cached on it
    (AnnulusGrid.poisson_factor);
  * transport: semi-Lagrangian, two-stage midpoint trajectories with the
    time-midpoint velocity taken from a predictor step, cubic Lagrange
    interpolation clipped to the local 4x4 stencil range (preserves the
    initial min/max of zeta, hence the |xi| <= A ||zeta0||_inf + B bound);
    each foot point's cell is located once per interpolation, and its
    stencil is gathered with flat takes from a padded copy of the field
    (edge rows at the walls, periodic columns);
  * characteristics in these coordinates: d(rho)/ds = cosh^2(rho) psi_phi,
    d(phi)/ds = -cosh^2(rho) psi_rho, since alpha e^{-2 rho} = cosh^2(rho).

A zonal field has exactly zero spectral phi-derivative, so departure
points stay on their own grid ring and every zonal steady state is
preserved to round-off, not merely to O(h^2).

Concurrency: everything here is deterministic, serial numpy. A SimState
is advanced by one driver at a time; finished states are immutable
snapshots safe to hand to diagnostic consumers on other threads.
"""

import contextlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    CflViolation,
    DegenerateNormalization,
    GridMismatch,
    ValidationError,
)
from .geometry import alpha_of_rho, beta_of_rho, integral_flat
from .grids import AnnulusGrid, ScalarField, VectorField
from .zonal import _thomas_solve, solve_fd_rho

CFL_LIMIT = 0.8


# ==================================================================
# Grid operators
# ==================================================================

def dphi(values, grid):
    """Spectral d/dphi along the periodic direction."""
    spec = np.fft.rfft(values, axis=1)
    m = np.arange(spec.shape[1])
    if grid.n_phi % 2 == 0:
        m[-1] = 0  # Nyquist mode has no representable first derivative
    return np.fft.irfft(spec * (1j * m)[None, :], n=grid.n_phi, axis=1)


def d2phi(values, grid):
    spec = np.fft.rfft(values, axis=1)
    m = np.arange(spec.shape[1])
    return np.fft.irfft(spec * -(m * m)[None, :], n=grid.n_phi, axis=1)


def drho(values, grid):
    """Second-order d/drho, one-sided at the walls."""
    h = grid.d_rho
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - values[:-2]) / (2 * h)
    out[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * h)
    out[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * h)
    return out


def d2rho(values, grid):
    """Second-order d^2/drho^2, one-sided at the walls."""
    h = grid.d_rho
    out = np.empty_like(values)
    out[1:-1] = (values[2:] - 2 * values[1:-1] + values[:-2]) / h**2
    out[0] = (2 * values[0] - 5 * values[1] + 4 * values[2] - values[3]) / h**2
    out[-1] = (2 * values[-1] - 5 * values[-2] + 4 * values[-3] - values[-4]) / h**2
    return out


def laplacian_values(values, grid):
    """Planar Laplacian e^{-2 rho} (d2/drho2 + d2/dphi2)."""
    return np.exp(-2.0 * grid.rho)[:, None] * (d2rho(values, grid) + d2phi(values, grid))


def grad_square_flat(psi_values, grid):
    """|grad psi|^2 dA collapsed to the flat measure: psi_rho^2 + psi_phi^2."""
    return drho(psi_values, grid) ** 2 + dphi(psi_values, grid) ** 2


# ==================================================================
# Poisson solver (Dirichlet Green operator)
# ==================================================================

def _poisson_values(source, grid):
    """Solve Delta psi = -source with psi = 0 on both walls.

    FFT in phi, then one tridiagonal solve in rho for all modes at once,
    through the grid's cached factor.
    """
    rhs_hat = np.fft.rfft(-np.exp(2.0 * grid.rho)[:, None] * source, axis=1)
    psi_hat = _thomas_solve(grid.poisson_factor, rhs_hat, 0.0, 0.0)
    return np.fft.irfft(psi_hat, n=grid.n_phi, axis=1)


def poisson_solve(phi_field: ScalarField, grid: AnnulusGrid = None) -> ScalarField:
    """Green operator: psi with Delta psi = -phi, psi|walls = 0."""
    grid = grid or phi_field.grid
    if not grid.compatible_with(phi_field.grid):
        raise GridMismatch("source field lives on a different grid")
    return ScalarField(grid, _poisson_values(phi_field.values, grid))


# ==================================================================
# Harmonic component of the doubly connected annulus
# ==================================================================

def harmonic_profile(grid):
    """psi_star(rho) = log(r/r2)/log(r1/r2): 1 on the inner wall, 0 outer."""
    return (grid.rho - grid.rho2) / (grid.rho1 - grid.rho2)


def harmonic_normalization(grid) -> float:
    """N = (perp-grad psi_star, perp-grad psi_star) = 2 pi / (rho2 - rho1)."""
    n = 2.0 * math.pi / (grid.rho2 - grid.rho1)
    if n <= 1e-14:
        raise DegenerateNormalization("harmonic field has vanishing norm")
    return n


def harmonic_component(grid):
    """Normalized harmonic field U_star = perp-grad(psi_star)/N.

    Purely azimuthal; its circulation around either wall is exactly 1/N
    times that of perp-grad(psi_star), i.e. the circulation carried by
    lambda_circ * U_star is exactly lambda_circ.
    """
    n = harmonic_normalization(grid)
    u_phi = np.broadcast_to(
        (np.exp(-grid.rho) / ((grid.rho2 - grid.rho1) * n))[:, None],
        (grid.n_rho, grid.n_phi),
    ).copy()
    return VectorField(grid, np.zeros((grid.n_rho, grid.n_phi)), u_phi), n


# ==================================================================
# State and velocity reconstruction
# ==================================================================

@dataclass
class SimState:
    """One snapshot of the transported field and its circulation closure."""

    t: float
    zeta: ScalarField
    lambda_circ: float
    config: object
    grid: AnnulusGrid
    clamp_events: int = 0

    def xi_values(self):
        a = alpha_of_rho(self.grid.rho)[:, None]
        b = beta_of_rho(self.grid.rho, self.config.omega)[:, None]
        return (self.zeta.values - b) / a

    def max_xi(self) -> float:
        return float(np.max(np.abs(self.xi_values())))


def xi_bound(config, zeta0_values) -> float:
    """Transport bound A ||zeta0||_inf + B on |xi|."""
    r1sq = config.r1**2
    a = 4.0 / (1.0 + r1sq) ** 2
    b = 8.0 * config.omega * (1.0 - r1sq) / (1.0 + r1sq) ** 3
    return a * float(np.max(np.abs(zeta0_values))) + b


def bar_stream_values(zeta_values, config, grid):
    """G xi: the zero-boundary part of the stream function."""
    a = alpha_of_rho(grid.rho)[:, None]
    b = beta_of_rho(grid.rho, config.omega)[:, None]
    return _poisson_values((zeta_values - b) / a, grid)


def bar_stream_of(state: SimState):
    """G xi for a state, cached (zeta never changes after construction)."""
    cached = getattr(state, "_bar_stream_cache", None)
    if cached is None:
        cached = bar_stream_values(state.zeta.values, state.config, state.grid)
        state._bar_stream_cache = cached
    return cached


def stream_of(state: SimState):
    """Full stream function: G xi + psi2 + (lambda_circ/N) psi_star."""
    grid = state.grid
    n = harmonic_normalization(grid)
    return (bar_stream_of(state) + state.config.psi2
            + (state.lambda_circ / n) * harmonic_profile(grid)[:, None])


def velocity_from_stream(psi_values, grid):
    """(u_r, u_phi) = (e^-rho psi_phi, -e^-rho psi_rho)."""
    inv_r = np.exp(-grid.rho)[:, None]
    return inv_r * dphi(psi_values, grid), -inv_r * drho(psi_values, grid)


def reconstruct_velocity(state: SimState) -> VectorField:
    u_r, u_phi = velocity_from_stream(stream_of(state), state.grid)
    return VectorField(state.grid, u_r, u_phi)


def boundary_circulations(psi_values, grid):
    """Counterclockwise circulations of perp-grad(psi) around both walls.

    circulation = - integral of psi_rho d(phi) along the wall ring.
    """
    dpsi = drho(psi_values, grid)
    circ1 = -grid.d_phi * np.sum(dpsi[0])
    circ2 = -grid.d_phi * np.sum(dpsi[-1])
    return circ1, circ2


def circulation_targets(state: SimState):
    """Initial-data circulations that the closure holds fixed."""
    return boundary_circulations(stream_of(state), state.grid)


def fix_circulation(state: SimState, targets):
    """lambda_circ pinning the inner-wall circulation to its target.

    The harmonic component carries circulation exactly lambda_circ, so
    lambda_circ = target1 - circ1(G xi). Returns the new coefficient and
    the outer-wall circulation residual (a discretization diagnostic:
    it is conserved only to O(h^2 + dt^2)).
    """
    circ1_bar, circ2_bar = boundary_circulations(bar_stream_of(state), state.grid)
    lam = targets[0] - circ1_bar
    circ2_residual = (circ2_bar + lam) - targets[1]
    return lam, circ2_residual


# ==================================================================
# Semi-Lagrangian transport
# ==================================================================

def advecting_velocity(psi_values, grid):
    """(w_rho, w_phi): the characteristic field in (rho, phi) coordinates."""
    chi = np.cosh(grid.rho)[:, None] ** 2  # alpha e^{-2 rho}
    return chi * dphi(psi_values, grid), -chi * drho(psi_values, grid)


def cfl_number(w_rho, w_phi, dt, grid) -> float:
    return abs(dt) * max(
        float(np.max(np.abs(w_rho))) / grid.d_rho,
        float(np.max(np.abs(w_phi))) / grid.d_phi,
    )


def _cubic_weights(t):
    """Lagrange cubic weights on the 4-point stencil {-1, 0, 1, 2}."""
    return (
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
        -t * (t + 1.0) * (t - 2.0) / 2.0,
        t * (t + 1.0) * (t - 1.0) / 6.0,
    )


def _foot_cells(x, phi_f, grid):
    """Cell (i0, j0) and in-cell offsets (tx, ty) of each foot point.

    x is the radial position in cell units; i0 is clamped to the last
    full cell and phi wraps periodically into [0, 2 pi).
    """
    i0 = np.clip(np.floor(x).astype(int), 0, grid.n_rho - 2)
    # np.mod returns phi itself on (0, 2 pi), so only the rest needs it
    wrapped = phi_f.copy()
    outside = ~((phi_f > 0.0) & (phi_f < 2.0 * np.pi))
    wrapped[outside] = np.mod(phi_f[outside], 2.0 * np.pi)
    y = wrapped / grid.d_phi
    floor_y = np.floor(y)
    return i0, x - i0, floor_y.astype(int) % grid.n_phi, y - floor_y


def _interp_bicubic_clipped(values, rho_f, phi_f, grid):
    """Clipped cubic Lagrange interpolation at foot points.

    Periodic in phi; the radial stencil is clamped at the walls. The
    result is clipped to the min/max of its own 4x4 stencil, which keeps
    the global range of the field inside the initial range exactly.
    """
    x = (rho_f - grid.rho1) / grid.d_rho
    i0, tx, j0, ty = _foot_cells(x, phi_f, grid)
    # One edge row at each wall repeats it (the radial clamp); periodic
    # columns, 1 left and 2 right, hold stencil columns j0 - 1 .. j0 + 2.
    # Stencil entry (a, b) then sits at flat offset a * width + b from base.
    padded = np.pad(np.pad(values, ((1, 1), (0, 0)), mode="edge"),
                    ((0, 0), (1, 2)), mode="wrap")
    width = grid.n_phi + 3
    flat = padded.ravel()
    base = i0 * width + j0
    wx = _cubic_weights(tx)
    wy = _cubic_weights(ty)

    result = np.zeros_like(rho_f)
    lo = None
    hi = None
    for a in range(4):
        row_acc = np.zeros_like(rho_f)
        for b in range(4):
            block = flat[a * width + b:].take(base)
            row_acc += wy[b] * block
            lo = block if lo is None else np.minimum(lo, block)
            hi = np.maximum(hi, block) if hi is not None else block
        result += wx[a] * row_acc
    return np.clip(result, lo, hi)


def _interp_bilinear_pair(u, v, rho_f, phi_f, grid):
    """Bilinear interpolation of two fields at the same foot points."""
    x = np.clip((rho_f - grid.rho1) / grid.d_rho, 0.0, grid.n_rho - 1.0)
    i0, tx, j0, ty = _foot_cells(x, phi_f, grid)
    width = grid.n_phi + 1  # one periodic pad column wraps j0 + 1
    base = i0 * width + j0
    sx = 1 - tx
    sy = 1 - ty
    out = []
    for values in (u, v):
        flat = np.pad(values, ((0, 0), (0, 1)), mode="wrap").ravel()
        v00 = flat.take(base)
        v01 = flat[1:].take(base)
        v10 = flat[width:].take(base)
        v11 = flat[width + 1:].take(base)
        out.append(sx * (sy * v00 + ty * v01) + tx * (sy * v10 + ty * v11))
    return out


def advect_values(zeta_values, w_rho, w_phi, dt, grid):
    """One semi-Lagrangian transport step; returns (new values, clamps).

    Trajectories are traced backwards with the explicit midpoint rule:
    a half-step with the node velocity locates the midpoint, where the
    velocity is re-sampled (bilinear) for the full step. Radial foot
    points beyond the walls are clamped (tangential flow cannot exit;
    the count is a quality metric).
    """
    cfl = cfl_number(w_rho, w_phi, dt, grid)
    if cfl > CFL_LIMIT:
        raise CflViolation(cfl, dt, CFL_LIMIT * abs(dt) / cfl)

    rho_n = grid.rho[:, None]
    phi_n = grid.phi[None, :]
    rho_h = rho_n - 0.5 * dt * w_rho
    phi_h = phi_n - 0.5 * dt * w_phi
    clamps = int(np.sum((rho_h < grid.rho1 - 1e-14) | (rho_h > grid.rho2 + 1e-14)))
    rho_h = np.clip(rho_h, grid.rho1, grid.rho2)

    w_rho_h, w_phi_h = _interp_bilinear_pair(w_rho, w_phi, rho_h, phi_h, grid)
    rho_f = rho_n - dt * w_rho_h
    phi_f = phi_n - dt * w_phi_h
    clamps += int(np.sum((rho_f < grid.rho1 - 1e-14) | (rho_f > grid.rho2 + 1e-14)))
    rho_f = np.clip(rho_f, grid.rho1, grid.rho2)

    return _interp_bicubic_clipped(zeta_values, rho_f, phi_f, grid), clamps


def advect(state: SimState, velocity: VectorField, dt: float) -> ScalarField:
    """Transport the state's zeta by dt along alpha * velocity."""
    grid = state.grid
    factor = (alpha_of_rho(grid.rho) * np.exp(-grid.rho))[:, None]
    w_rho = factor * velocity.u_r
    w_phi = factor * velocity.u_phi
    new_values, _ = advect_values(state.zeta.values, w_rho, w_phi, dt, grid)
    return ScalarField(grid, new_values)


# ==================================================================
# Time stepping
# ==================================================================

def step(state: SimState, dt: float, targets=None) -> SimState:
    """Advance one step: predictor velocity, midpoint velocity, transport.

    Deterministic: identical inputs give bit-identical outputs.
    """
    if targets is None:
        targets = circulation_targets(state)
    grid = state.grid
    config = state.config

    w_rho_a, w_phi_a = advecting_velocity(stream_of(state), grid)

    zeta_pred, _ = advect_values(state.zeta.values, w_rho_a, w_phi_a, dt, grid)
    pred = SimState(state.t + dt, ScalarField(grid, zeta_pred), state.lambda_circ,
                    config, grid)
    pred.lambda_circ, _ = fix_circulation(pred, targets)
    w_rho_b, w_phi_b = advecting_velocity(stream_of(pred), grid)

    w_rho = 0.5 * (w_rho_a + w_rho_b)
    w_phi = 0.5 * (w_phi_a + w_phi_b)
    zeta_new, clamps = advect_values(state.zeta.values, w_rho, w_phi, dt, grid)
    new = SimState(state.t + dt, ScalarField(grid, zeta_new), state.lambda_circ,
                   config, grid, state.clamp_events + clamps)
    new.lambda_circ, _ = fix_circulation(new, targets)
    return new


def run(config, grid, zeta0: ScalarField, lambda_circ0: float, t_end: float,
        dt: float, *, output_stride: int = 1, csv_path=None, checkpoint_dir=None,
        reference: SimState = None, observers=()):
    """Drive step() to t_end, collecting diagnostics at the output stride.

    Returns (states, records). Partial CSV output is flushed if a step
    fails mid-run.
    """
    from . import diagnostics as diag  # late import: diagnostics reads this module

    if t_end < 0:
        raise ValidationError("t_end must be nonnegative")
    if t_end > 0 and dt <= 0:
        raise ValidationError("dt must be positive")

    state = SimState(0.0, zeta0, lambda_circ0, config, grid)
    targets = circulation_targets(state)
    states = [state]
    records = []
    csv = open(csv_path, "w", newline="") if csv_path else None
    try:
        if csv:
            csv.write(diag.CSV_HEADER + "\n")

        def emit(s, index):
            rec = diag.record(s, reference=reference)
            records.append(rec)
            if csv:
                csv.write(rec.csv_row() + "\n")
                csv.flush()
            if checkpoint_dir is not None:
                write_checkpoint(
                    f"{checkpoint_dir}/checkpoint_{index:06d}.txt", s
                )
            for obs in observers:
                obs(s, rec)

        emit(state, 0)
        n_steps = 0 if t_end == 0 else max(1, int(math.ceil(t_end / dt - 1e-12)))
        outputs = 1
        for k in range(1, n_steps + 1):
            dt_k = min(dt, t_end - (k - 1) * dt)
            state = step(state, dt_k, targets)
            if k % output_stride == 0 or k == n_steps:
                emit(state, outputs)
                outputs += 1
                if k % output_stride == 0 and k != n_steps:
                    states.append(state)
        if n_steps > 0:
            states.append(state)
    finally:
        if csv:
            csv.close()
    return states, records


# ==================================================================
# Initial states
# ==================================================================

def zonal_initial_state(config, grid):
    """Discretely steady zonal state on the simulation grid.

    The zonal BVP is solved with the grid's own radial stencil and the
    steady relation zeta = lam psi - upsilon (the planar image of
    Delta psi + 2 omega sin = -lam psi + upsilon under zeta's sign
    convention) supplies the transported field; with
    lambda_circ = (psi1 - psi2) N the reconstructed stream function
    reproduces the profile exactly at the nodes.
    """
    psi_profile = solve_fd_rho(config, grid.rho)
    zeta_vals = np.broadcast_to(
        (config.lam * psi_profile - config.upsilon)[:, None],
        (grid.n_rho, grid.n_phi),
    ).copy()
    lam_circ = (config.psi1 - config.psi2) * harmonic_normalization(grid)
    return SimState(0.0, ScalarField(grid, zeta_vals), lam_circ, config, grid)


def stream_perturbation(grid, amplitude, wavenumber, seed):
    """Divergence-free perturbation: perp-grad of a boundary-flat bump.

    delta psi = amplitude * sin^2(pi (rho-rho1)/L) * cos(k phi + phase),
    with the phase drawn from the seed. Vanishes with its gradient's
    tangential part on both walls and injects no net circulation.
    """
    rng = np.random.default_rng(seed)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    s = (grid.rho - grid.rho1) / (grid.rho2 - grid.rho1)
    bump = np.sin(math.pi * s) ** 2
    return amplitude * bump[:, None] * np.cos(wavenumber * grid.phi + phase)[None, :]


def perturbed_zonal_state(config, grid, amplitude, wavenumber, seed):
    """Zonal state plus a relative-amplitude stream perturbation.

    amplitude is ||delta U|| / ||U_zonal|| in the planar L2 norm; the
    perturbation enters zeta through the grid's own Laplacian so the
    initial velocity is exactly perp-grad(psi_zonal + delta psi).
    """
    base = zonal_initial_state(config, grid)
    if amplitude == 0.0:
        return base
    psi_zonal = stream_of(base)
    dpsi_unit = stream_perturbation(grid, 1.0, wavenumber, seed)

    def flat_norm(psi_like):
        return math.sqrt(integral_flat(grad_square_flat(psi_like, grid), grid))

    scale = amplitude * flat_norm(psi_zonal) / flat_norm(dpsi_unit)
    dpsi = scale * dpsi_unit
    a = alpha_of_rho(grid.rho)[:, None]
    zeta_vals = base.zeta.values - a * laplacian_values(dpsi, grid)
    return SimState(0.0, ScalarField(grid, zeta_vals), base.lambda_circ, config, grid)


# ==================================================================
# Checkpoints
# ==================================================================

CHECKPOINT_KEYS = ("n_rho", "n_phi", "theta1", "theta2", "omega", "t", "lambda_circ")


def _checkpoint_row(row):
    """One line of checkpoint payload: the shortest round-trip repr of each float."""
    return " ".join(map(repr, row))


def write_checkpoint(path, state: SimState):
    """Text dump: one JSON header line, then row-major zeta values.

    Written to path + ".tmp" and renamed over path, so a failed or killed
    write never leaves a truncated checkpoint under the final name.
    """
    grid = state.grid
    header = {
        "n_rho": grid.n_rho,
        "n_phi": grid.n_phi,
        "theta1": state.config.theta1,
        "theta2": state.config.theta2,
        "omega": state.config.omega,
        "t": state.t,
        "lambda_circ": state.lambda_circ,
    }
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(json.dumps(header) + "\n")
            for row in state.zeta.values.tolist():
                fh.write(_checkpoint_row(row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_checkpoint(path):
    """Returns (header dict, zeta array)."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        values = np.loadtxt(fh, ndmin=2)
    missing = [k for k in CHECKPOINT_KEYS if k not in header]
    if missing:
        raise ValidationError(f"checkpoint header lacks keys {missing}")
    if values.shape != (header["n_rho"], header["n_phi"]):
        raise ValidationError(
            f"checkpoint payload shape {values.shape} does not match header"
        )
    return header, values


def state_from_checkpoint(path, config) -> SimState:
    """Rebuild a SimState; the run config supplies what the header omits."""
    header, values = read_checkpoint(path)
    for key, have in (("theta1", config.theta1), ("theta2", config.theta2),
                      ("omega", config.omega)):
        if abs(header[key] - have) > 1e-12 * max(1.0, abs(have)):
            raise ValidationError(f"checkpoint {key} disagrees with the config")
    grid = AnnulusGrid.from_band(config, header["n_rho"], header["n_phi"])
    return SimState(header["t"], ScalarField(grid, values), header["lambda_circ"],
                    config, grid)

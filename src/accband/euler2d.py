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
  * Poisson: FFT in phi, then the interior rho rows of every mode at
    once by odd-even cyclic reduction (sturm_liouville._cyclic_solve):
    about log2(n_rho) levels of whole-array operations, no loop over
    rings; the per-level coefficients depend only on the grid and are
    cached on it (AnnulusGrid.poisson_factor);
  * transport: semi-Lagrangian, two-stage midpoint trajectories with the
    time-midpoint velocity taken from a predictor step, cubic Lagrange
    interpolation clipped to the local 4x4 stencil range (preserves the
    initial min/max of zeta, hence the |xi| <= A ||zeta0||_inf + B bound);
    each foot point's cell is located once per interpolation, and its
    stencil is gathered with flat takes from a padded field: zeta padded
    once per advection (edge rows at the walls, periodic columns), the
    velocity pair built as one block whose last column repeats column 0.
    Trajectories and interpolations run over tiles of whole rows, about
    TILE_POINTS foot points each, in one reused scratch of 12 float
    planes, one index plane and two mask planes, each computed value
    written over a plane whose last reader has run. A tile costs about
    200 numpy calls of about 1 us fixed cost each, and under --sweep each
    call hands the GIL to the other worker, so the scratch budget, not
    the cache, sets the tile size. Each point's arithmetic is the same in
    every tile, so the result does not depend on the tiling. A step holds
    the velocity block (2 fields), the padded and the new zeta, and the
    scratch (1.7 MB, 3.3 fields at 256^2): 7.6 fields at 256^2. The
    zonal reference of a run costs two ring columns, not two fields: a
    zonal state's zeta and stream are stride-0 views of one column each;
  * characteristics in these coordinates: d(rho)/ds = cosh^2(rho) psi_phi,
    d(phi)/ds = -cosh^2(rho) psi_rho, since alpha e^{-2 rho} = cosh^2(rho).

A zonal field has exactly zero spectral phi-derivative, so departure
points stay on their own grid ring and every zonal steady state is
preserved to round-off, not merely to O(h^2).

Concurrency: everything here is deterministic, serial numpy. A SimState
is a frozen snapshot: its zeta, lambda_circ and full stream function are
fixed when it is built (the arrays read-only), so it is safe to hand to
diagnostic consumers on other threads.
"""

import contextlib
import json
import math
import operator
import os
from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import CflViolation, ValidationError
from .geometry import alpha_of_rho, beta_of_rho, integral_flat
from .grids import AnnulusGrid
from .sturm_liouville import _cyclic_solve
from .zonal import solve_fd_rho

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
    out[0], out[-1] = _drho_walls(values, grid)
    return out


def _drho_walls(values, grid):
    """drho's one-sided rows at the inner and outer wall, computed from
    the three rows next to each wall only."""
    h = grid.d_rho
    return ((-3 * values[0] + 4 * values[1] - values[2]) / (2 * h),
            (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * h))


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

    FFT in phi, then cyclic reduction in rho for all modes at once,
    through the grid's cached factor. The spectrum is written into the
    padded block the factor solves in, whose wall rows hold psi = 0 and
    are never written by the solve.
    """
    factor = grid.poisson_factor
    n = grid.n_rho
    psi_hat = np.empty((factor[0], grid.n_phi // 2 + 1), dtype=complex)
    np.fft.rfft(-np.exp(2.0 * grid.rho)[:, None] * source, axis=1, out=psi_hat[:n])
    psi_hat[0] = psi_hat[n - 1:] = 0.0
    _cyclic_solve(factor, psi_hat.view(float))
    return np.fft.irfft(psi_hat[:n], n=grid.n_phi, axis=1)


# ==================================================================
# Harmonic component of the doubly connected annulus
# ==================================================================

def harmonic_profile(grid):
    """psi_star(rho) = log(r/r2)/log(r1/r2): 1 on the inner wall, 0 outer."""
    return (grid.rho - grid.rho2) / (grid.rho1 - grid.rho2)


def harmonic_normalization(grid) -> float:
    """N = (perp-grad psi_star, perp-grad psi_star) = 2 pi / (rho2 - rho1)."""
    return 2.0 * math.pi / (grid.rho2 - grid.rho1)


# ==================================================================
# State and velocity reconstruction
# ==================================================================

@dataclass(frozen=True)
class SimState:
    """One snapshot of the transported field and its circulation closure.

    zeta is the (n_rho, n_phi) array of the transported field. Its
    builder passes bar_stream, its G xi, bar_stream_values(zeta, config,
    grid), solved once; the state keeps only the full stream function
    formed from it, stream = G xi + psi2 + (lambda_circ/N) psi_star, and
    dataclasses.replace must be handed G xi again. The stream is
    broadcast to zeta's shape: a no-op view for a full state, while a
    zonal state passes one column of G xi, and its zeta and stream are
    then stride-0 views along phi of one ring column each. Both arrays
    are read-only, and so are the columns a zonal state views, so no
    holder can break stream = psi(zeta) by writing into one of them;
    build a new state from an edited copy instead.
    """

    t: float
    zeta: np.ndarray
    lambda_circ: float
    config: object
    grid: AnnulusGrid
    bar_stream: InitVar[np.ndarray]
    clamp_events: int = 0
    stream: np.ndarray = field(init=False)

    def __post_init__(self, bar_stream):
        n = harmonic_normalization(self.grid)
        stream = (bar_stream + self.config.psi2
                  + (self.lambda_circ / n) * harmonic_profile(self.grid)[:, None])
        stream.setflags(write=False)
        self.zeta.setflags(write=False)
        object.__setattr__(self, "stream", np.broadcast_to(stream, self.zeta.shape))

    def max_xi(self) -> float:
        return float(np.max(np.abs(_xi_values(self.zeta, self.config, self.grid))))


def xi_bound(config, zeta0_values) -> float:
    """Transport bound A ||zeta0||_inf + B on |xi|."""
    r1sq = config.r1**2
    a = 4.0 / (1.0 + r1sq) ** 2
    b = 8.0 * config.omega * (1.0 - r1sq) / (1.0 + r1sq) ** 3
    return a * float(np.max(np.abs(zeta0_values))) + b


def _xi_values(zeta_values, config, grid):
    """xi = (zeta - beta)/alpha, the field G inverts."""
    a = alpha_of_rho(grid.rho)[:, None]
    b = beta_of_rho(grid.rho, config.omega)[:, None]
    return (zeta_values - b) / a


def bar_stream_values(zeta_values, config, grid):
    """G xi: the zero-boundary part of the stream function."""
    return _poisson_values(_xi_values(zeta_values, config, grid), grid)


def stream_of(state: SimState):
    """Full stream function G xi + psi2 + (lambda_circ/N) psi_star: state.stream."""
    return state.stream


def boundary_circulations(psi_values, grid):
    """Counterclockwise circulations of perp-grad(psi) around both walls.

    circulation = - integral of psi_rho d(phi) along the wall ring, with
    psi_rho from drho's wall rows alone.
    """
    inner, outer = _drho_walls(psi_values, grid)
    return -grid.d_phi * np.sum(inner), -grid.d_phi * np.sum(outer)


def circulation_targets(state: SimState):
    """Initial-data circulations that the closure holds fixed."""
    return boundary_circulations(state.stream, state.grid)


def fix_circulation(bar_stream, grid, targets):
    """lambda_circ pinning the inner-wall circulation to its target.

    The harmonic component carries circulation exactly lambda_circ, so
    lambda_circ = target1 - circ1(G xi), with G xi = bar_stream. Returns
    the coefficient and the outer-wall circulation residual (a
    discretization diagnostic: it is conserved only to O(h^2 + dt^2)).
    """
    circ1_bar, circ2_bar = boundary_circulations(bar_stream, grid)
    lam = targets[0] - circ1_bar
    circ2_residual = (circ2_bar + lam) - targets[1]
    return lam, circ2_residual


# ==================================================================
# Semi-Lagrangian transport
# ==================================================================

def _velocity_components(psi_values, grid):
    """w_rho, then w_phi, of psi's characteristic field, one at a time."""
    chi = np.cosh(grid.rho)[:, None] ** 2  # alpha e^{-2 rho}
    yield chi * dphi(psi_values, grid)
    yield -chi * drho(psi_values, grid)


def advecting_velocity(psi_values, grid):
    """(w_rho, w_phi), the characteristic field in (rho, phi), as one
    (2, n_rho, n_phi + 1) block: each last column repeats column 0, the
    periodic pad that advect_values samples (and cfl_number's max keeps)."""
    w = np.empty((2, grid.n_rho, grid.n_phi + 1))
    for w_k, values in zip(w, _velocity_components(psi_values, grid)):
        w_k[:, :-1] = values
        w_k[:, -1] = w_k[:, 0]
    return w


def cfl_number(w_rho, w_phi, dt, grid) -> float:
    return abs(dt) * max(
        float(np.max(np.abs(w_rho))) / grid.d_rho,
        float(np.max(np.abs(w_phi))) / grid.d_phi,
    )


# Foot points per tile in advect_values. Its kernel makes about 200 numpy
# calls per tile, each with about 1 us of fixed cost and, under --sweep,
# one GIL handoff to the other worker thread, so a tile is as large as the
# scratch budget allows: SCRATCH_PLANES float planes, one intp index plane
# and two bool planes, 106 B per foot point and about 1.7 MB per tile. A
# 128^2 field is one tile, a 256^2 field four, and a field smaller than a
# tile gets a scratch of its own size.
TILE_POINTS = 16384
SCRATCH_PLANES = 12


def _padded(values):
    """values with one edge row repeating each wall row, and periodic
    columns wrapped around, 1 left and 2 right, as one contiguous array."""
    out = np.empty((values.shape[0] + 2, values.shape[1] + 3))
    out[1:-1, 1:-2] = values
    out[1:-1, :1] = values[:, -1:]
    out[1:-1, -2:] = values[:, :2]
    out[0], out[-1] = out[1], out[-2]
    return out


def _scratch(shape):
    """Reusable work arrays for foot points of one shape: SCRATCH_PLANES
    float planes, one integer index plane and two boolean mask planes."""
    return (np.empty((SCRATCH_PLANES,) + shape), np.empty(shape, dtype=np.intp),
            np.empty((2,) + shape, dtype=bool))


def _cubic_weights(t, planes):
    """Lagrange cubic weights on the 4-point stencil {-1, 0, 1, 2}.

    Each weight keeps its expression tree, -t (t-1) (t-2) / 6,
    (t+1) (t-1) (t-2) / 2, -t (t+1) (t-2) / 2 and t (t+1) (t-1) / 6; only
    the factors -t, t-1, t+1, t-2 are computed once. planes is five
    arrays of t's shape: the first weight goes to planes[2], and the
    others overwrite t, -t and t+1 once each has no reader left, so
    planes[3:] are free again on return.
    """
    neg, tp1, w0, tm1, tm2 = planes
    np.negative(t, out=neg)
    np.subtract(t, 1.0, out=tm1)
    np.add(t, 1.0, out=tp1)
    np.subtract(t, 2.0, out=tm2)
    np.multiply(neg, tm1, out=w0)
    w0 *= tm2
    w0 /= 6.0
    w3 = np.multiply(t, tp1, out=t)
    w3 *= tm1
    w3 /= 6.0
    w2 = np.multiply(neg, tp1, out=neg)
    w2 *= tm2
    w2 /= 2.0
    w1 = np.multiply(tp1, tm1, out=tp1)
    w1 *= tm2
    w1 /= 2.0
    return w0, w1, w2, w3


def _foot_cells(x, phi_f, grid, width, scratch):
    """Stencil base index and in-cell offsets (tx, ty) of each foot point.

    x is the radial position in cell units; the cell row i0 is clamped to
    the last full cell and phi wraps periodically into [0, 2 pi). Returns
    (base, tx, ty) with base = i0 * width + j0, the flat index of cell
    (i0, j0) in a padded field of row length width; tx overwrites x and
    ty overwrites phi_f. scratch is (a float plane, the index plane, two
    mask planes).
    """
    floor, base, (outside, inside) = scratch
    np.floor(x, out=floor)
    np.copyto(base, floor, casting="unsafe")
    np.clip(base, 0, grid.n_rho - 2, out=base)
    np.subtract(x, base, out=x)
    # np.mod returns phi itself on (0, 2 pi), so only the rest needs it
    np.greater(phi_f, 0.0, out=outside)
    np.less(phi_f, 2.0 * np.pi, out=inside)
    outside &= inside
    np.logical_not(outside, out=outside)
    ty = np.mod(phi_f, 2.0 * np.pi, out=phi_f, where=outside)
    ty /= grid.d_phi
    np.floor(ty, out=floor)
    ty -= floor
    # a wrapped phi rounds up to at most 2 pi, whose column n_phi is column 0
    np.equal(floor, grid.n_phi, out=outside)
    np.copyto(floor, 0.0, where=outside)
    base *= width
    np.add(base, floor, out=base, casting="unsafe")
    return base, x, ty


def _interp_bicubic_clipped(padded, rho_f, phi_f, grid, out, scratch):
    """Clipped cubic Lagrange interpolation at foot points.

    padded is the field as _padded(values) lays it out: one edge
    row at each wall repeats it (the radial clamp), and periodic columns,
    1 left and 2 right, hold stencil columns j0 - 1 .. j0 + 2. The result
    is clipped to the min/max of its own 4x4 stencil, which keeps the
    global range of the field inside the initial range exactly. The
    result goes to out; rho_f and phi_f are overwritten, and scratch is a
    _scratch of the foot points' shape with at least 10 float planes.
    """
    planes, index, mask = scratch
    width = padded.shape[1]
    np.subtract(rho_f, grid.rho1, out=rho_f)
    rho_f /= grid.d_rho
    base, tx, ty = _foot_cells(rho_f, phi_f, grid, width, (planes[0], index, mask))
    # each _cubic_weights call leaves the last two of its planes free
    wx = _cubic_weights(tx, planes[0:5])
    wy = _cubic_weights(ty, planes[3:8])
    row, block, lo, hi = planes[6:10]

    # Stencil entry (a, b) sits at flat offset a * width + b from base.
    # Every index is in range; take's default mode="raise" would buffer out.
    flat = padded.ravel()
    out.fill(0.0)
    for a in range(4):
        row.fill(0.0)
        for b in range(4):
            flat[a * width + b:].take(base, out=block, mode="clip")
            if a == b == 0:
                np.copyto(lo, block)
                np.copyto(hi, block)
            else:
                np.minimum(lo, block, out=lo)
                np.maximum(hi, block, out=hi)
            block *= wy[b]
            row += block
        row *= wx[a]
        out += row
    return np.clip(out, lo, hi, out=out)


def _interp_bilinear_pair(u_pad, v_pad, rho_f, phi_f, grid, out, scratch):
    """Bilinear interpolation of two fields at the same foot points.

    u_pad and v_pad are laid out as advecting_velocity's block: a last
    column repeats column 0 for j0 + 1. The two results go to
    out[0] and out[1]; rho_f and phi_f are overwritten, and scratch is a
    _scratch of the foot points' shape with at least 4 float planes.
    """
    planes, index, mask = scratch
    sx, sy, near, far = planes[:4]
    width = u_pad.shape[1]
    np.subtract(rho_f, grid.rho1, out=rho_f)
    rho_f /= grid.d_rho
    np.clip(rho_f, 0.0, grid.n_rho - 1.0, out=rho_f)
    base, tx, ty = _foot_cells(rho_f, phi_f, grid, width, (sx, index, mask))
    np.subtract(1, tx, out=sx)
    np.subtract(1, ty, out=sy)
    # sx * (sy * v00 + ty * v01) + tx * (sy * v10 + ty * v11)
    for padded, res in zip((u_pad, v_pad), out):
        flat = padded.ravel()
        flat.take(base, out=res, mode="clip")
        res *= sy
        flat[1:].take(base, out=near, mode="clip")
        near *= ty
        res += near
        res *= sx
        flat[width:].take(base, out=near, mode="clip")
        near *= sy
        flat[width + 1:].take(base, out=far, mode="clip")
        far *= ty
        near += far
        near *= tx
        res += near
    return out


def _clamp_to_walls(rho, grid, mask):
    """Clip radial positions to the walls in place; returns how many lay
    beyond a wall by more than round-off."""
    below, above = mask
    np.less(rho, grid.rho1 - 1e-14, out=below)
    np.greater(rho, grid.rho2 + 1e-14, out=above)
    below |= above
    np.clip(rho, grid.rho1, grid.rho2, out=rho)
    return int(np.count_nonzero(below))


def advect_values(zeta_values, w_rho, w_phi, dt, grid):
    """One semi-Lagrangian transport step; returns (new values, clamps).

    w_rho and w_phi are laid out as advecting_velocity's block, whose
    pad column is read as it is (any other shape is a ValidationError).
    Trajectories are traced backwards with the explicit midpoint rule:
    a half-step with the node velocity locates the midpoint, where the
    velocity is re-sampled (bilinear) for the full step. Radial foot
    points beyond the walls are clamped (tangential flow cannot exit;
    the count is a quality metric). Foot points are traced and
    interpolated in tiles of whole rows, about TILE_POINTS each; the
    result does not depend on the tiling.
    """
    shape = (grid.n_rho, grid.n_phi + 1)
    if np.shape(w_rho) != shape or np.shape(w_phi) != shape:
        raise ValidationError(f"advect_values needs velocities with a pad column, {shape}")
    cfl = cfl_number(w_rho, w_phi, dt, grid)
    if cfl > CFL_LIMIT:
        raise CflViolation(cfl, dt, CFL_LIMIT * abs(dt) / cfl)

    zeta_pad = _padded(zeta_values)
    rows = max(1, min(grid.n_rho, TILE_POINTS // grid.n_phi))
    planes, index, mask = _scratch((rows, grid.n_phi))
    phi_n = grid.phi[None, :]
    new = np.empty((grid.n_rho, grid.n_phi))
    clamps = 0
    for r0 in range(0, grid.n_rho, rows):
        r1 = min(r0 + rows, grid.n_rho)
        rho_h, phi_h, rho_f, phi_f, *spare = planes[:, :r1 - r0]
        index_t, mask_t = index[:r1 - r0], mask[:, :r1 - r0]
        rho_n = grid.rho[r0:r1, None]

        np.multiply(0.5 * dt, w_rho[r0:r1, :-1], out=rho_h)
        np.subtract(rho_n, rho_h, out=rho_h)
        np.multiply(0.5 * dt, w_phi[r0:r1, :-1], out=phi_h)
        np.subtract(phi_n, phi_h, out=phi_h)
        clamps += _clamp_to_walls(rho_h, grid, mask_t)

        # the midpoint velocity, then the foot point, in place; the
        # midpoint's planes are free after the velocity is sampled
        _interp_bilinear_pair(w_rho, w_phi, rho_h, phi_h, grid,
                              (rho_f, phi_f), (spare, index_t, mask_t))
        rho_f *= dt
        np.subtract(rho_n, rho_f, out=rho_f)
        phi_f *= dt
        np.subtract(phi_n, phi_f, out=phi_f)
        clamps += _clamp_to_walls(rho_f, grid, mask_t)

        _interp_bicubic_clipped(zeta_pad, rho_f, phi_f, grid, new[r0:r1],
                                ((rho_h, phi_h, *spare), index_t, mask_t))
    return new, clamps


# ==================================================================
# Time stepping
# ==================================================================

def _closed_state(t, zeta, config, grid, targets, clamp_events):
    """The state of zeta at t: its G xi solved once, lambda_circ closed on it."""
    bar = bar_stream_values(zeta, config, grid)
    lam, _ = fix_circulation(bar, grid, targets)
    return SimState(t, zeta, lam, config, grid, bar, clamp_events)


def step(state: SimState, dt: float, targets) -> SimState:
    """Advance one step: predictor velocity, midpoint velocity, transport.

    targets are the run's circulation_targets of its initial state, held
    fixed over every step. The predictor state is freed once its stream
    is formed, and the midpoint velocity is formed in place, one
    component at a time. Deterministic: identical inputs give
    bit-identical outputs.
    """
    grid = state.grid
    config = state.config

    w = advecting_velocity(state.stream, grid)
    zeta_pred, _ = advect_values(state.zeta, *w, dt, grid)
    psi_pred = _closed_state(state.t + dt, zeta_pred, config, grid, targets, 0).stream
    del zeta_pred

    for w_k, b_k in zip(w, _velocity_components(psi_pred, grid)):
        w_k[:, :-1] += b_k  # the midpoint velocity 0.5 * (a + b)
        w_k[:, -1] = w_k[:, 0]
        w_k *= 0.5
    del psi_pred, b_k
    zeta_new, clamps = advect_values(state.zeta, *w, dt, grid)
    del w
    return _closed_state(state.t + dt, zeta_new, config, grid, targets,
                         state.clamp_events + clamps)


def run(state: SimState, t_end: float, dt: float, output_stride: int):
    """Step state to t_end, yielding the output states.

    Yields state itself, every output_stride-th step and the final one.
    The last step k is shortened to t_end - (k - 1) dt, so the run ends
    on t_end to round-off only: t sums the steps, and that sum can differ
    from t_end in its last bits. The circulation targets are those of
    state, held fixed over the run. Only the current state is kept, so a
    consumer that drops what it was given holds the memory of one state.
    """
    if t_end < 0:
        raise ValidationError("t_end must be nonnegative")
    if t_end > 0 and dt <= 0:
        raise ValidationError("dt must be positive")

    targets = circulation_targets(state)
    yield state
    n_steps = 0 if t_end == 0 else max(1, int(math.ceil(t_end / dt - 1e-12)))
    for k in range(1, n_steps + 1):
        state = step(state, min(dt, t_end - (k - 1) * dt), targets)
        if k % output_stride == 0 or k == n_steps:
            yield state


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
    reproduces the profile exactly at the nodes. The state's zeta and
    stream are read-only stride-0 views of one ring column each: zeta
    broadcasts the profile, and the stream is formed from column 0 of
    G xi, whose 2-D solve is freed on return.
    """
    ring = config.lam * solve_fd_rho(config, grid.rho) - config.upsilon
    ring.setflags(write=False)
    zeta_vals = np.broadcast_to(ring[:, None], (grid.n_rho, grid.n_phi))
    lam_circ = (config.psi1 - config.psi2) * harmonic_normalization(grid)
    return SimState(0.0, zeta_vals, lam_circ, config, grid,
                    bar_stream_values(zeta_vals, config, grid)[:, :1].copy())


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_phase(seed) -> float:
    """np.random.default_rng(seed).uniform(0, 2 pi), bit for bit, in pure Python.

    The one draw a perturbed run makes, without importing numpy.random
    (which also loads hashlib, hmac, secrets and OpenSSL: about 5.6 MB of
    resident memory per process). numpy's SeedSequence hashes the seed's
    little-endian 32-bit words into a pool of four words and expands the
    pool into four 64-bit words; PCG64 (XSL-RR 128/64) is seeded from
    those, and its first output's top 53 bits give the uniform double.
    A negative seed is a ValidationError, as numpy rejects it too.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    words = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _M32)

    hash_a = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_a
        value ^= hash_a
        hash_a = (hash_a * 0x931E8875) & _M32
        value = (value * hash_a) & _M32
        return value ^ (value >> 16)

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_b = 0x8B51F9DD
    state_words = []
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = (hash_b * 0x58F38DED) & _M32
        value = (value * hash_b) & _M32
        state_words.append(value ^ (value >> 16))
    s0, s1, s2, s3 = (state_words[2 * k] | state_words[2 * k + 1] << 32 for k in range(4))

    inc = (2 * (s2 << 64 | s3) + 1) & _M128
    state = (inc + (s0 << 64 | s1)) & _M128
    for _ in range(2):  # the seeding step, then the draw's own step
        state = (state * _PCG64_MULTIPLIER + inc) & _M128
    rot = state >> 122
    folded = ((state >> 64) ^ state) & _M64
    out = ((folded >> rot) | (folded << (64 - rot))) & _M64
    return 0.0 + 2.0 * math.pi * ((out >> 11) * 2.0**-53)


def stream_perturbation(grid, wavenumber, seed):
    """Divergence-free unit perturbation: perp-grad of a boundary-flat bump.

    delta psi = sin^2(pi (rho-rho1)/L) * cos(k phi + phase), with the
    phase uniform in [0, 2 pi) from the seed: the same phase as
    np.random.default_rng(seed).uniform(0, 2 pi), drawn without importing
    numpy.random (_seed_phase), so a seed keeps its earlier results. A
    negative seed is a ValidationError. Vanishes with its gradient's
    tangential part on both walls and injects no net circulation.
    """
    phase = _seed_phase(seed)
    s = (grid.rho - grid.rho1) / (grid.rho2 - grid.rho1)
    bump = np.sin(math.pi * s) ** 2
    return bump[:, None] * np.cos(wavenumber * grid.phi + phase)[None, :]


def perturb(zonal, amplitude, wavenumber, seed):
    """The zonal state zonal plus a relative-amplitude stream perturbation.

    amplitude is ||delta U|| / ||U_zonal|| in the planar L2 norm; the
    perturbation enters zeta through the grid's own Laplacian so the
    initial velocity is exactly perp-grad(psi_zonal + delta psi), on the
    state's own config and grid. At amplitude 0 it returns zonal itself.
    """
    if amplitude == 0.0:
        return zonal
    grid = zonal.grid
    dpsi_unit = stream_perturbation(grid, wavenumber, seed)

    def flat_norm(psi_like):
        return math.sqrt(integral_flat(grad_square_flat(psi_like, grid), grid))

    scale = amplitude * flat_norm(zonal.stream) / flat_norm(dpsi_unit)
    dpsi = scale * dpsi_unit
    a = alpha_of_rho(grid.rho)[:, None]
    zeta_vals = zonal.zeta - a * laplacian_values(dpsi, grid)
    return SimState(0.0, zeta_vals, zonal.lambda_circ, zonal.config, grid,
                    bar_stream_values(zeta_vals, zonal.config, grid))


def perturbed_zonal_state(config, grid, amplitude, wavenumber, seed):
    """perturb of a fresh zonal_initial_state(config, grid), which is not kept."""
    return perturb(zonal_initial_state(config, grid), amplitude, wavenumber, seed)


# ==================================================================
# Checkpoints
# ==================================================================

CHECKPOINT_KEYS = ("n_rho", "n_phi", "theta1", "theta2", "omega", "t", "lambda_circ",
                   "payload")
CHECKPOINT_PAYLOAD = "binary <f8 rows"
CHECKPOINT_HEADER_LIMIT = 4096  # bytes; a written header line is about 200


def write_checkpoint(path, state: SimState):
    """One JSON header line, then the raw payload.

    The payload is exactly 8 * n_rho * n_phi bytes: zeta's float64 values,
    little-endian, ring by ring, so read_checkpoint returns zeta bit for
    bit, -0.0, subnormals, inf and nan included. Written to path + ".tmp"
    and renamed over path, so a failed or killed write never leaves a
    truncated checkpoint under the final name.
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
        "payload": CHECKPOINT_PAYLOAD,
    }
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            fh.write(np.ascontiguousarray(state.zeta, dtype="<f8"))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _checkpoint_header(line):
    """The header dict of a checkpoint's first line, every key checked."""
    if not line.endswith(b"\n"):
        raise ValidationError(
            f"checkpoint header is not one line of at most {CHECKPOINT_HEADER_LIMIT} bytes"
        )
    try:
        header = json.loads(line)
    except ValueError:
        raise ValidationError("checkpoint header is not JSON") from None
    if not isinstance(header, dict):
        raise ValidationError("checkpoint header is not a JSON object")
    missing = [k for k in CHECKPOINT_KEYS if k not in header]
    if missing:
        raise ValidationError(f"checkpoint header lacks keys {missing}")
    if header["payload"] != CHECKPOINT_PAYLOAD:
        raise ValidationError(f"unknown checkpoint payload {header['payload']!r}")
    # JSON gives int, float, bool, str, list, dict or None; type() is
    # exact, so true and false are not numbers here.
    for key in ("n_rho", "n_phi"):
        if type(header[key]) is not int or header[key] < 1:
            raise ValidationError(f"checkpoint {key} must be an int >= 1, got {header[key]!r}")
    for key in ("theta1", "theta2", "omega", "t", "lambda_circ"):
        if type(header[key]) not in (int, float):
            raise ValidationError(f"checkpoint {key} must be a number, got {header[key]!r}")
    return header


def read_checkpoint(path):
    """Returns (header dict, zeta array).

    The header's keys, payload tag and value types are checked, and the
    payload's size against 8 * n_rho * n_phi bytes, before anything the
    header sizes is allocated; every failure is a ValidationError. zeta
    is a writable, native-order float64 array.
    """
    with open(path, "rb") as fh:
        header = _checkpoint_header(fh.readline(CHECKPOINT_HEADER_LIMIT))
        n_rho, n_phi = header["n_rho"], header["n_phi"]
        expected = 8 * n_rho * n_phi
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != expected:
            raise ValidationError(
                f"checkpoint payload holds {size} bytes, header says"
                f" {n_rho} x {n_phi} float64 = {expected}"
            )
        values = np.empty((n_rho, n_phi), dtype="<f8")
        if fh.readinto(values) != expected:
            raise ValidationError("checkpoint payload changed while it was read")
    return header, values.astype(np.float64, copy=False)


def state_from_checkpoint(path, config) -> SimState:
    """Rebuild a SimState; the run config supplies what the header omits."""
    header, values = read_checkpoint(path)
    for key, have in (("theta1", config.theta1), ("theta2", config.theta2),
                      ("omega", config.omega)):
        if abs(header[key] - have) > 1e-12 * max(1.0, abs(have)):
            raise ValidationError(f"checkpoint {key} disagrees with the config")
    grid = AnnulusGrid.from_band(config, header["n_rho"], header["n_phi"])
    return SimState(header["t"], values, header["lambda_circ"], config, grid,
                    bar_stream_values(values, config, grid))

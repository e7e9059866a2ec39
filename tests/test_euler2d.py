"""Time-dependent solver: Poisson, harmonic field, transport, stepping."""

import base64
import dataclasses
import json
import math
import pathlib
import re
import struct
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from accband.errors import CflViolation, ValidationError
from accband.geometry import BandConfig, alpha_of_rho, beta_of_rho
from accband.grids import AnnulusGrid
from accband import cli, diagnostics, grids
from accband.sturm_liouville import _solve_pinned
import accband.sturm_liouville as sl
from accband.zonal import solve_closed_form_lambda0, solve_fd_rho
import accband.euler2d as e2

from oracles import harmonic_component, velocity_from_stream


# The mild_config band as CLI flags.
MILD_ARGS = ["--psi1", "-0.2", "--psi2", "0.2", "--omega", "2.0", "--upsilon", "1.0",
             "--lambda", "0"]


def make_grid(config, n_rho=64, n_phi=64):
    return AnnulusGrid.from_band(config, n_rho, n_phi)


def mesh(grid):
    """(rho, phi) arrays broadcast to the (n_rho, n_phi) field shape."""
    return np.meshgrid(grid.rho, grid.phi, indexing="ij")


def make_state(zeta, lambda_circ, config, grid):
    """A t = 0 state of zeta, with its G xi solved as every builder does."""
    return e2.SimState(0.0, zeta, lambda_circ, config, grid,
                       e2.bar_stream_values(zeta, config, grid))


# ------------------------------------------------------------------
# References: the Poisson solve that factors on every call, the cubic
# weights as one expression each, and the interpolations by 2-D fancy
# indexing. The library must match them bit for bit.
# ------------------------------------------------------------------

def ref_poisson_values(source, grid):
    """Thomas on each rfft mode m, its real and imaginary parts one column each."""
    rhs_hat = np.fft.rfft(-np.exp(2.0 * grid.rho)[:, None] * source, axis=1)
    h = grid.d_rho
    off = np.full(grid.n_rho, 1.0 / h**2)
    psi_hat = np.empty_like(rhs_hat)
    for m in range(rhs_hat.shape[1]):
        diag = np.full(grid.n_rho, -2.0 / h**2) - m * m
        psi_hat.real[:, m] = _solve_pinned(off, diag, off, rhs_hat.real[:, m], 0.0, 0.0)
        psi_hat.imag[:, m] = _solve_pinned(off, diag, off, rhs_hat.imag[:, m], 0.0, 0.0)
    return np.fft.irfft(psi_hat, n=grid.n_phi, axis=1)


def ref_cubic_weights(t):
    return (
        -t * (t - 1.0) * (t - 2.0) / 6.0,
        (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0,
        -t * (t + 1.0) * (t - 2.0) / 2.0,
        t * (t + 1.0) * (t - 1.0) / 6.0,
    )


def ref_bicubic_clipped(values, rho_f, phi_f, grid):
    x = (rho_f - grid.rho1) / grid.d_rho
    i0 = np.clip(np.floor(x).astype(int), 0, grid.n_rho - 2)
    tx = x - i0
    y = np.mod(phi_f, 2.0 * np.pi) / grid.d_phi
    j0 = np.floor(y).astype(int) % grid.n_phi
    ty = y - np.floor(y)
    rows = [np.clip(i0 + k, 0, grid.n_rho - 1) for k in (-1, 0, 1, 2)]
    cols = [(j0 + k) % grid.n_phi for k in (-1, 0, 1, 2)]
    wx = ref_cubic_weights(tx)
    wy = ref_cubic_weights(ty)
    result = np.zeros_like(rho_f)
    lo = None
    hi = None
    for a in range(4):
        row_acc = np.zeros_like(rho_f)
        for b in range(4):
            block = values[rows[a], cols[b]]
            row_acc += wy[b] * block
            lo = block if lo is None else np.minimum(lo, block)
            hi = np.maximum(hi, block) if hi is not None else block
        result += wx[a] * row_acc
    return np.clip(result, lo, hi)


def ref_bilinear(values, rho_f, phi_f, grid):
    x = np.clip((rho_f - grid.rho1) / grid.d_rho, 0.0, grid.n_rho - 1.0)
    i0 = np.clip(np.floor(x).astype(int), 0, grid.n_rho - 2)
    tx = x - i0
    y = np.mod(phi_f, 2.0 * np.pi) / grid.d_phi
    j0 = np.floor(y).astype(int) % grid.n_phi
    ty = y - np.floor(y)
    j1 = (j0 + 1) % grid.n_phi
    v00 = values[i0, j0]
    v01 = values[i0, j1]
    v10 = values[i0 + 1, j0]
    v11 = values[i0 + 1, j1]
    return (
        (1 - tx) * ((1 - ty) * v00 + ty * v01) + tx * ((1 - ty) * v10 + ty * v11)
    )


def traced_peak(call):
    """tracemalloc's peak over call(), in bytes."""
    was_tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        if not was_tracing:
            tracemalloc.stop()


def padded(w):
    """A velocity component as advect_values takes it: column 0 repeated
    as the last, periodic pad column."""
    return np.concatenate([w, w[:, :1]], axis=1)


def wall_advection(config, sign):
    """advect_values arguments on a 48x40 grid whose foot points cross a wall."""
    grid = make_grid(config, 48, 40)
    state = e2.perturbed_zonal_state(config, grid, 0.05, 3, seed=6)
    w_rho, w_phi = e2.advecting_velocity(e2.stream_of(state), grid)
    # an outward radial drift pushes foot points across a wall
    w_rho = w_rho + 0.2 * np.max(np.abs(w_phi)) * grid.d_rho / grid.d_phi
    dt = sign * 0.6 / e2.cfl_number(w_rho, w_phi, 1.0, grid)
    return state.zeta, w_rho, w_phi, dt, grid


def ref_advect_values(zeta_values, w_rho, w_phi, dt, grid):
    w_rho, w_phi = w_rho[:, :-1], w_phi[:, :-1]  # the pad column is not read
    rho_n, phi_n = mesh(grid)
    rho_h = rho_n - 0.5 * dt * w_rho
    phi_h = phi_n - 0.5 * dt * w_phi
    clamps = int(np.sum((rho_h < grid.rho1 - 1e-14) | (rho_h > grid.rho2 + 1e-14)))
    rho_h = np.clip(rho_h, grid.rho1, grid.rho2)
    w_rho_h = ref_bilinear(w_rho, rho_h, phi_h, grid)
    w_phi_h = ref_bilinear(w_phi, rho_h, phi_h, grid)
    rho_f = rho_n - dt * w_rho_h
    phi_f = phi_n - dt * w_phi_h
    clamps += int(np.sum((rho_f < grid.rho1 - 1e-14) | (rho_f > grid.rho2 + 1e-14)))
    rho_f = np.clip(rho_f, grid.rho1, grid.rho2)
    return ref_bicubic_clipped(zeta_values, rho_f, phi_f, grid), clamps


class TestPoisson:
    def test_zero_source_zero_solution(self, mild_config):
        grid = make_grid(mild_config)
        out = e2._poisson_values(np.zeros((grid.n_rho, grid.n_phi)), grid)
        assert np.max(np.abs(out)) == 0.0

    def test_manufactured_solution_second_order(self, mild_config):
        """psi = (r - r1)(r2 - r) sin(phi); source = (3 - r1 r2/r^2) sin(phi)."""
        r1, r2 = mild_config.r1, mild_config.r2
        errs = []
        for n in (64, 128, 256):
            grid = make_grid(mild_config, n, n)
            r = np.exp(grid.rho)[:, None]
            sinphi = np.sin(grid.phi)[None, :]
            exact = (r - r1) * (r2 - r) * sinphi
            src = (3.0 - r1 * r2 / r**2) * sinphi
            psi = e2._poisson_values(src, grid)
            errs.append(np.max(np.abs(psi - exact)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.5 <= coarse / fine <= 4.5, f"Poisson ratios off: {errs}"

    def test_radial_source_closed_form(self, mild_config):
        """(1/r)(r psi')' = -1 with psi(r1) = psi(r2) = 0, by two quadratures."""
        r1, r2 = mild_config.r1, mild_config.r2
        grid = make_grid(mild_config, 256, 16)
        src = np.ones((grid.n_rho, grid.n_phi))
        psi = e2._poisson_values(src, grid)
        r = np.exp(grid.rho)
        # psi = -r^2/4 + c1 log r + c2 with the Dirichlet values
        mat = np.array([[math.log(r1), 1.0], [math.log(r2), 1.0]])
        c1, c2 = np.linalg.solve(mat, np.array([r1**2 / 4, r2**2 / 4]))
        exact = -(r**2) / 4 + c1 * np.log(r) + c2
        assert np.max(np.abs(psi - exact[:, None])) <= 5e-6


class TestPoissonFactorCache:
    @pytest.mark.parametrize("shape", [(64, 64), (64, 63)])
    def test_cached_solve_matches_fresh_factorisation(self, mild_config, rng, shape):
        """The cached factor solves bit for bit as a fresh cyclic
        factorisation of an equal grid, and agrees with the Thomas
        reference to 5e-14 of the field's maximum (measured: 3.9e-15)."""
        grid = make_grid(mild_config, *shape)
        for _ in range(2):  # the second solve reuses the factor
            src = rng.standard_normal(shape)
            got = e2._poisson_values(src, grid)
            assert np.array_equal(got, e2._poisson_values(src, make_grid(mild_config, *shape)))
            want = ref_poisson_values(src, grid)
            assert np.max(np.abs(got - want)) <= 5e-14 * np.max(np.abs(want))
            assert not np.any(got[0]) and not np.any(got[-1])

    def test_factor_built_once_per_grid(self, mild_config, rng, monkeypatch):
        calls = []
        factor = grids._cyclic_factor

        def counting(*args):
            calls.append(1)
            return factor(*args)

        monkeypatch.setattr(grids, "_cyclic_factor", counting)
        grid = make_grid(mild_config, 48, 40)
        src = rng.standard_normal((48, 40))
        first = e2._poisson_values(src, grid)
        assert len(calls) == 1
        assert np.array_equal(e2._poisson_values(src, grid), first)
        assert len(calls) == 1

    def test_grids_do_not_share_a_factor(self, mild_config):
        a = make_grid(mild_config, 64, 64)
        b = make_grid(mild_config, 64, 63)
        rows_a, reductions_a, substitutions_a = a.poisson_factor
        rows_b, reductions_b, substitutions_b = b.poisson_factor
        assert rows_a == rows_b == 65  # 62 interior rows, padded to 2^6 + 1
        _, _, alpha_a, _ = reductions_a[0]
        _, _, alpha_b, _ = reductions_b[0]
        # one coefficient per real and imaginary part of each rfft mode
        assert alpha_a.shape == (66,) and alpha_b.shape == (64,)
        assert len(substitutions_a) == len(reductions_a) + 1 == 6
        assert make_grid(mild_config, 64, 64).poisson_factor is not a.poisson_factor


def longdouble_thomas(off, diag, rhs):
    """Dirichlet Thomas solve of off x[i-1] + diag x[i] + off x[i+1] = rhs[i]
    in extended precision, one column per entry of diag."""
    off = np.longdouble(off)
    diag = diag.astype(np.longdouble)
    x = rhs.astype(np.longdouble)
    c = np.empty(x.shape, dtype=np.longdouble)
    piv = diag
    for i in range(len(x)):
        if i:
            piv = diag - off * c[i - 1]
            x[i] = x[i] - off * x[i - 1]
        c[i] = off / piv
        x[i] = x[i] / piv
    for i in range(len(x) - 2, -1, -1):
        x[i] = x[i] - c[i] * x[i + 1]
    return x


class TestCyclicReduction:
    @pytest.mark.parametrize("n_rho", [8, 9, 10, 63, 64, 65, 128, 129, 256, 512])
    @pytest.mark.parametrize("n_phi", [63, 64])
    @pytest.mark.parametrize("source", ["smooth", "random"])
    def test_matches_extended_precision_thomas(self, mild_config, rng, n_rho, n_phi, source):
        """Every even/odd split at every level, against a long-double Thomas
        solve: each mode's column agrees to 1e-14 of its maximum (measured:
        1.2e-15 at most), and the wall and padding rows stay exactly 0."""
        grid = make_grid(mild_config, n_rho, n_phi)
        rows, _, _ = factor = grid.poisson_factor
        n, width = n_rho - 2, 2 * (n_phi // 2 + 1)
        if source == "smooth":
            rho = grid.rho[1:-1, None]
            rhs = np.cos(3.0 * rho / grid.rho2 + np.arange(width)) * np.exp(rho)
        else:
            rhs = rng.standard_normal((n, width))
        x = np.zeros((rows, width))
        x[1:n + 1] = rhs
        sl._cyclic_solve(factor, x)
        assert not np.any(x[0]) and not np.any(x[n + 1:])
        h = grid.d_rho
        m = np.arange(n_phi // 2 + 1)
        want = longdouble_thomas(1.0 / h**2, np.repeat(-2.0 / h**2 - m * m, 2), rhs)
        err = np.max(np.abs(x[1:n + 1] - want), axis=0) / np.max(np.abs(want), axis=0)
        assert np.max(err) <= 1e-14

    def test_refuses_a_system_without_dominance(self):
        with pytest.raises(ValidationError):
            sl._cyclic_factor(1.0, np.array([-2.0, -1.5]), 8)
        with pytest.raises(ValidationError):
            sl._cyclic_factor(0.0, np.array([0.0]), 8)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 37])
    def test_either_sign_matches_dense_solve(self, rng, n):
        """Positive or negative off-diagonal and diagonal, margins from 0
        to large, against numpy's dense solve."""
        for off, diag in ((0.7, np.array([1.4, 1.5, 9.0])), (-0.7, np.array([-1.4, 3.0, -2.0]))):
            factor = sl._cyclic_factor(off, diag, n)
            rhs = rng.standard_normal((n, len(diag)))
            x = np.zeros((factor[0], len(diag)))
            x[1:n + 1] = rhs
            sl._cyclic_solve(factor, x)
            for k, d in enumerate(diag):
                dense = d * np.eye(n) + off * (np.eye(n, k=1) + np.eye(n, k=-1))
                assert np.allclose(x[1:n + 1, k], np.linalg.solve(dense, rhs[:, k]),
                                   rtol=1e-12, atol=1e-12)


class TestHarmonicComponent:
    def test_wall_values(self, mild_config):
        grid = make_grid(mild_config)
        prof = e2.harmonic_profile(grid)
        assert prof[0] == pytest.approx(1.0, abs=1e-15)
        assert prof[-1] == pytest.approx(0.0, abs=1e-15)

    def test_harmonic_residual(self, mild_config):
        grid = make_grid(mild_config)
        vals = np.broadcast_to(e2.harmonic_profile(grid)[:, None],
                               (grid.n_rho, grid.n_phi))
        residual = e2.laplacian_values(vals, grid)
        # analytically zero; numerically the float noise of the profile
        # divided by h^2, so compare in units of the operator magnitude
        assert np.max(np.abs(residual)) * grid.d_rho**2 <= 1e-12

    def test_unit_circulation(self, mild_config):
        """Line-integral oracle: circulation of U_star around either wall."""
        grid = make_grid(mild_config)
        ustar_phi, norm = harmonic_component(grid)
        for row in (0, -1):
            r_wall = math.exp(grid.rho[row])
            circ = grid.d_phi * float(np.sum(ustar_phi[row] * r_wall))
            assert circ == pytest.approx(1.0, rel=1e-12)
        assert norm == pytest.approx(2 * math.pi / (grid.rho2 - grid.rho1), rel=1e-12)

    def test_orthogonal_to_green_flows(self, mild_config, rng):
        grid = make_grid(mild_config, 96, 96)
        src = e2._poisson_values(rng.standard_normal((96, 96)), grid)  # smooth field
        psi_bar = e2._poisson_values(src, grid)
        u_r, u_phi = velocity_from_stream(psi_bar, grid)
        ustar_phi, _ = harmonic_component(grid)
        ustar_r = np.zeros_like(ustar_phi)  # U_star is purely azimuthal
        w = grid.radial_weights[:, None] * np.exp(2.0 * grid.rho)[:, None]

        def inner(ar, ap, br, bp):
            return grid.d_phi * float(np.sum(w * (ar * br + ap * bp)))

        cross = inner(u_r, u_phi, ustar_r, ustar_phi)
        norm = math.sqrt(inner(u_r, u_phi, u_r, u_phi)
                         * inner(ustar_r, ustar_phi, ustar_r, ustar_phi))
        assert abs(cross) <= 1e-4 * norm, f"relative inner product {cross / norm:.2e}"


class TestReconstruction:
    def test_rest_state(self, mild_config):
        grid = make_grid(mild_config)
        beta_field = np.broadcast_to(
            beta_of_rho(grid.rho, mild_config.omega)[:, None],
            (grid.n_rho, grid.n_phi),
        ).copy()
        state = make_state(beta_field, 0.0, mild_config, grid)
        u_r, u_phi = velocity_from_stream(e2.stream_of(state), grid)
        assert np.max(np.abs(u_r)) <= 1e-12
        assert np.max(np.abs(u_phi)) <= 1e-12

    def test_zonal_velocity_against_closed_form(self, mild_config):
        errs = []
        for n in (64, 128):
            grid = make_grid(mild_config, n, 16)
            state = e2.zonal_initial_state(mild_config, grid)
            _, u_phi = velocity_from_stream(e2.stream_of(state), grid)
            prof = solve_closed_form_lambda0(mild_config, 4097)
            u_interp = np.interp(grid.theta, prof.thetas, prof.u)
            # planar azimuthal component of a zonal spherical flow
            expect = (1.0 - np.sin(grid.theta)) * u_interp
            errs.append(np.max(np.abs(u_phi - expect[:, None])))
        assert errs[1] <= errs[0] / 3.0, f"no O(h^2) decay: {errs}"

    def test_boundary_impermeability_and_divergence(self, mild_neg_lam_config):
        grid = make_grid(mild_neg_lam_config, 64, 64)
        state = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.05, 3, seed=2)
        u_r, u_phi = velocity_from_stream(e2.stream_of(state), grid)
        scale = np.max(np.abs(u_phi))
        assert np.max(np.abs(u_r[0])) <= 1e-12 * scale
        assert np.max(np.abs(u_r[-1])) <= 1e-12 * scale
        # discrete divergence with the same operators vanishes identically
        div = (
            np.exp(-2 * grid.rho)[:, None]
            * e2.drho(np.exp(grid.rho)[:, None] * u_r, grid)
            + np.exp(-grid.rho)[:, None] * e2.dphi(u_phi, grid)
        )
        assert np.max(np.abs(div)) <= 1e-9 * scale / grid.d_rho


class TestCirculationClosure:
    def test_lambda_matches_projection_of_initial_velocity(self, mild_config):
        grid = make_grid(mild_config, 128, 64)
        state = e2.zonal_initial_state(mild_config, grid)
        _, u_phi = velocity_from_stream(e2.stream_of(state), grid)
        ustar_phi, norm = harmonic_component(grid)  # U_star has no u_r
        w = grid.radial_weights[:, None] * np.exp(2.0 * grid.rho)[:, None]
        inner = grid.d_phi * float(np.sum(w * u_phi * ustar_phi))
        assert inner * norm == pytest.approx(state.lambda_circ, rel=2e-4)

    def test_linil_response_to_scaling(self, mild_neg_lam_config):
        grid = make_grid(mild_neg_lam_config, 48, 48)
        config = mild_neg_lam_config
        state = e2.perturbed_zonal_state(config, grid, 0.02, 2, seed=3)
        targets = e2.circulation_targets(state)
        lam1, _ = e2.fix_circulation(e2.bar_stream_values(state.zeta, config, grid), grid,
                                     targets)
        beta_field = beta_of_rho(grid.rho, config.omega)[:, None]
        doubled = e2.bar_stream_values(beta_field + 2.0 * (state.zeta - beta_field),
                                       config, grid)
        lam2, _ = e2.fix_circulation(doubled, grid, (2 * targets[0], 2 * targets[1]))
        assert lam2 == pytest.approx(2.0 * lam1, rel=1e-12)

    @pytest.mark.parametrize("shape", [(3, 16), (8, 8), (64, 64), (129, 96)])
    def test_wall_circulations_match_full_field_stencil(self, mild_config, rng, shape):
        """boundary_circulations reads drho's wall rows only; the reference
        takes the whole field's d/drho, as it was first written."""
        def full_field_circulations(psi, grid):
            h = grid.d_rho
            dpsi = np.empty_like(psi)
            dpsi[1:-1] = (psi[2:] - psi[:-2]) / (2 * h)
            dpsi[0] = (-3 * psi[0] + 4 * psi[1] - psi[2]) / (2 * h)
            dpsi[-1] = (3 * psi[-1] - 4 * psi[-2] + psi[-3]) / (2 * h)
            return -grid.d_phi * np.sum(dpsi[0]), -grid.d_phi * np.sum(dpsi[-1])

        if shape[0] >= 8:
            grid = make_grid(mild_config, *shape)
        else:  # an AnnulusGrid needs n_rho >= 8; the stencil reads only the spacings
            grid = types.SimpleNamespace(d_rho=0.1, d_phi=2 * math.pi / shape[1])
        for _ in range(5):
            psi = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4)
            for values in (psi, np.asfortranarray(psi)):
                assert (e2.boundary_circulations(values, grid)
                        == full_field_circulations(values, grid))

    def test_lambda_constant_on_zonal_run(self, mild_config):
        grid = make_grid(mild_config, 64, 64)
        state = e2.zonal_initial_state(mild_config, grid)
        targets = e2.circulation_targets(state)
        lam0 = state.lambda_circ
        s = state
        for _ in range(100):
            s = e2.step(s, 2e-3, targets)
        assert abs(s.lambda_circ - lam0) <= 1e-8 * abs(lam0)


class TestAdvection:
    def test_zero_velocity_identity(self, mild_config):
        grid = make_grid(mild_config, 48, 48)
        rho_n, phi_n = mesh(grid)
        zeta = np.sin(3 * phi_n) * np.cosh(rho_n)
        out, clamps = e2.advect_values(zeta, padded(np.zeros_like(zeta)),
                                       padded(np.zeros_like(zeta)), 0.01, grid)
        assert clamps == 0
        assert np.max(np.abs(out - zeta)) <= 1e-12

    def test_solid_rotation_returns_pattern(self, mild_config):
        for n, n_steps in ((64, 200), (128, 400)):
            grid = make_grid(mild_config, n, n)
            rho_n, phi_n = mesh(grid)
            s = (rho_n - grid.rho1) / (grid.rho2 - grid.rho1)
            zeta0 = np.sin(phi_n) * (1.0 + 0.5 * s)
            sigma = 1.0
            w_phi = padded(np.full_like(zeta0, sigma))
            w_rho = padded(np.zeros_like(zeta0))
            dt = 2 * math.pi / sigma / n_steps
            vals = zeta0
            for _ in range(n_steps):
                vals, _ = e2.advect_values(vals, w_rho, w_phi, dt, grid)
            err = np.max(np.abs(vals - zeta0))
            assert err <= 6.0 * (grid.d_phi**2 + dt**2), f"n={n}: {err:.2e}"
            # transport maximum principle, exactly (the clip guarantees it)
            assert vals.min() >= zeta0.min() - 1e-14
            assert vals.max() <= zeta0.max() + 1e-14

    def test_vector_field_api_matches_stream_route(self, mild_neg_lam_config):
        """Transport runs along alpha*U: the characteristic field equals
        alpha e^{-rho} times the reconstructed velocity, and advecting a
        zonal state along it leaves the field unchanged."""
        grid = make_grid(mild_neg_lam_config, 64, 64)
        state = e2.zonal_initial_state(mild_neg_lam_config, grid)
        psi = e2.stream_of(state)
        w_rho, w_phi = e2.advecting_velocity(psi, grid)
        factor = (alpha_of_rho(grid.rho) * np.exp(-grid.rho))[:, None]
        for w, u in zip((w_rho[:, :-1], w_phi[:, :-1]), velocity_from_stream(psi, grid)):
            assert np.max(np.abs(w - factor * u)) <= 1e-12 * np.max(np.abs(w_phi))
        out, _ = e2.advect_values(state.zeta, w_rho, w_phi, 2e-3, grid)
        assert np.max(np.abs(out - state.zeta)) <= 1e-12

    def test_cfl_violation_suggests_dt(self, mild_config):
        grid = make_grid(mild_config, 48, 48)
        zeta = np.ones((48, 48))
        w_phi = padded(np.full_like(zeta, 10.0))
        with pytest.raises(CflViolation) as err:
            e2.advect_values(zeta, padded(np.zeros_like(zeta)), w_phi, 1.0, grid)
        assert 0.0 < err.value.suggested_dt < 1.0
        # the suggested step passes
        e2.advect_values(zeta, padded(np.zeros_like(zeta)), w_phi,
                         err.value.suggested_dt, grid)

    def test_velocity_without_pad_column_rejected(self, mild_config):
        grid = make_grid(mild_config, 48, 48)
        zeta = np.ones((48, 48))
        with pytest.raises(ValidationError, match="pad column"):
            e2.advect_values(zeta, np.zeros_like(zeta), np.zeros_like(zeta), 0.01, grid)

    def test_velocity_block_repeats_column_zero(self, mild_neg_lam_config):
        grid = make_grid(mild_neg_lam_config, 48, 40)
        state = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.05, 3, seed=6)
        w = e2.advecting_velocity(e2.stream_of(state), grid)
        assert w.shape == (2, 48, 41)
        assert np.array_equal(w[:, :, -1], w[:, :, 0])

    def test_tracer_reversibility_third_order(self, mild_config):
        """Exactly-interpolated setup isolates the midpoint tracer error."""
        grid = make_grid(mild_config, 128, 128)
        rho_n, phi_n = mesh(grid)
        s = (rho_n - grid.rho1) / (grid.rho2 - grid.rho1)
        zeta0 = 1.0 + s + 0.5 * s**2 - 0.3 * s**3  # cubic: interpolation exact
        w_rho = padded(0.01 + 0.03 * s)            # affine: velocity interp exact
        w_phi = padded(0.8 + 0.3 * s)
        errs = []
        for dt in (0.03, 0.015):
            fwd, _ = e2.advect_values(zeta0, w_rho, w_phi, dt, grid)
            back, _ = e2.advect_values(fwd, w_rho, w_phi, -dt, grid)
            errs.append(np.max(np.abs((back - zeta0)[5:-5, :])))
        assert errs[1] <= errs[0] / 8.0, f"pair errors {errs}"
        assert errs[0] <= 60.0 * 0.03**3


class TestInterpolationReference:
    """The padded-flat gathers against the 2-D fancy-index reference."""

    def foot_points(self, grid, rng):
        """Seeded foot points plus the edge cases of the stencil lookup."""
        n = 500
        rho_f = rng.uniform(grid.rho1, grid.rho2, n)
        phi_f = rng.uniform(-1.0, 2.0 * np.pi + 1.0, n)
        j = rng.integers(0, grid.n_phi, grid.n_rho)
        rho_f = np.concatenate([
            rho_f,
            [grid.rho1, grid.rho1 + 0.3 * grid.d_rho, grid.rho2,
             grid.rho2 - 0.3 * grid.d_rho],           # both walls
            grid.rho,                                 # exactly on nodes
            np.full(6, grid.rho[3]),
        ])
        phi_f = np.concatenate([
            phi_f,
            [0.1, 1.0, 2.0, 3.0],
            grid.phi[j],
            [-1e-17, -0.0, -grid.d_phi, 2.0 * np.pi, 2.0 * np.pi + 1e-9,
             4.0 * np.pi + 0.5],                      # phi < 0 and >= 2 pi
        ])
        x = (rho_f - grid.rho1) / grid.d_rho
        i0 = np.clip(np.floor(x).astype(int), 0, grid.n_rho - 2)
        assert i0.min() == 0 and i0.max() == grid.n_rho - 2
        y = np.mod(phi_f, 2.0 * np.pi) / grid.d_phi
        assert np.sum((x == np.floor(x)) & (y == np.floor(y))) >= 2  # tx = ty = 0
        assert np.any(phi_f < 0.0) and np.any(phi_f >= 2.0 * np.pi)
        return rho_f, phi_f

    @pytest.mark.parametrize("shape", [(32, 48), (24, 31)])
    def test_bicubic_matches_reference(self, mild_config, rng, shape):
        grid = make_grid(mild_config, *shape)
        values = rng.standard_normal(shape)
        rho_f, phi_f = self.foot_points(grid, rng)
        # the kernel overwrites the foot points it is given
        got = e2._interp_bicubic_clipped(e2._padded(values), rho_f.copy(),
                                         phi_f.copy(), grid, np.empty_like(rho_f),
                                         e2._scratch(rho_f.shape))
        assert np.array_equal(got, ref_bicubic_clipped(values, rho_f, phi_f, grid))

    @pytest.mark.parametrize("shape", [(32, 48), (24, 31)])
    def test_bilinear_pair_matches_reference(self, mild_config, rng, shape):
        grid = make_grid(mild_config, *shape)
        u = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        rho_f, phi_f = self.foot_points(grid, rng)
        # the bilinear stage also clips x itself, so feed it foot points
        # beyond the walls as well
        rho_f = np.concatenate([rho_f, [grid.rho1 - 0.1, grid.rho2 + 0.1]])
        phi_f = np.concatenate([phi_f, [0.5, 0.5]])
        got_u, got_v = e2._interp_bilinear_pair(
            padded(u), padded(v), rho_f.copy(), phi_f.copy(),
            grid, np.empty((2,) + rho_f.shape), e2._scratch(rho_f.shape))
        assert np.array_equal(got_u, ref_bilinear(u, rho_f, phi_f, grid))
        assert np.array_equal(got_v, ref_bilinear(v, rho_f, phi_f, grid))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_advect_matches_reference(self, mild_neg_lam_config, sign):
        args = wall_advection(mild_neg_lam_config, sign)
        got, got_clamps = e2.advect_values(*args)
        want, want_clamps = ref_advect_values(*args)
        assert np.array_equal(got, want)
        assert got_clamps == want_clamps > 0


class TestTiles:
    """advect_values in row tiles: every tiling matches the untiled
    references, seams and ragged last tiles included."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("tile_points", [
        7,            # less than a row: one-row tiles
        3 * 40,       # 3-row tiles, none ragged
        5 * 40 + 17,  # 5-row tiles, the last one 3 rows
        47 * 40,      # the last tile is a single row
    ])
    def test_tiles_match_reference(self, mild_neg_lam_config, monkeypatch, sign,
                                   tile_points):
        args = wall_advection(mild_neg_lam_config, sign)
        monkeypatch.setattr(e2, "TILE_POINTS", tile_points)
        got, got_clamps = e2.advect_values(*args)
        want, want_clamps = ref_advect_values(*args)
        assert np.array_equal(got, want)
        assert got_clamps == want_clamps > 0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_result_independent_of_tiling(self, mild_neg_lam_config, monkeypatch, sign):
        args = wall_advection(mild_neg_lam_config, sign)
        assert e2.TILE_POINTS >= 48 * 40  # the default is one tile here
        want, want_clamps = e2.advect_values(*args)
        for rows in (1, 3):
            monkeypatch.setattr(e2, "TILE_POINTS", rows * 40)
            got, clamps = e2.advect_values(*args)
            assert got.tobytes() == want.tobytes()
            assert clamps == want_clamps

    @staticmethod
    def advect_peak_fields(config, n):
        """tracemalloc's peak over one n x n advect_values call, in fields."""
        grid = make_grid(config, n, n)
        state = e2.perturbed_zonal_state(config, grid, 0.01, 3, seed=6)
        w_rho, w_phi = e2.advecting_velocity(e2.stream_of(state), grid)
        dt = 0.5 / e2.cfl_number(w_rho, w_phi, 1.0, grid)
        peak = traced_peak(lambda: e2.advect_values(state.zeta, w_rho, w_phi, dt, grid))
        return peak / state.zeta.nbytes

    def test_one_call_allocates_under_twelve_fields(self, mild_neg_lam_config):
        """Deterministic memory guard: untiled, one call held 27 fields."""
        assert self.advect_peak_fields(mild_neg_lam_config, 256) < 12

    def test_one_tile_scratch_stays_in_budget(self, mild_neg_lam_config):
        """At 128^2 the scratch is one whole tile: 12 float planes, one
        index and two mask planes make a call peak at 18.4 fields. Tiles
        of 8192 points with 24 float planes peaked at 17.75; doubling the
        tile without shrinking the kernel peaks at 30.9."""
        assert self.advect_peak_fields(mild_neg_lam_config, 128) < 19


class TestStepAndRun:
    def test_zonal_state_is_discrete_fixed_point(self, mild_neg_lam_config):
        grid = make_grid(mild_neg_lam_config, 96, 96)
        state = e2.zonal_initial_state(mild_neg_lam_config, grid)
        targets = e2.circulation_targets(state)
        s = state
        for _ in range(20):
            s = e2.step(s, 3e-3, targets)
        rel = np.linalg.norm(s.zeta - state.zeta) / np.linalg.norm(
            state.zeta
        )
        assert rel <= 1e-12, f"zonal drift {rel:.2e}"

    def test_constant_zeta_remains_constant(self, mild_config):
        grid = make_grid(mild_config, 48, 48)
        state = make_state(np.full((48, 48), 7.5), 0.3, mild_config, grid)
        targets = e2.circulation_targets(state)
        s = e2.step(e2.step(state, 2e-3, targets), 2e-3, targets)
        assert np.max(np.abs(s.zeta - 7.5)) <= 1e-12

    def test_determinism_bitwise(self, mild_neg_lam_config):
        grid = make_grid(mild_neg_lam_config, 48, 48)

        def one_run():
            state = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.01, 3,
                                             seed=42)
            targets = e2.circulation_targets(state)
            for _ in range(10):
                state = e2.step(state, 2e-3, targets)
            return state

        a, b = one_run(), one_run()
        assert np.array_equal(a.zeta, b.zeta)
        assert a.lambda_circ == b.lambda_circ

    def test_step_matches_whole_block_midpoint(self, mild_neg_lam_config):
        """The midpoint velocity formed in place, one component at a time,
        is the average of the two whole blocks, pad columns included."""
        config = mild_neg_lam_config
        grid = make_grid(config, 48, 40)
        state = e2.perturbed_zonal_state(config, grid, 0.05, 3, seed=6)
        targets = e2.circulation_targets(state)
        w_a = e2.advecting_velocity(e2.stream_of(state), grid)
        dt = 0.5 / e2.cfl_number(*w_a, 1.0, grid)
        zeta_pred, _ = e2.advect_values(state.zeta, *w_a, dt, grid)
        pred = e2._closed_state(dt, zeta_pred, config, grid, targets, 0)
        w = 0.5 * (w_a + e2.advecting_velocity(e2.stream_of(pred), grid))
        zeta_new, clamps = e2.advect_values(state.zeta, *w, dt, grid)
        got = e2.step(state, dt, targets)
        assert got.zeta.tobytes() == zeta_new.tobytes()
        assert got.clamp_events == clamps
        assert got.lambda_circ == e2._closed_state(dt, zeta_new, config, grid,
                                                   targets, 0).lambda_circ

    @staticmethod
    def step_peak_fields(config, n):
        """tracemalloc's peak over one steady n x n step, in fields: the
        state it returns included, after warm-up steps at Courant 0.5."""
        grid = make_grid(config, n, n)
        state = e2.perturbed_zonal_state(config, grid, 0.01, 3, seed=6)
        dt = 0.5 / e2.cfl_number(*e2.advecting_velocity(e2.stream_of(state), grid),
                                 1.0, grid)
        targets = e2.circulation_targets(state)
        for _ in range(2):
            state = e2.step(state, dt, targets)
        return traced_peak(lambda: e2.step(state, dt, targets)) / state.zeta.nbytes

    def test_steady_step_allocates_under_eight_fields(self, mild_neg_lam_config):
        """A step that kept its predictor and padded a copy of the velocity
        pair on every advection peaked at 11.6 fields here, this one at 7.6."""
        assert self.step_peak_fields(mild_neg_lam_config, 256) < 8

    def test_steady_step_at_128_stays_in_budget(self, mild_neg_lam_config):
        """At 128^2 the advection scratch is 12 fields by itself: 18.3 in
        all, where the step with its predictor kept peaked at 22.3."""
        assert self.step_peak_fields(mild_neg_lam_config, 128) < 19

    def test_small_grid_scratch_is_sized_by_the_grid(self, mild_neg_lam_config):
        """A 16^2 field is far smaller than a tile, so its scratch is too:
        a step peaks at about 45 KB, where a full-tile scratch made it
        1.75 MB."""
        fields = self.step_peak_fields(mild_neg_lam_config, 16)
        assert fields * 16 * 16 * 8 < 200_000

    def test_run_zero_horizon_returns_initial_only(self, mild_config, tmp_path):
        grid = make_grid(mild_config, 48, 48)
        state = e2.zonal_initial_state(mild_config, grid)
        assert [s is state for s in e2.run(state, 0.0, 1e-3, 1)] == [True]
        out = tmp_path / "zero"
        assert cli.main(["--mode", "evolve", "--out", str(out), "--n-rho", "48",
                         "--n-phi", "48", "--dt", "0.001", "--t-end", "0",
                         *MILD_ARGS]) == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()
        assert rows[0] == ("t,energy,circ1,circ2,casimir2,casimir3,"
                           "stability_identity,max_xi,lambda_circ")
        assert len(rows) == 2

    def test_run_emits_rows_and_checkpoints(self, tmp_path):
        out = tmp_path / "strided"
        assert cli.main(["--mode", "evolve", "--out", str(out), "--n-rho", "48",
                         "--n-phi", "48", "--dt", "0.002", "--t-end", "0.01",
                         "--output-stride", "2", *MILD_ARGS]) == 0
        rows = (out / "diagnostics.csv").read_text().splitlines()[1:]
        steps = 5  # stride 2 outputs the initial state, steps 2 and 4, and step 5
        assert len(rows) == 1 + math.ceil(steps / 2)
        assert len(list((out / "checkpoints").glob("checkpoint_*.txt"))) == len(rows)
        assert float(rows[-1].split(",")[0]) == pytest.approx(0.01)

    def test_run_keeps_only_the_current_state(self, mild_neg_lam_config):
        grid = make_grid(mild_neg_lam_config, 32, 32)
        state = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.01, 3, seed=5)
        refs = []
        for s in e2.run(state, 0.01, 2e-3, 1):
            refs.append(weakref.ref(s))
            # outputs the consumer dropped are gone, except the caller's own
            assert all(r() is None for r in refs[1:-1])
        del s
        assert len(refs) == 6
        assert refs[0]() is state
        assert all(r() is None for r in refs[1:])


class TestSeedPhase:
    """The perturbation phase is np.random.default_rng(seed).uniform(0, 2 pi),
    drawn without numpy.random; numpy is the oracle here."""

    # 1000-1008 are the benchmark's seeds; then the 32- and 64-bit edges,
    # seeds of two to five 32-bit words, and the held-out seed.
    EDGE_SEEDS = [*range(1000, 1009), 2**32 - 1, 2**32, 2**40 + 7, 2**63 - 1,
                  2**64 + 5, 10**30, 2**128 + 3, 20261017]

    def test_matches_numpy_bit_for_bit(self):
        import numpy.random
        for seed in [*range(3000), *self.EDGE_SEEDS]:
            want = numpy.random.default_rng(seed).uniform(0.0, 2.0 * math.pi)
            assert e2._seed_phase(seed) == want, seed

    def test_perturbation_uses_the_phase(self, mild_config):
        grid = make_grid(mild_config, 16, 24)
        dpsi = e2.stream_perturbation(grid, 3, 20261017)
        phase = e2._seed_phase(20261017)
        s = (grid.rho - grid.rho1) / (grid.rho2 - grid.rho1)
        bump = np.sin(math.pi * s) ** 2
        want = bump[:, None] * np.cos(3 * grid.phi + phase)[None, :]
        assert dpsi.tobytes() == want.tobytes()

    def test_negative_seed_rejected(self, mild_config):
        grid = make_grid(mild_config, 16, 16)
        for draw in (lambda: e2._seed_phase(-1),
                     lambda: e2.stream_perturbation(grid, 3, -1),
                     lambda: e2.perturbed_zonal_state(mild_config, grid, 0.01, 3, -5)):
            with pytest.raises(ValidationError, match="seed"):
                draw()


class TestPerturb:
    """perturb is the one maker of a perturbed state: perturbed_zonal_state
    is perturb of a fresh zonal state."""

    @pytest.mark.parametrize("amplitude", [0.02, 0.0])
    def test_equals_perturbed_zonal_state_bit_for_bit(self, amplitude, mild_neg_lam_config):
        grid = make_grid(mild_neg_lam_config, 24, 20)
        got = e2.perturb(e2.zonal_initial_state(mild_neg_lam_config, grid), amplitude, 3, 9)
        want = e2.perturbed_zonal_state(mild_neg_lam_config, grid, amplitude, 3, 9)
        assert got.zeta.tobytes() == want.zeta.tobytes()
        assert got.stream.tobytes() == want.stream.tobytes()
        assert got.lambda_circ == want.lambda_circ

    def test_zero_amplitude_returns_the_state(self, mild_neg_lam_config):
        zonal = e2.zonal_initial_state(mild_neg_lam_config, make_grid(mild_neg_lam_config, 16, 16))
        assert e2.perturb(zonal, 0.0, 3, 9) is zonal


class TestFrozenState:
    """A SimState is a snapshot: nothing is assigned to it after it is
    built, and its stream is formed from G xi of its own zeta, from every
    builder."""

    @staticmethod
    def built_states(config, tmp_path):
        grid = make_grid(config, 32, 24)
        perturbed = e2.perturbed_zonal_state(config, grid, 0.02, 3, seed=9)
        stepped = e2.step(perturbed, 2e-3, e2.circulation_targets(perturbed))
        e2.write_checkpoint(tmp_path / "state.txt", stepped)
        return {
            "zonal_initial_state": e2.zonal_initial_state(config, grid),
            "perturbed_zonal_state": perturbed,
            "step": stepped,
            "state_from_checkpoint": e2.state_from_checkpoint(tmp_path / "state.txt",
                                                              config),
        }

    def test_assignment_raises(self, mild_neg_lam_config, tmp_path):
        for state in self.built_states(mild_neg_lam_config, tmp_path).values():
            with pytest.raises(dataclasses.FrozenInstanceError):
                state.lambda_circ = 0.0

    def test_arrays_are_read_only(self, mild_neg_lam_config, tmp_path):
        for name, state in self.built_states(mild_neg_lam_config, tmp_path).items():
            for array in (state.zeta, state.stream):
                assert not array.flags.writeable, name
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 1.0

    def test_bar_stream_is_g_xi_of_zeta(self, mild_neg_lam_config, tmp_path):
        states = self.built_states(mild_neg_lam_config, tmp_path)
        assert states["step"].t == 2e-3 and states["state_from_checkpoint"].t == 2e-3
        for name, state in states.items():
            grid = state.grid
            want = (e2.bar_stream_values(state.zeta, state.config, grid) + state.config.psi2
                    + (state.lambda_circ / e2.harmonic_normalization(grid))
                    * e2.harmonic_profile(grid)[:, None])
            assert state.stream.tobytes() == want.tobytes(), name

    def test_holds_only_zeta_and_stream(self, mild_neg_lam_config, tmp_path):
        """No state keeps G xi or a second stream beside its own, also
        after a record has read it as the reference."""
        for name, state in self.built_states(mild_neg_lam_config, tmp_path).items():
            diagnostics.record(state, reference=state)
            arrays = {k for k, v in vars(state).items() if isinstance(v, np.ndarray)}
            assert arrays == {"zeta", "stream"}, name

    def test_zonal_state_holds_two_read_only_columns(self, mild_neg_lam_config):
        """A zonal state's zeta and stream are stride-0 views of one ring
        column each, read-only down to the array they view, and equal bit
        for bit to the full fields: the profile broadcast and copied, and
        the stream formed from the 2-D solve of that copy."""
        config = mild_neg_lam_config
        grid = make_grid(config, 64, 64)
        state = e2.zonal_initial_state(config, grid)
        ring = config.lam * solve_fd_rho(config, grid.rho) - config.upsilon
        zeta = np.broadcast_to(ring[:, None], (64, 64)).copy()
        stream = (e2.bar_stream_values(zeta, config, grid) + config.psi2
                  + (state.lambda_circ / e2.harmonic_normalization(grid))
                  * e2.harmonic_profile(grid)[:, None])
        for got, want in ((state.zeta, zeta), (state.stream, stream)):
            assert got.shape == (64, 64) and got.strides[1] == 0
            assert got.tobytes() == want.tobytes()
            viewed = got
            while viewed is not None:
                assert not viewed.flags.writeable
                viewed = viewed.base
            with pytest.raises(ValueError):
                got.setflags(write=True)


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, mild_neg_lam_config, tmp_path):
        grid = make_grid(mild_neg_lam_config, 32, 16)
        state = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.02, 2, seed=9)
        path = tmp_path / "state.txt"
        e2.write_checkpoint(path, state)
        header, values = e2.read_checkpoint(path)
        assert list(header) == list(e2.CHECKPOINT_KEYS)
        assert np.array_equal(values, state.zeta)
        restored = e2.state_from_checkpoint(path, mild_neg_lam_config)
        assert restored.lambda_circ == state.lambda_circ
        assert restored.t == state.t

    def test_header_is_json(self, mild_config, tmp_path):
        grid = make_grid(mild_config, 32, 16)
        state = e2.zonal_initial_state(mild_config, grid)
        path = tmp_path / "state.txt"
        e2.write_checkpoint(path, state)
        with open(path, "rb") as fh:  # the payload after the header is binary
            header = json.loads(fh.readline())
        assert header["n_rho"] == 32 and header["n_phi"] == 16
        assert header["omega"] == mild_config.omega

    def test_config_mismatch_rejected(self, mild_config, tmp_path):
        grid = make_grid(mild_config, 32, 16)
        state = e2.zonal_initial_state(mild_config, grid)
        path = tmp_path / "state.txt"
        e2.write_checkpoint(path, state)
        other = BandConfig(psi1=-0.2, psi2=0.2, omega=3.0, upsilon=1.0)
        with pytest.raises(ValidationError):
            e2.state_from_checkpoint(path, other)


    @staticmethod
    def fail_payload_write(monkeypatch):
        """Make the next checkpoint's file fail after the header and 100
        payload bytes, as a full disk would."""
        real_open = open

        class FailingFile:
            def __init__(self, fh):
                self.fh, self.writes = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.writes += 1
                if self.writes > 1:
                    self.fh.write(bytes(memoryview(data).cast("B")[:100]))
                    raise OSError("disk full")
                return self.fh.write(data)

        monkeypatch.setattr(e2, "open", lambda *a: FailingFile(real_open(*a)),
                            raising=False)

    @staticmethod
    def fail_rename(monkeypatch):
        def failing(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(e2.os, "replace", failing)

    def test_failed_write_leaves_nothing(self, mild_config, tmp_path, monkeypatch):
        grid = make_grid(mild_config, 32, 16)
        state = e2.zonal_initial_state(mild_config, grid)
        path = tmp_path / "checkpoint_000001.txt"
        for inject in (self.fail_payload_write, self.fail_rename):
            with monkeypatch.context() as patch:
                inject(patch)
                with pytest.raises(OSError):
                    e2.write_checkpoint(path, state)
            assert not path.exists()
            assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_previous_file(self, mild_config, tmp_path, monkeypatch):
        grid = make_grid(mild_config, 32, 16)
        state = e2.zonal_initial_state(mild_config, grid)
        path = tmp_path / "state.txt"
        e2.write_checkpoint(path, state)
        before = path.read_bytes()
        later = dataclasses.replace(
            state, t=1.0, bar_stream=e2.bar_stream_values(state.zeta, mild_config, grid))
        for inject in (self.fail_payload_write, self.fail_rename):
            with monkeypatch.context() as patch:
                inject(patch)
                with pytest.raises(OSError):
                    e2.write_checkpoint(path, later)
            assert path.read_bytes() == before
            assert [p.name for p in tmp_path.iterdir()] == ["state.txt"]

    def test_bytes_match_per_value_format(self, mild_neg_lam_config, tmp_path):
        grid = make_grid(mild_neg_lam_config, 32, 16)
        perturbed = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.02, 2, seed=9)
        zeta = perturbed.zeta.copy()
        zeta[0, 0] = -0.0
        state = make_state(zeta, perturbed.lambda_circ, mild_neg_lam_config, grid)

        def per_value_writer(path, state):
            header = {"n_rho": grid.n_rho, "n_phi": grid.n_phi,
                      "theta1": state.config.theta1, "theta2": state.config.theta2,
                      "omega": state.config.omega, "t": state.t,
                      "lambda_circ": state.lambda_circ, "payload": "binary <f8 rows"}
            with open(path, "wb") as fh:
                fh.write(json.dumps(header).encode() + b"\n")
                for row in state.zeta:
                    for v in row:
                        fh.write(struct.pack("<d", float(v)))

        e2.write_checkpoint(tmp_path / "new.txt", state)
        per_value_writer(tmp_path / "old.txt", state)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()

    def test_roundtrip_keeps_special_values(self, mild_config, tmp_path):
        grid = make_grid(mild_config, 32, 16)
        zonal_state = e2.zonal_initial_state(mild_config, grid)
        specials = [-0.0, 5e-324, np.inf, -np.inf, np.nan, 1e300, -5e-324, -1e300]
        zeta = zonal_state.zeta.copy()
        zeta[3, :8] = specials
        zeta[-1, 8:] = specials[::-1]
        with np.errstate(invalid="ignore"):  # G xi of inf and nan is nan
            state = make_state(zeta, zonal_state.lambda_circ, mild_config, grid)
        path = tmp_path / "state.txt"
        e2.write_checkpoint(path, state)
        _, values = e2.read_checkpoint(path)
        assert values.tobytes() == state.zeta.tobytes()
        assert values.dtype == np.float64 and values.dtype.isnative
        assert values.shape == (32, 16) and values.flags.writeable

    @staticmethod
    def damaged(config, tmp_path, damage):
        """A 32 x 16 checkpoint rewritten as damage(header line, payload)."""
        grid = make_grid(config, 32, 16)
        path = tmp_path / "state.txt"
        e2.write_checkpoint(path, e2.zonal_initial_state(config, grid))
        header, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes(damage(header, payload))
        return path

    @staticmethod
    def base64_era(header, payload):
        """The same state as the base64 writer wrote it: one line per ring."""
        rings = [payload[i:i + 8 * 16] for i in range(0, len(payload), 8 * 16)]
        header = header.replace(b'"binary <f8 rows"', b'"base64 <f8 rows"')
        return b"".join(line + b"\n" for line in [header, *map(base64.b64encode, rings)])

    @pytest.mark.parametrize("damage, message", [
        (lambda h, p: h + b"\n" + p[:-8 * 16],
         "payload holds 3968 bytes, header says 32 x 16 float64 = 4096"),
        (lambda h, p: h + b"\n" + p[:-8], "payload holds 4088 bytes"),
        (lambda h, p: h.replace(b"<f8", b">f8") + b"\n" + p,
         "unknown checkpoint payload 'binary >f8 rows'"),
        (lambda h, p: h + b"\n" + p[:-1], "payload holds 4095 bytes"),
        (lambda h, p: h + b"\n" + p + b"\n", "payload holds 4097 bytes"),
        (base64_era, "unknown checkpoint payload 'base64 <f8 rows'"),
    ], ids=["missing_last_ring", "short_ring", "unknown_payload", "bad_padding",
            "trailing_byte", "base64_era"])
    def test_damaged_file_rejected(self, mild_config, tmp_path, damage, message):
        path = self.damaged(mild_config, tmp_path, damage)
        with pytest.raises(ValidationError, match=re.escape(message)):
            e2.read_checkpoint(path)

    @staticmethod
    def with_header(key, value):
        def damage(header, payload):
            fields = json.loads(header)
            fields[key] = value
            return json.dumps(fields).encode() + b"\n" + payload
        return damage

    @pytest.mark.parametrize("damage, message", [
        (with_header("n_phi", -8), "n_phi must be an int >= 1, got -8"),
        (with_header("n_rho", 0), "n_rho must be an int >= 1, got 0"),
        (with_header("n_phi", 10**15),
         "payload holds 4096 bytes, header says 32 x 1000000000000000 float64"),
        (with_header("n_phi", 8.5), "n_phi must be an int >= 1, got 8.5"),
        (with_header("n_phi", "8"), "n_phi must be an int >= 1, got '8'"),
        (with_header("n_rho", True), "n_rho must be an int >= 1, got True"),
        (with_header("t", "0.0"), "t must be a number, got '0.0'"),
        (with_header("lambda_circ", None), "lambda_circ must be a number, got None"),
        (with_header("omega", False), "omega must be a number, got False"),
        (lambda h, p: b"n_rho=32 n_phi=16\n" + p, "header is not JSON"),
        (lambda h, p: b"\xff" + h + b"\n" + p, "header is not JSON"),
        (lambda h, p: b"[32, 16]\n" + p, "header is not a JSON object"),
        (lambda h, p: b"", "header is not one line"),
        (lambda h, p: p[:8 * 16].replace(b"\n", b" ") * 64, "header is not one line"),
    ], ids=["negative", "zero", "huge", "float", "string", "bool", "t_string",
            "lambda_null", "omega_bool", "not_json", "not_utf8", "not_object", "empty",
            "no_newline"])
    def test_malformed_header_rejected_before_allocation(self, mild_config, tmp_path,
                                                          damage, message):
        path = self.damaged(mild_config, tmp_path, damage)
        with pytest.raises(ValidationError, match=re.escape(message)) as info:
            e2.read_checkpoint(path)
        assert cli._exit_code(info.value) == 1

    def test_decimal_checkpoint_rejected(self, mild_config, tmp_path):
        grid = make_grid(mild_config, 32, 16)
        state = e2.zonal_initial_state(mild_config, grid)
        header = {"n_rho": grid.n_rho, "n_phi": grid.n_phi,
                  "theta1": state.config.theta1, "theta2": state.config.theta2,
                  "omega": state.config.omega, "t": state.t,
                  "lambda_circ": state.lambda_circ}
        path = tmp_path / "decimal.txt"
        with open(path, "w", newline="") as fh:
            fh.write(json.dumps(header) + "\n")
            for row in state.zeta.tolist():
                fh.write(" ".join(map(repr, row)) + "\n")
        with pytest.raises(ValidationError, match=re.escape("header lacks keys ['payload']")):
            e2.read_checkpoint(path)

    def test_cli_checkpoints_hold_the_run_states(self, tmp_path):
        flags = {"mode": "evolve", "n_rho": "32", "n_phi": "32", "dt": "0.002",
                 "t_end": "0.01", "output_stride": "2", "amplitude": "0.02",
                 "seed": "3", "psi1": "-0.2", "psi2": "0.2", "omega": "2.0",
                 "upsilon": "1.0", "lambda": "-10"}
        out = tmp_path / "run"
        argv = [arg for key, text in flags.items()
                for arg in ("--" + key.replace("_", "-"), text)]
        assert cli.main(["--out", str(out), *argv]) == 0

        spec = cli.parse_config(None, {key: cli._convert(key, text, None)
                                       for key, text in flags.items()})
        grid = AnnulusGrid.from_band(spec.config, spec.n_rho, spec.n_phi)
        state = e2.perturbed_zonal_state(spec.config, grid, spec.amplitude,
                                         spec.wavenumber, spec.seed)
        states = list(e2.run(state, spec.t_end, spec.dt, spec.output_stride))
        ckpts = sorted((out / "checkpoints").glob("checkpoint_*.txt"))
        assert [p.name for p in ckpts] == [f"checkpoint_{i:06d}.txt"
                                           for i in range(len(states))]
        assert len(states) == 4
        for path, state in zip(ckpts, states):
            header, values = e2.read_checkpoint(path)
            assert values.tobytes() == state.zeta.tobytes()
            assert header["t"] == state.t
            assert header["lambda_circ"] == state.lambda_circ

    def test_readme_recipe_reads_cli_checkpoint(self, tmp_path, monkeypatch):
        """The README's numpy-only loader gives the CLI's initial state bit
        for bit."""
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        recipe = next(block for block in re.findall(r"```python\n(.*?)```", readme, re.S)
                      if "np.fromfile" in block)
        flags = {"mode": "evolve", "n_rho": "32", "n_phi": "24", "dt": "0.002",
                 "t_end": "0.002", "amplitude": "0.02", "seed": "3", "psi1": "-0.2",
                 "psi2": "0.2", "omega": "2.0", "upsilon": "1.0", "lambda": "-10"}
        argv = [arg for key, text in flags.items()
                for arg in ("--" + key.replace("_", "-"), text)]
        assert cli.main(["--out", str(tmp_path), *argv]) == 0

        spec = cli.parse_config(None, {key: cli._convert(key, text, None)
                                       for key, text in flags.items()})
        grid = AnnulusGrid.from_band(spec.config, spec.n_rho, spec.n_phi)
        state = e2.perturbed_zonal_state(spec.config, grid, spec.amplitude,
                                         spec.wavenumber, spec.seed)
        monkeypatch.chdir(tmp_path)
        scope = {"json": json, "np": np}
        exec(recipe, scope)
        assert scope["zeta"].tobytes() == state.zeta.tobytes()
        assert scope["header"] == e2.read_checkpoint(
            "checkpoints/checkpoint_000000.txt")[0]
        assert scope["header"]["lambda_circ"] == state.lambda_circ


class TestTransportBound:
    def test_max_xi_within_appendix_bound(self, mild_config):
        grid = make_grid(mild_config, 64, 64)
        state = e2.perturbed_zonal_state(mild_config, grid, 0.02, 3, seed=4)
        bound = e2.xi_bound(mild_config, state.zeta)
        targets = e2.circulation_targets(state)
        s = state
        for _ in range(60):
            s = e2.step(s, 2.5e-3, targets)
        assert s.max_xi() <= bound + 1e-10

    def test_bound_constants(self, mild_config):
        r1sq = mild_config.r1**2
        zeros = np.zeros((2, 2))
        expect_b = 8 * mild_config.omega * (1 - r1sq) / (1 + r1sq) ** 3
        assert e2.xi_bound(mild_config, zeros) == pytest.approx(expect_b, rel=1e-12)


class TestSignConvention:
    def test_zeta_is_minus_absolute_vorticity(self, mild_config):
        """Zonal oracle: psi = sin(theta) has Delta psi + 2w sin = (2w-2) sin."""
        errs = []
        for n in (64, 128):
            grid = make_grid(mild_config, n, n)
            th = grid.theta[:, None]
            psi_p = np.broadcast_to(np.sin(th), (n, n)).copy()
            a = alpha_of_rho(grid.rho)[:, None]
            b = beta_of_rho(grid.rho, mild_config.omega)[:, None]
            zeta = b - a * e2.laplacian_values(psi_p, grid)
            expect = -(2.0 * mild_config.omega - 2.0) * np.sin(th)
            errs.append(np.max(np.abs(zeta - expect)))
        assert errs[1] <= errs[0] / 3.0, f"sign-convention errors {errs}"

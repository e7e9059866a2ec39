"""Time-dependent solver: Poisson, harmonic field, transport, stepping."""

import json
import math

import numpy as np
import pytest

from accband.errors import CflViolation, ValidationError
from accband.geometry import BandConfig, alpha_of_rho, beta_of_rho
from accband.grids import AnnulusGrid, ScalarField
from accband import zonal
from accband.zonal import solve_closed_form_lambda0
import accband.euler2d as e2


def make_grid(config, n_rho=64, n_phi=64):
    return AnnulusGrid.from_band(config, n_rho, n_phi)


# ------------------------------------------------------------------
# References: the Poisson solve that factors on every call, and the
# interpolations by 2-D fancy indexing. The library must match them
# bit for bit.
# ------------------------------------------------------------------

def ref_poisson_values(source, grid):
    rhs_hat = np.fft.rfft(-np.exp(2.0 * grid.rho)[:, None] * source, axis=1)
    n = grid.n_rho
    h = grid.d_rho
    m = np.arange(rhs_hat.shape[1])
    off = np.full(n, 1.0 / h**2)
    diag = np.full((n, len(m)), -2.0 / h**2) - (m * m)[None, :]
    psi_hat = zonal._solve_pinned(off, diag, off, rhs_hat, 0.0, 0.0)
    return np.fft.irfft(psi_hat, n=grid.n_phi, axis=1)


def ref_bicubic_clipped(values, rho_f, phi_f, grid):
    x = (rho_f - grid.rho1) / grid.d_rho
    i0 = np.clip(np.floor(x).astype(int), 0, grid.n_rho - 2)
    tx = x - i0
    y = np.mod(phi_f, 2.0 * np.pi) / grid.d_phi
    j0 = np.floor(y).astype(int) % grid.n_phi
    ty = y - np.floor(y)
    rows = [np.clip(i0 + k, 0, grid.n_rho - 1) for k in (-1, 0, 1, 2)]
    cols = [(j0 + k) % grid.n_phi for k in (-1, 0, 1, 2)]
    wx = e2._cubic_weights(tx)
    wy = e2._cubic_weights(ty)
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


def ref_advect_values(zeta_values, w_rho, w_phi, dt, grid):
    rho_n, phi_n = grid.mesh()
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
        out = e2.poisson_solve(grid.zeros())
        assert np.max(np.abs(out.values)) == 0.0

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
        grid = make_grid(mild_config, *shape)
        for _ in range(2):  # the second solve reuses the factor
            src = rng.standard_normal(shape)
            assert np.array_equal(e2._poisson_values(src, grid),
                                  ref_poisson_values(src, grid))

    def test_factor_built_once_per_grid(self, mild_config, rng, monkeypatch):
        calls = []
        factor = zonal._thomas_factor

        def counting(*args):
            calls.append(1)
            return factor(*args)

        monkeypatch.setattr(zonal, "_thomas_factor", counting)
        grid = make_grid(mild_config, 48, 40)
        src = rng.standard_normal((48, 40))
        first = e2._poisson_values(src, grid)
        assert len(calls) == 1
        assert np.array_equal(e2._poisson_values(src, grid), first)
        assert len(calls) == 1

    def test_grids_do_not_share_a_factor(self, mild_config):
        a = make_grid(mild_config, 64, 64)
        b = make_grid(mild_config, 64, 63)
        _, piv_a, _, _ = a.poisson_factor
        _, piv_b, _, _ = b.poisson_factor
        assert piv_a.shape == (64, 33) and piv_b.shape == (64, 32)
        assert make_grid(mild_config, 64, 64).poisson_factor is not a.poisson_factor


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
        ustar, norm = e2.harmonic_component(grid)
        for row in (0, -1):
            r_wall = math.exp(grid.rho[row])
            circ = grid.d_phi * float(np.sum(ustar.u_phi[row] * r_wall))
            assert circ == pytest.approx(1.0, rel=1e-12)
        assert norm == pytest.approx(2 * math.pi / (grid.rho2 - grid.rho1), rel=1e-12)

    def test_orthogonal_to_green_flows(self, mild_config, rng):
        grid = make_grid(mild_config, 96, 96)
        src = e2._poisson_values(rng.standard_normal((96, 96)), grid)  # smooth field
        psi_bar = e2._poisson_values(src, grid)
        u_r, u_phi = e2.velocity_from_stream(psi_bar, grid)
        ustar, _ = e2.harmonic_component(grid)
        w = grid.radial_weights[:, None] * np.exp(2.0 * grid.rho)[:, None]

        def inner(ar, ap, br, bp):
            return grid.d_phi * float(np.sum(w * (ar * br + ap * bp)))

        cross = inner(u_r, u_phi, ustar.u_r, ustar.u_phi)
        norm = math.sqrt(inner(u_r, u_phi, u_r, u_phi)
                         * inner(ustar.u_r, ustar.u_phi, ustar.u_r, ustar.u_phi))
        assert abs(cross) <= 1e-4 * norm, f"relative inner product {cross / norm:.2e}"


class TestReconstruction:
    def test_rest_state(self, mild_config):
        grid = make_grid(mild_config)
        beta_field = np.broadcast_to(
            beta_of_rho(grid.rho, mild_config.omega)[:, None],
            (grid.n_rho, grid.n_phi),
        ).copy()
        state = e2.SimState(0.0, ScalarField(grid, beta_field), 0.0, mild_config, grid)
        vel = e2.reconstruct_velocity(state)
        assert np.max(np.abs(vel.u_r)) <= 1e-12
        assert np.max(np.abs(vel.u_phi)) <= 1e-12

    def test_zonal_velocity_against_closed_form(self, mild_config):
        errs = []
        for n in (64, 128):
            grid = make_grid(mild_config, n, 16)
            state = e2.zonal_initial_state(mild_config, grid)
            vel = e2.reconstruct_velocity(state)
            prof = solve_closed_form_lambda0(mild_config, 4097)
            u_interp = np.interp(grid.theta, prof.thetas, prof.u)
            # planar azimuthal component of a zonal spherical flow
            expect = (1.0 - np.sin(grid.theta)) * u_interp
            errs.append(np.max(np.abs(vel.u_phi - expect[:, None])))
        assert errs[1] <= errs[0] / 3.0, f"no O(h^2) decay: {errs}"

    def test_boundary_impermeability_and_divergence(self, mild_neg_lam_config):
        grid = make_grid(mild_neg_lam_config, 64, 64)
        state = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.05, 3, seed=2)
        vel = e2.reconstruct_velocity(state)
        scale = np.max(np.abs(vel.u_phi))
        assert np.max(np.abs(vel.u_r[0])) <= 1e-12 * scale
        assert np.max(np.abs(vel.u_r[-1])) <= 1e-12 * scale
        # discrete divergence with the same operators vanishes identically
        div = (
            np.exp(-2 * grid.rho)[:, None]
            * e2.drho(np.exp(grid.rho)[:, None] * vel.u_r, grid)
            + np.exp(-grid.rho)[:, None] * e2.dphi(vel.u_phi, grid)
        )
        assert np.max(np.abs(div)) <= 1e-9 * scale / grid.d_rho


class TestCirculationClosure:
    def test_lambda_matches_projection_of_initial_velocity(self, mild_config):
        grid = make_grid(mild_config, 128, 64)
        state = e2.zonal_initial_state(mild_config, grid)
        vel = e2.reconstruct_velocity(state)
        ustar, norm = e2.harmonic_component(grid)
        w = grid.radial_weights[:, None] * np.exp(2.0 * grid.rho)[:, None]
        inner = grid.d_phi * float(
            np.sum(w * (vel.u_r * ustar.u_r + vel.u_phi * ustar.u_phi))
        )
        assert inner * norm == pytest.approx(state.lambda_circ, rel=2e-4)

    def test_linil_response_to_scaling(self, mild_neg_lam_config):
        grid = make_grid(mild_neg_lam_config, 48, 48)
        config = mild_neg_lam_config
        state = e2.perturbed_zonal_state(config, grid, 0.02, 2, seed=3)
        targets = e2.circulation_targets(state)
        lam1, _ = e2.fix_circulation(state, targets)
        beta_field = beta_of_rho(grid.rho, config.omega)[:, None]
        doubled = e2.SimState(
            0.0,
            ScalarField(grid, beta_field + 2.0 * (state.zeta.values - beta_field)),
            state.lambda_circ, config, grid,
        )
        lam2, _ = e2.fix_circulation(doubled, (2 * targets[0], 2 * targets[1]))
        assert lam2 == pytest.approx(2.0 * lam1, rel=1e-12)

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
        rho_n, phi_n = grid.mesh()
        zeta = np.sin(3 * phi_n) * np.cosh(rho_n)
        out, clamps = e2.advect_values(zeta, np.zeros_like(zeta),
                                       np.zeros_like(zeta), 0.01, grid)
        assert clamps == 0
        assert np.max(np.abs(out - zeta)) <= 1e-12

    def test_solid_rotation_returns_pattern(self, mild_config):
        for n, n_steps in ((64, 200), (128, 400)):
            grid = make_grid(mild_config, n, n)
            rho_n, phi_n = grid.mesh()
            s = (rho_n - grid.rho1) / (grid.rho2 - grid.rho1)
            zeta0 = np.sin(phi_n) * (1.0 + 0.5 * s)
            sigma = 1.0
            w_phi = np.full_like(zeta0, sigma)
            w_rho = np.zeros_like(zeta0)
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
        """advect(state, U, dt) must transport along alpha*U: for the
        reconstructed velocity of a zonal state the field is unchanged."""
        grid = make_grid(mild_neg_lam_config, 64, 64)
        state = e2.zonal_initial_state(mild_neg_lam_config, grid)
        out = e2.advect(state, e2.reconstruct_velocity(state), 2e-3)
        assert np.max(np.abs(out.values - state.zeta.values)) <= 1e-12

    def test_cfl_violation_suggests_dt(self, mild_config):
        grid = make_grid(mild_config, 48, 48)
        zeta = np.ones((48, 48))
        w_phi = np.full_like(zeta, 10.0)
        with pytest.raises(CflViolation) as err:
            e2.advect_values(zeta, np.zeros_like(zeta), w_phi, 1.0, grid)
        assert 0.0 < err.value.suggested_dt < 1.0
        # the suggested step passes
        e2.advect_values(zeta, np.zeros_like(zeta), w_phi,
                         err.value.suggested_dt, grid)

    def test_tracer_reversibility_third_order(self, mild_config):
        """Exactly-interpolated setup isolates the midpoint tracer error."""
        grid = make_grid(mild_config, 128, 128)
        rho_n, phi_n = grid.mesh()
        s = (rho_n - grid.rho1) / (grid.rho2 - grid.rho1)
        zeta0 = 1.0 + s + 0.5 * s**2 - 0.3 * s**3  # cubic: interpolation exact
        w_rho = 0.01 + 0.03 * s                    # affine: velocity interp exact
        w_phi = 0.8 + 0.3 * s
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
        assert np.array_equal(e2._interp_bicubic_clipped(values, rho_f, phi_f, grid),
                              ref_bicubic_clipped(values, rho_f, phi_f, grid))

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
        got_u, got_v = e2._interp_bilinear_pair(u, v, rho_f, phi_f, grid)
        assert np.array_equal(got_u, ref_bilinear(u, rho_f, phi_f, grid))
        assert np.array_equal(got_v, ref_bilinear(v, rho_f, phi_f, grid))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_advect_matches_reference(self, mild_neg_lam_config, sign):
        grid = make_grid(mild_neg_lam_config, 48, 40)
        state = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.05, 3, seed=6)
        w_rho, w_phi = e2.advecting_velocity(e2.stream_of(state), grid)
        # an outward radial drift pushes foot points across a wall
        w_rho = w_rho + 0.2 * np.max(np.abs(w_phi)) * grid.d_rho / grid.d_phi
        dt = sign * 0.6 / e2.cfl_number(w_rho, w_phi, 1.0, grid)
        got, got_clamps = e2.advect_values(state.zeta.values, w_rho, w_phi, dt, grid)
        want, want_clamps = ref_advect_values(state.zeta.values, w_rho, w_phi, dt, grid)
        assert np.array_equal(got, want)
        assert got_clamps == want_clamps > 0


class TestStepAndRun:
    def test_zonal_state_is_discrete_fixed_point(self, mild_neg_lam_config):
        grid = make_grid(mild_neg_lam_config, 96, 96)
        state = e2.zonal_initial_state(mild_neg_lam_config, grid)
        targets = e2.circulation_targets(state)
        s = state
        for _ in range(20):
            s = e2.step(s, 3e-3, targets)
        rel = np.linalg.norm(s.zeta.values - state.zeta.values) / np.linalg.norm(
            state.zeta.values
        )
        assert rel <= 1e-12, f"zonal drift {rel:.2e}"

    def test_constant_zeta_remains_constant(self, mild_config):
        grid = make_grid(mild_config, 48, 48)
        zeta = ScalarField(grid, np.full((48, 48), 7.5))
        state = e2.SimState(0.0, zeta, 0.3, mild_config, grid)
        targets = e2.circulation_targets(state)
        s = e2.step(e2.step(state, 2e-3, targets), 2e-3, targets)
        assert np.max(np.abs(s.zeta.values - 7.5)) <= 1e-12

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
        assert np.array_equal(a.zeta.values, b.zeta.values)
        assert a.lambda_circ == b.lambda_circ

    def test_run_zero_horizon_returns_initial_only(self, mild_config, tmp_path):
        grid = make_grid(mild_config, 48, 48)
        state = e2.zonal_initial_state(mild_config, grid)
        states, records = e2.run(mild_config, grid, state.zeta, state.lambda_circ,
                                 t_end=0.0, dt=1e-3,
                                 csv_path=tmp_path / "diag.csv")
        assert len(states) == 1 and len(records) == 1
        header = (tmp_path / "diag.csv").read_text().splitlines()[0]
        assert header == ("t,energy,circ1,circ2,casimir2,casimir3,"
                          "stability_identity,max_xi,lambda_circ")

    def test_run_emits_rows_and_checkpoints(self, mild_config, tmp_path):
        grid = make_grid(mild_config, 48, 48)
        state = e2.zonal_initial_state(mild_config, grid)
        ckpt = tmp_path / "ckpts"
        ckpt.mkdir()
        states, records = e2.run(mild_config, grid, state.zeta, state.lambda_circ,
                                 t_end=0.01, dt=2e-3, output_stride=2,
                                 csv_path=tmp_path / "diag.csv",
                                 checkpoint_dir=str(ckpt))
        rows = (tmp_path / "diag.csv").read_text().splitlines()
        assert len(rows) == 1 + len(records)
        assert records[-1].t == pytest.approx(0.01)
        assert len(list(ckpt.glob("checkpoint_*.txt"))) == len(records)


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, mild_neg_lam_config, tmp_path):
        grid = make_grid(mild_neg_lam_config, 32, 16)
        state = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.02, 2, seed=9)
        path = tmp_path / "state.txt"
        e2.write_checkpoint(path, state)
        header, values = e2.read_checkpoint(path)
        assert list(header) == list(e2.CHECKPOINT_KEYS)
        assert np.array_equal(values, state.zeta.values)
        restored = e2.state_from_checkpoint(path, mild_neg_lam_config)
        assert restored.lambda_circ == state.lambda_circ
        assert restored.t == state.t

    def test_header_is_json(self, mild_config, tmp_path):
        grid = make_grid(mild_config, 32, 16)
        state = e2.zonal_initial_state(mild_config, grid)
        path = tmp_path / "state.txt"
        e2.write_checkpoint(path, state)
        with open(path) as fh:
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


    def test_failed_write_leaves_nothing(self, mild_config, tmp_path, monkeypatch):
        grid = make_grid(mild_config, 32, 16)
        state = e2.zonal_initial_state(mild_config, grid)
        path = tmp_path / "checkpoint_000001.txt"
        row = e2._checkpoint_row
        rows_written = []

        def failing(values):
            if len(rows_written) == 5:
                raise OSError("disk full")
            rows_written.append(1)
            return row(values)

        monkeypatch.setattr(e2, "_checkpoint_row", failing)
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

        def failing(values):
            raise OSError("disk full")

        monkeypatch.setattr(e2, "_checkpoint_row", failing)
        with pytest.raises(OSError):
            e2.write_checkpoint(path, state)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["state.txt"]

    def test_bytes_match_per_value_format(self, mild_neg_lam_config, tmp_path):
        grid = make_grid(mild_neg_lam_config, 32, 16)
        state = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.02, 2, seed=9)
        state.zeta.values[0, 0] = -0.0

        def per_value_writer(path, state):
            header = {"n_rho": grid.n_rho, "n_phi": grid.n_phi,
                      "theta1": state.config.theta1, "theta2": state.config.theta2,
                      "omega": state.config.omega, "t": state.t,
                      "lambda_circ": state.lambda_circ}
            with open(path, "w", newline="") as fh:
                fh.write(json.dumps(header) + "\n")
                for row in state.zeta.values:
                    fh.write(" ".join(repr(float(v)) for v in row) + "\n")

        e2.write_checkpoint(tmp_path / "new.txt", state)
        per_value_writer(tmp_path / "old.txt", state)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()


class TestTransportBound:
    def test_max_xi_within_appendix_bound(self, mild_config):
        grid = make_grid(mild_config, 64, 64)
        state = e2.perturbed_zonal_state(mild_config, grid, 0.02, 3, seed=4)
        bound = e2.xi_bound(mild_config, state.zeta.values)
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

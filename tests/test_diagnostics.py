"""Conserved quantities, the Lyapunov functional, and its variations."""

import math
from dataclasses import replace

import numpy as np
import pytest

from accband.errors import GridMismatch, NumericalError, ValidationError
from accband.geometry import alpha_of_rho, beta_of_rho, integral_dsigma
from accband.grids import AnnulusGrid
from accband import cli
from accband.zonal import solve_fd, solve_fd_rho
import accband.diagnostics as dg
import accband.euler2d as e2

from oracles import band_area, harmonic_component, velocity_from_stream


def make_state(zeta, lambda_circ, config, grid):
    """A t = 0 state of zeta, with its G xi solved as every builder does."""
    return e2.SimState(0.0, zeta, lambda_circ, config, grid,
                       e2.bar_stream_values(zeta, config, grid))


def state_from_stream(psi_1d, grid, config):
    """State whose reconstructed velocity is exactly perp-grad(psi_1d)."""
    a = alpha_of_rho(grid.rho)[:, None]
    b = beta_of_rho(grid.rho, config.omega)[:, None]
    psi2d = np.broadcast_to(psi_1d[:, None], (grid.n_rho, grid.n_phi)).copy()
    zeta = b - a * e2.laplacian_values(psi2d, grid)
    lam_c = (psi_1d[0] - psi_1d[-1]) * e2.harmonic_normalization(grid)
    return make_state(zeta, lam_c, config, grid)


def record_of(state):
    """record's reduction of a state, the state its own reference."""
    return dg.record(state, reference=state)


def energy_zonal_profile(profile) -> float:
    """1-D oracle: pi int u(theta)^2 cos(theta) dtheta."""
    return math.pi * float(
        np.trapezoid(profile.u**2 * np.cos(profile.thetas), profile.thetas)
    )


def en_functional(state, n):
    """The lam = 0 conserved family: int [-ups (n+1)/n s^n + s^(n+1)] dsigma."""
    ups = state.config.upsilon
    s = dg.absolute_vorticity(state)
    return integral_dsigma(-ups * (n + 1) / n * s**n + s ** (n + 1), state.grid)


class TestEnergy:
    def test_rest_state_zero(self, mild_config):
        grid = AnnulusGrid.from_band(mild_config, 64, 16)
        beta_field = np.broadcast_to(
            beta_of_rho(grid.rho, mild_config.omega)[:, None], (64, 16)
        ).copy()
        state = make_state(beta_field, 0.0, mild_config, grid)
        assert record_of(state).energy <= 1e-20

    def test_unit_zonal_velocity(self, mild_config):
        grid = AnnulusGrid.from_band(mild_config, 96, 16)
        state = state_from_stream(-grid.theta, grid, mild_config)
        exact = math.pi * (math.sin(mild_config.theta2) - math.sin(mild_config.theta1))
        assert record_of(state).energy == pytest.approx(exact, rel=1e-5)

    def test_two_dimensional_matches_one_dimensional_quadrature(self, mild_config):
        grid = AnnulusGrid.from_band(mild_config, 1025, 8)
        state = e2.zonal_initial_state(mild_config, grid)
        oracle = energy_zonal_profile(solve_fd(mild_config, 16385))
        assert record_of(state).energy == pytest.approx(oracle, rel=1e-6)


class TestCirculations:
    def test_unit_velocity_on_both_walls(self, mild_config):
        grid = AnnulusGrid.from_band(mild_config, 96, 16)
        state = state_from_stream(-grid.theta, grid, mild_config)
        rec = record_of(state)
        c1, c2 = rec.circ1, rec.circ2
        assert c1 == pytest.approx(-2 * math.pi, abs=2e-5)
        assert c2 == pytest.approx(-2 * math.pi, abs=2e-5)

    def test_zonal_state_wall_velocities(self, mild_config):
        grid = AnnulusGrid.from_band(mild_config, 128, 16)
        state = e2.zonal_initial_state(mild_config, grid)
        prof = solve_fd(mild_config, 8193)
        rec = record_of(state)
        c1, c2 = rec.circ1, rec.circ2
        assert c1 == pytest.approx(-2 * math.pi * prof.u[0], rel=1e-4)
        assert c2 == pytest.approx(-2 * math.pi * prof.u[-1], rel=1e-4)

    def test_short_run_conservation(self, mild_neg_lam_config):
        grid = AnnulusGrid.from_band(mild_neg_lam_config, 64, 64)
        state = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.01, 3, seed=6)
        targets = e2.circulation_targets(state)
        rec_0 = record_of(state)
        s = state
        for _ in range(50):
            s = e2.step(s, 2.5e-3, targets)
        rec_t = record_of(s)
        c1_0, c2_0, c1_t, c2_t = rec_0.circ1, rec_0.circ2, rec_t.circ1, rec_t.circ2
        assert abs(c1_t - c1_0) <= 1e-8 * abs(c1_0)
        assert abs(c2_t - c2_0) <= 1e-4 * abs(c2_0)


class TestCasimirs:
    def test_constant_moment_is_band_area(self, mild_config):
        grid = AnnulusGrid.from_band(mild_config, 256, 16)
        state = e2.zonal_initial_state(mild_config, grid)
        assert dg.casimir(state, 0) == pytest.approx(band_area(mild_config), rel=1e-6)

    def test_first_moment_one_dimensional_oracle(self, mild_neg_lam_config):
        config = mild_neg_lam_config
        grid = AnnulusGrid.from_band(config, 1025, 8)
        state = e2.zonal_initial_state(config, grid)
        prof = solve_fd(config, 8193)
        s1d = config.upsilon - config.lam * prof.psi
        oracle = 2 * math.pi * np.trapezoid(s1d * np.cos(prof.thetas), prof.thetas)
        assert dg.casimir(state, 1) == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("k", range(7))
    def test_power_moment_matches_pow(self, mild_config, k):
        """Power moments multiply repeatedly; pow is the reference."""
        grid = AnnulusGrid.from_band(mild_config, 64, 32)
        state = e2.perturbed_zonal_state(mild_config, grid, 0.02, 3, seed=8)
        want = integral_dsigma(dg.absolute_vorticity(state) ** k, grid)
        assert dg.casimir(state, k) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_moment_power_validated(self, mild_config):
        grid = AnnulusGrid.from_band(mild_config, 64, 16)
        state = e2.zonal_initial_state(mild_config, grid)
        with pytest.raises(ValidationError):
            dg.casimir(state, 9)


class TestEnFamily:
    def test_zero_absolute_vorticity_gives_zero(self, mild_config):
        grid = AnnulusGrid.from_band(mild_config, 64, 16)
        state = make_state(np.zeros((64, 16)), 0.0, mild_config, grid)
        assert en_functional(state, 2) == pytest.approx(0.0, abs=1e-15)

    def test_e1_is_casimir_combination(self, mild_config):
        grid = AnnulusGrid.from_band(mild_config, 96, 48)
        state = e2.perturbed_zonal_state(mild_config, grid, 0.02, 3, seed=1)
        e1 = en_functional(state, 1)
        alt = dg.casimir(state, 2) - 2 * mild_config.upsilon * dg.casimir(state, 1)
        assert e1 == pytest.approx(alt, rel=1e-12)

    def test_drift_small_on_lambda0_run(self, mild_config):
        grid = AnnulusGrid.from_band(mild_config, 64, 64)
        state = e2.perturbed_zonal_state(mild_config, grid, 0.01, 3, seed=2)
        targets = e2.circulation_targets(state)
        before = en_functional(state, 2)
        s = state
        for _ in range(40):
            s = e2.step(s, 2.5e-3, targets)
        after = en_functional(s, 2)
        assert abs(after - before) <= 2e-2 * abs(before)


class TestLyapunov:
    def test_state_and_stream_paths_agree(self, mild_neg_lam_config):
        grid = AnnulusGrid.from_band(mild_neg_lam_config, 96, 32)
        psi_1d = solve_fd_rho(mild_neg_lam_config, grid.rho)
        state = state_from_stream(psi_1d, grid, mild_neg_lam_config)
        psi2d = np.broadcast_to(psi_1d[:, None], (96, 32)).copy()
        from_state = record_of(state).lyapunov
        from_stream = dg.lyapunov_of_stream(psi2d, mild_neg_lam_config, grid)
        assert from_state == pytest.approx(from_stream, rel=1e-10)

    def test_critical_stream_matches_fd_solution(self, mild_neg_lam_config):
        errs = []
        for n in (65, 129):
            grid = AnnulusGrid.from_band(mild_neg_lam_config, n, 8)
            crit = dg.zonal_critical_stream(mild_neg_lam_config, grid).astype(float)
            errs.append(np.max(np.abs(crit - solve_fd_rho(mild_neg_lam_config,
                                                          grid.rho))))
        assert errs[1] <= errs[0] / 3.0, f"critical-point errors {errs}"

    def test_first_variation_vanishes(self, mild_neg_lam_config, rng):
        config = mild_neg_lam_config
        grid = AnnulusGrid.from_band(config, 129, 64)
        psi_star = dg.zonal_critical_stream(config, grid)
        psi2d = np.broadcast_to(psi_star[:, None], (129, 64)).astype(np.longdouble)
        sb = (grid.rho - grid.rho1) / (grid.rho2 - grid.rho1)
        bump = np.sin(math.pi * sb) ** 2
        xi = bump[:, None] * (
            rng.standard_normal()
            + rng.standard_normal() * np.cos(2 * grid.phi + rng.uniform(0, 2 * math.pi))
        )
        xi = xi.astype(np.longdouble)
        d2e = float(
            dg.lyapunov_of_stream(psi2d + 1e-2 * xi, config, grid)
            - 2 * dg.lyapunov_of_stream(psi2d, config, grid)
            + dg.lyapunov_of_stream(psi2d - 1e-2 * xi, config, grid)
        ) / 1e-4
        for s_eps in (1e-1, 1e-2, 1e-3, 1e-4):
            plus = dg.lyapunov_of_stream(psi2d + s_eps * xi, config, grid)
            minus = dg.lyapunov_of_stream(psi2d - s_eps * xi, config, grid)
            cd = float((plus - minus) / (2 * s_eps))
            assert abs(cd) <= 1e-3 * (1.0 + abs(d2e)) * s_eps**2, (
                f"first variation {cd:.2e} at s={s_eps}"
            )

    def test_second_difference_matches_quadrature(self, mild_neg_lam_config, rng):
        config = mild_neg_lam_config
        grid = AnnulusGrid.from_band(config, 129, 64)
        psi_star = dg.zonal_critical_stream(config, grid).astype(float)
        psi2d = np.broadcast_to(psi_star[:, None], (129, 64)).copy()
        sb = (grid.rho - grid.rho1) / (grid.rho2 - grid.rho1)
        xi = (np.sin(math.pi * sb) ** 2)[:, None] * np.cos(3 * grid.phi)[None, :]
        e0 = dg.lyapunov_of_stream(psi2d, config, grid)
        s_eps = 1e-2
        second = (
            dg.lyapunov_of_stream(psi2d + s_eps * xi, config, grid)
            - 2 * e0
            + dg.lyapunov_of_stream(psi2d - s_eps * xi, config, grid)
        ) / s_eps**2
        a = alpha_of_rho(grid.rho)[:, None]
        direct = -config.lam * dg.integral_flat(
            dg.grad_square_flat(xi, grid), grid
        ) + dg.integral_dsigma((a * e2.laplacian_values(xi, grid)) ** 2, grid)
        assert second == pytest.approx(direct, rel=1e-6)

    def test_constant_shift_identity(self, mild_neg_lam_config):
        """Shifting psi and its boundary data changes E only through the
        boundary-circulation terms: dE = lam * c * (circ1 - circ2)."""
        config = mild_neg_lam_config
        grid = AnnulusGrid.from_band(config, 129, 64)
        psi_star = dg.zonal_critical_stream(config, grid).astype(float)
        sb = (grid.rho - grid.rho1) / (grid.rho2 - grid.rho1)
        psi2d = np.broadcast_to(psi_star[:, None], (129, 64)).copy()
        psi2d += 0.1 * (np.sin(math.pi * sb) ** 2)[:, None] * np.cos(2 * grid.phi)
        shift = 0.37
        shifted_config = replace(config, psi1=config.psi1 + shift,
                                 psi2=config.psi2 + shift)
        c1p, c2p = e2.boundary_circulations(psi2d, grid)
        predicted = config.lam * shift * (c1p - c2p)
        measured = (
            dg.lyapunov_of_stream(psi2d + shift, shifted_config, grid)
            - dg.lyapunov_of_stream(psi2d, config, grid)
        )
        assert measured == pytest.approx(predicted, abs=1e-9 * max(1, abs(predicted)))

    def test_conserved_along_short_run(self, mild_neg_lam_config):
        grid = AnnulusGrid.from_band(mild_neg_lam_config, 64, 64)
        state = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.01, 3, seed=3)
        targets = e2.circulation_targets(state)
        before = record_of(state).lyapunov
        s = state
        for _ in range(40):
            s = e2.step(s, 2.5e-3, targets)
        assert abs(record_of(s).lyapunov - before) <= 2e-2 * abs(before)


class TestStabilityIdentity:
    def test_defect_zero_at_t0(self, mild_neg_lam_config):
        """A run's summary takes the identity's rhs from its t = 0 record,
        so a run that ends where it starts has no defect at all."""
        grid = AnnulusGrid.from_band(mild_neg_lam_config, 64, 64)
        ref = e2.zonal_initial_state(mild_neg_lam_config, grid)
        state = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.01, 3, seed=5)
        rec = dg.record(state, reference=ref)
        identity = dg.summary(rec, rec, 1, rec.max_xi)["stability"]
        assert identity["lhs_final"] == identity["rhs"] == dg.stability_lhs(state, ref)
        assert identity["defect"] == 0.0

    def test_unperturbed_reference_gives_zero(self, mild_neg_lam_config):
        grid = AnnulusGrid.from_band(mild_neg_lam_config, 64, 64)
        ref = e2.zonal_initial_state(mild_neg_lam_config, grid)
        assert dg.stability_lhs(ref, ref) == 0.0

    def test_defect_agrees_with_lyapunov_route(self, mild_neg_lam_config):
        """lhs(t) - lhs(0) must equal 2(E(t) - E(0)) up to quadrature terms."""
        config = mild_neg_lam_config
        grid = AnnulusGrid.from_band(config, 96, 96)
        ref = e2.zonal_initial_state(config, grid)
        state0 = e2.perturbed_zonal_state(config, grid, 0.01, 3, seed=7)
        targets = e2.circulation_targets(state0)
        s = state0
        for _ in range(40):
            s = e2.step(s, 2e-3, targets)
        defect_direct = dg.stability_lhs(s, ref) - dg.stability_lhs(state0, ref)
        defect_energy = 2.0 * (record_of(s).lyapunov - record_of(state0).lyapunov)
        scale = abs(dg.stability_lhs(state0, ref))
        # the two routes differ by discrete integration-by-parts terms of
        # quadrature size O(h^2); measured constant is ~4, bound with 20
        assert abs(defect_direct - defect_energy) <= 20 * grid.d_rho**2 * max(1.0, scale)

    def test_reference_on_another_grid_rejected(self, mild_neg_lam_config, capsys):
        """Both evaluation paths refuse a reference of another shape or band,
        and the CLI reports that as a numerical failure."""
        config = mild_neg_lam_config
        state = e2.perturbed_zonal_state(config, AnnulusGrid.from_band(config, 48, 48),
                                         0.01, 3, seed=5)
        other_band = replace(config, theta2=config.theta2 + 0.05)
        for ref_config, shape in ((config, (48, 40)), (config, (40, 48)),
                                  (other_band, (48, 48))):
            ref = e2.zonal_initial_state(ref_config,
                                         AnnulusGrid.from_band(ref_config, *shape))
            for evaluate in (dg.stability_lhs, lambda s, r: dg.record(s, reference=r)):
                with pytest.raises(GridMismatch) as err:
                    evaluate(state, ref)
                assert cli._exit_code(err.value) == 2
        assert "numerical failure: state and reference live on different grids" in (
            capsys.readouterr().err)


def harmonic_ode_coefficients(state) -> dict:
    """Quadratures of the harmonic-coefficient ODE.

    The time-dependent construction evolves the harmonic coefficient by
    a quadratic ODE; in the decomposition-consistent normalization it
    reads lambda' = -N (gamma1 + gamma2 lambda). With U* purely azimuthal
    and grad(alpha) radial most of the quadratures drop, leaving (u_r,
    u_phi the Green-part velocity, c the azimuthal U* profile):

      gamma1 = int c u_r (2 u_phi W + beta) dA,
      gamma2 = int c^2 u_r W dA,          W = (1+r^2)(1-r^2)/(4r),

    and gamma2 vanishes identically on the annulus (the ring average of
    u_r is exactly zero). The library's algebraic circulation closure
    reproduces the same lambda(t) without integrating this ODE, so the
    ODE is an independent oracle for it.
    """
    grid = state.grid
    config = state.config
    c, norm = harmonic_component(grid)
    psi_bar = (state.stream - config.psi2
               - (state.lambda_circ / norm) * e2.harmonic_profile(grid)[:, None])
    u_r, u_phi = velocity_from_stream(psi_bar, grid)
    r = np.exp(grid.rho)[:, None]
    w_geom = (1.0 + r**2) * (1.0 - r**2) / (4.0 * r)
    b = beta_of_rho(grid.rho, config.omega)[:, None]
    area = grid.radial_weights[:, None] * np.exp(2.0 * grid.rho)[:, None] * grid.d_phi
    gamma1 = float(np.sum(area * c * u_r * (2.0 * u_phi * w_geom + b)))
    gamma2 = float(np.sum(area * c**2 * u_r * w_geom))
    return {
        "gamma1": gamma1,
        "gamma2": gamma2,
        "predicted_lambda_rate": -norm * (gamma1 + gamma2 * state.lambda_circ),
    }


def harmonic_ode_residual(prev, mid, nxt) -> float:
    """Observed minus predicted lambda rate, centered at the middle state."""
    lam_dot = (nxt.lambda_circ - prev.lambda_circ) / (nxt.t - prev.t)
    return lam_dot - harmonic_ode_coefficients(mid)["predicted_lambda_rate"]


class TestHarmonicOde:
    def make_tilted_state(self, config, grid):
        """Spirally tilted perturbation: nonzero radial momentum flux."""
        base = e2.zonal_initial_state(config, grid)
        sb = (grid.rho - grid.rho1) / (grid.rho2 - grid.rho1)
        bump = np.sin(math.pi * sb) ** 2
        dpsi = 0.003 * bump[:, None] * np.cos(
            3 * grid.phi[None, :] + 8.0 * sb[:, None]
        )
        a = alpha_of_rho(grid.rho)[:, None]
        zeta = base.zeta - a * e2.laplacian_values(dpsi, grid)
        state = make_state(zeta, base.lambda_circ, config, grid)
        targets = e2.circulation_targets(state)
        bar = e2.bar_stream_values(zeta, config, grid)
        lam, _ = e2.fix_circulation(bar, grid, targets)
        return replace(state, lambda_circ=lam, bar_stream=bar), targets

    def test_gamma2_vanishes_on_annulus(self, mild_neg_lam_config):
        grid = AnnulusGrid.from_band(mild_neg_lam_config, 96, 96)
        state, _ = self.make_tilted_state(mild_neg_lam_config, grid)
        out = harmonic_ode_coefficients(state)
        assert abs(out["gamma2"]) <= 1e-14 * max(1.0, abs(out["gamma1"]))

    def test_predicted_rate_converges_to_observed(self, mild_neg_lam_config):
        """lambda' = -N(gamma1 + gamma2 lambda), checked against the run."""
        residuals = []
        for n in (96, 192):
            grid = AnnulusGrid.from_band(mild_neg_lam_config, n, n)
            state, targets = self.make_tilted_state(mild_neg_lam_config, grid)
            dt = 1e-3 / (n // 96)
            mid = e2.step(state, dt, targets)
            nxt = e2.step(mid, dt, targets)
            res = harmonic_ode_residual(state, mid, nxt)
            rate = harmonic_ode_coefficients(mid)["predicted_lambda_rate"]
            residuals.append(abs(res) / abs(rate))
        assert residuals[1] <= residuals[0] / 2.5, f"no decay: {residuals}"
        assert residuals[1] <= 0.1


class TestRecord:
    def test_csv_row_shape_and_determinism(self, mild_neg_lam_config):
        grid = AnnulusGrid.from_band(mild_neg_lam_config, 48, 48)
        ref = e2.zonal_initial_state(mild_neg_lam_config, grid)
        state = e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.01, 2, seed=1)
        rec = dg.record(state, reference=ref)
        row = rec.csv_row()
        assert len(row.split(",")) == len(dg.CSV_HEADER.split(","))
        assert rec.csv_row() == row
        parsed = [float(cell) for cell in row.split(",")]
        assert all(math.isfinite(v) for v in parsed)

    def test_reference_stream_formed_once(self, mild_neg_lam_config, monkeypatch):
        """Each stream is formed once, when its state is built, so records
        solve no Poisson problem, and their values are unchanged by it."""
        grid = AnnulusGrid.from_band(mild_neg_lam_config, 48, 48)
        ref = e2.zonal_initial_state(mild_neg_lam_config, grid)
        states = [e2.perturbed_zonal_state(mild_neg_lam_config, grid, 0.01, 2, seed=s)
                  for s in (1, 2, 3)]
        fresh = replace(ref, bar_stream=e2.bar_stream_values(ref.zeta, ref.config, grid))
        want = [dg.record(s, reference=fresh).csv_row() for s in states]

        def no_solve(*args):
            raise AssertionError("record solved a Poisson problem")

        monkeypatch.setattr(e2, "_poisson_values", no_solve)
        got = [dg.record(s, reference=ref).csv_row() for s in states]
        assert got == want
        assert not ref.stream.flags.writeable

    def test_non_finite_stability_lhs_raises(self, mild_neg_lam_config, monkeypatch):
        grid = AnnulusGrid.from_band(mild_neg_lam_config, 16, 16)
        ref = e2.zonal_initial_state(mild_neg_lam_config, grid)
        monkeypatch.setattr(dg, "stability_lhs", lambda *args: math.inf)
        with pytest.raises(NumericalError, match="non-finite"):
            dg.record(ref, reference=ref)

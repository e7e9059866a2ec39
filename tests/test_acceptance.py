"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. Dynamics criteria (5-7) use a desk-scale scenario (omega = 2,
upsilon = 1, psi = -/+ 0.2 on the default band); the analytic criteria
(1-4, 9) use the headline parameter set (omega = 4650, upsilon = 30000,
lambda = -3000 where relevant).
"""

import math
import time
from dataclasses import replace

import numpy as np

from accband.cli import main as cli_main
from accband.geometry import BandConfig, alpha_of_rho
from accband.grids import AnnulusGrid
from accband.sturm_liouville import (
    count_sign_changes,
    eigen_solve,
    prufer_eigenvalues,
    rayleigh_quotient,
)
from accband.zonal import (
    band_problem,
    closed_form_residual,
    solve_closed_form_lambda0,
    solve_fd,
    solve_picard,
)
import accband.diagnostics as dg
import accband.euler2d as e2

HEADLINE = BandConfig(lam=0.0, upsilon=30000.0)            # omega=4650 default
MILD = BandConfig(psi1=-0.2, psi2=0.2, omega=2.0, lam=0.0, upsilon=1.0)
MILD_NEG = replace(MILD, lam=-10.0)
SEED = 20260808
ROUNDOFF_FLOOR = 1e-9  # drifts below this count as (vacuously) order-2


def report(num, ok, detail):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def order2_ok(coarse, fine, ratio_min=3.5, floor=ROUNDOFF_FLOOR):
    """Order-2 decrease, with exact-preservation (round-off) accepted."""
    if coarse <= floor and fine <= floor:
        return True
    return fine > 0 and coarse / fine >= ratio_min


def dt_for_cfl(state, cfl_target):
    w_rho, w_phi = e2.advecting_velocity(e2.stream_of(state), state.grid)
    return cfl_target / e2.cfl_number(w_rho, w_phi, 1.0, state.grid)


def evolve(state, t_end, dt, record_stride=10):
    """March to t_end; returns the final state and a diagnostic record of
    every output state of e2.run at record_stride, with the initial state
    as the stability reference."""
    records = []
    for s in e2.run(state, t_end, dt, record_stride):
        records.append(dg.record(s, reference=state))
    return s, records


class TestAcceptance:
    def test_criterion_01_closed_form_residual(self):
        start = time.perf_counter()
        thetas = np.linspace(HEADLINE.theta1, HEADLINE.theta2, 1000)
        residual = np.max(np.abs(closed_form_residual(HEADLINE, thetas)))
        elapsed = time.perf_counter() - start
        ok = residual <= 1e-9 and elapsed < 0.1
        report(1, ok, f"closed-form residual {residual:.2e} <= 1e-9 "
                      f"(lam=0, ups=30000, omega=4650; {elapsed:.3f} s)")

    def test_criterion_02_method_cross_agreement(self):
        start = time.perf_counter()
        errors = []
        for n in (64, 128, 256, 512):
            fd = solve_fd(HEADLINE, n)
            cf = solve_closed_form_lambda0(HEADLINE, n)
            errors.append(float(np.max(np.abs(fd.psi - cf.psi))))
        ratios = [errors[i] / errors[i + 1] for i in range(3)]
        ratios_ok = all(3.5 <= r <= 4.5 for r in ratios)

        contraction = BandConfig(psi1=0.0, psi2=1.0, omega=1.0, lam=1.0,
                                 upsilon=0.0)
        assert contraction.r2 / contraction.r1 <= math.exp(2.0 ** -0.5)
        pic = solve_picard(contraction, n=8193, tol=1e-12)
        fd = solve_fd(contraction, n=8193)
        from scipy.interpolate import CubicSpline

        resampled = CubicSpline(pic.thetas, pic.psi)(fd.thetas)
        picard_err = float(np.max(np.abs(resampled - fd.psi)))
        elapsed = time.perf_counter() - start
        ok = ratios_ok and picard_err <= 1e-8 and elapsed < 1.0
        report(2, ok, f"FD-vs-closed-form ratios {[f'{r:.2f}' for r in ratios]} "
                      f"in [3.5,4.5]; Picard-vs-FD {picard_err:.2e} <= 1e-8 "
                      f"({elapsed:.2f} s)")

    def test_criterion_03_spectrum_validity(self):
        start = time.perf_counter()
        config = BandConfig()
        prob = band_problem(config.theta1, config.theta2)
        spectrum = eigen_solve(prob, n_max=5, grid_size=8193)
        oracle = prufer_eigenvalues(prob, n_max=5, guesses=spectrum.eigenvalues)
        rel = float(np.max(np.abs(spectrum.eigenvalues - oracle) / np.abs(oracle)))

        signs_ok = all(
            count_sign_changes(spectrum.eigenfunctions[k][1:-1]) == k
            for k in range(5)
        )
        rayleigh_rel = max(
            abs(rayleigh_quotient(prob, spectrum.eigenfunctions[k], spectrum.grid)
                - spectrum.eigenvalues[k]) / spectrum.eigenvalues[k]
            for k in range(5)
        )
        elapsed = time.perf_counter() - start
        ok = rel <= 1e-6 and signs_ok and rayleigh_rel <= 1e-6 and elapsed < 2.0
        report(3, ok, f"matrix-vs-Pruefer rel {rel:.2e} <= 1e-6; "
                      f"sign changes exact; Rayleigh rel {rayleigh_rel:.2e} <= 1e-6 "
                      f"({elapsed:.2f} s)")

    def test_criterion_04_poisson_manufactured(self):
        start = time.perf_counter()
        r1, r2 = MILD.r1, MILD.r2
        errs = []
        for n in (128, 256):
            grid = AnnulusGrid.from_band(MILD, n, n)
            r = np.exp(grid.rho)[:, None]
            sinphi = np.sin(grid.phi)[None, :]
            exact = (r - r1) * (r2 - r) * sinphi
            src = (3.0 - r1 * r2 / r**2) * sinphi
            errs.append(float(np.max(np.abs(e2._poisson_values(src, grid) - exact))))
        ratio = errs[0] / errs[1]
        elapsed = time.perf_counter() - start
        ok = 3.5 <= ratio <= 4.5 and elapsed < 5.0
        report(4, ok, f"manufactured-solution ratio {ratio:.2f} in [3.5,4.5] "
                      f"(errors {errs[0]:.2e} -> {errs[1]:.2e}; {elapsed:.2f} s)")

    def test_criterion_05_steady_state_fidelity(self):
        start = time.perf_counter()
        drifts = []
        for n in (128, 256):
            grid = AnnulusGrid.from_band(MILD, n, n)
            state = e2.zonal_initial_state(MILD, grid)
            dt = dt_for_cfl(state, 0.5) / (n // 128)
            final, _ = evolve(state, t_end=0.5, dt=dt, record_stride=10 ** 9)
            drifts.append(
                float(np.linalg.norm(final.zeta - state.zeta)
                      / np.linalg.norm(state.zeta))
            )
        elapsed = time.perf_counter() - start
        ok = drifts[0] <= 1e-3 and order2_ok(drifts[0], drifts[1]) and elapsed < 60.0
        report(5, ok, f"zonal L2 drift {drifts[0]:.2e} <= 1e-3 at 128^2; refined "
                      f"{drifts[1]:.2e} (order-2 or round-off floor; {elapsed:.1f} s)")

    def test_criterion_06_conservation_suite(self):
        start = time.perf_counter()
        quantities = ("energy", "circ1", "circ2", "casimir2", "casimir3")
        drifts = {q: [] for q in quantities}
        xi_ok = True
        for n in (128, 256):
            grid = AnnulusGrid.from_band(MILD, n, n)
            state = e2.perturbed_zonal_state(MILD, grid, 0.01, 3, seed=SEED)
            bound = e2.xi_bound(MILD, state.zeta)
            dt = dt_for_cfl(state, 0.5) / (n // 128)
            _, records = evolve(state, t_end=0.5, dt=dt)
            first, last = records[0], records[-1]

            def rel_drift(get):
                a, b = get(first), get(last)
                return abs(b - a) / max(1e-30, abs(a))

            drifts["energy"].append(rel_drift(lambda r: r.energy))
            drifts["circ1"].append(rel_drift(lambda r: r.circ1))
            drifts["circ2"].append(rel_drift(lambda r: r.circ2))
            drifts["casimir2"].append(rel_drift(lambda r: r.casimirs[2]))
            drifts["casimir3"].append(rel_drift(lambda r: r.casimirs[3]))
            xi_ok = xi_ok and all(r.max_xi <= bound + 1e-10 for r in records)

        base_ok = all(drifts[q][0] <= 1e-2 for q in quantities)
        order_ok = all(order2_ok(drifts[q][0], drifts[q][1]) for q in quantities)
        elapsed = time.perf_counter() - start
        ok = base_ok and order_ok and xi_ok
        summary = ", ".join(f"{q}={drifts[q][0]:.1e}->{drifts[q][1]:.1e}"
                            for q in quantities)
        report(6, ok, f"drifts [{summary}] all <= 1e-2 with order-2 decrease; "
                      f"max|xi| within A||zeta0||+B+1e-10 ({elapsed:.1f} s)")

    def test_criterion_07_stability_identity(self):
        start = time.perf_counter()
        defects = []
        agreement_ok = True
        rhs_base = None
        for n in (128, 256):
            grid = AnnulusGrid.from_band(MILD_NEG, n, n)
            reference = e2.zonal_initial_state(MILD_NEG, grid)
            state = e2.perturbed_zonal_state(MILD_NEG, grid, 0.01, 3, seed=SEED)
            rhs = dg.record(state, reference).stability_lhs
            assert dg.stability_lhs(state, reference) == rhs, (
                "defect must vanish identically at t = 0")
            dt = dt_for_cfl(state, 0.5) / (n // 128)
            final, _ = evolve(state, t_end=1.0, dt=dt, record_stride=10 ** 9)
            final_record = dg.record(final, reference)
            lhs = final_record.stability_lhs
            defects.append(abs(lhs - rhs))
            if n == 128:
                rhs_base = rhs
            # alternative route: lhs(t) = 2(E(psi(t)) - E(psi*)), up to the
            # discrete integration-by-parts terms (measured constant ~15)
            two_de = 2.0 * (final_record.lyapunov
                            - dg.record(reference, reference).lyapunov)
            agreement_ok = agreement_ok and (
                abs(lhs - two_de) <= 30.0 * grid.d_rho**2 * max(1.0, abs(rhs))
            )
        elapsed = time.perf_counter() - start
        base_ok = defects[0] <= 1e-2 * rhs_base
        ok = base_ok and order2_ok(defects[0], defects[1]) and agreement_ok
        report(7, ok, f"defect {defects[0]:.2e} <= 1e-2*rhs({rhs_base:.3f}) at "
                      f"128^2, refined {defects[1]:.2e} (order 2); t=0 defect "
                      f"exact; 2(E-E*) agrees within quadrature ({elapsed:.1f} s)")

    def test_criterion_08_lyapunov_variations(self):
        start = time.perf_counter()
        config = MILD_NEG
        grid = AnnulusGrid.from_band(config, 129, 64)
        psi_star = dg.zonal_critical_stream(config, grid)
        psi2d = np.broadcast_to(psi_star[:, None],
                                (grid.n_rho, grid.n_phi)).astype(np.longdouble)
        e_star = dg.lyapunov_of_stream(psi2d, config, grid)
        rng = np.random.default_rng(SEED)
        sbump = np.sin(math.pi * (grid.rho - grid.rho1)
                       / (grid.rho2 - grid.rho1)) ** 2
        alpha_row = alpha_of_rho(grid.rho)[:, None]

        first_ok = True
        second_rel_worst = 0.0
        worst_cd = 0.0
        for _ in range(5):
            xi = sbump[:, None] * rng.standard_normal() * np.ones(grid.n_phi)
            for k in (1, 2, 3):
                xi = xi + sbump[:, None] * rng.standard_normal() * np.cos(
                    k * grid.phi + rng.uniform(0, 2 * math.pi)
                )
            xi = xi.astype(np.longdouble)
            direct = float(
                -config.lam * dg.integral_flat(dg.grad_square_flat(xi, grid), grid)
                + dg.integral_dsigma(
                    (alpha_row * e2.laplacian_values(xi, grid)) ** 2, grid
                )
            )
            second = float(
                dg.lyapunov_of_stream(psi2d + 1e-2 * xi, config, grid)
                - 2 * e_star
                + dg.lyapunov_of_stream(psi2d - 1e-2 * xi, config, grid)
            ) / 1e-4
            second_rel_worst = max(second_rel_worst,
                                   abs(second - direct) / abs(direct))
            for s_eps in (1e-1, 1e-2, 1e-3, 1e-4):
                plus = dg.lyapunov_of_stream(psi2d + s_eps * xi, config, grid)
                minus = dg.lyapunov_of_stream(psi2d - s_eps * xi, config, grid)
                cd = abs(float((plus - minus) / (2 * s_eps)))
                worst_cd = max(worst_cd, cd)
                first_ok = first_ok and cd <= 1e-3 * (1.0 + abs(direct)) * s_eps**2
        elapsed = time.perf_counter() - start
        ok = first_ok and second_rel_worst <= 1e-6
        report(8, ok, f"first variation <= 1e-3(1+d2E)s^2 down to s=1e-4 "
                      f"(worst {worst_cd:.1e}); second difference matches "
                      f"quadrature to rel {second_rel_worst:.1e} <= 1e-6 "
                      f"({elapsed:.1f} s)")

    def test_criterion_09_figure1_reproduction(self, tmp_path):
        start = time.perf_counter()
        out = tmp_path / "fig1"
        code = cli_main([
            "--mode", "zonal", "--out", str(out), "--n-zonal", "2001",
            "--lambda", "-3000", "--upsilon", "30000",
            "--psi1", "-5", "--psi2", "-25",
        ])
        rows = np.genfromtxt(out / "profile.csv", delimiter=",", names=True)
        speed = np.abs(rows["u_m_per_s"])
        n = len(speed)
        interior = float(np.max(speed[n // 3: 2 * n // 3]))
        peak = float(np.max(speed))
        jet_at_edges = int(np.argmax(speed)) < n // 5 or int(np.argmax(speed)) > 4 * n // 5
        svg_ok = (out / "profile.svg").exists()
        elapsed = time.perf_counter() - start
        ok = (code == 0 and peak >= 3.0 * interior and jet_at_edges and svg_ok
              and elapsed < 1.0)
        report(9, ok, f"boundary jets {peak:.2f} m/s vs interior {interior:.2f} "
                      f"m/s (factor {peak / interior:.1f} >= 3); SVG+CSV emitted "
                      f"({elapsed:.2f} s)")

    def test_criterion_10_determinism(self, tmp_path):
        start = time.perf_counter()
        blobs = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            code = cli_main([
                "--mode", "stability", "--out", str(out), "--n-rho", "64",
                "--n-phi", "64", "--dt", "0.002", "--t-end", "0.02",
                "--amplitude", "0.01", "--wavenumber", "3", "--seed", "99",
                "--lambda", "-10", "--psi1", "-0.2", "--psi2", "0.2",
                "--omega", "2.0", "--upsilon", "1.0",
            ])
            assert code == 0
            blobs.append((out / "diagnostics.csv").read_bytes()
                         + (out / "stability.csv").read_bytes())
        zonal_blobs = []
        for name in ("zon_a", "zon_b"):
            out = tmp_path / name
            code = cli_main([
                "--mode", "zonal", "--out", str(out), "--n-zonal", "501",
                "--lambda", "-10", "--psi1", "-0.2", "--psi2", "0.2",
                "--omega", "2.0", "--upsilon", "1.0",
            ])
            assert code == 0
            zonal_blobs.append((out / "profile.csv").read_bytes())
        elapsed = time.perf_counter() - start
        ok = blobs[0] == blobs[1] and zonal_blobs[0] == zonal_blobs[1]
        report(10, ok, f"serial reruns bit-identical (stability + zonal CSVs; "
                       f"{elapsed:.1f} s)")

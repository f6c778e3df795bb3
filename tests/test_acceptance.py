"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every tolerance is pinned
here, not computed; runtime budgets are asserted alongside the numerics.
"""

import json
import time

import numpy as np
import pytest

from gplab import cli
from gplab.gp import evolve_gp, gp_energy, minimize_gp
from gplab.grids import GridSpec, WaveFunction, gaussian_packet, plane_wave
from gplab.hierarchy import (
    HierarchyFamily,
    bbgky_residual,
    dyson_partial_sum,
    factorized_kernel,
    infinite_hierarchy_residual,
    kernel_distance,
    power_counting_margin,
)
from gplab.manybody import (
    condensate_overlap,
    correlation_quotient,
    evolve_manybody,
    hardy_check,
    jastrow_product_state,
    marginal,
    partial_trace,
    product_state,
)
from gplab.potential import (
    BarrierPotential,
    GaussianPotential,
    alpha_strength,
    born_coupling,
    scale_potential,
)
from gplab.scattering import coupling_sigma, jastrow, solve_zero_energy

from conftest import barrier_a0, dense_partial_trace, l2_distance


class _Criterion:
    def __init__(self, number: int, title: str, budget_seconds: float):
        self.number = number
        self.title = title
        self.budget = budget_seconds
        self.start = time.perf_counter()
        self.checks: list[tuple[str, bool]] = []

    def expect(self, label: str, ok: bool) -> None:
        self.checks.append((label, bool(ok)))

    def conclude(self) -> None:
        elapsed = time.perf_counter() - self.start
        ok = all(flag for _, flag in self.checks) and elapsed < self.budget
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {self.number:02d} {verdict} ({elapsed:.1f}s) {self.title}")
        for label, flag in self.checks:
            if not flag:
                print(f"    failed: {label}")
        if elapsed >= self.budget:
            print(f"    failed: runtime {elapsed:.1f}s over budget {self.budget:.0f}s")
        assert ok


def test_criterion_01_scattering_identity():
    c = _Criterion(1, "coupling integral equals 8 pi a0; barrier closed form", 1.0)
    barrier = BarrierPotential(1.0, 1.0)
    sol = solve_zero_energy(barrier)
    closed = barrier_a0(1.0, 1.0)
    c.expect("barrier a0 vs closed form 1e-8", abs(sol.a0 - closed) / closed < 1e-8)
    sigma = coupling_sigma(sol)
    c.expect(
        "barrier coupling identity 1e-6",
        abs(sigma - 8.0 * np.pi * sol.a0) / (8.0 * np.pi * sol.a0) < 1e-6,
    )
    gauss = GaussianPotential(1.0, 1.0)
    sol_g = solve_zero_energy(gauss)
    sigma_g = coupling_sigma(sol_g)
    c.expect(
        "gaussian coupling identity 1e-6",
        abs(sigma_g - 8.0 * np.pi * sol_g.a0) / (8.0 * np.pi * sol_g.a0) < 1e-6,
    )
    c.conclude()


def test_criterion_02_scaling_law():
    c = _Criterion(2, "a0 scales as 1/N, alpha is scale-invariant", 1.0)
    model = BarrierPotential(1.0, 1.0)
    base = solve_zero_energy(model)
    alpha = alpha_strength(model)
    for n in (1, 10, 100):
        scaled = scale_potential(model, n)
        a_n = solve_zero_energy(scaled).a0
        c.expect(f"a0(V_{n}) = a0/{n} within 1e-8", abs(a_n - base.a0 / n) / (base.a0 / n) < 1e-8)
        c.expect(
            f"alpha(V_{n}) invariant within 1e-8",
            abs(alpha_strength(scaled) - alpha) / alpha < 1e-8,
        )
    c.conclude()


def test_criterion_03_born_dominance(test_potentials):
    c = _Criterion(3, "first-order coupling strictly exceeds 8 pi a0", 1.0)
    for model in test_potentials:
        a0 = solve_zero_energy(model).a0
        c.expect(f"{model.label}: b0 > 8 pi a0", born_coupling(model) > 8.0 * np.pi * a0)
    c.conclude()


def test_criterion_04_gp_conservation():
    c = _Criterion(4, "norm/energy conservation, reversal, second order", 30.0)
    grid = GridSpec(1, 1024, 16.0)
    sigma, dt, t = 0.5, 1e-3, 1.0
    a0 = sigma / (8.0 * np.pi)
    phi0 = gaussian_packet(grid, width=2.0)
    e0 = gp_energy(phi0, a0)
    worst_norm, worst_energy = 0.0, 0.0

    def watch(step, tt, wf, kinetic):
        nonlocal worst_norm, worst_energy
        worst_norm = max(worst_norm, abs(wf.norm() - 1.0))
        worst_energy = max(worst_energy, abs(gp_energy(wf, a0) - e0))

    phi_t = evolve_gp(phi0, sigma, t, dt, callback=watch)
    c.expect("norm drift < 1e-10 over 1000 steps", worst_norm < 1e-10)
    c.expect("energy drift < 1e-6 relative", worst_energy / abs(e0) < 1e-6)
    back = evolve_gp(phi_t, sigma, -t, dt)
    c.expect("time-reversal error < 1e-8", l2_distance(back, phi0) < 1e-8)
    reference = evolve_gp(phi0, 1.0, 0.5, 2e-3 / 8.0)
    e_coarse = l2_distance(evolve_gp(phi0, 1.0, 0.5, 2e-3), reference)
    e_fine = l2_distance(evolve_gp(phi0, 1.0, 0.5, 1e-3), reference)
    ratio = e_coarse / e_fine
    c.expect(f"dt-halving ratio {ratio:.2f} in [3.2, 4.8]", 3.2 < ratio < 4.8)
    c.conclude()


def test_criterion_05_gp_ground_state():
    c = _Criterion(5, "trap ground state matches d*omega at 64^3", 60.0)
    from gplab.potential import TrapModel

    omega = 1.0
    grid = GridSpec(3, 64, 16.0)
    energies = []
    phi, energy = minimize_gp(
        TrapModel(omega), 0.0, grid, tol=1e-9,
        callback=lambda i, e: energies.append(e),
    )
    exact = 3.0 * omega  # d = 3 ground energy of -Lap + omega^2 r^2
    c.expect(f"energy error {abs(energy - exact):.2e} < 1e-6", abs(energy - exact) < 1e-6)
    c.expect(
        "energy decreases monotonically at every iteration",
        all(b <= a for a, b in zip(energies, energies[1:])),
    )
    c.conclude()


def test_criterion_06_factorized_hierarchy_solution():
    c = _Criterion(6, "limit-equation residual: dt^2 decay, coupling match", 120.0)
    grid = GridSpec(1, 32, 8.0)
    phi = gaussian_packet(grid, width=1.0)
    sigma, t = 1.0, 0.1
    steps = (4e-3, 2e-3, 1e-3)
    finest = {}
    for k in (1, 2):
        residuals = []
        for dt in steps:
            frames = {tt: evolve_gp(phi, sigma, tt, dt) for tt in (t - dt, t, t + dt)}
            residuals.append(infinite_hierarchy_residual(frames, k, sigma, t, dt))
            if dt == steps[-1]:
                finest[k] = (frames, residuals[-1])
        for coarse, fine in zip(residuals, residuals[1:]):
            ratio = coarse / fine
            c.expect(f"k={k} halving ratio {ratio:.2f} in [3.2, 4.8]", 3.2 < ratio < 4.8)
    frames, matched = finest[1]
    mismatched = infinite_hierarchy_residual(frames, 1, sigma / 2.0, t, steps[-1])
    c.expect(
        f"sigma/2 residual {mismatched:.2e} > 10x matched {matched:.2e}",
        mismatched > 10.0 * matched,
    )
    c.conclude()


def test_criterion_07_exact_marginal_equation():
    c = _Criterion(7, "two-body marginal equation: dt^2 decay, chain consistency", 120.0)
    grid = GridSpec(1, 64, 8.0)
    phi = gaussian_packet(grid, width=1.0)
    pair = scale_potential(GaussianPotential(2.0, 0.5, cutoff_radius=3.0), 2)
    t = 0.1
    residuals = []
    for dt in (2e-3, 1e-3, 5e-4):
        psi0 = product_state(phi, 2)
        frames = {}
        gamma2 = None
        for tt in (t - dt, t, t + dt):
            evolved = evolve_manybody(psi0, pair, None, tt, dt)
            frames[tt] = marginal(evolved, 1)
            gamma2_frame = marginal(evolved, 2)
            # the factored trace, the dense einsum over the built kernel and gamma1
            factored = partial_trace(gamma2_frame).kernel
            dense = dense_partial_trace(gamma2_frame.kernel, grid, 2)
            one = frames[tt].kernel
            consistency = max(
                np.max(np.abs(a - b)) for a, b in ((factored, dense), (factored, one), (dense, one))
            )
            c.expect(f"dt={dt}: chain consistency {consistency:.1e} < 1e-10", consistency < 1e-10)
            if abs(tt - t) < 1e-12:
                gamma2 = gamma2_frame
        residuals.append(bbgky_residual(frames, gamma2, pair, 2, t, dt))
    for coarse, fine in zip(residuals, residuals[1:]):
        ratio = coarse / fine
        c.expect(f"halving ratio {ratio:.2f} in [3.2, 4.8]", 3.2 < ratio < 4.8)
    c.conclude()


def test_criterion_08_series_truncation():
    c = _Criterion(8, "series truncation error falls with order; exact at zero coupling", 300.0)
    grid = GridSpec(1, 64, 8.0)
    phi = gaussian_packet(grid, width=1.0)
    sigma, t = 0.2, 0.05
    family = HierarchyFamily.from_orbital(phi, 3, sigma)
    exact = factorized_kernel(evolve_gp(phi, sigma, t, 1e-4), 1)
    distances = [
        kernel_distance(dyson_partial_sum(family, 1, n, t, 48), exact, grid, 1)
        for n in (1, 2, 3)
    ]
    c.expect(
        f"distances strictly decrease: {distances[0]:.2e} > {distances[1]:.2e} > {distances[2]:.2e}",
        distances[0] > distances[1] > distances[2],
    )
    free_family = HierarchyFamily.from_orbital(phi, 3, 0.0)
    from gplab.grids import free_evolve

    exact_free = factorized_kernel(free_evolve(phi, t), 1)
    for n in (1, 2, 3):
        err = kernel_distance(dyson_partial_sum(free_family, 1, n, t, 16), exact_free, grid, 1)
        c.expect(f"zero-coupling partial sum n={n} exact to 1e-12", err < 1e-12)
    c.conclude()


def test_criterion_09_correlation_structure():
    c = _Criterion(9, "pair-profile division flattens the mixed-gradient family", 300.0)
    solution = solve_zero_energy(BarrierPotential(8.0, 1.0))
    grid = GridSpec(3, 16, 6.0)
    phi = gaussian_packet(grid, width=1.2)
    quotients, raws = [], []
    for n in (4, 8, 16):
        profile = jastrow(solution, n)
        state = jastrow_product_state(phi, 2, profile)
        quotients.append(correlation_quotient(state, profile, 0, 1))
        raws.append(correlation_quotient(state, None, 0, 1))
    spread = max(quotients) / min(quotients)
    c.expect(f"dressed quotients within factor 2 (spread {spread:.3f})", spread < 2.0)
    c.expect(
        f"raw integrals grow: {raws[0]:.3f} < {raws[1]:.3f} < {raws[2]:.3f}",
        raws[0] < raws[1] < raws[2],
    )
    c.conclude()


def test_criterion_10_power_counting():
    c = _Criterion(10, "graph exponent margin is 5k + m, reference point checks", 1.0)
    c.expect("(k=1, m=1) -> (19, 25, 6)", power_counting_margin(1, 1) == (19, 25, 6))
    ok = True
    for k in range(1, 101):
        for m in range(0, 101):
            volume, decay, margin = power_counting_margin(k, m)
            ok = ok and margin == 5 * k + m and decay - volume == margin and margin > 0
    c.expect("margin = 5k + m exactly on 1..100 x 0..100", ok)
    c.conclude()


def test_criterion_11_marginal_overlap_suite():
    c = _Criterion(11, "marginal ranks, two-mode occupations, inverse-square bound", 60.0)
    grid = GridSpec(1, 32, 8.0)
    phi = gaussian_packet(grid, width=1.0)
    dm = marginal(product_state(phi, 3), 1)
    eigs = dm.eigenvalues()
    c.expect("product marginal rank one (1e-12)", abs(eigs[0] - 1.0) < 1e-12 and abs(eigs[1]) < 1e-12)
    c.expect(
        "product overlap = 1 (1e-12)", abs(condensate_overlap(dm, phi) - 1.0) < 1e-12
    )
    p1, p2 = plane_wave(grid, 1), plane_wave(grid, 2)
    values = np.tensordot(p1.values, p2.values, axes=0) + np.tensordot(
        p2.values, p1.values, axes=0
    )
    two_mode = WaveFunction(grid, values).normalized()
    occ = marginal(two_mode, 1).eigenvalues()
    c.expect(
        "two-mode occupations {1/2, 1/2} (1e-10)",
        abs(occ[0] - 0.5) < 1e-10 and abs(occ[1] - 0.5) < 1e-10,
    )
    grid3 = GridSpec(3, 16, 12.0)
    family = [
        gaussian_packet(grid3, width=1.2),
        gaussian_packet(grid3, width=0.8, momentum=[1.0, 0.0, 0.0]),
        gaussian_packet(grid3, width=1.5, center=[0.5, 0.0, -0.4]),
        gaussian_packet(grid3, width=1.0, momentum=[0.0, 2.0, 0.0], center=[0.0, 0.3, 0.0]),
    ]
    for idx, wf in enumerate(family):
        lhs, rhs = hardy_check(wf)
        c.expect(f"inverse-square bound holds on trial state {idx}", lhs <= rhs)
    c.conclude()


def test_criterion_12_determinism(tmp_path):
    c = _Criterion(12, "fixed seed and single thread reproduce bytes", 120.0)
    configs = {
        "scatter": {
            "schema_version": "1",
            "experiment": "scatter",
            "potential": {"kind": "barrier", "v0": 1.0, "radius": 1.0},
            "scaling_N": [1, 10],
            "seed": 0,
            "output": {"dir": str(tmp_path / "s"), "prefix": "s"},
        },
        "power_counting": {
            "schema_version": "1",
            "experiment": "power_counting",
            "seed": 0,
            "output": {"dir": str(tmp_path / "p"), "prefix": "p"},
        },
        "gp_evolve": {
            "schema_version": "1",
            "experiment": "gp_evolve",
            "grid": {"dim": 1, "points_per_axis": 256, "box_length": 16.0},
            "time": {"t_final": 0.05, "dt": 0.001},
            "coupling": {"mode": "explicit", "value": 0.5},
            "seed": 0,
            "output": {"dir": str(tmp_path / "g"), "prefix": "g"},
        },
    }
    for name, data in configs.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        prefix = data["output"]["prefix"]
        out = tmp_path / prefix / f"{prefix}_results.csv"
        c.expect(f"{name}: first run succeeds", cli.main(["run", "--config", str(path)]) == 0)
        first = out.read_bytes()
        c.expect(f"{name}: second run succeeds", cli.main(["run", "--config", str(path)]) == 0)
        c.expect(f"{name}: results byte-identical", out.read_bytes() == first)
    c.conclude()

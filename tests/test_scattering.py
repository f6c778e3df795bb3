import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from gplab.errors import DomainError, SolverError
from gplab.potential import (
    BarrierPotential,
    GaussianPotential,
    TablePotential,
    alpha_strength,
    born_coupling,
    scale_potential,
)
from gplab.scattering import coupling_sigma, jastrow, nabla2_log_f_bound, solve_zero_energy

from conftest import barrier_a0, scaled_coupling


def _max_residual(solution):
    """Largest normalized defect |u'' - (V/2) u| over the mesh nodes r > 0.

    u'' is the three-point difference on the non-uniform mesh, so the floor is
    the formula's truncation, not the integrator's tolerance.  Beyond the
    support u = u(cutoff) + (r - cutoff) exactly (u' = 1 there), which places
    one exterior node after the cutoff node, at the spacing of as many uniform
    cells on [cutoff, 4 cutoff], and gives max |u| on [0, 4 cutoff] for the
    normalization; neither depends on where the solve's mesh ends.  Nodes
    sitting on the jump of a nonzero barrier, where the two-sided stencil is
    meaningless, are skipped.
    """
    model, cutoff = solution.potential, solution.potential.cutoff_radius
    step = 3.0 * cutoff / (len(solution.radii) - 1)
    r = np.append(solution.radii, cutoff + step)
    u = np.append(solution.u_values, solution.u_values[-1] + step)
    h_minus, h_plus = np.diff(r)[:-1], np.diff(r)[1:]
    second = 2.0 * (h_minus * u[2:] - (h_minus + h_plus) * u[1:-1] + h_plus * u[:-2])
    second /= h_minus * h_plus * (h_minus + h_plus)
    rhs = 0.5 * np.asarray(model(r[1:-1]), dtype=float) * u[1:-1]
    defect = np.abs(second - rhs)
    if isinstance(model, BarrierPotential) and model.v0 > 0:
        jump = model.radius
        defect[np.isclose(r[1:-1], jump, rtol=0, atol=1e-12 * max(jump, 1.0))] = 0.0
    u_max = max(np.max(np.abs(u)), abs(u[-2] + 3.0 * cutoff))
    scale = max(np.max(np.abs(rhs)), u_max / max(4.0 * cutoff, 1.0) ** 2)
    return float(np.max(defect) / scale)


def test_zero_potential_gives_trivial_profile():
    solution = solve_zero_energy(BarrierPotential(0.0, 1.0))
    assert solution.a0 == pytest.approx(0.0, abs=1e-13)
    assert np.allclose(solution.f_values, 1.0, atol=1e-13)
    assert coupling_sigma(solution) == pytest.approx(0.0, abs=1e-13)


@pytest.mark.parametrize("v0, radius", [(1.0, 1.0), (4.0, 1.0), (2.0, 0.5), (25.0, 1.0)])
def test_barrier_matches_closed_form(v0, radius):
    solution = solve_zero_energy(BarrierPotential(v0, radius))
    assert solution.a0 == pytest.approx(barrier_a0(v0, radius), rel=1e-8)


def test_scaling_law_for_scattering_length():
    model = BarrierPotential(1.0, 1.0)
    base = solve_zero_energy(model)
    for n in (1, 10, 100):
        scaled = solve_zero_energy(scale_potential(model, n))
        assert scaled.a0 == pytest.approx(base.a0 / n, rel=1e-8)


def test_independent_integrator_agrees():
    # same u'' = (V/2) u problem pushed through an unrelated adaptive solver
    model = GaussianPotential(1.0, 1.0)
    solution = solve_zero_energy(model)

    def rhs(r, y):
        return [y[1], 0.5 * model(r) * y[0]]

    cutoff = model.cutoff_radius
    result = solve_ivp(
        rhs, (0.0, cutoff), [0.0, 1.0], method="DOP853", rtol=1e-12, atol=1e-14
    )
    u, up = result.y[0, -1], result.y[1, -1]
    assert cutoff - u / up == pytest.approx(solution.a0, rel=1e-9)


def test_profile_monotone_and_bounded(test_potentials):
    for model in test_potentials:
        solution = solve_zero_energy(model)
        assert solution.f_values[0] > 0.0
        assert solution.f_values.max() <= 1.0 + 1e-12
        assert np.all(np.diff(solution.f_values) >= -1e-12)


def test_mesh_stability_of_a0():
    model = BarrierPotential(1.0, 1.0)
    coarse = solve_zero_energy(model, mesh_points=2048)
    fine = solve_zero_energy(model, mesh_points=4096)
    assert abs(fine.a0 - coarse.a0) < 1e-10 * max(abs(coarse.a0), 1e-3)


def test_interior_equation_residual(test_potentials):
    # floor set by the three-point difference formula, not the integrator;
    # tabulated profiles interpolate C^1 only, so their floor is higher
    for model in test_potentials:
        ceiling = 1e-4 if isinstance(model, TablePotential) else 1e-6
        assert _max_residual(solve_zero_energy(model)) < ceiling


def test_exterior_form_is_exact():
    solution = solve_zero_energy(BarrierPotential(1.0, 1.0))
    for r in (1.5, 2.0, 3.9):
        assert solution.f(r) == pytest.approx(1.0 - solution.a0 / r, abs=1e-14)


def test_jastrow_identity_and_substitution():
    solution = solve_zero_energy(BarrierPotential(1.0, 1.0))
    f1 = jastrow(solution, 1)
    probe = np.array([0.1, 0.6, 1.3, 2.2])
    assert np.allclose(f1(probe), solution.f(probe), atol=0)
    f4 = jastrow(solution, 4)
    r_node = solution.radii[100]
    assert f4(r_node / 4.0) == pytest.approx(solution.f(r_node), rel=1e-12)


def test_jastrow_far_field():
    solution = solve_zero_energy(BarrierPotential(1.0, 1.0))
    n = 8
    f_n = jastrow(solution, n)
    for r in (0.5, 1.0, 2.0):  # all beyond cutoff/n
        assert f_n(r) == pytest.approx(1.0 - solution.a0 / (n * r), abs=1e-14)
    with pytest.raises(DomainError):
        jastrow(solution, 0)


def test_coupling_identity_all_potentials(test_potentials):
    for model in test_potentials:
        solution = solve_zero_energy(model)
        sigma = coupling_sigma(solution)
        assert sigma == pytest.approx(8.0 * np.pi * solution.a0, rel=1e-6)
        assert scaled_coupling(solution, 16) == pytest.approx(sigma, rel=1e-8)


def test_coupling_identity_against_closed_form_a0():
    solution = solve_zero_energy(BarrierPotential(1.0, 1.0))
    sigma = coupling_sigma(solution)
    assert sigma == pytest.approx(8.0 * np.pi * barrier_a0(1.0, 1.0), rel=1e-6)


def test_coupling_below_born(test_potentials):
    for model in test_potentials:
        sigma = coupling_sigma(solve_zero_energy(model))
        assert sigma < born_coupling(model)


def test_overflow_reported_as_solver_error():
    with pytest.raises(SolverError):
        solve_zero_energy(BarrierPotential(1e9, 1.0))


def test_unstable_scattering_length_reports_its_last_change():
    with pytest.raises(SolverError, match="last change") as info:
        solve_zero_energy(GaussianPotential(1.0, 1.0), tol=1e-300, mesh_points=128)
    change = float(re.search(r"last change (\S+)", str(info.value)).group(1))
    assert change > 0.0


strength = st.floats(0.1, 5.0)
length = st.floats(0.2, 2.0)
radial_models = st.one_of(
    st.builds(BarrierPotential, strength, length),
    st.builds(GaussianPotential, strength, length),
    st.builds(
        lambda v0, r, shape: TablePotential((0.0, r, 2.0 * r), (v0, shape * v0, 0.0)),
        strength, length, st.floats(0.0, 1.0),
    ),
)


@settings(max_examples=10, deadline=None)
@given(model=radial_models, n=st.integers(2, 50))
def test_family_invariants(model, n):
    """n a0(V_n) = a0(V), alpha(V_n) = alpha(V), the curvature bound is the
    same, and sigma = 8 pi a0 at every scale."""
    solution = solve_zero_energy(model)
    scaled = scale_potential(model, n)
    scaled_solution = solve_zero_energy(scaled)
    assert n * scaled_solution.a0 == pytest.approx(solution.a0, rel=1e-8)
    assert alpha_strength(scaled) == pytest.approx(alpha_strength(model), rel=1e-8)
    bound = nabla2_log_f_bound(solution)
    assert nabla2_log_f_bound(scaled_solution) == pytest.approx(bound, rel=1e-8)
    sigma = coupling_sigma(solution)
    assert sigma == pytest.approx(8.0 * np.pi * solution.a0, rel=1e-6)
    assert scaled_coupling(solution, n) == pytest.approx(sigma, rel=1e-8)


def test_log_curvature_bound_zero_potential():
    assert nabla2_log_f_bound(solve_zero_energy(BarrierPotential(0.0, 1.0))) == 0.0


def test_log_curvature_bound_stable_under_refinement():
    model = BarrierPotential(1.0, 1.0)
    coarse = nabla2_log_f_bound(solve_zero_energy(model, mesh_points=2048))
    fine = nabla2_log_f_bound(solve_zero_energy(model, mesh_points=4096))
    assert coarse > 0.0
    assert abs(fine - coarse) / coarse < 0.05


def test_log_curvature_bound_scale_invariant():
    model = BarrierPotential(1.0, 1.0)
    base = nabla2_log_f_bound(solve_zero_energy(model))
    scaled = nabla2_log_f_bound(solve_zero_energy(scale_potential(model, 10)))
    assert scaled == pytest.approx(base, rel=1e-8)


@pytest.mark.parametrize("v0, radius", [(1.0, 1.0), (20.0, 0.8), (25.0, 1.0)])
def test_log_curvature_bound_matches_closed_form_barrier(v0, radius):
    # inside, u = sinh(kappa r) with kappa = sqrt(v0/2): r^2 Lap(log f) =
    # (kappa r)^2 - (kappa r coth(kappa r) - 1)^2; outside, f = 1 - a0/r gives
    # -(a0 / (r - a0))^2, largest in size at the edge
    model = BarrierPotential(v0, radius)
    kappa, a0 = np.sqrt(v0 / 2.0), barrier_a0(v0, radius)
    x = kappa * np.linspace(radius / 4096, radius, 4096)
    inside = np.abs(x**2 - (x / np.tanh(x) - 1.0) ** 2).max()
    outside = (a0 / (radius - a0)) ** 2
    expected = max(inside, outside) / alpha_strength(model)
    assert nabla2_log_f_bound(solve_zero_energy(model)) == pytest.approx(expected, rel=1e-12)

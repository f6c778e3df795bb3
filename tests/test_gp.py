import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gplab.errors import ConfigurationError, DomainError, SolverError
from gplab.gp import evolve_gp, gp_energy, minimize_gp
from gplab.grids import (
    GridSpec,
    WaveFunction,
    gaussian_packet,
    plane_wave,
)
from gplab.potential import GaussianPotential, TrapModel
from gplab.scattering import solve_zero_energy

from conftest import l2_distance, plane_wave_k


@pytest.fixture(scope="module")
def line_grid():
    return GridSpec(1, 1024, 16.0)


def test_grid_spec_invariants():
    with pytest.raises(ConfigurationError):
        GridSpec(1, 48, 8.0)  # not a power of two
    with pytest.raises(ConfigurationError):
        GridSpec(1, 4, 8.0)  # too small
    with pytest.raises(ConfigurationError):
        GridSpec(4, 16, 8.0)  # unsupported dimension
    with pytest.raises(ConfigurationError):
        GridSpec(1, 16, 0.0)
    for box in (float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="box_length"):
            GridSpec(1, 16, box)


@settings(max_examples=20, deadline=None)
@given(
    dim=st.integers(1, 3),
    points=st.sampled_from([8, 16, 32, 64]),
    box=st.floats(1.0, 20.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_slot_norm_is_the_plain_sum(dim, points, box, seed):
    # the slab norm takes exactly np.sum up to 64^3 = 2^18 entries
    grid = GridSpec(dim, points, box)
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    wf = WaveFunction(grid, values)
    assert wf.n_particles == 1
    assert wf.norm() == float(np.sqrt(np.sum(np.abs(values) ** 2) * grid.cell_volume))


def test_evolve_gp_hands_out_one_slot_fields(line_grid):
    seen = []
    phi0 = gaussian_packet(line_grid, width=1.0)
    out = evolve_gp(phi0, 1.0, 0.02, 1e-2, callback=lambda s, t, wf, kin: seen.append(wf))
    assert len(seen) == 2
    for wf in seen + [out]:
        assert type(wf) is WaveFunction
        assert wf.n_particles == 1


def test_builders_normalize(line_grid):
    for wf in (plane_wave(line_grid, 3), gaussian_packet(line_grid, width=1.3)):
        assert wf.norm() == pytest.approx(1.0, abs=1e-12)


def test_energy_of_plane_wave(line_grid):
    wf = plane_wave(line_grid, 2)
    assert gp_energy(wf, 0.0) == pytest.approx(plane_wave_k(line_grid, 2), rel=1e-12)


def test_energy_of_constant_density(line_grid):
    wf = WaveFunction(line_grid, np.ones(line_grid.shape, dtype=complex)).normalized()
    a0 = 0.7
    expected = 4.0 * np.pi * a0 / line_grid.box_length
    assert gp_energy(wf, a0) == pytest.approx(expected, rel=1e-12)


def test_energy_of_gaussian_in_trap(line_grid):
    # width-s Gaussian in the omega^2 x^2 trap: E = 1/(2 s^2) + omega^2 s^2 / 2
    # (width kept well under the box so periodization is below the tolerance)
    omega, s = 1.0, 1.2
    trap = TrapModel(omega)
    wf = gaussian_packet(line_grid, width=s)
    expected = 1.0 / (2.0 * s**2) + omega**2 * s**2 / 2.0
    assert gp_energy(wf, 0.0, trap) == pytest.approx(expected, rel=1e-10)


def test_free_plane_wave_picks_up_exact_phase(line_grid):
    wf = plane_wave(line_grid, 3)
    k2 = plane_wave_k(line_grid, 3)
    t = 0.25
    out = evolve_gp(wf, 0.0, t, 1e-3)
    assert np.allclose(out.values, np.exp(-1j * k2 * t) * wf.values, atol=1e-12)


def test_constant_density_rotates_global_phase(line_grid):
    wf = WaveFunction(line_grid, np.ones(line_grid.shape, dtype=complex)).normalized()
    sigma, t = 2.0, 0.4
    out = evolve_gp(wf, sigma, t, 1e-3)
    phase = np.exp(-1j * sigma * t / line_grid.box_length)
    assert np.allclose(out.values, phase * wf.values, atol=1e-12)


def test_free_gaussian_matches_closed_form(line_grid):
    # i d/dt psi = -psi'' spreads a width-w Gaussian into
    # w (w^2 + 2 i t)^(-1/2) exp(-x^2 / (2 (w^2 + 2 i t))) (times the t=0 norm)
    w, t = 1.0, 0.1
    wf = gaussian_packet(line_grid, width=w)
    out = evolve_gp(wf, 0.0, t, 1e-3)
    x = line_grid.axis_coordinates()
    exact = (
        (np.pi * w**2) ** (-0.25)
        * w
        / np.sqrt(w**2 + 2j * t)
        * np.exp(-(x**2) / (2.0 * (w**2 + 2j * t)))
    )
    err = np.sqrt(np.sum(np.abs(out.values - exact) ** 2) * line_grid.spacing)
    assert err < 1e-8


def test_norm_conserved_over_long_run(line_grid):
    wf = gaussian_packet(line_grid, width=2.0)
    drifts = []
    evolve_gp(wf, 0.5, 1.0, 1e-3, callback=lambda s, t, w, kin: drifts.append(abs(w.norm() - 1.0)))
    assert len(drifts) == 1000
    assert max(drifts) < 1e-10


def test_energy_conserved_in_dynamics(line_grid):
    sigma = 0.5
    a0 = sigma / (8.0 * np.pi)
    wf = gaussian_packet(line_grid, width=2.0)
    e0 = gp_energy(wf, a0)
    out = evolve_gp(wf, sigma, 1.0, 1e-3)
    assert abs(gp_energy(out, a0) - e0) / abs(e0) < 1e-6


def test_time_reversal(line_grid):
    wf = gaussian_packet(line_grid, width=2.0)
    forward = evolve_gp(wf, 0.5, 1.0, 1e-3)
    back = evolve_gp(forward, 0.5, -1.0, 1e-3)
    assert l2_distance(back, wf) < 1e-8


def test_second_order_step_error(line_grid):
    # error ratio against a dt/8 reference: (1 - 1/64) / (1/4 - 1/64) = 4.2
    sigma, t, dt = 1.0, 0.5, 2e-3
    wf = gaussian_packet(line_grid, width=1.0)
    reference = evolve_gp(wf, sigma, t, dt / 8.0)
    e_coarse = l2_distance(evolve_gp(wf, sigma, t, dt), reference)
    e_fine = l2_distance(evolve_gp(wf, sigma, t, dt / 2.0), reference)
    assert 3.2 < e_coarse / e_fine < 4.8


def test_large_step_warns(line_grid):
    wf = gaussian_packet(line_grid, width=0.5)
    with pytest.warns(RuntimeWarning):
        evolve_gp(wf, 50.0, 0.2, 0.1)


def test_nan_input_rejected(line_grid):
    values = np.ones(line_grid.shape, dtype=complex)
    values[3] = np.nan
    with pytest.raises(SolverError):
        evolve_gp(WaveFunction(line_grid, values), 1.0, 0.1, 1e-2)
    with pytest.raises(DomainError):
        evolve_gp(gaussian_packet(line_grid), 1.0, 0.1, -1e-2)


def test_ground_state_matches_oscillator(line_grid):
    # d-dimensional ground energy of -Lap + omega^2 r^2 is d * omega
    omega = 1.0
    trap = TrapModel(omega)
    energies = []
    phi, energy = minimize_gp(trap, 0.0, line_grid, tol=1e-10, callback=lambda i, e: energies.append(e))
    assert energy == pytest.approx(omega, abs=1e-6)
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    x = line_grid.axis_coordinates()
    exact = (omega / np.pi) ** 0.25 * np.exp(-omega * x**2 / 2.0)
    overlap = abs(np.sum(np.conj(phi.values) * exact) * line_grid.spacing)
    assert overlap == pytest.approx(1.0, abs=1e-8)


def test_ground_state_energy_increases_with_coupling(line_grid):
    trap = TrapModel(1.0)
    _, e_free = minimize_gp(trap, 0.0, line_grid, tol=1e-10)
    _, e_coupled = minimize_gp(trap, 0.2, line_grid, tol=1e-10)
    assert e_coupled > e_free


def _flow_step(phi, trap, a0, dtau):
    """One explicit normalized split step of imaginary time dtau."""
    grid, sigma = phi.grid, 8.0 * np.pi * a0
    half = np.exp(-grid.k_squared_mesh() * dtau / 2.0)
    values = np.fft.ifftn(np.fft.fftn(phi.values) * half)
    values *= np.exp(-dtau * (trap.sample(grid) + sigma * np.abs(values) ** 2))
    values = np.fft.ifftn(np.fft.fftn(values) * half)
    return WaveFunction(grid, values).normalized()


def test_ground_state_is_flow_fixed_point(line_grid):
    trap = TrapModel(1.0)
    tol, a0 = 1e-9, 0.1
    phi, energy = minimize_gp(trap, a0, line_grid, tol=tol)
    stepped = _flow_step(phi, trap, a0, 1e-3)
    assert abs(gp_energy(stepped, a0, trap) - energy) < tol


@settings(max_examples=25, deadline=None)
@given(
    points=st.sampled_from([32, 64]),
    omega=st.floats(0.5, 2.0),
    a0=st.floats(0.0, 0.5),
)
def test_ground_state_search_properties(points, omega, a0):
    grid, trap, tol = GridSpec(1, points, 12.0), TrapModel(omega), 1e-10
    energies = []
    phi, energy = minimize_gp(trap, a0, grid, tol=tol, callback=lambda i, e: energies.append(e))
    assert all(b <= a for a, b in zip(energies, energies[1:]))
    assert abs(phi.norm() - 1.0) < 1e-12
    _, reference = minimize_gp(trap, a0, grid, tol=1e-13)
    assert abs(energy - reference) < 1e-9
    # the split gradient flow finds nothing left to take
    assert gp_energy(_flow_step(phi, trap, a0, 1e-3), a0, trap) > energy - tol


@pytest.mark.parametrize("omega", [0.9, 1.0, 1.1])
def test_ground_state_search_converges_fast_on_3d_grid(omega):
    # the chain_3d ground state at 32^3: the split gradient flow took
    # 393-1,431 iterations here and stopped up to 4.3e-8 above the minimum
    grid, trap = GridSpec(3, 32, 16.0), TrapModel(omega)
    a0 = solve_zero_energy(GaussianPotential(2.0, 0.5)).a0
    iterations = []
    _, energy = minimize_gp(trap, a0, grid, tol=1e-10, callback=lambda i, e: iterations.append(i))
    assert iterations[-1] <= 30
    _, reference = minimize_gp(trap, a0, grid, tol=1e-13)
    assert abs(energy - reference) < 1e-9


def test_ground_state_requires_confining_trap(line_grid):
    with pytest.raises(ConfigurationError):
        minimize_gp(None, 0.0, line_grid)


def test_ground_state_iteration_cap():
    from gplab.errors import ConvergenceError

    grid = GridSpec(1, 64, 12.0)
    with pytest.raises(ConvergenceError):
        minimize_gp(TrapModel(1.0), 0.0, grid, tol=0.0, max_iterations=5)


def test_iteration_cap_before_any_accepted_step():
    from gplab.errors import ConvergenceError

    grid = GridSpec(1, 64, 12.0)
    trap = TrapModel(1.0)
    with pytest.raises(ConvergenceError, match="no step accepted"):
        minimize_gp(trap, 0.0, grid, max_iterations=0)

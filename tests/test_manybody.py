import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gplab import spectral
from gplab.errors import ConfigurationError, DomainError, GridMismatchError, SolverError
from gplab.gp import evolve_gp
from gplab.grids import (
    GridSpec,
    WaveFunction,
    exchange_particles,
    gaussian_packet,
    kinetic_energy,
    plane_wave,
)
from gplab.manybody import (
    DensityMatrix,
    condensate_overlap,
    correlation_quotient,
    energy_moment,
    evolve_manybody,
    hardy_check,
    jastrow_product_state,
    marginal,
    pair_field,
    partial_trace,
    product_state,
    random_symmetric_state,
    total_potential,
)
from gplab.potential import BarrierPotential, GaussianPotential, TrapModel, born_coupling_1d
from gplab.scattering import jastrow, solve_zero_energy

from conftest import (
    dense_eigenvalues,
    dense_overlap,
    dense_partial_trace,
    dense_trace,
    gathered_pair_field,
    plane_wave_k,
)


def _distance_reference(grid):
    """Wrapped distances |x_a - x_b| between all grid points, shape (M^d, M^d),
    by direct summation over the axes."""
    length = grid.box_length
    squared = 0.0
    for c in grid.coordinate_mesh():
        delta = c.ravel()[:, None] - c.ravel()[None, :]
        squared = squared + ((delta + 0.5 * length) % length - 0.5 * length) ** 2
    return np.sqrt(squared)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(1, 32, 8.0)


@pytest.fixture(scope="module")
def orbital(grid):
    return gaussian_packet(grid, width=1.0)


def test_product_state_is_outer_power(grid, orbital):
    state = product_state(orbital, 2)
    outer = np.tensordot(orbital.values, orbital.values, axes=0)
    assert np.max(np.abs(state.values - outer)) < 1e-12
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert state.symmetry_defect() < 1e-10


def test_jastrow_with_unit_profile_equals_product(grid, orbital):
    dressed = jastrow_product_state(orbital, 3, lambda r: np.ones_like(r))
    plain = product_state(orbital, 3)
    assert np.max(np.abs(dressed.values - plain.values)) < 1e-12


def test_jastrow_prenormalization_below_one(grid, orbital):
    solution = solve_zero_energy(BarrierPotential(4.0, 1.0))
    state = jastrow_product_state(orbital, 2, jastrow(solution, 4))
    assert state.prenormalization < 1.0
    # direct summation oracle for the raw norm
    dist = _distance_reference(grid)
    factor = jastrow(solution, 4)(dist).reshape(grid.size, grid.size)
    raw = np.tensordot(orbital.values, orbital.values, axes=0) * factor
    raw_norm = np.sqrt(np.sum(np.abs(raw) ** 2) * grid.cell_volume**2)
    assert state.prenormalization == pytest.approx(raw_norm, rel=1e-12)


def test_memory_budget_names_the_limit():
    big = GridSpec(1, 1024, 8.0)
    phi = gaussian_packet(big, width=1.0)
    with pytest.raises(ConfigurationError, match="2\\^28"):
        product_state(phi, 3)
    # a two-particle kernel on 256 points has 2^32 entries; the marginal is a
    # view of the state, and reading its kernel is what would build them
    pair_state = product_state(gaussian_packet(GridSpec(1, 256, 8.0), width=1.0), 2)
    with pytest.raises(ConfigurationError, match="2\\^28"):
        marginal(pair_state, 2).kernel
    # a three-particle potential on a 16^3 grid has 2^36 entries
    with pytest.raises(ConfigurationError, match="2\\^28"):
        total_potential(
            GridSpec(3, 16, 2.0), 3, GaussianPotential(1.0, 0.5), TrapModel("harmonic", 1.0)
        )
    # a pair field on a 64^3 grid spans (64^3)^2 = 2^36 entries, for any slot count
    with pytest.raises(ConfigurationError, match="2\\^28"):
        pair_field(GridSpec(3, 64, 8.0), GaussianPotential(1.0, 0.5), 2, 0, 1)


def test_random_symmetric_states(grid):
    for seed in (0, 1, 2):
        state = random_symmetric_state(grid, 3, seed)
        assert state.symmetry_defect() < 1e-10
        assert marginal(state, 1).trace() == pytest.approx(1.0, abs=1e-10)


def test_free_plane_wave_product_evolves_by_phase(grid):
    wf = plane_wave(grid, 2)
    state = product_state(wf, 2)
    t = 0.3
    out = evolve_manybody(state, None, None, t, 1e-2)
    expected = state.values * np.exp(-1j * 2 * plane_wave_k(grid, 2) * t)
    assert np.max(np.abs(out.values - expected)) < 1e-12


def test_evolution_preserves_symmetry_and_norm(grid, orbital):
    pair = GaussianPotential(1.0, 1.0, cutoff=3.0)
    state = product_state(orbital, 2)
    out = evolve_manybody(state, pair, TrapModel("none"), 1.0, 1e-3)
    assert abs(out.norm() - 1.0) < 1e-10
    assert out.symmetry_defect() < 1e-10


def test_nan_input_rejected(grid, orbital):
    state = product_state(orbital, 2)
    state.values[3, 5] = np.nan
    with pytest.raises(SolverError, match="non-finite"):
        evolve_manybody(state, None, None, 0.1, 1e-2)
    with pytest.raises(SolverError, match="non-finite"):
        evolve_manybody(state, None, None, 0.0, 1e-2)


def test_evolution_conserves_energy(grid, orbital):
    pair = GaussianPotential(1.0, 1.0, cutoff=3.0)
    trap = TrapModel("harmonic", 0.5)
    state = product_state(orbital, 2)
    potential = total_potential(grid, 2, pair, trap)
    e0 = energy_moment(state, potential, 1)
    out = evolve_manybody(state, pair, trap, 1.0, 1e-3)
    assert abs(energy_moment(out, potential, 1) - e0) / abs(e0) < 1e-6


def test_evolution_reuses_a_held_potential_table(grid, orbital, monkeypatch):
    import gplab.manybody

    pair = GaussianPotential(1.0, 1.0, cutoff=3.0)
    trap = TrapModel("harmonic", 0.5)
    state = product_state(orbital, 2)
    potential = total_potential(grid, 2, pair, trap)
    built = evolve_manybody(state, pair, trap, 0.05, 1e-2)
    monkeypatch.setattr(gplab.manybody, "total_potential", None)  # a rebuild would fail
    held = evolve_manybody(state, pair, trap, 0.05, 1e-2, potential=potential)
    assert np.array_equal(held.values, built.values)


def test_marginal_of_product_is_rank_one(grid, orbital):
    dm = marginal(product_state(orbital, 3), 1)
    assert dm.trace() == pytest.approx(1.0, abs=1e-12)
    eigs = dm.eigenvalues()
    assert eigs[0] == pytest.approx(1.0, abs=1e-10)
    assert abs(eigs[1]) < 1e-10
    assert condensate_overlap(dm, orbital) == pytest.approx(1.0, abs=1e-12)


def test_marginal_of_two_mode_state(grid):
    # (phi1 phi2 + phi2 phi1)/sqrt(2) with orthonormal modes: occupations 1/2, 1/2
    p1, p2 = plane_wave(grid, 1), plane_wave(grid, 2)
    values = np.tensordot(p1.values, p2.values, axes=0) + np.tensordot(
        p2.values, p1.values, axes=0
    )
    state = WaveFunction(grid, values).normalized()
    eigs = marginal(state, 1).eigenvalues()
    # brute-force oracle: 2x2 overlap matrix of the two occupied orbitals
    assert eigs[0] == pytest.approx(0.5, abs=1e-10)
    assert eigs[1] == pytest.approx(0.5, abs=1e-10)
    assert abs(eigs[2]) < 1e-10


def test_marginal_kernel_follows_its_state():
    # the factor is a view of the state, so a kernel read before a write is not kept
    grid = GridSpec(1, 16, 8.0)
    psi = gaussian_packet(grid, width=1.0)
    dm = marginal(psi, 1)
    before = dm.kernel
    psi.values *= 2.0
    assert dm.trace() == pytest.approx(4.0, rel=1e-12)
    assert dense_trace(dm.kernel, grid, 1) == pytest.approx(4.0, rel=1e-12)
    assert np.max(np.abs(dm.kernel - 4.0 * before)) < 1e-12


def test_eigenvalues_build_no_kernel():
    # the full 3-particle marginal on 64 points: a 2^36-entry kernel, over budget
    grid = GridSpec(1, 64, 8.0)
    dm = marginal(product_state(gaussian_packet(grid, width=1.0), 3), 3)
    eigs = dm.eigenvalues()
    assert eigs.shape == (64**3,)
    assert eigs[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(eigs[1:] == 0.0)
    with pytest.raises(ConfigurationError, match="2\\^28"):
        dm.kernel


def test_marginal_chain_consistency(grid):
    state = random_symmetric_state(grid, 3, seed=11)
    dm2 = marginal(state, 2)
    dm1 = marginal(state, 1)
    dense = dm2.kernel
    for reduced in (partial_trace(dm2).kernel, dense_partial_trace(dense, grid, 2)):
        assert np.max(np.abs(reduced - dm1.kernel)) < 1e-10
    assert np.max(np.abs(dense - dense.conj().T)) < 1e-10
    assert np.all(dm2.eigenvalues() > -1e-10)
    assert np.allclose(dm2.eigenvalues(), dense_eigenvalues(dense, grid, 2), atol=1e-10)


def test_partial_trace_on_a_plane_grid():
    # tracing out a slot weighs it by one cell volume dx^d, not dx^(d^2)
    state = random_symmetric_state(GridSpec(2, 8, 5.0), 2, seed=1)
    gamma2 = marginal(state, 2)
    factored = partial_trace(gamma2)
    dense = dense_partial_trace(gamma2.kernel, state.grid, 2)
    assert factored.trace() == pytest.approx(1.0, abs=1e-12)
    assert dense_trace(dense, state.grid, 1) == pytest.approx(1.0, abs=1e-12)
    for reduced in (factored.kernel, dense):
        assert np.max(np.abs(reduced - marginal(state, 1).kernel)) < 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_kinetic_energy_of_product_adds_per_slot(grid, orbital, n):
    state = product_state(orbital, n)
    assert kinetic_energy(state) == pytest.approx(n * kinetic_energy(orbital), rel=1e-12)


def test_evolve_manybody_hands_out_n_slot_fields(grid, orbital):
    seen = []
    psi0 = product_state(orbital, 3)
    out = evolve_manybody(
        psi0, None, None, 0.02, 1e-2, callback=lambda s, t, st, kin: seen.append(st)
    )
    assert len(seen) == 2
    for state in seen + [out]:
        assert type(state) is WaveFunction
        assert state.n_particles == 3


def test_condensate_overlap_trivial_cases(grid):
    p1, p2 = plane_wave(grid, 1), plane_wave(grid, 2)
    proj = marginal(product_state(p1, 2), 1)
    assert condensate_overlap(proj, p1) == pytest.approx(1.0, abs=1e-12)
    assert condensate_overlap(proj, p2) == pytest.approx(0.0, abs=1e-12)
    # the equal mixture of the two projectors, as one Gram factor
    m1, m2 = marginal(product_state(p1, 2), 1), marginal(product_state(p2, 2), 1)
    dm = DensityMatrix(grid, 1, np.hstack([m1.factor, m2.factor]), 0.5 * m1.weight)
    assert condensate_overlap(dm, p1) == pytest.approx(0.5, abs=1e-12)
    assert dense_overlap(dm.kernel, p1, 1) == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(GridMismatchError):
        condensate_overlap(proj, plane_wave(GridSpec(1, 64, 8.0), 1))


def test_energy_moment_eigenstate_identity(grid):
    # plane-wave products are eigenstates of the free discrete Hamiltonian
    state = product_state(plane_wave(grid, 2), 2)
    free = total_potential(grid, 2, None, None)
    e1 = energy_moment(state, free, 1)
    e2 = energy_moment(state, free, 2)
    assert e1 == pytest.approx(2 * plane_wave_k(grid, 2), rel=1e-12)
    assert e2 == pytest.approx(e1**2, rel=1e-10)
    with pytest.raises(DomainError):
        energy_moment(state, free, 3)


def test_pair_energy_approaches_short_range_limit():
    # per-particle pair energy of a product state approaches
    # (b0/2) int |phi|^4 as the family shrinks; identity checked against the
    # tensor contraction for buildable sizes
    grid = GridSpec(1, 64, 8.0)
    phi = gaussian_packet(grid, width=1.0)
    base = GaussianPotential(0.5, 1.0, cutoff=5.0)
    b0 = born_coupling_1d(base)
    rho = np.abs(phi.values) ** 2
    target = 0.5 * b0 * float(np.sum(rho**2) * grid.spacing)
    dist = _distance_reference(grid)
    errors = []
    for n in (2, 4, 8):
        scaled = base.scaled_analog1d(n)
        pair_integral = float(rho @ scaled(dist) @ rho) * grid.spacing**2
        per_particle = 0.5 * (n - 1) * pair_integral
        errors.append(abs(per_particle - target))
        if n == 2:
            state = product_state(phi, n)
            from_moment = (
                energy_moment(state, total_potential(grid, n, scaled, None), 1)
                - energy_moment(state, total_potential(grid, n, None, None), 1)
            ) / n
            assert from_moment == pytest.approx(per_particle, rel=1e-10)
    assert errors[0] > errors[1] > errors[2]


def test_correlation_quotient_plane_waves(grid):
    # with a unit profile the integral factorizes into k_i^2 k_j^2
    p = plane_wave(grid, 2)
    state = product_state(p, 2)
    k2 = plane_wave_k(grid, 2)
    value = correlation_quotient(state, None, 0, 1)
    assert value == pytest.approx(k2 * k2, rel=1e-10)
    with pytest.raises(DomainError):
        correlation_quotient(state, None, 0, 0)
    for bad in (0.0, -1.0, np.inf, np.nan):  # at the largest distances only
        with pytest.raises(DomainError, match="positive"):
            correlation_quotient(state, lambda r: np.where(r < 3.0, 1.0, bad), 0, 1)


def test_correlation_quotient_separates_dressed_from_raw():
    # two particles in d = 3: the profile-divided integral stays flat across
    # the scaling family while the undivided one grows
    solution = solve_zero_energy(BarrierPotential(8.0, 1.0))
    grid = GridSpec(3, 8, 6.0)
    phi = gaussian_packet(grid, width=1.2)
    quotients, raws = [], []
    for n in (4, 8):
        profile = jastrow(solution, n)
        state = jastrow_product_state(phi, 2, profile)
        quotients.append(correlation_quotient(state, profile, 0, 1))
        raws.append(correlation_quotient(state, None, 0, 1))
    assert raws[1] > raws[0]
    assert max(quotients) / min(quotients) < 2.0


def test_correlation_quotient_evaluates_the_profile_once():
    # 1/f is read from the M^d table the positivity check was made on, and the
    # quotient is exactly the one through a pair_field of 1/f
    grid = GridSpec(3, 8, 6.0)
    profile = jastrow(solve_zero_energy(BarrierPotential(8.0, 1.0)), 4)
    state = jastrow_product_state(gaussian_packet(grid, width=1.2), 2, profile)
    sizes = []

    def counted(r):
        sizes.append(np.size(r))
        return profile(r)

    value = correlation_quotient(state, counted, 0, 1)
    assert sizes == [grid.size]
    reciprocal = pair_field(grid, lambda r: 1.0 / profile(r), 2, 0, 1)
    k2 = [spectral.k_squared(grid, 2, (slot,)) for slot in (0, 1)]
    assert value == spectral.transform_energy(state.values, state.measure, *k2, factor=reciprocal)


def test_second_moment_controls_correlation_quotient(grid, orbital):
    # both sides computed independently; the ratio is reported, not asserted
    solution = solve_zero_energy(BarrierPotential(4.0, 1.0))
    profile = jastrow(solution, 4)
    pair = BarrierPotential(4.0, 1.0).scaled(4)
    ratios = []
    for state in (
        jastrow_product_state(orbital, 2, profile),
        product_state(orbital, 2),
    ):
        h2 = energy_moment(state, total_potential(grid, 2, pair, None), 2)
        quotient = correlation_quotient(state, profile, 0, 1)
        assert h2 > 0 and quotient > 0
        ratios.append(h2 / quotient)
    print(f"empirical second-moment/quotient ratios: {ratios}")
    assert all(np.isfinite(r) and r > 0 for r in ratios)


def _factorization_distance(psi, phi, k):
    """Distance from psi to the closest state with its first k slots in phi."""
    return np.sqrt(max(0.0, 1.0 - condensate_overlap(marginal(psi, k), phi)))


def test_overlap_distance_trivial_cases(grid, orbital):
    assert _factorization_distance(product_state(orbital, 3), orbital, 1) == pytest.approx(
        0.0, abs=1e-8
    )
    assert _factorization_distance(product_state(orbital, 3), orbital, 2) == pytest.approx(
        0.0, abs=1e-8
    )
    p1, p2 = plane_wave(grid, 1), plane_wave(grid, 2)
    assert _factorization_distance(product_state(p2, 2), p1, 1) == pytest.approx(1.0, abs=1e-12)
    assert _factorization_distance(product_state(p2, 2), p1, 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DomainError):
        _factorization_distance(product_state(orbital, 2), orbital, 3)
    with pytest.raises(DomainError):
        condensate_overlap(marginal(product_state(orbital, 2), 2), product_state(orbital, 2))


@pytest.mark.parametrize("k", [1, 2])
def test_overlap_distance_shrinks_with_scaling(grid, orbital, k):
    solution = solve_zero_energy(BarrierPotential(8.0, 1.0))
    distances = [
        _factorization_distance(
            jastrow_product_state(orbital, 2, jastrow(solution, n)), orbital, k
        )
        for n in (4, 8, 16)
    ]
    assert distances[0] > distances[1] > distances[2]


def test_hardy_inequality_on_trial_family():
    grid = GridSpec(3, 16, 12.0)
    family = [
        gaussian_packet(grid, width=1.2),
        gaussian_packet(grid, width=0.8, momentum=[1.0, 0.0, 0.0]),
        gaussian_packet(grid, width=1.5, center=[0.5, 0.0, -0.4]),
    ]
    for wf in family:
        lhs, rhs = hardy_check(wf)
        assert lhs <= rhs
    with pytest.raises(ConfigurationError):
        hardy_check(gaussian_packet(GridSpec(1, 32, 8.0), width=1.0))


def test_hardy_scaling_covariance():
    # both sides scale as lambda^2 under r -> r/lambda, so the ratio is fixed
    ratios = []
    for lam, box in ((1.0, 12.0), (2.0, 6.0)):
        grid = GridSpec(3, 16, box)
        wf = gaussian_packet(grid, width=1.2 / lam)
        lhs, rhs = hardy_check(wf)
        ratios.append(lhs / rhs)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-6)


def test_mean_field_trend_in_analog_mode():
    # machinery check: depletion against the mean-field orbital shrinks as
    # the particle number grows along the one-dimensional analog family
    grid = GridSpec(1, 32, 8.0)
    phi = gaussian_packet(grid, width=1.0)
    base = GaussianPotential(0.5, 1.0, cutoff=5.0)
    b0 = born_coupling_1d(base)
    t_final, dt = 0.3, 5e-3
    depletions = []
    for n in (2, 3, 4):
        pair = base.scaled_analog1d(n)
        evolved = evolve_manybody(product_state(phi, n), pair, None, t_final, dt)
        reference = evolve_gp(phi, b0, t_final, dt)
        depletions.append(1.0 - condensate_overlap(marginal(evolved, 1), reference))
    assert depletions[0] > depletions[1] > depletions[2]


pair_cases = settings(max_examples=20, deadline=None)
layouts = st.tuples(st.sampled_from([1, 2, 3]), st.sampled_from([8, 16]), st.sampled_from([2, 3]))
boxes = st.floats(2.0, 20.0)


@pair_cases
@given(layout=layouts, box=boxes)
def test_pair_field_matches_direct_distances(layout, box):
    dim, points, n = layout
    grid = GridSpec(dim, points, box)
    reference = _distance_reference(grid)
    for i, j in itertools.permutations(range(n), 2):
        field = pair_field(grid, lambda r: r, n, i, j)
        shape = [1] * (n * dim)
        for a in range(dim):
            shape[i * dim + a] = shape[j * dim + a] = points
        assert field.shape == tuple(shape)
        assert np.max(np.abs(field.reshape(reference.shape) - reference)) < 1e-12 * box


def test_pair_field_is_the_gathered_field_as_a_read_only_view():
    profiles = (jastrow(solve_zero_energy(BarrierPotential(4.0, 1.0)), 4), lambda r: r)
    for dim, points, n in itertools.product((1, 2, 3), (8, 16), (2, 3, 4)):
        if points ** (dim * n) > 2**16:
            continue
        grid = GridSpec(dim, points, 4.7)  # a box whose displacement table is not mirror-exact
        for profile, (i, j) in itertools.product(profiles, itertools.permutations(range(n), 2)):
            field = pair_field(grid, profile, n, i, j)
            assert np.array_equal(field, gathered_pair_field(grid, profile, n, i, j))
            with pytest.raises(ValueError):
                field[...] = 0.0
        _, built = _extra_peak(pair_field, grid, profiles[0], n, 0, n - 1)
        assert built < 2**dim * grid.size * 8 + 64 * 1024  # the tiled table, never the field


def test_pair_field_rejects_equal_or_missing_slots():
    grid = GridSpec(1, 8, 4.0)
    for i, j in ((0, 0), (1, 1), (0, 2), (2, 0), (-1, 0)):
        with pytest.raises(DomainError, match="distinct slots"):
            pair_field(grid, GaussianPotential(1.0, 0.5), 2, i, j)


@pair_cases
@given(layout=layouts.filter(lambda lay: lay[1] ** (lay[0] * lay[2]) <= 2**24), box=boxes)
def test_total_potential_is_exchange_symmetric(layout, box):
    dim, points, n = layout
    grid = GridSpec(dim, points, box)
    total = total_potential(grid, n, GaussianPotential(1.0, 0.1 * box), TrapModel("harmonic", 1.0))
    for i in range(n - 1):
        assert np.max(np.abs(exchange_particles(total, i, i + 1, dim) - total)) < 1e-12


# --- memory of the pair-state diagnostics -------------------------------------


def test_marginal_checks_the_kernel_budget_only_when_the_kernel_is_read():
    # the level-3 kernel of three bosons on 64 points has 2^36 entries
    dm = marginal(product_state(gaussian_packet(GridSpec(1, 64, 8.0)), 3), 3)
    assert dm.trace() == pytest.approx(1.0, abs=1e-12)
    assert partial_trace(dm).trace() == pytest.approx(1.0, abs=1e-12)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="2\\^28"):
            dm.kernel
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _extra_peak(call, *args):
    """call(*args) and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_state_diagnostics_make_no_extra_state_sized_temporaries():
    # the criterion 09 setting: two bosons on 16^3, a 2^24-amplitude (256 MiB)
    # state, whose 128 MiB pair field is a view of a 256 KiB table
    profile = jastrow(solve_zero_energy(BarrierPotential(8.0, 1.0)), 8)
    phi = gaussian_packet(GridSpec(3, 16, 6.0), width=1.2)
    state_bytes, mib = 16 * phi.grid.size**2, 2**20
    state, built = _extra_peak(jastrow_product_state, phi, 2, profile)
    assert built < state_bytes + 12 * mib  # the state it returns, and one norm slab
    _, norm = _extra_peak(state.norm)
    assert norm < state_bytes / 8
    for pair_profile in (profile, None):  # measured: S/2 + 16.6 MiB dressed, S/2 + 16.1 MiB raw
        _, quotient = _extra_peak(correlation_quotient, state, pair_profile, 0, 1)
        assert quotient < state_bytes / 2 + 20 * mib  # one half-sized work array, the sum's slabs


# --- invariants on small layouts ------------------------------------------------

small_cases = settings(max_examples=20, deadline=None)
small_layouts = st.tuples(
    st.integers(2, 4), st.sampled_from([8, 16]), st.integers(1, 3)
).filter(lambda lay: lay[1] ** (lay[0] * lay[2]) <= 2**16)


@small_cases
@given(layout=small_layouts, box=st.floats(4.0, 12.0), seed=st.integers(0, 2**32 - 1))
def test_random_symmetric_state_is_symmetric_and_normalized(layout, box, seed):
    n, points, dim = layout
    state = random_symmetric_state(GridSpec(dim, points, box), n, seed)
    assert abs(state.norm() - 1.0) < 1e-12
    scale = np.max(np.abs(state.values))
    for i, j in itertools.combinations(range(n), 2):
        swapped = exchange_particles(state.values, i, j, dim)
        assert np.max(np.abs(swapped - state.values)) < 1e-12 * scale


@small_cases
@given(
    layout=small_layouts,
    k=st.integers(1, 3),
    box=st.floats(4.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_marginals_have_unit_trace_and_are_hermitian(layout, k, box, seed):
    n, points, dim = layout
    k = min(k, n)
    while k > 1 and points ** (2 * dim * k) > 2**16:
        k -= 1
    state = random_symmetric_state(GridSpec(dim, points, box), n, seed)
    dm = marginal(state, k)
    assert abs(dm.trace() - 1.0) < 1e-12
    kernel = dm.kernel
    assert np.max(np.abs(kernel - kernel.conj().T)) < 1e-12


@small_cases
@given(
    layout=small_layouts,
    box=st.floats(4.0, 12.0),
    v0=st.floats(0.0, 5.0),
    omega=st.floats(0.1, 2.0),
    steps=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_evolution_is_reversible(layout, box, v0, omega, steps, seed):
    n, points, dim = layout
    state = random_symmetric_state(GridSpec(dim, points, box), n, seed)
    pair, trap = GaussianPotential(v0, 0.1 * box), TrapModel("harmonic", omega)
    t, dt = 0.01 * steps, 0.01
    back = evolve_manybody(evolve_manybody(state, pair, trap, t, dt), pair, trap, -t, dt)
    assert WaveFunction(state.grid, back.values - state.values).norm() < 1e-10

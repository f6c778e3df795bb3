import string
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gplab import hierarchy
from gplab.errors import ConfigurationError, DomainError
from gplab.gp import evolve_gp
from gplab.grids import (
    GridSpec,
    WaveFunction,
    free_evolve,
    gaussian_packet,
    kinetic_energy,
    plane_wave,
)
from gplab.hierarchy import (
    HierarchyFamily,
    _assemble_terms,
    _collide,
    _collide_terms,
    _evolve_terms,
    _simplex_nodes,
    _terms_norm,
    bbgky_residual,
    dyson_partial_sum,
    dyson_term,
    factorized_kernel,
    free_propagate_kernel,
    infinite_hierarchy_residual,
    kernel_distance,
    kernel_norm,
    power_counting_margin,
    sobolev_trace_norm,
)
from gplab.manybody import (
    condensate_overlap,
    evolve_manybody,
    marginal,
    pair_field,
    partial_trace,
    product_state,
    total_potential,
)
from gplab.potential import BarrierPotential, GaussianPotential, scale_potential

from conftest import (
    dense_eigenvalues,
    dense_overlap,
    dense_partial_trace,
    dense_sobolev_trace,
    dense_trace,
    plane_wave_k,
    random_symmetric_state,
)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(1, 32, 8.0)


@pytest.fixture(scope="module")
def orbital(grid):
    return gaussian_packet(grid, width=1.0, momentum=[0.5])


# --- free propagation -----------------------------------------------------


def test_free_propagate_at_zero_is_identity(grid, orbital):
    kernel = factorized_kernel(orbital, 1)
    out = free_propagate_kernel(kernel, grid, 1, 0.0)
    assert np.max(np.abs(out - kernel)) < 1e-14


def test_free_propagate_conjugates_projector(grid, orbital):
    t = 0.37
    out = free_propagate_kernel(factorized_kernel(orbital, 1), grid, 1, t)
    expected = factorized_kernel(free_evolve(orbital, t), 1)
    assert np.max(np.abs(out - expected)) < 1e-12
    assert dense_trace(out, grid, 1) == pytest.approx(1.0, abs=1e-12)
    eigs = dense_eigenvalues(out, grid, 1)
    assert eigs[0] == pytest.approx(1.0, abs=1e-10)


def test_free_propagate_preserves_spectrum_and_regularity(grid):
    state = WaveFunction(
        grid,
        (
            np.tensordot(plane_wave(grid, 1).values, plane_wave(grid, 2).values, axes=0)
            + np.tensordot(plane_wave(grid, 2).values, plane_wave(grid, 1).values, axes=0)
        ),
    ).normalized()
    dm = marginal(state, 1)
    out = free_propagate_kernel(dm.kernel, grid, 1, 0.51)
    assert dense_trace(out, grid, 1) == pytest.approx(dm.trace(), abs=1e-10)
    assert np.max(np.abs(out - out.conj().T)) < 1e-10
    assert np.allclose(dense_eigenvalues(out, grid, 1), dm.eigenvalues(), atol=1e-10)
    assert dense_sobolev_trace(out, grid, 1) == pytest.approx(sobolev_trace_norm(dm), abs=1e-10)


# --- collision operator -----------------------------------------------------


def _collision_closed_form(phi, k, sigma):
    """Contact collision term on the (k+1)-fold product of phi, written densely:
    -i sigma sum_j (|phi(x_j)|^2 - |phi(x'_j)|^2) prod_i phi(x_i) conj(phi(x'_i))."""
    values = phi.values.ravel()
    density, size = np.abs(values) ** 2, values.size
    product = np.ones(1, dtype=complex)
    for _ in range(k):
        product = np.kron(product, values)
    out = np.zeros((product.size, product.size), dtype=complex)
    for j in range(k):
        on_slot_j = np.kron(np.kron(np.ones(size**j), density), np.ones(size ** (k - 1 - j)))
        out += on_slot_j[:, None] - on_slot_j[None, :]
    return -1j * sigma * out * np.outer(product, product.conj())


def _term_collision(phi, k, sigma):
    product = [(1.0, [(phi.values, phi.values)] * (k + 1))]
    return _assemble_terms(_collide_terms(product, sigma), phi.grid.size)


def _contact_collision(gamma_next, sigma):
    """Contact collision of strength sigma on a factored (k+1)-marginal: the
    delta's (dx)^-d weight cancels the partial trace's (dx)^d measure."""
    return -1j * sigma * _collide(gamma_next, gamma_next.k - 1, np.eye(gamma_next.grid.size))


def _collision_oracle(kernel, k, weight):
    """sum_j Tr_{k+1}[W(x_j, z), gamma^(k+1)] on a dense (k+1)-particle kernel,
    through the traced slot's diagonal: one einsum letter per slot of M^d points."""
    size = weight.shape[0]
    rows, cols = string.ascii_lowercase[:k], string.ascii_lowercase[k : 2 * k]
    work = kernel.reshape((size,) * (2 * k + 2))
    diag = np.einsum(f"{rows}z{cols}z->{rows}{cols}z", work)
    out = np.zeros((size,) * (2 * k), dtype=complex)
    for j in range(k):
        out += np.einsum(f"{rows[j]}z,{rows}{cols}z->{rows}{cols}", weight, diag)
        out -= np.einsum(f"{cols[j]}z,{rows}{cols}z->{rows}{cols}", weight, diag)
    return out.reshape(size**k, size**k)


def test_factored_collision_matches_closed_form(grid, orbital):
    state = product_state(orbital, 2)
    gamma2 = marginal(state, 2)
    sigma = 0.7
    factored = _contact_collision(gamma2, sigma)
    closed_form = _collision_closed_form(orbital, 1, sigma)
    assert np.max(np.abs(factored - closed_form)) < 1e-12


def test_collision_commutator_structure(grid, orbital):
    sigma = 0.7
    out = _term_collision(orbital, 1, sigma)
    assert abs(np.trace(out)) * grid.cell_volume < 1e-10
    # output = -i sigma T with T anti-hermitian, so the output is hermitian
    commutator_part = out / (-1j * sigma)
    assert np.max(np.abs(commutator_part + commutator_part.conj().T)) < 1e-12


def test_collision_vanishes_for_flat_density_and_zero_coupling(grid, orbital):
    flat = WaveFunction(grid, np.ones(grid.shape, dtype=complex)).normalized()
    assert np.max(np.abs(_term_collision(flat, 1, 0.9))) < 1e-14
    assert np.max(np.abs(_term_collision(orbital, 1, 0.0))) < 1e-14


def _random_orbital(grid, seed):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    return WaveFunction(grid, values).normalized()


collision_cases = settings(max_examples=20, deadline=None)
levels = st.sampled_from([1, 2])
# (k, d) on 8 points with a level-k kernel of at most 64^2 entries
collision_layouts = st.tuples(levels, st.sampled_from([1, 2])).filter(lambda kd: kd[0] * kd[1] <= 2)
boxes = st.floats(4.0, 12.0)
couplings = st.floats(-3.0, 3.0).filter(lambda sigma: abs(sigma) > 1e-3)
seeds = st.integers(0, 2**32 - 1)


@collision_cases
@given(layout=collision_layouts, box=boxes, sigma=couplings, seed=seeds)
@example(layout=(1, 2), box=6.0, sigma=0.7, seed=2)
@example(layout=(1, 3), box=6.0, sigma=0.7, seed=3)
def test_collision_back_ends_agree_on_product_states(layout, box, sigma, seed):
    k, d = layout
    phi = _random_orbital(GridSpec(d, 8, box), seed)
    closed_form = _collision_closed_form(phi, k, sigma)
    factored = _contact_collision(marginal(product_state(phi, k + 1), k + 1), sigma)
    assert np.max(np.abs(factored - closed_form)) < 1e-12
    assert np.max(np.abs(_term_collision(phi, k, sigma) - closed_form)) < 1e-12


@collision_cases
@given(layout=collision_layouts, extra=st.sampled_from([0, 1]), box=boxes, seed=seeds)
def test_collision_is_traceless_and_anti_hermitian(layout, extra, box, seed):
    k, d = layout
    grid = GridSpec(d, 8, box)
    state = random_symmetric_state(grid, k + 1 + extra, seed)
    part = _collide(marginal(state, k + 1), k, np.eye(grid.size))
    assert abs(np.trace(part)) * grid.cell_volume**k < 1e-12
    assert np.max(np.abs(part + part.conj().T)) < 1e-12


def test_level_three_kernels_rejected_before_allocation():
    # a level-3 kernel on 64 points has 2^36 entries; the limit residual never
    # builds it, so it runs at level 3 there
    grid = GridSpec(1, 64, 8.0)
    phi = gaussian_packet(grid, width=1.0)
    frames = {tt: phi for tt in (-1e-3, 0.0, 1e-3)}
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError):
            factorized_kernel(phi, 3)
        residual = infinite_hierarchy_residual(frames, 3, 1.0, 0.0, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert residual > 0.0


# --- exact-marginal equation -----------------------------------------------


def _dense_hamiltonian(grid, pair):
    m = grid.points_per_axis
    fourier = np.fft.fft(np.eye(m), axis=0)
    kinetic = np.fft.ifft((grid.k_axis() ** 2)[:, None] * fourier, axis=0)
    kinetic = 0.5 * (kinetic + kinetic.conj().T)
    w = total_potential(grid, 2, pair, None).reshape(m * m)
    h = np.kron(kinetic, np.eye(m)) + np.kron(np.eye(m), kinetic) + np.diag(w)
    return 0.5 * (h + h.conj().T)


def test_stationary_eigenstate_has_tiny_residual():
    grid = GridSpec(1, 8, 6.0)
    pair = GaussianPotential(1.5, 1.0, cutoff=2.5)
    h = _dense_hamiltonian(grid, pair)
    _, vectors = np.linalg.eigh(h)
    m = grid.points_per_axis
    ground = vectors[:, 0].reshape(m, m)
    ground = 0.5 * (ground + ground.T)
    state = WaveFunction(grid, ground.astype(complex)).normalized()
    dm1, dm2 = marginal(state, 1), marginal(state, 2)
    dt = 1e-3
    frames = {-dt: dm1, 0.0: dm1, dt: dm1}
    assert bbgky_residual(frames, dm2, pair, 2, 0.0, dt) < 1e-6


def test_marginal_equation_residual_second_order():
    grid = GridSpec(1, 64, 8.0)
    phi = gaussian_packet(grid, width=1.0)
    pair = scale_potential(GaussianPotential(2.0, 0.5, cutoff=3.0), 2)
    t = 0.1
    residuals = []
    for dt in (2e-3, 1e-3):
        state0 = product_state(phi, 2)
        frames = {}
        gamma2 = None
        for tt in (t - dt, t, t + dt):
            evolved = evolve_manybody_cached(state0, pair, tt, dt)
            frames[tt] = marginal(evolved, 1)
            if abs(tt - t) < 1e-12:
                gamma2 = marginal(evolved, 2)
        residuals.append(bbgky_residual(frames, gamma2, pair, 2, t, dt))
    assert 3.2 < residuals[0] / residuals[1] < 4.8


def test_marginal_equation_residual_second_order_in_3d():
    # criterion 07's pair on 8^3: slots index M^d points, so any d runs
    grid = GridSpec(3, 8, 8.0)
    phi = gaussian_packet(grid, width=1.0)
    pair = scale_potential(GaussianPotential(2.0, 0.5, cutoff=3.0), 2)
    state0 = product_state(phi, 2)
    t = 0.008
    residuals = []
    for dt in (2e-3, 1e-3):
        frames = {}
        gamma2 = None
        for tt in (t - dt, t, t + dt):
            evolved = evolve_manybody_cached(state0, pair, tt, dt)
            frames[tt] = marginal(evolved, 1)
            if abs(tt - t) < 1e-12:
                gamma2 = marginal(evolved, 2)
        residuals.append(bbgky_residual(frames, gamma2, pair, 2, t, dt))
    assert 3.2 < residuals[0] / residuals[1] < 4.8


def test_two_particle_marginal_equation_residual_second_order():
    # k = 2 of n = 3 reaches the intra-group pair commutator
    grid = GridSpec(1, 8, 6.0)
    phi = gaussian_packet(grid, width=1.0, momentum=[0.5])
    pair = GaussianPotential(2.0, 0.7, cutoff=2.5)
    state0 = product_state(phi, 3)
    t = 0.1
    residuals = []
    for dt in (4e-3, 2e-3):
        frames = {}
        gamma3 = None
        for tt in (t - dt, t, t + dt):
            evolved = evolve_manybody_cached(state0, pair, tt, dt)
            frames[tt] = marginal(evolved, 2)
            if abs(tt - t) < 1e-12:
                gamma3 = marginal(evolved, 3)
        residuals.append(bbgky_residual(frames, gamma3, pair, 3, t, dt))
    assert 3.2 < residuals[0] / residuals[1] < 4.8


def _residual_oracle(frames, gamma_next, pair, n, t, dt):
    """bbgky_residual with [H_k, gamma] from both slot halves: the kinetic term
    through numpy.fft on the rows and on the columns, the row and the column
    pair fields, and the collision through `_collision_oracle` where the dense
    (k+1)-kernel fits (on 8^3 its 2^36 entries do not, and `_collide` stands in)."""
    before, center, after = (frames[tt] for tt in (t - dt, t, t + dt))
    grid, k = center.grid, center.k
    work = center.kernel.reshape(grid.shape * (2 * k))
    rows, cols = tuple(range(k * grid.dim)), tuple(range(k * grid.dim, 2 * k * grid.dim))
    k2 = grid.k_axis() ** 2
    k2_rows, k2_cols = (
        sum(k2.reshape([-1 if b == a else 1 for b in range(work.ndim)]) for a in axes)
        for axes in (rows, cols)
    )
    rhs = np.fft.ifftn(np.fft.fftn(work, axes=rows) * k2_rows, axes=rows)
    rhs -= np.fft.fftn(np.fft.ifftn(work, axes=cols) * k2_cols, axes=cols)
    for i in range(k):
        for j in range(i + 1, k):
            rhs += pair_field(grid, pair, 2 * k, i, j) * work
            rhs -= work * pair_field(grid, pair, 2 * k, k + i, k + j)
    rhs = rhs.reshape(center.kernel.shape)
    weight = grid.cell_volume * pair_field(grid, pair, 2, 0, 1).reshape(grid.size, grid.size)
    if grid.size ** (2 * k + 2) <= 2**24:
        rhs += (n - k) * _collision_oracle(gamma_next.kernel, k, weight)
    else:
        rhs += (n - k) * _collide(gamma_next, k, weight)
    lhs = 1j * (after.kernel - before.kernel) / (2.0 * dt)
    return kernel_norm(lhs - rhs, grid, k) / kernel_norm(rhs, grid, k)


@pytest.mark.parametrize("n,k,dim,points", [(2, 1, 1, 16), (3, 2, 1, 8), (2, 1, 3, 8)])
def test_residual_matches_two_half_oracle(n, k, dim, points):
    # H_k from the row half alone against both halves, on an evolved random state
    grid = GridSpec(dim, points, 6.0)
    pair = GaussianPotential(2.0, 0.7, cutoff=2.5)
    state0 = random_symmetric_state(grid, n, seed=5)
    t, dt = 0.006, 2e-3
    states = {tt: evolve_manybody_cached(state0, pair, tt, dt) for tt in (t - dt, t, t + dt)}
    frames = {tt: marginal(state, k) for tt, state in states.items()}
    gamma_next = marginal(states[t], k + 1)
    residual = bbgky_residual(frames, gamma_next, pair, n, t, dt)
    oracle = _residual_oracle(frames, gamma_next, pair, n, t, dt)
    assert residual == pytest.approx(oracle, rel=1e-9)


def evolve_manybody_cached(state0, pair, t, dt):
    from gplab.manybody import evolve_manybody

    return evolve_manybody(state0, pair, None, t, dt)


def test_free_marginals_satisfy_equation():
    grid = GridSpec(1, 32, 8.0)
    phi = gaussian_packet(grid, width=1.0, momentum=[0.5])
    zero = BarrierPotential(0.0, 1.0)
    t, dt = 0.1, 1e-5
    frames = {
        tt: marginal(product_state(free_evolve(phi, tt), 2), 1) for tt in (t - dt, t, t + dt)
    }
    gamma2 = marginal(product_state(free_evolve(phi, t), 2), 2)
    assert bbgky_residual(frames, gamma2, zero, 2, t, dt) < 1e-8


def test_missing_frames_rejected(grid, orbital):
    dm = marginal(product_state(orbital, 2), 1)
    gamma2 = marginal(product_state(orbital, 2), 2)
    with pytest.raises(ConfigurationError):
        bbgky_residual({0.0: dm}, gamma2, BarrierPotential(0.0, 1.0), 2, 0.0, 1e-3)


def test_too_few_particles_rejected():
    # the collision carries the factor n - k: a 2-particle marginal needs n >= 2
    grid = GridSpec(1, 16, 8.0)
    state = product_state(gaussian_packet(grid, width=1.0), 2)
    t, dt = 0.01, 1e-3
    frames = {tt: marginal(state, 1) for tt in (t - dt, t, t + dt)}
    for n in (1, 0, -3):
        with pytest.raises(DomainError, match="n_particles"):
            bbgky_residual(frames, marginal(state, 2), BarrierPotential(1.0, 1.0), n, t, dt)


def test_frames_on_another_grid_rejected():
    grid, other = GridSpec(1, 16, 8.0), GridSpec(1, 16, 12.0)
    phi, stray = gaussian_packet(grid, width=1.0), gaussian_packet(other, width=1.0)
    dt = 1e-3
    frames = {-dt: marginal(product_state(stray, 2), 1), 0.0: marginal(product_state(phi, 2), 1)}
    frames[dt] = frames[0.0]
    gamma2 = marginal(product_state(phi, 2), 2)
    with pytest.raises(ConfigurationError):
        bbgky_residual(frames, gamma2, BarrierPotential(0.0, 1.0), 2, 0.0, dt)
    with pytest.raises(ConfigurationError):
        infinite_hierarchy_residual({-dt: stray, 0.0: phi, dt: phi}, 1, 1.0, 0.0, dt)


def test_frames_at_another_level_rejected(grid, orbital):
    state, dt = product_state(orbital, 2), 1e-3
    frames = {-dt: marginal(state, 2), 0.0: marginal(state, 1), dt: marginal(state, 1)}
    with pytest.raises(ConfigurationError):
        bbgky_residual(frames, marginal(state, 2), BarrierPotential(0.0, 1.0), 2, 0.0, dt)


# --- limiting-equation residual ---------------------------------------------


def test_matched_coupling_residual_second_order(grid, orbital):
    sigma, t = 1.0, 0.1
    for k in (1, 2):
        residuals = []
        for dt in (4e-3, 2e-3):
            frames = {tt: evolve_gp(orbital, sigma, tt, dt) for tt in (t - dt, t, t + dt)}
            residuals.append(infinite_hierarchy_residual(frames, k, sigma, t, dt))
        assert 3.2 < residuals[0] / residuals[1] < 4.8


def test_mismatched_coupling_leaves_residual_floor(grid, orbital):
    sigma, t, dt = 1.0, 0.1, 1e-3
    frames = {tt: evolve_gp(orbital, sigma, tt, dt) for tt in (t - dt, t, t + dt)}
    matched = infinite_hierarchy_residual(frames, 1, sigma, t, dt)
    mismatched = infinite_hierarchy_residual(frames, 1, sigma / 2.0, t, dt)
    assert mismatched > 10.0 * matched


def _dense_limit_residual(frames, k, sigma, t, dt):
    """Limiting-hierarchy residual on dense product kernels of a d = 1 orbital:
    i dK/dt against [H, K] with H = sum_j (-Laplacian_j + sigma |phi(x_j)|^2),
    the kinetic and collision parts of the right side in one matrix."""
    grid = frames[t].grid
    m = grid.points_per_axis
    lap = np.fft.ifft((grid.k_axis() ** 2)[:, None] * np.fft.fft(np.eye(m), axis=0), axis=0)

    def product(phi):
        vector = np.ones(1, dtype=complex)
        for _ in range(k):
            vector = np.kron(vector, phi.values)
        return np.outer(vector, vector.conj())

    def slot_sum(one):
        total = np.zeros((m**k, m**k), dtype=complex)
        for j in range(k):
            total += np.kron(np.kron(np.eye(m**j), one), np.eye(m ** (k - 1 - j)))
        return total

    phi = frames[t]
    h = slot_sum(lap + sigma * np.diag(np.abs(phi.values) ** 2))
    center = product(phi)
    rhs = h @ center - center @ h
    lhs = 1j * (product(frames[t + dt]) - product(frames[t - dt])) / (2.0 * dt)
    return np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)


@settings(max_examples=20, deadline=None)
@given(
    points=st.sampled_from([8, 16]),
    k=levels,
    box=boxes,
    sigma=couplings,
    dt=st.floats(1e-3, 1e-1),
    seed=seeds,
)
def test_limit_residual_matches_dense_formula(points, k, box, sigma, dt, seed):
    grid = GridSpec(1, points, box)
    t = 0.1
    frames = {tt: _random_orbital(grid, seed + i) for i, tt in enumerate((t - dt, t, t + dt))}
    reference = _dense_limit_residual(frames, k, sigma, t, dt)
    assert infinite_hierarchy_residual(frames, k, sigma, t, dt) == pytest.approx(
        reference, rel=1e-9
    )


def test_limit_residual_resolves_small_defects(grid, orbital):
    # on GP frames the defect is 2e-5 of the terms it is made of, and the Gram
    # sum squares that cancellation: the terms must carry the differences
    sigma, t, dt = 1.0, 0.1, 1e-3
    frames = {tt: evolve_gp(orbital, sigma, tt, dt) for tt in (t - dt, t, t + dt)}
    for k in (1, 2):
        reference = _dense_limit_residual(frames, k, sigma, t, dt)
        assert infinite_hierarchy_residual(frames, k, sigma, t, dt) == pytest.approx(
            reference, rel=1e-8
        )


def test_limit_residual_holds_one_level_two_kernel():
    # a level-2 kernel on 64 points: 4096^2 complex entries, 268 MB
    grid = GridSpec(1, 64, 8.0)
    phi = gaussian_packet(grid, width=1.0, momentum=[0.5])
    frames = {tt: evolve_gp(phi, 1.0, tt, 1e-3) for tt in (0.099, 0.1, 0.101)}
    tracemalloc.start()
    try:
        infinite_hierarchy_residual(frames, 2, 1.0, 0.1, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # both norms come from T x T Gram matrices: nothing kernel-sized is built
    assert peak < 2**20


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2])
def test_terms_norm_matches_assembled_kernel(k, d):
    # only the grid's cell volume enters the norm, so the fields may be
    # smaller than the grid: 3 points per axis keep the assembled kernel small
    grid = GridSpec(d, 8, 6.0)
    rng = np.random.default_rng(10 * k + d)

    def field():
        return rng.normal(size=(3,) * d) + 1j * rng.normal(size=(3,) * d)

    terms = [
        (complex(*rng.normal(size=2)), [(field(), field()) for _ in range(k)]) for _ in range(6)
    ]
    reference = kernel_norm(_assemble_terms(terms, 3**d), grid, k)
    assert _terms_norm(terms, grid, k) == pytest.approx(reference, rel=1e-10)


def test_limit_residual_second_order_in_3d():
    grid = GridSpec(3, 8, 8.0)
    phi = gaussian_packet(grid, width=1.0, momentum=[0.5, 0.0, 0.0])
    sigma, t = 1.0, 0.1
    for k in (1, 2):
        residuals = []
        for dt in (4e-3, 2e-3):
            frames = {tt: evolve_gp(phi, sigma, tt, dt) for tt in (t - dt, t, t + dt)}
            residuals.append(infinite_hierarchy_residual(frames, k, sigma, t, dt))
        assert 3.2 < residuals[0] / residuals[1] < 4.8
        mismatched = infinite_hierarchy_residual(frames, k, sigma / 2.0, t, 2e-3)
        assert mismatched > 10.0 * residuals[1]


def test_residual_consistent_across_levels(grid, orbital):
    sigma, t, dt = 1.0, 0.1, 1e-3
    frames = {tt: evolve_gp(orbital, sigma, tt, dt) for tt in (t - dt, t, t + dt)}
    r1 = infinite_hierarchy_residual(frames, 1, sigma, t, dt)
    r2 = infinite_hierarchy_residual(frames, 2, sigma, t, dt)
    assert r2 <= 2.5 * r1
    assert r2 >= 0.4 * r1


# --- truncated series --------------------------------------------------------


def test_order_zero_term_is_free_flight(grid, orbital):
    family = HierarchyFamily.from_orbital(orbital, 2, 0.8)
    t = 0.05
    term = dyson_term(family, 1, 0, t, 8)
    expected = factorized_kernel(free_evolve(orbital, t), 1)
    assert np.max(np.abs(term - expected)) < 1e-12


def test_zero_coupling_kills_higher_orders(grid, orbital):
    family = HierarchyFamily.from_orbital(orbital, 3, 0.0)
    t = 0.05
    exact = factorized_kernel(free_evolve(orbital, t), 1)
    for n in (1, 2, 3):
        partial = dyson_partial_sum(family, 1, n, t, 8)
        assert kernel_distance(partial, exact, grid, 1) < 1e-12


def test_first_order_term_leading_behavior(grid, orbital):
    sigma = 0.2
    family = HierarchyFamily.from_orbital(orbital, 2, sigma)
    collision = _collision_closed_form(orbital, 1, sigma)
    errors = []
    for t in (0.02, 0.01):
        term = dyson_term(family, 1, 1, t, 32)
        errors.append(kernel_norm(term - t * collision, grid, 1))
    assert 3.2 < errors[0] / errors[1] < 4.8


def test_partial_sums_approach_nonlinear_solution(grid, orbital):
    sigma, t = 0.2, 0.05
    family = HierarchyFamily.from_orbital(orbital, 3, sigma)
    exact = factorized_kernel(evolve_gp(orbital, sigma, t, 1e-4), 1)
    distances = [
        kernel_distance(dyson_partial_sum(family, 1, n, t, 48), exact, grid, 1)
        for n in (1, 2, 3)
    ]
    assert distances[0] > distances[1] > distances[2]


def test_truncation_error_linear_in_coupling(grid, orbital):
    t = 0.05
    errors = []
    for sigma in (0.1, 0.2, 0.4):
        family = HierarchyFamily.from_orbital(orbital, 2, sigma)
        exact = factorized_kernel(evolve_gp(orbital, sigma, t, 1e-4), 1)
        partial = dyson_partial_sum(family, 1, 1, t, 16)
        errors.append(kernel_distance(partial, exact, grid, 1))
    assert errors[1] / errors[0] == pytest.approx(2.0, rel=0.05)
    assert errors[2] / errors[1] == pytest.approx(2.0, rel=0.05)


def test_series_guards(grid, orbital):
    family = HierarchyFamily.from_orbital(orbital, 2, 0.5)
    with pytest.raises(ConfigurationError):
        dyson_term(family, 1, 3, 0.1)
    with pytest.raises(ConfigurationError):
        dyson_term(family, 2, 1, 0.1)  # needs level 3 > k_max
    with pytest.raises(ConfigurationError):
        dyson_term(family, 1, 1, 0.1, quad_points=2)


def test_two_slot_fields_rejected_as_orbitals():
    pair = product_state(gaussian_packet(GridSpec(1, 16, 8.0), width=1.0), 2)
    with pytest.raises(DomainError, match="2 slots"):
        factorized_kernel(pair, 1)
    with pytest.raises(DomainError, match="2 slots"):
        HierarchyFamily.from_orbital(pair, 3, 0.5)


def _dyson_term_oracle(family, k, m, t, quad_points):
    """The order-m term node by node: each node's kernel assembled alone and
    added with its weight."""
    phi, grid = family.orbital, family.orbital.grid
    total = np.zeros((grid.size**k, grid.size**k), dtype=complex)
    for weight, stops in _simplex_nodes([t], m, quad_points):
        phi_s = free_evolve(phi, stops[-1])
        terms = [(1.0, [(phi_s.values, phi_s.values)] * (k + m))]
        for j in reversed(range(m)):
            terms = _collide_terms(terms, family.sigma)
            terms = _evolve_terms(terms, grid, stops[j] - stops[j + 1])
        total += weight * _assemble_terms(terms, grid.size)
    return total


@pytest.mark.parametrize(
    "grid, k, m, quad_points, batches",
    [
        (GridSpec(1, 16, 8.0), 1, 1, 8, 2),  # 4 nodes of 2 terms fill a 256-entry kernel
        (GridSpec(1, 16, 8.0), 1, 2, 4, 16),  # a node of 8 terms fills it alone
        (GridSpec(1, 16, 8.0), 2, 1, 48, 2),  # 32 nodes of 4 terms fill a 256^2 kernel, then 16
        (GridSpec(1, 16, 8.0), 2, 2, 4, 3),  # 6 nodes of 24 terms, then 6, then 4
        (GridSpec(3, 8, 8.0), 1, 2, 4, 1),  # 32 nodes would fill a 512^2 kernel; 16 run
    ],
    ids=["1d-k1-m1", "1d-k1-m2", "1d-k2-m1", "1d-k2-m2", "3d-k1-m2"],
)
def test_batched_series_term_matches_node_by_node(monkeypatch, grid, k, m, quad_points, batches):
    phi = gaussian_packet(grid, width=1.0, momentum=[0.5] + [0.0] * (grid.dim - 1))
    family = HierarchyFamily.from_orbital(phi, 4, 0.5)
    expected = _dyson_term_oracle(family, k, m, 0.05, quad_points)
    calls = []
    monkeypatch.setattr(hierarchy, "_assemble_terms", lambda *a: calls.append(a) or _assemble_terms(*a))
    term = dyson_term(family, k, m, 0.05, quad_points)
    assert len(calls) == batches
    assert np.linalg.norm(term - expected) <= 1e-13 * np.linalg.norm(expected)
    zero = dyson_term(HierarchyFamily.from_orbital(phi, 4, 0.0), k, m, 0.05, quad_points)
    assert not np.any(zero)


def test_batched_series_term_memory_at_8_cubed():
    # a level-1 kernel on 8^3 is 512^2 entries (4 MiB); the term holds it, one
    # batch's product and the batch's fields and Kronecker factors (about one
    # kernel each): 16.2 MiB measured, against 12.1 MiB node by node.  Without the
    # batch bound, the 256 nodes' fields alone would take 32 MiB.
    grid = GridSpec(3, 8, 8.0)
    family = HierarchyFamily.from_orbital(gaussian_packet(grid, width=1.0), 3, 0.5)
    dyson_term(family, 1, 2, 0.05, 4)  # caches the flight matrices
    tracemalloc.start()
    try:
        dyson_term(family, 1, 2, 0.05, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20


def test_series_kernel_budget_checked_before_allocation():
    # a level-1 kernel on 2^15 points has 2^30 entries (16 GiB)
    family = HierarchyFamily.from_orbital(gaussian_packet(GridSpec(1, 2**15, 8.0)), 2, 0.5)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match="level-1 kernel"):
            dyson_term(family, 1, 1, 0.05)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# --- regularity norm ---------------------------------------------------------


def test_sobolev_norm_flat_and_single_mode(grid):
    flat = WaveFunction(grid, np.ones(grid.shape, dtype=complex)).normalized()
    assert sobolev_trace_norm(marginal(flat, 1)) == pytest.approx(1.0, abs=1e-12)
    mode = plane_wave(grid, 3)
    expected = 1.0 + plane_wave_k(grid, 3)
    assert sobolev_trace_norm(marginal(mode, 1)) == pytest.approx(expected, rel=1e-12)


def test_sobolev_norm_factorized_power(grid, orbital):
    base = 1.0 + kinetic_energy(orbital)
    for k in (1, 2):
        dm = marginal(product_state(orbital, k), k)
        assert sobolev_trace_norm(dm) == pytest.approx(base**k, rel=1e-8)


def test_sobolev_norm_constant_along_flat_trajectory(grid):
    # uniform density makes the nonlinear term a pure phase, so the gradient
    # content is frozen; a free packet conserves it as well
    sigma = 1.3
    mode = plane_wave(grid, 2)
    values = []
    for t in (0.0, 0.3, 0.7):
        phi_t = evolve_gp(mode, sigma, t, 1e-3) if t > 0 else mode
        values.append(sobolev_trace_norm(marginal(phi_t, 1)))
    assert max(values) - min(values) < 1e-8
    packet = gaussian_packet(grid, width=1.0)
    free = [sobolev_trace_norm(marginal(free_evolve(packet, t), 1)) for t in (0.0, 0.4)]
    assert abs(free[1] - free[0]) < 1e-8


# --- power counting ----------------------------------------------------------


def test_power_counting_reference_points():
    assert power_counting_margin(1, 1) == (19, 25, 6)
    assert power_counting_margin(1, 0) == (4, 9, 5)


def test_power_counting_margin_formula():
    for k in range(1, 101):
        for m in range(0, 101):
            volume, decay, margin = power_counting_margin(k, m)
            assert margin == 5 * k + m
            assert margin > 0
            assert decay - volume == margin
    with pytest.raises(DomainError):
        power_counting_margin(0, 1)


# --- factored marginals -----------------------------------------------------

factored_cases = settings(max_examples=20, deadline=None)
# (n, d, k) with a dense level-k kernel of at most 4096^2 entries on 8 points
factored_layouts = st.tuples(
    st.sampled_from([2, 3]), st.sampled_from([1, 2]), st.integers(1, 3)
).filter(lambda lay: lay[2] <= lay[0] and lay[1] * lay[2] <= 4)


def _assert_close(value, reference):
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(value - reference)) <= 1e-12 * max(1.0, scale)


@factored_cases
@given(
    layout=factored_layouts,
    box=st.floats(4.0, 12.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_factored_marginal_matches_its_dense_kernel(layout, box, seed):
    n, d, k = layout
    grid = GridSpec(d, 8, box)
    state = random_symmetric_state(grid, n, seed)
    dm = marginal(state, k)
    assert np.shares_memory(dm.factor, state.values) and not dm.factor.flags.writeable
    dense = dm.kernel
    _assert_close(dm.trace(), dense_trace(dense, grid, k))
    _assert_close(sobolev_trace_norm(dm), dense_sobolev_trace(dense, grid, k))
    phi = random_symmetric_state(grid, 1, seed + 1)
    _assert_close(condensate_overlap(dm, phi), dense_overlap(dense, phi, k))
    if k == 1:
        return
    _assert_close(partial_trace(dm).kernel, dense_partial_trace(dense, grid, k))
    # the collision, against a real symmetric pair weight
    raw = np.random.default_rng(seed).normal(size=(grid.size, grid.size))
    weight = raw + raw.T
    _assert_close(_collide(dm, k - 1, weight), _collision_oracle(dense, k - 1, weight))


def test_marginal_checks_build_no_level_two_kernel():
    # the benchmark's series_and_marginals pattern on 64 points, where a
    # level-2 kernel has 4096^2 complex entries (268 MB)
    grid = GridSpec(1, 64, 8.0)
    pair = scale_potential(GaussianPotential(2.0, 0.5), 2)
    psi0 = product_state(gaussian_packet(grid, width=1.0), 2)
    t, dt = 0.1, 2e-3
    states = {tt: evolve_manybody(psi0, pair, None, tt, dt) for tt in (t - dt, t, t + dt)}
    tracemalloc.start()
    try:
        frames = {tt: marginal(state, 1) for tt, state in states.items()}
        gamma2 = marginal(states[t], 2)
        defect = np.max(np.abs(partial_trace(gamma2).kernel - frames[t].kernel))
        residual = bbgky_residual(frames, gamma2, pair, 2, t, dt)
        norm = sobolev_trace_norm(gamma2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
    assert defect < 1e-12 and 0.0 < residual < 1e-2
    assert norm > 1.0 + kinetic_energy(states[t])  # plus <(-Laplacian_1)(-Laplacian_2)> >= 0

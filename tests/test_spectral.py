"""Transform budget and buffer contract of the spectral core, and round-off
equivalence with the plain numpy.fft formulas.

The budget tests count calls through the `numpy.fft` and `scipy.fft` module
attributes, so a transform bound by name at import time (for example
`from numpy.fft import fftn`) escapes the count and fails them; every
transform runs on numpy.fft, none on scipy.fft.  The series budget counts
`free_evolve` calls through the binding `gplab.hierarchy` uses.
"""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from gplab import cli, grids, hierarchy, spectral
from gplab.errors import ConvergenceError, DomainError
from gplab.gp import evolve_gp, gp_energy, minimize_gp
from gplab.grids import GridSpec, free_evolve, gaussian_packet, kinetic_energy
from gplab.hierarchy import (
    HierarchyFamily,
    bbgky_residual,
    dyson_term,
    free_propagate_kernel,
    infinite_hierarchy_residual,
    sobolev_trace_norm,
)
from gplab.manybody import (
    correlation_quotient,
    energy_moment,
    evolve_manybody,
    hardy_check,
    jastrow_product_state,
    marginal,
    pair_field,
    product_state,
    total_potential,
)
from gplab.potential import GaussianPotential, TrapModel

from conftest import dense_sobolev_trace, k2_reference, random_symmetric_state

TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2",
    "rfftn", "irfftn", "hfft", "ihfft",
)
PAIR = GaussianPotential(1.5, 0.5)
TRAP = TrapModel("harmonic", 1.0)


def _record_transforms(monkeypatch, record):
    """Call record(backend, input) before every scipy.fft and numpy.fft transform."""
    for backend, module in (("scipy", scipy.fft), ("numpy", np.fft)):
        for name in TRANSFORMS:
            original = getattr(module, name)

            def counted(x, *args, _original=original, _backend=backend, **kwargs):
                record(_backend, x)
                return _original(x, *args, **kwargs)

            monkeypatch.setattr(module, name, counted)


@pytest.fixture
def transforms(monkeypatch):
    """Calls of every scipy.fft and numpy.fft transform, by backend."""
    counts = {"scipy": 0, "numpy": 0}

    def record(backend, x):
        counts[backend] += 1

    _record_transforms(monkeypatch, record)
    return counts


@pytest.fixture
def transform_sizes(monkeypatch):
    """Input sizes of every scipy.fft and numpy.fft transform, by backend."""
    sizes = {"scipy": [], "numpy": []}
    _record_transforms(monkeypatch, lambda backend, x: sizes[backend].append(np.size(x)))
    return sizes


def _reset(counts):
    counts["scipy"] = counts["numpy"] = 0


# --- transform budget -------------------------------------------------------


def test_evolve_manybody_four_transforms_per_step(transforms):
    grid = GridSpec(1, 16, 6.0)
    psi = product_state(gaussian_packet(grid, width=1.0), 3)
    seen = []
    _reset(transforms)
    evolve_manybody(
        psi, PAIR, TRAP, 7 * 0.01, 0.01, callback=lambda s, t, st, kin: seen.append(st)
    )
    assert transforms == {"scipy": 0, "numpy": 4 * 7}
    # in-place transforms never touch a state already handed to the callback
    replay = [product_state(gaussian_packet(grid, width=1.0), 3)]
    for _ in range(7):
        replay.append(evolve_manybody(replay[-1], PAIR, TRAP, 0.01, 0.01))
    for state, expected in zip(seen, replay[1:]):
        assert np.max(np.abs(state.values - expected.values)) < 1e-13


def _gp_run(callback, stride):
    phi = gaussian_packet(GridSpec(2, 16, 8.0), width=1.0)
    return evolve_gp(phi, 2.0, 0.05, 0.005, callback, stride=stride)


def _manybody_run(callback, stride):
    psi = product_state(gaussian_packet(GridSpec(1, 16, 6.0), width=1.0), 3)
    return evolve_manybody(psi, PAIR, TRAP, 0.1, 0.01, callback, stride=stride)


@pytest.mark.parametrize("run,t", [(_gp_run, 0.05), (_manybody_run, 0.1)], ids=["gp", "manybody"])
def test_callbacks_fire_at_sample_steps_with_their_kinetic_energy(transforms, run, t):
    every, seen = [], []
    run(lambda step, time, field, kinetic: every.append(field), 1)
    _reset(transforms)
    run(lambda *sample: seen.append(sample), 3)
    # 10 steps, sampled at 3, 6, 9 and the last, at no extra transform
    assert transforms == {"scipy": 0, "numpy": 4 * 10}
    assert [(step, time) for step, time, *_ in seen] == [(s, s * (t / 10)) for s in (3, 6, 9, 10)]
    for step, _, field, kinetic in seen:
        assert kinetic == pytest.approx(kinetic_energy(field), rel=1e-13, abs=0)
        # the in-place steps between samples never touch a field handed out
        assert np.max(np.abs(field.values - every[step - 1].values)) < 1e-13


@pytest.mark.parametrize("stride", [0, -1, 1.5])
def test_split_step_stride_must_be_a_positive_integer(stride):
    phi = gaussian_packet(GridSpec(1, 16, 6.0), width=1.0)
    with pytest.raises(DomainError, match="stride"):
        evolve_gp(phi, 1.0, 0.1, 0.01, lambda *args: None, stride=stride)


def test_evolve_gp_four_transforms_per_step(transforms):
    phi = gaussian_packet(GridSpec(2, 16, 8.0), width=1.0)
    seen = []
    _reset(transforms)
    evolve_gp(phi, 2.0, 9 * 0.005, 0.005, callback=lambda s, t, wf, kin: seen.append(wf))
    assert transforms == {"scipy": 0, "numpy": 4 * 9}
    # in-place transforms never touch an orbital already handed to the callback
    replay = [phi]
    for _ in range(9):
        replay.append(evolve_gp(replay[-1], 2.0, 0.005, 0.005))
    assert len(seen) == 9
    for wf, expected in zip(seen, replay[1:]):
        assert np.max(np.abs(wf.values - expected.values)) < 1e-13


def test_minimize_gp_four_transforms_per_cg_iteration(transforms):
    _reset(transforms)
    with pytest.raises(ConvergenceError):
        minimize_gp(TRAP, 0.1, GridSpec(1, 64, 12.0), tol=0.0, max_iterations=6)
    # one transform for the starting spectrum, then 4 per iteration: -Laplacian phi,
    # the preconditioner's forward/inverse pair and the direction's spectrum
    assert transforms == {"scipy": 0, "numpy": 1 + 4 * 6}


def test_energy_moment_first_order_is_one_transform(transforms):
    psi = random_symmetric_state(GridSpec(1, 16, 6.0), 3, seed=1)
    potential = total_potential(psi.grid, 3, PAIR, TRAP)
    _reset(transforms)
    energy = energy_moment(psi, potential, 1)
    assert transforms == {"scipy": 0, "numpy": 1}
    # a kinetic term the caller holds spares the transform
    kinetic = kinetic_energy(psi)
    _reset(transforms)
    assert energy_moment(psi, potential, 1, kinetic=kinetic) == energy
    assert transforms == {"scipy": 0, "numpy": 0}


def test_correlation_quotient_transforms_real_rows_into_half_spectra(transform_sizes):
    # for each part of psi (real, imaginary) that is not all zero and each frequency
    # half of axis 0: one real transform per row (4 rows of 8^3 points) and one
    # axis-0 transform of the (4, 8, 8, 5) half spectrum, dressed or raw
    grid = GridSpec(2, 8, 6.0)
    real = jastrow_product_state(gaussian_packet(grid, width=1.0), 2, lambda r: 1.0 + r)
    assert not real.values.imag.any()
    one_part = ([8**3] * 4 + [4 * 8 * 8 * 5]) * 2
    for psi, parts in ((real, 1), (random_symmetric_state(grid, 2, seed=4), 2)):
        for profile in (lambda r: 1.0 + r, None):
            transform_sizes["numpy"].clear()
            correlation_quotient(psi, profile, 0, 1)
            assert transform_sizes == {"scipy": [], "numpy": one_part * parts}


def test_sampled_manybody_run_makes_four_transforms_per_step(tmp_path, transform_sizes):
    # 400 steps at stride 2: 4 transforms of the 3-slot state per step and
    # one for the t = 0 row's energy, none per sample; the GP reference's
    # transforms are of 16-point lines
    config = {
        "schema_version": "1",
        "experiment": "manybody",
        "potential": {"kind": "gaussian", "v0": 1.0, "width": 0.5},
        "grid": {"dim": 1, "points_per_axis": 16, "box_length": 8.0},
        "particles": 3,
        "time": {"t_final": 0.4, "dt": 0.001},
        "coupling": {"mode": "explicit", "value": 0.7},
        "output": {"dir": str(tmp_path / "mb"), "prefix": "mb"},
    }
    path = tmp_path / "mb.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(path)]) == 0
    rows = (tmp_path / "mb" / "mb_results.csv").read_text().splitlines()
    assert len(rows) == 1 + 201
    assert transform_sizes["scipy"] == []
    assert transform_sizes["numpy"].count(16**3) == 4 * 400 + 1


@pytest.mark.parametrize("k", [1, 2])
def test_limit_residual_is_two_transforms(transforms, k):
    # one forward/inverse pair for -Laplacian phi; every term is rank one
    phi = gaussian_packet(GridSpec(1, 16, 6.0), width=1.0)
    frames = {tt: phi for tt in (-1e-3, 0.0, 1e-3)}
    _reset(transforms)
    infinite_hierarchy_residual(frames, k, 1.0, 0.0, 1e-3)
    assert transforms == {"scipy": 0, "numpy": 2}


@pytest.mark.parametrize("quad_points", [4, 6])
def test_series_free_evolve_calls_per_term(monkeypatch, quad_points):
    # k = 1: one flight of the orbital per node, then one per slot field after
    # each collision, 1 + 4 per order-1 node and 1 + 16 + 16 per order-2 node
    calls = []
    original = hierarchy.free_evolve

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(hierarchy, "free_evolve", counted)
    family = HierarchyFamily.from_orbital(gaussian_packet(GridSpec(1, 16, 6.0), width=1.0), 3, 0.5)
    for m, expected in ((0, 0), (1, 5 * quad_points), (2, 33 * quad_points**2)):
        calls.clear()
        dyson_term(family, 1, m, 0.05, quad_points)
        assert len(calls) == expected


@pytest.mark.parametrize("quad_points", [4, 6])
def test_series_builds_one_phase_table_per_flight_time(monkeypatch, quad_points):
    # an order-2 node flies the orbital to s2, then 16 fields over s1 - s2 and 16 over
    # t - s1, a time every node of one s1 shares: at most 2 Q + 1 tables per s1; an
    # order-1 node flies over s1 and t - s1.  The flights themselves stay as counted above.
    builds, flights = [], []
    build, fly = spectral.free_phase, hierarchy.free_evolve
    monkeypatch.setattr(spectral, "free_phase", lambda *a: builds.append(a[1]) or build(*a))
    monkeypatch.setattr(hierarchy, "free_evolve", lambda *a: flights.append(a[1]) or fly(*a))
    # a grid no other test flies on, so no table is cached before the count
    family = HierarchyFamily.from_orbital(gaussian_packet(GridSpec(1, 16, 6.25), width=1.0), 3, 0.5)
    q = quad_points
    for m, expected_flights, most_builds in ((1, 5 * q, 2 * q), (2, 33 * q**2, 2 * q**2 + q)):
        builds.clear()
        flights.clear()
        dyson_term(family, 1, m, 0.05, quad_points)
        assert len(flights) == expected_flights
        assert 0 < len(builds) <= most_builds


MATRIX_GRIDS = [GridSpec(1, 64, 12.0), GridSpec(2, 32, 8.0), GridSpec(3, 16, 8.0)]
TRANSFORM_GRIDS = [GridSpec(1, 512, 12.0), GridSpec(2, 64, 8.0), GridSpec(3, 32, 8.0)]


@pytest.mark.parametrize(
    "grid, builder", [(GridSpec(1, 16, 6.0), "free_propagator"), (GridSpec(1, 512, 6.0), "free_phase")],
    ids=["matrix", "table"],
)
def test_free_evolve_reads_a_read_only_cached_propagator(monkeypatch, grid, builder):
    built = []
    build = getattr(spectral, builder)
    monkeypatch.setattr(spectral, builder, lambda *a: built.append(build(*a)) or built[-1])
    phi = gaussian_packet(grid, width=1.0)
    first, second = free_evolve(phi, 0.125), free_evolve(phi, 0.125)
    assert len(built) == 1  # the second flight shares the first one's matrix or table
    np.testing.assert_array_equal(first.values, second.values)
    with pytest.raises(ValueError):
        built[0][0] = 0.0
    with pytest.raises(ValueError):
        built[0] *= 2.0


@pytest.mark.parametrize("grid", TRANSFORM_GRIDS, ids=["1d", "2d", "3d"])
def test_free_evolve_is_its_formula_bit_for_bit(grid):
    phi = gaussian_packet(grid, width=1.0, momentum=[0.7] * grid.dim)
    for t in (0.3, -0.05, 0.3):  # the repeated time reads the cached table
        expected = spectral.fourier_multiply(phi.values, spectral.free_phase(grid, t))
        np.testing.assert_array_equal(free_evolve(phi, t).values, expected)


@pytest.mark.parametrize("grid", MATRIX_GRIDS + TRANSFORM_GRIDS, ids=lambda g: f"{g.dim}d{g.points_per_axis}")
def test_free_evolve_agrees_with_its_formula(grid):
    phi = gaussian_packet(grid, width=1.0, momentum=[0.7] * grid.dim)
    for t in (0.3, -0.05):
        expected = spectral.fourier_multiply(phi.values, spectral.free_phase(grid, t))
        assert _relative(free_evolve(phi, t).values, expected) < 1e-14


@pytest.mark.parametrize(
    "grid, expected",
    [
        (GridSpec(1, 64, 12.0), 0),
        (GridSpec(1, 128, 12.0), 0),
        (GridSpec(3, 16, 8.0), 0),
        (GridSpec(1, 256, 12.0), 2),
        (GridSpec(1, 512, 12.0), 2),
        (GridSpec(3, 32, 8.0), 2),
    ],
    ids=["1d64-matrix", "1d128-matrix", "3d16-matrix", "1d256-table", "1d512-table", "3d32-table"],
)
def test_free_evolve_path_by_transform_count(transforms, grid, expected):
    phi = gaussian_packet(grid, width=1.0)
    grids._flight_propagator.cache_clear()
    spectral._line_tables.cache_clear()
    _reset(transforms)
    free_evolve(phi, 0.2)  # a cold cache: the matrix is built without a transform
    assert transforms == {"scipy": 0, "numpy": expected}
    _reset(transforms)
    free_evolve(phi, 0.2)  # a warm cache
    assert transforms == {"scipy": 0, "numpy": expected}


@pytest.mark.parametrize("points", [8, 64, 128])
@pytest.mark.parametrize("t", [1e-4, 0.05, 3.0])
def test_free_propagator_is_its_transform_formula(points, t):
    grid = GridSpec(1, points, 12.0)
    index = np.arange(points)
    column = np.fft.ifft(np.exp(-1j * t * grid.k_axis() ** 2))
    expected = column[np.subtract.outer(index, index) % points]
    assert _relative(spectral.free_propagator(grid, t), expected) < 1e-14


@pytest.mark.parametrize("points", [16, 512], ids=["matrix", "table"])
def test_free_evolve_flies_every_slot(points):
    grid = GridSpec(1, points, 12.0)
    phi = gaussian_packet(grid, width=1.0, momentum=[1.0])
    flown = free_evolve(phi, 0.3).values
    pair = free_evolve(product_state(phi, 2), 0.3).values
    np.testing.assert_allclose(pair, np.multiply.outer(flown, flown), rtol=0, atol=1e-13)


def test_no_scipy_transforms_anywhere(transforms):
    line = GridSpec(1, 8, 6.0)
    cube = GridSpec(3, 8, 6.0)
    phi = gaussian_packet(line, width=1.0)
    psi = random_symmetric_state(line, 2, seed=3)
    gamma2 = marginal(psi, 2)
    _reset(transforms)
    free_evolve(phi, 0.1)
    kinetic_energy(phi)
    gp_energy(phi, 0.1, TRAP)
    energy_moment(psi, total_potential(line, 2, PAIR, TRAP), 2)
    correlation_quotient(psi, lambda r: 1.0 + 0.0 * r, 0, 1)
    hardy_check(gaussian_packet(cube, width=1.0))
    free_propagate_kernel(gamma2.kernel, line, 2, 0.1)
    gamma1 = marginal(psi, 1)
    bbgky_residual({-0.1: gamma1, 0.0: gamma1, 0.1: gamma1}, gamma2, PAIR, 2, 0.0, 0.1)
    sobolev_trace_norm(gamma2)
    assert transforms["scipy"] == 0
    assert transforms["numpy"] > 0


# --- buffer contract ----------------------------------------------------------


def _complex_field(points, seed, rank=3):
    rng = np.random.default_rng(seed)
    shape = (points,) * rank
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _ascending(name, x, axes):
    """numpy's 1-D fft/ifft of x over `axes` (all by default), lowest axis first."""
    for axis in range(x.ndim) if axes is None else axes:
        x = getattr(np.fft, name[:-1])(x, axis=axis)
    return x


# (rank, points, axes): the cube over every axis, two axes and one axis, and a
# 64-point line (the orbital of the collision series), whose one axis is all of it
LAYOUTS = pytest.mark.parametrize(
    "rank, points, axes",
    [(3, 8, None), (3, 8, (0, 2)), (3, 8, (1,)), (1, 64, None)],
    ids=["cube", "cube-axes-0-2", "cube-axis-1", "line"],
)


@pytest.mark.parametrize("name", ["fftn", "ifftn"])
@LAYOUTS
def test_overwrite_transforms_writeable_complex_in_place(name, rank, points, axes):
    transform, reference = getattr(spectral, name), getattr(np.fft, name)
    x = _complex_field(points, seed=1, rank=rank)
    expected = reference(x, axes=axes)
    ascending = _ascending(name, x, axes)
    assert transform(x, axes=axes, overwrite_x=True) is x
    np.testing.assert_allclose(x, expected, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(x, ascending)  # bit for bit, in place as out of place
    # a strided view of a larger buffer is written through, the rest untouched
    base = _complex_field(points, seed=2, rank=rank)
    before = base.copy()
    strided, skipped = [(slice(None),) * (rank - 1) + (slice(start, None, 2),) for start in (0, 1)]
    view = base[strided]
    expected = _ascending(name, view, axes)
    assert transform(view, axes=axes, overwrite_x=True) is view
    np.testing.assert_array_equal(base[strided], expected)
    np.testing.assert_array_equal(base[skipped], before[skipped])


def _read_only(x):
    x.flags.writeable = False
    return x


@pytest.mark.parametrize("name", ["fftn", "ifftn"])
@pytest.mark.parametrize(
    "make, overwrite_x",
    [(_read_only, True),
     (lambda x: x.real.copy(), True),
     (lambda x: x.astype(np.complex64), True),
     (lambda x: x, False)],
    ids=["read-only", "real", "complex64", "kept"],
)
@LAYOUTS
def test_other_inputs_get_a_fresh_result(name, make, overwrite_x, rank, points, axes):
    transform, reference = getattr(spectral, name), getattr(np.fft, name)
    x = make(_complex_field(points, seed=3, rank=rank))
    before = x.copy()
    result = transform(x, axes=axes, overwrite_x=overwrite_x)
    assert result.dtype == np.complex128
    assert not np.shares_memory(result, x)
    np.testing.assert_array_equal(x, before)
    np.testing.assert_allclose(result, reference(before, axes=axes), rtol=0, atol=1e-5)


@pytest.mark.parametrize("name", ["fftn", "ifftn"])
@LAYOUTS
def test_transforms_run_their_axes_in_ascending_order(name, rank, points, axes):
    # bit for bit: the order fixes the round-off of every result
    x = _complex_field(2 * points, seed=5, rank=rank)
    np.testing.assert_array_equal(getattr(spectral, name)(x, axes=axes), _ascending(name, x, axes))


@pytest.mark.parametrize("name", ["fftn", "ifftn"])
def test_three_axis_transform_allocates_one_output(name):
    x = _complex_field(32, seed=4)  # 512 KiB
    transform = getattr(spectral, name)
    tracemalloc.start()
    try:
        result = transform(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.nbytes == x.nbytes
    assert peak < 1.5 * x.nbytes  # numpy.fft alone makes one array per axis


# --- round-off equivalence with the numpy.fft formulas ----------------------


def _relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_k_squared_matches_reference():
    grid = GridSpec(2, 8, 5.0)
    np.testing.assert_array_equal(
        np.broadcast_to(spectral.k_squared(grid, 3, (0, 2)), grid.shape * 3),
        k2_reference(grid, 3, (0, 2)),
    )
    np.testing.assert_array_equal(grid.k_squared_mesh(), k2_reference(grid, 1, (0,)))
    # one axis: still the layout's rank, and a fresh writeable array
    line = GridSpec(1, 16, 6.0)
    middle = spectral.k_squared(line, 3, (1,))
    np.testing.assert_array_equal(
        np.broadcast_to(middle, line.shape * 3), k2_reference(line, 3, (1,))
    )
    assert middle.shape == (1, 16, 1) and middle.flags.writeable
    assert not np.shares_memory(middle, spectral.k_squared(line, 3, (1,)))


def test_parseval_energy_moment_matches_direct_form():
    grid = GridSpec(1, 16, 6.0)
    psi = random_symmetric_state(grid, 3, seed=5)
    v = psi.values
    w = total_potential(grid, 3, PAIR, TRAP)
    h_psi = np.fft.ifftn(np.fft.fftn(v) * k2_reference(grid, 3, range(3))) + w * v
    direct = float(np.real(np.sum(np.conj(v) * h_psi)) * psi.measure)
    assert energy_moment(psi, w, 1) == pytest.approx(direct, rel=1e-12)


def test_free_evolve_matches_numpy_reference():
    grid = GridSpec(2, 16, 6.0)
    phi = gaussian_packet(grid, width=0.8, momentum=[1.0, -2.0])
    phase = np.exp(-1j * k2_reference(grid, 1, (0,)) * 0.3)
    reference = np.fft.ifftn(np.fft.fftn(phi.values) * phase)
    assert _relative(free_evolve(phi, 0.3).values, reference) < 1e-12


def _kernel_reference(grid, k, t):
    """Seed formula of the free-flow conjugation on a random k-particle kernel."""
    rng = np.random.default_rng(11)
    size = grid.size**k
    kernel = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    kernel = kernel + kernel.conj().T
    work = kernel.reshape(grid.shape * (2 * k))
    rows = tuple(range(k * grid.dim))
    cols = tuple(range(k * grid.dim, 2 * k * grid.dim))
    k2_rows = k2_reference(grid, 2 * k, range(k))
    k2_cols = k2_reference(grid, 2 * k, range(k, 2 * k))
    work = np.fft.ifftn(np.fft.fftn(work, axes=rows) * np.exp(-1j * t * k2_rows), axes=rows)
    work = np.fft.fftn(np.fft.ifftn(work, axes=cols) * np.exp(1j * t * k2_cols), axes=cols)
    return kernel, work.reshape(kernel.shape)


@pytest.mark.parametrize("dim,points,k", [(1, 8, 2), (2, 8, 1)])
def test_kernel_transforms_match_numpy_reference(dim, points, k):
    grid = GridSpec(dim, points, 5.0)
    kernel, reference = _kernel_reference(grid, k, t=0.2)
    assert _relative(free_propagate_kernel(kernel, grid, k, 0.2), reference) < 1e-12


def test_sobolev_trace_norm_matches_numpy_reference():
    grid = GridSpec(1, 16, 6.0)
    dm = marginal(random_symmetric_state(grid, 3, seed=2), 2)
    reference = dense_sobolev_trace(dm.kernel, grid, 2)
    assert sobolev_trace_norm(dm) == pytest.approx(reference, rel=1e-12)


def test_sobolev_trace_norm_column_blocks_sum_to_the_whole_trace(monkeypatch):
    grid = GridSpec(1, 16, 6.0)
    factored = marginal(random_symmetric_state(grid, 3, seed=2), 2)  # 256 rows, 16 columns
    whole = dense_sobolev_trace(factored.kernel, grid, 2)
    assert sobolev_trace_norm(factored) == pytest.approx(whole, rel=1e-13)  # one block
    # blocks of 6 columns of 256 rows: the last one partial
    monkeypatch.setattr(spectral, "SLAB_ENTRIES", 6 * 256)
    assert sobolev_trace_norm(factored) == pytest.approx(whole, rel=1e-13)


def test_sobolev_trace_norm_makes_no_kernel_sized_copy():
    # the series_and_marginals benchmark setting: a 4096^2 (256 MiB) two-particle kernel
    grid = GridSpec(1, 64, 8.0)
    phi = gaussian_packet(grid, width=1.0)
    dm = marginal(product_state(phi, 2), 2)
    kernel_bytes = dm.factor.shape[0] ** 2 * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        value = sobolev_trace_norm(dm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < kernel_bytes / 4
    assert value == pytest.approx((1.0 + kinetic_energy(phi)) ** 2, rel=1e-8)


# --- weighted sums of squares -------------------------------------------------


def _random_layout(n, points, seed):
    rng = np.random.default_rng(seed)
    shape = (points,) * n
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_sums_up_to_one_slab_keep_the_plain_expression():
    grid = GridSpec(1, 64, 6.0)  # (n, M, d) = (3, 64, 1): 2^18 entries
    x = _random_layout(3, 64, seed=4)
    full = spectral.k_squared(grid, 3)
    first, rest = spectral.k_squared(grid, 3, (0,)), spectral.k_squared(grid, 3, (1, 2))
    assert spectral.weighted_norm_squared(x) == float(np.sum(np.abs(x) ** 2))
    assert spectral.weighted_norm_squared(x, full) == float(np.sum(full * np.abs(x) ** 2))
    separable = float(np.sum(first * rest * np.abs(x) ** 2))
    assert spectral.weighted_norm_squared(x, first, rest) == separable


@pytest.mark.parametrize("slab", [spectral.SLAB_ENTRIES, 2**15, 2**10])
def test_slab_sums_match_numpy(monkeypatch, slab):
    # (n, M, d) = (3, 128, 1): 2^21 entries, two slabs of the real size; a
    # 2^10 slab is shorter than one leading row (2^14 entries) and recurses
    monkeypatch.setattr(spectral, "SLAB_ENTRIES", slab)
    grid = GridSpec(1, 128, 6.0)
    x = _random_layout(3, 128, seed=6)
    table = np.random.default_rng(7).random(x.shape)
    first, rest = spectral.k_squared(grid, 3, (0,)), spectral.k_squared(grid, 3, (1, 2))
    density = np.abs(x) ** 2
    for weight, reference in (
        ((), np.sum(density)),
        ((table,), np.sum(table * density)),
        ((first, rest), np.sum(first * rest * density)),
        ((rest, first), np.sum(first * rest * density)),
    ):
        value = spectral.weighted_norm_squared(x, *weight)
        assert value == pytest.approx(float(reference), rel=1e-13)


# --- transform energy by frequency halves -------------------------------------

energy_layouts = st.tuples(
    st.integers(2, 4), st.sampled_from([8, 16]), st.integers(1, 3)
).filter(lambda lay: lay[1] ** (lay[0] * lay[2]) <= 2**16)


@settings(max_examples=30, deadline=None)
@given(layout=energy_layouts, data=st.data())
def test_transform_energy_matches_the_whole_transform(layout, data):
    # weight factors of axis-0 length M (slot 0's) and 1 (any other slot's);
    # x is not symmetric, so every ordered slot pair reads different values;
    # a real, a purely imaginary and a complex x each skip a different part
    n, points, dim = layout
    grid = GridSpec(dim, points, 6.0)
    i, j = data.draw(st.permutations(range(n)))[:2]
    z = _random_layout(n * dim, points, seed=data.draw(st.integers(0, 2**32 - 1)))
    weight = spectral.k_squared(grid, n, (i,)), spectral.k_squared(grid, n, (j,))
    field = pair_field(grid, lambda r: 1.0 / (1.0 + np.exp(-r * r)), n, i, j)
    for x in (z.real.copy(), 1j * z.imag, z):
        for factor, scaled in ((None, x), (field, x * field)):
            reference = spectral.parseval_energy(spectral.fftn(scaled), 0.3, *weight)
            value = spectral.transform_energy(x, 0.3, *weight, factor=factor)
            assert value == pytest.approx(reference, rel=1e-13)
        unweighted = spectral.transform_energy(x, 0.3)
        assert unweighted == pytest.approx(spectral.parseval_energy(spectral.fftn(x), 0.3), rel=1e-13)


def test_transform_energy_needs_an_even_leading_axis():
    with pytest.raises(DomainError, match="even"):
        spectral.transform_energy(np.ones((3, 4), dtype=complex), 1.0)


def test_transform_energy_needs_an_even_weight():
    # k itself is odd under k -> -k: the cross term of x.real and x.imag would not cancel
    grid = GridSpec(1, 8, 6.0)
    k = grid.k_axis()
    with pytest.raises(DomainError, match="even under k -> -k"):
        spectral.transform_energy(np.ones((8, 8), dtype=complex), 1.0, k[:, None])
    with pytest.raises(DomainError, match="even under k -> -k"):
        spectral.transform_energy(np.ones((8, 8), dtype=complex), 1.0, k[:, None] ** 2, k[None, :])


def test_transform_energy_needs_two_axes():
    with pytest.raises(DomainError, match="2 or more axes"):
        spectral.transform_energy(np.ones(8, dtype=complex), 1.0)

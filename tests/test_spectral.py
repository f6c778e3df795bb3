"""Transform budget of the spectral core, and round-off equivalence with the
numpy.fft formulas it replaced.

The budget tests count calls through the `scipy.fft` and `numpy.fft` module
attributes, so a transform bound by name at import time (for example
`from scipy.fft import fftn`) escapes the count and fails them.  The series
budget counts `free_evolve` calls through the binding `gplab.hierarchy` uses.
"""

import numpy as np
import pytest
import scipy.fft

from gplab import hierarchy, spectral
from gplab.errors import ConvergenceError
from gplab.gp import evolve_gp, gp_energy, minimize_gp
from gplab.grids import GridSpec, free_evolve, gaussian_packet, kinetic_energy
from gplab.hierarchy import (
    HierarchyFamily,
    dyson_term,
    free_propagate_kernel,
    infinite_hierarchy_residual,
    kinetic_commutator,
    sobolev_trace_norm,
)
from gplab.manybody import (
    correlation_quotient,
    energy_moment,
    evolve_manybody,
    hardy_check,
    marginal,
    product_state,
    random_symmetric_state,
    total_potential,
)
from gplab.potential import GaussianPotential, TrapModel

TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2",
    "rfftn", "irfftn", "hfft", "ihfft",
)
PAIR = GaussianPotential(1.5, 0.5)
TRAP = TrapModel("harmonic", 1.0)


@pytest.fixture
def transforms(monkeypatch):
    """Calls of every scipy.fft and numpy.fft transform, by backend."""
    counts = {"scipy": 0, "numpy": 0}
    for backend, module in (("scipy", scipy.fft), ("numpy", np.fft)):
        for name in TRANSFORMS:
            original = getattr(module, name)

            def counted(*args, _original=original, _backend=backend, **kwargs):
                counts[_backend] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return counts


def _reset(counts):
    counts["scipy"] = counts["numpy"] = 0


# --- transform budget -------------------------------------------------------


def test_evolve_manybody_four_transforms_per_step(transforms):
    grid = GridSpec(1, 16, 6.0)
    psi = product_state(gaussian_packet(grid, width=1.0), 3)
    seen = []
    _reset(transforms)
    evolve_manybody(psi, PAIR, TRAP, 7 * 0.01, 0.01, callback=lambda s, t, st: seen.append(st))
    assert transforms == {"scipy": 4 * 7, "numpy": 0}
    # in-place transforms never touch a state already handed to the callback
    replay = [product_state(gaussian_packet(grid, width=1.0), 3)]
    for _ in range(7):
        replay.append(evolve_manybody(replay[-1], PAIR, TRAP, 0.01, 0.01))
    for state, expected in zip(seen, replay[1:]):
        assert np.max(np.abs(state.values - expected.values)) < 1e-13


def test_evolve_gp_four_transforms_per_step(transforms):
    phi = gaussian_packet(GridSpec(2, 16, 8.0), width=1.0)
    _reset(transforms)
    evolve_gp(phi, 2.0, 9 * 0.005, 0.005)
    assert transforms == {"scipy": 4 * 9, "numpy": 0}


def test_minimize_gp_four_transforms_per_cg_iteration(transforms):
    _reset(transforms)
    with pytest.raises(ConvergenceError):
        minimize_gp(TRAP, 0.1, GridSpec(1, 64, 12.0), tol=0.0, max_iterations=6)
    # one transform for the starting spectrum, then 4 per iteration: -Laplacian phi,
    # the preconditioner's forward/inverse pair and the direction's spectrum
    assert transforms == {"scipy": 1 + 4 * 6, "numpy": 0}


def test_energy_moment_first_order_is_one_transform(transforms):
    psi = random_symmetric_state(GridSpec(1, 16, 6.0), 3, seed=1)
    _reset(transforms)
    energy_moment(psi, PAIR, TRAP, 1)
    assert transforms == {"scipy": 1, "numpy": 0}


@pytest.mark.parametrize("k", [1, 2])
def test_limit_residual_is_two_transforms(transforms, k):
    # one forward/inverse pair for -Laplacian phi; every term is rank one
    phi = gaussian_packet(GridSpec(1, 16, 6.0), width=1.0)
    frames = {tt: phi for tt in (-1e-3, 0.0, 1e-3)}
    _reset(transforms)
    infinite_hierarchy_residual(frames, k, 1.0, 0.0, 1e-3)
    assert transforms == {"scipy": 2, "numpy": 0}


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


def test_no_numpy_transforms_anywhere(transforms):
    line = GridSpec(1, 8, 6.0)
    cube = GridSpec(3, 8, 6.0)
    phi = gaussian_packet(line, width=1.0)
    psi = random_symmetric_state(line, 2, seed=3)
    gamma2 = marginal(psi, 2)
    _reset(transforms)
    free_evolve(phi, 0.1)
    kinetic_energy(phi)
    gp_energy(phi, 0.1, TRAP)
    energy_moment(psi, PAIR, TRAP, 2)
    correlation_quotient(psi, lambda r: 1.0 + 0.0 * r, 0, 1)
    hardy_check(gaussian_packet(cube, width=1.0))
    free_propagate_kernel(gamma2.kernel, line, 2, 0.1)
    kinetic_commutator(gamma2.kernel, line, 2)
    sobolev_trace_norm(gamma2)
    assert transforms["numpy"] == 0
    assert transforms["scipy"] > 0


# --- round-off equivalence with the numpy.fft formulas ----------------------


def _k2_reference(grid, n_slots, slots):
    """Full-size sum of squared wavenumbers over the axes of `slots`."""
    k2 = (2.0 * np.pi * np.fft.fftfreq(grid.points_per_axis, d=grid.spacing)) ** 2
    rank = n_slots * grid.dim
    total = np.zeros(grid.shape * n_slots)
    for slot in slots:
        for a in range(grid.dim):
            shape = [1] * rank
            shape[slot * grid.dim + a] = grid.points_per_axis
            total = total + k2.reshape(shape)
    return total


def _relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def test_k_squared_matches_reference():
    grid = GridSpec(2, 8, 5.0)
    np.testing.assert_array_equal(
        np.broadcast_to(spectral.k_squared(grid, 3, (0, 2)), grid.shape * 3),
        _k2_reference(grid, 3, (0, 2)),
    )
    np.testing.assert_array_equal(grid.k_squared_mesh(), _k2_reference(grid, 1, (0,)))


def test_parseval_energy_moment_matches_direct_form():
    grid = GridSpec(1, 16, 6.0)
    psi = random_symmetric_state(grid, 3, seed=5)
    v = psi.values
    w = total_potential(grid, 3, PAIR, TRAP)
    h_psi = np.fft.ifftn(np.fft.fftn(v) * _k2_reference(grid, 3, range(3))) + w * v
    direct = float(np.real(np.sum(np.conj(v) * h_psi)) * psi.measure)
    assert energy_moment(psi, PAIR, TRAP, 1) == pytest.approx(direct, rel=1e-12)


def test_free_evolve_matches_numpy_reference():
    grid = GridSpec(2, 16, 6.0)
    phi = gaussian_packet(grid, width=0.8, momentum=[1.0, -2.0])
    phase = np.exp(-1j * _k2_reference(grid, 1, (0,)) * 0.3)
    reference = np.fft.ifftn(np.fft.fftn(phi.values) * phase)
    assert _relative(free_evolve(phi, 0.3).values, reference) < 1e-12


def _kernel_reference(grid, k, t=None):
    """Seed formulas of the free-flow conjugation (t given) or the kinetic
    commutator (t None) on a random k-particle kernel."""
    rng = np.random.default_rng(11)
    size = grid.size**k
    kernel = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    kernel = kernel + kernel.conj().T
    work = kernel.reshape(grid.shape * (2 * k))
    rows = tuple(range(k * grid.dim))
    cols = tuple(range(k * grid.dim, 2 * k * grid.dim))
    k2_rows = _k2_reference(grid, 2 * k, range(k))
    k2_cols = _k2_reference(grid, 2 * k, range(k, 2 * k))
    if t is None:
        left = np.fft.ifftn(np.fft.fftn(work, axes=rows) * k2_rows, axes=rows)
        right = np.fft.fftn(np.fft.ifftn(work, axes=cols) * k2_cols, axes=cols)
        return kernel, (left - right).reshape(kernel.shape)
    work = np.fft.ifftn(np.fft.fftn(work, axes=rows) * np.exp(-1j * t * k2_rows), axes=rows)
    work = np.fft.fftn(np.fft.ifftn(work, axes=cols) * np.exp(1j * t * k2_cols), axes=cols)
    return kernel, work.reshape(kernel.shape)


@pytest.mark.parametrize("dim,points,k", [(1, 8, 2), (2, 8, 1)])
def test_kernel_transforms_match_numpy_reference(dim, points, k):
    grid = GridSpec(dim, points, 5.0)
    kernel, reference = _kernel_reference(grid, k, t=0.2)
    assert _relative(free_propagate_kernel(kernel, grid, k, 0.2), reference) < 1e-12
    kernel, reference = _kernel_reference(grid, k)
    assert _relative(kinetic_commutator(kernel, grid, k), reference) < 1e-12


def test_sobolev_trace_norm_matches_numpy_reference():
    grid = GridSpec(1, 16, 6.0)
    dm = marginal(random_symmetric_state(grid, 3, seed=2), 2)
    weight = (1.0 + _k2_reference(grid, 4, (0,))) * (1.0 + _k2_reference(grid, 4, (1,)))
    work = dm.kernel.reshape(grid.shape * 4)
    work = np.fft.ifftn(np.fft.fftn(work, axes=(0, 1)) * weight, axes=(0, 1))
    reference = float(np.real(np.trace(work.reshape(dm.kernel.shape))) * grid.cell_volume**2)
    assert sobolev_trace_norm(dm) == pytest.approx(reference, rel=1e-12)

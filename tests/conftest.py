import itertools
from typing import Sequence

import numpy as np
import pytest

from gplab.grids import GridSpec, WaveFunction, ensure_same_grid
from gplab.potential import BarrierPotential, GaussianPotential, TablePotential, _radial_integral
from gplab.scattering import ScatteringSolution, jastrow


def _table_bump() -> TablePotential:
    radii = np.linspace(0.0, 2.0, 21)
    values = np.exp(-((radii / 0.8) ** 2))
    values[-1] = 0.0
    return TablePotential(tuple(radii), tuple(values))


@pytest.fixture(scope="session")
def test_potentials():
    """Nonzero repulsive profiles used across the identity checks."""
    return [
        BarrierPotential(1.0, 1.0),
        BarrierPotential(4.0, 0.5),
        GaussianPotential(1.0, 1.0),
        GaussianPotential(2.0, 0.5),
        _table_bump(),
    ]


def barrier_a0(v0: float, radius: float) -> float:
    """Closed-form scattering length of the constant barrier.

    Inside, u'' = (v0/2) u gives u = sinh(kappa r)/kappa with
    kappa = sqrt(v0/2); matching the exterior line u = A (r - a0) at the
    edge yields a0 = R - tanh(kappa R)/kappa.
    """
    kappa = np.sqrt(v0 / 2.0)
    return radius - np.tanh(kappa * radius) / kappa


def scaled_coupling(solution: ScatteringSolution, n: int) -> float:
    """`coupling_sigma`'s integral on the n-scaled family: n V_n against
    f_n(r) = f(n r), on the solve's nodes scaled by 1/n.  Scale invariance
    makes it equal to the base integral."""
    model = solution.potential
    scaled, f_n = model.scaled(n), jastrow(solution, n)
    nodes = solution.radii / n
    return float(4.0 * np.pi * _radial_integral(lambda r: n * scaled(r) * f_n(r) * r * r, scaled, nodes))


def plane_wave_k(grid: GridSpec, modes: int | Sequence[int]) -> float:
    """Squared wavenumber of the plane_wave built from the same mode indices."""
    if isinstance(modes, int):
        modes = (modes,) + (0,) * (grid.dim - 1)
    return float(sum((2.0 * np.pi * n / grid.box_length) ** 2 for n in modes))


def random_symmetric_state(grid: GridSpec, n_particles: int, seed: int) -> WaveFunction:
    """Bosonic trial state: symmetrized complex Gaussian noise, normalized."""
    rng = np.random.default_rng(seed)
    shape = grid.shape * n_particles
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sym = np.zeros_like(raw)
    for perm in itertools.permutations(range(n_particles)):
        sym += np.transpose(raw, [p * grid.dim + a for p in perm for a in range(grid.dim)])
    sym /= WaveFunction(grid, sym).norm()
    return WaveFunction(grid, sym)


def l2_distance(a: WaveFunction, b: WaveFunction) -> float:
    ensure_same_grid(a.grid, b.grid)
    return float(
        np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.cell_volume)
    )


# --- dense-kernel oracles -----------------------------------------------------
# Written out on the (M^(d k), M^(d k)) kernel array, to check what
# DensityMatrix computes on its Gram factor.


def k2_reference(grid: GridSpec, n_slots: int, slots) -> np.ndarray:
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


def dense_trace(kernel: np.ndarray, grid: GridSpec, k: int) -> float:
    return float(np.real(np.trace(kernel)) * grid.cell_volume**k)


def dense_partial_trace(kernel: np.ndarray, grid: GridSpec, k: int) -> np.ndarray:
    """The (k-1)-particle kernel: the last slot's diagonal summed by einsum."""
    rows = grid.size ** (k - 1)
    four = kernel.reshape(rows, grid.size, rows, grid.size)
    return np.einsum("acbc->ab", four) * grid.cell_volume


def gathered_pair_field(grid: GridSpec, f, n_slots: int, i: int, j: int) -> np.ndarray:
    """f(|x_i - x_j|) as a new array over an n_slots layout: f on the M^d periodic
    displacements, gathered with one (a - b) mod M index array per axis, the
    earlier slot's index as a."""
    d, m = grid.dim, grid.points_per_axis
    distance = np.roll(np.sqrt(grid.radius_squared_mesh()), m // 2, axis=tuple(range(d)))
    table = np.asarray(f(distance), dtype=float)
    index = np.arange(m)
    difference = (index[:, None] - index[None, :]) % m
    gather = []
    for a in range(d):
        shape = [1] * (n_slots * d)
        shape[i * d + a] = shape[j * d + a] = m
        gather.append(difference.reshape(shape))
    return table[tuple(gather)]


def dense_overlap(kernel: np.ndarray, phi: WaveFunction, k: int) -> float:
    """<phi^(x k), K phi^(x k)> with the measure of both contractions."""
    v = phi.values.ravel()
    for _ in range(k - 1):
        v = np.multiply.outer(v, phi.values.ravel()).ravel()
    return float(np.real(np.vdot(v, kernel @ v)) * phi.grid.cell_volume ** (2 * k))


def dense_eigenvalues(kernel: np.ndarray, grid: GridSpec, k: int) -> np.ndarray:
    """Occupation numbers, descending."""
    return np.linalg.eigvalsh(kernel)[::-1] * grid.cell_volume**k


def dense_sobolev_trace(kernel: np.ndarray, grid: GridSpec, k: int) -> float:
    """Trace of the kernel against prod_j (1 - Laplacian_j) on its row slots."""
    weight = np.ones(grid.shape * k)
    for slot in range(k):
        weight = weight * (1.0 + k2_reference(grid, k, (slot,)))
    rows = tuple(range(k * grid.dim))
    work = kernel.reshape(grid.shape * (2 * k))
    weight = weight.reshape(weight.shape + (1,) * (k * grid.dim))  # constant along the columns
    work = np.fft.ifftn(np.fft.fftn(work, axes=rows) * weight, axes=rows)
    return float(np.real(np.trace(work.reshape(kernel.shape))) * grid.cell_volume**k)

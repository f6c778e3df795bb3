from typing import Sequence

import numpy as np
import pytest

from gplab.grids import GridSpec, WaveFunction, ensure_same_grid
from gplab.potential import BarrierPotential, GaussianPotential, TablePotential


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


def plane_wave_k(grid: GridSpec, modes: int | Sequence[int]) -> float:
    """Squared wavenumber of the plane_wave built from the same mode indices."""
    if isinstance(modes, int):
        modes = (modes,) + (0,) * (grid.dim - 1)
    return float(sum((2.0 * np.pi * n / grid.box_length) ** 2 for n in modes))


def l2_distance(a: WaveFunction, b: WaveFunction) -> float:
    ensure_same_grid(a.grid, b.grid)
    return float(
        np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.cell_volume)
    )

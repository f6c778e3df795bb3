"""Periodic grids and single-particle complex fields.

Units follow the rest of the package: hbar = 1, particle mass 1/2, so the
kinetic operator is minus the Laplacian and a Fourier mode exp(ikx) carries
kinetic energy k^2.  Transforms run on scipy.fft through `gplab.spectral`:
forward transforms are unnormalized, inverse transforms carry 1/M per axis,
and single-threaded runs are bit-comparable across reruns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.fft

from . import spectral
from .errors import ConfigurationError, DomainError, GridMismatchError


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: `points_per_axis` points on a box of side
    `box_length` in `dim` dimensions, coordinates centered on 0."""

    dim: int
    points_per_axis: int
    box_length: float

    def __post_init__(self) -> None:
        if self.dim not in (1, 2, 3):
            raise ConfigurationError(f"dim must be 1, 2 or 3, got {self.dim}")
        m = self.points_per_axis
        if m < 8 or (m & (m - 1)) != 0:
            raise ConfigurationError(
                f"points_per_axis must be a power of two >= 8, got {m}"
            )
        if not 0 < self.box_length < np.inf:
            raise ConfigurationError(
                f"box_length must be positive and finite, got {self.box_length}"
            )

    @property
    def spacing(self) -> float:
        return self.box_length / self.points_per_axis

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points_per_axis,) * self.dim

    @property
    def size(self) -> int:
        return self.points_per_axis**self.dim

    def axis_coordinates(self) -> np.ndarray:
        m = self.points_per_axis
        return -0.5 * self.box_length + self.spacing * np.arange(m)

    def coordinate_mesh(self) -> list[np.ndarray]:
        x = self.axis_coordinates()
        return list(np.meshgrid(*([x] * self.dim), indexing="ij"))

    def radius_squared_mesh(self) -> np.ndarray:
        mesh = self.coordinate_mesh()
        return sum(c**2 for c in mesh)

    def k_axis(self) -> np.ndarray:
        return 2.0 * np.pi * scipy.fft.fftfreq(self.points_per_axis, d=self.spacing)

    def k_squared_mesh(self) -> np.ndarray:
        """Sum of squared wavenumbers, shaped like the grid."""
        return spectral.k_squared(self)


def ensure_same_grid(a: GridSpec, b: GridSpec) -> None:
    if a != b:
        raise GridMismatchError(f"incompatible grids: {a} vs {b}")


@dataclass
class WaveFunction:
    """Complex field on a periodic grid, L2-normalized: sum |psi|^2 dx^d = 1."""

    grid: GridSpec
    values: np.ndarray

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.cell_volume))

    def normalized(self) -> "WaveFunction":
        n = self.norm()
        if n == 0.0 or not np.isfinite(n):
            raise DomainError("cannot normalize a zero or non-finite field")
        return WaveFunction(self.grid, self.values / n)


def plane_wave(grid: GridSpec, modes: int | Sequence[int] = 1) -> WaveFunction:
    """Normalized single Fourier mode exp(i k.x) with k = 2 pi n / L per axis."""
    if isinstance(modes, int):
        modes = (modes,) + (0,) * (grid.dim - 1)
    if len(modes) != grid.dim:
        raise ConfigurationError("one mode index per axis required")
    mesh = grid.coordinate_mesh()
    phase = np.zeros(grid.shape)
    for n, c in zip(modes, mesh):
        phase = phase + (2.0 * np.pi * n / grid.box_length) * c
    values = np.exp(1j * phase) / grid.box_length ** (grid.dim / 2.0)
    return WaveFunction(grid, values)


def plane_wave_k(grid: GridSpec, modes: int | Sequence[int]) -> float:
    """Squared wavenumber of the plane_wave built from the same mode indices."""
    if isinstance(modes, int):
        modes = (modes,) + (0,) * (grid.dim - 1)
    return float(sum((2.0 * np.pi * n / grid.box_length) ** 2 for n in modes))


def gaussian_packet(
    grid: GridSpec,
    width: float = 1.0,
    center: Sequence[float] | None = None,
    momentum: Sequence[float] | None = None,
) -> WaveFunction:
    """Normalized Gaussian exp(-(x-c)^2 / (2 w^2) + i p.x).

    The packet is sampled directly (no periodic images); keep the width a few
    times smaller than the box.
    """
    if width <= 0:
        raise DomainError("width must be positive")
    center = center or [0.0] * grid.dim
    momentum = momentum or [0.0] * grid.dim
    mesh = grid.coordinate_mesh()
    r2 = sum((c - c0) ** 2 for c, c0 in zip(mesh, center))
    phase = sum(p * c for p, c in zip(momentum, mesh))
    values = np.exp(-r2 / (2.0 * width**2) + 1j * phase)
    return WaveFunction(grid, values).normalized()


def l2_distance(a: WaveFunction, b: WaveFunction) -> float:
    ensure_same_grid(a.grid, b.grid)
    return float(
        np.sqrt(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.cell_volume)
    )


def kinetic_energy(phi: WaveFunction) -> float:
    """Spectral integral of |grad phi|^2 (kinetic operator is -Laplacian)."""
    hat = spectral.fftn(phi.values)
    return spectral.parseval_energy(hat, phi.grid.cell_volume, spectral.k_squared(phi.grid))


def free_evolve(phi: WaveFunction, t: float) -> WaveFunction:
    """Exact evolution of i d/dt phi = -Laplacian phi on the grid."""
    phase = spectral.free_phase(phi.grid, t)
    return WaveFunction(phi.grid, spectral.fourier_multiply(phi.values, phase))

"""Periodic grids and the complex fields of one or n particle slots on them.

Units follow the rest of the package: hbar = 1, particle mass 1/2, so the
kinetic operator is minus the Laplacian and a Fourier mode exp(ikx) carries
kinetic energy k^2.  Transforms run on numpy.fft through `gplab.spectral`:
forward transforms are unnormalized, inverse transforms carry 1/M per axis,
and every transform is single-threaded, so reruns are bit-comparable.  A
small-grid `free_evolve` makes none: it applies a one-axis matrix instead,
built from cached one-axis tables with no transform either.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.spacing)

    def k_squared_mesh(self) -> np.ndarray:
        """Sum of squared wavenumbers, shaped like the grid."""
        return spectral.k_squared(self)


def ensure_same_grid(a: GridSpec, b: GridSpec) -> None:
    if a != b:
        raise GridMismatchError(f"incompatible grids: {a} vs {b}")


@dataclass
class WaveFunction:
    """Complex field of n particle slots on a periodic grid, slot j on the
    axes [j*dim, (j+1)*dim) of `values`; n = 1 is a single orbital.  The
    measure is cell_volume^n and a normalized field has sum |psi|^2 dx = 1."""

    grid: GridSpec
    values: np.ndarray
    #: L2 norm of the raw values before normalization (1.0 if never normalized)
    prenormalization: float = 1.0

    @property
    def n_particles(self) -> int:
        return self.values.ndim // self.grid.dim

    @property
    def measure(self) -> float:
        return self.grid.cell_volume**self.n_particles

    def norm(self) -> float:
        return float(np.sqrt(spectral.weighted_norm_squared(self.values) * self.measure))

    def normalized(self) -> "WaveFunction":
        return _normalized_in_place(self.grid, self.values.copy())

    def symmetry_defect(self) -> float:
        """Largest deviation under any adjacent particle transposition."""
        worst = 0.0
        for i in range(self.n_particles - 1):
            swapped = exchange_particles(self.values, i, i + 1, self.grid.dim)
            worst = max(worst, float(np.max(np.abs(self.values - swapped))))
        return worst


def _normalized_in_place(grid: GridSpec, values: np.ndarray) -> WaveFunction:
    """Field over `values`, an array the caller owns, divided by its norm in
    place (no copy), with that norm as the prenormalization."""
    psi = WaveFunction(grid, values)
    n = psi.norm()
    if n == 0.0 or not np.isfinite(n):
        raise DomainError("cannot normalize a zero or non-finite field")
    values /= n
    psi.prenormalization = n
    return psi


def exchange_particles(values: np.ndarray, i: int, j: int, dim: int) -> np.ndarray:
    """View of `values` with particle slots i and j swapped."""
    axes = list(range(values.ndim))
    for a in range(dim):
        axes[i * dim + a], axes[j * dim + a] = axes[j * dim + a], axes[i * dim + a]
    return np.transpose(values, axes)


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
    return _normalized_in_place(grid, np.exp(-r2 / (2.0 * width**2) + 1j * phase))


def kinetic_energy(psi: WaveFunction) -> float:
    """Spectral integral of |grad psi|^2 over every slot (the kinetic operator
    is minus the Laplacian of all n slots)."""
    k2 = spectral.k_squared(psi.grid, psi.n_particles)
    return spectral.parseval_energy(spectral.fftn(psi.values), psi.measure, k2)


#: largest M^(d+2) a free flight takes by one-axis matrix products, not transforms
MATRIX_FLIGHT_WORK = 2**21


@functools.lru_cache(maxsize=4)
def _flight_propagator(grid: GridSpec, t: float, matrix: bool) -> np.ndarray:
    propagator = spectral.free_propagator(grid, t) if matrix else spectral.free_phase(grid, t)
    propagator.flags.writeable = False
    return propagator


def free_evolve(phi: WaveFunction, t: float) -> WaveFunction:
    """Exact evolution of i d/dt phi = -Laplacian phi on the grid, every slot flown.

    A grid with M^(d+2) <= MATRIX_FLIGHT_WORK (M <= 128 in 1D, 32 in 2D, 16
    in 3D) flies by the M x M matrix `spectral.free_propagator` along every
    axis, with no transform; a larger one by a transform pair with the table
    `spectral.free_phase(grid, t, n)`.  Flights come in runs that share a time
    (a series stage flies all its fields over one interval), so the matrix or
    the one-slot table comes from a read-only cache of the last 4 (grid, t):
    at most 4 M^2 x 16 B of matrices (256 KiB each at M = 128), or 4 grid-sized
    tables (4 MiB each at 64^3).  An n-slot table, as large as the field, is
    built per call and not kept.  Keys compare as numbers, so t = -0.0 may
    read the entry of t = 0.0, which differs only in the sign of zeros."""
    grid, m = phi.grid, phi.grid.points_per_axis
    if m ** (grid.dim + 2) > MATRIX_FLIGHT_WORK:
        n = phi.n_particles
        phase = _flight_propagator(grid, t, False) if n == 1 else spectral.free_phase(grid, t, n)
        return WaveFunction(grid, spectral.fourier_multiply(phi.values, phase))
    propagator = _flight_propagator(grid, t, True)
    values = phi.values @ propagator.T  # the last axis
    for axis in range(values.ndim - 1):  # each leading axis, batched over the axes after it
        values = np.matmul(propagator, values.reshape(m**axis, m, -1)).reshape(values.shape)
    return WaveFunction(grid, values)

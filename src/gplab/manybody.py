"""Exact few-boson dynamics on tensor-product grids.

A state of n particles in d dimensions is a `grids.WaveFunction` whose
values are a complex tensor of rank n*d on the per-particle grid; particle j
owns the axis block [j*d, (j+1)*d).  The tensor grows as M^(d*n), so a hard
budget of 2^28 amplitudes caps the reachable regimes; the thermodynamic
statements behind these diagnostics are probed as monotone trends over small
finite families, never as limits.

The one-dimensional analog family used for cheap mean-field trend checks
scales V_n(x) = V(n x) at unchanged amplitude, so that n * V_n tends to a
point interaction of weight b0 = int V dx, mirroring the three-dimensional
family's bookkeeping; outputs produced this way are flagged `analog1d`.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable

import numpy as np

from . import spectral
from .errors import ConfigurationError, DomainError
from .grids import GridSpec, WaveFunction, _normalized_in_place, ensure_same_grid, kinetic_energy
from .potential import PotentialModel, TrapModel

MAX_ENTRIES = 2**28

PairProfile = Callable[[np.ndarray], np.ndarray]


def check_entry_budget(entries: int, what: str) -> None:
    """Reject a state or kernel of more than 2^28 entries before it is built."""
    if entries > MAX_ENTRIES:
        raise ConfigurationError(f"{what} needs {entries} entries; budget is 2^28 = {MAX_ENTRIES}")


def _displacement_table(grid: GridSpec, f: PairProfile) -> np.ndarray:
    """f on the M^d periodic displacements (see pair_field)."""
    r2 = np.roll(grid.radius_squared_mesh(), grid.points_per_axis // 2, tuple(range(grid.dim)))
    return np.asarray(f(np.sqrt(r2)), dtype=float)


def pair_field(grid: GridSpec, f: PairProfile, n_slots: int, i: int, j: int) -> np.ndarray:
    """f(|x_i - x_j|) for slots i != j, shaped to broadcast over an n_slots
    layout: a read-only view that allocates nothing field-sized.

    The wrapped distance depends only on the index difference (a - b) mod M
    along each axis, so f is evaluated once on the M^d periodic displacements
    (the centred radius mesh rolled by M/2 per axis, |-L/2 + h (k + M/2 mod M)|
    = h min(k, M - k)).  Tiled twice per axis, the table is read at M + a - b:
    stride +s on the earlier slot's axes, -s on the later slot's.
    """
    return _pair_view(grid, _displacement_table(grid, f), n_slots, i, j)


def _pair_view(grid: GridSpec, table: np.ndarray, n_slots: int, i: int, j: int) -> np.ndarray:
    """pair_field's view over a displacement table already evaluated."""
    if i == j or not (0 <= i < n_slots and 0 <= j < n_slots):
        raise DomainError(f"need two distinct slots in 0..{n_slots - 1}, got {i} and {j}")
    check_entry_budget(grid.size**2, "pair field")  # the view spans M^d by M^d entries, any n_slots
    d, m = grid.dim, grid.points_per_axis
    origin = np.tile(table, (2,) * d)[(slice(m, None),) * d]
    shape, strides = np.ones((n_slots, d), dtype=int), np.zeros((n_slots, d), dtype=int)
    first, second = sorted((i, j))
    shape[[first, second]] = m
    strides[first], strides[second] = origin.strides, np.negative(origin.strides)
    return np.lib.stride_tricks.as_strided(origin, shape.ravel(), strides.ravel(), writeable=False)


def total_potential(
    grid: GridSpec,
    n_particles: int,
    pair: PotentialModel | None,
    trap: TrapModel | None,
) -> np.ndarray:
    """Sampled interaction + trap energy on the full tensor grid."""
    check_entry_budget(grid.size**n_particles, f"{n_particles}-particle potential")
    d = grid.dim
    total = np.zeros(grid.shape * n_particles)
    if trap is not None:
        v1 = trap.sample(grid)
        for i in range(n_particles):  # slot i: its d axes, then 1s for the later slots
            total += v1.reshape(grid.shape + (1,) * (d * (n_particles - 1 - i)))
    if pair is not None:
        for i, j in itertools.combinations(range(n_particles), 2):
            total += pair_field(grid, pair, n_particles, i, j)
    return total


# --- initial states -----------------------------------------------------


def _outer_power(phi: WaveFunction, n_particles: int) -> np.ndarray:
    """phi's values tensored n times, into a new complex array."""
    check_entry_budget(phi.grid.size**n_particles, f"{n_particles}-particle state")
    return functools.reduce(np.multiply.outer, [phi.values] * n_particles, np.ones((), complex))


def product_state(phi: WaveFunction, n_particles: int) -> WaveFunction:
    """phi tensored n times (uncorrelated initial data)."""
    return _normalized_in_place(phi.grid, _outer_power(phi, n_particles))


def jastrow_product_state(
    phi: WaveFunction, n_particles: int, pair_profile: PairProfile
) -> WaveFunction:
    """Product orbital dressed with the short-range pair factor on every pair."""
    raw = _outer_power(phi, n_particles)
    for i, j in itertools.combinations(range(n_particles), 2):
        raw *= pair_field(phi.grid, pair_profile, n_particles, i, j)
    return _normalized_in_place(phi.grid, raw)


# --- dynamics -----------------------------------------------------------


def evolve_manybody(
    psi0: WaveFunction,
    pair: PotentialModel | None,
    trap: TrapModel | None,
    t: float,
    dt: float,
    callback: Callable[[int, float, WaveFunction, float], None] | None = None,
    *,
    stride: int = 1,
    potential: np.ndarray | None = None,
) -> WaveFunction:
    """Unitary split-step evolution under kinetic + trap + pair interaction.

    Symmetric splitting: half kinetic, full potential, half kinetic; every
    factor is a phase so the norm and the exchange symmetry are preserved
    exactly.  Negative t runs the evolution backwards.  `potential` is the
    table `total_potential(psi0.grid, psi0.n_particles, pair, trap)` if the
    caller already holds it; it is built here otherwise.  callback(step, time,
    state, kinetic) fires at every `stride`-th step and the last, as in
    spectral.split_step_evolve.
    """

    def potential_phase(dt_eff):
        v = potential
        if v is None:
            v = total_potential(psi0.grid, psi0.n_particles, pair, trap)
        table = np.exp(-1j * v * dt_eff)
        return lambda values: table

    return spectral.split_step_evolve(psi0, t, dt, potential_phase, callback, stride)


def energy_moment(
    psi: WaveFunction,
    potential: np.ndarray,
    order: int = 1,
    *,
    kinetic: float | None = None,
) -> float:
    """<psi, H^order psi> with spectral kinetic part; `potential` is the
    sampled table `total_potential(psi.grid, psi.n_particles, pair, trap)`,
    built once by the caller for every state it measures.  At order 1,
    `kinetic` is int |grad psi|^2 if the caller already holds it (a
    split-step callback does): then no transform is made."""
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    if order == 1:
        if kinetic is None:
            kinetic = kinetic_energy(psi)
        return kinetic + spectral.weighted_norm_squared(psi.values, potential) * psi.measure
    k2 = spectral.k_squared(psi.grid, psi.n_particles)
    h_psi = spectral.fourier_multiply(psi.values, k2) + potential * psi.values
    return spectral.weighted_norm_squared(h_psi) * psi.measure


# --- reduced density matrices -------------------------------------------


class DensityMatrix:
    """k-particle marginal, held as a Gram factor.

    The kernel follows the continuum convention: the operator acts as
    (gamma f)(x) = sum_y kernel[x, y] f(y) dx^(d k), and the trace is the
    diagonal sum with the same measure, normalized to 1.

    `factor` is an (M^(d k), J) read-only view of the state's amplitudes, no
    copy, and `weight` the measure cell_volume^(n-k) of the traced slots, so
    that kernel = weight * factor @ factor^H.  That (M^(d k))^2 kernel is
    built on each read of `.kernel`, after its 2^28-entry budget is checked;
    `trace`, `eigenvalues`, `partial_trace`, `condensate_overlap`,
    `sobolev_trace_norm` and the hierarchy's collision work on the factor and
    never build it.  The view follows the state: a marginal of a state whose
    amplitudes are later written changes with them, its kernel included.
    """

    def __init__(self, grid: GridSpec, k: int, factor: np.ndarray, weight: float):
        self.grid, self.k, self.weight = grid, k, weight
        self.factor = factor.view()
        self.factor.flags.writeable = False

    @property
    def kernel(self) -> np.ndarray:
        rows = self.factor.shape[0]
        check_entry_budget(rows * rows, f"{self.k}-particle kernel")
        return (self.factor @ self.factor.conj().T) * self.weight

    @property
    def measure(self) -> float:
        return self.grid.cell_volume**self.k

    def trace(self) -> float:
        return spectral.weighted_norm_squared(self.factor) * self.weight * self.measure

    def eigenvalues(self) -> np.ndarray:
        """Occupation numbers, descending: the factor's squared singular
        values, padded with zeros to M^(d k) entries."""
        s = np.linalg.svd(self.factor, compute_uv=False)
        vals = np.zeros(self.factor.shape[0])
        vals[: s.size] = s**2 * self.weight * self.measure
        return vals


def marginal(psi: WaveFunction, k: int) -> DensityMatrix:
    """Partial trace of |psi><psi| over particles k+1..n, trace one, held
    as its Gram factor (see DensityMatrix)."""
    n = psi.n_particles
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in 1..{n}, got {k}")
    factor = psi.values.reshape(psi.grid.size**k, -1)
    return DensityMatrix(psi.grid, k, factor, psi.grid.cell_volume ** (n - k))


def partial_trace(dm: DensityMatrix) -> DensityMatrix:
    """Trace out the last particle of a k-particle marginal: the traced slot
    joins the factor's columns."""
    if dm.k < 2:
        raise DomainError("need k >= 2 to trace out a particle")
    rows = dm.grid.size ** (dm.k - 1)
    weight = dm.weight * dm.grid.cell_volume
    return DensityMatrix(dm.grid, dm.k - 1, dm.factor.reshape(rows, -1), weight)


def condensate_overlap(dm: DensityMatrix, phi: WaveFunction) -> float:
    """<phi^(x k), gamma^(k) phi^(x k)> in [0, 1] on a k-particle marginal: 1 - overlap is the
    depletion; on a state's k-marginal, sqrt(1 - overlap) is its distance to phi in k slots.
    Computed as weight |factor^H phi^(x k)|^2."""
    ensure_same_grid(dm.grid, phi.grid)
    if phi.n_particles != 1:
        raise DomainError("the condensate phi must be one orbital")
    v = functools.reduce(np.multiply.outer, [phi.values] * dm.k).ravel()
    value = spectral.weighted_norm_squared(v.conj() @ dm.factor) * dm.weight
    return float(value * dm.grid.cell_volume ** (2 * dm.k))


# --- regularity diagnostics ----------------------------------------------


def correlation_quotient(
    psi: WaveFunction,
    pair_profile: PairProfile | None,
    i: int,
    j: int,
) -> float:
    """Mixed-gradient energy of psi divided pointwise by the pair profile.

    Returns int |grad_i grad_j (psi / f(x_i - x_j))|^2, the profile-relative
    smoothness of the pair (i, j); pass None for the undivided integral.
    Computed by `spectral.transform_energy` from real half spectra (9/32 of psi's
    bytes at M = 16), with the even weight |k_i|^2 |k_j|^2 as its two factors and
    1/f as a pair_field view; a real psi makes half the transforms of a complex one.
    """
    n, grid = psi.n_particles, psi.grid
    if n < 2 or i == j or not (0 <= i < n and 0 <= j < n):
        raise DomainError("need two distinct particle indices on an n >= 2 state")
    reciprocal = None
    if pair_profile is not None:
        table = _displacement_table(grid, pair_profile)  # every value the view reads
        if not 0.0 < table.min() <= table.max() < np.inf:  # a NaN fails both
            raise DomainError("pair profile must be positive on the whole grid")
        reciprocal = _pair_view(grid, 1.0 / table, n, i, j)
    k2_i, k2_j = spectral.k_squared(grid, n, (i,)), spectral.k_squared(grid, n, (j,))
    return spectral.transform_energy(psi.values, psi.measure, k2_i, k2_j, factor=reciprocal)


def hardy_check(phi: WaveFunction) -> tuple[float, float]:
    """Both sides of the three-dimensional inverse-square inequality.

    Returns (<phi, |r|^-2 phi>, 4 <grad phi, grad phi>).  The origin cell's
    weight is the average of its face neighbors' |r|^-2, an underestimate of
    the in-cell average, which can only make the left side smaller.
    """
    if phi.grid.dim != 3:
        raise ConfigurationError("the inverse-square inequality check needs d = 3")
    grid = phi.grid
    r2 = grid.radius_squared_mesh()
    weight = np.empty_like(r2)
    nonzero = r2 > 0
    weight[nonzero] = 1.0 / r2[nonzero]
    weight[~nonzero] = 1.0 / grid.spacing**2  # face neighbors all sit at |r| = dx
    lhs = spectral.weighted_norm_squared(phi.values, weight) * grid.cell_volume
    return lhs, 4.0 * kinetic_energy(phi)

"""Exact few-boson dynamics on tensor-product grids.

A state of n particles in d dimensions is a complex tensor of rank n*d on
the per-particle grid; particle j owns the axis block [j*d, (j+1)*d).  The
tensor grows as M^(d*n), so a hard budget of 2^28 amplitudes caps the
reachable regimes; the thermodynamic statements behind these diagnostics are
probed as monotone trends over small finite families, never as limits.

The one-dimensional analog family used for cheap mean-field trend checks
scales V_n(x) = V(n x) at unchanged amplitude, so that n * V_n tends to a
point interaction of weight b0 = int V dx, mirroring the three-dimensional
family's bookkeeping; outputs produced this way are flagged `analog1d`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectral
from .errors import ConfigurationError, DomainError
from .grids import GridSpec, WaveFunction, ensure_same_grid, kinetic_energy
from .potential import PotentialModel, TrapModel

MAX_ENTRIES = 2**28

PairProfile = Callable[[np.ndarray], np.ndarray]


def check_entry_budget(entries: int, what: str) -> None:
    """Reject a state or kernel of more than 2^28 entries before it is built."""
    if entries > MAX_ENTRIES:
        raise ConfigurationError(f"{what} needs {entries} entries; budget is 2^28 = {MAX_ENTRIES}")


@dataclass
class ManyBodyState:
    """Symmetric n-particle field, normalized with the grid measure."""

    grid: GridSpec
    n_particles: int
    values: np.ndarray
    #: L2 norm of the raw tensor before normalization (1.0 if never normalized)
    prenormalization: float = 1.0

    @property
    def measure(self) -> float:
        return self.grid.cell_volume**self.n_particles

    def norm(self) -> float:
        return float(np.sqrt(spectral.weighted_norm_squared(self.values) * self.measure))

    def normalized(self) -> "ManyBodyState":
        return _normalized_in_place(self.grid, self.n_particles, self.values.copy())

    def symmetry_defect(self) -> float:
        """Largest deviation under any adjacent particle transposition."""
        worst = 0.0
        for i in range(self.n_particles - 1):
            swapped = exchange_particles(self.values, i, i + 1, self.grid.dim)
            worst = max(worst, float(np.max(np.abs(self.values - swapped))))
        return worst


def exchange_particles(values: np.ndarray, i: int, j: int, dim: int) -> np.ndarray:
    axes = list(range(values.ndim))
    for a in range(dim):
        axes[i * dim + a], axes[j * dim + a] = axes[j * dim + a], axes[i * dim + a]
    return np.transpose(values, axes)


def pair_field(grid: GridSpec, f: PairProfile, n_slots: int, i: int, j: int) -> np.ndarray:
    """f(|x_i - x_j|) for slots i != j, shaped to broadcast over an n_slots layout."""
    table, gather = _pair_gather(grid, f, n_slots, i, j)
    return table[gather]


def _pair_gather(grid: GridSpec, f: PairProfile, n_slots: int, i: int, j: int):
    """f on the M^d periodic displacements, and the per-axis index arrays
    that gather f(|x_i - x_j|) from it over an n_slots layout.

    The wrapped distance depends only on the index difference (a - b) mod M
    along each axis, so f is evaluated once on the M^d displacements (the
    centred radius mesh rolled by M/2 per axis, |-L/2 + h (k + M/2 mod M)|
    = h min(k, M - k)) and gathered with one index array per axis.
    """
    check_entry_budget(grid.size**2, "pair field")  # M^d rows by M^d columns, any n_slots
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
    return table, tuple(gather)


def _pair_slabs(grid: GridSpec, f: PairProfile, values: np.ndarray, i: int, j: int):
    """(rows, f(|x_i - x_j|)[rows]) over leading-axis slabs of `values`, an
    n-slot layout, each slab of at most spectral.SLAB_ENTRIES amplitudes, so
    the whole pair field is never held."""
    table, gather = _pair_gather(grid, f, values.ndim // grid.dim, i, j)
    step = max(1, spectral.SLAB_ENTRIES * values.shape[0] // values.size)
    if all(g.shape[0] == 1 for g in gather):
        step = values.shape[0]  # constant along the leading axis: gather it once
    for start in range(0, values.shape[0], step):
        rows = slice(start, start + step)
        yield rows, table[tuple(g[rows] if g.shape[0] > 1 else g for g in gather)]


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
    if trap is not None and trap.confining:
        v1 = trap.sample(grid)
        for i in range(n_particles):  # slot i: its d axes, then 1s for the later slots
            total += v1.reshape(grid.shape + (1,) * (d * (n_particles - 1 - i)))
    if pair is not None:
        for i, j in itertools.combinations(range(n_particles), 2):
            total += pair_field(grid, pair, n_particles, i, j)
    return total


# --- initial states -----------------------------------------------------


def _normalized_in_place(grid: GridSpec, n_particles: int, values: np.ndarray) -> ManyBodyState:
    """State over `values`, an array the caller owns, divided by its norm in
    place (no copy), with that norm as the prenormalization."""
    state = ManyBodyState(grid, n_particles, values)
    n = state.norm()
    if n == 0.0 or not np.isfinite(n):
        raise DomainError("cannot normalize a zero or non-finite state")
    values /= n
    state.prenormalization = n
    return state


def product_state(phi: WaveFunction, n_particles: int) -> ManyBodyState:
    """phi tensored n times (uncorrelated initial data)."""
    check_entry_budget(phi.grid.size**n_particles, f"{n_particles}-particle state")
    values = np.array(1.0, dtype=complex)
    for _ in range(n_particles):
        values = np.tensordot(values, phi.values, axes=0)
    return _normalized_in_place(phi.grid, n_particles, values)


def jastrow_product_state(
    phi: WaveFunction, n_particles: int, pair_profile: PairProfile
) -> ManyBodyState:
    """Product orbital dressed with the short-range pair factor on every pair."""
    raw = product_state(phi, n_particles).values
    for i, j in itertools.combinations(range(n_particles), 2):
        for rows, factor in _pair_slabs(phi.grid, pair_profile, raw, i, j):
            raw[rows] *= factor
    return _normalized_in_place(phi.grid, n_particles, raw)


def random_symmetric_state(grid: GridSpec, n_particles: int, seed: int) -> ManyBodyState:
    """Bosonic trial state: symmetrized complex Gaussian noise."""
    check_entry_budget(grid.size**n_particles, f"{n_particles}-particle state")
    rng = np.random.default_rng(seed)
    shape = grid.shape * n_particles
    raw = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sym = np.zeros_like(raw)
    for perm in itertools.permutations(range(n_particles)):
        axes = []
        for p in perm:
            axes.extend(range(p * grid.dim, (p + 1) * grid.dim))
        sym += np.transpose(raw, axes)
    return _normalized_in_place(grid, n_particles, sym)


# --- dynamics -----------------------------------------------------------


def evolve_manybody(
    psi0: ManyBodyState,
    pair: PotentialModel | None,
    trap: TrapModel | None,
    t: float,
    dt: float,
    callback: Callable[[int, float, ManyBodyState], None] | None = None,
) -> ManyBodyState:
    """Unitary split-step evolution under kinetic + trap + pair interaction.

    Symmetric splitting: half kinetic, full potential, half kinetic; every
    factor is a phase so the norm and the exchange symmetry are preserved
    exactly.  Negative t runs the evolution backwards.
    """
    grid, n = psi0.grid, psi0.n_particles

    def potential_phase(dt_eff):
        table = np.exp(-1j * total_potential(grid, n, pair, trap) * dt_eff)
        return lambda values: table

    return spectral.split_step_evolve(
        psi0.values, grid, n, t, dt, potential_phase, lambda v: ManyBodyState(grid, n, v), callback
    )


def energy_moment(psi: ManyBodyState, potential: np.ndarray, order: int = 1) -> float:
    """<psi, H^order psi> with spectral kinetic part; `potential` is the
    sampled table `total_potential(psi.grid, psi.n_particles, pair, trap)`,
    built once by the caller for every state it measures."""
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    k2 = spectral.k_squared(psi.grid, psi.n_particles)
    if order == 1:
        kinetic = spectral.parseval_energy(spectral.fftn(psi.values), psi.measure, k2)
        return kinetic + spectral.weighted_norm_squared(psi.values, potential) * psi.measure
    h_psi = spectral.fourier_multiply(psi.values, k2) + potential * psi.values
    return spectral.weighted_norm_squared(h_psi) * psi.measure


# --- reduced density matrices -------------------------------------------


@dataclass
class DensityMatrix:
    """k-particle marginal as a kernel over the k-particle grid index set.

    The kernel follows the continuum convention: the operator acts as
    (gamma f)(x) = sum_y kernel[x, y] f(y) dx^(d k), and the trace is the
    diagonal sum with the same measure, normalized to 1.
    """

    grid: GridSpec
    k: int
    kernel: np.ndarray

    @property
    def measure(self) -> float:
        return self.grid.cell_volume**self.k

    def trace(self) -> float:
        return float(np.real(np.trace(self.kernel)) * self.measure)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.kernel - self.kernel.conj().T)))

    def eigenvalues(self) -> np.ndarray:
        """Occupation numbers, descending."""
        vals = np.linalg.eigvalsh(self.kernel) * self.measure
        return vals[::-1]


def marginal(psi: ManyBodyState, k: int) -> DensityMatrix:
    """Partial trace of |psi><psi| over particles k+1..n, trace one."""
    n = psi.n_particles
    if not 1 <= k <= n:
        raise DomainError(f"k must lie in 1..{n}, got {k}")
    rows = psi.grid.size**k
    check_entry_budget(rows * rows, f"{k}-particle kernel")
    mat = psi.values.reshape(rows, -1)
    kernel = (mat @ mat.conj().T) * psi.grid.cell_volume ** (n - k)
    return DensityMatrix(psi.grid, k, kernel)


def partial_trace(dm: DensityMatrix) -> DensityMatrix:
    """Trace out the last particle of a k-particle kernel."""
    if dm.k < 2:
        raise DomainError("need k >= 2 to trace out a particle")
    m = dm.grid.size
    rows = dm.grid.size ** (dm.k - 1)
    four = dm.kernel.reshape(rows, m, rows, m)
    kernel = np.einsum("acbc->ab", four) * dm.grid.cell_volume**dm.grid.dim
    return DensityMatrix(dm.grid, dm.k - 1, kernel)


def condensate_overlap(dm: DensityMatrix, phi: WaveFunction) -> float:
    """<phi, gamma phi> in [0, 1]; 1 - overlap is the depletion diagnostic."""
    if dm.k != 1:
        raise DomainError("condensate overlap is defined for one-particle marginals")
    ensure_same_grid(dm.grid, phi.grid)
    v = phi.values.ravel()
    value = np.real(np.vdot(v, dm.kernel @ v)) * dm.grid.cell_volume**2
    return float(value)


def factorization_distance(psi: ManyBodyState, phi: WaveFunction, k: int) -> float:
    """Distance from psi to the closest state with its first k slots in phi.

    Equals sqrt(1 - |P psi|^2) where P projects onto phi^(tensor k) in the
    first k slots; 0 for a pure product of phi, 1 when the contraction
    vanishes.
    """
    ensure_same_grid(psi.grid, phi.grid)
    if not 1 <= k < psi.n_particles:
        raise DomainError("k must satisfy 1 <= k < n_particles")
    rows = psi.grid.size**k
    phi_k = np.array(1.0, dtype=complex)
    for _ in range(k):
        phi_k = np.tensordot(phi_k, phi.values, axes=0)
    mat = psi.values.reshape(rows, -1)
    chi = (phi_k.ravel().conj() @ mat) * psi.grid.cell_volume**k
    chi_norm_sq = spectral.weighted_norm_squared(chi) * psi.grid.cell_volume ** (
        psi.n_particles - k
    )
    return float(np.sqrt(max(0.0, 1.0 - chi_norm_sq)))


# --- regularity diagnostics ----------------------------------------------


def correlation_quotient(
    psi: ManyBodyState,
    pair_profile: PairProfile | None,
    i: int,
    j: int,
) -> float:
    """Mixed-gradient energy of psi divided pointwise by the pair profile.

    Returns int |grad_i grad_j (psi / f(x_i - x_j))|^2, the profile-relative
    smoothness of the pair (i, j); pass None for the undivided integral.
    Computed spectrally in one work array the size of psi: the weight is
    |k_i|^2 |k_j|^2 in Fourier space, summed as its two factors.
    """
    n, grid = psi.n_particles, psi.grid
    if n < 2 or i == j or not (0 <= i < n and 0 <= j < n):
        raise DomainError("need two distinct particle indices on an n >= 2 state")
    if pair_profile is None:
        work = psi.values.astype(complex, copy=True)
    else:
        work = np.empty(psi.values.shape, dtype=complex)
        for rows, factor in _pair_slabs(grid, pair_profile, psi.values, i, j):
            if np.any(factor <= 0.0) or not np.all(np.isfinite(factor)):
                raise DomainError("pair profile must be positive on the whole grid")
            np.divide(psi.values[rows], factor, out=work[rows])
    hat = spectral.fftn(work, overwrite_x=True)
    k2_i, k2_j = spectral.k_squared(grid, n, (i,)), spectral.k_squared(grid, n, (j,))
    return spectral.parseval_energy(hat, psi.measure, k2_i, k2_j)


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

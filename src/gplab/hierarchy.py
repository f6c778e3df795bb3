"""Marginal-hierarchy diagnostics: residuals, collision terms, series.

Kernels follow the DensityMatrix convention of `gplab.manybody`: a k-particle
kernel K(x_1..x_k; x'_1..x'_k) is stored as an (M^(d k), M^(d k)) matrix with
row-major multi-indices, and norms carry the grid measure per slot pair, so a
factorized projector built from a normalized orbital has norm and trace 1.

The discrete point interaction is (dx)^(-d) times the Kronecker indicator at
coincident grid points, the unique grid weight whose cell sum is 1; with it
the contracted collision term has the same closed form as in the continuum:

    Tr_last [delta(x_j - z), gamma^(k+1)](x; x')
        = gamma^(k+1)(x, x_j; x', x_j) - gamma^(k+1)(x, x'_j; x', x'_j).

Truncated series terms are iterated time-simplex integrals of collision and
free-flight factors applied to the k-fold products of one orbital; every
integrand is a short sum of rank-one products of single-particle fields,
which is how orders one and two stay affordable.  The exact-marginal
residual collides on the Gram factor of a pure-state marginal (see
`gplab.manybody.DensityMatrix`) in any d, and `sobolev_trace_norm` reads
its trace there, so neither builds that marginal's kernel.  The limit
residual takes its norms from per-slot Gram matrices of the product terms,
so it builds nothing kernel-sized and runs at any level and in any d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import spectral
from .errors import ConfigurationError, DomainError
from .grids import GridSpec, WaveFunction, ensure_same_grid, free_evolve
from .manybody import DensityMatrix, check_entry_budget, pair_field
from .potential import PotentialModel


# --- kernel plumbing ------------------------------------------------------


def _check_orbital(phi: WaveFunction) -> None:
    if phi.n_particles != 1:
        raise DomainError(f"need a one-slot orbital, got a field of {phi.n_particles} slots")


def factorized_kernel(phi: WaveFunction, k: int) -> np.ndarray:
    """Kernel of the pure k-fold product of one orbital."""
    if k < 1:
        raise DomainError("k must be >= 1")
    _check_orbital(phi)
    return _assemble_terms([(1.0, [(phi.values, phi.values)] * k)], phi.grid.size)


def kernel_norm(kernel: np.ndarray, grid: GridSpec, k: int) -> float:
    return float(np.linalg.norm(kernel) * grid.cell_volume**k)


def kernel_distance(a: np.ndarray, b: np.ndarray, grid: GridSpec, k: int) -> float:
    return kernel_norm(a - b, grid, k)


def _per_axis(kernel: np.ndarray, grid: GridSpec, k: int):
    """Per-axis view of a k-particle kernel, with its row and column axes."""
    rows, cols = tuple(range(k * grid.dim)), tuple(range(k * grid.dim, 2 * k * grid.dim))
    return kernel.reshape(grid.shape * (2 * k)), rows, cols


def free_propagate_kernel(kernel: np.ndarray, grid: GridSpec, k: int, t: float) -> np.ndarray:
    """Conjugate a k-particle kernel by the free flow exp(i t Laplacian)."""
    work, rows, cols = _per_axis(kernel, grid, k)
    phase_rows = spectral.free_phase(grid, t, 2 * k, range(k))
    phase_cols = spectral.free_phase(grid, -t, 2 * k, range(k, 2 * k))  # the conjugate
    work = spectral.fourier_multiply(work, phase_rows, rows)
    work = spectral.fourier_multiply(work, phase_cols, cols, overwrite_x=True)
    return work.reshape(kernel.shape)


# --- collision operator ---------------------------------------------------


def _collide(gamma_next: DensityMatrix, k: int, weight: np.ndarray) -> np.ndarray:
    """sum_j Tr_{k+1}[W(x_j, z), gamma^(k+1)] on the Gram factor F (weight w)
    of a pure-state marginal, for a real symmetric (M^d, M^d) pair weight W
    that carries the trace's grid measure; `_collide_terms` (below) is the
    same on rank-one product terms.  With F laid out as [x_1..x_k, z, c],
    the sum is P - P^H for P = w (V o F) F^H, (V o F)[x, z, c] = sum_j
    W(x_j, z) F[x, z, c]: one matrix product and no traced-slot diagonal.
    Slots index M^d points, so any d works.
    """
    size = gamma_next.grid.size
    factor = gamma_next.factor.reshape((size,) * (k + 1) + (-1,))
    v = sum(weight.reshape((1,) * j + (size,) + (1,) * (k - 1 - j) + (size, 1)) for j in range(k))
    rows = size**k
    p = gamma_next.weight * ((v * factor).reshape(rows, -1) @ factor.reshape(rows, -1).conj().T)
    return p - p.conj().T


# --- hierarchy residuals --------------------------------------------------


def _frame(frames: Mapping[float, object], time: float):
    for key, value in frames.items():
        if abs(key - time) <= 1e-9 * max(1.0, abs(time)):
            return value
    raise ConfigurationError(f"missing trajectory frame at t = {time!r}")


def _frame_triple(frames: Mapping[float, object], t: float, dt: float) -> list:
    """The frames at t - dt, t and t + dt of a central difference, on one grid."""
    if dt <= 0:
        raise DomainError("dt must be positive")
    triple = [_frame(frames, time) for time in (t - dt, t, t + dt)]
    for frame in triple:
        ensure_same_grid(frame.grid, triple[1].grid)
    return triple


def _relative_defect(defect: float, scale: float) -> float:
    return defect if scale < 1e-12 else defect / scale


def bbgky_residual(
    gamma_frames: Mapping[float, DensityMatrix],
    gamma_next: DensityMatrix,
    pair: PotentialModel,
    n_particles: int,
    t: float,
    dt: float,
) -> float:
    """Normalized defect of the exact k-particle marginal equation.

    The time derivative is the central difference of the k-particle kernels
    at t -+ dt; the right side is [H_k, gamma^(k)] (kinetic and intra-group
    pair terms, from the row half: H_k gamma - (H_k gamma)^H for Hermitian
    H_k and gamma) plus (n - k) times the collision term built from the
    (k+1)-marginal against the pair potential.  Exact marginals satisfy the
    spatially discretized identity, so the residual decays at second order
    in dt.
    """
    before, center, after = _frame_triple(gamma_frames, t, dt)
    grid, k = center.grid, center.k
    if before.k != k or after.k != k:
        raise ConfigurationError(f"every frame must be a {k}-particle marginal")
    if gamma_next.k != k + 1:
        raise ConfigurationError("gamma_next must hold one more particle")
    ensure_same_grid(grid, gamma_next.grid)
    if n_particles < k + 1:
        raise DomainError(f"a {k + 1}-particle marginal needs n_particles >= {k + 1}")
    lhs = 1j * (after.kernel - before.kernel) / (2.0 * dt)
    kernel = center.kernel
    work, rows, _ = _per_axis(kernel, grid, k)
    rhs = spectral.fourier_multiply(work, spectral.k_squared(grid, 2 * k, range(k)), rows)
    for i in range(k):
        for j in range(i + 1, k):
            rhs += pair_field(grid, pair, 2 * k, i, j) * work
    rhs = rhs.reshape(kernel.shape)
    rhs -= rhs.conj().T  # in place: one kernel-sized temporary, the adjoint
    # collision with the pair potential through the (k+1)-marginal
    weight = grid.cell_volume * pair_field(grid, pair, 2, 0, 1).reshape(grid.size, grid.size)
    rhs += (n_particles - k) * _collide(gamma_next, k, weight)
    return _relative_defect(kernel_norm(lhs - rhs, grid, k), kernel_norm(rhs, grid, k))


def infinite_hierarchy_residual(
    orbital_frames: Mapping[float, WaveFunction],
    k: int,
    sigma: float,
    t: float,
    dt: float,
) -> float:
    """Normalized defect of the limiting hierarchy on a factorized family.

    With Phi, A and B the k-fold products of the orbital at t, t + dt and
    t - dt, U = i (A - B) / (2 dt) and H = sum_j (-Laplacian_j + sigma
    |phi(x_j)|^2) (the kinetic and contact collision terms), the defect
    i (A A^H - B B^H) / (2 dt) - [H, Phi Phi^H] is normed as
        (U - H Phi) A^H + H Phi (A - Phi)^H - B (U - H Phi)^H - (B - Phi) (H Phi)^H
    with each difference telescoped into products of one difference slot:
    every term is of order dt, so the Gram sums of `_terms_norm` do not
    cancel.  It vanishes at second order in dt exactly when the orbital
    solves the nonlinear equation with the same sigma.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    before, center, after = _frame_triple(orbital_frames, t, dt)
    for frame in (before, center, after):
        _check_orbital(frame)
    grid, phi, a, b = center.grid, center.values, after.values, before.values
    h_phi = spectral.fourier_multiply(phi, spectral.k_squared(grid)) + sigma * abs(phi) ** 2 * phi
    u, a_k, b_k, phi_k = 1j * (a - b) / (2.0 * dt), [a] * k, [b] * k, [phi] * k
    h_prods = [phi_k[:j] + [h_phi] + phi_k[j + 1 :] for j in range(k)]  # H Phi
    u_prods = [b_k[:j] + [u] + a_k[j + 1 :] for j in range(k)]  # U, telescoped
    w_prods = [p for x, y in zip(u_prods, h_prods) for p in _difference(x, y)]  # U - H Phi
    defect = _outer(1.0, w_prods, [a_k]) + _outer(1.0, h_prods, _difference(a_k, phi_k))
    defect += _outer(-1.0, [b_k], w_prods) + _outer(-1.0, _difference(b_k, phi_k), h_prods)
    rhs = _outer(1.0, h_prods, [phi_k]) + _outer(-1.0, [phi_k], h_prods)
    return _relative_defect(_terms_norm(defect, grid, k), _terms_norm(rhs, grid, k))


def _difference(x: list, y: list) -> list:
    """Products summing to x_1 x .. x x_k - y_1 x .. x y_k, one difference slot each."""
    return [y[:j] + [x[j] - y[j]] + x[j + 1 :] for j in range(len(x))]


def _outer(coeff: complex, rows: list, cols: list) -> list:
    """Rank-one product terms of coeff (sum of rows)(sum of cols)^H."""
    return [(coeff, list(zip(row, col))) for row in rows for col in cols]


# --- truncated series -----------------------------------------------------


@dataclass(frozen=True)
class HierarchyFamily:
    """The k-fold products of one orbital, k <= k_max, with one coupling.

    Series terms run on rank-one products of single-particle fields and never
    materialize kernels above level k, which is what makes second-order terms
    viable.
    """

    orbital: WaveFunction
    sigma: float
    k_max: int

    @classmethod
    def from_orbital(cls, phi: WaveFunction, k_max: int, sigma: float) -> "HierarchyFamily":
        if k_max < 1:
            raise DomainError("k_max must be >= 1")
        _check_orbital(phi)
        return cls(phi, float(sigma), k_max)


def _midpoints(upper: float, n: int) -> np.ndarray:
    return (np.arange(n) + 0.5) * (upper / n)


def _simplex_nodes(stops: list, m: int, n: int, weight: float = 1.0):
    """Midpoint nodes (weight, [t, s_1, .., s_m]) of the order-m time simplex
    t > s_1 > .. > s_m > 0 below stops = [t], n per axis: s_j runs over the
    midpoints of [0, s_(j-1)] and contributes s_(j-1)/n to the weight."""
    if m == 0:
        yield weight, stops
        return
    for s in _midpoints(stops[-1], n):
        yield from _simplex_nodes(stops + [s], m - 1, n, weight * (stops[-1] / n))


def _collide_terms(terms: list, sigma: float) -> list:
    """Term back end of the contact collision on rank-one product terms:
    drops the last slot into slot j for every j (two signed terms each)."""
    out = []
    for coeff, slots in terms:
        *kept, (a_last, b_last) = slots
        weight_x = a_last * np.conj(b_last)
        for j in range(len(kept)):
            plus = list(kept)
            a_j, b_j = plus[j]
            plus[j] = (a_j * weight_x, b_j)
            out.append((coeff * (-1j * sigma), plus))
            minus = list(kept)
            a_j, b_j = minus[j]
            minus[j] = (a_j, b_j * np.conj(weight_x))
            out.append((coeff * (1j * sigma), minus))
    return out


def _evolve_terms(terms: list, grid: GridSpec, tau: float) -> list:
    if tau == 0.0:
        return terms

    def fly(field):
        return free_evolve(WaveFunction(grid, field), tau).values

    return [(coeff, [(fly(a), fly(b)) for a, b in slots]) for coeff, slots in terms]


def _slot_fields(terms: list, slot: int, side: int) -> np.ndarray:
    """The (terms, M^d) stack of every term's field on one side (0: a, 1: b) of a slot."""
    return np.array([slots[slot][side] for _, slots in terms]).reshape(len(terms), -1)


def _assemble_terms(terms: list, size: int) -> np.ndarray:
    """The level-k kernel L @ R = sum_t c_t (a_t1 x .. x a_tk)(b_t1 x .. x b_tk)^H of
    rank-one product terms (c_t, [(a_t1, b_t1), ..]), L and R row-wise Kronecker
    products, L with the coefficients; checks the 2^28-entry budget first.
    Beyond the kernel it holds L and R and one slot's stack of fields."""
    k, count = len(terms[0][1]), len(terms)
    check_entry_budget(size ** (2 * k), f"level-{k} kernel")
    left, right = np.array([coeff for coeff, _ in terms])[:, None], np.ones((count, 1))
    for slot in range(k):
        left = (left[:, :, None] * _slot_fields(terms, slot, 0)[:, None, :]).reshape(count, -1)
        right = (right[:, :, None] * _slot_fields(terms, slot, 1)[:, None, :]).reshape(count, -1)
    return left.T @ np.conjugate(right, out=right)


def _terms_norm(terms: list, grid: GridSpec, k: int) -> float:
    """kernel_norm of the level-k kernel of rank-one product terms, from
    per-slot Gram matrices: ||sum_t c_t A_t B_t^H||^2 = sum_(s,t) conj(c_s)
    c_t prod_slots <a_s, a_t> <b_t, b_s>, with nothing kernel-sized built.
    Terms that cancel lose digits twice over here (the squared norm cancels),
    so callers write differences into the fields, one slot per term."""
    gram = np.ones((len(terms), len(terms)))
    for slot in range(k):
        a, b = _slot_fields(terms, slot, 0), _slot_fields(terms, slot, 1)
        gram = gram * (a.conj() @ a.T) * (b @ b.conj().T)
    coeffs = np.array([coeff for coeff, _ in terms])
    return float(np.sqrt(max(np.real(coeffs.conj() @ gram @ coeffs), 0.0)) * grid.cell_volume**k)


def dyson_term(
    family: HierarchyFamily,
    k: int,
    m: int,
    t: float,
    quad_points: int = 16,
) -> np.ndarray:
    """Order-m term of the collision expansion at level k (not trace-normalized).

    Order zero is the free flight of the level-k product; orders one and two
    are midpoint-rule integrals over the time simplex with `quad_points`
    nodes per axis: at each node the level-(k+m) product of the orbital,
    freely flown to s_m, alternates collision and free flight up to t.
    Each node's weight goes into its terms' coefficients, and the terms of
    successive nodes are assembled together, once their Kronecker factors
    (2 M^(d k) entries per term) hold min(M^(2 d k), spectral.SLAB_ENTRIES)
    entries: 4 nodes per batch at order 2 on a 64-point line, 32 on 8^3.
    A batch's fields and factors take about one kernel or one slab each.
    Orders above two are unsupported (cost grows with the level that must be
    carried).
    """
    if m not in (0, 1, 2):
        raise ConfigurationError("series order must be 0, 1 or 2")
    if k < 1:
        raise DomainError("k must be >= 1")
    if k + m > family.k_max:
        raise ConfigurationError(f"term needs level {k + m} > k_max = {family.k_max}")
    if quad_points < 4:
        raise ConfigurationError("quad_points < 4 is too coarse for the t^2 checks")
    phi = family.orbital
    grid, size = phi.grid, phi.grid.size
    if m == 0:
        return free_propagate_kernel(factorized_kernel(phi, k), grid, k, t)
    check_entry_budget(size ** (2 * k), f"level-{k} kernel")
    total = np.zeros((size**k, size**k), dtype=complex)
    if family.sigma == 0.0:
        return total
    limit, batch = min(size ** (2 * k), spectral.SLAB_ENTRIES), []
    for weight, stops in _simplex_nodes([t], m, quad_points):
        phi_s = free_evolve(phi, stops[-1])
        terms = [(weight, [(phi_s.values, phi_s.values)] * (k + m))]
        for j in reversed(range(m)):  # collide at stops[j + 1], fly to stops[j]
            terms = _collide_terms(terms, family.sigma)
            terms = _evolve_terms(terms, grid, stops[j] - stops[j + 1])
        batch += terms
        if 2 * len(batch) * size**k >= limit:
            total += _assemble_terms(batch, size)
            batch = []
    if batch:
        total += _assemble_terms(batch, size)
    return total


def dyson_partial_sum(
    family: HierarchyFamily,
    k: int,
    n: int,
    t: float,
    quad_points: int = 16,
) -> np.ndarray:
    """Sum of the series terms of orders 0..n-1 at level k (n <= 3)."""
    if not 1 <= n <= 3:
        raise ConfigurationError("partial sums support n in 1..3")
    return sum(dyson_term(family, k, m, t, quad_points) for m in range(n))


# --- regularity norm and power counting -----------------------------------


def sobolev_trace_norm(dm: DensityMatrix) -> float:
    """Trace of the kernel against the product of (1 - Laplacian_j) factors.

    Equals (1 + int |grad phi|^2)^k on the k-fold product of a normalized
    orbital, and is invariant under the free flow.

    On the Gram factor F the trace is weight sum W |F^|^2 / M^(d k)
    (Parseval on the row transform), taken over blocks of columns of at most
    spectral.SLAB_ENTRIES entries each, so neither the kernel nor a copy of
    the whole factor is made.
    """
    grid, k, factor = dm.grid, dm.k, dm.factor
    size, total_columns = factor.shape
    columns = max(1, spectral.SLAB_ENTRIES // size)
    row_axes = tuple(range(k * grid.dim))
    weight = np.ones((1,) * (k * grid.dim + 1))  # the row layout, then the block's columns
    for particle in range(k):
        weight = weight * (1.0 + spectral.k_squared(grid, k, (particle,)))[..., None]
    total = 0.0
    for start in range(0, total_columns, columns):
        block = factor[:, start : start + columns]
        hat = spectral.fftn(block.reshape(grid.shape * k + (block.shape[1],)), axes=row_axes)
        total += spectral.weighted_norm_squared(hat, weight) * dm.weight / size
    return float(total * grid.cell_volume**k)


def power_counting_margin(k: int, m: int) -> tuple[int, int, int]:
    """Ultraviolet exponent bookkeeping for the order-m, level-k graphs.

    With all momenta cut at beta and frequencies at beta^2, the integration
    volume grows as beta^(4k + 15m) = beta^(3*(3m) + 2*(2k + 3m)); the
    vertex delta functions, the 2k + 3m propagators and the level-(k+m)
    regularity bound supply beta^-(5m), beta^-(2(2k+3m)) and beta^-(5(k+m)),
    a total decay exponent of 9k + 16m.  The margin 5k + m is positive for
    every k >= 1, m >= 0, so each graph is ultraviolet convergent.
    """
    if k < 1 or m < 0:
        raise DomainError("need k >= 1 and m >= 0")
    volume_exp = 4 * k + 15 * m
    decay_exp = 5 * m + 2 * (2 * k + 3 * m) + 5 * (k + m)
    return volume_exp, decay_exp, decay_exp - volume_exp

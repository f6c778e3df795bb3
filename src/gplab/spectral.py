"""Spectral core of the split-step solvers: every transform of the package,
the one split-step loop, wavenumber and free-flight phase tables, the
one-axis free-flight matrix and weighted sums of squares.

Transforms are numpy.fft's, forward unnormalized and inverse carrying 1/M per
axis, looked up as module attributes at call time and single-threaded.  Each
writes into one buffer: the input itself when the caller gives it up, else
one fresh complex array (numpy would otherwise allocate once per axis).  Axes
run in ascending order: the order fixes the round-off, and this one gives
complex results bit-identical to those of scipy.fft.  A one-axis transform
calls numpy's 1-D fft/ifft directly, as fftn/ifftn do once per axis: the
result is the same to the bit, and the n-D argument handling (about 2 of the
5 us of a 64-point fftn) is skipped.
Tables describe `n_slots` particle slots of `grid.dim` axes each (slot j owns
axes [j*dim, (j+1)*dim)); only per-grid one-axis tables are cached here, the
1D table of k_axis^2 and the M x M inverse-DFT table and circulant index that
build `free_propagator` without a transform (at most 16 grids, 24 M^2 B each:
96 KiB at M = 64), so no tensor-sized table outlives the computation that
needs it (`grids.free_evolve` keeps its own few one-axis matrices or one-slot
phase tables).  Sums of W |x|^2 over arrays larger than SLAB_ENTRIES run over
leading-axis slabs, so they make no temporary larger than a slab.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from typing import Iterable

import numpy as np

from .errors import DomainError, SolverError

#: largest array `weighted_norm_squared` sums in one expression
SLAB_ENTRIES = 2**20


def _transform(one_axis, many_axes, x: np.ndarray, axes, overwrite_x: bool) -> np.ndarray:
    """numpy.fft's transform of x over `axes` (all by default), in ascending
    axis order, written into x itself if the caller gives it up and it is a
    writeable complex128 array, else into one fresh complex array: `one_axis`
    (fft or ifft) for a single axis, else `many_axes` (fftn or ifftn)."""
    axes = tuple(reversed(range(x.ndim) if axes is None else axes))  # numpy runs the last first
    if overwrite_x and x.dtype == np.complex128 and x.flags.writeable:
        out = x
    else:  # a streaming copy, then in place: a first pass strided over both arrays is slower
        out = np.empty(x.shape, dtype=complex)
        out[...] = x
    # the lengths spare numpy an array lookup per call, which small transforms notice
    if len(axes) == 1:  # the call fftn makes per axis, without its n-D argument handling
        return one_axis(out, x.shape[axes[0]], axes[0], out=out)
    return many_axes(out, [x.shape[axis] for axis in axes], axes, out=out)


def fftn(x: np.ndarray, axes=None, overwrite_x: bool = False) -> np.ndarray:
    """Unnormalized forward transform over `axes` (all axes by default); with
    overwrite_x=True on a writeable complex128 x the result is x, in place."""
    return _transform(np.fft.fft, np.fft.fftn, x, axes, overwrite_x)


def ifftn(x: np.ndarray, axes=None, overwrite_x: bool = False) -> np.ndarray:
    """Inverse transform over `axes`, normalized by 1/M per axis; in place as fftn."""
    return _transform(np.fft.ifft, np.fft.ifftn, x, axes, overwrite_x)


def fourier_multiply(x: np.ndarray, multiplier, axes=None, overwrite_x: bool = False):
    """ifftn(multiplier * fftn(x)) over `axes`.  Pass overwrite_x=True only for
    an `x` the caller owns and no longer needs: a writeable complex128 x is
    overwritten and returned."""
    hat = fftn(x, axes=axes, overwrite_x=overwrite_x)
    hat *= multiplier
    return ifftn(hat, axes=axes, overwrite_x=True)


def split_steps(t: float, dt: float) -> tuple[int, float]:
    """Steps to time t: round(|t|/dt) of them (one or more unless t = 0) of t/steps."""
    if dt <= 0:
        raise DomainError("dt must be positive")
    if t == 0.0:
        return 0, dt
    steps = max(1, int(round(abs(t) / dt)))
    return steps, t / steps


def split_step_evolve(psi, t, dt, potential_phase, callback=None, stride=1):
    """Evolve the field `psi` (a grids.WaveFunction of any slot count) to time t
    by split_steps(t, dt) symmetric steps at 4 transforms each: half kinetic,
    potential phase, half kinetic.

    If any step is taken, potential_phase(dt_eff) is called once and returns
    the map from the half-kinetic-stepped values to that step's pointwise
    factor exp(-i dt_eff V).  callback(step, time, field, kinetic) fires at
    every `stride`-th step and at the last one; `kinetic` is int |grad
    field|^2 over every slot, read from the spectrum the step's last inverse
    transform starts from, at no extra transform.  The callback and the
    result get fields of psi's type; no array handed out is written again.
    """
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise DomainError(f"stride must be a positive integer, got {stride!r}")
    grid, wrap = psi.grid, type(psi)
    if not np.all(np.isfinite(psi.values)):
        raise SolverError("initial state contains non-finite values")
    steps, dt_eff = split_steps(t, dt)
    if steps == 0:
        return wrap(grid, psi.values.astype(complex, copy=True))
    k2 = k_squared(grid, psi.n_particles)
    half_kinetic = np.exp(-1j * (dt_eff / 2.0) * k2)  # free_phase(grid, dt_eff / 2, n) from k2
    if callback is None:  # only samples read it: free the field-sized table
        k2 = None
    phase = potential_phase(dt_eff)
    values, shared = psi.values, True  # shared: the caller may hold `values`
    for step in range(1, steps + 1):
        # a shared array is left as it is; every other step runs in place
        values = fourier_multiply(values, half_kinetic, overwrite_x=not shared)
        values *= phase(values)
        hat = fftn(values, overwrite_x=True)
        hat *= half_kinetic
        shared = callback is not None and (step % stride == 0 or step == steps)
        if shared:
            kinetic = parseval_energy(hat, psi.measure, k2)
        values = ifftn(hat, overwrite_x=True)
        if shared:
            callback(step, step * dt_eff, wrap(grid, values), kinetic)
    if not np.all(np.isfinite(values)):
        raise SolverError("evolution produced non-finite values")
    return wrap(grid, values)


@functools.lru_cache(maxsize=16)
def _axis_k_squared(grid) -> np.ndarray:
    table = grid.k_axis() ** 2
    table.flags.writeable = False
    return table


def k_squared(grid, n_slots: int = 1, slots: Iterable[int] | None = None) -> np.ndarray:
    """Sum of k_axis^2 over every axis of the chosen slots (all by default, at
    least one), a fresh array shaped to broadcast against the rank-(n_slots *
    dim) layout."""
    table, d, rank = _axis_k_squared(grid), grid.dim, n_slots * grid.dim
    total = None
    for slot in range(n_slots) if slots is None else slots:
        for axis in range(slot * d, (slot + 1) * d):
            column = table.reshape((1,) * axis + (-1,) + (1,) * (rank - 1 - axis))
            total = column.copy() if total is None else total + column
    return total


def free_phase(grid, t: float, n_slots: int = 1, slots: Iterable[int] | None = None) -> np.ndarray:
    """exp(-i t k^2) over the chosen slots (all by default): the free flow of
    i du/dt = -Laplacian u over time t, shaped like k_squared(grid, n_slots, slots)."""
    return np.exp(-1j * t * k_squared(grid, n_slots, slots))


@functools.lru_cache(maxsize=16)
def _line_tables(grid):
    """The 1D grid of one axis of `grid`, the M x M inverse-DFT table
    exp(2 pi i (j k mod M) / M) / M and the circulant index (j - l) mod M,
    read-only.  The angles are reduced mod M first: exp of an unreduced
    2 pi j k / M, up to about 2 pi M, loses digits in proportion to it."""
    m = grid.points_per_axis
    index = np.arange(m)
    inverse = np.exp(2j * np.pi * (np.multiply.outer(index, index) % m) / m) / m
    circulant = np.subtract.outer(index, index) % m
    for table in (inverse, circulant):
        table.flags.writeable = False
    return dataclasses.replace(grid, dim=1), inverse, circulant


def free_propagator(grid, t: float) -> np.ndarray:
    """The free flow over time t along one axis of `grid` as an M x M circulant
    matrix, U[j, l] = ifft(exp(-i t k_axis^2))[(j - l) mod M], and U @ v equals
    ifft(exp(-i t k^2) fft(v)) up to round-off.  The column is one product of
    the cached inverse-DFT table with the line's `free_phase`, gathered through
    the cached circulant index: a build makes no transform."""
    line, inverse, circulant = _line_tables(grid)
    return (inverse @ free_phase(line, t))[circulant]


def weighted_norm_squared(x: np.ndarray, *weight: np.ndarray) -> float:
    """sum W |x|^2, W the product of the `weight` factors (1 without any).

    Each factor has x's rank and broadcasts against it, so a separable weight
    is never formed at x's size.  Up to SLAB_ENTRIES entries this is exactly
    np.sum(W * np.abs(x) ** 2); larger arrays are summed over slabs of the
    leading axis (recursing into single rows longer than a slab).
    """
    if x.size <= SLAB_ENTRIES:
        density = np.abs(x) ** 2
        if weight:
            density = functools.reduce(operator.mul, weight) * density
        return float(np.sum(density))
    row = x.size // x.shape[0]
    step = max(1, SLAB_ENTRIES // row)
    total = 0.0
    for start in range(0, x.shape[0], step):
        index = slice(start, start + step) if row <= SLAB_ENTRIES else start
        total += weighted_norm_squared(x[index], *(_leading(w, index) for w in weight))
    return total


def _leading(factor: np.ndarray, index) -> np.ndarray:
    """factor[index] on the leading axis; a broadcast (length-1) axis stays whole."""
    if factor.shape[0] > 1:
        return factor[index]
    return factor if isinstance(index, slice) else factor[0]


def parseval_energy(hat: np.ndarray, measure: float, *weight: np.ndarray) -> float:
    """<f, W f> for a real Fourier multiplier W from hat = fftn(f), with the
    layout's volume element `measure`; W is the product of the `weight`
    factors (see weighted_norm_squared), and W = k_squared(...) gives
    int |grad f|^2."""
    return weighted_norm_squared(hat, *weight) * measure / hat.size


def transform_energy(x: np.ndarray, measure: float, *weight: np.ndarray, factor=None) -> float:
    """parseval_energy(fftn(x * factor), measure, *weight), `factor` real, broadcast, 1 if None,
    for x of 2 or more axes, shape (M, ..., L) with M even, and weight factors even under
    k -> -k (else DomainError).  An even W cancels the cross term of the real and imaginary
    parts, so this is the energy of x.real * factor plus that of x.imag * factor, a part that
    is all zero skipped.  Each part y fills one (M/2, ..., L/2 + 1) complex half spectrum (9/32
    of x's bytes at M = L = 16) a row at a time: a radix-2 decimation-in-frequency split of axis
    0 (M = 2h) gives the even frequencies as the transform of y[r] + y[r+h], the odd ones as that
    of (y[r] - y[r+h]) w^r, w = e^(-2 pi i/M); each row takes a real transform of its axes, then
    axis 0 one in place.  As |Y(-k)| = |Y(k)|, last-axis frequencies but 0 and L/2 count twice."""
    if x.ndim < 2:
        raise DomainError(f"transform_energy transforms rows: x needs 2 or more axes, not {x.ndim}")
    if x.shape[0] % 2:
        raise DomainError(f"transform_energy splits axis 0: its length {x.shape[0]} must be even")
    for w in weight:  # w[-j mod n] = w[j] along every axis it spans
        long = tuple(axis for axis, n in enumerate(w.shape) if n > 1)
        if not np.array_equal(w, np.roll(np.flip(w, long), 1, long)):
            raise DomainError("transform_energy needs weight factors even under k -> -k")
    h, last = x.shape[0] // 2, x.shape[-1] // 2 + 1
    count = np.where(np.arange(last) % (x.shape[-1] / 2) == 0, 1.0, 2.0)[(None,) * (x.ndim - 1)]
    scale = np.ones((1,) * x.ndim) if factor is None else factor
    half, total = np.empty((h,) + x.shape[1:-1] + (last,), dtype=complex), 0.0
    for y in (x.real, x.imag):
        if not y.any():
            continue
        for part, combine in enumerate((np.add, np.subtract)):
            row = np.empty(x.shape[1:])  # y[r] * factor[r] -/+ y[r+h] * factor[r+h]
            for r in range(h):
                np.multiply(y[r], _leading(scale, r), out=row)
                second = _leading(scale, r + h)
                for s in range(len(row)):  # the second product a slab at a time: one row buffer
                    slab = slice(s, s + 1)
                    combine(row[slab], y[r + h, slab] * _leading(second, slab), out=row[slab])
                np.fft.rfftn(row, out=half[r])
                if part:
                    half[r] *= np.exp(-2j * np.pi * r / x.shape[0])
            del row  # free it before the sum makes its slabs
            hat = fftn(half, axes=(0,), overwrite_x=True)
            halves = (w[part::2, ..., :last] if len(w) > 1 else w[..., :last] for w in weight)
            total += weighted_norm_squared(hat, count, *halves)
    return total * measure / x.size

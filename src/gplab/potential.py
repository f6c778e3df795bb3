"""Radial interaction potentials, external traps, and strength diagnostics.

All interactions are repulsive (V >= 0), spherically symmetric and compactly
supported: every model evaluates to exactly zero beyond its cutoff radius.
Barrier profiles are discontinuous and kept as a test-only relaxation of the
smoothness assumed elsewhere, because they admit closed-form references.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ConfigurationError, DomainError

_GAUSS_ORDER = 12  # Gauss-Legendre nodes per quadrature panel
_UNIFORM_PANELS = 128  # panels on [0, cutoff] for a profile without knots


class PotentialModel:
    """Radial profile V(r) >= 0 with compact support.

    Subclasses implement `_profile` on 0 <= r <= cutoff_radius; evaluation
    clamps to exactly zero beyond the cutoff.  Models are immutable and all
    operations on them are pure.
    """

    cutoff_radius: float = 0.0
    #: radii where a piecewise profile's pieces join (quadrature panels end there)
    knots: tuple[float, ...] = ()

    def _profile(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, r):
        return _radial(r, self.cutoff_radius, self._profile, lambda x: 0.0)

    def _rescaled(self, a: int, n: int) -> "PotentialModel":
        """The model with amplitude times a^2 and every length over n."""
        raise NotImplementedError

    def scaled(self, n: int) -> "PotentialModel":
        """Family member with amplitude n^2 and length scale 1/n."""
        _check_count(n)
        return self._rescaled(n, n)

    def scaled_analog1d(self, n: int) -> "PotentialModel":
        """Length scale 1/n at unchanged amplitude (one-dimensional family).

        Then int V_n = b0/n, and n V_n concentrates to weight b0 as the
        three-dimensional family does.
        """
        _check_count(n)
        return self._rescaled(1, n)

    @property
    def label(self) -> str:
        raise NotImplementedError


def _radial(r, cutoff: float, inside, outside):
    """Checked radial evaluation: inside(r) on r <= cutoff, outside(r) beyond.

    Rejects negative radii; a scalar radius gives a float, an array an array.
    Both branches are evaluated at every radius, so neither may warn anywhere.
    """
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr < 0):
        raise DomainError("radius must be non-negative")
    values = np.where(r_arr <= cutoff, inside(r_arr), outside(r_arr))
    if np.isscalar(r) or r_arr.ndim == 0:
        return float(values)
    return values


@cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(_GAUSS_ORDER)


def _radial_integral(integrand, model: PotentialModel, nodes=()) -> float:
    """int_0^cutoff integrand(r) dr by composite Gauss-Legendre.

    Panels end at the model's knots (uniform panels when it has none) and at
    `nodes`, so that the integrand is smooth on each panel.
    """
    cutoff = model.cutoff_radius
    edges = model.knots or np.linspace(0.0, cutoff, _UNIFORM_PANELS + 1)
    edges = np.unique(np.concatenate([edges, nodes, [0.0, cutoff]]))
    x, w = _gauss_legendre()
    half = 0.5 * np.diff(edges)[:, None]
    radii = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * x
    return float(np.sum(half * w * integrand(radii)))


def _cubic_hermite(x: np.ndarray, y: np.ndarray, slopes: np.ndarray) -> Callable:
    """Piecewise cubic through (x, y) with the given slopes; a radius outside
    [x[0], x[-1]] takes the nearest end value."""

    def evaluate(r):
        r = np.clip(r, x[0], x[-1])
        i = np.minimum(np.searchsorted(x, r, side="right") - 1, x.size - 2)
        h = x[i + 1] - x[i]
        t = (r - x[i]) / h
        s = 1.0 - t
        return s * s * ((1.0 + 2.0 * t) * y[i] + t * h * slopes[i]) + t * t * (
            (3.0 - 2.0 * t) * y[i + 1] - s * h * slopes[i + 1]
        )

    return evaluate


def _pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson monotone slopes in their weighted-harmonic-mean form:
    zero where the secants change sign, one-sided three-point at the ends
    (zero if it opposes the end secant, at most 3 times it past an extremum)."""
    h = np.diff(x)
    m = np.diff(y) / h
    if x.size == 2:
        return np.array([m[0], m[0]])
    w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
    same = (np.sign(m[1:]) == np.sign(m[:-1])) & (m[1:] != 0.0) & (m[:-1] != 0.0)
    # np.where evaluates the masked-out means too, where a zero secant divides
    # by zero; a subnormal secant overflows its mean to inf: slope 0, as it should
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inner = np.where(same, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
    h0, h1, m0, m1 = h[[0, -1]], h[[1, -2]], m[[0, -1]], m[[1, -2]]
    ends = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    overshoot = (np.sign(m0) != np.sign(m1)) & (np.abs(ends) > 3.0 * np.abs(m0))
    ends = np.where(np.sign(ends) != np.sign(m0), 0.0, np.where(overshoot, 3.0 * m0, ends))
    return np.concatenate([ends[:1], inner, ends[1:]])


def _check_count(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"scaling count must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class BarrierPotential(PotentialModel):
    """Constant barrier: V(r) = v0 for r <= radius, 0 beyond."""

    v0: float
    radius: float

    def __post_init__(self) -> None:
        if not 0 <= self.v0 < np.inf:
            raise ConfigurationError("barrier height must be finite and >= 0")
        if not 0 < self.radius < np.inf:
            raise ConfigurationError("barrier radius must be positive and finite")
        object.__setattr__(self, "cutoff_radius", self.radius)

    def _profile(self, r: np.ndarray) -> np.ndarray:
        return np.full_like(r, self.v0, dtype=float)

    def _rescaled(self, a: int, n: int) -> "BarrierPotential":
        return BarrierPotential(self.v0 * a * a, self.radius / n)

    @property
    def label(self) -> str:
        return f"barrier(v0={self.v0:g},radius={self.radius:g})"


@dataclass(frozen=True)
class GaussianPotential(PotentialModel):
    """Gaussian bump v0 exp(-(r/width)^2), truncated at the cutoff.

    The default cutoff of six widths, written into `cutoff_radius`, puts the
    truncation jump at the v0 * 2e-16 level, i.e. smooth to machine precision.
    """

    v0: float
    width: float
    cutoff_radius: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.v0 < np.inf:
            raise ConfigurationError("gaussian height must be finite and >= 0")
        if not 0 < self.width < np.inf:
            raise ConfigurationError("gaussian width must be positive and finite")
        cutoff = 6.0 * self.width if self.cutoff_radius is None else float(self.cutoff_radius)
        if not 0 < cutoff < np.inf:
            raise ConfigurationError("cutoff radius must be positive and finite")
        object.__setattr__(self, "cutoff_radius", cutoff)

    def _profile(self, r: np.ndarray) -> np.ndarray:
        return self.v0 * np.exp(-((r / self.width) ** 2))

    def _rescaled(self, a: int, n: int) -> "GaussianPotential":
        return GaussianPotential(self.v0 * a * a, self.width / n, self.cutoff_radius / n)

    @property
    def label(self) -> str:
        return f"gaussian(v0={self.v0:g},width={self.width:g})"


@dataclass(frozen=True)
class TablePotential(PotentialModel):
    """Tabulated radial profile, interpolated by a shape-preserving cubic.

    A monotone (PCHIP) cubic is used instead of a natural spline so that
    non-negative samples can never interpolate to negative values.  Below
    the first radius the profile holds the first sample.  The last sample
    must be zero: the model is exactly zero beyond it.
    """

    radii: tuple[float, ...]
    values: tuple[float, ...]
    amplitude: float = 1.0  # extra factor applied on top of the samples
    _interp: Callable = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        r = np.asarray(self.radii, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or r.size < 2 or v.shape != r.shape:
            raise ConfigurationError("table needs matching radius/value arrays, >= 2 rows")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise ConfigurationError("table radii and values must be finite")
        if r[0] < 0 or np.any(np.diff(r) <= 0):
            raise ConfigurationError("table radii must be >= 0 and strictly increasing")
        if np.any(v < 0):
            raise ConfigurationError("table values must be >= 0")
        if v[-1] != 0.0:
            raise ConfigurationError("table must end with value 0 at the cutoff radius")
        if not 0 <= self.amplitude < np.inf:
            raise ConfigurationError("amplitude must be finite and >= 0")
        object.__setattr__(self, "radii", tuple(float(x) for x in r))
        object.__setattr__(self, "values", tuple(float(x) for x in v))
        object.__setattr__(self, "cutoff_radius", float(r[-1]))
        object.__setattr__(self, "knots", self.radii)
        object.__setattr__(self, "_interp", _cubic_hermite(r, v, _pchip_slopes(r, v)))

    def _profile(self, r: np.ndarray) -> np.ndarray:
        return self.amplitude * self._interp(r)

    def _rescaled(self, a: int, n: int) -> "TablePotential":
        return TablePotential(
            tuple(r / n for r in self.radii), self.values, self.amplitude * a * a
        )

    @property
    def label(self) -> str:
        return f"table({len(self.radii)}pts,cutoff={self.cutoff_radius:g})"


def from_table_csv(path: str | Path) -> TablePotential:
    """Load a two-column `radius,value` CSV (header row required).  Trailing
    blank lines are ignored; any other row must hold exactly two numbers."""
    path = Path(path)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    while rows and not ",".join(rows[-1]).strip():
        rows.pop()
    if not rows or [c.strip().lower() for c in rows[0]] != ["radius", "value"]:
        raise ConfigurationError(f"{path}: expected header 'radius,value'")
    try:  # unpacking a row of other than two columns raises ValueError too
        radii = tuple(float(r) for r, _ in rows[1:])
        values = tuple(float(v) for _, v in rows[1:])
    except ValueError as exc:
        raise ConfigurationError(f"{path}: malformed table row") from exc
    return TablePotential(radii, values)


# --- operations ---------------------------------------------------------


def scale_potential(model: PotentialModel, n: int) -> PotentialModel:
    """Member of the short-range family: amplitude n^2, length scale 1/n."""
    return model.scaled(n)


def born_coupling(model: PotentialModel) -> float:
    """First-order coupling: the full 3D integral of V, as 4 pi int V r^2 dr."""
    return 4.0 * np.pi * _radial_integral(lambda r: model(r) * r**2, model)


def born_coupling_1d(model: PotentialModel) -> float:
    """One-dimensional integral of V(|x|): 2 int_0^cutoff V dr."""
    return 2.0 * _radial_integral(model, model)


def _sup_r2_v(model: PotentialModel) -> float:
    """sup r^2 V(r): the best of 4097 samples, refined by golden section
    on the two mesh cells around it."""
    cutoff = model.cutoff_radius
    mesh = np.linspace(0.0, cutoff, 4097)
    samples = mesh**2 * model(mesh)
    best = int(np.argmax(samples))
    if samples[best] == 0.0:
        return 0.0
    lo = float(mesh[max(best - 1, 0)])
    hi = float(mesh[min(best + 1, mesh.size - 1)])
    xatol = 1e-13 * max(cutoff, 1.0)
    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = c * c * model(c), d * d * model(d)
    while hi - lo > xatol:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = c * c * model(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = d * d * model(d)
    return float(max(samples[best], fc, fd))


def alpha_strength(model: PotentialModel) -> float:
    """Dimensionless interaction strength: 4 pi int V r dr + sup r^2 V(r).

    Both terms are invariant under the r -> n r, V -> n^2 V family map.
    """
    first_moment = _radial_integral(lambda r: model(r) * r, model)
    return 4.0 * np.pi * first_moment + _sup_r2_v(model)


# --- external trap ------------------------------------------------------


@dataclass(frozen=True)
class TrapModel:
    """Harmonic external potential omega^2 r^2; no trap is None, not a model."""

    omega: float

    def __post_init__(self) -> None:
        if not 0 < self.omega < np.inf:
            raise ConfigurationError("trap frequency must be positive and finite")

    def sample(self, grid) -> np.ndarray:
        return self.omega**2 * grid.radius_squared_mesh()

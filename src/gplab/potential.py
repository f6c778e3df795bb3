"""Radial interaction potentials, external traps, and strength diagnostics.

All interactions are repulsive (V >= 0), spherically symmetric and compactly
supported: every model evaluates to exactly zero beyond its cutoff radius.
Barrier profiles are discontinuous and kept as a test-only relaxation of the
smoothness assumed elsewhere, because they admit closed-form references.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import integrate, optimize
from scipy.interpolate import PchipInterpolator

from .errors import ConfigurationError, DomainError

_QUAD_EPSABS = 1e-14
_QUAD_EPSREL = 1e-12


class PotentialModel:
    """Radial profile V(r) >= 0 with compact support.

    Subclasses implement `_profile` on 0 <= r <= cutoff_radius; evaluation
    clamps to exactly zero beyond the cutoff.  Models are immutable and all
    operations on them are pure.
    """

    kind: str = "abstract"
    cutoff_radius: float = 0.0
    #: radii where the profile jumps (mesh builders align nodes with these)
    discontinuities: tuple[float, ...] = ()

    def _profile(self, r: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, r):
        return _radial(r, self.cutoff_radius, self._profile, lambda x: 0.0)

    def scaled(self, n: int) -> "PotentialModel":
        """Family member with amplitude n^2 and length scale 1/n."""
        raise NotImplementedError

    def scaled_analog1d(self, n: int) -> "PotentialModel":
        """Length scale 1/n at unchanged amplitude (one-dimensional family).

        Then int V_n = b0/n, and n V_n concentrates to weight b0 as the
        three-dimensional family does.
        """
        raise NotImplementedError

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


def _radial_integral(integrand, upper: float) -> float:
    """int_0^upper integrand(r) dr, at the tolerances every radial integral shares."""
    result, _ = integrate.quad(
        integrand, 0.0, upper, epsabs=_QUAD_EPSABS, epsrel=_QUAD_EPSREL, limit=200
    )
    return result


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
        if self.v0 > 0:
            object.__setattr__(self, "discontinuities", (self.radius,))

    kind = "barrier"

    def _profile(self, r: np.ndarray) -> np.ndarray:
        return np.full_like(r, self.v0, dtype=float)

    def scaled(self, n: int) -> "BarrierPotential":
        _check_count(n)
        return BarrierPotential(self.v0 * n * n, self.radius / n)

    def scaled_analog1d(self, n: int) -> "BarrierPotential":
        _check_count(n)
        return BarrierPotential(self.v0, self.radius / n)

    @property
    def label(self) -> str:
        return f"barrier(v0={self.v0:g},radius={self.radius:g})"


@dataclass(frozen=True)
class GaussianPotential(PotentialModel):
    """Gaussian bump v0 exp(-(r/width)^2), truncated at the cutoff.

    The default cutoff of six widths puts the truncation jump at the
    v0 * 2e-16 level, i.e. smooth to machine precision.
    """

    v0: float
    width: float
    cutoff: float | None = None

    def __post_init__(self) -> None:
        if not 0 <= self.v0 < np.inf:
            raise ConfigurationError("gaussian height must be finite and >= 0")
        if not 0 < self.width < np.inf:
            raise ConfigurationError("gaussian width must be positive and finite")
        cutoff = 6.0 * self.width if self.cutoff is None else float(self.cutoff)
        if not 0 < cutoff < np.inf:
            raise ConfigurationError("cutoff radius must be positive and finite")
        object.__setattr__(self, "cutoff_radius", cutoff)

    kind = "gaussian"

    def _profile(self, r: np.ndarray) -> np.ndarray:
        return self.v0 * np.exp(-((r / self.width) ** 2))

    def scaled(self, n: int) -> "GaussianPotential":
        _check_count(n)
        return GaussianPotential(self.v0 * n * n, self.width / n, self.cutoff_radius / n)

    def scaled_analog1d(self, n: int) -> "GaussianPotential":
        _check_count(n)
        return GaussianPotential(self.v0, self.width / n, self.cutoff_radius / n)

    @property
    def label(self) -> str:
        return f"gaussian(v0={self.v0:g},width={self.width:g})"


@dataclass(frozen=True)
class TablePotential(PotentialModel):
    """Tabulated radial profile, interpolated by a shape-preserving cubic.

    A monotone (PCHIP) cubic is used instead of a natural spline so that
    non-negative samples can never interpolate to negative values.  The last
    sample must be zero: the interpolant is clamped to 0 at the cutoff and
    the model is exactly zero beyond it.
    """

    radii: tuple[float, ...]
    values: tuple[float, ...]
    amplitude: float = 1.0  # extra factor applied on top of the samples
    _interp: PchipInterpolator = field(
        init=False, repr=False, compare=False, default=None
    )

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
        if self.amplitude < 0:
            raise ConfigurationError("amplitude must be >= 0")
        object.__setattr__(self, "radii", tuple(float(x) for x in r))
        object.__setattr__(self, "values", tuple(float(x) for x in v))
        object.__setattr__(self, "cutoff_radius", float(r[-1]))
        # a subnormal slope overflows PCHIP's harmonic mean to inf: derivative 0, as it should
        with np.errstate(over="ignore"):
            interp = PchipInterpolator(r, v, extrapolate=False)
        object.__setattr__(self, "_interp", interp)

    kind = "table"

    def _profile(self, r: np.ndarray) -> np.ndarray:
        inside = np.clip(r, self.radii[0], self.cutoff_radius)
        return self.amplitude * np.nan_to_num(self._interp(inside))

    def scaled(self, n: int) -> "TablePotential":
        _check_count(n)
        return TablePotential(
            tuple(r / n for r in self.radii), self.values, self.amplitude * n * n
        )

    def scaled_analog1d(self, n: int) -> "TablePotential":
        _check_count(n)
        return TablePotential(
            tuple(r / n for r in self.radii), self.values, self.amplitude
        )

    @property
    def label(self) -> str:
        return f"table({len(self.radii)}pts,cutoff={self.cutoff_radius:g})"


def from_table_csv(path: str | Path) -> TablePotential:
    """Load a two-column `radius,value` CSV (header row required)."""
    path = Path(path)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or [c.strip().lower() for c in rows[0]] != ["radius", "value"]:
        raise ConfigurationError(f"{path}: expected header 'radius,value'")
    try:
        radii = tuple(float(row[0]) for row in rows[1:])
        values = tuple(float(row[1]) for row in rows[1:])
    except (IndexError, ValueError) as exc:
        raise ConfigurationError(f"{path}: malformed table row") from exc
    return TablePotential(radii, values)


# --- operations ---------------------------------------------------------


def scale_potential(model: PotentialModel, n: int) -> PotentialModel:
    """Member of the short-range family: amplitude n^2, length scale 1/n."""
    return model.scaled(n)


def born_coupling(model: PotentialModel) -> float:
    """First-order coupling: the full 3D integral of V, as 4 pi int V r^2 dr."""
    return 4.0 * np.pi * _radial_integral(lambda r: model(r) * r**2, model.cutoff_radius)


def born_coupling_1d(model: PotentialModel) -> float:
    """One-dimensional integral of V(|x|): 2 int_0^cutoff V dr."""
    return 2.0 * _radial_integral(model, model.cutoff_radius)


def _sup_r2_v(model: PotentialModel) -> float:
    cutoff = model.cutoff_radius
    mesh = np.linspace(0.0, cutoff, 4097)
    samples = mesh**2 * model(mesh)
    best = int(np.argmax(samples))
    if samples[best] == 0.0:
        return 0.0
    lo = mesh[max(best - 1, 0)]
    hi = mesh[min(best + 1, mesh.size - 1)]
    if hi <= lo:
        return float(samples[best])
    refined = optimize.minimize_scalar(
        lambda r: -(r**2) * model(r),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-13 * max(cutoff, 1.0)},
    )
    return float(max(samples[best], -refined.fun))


def alpha_strength(model: PotentialModel) -> float:
    """Dimensionless interaction strength: 4 pi int V r dr + sup r^2 V(r).

    Both terms are invariant under the r -> n r, V -> n^2 V family map.
    """
    first_moment = _radial_integral(lambda r: model(r) * r, model.cutoff_radius)
    return 4.0 * np.pi * first_moment + _sup_r2_v(model)


# --- external trap ------------------------------------------------------


@dataclass(frozen=True)
class TrapModel:
    """Confining external potential; `harmonic` is omega^2 r^2, `none` is 0."""

    kind: str = "none"
    omega: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("harmonic", "none"):
            raise ConfigurationError(f"unknown trap kind {self.kind!r}")
        if not np.isfinite(self.omega):
            raise ConfigurationError("trap frequency must be finite")
        if self.kind == "harmonic" and self.omega <= 0:
            raise ConfigurationError("trap frequency must be positive")

    @property
    def confining(self) -> bool:
        return self.kind != "none"

    def sample(self, grid) -> np.ndarray:
        r2 = grid.radius_squared_mesh()
        if self.kind == "none":
            return np.zeros_like(r2)
        return self.omega**2 * r2

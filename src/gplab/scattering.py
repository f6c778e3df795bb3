"""Zero-energy pair problem on the half line.

Solves (-Laplacian + V/2) f = 0 with f -> 1 at infinity through the radial
substitution u(r) = r f(r), which turns the problem into u'' = (V/2) u with
u(0) = 0 and removes the coordinate singularity.  Outside the support of V
the exact solution is linear, u(r) = A (r - a0), so the scattering length a0
is read off just outside the support with no far-field fitting:

    a0 = r - u(r)/u'(r)   evaluated at r = cutoff_radius.

Normalizing by A = u'(cutoff) gives f -> 1 and the exact exterior form
f(r) = 1 - a0/r.  No shooting is required: the equation is linear and the
initial slope drops out after normalization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, SolverError
from .potential import (
    PotentialModel,
    _check_count,
    _cubic_hermite,
    _radial,
    _radial_integral,
    alpha_strength,
)

DEFAULT_MESH_POINTS = 4096
DEFAULT_R_MAX_FACTOR = 4.0
_GRADING = 2.0  # exponential mesh grading toward r = 0 inside the support


@dataclass
class ScatteringSolution:
    """Radial zero-energy solution with its scattering length.

    `f_values` holds f on the solver mesh (normalized so f -> 1); `f`
    evaluates anywhere: inside the support by cubic Hermite interpolation on
    the mesh, with the slopes f' = (u' r - u)/r^2 that the solve returns
    (f'(0) = 0), and by the exact exterior form 1 - a0/r beyond it.
    Immutable after the solve; the evaluators are pure.
    """

    potential: PotentialModel
    radii: np.ndarray
    f_values: np.ndarray
    a0: float
    u_values: np.ndarray
    u_prime_values: np.ndarray
    _inside: Callable = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        inside = self.radii <= self.potential.cutoff_radius
        r, u, du = self.radii[inside], self.u_values[inside], self.u_prime_values[inside]
        slopes = np.zeros_like(r)
        slopes[1:] = (du[1:] * r[1:] - u[1:]) / r[1:] ** 2
        self._inside = _cubic_hermite(r, self.f_values[inside], slopes)

    def f(self, r):
        """Pair profile f(r); exact 1 - a0/r outside the potential support."""
        cutoff = self.potential.cutoff_radius
        return _radial(r, cutoff, self._inside, lambda x: 1.0 - self.a0 / np.maximum(x, cutoff))


def _build_mesh(cutoff: float, r_max: float, n_points: int) -> np.ndarray:
    """Graded mesh on [0, r_max]: refined toward 0 inside the support,
    uniform outside, with a node exactly at the cutoff."""
    n_in = n_points // 2
    n_out = n_points - n_in
    s = np.arange(n_in + 1) / n_in
    inside = cutoff * (np.expm1(_GRADING * s) / np.expm1(_GRADING))
    inside[0], inside[-1] = 0.0, cutoff
    outside = np.linspace(cutoff, r_max, n_out + 1)[1:]
    return np.concatenate([inside, outside])


def _integrate_u(model: PotentialModel, radii: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 for u'' = g(r) u, g = V/2, with u(0) = 0, u'(0) = 1."""
    mids = 0.5 * (radii[:-1] + radii[1:])
    g_node = (0.5 * np.asarray(model(radii), dtype=float)).tolist()
    g_mid = (0.5 * np.asarray(model(mids), dtype=float)).tolist()
    r = radii.tolist()
    ui, vi = 0.0, 1.0
    u, v = [ui], [vi]
    # Python floats step faster than numpy scalars; overflow runs on to
    # inf or nan, which the caller reports
    for i in range(len(r) - 1):
        h = r[i + 1] - r[i]
        ga, gm, gb = g_node[i], g_mid[i], g_node[i + 1]
        k1u, k1v = vi, ga * ui
        k2u = vi + 0.5 * h * k1v
        k2v = gm * (ui + 0.5 * h * k1u)
        k3u = vi + 0.5 * h * k2v
        k3v = gm * (ui + 0.5 * h * k2u)
        k4u = vi + h * k3v
        k4v = gb * (ui + h * k3u)
        ui += (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
        vi += (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        u.append(ui)
        v.append(vi)
    return np.array(u), np.array(v)


def _solve_on_mesh(model: PotentialModel, r_max: float, n_points: int) -> ScatteringSolution:
    radii = _build_mesh(model.cutoff_radius, r_max, n_points)
    u, v = _integrate_u(model, radii)
    if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
        raise SolverError(
            "radial integration overflowed; max |u| = "
            f"{np.nanmax(np.abs(u)):.3e} (potential too strong for this mesh)"
        )
    i_cut = int(np.searchsorted(radii, model.cutoff_radius))
    slope = v[i_cut]
    if slope <= 0:
        raise SolverError("exterior slope is non-positive; solution untrustworthy")
    a0 = radii[i_cut] - u[i_cut] / slope
    f = np.empty_like(u)
    f[0] = v[0] / slope
    f[1:] = u[1:] / (slope * radii[1:])
    return ScatteringSolution(model, radii, f, float(a0), u / slope, v / slope)


def solve_zero_energy(
    model: PotentialModel,
    r_max: float | None = None,
    tol: float = 1e-10,
    mesh_points: int = DEFAULT_MESH_POINTS,
) -> ScatteringSolution:
    """Solve the zero-energy pair equation and extract the scattering length.

    The mesh is doubled until two successive extractions of a0 agree to
    `tol` (relative to max(|a0|, a fraction of the support), so the V = 0
    case converges immediately).
    """
    if tol <= 0:
        raise ConfigurationError("tol must be positive")
    cutoff = model.cutoff_radius
    if r_max is None:
        r_max = DEFAULT_R_MAX_FACTOR * cutoff
    if r_max <= cutoff:
        raise ConfigurationError(
            f"r_max={r_max:g} must exceed the support radius {cutoff:g}"
        )
    solution = _solve_on_mesh(model, r_max, mesh_points)
    scale = max(abs(solution.a0), 1e-3 * cutoff)
    for _ in range(4):
        finer = _solve_on_mesh(model, r_max, 2 * len(solution.radii) - 2)
        change = abs(finer.a0 - solution.a0)
        if change <= tol * scale:
            return finer
        solution = finer
    raise SolverError(
        f"scattering length did not stabilize to tol={tol:g}; last change {change:.3e}"
    )


def jastrow(solution: ScatteringSolution, n: int) -> Callable:
    """Short-range pair factor of the scaled family: r -> f(n r)."""
    _check_count(n)

    def f_n(r):
        return solution.f(np.asarray(r, dtype=float) * n)

    return f_n


def coupling_sigma(solution: ScatteringSolution) -> float:
    """Effective coupling: the 3D integral of V f, computed by quadrature.

    For the exact solution this equals 8 pi a0.
    """
    model = solution.potential
    nodes = solution.radii[solution.radii <= model.cutoff_radius]  # f's pieces join there
    integral = _radial_integral(lambda r: model(r) * solution.f(r) * r * r, model, nodes)
    return float(4.0 * np.pi * integral)


def nabla2_log_f_bound(solution: ScatteringSolution) -> float:
    """Constant in the curvature bound for log f: sup |r^2 Laplacian(log f)| / alpha.

    With f = u/r, the pair equation Laplacian f = (V/2) f gives exactly
    r^2 Laplacian(log f) = r^2 V/2 - (r u'/u - 1)^2, read here at the mesh
    nodes r > 0 from the solve's u and u'.  Zero potential gives exactly 0.
    """
    model = solution.potential
    alpha = alpha_strength(model)
    if alpha == 0.0:
        return 0.0
    r, u, du = solution.radii[1:], solution.u_values[1:], solution.u_prime_values[1:]
    curvature = 0.5 * r**2 * np.asarray(model(r), dtype=float) - (r * du / u - 1.0) ** 2
    return float(np.max(np.abs(curvature)) / alpha)

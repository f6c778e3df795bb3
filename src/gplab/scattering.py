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
from scipy.interpolate import CubicSpline

from .errors import ConfigurationError, SolverError
from .potential import PotentialModel, _check_count, _radial, _radial_integral, alpha_strength

DEFAULT_MESH_POINTS = 4096
DEFAULT_R_MAX_FACTOR = 4.0
_GRADING = 2.0  # exponential mesh grading toward r = 0 inside the support


@dataclass
class ScatteringSolution:
    """Radial zero-energy solution with its scattering length.

    `f_values` holds f on the solver mesh (normalized so f -> 1); `f`
    evaluates anywhere, using the exact exterior form 1 - a0/r beyond the
    support.  Immutable after the solve; the evaluators are pure.
    """

    potential: PotentialModel
    radii: np.ndarray
    f_values: np.ndarray
    a0: float
    u_values: np.ndarray
    u_prime_values: np.ndarray
    _inside: CubicSpline = field(repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        cutoff = self.potential.cutoff_radius
        mask = self.radii <= cutoff
        self._inside = CubicSpline(self.radii[mask], self.f_values[mask])

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
    g_node = 0.5 * np.asarray(model(radii), dtype=float)
    g_mid = 0.5 * np.asarray(model(mids), dtype=float)
    n = radii.size
    u = np.empty(n)
    v = np.empty(n)
    u[0], v[0] = 0.0, 1.0
    # overflow surfaces as non-finite output and is reported by the caller
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n - 1):
            h = radii[i + 1] - radii[i]
            ga, gm, gb = g_node[i], g_mid[i], g_node[i + 1]
            ui, vi = u[i], v[i]
            k1u, k1v = vi, ga * ui
            k2u = vi + 0.5 * h * k1v
            k2v = gm * (ui + 0.5 * h * k1u)
            k3u = vi + 0.5 * h * k2v
            k3v = gm * (ui + 0.5 * h * k2u)
            k4u = vi + h * k3v
            k4v = gb * (ui + h * k3u)
            u[i + 1] = ui + (h / 6.0) * (k1u + 2.0 * k2u + 2.0 * k3u + k4u)
            v[i + 1] = vi + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u, v


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


def coupling_sigma(
    solution: ScatteringSolution,
    check_scale: int | None = None,
    check_tol: float = 1e-8,
) -> float:
    """Effective coupling: the 3D integral of V f, computed by quadrature.

    For the exact solution this equals 8 pi a0.  With `check_scale` = n the
    same integral is recomputed for the n-scaled family (n times the scaled
    potential against the scaled pair factor) and must agree, confirming the
    scale invariance of the coupling.
    """
    model = solution.potential
    sigma = 4.0 * np.pi * _radial_integral(
        lambda r: model(r) * solution.f(r) * r * r, model.cutoff_radius
    )
    if check_scale is not None:
        scaled = model.scaled(check_scale)
        f_n = jastrow(solution, check_scale)
        sigma_scaled = 4.0 * np.pi * _radial_integral(
            lambda r: check_scale * scaled(r) * f_n(r) * r * r, scaled.cutoff_radius
        )
        scale = max(abs(sigma), 1e-30)
        if abs(sigma_scaled - sigma) > check_tol * scale:
            raise SolverError(
                "scaled coupling integral disagrees with the base integral: "
                f"{sigma_scaled!r} vs {sigma!r}"
            )
    return float(sigma)


def _mesh_derivatives(r: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """y'' and y' at the interior nodes of a non-uniform mesh, three-point stencil."""
    h_minus = np.diff(r)[:-1]
    h_plus = np.diff(r)[1:]
    y_mid, y_lo, y_hi = y[1:-1], y[:-2], y[2:]
    denom = h_minus * h_plus * (h_minus + h_plus)
    second = 2.0 * (h_minus * y_hi - (h_minus + h_plus) * y_mid + h_plus * y_lo) / denom
    first = (h_minus**2 * y_hi - h_plus**2 * y_lo + (h_plus**2 - h_minus**2) * y_mid) / denom
    return second, first


def _on_jumps(r: np.ndarray, model: PotentialModel) -> np.ndarray:
    """Nodes sitting on a profile jump, where one-sided limits differ."""
    mask = np.zeros(r.shape, dtype=bool)
    for rd in model.discontinuities:
        mask |= np.isclose(r, rd, rtol=0, atol=1e-12 * max(rd, 1.0))
    return mask


def max_residual(solution: ScatteringSolution) -> float:
    """Largest normalized defect |u'' - (V/2) u| over interior mesh nodes.

    u'' is a three-point finite difference on the (non-uniform) mesh, so the
    attainable floor is the difference-formula truncation, not the integrator
    tolerance.  Nodes sitting exactly on a profile jump are skipped (the
    two-sided stencil is meaningless there).
    """
    r, u = solution.radii, solution.u_values
    second, _ = _mesh_derivatives(r, u)
    rhs = 0.5 * np.asarray(solution.potential(r[1:-1]), dtype=float) * u[1:-1]
    defect = np.abs(second - rhs)
    defect[_on_jumps(r[1:-1], solution.potential)] = 0.0
    scale = max(np.max(np.abs(rhs)), np.max(np.abs(u)) / max(r[-1], 1.0) ** 2)
    if scale == 0.0:
        return float(np.max(defect))
    return float(np.max(defect) / scale)


def nabla2_log_f_bound(solution: ScatteringSolution) -> float:
    """Empirical constant in the curvature bound for log f.

    Returns sup over mesh nodes of |r^2 * Laplacian(log f)| / alpha, with the
    radial Laplacian g'' + 2 g'/r formed by finite differences on the mesh.
    Nodes on profile jumps are excluded (one-sided limits differ there).
    Zero potential gives exactly 0.
    """
    model = solution.potential
    r = solution.radii
    n_inside = int(np.count_nonzero(r < model.cutoff_radius))
    if n_inside < 100:
        raise ConfigurationError(
            f"mesh too coarse: {n_inside} nodes inside the support (need >= 100)"
        )
    g = np.log(solution.f_values)
    if np.allclose(g, 0.0, atol=1e-14):
        return 0.0
    alpha = alpha_strength(model)
    if alpha == 0.0:
        return 0.0
    second, first = _mesh_derivatives(r, g)
    weighted = np.abs(r[1:-1] ** 2 * (second + 2.0 * first / r[1:-1]))
    weighted[_on_jumps(r[1:-1], model)] = 0.0
    return float(np.max(weighted) / alpha)

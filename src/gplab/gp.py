"""Nonlinear single-orbital dynamics and ground states on periodic grids.

The evolution equation is i d/dt phi = -Laplacian phi + sigma |phi|^2 phi
with coupling sigma = 8 pi a0.  Time stepping is symmetric operator
splitting (half kinetic, full nonlinear, half kinetic): each factor is a
pointwise phase, so the step is exactly unitary and exactly time-reversible,
and the scheme is second order in the step size.

The ground-state search minimizes the discrete energy

    E[phi] = int |grad phi|^2 + V_ext |phi|^2 + 4 pi a0 |phi|^4

(Parseval kinetic term, sampled trap) on the unit sphere by preconditioned
nonlinear conjugate gradients along geodesics (Antoine, Levitt & Tang,
J. Comput. Phys. 343 (2017) 92); a step is accepted only if it does not
raise the energy, so the recorded energies are monotone by construction.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from . import spectral
from .errors import ConfigurationError, ConvergenceError, DomainError
from .grids import GridSpec, WaveFunction, gaussian_packet, kinetic_energy
from .potential import TrapModel

#: callback(step, time, field, kinetic) of the split-step evolvers
DynamicsCallback = Callable[[int, float, WaveFunction, float], None]


def gp_energy(
    phi: WaveFunction, a0: float, trap: TrapModel | None = None, *, kinetic: float | None = None
) -> float:
    """Energy functional: spectral gradient term, sampled trap, quartic term.
    `kinetic` is int |grad phi|^2 if the caller already holds it (a split-step
    callback does); it is computed here by one transform otherwise."""
    v_ext = trap.sample(phi.grid) if trap is not None else None
    if kinetic is None:
        kinetic = kinetic_energy(phi)
    return _energy(phi.values, kinetic, v_ext, a0, phi.grid.cell_volume)


def _energy(values: np.ndarray, kinetic: float, v_ext, a0: float, cell_volume: float) -> float:
    density = np.abs(values) ** 2
    quartic = 4.0 * np.pi * a0 * np.sum(density**2) * cell_volume
    external = 0.0 if v_ext is None else np.sum(v_ext * density) * cell_volume
    return float(kinetic + external + quartic)


def evolve_gp(
    phi0: WaveFunction,
    sigma: float,
    t: float,
    dt: float,
    callback: DynamicsCallback | None = None,
    *,
    stride: int = 1,
) -> WaveFunction:
    """Propagate the orbital to time t (t may be negative to run backwards).

    dt is the nominal step; the actual step is t/round(|t|/dt) so the
    endpoint lands exactly on t.  The norm is preserved exactly per step.
    `callback` fires at every `stride`-th step and the last, as in
    spectral.split_step_evolve.
    """
    def nonlinear_phase(dt_eff):
        peak = float(np.max(np.abs(phi0.values)) ** 2)
        if abs(sigma) * peak * abs(dt_eff) > 1.0:
            warnings.warn(
                "nonlinear phase per step exceeds 1 rad;"
                " results stay unitary but lose accuracy",
                RuntimeWarning,
                stacklevel=4,  # the caller of evolve_gp
            )
        return lambda values: np.exp(-1j * sigma * dt_eff * np.abs(values) ** 2)

    return spectral.split_step_evolve(phi0, t, dt, nonlinear_phase, callback, stride)


def minimize_gp(
    trap: TrapModel,
    a0: float,
    grid: GridSpec,
    tol: float = 1e-10,
    max_iterations: int = 100_000,
    callback: Callable[[int, float], None] | None = None,
) -> tuple[WaveFunction, float]:
    """Ground state of the energy functional by preconditioned nonlinear CG.

    The residual r = H phi - lam phi, with H = -Laplacian + V_ext + sigma |phi|^2
    and lam = <phi, H phi>, is preconditioned by W^(1/2) (lam - Laplacian)^(-1)
    W^(1/2), W = 1 / (lam + V_ext + sigma |phi|^2), into a Polak-Ribiere+
    direction u tangent to the unit sphere (restarted from -P r when not a
    descent direction).  The step cos(theta) phi + sin(theta) u takes theta
    from a one-probe quadratic model, halved until the energy does not rise.
    The search ends at the first accepted step that lowers the energy by less
    than tol, or when halving stalls at roundoff.  Spectra of phi and u are
    carried along, so an iteration costs 4 transforms and the line search none.
    The search starts from a Gaussian of width L/8 at the box centre.
    """
    if trap is None:
        raise ConfigurationError("ground-state search needs a confining trap")
    if a0 < 0:
        raise DomainError("a0 must be >= 0")
    sigma, dv = 8.0 * np.pi * a0, grid.cell_volume
    start = gaussian_packet(grid, width=0.25 * grid.box_length / 2.0)
    phi = start.normalized().values.astype(complex, copy=True)
    phi_hat = spectral.fftn(phi)
    k2, v_ext = spectral.k_squared(grid), trap.sample(grid)

    def dot(a, b):
        return float(np.vdot(a, b).real) * dv

    def tangent(x):  # the part of x orthogonal to phi
        return x - np.vdot(phi, x) * dv * phi

    def on_geodesic(theta):
        c, s = np.cos(theta), np.sin(theta)
        values, hat = c * phi + s * u, c * phi_hat + s * u_hat
        kinetic = spectral.parseval_energy(hat, dv, k2)
        return values, hat, _energy(values, kinetic, v_ext, a0, dv)

    energy = _energy(phi, spectral.parseval_energy(phi_hat, dv, k2), v_ext, a0, dv)
    if callback is not None:
        callback(0, energy)
    decrease, direction, theta = None, None, 0.1
    for iteration in range(1, max_iterations + 1):
        mean_field = v_ext + sigma * np.abs(phi) ** 2
        h_phi = spectral.ifftn(k2 * phi_hat) + mean_field * phi
        lam = dot(phi, h_phi)
        residual = h_phi - lam * phi
        w_half = 1.0 / np.sqrt(lam + mean_field)
        pre = w_half * spectral.fourier_multiply(w_half * residual, 1.0 / (lam + k2))
        steepest, r_pre = -tangent(pre), dot(residual, pre)
        if direction is not None:
            beta = max(0.0, (r_pre - dot(last_residual, pre)) / last_r_pre)
            direction = steepest + beta * tangent(direction)
        if direction is None or dot(residual, direction) >= 0.0:
            direction = steepest
        last_residual, last_r_pre = residual, r_pre
        u = direction / np.sqrt(dot(direction, direction))
        u_hat = spectral.fftn(u)
        slope = 2.0 * dot(u, residual)
        probe = on_geodesic(theta)[2]
        curvature = (probe - energy - slope * theta) / theta**2
        theta = -slope / (2.0 * curvature) if curvature > 0.0 else 2.0 * theta
        values, hat, trial = on_geodesic(theta)
        while trial > energy:
            theta *= 0.5
            if theta < 1e-12:
                return WaveFunction(grid, phi), energy  # stalled at roundoff: at the minimum
            values, hat, trial = on_geodesic(theta)
        scale = 1.0 / np.sqrt(dot(values, values))
        decrease, energy = energy - trial, trial
        phi, phi_hat = values * scale, hat * scale
        if callback is not None:
            callback(iteration, energy)
        if decrease < tol:
            return WaveFunction(grid, phi), energy
    rate = "none, no step accepted" if decrease is None else f"{decrease:.3e}"
    raise ConvergenceError(
        f"ground-state search hit the iteration cap ({max_iterations}); last energy decrease {rate}"
    )

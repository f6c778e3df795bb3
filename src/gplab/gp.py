"""Nonlinear single-orbital dynamics and ground states on periodic grids.

The evolution equation is i d/dt phi = -Laplacian phi + sigma |phi|^2 phi
with coupling sigma = 8 pi a0.  Time stepping is symmetric operator
splitting (half kinetic, full nonlinear, half kinetic): each factor is a
pointwise phase, so the step is exactly unitary and exactly time-reversible,
and the scheme is second order in the step size.

The ground-state search runs the same splitting with an imaginary step
(normalized gradient flow): the energy

    E[phi] = int |grad phi|^2 + V_ext |phi|^2 + 4 pi a0 |phi|^4

decreases along the flow and the step is halved whenever a step fails to
decrease it, so the recorded energy sequence is monotone by construction.
"""

from __future__ import annotations

import warnings
from typing import Callable

import numpy as np

from . import spectral
from .errors import ConfigurationError, ConvergenceError, DomainError, SolverError
from .grids import GridSpec, WaveFunction, gaussian_packet, kinetic_energy
from .potential import TrapModel

DynamicsCallback = Callable[[int, float, WaveFunction], None]


def gp_energy(phi: WaveFunction, a0: float, trap: TrapModel | None = None) -> float:
    """Energy functional: spectral gradient term, sampled trap, quartic term."""
    v_ext = trap.sample(phi.grid) if trap is not None and trap.confining else None
    return _energy(phi.values, kinetic_energy(phi), v_ext, a0, phi.grid.cell_volume)


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
) -> WaveFunction:
    """Propagate the orbital to time t (t may be negative to run backwards).

    dt is the nominal step; the actual step is t/round(|t|/dt) so the
    endpoint lands exactly on t.  The norm is preserved exactly per step.
    """
    if not np.all(np.isfinite(phi0.values)):
        raise SolverError("initial state contains non-finite values")
    steps, dt_eff = spectral.split_steps(t, dt)
    grid = phi0.grid
    values = phi0.values.astype(complex, copy=True)
    if steps == 0:
        return WaveFunction(grid, values)
    peak = float(np.max(np.abs(values)) ** 2)
    if abs(sigma) * peak * abs(dt_eff) > 1.0:
        warnings.warn(
            "nonlinear phase per step exceeds 1 rad;"
            " results stay unitary but lose accuracy",
            RuntimeWarning,
            stacklevel=2,
        )
    half_kinetic = np.exp(-1j * spectral.k_squared(grid) * (dt_eff / 2.0))
    for step in range(steps):
        # the callback may keep the previous step's array: never overwrite it
        values = spectral.fourier_multiply(values, half_kinetic)
        values *= np.exp(-1j * sigma * dt_eff * np.abs(values) ** 2)
        values = spectral.fourier_multiply(values, half_kinetic, overwrite_x=True)
        if callback is not None:
            callback(step + 1, (step + 1) * dt_eff, WaveFunction(grid, values))
    if not np.all(np.isfinite(values)):
        raise SolverError("evolution produced non-finite values")
    return WaveFunction(grid, values)


def minimize_gp(
    trap: TrapModel,
    a0: float,
    grid: GridSpec,
    tol: float = 1e-10,
    initial: WaveFunction | None = None,
    step0: float = 0.05,
    finish_step: float = 0.02,
    max_iterations: int = 100_000,
    callback: Callable[[int, float], None] | None = None,
) -> tuple[WaveFunction, float]:
    """Ground state of the energy functional by normalized gradient flow.

    Terminates when the energy decrease per unit flow time drops below tol,
    with the final verdict taken at a step no larger than `finish_step`: the
    split flow map carries an O(step^4) energy bias at its own fixed point,
    so stalling at a large step is not convergence and triggers halving
    instead.  The flow step is also halved whenever a trial step raises the
    energy, so the accepted energies decrease monotonically.
    """
    if trap is None or not trap.confining:
        raise ConfigurationError("ground-state search needs a confining trap")
    if a0 < 0:
        raise DomainError("a0 must be >= 0")
    sigma = 8.0 * np.pi * a0
    if initial is None:
        initial = gaussian_packet(grid, width=0.25 * grid.box_length / 2.0)
    values = initial.normalized().values.astype(complex, copy=True)
    k2 = spectral.k_squared(grid)
    v_ext = trap.sample(grid)
    dtau = float(step0)
    step_cap = 4.0 * step0
    decrease_rate = None
    energy = gp_energy(WaveFunction(grid, values), a0, trap)
    if callback is not None:
        callback(0, energy)
    for iteration in range(1, max_iterations + 1):
        half_kinetic = np.exp(-k2 * (dtau / 2.0))
        trial = spectral.fourier_multiply(values, half_kinetic)
        trial *= np.exp(-dtau * (v_ext + sigma * np.abs(trial) ** 2))
        # the last spectrum is the trial's: its kinetic energy needs no transform
        hat = spectral.fftn(trial, overwrite_x=True)
        hat *= half_kinetic
        trial = spectral.ifftn(hat)
        norm_sq = np.sum(np.abs(trial) ** 2) * grid.cell_volume
        trial /= np.sqrt(norm_sq)
        kinetic = spectral.parseval_energy(hat, k2, grid.cell_volume) / norm_sq
        trial_energy = _energy(trial, kinetic, v_ext, a0, grid.cell_volume)
        if trial_energy > energy:
            dtau *= 0.5
            if dtau < 1e-10:
                break  # stalled at roundoff: already at the minimum
            continue
        decrease_rate = (energy - trial_energy) / dtau
        values, energy = trial, trial_energy
        if callback is not None:
            callback(iteration, energy)
        if decrease_rate < tol:
            if dtau <= finish_step:
                return WaveFunction(grid, values), energy
            # stalling at a large step means the step's own bias floor was
            # reached, not the minimum: shrink and forbid regrowth past it
            step_cap = 0.5 * dtau
            dtau = step_cap
            continue
        dtau = min(dtau * 1.1, step_cap)
    else:
        rate = "none, no step accepted" if decrease_rate is None else f"{decrease_rate:.3e}"
        raise ConvergenceError(
            f"gradient flow hit the iteration cap ({max_iterations}); last decrease rate {rate}"
        )
    return WaveFunction(grid, values), energy

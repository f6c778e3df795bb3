"""Numerical laboratory for dilute-boson dynamics.

Submodules (import them directly; nothing heavy is loaded at package level
so the CLI can pin thread counts before numpy comes in):

- ``gplab.potential``  radial interactions, traps, strength diagnostics
- ``gplab.scattering`` zero-energy pair problem and scattering length
- ``gplab.grids``      periodic grids and fields of one or n particle slots
- ``gplab.spectral``   numpy.fft transforms, wavenumber tables, Parseval sums
- ``gplab.gp``         nonlinear orbital evolution and ground states
- ``gplab.manybody``   exact few-boson dynamics and reduced density matrices
- ``gplab.hierarchy``  marginal-hierarchy residuals, collision terms, series
- ``gplab.cli``        scenario runner (JSON configs, CSV results)

numpy is the only runtime dependency: importing the layer modules, or
running any experiment, loads no scipy module.  Transforms are numpy.fft's,
and the radial layer's quadrature, interpolants and maximizer are written on
numpy.
"""

__version__ = "0.1.0"

__all__ = [
    "cli",
    "config",
    "errors",
    "gp",
    "grids",
    "hierarchy",
    "manybody",
    "potential",
    "scattering",
    "snapshots",
    "spectral",
]

"""State snapshot files in raw binary.

Layout: 8-byte magic ``GPLAB001``, u32 dim, u32 points_per_axis,
f64 box_length (all little-endian), then the complex64 field in row-major
order.  The header describes the one-particle grid: an n-slot state holds
``grid.size**n`` entries and a level-k marginal ``(grid.size**k)**2``, so the
slot count or level is implied by the payload size.  `read_state_binary`
returns the state; `read_marginal_binary` returns ``(grid, kernel)``, the
header's grid and the (M^(d k), M^(d k)) complex kernel it read.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .grids import GridSpec, WaveFunction

MAGIC = b"GPLAB001"
_HEADER = struct.Struct("<II d")


def _write_binary(path: str | Path, grid: GridSpec, payload: np.ndarray) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("wb") as handle:
        handle.write(MAGIC)
        handle.write(_HEADER.pack(grid.dim, grid.points_per_axis, grid.box_length))
        handle.write(np.ascontiguousarray(payload, dtype="<c8").tobytes())
    return path


def _read_binary(path: str | Path, what: str) -> tuple[GridSpec, np.ndarray]:
    """The header's grid and the flat complex64 payload of a snapshot file."""
    path = Path(path)
    raw = path.read_bytes()
    if raw[: len(MAGIC)] != MAGIC:
        raise ConfigurationError(f"{path}: bad magic, not a {what} snapshot")
    try:
        dim, m, box = _HEADER.unpack_from(raw, len(MAGIC))
        data = np.frombuffer(raw, dtype="<c8", offset=len(MAGIC) + _HEADER.size)
    except (struct.error, ValueError) as exc:
        raise ConfigurationError(f"{path}: truncated header or partial payload entry") from exc
    return GridSpec(dim, m, box), data


def write_state_binary(path: str | Path, phi: WaveFunction) -> Path:
    return _write_binary(path, phi.grid, phi.values)


def read_state_binary(path: str | Path) -> WaveFunction:
    grid, data = _read_binary(path, "state")
    n = 1
    while grid.size**n < data.size:
        n += 1
    if grid.size**n != data.size:
        raise ConfigurationError(f"{path}: payload size does not match the header")
    return WaveFunction(grid, data.reshape(grid.shape * n).astype(complex))


def write_marginal_binary(path: str | Path, dm) -> Path:
    """Dump a k-particle marginal kernel: the full (M^(d k))^2 kernel in
    row-major order under the one-particle header."""
    return _write_binary(path, dm.grid, dm.kernel)


def read_marginal_binary(path: str | Path) -> tuple[GridSpec, np.ndarray]:
    grid, data = _read_binary(path, "marginal")
    k = 1
    while (grid.size**k) ** 2 < data.size:
        k += 1
    rows = grid.size**k
    if rows * rows != data.size:
        raise ConfigurationError(f"{path}: payload is not a square kernel on this grid")
    return grid, data.reshape(rows, rows).astype(complex)

"""Scenario configuration: strict, versioned JSON.

Unknown keys are rejected at every level, and so are top-level keys the
chosen experiment never reads, so configs stay diff-able and the manifest
hash (sha256 over the canonically serialized, normalized config) changes
exactly when an effective field changes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .errors import ConfigurationError

SCHEMA_VERSION = "1"
# top-level keys each experiment reads, beyond the ones every experiment takes
COMMON_KEYS = {"schema_version", "experiment", "output", "seed"}
EXPERIMENT_KEYS = {
    "scatter": {"potential", "scaling_N"},
    "gp_evolve": {"grid", "trap", "potential", "time", "coupling"},
    "gp_groundstate": {"grid", "trap", "potential", "coupling"},
    "manybody": {"grid", "trap", "potential", "particles", "time", "coupling"},
    "hierarchy": {"grid", "potential", "time", "coupling"},
    "power_counting": set(),
    "report": set(),
}
COUPLING_MODES = ("from_scattering", "born", "explicit")


def _require_keys(section: str, data: dict, allowed: set[str], required: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigurationError(f"{section}: unknown field(s) {sorted(unknown)}")
    missing = required - set(data)
    if missing:
        raise ConfigurationError(f"{section}: missing field(s) {sorted(missing)}")


def _count(name: str, value: Any, minimum: int | None = None) -> int:
    """An integer count from the config; floats and booleans are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class PotentialSpec:
    kind: str
    v0: float = 0.0
    radius: float = 0.0
    width: float = 0.0
    cutoff_radius: float | None = None
    radii: tuple[float, ...] = ()
    values: tuple[float, ...] = ()
    csv_path: str | None = None

    @classmethod
    def parse(cls, data: dict) -> "PotentialSpec":
        kind = data.get("kind")
        if kind == "barrier":
            _require_keys("potential", data, {"kind", "v0", "radius"}, {"kind", "v0", "radius"})
            return cls(kind, v0=float(data["v0"]), radius=float(data["radius"]))
        if kind == "gaussian":
            _require_keys(
                "potential", data, {"kind", "v0", "width", "cutoff_radius"}, {"kind", "v0", "width"}
            )
            cutoff = data.get("cutoff_radius")
            return cls(
                kind,
                v0=float(data["v0"]),
                width=float(data["width"]),
                cutoff_radius=None if cutoff is None else float(cutoff),
            )
        if kind == "table":
            _require_keys("potential", data, {"kind", "radii", "values", "csv_path"}, {"kind"})
            if data.get("csv_path") is not None:
                if "radii" in data or "values" in data:
                    raise ConfigurationError(
                        "potential: table takes csv_path or radii+values, not both"
                    )
                from .potential import from_table_csv

                # read once, so the hash covers the table and not only its path
                path = str(data["csv_path"])
                table = from_table_csv(path)
                return cls(kind, radii=table.radii, values=table.values, csv_path=path)
            if "radii" not in data or "values" not in data:
                raise ConfigurationError("potential: table needs csv_path or radii+values")
            return cls(
                kind,
                radii=tuple(float(x) for x in data["radii"]),
                values=tuple(float(x) for x in data["values"]),
            )
        raise ConfigurationError(f"potential: unknown kind {kind!r}")

    def normalized(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind}
        if self.kind == "barrier":
            out.update(v0=self.v0, radius=self.radius)
        elif self.kind == "gaussian":
            out.update(v0=self.v0, width=self.width, cutoff_radius=self.cutoff_radius)
        else:
            out.update(radii=list(self.radii), values=list(self.values), csv_path=self.csv_path)
        return out

    def build(self):
        from . import potential as pot

        if self.kind == "barrier":
            return pot.BarrierPotential(self.v0, self.radius)
        if self.kind == "gaussian":
            return pot.GaussianPotential(self.v0, self.width, self.cutoff_radius)
        return pot.TablePotential(self.radii, self.values)


@dataclass(frozen=True)
class ScenarioConfig:
    experiment: str
    potential: PotentialSpec | None = None
    trap_kind: str = "none"
    trap_omega: float = 1.0
    # default grid: 1024 points on a line, box a few times any O(1) state width
    grid_dim: int = 1
    grid_points: int = 1024
    grid_box: float = 16.0
    particles: int = 2
    scaling_n: tuple[int, ...] = (1,)
    t_final: float = 0.1
    dt: float = 1e-3
    coupling_mode: str = "born"
    coupling_value: float | None = None
    output_dir: str = "out"
    output_prefix: str = "run"
    binary_snapshots: bool = False
    seed: int = 0

    def normalized(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "potential": None if self.potential is None else self.potential.normalized(),
            "trap": {"kind": self.trap_kind, "omega": self.trap_omega},
            "grid": {
                "dim": self.grid_dim,
                "points_per_axis": self.grid_points,
                "box_length": self.grid_box,
            },
            "particles": self.particles,
            "scaling_N": list(self.scaling_n),
            "time": {"t_final": self.t_final, "dt": self.dt},
            "coupling": {"mode": self.coupling_mode, "value": self.coupling_value},
            "output": {
                "dir": self.output_dir,
                "prefix": self.output_prefix,
                "binary_snapshots": self.binary_snapshots,
            },
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.normalized(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


_TOP_KEYS = COMMON_KEYS.union(*EXPERIMENT_KEYS.values())


def parse_config(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    _require_keys("config", data, _TOP_KEYS, {"schema_version", "experiment", "output"})
    if data["schema_version"] != SCHEMA_VERSION:
        raise ConfigurationError(
            f"schema_version must be {SCHEMA_VERSION!r}, got {data['schema_version']!r}"
        )
    experiment = data["experiment"]
    if experiment not in EXPERIMENT_KEYS:
        raise ConfigurationError(f"unknown experiment {experiment!r}")
    unread = set(data) - COMMON_KEYS - EXPERIMENT_KEYS[experiment]
    if unread:
        raise ConfigurationError(f"{experiment} does not read field(s) {sorted(unread)}")

    potential = None
    if "potential" in data:
        potential = PotentialSpec.parse(dict(data["potential"]))

    trap_kind, trap_omega = "none", 1.0
    if "trap" in data:
        trap = dict(data["trap"])
        _require_keys("trap", trap, {"kind", "omega"}, {"kind"})
        trap_kind = trap["kind"]
        if trap_kind not in ("harmonic", "none"):
            raise ConfigurationError(f"trap: unknown kind {trap_kind!r}")
        trap_omega = float(trap.get("omega", 1.0))

    grid_dim, grid_points, grid_box = 1, 1024, 16.0
    if "grid" in data:
        grid = dict(data["grid"])
        _require_keys(
            "grid", grid, {"dim", "points_per_axis", "box_length"},
            {"dim", "points_per_axis", "box_length"},
        )
        grid_dim = _count("grid: dim", grid["dim"])
        grid_points = _count("grid: points_per_axis", grid["points_per_axis"])
        grid_box = float(grid["box_length"])

    t_final, dt = 0.1, 1e-3
    if "time" in data:
        time_block = dict(data["time"])
        _require_keys("time", time_block, {"t_final", "dt"}, {"t_final", "dt"})
        t_final = float(time_block["t_final"])
        dt = float(time_block["dt"])
        if not (0.0 <= t_final < math.inf and 0.0 < dt < math.inf):
            raise ConfigurationError(f"time: need finite t_final >= 0 and dt > 0, got {time_block}")

    coupling_mode, coupling_value = "born", None
    if "coupling" in data:
        coupling = dict(data["coupling"])
        _require_keys("coupling", coupling, {"mode", "value"}, {"mode"})
        coupling_mode = coupling["mode"]
        if coupling_mode not in COUPLING_MODES:
            raise ConfigurationError(f"coupling: unknown mode {coupling_mode!r}")
        if coupling_mode == "explicit":
            if "value" not in coupling:
                raise ConfigurationError("coupling: explicit mode needs a value")
            coupling_value = float(coupling["value"])
        elif "value" in coupling and coupling["value"] is not None:
            raise ConfigurationError("coupling: value is only valid in explicit mode")
    if coupling_mode == "from_scattering" and potential is None:
        raise ConfigurationError("coupling mode from_scattering requires a potential spec")
    if coupling_mode == "explicit" and potential is not None and experiment != "manybody":
        # outside manybody (a pair interaction) the potential only sets the coupling
        raise ConfigurationError(
            f"{experiment} with explicit coupling does not read field(s) ['potential']"
        )

    output = dict(data["output"])
    _require_keys("output", output, {"dir", "prefix", "binary_snapshots"}, {"dir", "prefix"})

    particles = _count("particles", data.get("particles", 2))
    if experiment == "manybody" and particles < 2:
        raise ConfigurationError(f"particles: manybody needs at least 2, got {particles}")

    scaling = data.get("scaling_N", [1])
    if not isinstance(scaling, list) or not scaling:
        raise ConfigurationError("scaling_N must be a non-empty list of counts")
    scaling_n = tuple(_count("scaling_N entry", n, minimum=1) for n in scaling)
    seed = _count("seed", data.get("seed", 0))

    # build the grid, trap and potential once so bad values exit before any output
    from .grids import GridSpec
    from .potential import TrapModel

    GridSpec(grid_dim, grid_points, grid_box)
    TrapModel(trap_kind, trap_omega)
    if potential is not None:
        potential.build()

    return ScenarioConfig(
        experiment=experiment,
        potential=potential,
        trap_kind=trap_kind,
        trap_omega=trap_omega,
        grid_dim=grid_dim,
        grid_points=grid_points,
        grid_box=grid_box,
        particles=particles,
        scaling_n=scaling_n,
        t_final=t_final,
        dt=dt,
        coupling_mode=coupling_mode,
        coupling_value=coupling_value,
        output_dir=str(output["dir"]),
        output_prefix=str(output["prefix"]),
        binary_snapshots=bool(output.get("binary_snapshots", False)),
        seed=seed,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: malformed JSON ({exc})") from exc
    return parse_config(data)

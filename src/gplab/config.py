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
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .errors import ConfigurationError

if TYPE_CHECKING:  # parse_config imports them, after the CLI pins threads
    from .grids import GridSpec
    from .potential import TrapModel

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
GRID_KEYS = ("dim", "points_per_axis", "box_length")


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


def _real(name: str, value: Any) -> float:
    """A finite number from the config; booleans, strings, lists and null are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


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
            return cls(
                kind,
                v0=_real("potential: v0", data["v0"]),
                radius=_real("potential: radius", data["radius"]),
            )
        if kind == "gaussian":
            _require_keys(
                "potential", data, {"kind", "v0", "width", "cutoff_radius"}, {"kind", "v0", "width"}
            )
            cutoff = data.get("cutoff_radius")
            return cls(
                kind,
                v0=_real("potential: v0", data["v0"]),
                width=_real("potential: width", data["width"]),
                cutoff_radius=None if cutoff is None else _real("potential: cutoff_radius", cutoff),
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
            if not (isinstance(data["radii"], list) and isinstance(data["values"], list)):
                raise ConfigurationError("potential: table radii and values must be lists")
            return cls(
                kind,
                radii=tuple(_real("potential: radii entry", x) for x in data["radii"]),
                values=tuple(_real("potential: values entry", x) for x in data["values"]),
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
    grid: GridSpec
    trap: TrapModel
    potential: PotentialSpec | None = None
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
            "trap": {"kind": self.trap.kind, "omega": self.trap.omega},
            "grid": {key: getattr(self.grid, key) for key in GRID_KEYS},
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

    # imported here, after the CLI pins threads, since they load numpy;
    # the grid, trap and potential are built so bad values exit before any output
    from .grids import GridSpec
    from .potential import TrapModel

    trap = TrapModel()
    if "trap" in data:
        block = dict(data["trap"])
        _require_keys("trap", block, {"kind", "omega"}, {"kind"})
        trap = TrapModel(block["kind"], _real("trap: omega", block.get("omega", 1.0)))

    grid = GridSpec(1, 1024, 16.0)  # a line, the box a few times any O(1) state width
    if "grid" in data:
        block = dict(data["grid"])
        _require_keys("grid", block, set(GRID_KEYS), set(GRID_KEYS))
        grid = GridSpec(
            _count("grid: dim", block["dim"]),
            _count("grid: points_per_axis", block["points_per_axis"]),
            _real("grid: box_length", block["box_length"]),
        )
    if experiment == "hierarchy" and grid.dim != 1:
        raise ConfigurationError("hierarchy experiment runs on d = 1 grids")

    t_final, dt = 0.1, 1e-3
    if "time" in data:
        time_block = dict(data["time"])
        _require_keys("time", time_block, {"t_final", "dt"}, {"t_final", "dt"})
        t_final = _real("time: t_final", time_block["t_final"])
        dt = _real("time: dt", time_block["dt"])
        if not (t_final >= 0.0 and dt > 0.0):
            raise ConfigurationError(f"time: need t_final >= 0 and dt > 0, got {time_block}")

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
            coupling_value = _real("coupling: value", coupling["value"])
        elif "value" in coupling and coupling["value"] is not None:
            raise ConfigurationError("coupling: value is only valid in explicit mode")
    if potential is None and experiment in ("scatter", "manybody"):
        raise ConfigurationError(f"{experiment} needs a potential spec")
    sets_coupling = "coupling" in EXPERIMENT_KEYS[experiment] and coupling_mode != "explicit"
    if potential is None and sets_coupling:
        raise ConfigurationError(f"coupling mode {coupling_mode!r} needs a potential spec")
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

    if potential is not None:
        potential.build()

    return ScenarioConfig(
        experiment=experiment,
        grid=grid,
        trap=trap,
        potential=potential,
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

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
    from .potential import PotentialModel, TrapModel

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
SNAPSHOT_EXPERIMENTS = ("gp_evolve", "gp_groundstate", "manybody")  # the ones that write one
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


def _section(data: dict, name: str, allowed: set[str] | None = None, required=frozenset()) -> dict:
    """A config section: a JSON object, its keys checked when `allowed` is given."""
    block = data[name]
    if not isinstance(block, dict):
        raise ConfigurationError(f"{name} must be a JSON object, got {block!r}")
    if allowed is not None:
        _require_keys(name, block, allowed, required)
    return block


def _text(name: str, value: Any) -> str:
    if not isinstance(value, str):
        raise ConfigurationError(f"{name} must be a string, got {value!r}")
    return value


def _parse_potential(data: dict, base: Path) -> tuple[PotentialModel, str | None]:
    """The potential model and, for a table read from a file, the file's path
    as written (a relative path is read from `base`)."""
    from . import potential as pot

    kind = data.get("kind")
    if kind == "barrier":
        _require_keys("potential", data, {"kind", "v0", "radius"}, {"kind", "v0", "radius"})
        v0, radius = _real("potential: v0", data["v0"]), _real("potential: radius", data["radius"])
        return pot.BarrierPotential(v0, radius), None
    if kind == "gaussian":
        _require_keys(
            "potential", data, {"kind", "v0", "width", "cutoff_radius"}, {"kind", "v0", "width"}
        )
        cutoff = data.get("cutoff_radius")
        return pot.GaussianPotential(
            _real("potential: v0", data["v0"]),
            _real("potential: width", data["width"]),
            None if cutoff is None else _real("potential: cutoff_radius", cutoff),
        ), None
    if kind == "table":
        _require_keys("potential", data, {"kind", "radii", "values", "csv_path"}, {"kind"})
        if data.get("csv_path") is not None:
            if "radii" in data or "values" in data:
                raise ConfigurationError(
                    "potential: table takes csv_path or radii+values, not both"
                )
            # read once, so the hash covers the table and not only its path
            path = _text("potential: csv_path", data["csv_path"])
            return pot.from_table_csv(base / path), path
        if "radii" not in data or "values" not in data:
            raise ConfigurationError("potential: table needs csv_path or radii+values")
        if not (isinstance(data["radii"], list) and isinstance(data["values"], list)):
            raise ConfigurationError("potential: table radii and values must be lists")
        return pot.TablePotential(
            tuple(_real("potential: radii entry", x) for x in data["radii"]),
            tuple(_real("potential: values entry", x) for x in data["values"]),
        ), None
    raise ConfigurationError(f"potential: unknown kind {kind!r}")


def _potential_fields(model: PotentialModel, csv_path: str | None) -> dict:
    """The config fields that rebuild `model`, as `_parse_potential` reads them."""
    if model.kind == "barrier":
        return dict(kind="barrier", v0=model.v0, radius=model.radius)
    if model.kind == "gaussian":
        return dict(kind="gaussian", v0=model.v0, width=model.width, cutoff_radius=model.cutoff)
    return dict(kind="table", radii=list(model.radii), values=list(model.values), csv_path=csv_path)


@dataclass(frozen=True)
class ScenarioConfig:
    experiment: str
    grid: GridSpec
    trap: TrapModel
    potential: PotentialModel | None = None
    potential_csv_path: str | None = None  # where a table potential was read from
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
            "potential": None
            if self.potential is None
            else _potential_fields(self.potential, self.potential_csv_path),
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


def parse_config(data: dict, base: str | Path = ".") -> ScenarioConfig:
    """The checked config; a relative table `csv_path` is read from `base`."""
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a JSON object")
    _require_keys("config", data, _TOP_KEYS, {"schema_version", "experiment", "output"})
    if data["schema_version"] != SCHEMA_VERSION:
        raise ConfigurationError(
            f"schema_version must be {SCHEMA_VERSION!r}, got {data['schema_version']!r}"
        )
    experiment = _text("experiment", data["experiment"])
    if experiment not in EXPERIMENT_KEYS:
        raise ConfigurationError(f"unknown experiment {experiment!r}")
    unread = set(data) - COMMON_KEYS - EXPERIMENT_KEYS[experiment]
    if unread:
        raise ConfigurationError(f"{experiment} does not read field(s) {sorted(unread)}")

    # imported here, after the CLI pins threads, since they load numpy;
    # the grid, trap and potential are built so bad values exit before any output
    from .grids import GridSpec
    from .manybody import check_entry_budget
    from .potential import TrapModel

    potential, csv_path = None, None
    if "potential" in data:
        potential, csv_path = _parse_potential(_section(data, "potential"), Path(base))

    trap = TrapModel()
    if "trap" in data:
        block = _section(data, "trap", {"kind", "omega"}, {"kind"})
        trap = TrapModel(block["kind"], _real("trap: omega", block.get("omega", 1.0)))

    grid = GridSpec(1, 1024, 16.0)  # a line, the box a few times any O(1) state width
    if "grid" in data:
        block = _section(data, "grid", set(GRID_KEYS), set(GRID_KEYS))
        grid = GridSpec(
            _count("grid: dim", block["dim"]),
            _count("grid: points_per_axis", block["points_per_axis"]),
            _real("grid: box_length", block["box_length"]),
        )

    t_final, dt = 0.1, 1e-3
    if "time" in data:
        time_block = _section(data, "time", {"t_final", "dt"}, {"t_final", "dt"})
        t_final = _real("time: t_final", time_block["t_final"])
        dt = _real("time: dt", time_block["dt"])
        if not (t_final >= 0.0 and dt > 0.0):
            raise ConfigurationError(f"time: need t_final >= 0 and dt > 0, got {time_block}")

    coupling_mode, coupling_value = "born", None
    if "coupling" in data:
        coupling = _section(data, "coupling", {"mode", "value"}, {"mode"})
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

    output = _section(data, "output", {"dir", "prefix", "binary_snapshots"}, {"dir", "prefix"})
    if "binary_snapshots" in output and experiment not in SNAPSHOT_EXPERIMENTS:
        raise ConfigurationError(f"output: {experiment} writes no binary_snapshots")
    binary_snapshots = output.get("binary_snapshots", False)
    if not isinstance(binary_snapshots, bool):
        raise ConfigurationError(
            f"output: binary_snapshots must be true or false, got {binary_snapshots!r}"
        )

    particles = _count("particles", data.get("particles", 2))
    if experiment == "manybody" and particles < 2:
        raise ConfigurationError(f"particles: manybody needs at least 2, got {particles}")

    scaling = data.get("scaling_N", [1])
    if not isinstance(scaling, list) or not scaling:
        raise ConfigurationError("scaling_N must be a non-empty list of counts")
    scaling_n = tuple(_count("scaling_N entry", n, minimum=1) for n in scaling)
    seed = _count("seed", data.get("seed", 0))
    if experiment == "hierarchy":  # the series kernels, checked before any GP frame is run
        check_entry_budget(grid.size**2, "level-1 kernel")

    return ScenarioConfig(
        experiment=experiment,
        grid=grid,
        trap=trap,
        potential=potential,
        potential_csv_path=csv_path,
        particles=particles,
        scaling_n=scaling_n,
        t_final=t_final,
        dt=dt,
        coupling_mode=coupling_mode,
        coupling_value=coupling_value,
        output_dir=_text("output: dir", output["dir"]),
        output_prefix=_text("output: prefix", output["prefix"]),
        binary_snapshots=binary_snapshots,
        seed=seed,
    )


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: malformed JSON ({exc})") from exc
    return parse_config(data, path.parent)

"""Scenario configuration: strict, versioned JSON.

Unknown keys are rejected at every level, and so are top-level keys the
chosen experiment never reads.  While checking a config, `parse_config`
builds its record: exactly the fields the experiment reads, each default
filled in here and nowhere else.  The manifest hash is sha256 over the
canonically serialized record, so it changes exactly when an effective field
changes, and the record is itself a config that parses back to the same one
(except a table read from a file, whose record also holds its contents).
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import os
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


def _parse_potential(data: dict, base: Path) -> tuple[PotentialModel, dict]:
    """The potential model and its record.  A table read from a file records
    its path as written (a relative path is read from `base`) beside the radii
    and values read, so the hash covers the file's contents."""
    from . import potential as pot

    kind = data.get("kind")
    if kind == "barrier":
        _require_keys("potential", data, {"kind", "v0", "radius"}, {"kind", "v0", "radius"})
        v0, radius = _real("potential: v0", data["v0"]), _real("potential: radius", data["radius"])
        return pot.BarrierPotential(v0, radius), {"kind": kind, "v0": v0, "radius": radius}
    if kind == "gaussian":
        _require_keys(
            "potential", data, {"kind", "v0", "width", "cutoff_radius"}, {"kind", "v0", "width"}
        )
        cutoff = data.get("cutoff_radius")
        fields = {
            "kind": kind,
            "v0": _real("potential: v0", data["v0"]),
            "width": _real("potential: width", data["width"]),
            "cutoff_radius": None if cutoff is None else _real("potential: cutoff_radius", cutoff),
        }
        return pot.GaussianPotential(fields["v0"], fields["width"], fields["cutoff_radius"]), fields
    if kind == "table":
        _require_keys("potential", data, {"kind", "radii", "values", "csv_path"}, {"kind"})
        if data.get("csv_path") is not None:
            if "radii" in data or "values" in data:
                raise ConfigurationError(
                    "potential: table takes csv_path or radii+values, not both"
                )
            fields = {"kind": kind, "csv_path": _text("potential: csv_path", data["csv_path"])}
            model = pot.from_table_csv(base / fields["csv_path"])
        else:
            if "radii" not in data or "values" not in data:
                raise ConfigurationError("potential: table needs csv_path or radii+values")
            if not (isinstance(data["radii"], list) and isinstance(data["values"], list)):
                raise ConfigurationError("potential: table radii and values must be lists")
            fields = {"kind": kind}
            model = pot.TablePotential(
                tuple(_real("potential: radii entry", x) for x in data["radii"]),
                tuple(_real("potential: values entry", x) for x in data["values"]),
            )
        return model, {**fields, "radii": list(model.radii), "values": list(model.values)}
    raise ConfigurationError(f"potential: unknown kind {kind!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    """A checked config: the record of the fields its experiment reads, and
    the grid, trap and potential built from it (None where it reads none;
    the trap is None for kind 'none' too)."""

    record: dict
    grid: GridSpec | None = None
    trap: TrapModel | None = None
    potential: PotentialModel | None = None

    def normalized(self) -> dict:
        return copy.deepcopy(self.record)

    def config_hash(self) -> str:
        canonical = json.dumps(self.record, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


_TOP_KEYS = COMMON_KEYS.union(*EXPERIMENT_KEYS.values())


def _block(data: dict, name: str, allowed: set[str], required: set[str], default: dict) -> dict:
    """Section `name`, its keys checked, or `default` when the config has none."""
    return _section(data, name, allowed, required) if name in data else default


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
    read = EXPERIMENT_KEYS[experiment]
    unread = set(data) - COMMON_KEYS - read
    if unread:
        raise ConfigurationError(f"{experiment} does not read field(s) {sorted(unread)}")

    # imported here, after the CLI pins threads, since they load numpy;
    # the grid, trap and potential are built so bad values exit before any output
    from .grids import GridSpec
    from .manybody import check_entry_budget
    from .potential import TrapModel

    record: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "experiment": experiment}
    potential = trap = grid = None
    if "potential" in data:
        potential, record["potential"] = _parse_potential(_section(data, "potential"), Path(base))

    if "trap" in read:
        block = _block(data, "trap", {"kind", "omega"}, {"kind"}, {"kind": "none"})
        record["trap"] = {"kind": block["kind"]}
        if block["kind"] == "harmonic":
            record["trap"]["omega"] = _real("trap: omega", block.get("omega", 1.0))
            trap = TrapModel(record["trap"]["omega"])
        elif block["kind"] != "none":
            raise ConfigurationError(f"unknown trap kind {block['kind']!r}")
        elif "omega" in block:
            raise ConfigurationError("trap: omega has no effect on a trap of kind 'none'")

    if "grid" in read:  # by default a line, the box a few times any O(1) state width
        line = {"dim": 1, "points_per_axis": 1024, "box_length": 16.0}
        block = _block(data, "grid", set(line), set(line), line)
        record["grid"] = {
            "dim": _count("grid: dim", block["dim"]),
            "points_per_axis": _count("grid: points_per_axis", block["points_per_axis"]),
            "box_length": _real("grid: box_length", block["box_length"]),
        }
        grid = GridSpec(**record["grid"])

    if "time" in read:
        keys = {"t_final", "dt"}
        block = _block(data, "time", keys, keys, {"t_final": 0.1, "dt": 1e-3})
        t_final, dt = _real("time: t_final", block["t_final"]), _real("time: dt", block["dt"])
        if not (t_final >= 0.0 and dt > 0.0):
            raise ConfigurationError(f"time: need t_final >= 0 and dt > 0, got {block}")
        record["time"] = {"t_final": t_final, "dt": dt}

    mode = None
    if "coupling" in read:
        block = _block(data, "coupling", {"mode", "value"}, {"mode"}, {"mode": "born"})
        mode = block["mode"]
        if mode not in COUPLING_MODES:
            raise ConfigurationError(f"coupling: unknown mode {mode!r}")
        record["coupling"] = {"mode": mode}
        if mode == "explicit":
            if "value" not in block:
                raise ConfigurationError("coupling: explicit mode needs a value")
            record["coupling"]["value"] = _real("coupling: value", block["value"])
        elif block.get("value") is not None:
            raise ConfigurationError("coupling: value is only valid in explicit mode")
    if potential is None and experiment in ("scatter", "manybody"):
        raise ConfigurationError(f"{experiment} needs a potential spec")
    if potential is None and mode not in (None, "explicit"):
        raise ConfigurationError(f"coupling mode {mode!r} needs a potential spec")
    if mode == "explicit" and potential is not None and experiment != "manybody":
        # outside manybody (a pair interaction) the potential only sets the coupling
        raise ConfigurationError(
            f"{experiment} with explicit coupling does not read field(s) ['potential']"
        )

    output = _section(data, "output", {"dir", "prefix", "binary_snapshots"}, {"dir", "prefix"})
    if "binary_snapshots" in output and experiment not in SNAPSHOT_EXPERIMENTS:
        raise ConfigurationError(f"output: {experiment} writes no binary_snapshots")
    out_dir = _text("output: dir", output["dir"])
    prefix = _text("output: prefix", output["prefix"])
    if "\0" in out_dir:
        raise ConfigurationError(f"output: dir must hold no NUL character, got {out_dir!r}")
    if {"/", os.sep, "\0"} & set(prefix):
        raise ConfigurationError(
            f"output: prefix must be a plain file name, without '/' or NUL, got {prefix!r}"
        )
    record["output"] = {"dir": out_dir, "prefix": prefix}
    if experiment in SNAPSHOT_EXPERIMENTS:
        flag = output.get("binary_snapshots", False)
        if not isinstance(flag, bool):
            raise ConfigurationError(
                f"output: binary_snapshots must be true or false, got {flag!r}"
            )
        record["output"]["binary_snapshots"] = flag

    if "particles" in read:
        record["particles"] = _count("particles", data.get("particles", 2), minimum=2)
    if "scaling_N" in read:
        scaling = data.get("scaling_N", [1])
        if not isinstance(scaling, list) or not scaling:
            raise ConfigurationError("scaling_N must be a non-empty list of counts")
        record["scaling_N"] = [_count("scaling_N entry", n, minimum=1) for n in scaling]
    record["seed"] = _count("seed", data.get("seed", 0))
    if experiment == "hierarchy":  # the series kernels, checked before any GP frame is run
        check_entry_budget(grid.size**2, "level-1 kernel")
    return ScenarioConfig(record, grid, trap, potential)


def load_config(path: str | Path) -> ScenarioConfig:
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{path}: malformed JSON ({exc})") from exc
    return parse_config(data, path.parent)

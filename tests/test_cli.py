import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gplab import cli
from gplab.config import (
    COMMON_KEYS,
    EXPERIMENT_KEYS,
    load_config,
    parse_config,
)
from gplab.errors import ConfigurationError, SolverError
from gplab.grids import GridSpec, gaussian_packet
from gplab.snapshots import MAGIC, read_state_binary, write_state_binary, write_state_csv


def _scatter_config(tmp_path, out_name="out", prefix="scatter", extra=None):
    data = {
        "schema_version": "1",
        "experiment": "scatter",
        "potential": {"kind": "barrier", "v0": 1.0, "radius": 1.0},
        "scaling_N": [1, 10],
        "output": {"dir": str(tmp_path / out_name), "prefix": prefix},
    }
    if extra:
        data.update(extra)
    path = tmp_path / f"{prefix}.json"
    path.write_text(json.dumps(data))
    return path


def _read_rows(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_scatter_run_hits_coupling_identity(tmp_path):
    config = _scatter_config(tmp_path)
    assert cli.main(["run", "--config", str(config)]) == 0
    header, rows = _read_rows(tmp_path / "out" / "scatter_results.csv")
    assert header == ["potential_id", "N", "a0", "b0", "alpha", "sigma", "sigma_over_8pi_a0"]
    assert len(rows) == 2
    for row in rows:
        assert float(row[-1]) == pytest.approx(1.0, rel=1e-6)
        assert float(row[3]) > float(row[5])  # b0 > sigma
    manifest = json.loads((tmp_path / "out" / "scatter_manifest.json").read_text())
    assert manifest["experiment"] == "scatter"
    assert len(manifest["config_hash"]) == 64


def test_gp_evolve_flat_coupling_keeps_energy_constant(tmp_path):
    data = {
        "schema_version": "1",
        "experiment": "gp_evolve",
        "grid": {"dim": 1, "points_per_axis": 256, "box_length": 16.0},
        "time": {"t_final": 0.1, "dt": 0.001},
        "coupling": {"mode": "explicit", "value": 0.0},
        "output": {"dir": str(tmp_path / "gp"), "prefix": "gp"},
    }
    path = tmp_path / "gp.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path)]) == 0
    _, rows = _read_rows(tmp_path / "gp" / "gp_results.csv")
    energies = [float(r[2]) for r in rows]
    assert max(energies) - min(energies) < 1e-12 * max(abs(e) for e in energies)
    norms = [float(r[1]) for r in rows]
    assert max(abs(n - 1.0) for n in norms) < 1e-10


def test_malformed_json_exits_2_without_output(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema_version": "1",')
    out_dir = tmp_path / "never"
    code = cli.main(["run", "--config", str(bad)])
    assert code == 2
    assert not out_dir.exists()


def test_unknown_field_rejected(tmp_path):
    config = _scatter_config(tmp_path, extra={"surprise": 1})
    assert cli.main(["run", "--config", str(config)]) == 2
    with pytest.raises(ConfigurationError):
        load_config(config)


def test_missing_config_file_exits_2(tmp_path):
    assert cli.main(["run", "--config", str(tmp_path / "missing.json")]) == 2


def test_numerical_failure_maps_to_exit_3(tmp_path, monkeypatch):
    def explode(cfg, out_dir):
        raise SolverError("synthetic failure")

    monkeypatch.setitem(cli._EXPERIMENTS, "scatter", explode)
    config = _scatter_config(tmp_path)
    assert cli.main(["run", "--config", str(config)]) == 3
    assert not (tmp_path / "out").exists()


def test_rerun_is_byte_identical(tmp_path):
    config = _scatter_config(tmp_path)
    cli.main(["run", "--config", str(config)])
    first = (tmp_path / "out" / "scatter_results.csv").read_bytes()
    cli.main(["run", "--config", str(config)])
    assert (tmp_path / "out" / "scatter_results.csv").read_bytes() == first


def test_config_hash_changes_only_with_fields(tmp_path):
    base = load_config(_scatter_config(tmp_path, prefix="a"))
    # formatting-only difference: same normalized fields, same hash
    reordered = parse_config(
        json.loads((tmp_path / "a.json").read_text())
    )
    assert base.config_hash() == reordered.config_hash()
    changed = load_config(
        _scatter_config(
            tmp_path, prefix="b", extra={"scaling_N": [1, 10, 100]}
        )
    )
    assert changed.config_hash() != base.config_hash()


def _table_config(tmp_path, csv_path):
    return _scatter_config(
        tmp_path, prefix="table", extra={"potential": {"kind": "table", "csv_path": str(csv_path)}}
    )


def test_config_hash_covers_table_csv_contents(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text("radius,value\n0.0,1.0\n1.0,0.0\n")
    config = _table_config(tmp_path, table)
    before = load_config(config).config_hash()
    assert load_config(config).config_hash() == before
    table.write_text("radius,value\n0.0,2.0\n1.0,0.0\n")
    after = load_config(config)
    assert after.config_hash() != before
    assert after.potential(0.0) == pytest.approx(2.0)


def test_missing_table_csv_exits_2(tmp_path, capsys):
    config = _table_config(tmp_path, tmp_path / "absent.csv")
    assert cli.main(["run", "--config", str(config)]) == 2
    assert "absent.csv" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_table_with_csv_and_inline_arrays_rejected(tmp_path, capsys):
    table = tmp_path / "table.csv"
    table.write_text("radius,value\n0.0,1.0\n1.0,0.0\n")
    spec = {"kind": "table", "csv_path": str(table), "radii": [0.0, 2.0], "values": [5.0, 0.0]}
    with pytest.raises(ConfigurationError, match="not both"):
        parse_config(
            {"schema_version": "1", "experiment": "scatter", "potential": spec,
             "output": {"dir": str(tmp_path / "out"), "prefix": "both"}}
        )
    config = _scatter_config(tmp_path, prefix="both", extra={"potential": spec})
    assert cli.main(["run", "--config", str(config)]) == 2
    assert "not both" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_hierarchy_run_evolves_each_gp_frame_once(tmp_path, monkeypatch):
    import gplab.gp

    calls = []
    evolve_gp = gplab.gp.evolve_gp

    def counted(*args, **kwargs):
        calls.append(args[2])
        return evolve_gp(*args, **kwargs)

    monkeypatch.setattr(gplab.gp, "evolve_gp", counted)
    data = {
        "schema_version": "1",
        "experiment": "hierarchy",
        "grid": {"dim": 1, "points_per_axis": 16, "box_length": 8.0},
        "time": {"t_final": 0.02, "dt": 1e-3},
        "coupling": {"mode": "explicit", "value": 0.2},
        "output": {"dir": str(tmp_path / "h"), "prefix": "h"},
    }
    path = tmp_path / "h.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path)]) == 0
    # frames at t - dt, t, t + dt serve both levels; one more for the series reference
    assert len(calls) == 4
    _, rows = _read_rows(tmp_path / "h" / "h_results.csv")
    assert [row[:2] for row in rows] == [["1", "0"], ["2", "0"], ["1", "1"], ["1", "2"], ["1", "3"]]


def test_output_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "redirected"
    monkeypatch.setenv("GPLAB_OUTPUT_DIR", str(override))
    config = _scatter_config(tmp_path)
    assert cli.main(["run", "--config", str(config)]) == 0
    assert (override / "scatter_results.csv").exists()
    assert not (tmp_path / "out").exists()


def test_power_counting_run(tmp_path):
    data = {
        "schema_version": "1",
        "experiment": "power_counting",
        "output": {"dir": str(tmp_path / "pc"), "prefix": "pc"},
    }
    path = tmp_path / "pc.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path)]) == 0
    header, rows = _read_rows(tmp_path / "pc" / "pc_results.csv")
    assert header == ["k", "m", "volume_exp", "decay_exp", "margin"]
    assert len(rows) == 110
    for row in rows[:5]:
        k, m, volume, decay, margin = (int(x) for x in row)
        assert margin == 5 * k + m


def test_python_dash_m_runs_the_cli(tmp_path):
    data = {
        "schema_version": "1",
        "experiment": "power_counting",
        "output": {"dir": str(tmp_path / "pc"), "prefix": "pc"},
    }
    path = tmp_path / "pc.json"
    path.write_text(json.dumps(data))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-m", "gplab", "run", "--config", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    _, rows = _read_rows(tmp_path / "pc" / "pc_results.csv")
    assert len(rows) == 110


def test_report_merges_and_deduplicates(tmp_path):
    config = _scatter_config(tmp_path)
    cli.main(["run", "--config", str(config)])
    copy_dir = tmp_path / "copy"
    copy_dir.mkdir()
    for name in ("scatter_results.csv", "scatter_manifest.json"):
        (copy_dir / name).write_bytes((tmp_path / "out" / name).read_bytes())
    summary = cli.report([tmp_path / "out", copy_dir], tmp_path / "summary.csv")
    header, rows = _read_rows(summary)
    assert header[0] == "config_hash"
    assert len(rows) == 2  # two scaling rows, duplicates collapsed
    # idempotent
    again = cli.report([tmp_path / "out", copy_dir], tmp_path / "summary.csv")
    assert again.read_bytes() == summary.read_bytes()


def test_report_empty_and_missing_manifest(tmp_path, capsys):
    summary = cli.report([], tmp_path / "empty.csv")
    header, rows = _read_rows(summary)
    assert header == ["config_hash"] and rows == []
    bare = tmp_path / "bare"
    bare.mkdir()
    cli.report([bare], tmp_path / "warned.csv")
    assert "skipping" in capsys.readouterr().err


def test_snapshot_binary_roundtrip(tmp_path):
    grid = GridSpec(2, 16, 4.0)
    wf = gaussian_packet(grid, width=0.8, momentum=[1.0, -0.5])
    path = write_state_binary(tmp_path / "state.bin", wf)
    assert path.read_bytes()[:8] == MAGIC
    back = read_state_binary(path)
    assert back.grid == grid
    assert np.max(np.abs(back.values - wf.values)) < 1e-6  # complex64 payload
    garbage = tmp_path / "garbage.bin"
    garbage.write_bytes(b"NOTMAGIC" + b"\0" * 16)
    with pytest.raises(ConfigurationError):
        read_state_binary(garbage)
    _assert_damaged_files_rejected(tmp_path, path, read_state_binary)


def _assert_damaged_files_rejected(tmp_path, path, reader):
    """A truncated header and a payload that is not a whole number of complex64
    entries both raise ConfigurationError."""
    raw = path.read_bytes()
    for name, damaged in (("header", raw[: len(MAGIC) + 4]), ("payload", raw + b"\0" * 3)):
        bad = tmp_path / f"damaged_{name}.bin"
        bad.write_bytes(damaged)
        with pytest.raises(ConfigurationError):
            reader(bad)


def test_marginal_binary_roundtrip(tmp_path):
    from gplab.manybody import marginal, product_state
    from gplab.snapshots import read_marginal_binary, write_marginal_binary

    grid = GridSpec(1, 16, 4.0)
    dm = marginal(product_state(gaussian_packet(grid, width=0.8), 2), 1)
    path = write_marginal_binary(tmp_path / "marginal.bin", dm)
    back = read_marginal_binary(path)
    assert back.grid == grid and back.k == 1
    assert np.max(np.abs(back.kernel - dm.kernel)) < 1e-6
    assert back.trace() == pytest.approx(1.0, abs=1e-6)
    _assert_damaged_files_rejected(tmp_path, path, read_marginal_binary)


def test_manybody_run_emits_marginal_dump(tmp_path):
    data = {
        "schema_version": "1",
        "experiment": "manybody",
        "potential": {"kind": "gaussian", "v0": 0.5, "width": 1.0, "cutoff_radius": 5.0},
        "grid": {"dim": 1, "points_per_axis": 16, "box_length": 8.0},
        "particles": 2,
        "time": {"t_final": 0.02, "dt": 0.002},
        "coupling": {"mode": "born"},
        "output": {"dir": str(tmp_path / "mb"), "prefix": "mb", "binary_snapshots": True},
    }
    path = tmp_path / "mb.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path)]) == 0
    header, rows = _read_rows(tmp_path / "mb" / "mb_results.csv")
    assert header == ["t", "norm", "energy", "overlap", "depletion"]
    assert len(rows) >= 2
    from gplab.snapshots import read_marginal_binary

    dumped = read_marginal_binary(tmp_path / "mb" / "mb_marginal1.bin")
    assert dumped.k == 1
    manifest = json.loads((tmp_path / "mb" / "mb_manifest.json").read_text())
    assert manifest["mode"] == "analog1d"


def test_manybody_run_at_time_zero_dumps_initial_marginal(tmp_path):
    from gplab.manybody import marginal, product_state
    from gplab.snapshots import read_marginal_binary

    path = _manybody_config(
        tmp_path,
        time={"t_final": 0.0, "dt": 0.002},
        output={"dir": str(tmp_path / "mb"), "prefix": "mb", "binary_snapshots": True},
    )
    assert cli.main(["run", "--config", str(path)]) == 0
    _, rows = _read_rows(tmp_path / "mb" / "mb_results.csv")
    assert [float(row[0]) for row in rows] == [0.0]
    dumped = read_marginal_binary(tmp_path / "mb" / "mb_marginal1.bin")
    initial = marginal(product_state(gaussian_packet(GridSpec(1, 16, 8.0), width=1.0), 2), 1)
    assert np.max(np.abs(dumped.kernel - initial.kernel)) < 1e-6  # complex64 payload


def test_snapshot_csv_layout(tmp_path):
    grid = GridSpec(1, 16, 4.0)
    wf = gaussian_packet(grid, width=0.8)
    path = write_state_csv(tmp_path / "state.csv", wf)
    header, rows = _read_rows(path)
    assert header == ["index", "x", "re", "im"]
    assert len(rows) == grid.size
    assert float(rows[0][1]) == pytest.approx(-2.0)


def test_coupling_validation():
    with pytest.raises(ConfigurationError):
        parse_config(
            {
                "schema_version": "1",
                "experiment": "gp_evolve",
                "coupling": {"mode": "from_scattering"},
                "output": {"dir": "x", "prefix": "y"},
            }
        )
    with pytest.raises(ConfigurationError):
        parse_config(
            {
                "schema_version": "1",
                "experiment": "gp_evolve",
                "coupling": {"mode": "explicit"},
                "output": {"dir": "x", "prefix": "y"},
            }
        )
    with pytest.raises(ConfigurationError):
        parse_config(
            {
                "schema_version": "2",
                "experiment": "scatter",
                "output": {"dir": "x", "prefix": "y"},
            }
        )


def _manybody_config(tmp_path, **fields):
    data = {
        "schema_version": "1",
        "experiment": "manybody",
        "potential": {"kind": "gaussian", "v0": 1.0, "width": 0.5},
        "grid": {"dim": 1, "points_per_axis": 16, "box_length": 8.0},
        "particles": 2,
        "time": {"t_final": 0.02, "dt": 0.002},
        "coupling": {"mode": "explicit", "value": 0.7},
        "output": {"dir": str(tmp_path / "mb"), "prefix": "mb"},
    }
    data.update(fields)
    path = tmp_path / "mb.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"time": {"t_final": 0.1, "dt": 0.0}}, "dt"),
        ({"time": {"t_final": 0.1, "dt": -1e-3}}, "dt"),
        ({"time": {"t_final": -0.1, "dt": 1e-3}}, "t_final"),
        ({"particles": 1}, "particles"),
        ({"grid": {"dim": 1, "points_per_axis": 60, "box_length": 8.0}}, "points_per_axis"),
        ({"trap": {"kind": "harmonic", "omega": -1.0}}, "trap frequency"),
        ({"potential": {"kind": "gaussian", "v0": -1.0, "width": 0.5}}, "gaussian height"),
        ({"grid": {"dim": 1, "points_per_axis": 64.9, "box_length": 8.0}}, "points_per_axis"),
        ({"grid": {"dim": 1.5, "points_per_axis": 16, "box_length": 8.0}}, "dim"),
        ({"grid": {"dim": True, "points_per_axis": 16, "box_length": 8.0}}, "dim"),
        ({"particles": 2.9}, "particles"),
        ({"particles": True}, "particles"),
        ({"seed": 1.5}, "seed"),
        ({"seed": False}, "seed"),
        ({"scaling_N": [0]}, "scaling_N"),
        ({"scaling_N": [1, 2.5]}, "scaling_N"),
        ({"scaling_N": [True]}, "scaling_N"),
    ],
)
def test_bad_time_and_particle_fields_exit_2(tmp_path, capsys, fields, message):
    path = _manybody_config(tmp_path, **fields)
    assert cli.main(["run", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "mb").exists()
    with pytest.raises(ConfigurationError, match=message):
        load_config(path)


LINE = {"dim": 1, "points_per_axis": 16, "box_length": 8.0}
EXPLICIT = {"mode": "explicit", "value": 0.2}
# a valid config of each experiment plus one top-level field it never reads
UNREAD_CASES = [
    ("manybody", {"potential": {"kind": "gaussian", "v0": 1.0, "width": 0.5}, "grid": LINE,
                  "time": {"t_final": 0.02, "dt": 0.002}, "scaling_N": [5, 7]}, "scaling_N"),
    ("scatter", {"potential": {"kind": "barrier", "v0": 1.0, "radius": 1.0}, "grid": LINE},
     "grid"),
    ("gp_groundstate", {"grid": LINE, "trap": {"kind": "harmonic"}, "coupling": EXPLICIT,
                        "time": {"t_final": 0.1, "dt": 1e-3}}, "time"),
    ("hierarchy", {"grid": LINE, "time": {"t_final": 0.02, "dt": 1e-3}, "coupling": EXPLICIT,
                   "trap": {"kind": "harmonic", "omega": 1.0}}, "trap"),
    ("gp_evolve", {"grid": LINE, "coupling": EXPLICIT, "particles": 3}, "particles"),
    ("power_counting", {"coupling": EXPLICIT}, "coupling"),
]


@pytest.mark.parametrize("experiment,fields,unread", UNREAD_CASES)
def test_fields_the_experiment_never_reads_exit_2(tmp_path, capsys, experiment, fields, unread):
    data = {
        "schema_version": "1",
        "experiment": experiment,
        "seed": 3,
        "output": {"dir": str(tmp_path / "out"), "prefix": "x"},
        **fields,
    }
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert f"{experiment} does not read field(s) ['{unread}']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    del data[unread]
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path)]) == 0


GAUSSIAN = {"kind": "gaussian", "v0": 5.0, "width": 0.3}
# experiments whose potential only sets the coupling
COUPLING_ONLY_CASES = [
    ("gp_evolve", {"grid": LINE, "time": {"t_final": 0.01, "dt": 1e-3}}),
    ("gp_groundstate", {"grid": LINE, "trap": {"kind": "harmonic"}}),
    ("hierarchy", {"grid": LINE, "time": {"t_final": 0.02, "dt": 1e-3}}),
]


@pytest.mark.parametrize("experiment,fields", COUPLING_ONLY_CASES)
def test_potential_under_explicit_coupling_exits_2(tmp_path, capsys, experiment, fields):
    data = {
        "schema_version": "1",
        "experiment": experiment,
        "output": {"dir": str(tmp_path / "out"), "prefix": "x"},
        "potential": GAUSSIAN,
        "coupling": EXPLICIT,
        **fields,
    }
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path)]) == 2
    message = f"{experiment} with explicit coupling does not read field(s) ['potential']"
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    del data["potential"]
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path)]) == 0
    # in the other modes the potential sets the coupling
    path.write_text(json.dumps({**data, "potential": GAUSSIAN, "coupling": {"mode": "born"}}))
    assert cli.main(["run", "--config", str(path)]) == 0


# configs the run cannot use, rejected while parsing: exit 2 and no output directory
NAN, INF = float("nan"), float("inf")  # JSON NaN and Infinity; a literal 1e400 parses to inf
SCATTER = {"scaling_N": [1]}


def _gaussian(**fields):
    return {"potential": {"kind": "gaussian", "v0": 1.0, "width": 0.5, **fields}, **SCATTER}


UNRUNNABLE_CASES = [
    pytest.param("gp_groundstate", {"grid": LINE, "trap": {"kind": "harmonic"}},
                 "'born' needs a potential", id="gp_groundstate"),
    pytest.param("gp_evolve", {"grid": LINE}, "'born' needs a potential", id="gp_evolve"),
    pytest.param("scatter", {"scaling_N": [1, 4]}, "scatter needs a potential", id="scatter"),
    pytest.param("manybody", {"grid": LINE, "coupling": EXPLICIT}, "manybody needs a potential",
                 id="manybody"),
    pytest.param("hierarchy", {"grid": {"dim": 3, "points_per_axis": 8, "box_length": 8.0},
                               "coupling": EXPLICIT}, "d = 1 grids", id="hierarchy"),
    # a config number is a finite JSON number: no bool, string, list, null, NaN or inf
    pytest.param("scatter", _gaussian(v0="2.0"), "potential: v0", id="v0-string"),
    pytest.param("scatter", _gaussian(v0=True), "potential: v0", id="v0-bool"),
    pytest.param("scatter", _gaussian(v0="abc"), "potential: v0", id="v0-text"),
    pytest.param("scatter", _gaussian(v0=[1]), "potential: v0", id="v0-list"),
    pytest.param("scatter", _gaussian(v0=None), "potential: v0", id="v0-null"),
    pytest.param("scatter", _gaussian(v0=NAN), "potential: v0", id="v0-nan"),
    pytest.param("scatter", _gaussian(v0=INF), "potential: v0", id="v0-inf"),
    pytest.param("scatter", _gaussian(width=NAN), "potential: width", id="width-nan"),
    pytest.param("scatter", _gaussian(cutoff_radius="3"), "potential: cutoff_radius",
                 id="cutoff-string"),
    pytest.param("scatter", {"potential": {"kind": "barrier", "v0": 1.0, "radius": INF},
                             **SCATTER}, "potential: radius", id="radius-inf"),
    pytest.param("scatter", {"potential": {"kind": "table", "radii": [0.0, NAN, 2.0],
                                           "values": [1.0, 0.5, 0.0]}, **SCATTER},
                 "potential: radii entry", id="table-nan"),
    pytest.param("scatter", {"potential": {"kind": "table", "radii": [0.0, 1.0],
                                           "values": "10"}, **SCATTER},
                 "must be lists", id="table-string"),
    pytest.param("gp_groundstate", {"grid": LINE, "trap": {"kind": "harmonic", "omega": NAN},
                                    "coupling": EXPLICIT}, "trap: omega", id="omega-nan"),
    pytest.param("gp_evolve", {"grid": {**LINE, "box_length": INF}, "coupling": EXPLICIT},
                 "grid: box_length", id="box-inf"),
    pytest.param("gp_evolve", {"grid": LINE, "coupling": {"mode": "explicit", "value": None}},
                 "coupling: value", id="coupling-null"),
    pytest.param("gp_evolve", {"grid": LINE, "coupling": EXPLICIT,
                               "time": {"t_final": "0.1", "dt": 1e-3}}, "time: t_final",
                 id="t_final-string"),
    pytest.param("gp_evolve", {"grid": LINE, "coupling": EXPLICIT,
                               "time": {"t_final": 0.1, "dt": False}}, "time: dt", id="dt-bool"),
    # every section is a JSON object, and the experiment and output fields have their types
    pytest.param("gp_evolve", {"grid": 5, "coupling": EXPLICIT}, "grid must be a JSON object",
                 id="grid-number"),
    pytest.param("scatter", {"potential": "barrier", **SCATTER}, "potential must be a JSON object",
                 id="potential-string"),
    pytest.param("gp_groundstate", {"grid": LINE, "trap": "harmonic", "coupling": EXPLICIT},
                 "trap must be a JSON object", id="trap-string"),
    pytest.param("gp_evolve", {"grid": LINE, "coupling": EXPLICIT, "time": [0.1, 1e-3]},
                 "time must be a JSON object", id="time-list"),
    pytest.param("gp_evolve", {"grid": LINE, "coupling": "explicit"},
                 "coupling must be a JSON object", id="coupling-string"),
    pytest.param("scatter", {**_gaussian(), "output": "out"}, "output must be a JSON object",
                 id="output-string"),
    pytest.param("scatter", {**_gaussian(), "experiment": ["scatter"]},
                 "experiment must be a string", id="experiment-list"),
    pytest.param("scatter", {**_gaussian(), "output": {"binary_snapshots": "false"}},
                 "output: binary_snapshots must be true or false", id="snapshots-string"),
    pytest.param("scatter", {**_gaussian(), "output": {"dir": None}},
                 "output: dir must be a string", id="dir-null"),
    pytest.param("scatter", {**_gaussian(), "output": {"prefix": ["a"]}},
                 "output: prefix must be a string", id="prefix-list"),
]


@pytest.mark.parametrize("experiment,fields,message", UNRUNNABLE_CASES)
def test_unrunnable_configs_exit_2_before_any_output(tmp_path, capsys, experiment, fields, message):
    output = {"dir": str(tmp_path / "out"), "prefix": "x"}
    if isinstance(fields.get("output"), dict):  # a case may replace single output fields
        fields = {**fields, "output": {**output, **fields["output"]}}
    data = {"schema_version": "1", "experiment": experiment, "output": output, **fields}
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigurationError, match=message):
        load_config(path)


# configs that parse but need more than the 2^28-entry budget: exit 2, no output directory
OVER_BUDGET_CASES = [
    pytest.param("manybody", {"potential": {"kind": "gaussian", "v0": 1.0, "width": 0.5},
                              "grid": {"dim": 1, "points_per_axis": 1024, "box_length": 8.0},
                              "particles": 3, "coupling": EXPLICIT},
                 "3-particle state", id="manybody"),
    pytest.param("hierarchy", {"grid": {"dim": 1, "points_per_axis": 256, "box_length": 8.0},
                               "time": {"t_final": 0.002, "dt": 1e-3}, "coupling": EXPLICIT},
                 "level-2 kernel", id="hierarchy"),
]


@pytest.mark.parametrize("experiment,fields,message", OVER_BUDGET_CASES)
def test_over_budget_runs_exit_2_without_output(tmp_path, capsys, experiment, fields, message):
    data = {
        "schema_version": "1",
        "experiment": experiment,
        "output": {"dir": str(tmp_path / "out"), "prefix": "x"},
        **fields,
    }
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    assert cli.main(["run", "--config", str(path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


positive = st.floats(0.1, 5.0)
potentials = st.one_of(
    st.fixed_dictionaries({"kind": st.just("barrier"), "v0": positive, "radius": positive}),
    st.fixed_dictionaries(
        {"kind": st.just("gaussian"), "v0": positive, "width": positive},
        optional={"cutoff_radius": st.none() | positive},
    ),
    st.builds(
        lambda v0, r: {"kind": "table", "radii": [0.0, r, 2.0 * r], "values": [v0, v0 / 2, 0.0]},
        positive, positive,
    ),
)
field_values = {
    "grid": st.fixed_dictionaries({
        "dim": st.integers(1, 3),
        "points_per_axis": st.sampled_from([8, 16, 64, 1024]),
        "box_length": positive,
    }),
    "trap": st.fixed_dictionaries(
        {"kind": st.sampled_from(["harmonic", "none"])}, optional={"omega": positive}
    ),
    "time": st.fixed_dictionaries({"t_final": st.floats(0.0, 1.0), "dt": st.floats(1e-4, 1e-2)}),
    "particles": st.integers(2, 4),
    "scaling_N": st.lists(st.integers(1, 1000), min_size=1, max_size=4),
}
couplings = st.one_of(
    st.fixed_dictionaries({"mode": st.sampled_from(["born", "from_scattering"])}),
    st.fixed_dictionaries({"mode": st.just("explicit"), "value": st.floats(0.0, 5.0)}),
)


@st.composite
def valid_configs(draw):
    experiment = draw(st.sampled_from(sorted(EXPERIMENT_KEYS)))
    data = {
        "schema_version": "1",
        "experiment": experiment,
        "output": draw(st.fixed_dictionaries(
            {"dir": st.text(min_size=1), "prefix": st.text(min_size=1)},
            optional={"binary_snapshots": st.booleans()},
        )),
    }
    if draw(st.booleans()):
        data["seed"] = draw(st.integers(0, 2**31))
    read = EXPERIMENT_KEYS[experiment]
    for key in sorted(read & set(field_values)):
        if draw(st.booleans()):
            data[key] = draw(field_values[key])
    if experiment == "hierarchy" and "grid" in data:
        data["grid"]["dim"] = 1  # the hierarchy experiment runs on d = 1 grids only
    if "coupling" in read:
        data["coupling"] = draw(couplings)
    # the mean-field experiments read the potential only to set the coupling
    explicit = data.get("coupling", {}).get("mode") == "explicit"
    if "potential" in read and (experiment in ("scatter", "manybody") or not explicit):
        data["potential"] = draw(potentials)
    return data


@settings(max_examples=100, deadline=None)
@given(data=valid_configs())
def test_normalize_parse_hash_is_a_fixed_point(data):
    # normalized() also records the defaults of fields the experiment never
    # reads (the hash covers them); a config takes back only the fields it reads
    config = parse_config(data)
    read = COMMON_KEYS | EXPERIMENT_KEYS[config.experiment]
    normalized = {k: v for k, v in config.normalized().items() if k in read and v is not None}
    again = parse_config(json.loads(json.dumps(normalized)))
    assert again == config
    assert again.config_hash() == config.config_hash()


@pytest.mark.parametrize("counts", [[0], [1, 2.5], [True], []])
def test_bad_scaling_counts_exit_2(tmp_path, capsys, counts):
    config = _scatter_config(tmp_path, extra={"scaling_N": counts})
    assert cli.main(["run", "--config", str(config)]) == 2
    assert "scaling_N" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_manybody_reference_matches_run_from_zero(tmp_path, monkeypatch):
    """The stepped mean-field reference equals evolve_gp run from t = 0 at
    every sample (401 steps: stride 2 and a shorter last interval)."""
    from gplab import manybody
    from gplab.gp import evolve_gp
    from gplab.grids import l2_distance

    references = []
    overlap = manybody.condensate_overlap

    def recording(dm, phi):
        references.append(phi)
        return overlap(dm, phi)

    monkeypatch.setattr(manybody, "condensate_overlap", recording)
    path = _manybody_config(tmp_path, time={"t_final": 0.401, "dt": 0.001})
    assert cli.main(["run", "--config", str(path)]) == 0
    _, rows = _read_rows(tmp_path / "mb" / "mb_results.csv")
    times = [float(row[0]) for row in rows]
    assert len(times) == len(references) == 202
    phi0 = gaussian_packet(GridSpec(1, 16, 8.0), width=1.0)
    for t, reference in zip(times, references):
        assert l2_distance(reference, evolve_gp(phi0, 0.7, t, 0.001)) < 1e-12


def test_threads_must_be_positive(tmp_path):
    config = _scatter_config(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["run", "--config", str(config), "--threads", "0"])
    assert excinfo.value.code == 2
    assert cli.main(["run", "--config", str(config), "--threads", "2"]) == 0

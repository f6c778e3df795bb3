"""Scenario runner: JSON config in, CSV results and a manifest out.

Exit codes: 0 success, 2 configuration problem (malformed JSON, bad schema,
invalid model), 3 numerical failure.  One experiment per invocation; the
experiment is named inside the config.  `GPLAB_OUTPUT_DIR` overrides the
configured output directory.  Heavy imports happen after argument parsing so
`--threads` can pin the BLAS thread pools before numpy loads.  Transforms are
numpy.fft's and run single-threaded whatever `--threads` says.  A run loads
numpy and no scipy module.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

from .errors import ConfigurationError, DomainError, GplabError, SolverError

log = logging.getLogger("gplab")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


# --- experiments ----------------------------------------------------------


def _resolve_coupling(cfg):
    """Coupling constant per config: solved, first-order, or explicit."""
    from . import potential as pot
    from . import scattering

    coupling = cfg.record["coupling"]
    if coupling["mode"] == "explicit":
        return coupling["value"]
    model = cfg.potential  # parse_config requires one outside explicit mode
    if coupling["mode"] == "from_scattering":
        return 8.0 * math.pi * scattering.solve_zero_energy(model).a0
    if cfg.grid.dim == 1:
        return pot.born_coupling_1d(model)
    return pot.born_coupling(model)


def _run_scatter(cfg, out_dir: Path):
    from . import potential as pot
    from . import scattering

    base = cfg.potential
    header = ["potential_id", "N", "a0", "b0", "alpha", "sigma", "sigma_over_8pi_a0"]
    rows = []
    for n in cfg.record["scaling_N"]:
        model = pot.scale_potential(base, n)
        solution = scattering.solve_zero_energy(model)
        sigma = scattering.coupling_sigma(solution)
        ratio = sigma / (8.0 * math.pi * solution.a0) if solution.a0 != 0.0 else 1.0
        rows.append(
            [
                base.label,
                n,
                solution.a0,
                pot.born_coupling(model),
                pot.alpha_strength(model),
                sigma,
                ratio,
            ]
        )
    return header, rows


def _initial_orbital(cfg, a0):
    """Trap ground state when a trap is configured, else a plane wave."""
    from .gp import minimize_gp
    from .grids import plane_wave

    if cfg.trap.confining:
        phi, _ = minimize_gp(cfg.trap, a0, cfg.grid, tol=1e-10)
        return phi
    return plane_wave(cfg.grid, 1)


def _run_gp_evolve(cfg, out_dir: Path):
    from .gp import evolve_gp, gp_energy
    from .snapshots import write_state_binary
    from .spectral import split_steps

    sigma = _resolve_coupling(cfg)
    a0 = sigma / (8.0 * math.pi)
    phi0 = _initial_orbital(cfg, a0)

    t_final, dt = cfg.record["time"]["t_final"], cfg.record["time"]["dt"]
    steps, _ = split_steps(t_final, dt)
    stride = max(1, steps // 1000)
    rows = [[0.0, phi0.norm(), gp_energy(phi0, a0)]]

    def sample(step, t, wf, kinetic):
        rows.append([t, wf.norm(), gp_energy(wf, a0, kinetic=kinetic)])

    phi_t = evolve_gp(phi0, sigma, t_final, dt, callback=sample, stride=stride)
    output = cfg.record["output"]
    if output["binary_snapshots"]:
        write_state_binary(out_dir / f"{output['prefix']}_state_initial.bin", phi0)
        write_state_binary(out_dir / f"{output['prefix']}_state_final.bin", phi_t)
    return ["t", "norm", "energy"], rows


def _run_gp_groundstate(cfg, out_dir: Path):
    from .gp import minimize_gp
    from .snapshots import write_state_binary

    a0 = _resolve_coupling(cfg) / (8.0 * math.pi)
    history = []

    def track(iteration, energy):
        history.append((iteration, energy))

    phi, energy = minimize_gp(cfg.trap, a0, cfg.grid, tol=1e-10, callback=track)
    rows = []
    for (it, e), prev in zip(history, [None] + history[:-1]):
        rate = "" if prev is None else prev[1] - e
        rows.append([it, e, rate])
    output = cfg.record["output"]
    if output["binary_snapshots"]:
        write_state_binary(out_dir / f"{output['prefix']}_groundstate.bin", phi)
    return ["iter", "energy", "energy_decrease"], rows


def _run_manybody(cfg, out_dir: Path):
    from .gp import evolve_gp
    from .grids import gaussian_packet
    from .manybody import (
        condensate_overlap,
        energy_moment,
        evolve_manybody,
        marginal,
        product_state,
        total_potential,
    )
    from .spectral import split_steps

    grid, trap, base, n = cfg.grid, cfg.trap, cfg.potential, cfg.record["particles"]
    pair = base.scaled_analog1d(n) if grid.dim == 1 else base.scaled(n)
    sigma = _resolve_coupling(cfg)
    phi0 = gaussian_packet(grid, width=grid.box_length / 8.0)
    psi = product_state(phi0, n)
    potential = total_potential(grid, n, pair, trap)
    t_final, dt = cfg.record["time"]["t_final"], cfg.record["time"]["dt"]
    steps, _ = split_steps(t_final, dt)
    stride = max(1, steps // 200)
    rows = []
    reference_t, reference = 0.0, phi0

    def record(step, t, state, kinetic=None):
        nonlocal reference_t, reference
        if t > reference_t:  # advance the mean-field reference from the last sample
            reference = evolve_gp(reference, sigma, t - reference_t, dt)
            reference_t = t
        overlap = condensate_overlap(marginal(state, 1), reference)
        energy = energy_moment(state, potential, 1, kinetic=kinetic)
        rows.append([t, state.norm(), energy, overlap, 1.0 - overlap])

    record(0, 0.0, psi)
    psi_t = evolve_manybody(
        psi, pair, trap, t_final, dt, callback=record, stride=stride, potential=potential
    )
    output = cfg.record["output"]
    if output["binary_snapshots"]:
        from .snapshots import write_marginal_binary

        write_marginal_binary(out_dir / f"{output['prefix']}_marginal1.bin", marginal(psi_t, 1))
    return ["t", "norm", "energy", "overlap", "depletion"], rows


def _run_hierarchy(cfg, out_dir: Path):
    from .gp import evolve_gp
    from .grids import gaussian_packet
    from .hierarchy import (
        HierarchyFamily,
        dyson_term,
        factorized_kernel,
        infinite_hierarchy_residual,
        kernel_distance,
    )

    grid, sigma = cfg.grid, _resolve_coupling(cfg)
    phi0 = gaussian_packet(grid, width=grid.box_length / 8.0)
    t, dt = cfg.record["time"]["t_final"], cfg.record["time"]["dt"]
    frames = {tt: evolve_gp(phi0, sigma, tt, dt) for tt in (t - dt, t, t + dt)}
    rows = [[k, 0, t, infinite_hierarchy_residual(frames, k, sigma, t, dt)] for k in (1, 2)]
    family = HierarchyFamily.from_orbital(phi0, 3, sigma)
    exact = factorized_kernel(evolve_gp(phi0, sigma, t, min(dt, 1e-3)), 1)
    partial = 0  # the partial sums over orders 0..m, each order computed once
    for m in range(3):
        partial = partial + dyson_term(family, 1, m, t, quad_points=24)
        rows.append([1, m + 1, t, kernel_distance(partial, exact, grid, 1)])
    return ["k", "m", "t", "residual"], rows


def _run_power_counting(cfg, out_dir: Path):
    from .hierarchy import power_counting_margin

    header = ["k", "m", "volume_exp", "decay_exp", "margin"]
    rows = []
    for k in range(1, 11):
        for m in range(0, 11):
            volume, decay, margin = power_counting_margin(k, m)
            rows.append([k, m, volume, decay, margin])
    return header, rows


_EXPERIMENTS = {
    "scatter": _run_scatter,
    "gp_evolve": _run_gp_evolve,
    "gp_groundstate": _run_gp_groundstate,
    "manybody": _run_manybody,
    "hierarchy": _run_hierarchy,
    "power_counting": _run_power_counting,
}


# --- run/report entry points ----------------------------------------------


def run(config_path: str | Path, threads: int = 1) -> int:
    from .config import load_config

    started = time.perf_counter()
    cfg = load_config(config_path)
    record, prefix = cfg.record, cfg.record["output"]["prefix"]

    out_dir = Path(os.environ.get("GPLAB_OUTPUT_DIR", record["output"]["dir"]))
    if record["experiment"] == "report":
        out_dir.mkdir(parents=True, exist_ok=True)
        report([out_dir], out_dir / f"{prefix}_summary.csv")
        return 0
    runner = _EXPERIMENTS[record["experiment"]]
    header, rows = runner(cfg, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # only a run that finished leaves a directory
    results_path = out_dir / f"{prefix}_results.csv"
    _write_csv(results_path, header, rows)
    manifest = {
        "schema_version": record["schema_version"],
        "experiment": record["experiment"],
        "config_hash": cfg.config_hash(),
        "tool_version": _version(),
        "threads": threads,
        "fft_backend": "numpy.fft",
        "seed": record["seed"],
        # one-dimensional runs use the analog coupling and pair family
        "mode": "analog1d" if record.get("grid", {}).get("dim") == 1 else "gp3d",
        "wall_time_seconds": time.perf_counter() - started,
        "results": results_path.name,
    }
    manifest_path = out_dir / f"{prefix}_manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    log.info("wrote %s and %s", results_path, manifest_path)
    return 0


def _version() -> str:
    from . import __version__

    return __version__


def report(run_dirs: list[str | Path], out_path: str | Path = "summary.csv") -> Path:
    """Merge per-run result CSVs into one summary keyed by config hash.

    Runs sharing a hash are deduplicated; directories without a manifest are
    skipped with a warning.  Deterministic: rows sort by hash, then file
    order.
    """
    merged: dict[str, tuple[list[str], list[list[str]]]] = {}
    for run_dir in run_dirs:
        run_dir = Path(run_dir)
        manifests = sorted(run_dir.glob("**/*_manifest.json"))
        if not manifests:
            print(f"warning: no manifest under {run_dir}, skipping", file=sys.stderr)
            continue
        for manifest_path in manifests:
            info = json.loads(manifest_path.read_text())
            key = info["config_hash"]
            if key in merged:
                continue
            results_path = manifest_path.parent / info["results"]
            if not results_path.exists():
                print(f"warning: missing {results_path}, skipping", file=sys.stderr)
                continue
            with results_path.open(newline="") as handle:
                rows = list(csv.reader(handle))
            if rows:
                merged[key] = (rows[0], rows[1:])
    columns: list[str] = []
    for header, _ in merged.values():
        for name in header:
            if name not in columns:
                columns.append(name)
    out_path = Path(out_path)
    with out_path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["config_hash"] + columns)
        for key in sorted(merged):
            header, rows = merged[key]
            index = {name: header.index(name) for name in header}
            for row in rows:
                writer.writerow(
                    [key] + [row[index[name]] if name in index else "" for name in columns]
                )
    return out_path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="gplab", description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute the experiment named in a config")
    run_parser.add_argument("--config", required=True, help="path to a scenario JSON file")
    run_parser.add_argument(
        "--threads", type=int, default=1,
        help="cap on the BLAS thread pools (default 1); transforms run single-threaded",
    )
    report_parser = sub.add_parser("report", help="merge run directories into a summary CSV")
    report_parser.add_argument("run_dirs", nargs="*", help="directories holding manifests")
    report_parser.add_argument("--out", default="summary.csv", help="summary CSV path")
    args = parser.parse_args(argv)
    if args.command == "run" and args.threads < 1:
        parser.error(f"--threads must be >= 1, got {args.threads}")

    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    if args.command == "run":
        # pin thread pools before numpy is imported anywhere
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
        try:
            return run(args.config, threads=args.threads)
        except (ConfigurationError, DomainError, FileNotFoundError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (SolverError, FloatingPointError) as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return 3
        except GplabError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
    path = report(args.run_dirs, args.out)
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

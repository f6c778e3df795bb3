"""Output checks per job; a job that fails any of them counts as failed.

Tolerances come from the acceptance criteria and are tolerance checks, not
byte comparisons, so round-off-level changes (another FFT backend, another
summation order) still pass.  Each check returns a list of failure messages;
an empty list means the job's outputs are correct.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

NORM_TOL = 1e-10  # criterion 04: norm drift over the run
OVERLAP_TOL = 1e-12  # criterion 11: product-state overlap equals 1
# Split-step energy error is O(dt^2) and is not conserved exactly; at
# dt = 1e-3 the drawn pair potentials drift by about 4e-6 (criterion 04
# allows 1e-6 for the smoother GP orbital).
ENERGY_DRIFT_TOL = 1e-4
COUPLING_TOL = 1e-6  # criterion 01: int V f = 8 pi a0
SCALING_TOL = 1e-8  # criterion 02: N a0(V_N) = a0(V)
GROUND_TOL = 1e-10  # tolerance of the CLI ground-state search
CONSISTENCY_TOL = 1e-10  # criterion 07: partial trace of gamma2 = gamma1
RATIO_RANGE = (3.2, 4.8)  # criteria 04, 06, 07: second order in dt


def _rows(out_dir: Path, prefix: str) -> list[dict]:
    path = out_dir / f"{prefix}_results.csv"
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def check_manybody(config: dict, out_dir: Path, outputs: dict) -> list[str]:
    rows = _rows(out_dir, config["output"]["prefix"])
    failures = []
    norms = [float(r["norm"]) for r in rows]
    energies = [float(r["energy"]) for r in rows]
    if len(rows) < 2:
        failures.append(f"only {len(rows)} rows")
        return failures
    worst_norm = max(abs(n - 1.0) for n in norms)
    if not worst_norm <= NORM_TOL:
        failures.append(f"norm drift {worst_norm:.2e} > {NORM_TOL}")
    drift = max(abs(e - energies[0]) for e in energies) / abs(energies[0])
    if not drift <= ENERGY_DRIFT_TOL:
        failures.append(f"relative energy drift {drift:.2e} > {ENERGY_DRIFT_TOL}")
    overlap0 = float(rows[0]["overlap"])
    if not abs(overlap0 - 1.0) <= OVERLAP_TOL:
        failures.append(f"overlap at t = 0 is {overlap0!r}")
    t_final = config["time"]["t_final"]
    if not abs(float(rows[-1]["t"]) - t_final) <= 1e-9 * t_final:
        failures.append(f"last sample at t = {rows[-1]['t']}, expected {t_final}")
    return failures


def check_scatter(config: dict, out_dir: Path, outputs: dict) -> list[str]:
    rows = _rows(out_dir, config["output"]["prefix"])
    failures = []
    if [int(r["N"]) for r in rows] != config["scaling_N"]:
        failures.append("rows do not match scaling_N")
        return failures
    base = int(rows[0]["N"]) * float(rows[0]["a0"])
    for row in rows:
        ratio = float(row["sigma_over_8pi_a0"])
        if not abs(ratio - 1.0) <= COUPLING_TOL:
            failures.append(f"N={row['N']}: sigma/(8 pi a0) = {ratio!r}")
        scaled = int(row["N"]) * float(row["a0"])
        if not abs(scaled - base) <= SCALING_TOL * abs(base):
            failures.append(f"N={row['N']}: N a0 = {scaled!r} vs {base!r}")
    return failures


def check_groundstate(config: dict, out_dir: Path, outputs: dict) -> list[str]:
    rows = _rows(out_dir, config["output"]["prefix"])
    failures = []
    energies = [float(r["energy"]) for r in rows]
    if len(energies) < 2:
        return [f"only {len(energies)} rows"]
    rises = sum(1 for a, b in zip(energies, energies[1:]) if b > a)
    if rises:
        failures.append(f"energy rose at {rises} iterations")
    last = float(rows[-1]["energy_decrease"])
    if not 0.0 <= last <= GROUND_TOL:
        failures.append(f"final energy decrease {last!r} not in [0, {GROUND_TOL}]")
    # with a0 >= 0 the quartic term only adds to the d * omega trap energy
    floor = config["grid"]["dim"] * config["trap"]["omega"]
    if not energies[-1] > floor:
        failures.append(f"ground energy {energies[-1]!r} not above d * omega = {floor}")
    return failures


def check_pair_correlation(config: dict, out_dir: Path, outputs: dict) -> list[str]:
    dressed, raw = outputs["dressed"], outputs["raw"]
    if not (_finite(dressed, raw) and 0.0 < dressed < raw):
        return [f"dressed quotient {dressed!r} not below raw {raw!r}"]
    return []


def _strictly_decreasing(values: list[float]) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def check_hierarchy(config: dict, out_dir: Path, outputs: dict) -> list[str]:
    rows = _rows(out_dir, config["output"]["prefix"])
    failures = []
    limit = [float(r["residual"]) for r in rows if int(r["m"]) == 0]
    series = [float(r["residual"]) for r in sorted(rows, key=lambda r: int(r["m"])) if int(r["m"]) > 0]
    if len(limit) != 2 or not _finite(*limit):
        failures.append(f"limit-equation residuals {limit}")
    if len(series) != 3 or not _strictly_decreasing(series):
        failures.append(f"series distances not strictly decreasing: {series}")
    return failures


def check_series_and_marginals(config: dict, out_dir: Path, outputs: dict) -> list[str]:
    failures = []
    distances = outputs["series_distances"]
    if not _strictly_decreasing(distances):
        failures.append(f"series distances not strictly decreasing: {distances}")
    coarse, fine = outputs["bbgky_residuals"]
    ratio = coarse / fine if fine > 0 else math.inf
    if not RATIO_RANGE[0] < ratio < RATIO_RANGE[1]:
        failures.append(f"marginal-equation residual halving ratio {ratio:.3f} outside {RATIO_RANGE}")
    defect = outputs["partial_trace_defect"]
    if not defect < CONSISTENCY_TOL:
        failures.append(f"partial trace defect {defect:.2e} >= {CONSISTENCY_TOL}")
    # Tr[(1 - Lap) x (1 - Lap) gamma2] >= Tr gamma2 = 1
    if not outputs["sobolev_trace_norm"] >= 1.0 - 1e-12:
        failures.append(f"trace regularity norm {outputs['sobolev_trace_norm']!r} below 1")
    return failures


CHECKS = {
    "manybody": check_manybody,
    "scatter": check_scatter,
    "groundstate": check_groundstate,
    "pair_correlation": check_pair_correlation,
    "hierarchy": check_hierarchy,
    "series_and_marginals": check_series_and_marginals,
}

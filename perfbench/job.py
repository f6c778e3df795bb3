"""Run one benchmark job in this process and write its result file.

    python3 perfbench/job.py JOB_FILE

JOB_FILE is the JSON written by `run.py`: either a `gplab run` scenario
(`"kind": "cli"`) or a library pipeline with its parameters
(`"kind": "lib"`).  Set-up ends when the job enters `gplab.cli.run`, or
just before the first layer call of a pipeline; by then the thread pools
are pinned, every layer module is imported and the job file is loaded, so
import cost is counted as set-up.  With `"trace": true` the tracer wraps the
layers before the job starts and its spans go into the result file.

Pipelines call gplab through module attributes, so the tracer's rebinding
sees every call.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path


def pair_correlation(potential: dict, scaling: int, points: int, box: float, width: float) -> dict:
    """Pair problem, then the pair-dressed two-boson state on a 3D grid and
    its mixed-gradient quotient with and without the pair profile."""
    from gplab import grids, manybody, scattering
    from gplab import potential as pot

    model = pot.GaussianPotential(potential["v0"], potential["width"])
    solution = scattering.solve_zero_energy(model)
    profile = scattering.jastrow(solution, scaling)
    phi = grids.gaussian_packet(grids.GridSpec(3, points, box), width=width)
    state = manybody.jastrow_product_state(phi, 2, profile)
    return {
        "a0": solution.a0,
        "dressed": manybody.correlation_quotient(state, profile, 0, 1),
        "raw": manybody.correlation_quotient(state, None, 0, 1),
    }


def series_and_marginals(
    sigma: float,
    points: int,
    box: float,
    t_series: float,
    quad_points: int,
    pair: dict,
    t_marginal: float,
    dts: list[float],
) -> dict:
    """Truncated collision series against the exact orbital (acceptance
    criterion 08), then the exact two-boson marginal equation residual at
    two step sizes and the trace regularity norm (criterion 07)."""
    import numpy as np

    from gplab import gp, grids, hierarchy, manybody
    from gplab import potential as pot

    grid = grids.GridSpec(1, points, box)
    phi = grids.gaussian_packet(grid, width=1.0)
    family = hierarchy.HierarchyFamily.from_orbital(phi, 3, sigma)
    exact = hierarchy.factorized_kernel(gp.evolve_gp(phi, sigma, t_series, 1e-4), 1)
    distances = [
        hierarchy.kernel_distance(
            hierarchy.dyson_partial_sum(family, 1, n, t_series, quad_points), exact, grid, 1
        )
        for n in (1, 2, 3)
    ]
    model = pot.scale_potential(pot.GaussianPotential(pair["v0"], pair["width"]), 2)
    psi0 = manybody.product_state(phi, 2)
    t = t_marginal
    residuals, defect, gamma2 = [], 0.0, None
    for dt in dts:
        frames = {}
        for tt in (t - dt, t, t + dt):
            evolved = manybody.evolve_manybody(psi0, model, None, tt, dt)
            frames[tt] = manybody.marginal(evolved, 1)
            if tt == t:
                gamma2 = manybody.marginal(evolved, 2)
        reduced = manybody.partial_trace(gamma2).kernel
        defect = max(defect, float(np.max(np.abs(reduced - frames[t].kernel))))
        residuals.append(hierarchy.bbgky_residual(frames, gamma2, model, 2, t, dt))
    return {
        "series_distances": distances,
        "bbgky_residuals": residuals,
        "partial_trace_defect": defect,
        "sobolev_trace_norm": hierarchy.sobolev_trace_norm(gamma2),
    }


PIPELINES = {"pair_correlation": pair_correlation, "series_and_marginals": series_and_marginals}


def main(argv: list[str]) -> int:
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    job = json.loads(Path(argv[1]).read_text())
    from gplab import cli, config, gp, grids, hierarchy, manybody, potential, scattering  # noqa: F401

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    result: dict = {}
    if job["kind"] == "cli":
        traced_run = cli.run

        def entered_run(*args, **kwargs):
            result["t_ready"] = time.monotonic()
            return traced_run(*args, **kwargs)

        cli.run = entered_run
        code = cli.main(["run", "--config", job["config"], "--threads", "1"])
    else:
        pipeline = PIPELINES[job["pipeline"]]
        result["t_ready"] = time.monotonic()
        result["outputs"] = pipeline(**job["params"])
        code = 0
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(job["result"]).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

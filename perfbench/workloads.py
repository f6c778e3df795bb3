"""Seeded job lists for the benchmark workloads.

`make_jobs(workload, seed, scale)` returns the jobs of one pass.  The seed
draws only physical parameters (potential height and width, coupling), from
ranges in which every output check in `checks.py` holds; the program sees
only the generated scenario configs and pipeline parameters, and every
scenario's `seed` field carries the seed.  `scale="tiny"` shrinks every size
for the self-check; `"full"` is the measured benchmark.

Why each workload exists, and the layer it loads:

- manybody_1d: one `gplab run manybody` job at (n, M, d) = (3, 64, 1), the
  only long time-stepping of a mid-size tensor (4 MiB state).  Loads
  `manybody` (split steps, `energy_moment` table rebuilds) and `gp` (the
  reference orbital re-run from t = 0 at every sample).  More than 400 steps,
  so the sample stride is 2 and some steps are not sample steps.
- chain_3d: the paper's chain in 3D as three processes: `scatter` (a0, the
  8 pi a0 identity, N a0 scale invariance), a 64^3 `gp_groundstate` with the
  `from_scattering` coupling, and a library job building the pair-dressed
  two-boson state on 16^3 (400 MB pair-displacement arrays, 268 MB states).
  Loads `gp.minimize_gp`, `grids` (k^2 rebuilt per energy), `potential` (trap
  re-sampled per energy), `scattering` and the `manybody` pair tables.
- hierarchy_1d: a `gplab run hierarchy` job at M = 64 (4096^2 kernels) and a
  library job with the collision series to order 2 at the acceptance
  criterion 08 setting (76,032 small `free_evolve` calls) and the exact
  n = 2 marginal equation.  The only workload where `hierarchy` does most of
  the work.

One pass takes 15-40 s, so a run holds one or two passes.  Passes of 4-6 s
at (3, 32, 1), 32^3, 8^3 and M = 32 were tried and spread more from run to
run (interquartile range over ten seeds up to 31% of the median, against
9-12% at these sizes): on the 2-core VM the benchmark was built on, short
interpreter-bound calls slow by up to 2x in busy periods, large array
kernels by much less.

The ground-state job of chain_3d keeps its potential and trap fixed: the
gradient flow's iteration count jumps between about 100 and 1,600 when the
trap frequency or a0 moves by a few percent (measured on 32^3 over
omega in [0.9, 1.1]), so a seed-drawn trap would make `wall_s` measure that
spread rather than the code.  The fixed point (gaussian v0 = 2,
width = 0.5, omega = 1) takes 393 iterations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("manybody_1d", "chain_3d", "hierarchy_1d")


@dataclass(frozen=True)
class Job:
    """One process of a pass: a `gplab run` scenario or a library pipeline."""

    name: str
    kind: str  # "cli" or "lib"
    config: dict = field(default_factory=dict)  # scenario, for kind "cli"
    pipeline: str = ""  # pipeline name in job.py, for kind "lib"
    params: dict = field(default_factory=dict)


SIZES = {
    "full": {
        "manybody_points": 64,
        "manybody_steps": 420,
        "ground_points": 64,
        "pair_points": 16,
        "hierarchy_points": 64,
        "quad_points": 48,
    },
    "tiny": {
        "manybody_points": 16,
        "manybody_steps": 40,
        "ground_points": 16,
        "pair_points": 8,
        "hierarchy_points": 16,
        "quad_points": 6,
    },
}


def _scenario(experiment: str, seed: int, prefix: str, **fields) -> dict:
    return {
        "schema_version": "1",
        "experiment": experiment,
        "seed": seed,
        "output": {"dir": "out", "prefix": prefix},
        **fields,
    }


def _gaussian(rng: random.Random, v0: tuple[float, float], width: tuple[float, float]) -> dict:
    return {"kind": "gaussian", "v0": rng.uniform(*v0), "width": rng.uniform(*width)}


def manybody_1d(rng: random.Random, seed: int, size: dict) -> list[Job]:
    dt = 1e-3
    config = _scenario(
        "manybody",
        seed,
        "manybody",
        potential=_gaussian(rng, (1.0, 3.0), (0.3, 0.6)),
        grid={"dim": 1, "points_per_axis": size["manybody_points"], "box_length": 8.0},
        particles=3,
        time={"t_final": size["manybody_steps"] * dt, "dt": dt},
        coupling={"mode": "born"},
    )
    return [Job("manybody", "cli", config=config)]


def chain_3d(rng: random.Random, seed: int, size: dict) -> list[Job]:
    drawn = _gaussian(rng, (1.5, 3.0), (0.4, 0.6))
    scatter = _scenario(
        "scatter", seed, "scatter", potential=drawn, scaling_N=[1, 4, 16, 64, 256]
    )
    ground = _scenario(
        "gp_groundstate",
        seed,
        "groundstate",
        potential={"kind": "gaussian", "v0": 2.0, "width": 0.5},
        trap={"kind": "harmonic", "omega": 1.0},
        grid={"dim": 3, "points_per_axis": size["ground_points"], "box_length": 16.0},
        coupling={"mode": "from_scattering"},
    )
    pair = {
        "potential": {"v0": drawn["v0"], "width": drawn["width"]},
        "scaling": 4,
        "points": size["pair_points"],
        "box": 6.0,
        "width": 1.2,
    }
    return [
        Job("scatter", "cli", config=scatter),
        Job("groundstate", "cli", config=ground),
        Job("pair_correlation", "lib", pipeline="pair_correlation", params=pair),
    ]


def hierarchy_1d(rng: random.Random, seed: int, size: dict) -> list[Job]:
    points = size["hierarchy_points"]
    hierarchy = _scenario(
        "hierarchy",
        seed,
        "hierarchy",
        grid={"dim": 1, "points_per_axis": points, "box_length": 8.0},
        time={"t_final": 0.05, "dt": 1e-3},
        coupling={"mode": "explicit", "value": rng.uniform(0.15, 0.3)},
    )
    series = {
        "sigma": rng.uniform(0.15, 0.3),
        "points": points,
        "box": 8.0,
        "t_series": 0.05,
        "quad_points": size["quad_points"],
        "pair": {"v0": rng.uniform(1.5, 2.5), "width": rng.uniform(0.4, 0.6)},
        "t_marginal": 0.1,
        "dts": [2e-3, 1e-3],
    }
    return [
        Job("hierarchy", "cli", config=hierarchy),
        Job("series_and_marginals", "lib", pipeline="series_and_marginals", params=series),
    ]


def make_jobs(workload: str, seed: int, scale: str = "full") -> list[Job]:
    generators = {"manybody_1d": manybody_1d, "chain_3d": chain_3d, "hierarchy_1d": hierarchy_1d}
    return generators[workload](random.Random(f"{workload}:{seed}"), seed, SIZES[scale])

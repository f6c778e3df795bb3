"""Self-check of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

Runs every workload at the "tiny" scale of workloads.py, once untraced and
twice traced with the same seed, and checks that

- every metric named in BENCHMARK.json is emitted, with its unit, in the
  mode that reports it, and every job passes its output checks;
- traced counts match closed forms: `manybody.evolve_manybody.steps` is
  round(t_final/dt); every evolve step makes 4 FFTs of its own; under
  `dyson_term` at k = 1, `free_evolve` is called 5 Q times per order-1 term
  and 33 Q^2 times per order-2 term (Q quadrature points per axis);
- counts repeat exactly between the two traced runs.

A wrapper that silently stops seeing calls (an import moved, FFTs moved to
another module) breaks one of these.  Exits 1 and lists what failed.
"""

from __future__ import annotations

import json

from run import ROOT, run_workload
from tracer import JobTrace
from workloads import WORKLOADS, make_jobs

SEED = 7
COUNT_SUFFIXES = (
    ".calls", ".steps", ".points", ".energy_evals", ".mesh_nodes", ".bytes_computed",
    ".free_evolve_per_node", ".state_bytes",
)


def _closed_forms(workload: str, traces: dict[str, JobTrace]) -> list[str]:
    problems = []
    for job_name, trace in traces.items():
        steps = trace.qty_sum("manybody.evolve_manybody", 0)
        ffts = trace.op_totals("fft", span="manybody.evolve_manybody")[0]
        if ffts != 4 * steps:
            problems.append(f"{job_name}: {ffts} FFTs in evolve_manybody for {steps} steps")
        children: dict[int, int] = {}
        for span in trace.spans:
            if span[0] == "grids.free_evolve" and span[3] >= 0:
                children[span[3]] = children.get(span[3], 0) + 1
        for i in trace.indices("hierarchy.dyson_term"):
            order, quad = trace.spans[i][4]
            expected = {0: 0, 1: 5 * quad, 2: 33 * quad**2}[order]
            if children.get(i, 0) != expected:
                problems.append(
                    f"{job_name}: dyson_term m={order} Q={quad} made {children.get(i, 0)} "
                    f"free_evolve calls, expected {expected}"
                )
    if workload == "manybody_1d":
        config = make_jobs(workload, SEED, "tiny")[0].config
        expected = round(config["time"]["t_final"] / config["time"]["dt"])
        steps = traces["manybody"].qty_sum("manybody.evolve_manybody", 0)
        if steps != expected:
            problems.append(f"manybody: {steps} evolve steps, expected {expected}")
    if workload == "hierarchy_1d" and not traces["series_and_marginals"].indices("hierarchy.dyson_term"):
        problems.append("series_and_marginals: no dyson_term spans seen")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if set(spec_names := [w["name"] for w in spec["workloads"]]) != set(WORKLOADS):
        print(f"BENCHMARK.json workloads {spec_names} differ from {list(WORKLOADS)}")
        return 1
    problems: list[str] = []
    for workload in WORKLOADS:
        plain = run_workload(workload, SEED, 0, trace=False, scale="tiny")
        first = run_workload(workload, SEED, 0, trace=True, scale="tiny")
        second = run_workload(workload, SEED, 0, trace=True, scale="tiny")
        for record, expected, mode in ((plain, e2e, 0), (first, layers, 1)):
            emitted = {name: record["units"][name] for name in record["metrics"]}
            if emitted != expected:
                missing = sorted(set(expected) - set(emitted))
                extra = sorted(set(emitted) - set(expected))
                wrong = sorted(n for n in set(expected) & set(emitted) if emitted[n] != expected[n])
                problems.append(
                    f"{workload} trace {mode}: missing {missing}, extra {extra}, wrong unit {wrong}"
                )
        for record in (plain, first, second):
            for where, failures in record["failures"].items():
                problems.append(f"{workload} {where}: {'; '.join(failures)}")
        for name, value in first["metrics"].items():
            if name.endswith(COUNT_SUFFIXES) and value != second["metrics"][name]:
                problems.append(f"{workload}: {name} was {value} then {second['metrics'][name]}")
        problems += [f"{workload}: {p}" for p in _closed_forms(workload, first["traces"])]
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-check passed" if not problems else f"self-check failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())

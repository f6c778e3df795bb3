"""gplab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a gplab checkout; the jobs import gplab from `src/`.
The loop is closed: one job process at a time, every job at `--threads 1`
(the CLI default), each `gplab run` job in its own process as users run it,
so no in-process cache carries over between jobs.  A pass runs every job of
the workload once.  Before the first pass, one process imports every layer
module, which fills the page cache and writes bytecode as a user's earlier
runs would; then passes repeat until the next one would end past
`--seconds` (at least one), and each end-to-end metric is the median over
passes:

- wall_s: from launching the first job of a pass to the exit of the last;
  every output check must pass, so this is time to a checked solution.
- setup_s: summed over the jobs of a pass, from process launch until the job
  enters `gplab.cli.run` (or its first layer call, for library jobs).
- peak_rss_mb: the largest peak RSS of any job process in the pass.

Jobs failed over jobs attempted (fail_ratio) is printed and carried by the
`attempted` and `failed` fields of the result line.  With `--trace 1` the
run makes one untraced pass and then one traced pass, and reports the
per-layer metrics of the traced pass (see tracer.py) plus trace_overhead_s,
the traced wall time minus the untraced median.

The last line of standard output is the JSON result; the full record, with
the run context, is also written to `.perfbench-work/<workload>-seed<N>/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from checks import CHECKS
from tracer import PER_LAYER_METRICS, JobTrace, job_metrics, state_bytes
from workloads import WORKLOADS, Job, make_jobs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench-work"
E2E_METRICS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DEADLINE_S = 170.0  # every run, traced or not, must end within 180 s
LAYER_IMPORTS = "import gplab." + ", gplab.".join(
    ("cli", "config", "gp", "grids", "hierarchy", "manybody", "potential", "scattering")
)


@dataclass
class JobResult:
    name: str
    kind: str
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    cpu_s: float
    out_bytes: int
    failures: list[str]
    trace: JobTrace | None = None


@dataclass
class PassResult:
    wall_s: float
    jobs: list[JobResult] = field(default_factory=list)

    @property
    def setup_s(self) -> float:
        return sum(j.setup_s for j in self.jobs)

    @property
    def peak_rss_mb(self) -> float:
        return max(j.peak_rss_mb for j in self.jobs)

    @property
    def failed(self) -> int:
        return sum(1 for j in self.jobs if j.failures)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap the child with its resource usage; kill it after `timeout` s."""
    expired = threading.Event()

    def kill() -> None:
        expired.set()
        proc.kill()

    timer = threading.Timer(max(timeout, 0.0), kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.waitpid(proc.pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, expired.is_set()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(jobs: list[Job], pass_dir: Path, trace: bool, deadline: float) -> PassResult:
    env = _child_env()
    specs = []
    for index, job in enumerate(jobs):
        job_dir = pass_dir / f"{index}-{job.name}"
        (job_dir / "out").mkdir(parents=True)
        spec = {"kind": job.kind, "trace": trace, "result": str(job_dir / "result.json")}
        if job.kind == "cli":
            config_path = job_dir / "config.json"
            config_path.write_text(json.dumps(job.config, indent=1))
            spec["config"] = str(config_path)
        else:
            spec.update(pipeline=job.pipeline, params=job.params)
        (job_dir / "job.json").write_text(json.dumps(spec))
        specs.append((job, job_dir, dict(env, GPLAB_OUTPUT_DIR=str(job_dir / "out"))))

    raw = []
    for job, job_dir, job_env in specs:
        with (job_dir / "job.log").open("wb") as log:
            launched = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "job.py"), str(job_dir / "job.json")],
                env=job_env,
                stdout=log,
                stderr=subprocess.STDOUT,
                cwd=str(job_dir),
            )
            code, usage, timed_out = _wait(proc, deadline - launched)
            ended = time.monotonic()
        raw.append((job, job_dir, launched, ended, code, usage, timed_out))
    result = PassResult(wall_s=raw[-1][3] - raw[0][2])

    # checks run after the timed window
    for job, job_dir, launched, ended, code, usage, timed_out in raw:
        failures, setup, trace_view = [], 0.0, None
        record: dict = {}
        if timed_out:
            failures.append("timed out")
        elif code != 0:
            failures.append(f"exit code {code}")
        try:
            record = json.loads((job_dir / "result.json").read_text())
            setup = record["t_ready"] - launched
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"no result record ({exc!r})")
        if not failures:
            try:
                failures += CHECKS[job.name](job.config, job_dir / "out", record.get("outputs", {}))
            except (OSError, ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
                failures.append(f"output check could not run ({exc!r})")
        if "trace" in record:
            trace_view = JobTrace(record["trace"])
        result.jobs.append(
            JobResult(
                name=job.name,
                kind=job.kind,
                wall_s=ended - launched,
                setup_s=setup,
                peak_rss_mb=usage.ru_maxrss / 1024.0,
                cpu_s=usage.ru_utime + usage.ru_stime,
                out_bytes=_dir_bytes(job_dir / "out") if job.kind == "cli" else 0,
                failures=failures,
                trace=trace_view,
            )
        )
    return result


def layer_metrics(traced: PassResult, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of the traced pass, summed over its jobs."""
    totals: dict[str, float] = {}
    for job in traced.jobs:
        if job.trace is None:
            continue
        for name, value in job_metrics(job.trace).items():
            totals[name] = totals.get(name, 0) + value
    metrics = {name: totals.get(name, 0) for name in PER_LAYER_METRICS}
    metrics["cli.out_bytes"] = sum(j.out_bytes for j in traced.jobs if j.kind == "cli")
    metrics["cli.cpu_s"] = sum(j.cpu_s for j in traced.jobs if j.kind == "cli")
    point_steps = totals.get("_gp_point_steps", 0)
    if point_steps:
        metrics["gp.evolve_gp.ns_per_point_step"] = 1e9 * totals["gp.evolve_gp.self_s"] / point_steps
    amplitude_steps = totals.get("_mb_amplitude_steps", 0)
    if amplitude_steps:
        metrics["manybody.evolve_manybody.ns_per_amplitude_step"] = (
            1e9 * totals["manybody.evolve_manybody.self_s"] / amplitude_steps
        )
    if totals.get("_m2_nodes"):
        metrics["hierarchy.free_evolve_per_node"] = totals["_m2_free_evolve"] / totals["_m2_nodes"]
    sized = [(state_bytes(j.trace), j.peak_rss_mb) for j in traced.jobs if j.trace is not None]
    metrics["manybody.state_bytes"] = max((b for b, _ in sized), default=0)
    metrics["manybody.rss_per_state"] = max(
        (rss * 2**20 / b for b, rss in sized if b > 0), default=0
    )
    metrics["trace_overhead_s"] = traced.wall_s - untraced_wall
    return metrics


def _command(args: list[str]) -> str:
    try:
        done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout if done.returncode == 0 else ""


def run_context(seed: int, samples: dict[str, int]) -> dict:
    mem_total = ""
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_total = line.split(":", 1)[1].strip()
    except OSError:
        pass
    caches = {}
    for line in _command(["lscpu"]).splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip()] = value.strip()
    versions = {"python": platform.python_version()}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = "missing"
    commit = _command(["git", "rev-parse", "HEAD"]).strip() if (ROOT / ".git").exists() else ""
    dirty = bool(_command(["git", "status", "--porcelain"]).strip()) if commit else None
    return {
        "nproc": os.cpu_count(),
        "mem_total": mem_total,
        **caches,
        **versions,
        "thread_env": {var: _child_env()[var] for var in THREAD_VARS},
        "job_threads": 1,
        "git_commit": commit or "unknown",
        "git_dirty": dirty,
        "seed": seed,
        "samples": samples,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full") -> dict:
    """Run the passes of one workload; return metrics, counts and context."""
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    work = WORK_DIR / f"{workload}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    jobs = make_jobs(workload, seed, scale)
    subprocess.run([sys.executable, "-c", LAYER_IMPORTS], env=_child_env(), timeout=60)
    measured = time.monotonic()
    passes: list[PassResult] = []
    while True:
        pass_dir = work / f"pass{len(passes)}"
        passes.append(run_pass(jobs, pass_dir, trace=False, deadline=deadline))
        shutil.rmtree(pass_dir)
        elapsed = time.monotonic() - measured
        if trace or elapsed + passes[-1].wall_s > seconds:
            break
    record: dict = {"workload": workload, "scale": scale}
    everything = list(passes)
    if trace:
        traced = run_pass(jobs, work / "traced", trace=True, deadline=deadline)
        everything.append(traced)
        untraced_wall = statistics.median(p.wall_s for p in passes)
        record["metrics"] = layer_metrics(traced, untraced_wall)
        record["units"] = PER_LAYER_METRICS
        record["traces"] = {j.name: j.trace for j in traced.jobs}
    else:
        record["metrics"] = {
            name: statistics.median(getattr(p, name) for p in passes) for name in E2E_METRICS
        }
        record["units"] = E2E_METRICS
    record["attempted"] = sum(len(p.jobs) for p in everything)
    record["failed"] = sum(p.failed for p in everything)
    record["failures"] = {
        f"pass{i}/{j.name}": j.failures for i, p in enumerate(everything) for j in p.jobs if j.failures
    }
    # the traced pass, if any, is last
    record["passes"] = [
        {
            "wall_s": p.wall_s,
            "setup_s": p.setup_s,
            "peak_rss_mb": p.peak_rss_mb,
            "jobs": {j.name: {"wall_s": j.wall_s, "setup_s": j.setup_s, "peak_rss_mb": j.peak_rss_mb} for j in p.jobs},
        }
        for p in everything
    ]
    record["context"] = run_context(seed, {"untraced_passes": len(passes), "traced_passes": int(trace)})
    work.mkdir(parents=True, exist_ok=True)
    saved = {k: v for k, v in record.items() if k != "traces"}
    (work / f"result-trace{int(trace)}.json").write_text(json.dumps(saved, indent=1) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gplab" / "__init__.py").is_file():
        print(f"error: no gplab sources at {ROOT / 'src' / 'gplab'}", file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics, units = record["metrics"], record["units"]
    n = record["context"]["samples"]
    print(f"workload {args.workload}, seed {args.seed}: {n['untraced_passes']} untraced and "
          f"{n['traced_passes']} traced pass(es)")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:.6g} {units[name]}")
    ratio = record["failed"] / record["attempted"]
    print(f"  {'fail_ratio':48s} {ratio:.6g} ({record['failed']} of {record['attempted']} jobs)")
    for where, failures in record["failures"].items():
        print(f"  FAILED {where}: {'; '.join(failures)}")
    print("context " + json.dumps(record["context"], sort_keys=True))
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

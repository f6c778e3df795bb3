"""Span tracer and FFT/kron counters installed around gplab from outside.

`install()` wraps every public function of each layer module, plus a few
layer methods, by rebinding the name in every loaded `gplab` module that
binds it (``hierarchy`` binds ``free_evolve`` through ``from .grids import``;
``cli`` imports inside its runners, which read the module attribute at call
time).  Each call records a span ``[name, start, end, parent, qty]``;
``qty`` carries the work a few functions are asked to do (steps, points,
series order).  FFT entry points of ``numpy.fft`` and ``scipy.fft`` and
``numpy.kron`` are counted against the innermost open span.

Spans stay in memory and are written once, when the job ends.  `job_metrics`
turns the spans of one job into the per-layer metrics named in
`PER_LAYER_METRICS`; `run.py` sums them over the jobs of the traced pass.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYER_MODULES = ("potential", "scattering", "grids", "gp", "manybody", "hierarchy", "config", "cli")

# (module, class, method, span name)
LAYER_METHODS = (
    ("potential", "PotentialModel", "__call__", "potential.eval"),
    ("potential", "TrapModel", "sample", "potential.trap_sample"),
    ("scattering", "ScatteringSolution", "f", "scattering.f"),
    ("grids", "GridSpec", "k_squared_mesh", "grids.k_squared_mesh"),
    ("grids", "GridSpec", "coordinate_mesh", "grids.coordinate_mesh"),
)

FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft", "rfft2", "irfft2",
    "rfftn", "irfftn", "hfft", "ihfft",
)
FFT_BYTES_PER_POINT = 32  # complex128 read and written once per transform, as computed
FFT_LAYERS = ("grids", "gp", "manybody", "hierarchy")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _steps(t: float, dt: float) -> int:
    # the step rule shared by gp.evolve_gp and manybody.evolve_manybody
    return 0 if t == 0.0 else max(1, int(round(abs(t) / dt)))


def _size(value) -> int:
    import numpy as np

    return int(np.size(value))


# qty hooks: (args, kwargs, result) -> number or tuple, recorded on the span
def _evolve_gp_qty(args, kwargs, result):
    return (_steps(_arg(args, kwargs, 2, "t"), _arg(args, kwargs, 3, "dt")), result.values.size)


def _evolve_manybody_qty(args, kwargs, result):
    return (_steps(_arg(args, kwargs, 3, "t"), _arg(args, kwargs, 4, "dt")), result.values.size)


def _state_qty(args, kwargs, result):
    return result.values.nbytes


def _dyson_qty(args, kwargs, result):
    quad = args[4] if len(args) > 4 else kwargs.get("quad_points", 16)
    return (_arg(args, kwargs, 2, "m"), quad)


QTY_HOOKS = {
    "potential.eval": lambda args, kwargs, result: _size(args[1]),
    "scattering.f": lambda args, kwargs, result: _size(args[1]),
    "scattering.solve_zero_energy": lambda args, kwargs, result: len(result.radii),
    "gp.evolve_gp": _evolve_gp_qty,
    "manybody.evolve_manybody": _evolve_manybody_qty,
    "manybody.product_state": _state_qty,
    "manybody.jastrow_product_state": _state_qty,
    "hierarchy.dyson_term": _dyson_qty,
}


class Tracer:
    """Spans and counters of one job process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        # (innermost span name or "", "fft" | "kron") -> [calls, points, seconds]
        self.ops: dict[tuple[str, str], list] = {}

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = QTY_HOOKS.get(name)

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                record[4] = hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, op: str, fn):
        spans, stack, ops, clock = self.spans, self.stack, self.ops, time.perf_counter

        def counted(a, *args, **kwargs):
            start = clock()
            out = fn(a, *args, **kwargs)
            elapsed = clock() - start
            key = (spans[stack[-1]][0] if stack else "", op)
            entry = ops.get(key)
            if entry is None:
                entry = ops[key] = [0, 0, 0.0]
            entry[0] += 1
            entry[1] += _size(a)
            entry[2] += elapsed
            return out

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Wrap the layer functions, the layer methods, FFTs and kron."""
        import numpy as np
        import scipy.fft

        modules = {name: importlib.import_module(f"gplab.{name}") for name in LAYER_MODULES}
        loaded = [m for key, m in sys.modules.items() if key == "gplab" or key.startswith("gplab.")]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", obj)
                for other in loaded:
                    for bound, value in list(vars(other).items()):
                        if value is obj:
                            setattr(other, bound, traced)
        for layer, cls_name, method, span in LAYER_METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, method, self.wrap(span, getattr(cls, method)))
        for name in FFT_NAMES:
            setattr(np.fft, name, self.count("fft", getattr(np.fft, name)))
            setattr(scipy.fft, name, self.count("fft", getattr(scipy.fft, name)))
        np.kron = self.count("kron", np.kron)

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "ops": [[span, op, *values] for (span, op), values in self.ops.items()],
        }


# --- aggregation ----------------------------------------------------------

PER_LAYER_METRICS = {
    "cli.run.s": "s",
    "cli.self_s": "s",
    "cli.out_bytes": "B",
    "cli.cpu_s": "s",
    "config.load_config.s": "s",
    "potential.eval.calls": "count",
    "potential.eval.points": "count",
    "potential.eval.s": "s",
    "potential.trap_sample.calls": "count",
    "potential.trap_sample.s": "s",
    "potential.born_coupling.s": "s",
    "potential.alpha_strength.s": "s",
    "scattering.solve_zero_energy.calls": "count",
    "scattering.solve_zero_energy.s": "s",
    "scattering.mesh_nodes": "count",
    "scattering.f.points": "count",
    "scattering.f.s": "s",
    "scattering.coupling_sigma.s": "s",
    "grids.k_squared_mesh.calls": "count",
    "grids.k_squared_mesh.s": "s",
    "grids.coordinate_mesh.calls": "count",
    "grids.coordinate_mesh.s": "s",
    "grids.free_evolve.calls": "count",
    "grids.free_evolve.s": "s",
    "gp.evolve_gp.calls": "count",
    "gp.evolve_gp.s": "s",
    "gp.evolve_gp.self_s": "s",
    "gp.evolve_gp.steps": "count",
    "gp.evolve_gp.ns_per_point_step": "ns",
    "gp.minimize_gp.s": "s",
    "gp.minimize_gp.self_s": "s",
    "gp.minimize_gp.energy_evals": "count",
    "gp.gp_energy.calls": "count",
    "gp.gp_energy.s": "s",
    "manybody.evolve_manybody.s": "s",
    "manybody.evolve_manybody.self_s": "s",
    "manybody.evolve_manybody.steps": "count",
    "manybody.evolve_manybody.ns_per_amplitude_step": "ns",
    "manybody.energy_moment.calls": "count",
    "manybody.energy_moment.s": "s",
    "manybody.total_potential.calls": "count",
    "manybody.total_potential.s": "s",
    "manybody.pair_displacement_distance.calls": "count",
    "manybody.pair_displacement_distance.s": "s",
    "manybody.marginal.calls": "count",
    "manybody.marginal.s": "s",
    "manybody.jastrow_product_state.s": "s",
    "manybody.correlation_quotient.calls": "count",
    "manybody.correlation_quotient.s": "s",
    "manybody.state_bytes": "B",
    "manybody.rss_per_state": "ratio",
    "hierarchy.dyson_term.calls": "count",
    "hierarchy.dyson_term.m1.s": "s",
    "hierarchy.dyson_term.m2.s": "s",
    "hierarchy.free_evolve_per_node": "count",
    "hierarchy.kron.calls": "count",
    "hierarchy.kron.s": "s",
    "hierarchy.infinite_hierarchy_residual.s": "s",
    "hierarchy.bbgky_residual.s": "s",
    "hierarchy.kinetic_commutator.calls": "count",
    "hierarchy.kinetic_commutator.s": "s",
    "hierarchy.sobolev_trace_norm.s": "s",
    "hierarchy.factorized_kernel.s": "s",
}
for _layer in FFT_LAYERS:
    PER_LAYER_METRICS.update(
        {
            f"{_layer}.fft.calls": "count",
            f"{_layer}.fft.points": "count",
            f"{_layer}.fft.s": "s",
            f"{_layer}.fft.bytes_computed": "B",
        }
    )
PER_LAYER_METRICS["trace_overhead_s"] = "s"


class JobTrace:
    """Derived views of one job's spans: durations, self times, outermost flags."""

    def __init__(self, dump: dict) -> None:
        self.spans = dump["spans"]
        self.ops = dump["ops"]
        n = len(self.spans)
        self.duration = [s[2] - s[1] for s in self.spans]
        child_time = [0.0] * n
        for s, d in zip(self.spans, self.duration):
            if s[3] >= 0:
                child_time[s[3]] += d
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(self.spans):
            self.by_name.setdefault(s[0], []).append(i)
        # a span is outermost when no ancestor carries the same name, so
        # inclusive times never count a nested call twice
        self.outermost = []
        for s in self.spans:
            parent = s[3]
            while parent >= 0 and self.spans[parent][0] != s[0]:
                parent = self.spans[parent][3]
            self.outermost.append(parent < 0)

    def indices(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.indices(name))

    def inclusive(self, name: str) -> float:
        return sum(self.duration[i] for i in self.indices(name) if self.outermost[i])

    def self_s(self, name: str) -> float:
        return sum(self.self_time[i] for i in self.indices(name))

    def layer_self_s(self, layer: str) -> float:
        return sum(t for s, t in zip(self.spans, self.self_time) if s[0].split(".")[0] == layer)

    def qty_sum(self, name: str, part: int | None = None) -> float:
        total = 0
        for i in self.indices(name):
            qty = self.spans[i][4]
            total += qty if part is None else qty[part]
        return total

    def children_named(self, parent_name: str, child_name: str, qty_filter=None) -> int:
        """Calls of `child_name` whose nearest traced ancestor is a
        `parent_name` span (optionally one whose qty passes the filter)."""
        count = 0
        for s in self.spans:
            if s[0] != child_name or s[3] < 0:
                continue
            parent = self.spans[s[3]]
            if parent[0] == parent_name and (qty_filter is None or qty_filter(parent[4])):
                count += 1
        return count

    def op_totals(self, op: str, layer: str | None = None, span: str | None = None) -> list:
        calls, points, seconds = 0, 0, 0.0
        for span_name, kind, c, p, s in self.ops:
            if kind != op:
                continue
            if span is not None and span_name != span:
                continue
            if layer is not None and span_name.split(".")[0] != layer:
                continue
            calls, points, seconds = calls + c, points + p, seconds + s
        return [calls, points, seconds]


def job_metrics(trace: JobTrace) -> dict[str, float]:
    """Per-layer metrics of one job that add up across the jobs of a pass."""
    m: dict[str, float] = {}
    for name in PER_LAYER_METRICS:
        parts = name.rsplit(".", 1)
        if len(parts) == 2 and parts[1] in ("calls", "s") and parts[0].count(".") == 1:
            span = parts[0]
            m[name] = trace.calls(span) if parts[1] == "calls" else trace.inclusive(span)
    for span in ("gp.evolve_gp", "gp.minimize_gp", "manybody.evolve_manybody"):
        m[f"{span}.self_s"] = trace.self_s(span)
    m["cli.self_s"] = trace.layer_self_s("cli")
    m["potential.eval.points"] = trace.qty_sum("potential.eval")
    m["scattering.f.points"] = trace.qty_sum("scattering.f")
    m["scattering.mesh_nodes"] = trace.qty_sum("scattering.solve_zero_energy")
    m["gp.evolve_gp.steps"] = trace.qty_sum("gp.evolve_gp", 0)
    m["manybody.evolve_manybody.steps"] = trace.qty_sum("manybody.evolve_manybody", 0)
    m["gp.minimize_gp.energy_evals"] = trace.children_named("gp.minimize_gp", "gp.gp_energy")
    dyson = trace.indices("hierarchy.dyson_term")
    for order in (1, 2):
        m[f"hierarchy.dyson_term.m{order}.s"] = sum(
            trace.duration[i] for i in dyson if trace.spans[i][4][0] == order
        )
    # work terms for the ratio metrics, divided out once the pass is summed
    m["_gp_point_steps"] = sum(
        q[0] * q[1] for q in (trace.spans[i][4] for i in trace.indices("gp.evolve_gp"))
    )
    m["_mb_amplitude_steps"] = sum(
        q[0] * q[1] for q in (trace.spans[i][4] for i in trace.indices("manybody.evolve_manybody"))
    )
    m["_m2_nodes"] = sum(trace.spans[i][4][1] ** 2 for i in dyson if trace.spans[i][4][0] == 2)
    m["_m2_free_evolve"] = trace.children_named(
        "hierarchy.dyson_term", "grids.free_evolve", lambda q: q[0] == 2
    )
    for layer in FFT_LAYERS:
        calls, points, seconds = trace.op_totals("fft", layer=layer)
        m[f"{layer}.fft.calls"] = calls
        m[f"{layer}.fft.points"] = points
        m[f"{layer}.fft.s"] = seconds
        m[f"{layer}.fft.bytes_computed"] = FFT_BYTES_PER_POINT * points
    calls, _, seconds = trace.op_totals("kron", layer="hierarchy")
    m["hierarchy.kron.calls"] = calls
    m["hierarchy.kron.s"] = seconds
    return m


def state_bytes(trace: JobTrace) -> int:
    """Largest many-body state built or evolved by the job."""
    sizes = [
        trace.spans[i][4]
        for name in ("manybody.product_state", "manybody.jastrow_product_state")
        for i in trace.indices(name)
    ]
    sizes += [16 * q[1] for q in (trace.spans[i][4] for i in trace.indices("manybody.evolve_manybody"))]
    return max(sizes, default=0)

"""Spans at relbec's module boundaries, recorded from the benchmark's side.

Each public function is wrapped under the name its calling module looks
it up by (cli -> solver -> quadrature -> the statistics kernel it calls,
plus limits and oracle), so the program itself is not edited. A span is
[id, parent id, part, layer, name, start ns, end ns, extra]; spans stay in
memory and are written out when the run ends. The statistics kernel runs
once per quadrature panel, far too often to keep a span each: its calls,
nodes and time are folded into the enclosing quadrature span's extra.
"""
import importlib
import statistics
import time
import tracemalloc

import numpy as np

# (module whose global is replaced, name it looks the function up by, layer)
BOUNDARIES = [
    ("relbec.cli", "solve_mu", "solver"),
    ("relbec.cli", "critical_temperature", "solver"),
    ("relbec.cli", "condensed_solution", "solver"),
    ("relbec.cli", "density_ratio", "solver"),
    ("relbec.cli", "universal_curves", "solver"),
    ("relbec.cli", "thermal_charge_density", "quadrature"),
    ("relbec.cli", "momentum_profile", "statistics"),
    ("relbec.cli", "ddim_critical_temperature", "limits"),
    ("relbec.cli", "ur_critical_temperature", "limits"),
    ("relbec.cli", "ur_density_ratio", "limits"),
    ("relbec.cli", "suggest_cutoff", "oracle"),
    ("relbec.cli", "mode_sum", "oracle"),
    ("relbec.solver", "solve_mu", "solver"),
    ("relbec.solver", "critical_temperature", "solver"),
    ("relbec.solver", "thermal_charge_density", "quadrature"),
    # the benchmark's own look-ups (eos-grid and oracle workers)
    ("relbec.quadrature", "thermal_charge_density", "quadrature"),
    ("relbec.oracle", "suggest_cutoff", "oracle"),
    ("relbec.oracle", "mode_sum", "oracle"),
]
KERNELS = [("relbec.quadrature", "_weighted_occupations"),
           ("relbec.quadrature", "charge_integrand")]

EOS = "quadrature.thermal_charge_density"


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.part = "workload"
        self.saved = []

    def _open(self, layer, name, extra):
        parent = self.stack[-1][0] if self.stack else None
        span = [len(self.spans), parent, self.part, layer, name,
                time.perf_counter_ns(), None, extra]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span[6] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, layer):
        name = f"{layer}.{fn.__name__}"
        tracer = self

        def wrapped(*args, **kwargs):
            extra = {}
            if name == EOS:
                extra = {"kernel_calls": 0, "kernel_nodes": 0, "kernel_ns": 0}
            span = tracer._open(layer, name, extra)
            try:
                if name == "oracle.mode_sum":
                    extra["shells"] = args[1].mode_cutoff ** 2
                    tracemalloc.start()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        extra["peak_alloc_bytes"] = \
                            tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return wrapped

    def _wrap_kernel(self, fn):
        stack = self.stack
        clock = time.perf_counter_ns

        def wrapped(k, phase):
            start = clock()
            out = fn(k, phase)
            elapsed = clock() - start
            if stack and stack[-1][4] == EOS:
                extra = stack[-1][7]
                extra["kernel_calls"] += 1
                extra["kernel_nodes"] += int(np.size(k))
                extra["kernel_ns"] += elapsed
            return out

        return wrapped

    def install(self):
        for module, attr, layer in BOUNDARIES:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self.saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, layer))
        for module, attr in KERNELS:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr)
            self.saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap_kernel(fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self.saved):
            setattr(mod, attr, fn)
        self.saved = []

    def call_main(self, main, argv):
        from worker import cli_in_process
        span = self._open("cli", "cli.main", {})
        try:
            return cli_in_process(main, argv)
        finally:
            self._close(span)


def kernel_ns_per_node(nodes=1_000_000, repeats=7):
    """Median time of charge_integrand over `nodes` momenta on [0, 40] at
    (t, mu) = (1, 0.5), where all three occupation branches are taken."""
    from relbec import PhasePoint
    from relbec.statistics import charge_integrand
    k = np.linspace(0.0, 40.0, nodes)
    phase = PhasePoint(1.0, 0.5)
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        charge_integrand(k, phase)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / nodes


def merge(span_lists):
    """Concatenate the spans of several processes with fresh ids."""
    merged = []
    for spans in span_lists:
        base = len(merged)
        for s in spans:
            merged.append([s[0] + base, None if s[1] is None else s[1] + base,
                           *s[2:]])
    return merged


def _mean(values):
    return sum(values) / len(values) if values else None


def _part_metrics(spans):
    """Per-layer figures from one part's spans; None where the part has no
    span of the kind a figure needs."""
    by_id = {s[0]: s for s in spans}
    child_ns = {}
    for s in spans:
        if s[1] is not None:
            child_ns[s[1]] = child_ns.get(s[1], 0) + (s[6] - s[5])

    def dur(s):
        return s[6] - s[5]

    def self_ns(s):
        return dur(s) - child_ns.get(s[0], 0) - s[7].get("kernel_ns", 0)

    def named(name):
        return [s for s in spans if s[4] == name]

    def layer(name):
        return [s for s in spans if s[3] == name]

    # EOS calls under each span, counted along the ancestor chain
    eos_under = {}
    for s in named(EOS):
        parent = s[1]
        while parent is not None:
            eos_under[parent] = eos_under.get(parent, 0) + 1
            parent = by_id[parent][1]

    def eos_per(name):
        outer = [s for s in named(name) if not _has_ancestor(s, name, by_id)]
        return _mean([eos_under.get(s[0], 0) for s in outer])

    def mean_ms(name):
        return _mean([dur(s) / 1e6 for s in named(name)])

    eos = named(EOS)
    solver = layer("solver")
    limits = layer("limits")
    mains = named("cli.main")
    modes = named("oracle.mode_sum")
    return {
        "statistics.nodes_per_eos":
            _mean([s[7]["kernel_nodes"] for s in eos]),
        "statistics.calls_per_eos":
            _mean([s[7]["kernel_calls"] for s in eos]),
        "quadrature.eos_us": _mean([dur(s) / 1e3 for s in eos]),
        "quadrature.self_us": _mean([self_ns(s) / 1e3 for s in eos]),
        "quadrature.eos_calls": len(eos) or None,
        "solver.tc_ms": mean_ms("solver.critical_temperature"),
        "solver.mu_ms": mean_ms("solver.solve_mu"),
        "solver.ratio_ms": mean_ms("solver.density_ratio"),
        "solver.condensed_ms": mean_ms("solver.condensed_solution"),
        "solver.self_ms":
            sum(self_ns(s) for s in solver) / 1e6 if solver else None,
        "solver.eos_per_tc": eos_per("solver.critical_temperature"),
        "solver.eos_per_mu": eos_per("solver.solve_mu"),
        "solver.eos_per_ratio": eos_per("solver.density_ratio"),
        "limits.self_ms":
            sum(self_ns(s) for s in limits) / 1e6 if limits else None,
        "cli.main_self_ms": _mean([self_ns(s) / 1e6 for s in mains]),
        "oracle.cutoff_ms": mean_ms("oracle.suggest_cutoff"),
        "oracle.mode_sum_ms": mean_ms("oracle.mode_sum"),
        "oracle.shells": _mean([s[7]["shells"] for s in modes]),
        "oracle.peak_alloc_mb":
            max(s[7]["peak_alloc_bytes"] for s in modes) / 2 ** 20
            if modes else None,
    }


def _has_ancestor(span, name, by_id):
    parent = span[1]
    while parent is not None:
        if by_id[parent][4] == name:
            return True
        parent = by_id[parent][1]
    return False


def layer_metrics(spans):
    """Each figure from the workload's own spans where it has them, else
    from the probe's; returns (values, source of each)."""
    own = _part_metrics([s for s in spans if s[2] == "workload"])
    probe = _part_metrics([s for s in spans if s[2] == "probe"])
    values, source = {}, {}
    for name, value in own.items():
        if value is None:
            value, source[name] = probe[name], "probe"
        else:
            source[name] = "workload"
        values[name] = value
    return values, source

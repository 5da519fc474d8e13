"""In-memory spans around qtbs layer entry points, and per-layer metrics.

Tracing wraps module attributes from the outside, so the library carries
no tracing code: every call made through a wrapped attribute records a
span (name, start, end, parent) and, for some layers, counts read from the
returned object. An entry point that a refactor removed is reported as a
missing layer instead of failing the run.
"""
import importlib
from time import perf_counter

# (module, attribute, span name). Internal calls go through these names at
# call time: ``solver`` calls ``_kernel.solve`` and ``interned``/``_levels``
# through its own globals, the CLI, routing and planner through the names
# they imported. The benchmark itself calls the root entry points (cli.main,
# gradients.*, routing.max_rate_path, planner.*) through their modules.
ENTRY_POINTS = (
    ("qtbs.cli", "main", "cli.main"),
    ("qtbs.cli", "parse_network", "model.parse"),
    ("qtbs.cli", "validate", "model.validate"),
    ("qtbs.cli", "gradient_graph", "solver.gradient_graph"),
    ("qtbs.routing", "gradient_graph", "solver.gradient_graph"),
    ("qtbs.planner", "gradient_graph", "solver.gradient_graph"),
    ("qtbs.solver", "interned", "model.intern"),
    ("qtbs._kernel", "solve", "_kernel.solve"),
    ("qtbs.solver", "_levels", "solver.levels"),
    ("qtbs.gradients", "forward_grad", "gradients.forward_grad"),
    ("qtbs.planner", "forward_grad", "gradients.forward_grad"),
    ("qtbs.gradients", "gradient_bound", "gradients.bound"),
    ("qtbs.routing", "max_rate_path", "routing.max_rate_path"),
    ("qtbs.planner", "accelerate_flow", "planner.shape"),
    ("qtbs.planner", "taper_fold", "planner.taper"),
)
# Network construction is traced on the class: every derived network
# (with_flow, with_capacity, shapers) runs __post_init__.
NETWORK_BUILD = ("qtbs.model", "Network", "__post_init__", "model.network_build")


def _module(name):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class Tracer:
    """Records spans in memory; ``spans`` rows are [name, start, end, parent]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._undo = []
        self.missing = []

    def _count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _observe(self, name, out):
        """Counts taken from the objects the layers return."""
        if name == "solver.gradient_graph":
            graph = out.graph
            self._count("heap_pops", out.heap_pops)
            self._count("heap_updates", out.heap_updates)
            self._count("vertices", len(graph.link_ids) + len(graph.flow_ids))
            self._count("edges", 2 * len(graph.bottleneck_edges) + len(graph.traversal_edges))
        elif name == "gradients.forward_grad":
            self._count("visits", len(out.visit_order))
            self._count("nonzero_visits", sum(1 for v in out.visit_order if out.gradient(v) != 0.0))
        elif name == "planner.taper":
            self._count("taper_bisections", out.method == "bisection")

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            row[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter()
                stack.pop()
            self._observe(name, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        self.missing = []
        for module, attr, name in ENTRY_POINTS:
            self._patch(_module(module), attr, name, f"{module}.{attr}")
        module, cls, attr, name = NETWORK_BUILD
        owner = getattr(_module(module), cls, None)
        self._patch(owner, attr, name, f"{module}.{cls}.{attr}")

    def _patch(self, owner, attr, name, label):
        original = getattr(owner, attr, None)
        if not callable(original):
            self.missing.append(label)
            return
        setattr(owner, attr, self.wrap(name, original))
        self._undo.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self):
        """Total self time in seconds per span name, and span counts."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total, calls = {}, {}
        for (name, t0, t1, _), c in zip(self.spans, child):
            total[name] = total.get(name, 0.0) + (t1 - t0 - c)
            calls[name] = calls.get(name, 0) + 1
        return total, calls

    def calls_under(self, root, name):
        """Number of ``name`` spans that have a ``root`` span above them."""
        under = [False] * len(self.spans)
        n = 0
        for i, (span, _, _, parent) in enumerate(self.spans):
            under[i] = parent >= 0 and (under[parent] or self.spans[parent][0] == root)
            n += under[i] and span == name
        return n

    def dump(self):
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing}


def _per(n, d):
    return n / d if d else 0.0


# Which span a metric is read from; a metric whose span's entry point is
# missing is left out of the report.
_SOURCE = {
    "model.parse_ms": "qtbs.cli.parse_network",
    "model.validate_ms": "qtbs.cli.validate",
    "model.intern_ms": "qtbs.solver.interned",
    "model.network_builds": "qtbs.model.Network.__post_init__",
    "model.network_build_ms": "qtbs.model.Network.__post_init__",
    "kernel.solve_ms": "qtbs._kernel.solve",
    "solver.levels_ms": "qtbs.solver._levels",
    "routing.probes_per_route": "qtbs.routing.gradient_graph",
    "routing.self_ms": "qtbs.routing.max_rate_path",
    "planner.solves_per_shape": "qtbs.planner.gradient_graph",
    "planner.solves_per_taper": "qtbs.planner.gradient_graph",
    "planner.self_ms": "qtbs.planner.accelerate_flow",
    "gradients.bound_ms": "qtbs.gradients.gradient_bound",
    "cli.self_ms": "qtbs.cli.main",
}


def layer_metrics(tracer, n_ops, op_seconds, untraced_seconds, output_bytes):
    """Per-layer metrics of a traced phase of ``n_ops`` timed operations.

    Times (``*_ms``) are self time per timed operation, except
    ``gradients.bound_ms`` (per bound). Counts are per timed operation,
    except ``solver.vertices``/``edges`` (per structure built),
    ``gradients.visits`` (per ``forward_grad`` call) and the per-route,
    per-shape and per-taper figures. ``op_seconds`` is the traced phase's
    summed operation time and ``untraced_seconds`` the same operations
    replayed without tracing; their ratio is the tracing overhead, and
    the summed self times over ``op_seconds`` the coverage.
    """
    self_s, calls = tracer.self_times()
    c = tracer.counts

    def ms(name):
        return 1e3 * _per(self_s.get(name, 0.0), n_ops)

    solves = calls.get("solver.gradient_graph", 0)
    grads = calls.get("gradients.forward_grad", 0)
    shapes = calls.get("planner.shape", 0)
    tapers = calls.get("planner.taper", 0)
    values = {
        "model.parse_ms": ms("model.parse"),
        "model.validate_ms": ms("model.validate"),
        "model.intern_ms": ms("model.intern"),
        "model.network_builds": _per(calls.get("model.network_build", 0), n_ops),
        "model.network_build_ms": ms("model.network_build"),
        "kernel.solve_ms": ms("_kernel.solve"),
        "kernel.heap_pops": _per(c.get("heap_pops", 0), n_ops),
        "kernel.heap_updates": _per(c.get("heap_updates", 0), n_ops),
        "solver.structure_ms": ms("solver.gradient_graph"),
        "solver.levels_ms": ms("solver.levels"),
        "solver.vertices": _per(c.get("vertices", 0), solves),
        "solver.edges": _per(c.get("edges", 0), solves),
        "solver.gradient_graph_calls": _per(solves, n_ops),
        "routing.probes_per_route": _per(
            tracer.calls_under("routing.max_rate_path", "solver.gradient_graph"),
            calls.get("routing.max_rate_path", 0)),
        "routing.self_ms": ms("routing.max_rate_path"),
        "planner.solves_per_shape": _per(
            tracer.calls_under("planner.shape", "solver.gradient_graph"), shapes),
        "planner.solves_per_taper": _per(
            tracer.calls_under("planner.taper", "solver.gradient_graph"), tapers),
        "planner.taper_bisection_share": _per(c.get("taper_bisections", 0), tapers),
        "planner.self_ms": ms("planner.shape") + ms("planner.taper"),
        "gradients.forward_grad_calls": _per(grads, n_ops),
        "gradients.forward_grad_ms": ms("gradients.forward_grad"),
        "gradients.visits": _per(c.get("visits", 0), grads),
        "gradients.nonzero_visit_ratio": _per(c.get("nonzero_visits", 0), c.get("visits", 0)),
        "gradients.bound_ms": 1e3 * _per(self_s.get("gradients.bound", 0.0),
                                         calls.get("gradients.bound", 0)),
        "cli.self_ms": ms("cli.main"),
        "cli.output_bytes": _per(output_bytes, n_ops),
        "trace.overhead_ratio": _per(op_seconds, untraced_seconds),
        "trace.coverage": _per(sum(self_s.values()), op_seconds),
    }
    missing = set(tracer.missing)
    return {k: v for k, v in values.items() if _SOURCE.get(k) not in missing}

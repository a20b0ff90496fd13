"""Per-layer spans and counters for the traced run.

The package looks its collaborators up as module attributes at call time
(`cli.exact_connectivity`, `sensitivity.sym_eig`, ...), so replacing those
attributes with timing wrappers records a span at every layer boundary
without editing the package.  A span is (id, parent id, job, layer, kind,
start, end); a layer's self time is its spans' durations minus the part
their child spans cover, so the self times of all layers add up to the
wall time of the root `cli` span of each job.

Counters are recorded at the same boundaries.  Each is either *counted*
(read off an argument or a result, e.g. the number of exact calls) or
*computed* from the input size by a fixed formula (e.g. 2^m states per
support component).  Both depend only on the job list, so for a given
seed they repeat exactly from pass to pass and from run to run.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

from workloads import components

LAYERS = ("cli", "fileio", "graph", "exact", "montecarlo", "spectral", "bounds", "walks", "sensitivity")

# montecarlo.mc_connectivity defaults of the seed design: the per-state
# lookup table serves m <= 20, batched closure takes 65536-sample chunks
_TABLE_MAX_EDGES = 20
_MC_CHUNK = 1 << 16

# name -> (unit, better, kind); kind is measured, counted or computed
METRICS = {
    "cli.self_s": ("s", "lower", "measured"),
    "fileio.parse_s": ("s", "lower", "measured"),
    "fileio.json_s": ("s", "lower", "measured"),
    "fileio.self_s": ("s", "lower", "measured"),
    "fileio.json_bytes": ("B", "lower", "counted"),
    "graph.support_s": ("s", "lower", "measured"),
    "graph.self_s": ("s", "lower", "measured"),
    "exact.busy_s": ("s", "lower", "measured"),
    "exact.self_s": ("s", "lower", "measured"),
    "exact.calls": ("count", "lower", "counted"),
    "exact.states": ("count", "lower", "computed"),
    "exact.states_per_s": ("states/s", "higher", "measured"),
    "sensitivity.busy_s": ("s", "lower", "measured"),
    "sensitivity.self_s": ("s", "lower", "measured"),
    "sensitivity.candidates": ("count", "lower", "counted"),
    "sensitivity.exact_calls": ("count", "lower", "counted"),
    "montecarlo.busy_s": ("s", "lower", "measured"),
    "montecarlo.self_s": ("s", "lower", "measured"),
    "montecarlo.samples": ("count", "lower", "counted"),
    "montecarlo.samples_per_s": ("samples/s", "higher", "measured"),
    "montecarlo.buffer_bytes_est": ("B", "lower", "computed"),
    "spectral.report_s": ("s", "lower", "measured"),
    "spectral.eig_s": ("s", "lower", "measured"),
    "spectral.self_s": ("s", "lower", "measured"),
    "spectral.eig_calls": ("count", "lower", "counted"),
    "spectral.eig_max_n": ("count", "lower", "counted"),
    "bounds.bounds_s": ("s", "lower", "measured"),
    "bounds.critical_s": ("s", "lower", "measured"),
    "bounds.self_s": ("s", "lower", "measured"),
    "bounds.tensor_bytes_est": ("B", "lower", "computed"),
    "bounds.witnesses": ("count", "lower", "counted"),
    "walks.busy_s": ("s", "lower", "measured"),
    "walks.self_s": ("s", "lower", "measured"),
    "walks.tensor_bytes_est": ("B", "lower", "computed"),
    "trace.wall_s": ("s", "lower", "measured"),
    "trace.untraced_wall_s": ("s", "lower", "measured"),
    "trace.overhead_s": ("s", "lower", "measured"),
    "trace.unaccounted_s": ("s", "lower", "measured"),
}
COUNTERS = [name for name, (_, _, kind) in METRICS.items() if kind != "measured"]


def exact_states(g) -> int:
    """2^m summed over support components: the states full enumeration visits."""
    total = 0
    for block in components(g.n, g.edges):
        if len(block) > 1:
            inside = set(block)
            total += 1 << sum(1 for i, j, _ in g.edges if i in inside and j in inside)
    return total


def _exact(tr, args, kwargs, result):
    tr.add("exact.calls", 1)
    tr.add("exact.states", exact_states(args[0]))
    if "sensitivity" in tr.active:
        tr.add("sensitivity.exact_calls", 1)


def _mc(tr, args, kwargs, result):
    g, samples = args[0], args[1]
    chunk = min(kwargs.get("chunk_size", _MC_CHUNK), samples)
    if g.m <= _TABLE_MAX_EDGES:
        est = (1 << g.m) * (g.n * (g.n - 1) // 2)  # int8 state table
    else:
        est = chunk * g.n * g.n * 2  # int16 reachability per chunk
    tr.add("montecarlo.samples", samples)
    tr.peak("montecarlo.buffer_bytes_est", est)


def _eig(tr, args, kwargs, result):
    tr.add("spectral.eig_calls", 1)
    tr.peak("spectral.eig_max_n", len(result[0]))


def _bounds(tr, args, kwargs, result):
    n = len(result.lower)
    tr.peak("bounds.tensor_bytes_est", 3 * n**3 * 8)  # relay, max and prod terms


def _critical(tr, args, kwargs, result):
    tr.add("bounds.witnesses", sum(len(f.witnesses) for f in result))


def _walk(tr, args, kwargs, result):
    if result.z > 1:
        tr.peak("walks.tensor_bytes_est", result.n**3 * 8)  # one relay-term tensor per fold


def _rank(tr, args, kwargs, result):
    tr.add("sensitivity.candidates", len(result.entries))


def _json(tr, args, kwargs, result):
    tr.add("fileio.json_bytes", len(result.encode()))


# (module, attribute, layer, kind, counter)
PATCHES = [
    ("cli", "parse_graph_file", "fileio", "parse", None),
    ("cli", "to_json", "fileio", "json", _json),
    ("fileio", "build_graph", "graph", "build", None),
    ("cli", "support_components", "graph", "support", None),
    ("exact", "support_components", "graph", "support", None),
    ("cli", "adjacency_matrix", "graph", "adjacency", None),
    ("sensitivity", "with_edge_probability", "graph", "edit", None),
    ("sensitivity", "add_edge", "graph", "edit", None),
    ("cli", "exact_connectivity", "exact", "solve", _exact),
    ("sensitivity", "exact_connectivity", "exact", "solve", _exact),
    ("cli", "mc_connectivity", "montecarlo", "sample", _mc),
    ("cli", "spectral_report", "spectral", "report", None),
    ("spectral", "sym_eig", "spectral", "eig", _eig),
    ("sensitivity", "sym_eig", "spectral", "eig", _eig),
    ("cli", "compute_bounds", "bounds", "bounds", _bounds),
    ("cli", "find_critical_vertices", "bounds", "critical", _critical),
    ("cli", "walk_matrix", "walks", "matrix", None),
    ("cli", "walk_probabilities", "walks", "fold", _walk),
    ("cli", "rank_improvements", "sensitivity", "rank", _rank),
]


class Tracer:
    """Spans and counters of the jobs run while `installed()` is active."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, int, str, str, float, float]] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self.job_id = -1  # a span opened with nothing open starts a new job
        self.active: list[str] = []  # layers of the open spans, outermost first
        self._stack: list[int] = []

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: int) -> None:
        self.counts[name] = max(self.counts.get(name, 0), value)

    def call(self, layer: str, kind: str, fn, args=(), kwargs=None, counter=None):
        kwargs = kwargs or {}
        if not self._stack:
            self.job_id += 1
        parent = self._stack[-1] if self._stack else -1
        span_id = len(self.spans)
        self.spans.append((span_id, parent, self.job_id, layer, kind, 0.0, 0.0))
        self._stack.append(span_id)
        self.active.append(layer)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.active.pop()
            self.spans[span_id] = (span_id, parent, self.job_id, layer, kind, start, end)
        if counter is not None:
            counter(self, args, kwargs, result)
        return result

    def _wrapper(self, fn, layer, kind, counter):
        def traced(*args, **kwargs):
            return self.call(layer, kind, fn, args, kwargs, counter)

        return traced

    @contextmanager
    def installed(self):
        """Replace the patch points with wrappers; restore them on exit."""
        saved = []
        try:
            for mod_name, attr, layer, kind, counter in PATCHES:
                try:
                    module = importlib.import_module(f"probconn.{mod_name}")
                    fn = getattr(module, attr)
                except (ImportError, AttributeError):
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrapper(fn, layer, kind, counter))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)


def layer_times(spans) -> dict[str, float]:
    """Busy, self and per-kind seconds summed over all spans of a tracer."""
    child = [0.0] * len(spans)  # span ids are positions in the list
    for _, parent, _, _, _, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}

    def bump(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for span_id, parent, _, layer, kind, start, end in spans:
        dur = end - start
        bump(f"{layer}.self", dur - child[span_id])
        bump(f"{layer}.{kind}", dur)
        up = parent
        while up >= 0 and spans[up][3] != layer:
            up = spans[up][1]
        if up < 0:  # outermost span of its layer
            bump(f"{layer}.busy", dur)
    return out


def _rate(count: int, seconds: float) -> float:
    return count / seconds if seconds else 0.0


def per_layer_metrics(spans, counts, traced_passes: int, traced_wall: float,
                      untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics for one pass over the job list (times are means)."""
    t = {k: v / traced_passes for k, v in layer_times(spans).items()}
    # "<layer>.<kind>_s" is the time summed under key "<layer>.<kind>"
    values = {name: t.get(name[:-2], 0.0) for name in METRICS if name.endswith("_s")}
    values.update((name, counts.get(name, 0)) for name in COUNTERS)
    values.update({
        "exact.states_per_s": _rate(counts.get("exact.states", 0), t.get("exact.busy", 0.0)),
        "montecarlo.samples_per_s": _rate(counts.get("montecarlo.samples", 0),
                                          t.get("montecarlo.busy", 0.0)),
        "trace.wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unaccounted_s": traced_wall - sum(t.get(f"{layer}.self", 0.0) for layer in LAYERS),
    })
    return {name: values[name] for name in METRICS}

"""Timing wrappers around each layer's entry points, installed from outside.

Only the traced run calls install(). It replaces each entry point in the
namespace its callers look it up in (a module global, or a method on its
class) with a wrapper that records a span: name, start, end, parent span and
job. Spans stay in memory; layer_metrics() folds them into the per-layer
metrics and write_spans() stores them when the batch ends. The lru_cache
counters are read with cache_info() and never reset.

An entry point that no longer exists is skipped; every metric that depends
on it is then reported as absent (None) instead of failing the run.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans = []   # [name, start, end, parent index or -1, job id]
        self.stack = []
        self.job = -1
        self.counts = Counter()
        self.installed = set()
        self.caches = {}  # metric prefix -> lru_cache-wrapped function
        self._eliminated = {}

    def start_job(self, job_id: int) -> None:
        self.job = job_id
        self._eliminated = {}

    def wrap(self, name, fn, count=None):
        spans, stack = self.spans, self.stack

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), None, stack[-1] if stack else -1, self.job])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if count is not None:
                count(self, args, result)
            return result

        return traced

    def eliminated(self, matrix) -> None:
        """Count a matrix handed to elimination; a second time is a repeat."""
        self.counts["qlinalg.elim.entries"] += matrix.rows * matrix.cols
        if id(matrix) in self._eliminated:
            self.counts["qlinalg.elim.repeats"] += 1
        else:
            self._eliminated[id(matrix)] = matrix  # keeps the id unique for the job


def _count_elim(tr, args, result):
    tr.eliminated(args[0])


def _count_parse(tr, args, graph):
    tr.counts["resgraph.parse.vertices"] += graph.n


def _count_cycle(tr, args, cycle):
    tr.counts["resgraph.cycle.steps"] += sum(a - 1 for a in cycle.coefficients.values())


def _count_tree(tr, args, tree):
    depth_max = tr.counts["blowup.tree.depth_max"]
    todo = [(tree, 1)]
    while todo:
        node, depth = todo.pop()
        tr.counts["blowup.tree.nodes"] += 1
        tr.counts["blowup.tree.dropped_rdps"] += node.dropped_rdp_count
        depth_max = max(depth_max, depth)
        todo.extend((child, depth + 1) for child in node.children)
    tr.counts["blowup.tree.depth_max"] = depth_max


def _count_order(tr, args, series):
    tr.counts["series.poincare.order_sum"] += args[1]


def _count_space(tr, args, result):
    tr.counts["harrison.space.dim_sum"] += args[0].dim


def _count_cobound(tr, args, matrix):
    tr.counts["harrison.cobound.entries"] += matrix.rows * matrix.cols


# (module, class or None, attribute, span name, counter). Functions are
# wrapped in every namespace they are called from.
TARGETS = (
    ("ratsurf.cli", None, "parse_graph", "resgraph.parse", _count_parse),
    ("ratsurf.cli", None, "arithmetic_genus", "resgraph.genus", None),
    ("ratsurf.cli", None, "harrison_dim", "harrison.dim", None),
    ("ratsurf.cli", None, "hochschild_dim", "harrison.hochschild", None),
    ("ratsurf.cli", None, "make_fat_point", "harrison.fat_point", None),
    ("ratsurf.formulas", None, "analyze", "formulas.analyze", None),
    ("ratsurf.formulas", None, "fundamental_cycle", "resgraph.cycle", _count_cycle),
    ("ratsurf.formulas", None, "is_rational", "resgraph.rational", None),
    ("ratsurf.formulas", None, "multiplicity_tree", "blowup.tree", _count_tree),
    ("ratsurf.blowup", None, "fundamental_cycle", "resgraph.cycle", _count_cycle),
    ("ratsurf.blowup", None, "is_rational", "resgraph.rational", None),
    ("ratsurf.blowup", None, "multiplicity", "resgraph.mult", None),
    ("ratsurf.blowup", None, "blowup_components", "blowup.components", None),
    ("ratsurf.resgraph", None, "fundamental_cycle", "resgraph.cycle", _count_cycle),
    ("ratsurf.resgraph", None, "is_negative_definite", "resgraph.definite", None),
    ("ratsurf.resgraph", "ResolutionGraph", "__init__", "resgraph.build", None),
    ("ratsurf.series", None, "poincare_series", "series.poincare", _count_order),
    ("ratsurf.series", None, "shuffle_dim_series", "series.q_series", None),
    ("ratsurf.series", None, "shuffle_dim", "series.shuffle_dim", None),
    ("ratsurf.harrison", None, "coboundary_matrix", "harrison.cobound", _count_cobound),
    ("ratsurf.harrison", "CochainSpace", "__init__", "harrison.space", _count_space),
    ("ratsurf.qlinalg", "QMatrix", "rank", "qlinalg.elim", _count_elim),
    ("ratsurf.qlinalg", "QMatrix", "kernel_basis", "qlinalg.elim", _count_elim),
    ("ratsurf.qlinalg", "QMatrix", "kernel_free_columns", "qlinalg.elim", _count_elim),
    ("ratsurf.qlinalg", "QMatrix", "det", "qlinalg.det", None),
    ("ratsurf.qlinalg", "QMatrix", "leading_principal_minor", "qlinalg.minor", None),
)

CACHES = (
    ("ratsurf.harrison", "_shape_kernel", "harrison.kernel"),
    ("ratsurf.harrison", "_blocks", "harrison.blocks"),
    ("ratsurf.series", "cone_tdim", "series.cone_tdim"),
)


def install(tracer: Tracer) -> None:
    for module_name, cls_name, attr, name, count in TARGETS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None or (cls_name is not None and attr not in vars(owner)):
            continue
        setattr(owner, attr, tracer.wrap(name, fn, count))
        tracer.installed.add(name)
    for module_name, attr, prefix in CACHES:
        fn = getattr(importlib.import_module(module_name), attr, None)
        if hasattr(fn, "cache_info"):
            tracer.caches[prefix] = fn


def self_times(spans) -> list:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (name, start, end, parent, job) in enumerate(spans)]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced batch; None marks an absent one."""
    spans = tracer.spans
    own = self_times(spans)
    calls, busy, self_s = Counter(), defaultdict(float), defaultdict(float)
    layer_self = defaultdict(float)
    revalidations = 0
    for i, (name, start, end, parent, job) in enumerate(spans):
        calls[name] += 1
        self_s[name] += own[i]
        layer_self[name.split(".")[0]] += own[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:  # outermost span of its name
            busy[name] += end - start
        if name == "resgraph.build" and parent >= 0 and spans[parent][0] == "blowup.components":
            revalidations += 1
    counts = tracer.counts
    out = {}

    def put(metric, value, *needs):
        out[metric] = value if all(n in tracer.installed for n in needs) else None

    def span(prefix, name):
        put(prefix + ".calls", calls[name], name)
        put(prefix + ".busy_s", busy[name], name)

    span("qlinalg.elim", "qlinalg.elim")
    put("qlinalg.elim.entries", counts["qlinalg.elim.entries"], "qlinalg.elim")
    put("qlinalg.elim.repeats", counts["qlinalg.elim.repeats"], "qlinalg.elim")
    span("qlinalg.det", "qlinalg.det")
    span("harrison.space", "harrison.space")
    put("harrison.space.dim_sum", counts["harrison.space.dim_sum"], "harrison.space")
    span("harrison.cobound", "harrison.cobound")
    put("harrison.cobound.entries", counts["harrison.cobound.entries"], "harrison.cobound")
    put("harrison.hochschild.busy_s", busy["harrison.hochschild"], "harrison.hochschild")
    for prefix in ("harrison.kernel", "harrison.blocks", "series.cone_tdim"):
        info = tracer.caches[prefix].cache_info() if prefix in tracer.caches else None
        out[prefix + ".hits"] = None if info is None else info.hits
        out[prefix + ".misses"] = None if info is None else info.misses
    span("resgraph.parse", "resgraph.parse")
    put("resgraph.parse.vertices", counts["resgraph.parse.vertices"], "resgraph.parse")
    span("resgraph.definite", "resgraph.definite")
    put("resgraph.definite.minors", calls["qlinalg.minor"], "qlinalg.minor")
    built = calls["resgraph.build"]
    put("resgraph.graphs_built", built, "resgraph.build")
    put("resgraph.revalidations_per_parse", revalidations / max(calls["resgraph.parse"], 1),
        "resgraph.build", "blowup.components", "resgraph.parse")
    span("resgraph.cycle", "resgraph.cycle")
    put("resgraph.cycle.calls_per_graph", calls["resgraph.cycle"] / max(built, 1),
        "resgraph.cycle", "resgraph.build")
    put("resgraph.cycle.steps", counts["resgraph.cycle.steps"], "resgraph.cycle")
    span("blowup.tree", "blowup.tree")
    for what in ("nodes", "depth_max", "dropped_rdps"):
        put("blowup.tree." + what, counts["blowup.tree." + what], "blowup.tree")
    span("blowup.components", "blowup.components")
    span("series.poincare", "series.poincare")
    put("series.poincare.order_sum", counts["series.poincare.order_sum"], "series.poincare")
    span("series.shuffle_dim", "series.shuffle_dim")
    put("formulas.analyze.calls", calls["formulas.analyze"], "formulas.analyze")
    put("formulas.analyze.self_s", self_s["formulas.analyze"], "formulas.analyze")
    out["cli.calls"] = calls["cli.main"]
    out["cli.self_s"] = self_s["cli.main"]
    # the cli and formulas layers have one span each, reported just above
    for layer in ("resgraph", "blowup", "series", "harrison", "qlinalg"):
        out[layer + ".self_s"] = layer_self[layer]
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"], "spans": tracer.spans}, fh)

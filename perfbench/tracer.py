"""Span recorder for the traced run.

Each traced public name is replaced, in every hyperreg namespace that binds
it, by a wrapper that records a span (name, start, end, parent, op id).
Methods are wrapped on their class.  Counts at the same boundaries are
computed from each call's inputs and outputs.  Spans stay in memory until
the run ends; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import gc
import gzip
import inspect
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "bench.op"

# (module, attribute path, metric name); the metric name is
# "<module>.<public name>" except for the CLI's cmd_* handlers.
SPANS = [
    ("transforms", "plant", "transforms.plant"),
    ("transforms", "equalize", "transforms.equalize"),
    ("transforms", "refine_family", "transforms.refine_family"),
    ("transforms", "slice", "transforms.slice"),
    ("regularity", "check_regular", "regularity.check_regular"),
    ("regularity", "check_regular_exhaustive", "regularity.check_regular_exhaustive"),
    ("regularity", "check_regular_sampled", "regularity.check_regular_sampled"),
    ("regularity", "check_instance_witness", "regularity.check_instance_witness"),
    ("regularity", "check_equitable_family", "regularity.check_equitable_family"),
    ("regularity", "check_complex_regular", "regularity.check_complex_regular"),
    ("regularity", "relative_density", "regularity.relative_density"),
    ("hypergraph", "cliques", "hypergraph.cliques"),
    ("hypergraph", "crossing_sets", "hypergraph.crossing_sets"),
    ("hypergraph", "induce", "hypergraph.induce"),
    ("hypergraph", "count_induced", "hypergraph.count_induced"),
    ("hypergraph", "kgraph_to_text", "hypergraph.kgraph_to_text"),
    ("hypergraph", "kgraph_from_text", "hypergraph.kgraph_from_text"),
    ("partitions", "family_to_text", "partitions.family_to_text"),
    ("partitions", "family_from_text", "partitions.family_from_text"),
    ("partitions", "PartitionFamily.polyad", "partitions.PartitionFamily.polyad"),
    ("partitions", "PartitionFamily.polyad_cliques", "partitions.PartitionFamily.polyad_cliques"),
    ("partitions", "check_family_axioms", "partitions.check_family_axioms"),
    ("addresses", "address_space", "addresses.address_space"),
    ("counting", "ic", "counting.ic"),
    ("counting", "ic_family", "counting.ic_family"),
    ("counting", "verify_ic_vs_pr", "counting.verify_ic_vs_pr"),
    ("counting", "count_crossing_induced", "counting.count_crossing_induced"),
    ("sampling", "run_transfer_experiment", "sampling.run_transfer_experiment"),
    ("sampling", "sample_vertices", "sampling.sample_vertices"),
    ("sampling", "induce_family", "sampling.induce_family"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_gen", "cli.gen"),
    ("cli", "cmd_check", "cli.check"),
    ("cli", "cmd_sample", "cli.sample"),
    ("cli", "cmd_count", "cli.count"),
]

# Counted, not timed: these run too often for a span each.
COUNTED = [
    ("hypergraph", "KGraph.__post_init__", "hypergraph.KGraph.new"),
    ("rng", "substream", "rng.substream"),
]

# Extra per-layer metrics beyond calls and self_s: name -> unit.
EXTRA = {
    "regularity.check_regular_sampled.candidates": "count",
    "regularity.check_regular_sampled.refuted": "count",
    "regularity.check_regular_exhaustive.subsets": "count",
    "regularity.check_regular_exhaustive.refuted": "count",
    "regularity.check_regular.fallback_ratio": "ratio",
    "hypergraph.KGraph.new.edges": "count",
    "hypergraph.kgraph_to_text.bytes": "bytes",
    "hypergraph.kgraph_from_text.bytes": "bytes",
    "partitions.PartitionFamily.polyad_cliques.repeat_ratio": "ratio",
    "transforms.slice.rechecks_per_call": "ratio",
    "cli.main.bytes_read": "bytes",
    "cli.main.bytes_written": "bytes",
    "python.gc.collections": "count",
    "python.gc.s": "s",
    "bench.op.calls": "count",
    "bench.op.wall_s": "s",
    "bench.op.unattributed_s": "s",
    "bench.trace.spans": "count",
    "bench.trace.ops_per_s_untraced": "ops/s",
    "bench.trace.ops_per_s_traced": "ops/s",
    "bench.trace.overhead_ratio": "ratio",
}


def metric_units():
    """Every per-layer metric name with its unit, in a fixed order."""
    out = {}
    for _, _, name in SPANS:
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
    for _, _, name in COUNTED:
        out[f"{name}.calls"] = "count"
    out.update(EXTRA)
    return dict(sorted(out.items()))


def _resolve(lib, module, path):
    owner = getattr(lib, module)
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


def _hyperreg_namespaces():
    return [m for name, m in list(sys.modules.items())
            if name == "hyperreg" or name.startswith("hyperreg.")]


class GcClock:
    """Collections and seconds spent in the cyclic collector."""

    def __init__(self):
        self.collections = 0
        self.seconds = 0.0
        self._t = None

    def __call__(self, phase, info):
        if phase == "start":
            self._t = perf_counter()
        elif self._t is not None:
            self.collections += 1
            self.seconds += perf_counter() - self._t
            self._t = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class Recorder:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.stack = []
        self.active = False
        self.op_id = None
        self.counts = Counter()
        self._seen_polyads = {}  # id(family) -> (weakref, seen keys)

    # -- spans ---------------------------------------------------------------
    def begin(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(idx)
        return idx, parent

    def end(self, name, idx, parent, t0):
        t1 = perf_counter()
        self.stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.op_id)

    def run_op(self, op_id, fn, *args):
        """Run one bench op as a root span."""
        self.op_id = op_id
        self.active = True
        idx, parent = self.begin()
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.end(ROOT, idx, parent, t0)
            self.active = False

    def _span_wrapper(self, name, fn, hook):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return fn(*args, **kwargs)
            idx, parent = rec.begin()
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.end(name, idx, parent, t0)
            if hook is not None:
                hook(args, kwargs, out)
            return out

        return wrapper

    def _count_wrapper(self, name, fn, hook):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if rec.active:
                rec.counts[f"{name}.calls"] += 1
                if hook is not None:
                    hook(args, kwargs, out)
            return out

        return wrapper

    # -- counts at the boundaries ----------------------------------------------
    def _hooks(self, lib):
        c = self.counts
        VertexClassGraph = lib.partitions.VertexClassGraph
        sampled_sig = inspect.signature(lib.regularity.check_regular_sampled)

        def sampled(args, kwargs, v):
            trials = sampled_sig.bind(*args, **kwargs).arguments["trials"]
            c["regularity.check_regular_sampled.candidates"] += \
                len(lib.regularity.RETENTION_DENSITIES) * trials
            c["regularity.check_regular_sampled.refuted"] += not v.regular

        def exhaustive(args, kwargs, v):
            below = args[1] if len(args) > 1 else kwargs["Hk1"]
            ground = (len(below.vertex_set()) if isinstance(below, VertexClassGraph)
                      else len(below.edges))
            c["regularity.check_regular_exhaustive.subsets"] += 2 ** ground
            c["regularity.check_regular_exhaustive.refuted"] += not v.regular

        def check_regular(args, kwargs, v):
            c["regularity.check_regular.sampled_verdicts"] += v.mode.startswith("sampled")

        def polyad_cliques(args, kwargs, out):
            family, key = args[0], tuple(args[1:]) + tuple(sorted(kwargs.items()))
            ref, seen = self._seen_polyads.get(id(family), (None, None))
            if ref is None or ref() is not family:
                seen = set()
                self._seen_polyads[id(family)] = (weakref.ref(family), seen)
            if key in seen:
                c["partitions.PartitionFamily.polyad_cliques.repeats"] += 1
            seen.add(key)

        def to_text(args, kwargs, text):
            c["hypergraph.kgraph_to_text.bytes"] += len(text.encode())

        def from_text(args, kwargs, H):
            text = args[0] if args else kwargs["text"]
            c["hypergraph.kgraph_from_text.bytes"] += len(text.encode())

        def new_kgraph(args, kwargs, out):
            c["hypergraph.KGraph.new.edges"] += len(args[0].edges)

        return {
            "regularity.check_regular_sampled": sampled,
            "regularity.check_regular_exhaustive": exhaustive,
            "regularity.check_regular": check_regular,
            "partitions.PartitionFamily.polyad_cliques": polyad_cliques,
            "hypergraph.kgraph_to_text": to_text,
            "hypergraph.kgraph_from_text": from_text,
            "hypergraph.KGraph.new": new_kgraph,
        }

    def install(self, lib):
        """Wrap every listed name wherever a hyperreg namespace binds it."""
        hooks = self._hooks(lib)
        namespaces = _hyperreg_namespaces()
        for table, make in ((SPANS, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module, path, name in table:
                owner, attr = _resolve(lib, module, path)
                orig = getattr(owner, attr)
                wrapped = make(name, orig, hooks.get(name))
                if "." in path:
                    setattr(owner, attr, wrapped)
                    continue
                bound = 0
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is orig:
                            setattr(ns, key, wrapped)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"{module}.{path} is bound nowhere")

    # -- results ---------------------------------------------------------------
    def self_times(self):
        """{name: [calls, self seconds]} and {(parent name, name): calls}."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(lambda: [0, 0.0])
        children_of = Counter()
        for idx, (name, t0, t1, parent, _) in enumerate(self.spans):
            acc = out[name]
            acc[0] += 1
            acc[1] += (t1 - t0) - child[idx]
            if parent >= 0:
                children_of[(self.spans[parent][0], name)] += 1
        return out, children_of

    def metrics(self):
        """Per-layer values; run.py fills in the cli.main.bytes_*, python.* and
        bench.trace.ops_per_s_* / overhead_ratio ones."""
        per, children_of = self.self_times()
        c = self.counts
        vals = {}
        for _, _, name in SPANS:
            calls, self_s = per.get(name, (0, 0.0))
            vals[f"{name}.calls"] = calls
            vals[f"{name}.self_s"] = self_s
        for _, _, name in COUNTED:
            vals[f"{name}.calls"] = c[f"{name}.calls"]
        for key in EXTRA:
            vals[key] = c[key]  # the hooks' counts; 0 where no hook counted

        def ratio(num, den):
            return num / den if den else 0.0

        vals["regularity.check_regular.fallback_ratio"] = ratio(
            c["regularity.check_regular.sampled_verdicts"],
            vals["regularity.check_regular.calls"])
        vals["partitions.PartitionFamily.polyad_cliques.repeat_ratio"] = ratio(
            c["partitions.PartitionFamily.polyad_cliques.repeats"],
            vals["partitions.PartitionFamily.polyad_cliques.calls"])
        vals["transforms.slice.rechecks_per_call"] = ratio(
            children_of[("transforms.slice", "regularity.check_regular_sampled")],
            vals["transforms.slice.calls"])
        root_calls, unattributed = per.get(ROOT, (0, 0.0))
        vals["bench.op.calls"] = root_calls
        vals["bench.op.wall_s"] = sum(t1 - t0 for name, t0, t1, parent, _ in self.spans
                                      if parent < 0)
        vals["bench.op.unattributed_s"] = unattributed
        vals["bench.trace.spans"] = len(self.spans)
        return vals

    def write(self, path):
        """Spans as gzip TSV: op id, name, start and end in microseconds
        from the first span, parent span index."""
        base = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("op\tname\tstart_us\tend_us\tparent\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{(t0 - base) * 1e6:.1f}\t"
                         f"{(t1 - base) * 1e6:.1f}\t{parent}\n")

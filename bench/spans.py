"""Span tracing for the benchmark's traced pass.

`Tracer.installed()` wraps the public functions of each endlab layer listed
in LAYERS, for the duration of one `with` block, and puts the originals back
afterwards.  Each call becomes a span (name, start, end, parent) kept in
memory in flat arrays; `write_csv` writes them out at the end.  A span's self
time is its duration minus the durations of its direct children, so the self
times of all spans plus the time outside any span add up to the traced wall
time exactly (all in integer nanoseconds).  Time spent in an unwrapped
function counts toward the innermost wrapped caller.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

# layer -> wrapped functions ("Class.method" or module-level name)
LAYERS = {
    "group_backends": ("RewritingGroup.normal_form", "RewritingGroup.verify_confluence"),
    "bass_serre": ("PiOne.normalize", "PiOne.vertex_label", "tree_truncation",
                   "HalfTreeSplitting.side_of_translate"),
    "cayley_abels": ("build", "coset_canonical"),
    "ends_cuts": ("escaping_components", "classify_ends", "find_cut"),
    "serre_graphs": ("SerreGraph.components", "SerreGraph.remove_vertex_set"),
    "qlinalg": ("SparseMatrixQ.rank",),
    "ai_cohomology": ("witness_from_splitting", "check_almost_invariance", "cut_from_witness"),
    "theorem_lab": ("verify_equivalence",),
    "cli": ("main",),
}

SPAN_NAMES = tuple(
    f"{layer}.{target.rsplit('.', 1)[-1]}" for layer, targets in LAYERS.items() for target in targets
)


class Tracer:
    """Spans and counts of one traced pass."""

    def __init__(self):
        self.names = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self._stack = [-1]
        self._open = [0] * len(SPAN_NAMES)
        self.counts = dict.fromkeys(
            ("letters", "cosets", "slots", "canonical_in_build", "vertices_scanned", "nonzeros"), 0
        )
        self._build = SPAN_NAMES.index("cayley_abels.build")
        self._hooks = {
            "group_backends.normal_form": self._count_letters,
            "cayley_abels.build": self._count_cosets,
            "cayley_abels.coset_canonical": self._count_canonical,
            "serre_graphs.components": self._count_vertices,
            "serre_graphs.remove_vertex_set": self._count_vertices,
            "qlinalg.rank": self._count_nonzeros,
        }

    # -- counts taken at the span boundaries --------------------------------
    def _count_letters(self, args, result):
        self.counts["letters"] += len(args[1])

    def _count_cosets(self, args, result):
        cosets = len(result.graph.vertices)
        self.counts["cosets"] += cosets
        self.counts["slots"] += cosets * len(args[0].S)

    def _count_canonical(self, args, result):
        if self._open[self._build]:
            self.counts["canonical_in_build"] += 1

    def _count_vertices(self, args, result):
        self.counts["vertices_scanned"] += len(args[0].vertices)

    def _count_nonzeros(self, args, result):
        self.counts["nonzeros"] += len(args[0].entries)

    # -- wrapping -----------------------------------------------------------
    def _wrap(self, fn, name):
        sid = SPAN_NAMES.index(name)
        hook = self._hooks.get(name)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, open_ = self._stack, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(names)
            names.append(sid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            open_[sid] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                open_[sid] -= 1
            if hook is not None:
                hook(args, result)
            return result

        span.bench_span = name
        return span

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore.

        A module-level function is replaced wherever an endlab module holds
        it (modules import each other's functions by name); a method is
        replaced on its class.
        """
        patches = []
        try:
            for layer, targets in LAYERS.items():
                module = importlib.import_module(f"endlab.{layer}")
                for target in targets:
                    name = f"{layer}.{target.rsplit('.', 1)[-1]}"
                    if "." in target:
                        cls_name, attr = target.split(".")
                        owner = getattr(module, cls_name)
                        original = owner.__dict__[attr]
                        patches.append((owner, attr, original))
                        setattr(owner, attr, self._wrap(original, name))
                        continue
                    original = getattr(module, target)
                    wrapper = self._wrap(original, name)
                    for mod_name, mod in list(sys.modules.items()):
                        if mod_name != "endlab" and not mod_name.startswith("endlab."):
                            continue
                        for attr, value in list(vars(mod).items()):
                            if value is original:
                                patches.append((mod, attr, original))
                                setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------
    def self_times(self):
        """(self ns per span name, ns covered by top-level spans)."""
        child = [0] * len(self.names)
        top = 0
        for i, p in enumerate(self.parents):
            d = self.ends[i] - self.starts[i]
            if p < 0:
                top += d
            else:
                child[p] += d
        own = [0] * len(SPAN_NAMES)
        for i, sid in enumerate(self.names):
            own[sid] += self.ends[i] - self.starts[i] - child[i]
        return dict(zip(SPAN_NAMES, own)), top

    def calls(self):
        n = [0] * len(SPAN_NAMES)
        for sid in self.names:
            n[sid] += 1
        return dict(zip(SPAN_NAMES, n))

    def write_csv(self, path):
        """Gzipped CSV, one line per span in start order; times in ns from the first span."""
        t0 = self.starts[0] if self.starts else 0
        with gzip.open(path, "wt", compresslevel=1) as fp:
            fp.write("span,parent,name,start_ns,end_ns\n")
            for i, sid in enumerate(self.names):
                fp.write(f"{i},{self.parents[i]},{SPAN_NAMES[sid]},"
                         f"{self.starts[i] - t0},{self.ends[i] - t0}\n")


def layer_metrics(tracer, traced_ns, untraced_s, cli_outputs):
    """Per-layer metrics of a traced pass, as {name: (value, unit)}.

    cli_outputs are the texts the pass's CLI commands printed; the output
    size and the catalog's budget hits are read from them.
    """
    own, top = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counts
    s = lambda ns: ns / 1e9  # noqa: E731
    m = {}
    for layer in LAYERS:
        m[f"{layer}.s"] = (s(sum(v for k, v in own.items() if k.startswith(layer + "."))), "s")
    for name in ("group_backends.normal_form", "bass_serre.normalize", "bass_serre.vertex_label",
                 "bass_serre.side_of_translate", "cayley_abels.build", "cayley_abels.coset_canonical",
                 "serre_graphs.components", "qlinalg.rank"):
        m[f"{name}.calls"] = (calls[name], "count")
    for name in ("group_backends.normal_form", "group_backends.verify_confluence",
                 "bass_serre.normalize", "bass_serre.tree_truncation", "cayley_abels.build",
                 "ends_cuts.escaping_components", "ends_cuts.classify_ends", "ends_cuts.find_cut",
                 "serre_graphs.components", "serre_graphs.remove_vertex_set", "qlinalg.rank",
                 "ai_cohomology.witness_from_splitting", "ai_cohomology.check_almost_invariance",
                 "ai_cohomology.cut_from_witness", "theorem_lab.verify_equivalence", "cli.main"):
        m[f"{name}.s"] = (s(own[name]), "s")
    m["group_backends.normal_form.letters"] = (c["letters"], "count")
    m["cayley_abels.cosets"] = (c["cosets"], "count")
    m["cayley_abels.canonical_per_slot"] = (c["canonical_in_build"] / c["slots"] if c["slots"] else 0.0, "ratio")
    m["ends_cuts.probes"] = (calls["ends_cuts.escaping_components"], "count")
    m["serre_graphs.vertices_scanned"] = (c["vertices_scanned"], "count")
    m["qlinalg.nonzeros"] = (c["nonzeros"], "count")
    m["theorem_lab.entries"] = (calls["theorem_lab.verify_equivalence"], "count")
    m["theorem_lab.budget_hits"] = (sum(_budget_hits(text) for text in cli_outputs), "count")
    m["cli.output_bytes"] = (sum(len(text.encode()) for text in cli_outputs), "count")
    m["trace.wall_s"] = (s(traced_ns), "s")
    m["trace.overhead_s"] = (s(traced_ns) - untraced_s, "s")
    m["trace.unattributed_s"] = (s(traced_ns - top), "s")
    return m


def _budget_hits(text):
    """Catalog rows that ran out of budget, when text is a `verify` report."""
    report = json.loads(text)
    if "results" not in report:
        return 0
    return sum("budget_exceeded" in row for row in report["results"])

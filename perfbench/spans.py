"""Spans around calls into locdim, recorded from the benchmark side only.

``Tracer.install`` rebinds every public function of the package (the
functions in ``locdim.__all__``, plus ``locdim.cli.main`` when the CLI is
loaded, plus ``Graph.__init__``) in every ``locdim.*`` namespace that holds
it, so calls between modules are seen too. ``uninstall`` puts the originals
back. A span is ``[name, start, end, parent, job]``; its id is its index.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# CLOCK_MONOTONIC on Linux, so spans from the CLI child processes share the
# parent's time base.
clock = time.perf_counter

# Called up to hundreds of thousands of times per job: recorded as a count
# and a total time per parent span, not as one span per call.
AGGREGATED = frozenset({
    "game.probe_partition", "game.spread", "hypergraphs.detection_vector",
    "fields.normalize_point", "graphs.kneser_vertex_index",
})


def _graph_built(tr, rec, args, result):
    G = args[0]
    tr.add("graphs.vertices", G.n)
    tr.add("graphs.edges", len(G.edges))


def _md_done(tr, rec, args, res):
    tr.add("resolving.bnb_nodes", res.nodes)
    tr.add("resolving.md_closed", int(res.exact))
    tr.add("resolving.landmarks_total", len(res.landmarks))


def _greedy_done(tr, rec, args, landmarks):
    parent = rec[3]
    if parent is None or tr.spans[parent][0] != "resolving.metric_dimension":
        tr.add("resolving.landmarks_total", len(landmarks))


def _loc_done(tr, rec, args, d):
    tr.add("game.beliefs", d.beliefs)
    tr.add("game.placements", d.placements)
    tr.add("game.unknown", int(d.result == "unknown"))


def _verify_done(tr, rec, args, report):
    tr.add("game.classes_explored", report.classes_explored)


HOOKS = {
    "graphs.Graph": _graph_built,
    "resolving.metric_dimension": _md_done,
    "resolving.greedy_resolving": _greedy_done,
    "game.loc_decide": _loc_done,
    "game.verify_strategy": _verify_done,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.aggs: dict[tuple, list] = {}  # (parent, name) -> [calls, seconds]
        self.counters: dict[str, float] = {}
        self.job: int | None = None
        self.stack: list[int | None] = [None]
        self._saved: list[tuple] = []

    def add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # -- spans opened by the benchmark itself (jobs, CLI processes) ----------

    def open_job(self) -> int:
        """Opens the span of a new job; spans until it closes carry its id."""
        self.job = len(self.spans)
        return self.open("job")

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, clock(), None, self.stack[-1], self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        assert self.stack.pop() == idx
        self.spans[idx][2] = clock()

    def merge(self, doc: dict, parent: int) -> None:
        """Adopt a child process's spans; its roots hang under ``parent``."""
        base = len(self.spans)

        def remap(p):
            return parent if p is None else p + base
        for name, start, end, p, _ in doc["spans"]:
            self.spans.append([name, start, end, remap(p), self.job])
        for p, name, calls, total in doc["aggs"]:
            self._agg(remap(p), name, calls, total)
        for key, value in doc["counters"].items():
            self.add(key, value)

    def _agg(self, parent, name, calls, total) -> None:
        a = self.aggs.get((parent, name))
        if a is None:
            self.aggs[(parent, name)] = [calls, total]
        else:
            a[0] += calls
            a[1] += total

    # -- rebinding ---------------------------------------------------------

    def _wrap(self, fn, name):
        spans, stack, add_agg = self.spans, self.stack, self._agg
        if name in AGGREGATED:
            def agg(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    add_agg(stack[-1], name, 1, clock() - t0)
            return functools.wraps(fn)(agg)

        hook = HOOKS.get(name)

        def span(*args, **kwargs):
            rec = [name, clock(), None, stack[-1], self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if hook is not None:
                hook(self, rec, args, result)
            return result
        return functools.wraps(fn)(span)

    def install(self, package) -> None:
        prefix = package.__name__ + "."
        modules = [m for name, m in list(sys.modules.items())
                   if m is package or name.startswith(prefix)]
        targets = [getattr(package, a) for a in package.__all__]
        targets = [f for f in targets if inspect.isfunction(f)]
        cli = sys.modules.get(prefix + "cli")
        if cli is not None:
            targets.append(cli.main)
        wrapped = {}
        for fn in targets:
            short = fn.__module__.rsplit(".", 1)[-1]
            wrapped[id(fn)] = (fn, self._wrap(fn, f"{short}.{fn.__name__}"))
        for m in modules:
            for attr, val in list(vars(m).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._saved.append((m, attr, val))
                    setattr(m, attr, hit[1])
        graph_cls = package.Graph
        self._saved.append((graph_cls, "__init__", graph_cls.__init__))
        graph_cls.__init__ = self._wrap(graph_cls.__init__, "graphs.Graph")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, val = self._saved.pop()
            setattr(owner, attr, val)

    # -- output ------------------------------------------------------------

    def to_dict(self) -> dict:
        return {"spans": self.spans,
                "aggs": [[p, name, c, t] for (p, name), (c, t) in self.aggs.items()],
                "counters": self.counters}

    def dump(self, path: str, **meta) -> None:
        doc = self.to_dict()
        doc["meta"] = meta
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh)

"""Per-layer metrics from a trace file written by ``run.py --trace 1``.

    python3 perfbench/summarize.py perfbench/.runs/*-trace/trace.json

prints one row per trace file (one workload and seed each): the share of
traced job time spent in each layer's own code, how much of the job time the
top-level spans cover, and the tracing overhead. A layer's self time is the
duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import json
import sys

LAYERS = ("graphs", "fields", "resolving", "game", "hypergraphs", "bounds",
          "cli", "bench")

# Spans whose self time is graph construction.
BUILD = ("graphs.Graph", "graphs.kneser_graph", "graphs.cycle_graph",
         "graphs.petersen", "graphs.hoffman_singleton",
         "graphs.graph_from_json_dict")

# Per-layer metrics: name, unit, better, and the end-to-end metrics each
# should move (on which workload). Values are per traced round of the job
# list unless the name ends in _ratio or share.
PER_LAYER = [
    ("graphs.build.calls", "count", "lower", "wall_s, job_p90_s, peak_rss_mb on cli-build; none on loc-game"),
    ("graphs.build.self_s", "s", "lower", "wall_s, job_p90_s, peak_rss_mb on cli-build; none on loc-game"),
    ("graphs.vertices", "count", "lower", "peak_rss_mb on cli-build"),
    ("graphs.edges", "count", "lower", "peak_rss_mb on cli-build"),
    ("graphs.graph_hash.self_s", "s", "lower", "wall_s on cli-build; none on loc-game"),
    ("graphs.is_moore_diam2.self_s", "s", "lower", "job_p90_s on cli-build; none on loc-game"),
    ("graphs.graph_girth.self_s", "s", "lower", "job_p90_s on cli-build; none on loc-game"),
    ("fields.er_polarity_graph.self_s", "s", "lower", "wall_s on cli-build; none on loc-game"),
    ("resolving.metric_dimension.self_s", "s", "lower", "wall_s, job_p50_s, job_p90_s on md-search; none on loc-game"),
    ("resolving.metric_dimension.calls", "count", "lower", "none (fixed by the job mix)"),
    ("resolving.greedy_resolving.self_s", "s", "lower", "wall_s, job_p90_s on md-search; capped job on cli-build"),
    ("resolving.greedy_resolving.calls", "count", "lower", "none (fixed by the job mix)"),
    ("resolving.is_resolving.self_s", "s", "lower", "wall_s on md-search and cli-build"),
    ("resolving.is_resolving.calls", "count", "lower", "none (fixed by the job mix)"),
    ("resolving.bnb_nodes", "count", "lower", "job_p50_s, job_p90_s on md-search"),
    ("resolving.exact_ratio", "ratio", "higher", "job_p90_s on md-search"),
    ("resolving.landmarks_total", "count", "lower", "none; smaller sets are better answers"),
    ("game.loc_decide.self_s", "s", "lower", "wall_s, job_p50_s on loc-game; none on md-search"),
    ("game.probe_partition.self_s", "s", "lower", "wall_s, job_p50_s on loc-game; none on md-search"),
    ("game.probe_partition.calls", "count", "lower", "wall_s, job_p50_s on loc-game"),
    ("game.spread.self_s", "s", "lower", "wall_s, job_p50_s on loc-game; none on md-search"),
    ("game.spread.calls", "count", "lower", "wall_s, job_p50_s on loc-game"),
    ("game.beliefs", "count", "lower", "peak_rss_mb, wall_s on loc-game"),
    ("game.placements", "count", "lower", "wall_s, job_p50_s on loc-game"),
    ("game.verify_strategy.self_s", "s", "lower", "wall_s on loc-game; none on md-search"),
    ("game.classes_explored", "count", "lower", "wall_s on loc-game"),
    ("game.unknown_ratio", "ratio", "lower", "ok_frac on loc-game"),
    ("hypergraphs.search_girth5_gadget.self_s", "s", "lower", "job_p50_s on cli-build (small share)"),
    ("hypergraphs.kneser_resolving_cover.self_s", "s", "lower", "job_p50_s on cli-build (small share)"),
    ("bounds.bounds_report.self_s", "s", "lower", "job_p50_s on cli-build (small share)"),
    ("budget.nodes", "count", "lower", "wall_s, job_p90_s on cli-build"),
    ("budget.exhausted_ratio", "ratio", "lower", "wall_s, job_p90_s on cli-build"),
    ("budget.overshoot_s", "s", "lower", "wall_s, job_p90_s on cli-build"),
    ("cli.proc_s", "s", "lower", "job_p50_s, wall_s on cli-build"),
    ("cli.startup_s", "s", "lower", "job_p50_s, setup_s on cli-build"),
    ("cli.main.self_s", "s", "lower", "job_p50_s on cli-build"),
    ("cli.artifact_bytes", "bytes", "lower", "job_p50_s on cli-build"),
] + [(f"layer.{layer}.share", "ratio", "lower", "shows where job time goes")
     for layer in LAYERS] + [
    ("trace.top_coverage", "ratio", "higher", "none; share of job time under a top-level span"),
    ("trace.overhead_s", "s", "lower", "none; traced minus untraced round time"),
    ("trace.jobs", "count", "higher", "none; jobs per traced round"),
]


def _layer(name: str) -> str:
    return "bench" if name == "job" else name.split(".", 1)[0]


def layer_metrics(doc: dict) -> dict[str, float]:
    spans, counters, meta = doc["spans"], doc["counters"], doc["meta"]
    rounds = meta["rounds"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    for parent, _, _, total in doc["aggs"]:
        covered[parent] += total
    own: dict[str, float] = {}
    calls: dict[str, float] = {}
    job_s = top_s = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        own[name] = own.get(name, 0.0) + (end - start) - covered[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "job":
            job_s += end - start
        elif parent is not None and spans[parent][0] == "job":
            top_s += end - start
    for _, name, c, total in doc["aggs"]:
        own[name] = own.get(name, 0.0) + total
        calls[name] = calls.get(name, 0) + c

    def per_round(value):
        return value / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "graphs.build.calls": per_round(calls.get("graphs.Graph", 0)),
        "graphs.build.self_s": per_round(sum(own.get(n, 0.0) for n in BUILD)),
        "resolving.exact_ratio": ratio(counters.get("resolving.md_closed", 0),
                                       calls.get("resolving.metric_dimension", 0)),
        "game.unknown_ratio": ratio(counters.get("game.unknown", 0),
                                    calls.get("game.loc_decide", 0)),
        "budget.exhausted_ratio": ratio(counters.get("budget.exhausted", 0),
                                        counters.get("budget.jobs", 0)),
        "cli.proc_s": per_round(own.get("cli.proc", 0.0)),
        "cli.startup_s": meta["cli_startup_s"],
        "trace.top_coverage": ratio(top_s, job_s),
        "trace.overhead_s": meta["overhead_s"],
        "trace.jobs": per_round(calls.get("job", 0)),
    }
    layer_s = dict.fromkeys(LAYERS, 0.0)
    for name, value in own.items():
        layer_s[_layer(name)] += value
    for layer in LAYERS:
        out[f"layer.{layer}.share"] = ratio(layer_s[layer], job_s)
    for name, _, _, _ in PER_LAYER:
        if name in out:
            continue
        if name.endswith(".self_s"):
            out[name] = per_round(own.get(name[:-len(".self_s")], 0.0))
        elif name.endswith(".calls"):
            out[name] = per_round(calls.get(name[:-len(".calls")], 0))
        else:
            out[name] = per_round(counters.get(name, 0))
    return out


def main(paths: list[str]) -> int:
    if not paths:
        print(__doc__, file=sys.stderr)
        return 2
    cols = [f"layer.{layer}.share" for layer in LAYERS]
    print(f"{'workload':<10} {'seed':>6} {'jobs':>6} "
          + " ".join(f"{c.split('.')[1][:9]:>9}" for c in cols)
          + f" {'covered':>8} {'overhead':>9}")
    for path in paths:
        with open(path, encoding="ascii") as fh:
            doc = json.load(fh)
        m = layer_metrics(doc)
        meta = doc["meta"]
        print(f"{meta['workload']:<10} {meta['seed']:>6} {m['trace.jobs']:>6.0f} "
              + " ".join(f"{m[c]:>9.1%}" for c in cols)
              + f" {m['trace.top_coverage']:>8.1%} {m['trace.overhead_s']:>8.3f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

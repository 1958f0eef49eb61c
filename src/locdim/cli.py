"""Command-line front end.

Verbs: graph, hyper, md, loc, bounds. Every artifact is JSON rendered with
sorted keys and two-space indent plus a trailing newline, so identical inputs
produce byte-identical files. Exit codes: 0 success, 1 verification failure,
2 budget exhausted, 3 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb
from pathlib import Path

from .budget import Budget, BudgetExceededError
from .graphs import (Graph, artifact_hash, cycle_graph, graph_from_json_dict,
                     graph_hash, graph_to_dot, graph_to_json_dict, graph_girth,
                     hoffman_singleton, is_moore_diam2, kneser_graph, petersen)

# Handlers import solver names from the package, which loads their modules on
# first use; so rebinding the package's names (as perfbench does) reaches them.

# Above this many vertices, constructions are emitted without the full
# distance-vector re-verification; the limit guards the pair list that
# kneser_graph generates and graph_hash serializes (K(2,100) has 11.7M edges).
VERIFY_VERTEX_LIMIT = 2500


def _emit(obj: dict, out: str | None) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_text(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def resolve_graph_spec(spec: str):
    """Returns (Graph, PolarityGraph | None). Accepts the named specs
    c5, petersen, hoffman-singleton, cycle:N, kneser:K:N, er:Q, or a path to
    a graph artifact. Artifacts carrying a hash that does not match their
    content are refused."""
    s = spec.strip()
    low = s.lower()
    if low == "c5":
        return cycle_graph(5), None
    if low == "petersen":
        return petersen(), None
    if low in ("hoffman-singleton", "hs"):
        return hoffman_singleton(), None
    if low.startswith("cycle:"):
        return cycle_graph(int(s.split(":", 1)[1])), None
    if low.startswith("kneser:"):
        _, k, n = s.split(":")
        return kneser_graph(int(k), int(n)), None
    if low.startswith("er:"):
        from . import er_polarity_graph
        P = er_polarity_graph(int(s.split(":", 1)[1]))
        return P.graph, P
    path = Path(s)
    if not path.exists():
        raise ValueError(f"unrecognized graph spec {spec!r}")
    data = json.loads(path.read_text())
    G = graph_from_json_dict(data)
    if "hash" in data and data["hash"] != graph_hash(G):
        raise ValueError(f"refusing {s}: embedded hash does not match content")
    return G, None


def parse_vertex_set(G: Graph, text: str) -> tuple[int, ...]:
    """Comma-separated vertices; labels take precedence over indices."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        out.append(G.vertex_by_label(token))
    return tuple(out)


def _load_hypergraph(args):
    from . import Hypergraph
    if getattr(args, "hypergraph", None):
        data = json.loads(Path(args.hypergraph).read_text())
        return Hypergraph.from_json_dict(data)
    if getattr(args, "edges", None) is not None:
        if args.n is None:
            raise ValueError("--edges needs --n")
        return Hypergraph(args.n, json.loads(args.edges))
    raise ValueError("supply --hypergraph FILE or --n N --edges JSON")


def _budget(args) -> Budget | None:
    nodes, seconds = args.budget_nodes, args.budget_seconds
    if nodes is None and seconds is None:
        return None
    return Budget(max_nodes=nodes, max_seconds=seconds)


def _interval(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (int(lo), int(hi))
    return int(text)


def _girth_value(g):
    return g if isinstance(g, int) else "infinity"


# -- handlers ------------------------------------------------------------------


def cmd_graph_build(args) -> int:
    G, _ = resolve_graph_spec(args.graph)
    art = graph_to_json_dict(G)
    art["hash"] = artifact_hash(art)
    if args.stats:
        d = G.diameter()
        art["diameter"] = d if isinstance(d, int) else "infinity"
        art["girth"] = _girth_value(graph_girth(G))
        art["regularity"] = G.regularity()
    _emit(art, args.out)
    return 0


def cmd_graph_export(args) -> int:
    G, _ = resolve_graph_spec(args.graph)
    if args.format == "dot":
        _emit_text(graph_to_dot(G), args.out)
    else:
        art = graph_to_json_dict(G)
        art["hash"] = artifact_hash(art)
        _emit(art, args.out)
    return 0


def cmd_hyper_detect(args) -> int:
    from . import is_detectable
    H = _load_hypergraph(args)
    res = is_detectable(H, args.kprime, budget=_budget(args))
    _emit({
        "n": H.n,
        "kprime": args.kprime,
        "detectable": res.detectable,
        "witness": [sorted(w) for w in res.witness] if res.witness else None,
        "sets_checked": res.sets_checked,
    }, args.out)
    return 0


def cmd_hyper_girth(args) -> int:
    from . import berge_girth
    H = _load_hypergraph(args)
    _emit({"n": H.n, "edges": H.num_edges,
           "berge_girth": _girth_value(berge_girth(H))}, args.out)
    return 0


def cmd_hyper_certify(args) -> int:
    from . import certify_detectable
    H = _load_hypergraph(args)
    ok = certify_detectable(H, args.kprime)
    _emit({"n": H.n, "kprime": args.kprime, "certified": ok}, args.out)
    return 0 if ok else 1


def cmd_hyper_convert(args) -> int:
    from . import hypergraph_to_resolving, resolving_to_hypergraph
    if args.direction == "to-resolving":
        H = _load_hypergraph(args)
        S = hypergraph_to_resolving(H, args.k, args.n)
        _emit({"k": args.k, "n": args.n, "landmarks": list(S),
               "size": len(S)}, args.out)
        return 0
    if args.set is None:
        raise ValueError("to-hypergraph needs --set")
    G = kneser_graph(args.k, args.n)
    S = parse_vertex_set(G, args.set)
    H = resolving_to_hypergraph(S, args.k, args.n)
    _emit(H.to_json_dict(), args.out)
    return 0


def cmd_hyper_gadget(args) -> int:
    from . import berge_girth, search_girth5_gadget
    res = search_girth5_gadget(
        args.k, max_vertices=args.max_vertices, regularity=args.regularity,
        budget=_budget(args))
    if res.gadget is not None:
        H = res.gadget
        _emit({"found": True, "complete": True, "k": args.k,
               "n": H.n, "regularity": H.regularity(),
               "berge_girth": _girth_value(berge_girth(H)),
               "edges": [list(e) for e in H.canonical_edges()]}, args.out)
        return 0
    if res.complete:
        _emit({"found": False, "complete": True, "k": args.k,
               "max_vertices": args.max_vertices}, args.out)
        return 0
    print("error: gadget search budget exhausted", file=sys.stderr)
    return 2


def cmd_hyper_cover(args) -> int:
    from . import (Hypergraph, is_resolving, kneser_resolving_cover,
                   search_girth5_gadget)
    if args.gadget:
        data = json.loads(Path(args.gadget).read_text())
        H = Hypergraph.from_json_dict(data)
    else:
        res = search_girth5_gadget(args.k, max_vertices=args.max_vertices,
                                   budget=_budget(args))
        if res.gadget is None:
            if not res.complete:
                print("error: gadget search budget exhausted", file=sys.stderr)
                return 2
            raise ValueError(
                f"no girth-5 gadget with k={args.k} on <= {args.max_vertices} "
                "vertices; raise --max-vertices or supply --gadget")
        H = res.gadget
    S = kneser_resolving_cover(args.k, args.n, H)
    art = {"k": args.k, "n": args.n, "gadget_points": H.n,
           "landmarks": list(S), "size": len(S), "verified": None}
    if comb(args.n, args.k) <= VERIFY_VERTEX_LIMIT:
        G = kneser_graph(args.k, args.n)
        cert = is_resolving(G, S)
        art["verified"] = cert.verified
        art["graph_hash"] = cert.graph_hash
        if not cert.verified:
            _emit(art, args.out)
            return 1
    _emit(art, args.out)
    return 0


def cmd_md_verify(args) -> int:
    from . import is_resolving
    G, _ = resolve_graph_spec(args.graph)
    S = parse_vertex_set(G, args.set)
    cert = is_resolving(G, S)
    art = cert.to_json_dict()
    art["labels"] = [G.label_of(v) for v in cert.landmarks]
    _emit(art, args.out)
    return 0 if cert.verified else 1


def cmd_md_exact(args) -> int:
    from . import metric_dimension
    G, _ = resolve_graph_spec(args.graph)
    res = metric_dimension(G, budget=_budget(args))
    _emit({
        "graph_hash": res.certificate.graph_hash,
        "lower": res.lower,
        "upper": res.upper,
        "exact": res.exact,
        "value": res.value,
        "landmarks": list(res.landmarks),
        "nodes": res.nodes,
    }, args.out)
    return 0 if res.exact else 2


def cmd_md_greedy(args) -> int:
    from . import greedy_resolving
    G, _ = resolve_graph_spec(args.graph)
    S = greedy_resolving(G)
    _emit({"graph_hash": graph_hash(G), "landmarks": list(S),
           "size": len(S)}, args.out)
    return 0


def cmd_md_construct(args) -> int:
    from . import is_resolving, moore_resolving, polarity_resolving
    G, P = resolve_graph_spec(args.graph)
    if P is not None:
        S = polarity_resolving(P)
        family = "polarity"
    else:
        mk = is_moore_diam2(G)
        if mk is None or mk < 3:
            raise ValueError("no closed-form resolving construction applies "
                             f"to {args.graph!r}")
        S = moore_resolving(G)
        family = "moore"
    cert = is_resolving(G, S)
    _emit({
        "family": family,
        "graph_hash": cert.graph_hash,
        "landmarks": list(S),
        "labels": [G.label_of(v) for v in S],
        "size": len(S),
        "verified": cert.verified,
    }, args.out)
    return 0 if cert.verified else 1


def cmd_loc_decide(args) -> int:
    from . import loc_decide
    G, _ = resolve_graph_spec(args.graph)
    d = loc_decide(G, args.cops, budget=_budget(args))
    _emit({
        "graph_hash": graph_hash(G),
        "cops": args.cops,
        "result": d.result,
        "beliefs": d.beliefs,
        "placements": d.placements,
        "reason": d.reason,
    }, args.out)
    return 2 if d.result == "unknown" else 0


def cmd_loc_number(args) -> int:
    from . import localization_number
    G, _ = resolve_graph_spec(args.graph)
    res = localization_number(G, budget=_budget(args))
    _emit({
        "graph_hash": graph_hash(G),
        "lower": res.lower,
        "upper": res.upper,
        "exact": res.exact,
        "value": res.value,
        "method": res.method,
        "decisions": [list(d) for d in res.decisions],
    }, args.out)
    return 2 if res.method == "budget" else 0


def cmd_loc_verify(args) -> int:
    from . import ConstantStrategy, MooreStrategy, verify_strategy
    G, _ = resolve_graph_spec(args.graph)
    if args.strategy == "moore":
        strat = MooreStrategy(G)
        k = strat.k
        if args.cops is not None and args.cops != k:
            raise ValueError(f"the staged strategy uses exactly k={k} cops")
    else:
        if args.set is None:
            raise ValueError("--strategy static needs --set")
        placement = parse_vertex_set(G, args.set)
        strat = ConstantStrategy(placement)
        k = args.cops if args.cops is not None else len(placement)
    report = verify_strategy(G, strat, k, max_rounds=args.max_rounds)
    art = report.to_json_dict()
    if not args.trace:
        art["trace"] = []
    _emit(art, args.out)
    return 0 if report.outcome == "captured" else 1


def cmd_bounds_report(args) -> int:
    from . import BoundContradictionError, bounds_report
    computed = {}
    if args.beta is not None:
        computed["beta"] = _interval(args.beta)
    if args.zeta is not None:
        computed["zeta"] = _interval(args.zeta)
    try:
        rep = bounds_report(args.family, k=args.k, n=args.n, q=args.q,
                            gadget_m=args.gadget_m, computed=computed)
    except BoundContradictionError as exc:
        print(f"bound contradiction: {exc}", file=sys.stderr)
        return 1
    _emit(rep.to_json_dict(), args.out)
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the artifact here instead of stdout")
    common.add_argument("--budget-nodes", type=int, default=None,
                        help="node budget for search-based commands")
    common.add_argument("--budget-seconds", type=float, default=None,
                        help="wall-clock budget for search-based commands")

    parser = argparse.ArgumentParser(
        prog="locdim",
        description="metric dimension and localization-game toolkit for "
                    "diameter-2 graph families")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_graph = sub.add_parser("graph", help="build and export graphs")
    graph_sub = p_graph.add_subparsers(dest="cmd", required=True)
    g = graph_sub.add_parser("build", parents=[common])
    g.add_argument("--graph", required=True)
    g.add_argument("--stats", action="store_true",
                   help="include diameter, girth and regularity")
    g.set_defaults(func=cmd_graph_build)
    g = graph_sub.add_parser("export", parents=[common])
    g.add_argument("--graph", required=True)
    g.add_argument("--format", choices=["json", "dot"], default="json")
    g.set_defaults(func=cmd_graph_export)

    p_hyper = sub.add_parser("hyper", help="hypergraph detection and gadgets")
    hyper_sub = p_hyper.add_subparsers(dest="cmd", required=True)
    for name, fn in (("detect", cmd_hyper_detect), ("girth", cmd_hyper_girth),
                     ("certify", cmd_hyper_certify)):
        h = hyper_sub.add_parser(name, parents=[common])
        h.add_argument("--hypergraph", help="JSON file with n and edges")
        h.add_argument("--n", type=int, help="vertex count for inline --edges")
        h.add_argument("--edges", help="inline JSON list of edges")
        if name in ("detect", "certify"):
            h.add_argument("--kprime", type=int, required=True)
        h.set_defaults(func=fn)
    h = hyper_sub.add_parser("convert", parents=[common])
    h.add_argument("--direction", choices=["to-resolving", "to-hypergraph"],
                   required=True)
    h.add_argument("--k", type=int, required=True)
    h.add_argument("--n", type=int, required=True)
    h.add_argument("--hypergraph")
    h.add_argument("--edges")
    h.add_argument("--set", help="landmark list for to-hypergraph")
    h.set_defaults(func=cmd_hyper_convert)
    h = hyper_sub.add_parser("gadget", parents=[common])
    h.add_argument("--k", type=int, required=True)
    h.add_argument("--max-vertices", type=int, default=12)
    h.add_argument("--regularity", type=int, default=None)
    h.set_defaults(func=cmd_hyper_gadget)
    h = hyper_sub.add_parser("cover", parents=[common])
    h.add_argument("--k", type=int, required=True)
    h.add_argument("--n", type=int, required=True)
    h.add_argument("--gadget", help="hypergraph JSON file to tile with")
    h.add_argument("--max-vertices", type=int, default=12)
    h.set_defaults(func=cmd_hyper_cover)

    p_md = sub.add_parser("md", help="metric dimension and resolving sets")
    md_sub = p_md.add_subparsers(dest="cmd", required=True)
    m = md_sub.add_parser("verify", parents=[common])
    m.add_argument("--graph", required=True)
    m.add_argument("--set", required=True,
                   help="comma-separated vertices; labels resolve first")
    m.set_defaults(func=cmd_md_verify)
    m = md_sub.add_parser("exact", parents=[common])
    m.add_argument("--graph", required=True)
    m.set_defaults(func=cmd_md_exact)
    m = md_sub.add_parser("greedy", parents=[common])
    m.add_argument("--graph", required=True)
    m.set_defaults(func=cmd_md_greedy)
    m = md_sub.add_parser("construct", parents=[common])
    m.add_argument("--graph", required=True,
                   help="a Moore graph spec or er:Q")
    m.set_defaults(func=cmd_md_construct)

    p_loc = sub.add_parser("loc", help="localization game")
    loc_sub = p_loc.add_subparsers(dest="cmd", required=True)
    l = loc_sub.add_parser("decide", parents=[common])
    l.add_argument("--graph", required=True)
    l.add_argument("--cops", type=int, required=True)
    l.set_defaults(func=cmd_loc_decide)
    l = loc_sub.add_parser("number", parents=[common])
    l.add_argument("--graph", required=True)
    l.set_defaults(func=cmd_loc_number)
    l = loc_sub.add_parser("verify", parents=[common])
    l.add_argument("--graph", required=True)
    l.add_argument("--strategy", choices=["moore", "static"], default="moore")
    l.add_argument("--set", help="placement for --strategy static")
    l.add_argument("--cops", type=int, default=None)
    l.add_argument("--max-rounds", type=int, default=None)
    l.add_argument("--trace", action="store_true",
                   help="keep the full trace in the artifact")
    l.set_defaults(func=cmd_loc_verify)

    p_bounds = sub.add_parser("bounds", help="closed-form bounds")
    bounds_sub = p_bounds.add_subparsers(dest="cmd", required=True)
    b = bounds_sub.add_parser("report", parents=[common])
    b.add_argument("--family", choices=["kneser", "moore", "polarity"],
                   required=True)
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--n", type=int, default=None)
    b.add_argument("--q", type=int, default=None)
    b.add_argument("--gadget-m", type=int, default=None)
    b.add_argument("--beta", help="computed value, either N or LO:HI")
    b.add_argument("--zeta", help="computed value, either N or LO:HI")
    b.set_defaults(func=cmd_bounds_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 3
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

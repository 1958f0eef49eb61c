"""Command-line front end.

Groups: graph, hyper, md, loc, bounds, each with its verbs. A run is one
pipeline: parse the arguments, call the verb's handler, write its artifact,
return its exit code. Only the named group's verb parsers are built. Every
handler ``cmd_*`` returns ``(artifact, exit_code)``: a dict, the DOT text of
``graph export --format dot``, or None. ``main`` alone writes the artifact
(to stdout or ``--out``) and turns exceptions into exit codes. The one
handler that prints is ``bounds report``, its contradiction message:
catching that error in ``main`` would import the bounds module for every
verb. A dict is written byte for byte as ``json.dumps(art, sort_keys=True,
indent=2)`` plus a newline, so identical inputs give identical files, but by
``_indented``, which keeps out the slow pure-Python encoder that ``indent``
selects. Exit codes: 0 success, 1 verification failure, 2 budget exhausted,
3 invalid input. Only the verbs that search (hyper detect, gadget and cover;
md exact; loc decide and number) take ``--budget-nodes`` and
``--budget-seconds``.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain
from pathlib import Path

from .budget import Budget, BudgetExceededError
from .graphs import (Graph, cycle_graph, graph_from_json_dict, graph_hash,
                     graph_to_dot, graph_to_json_dict, graph_girth,
                     hoffman_singleton, is_moore_diam2, kneser_graph,
                     kneser_labels, petersen)

# Handlers import solver names from the package, which loads their modules on
# first use; so rebinding the package's names (as perfbench does) reaches them.


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
    return tuple(G.vertex_by_label(t) for t in map(str.strip, text.split(","))
                 if t)


def _load_hypergraph(args):
    from . import Hypergraph
    if getattr(args, "hypergraph", None):
        data = json.loads(Path(args.hypergraph).read_text())
        return Hypergraph.from_json_dict(data)
    if getattr(args, "edges", None) is not None:
        if args.n is None:
            raise ValueError("--edges needs --n")
        return Hypergraph.from_json_dict({"n": args.n,
                                          "edges": json.loads(args.edges)})
    raise ValueError("supply --hypergraph FILE or --n N --edges JSON")


def _budget(args) -> Budget | None:
    nodes, seconds = args.budget_nodes, args.budget_seconds
    if nodes is None and seconds is None:
        return None
    return Budget(max_nodes=nodes, max_seconds=seconds)


def _find_gadget(args, regularity=None):
    """The girth-5 gadget search's answer, a gadget or None when none
    exists; a search cut short by its budget raises."""
    from . import search_girth5_gadget
    res = search_girth5_gadget(args.k, max_vertices=args.max_vertices,
                               regularity=regularity, budget=_budget(args))
    if not res.complete:
        raise BudgetExceededError("gadget search budget exhausted")
    return res.gadget


def _interval(text: str):
    if ":" in text:
        lo, hi = text.split(":", 1)
        return (int(lo), int(hi))
    return int(text)


def _or_infinity(g):
    return g if isinstance(g, int) else "infinity"


# -- handlers ------------------------------------------------------------------


def cmd_graph_build(args):
    G, _ = resolve_graph_spec(args.graph)
    art = graph_to_json_dict(G)
    art["hash"] = graph_hash(G)
    if args.stats:
        art["diameter"] = _or_infinity(G.diameter())
        art["girth"] = _or_infinity(graph_girth(G))
        art["regularity"] = G.regularity()
    return art, 0


def cmd_graph_export(args):
    if args.format == "json":  # the artifact of ``graph build``
        return cmd_graph_build(args)
    G, _ = resolve_graph_spec(args.graph)
    return graph_to_dot(G), 0


def cmd_hyper_detect(args):
    from . import is_detectable
    H = _load_hypergraph(args)
    res = is_detectable(H, args.kprime, budget=_budget(args))
    return {
        "n": H.n,
        "kprime": args.kprime,
        "detectable": res.detectable,
        "witness": [sorted(w) for w in res.witness] if res.witness else None,
        "sets_checked": res.sets_checked,
    }, 0


def cmd_hyper_girth(args):
    from . import berge_girth
    H = _load_hypergraph(args)
    return {"n": H.n, "edges": len(H.edges),
            "berge_girth": _or_infinity(berge_girth(H))}, 0


def cmd_hyper_certify(args):
    from . import certify_detectable
    H = _load_hypergraph(args)
    ok = certify_detectable(H, args.kprime)
    return {"n": H.n, "kprime": args.kprime, "certified": ok}, 0 if ok else 1


def cmd_hyper_convert(args):
    from . import hypergraph_to_resolving, resolving_to_hypergraph
    if args.direction == "to-resolving":
        H = _load_hypergraph(args)
        S = hypergraph_to_resolving(H, args.k, args.n)
        return {"k": args.k, "n": args.n, "landmarks": list(S),
                "size": len(S)}, 0
    if args.set is None:
        raise ValueError("to-hypergraph needs --set")
    labels = kneser_labels(args.k, args.n)  # K(k,n) itself is not needed
    S = parse_vertex_set(Graph(len(labels), (), labels=labels), args.set)
    return resolving_to_hypergraph(S, args.k, args.n).to_json_dict(), 0


def cmd_hyper_gadget(args):
    from . import berge_girth
    H = _find_gadget(args, args.regularity)
    if H is None:
        return {"found": False, "complete": True, "k": args.k,
                "max_vertices": args.max_vertices}, 0
    return {"found": True, "complete": True, "k": args.k,
            "n": H.n, "regularity": H.regularity(),
            "berge_girth": _or_infinity(berge_girth(H)),
            "edges": [list(e) for e in H.canonical_edges()]}, 0


def cmd_hyper_cover(args):
    from . import Hypergraph, is_resolving, kneser_resolving_cover
    if args.gadget:
        if (args.budget_nodes, args.budget_seconds) != (None, None):
            raise ValueError("--budget-nodes and --budget-seconds cap the gadget "
                             "search, which --gadget skips")
        data = json.loads(Path(args.gadget).read_text())
        H = Hypergraph.from_json_dict(data)
    else:
        H = _find_gadget(args)
        if H is None:
            raise ValueError(
                f"no girth-5 gadget with k={args.k} on <= {args.max_vertices} "
                "vertices; raise --max-vertices or supply --gadget")
    S = kneser_resolving_cover(args.k, args.n, H)
    cert = is_resolving(kneser_graph(args.k, args.n), S)
    return {"k": args.k, "n": args.n, "gadget_points": H.n,
            "landmarks": list(S), "size": len(S), "verified": cert.verified,
            "graph_hash": cert.graph_hash}, 0 if cert.verified else 1


def cmd_md_verify(args):
    from . import is_resolving
    G, _ = resolve_graph_spec(args.graph)
    S = parse_vertex_set(G, args.set)
    cert = is_resolving(G, S)
    art = cert.to_json_dict()
    art["labels"] = [G.label_of(v) for v in cert.landmarks]
    return art, 0 if cert.verified else 1


def cmd_md_exact(args):
    from . import metric_dimension
    G, _ = resolve_graph_spec(args.graph)
    res = metric_dimension(G, budget=_budget(args))
    return {
        "graph_hash": res.certificate.graph_hash,
        "lower": res.lower,
        "upper": res.upper,
        "exact": res.exact,
        "value": res.value,
        "landmarks": list(res.landmarks),
        "nodes": res.nodes,
    }, 0 if res.exact else 2


def cmd_md_greedy(args):
    from . import greedy_resolving
    G, _ = resolve_graph_spec(args.graph)
    S = greedy_resolving(G)
    return {"graph_hash": graph_hash(G), "landmarks": list(S),
            "size": len(S)}, 0


def cmd_md_construct(args):
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
    return {
        "family": family,
        "graph_hash": cert.graph_hash,
        "landmarks": list(S),
        "labels": [G.label_of(v) for v in S],
        "size": len(S),
        "verified": cert.verified,
    }, 0 if cert.verified else 1


def cmd_loc_decide(args):
    from . import loc_decide
    G, _ = resolve_graph_spec(args.graph)
    d = loc_decide(G, args.cops, budget=_budget(args))
    return {
        "graph_hash": graph_hash(G),
        "cops": args.cops,
        "result": d.result,
        "beliefs": d.beliefs,
        "placements": d.placements,
        "reason": d.reason,
    }, 2 if d.result == "unknown" else 0


def cmd_loc_number(args):
    from . import localization_number
    G, _ = resolve_graph_spec(args.graph)
    res = localization_number(G, budget=_budget(args))
    return {
        "graph_hash": graph_hash(G),
        "lower": res.lower,
        "upper": res.upper,
        "exact": res.exact,
        "value": res.value,
        "method": res.method,
        "decisions": [list(d) for d in res.decisions],
    }, 2 if res.method == "budget" else 0


def cmd_loc_verify(args):
    from . import ConstantStrategy, MooreStrategy, verify_strategy
    if args.max_rounds is not None and args.max_rounds < 0:
        raise ValueError(f"--max-rounds must be >= 0, got {args.max_rounds}")
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
    return art, 0 if report.outcome == "captured" else 1


def cmd_bounds_report(args):
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
        return None, 1
    return rep.to_json_dict(), 0


# -- parser ------------------------------------------------------------------


def build_parser(verb: str | None = None) -> argparse.ArgumentParser:
    """The five groups with their help, and the verbs of the group named
    ``verb`` (of every group when it is None): a parse reads no other."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the artifact here instead of stdout")
    search = argparse.ArgumentParser(add_help=False, parents=[common])
    search.add_argument("--budget-nodes", type=int, default=None,
                        help="node budget for search-based commands")
    search.add_argument("--budget-seconds", type=float, default=None,
                        help="wall-clock budget for search-based commands")

    parser = argparse.ArgumentParser(
        prog="locdim",
        description="metric dimension and localization-game toolkit for "
                    "diameter-2 graph families")
    sub = parser.add_subparsers(dest="verb", required=True)
    groups = {}
    for name, text in (("graph", "build and export graphs"),
                       ("hyper", "hypergraph detection and gadgets"),
                       ("md", "metric dimension and resolving sets"),
                       ("loc", "localization game"),
                       ("bounds", "closed-form bounds")):
        group = sub.add_parser(name, help=text)
        if verb in (None, name):
            groups[name] = group.add_subparsers(dest="cmd", required=True)

    if "graph" in groups:
        g = groups["graph"].add_parser("build", parents=[common])
        g.add_argument("--graph", required=True)
        g.add_argument("--stats", action="store_true",
                       help="include diameter, girth and regularity")
        g.set_defaults(func=cmd_graph_build)
        g = groups["graph"].add_parser("export", parents=[common])
        g.add_argument("--graph", required=True)
        g.add_argument("--format", choices=["json", "dot"], default="json")
        g.set_defaults(func=cmd_graph_export, stats=False)

    if "hyper" in groups:
        for name, fn in (("detect", cmd_hyper_detect), ("girth", cmd_hyper_girth),
                         ("certify", cmd_hyper_certify)):
            h = groups["hyper"].add_parser(
                name, parents=[search if name == "detect" else common])
            h.add_argument("--hypergraph", help="JSON file with n and edges")
            h.add_argument("--n", type=int, help="vertex count for inline --edges")
            h.add_argument("--edges", help="inline JSON list of edges")
            if name in ("detect", "certify"):
                h.add_argument("--kprime", type=int, required=True)
            h.set_defaults(func=fn)
        h = groups["hyper"].add_parser("convert", parents=[common])
        h.add_argument("--direction", choices=["to-resolving", "to-hypergraph"],
                       required=True)
        h.add_argument("--k", type=int, required=True)
        h.add_argument("--n", type=int, required=True)
        h.add_argument("--hypergraph")
        h.add_argument("--edges")
        h.add_argument("--set", help="landmark list for to-hypergraph")
        h.set_defaults(func=cmd_hyper_convert)
        h = groups["hyper"].add_parser("gadget", parents=[search])
        h.add_argument("--k", type=int, required=True)
        h.add_argument("--max-vertices", type=int, default=12)
        h.add_argument("--regularity", type=int, default=None)
        h.set_defaults(func=cmd_hyper_gadget)
        h = groups["hyper"].add_parser("cover", parents=[search])
        h.add_argument("--k", type=int, required=True)
        h.add_argument("--n", type=int, required=True)
        h.add_argument("--gadget", help="hypergraph JSON file to tile with")
        h.add_argument("--max-vertices", type=int, default=12)
        h.set_defaults(func=cmd_hyper_cover)

    if "md" in groups:
        m = groups["md"].add_parser("verify", parents=[common])
        m.add_argument("--graph", required=True)
        m.add_argument("--set", required=True,
                       help="comma-separated vertices; labels resolve first")
        m.set_defaults(func=cmd_md_verify)
        m = groups["md"].add_parser("exact", parents=[search])
        m.add_argument("--graph", required=True)
        m.set_defaults(func=cmd_md_exact)
        m = groups["md"].add_parser("greedy", parents=[common])
        m.add_argument("--graph", required=True)
        m.set_defaults(func=cmd_md_greedy)
        m = groups["md"].add_parser("construct", parents=[common])
        m.add_argument("--graph", required=True,
                       help="a Moore graph spec or er:Q")
        m.set_defaults(func=cmd_md_construct)

    if "loc" in groups:
        l = groups["loc"].add_parser("decide", parents=[search])
        l.add_argument("--graph", required=True)
        l.add_argument("--cops", type=int, required=True)
        l.set_defaults(func=cmd_loc_decide)
        l = groups["loc"].add_parser("number", parents=[search])
        l.add_argument("--graph", required=True)
        l.set_defaults(func=cmd_loc_number)
        l = groups["loc"].add_parser("verify", parents=[common])
        l.add_argument("--graph", required=True)
        l.add_argument("--strategy", choices=["moore", "static"], default="moore")
        l.add_argument("--set", help="placement for --strategy static")
        l.add_argument("--cops", type=int, default=None)
        l.add_argument("--max-rounds", type=int, default=None)
        l.add_argument("--trace", action="store_true",
                       help="keep the full trace in the artifact")
        l.set_defaults(func=cmd_loc_verify)

    if "bounds" in groups:
        b = groups["bounds"].add_parser("report", parents=[common])
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


_leaf = json.JSONEncoder().encode  # the C encoder, for one scalar


def _indented(x, ind: str = "\n") -> str:
    """``json.dumps(x, sort_keys=True, indent=2)``, without the pure-Python
    encoder that ``indent`` selects: each scalar, ``{}`` and ``[]`` go through
    the C encoder, and a list of [int, int] pairs is one ``%`` format."""
    inner = ind + "  "
    if isinstance(x, dict) and x:
        return "{" + inner + ("," + inner).join(
            _leaf(k if isinstance(k, str) else _leaf(k)) + ": "
            + _indented(v, inner) for k, v in sorted(x.items())) + ind + "}"
    if not isinstance(x, (list, tuple)) or not x:
        return _leaf(x)
    if set(map(type, x)) <= {list, tuple} and set(map(len, x)) == {2}:
        flat = tuple(chain.from_iterable(x))
        if set(map(type, flat)) == {int}:
            row = "[" + inner + "  %d," + inner + "  %d" + inner + "]"
            return "[" + inner + ("," + inner).join([row] * len(x)) % flat + ind + "]"
    return "[" + inner + ("," + inner).join(
        _indented(v, inner) for v in x) + ind + "]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the first argument not starting with "-" names the group, if any does
    parser = build_parser(next((a for a in argv if a[:1] != "-"), ""))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 on --help, 2 on bad input
        return 0 if exc.code == 0 else 3
    try:
        art, code = args.func(args)
        if art is not None:
            text = art if isinstance(art, str) else _indented(art) + "\n"
            if args.out:
                Path(args.out).write_text(text)
            else:
                sys.stdout.write(text)
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

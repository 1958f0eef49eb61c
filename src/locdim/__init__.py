"""Metric dimension and localization game on diameter-2 graph families.

Submodules load on first use: a public name is imported when first read."""

from importlib import import_module

_HOMES = {
    "bounds": ("BoundContradictionError", "BoundEntry", "BoundsReport",
               "bounds_report", "kneser_beta_lower", "kneser_beta_upper",
               "kneser_zeta_lower", "moore_bounds", "polarity_bounds"),
    "budget": ("Budget", "BudgetExceededError"),
    "fields": ("Field", "PolarityGraph", "er_polarity_graph", "gf",
               "is_prime_power", "normalize_point", "projective_points"),
    "game": ("ConstantStrategy", "LocDecision", "LocNumberResult",
             "MooreStrategy", "UnhandledBeliefError", "VerificationReport",
             "loc_decide", "localization_number", "moore_strategy",
             "probe_partition", "spread", "verify_strategy"),
    "graphs": ("Graph", "automorphism_group", "cycle_graph",
               "graph_from_json_dict", "graph_girth", "graph_hash",
               "graph_to_dot", "graph_to_json_dict", "has_c4",
               "hoffman_singleton", "is_moore_diam2", "kneser_graph",
               "kneser_vertex_index", "kneser_vertex_subsets", "petersen"),
    "hypergraphs": ("DegreeCheckReport", "DetectResult", "Detection",
                    "GadgetSearchResult", "Hypergraph", "berge_girth",
                    "certify_detectable", "check_degree_properties",
                    "default_regularity", "detection_vector",
                    "hypergraph_to_resolving", "is_detectable",
                    "kneser_resolving_cover", "resolving_to_hypergraph",
                    "search_girth5_gadget"),
    "resolving": ("MetricDimensionResult", "ResolvingCertificate",
                  "greedy_resolving", "is_resolving", "metric_dimension",
                  "moore_resolving", "polarity_resolving"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))

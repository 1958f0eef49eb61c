"""Metric dimension and localization game on diameter-2 graph families."""

from .bounds import (BoundContradictionError, BoundEntry, BoundsReport,
                     bounds_report, kneser_beta_lower, kneser_beta_upper,
                     kneser_zeta_lower, moore_bounds, polarity_bounds)
from .budget import Budget, BudgetExceededError
from .fields import (Field, PolarityGraph, er_polarity_graph, gf,
                     is_prime_power, normalize_point, projective_points)
from .game import (ConstantStrategy, LocDecision, LocNumberResult,
                   MooreStrategy, UnhandledBeliefError, VerificationReport,
                   loc_decide, localization_number, moore_strategy,
                   probe_partition, spread, verify_strategy)
from .graphs import (Graph, automorphism_group, cycle_graph, graph_from_json_dict,
                     graph_girth, graph_hash, graph_to_dot, graph_to_json_dict,
                     has_c4, hoffman_singleton, is_moore_diam2, kneser_graph,
                     kneser_vertex_index, kneser_vertex_subsets, petersen)
from .hypergraphs import (DegreeCheckReport, DetectResult, Detection,
                          GadgetSearchResult, Hypergraph, berge_girth,
                          certify_detectable, check_degree_properties,
                          default_regularity, detection_vector,
                          hypergraph_to_resolving, is_detectable,
                          kneser_resolving_cover, resolving_to_hypergraph,
                          search_girth5_gadget)
from .resolving import (MetricDimensionResult, ResolvingCertificate,
                        greedy_resolving, is_resolving, metric_dimension,
                        moore_resolving, polarity_resolving)

__version__ = "0.1.0"

__all__ = [
    "BoundContradictionError", "BoundEntry", "BoundsReport", "Budget",
    "BudgetExceededError", "ConstantStrategy", "DegreeCheckReport",
    "DetectResult", "Detection", "Field",
    "GadgetSearchResult", "Graph", "Hypergraph",
    "LocDecision", "LocNumberResult", "MetricDimensionResult",
    "MooreStrategy", "PolarityGraph",
    "ResolvingCertificate", "UnhandledBeliefError", "VerificationReport",
    "automorphism_group", "berge_girth", "bounds_report", "certify_detectable",
    "check_degree_properties", "cycle_graph", "default_regularity",
    "detection_vector", "er_polarity_graph", "gf", "graph_from_json_dict",
    "graph_girth", "graph_hash", "graph_to_dot", "graph_to_json_dict",
    "greedy_resolving", "has_c4", "hoffman_singleton",
    "hypergraph_to_resolving", "is_detectable", "is_moore_diam2",
    "is_prime_power", "is_resolving", "kneser_beta_lower",
    "kneser_beta_upper", "kneser_graph", "kneser_resolving_cover",
    "kneser_vertex_index", "kneser_vertex_subsets", "kneser_zeta_lower",
    "loc_decide", "localization_number", "metric_dimension", "moore_bounds",
    "moore_resolving", "moore_strategy", "normalize_point", "petersen",
    "polarity_bounds", "polarity_resolving", "probe_partition",
    "projective_points", "resolving_to_hypergraph", "search_girth5_gadget",
    "spread", "verify_strategy",
]

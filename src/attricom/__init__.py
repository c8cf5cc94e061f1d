"""Overlapping community detection in networks with binary node attributes.

Fits a generative model in which latent community memberships produce both
the edges (shared memberships raise connection probability) and the node
attributes (one logistic model per attribute over the membership vector),
by block-coordinate projected gradient ascent. Ships synthetic generators,
held-out model selection, and cover-agreement metrics.
"""

from .core import (AffiliationMatrix, AttributedGraph, AttributeWeights,
                   BuildDiagnostics, CommunityCover, FitConfig,
                   GraphBuildError, MAX_MEMBERSHIP, MIN_DOT_GUARD, build_graph,
                   refresh_column_sums)
from .evaluation import SimilarityKind, match_score, relative_gain, set_similarity
from .likelihood import (ObjectiveValue, attr_prob, edge_prob,
                         grad_attr_weights, grad_node, log_lik_attr,
                         log_lik_graph, objective)
from .seeding import SeedSet, conductance, init_affiliations, locally_minimal_neighborhoods
from .selection import HoldoutMask, choose_num_communities, holdout_loglik, make_holdout
from .solver import (FitResult, default_threshold, fit, rank_attributes,
                     threshold_memberships, update_attr_weights, update_node)
from .synthetic import (ForestFireParams, PlantedSpec, bernoulli_attributes,
                        forest_fire, planted_instance, remove_edges)

__version__ = "0.1.0"

__all__ = [
    "AffiliationMatrix", "AttributedGraph", "AttributeWeights",
    "BuildDiagnostics", "CommunityCover", "FitConfig", "FitResult",
    "ForestFireParams", "GraphBuildError", "HoldoutMask",
    "MAX_MEMBERSHIP", "MIN_DOT_GUARD", "ObjectiveValue", "PlantedSpec", "SeedSet",
    "SimilarityKind", "attr_prob", "bernoulli_attributes", "build_graph",
    "choose_num_communities", "conductance", "default_threshold", "edge_prob",
    "fit", "forest_fire", "grad_attr_weights", "grad_node",
    "holdout_loglik", "init_affiliations", "locally_minimal_neighborhoods",
    "log_lik_attr", "log_lik_graph", "make_holdout", "match_score",
    "objective", "planted_instance", "rank_attributes", "refresh_column_sums",
    "relative_gain", "remove_edges", "set_similarity",
    "threshold_memberships", "update_attr_weights", "update_node",
]

"""termnet: per-term interaction networks, subgraph census, and controversy classification.

The pipeline turns line-delimited interaction records into three directed
networks per term (mention, reply, quote-retweet), extracts a 9-metric global
feature vector and an exact 212-class census of weakly-connected induced
subgraphs on 3 and 4 nodes, and runs a binary classification protocol
(PCA, logistic regression / linear SVM / random forest, 10-fold CV).
"""

__version__ = "0.1.0"

from .graphs import DirectedGraph, build_graph, degree_sequence, induced_subgraph_code
from .ingest import (
    InteractionKind,
    InteractionRecord,
    TermNetworkSet,
    build_corpus,
    parse_records,
    term_matches,
)
from .ranking import aggregate_ratings, label_distribution, partition_terms
from .metrics import GlobalFeatures, global_feature_vector
from .census import CensusVector, build_class_table, census, census_parallel
from .ml import assemble_feature_sets, cross_validate, pca2, standardize
from .synth import SynthSpec, gen_random_digraph, generate_corpus

__all__ = [
    "DirectedGraph",
    "build_graph",
    "degree_sequence",
    "induced_subgraph_code",
    "InteractionKind",
    "InteractionRecord",
    "TermNetworkSet",
    "parse_records",
    "term_matches",
    "build_corpus",
    "aggregate_ratings",
    "partition_terms",
    "label_distribution",
    "GlobalFeatures",
    "global_feature_vector",
    "CensusVector",
    "build_class_table",
    "census",
    "census_parallel",
    "assemble_feature_sets",
    "standardize",
    "pca2",
    "cross_validate",
    "SynthSpec",
    "gen_random_digraph",
    "generate_corpus",
    "__version__",
]

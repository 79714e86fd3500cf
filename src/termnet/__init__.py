"""termnet: per-term interaction networks, subgraph census, and controversy classification.

The pipeline turns line-delimited interaction records into three directed
networks per term (mention, reply, quote-retweet), extracts a 9-metric global
feature vector and an exact 212-class census of weakly-connected induced
subgraphs on 3 and 4 nodes, and runs a binary classification protocol
(PCA, logistic regression / linear SVM / random forest, 10-fold CV).
"""

import importlib
import os

# One BLAS thread: a threaded BLAS may sum in a different order and change
# the last bits of PCA outputs with the core count.  This only takes effect
# when termnet is imported before numpy.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"

from .graphs import DirectedGraph, build_graph, degree_sequence
from .ingest import (
    InteractionKind,
    InteractionRecord,
    TermNetworkSet,
    build_corpus,
    parse_records,
)
from .ranking import aggregate_ratings, partition_terms
from .metrics import GlobalFeatures, global_feature_vector
from .census import CensusVector, build_class_table, census

# The names that compute with numpy, by module: each loads numpy on first use,
# so the stages that do not compute with it start without it.
_NUMPY_NAMES = dict(
    assemble_feature_sets="ml",
    cross_validate="ml",
    pca2="ml",
    standardize="ml",
    SynthSpec="synth",
    generate_corpus="synth",
)


def __getattr__(name):
    if name in _NUMPY_NAMES:
        return getattr(importlib.import_module(f".{_NUMPY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DirectedGraph",
    "build_graph",
    "degree_sequence",
    "InteractionKind",
    "InteractionRecord",
    "TermNetworkSet",
    "parse_records",
    "build_corpus",
    "aggregate_ratings",
    "partition_terms",
    "GlobalFeatures",
    "global_feature_vector",
    "CensusVector",
    "build_class_table",
    "census",
    *_NUMPY_NAMES,
    "__version__",
]

"""termnet: per-term interaction networks, subgraph census, and controversy classification.

The pipeline turns line-delimited interaction records into three directed
networks per term (mention, reply, quote-retweet), extracts a 9-metric global
feature vector and an exact 212-class census of weakly-connected induced
subgraphs on 3 and 4 nodes, and runs a binary classification protocol
(PCA, logistic regression / linear SVM / random forest, 10-fold CV).
Import each name from its module (`termnet.ingest`, `termnet.census`, ...).
"""

import os

# One BLAS thread: a threaded BLAS may sum in a different order and change
# the last bits of PCA outputs with the core count.  This only takes effect
# when termnet is imported before numpy.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"

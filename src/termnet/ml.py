"""Learning stack built directly on numpy: standardization, 2-component PCA,
binary logistic regression, a linear SVM, a random forest, stratified
cross-validation and pooled confusion metrics.

No fitted-model library is used anywhere.  PCA takes its spectrum from
numpy's LAPACK symmetric eigensolver; the tests check it against an SVD of the
centered matrix, which shares no code path with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .census import TOTAL_CLASSES
from .ingest import InteractionKind
from .manifest import InputError
from .metrics import METRIC_NAMES
from .ranking import CONTROVERSIAL

__all__ = [
    "Dataset",
    "FoldPlan",
    "LogisticModel",
    "PcaResult",
    "RandomForestModel",
    "assemble_feature_sets",
    "confusion_metrics",
    "cross_validate",
    "pca2",
    "plan_folds",
    "pool_folds",
    "standardize",
    "stratified_folds",
    "train_blr",
    "train_problem",
    "train_rfc",
]

BLR_TOL = 1e-8
BLR_MAX_ITER = 5000
SVM_C = 1.0
SVM_ITERATIONS = 1000
RFC_TREES = 100
RFC_PASS_CELLS = 1 << 12  # candidate cells per split pass; bounds the forest's peak memory


# ---------------------------------------------------------------- features


@dataclass(frozen=True)
class Dataset:
    name: str
    X: np.ndarray
    y: np.ndarray
    row_terms: tuple[str, ...]
    col_names: tuple[str, ...]

    def __post_init__(self):
        if self.X.shape[0] != self.y.shape[0]:
            raise InputError(f"dataset {self.name}: {self.X.shape[0]} rows vs {self.y.shape[0]} labels")
        if not np.isfinite(self.X).all():
            raise InputError(f"dataset {self.name}: non-finite feature values")


def standardize(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column z-scores with population sigma.

    Returns (X', means, stds); zero-variance columns come out as all zeros and
    are recognizable by stds == 0.
    """
    X = np.asarray(X, dtype=np.float64)
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    return _rescale(X, means, stds), means, stds


def _rescale(X: np.ndarray, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """(X - means) / stds, with zero-variance columns set to zero."""
    safe = np.where(stds == 0.0, 1.0, stds)
    Xp = (X - means) / safe
    Xp[:, stds == 0.0] = 0.0
    return Xp


def assemble_feature_sets(
    global_vecs: dict[tuple[str, str], Sequence[float]],
    local_vecs: dict[tuple[str, str], Sequence[float]],
    labels: list,
) -> dict[str, Dataset]:
    """The eight datasets {global, local} x {mention, reply, quote, combined}.

    `labels` is a list of ranking.TermLabel; rows are terms in ascending
    order, y = 1 for the controversial class.  Every labeled term must have
    vectors for all three interaction kinds in both families.
    """
    terms = sorted({lab.term for lab in labels})
    if not terms:
        raise InputError("no labeled terms")
    if len(terms) != len(labels):
        raise InputError("duplicate terms in labels")
    label_of = {lab.term: lab.label for lab in labels}
    y = np.array([1 if label_of[t] == CONTROVERSIAL else 0 for t in terms], dtype=np.int64)

    kinds = [kind.value for kind in InteractionKind]
    missing = [
        (t, k)
        for t in terms
        for k in kinds
        if (t, k) not in global_vecs or (t, k) not in local_vecs
    ]
    if missing:
        shown = ", ".join(f"{t}/{k}" for t, k in missing[:5])
        raise InputError(f"{len(missing)} labeled term networks lack features in the features file: {shown}")

    local_names = tuple(f"n{i:03d}" for i in range(TOTAL_CLASSES))
    datasets: dict[str, Dataset] = {}
    for family, vecs, names in (
        ("global", global_vecs, tuple(METRIC_NAMES)),
        ("local", local_vecs, local_names),
    ):
        per_kind = {}
        for kind in kinds:
            X = np.array([vecs[(t, kind)] for t in terms], dtype=np.float64)
            if X.shape[1] != len(names):
                raise InputError(f"{family}/{kind}: expected {len(names)} columns, got {X.shape[1]}")
            per_kind[kind] = X
            datasets[f"{family}-{kind}"] = Dataset(
                name=f"{family}-{kind}", X=X, y=y, row_terms=tuple(terms), col_names=names
            )
        combined = np.hstack([per_kind[k] for k in kinds])
        combined_names = tuple(f"{k}_{c}" for k in kinds for c in names)
        datasets[f"{family}-combined"] = Dataset(
            name=f"{family}-combined", X=combined, y=y, row_terms=tuple(terms), col_names=combined_names
        )
    return datasets


# ---------------------------------------------------------------- PCA


@dataclass(frozen=True)
class PcaResult:
    components: np.ndarray  # (2, d), rows orthonormal
    explained_variance: np.ndarray  # (2,), non-increasing
    projected: np.ndarray  # (n, 2) = X @ components.T


def _fix_sign(w: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(w)))
    return -w if w[i] < 0 else w


def pca2(X: np.ndarray) -> PcaResult:
    """Top-2 principal components of the sample covariance of X.

    Columns are centered internally; the covariance divisor is n-1.  The
    spectrum comes from one `np.linalg.eigh` (LAPACK's symmetric solver) call
    on the d x d covariance, or, when the feature count exceeds the row count,
    on the n x n Gram matrix, which shares the nonzero spectrum; its
    eigenvectors are mapped back through Xc.T.  Component signs are fixed by
    making each one's largest-magnitude loading positive.  The `projected`
    coordinates are X @ components.T on the input as given (for standardized
    input the centering is a no-op).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2 or X.shape[1] < 2:
        raise InputError(f"pca2 needs a 2-D matrix with >=2 rows and >=2 columns, got {X.shape}")
    n, d = X.shape
    Xc = X - X.mean(axis=0)
    denom = n - 1
    wide = d > n

    S = (Xc @ Xc.T if wide else Xc.T @ Xc) / denom
    if float(np.trace(S)) <= 0.0:
        raise InputError("pca2: zero-variance input")
    vals, vecs = np.linalg.eigh(S)
    vals, vecs = vals[::-1], vecs[:, ::-1]  # eigh sorts ascending
    variance = np.maximum(vals[:2], 0.0)
    if not wide:
        components = np.vstack([_fix_sign(vecs[:, 0]), _fix_sign(vecs[:, 1])])
    else:
        comps = []
        for i in range(2):
            lam = float(vals[i])
            if lam > 1e-12 * max(1.0, float(vals[0])):
                w = Xc.T @ vecs[:, i] / math.sqrt(denom * lam)
            else:
                # rank-deficient data: fall back to any unit vector orthogonal
                # to the leading component so the result stays orthonormal
                w = np.zeros(d)
                lead = comps[0] if comps else np.zeros(d)
                j = int(np.argmin(np.abs(lead)))
                w[j] = 1.0
                w -= lead * float(lead @ w)
                w /= math.sqrt(float(w @ w))
                variance[i] = 0.0
            comps.append(_fix_sign(w))
        components = np.vstack(comps)

    return PcaResult(
        components=components,
        explained_variance=variance,
        projected=X @ components.T,
    )


# ---------------------------------------------------------------- classifiers


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) for z >= 0 and exp(z) / (1 + exp(z)) below, so exp
    never overflows."""
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


@dataclass(frozen=True)
class LogisticModel:
    weights: np.ndarray  # (d+1,), last entry is the intercept
    converged: bool
    iterations: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Sign of X @ w + b, with `weights` = (w, b)."""
        z = X @ self.weights[:-1] + self.weights[-1]
        return (z >= 0.0).astype(np.int64)


def train_blr(X: np.ndarray, y: np.ndarray, tol: float = BLR_TOL, max_iter: int = BLR_MAX_ITER) -> LogisticModel:
    """Maximum-likelihood logistic weights by gradient ascent.

    Ascends the mean log-likelihood with Armijo backtracking; stops when the
    gradient 2-norm drops below tol.  On separable data the MLE is at
    infinity; the ascent either meets the tolerance at a large finite-margin
    solution (the gradient decays exponentially in ||w||) or, failing that,
    comes back flagged converged=False, never silently.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = X.shape[0]
    Xa = np.hstack([X, np.ones((n, 1))])
    w = np.zeros(Xa.shape[1])

    z = Xa @ w
    ll = float((y * z - np.logaddexp(0.0, z)).sum()) / n
    step = 1.0
    for it in range(1, max_iter + 1):
        grad = Xa.T @ (y - _sigmoid(z)) / n
        gnorm2 = float(grad @ grad)
        if math.sqrt(gnorm2) < tol:
            return LogisticModel(weights=w, converged=True, iterations=it - 1)
        t = step * 2.0
        improved = False
        while t > 1e-14:
            w_new = w + t * grad
            z_new = Xa @ w_new
            ll_new = float((y * z_new - np.logaddexp(0.0, z_new)).sum()) / n
            if ll_new >= ll + 1e-4 * t * gnorm2:
                improved = True
                break
            t *= 0.5
        if not improved:
            # ascent stalled at floating-point resolution before meeting tol
            return LogisticModel(weights=w, converged=False, iterations=it)
        w, z, ll, step = w_new, z_new, ll_new, t
    return LogisticModel(weights=w, converged=False, iterations=max_iter)


def _augment(X: np.ndarray) -> np.ndarray:
    """X with a constant 1 column appended (the SVM's bias feature)."""
    return np.hstack([X, np.ones((X.shape[0], 1))])


def _pegasos(grams: list, labels: list, C: float = SVM_C, iterations: int = SVM_ITERATIONS) -> list:
    """Full-batch Pegasos for several problems at once, in the Gram (dual) form.

    The linear SVM: each problem minimizes lambda/2 ||w||^2 + mean hinge loss
    by the deterministic full-batch Pegasos schedule, step 1/(lambda t) and
    the usual 1/sqrt(lambda) radius projection.  The bias is the augmented
    constant feature (_augment), so it is (slightly) regularized too.

    Problem i has Gram matrix grams[i] = Xa Xa.T over its n_i augmented rows
    and 0/1 labels labels[i].  Every Pegasos iterate lies in the row span,
    w = Xa.T beta (Shalev-Shwartz et al., ICML 2007, section 4), so a step
    needs only the Gram matrix: with u = K beta = Xa w the training margins,

        beta <- (1 - 1/t) beta + [s u < 1] s / (lambda_i n_i t),

    then u = K beta and ||w||^2 = beta . u, and beta and u scale together
    when w leaves the radius 1/sqrt(lambda_i), lambda_i = 1/(C n_i).  The
    problems are stacked into one zero-padded (problems, n, n) array with
    s = +-1 and 0 on the padding, so padded rows get no coefficient and
    enter no margin or norm; each step is one stacked matmul.  Returns
    beta for each problem, of length n_i.
    """
    if not labels:
        return []
    sizes = np.array([len(lab) for lab in labels])
    n = int(sizes.max())
    K = np.zeros((len(labels), n, n))
    S = np.zeros((len(labels), n))
    for i, (gram, lab) in enumerate(zip(grams, labels)):
        K[i, : sizes[i], : sizes[i]] = gram
        S[i, : sizes[i]] = 2.0 * np.asarray(lab, dtype=np.float64) - 1.0
    lam = 1.0 / (C * sizes)
    gain = S / (lam * sizes)[:, None]  # s / (lambda n), scaled by 1/t at step t
    radius2 = 1.0 / lam  # the squared radius
    beta = np.zeros_like(S)
    u = np.zeros_like(S)
    for t in range(1, iterations + 1):
        beta *= 1.0 - 1.0 / t
        beta += (S * u < 1.0) * gain / t
        np.matmul(K, beta[:, :, None], out=u[:, :, None])
        norm2 = np.einsum("ij,ij->i", beta, u)
        over = norm2 > radius2
        if over.any():  # scale only the problems over the radius: a zero norm never divides
            scale = np.sqrt(radius2[over] / norm2[over])[:, None]
            beta[over] *= scale
            u[over] *= scale
    return [b[:k] for b, k in zip(beta, sizes.tolist())]


def _best_splits(X, y, counts, feats):
    """Lowest weighted-Gini (feature, threshold) for each node of a batch.

    Node b holds counts[b, r] copies of training row r and scores the
    candidate features feats[b].  Each candidate column holds the node's
    distinct rows, padded with +inf up to the widest node of the batch, and
    is sorted on its own.  A split can sit only where a run of equal values
    ends; its left side then holds every copy with a value up to that run,
    whatever the order within the run, so the counts, the Gini arithmetic
    and the score are exactly those of sorting the node's own copies.  The
    argmin runs over the scores feature by feature and takes the first
    minimum, so ties resolve to the earliest candidate feature and then the
    earliest split point.  The threshold sits halfway between the run's
    value and the next one, or on the lower one when the midpoint rounds up
    to the upper (adjacent floats), so both sides of a split are nonempty.
    Returns (feature, threshold) arrays, feature -1 where no candidate
    column varies within the node.
    """
    batch, mtry = feats.shape
    b = np.arange(batch)
    present = counts > 0
    width = int(present.sum(axis=1).max())
    rows = np.argsort(~present, axis=1, kind="stable")[:, :width]  # each node's distinct rows, then padding
    mult = counts[b[:, None], rows]  # 0 on padding
    cols = np.where((mult > 0)[:, None, :], X[rows[:, None, :], feats[:, :, None]], math.inf)
    # sort every (node, feature) lane; the order, as flat indices, reads the
    # (batch, mtry, width) columns and then the (batch, width) counts
    order = np.argsort(cols, axis=2)
    xs = cols.take(order + (width * np.arange(batch * mtry)).reshape(batch, mtry, 1))
    del cols  # a pass holds few arrays of its size at once: they set the forest's peak memory
    order += (width * b)[:, None, None]
    nl = np.cumsum(mult.take(order), axis=2)[:, :, :-1].astype(np.float64)
    l1 = np.cumsum((mult * y[rows]).take(order), axis=2)[:, :, :-1].astype(np.float64)
    del order
    size = counts.sum(axis=1).astype(np.float64)[:, None, None]
    valid = (xs[:, :, :-1] < xs[:, :, 1:]) & (nl < size)
    nr = size - nl
    r1 = (counts @ y).astype(np.float64)[:, None, None] - l1
    with np.errstate(divide="ignore", invalid="ignore"):  # empty right sides, masked below
        gini_l = 1.0 - (l1 / nl) ** 2 - ((nl - l1) / nl) ** 2
        gini_r = 1.0 - (r1 / nr) ** 2 - ((nr - r1) / nr) ** 2
        score = np.where(valid, (nl * gini_l + nr * gini_r) / size, math.inf).reshape(batch, -1)
    k = np.argmin(score, axis=1)
    j, pos = np.divmod(k, width - 1)
    lo, hi = xs[b, j, pos], xs[b, j, pos + 1]
    mid = (lo + hi) / 2.0
    return np.where(score[b, k] < math.inf, feats[b, j], -1), np.where(mid < hi, mid, lo)


@dataclass(frozen=True)
class RandomForestModel:
    trees: tuple  # per tree, node arrays (feature, threshold, left, right, value); leaves have feature -1

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Majority vote; all rows walk down all trees at once."""
        X = np.asarray(X, dtype=np.float64)
        sizes = [len(tree[0]) for tree in self.trees]
        roots = np.cumsum([0] + sizes[:-1])
        feature, threshold, left, right, value = (np.concatenate(column) for column in zip(*self.trees))
        shift = np.repeat(roots, sizes)
        left, right = left + shift, right + shift
        rows = np.arange(X.shape[0])
        node = np.repeat(roots[:, None], X.shape[0], axis=1)
        while (inner := feature[node] >= 0).any():
            step = np.where(X[rows, feature[node]] <= threshold[node], left[node], right[node])
            node = np.where(inner, step, node)
        votes = value[node].sum(axis=0)
        return (2 * votes > len(self.trees)).astype(np.int64)


def train_rfc(X: np.ndarray, y: np.ndarray, seed, n_trees: int = RFC_TREES) -> RandomForestModel:
    """Random forest of CART trees: Gini splits, per-tree bootstrap,
    max(1, isqrt(d)) candidate features per node, fully grown.

    `seed` may be an int or a numpy SeedSequence; each tree draws from its own
    spawned child stream, so results do not depend on training order, and
    one SeedSequence always gives one forest.  A tree's stream is drawn in a
    fixed order: the bootstrap, then one candidate-feature sample per impure
    node, nodes taken last-in first-out from the tree's stack.

    The trees grow in lockstep.  At each step every tree pops nodes until it
    reaches an impure one, making leaves of the pure nodes on the way, and
    draws that node's candidates; then all popped nodes are split together,
    in passes of at most RFC_PASS_CELLS candidate cells.  A node is the
    count of each training row's copies in it, so its children are its
    counts masked by the split.
    """
    if n_trees < 1:
        raise InputError(f"a forest needs n_trees >= 1, got {n_trees}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    mtry = max(1, math.isqrt(d))
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    # spawn from a copy: spawning advances a SeedSequence's child counter
    ss = np.random.SeedSequence(ss.entropy, spawn_key=ss.spawn_key, pool_size=ss.pool_size)
    rngs = [np.random.default_rng(child) for child in ss.spawn(n_trees)]

    trees = [[[-1, 0.0, -1, -1, -1]] for _ in rngs]
    stacks = []  # per tree, LIFO of nodes (node id, size, ones, distinct rows, counts)
    for rng in rngs:
        counts = np.bincount(rng.integers(0, n, size=n), minlength=n)
        stacks.append([(0, n, int(counts @ y), int(np.count_nonzero(counts)), counts)])
    while True:
        popped = []  # (distinct rows, tree, node, candidate features), one impure node per tree at most
        for t, stack in enumerate(stacks):
            while stack:
                node = stack.pop()
                nid, size, ones, width, _ = node
                if 0 < ones < size:
                    popped.append((width, t, node, rngs[t].choice(d, size=mtry, replace=False)))
                    break
                trees[t][nid][4] = 1 if 2 * ones > size else 0
        if not popped:
            break
        popped.sort(key=lambda p: p[0])  # nodes of similar width share a pass
        while popped:
            take = 1  # the most nodes whose padded lanes fit in RFC_PASS_CELLS
            while take < len(popped) and (take + 1) * mtry * popped[take][0] <= RFC_PASS_CELLS:
                take += 1
            part, popped = popped[:take], popped[take:]
            counts = np.array([p[2][4] for p in part])
            feature, threshold = _best_splits(X, y, counts, np.array([p[3] for p in part]))
            left = counts * (X.T[feature] <= threshold[:, None])
            kids = np.stack([left, counts - left], axis=1)
            kid_stats = zip(kids.sum(axis=2).tolist(), (kids @ y).tolist(), np.count_nonzero(kids, axis=2).tolist())
            for (_, t, (nid, size, ones, _, _), _), f, thr, pair, (sizes, kid_ones, widths) in zip(
                part, feature.tolist(), threshold.tolist(), kids, kid_stats
            ):
                nodes = trees[t]
                if f < 0:
                    nodes[nid][4] = 1 if 2 * ones > size else 0
                    continue
                nodes[nid][:4] = f, thr, len(nodes), len(nodes) + 1
                stacks[t] += [(len(nodes) + i, sizes[i], kid_ones[i], widths[i], pair[i]) for i in (0, 1)]
                nodes += [[-1, 0.0, -1, -1, -1], [-1, 0.0, -1, -1, -1]]
    # int64 columns, except float64 thresholds
    return RandomForestModel(trees=tuple(tuple(np.array(column) for column in zip(*nodes)) for nodes in trees))


# ---------------------------------------------------------------- evaluation


def confusion_metrics(tp: int, fp: int, tn: int, fn: int) -> tuple[dict[str, float], dict[str, bool]]:
    """The eight pooled metrics plus per-metric defined flags (0.0 when the
    denominator is empty).

    The controversial class is positive: sensitivity and ppv are its recall
    and precision, specificity and npv those of the non-controversial class.
    """

    def ratio(num, den):
        return (num / den, True) if den > 0 else (0.0, False)

    prec, prec_ok = ratio(tp, tp + fp)
    rec, rec_ok = ratio(tp, tp + fn)
    f1 = (2.0 * prec * rec / (prec + rec), True) if prec_ok and rec_ok and prec + rec > 0 else (0.0, False)
    scored = {
        "accuracy": ratio(tp + tn, tp + fp + tn + fn),
        "f1": f1,
        "precision": (prec, prec_ok),
        "recall": (rec, rec_ok),
        "sensitivity": (rec, rec_ok),
        "specificity": ratio(tn, tn + fp),
        "ppv": (prec, prec_ok),
        "npv": ratio(tn, tn + fn),
    }
    return {k: v for k, (v, _) in scored.items()}, {k: ok for k, (_, ok) in scored.items()}


def stratified_folds(y: np.ndarray, folds: int, rng: np.random.Generator) -> np.ndarray:
    """Fold index per row; each class is shuffled and dealt round-robin.

    Dealing continues from where the previous class stopped, so overall fold
    sizes differ by at most one.
    """
    y = np.asarray(y)
    assign = np.full(y.shape[0], -1, dtype=np.int64)
    offset = 0
    for cls in sorted(set(y.tolist())):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(idx.shape[0])]
        for j, row in enumerate(idx.tolist()):
            assign[row] = (offset + j) % folds
        offset = (offset + idx.shape[0]) % folds
    return assign


def _svm_fold_predictions(X: np.ndarray, y: np.ndarray, test_masks: list) -> list:
    """Each fold's test predictions from one SVM run over all folds.

    A fold is standardized on its training rows as for any classifier; only
    its Gram matrix Xa Xa.T and its test rows' kernel Xa_test Xa.T are kept,
    and all folds train together (_pegasos).  The prediction is
    Xa_test Xa.T beta >= 0, i.e. Xa_test w >= 0.
    """
    grams, kernels = [], []
    for test_mask in test_masks:
        X_std, means, stds = standardize(X[~test_mask])
        Xa = _augment(X_std)
        grams.append(Xa @ Xa.T)
        kernels.append(_augment(_rescale(X[test_mask], means, stds)) @ Xa.T)
    betas = _pegasos(grams, [y[~test_mask] for test_mask in test_masks])
    return [(kernel @ beta >= 0.0).astype(np.int64) for kernel, beta in zip(kernels, betas)]


_HYPERPARAMS = {
    "blr": {"tol": BLR_TOL, "max_iter": BLR_MAX_ITER},
    "svm": {"C": SVM_C, "iterations": SVM_ITERATIONS},
    "rfc": {"n_trees": RFC_TREES, "split": "gini", "mtry": "max(1, isqrt(d))"},
}


@dataclass(frozen=True)
class FoldPlan:
    """A stratified k-fold evaluation laid out before any training: `plan_folds` builds it."""

    dataset: Dataset
    classifier: str
    folds: int
    seed: int
    assign: np.ndarray  # the fold of each row
    scored: tuple[int, ...]  # folds with a test row and a two-class training split
    skipped: tuple[int, ...]
    fold_seeds: tuple  # the SeedSequence of each fold's forest

    @property
    def problems(self) -> tuple[tuple[int, ...], ...]:
        """The training problems, each the scored folds it trains: every fold alone, or all together for the
        SVM (_svm_fold_predictions)."""
        return (self.scored,) if self.classifier == "svm" else tuple((f,) for f in self.scored)


def plan_folds(dataset: Dataset, classifier: str, folds: int = 10, seed: int = 0) -> FoldPlan:
    """The fold assignment of `cross_validate(dataset, classifier, folds, seed)`, its scored and skipped
    folds and each fold's seed; a bad argument is an InputError."""
    if classifier not in _HYPERPARAMS:
        raise InputError(f"unknown classifier {classifier!r}")
    if folds < 2:
        raise InputError(f"folds must be >= 2, got {folds}")
    y = dataset.y
    if y.shape[0] < folds:
        raise InputError(f"dataset {dataset.name}: {y.shape[0]} rows < {folds} folds")

    children = np.random.SeedSequence(seed).spawn(folds + 1)
    assign = stratified_folds(y, folds, np.random.default_rng(children[0]))
    scored: list[int] = []
    skipped: list[int] = []
    for f in range(folds):
        test_mask = assign == f
        usable = test_mask.any() and len(set(y[~test_mask].tolist())) >= 2
        (scored if usable else skipped).append(f)
    return FoldPlan(dataset, classifier, folds, seed, assign, tuple(scored), tuple(skipped), tuple(children[1:]))


def train_problem(plan: FoldPlan, problem: tuple[int, ...]) -> list[tuple[np.ndarray, bool]]:
    """(test predictions, converged) for each fold of one of `plan.problems`; only BLR can fail to converge.

    Standardization is fit on the training folds only (the forest sees raw
    features; trees are scale-invariant).
    """
    X, y = plan.dataset.X, plan.dataset.y
    if plan.classifier == "svm":
        return [(pred, True) for pred in _svm_fold_predictions(X, y, [plan.assign == f for f in problem])]
    (f,) = problem
    test_mask = plan.assign == f
    X_train, y_train, X_test = X[~test_mask], y[~test_mask], X[test_mask]
    if plan.classifier == "rfc":
        return [(train_rfc(X_train, y_train, plan.fold_seeds[f]).predict(X_test), True)]
    X_std, means, stds = standardize(X_train)
    model = train_blr(X_std, y_train)
    return [(model.predict(_rescale(X_test, means, stds)), model.converged)]


def pool_folds(plan: FoldPlan, solved) -> dict:
    """The `report.json` entry of `plan` from `train_problem`'s result for each of `plan.problems`, in that
    order: one confusion matrix over the scored folds, with the controversial class (y == 1) as positive."""
    y = plan.dataset.y
    tp = fp = tn = fn = warnings = 0
    fold_acc: list[float] = []
    accuracy_sum = 0.0  # a left fold: from 3.12 on, the builtin sum of floats rounds differently
    for f, (pred, converged) in zip(plan.scored, [fold for result in solved for fold in result], strict=True):
        y_test = y[plan.assign == f]
        pos_pred = pred == 1
        pos_true = y_test == 1
        tp += int(np.sum(pos_pred & pos_true))
        fp += int(np.sum(pos_pred & ~pos_true))
        tn += int(np.sum(~pos_pred & ~pos_true))
        fn += int(np.sum(~pos_pred & pos_true))
        fold_acc.append(float(np.mean(pred == y_test)))
        accuracy_sum += fold_acc[-1]
        warnings += not converged

    values, defined = confusion_metrics(tp, fp, tn, fn)
    return {
        "classifier": plan.classifier,
        "feature_set": plan.dataset.name,
        "confusion": {"tp": tp, "fp": fp, "tn": tn, "fn": fn},
        "metrics": values,
        "metric_defined": defined,
        "fold_accuracies": fold_acc,
        "accuracy_fold_mean": accuracy_sum / max(len(fold_acc), 1),  # 0.0 with no fold
        "skipped_folds": list(plan.skipped),
        "convergence_warnings": warnings,
        "seed": plan.seed,
        "folds": plan.folds,
        "hyperparameters": dict(_HYPERPARAMS[plan.classifier]),
    }


def cross_validate(dataset: Dataset, classifier: str, folds: int = 10, seed: int = 0) -> dict:
    """Stratified k-fold evaluation with one pooled confusion matrix, with the
    controversial class (y == 1) as positive; returns the `report.json`
    entry (see `pool_folds`).

    The serial composition of `plan_folds`, `train_problem` for each of the
    plan's problems and `pool_folds`; the problems are independent, so a
    caller may train them in any order or process and pool the results.
    Folds whose training split is single-class are skipped and listed in the
    entry.  BLR and the forest train fold by fold; the SVM trains every
    scored fold at once, in the Gram form, keeping O(folds n^2) floats (see
    _svm_fold_predictions).  With the seed fixed the whole entry is
    reproducible bit for bit.
    """
    plan = plan_folds(dataset, classifier, folds, seed)
    return pool_folds(plan, [train_problem(plan, problem) for problem in plan.problems])

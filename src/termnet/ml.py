"""Learning stack built directly on numpy: standardization, 2-component PCA,
binary logistic regression, a linear SVM, a random forest, stratified
cross-validation and pooled confusion metrics.

No fitted-model library is used anywhere.  PCA takes its spectrum from
numpy's LAPACK symmetric eigensolver; the tests check it against an SVD of the
centered matrix, which shares no code path with it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .manifest import InputError

__all__ = [
    "KIND_ORDER",
    "ClassifierReport",
    "Dataset",
    "LogisticModel",
    "PcaResult",
    "RandomForestModel",
    "SvmModel",
    "assemble_feature_sets",
    "confusion_metrics",
    "cross_validate",
    "pca2",
    "standardize",
    "stratified_folds",
    "train_blr",
    "train_rfc",
    "train_svm",
]

KIND_ORDER = ("mention", "reply", "quote")

BLR_TOL = 1e-8
BLR_MAX_ITER = 5000
SVM_C = 1.0
SVM_ITERATIONS = 1000
RFC_TREES = 100


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
    from .ranking import CONTROVERSIAL

    terms = sorted({lab.term for lab in labels})
    if not terms:
        raise InputError("no labeled terms")
    if len(terms) != len(labels):
        raise InputError("duplicate terms in labels")
    label_of = {lab.term: lab.label for lab in labels}
    y = np.array([1 if label_of[t] == CONTROVERSIAL else 0 for t in terms], dtype=np.int64)

    missing = [
        (t, k)
        for t in terms
        for k in KIND_ORDER
        if (t, k) not in global_vecs or (t, k) not in local_vecs
    ]
    if missing:
        shown = ", ".join(f"{t}/{k}" for t, k in missing[:5])
        raise InputError(f"{len(missing)} labeled term networks lack features in the features file: {shown}")

    from .census import TOTAL_CLASSES
    from .metrics import METRIC_NAMES

    local_names = tuple(f"n{i:03d}" for i in range(TOTAL_CLASSES))
    datasets: dict[str, Dataset] = {}
    for family, vecs, names in (
        ("global", global_vecs, tuple(METRIC_NAMES)),
        ("local", local_vecs, local_names),
    ):
        per_kind = {}
        for kind in KIND_ORDER:
            X = np.array([vecs[(t, kind)] for t in terms], dtype=np.float64)
            if X.shape[1] != len(names):
                raise InputError(f"{family}/{kind}: expected {len(names)} columns, got {X.shape[1]}")
            per_kind[kind] = X
            datasets[f"{family}-{kind}"] = Dataset(
                name=f"{family}-{kind}", X=X, y=y, row_terms=tuple(terms), col_names=names
            )
        combined = np.hstack([per_kind[k] for k in KIND_ORDER])
        combined_names = tuple(f"{k}_{c}" for k in KIND_ORDER for c in names)
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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class _LinearModel:
    """Sign of X @ w + b, with `weights` = (w, b) of length d+1."""

    def predict(self, X: np.ndarray) -> np.ndarray:
        z = X @ self.weights[:-1] + self.weights[-1]
        return (z >= 0.0).astype(np.int64)


@dataclass(frozen=True)
class LogisticModel(_LinearModel):
    weights: np.ndarray  # (d+1,), last entry is the intercept
    converged: bool
    iterations: int


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
    ll = float(np.mean(y * z - np.logaddexp(0.0, z)))
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
            ll_new = float(np.mean(y * z_new - np.logaddexp(0.0, z_new)))
            if ll_new >= ll + 1e-4 * t * gnorm2:
                improved = True
                break
            t *= 0.5
        if not improved:
            # ascent stalled at floating-point resolution before meeting tol
            return LogisticModel(weights=w, converged=False, iterations=it)
        w, z, ll, step = w_new, z_new, ll_new, t
    return LogisticModel(weights=w, converged=False, iterations=max_iter)


@dataclass(frozen=True)
class SvmModel(_LinearModel):
    weights: np.ndarray  # (d+1,), last entry is the (regularized) bias


def train_svm(X: np.ndarray, y: np.ndarray, C: float = SVM_C, iterations: int = SVM_ITERATIONS) -> SvmModel:
    """Linear SVM by the deterministic full-batch Pegasos schedule.

    Minimizes lambda/2 ||w||^2 + mean hinge loss with lambda = 1/(C n), step
    1/(lambda t), and the usual 1/sqrt(lambda) radius projection.  The bias is
    an augmented constant feature, so it is (slightly) regularized too.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    s = 2.0 * np.asarray(y, dtype=np.float64) - 1.0
    Xa = np.hstack([X, np.ones((n, 1))])
    lam = 1.0 / (C * n)
    radius = 1.0 / math.sqrt(lam)
    w = np.zeros(Xa.shape[1])
    for t in range(1, iterations + 1):
        margins = s * (Xa @ w)
        viol = margins < 1.0
        grad = lam * w - (Xa[viol].T @ s[viol]) / n
        w = w - grad / (lam * t)
        norm = math.sqrt(float(w @ w))
        if norm > radius:
            w *= radius / norm
    return SvmModel(weights=w)


def _best_split(X, y, idx, feats):
    """Lowest weighted-Gini (feature, threshold) over the candidate features.

    All candidate columns are sorted and scored at once.  Split points sit
    halfway between consecutive distinct sorted values, or on the lower one
    when the midpoint rounds up to the upper (adjacent floats), so both sides
    of a split are nonempty.  Ties resolve to the earliest candidate feature
    and then the earliest position, because the argmin runs over the scores
    feature by feature.  Returns (feature, threshold), feature -1 when no
    candidate column varies.
    """
    n = idx.shape[0]
    ys = y[idx]
    cols = X[np.ix_(idx, feats)]
    order = np.argsort(cols, axis=0, kind="stable")
    xs = cols[order, np.arange(cols.shape[1])]
    valid = xs[1:] > xs[:-1]
    if not valid.any():
        return -1, 0.0
    l1 = np.cumsum(ys[order], axis=0)[:-1].astype(np.float64)
    nl = np.arange(1, n, dtype=np.float64)[:, None]
    nr = n - nl
    r1 = float(ys.sum()) - l1
    gini_l = 1.0 - (l1 / nl) ** 2 - ((nl - l1) / nl) ** 2
    gini_r = 1.0 - (r1 / nr) ** 2 - ((nr - r1) / nr) ** 2
    score = (nl * gini_l + nr * gini_r) / n
    score[~valid] = math.inf
    j, k = divmod(int(np.argmin(score.T)), n - 1)
    lo, hi = float(xs[k, j]), float(xs[k + 1, j])
    mid = (lo + hi) / 2.0
    return int(feats[j]), mid if mid < hi else lo


def _grow_tree(X, y, rng: np.random.Generator, mtry: int) -> tuple[np.ndarray, ...]:
    """One fully grown CART tree as node arrays (feature, threshold, left,
    right, value); leaves have feature -1.

    `rng` is drawn in a fixed order: the bootstrap, then one candidate-feature
    sample per impure node, nodes taken last-in first-out from a stack.
    """
    n, d = X.shape
    nodes = [[-1, 0.0, -1, -1, -1]]
    stack = [(rng.integers(0, n, size=n), 0)]
    while stack:
        idx, nid = stack.pop()
        ones = int(y[idx].sum())
        f = -1
        if 0 < ones < idx.shape[0]:
            f, thr = _best_split(X, y, idx, rng.choice(d, size=mtry, replace=False))
        if f < 0:
            nodes[nid][4] = 1 if 2 * ones > idx.shape[0] else 0
            continue
        go_left = X[idx, f] <= thr
        nodes[nid][:4] = f, thr, len(nodes), len(nodes) + 1
        stack += [(idx[go_left], len(nodes)), (idx[~go_left], len(nodes) + 1)]
        nodes += [[-1, 0.0, -1, -1, -1], [-1, 0.0, -1, -1, -1]]
    return tuple(np.array(column) for column in zip(*nodes))  # int64, except float64 thresholds


@dataclass(frozen=True)
class RandomForestModel:
    trees: tuple  # of _grow_tree node arrays

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        rows = np.arange(X.shape[0])
        votes = np.zeros(X.shape[0], dtype=np.int64)
        for feature, threshold, left, right, value in self.trees:
            node = np.zeros(X.shape[0], dtype=np.intp)
            while (inner := feature[node] >= 0).any():
                step = np.where(X[rows, feature[node]] <= threshold[node], left[node], right[node])
                node = np.where(inner, step, node)
            votes += value[node]
        return (2 * votes > len(self.trees)).astype(np.int64)


def train_rfc(X: np.ndarray, y: np.ndarray, seed, n_trees: int = RFC_TREES) -> RandomForestModel:
    """Random forest of CART trees: Gini splits, per-tree bootstrap,
    max(1, isqrt(d)) candidate features per node, fully grown.

    `seed` may be an int or a numpy SeedSequence; each tree draws from its own
    spawned child stream, so results do not depend on training order.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    mtry = max(1, math.isqrt(X.shape[1]))
    trees = tuple(_grow_tree(X, y, np.random.default_rng(child), mtry) for child in ss.spawn(n_trees))
    return RandomForestModel(trees=trees)


# ---------------------------------------------------------------- evaluation

METRIC_KEYS = ("accuracy", "f1", "precision", "recall", "sensitivity", "specificity", "ppv", "npv")


def confusion_metrics(tp: int, fp: int, tn: int, fn: int) -> tuple[dict[str, float], dict[str, bool]]:
    """The eight pooled metrics plus per-metric defined flags (0.0 when the
    denominator is empty)."""

    def ratio(num, den):
        return (num / den, True) if den > 0 else (0.0, False)

    acc, acc_ok = ratio(tp + tn, tp + fp + tn + fn)
    prec, prec_ok = ratio(tp, tp + fp)
    rec, rec_ok = ratio(tp, tp + fn)
    spec, spec_ok = ratio(tn, tn + fp)
    npv, npv_ok = ratio(tn, tn + fn)
    if prec_ok and rec_ok and prec + rec > 0:
        f1, f1_ok = 2.0 * prec * rec / (prec + rec), True
    else:
        f1, f1_ok = 0.0, False
    values = {
        "accuracy": acc,
        "f1": f1,
        "precision": prec,
        "recall": rec,
        "sensitivity": rec,
        "specificity": spec,
        "ppv": prec,
        "npv": npv,
    }
    flags = {
        "accuracy": acc_ok,
        "f1": f1_ok,
        "precision": prec_ok,
        "recall": rec_ok,
        "sensitivity": rec_ok,
        "specificity": spec_ok,
        "ppv": prec_ok,
        "npv": npv_ok,
    }
    return values, flags


@dataclass(frozen=True)
class ClassifierReport:
    classifier_name: str
    feature_set_name: str
    confusion: tuple[int, int, int, int]  # tp, fp, tn, fn over all scored folds
    metrics: dict[str, float]
    defined: dict[str, bool]
    fold_accuracies: tuple[float, ...]
    skipped_folds: tuple[int, ...]
    convergence_warnings: int
    positive_label: int
    seed: int
    folds: int
    hyperparameters: dict = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        return self.metrics["accuracy"]

    def to_json_obj(self) -> dict:
        tp, fp, tn, fn = self.confusion
        return {
            "classifier": self.classifier_name,
            "feature_set": self.feature_set_name,
            "confusion": {"tp": tp, "fp": fp, "tn": tn, "fn": fn},
            "metrics": {k: self.metrics[k] for k in METRIC_KEYS},
            "metric_defined": {k: self.defined[k] for k in METRIC_KEYS},
            "fold_accuracies": list(self.fold_accuracies),
            "accuracy_fold_mean": (
                sum(self.fold_accuracies) / len(self.fold_accuracies) if self.fold_accuracies else 0.0
            ),
            "skipped_folds": list(self.skipped_folds),
            "convergence_warnings": self.convergence_warnings,
            "positive_label": self.positive_label,
            "seed": self.seed,
            "folds": self.folds,
            "hyperparameters": self.hyperparameters,
        }


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


_HYPERPARAMS = {
    "blr": {"tol": BLR_TOL, "max_iter": BLR_MAX_ITER},
    "svm": {"C": SVM_C, "iterations": SVM_ITERATIONS},
    "rfc": {"n_trees": RFC_TREES, "split": "gini", "mtry": "max(1, isqrt(d))"},
}


def cross_validate(
    dataset: Dataset,
    classifier: str,
    folds: int = 10,
    seed: int = 0,
    positive_label: int = 1,
) -> ClassifierReport:
    """Stratified k-fold evaluation with one pooled confusion matrix.

    Standardization is fit on the training folds only (the forest sees raw
    features; trees are scale-invariant).  Folds whose training split is
    single-class are skipped and listed in the report.  With the seed fixed
    the whole report is reproducible bit for bit.
    """
    if classifier not in _HYPERPARAMS:
        raise InputError(f"unknown classifier {classifier!r}")
    if folds < 2:
        raise InputError(f"folds must be >= 2, got {folds}")
    X, y = dataset.X, dataset.y
    if X.shape[0] < folds:
        raise InputError(f"dataset {dataset.name}: {X.shape[0]} rows < {folds} folds")

    master = np.random.SeedSequence(seed)
    children = master.spawn(folds + 1)
    assign = stratified_folds(y, folds, np.random.default_rng(children[0]))

    tp = fp = tn = fn = 0
    fold_acc: list[float] = []
    skipped: list[int] = []
    warnings = 0
    for f in range(folds):
        test_mask = assign == f
        train_mask = ~test_mask
        if not test_mask.any():
            skipped.append(f)
            continue
        y_train = y[train_mask]
        if len(set(y_train.tolist())) < 2:
            skipped.append(f)
            continue
        X_train, X_test = X[train_mask], X[test_mask]
        y_test = y[test_mask]

        if classifier == "rfc":
            model = train_rfc(X_train, y_train, children[1 + f])
            pred = model.predict(X_test)
        else:
            X_std, means, stds = standardize(X_train)
            X_test_std = _rescale(X_test, means, stds)
            if classifier == "blr":
                model = train_blr(X_std, y_train)
                if not model.converged:
                    warnings += 1
            else:
                model = train_svm(X_std, y_train)
            pred = model.predict(X_test_std)

        pos_pred = pred == positive_label
        pos_true = y_test == positive_label
        tp += int(np.sum(pos_pred & pos_true))
        fp += int(np.sum(pos_pred & ~pos_true))
        tn += int(np.sum(~pos_pred & ~pos_true))
        fn += int(np.sum(~pos_pred & pos_true))
        fold_acc.append(float(np.mean(pred == y_test)))

    values, defined = confusion_metrics(tp, fp, tn, fn)
    return ClassifierReport(
        classifier_name=classifier,
        feature_set_name=dataset.name,
        confusion=(tp, fp, tn, fn),
        metrics=values,
        defined=defined,
        fold_accuracies=tuple(fold_acc),
        skipped_folds=tuple(skipped),
        convergence_warnings=warnings,
        positive_label=positive_label,
        seed=seed,
        folds=folds,
        hyperparameters=dict(_HYPERPARAMS[classifier]),
    )

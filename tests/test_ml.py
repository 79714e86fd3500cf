import math
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import termnet
from termnet import ml
from termnet.census import TOTAL_CLASSES
from termnet.manifest import InputError
from termnet.metrics import METRIC_NAMES
from termnet.ml import (
    Dataset,
    assemble_feature_sets,
    confusion_metrics,
    cross_validate,
    pca2,
    plan_folds,
    pool_folds,
    standardize,
    stratified_folds,
    train_blr,
    train_problem,
    train_rfc,
)
from termnet.ranking import CONTROVERSIAL, NON_CONTROVERSIAL

from oracles import (
    compensated_sum,
    loglik_and_grad,
    reference_blr,
    reference_confusion_metrics,
    reference_forest,
    reference_forest_predict,
    reference_svm,
    svd_pca2,
)

EIGHT_METRICS = ("accuracy", "f1", "precision", "recall", "sensitivity", "specificity", "ppv", "npv")


# ---------------------------------------------------------------- standardize


def test_standardize_example():
    X = np.array([[1.0, 10.0], [3.0, 10.0], [5.0, 10.0]])
    Z, means, stds = standardize(X)
    assert np.allclose(means, [3.0, 10.0])
    # population sigma, and the constant column flattens to zeros
    assert np.allclose(stds, [math.sqrt(8.0 / 3.0), 0.0])
    assert np.allclose(Z[:, 1], 0.0)
    assert np.allclose(Z[:, 0].mean(), 0.0)
    assert np.allclose(Z[:, 0].std(), 1.0)


def test_standardize_random(rng):
    X = rng.normal(size=(40, 7)) * rng.uniform(0.1, 9.0, size=7) + rng.normal(size=7)
    Z, means, stds = standardize(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(Z.std(axis=0), 1.0)
    assert np.allclose(Z * stds + means, X)


# ---------------------------------------------------------------- PCA


@pytest.mark.parametrize("shape", [(10, 2), (30, 9), (50, 3), (12, 12), (8, 40), (5, 212)])
def test_pca2_matches_eigh(rng, shape):
    X = rng.normal(size=shape) @ rng.normal(size=(shape[1], shape[1]))
    res = pca2(X)
    comps, vals, _ = svd_pca2(X)
    # up to sign: the shared convention should line them up exactly, but a
    # loading that is zero at the anchor index may flip
    for i in range(2):
        direct = float(np.abs(res.components[i] - comps[i]).max())
        flipped = float(np.abs(res.components[i] + comps[i]).max())
        assert min(direct, flipped) < 1e-8
    assert np.allclose(res.explained_variance, vals, atol=1e-10)


def test_pca2_components_orthonormal(rng):
    X = rng.normal(size=(25, 6))
    res = pca2(X)
    assert np.allclose(res.components @ res.components.T, np.eye(2), atol=1e-10)
    assert res.explained_variance[0] >= res.explained_variance[1] >= 0.0


def test_pca2_projection_identity(rng):
    X = rng.normal(size=(15, 4))
    res = pca2(X)
    assert np.array_equal(res.projected, X @ res.components.T)
    assert res.projected.shape == (15, 2)


_T = np.linspace(-3.0, 3.0, 11)
_V = np.arange(1.0, 11.0)


@pytest.mark.parametrize(
    "X, expect",
    [
        # exactly rank one; tall takes the covariance route, wide the Gram
        # route and its fallback for the second component
        (np.column_stack([_T, 2.0 * _T]), np.array([1.0, 2.0]) / math.sqrt(5.0)),
        (np.outer(np.linspace(-3.0, 3.0, 4), _V), _V / np.linalg.norm(_V)),
    ],
    ids=["tall", "wide"],
)
def test_pca2_collinear_plane(X, expect):
    res = pca2(X)
    assert np.allclose(res.components[0], expect, atol=1e-12)
    assert np.allclose(res.components[0], svd_pca2(X)[0][0], atol=1e-12)
    assert res.explained_variance[1] < 1e-12
    # second component still unit length and orthogonal
    assert abs(float(res.components[0] @ res.components[1])) < 1e-10
    assert abs(float(res.components[1] @ res.components[1]) - 1.0) < 1e-10


def test_pca2_gram_route_wide(rng):
    # more columns than rows forces the Gram-matrix path
    X = rng.normal(size=(9, 120))
    res = pca2(X)
    comps, vals, _ = svd_pca2(X)
    for i in range(2):
        direct = float(np.abs(res.components[i] - comps[i]).max())
        flipped = float(np.abs(res.components[i] + comps[i]).max())
        assert min(direct, flipped) < 1e-7
    assert np.allclose(res.explained_variance, vals, atol=1e-9)


def test_pca2_variance_of_projection(rng):
    X = rng.normal(size=(60, 5))
    res = pca2(X)
    P = res.projected - res.projected.mean(axis=0)
    sample_var = (P**2).sum(axis=0) / (X.shape[0] - 1)
    assert np.allclose(sample_var, res.explained_variance, atol=1e-10)


def test_pca2_rejects_degenerate():
    with pytest.raises(InputError):
        pca2(np.zeros((10, 3)))  # zero variance
    with pytest.raises(InputError):
        pca2(np.ones((4, 1)))  # one column
    with pytest.raises(InputError):
        pca2(np.ones((1, 5)))  # one row


# ---------------------------------------------------------------- BLR


def test_loglik_gradient_finite_difference(rng):
    # the oracle gradient itself, checked against central differences
    X = rng.normal(size=(30, 4))
    y = (rng.random(30) < 0.5).astype(float)
    w = rng.normal(size=5)
    _, grad = loglik_and_grad(w, X, y)
    eps = 1e-6
    for j in range(5):
        e = np.zeros(5)
        e[j] = eps
        lp, _ = loglik_and_grad(w + e, X, y)
        lm, _ = loglik_and_grad(w - e, X, y)
        assert abs((lp - lm) / (2 * eps) - grad[j]) < 1e-7


def test_blr_converges_on_overlapping_classes(rng):
    n = 120
    X = rng.normal(size=(n, 3))
    z = X @ np.array([1.0, -2.0, 0.5]) + 0.3
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    model = train_blr(X, y)
    assert model.converged
    _, grad = loglik_and_grad(model.weights, X, y)
    assert float(np.sqrt(grad @ grad)) < 1e-8


def test_blr_separable_data_terminates():
    # MLE at infinity: the run must end (tolerance met at a huge-margin
    # solution, or flagged) and still classify the training set perfectly
    X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    model = train_blr(X, y, max_iter=300)
    assert model.iterations <= 300
    assert np.array_equal(model.predict(X), [0, 0, 1, 1])
    if model.converged:
        _, grad = loglik_and_grad(model.weights, X, y)
        assert float(np.sqrt(grad @ grad)) < 1e-8


def test_blr_predict_threshold():
    model = train_blr(np.array([[0.0], [1.0], [0.1], [0.9]]), np.array([0.0, 1.0, 0.0, 1.0]), max_iter=50)
    z = np.array([[0.0], [1.0]]) @ model.weights[:-1] + model.weights[-1]
    assert np.array_equal(model.predict(np.array([[0.0], [1.0]])), (z >= 0).astype(int))


def test_blr_matches_closed_form_intercept_only():
    # with no informative features, p-hat must equal the base rate
    X = np.zeros((10, 2))
    y = np.array([1.0] * 3 + [0.0] * 7)
    model = train_blr(X, y)
    assert model.converged
    p = 1.0 / (1.0 + math.exp(-model.weights[-1]))
    assert abs(p - 0.3) < 1e-6


@st.composite
def blr_problems(draw):
    """Small (X, y, tol, max_iter): labels random or split by a threshold on
    the first column (separable), with a tolerance that is met early or a
    max_iter that ends the ascent first."""
    n, d = draw(st.integers(2, 20)), draw(st.integers(1, 4))
    cells = draw(st.lists(st.floats(-3.0, 3.0), min_size=n * d, max_size=n * d))
    X = np.array(cells).reshape(n, d)
    if draw(st.booleans()):
        y = (X[:, 0] > draw(st.floats(-1.0, 1.0))).astype(np.float64)
    else:
        y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    return X, y, draw(st.sampled_from([1e-8, 1e-3])), draw(st.integers(1, 60))


@settings(max_examples=150, deadline=None)
@given(blr_problems())
def test_blr_equals_reference_blr(problem):
    X, y, tol, max_iter = problem
    model = train_blr(X, y, tol=tol, max_iter=max_iter)
    weights, converged, iterations = reference_blr(X, y, tol, max_iter)
    assert model.weights.tobytes() == weights.tobytes()
    assert (model.converged, model.iterations) == (converged, iterations)


# ---------------------------------------------------------------- SVM


# libcst, which Hypothesis imports to print a failing example, warns on import;
# as an error that warning would hide the example
warnings_as_errors = pytest.mark.filterwarnings("error", "ignore::DeprecationWarning:libcst")


def svm_weights(X, y):
    """The SVM's (w, b) on one problem, trained as cross-validation trains
    a fold: Pegasos in the Gram form, then weights = Xa.T beta."""
    Xa = ml._augment(np.asarray(X, dtype=np.float64))
    (beta,) = ml._pegasos([Xa @ Xa.T], [y])
    return Xa.T @ beta


@warnings_as_errors
def test_svm_separates_with_margin(rng):
    n = 100
    X = np.vstack([rng.normal(size=(n // 2, 2)) + [3.0, 3.0], rng.normal(size=(n // 2, 2)) - [3.0, 3.0]])
    y = np.array([1] * (n // 2) + [0] * (n // 2))
    w = svm_weights(X, y)
    assert float(np.mean((X @ w[:-1] + w[-1] >= 0.0) == y)) >= 0.99


@warnings_as_errors
def test_svm_deterministic(rng):
    X = rng.normal(size=(40, 5))
    y = (rng.random(40) < 0.5).astype(int)
    a = svm_weights(X, y)
    b = svm_weights(X, y)
    assert np.array_equal(a, b)


@warnings_as_errors
def test_svm_weights_bounded():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    y = np.array([1, 1, 0, 0])
    w = svm_weights(X, y)
    lam = 1.0 / (1.0 * 4)
    assert float(np.linalg.norm(w)) <= 1.0 / math.sqrt(lam) + 1e-9


def reference_svm_cv(X, y, folds, seed):
    """Cross-validation the slow way: the library's folds and standardization,
    then reference_svm on one fold at a time.  Returns the pooled (tp, fp,
    tn, fn), the fold accuracies and the smallest |test margin|."""
    children = np.random.SeedSequence(seed).spawn(folds + 1)
    assign = stratified_folds(y, folds, np.random.default_rng(children[0]))
    confusion = np.zeros(4, dtype=int)
    accuracies, closest = [], math.inf
    for f in range(folds):
        test = assign == f
        if not test.any() or len(set(y[~test].tolist())) < 2:
            continue
        X_std, means, stds = standardize(X[~test])
        w = reference_svm(X_std, y[~test], ml.SVM_C, ml.SVM_ITERATIONS)
        z = ml._rescale(X[test], means, stds) @ w[:-1] + w[-1]
        closest = min(closest, float(np.abs(z).min()))
        pred, truth = z >= 0.0, y[test] == 1
        confusion += [np.sum(pred & truth), np.sum(pred & ~truth), np.sum(~pred & ~truth), np.sum(~pred & truth)]
        accuracies.append(float(np.mean(pred == truth)))
    return tuple(confusion.tolist()), tuple(accuracies), closest


def svm_problem(n, d, seed, noise, constant):
    """n x d normal features, labels from the first column plus noise
    (0 gives separable labels); `constant` pins the last of d >= 2 columns.
    (With every column constant, the margins land exactly on the hinge at 1,
    where the two summation orders may fall on either side.)"""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + noise * rng.normal(size=n) > 0).astype(np.int64)
    if constant and d > 1:
        X[:, -1] = 3.0
    return X, y


@warnings_as_errors
@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(10, 30),
    d=st.integers(1, 40),
    folds=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
    noise=st.sampled_from([0.0, 1.0, 10.0]),
    constant=st.booleans(),
)
@example(n=23, d=4, folds=5, seed=1, noise=1.0, constant=False)  # d+1 <= n, folds of 5 and 4 rows
@example(n=19, d=30, folds=4, seed=2, noise=1.0, constant=True)  # d+1 > n, folds of 5 and 4 rows
@example(n=30, d=29, folds=10, seed=3, noise=10.0, constant=False)  # d+1 == n, equal folds
def test_svm_folds_train_together_like_one_at_a_time(n, d, folds, seed, noise, constant):
    X, y = svm_problem(n, d, seed, noise, constant)
    confusion, accuracies, closest = reference_svm_cv(X, y, folds, seed)
    assume(closest > 1e-9)  # a test row on the boundary may fall either way
    ds = Dataset(name="p", X=X, y=y, row_terms=tuple(map(str, range(n))), col_names=tuple(map(str, range(d))))
    report = cross_validate(ds, "svm", folds=folds, seed=seed)
    assert tuple(report["confusion"].values()) == confusion
    assert tuple(report["fold_accuracies"]) == accuracies

    X_std = standardize(X)[0]
    want = reference_svm(X_std, y, ml.SVM_C, ml.SVM_ITERATIONS)
    got = svm_weights(X_std, y)
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)


@warnings_as_errors
def test_pegasos_stacks_problems_of_different_sizes(rng):
    # each problem in the padded stack gets its own n, lambda and norm: the
    # stack must give every problem the weights it gets alone, and those
    # must be the primal oracle's
    problems = []
    for n, d in ((9, 3), (8, 3), (5, 12), (8, 1)):
        Xa = np.hstack([rng.normal(size=(n, d)), np.ones((n, 1))])
        problems.append((Xa, rng.integers(0, 2, size=n)))
    for iterations in (1, 2, 50):
        stacked = ml._pegasos([Xa @ Xa.T for Xa, _ in problems], [y for _, y in problems], 1.0, iterations)
        for (Xa, y), beta in zip(problems, stacked, strict=True):
            assert beta.shape == (Xa.shape[0],)
            (alone,) = ml._pegasos([Xa @ Xa.T], [y], 1.0, iterations)
            want = reference_svm(Xa[:, :-1], y, 1.0, iterations)
            for w in (Xa.T @ beta, Xa.T @ alone):
                assert np.linalg.norm(w - want) <= 1e-12 * np.linalg.norm(want)


@warnings_as_errors
def test_svm_zero_norm_is_not_projected():
    # constant features and balanced labels keep w at zero: the radius
    # projection must not divide by the zero norm
    X = np.full((8, 2), 5.0)
    y = np.array([0, 1] * 4)
    assert not svm_weights(X, y).any()
    assert not reference_svm(X, y, 1.0, 100).any()
    ds = Dataset(name="flat", X=X, y=y, row_terms=tuple(map(str, range(8))), col_names=("a", "b"))
    report = cross_validate(ds, "svm", folds=2, seed=0)
    assert report["skipped_folds"] == []
    assert sum(report["confusion"].values()) == 8


@warnings_as_errors
def test_svm_single_class_skips_every_fold(rng):
    X = rng.normal(size=(12, 3))
    ds = Dataset(name="one", X=X, y=np.ones(12, dtype=np.int64), row_terms=tuple(map(str, range(12))), col_names=tuple("abc"))
    report = cross_validate(ds, "svm", folds=4, seed=0)
    assert report["skipped_folds"] == [0, 1, 2, 3]
    assert tuple(report["confusion"].values()) == (0, 0, 0, 0)
    assert report["fold_accuracies"] == []
    assert report["accuracy_fold_mean"] == 0.0


def test_accuracy_fold_mean_does_not_depend_on_how_sum_rounds(monkeypatch):
    # ten folds at 0.1: a left fold sums to 0.9999999999999999, an exact sum to 1.0
    X = np.random.default_rng(0).normal(size=(100, 2))
    y = np.arange(100) % 2
    ds = Dataset(name="global-mention", X=X, y=y, row_terms=tuple(map(str, range(100))), col_names=("a", "b"))
    plan = plan_folds(ds, "blr", folds=10, seed=0)
    solved = []
    for f in plan.scored:  # every prediction wrong but the fold's first
        pred = 1 - y[plan.assign == f]
        pred[0] = 1 - pred[0]
        solved.append([(pred, True)])
    want = pool_folds(plan, solved)
    assert want["fold_accuracies"] == [0.1] * 10
    assert want["accuracy_fold_mean"] == 0.09999999999999999
    monkeypatch.setattr(ml, "sum", compensated_sum, raising=False)
    assert pool_folds(plan, solved) == want


# ---------------------------------------------------------------- RFC


def test_rfc_memorizes_clean_data(rng):
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    model = train_rfc(X, y, seed=7)
    assert float(np.mean(model.predict(X) == y)) >= 0.95


def test_rfc_deterministic_given_seed(rng):
    X = rng.normal(size=(30, 3))
    y = (rng.random(30) < 0.5).astype(int)
    Xq = rng.normal(size=(20, 3))
    a = train_rfc(X, y, seed=11, n_trees=25)
    b = train_rfc(X, y, seed=11, n_trees=25)
    assert np.array_equal(a.predict(Xq), b.predict(Xq))


def test_rfc_scale_invariant(rng):
    # trees split on order statistics, so positive rescaling changes nothing
    X = rng.normal(size=(50, 3))
    y = (rng.random(50) < 0.5).astype(int)
    scale = np.array([100.0, 0.01, 7.0])
    a = train_rfc(X, y, seed=3, n_trees=15)
    b = train_rfc(X * scale, y, seed=3, n_trees=15)
    Xq = rng.normal(size=(25, 3))
    assert np.array_equal(a.predict(Xq), b.predict(Xq * scale))


# half-integers, plus two adjacent floats whose midpoint rounds up to the larger
_ADJACENT = np.nextafter(1.0, 2.0)
TIE_VALUES = [v / 2 for v in range(-3, 4)] + [float(_ADJACENT), float(np.nextafter(_ADJACENT, 2.0))]


@st.composite
def forest_problems(draw):
    """Small (X, y, seed, n_trees) built to tie: few distinct values, some of
    them adjacent floats, and columns that duplicate, negate or hold constant
    another one.  Negated columns tie a split at mirrored positions; tiny n
    gives single-class bootstraps."""
    n = draw(st.integers(2, 16))
    values = st.lists(st.sampled_from(TIE_VALUES), min_size=n, max_size=n)
    cols = [np.array(c) for c in draw(st.lists(values, min_size=1, max_size=3))]
    for kind in draw(st.lists(st.sampled_from(["dup", "neg", "const"]), max_size=5)):
        src = cols[draw(st.integers(0, len(cols) - 1))]
        cols.append({"dup": src, "neg": -src, "const": np.full(n, src[0])}[kind])
    perm = draw(st.permutations(range(len(cols))))
    X = np.column_stack([cols[i] for i in perm])
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    return X, y, draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 6))


@settings(max_examples=150, deadline=None)
@given(forest_problems())
def test_rfc_equals_reference_forest(problem):
    X, y, seed, n_trees = problem
    model = train_rfc(X, y, seed, n_trees=n_trees)
    ref = reference_forest(X, y, seed, n_trees)
    for got, want in zip(model.trees, ref, strict=True):
        for column, name in zip(got, ("feature", "threshold", "left", "right", "value"), strict=True):
            assert column.tolist() == getattr(want, name), name
    Xq = np.vstack([X, X + 0.25, -X])
    assert np.array_equal(model.predict(Xq), reference_forest_predict(ref, Xq))


def assert_same_trees(model, ref):
    for got, want in zip(model.trees, ref, strict=True):
        for column, name in zip(got, ("feature", "threshold", "left", "right", "value"), strict=True):
            assert column.tolist() == getattr(want, name), name


def test_rfc_equals_reference_forest_on_deep_trees(rng, monkeypatch):
    # random labels grow deep trees with nodes of many sizes at each step, and
    # the roots alone hold more candidate cells than one split pass
    n, d, n_trees = 64, 81, 30
    X = rng.normal(size=(n, d)).round(1)  # about 60 distinct values: many ties
    y = rng.integers(0, 2, size=n)
    passes = []
    best_splits = ml._best_splits

    def recording(X, y, counts, feats):
        passes.append(counts.shape[0])
        return best_splits(X, y, counts, feats)

    monkeypatch.setattr(ml, "_best_splits", recording)
    model = train_rfc(X, y, 17, n_trees=n_trees)
    assert 1 < passes[0] < n_trees  # the roots' step took more than one pass
    ref = reference_forest(X, y, 17, n_trees)
    assert sum(len(tree.feature) for tree in ref) > 15 * n_trees  # signal-free trees are deep
    assert_same_trees(model, ref)
    Xq = np.vstack([X, rng.normal(size=(50, d)).round(1)])
    assert np.array_equal(model.predict(Xq), reference_forest_predict(ref, Xq))


def test_rfc_one_seed_sequence_is_one_forest(rng):
    # spawning advances a SeedSequence's child counter: a second forest from
    # the same object drew other trees
    X = rng.normal(size=(30, 4))
    y = (rng.random(30) < 0.5).astype(int)
    ss = np.random.SeedSequence(5)
    first = train_rfc(X, y, ss, n_trees=10)
    second = train_rfc(X, y, ss, n_trees=10)
    ref = reference_forest(X, y, 5, 10)
    assert_same_trees(first, ref)
    assert_same_trees(second, ref)


def test_rfc_needs_a_tree():
    with pytest.raises(InputError, match="n_trees"):
        train_rfc(np.zeros((4, 2)), np.array([0, 1, 0, 1]), 0, n_trees=0)


def test_rfc_splits_between_adjacent_floats():
    # the midpoint of a and b rounds to b; a split there sends every row left
    # and grew the tree forever, so the run is bounded by a subprocess timeout
    code = (
        "import numpy as np\n"
        "from termnet.ml import train_rfc\n"
        "a = np.nextafter(1.0, 2.0)\n"
        "b = np.nextafter(a, 2.0)\n"
        "X = np.array([[a], [b], [a], [b]])\n"
        "model = train_rfc(X, np.array([0, 1, 0, 1]), 0, n_trees=1)\n"
        "feature, threshold, _, _, _ = model.trees[0]\n"
        "assert feature[0] == 0 and threshold[0] == a, (feature, threshold)\n"
        "assert model.predict(X).tolist() == [0, 1, 0, 1]\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(termnet.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------- evaluation


def test_confusion_metrics_example():
    values, flags = confusion_metrics(tp=8, fp=2, tn=7, fn=3)
    assert values["accuracy"] == pytest.approx(0.75)
    assert values["precision"] == pytest.approx(0.8)
    assert values["recall"] == pytest.approx(8 / 11)
    assert values["specificity"] == pytest.approx(7 / 9)
    assert values["f1"] == pytest.approx(2 * 0.8 * (8 / 11) / (0.8 + 8 / 11))
    assert values["npv"] == pytest.approx(0.7)
    assert values["sensitivity"] == values["recall"]
    assert values["ppv"] == values["precision"]
    assert all(flags[k] for k in EIGHT_METRICS)


def test_confusion_metrics_zero_denominators():
    values, flags = confusion_metrics(tp=0, fp=0, tn=5, fn=0)
    assert not flags["precision"] and values["precision"] == 0.0
    assert not flags["recall"] and not flags["f1"]
    assert flags["specificity"] and values["specificity"] == 1.0
    values, flags = confusion_metrics(0, 0, 0, 0)
    assert not any(flags.values())
    assert all(v == 0.0 for v in values.values())


def test_confusion_metrics_identities(rng):
    for _ in range(200):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 30, size=4))
        values, flags = confusion_metrics(tp, fp, tn, fn)
        assert set(values) == set(EIGHT_METRICS) == set(flags)
        if flags["accuracy"]:
            assert values["accuracy"] == pytest.approx((tp + tn) / (tp + fp + tn + fn))
        if flags["f1"]:
            p, r = values["precision"], values["recall"]
            assert values["f1"] == pytest.approx(2 * p * r / (p + r))
        for v in values.values():
            assert 0.0 <= v <= 1.0


@settings(max_examples=300, deadline=None)
@given(st.tuples(*[st.integers(0, 60)] * 4))
@example((0, 0, 0, 0))
@example((0, 0, 5, 0))
@example((0, 3, 0, 4))
def test_confusion_metrics_match_reference(confusion):
    values, flags = confusion_metrics(*confusion)
    ref_values, ref_flags = reference_confusion_metrics(*confusion)
    assert list(values) == list(flags) == list(EIGHT_METRICS)
    assert {k: repr(v) for k, v in values.items()} == {k: repr(v) for k, v in ref_values.items()}
    assert flags == ref_flags


def test_stratified_folds_sizes(rng):
    y = np.array([1] * 115 + [0] * 84)
    assign = stratified_folds(y, 10, rng)
    sizes = np.bincount(assign, minlength=10)
    assert sorted(sizes.tolist()) == [19] * 1 + [20] * 9
    # each class spreads as evenly as possible
    for cls in (0, 1):
        per = np.bincount(assign[y == cls], minlength=10)
        assert per.max() - per.min() <= 1
    assert (assign >= 0).all() and (assign < 10).all()


def test_stratified_folds_cover_all_rows(rng):
    y = (rng.random(57) < 0.4).astype(int)
    assign = stratified_folds(y, 5, rng)
    assert assign.shape == (57,)
    assert np.bincount(assign, minlength=5).sum() == 57


def make_dataset(rng, n=60, d=4, separation=4.0, name="toy"):
    half = n // 2
    X = np.vstack(
        [
            rng.normal(size=(half, d)) + separation / 2,
            rng.normal(size=(n - half, d)) - separation / 2,
        ]
    )
    y = np.array([1] * half + [0] * (n - half))
    perm = rng.permutation(n)
    return Dataset(
        name=name,
        X=X[perm],
        y=y[perm],
        row_terms=tuple(f"t{i}" for i in range(n)),
        col_names=tuple(f"c{j}" for j in range(d)),
    )


@pytest.mark.parametrize("clf", ["blr", "svm", "rfc"])
def test_cross_validate_reproducible(rng, clf):
    ds = make_dataset(rng, separation=1.0)
    a = cross_validate(ds, clf, folds=5, seed=42)
    b = cross_validate(ds, clf, folds=5, seed=42)
    assert a["confusion"] == b["confusion"]
    assert a["fold_accuracies"] == b["fold_accuracies"]
    assert a["metrics"] == b["metrics"]


@pytest.mark.parametrize("clf", ["blr", "svm", "rfc"])
def test_cross_validate_separable(rng, clf):
    ds = make_dataset(rng, n=80, separation=6.0)
    report = cross_validate(ds, clf, folds=10, seed=0)
    assert report["metrics"]["accuracy"] >= 0.97
    assert report["skipped_folds"] == []
    assert sum(report["confusion"].values()) == 80
    assert len(report["fold_accuracies"]) == 10


def test_cross_validate_random_labels_near_chance(rng):
    X = rng.normal(size=(100, 5))
    y = (rng.random(100) < 0.5).astype(int)
    ds = Dataset(name="noise", X=X, y=y, row_terms=tuple(map(str, range(100))), col_names=tuple("abcde"))
    report = cross_validate(ds, "svm", folds=10, seed=1)
    assert 0.25 <= report["metrics"]["accuracy"] <= 0.75


def test_cross_validate_skips_degenerate_folds(rng):
    # one positive among 20 rows: the fold holding it trains single-class
    X = rng.normal(size=(20, 2))
    y = np.zeros(20, dtype=int)
    y[3] = 1
    ds = Dataset(name="lopsided", X=X, y=y, row_terms=tuple(map(str, range(20))), col_names=("a", "b"))
    report = cross_validate(ds, "svm", folds=10, seed=0)
    assert len(report["skipped_folds"]) == 1
    # 10 folds x 2 rows, one fold skipped -> 18 scored rows
    assert sum(report["confusion"].values()) == 18


def test_cross_validate_rejects_bad_args(rng):
    ds = make_dataset(rng, n=6)
    with pytest.raises(InputError):
        cross_validate(ds, "knn")
    with pytest.raises(InputError):
        cross_validate(ds, "blr", folds=10)  # 6 rows < 10 folds
    for folds in (0, 1):
        with pytest.raises(InputError, match="folds"):
            cross_validate(ds, "svm", folds=folds)


def test_report_json_shape(rng):
    ds = make_dataset(rng, n=40)
    obj = cross_validate(ds, "rfc", folds=4, seed=9)
    assert obj["classifier"] == "rfc"
    assert obj["feature_set"] == "toy"
    assert set(obj["metrics"]) == set(obj["metric_defined"]) == set(EIGHT_METRICS)
    assert "positive_label" not in obj
    assert obj["folds"] == 4 and obj["seed"] == 9
    assert obj["accuracy_fold_mean"] == pytest.approx(sum(obj["fold_accuracies"]) / len(obj["fold_accuracies"]))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["blr", "svm", "rfc"]),
    st.integers(4, 16),
    st.integers(1, 4),
    st.integers(2, 4),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["separable", "noise", "one positive", "one class"]),
    st.data(),
)
def test_problems_solved_apart_in_any_order_pool_to_cross_validate(clf, n, d, folds, seed, kind, data):
    # as in `classify`: each problem trained on its own copy of the plan, results pooled in plan order
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = {
        "separable": (np.arange(n) % 2),
        "noise": rng.integers(0, 2, size=n),
        "one positive": (np.arange(n) == n // 2),  # its fold trains on one class: skipped
        "one class": np.zeros(n),
    }[kind].astype(np.int64)
    if kind == "separable":
        X[:, 0] += 8.0 * y
    ds = Dataset(name="toy", X=X, y=y, row_terms=tuple(map(str, range(n))), col_names=tuple(f"c{j}" for j in range(d)))
    plan = plan_folds(ds, clf, folds, seed)
    assert plan.problems == ((plan.scored,) if clf == "svm" else tuple((f,) for f in plan.scored))
    solved = [None] * len(plan.problems)
    for i in data.draw(st.permutations(range(len(plan.problems)))):
        result = train_problem(pickle.loads(pickle.dumps(plan)), plan.problems[i])
        solved[i] = pickle.loads(pickle.dumps(result))
    assert pool_folds(plan, solved) == cross_validate(ds, clf, folds, seed)
    if kind == "one positive":
        assert len(plan.skipped) == 1


def test_plan_folds_checks_the_arguments_of_cross_validate(rng):
    ds = make_dataset(rng, n=6)
    for args, message in [
        (("knn", 10), "unknown classifier 'knn'"),
        (("svm", 1), "folds must be >= 2, got 1"),
        (("blr", 10), "dataset toy: 6 rows < 10 folds"),
    ]:
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            plan_folds(ds, *args)
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            cross_validate(ds, *args)


# ---------------------------------------------------------------- feature sets


def _fake_vectors(terms):
    global_vecs, local_vecs = {}, {}
    for i, t in enumerate(terms):
        for j, k in enumerate(("mention", "reply", "quote")):
            global_vecs[(t, k)] = [float(i * 10 + j)] * len(METRIC_NAMES)
            local_vecs[(t, k)] = [float(i + j / 10.0)] * TOTAL_CLASSES
    return global_vecs, local_vecs


def test_assemble_feature_sets_shapes():
    terms = ["beta", "alpha", "gamma", "delta"]
    gv, lv = _fake_vectors(terms)
    labels = {"alpha": CONTROVERSIAL, "beta": NON_CONTROVERSIAL, "gamma": CONTROVERSIAL, "delta": NON_CONTROVERSIAL}
    sets = assemble_feature_sets(gv, lv, labels)
    assert set(sets) == {
        f"{fam}-{kind}" for fam in ("global", "local") for kind in ("mention", "reply", "quote", "combined")
    }
    assert sets["global-mention"].X.shape == (4, 9)
    assert sets["global-combined"].X.shape == (4, 27)
    assert sets["local-reply"].X.shape == (4, TOTAL_CLASSES)
    assert sets["local-combined"].X.shape == (4, 3 * TOTAL_CLASSES)
    # rows follow ascending term order, labels follow the rows
    assert sets["global-mention"].row_terms == ("alpha", "beta", "delta", "gamma")
    assert sets["global-mention"].y.tolist() == [1, 0, 0, 1]
    # combined stacks mention | reply | quote blocks in that order
    np.testing.assert_array_equal(sets["global-combined"].X[:, :9], sets["global-mention"].X)
    np.testing.assert_array_equal(sets["global-combined"].X[:, 9:18], sets["global-reply"].X)
    np.testing.assert_array_equal(sets["global-combined"].X[:, 18:], sets["global-quote"].X)


def test_assemble_feature_sets_needs_a_labeled_term():
    with pytest.raises(InputError, match="no labeled terms"):
        assemble_feature_sets({}, {}, {})


def test_assemble_feature_sets_missing_vector():
    gv, lv = _fake_vectors(["a", "b"])
    del gv[("b", "reply")]
    labels = {"a": CONTROVERSIAL, "b": NON_CONTROVERSIAL}
    with pytest.raises(InputError, match="lack features"):
        assemble_feature_sets(gv, lv, labels)


def test_dataset_validates():
    with pytest.raises(InputError):
        Dataset(name="bad", X=np.zeros((3, 2)), y=np.zeros(4), row_terms=("a",), col_names=("x", "y"))
    with pytest.raises(InputError):
        Dataset(name="nan", X=np.array([[np.nan, 0.0]]), y=np.zeros(1), row_terms=("a",), col_names=("x", "y"))

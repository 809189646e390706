"""Permutation importance, weight analyses, correlations and PCA."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import classifier
from .classifier import (LRConfig, LRModel, decision_function, fit,
                         label_index)
from .rng import derive_rng

log = logging.getLogger("stylus")


@dataclass(frozen=True)
class ImportanceReport:
    group: str
    mean_accuracy_loss: float
    sd: float
    iterations: int


def _accuracy(logits, y_idx) -> float:
    """Top-1 accuracy of ``top_k_accuracy``: ``argmax`` takes the first of
    tied probabilities, the lower class index."""
    return float((np.argmax(classifier._softmax(logits), axis=1)
                  == y_idx).mean())


def _importance(model: LRModel, X_test, y_test, columns, k, n_iter: int,
                seed: int, stream: str, group: str) -> ImportanceReport:
    """Mean accuracy loss over ``n_iter`` shuffles of a column group: all
    of ``columns`` if ``k`` is None, else ``k`` of them drawn afresh each
    iteration. Iteration ``i`` draws from ``derive_rng(seed, stream,
    group, i)``: the subset, then one row permutation shared by the group's
    columns. The model is linear, so the group adds ``partial = X[:, cols]
    @ W[:, cols].T`` to the logits, and shuffling the group's rows shuffles
    the rows of ``partial``."""
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    columns = np.asarray(columns, dtype=int)
    if k is not None and k > columns.size:
        raise ValueError(f"K={k} exceeds the {columns.size} features "
                         "of this group")
    X = np.asarray(X_test, dtype=float)
    logits = decision_function(model, X)
    y_idx = label_index(model.class_labels, y_test)
    baseline = _accuracy(logits, y_idx)
    if k is None:
        partial = X[:, columns] @ model.W[:, columns].T
    losses = np.empty(n_iter)
    for i in range(n_iter):
        rng = derive_rng(seed, stream, group, i)
        if k is not None:
            subset = rng.choice(columns, size=k, replace=False)
            partial = X[:, subset] @ model.W[:, subset].T
        perm = rng.permutation(partial.shape[0])
        losses[i] = baseline - _accuracy(logits - partial + partial[perm],
                                         y_idx)
    return ImportanceReport(group=group,
                            mean_accuracy_loss=float(losses.mean()),
                            sd=float(losses.std()), iterations=n_iter)


def permutation_importance(model: LRModel, X_test, y_test, columns,
                           n_iter: int = 1000, seed: int = 0,
                           group: str = "") -> ImportanceReport:
    """Accuracy loss from shuffling the given columns across test rows.

    Each iteration applies one shared row permutation to every selected
    column, preserving within-group covariance.
    """
    return _importance(model, X_test, y_test, columns, None, n_iter, seed,
                       "perm-importance", group)


def subset_importance(model: LRModel, X_test, y_test, columns, k: int,
                      n_iter: int = 1000, seed: int = 0,
                      group: str = "") -> ImportanceReport:
    """Mean accuracy loss over random K-column subsets of a feature group."""
    report = _importance(model, X_test, y_test, columns, k, n_iter, seed,
                         "subset-importance", group)
    return report if group else replace(report, group=f"subset-{k}")


def top_k_features(W, k: int) -> np.ndarray:
    """Columns with the largest max-over-classes |weight|, descending.

    Ties go to the lower column index.
    """
    W = np.asarray(W, dtype=float)
    if k > W.shape[1]:
        raise ValueError("K exceeds the number of features")
    strength = np.abs(W).max(axis=0)
    order = np.argsort(-strength, kind="stable")
    return order[:k]


def pearson_r(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a - a.mean()
    b = b - b.mean()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    if denom == 0:
        return float("nan")
    return float(np.dot(a, b) / denom)


def left_tail_permutation_p(observed: float, null_samples) -> float:
    """Monte Carlo left-tailed p with the add-one estimator (never 0). A
    NaN null sample counts as at or below ``observed``, so it can only
    raise p."""
    null_samples = np.asarray(null_samples, dtype=float)
    at_or_below = ~(null_samples > observed)
    return (float(at_or_below.sum()) + 1.0) / (null_samples.size + 1.0)


@dataclass(frozen=True)
class CorrelationReport:
    r: dict                    # performer -> observed r
    p: dict                    # performer -> left-tailed permutation p
    corrected_alpha_factor: int = 2


def _per_tag_weights(X, y, tags, columns, config):
    """Per tag, each class's weight row of a fit on the tag's rows."""
    out = {}
    for tag in sorted(set(tags)):
        rows = [i for i, t in enumerate(tags) if t == tag]
        model = fit(X[np.ix_(rows, columns)], [y[i] for i in rows], config)
        out[tag] = dict(zip(model.class_labels, model.W))
    return out


def dataset_weight_correlation(X, y, tags, columns, config: LRConfig,
                               n_perm: int = 1000,
                               seed: int = 0) -> CorrelationReport:
    """Per-performer correlation of feature weights across dataset tags.

    Fits one model per dataset tag on the given columns, correlates each
    performer's weight vectors between the two tags, and estimates a
    left-tailed p by refitting with tag labels shuffled across recordings
    within each performer. The within-performer shuffle keeps every
    performer's count of rows per tag, so each null refit sees the same
    classes as the observed fits. A performer missing from one tag, or
    whose observed r is undefined (a constant weight vector), is excluded
    with a warning.
    """
    if n_perm < 1:
        raise ValueError(f"n_perm must be >= 1, got {n_perm}")
    X = np.asarray(X, dtype=float)
    y = list(y)
    tags = list(tags)
    tag_values = sorted(set(tags))
    if len(tag_values) != 2:
        raise ValueError("exactly two dataset tags are required")
    performers = sorted(set(y))
    kept = []
    for p in performers:
        present = {t for yy, t in zip(y, tags) if yy == p}
        if len(present) == 2:
            kept.append(p)
        else:
            log.warning("performer %s missing from one dataset tag; "
                        "excluded from correlation", p)
    columns = np.asarray(columns, dtype=int)
    by_tag = _per_tag_weights(X, y, tags, columns, config)
    a, b = tag_values
    observed = {p: pearson_r(by_tag[a][p], by_tag[b][p]) for p in kept}
    for p in [p for p, r in observed.items() if np.isnan(r)]:
        log.warning("performer %s has a constant weight vector in one "
                    "dataset tag, so r is undefined; excluded from "
                    "correlation", p)
        del observed[p]

    tag_arr = np.asarray(tags)
    rows_of = [np.flatnonzero(np.asarray(y) == p) for p in performers]
    null = {p: np.empty(n_perm) for p in observed}
    for i in range(n_perm):
        rng = derive_rng(seed, "tag-shuffle", i)
        shuffled = tag_arr.copy()
        for rows in rows_of:
            shuffled[rows] = tag_arr[rng.permutation(rows)]
        by_tag_null = _per_tag_weights(X, y, shuffled.tolist(), columns,
                                       config)
        for p in observed:
            null[p][i] = pearson_r(by_tag_null[a][p], by_tag_null[b][p])
    pvals = {p: left_tail_permutation_p(r, null[p])
             for p, r in observed.items()}
    return CorrelationReport(r=observed, p=pvals)


def bootstrap_weight_sd(X, y, config: LRConfig, n_boot: int = 1000,
                        seed: int = 0) -> np.ndarray:
    """SD of each class x feature weight over bootstrap refits.

    A class's SD is taken over the resamples that contain it (NaN if none
    does); the number of (resample, class) omissions is logged.
    """
    if n_boot < 2:
        raise ValueError("n_boot must be >= 2")
    X = np.asarray(X, dtype=float)
    y = list(y)
    n = X.shape[0]
    reference = fit(X, y, config)
    samples = np.zeros((n_boot,) + reference.W.shape)
    present = np.zeros((n_boot, len(reference.class_labels)), dtype=bool)
    for i in range(n_boot):
        rng = derive_rng(seed, "bootstrap", i)
        while True:
            rows = rng.integers(0, n, size=n)
            resampled_y = [y[r] for r in rows]
            if len(set(resampled_y)) >= 2:
                break
        model = fit(X[rows], resampled_y, config)
        idx = label_index(reference.class_labels, model.class_labels)
        samples[i, idx], present[i, idx] = model.W, True
    omitted = int((~present).sum())
    if omitted:
        log.warning("bootstrap: %d (resample, class) pairs omitted, the "
                    "class being absent from the resample", omitted)
    sd = np.full(reference.W.shape, np.nan)
    for j in range(sd.shape[0]):
        if present[:, j].any():
            sd[j] = samples[present[:, j], j].std(axis=0)
    return sd


@dataclass
class PcaModel:
    components: np.ndarray        # component x feature, orthonormal rows
    explained_variance: np.ndarray
    means: np.ndarray             # z-transform parameters
    sds: np.ndarray
    mins: np.ndarray              # min-max parameters (post z-transform)
    maxs: np.ndarray


def _min_max(Z, mins, maxs):
    span = maxs - mins
    return (Z - mins) / np.where(span == 0, 1.0, span)


def _preprocess(X, means, sds, mins, maxs):
    return _min_max((X - means) / sds, mins, maxs)


def pca_fit(X) -> PcaModel:
    """PCA over z-transformed, min-max scaled features.

    Zero-variance features stay at 0 through the z-transform (guarded
    division). Components come from the SVD of the centred data.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[0] < 2:
        raise ValueError("need at least two rows")
    means = X.mean(axis=0)
    sds = X.std(axis=0)
    sds = np.where(sds == 0, 1.0, sds)
    Z = (X - means) / sds
    mins, maxs = Z.min(axis=0), Z.max(axis=0)
    S = _min_max(Z, mins, maxs)
    centred = S - S.mean(axis=0)
    _, sv, Vt = np.linalg.svd(centred, full_matrices=False)
    variance = sv ** 2 / (X.shape[0] - 1)
    return PcaModel(components=Vt, explained_variance=variance,
                    means=means, sds=sds, mins=mins, maxs=maxs)


def pca_project(model: PcaModel, vectors) -> np.ndarray:
    """Project raw-space vectors (rows) onto the components.

    Applies the stored preprocessing, then dots with every component.
    """
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    S = _preprocess(V, model.means, model.sds, model.mins, model.maxs)
    return S @ model.components.T

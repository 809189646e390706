"""Permutation importance, weight analyses, correlations and PCA."""

from __future__ import annotations

import logging
from dataclasses import dataclass

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


def _permuted_accuracy(logits, partial, y_idx, rng):
    """Accuracy after one shared row permutation of a column group.

    The model is linear, so the group adds ``partial = X[:, cols] @
    W[:, cols].T`` to the logits, and shuffling the group's rows shuffles
    the rows of ``partial``.
    """
    perm = rng.permutation(partial.shape[0])
    return _accuracy(logits - partial + partial[perm], y_idx)


def permutation_importance(model: LRModel, X_test, y_test, columns,
                           n_iter: int = 1000, seed: int = 0,
                           group: str = "") -> ImportanceReport:
    """Accuracy loss from shuffling the given columns across test rows.

    Each iteration applies one shared row permutation to every selected
    column, preserving within-group covariance.
    """
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    X = np.asarray(X_test, dtype=float)
    logits = decision_function(model, X)
    columns = np.asarray(columns, dtype=int)
    y_idx = label_index(model.class_labels, y_test)
    baseline = _accuracy(logits, y_idx)
    partial = X[:, columns] @ model.W[:, columns].T
    losses = np.empty(n_iter)
    for i in range(n_iter):
        if columns.size == 0:
            losses[i] = 0.0
            continue
        rng = derive_rng(seed, "perm-importance", group, i)
        losses[i] = baseline - _permuted_accuracy(
            logits, partial, y_idx, rng)
    return ImportanceReport(group=group,
                            mean_accuracy_loss=float(losses.mean()),
                            sd=float(losses.std()), iterations=n_iter)


def subset_importance(model: LRModel, X_test, y_test, columns, k: int,
                      n_iter: int = 1000, seed: int = 0,
                      group: str = "") -> ImportanceReport:
    """Mean accuracy loss over random K-column subsets of a feature group."""
    if n_iter < 1:
        raise ValueError(f"n_iter must be >= 1, got {n_iter}")
    columns = np.asarray(columns, dtype=int)
    if k > columns.size:
        raise ValueError(f"K={k} exceeds the {columns.size} features "
                         "of this group")
    X = np.asarray(X_test, dtype=float)
    logits = decision_function(model, X)
    y_idx = label_index(model.class_labels, y_test)
    baseline = _accuracy(logits, y_idx)
    losses = np.empty(n_iter)
    for i in range(n_iter):
        rng = derive_rng(seed, "subset-importance", group, i)
        subset = rng.choice(columns, size=k, replace=False)
        partial = X[:, subset] @ model.W[:, subset].T
        losses[i] = baseline - _permuted_accuracy(
            logits, partial, y_idx, rng)
    return ImportanceReport(group=group or f"subset-{k}",
                            mean_accuracy_loss=float(losses.mean()),
                            sd=float(losses.std()), iterations=n_iter)


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
    """Monte Carlo left-tailed p with the add-one estimator (never 0)."""
    null_samples = np.asarray(null_samples, dtype=float)
    n = null_samples.size
    return (float((null_samples <= observed).sum()) + 1.0) / (n + 1.0)


@dataclass(frozen=True)
class CorrelationReport:
    r: dict                    # performer -> observed r
    p: dict                    # performer -> left-tailed permutation p
    corrected_alpha_factor: int = 2


def _per_tag_weights(X, y, tags, columns, config, performers):
    out = {}
    for tag in sorted(set(tags)):
        rows = [i for i, t in enumerate(tags) if t == tag]
        model = fit(X[np.ix_(rows, columns)], [y[i] for i in rows], config)
        idx = {lab: i for i, lab in enumerate(model.class_labels)}
        out[tag] = {p: model.W[idx[p]] for p in performers if p in idx}
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
    classes as the observed fits.
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
    by_tag = _per_tag_weights(X, y, tags, columns, config, kept)
    a, b = tag_values
    observed = {p: pearson_r(by_tag[a][p], by_tag[b][p]) for p in kept}

    tag_arr = np.asarray(tags)
    rows_of = [np.flatnonzero(np.asarray(y) == p) for p in performers]
    null = {p: np.empty(n_perm) for p in kept}
    for i in range(n_perm):
        rng = derive_rng(seed, "tag-shuffle", i)
        shuffled = tag_arr.copy()
        for rows in rows_of:
            shuffled[rows] = tag_arr[rng.permutation(rows)]
        by_tag_null = _per_tag_weights(X, y, shuffled.tolist(), columns,
                                       config, kept)
        for p in kept:
            null[p][i] = pearson_r(by_tag_null[a][p], by_tag_null[b][p])
    pvals = {p: left_tail_permutation_p(observed[p], null[p]) for p in kept}
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
    label_idx = {lab: i for i, lab in enumerate(reference.class_labels)}
    for i in range(n_boot):
        rng = derive_rng(seed, "bootstrap", i)
        while True:
            rows = rng.integers(0, n, size=n)
            resampled_y = [y[r] for r in rows]
            if len(set(resampled_y)) >= 2:
                break
        model = fit(X[rows], resampled_y, config)
        for lab, weights in zip(model.class_labels, model.W):
            samples[i, label_idx[lab]] = weights
            present[i, label_idx[lab]] = True
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


def _preprocess(X, means, sds, mins, maxs):
    Z = (X - means) / sds
    span = maxs - mins
    span = np.where(span == 0, 1.0, span)
    return (Z - mins) / span


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
    mins = Z.min(axis=0)
    maxs = Z.max(axis=0)
    S = _preprocess(X, means, sds, mins, maxs)
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

"""Regularised multinomial logistic regression and hyperparameter search."""

from __future__ import annotations

import json
import logging
from collections import deque
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import ValidationError, write_json, write_table
from .rng import derive_rng

C_RANGE = (0.001, 1000.0)
CLASS_WEIGHTS = ("none", "balanced")

GRAD_TOL = 1e-5
MAX_ITER = 5000
LBFGS_HISTORY = 10      # (s, y) pairs kept by the L-BFGS two-loop recursion

log = logging.getLogger("stylus")


@dataclass(frozen=True)
class LRConfig:
    """Hyperparameters of the multinomial logistic regression.

    ``fit`` minimises the mean weighted cross-entropy over the n training
    rows plus ``0.5 / C * ||W||^2``, the bias unpenalised. ``penalty`` is
    always "L2": a separable split has no unpenalised minimiser. "none"
    weights every row 1 and "balanced" weights row i by ``n / (n_classes *
    count(class of i))``, as scikit-learn does. The objective is
    scikit-learn's ``0.5 * ||W||^2 + C_sk * sum(weight_i * loss_i)`` times
    ``1 / C``, so both have the same minimiser at ``C_sk = C / n``: the
    penalty here weighs against the mean loss, not the summed loss. A fit
    counts as converged when the absolute gradient infinity-norm over W and
    b is at most ``GRAD_TOL``.
    """

    C: float = 1.0
    class_weight: str = "none"
    penalty: str = "L2"

    def __post_init__(self):
        if not 0 < self.C < np.inf:
            raise ValueError(f"C must be positive and finite, got {self.C}")
        if self.class_weight not in CLASS_WEIGHTS:
            raise ValueError(f"unknown class_weight {self.class_weight!r}")
        if self.penalty != "L2":
            raise ValueError(f"penalty must be 'L2', got {self.penalty!r}")


@dataclass
class LRModel:
    W: np.ndarray            # class x feature
    b: np.ndarray            # class
    class_labels: tuple
    config: LRConfig
    n_iter: int = 0
    converged: bool = False
    vocabulary_hash: str = ""    # of the vocabulary trained on; "" from fit


def _softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def sample_weights(y_idx: np.ndarray, n_classes: int,
                   class_weight: str) -> np.ndarray:
    n = len(y_idx)
    if class_weight == "none":
        return np.ones(n)
    counts = np.bincount(y_idx, minlength=n_classes).astype(float)
    return n / (n_classes * counts[y_idx])


def loss_and_grad(W, b, X, Y, weights, l2: float):
    """Mean weighted cross-entropy plus l2 * 0.5 * ||W||^2.

    Returns (loss, grad_W, grad_b). ``l2`` is 1/C; the bias is never
    regularised.
    """
    n = X.shape[0]
    P = _softmax(X @ W.T + b)
    logp = np.log(np.clip(P, 1e-300, None))
    ce = -(weights * (Y * logp).sum(axis=1)).sum() / n
    loss = ce + 0.5 * l2 * float((W * W).sum())
    R = (P - Y) * weights[:, None] / n   # n x classes
    grad_W = R.T @ X + l2 * W
    grad_b = R.sum(axis=0)
    return loss, grad_W, grad_b


def _lbfgs_direction(g, history) -> np.ndarray:
    """Two-loop recursion: -H g for the inverse Hessian the pairs imply.

    With no history the direction is -g scaled by 1/max(1, ||g||_inf), so
    the first unit step moves no coordinate by more than one.
    """
    if not history:
        return -g / max(1.0, float(np.abs(g).max()))
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * float(s @ q)
        q -= a * y
        alphas.append(a)
    s, y, _ = history[-1]
    q *= float(s @ y) / float(y @ y)
    for (s, y, rho), a in zip(history, reversed(alphas)):
        q += (a - rho * float(y @ q)) * s
    return -q


def label_index(class_labels, y) -> np.ndarray:
    """Each label of ``y`` as its position in ``class_labels``, the
    performers a model was trained on; any other is a ValidationError."""
    position = {lab: i for i, lab in enumerate(class_labels)}
    try:
        return np.array([position[v] for v in y])
    except KeyError as exc:
        raise ValidationError(f"performer {exc.args[0]!r} has no training "
                              f"recording") from None


def fit(X, y, config: LRConfig = LRConfig()) -> LRModel:
    """Deterministic full-batch L-BFGS with Armijo backtracking.

    Starts from zero weights and runs until the gradient infinity-norm
    drops below ``GRAD_TOL`` or ``MAX_ITER`` iterations pass. Each iteration
    keeps the last ``LBFGS_HISTORY`` (s, y) pairs with positive curvature
    s.y, backtracks from a unit step until the Armijo condition holds, and
    restarts from steepest descent whenever the two-loop direction is not a
    descent direction (Nocedal & Wright, Numerical Optimization, ch. 7).
    """
    X = np.asarray(X, dtype=float)
    labels = tuple(sorted(set(y)))
    if len(labels) < 2:
        raise ValueError("need at least two classes")
    if X.shape[0] != len(y):
        raise ValueError("row count of X must match len(y)")
    y_idx = label_index(labels, y)
    n, d = X.shape
    k = len(labels)
    Y = np.zeros((n, k))
    Y[np.arange(n), y_idx] = 1.0
    weights = sample_weights(y_idx, k, config.class_weight)

    def objective(theta):
        W, b = theta[:k * d].reshape(k, d), theta[k * d:]
        loss, gW, gb = loss_and_grad(W, b, X, Y, weights, 1 / config.C)
        return loss, np.concatenate([gW.ravel(), gb])

    theta = np.zeros(k * (d + 1))
    loss, g = objective(theta)
    history = deque(maxlen=LBFGS_HISTORY)
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        if np.abs(g).max() <= GRAD_TOL:
            converged = True
            break
        direction = _lbfgs_direction(g, history)
        slope = float(g @ direction)
        if slope >= 0:
            history.clear()
            direction = _lbfgs_direction(g, history)
            slope = float(g @ direction)
        step = 1.0
        while True:
            theta_new = theta + step * direction
            loss_new, g_new = objective(theta_new)
            if loss_new <= loss + 1e-4 * step * slope or step < 1e-16:
                break
            step *= 0.5
        s, y_diff = theta_new - theta, g_new - g
        sy = float(s @ y_diff)
        if sy > 0:
            history.append((s, y_diff, 1.0 / sy))
        theta, loss, g = theta_new, loss_new, g_new
    else:
        it = MAX_ITER
        log.warning("fit stopped at max_iter=%d with |grad|_inf=%.3g > %.3g "
                    "(C=%g, class_weight=%s)", MAX_ITER,
                    float(np.abs(g).max()), GRAD_TOL, config.C,
                    config.class_weight)
    return LRModel(W=theta[:k * d].reshape(k, d), b=theta[k * d:],
                   class_labels=labels, config=config,
                   n_iter=it, converged=converged)


def decision_function(model: LRModel, X) -> np.ndarray:
    """Class logits ``X @ W.T + b``."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.W.shape[1]:
        raise ValueError(
            f"feature width {X.shape[1]} does not match model "
            f"width {model.W.shape[1]}")
    return X @ model.W.T + model.b


def predict_proba(model: LRModel, X) -> np.ndarray:
    return _softmax(decision_function(model, X))


def top_k_accuracy(probs, y, class_labels, k: int = 1) -> float:
    """Fraction of rows whose true label is among the k most probable.

    Probability ties are broken by lower class index.
    """
    probs = np.asarray(probs)
    if k > probs.shape[1]:
        raise ValueError("k exceeds the number of classes")
    y_idx = label_index(class_labels, y)
    # stable sort on -prob keeps the lower class index first among ties
    order = np.argsort(-probs, axis=1, kind="stable")[:, :k]
    hits = (order == y_idx[:, None]).any(axis=1)
    return float(hits.mean())


def sample_config(seed: int, trial: int) -> LRConfig:
    rng = derive_rng(seed, "search", trial)
    lo, hi = np.log10(C_RANGE[0]), np.log10(C_RANGE[1])
    c = float(10.0 ** rng.uniform(lo, hi))
    cw = str(rng.choice(CLASS_WEIGHTS))
    return LRConfig(C=c, class_weight=cw)


def random_search(iterations: int, seed: int, X_train, y_train, X_val,
                  y_val):
    """Sample ``iterations`` (at least one) configs, fit on train, score
    top-1 on validation.

    Returns (best_config, best_accuracy, trials), each trial (index, config,
    accuracy, iterations, converged); the best is not refit on train +
    validation, and ties go to the earliest trial.
    """
    trials = []
    best = None
    for i in range(iterations):
        config = sample_config(seed, i)
        model = fit(X_train, y_train, config)
        acc = top_k_accuracy(predict_proba(model, X_val), y_val,
                             model.class_labels, k=1)
        trials.append((i, config, acc, model.n_iter, model.converged))
        if best is None or acc > best[2]:
            best = trials[-1]
    return best[1], best[2], trials


def write_model(path, model: LRModel, vocabulary_hash: str) -> None:
    payload = {
        "class_labels": list(model.class_labels),
        "config": asdict(model.config),
        "b": model.b.tolist(),
        "W": model.W.ravel(order="C").tolist(),
        "n_features": model.W.shape[1],
        "vocabulary_hash": vocabulary_hash,
        "n_iter": model.n_iter,
        "converged": model.converged,
    }
    write_json(path, payload)


def read_model(path) -> LRModel:
    """The model ``write_model`` wrote. A missing key, a value of the wrong
    type or shape, or a repeated class label is a ValidationError naming
    the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        labels = tuple(payload["class_labels"])
        if len(set(labels)) < len(labels):
            raise ValueError(f"class_labels repeat a label: {list(labels)}")
        d = payload["n_features"]
        W = np.array(payload["W"], dtype=float).reshape(len(labels), d)
        b = np.array(payload["b"], dtype=float)
        if b.shape != (len(labels),):
            raise ValueError(f"b has shape {b.shape}, not one value for "
                             f"each of the {len(labels)} classes")
        return LRModel(W=W, b=b,
                       class_labels=labels,
                       config=LRConfig(**payload["config"]),
                       n_iter=payload["n_iter"],
                       converged=payload["converged"],
                       vocabulary_hash=payload["vocabulary_hash"])
    except (KeyError, TypeError, ValueError) as exc:
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValidationError(f"{path}: {reason}") from None


def write_trial_log(path, trials) -> None:
    header = "trial C class_weight val_top1 n_iter converged".split()
    write_table(path, header, ([i, repr(c.C), c.class_weight, repr(acc), *fit]
                               for i, c, acc, *fit in trials))

import json
import re

import numpy as np
import pytest

from stylus import classifier
from stylus.classifier import LRConfig, LRModel
from stylus.corpus import ValidationError


def random_instance(rng, n=12, d=5, k=3):
    X = rng.normal(size=(n, d))
    y_idx = rng.integers(0, k, size=n)
    # guarantee every class appears
    y_idx[:k] = np.arange(k)
    Y = np.zeros((n, k))
    Y[np.arange(n), y_idx] = 1.0
    weights = rng.uniform(0.5, 2.0, size=n)
    return X, Y, weights


def finite_difference(W, b, X, Y, weights, l2, h=1e-6):
    def loss_at(Wv, bv):
        return classifier.loss_and_grad(Wv, bv, X, Y, weights, l2)[0]
    gW = np.zeros_like(W)
    for idx in np.ndindex(W.shape):
        Wp, Wm = W.copy(), W.copy()
        Wp[idx] += h
        Wm[idx] -= h
        gW[idx] = (loss_at(Wp, b) - loss_at(Wm, b)) / (2 * h)
    gb = np.zeros_like(b)
    for i in range(b.size):
        bp, bm = b.copy(), b.copy()
        bp[i] += h
        bm[i] -= h
        gb[i] = (loss_at(W, bp) - loss_at(W, bm)) / (2 * h)
    return gW, gb


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(0)
        for trial in range(50):
            X, Y, weights = random_instance(rng)
            W = rng.normal(scale=0.5, size=(Y.shape[1], X.shape[1]))
            b = rng.normal(scale=0.5, size=Y.shape[1])
            l2 = float(rng.uniform(0, 2))
            _, gW, gb = classifier.loss_and_grad(W, b, X, Y, weights, l2)
            fW, fb = finite_difference(W, b, X, Y, weights, l2)
            scale = max(np.abs(fW).max(), np.abs(fb).max(), 1e-8)
            assert np.abs(gW - fW).max() / scale < 1e-4
            assert np.abs(gb - fb).max() / scale < 1e-4

    def test_bias_not_regularised(self):
        rng = np.random.default_rng(1)
        X, Y, weights = random_instance(rng)
        W = np.zeros((Y.shape[1], X.shape[1]))
        b = rng.normal(size=Y.shape[1])
        _, _, gb0 = classifier.loss_and_grad(W, b, X, Y, weights, 0.0)
        _, _, gb1 = classifier.loss_and_grad(W, b, X, Y, weights, 5.0)
        assert np.allclose(gb0, gb1)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        P = classifier._softmax(rng.normal(scale=50, size=(40, 6)))
        assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-9

    def test_hand_values(self):
        P = classifier._softmax(np.array([[0.0, np.log(3.0)]]))
        assert np.allclose(P, [[0.25, 0.75]])

    def test_extreme_logits_stable(self):
        P = classifier._softmax(np.array([[1000.0, -1000.0]]))
        assert np.isfinite(P).all() and P[0, 0] == pytest.approx(1.0)


class TestSampleWeights:
    def test_none_is_unit(self):
        assert np.array_equal(
            classifier.sample_weights(np.array([0, 1, 1]), 2, "none"),
            [1.0, 1.0, 1.0])

    def test_balanced_formula(self):
        y = np.array([0, 0, 0, 1])
        w = classifier.sample_weights(y, 2, "balanced")
        assert np.allclose(w, [4 / 6, 4 / 6, 4 / 6, 4 / 2])


class TestFit:
    def _separable(self, rng, n=30):
        X0 = rng.normal(loc=-2, size=(n, 3))
        X1 = rng.normal(loc=2, size=(n, 3))
        return np.vstack([X0, X1]), ["a"] * n + ["b"] * n

    def test_refit_is_bit_exact(self):
        rng = np.random.default_rng(3)
        X, y = self._separable(rng)
        m1 = classifier.fit(X, y, LRConfig(C=2.0))
        m2 = classifier.fit(X, y, LRConfig(C=2.0))
        assert np.array_equal(m1.W, m2.W) and np.array_equal(m1.b, m2.b)

    def test_labels_sorted(self):
        rng = np.random.default_rng(4)
        X, _ = self._separable(rng)
        m = classifier.fit(X, ["z"] * 30 + ["a"] * 30, LRConfig())
        assert m.class_labels == ("a", "z")

    def test_separable_data_learned(self):
        rng = np.random.default_rng(5)
        X, y = self._separable(rng)
        m = classifier.fit(X, y, LRConfig(C=10.0))
        acc = classifier.top_k_accuracy(classifier.predict_proba(m, X), y,
                                        m.class_labels, k=1)
        assert acc == 1.0

    def test_weight_norm_grows_with_c(self):
        rng = np.random.default_rng(6)
        X, y = self._separable(rng)
        norms = [np.linalg.norm(classifier.fit(X, y, LRConfig(C=c)).W)
                 for c in (0.01, 1.0, 100.0)]
        assert norms[0] < norms[1] < norms[2]

    def test_converges_to_stationary_point(self):
        rng = np.random.default_rng(7)
        X, y = self._separable(rng)
        m = classifier.fit(X, y, LRConfig(C=1.0))
        assert m.converged
        labels = {lab: i for i, lab in enumerate(m.class_labels)}
        Y = np.zeros((len(y), 2))
        Y[np.arange(len(y)), [labels[v] for v in y]] = 1.0
        _, gW, gb = classifier.loss_and_grad(
            m.W, m.b, X, Y, np.ones(len(y)), 1.0)
        assert max(np.abs(gW).max(), np.abs(gb).max()) <= 1e-5

    @pytest.mark.parametrize("C, ceiling", [(0.01, 25), (100.0, 45)])
    def test_converges_in_few_iterations(self, C, ceiling):
        # both ends of the C range are ill-conditioned for steepest
        # descent: on this 200 x 60, 5-class problem backtracking gradient
        # descent needed 881 iterations at C=0.01 and 289 at C=100; L-BFGS
        # needs 10 and 29
        rng = np.random.default_rng(0)
        n, d, k = 200, 60, 5
        centres = rng.normal(scale=0.5, size=(k, d))
        y_idx = np.arange(n) % k
        X = centres[y_idx] + rng.normal(size=(n, d))
        m = classifier.fit(X, [f"p{i}" for i in y_idx], LRConfig(C=C))
        assert m.converged
        assert m.n_iter <= ceiling

    def test_only_max_iter_stop_logs_a_warning(self, caplog, monkeypatch):
        import logging
        rng = np.random.default_rng(8)
        X, y = self._separable(rng)
        with caplog.at_level(logging.WARNING, logger="stylus"):
            assert classifier.fit(X, y, LRConfig(C=1.0)).converged
            assert not caplog.records
            monkeypatch.setattr(classifier, "MAX_ITER", 2)
            m = classifier.fit(X, y, LRConfig(C=1.0))
        assert not m.converged and m.n_iter == 2
        assert len(caplog.records) == 1
        assert "max_iter" in caplog.records[0].message

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            classifier.fit(np.zeros((3, 2)), ["a", "a", "a"], LRConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LRConfig(C=0.0)
        with pytest.raises(ValueError):
            LRConfig(class_weight="auto")
        with pytest.raises(ValueError):
            LRConfig(penalty="L1")


def unpack(theta, k, d):
    return theta[:k * d].reshape(k, d), theta[k * d:]


class TestSolverOracle:
    """``fit`` against scipy's L-BFGS-B on the same objective."""

    def _overlapping(self, rng, n=60, d=4):
        # unequal classes with a weak signal in column 0: the classes
        # overlap, so the unpenalised objective has a finite minimiser
        y_idx = np.repeat([0, 1, 2], [30, 18, 12])
        X = rng.normal(size=(n, d))
        X[:, 0] += 0.7 * y_idx
        return X, y_idx

    @pytest.mark.parametrize("penalty", ["L2", "none"])
    @pytest.mark.parametrize("class_weight", ["none", "balanced"])
    def test_reaches_scipy_minimum(self, penalty, class_weight):
        from scipy.optimize import minimize
        rng = np.random.default_rng(20)
        X, y_idx = self._overlapping(rng)
        n, d = X.shape
        k = 3
        config = LRConfig(C=0.5, class_weight=class_weight, penalty=penalty)
        Y = np.eye(k)[y_idx]
        weights = classifier.sample_weights(y_idx, k, class_weight)
        l2 = 1 / config.C if penalty == "L2" else 0.0

        def objective(theta):
            loss, gW, gb = classifier.loss_and_grad(
                *unpack(theta, k, d), X, Y, weights, l2)
            return loss, np.concatenate([gW.ravel(), gb])

        ref = minimize(objective, np.zeros(k * (d + 1)), jac=True,
                       method="L-BFGS-B",
                       options={"gtol": 1e-12, "ftol": 1e-15,
                                "maxiter": 10_000})
        assert np.abs(ref.jac).max() < 1e-7
        m = classifier.fit(X, [f"c{i}" for i in y_idx], config)
        assert m.converged
        loss = objective(np.concatenate([m.W.ravel(), m.b]))[0]
        # fit stops at |grad|_inf <= 1e-5, so its loss is O(|grad|^2) and
        # its parameters O(|grad| / curvature) from the minimiser; the
        # largest gaps over the four cases are 5e-10 and 3.3e-5. Adding
        # one constant to every class's logits leaves the loss unchanged,
        # so parameters are compared after centring over classes.
        assert loss - ref.fun <= 1e-8
        W_ref, b_ref = unpack(ref.x, k, d)
        for got, want in ((m.W, W_ref), (m.b, b_ref)):
            assert np.abs((got - got.mean(axis=0))
                          - (want - want.mean(axis=0))).max() <= 2e-4

    @pytest.mark.parametrize("class_weight", ["none", "balanced"])
    def test_c_matches_sklearn_form_at_c_over_n(self, class_weight):
        # scikit-learn minimises 0.5 ||W||^2 + C_sk * sum(w_i * loss_i);
        # written here without loss_and_grad, with C_sk = C / n it is
        # C times this package's objective
        from scipy.special import logsumexp
        rng = np.random.default_rng(21)
        X, y_idx = self._overlapping(rng)
        n = X.shape[0]
        C = 0.5
        weights = classifier.sample_weights(y_idx, 3, class_weight)
        Y = np.eye(3)[y_idx]
        for _ in range(5):
            W = rng.normal(size=(3, X.shape[1]))
            b = rng.normal(size=3)
            Z = X @ W.T + b
            nll = logsumexp(Z, axis=1) - Z[np.arange(n), y_idx]
            sk = 0.5 * (W ** 2).sum() + (C / n) * (weights * nll).sum()
            ours = classifier.loss_and_grad(W, b, X, Y, weights, 1 / C)[0]
            assert C * ours == pytest.approx(sk, rel=1e-12)


class TestTopKAccuracy:
    def test_basic(self):
        probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7]])
        labels = ("a", "b", "c")
        assert classifier.top_k_accuracy(probs, ["a", "a"], labels, 1) == 0.5
        assert classifier.top_k_accuracy(probs, ["a", "b"], labels, 2) == 1.0

    def test_tie_goes_to_lower_class_index(self):
        probs = np.array([[0.5, 0.5]])
        labels = ("a", "b")
        assert classifier.top_k_accuracy(probs, ["a"], labels, 1) == 1.0
        assert classifier.top_k_accuracy(probs, ["b"], labels, 1) == 0.0

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            classifier.top_k_accuracy(np.ones((1, 2)), ["a"], ("a", "b"), 3)


class TestSearch:
    def test_sample_config_ranges_and_determinism(self):
        for trial in range(50):
            c1 = classifier.sample_config(9, trial)
            c2 = classifier.sample_config(9, trial)
            assert (c1.C, c1.class_weight, c1.penalty) == \
                (c2.C, c2.class_weight, c2.penalty)
            assert 0.001 <= c1.C <= 1000.0
            assert c1.class_weight in ("none", "balanced")
            assert c1.penalty in ("none", "L2")

    def test_log_uniform_spread(self):
        logs = np.array([np.log10(classifier.sample_config(0, t).C)
                         for t in range(400)])
        # log10 C ~ U(-3, 3): mean near 0, both halves populated
        assert abs(logs.mean()) < 0.5
        assert (logs < 0).sum() > 100 and (logs > 0).sum() > 100

    def test_search_returns_best_without_refit(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 4))
        X[:20] += 3
        y = ["a"] * 20 + ["b"] * 20
        best, acc, trials = classifier.random_search(
            5, 1, X[::2], y[::2], X[1::2], y[1::2])
        assert len(trials) == 5
        assert acc == max(t[2] for t in trials)
        winner = next(t for t in trials if t[2] == acc)   # earliest tie
        assert winner[1] is best

    def test_trial_log_round_trip_floats(self, tmp_path):
        trials = [(0, LRConfig(C=37.01699999999317), 0.7669999999)]
        path = tmp_path / "trials.csv"
        classifier.write_trial_log(path, trials)
        text = path.read_text()
        assert "37.01699999999317" in text and "0.7669999999" in text


class TestModelFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(20, 3))
        X[:10] += 2
        y = ["a"] * 10 + ["b"] * 10
        m = classifier.fit(X, y, LRConfig(C=3.5, class_weight="balanced"))
        path = tmp_path / "model.json"
        classifier.write_model(path, m, "hash123")
        got = classifier.read_model(path)
        assert np.array_equal(got.W, m.W) and np.array_equal(got.b, m.b)
        assert got.class_labels == m.class_labels
        assert got.config == m.config
        assert m.converged and m.n_iter > 0
        assert got.n_iter == m.n_iter and got.converged == m.converged
        assert got.vocabulary_hash == "hash123"

    @pytest.mark.parametrize("C", [float("nan"), float("inf"),
                                   float("-inf"), 0.0])
    def test_C_not_positive_and_finite_refused(self, tmp_path, C):
        with pytest.raises(ValueError, match="C must be positive and finite"):
            LRConfig(C=C)
        m = LRModel(W=np.zeros((2, 3)), b=np.zeros(2),
                    class_labels=("a", "b"), config=LRConfig())
        path = tmp_path / "model.json"
        classifier.write_model(path, m, "")
        payload = json.loads(path.read_text())
        payload["config"]["C"] = C
        path.write_text(json.dumps(payload))     # NaN and Infinity tokens
        with pytest.raises(ValidationError,
                           match=re.escape(f"{path}: C must be positive")):
            classifier.read_model(path)

    def _written(self, tmp_path, **changes):
        """A written two-class model's path, its JSON keys changed."""
        m = LRModel(W=np.zeros((2, 3)), b=np.zeros(2),
                    class_labels=("a", "b"), config=LRConfig())
        path = tmp_path / "model.json"
        classifier.write_model(path, m, "")
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    **changes}))
        return path

    @pytest.mark.parametrize("b", [[5.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]])
    def test_b_not_one_value_per_class_refused(self, tmp_path, b):
        path = self._written(tmp_path, b=b)
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: b has shape {np.shape(b)}, not one value for "
                f"each of the 2 classes")):
            classifier.read_model(path)

    @pytest.mark.parametrize("key", ["n_iter", "converged",
                                     "vocabulary_hash"])
    def test_missing_fit_record_refused(self, tmp_path, key):
        path = self._written(tmp_path)
        payload = json.loads(path.read_text())
        del payload[key]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: missing key '{key}'")):
            classifier.read_model(path)

    def test_repeated_class_label_refused(self, tmp_path):
        path = self._written(tmp_path, class_labels=["a", "a"])
        with pytest.raises(ValidationError, match=re.escape(
                f"{path}: class_labels repeat a label: ['a', 'a']")):
            classifier.read_model(path)

    def test_predict_width_mismatch(self):
        m = LRModel(W=np.zeros((2, 3)), b=np.zeros(2),
                    class_labels=("a", "b"), config=LRConfig())
        with pytest.raises(ValueError):
            classifier.predict_proba(m, np.zeros((1, 4)))

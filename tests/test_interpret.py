import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from stylus import classifier, interpret
from stylus.classifier import LRConfig, LRModel
from stylus.rng import derive_rng


def identity_model(d, labels=("a", "b")):
    """Model whose score for class i is feature i."""
    W = np.zeros((len(labels), d))
    for i in range(len(labels)):
        W[i, i] = 10.0
    return LRModel(W=W, b=np.zeros(len(labels)), class_labels=labels,
                   config=LRConfig())


class TestPermutationImportance:
    def _planted(self, rng, n=200, noise_cols=4):
        signal = rng.normal(size=n)
        y = ["a" if s > 0 else "b" for s in signal]
        X = np.column_stack([signal, -signal]
                            + [rng.normal(size=n) for _ in range(noise_cols)])
        model = identity_model(X.shape[1])
        return model, X, y

    def test_signal_group_hurts_noise_group_does_not(self):
        rng = np.random.default_rng(0)
        model, X, y = self._planted(rng)
        signal = interpret.permutation_importance(model, X, y, [0, 1],
                                                  n_iter=100, seed=0,
                                                  group="signal")
        noise = interpret.permutation_importance(model, X, y, [2, 3],
                                                 n_iter=100, seed=0,
                                                 group="noise")
        assert signal.mean_accuracy_loss > 0.3
        assert abs(noise.mean_accuracy_loss) <= 0.02

    def test_shared_permutation_within_group(self):
        # class score depends only on the difference of two equal columns;
        # one shared row permutation keeps that difference at zero
        rng = np.random.default_rng(1)
        col = rng.normal(size=50)
        X = np.column_stack([col, col])
        y = ["a"] * 50
        W = np.array([[1.0, -1.0], [-1.0, 1.0]])
        model = LRModel(W=W, b=np.array([1.0, 0.0]),
                        class_labels=("a", "b"), config=LRConfig())
        report = interpret.permutation_importance(model, X, y, [0, 1],
                                                  n_iter=50, seed=2)
        assert report.mean_accuracy_loss == 0.0

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        model, X, y = self._planted(rng)
        r1 = interpret.permutation_importance(model, X, y, [0, 1], 20, 5, "g")
        r2 = interpret.permutation_importance(model, X, y, [0, 1], 20, 5, "g")
        assert r1 == r2

    def test_empty_group_zero_loss(self):
        rng = np.random.default_rng(4)
        model, X, y = self._planted(rng)
        r = interpret.permutation_importance(model, X, y, [], 10, 0)
        assert r.mean_accuracy_loss == 0.0 and r.sd == 0.0

    @pytest.mark.parametrize("n_iter", [0, -3])
    def test_no_iterations_rejected(self, n_iter):
        model = identity_model(3)
        X, y = np.eye(3)[:2], ["a", "b"]
        for call in (lambda: interpret.permutation_importance(
                         model, X, y, [0], n_iter),
                     lambda: interpret.subset_importance(
                         model, X, y, [0, 1], 1, n_iter)):
            with pytest.raises(ValueError, match=f"got {n_iter}"):
                call()


def brute_force_importance(model, X, y, draws):
    """Reference: copy X, shuffle the rows of the drawn columns, predict.

    ``draws`` yields (rng, columns) per iteration. Returns (mean, sd).
    """
    def accuracy(Xv):
        return classifier.top_k_accuracy(classifier.predict_proba(model, Xv),
                                         y, model.class_labels, k=1)
    baseline = accuracy(X)
    losses = []
    for rng, columns in draws:
        Xp = X.copy()
        perm = rng.permutation(X.shape[0])
        Xp[:, columns] = X[perm][:, columns]
        losses.append(baseline - accuracy(Xp))
    return float(np.mean(losses)), float(np.std(losses))


@st.composite
def logits_and_labels(draw):
    n, k = draw(st.integers(1, 12)), draw(st.integers(2, 5))
    # few distinct values make tied logits, and so tied probabilities
    values = (st.sampled_from([-1.0, 0.0, 0.5, 3.0])
              | st.floats(-50.0, 50.0))
    logits = draw(hnp.arrays(np.float64, (n, k), elements=values))
    y = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return logits, [f"c{i}" for i in y], tuple(f"c{i}" for i in range(k))


@settings(max_examples=300, deadline=None)
@given(case=logits_and_labels())
@example(case=(np.zeros((3, 3)), ["c0", "c1", "c2"], ("c0", "c1", "c2")))
@example(case=(np.array([[2.0, 2.0, 1.0], [1.0, 3.0, 3.0]]), ["c1", "c1"],
               ("c0", "c1", "c2")))
def test_importance_accuracy_is_top_1_accuracy(case):
    logits, y, labels = case
    want = classifier.top_k_accuracy(classifier._softmax(logits), y,
                                     labels, k=1)
    got = interpret._accuracy(logits, classifier.label_index(labels, y))
    assert got == want


class TestImportanceOracle:
    """The partial-logit importance equals a full predict per shuffle."""

    def _cases(self):
        rng = np.random.default_rng(14)
        # small integers keep every logit exact; rows with x0 == x1 give
        # classes a and b equal probability
        X_tie = rng.integers(0, 3, size=(40, 5)).astype(float)
        W_tie = np.array([[1.0, 0, 0, 1, 0], [0, 1.0, 0, 1, 0],
                          [0, 0, 1.0, 0, 1]])
        b_tie = np.array([0.5, 0.5, 0.0])
        X_float = rng.normal(size=(60, 6))
        W_float = rng.normal(size=(3, 6))
        b_float = rng.normal(size=3)
        for X, W, b in ((X_tie, W_tie, b_tie), (X_float, W_float, b_float)):
            model = LRModel(W=W, b=b, class_labels=("a", "b", "c"),
                            config=LRConfig())
            yield model, X, list(rng.choice(["a", "b", "c"], size=len(X)))

    def test_tie_case_has_ties(self):
        model, X, _ = next(self._cases())
        P = classifier.predict_proba(model, X)
        assert (P[:, 0] == P[:, 1]).any()
        assert (P[:, 0] == P.max(axis=1))[P[:, 0] == P[:, 1]].any()

    def test_permutation_importance_matches_brute_force(self):
        for model, X, y in self._cases():
            for columns in ([0], [0, 1], [1, 3, 4], list(range(5))):
                got = interpret.permutation_importance(model, X, y, columns,
                                                       n_iter=60, seed=3,
                                                       group="g")
                draws = ((derive_rng(3, "perm-importance", "g", i), columns)
                         for i in range(60))
                want = brute_force_importance(model, X, y, draws)
                assert (got.mean_accuracy_loss, got.sd) == want

    def test_subset_importance_matches_brute_force(self):
        for model, X, y in self._cases():
            group = np.array([0, 1, 3, 4])

            def draws():
                for i in range(60):
                    rng = derive_rng(4, "subset-importance", "s", i)
                    yield rng, rng.choice(group, size=2, replace=False)
            got = interpret.subset_importance(model, X, y, group, k=2,
                                              n_iter=60, seed=4, group="s")
            want = brute_force_importance(model, X, y, draws())
            assert (got.mean_accuracy_loss, got.sd) == want


class TestSubsetImportance:
    def test_k_exceeds_group_rejected(self):
        model = identity_model(3)
        with pytest.raises(ValueError):
            interpret.subset_importance(model, np.zeros((2, 3)), ["a", "a"],
                                        [0, 1], k=3)

    def test_single_signal_column_k1_expectation(self):
        # permuting the one signal column among {signal, 3 noise} is drawn
        # with probability 1/4, so the mean loss is about loss_signal / 4
        rng = np.random.default_rng(5)
        signal = rng.normal(size=400)
        y = ["a" if s > 0 else "b" for s in signal]
        X = np.column_stack([signal, -signal,
                             rng.normal(size=400), rng.normal(size=400)])
        model = identity_model(4)
        full = interpret.permutation_importance(model, X, y, [0], 300, 0)
        sub = interpret.subset_importance(model, X, y, [0, 2, 3], k=1,
                                          n_iter=900, seed=0)
        assert sub.mean_accuracy_loss == pytest.approx(
            full.mean_accuracy_loss / 3, abs=0.03)


class TestTopKFeatures:
    def brute(self, W, k):
        strength = np.abs(W).max(axis=0)
        order = sorted(range(W.shape[1]), key=lambda j: (-strength[j], j))
        return order[:k]

    def test_matches_brute_force_including_ties(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            W = rng.integers(-3, 4, size=(3, 12)).astype(float)  # many ties
            k = int(rng.integers(1, 13))
            assert list(interpret.top_k_features(W, k)) == self.brute(W, k)

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            interpret.top_k_features(np.zeros((2, 3)), 4)


class TestStatistics:
    def test_pearson_hand_value(self):
        assert interpret.pearson_r([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)
        assert interpret.pearson_r([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
        assert interpret.pearson_r([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_pearson_zero_variance_nan(self):
        assert np.isnan(interpret.pearson_r([1, 1, 1], [1, 2, 3]))

    def test_left_tail_p_add_one(self):
        null = np.array([0.1, 0.2, 0.3, 0.4])
        assert interpret.left_tail_permutation_p(0.0, null) == 1 / 5
        assert interpret.left_tail_permutation_p(0.25, null) == 3 / 5
        assert interpret.left_tail_permutation_p(1.0, null) == 1.0

    def test_left_tail_p_never_zero(self):
        assert interpret.left_tail_permutation_p(-np.inf, np.zeros(99)) == 0.01

    def test_left_tail_p_counts_nan_null_at_or_below(self):
        null = np.array([np.nan, 0.9, 0.1])
        assert interpret.left_tail_permutation_p(0.5, null) == 3 / 4
        assert interpret.left_tail_permutation_p(-1.0, null) == 2 / 4


class TestDatasetCorrelation:
    def _data(self, rng, flip_trio=False):
        # two performers, strong signature feature per performer, both tags
        X, y, tags = [], [], []
        for tag in ("solo", "trio"):
            for p, col in (("a", 0), ("b", 1)):
                for _ in range(15):
                    row = rng.normal(scale=0.1, size=4)
                    sig = col if not (flip_trio and tag == "trio") \
                        else 1 - col
                    row[sig] += 2.0
                    X.append(row)
                    y.append(p)
                    tags.append(tag)
        return np.array(X), y, tags

    def test_consistent_weights_high_r(self):
        rng = np.random.default_rng(7)
        X, y, tags = self._data(rng)
        report = interpret.dataset_weight_correlation(
            X, y, tags, [0, 1, 2, 3], LRConfig(C=1.0), n_perm=19, seed=0)
        assert report.r["a"] > 0.8 and report.r["b"] > 0.8
        assert report.corrected_alpha_factor == 2

    def test_flipped_signatures_give_low_r_and_small_p(self):
        # trio signatures are swapped, so per-tag weights anti-correlate;
        # shuffled tags mix the data back together, raising the null r
        rng = np.random.default_rng(13)
        X, y, tags = self._data(rng, flip_trio=True)
        report = interpret.dataset_weight_correlation(
            X, y, tags, [0, 1, 2, 3], LRConfig(C=1.0), n_perm=19, seed=0)
        assert report.r["a"] < 0.0
        assert report.p["a"] == pytest.approx(1 / 20)

    def test_performer_missing_one_tag_excluded(self, caplog):
        import logging
        rng = np.random.default_rng(8)
        X, y, tags = self._data(rng)
        # add a performer only present in solo
        extra = rng.normal(size=(6, 4))
        extra[:, 2] += 2
        X = np.vstack([X, extra])
        y += ["c"] * 6
        tags += ["solo"] * 6
        with caplog.at_level(logging.WARNING, logger="stylus"):
            report = interpret.dataset_weight_correlation(
                X, y, tags, [0, 1, 2, 3], LRConfig(), n_perm=5, seed=0)
        assert set(report.r) == {"a", "b"}
        assert any("missing" in r.message for r in caplog.records)

    def test_undefined_r_excluded(self, caplog):
        """Columns 0-2 are zero in every trio row, so each performer's trio
        weights on them are constant and r is undefined: it was reported
        as NaN with p = 1 / (n_perm + 1), the smallest p there is."""
        import logging
        rng = np.random.default_rng(3)
        X, y, tags = [], [], []
        for tag in ("solo", "trio"):
            for p, col in (("a", 0), ("b", 1)):
                for _ in range(10):
                    row = rng.normal(scale=0.1, size=4)
                    row[col] += 2.0
                    if tag == "trio":
                        row[:3] = 0.0
                    X.append(row)
                    y.append(p)
                    tags.append(tag)
        with caplog.at_level(logging.WARNING, logger="stylus"):
            report = interpret.dataset_weight_correlation(
                np.array(X), y, tags, [0, 1, 2], LRConfig(), n_perm=9)
        assert report.r == {} and report.p == {}
        assert sorted(r.getMessage().split()[1] for r in caplog.records
                      if "undefined" in r.getMessage()) == ["a", "b"]

    def test_few_rows_per_performer_survive_the_shuffle(self):
        # 3 performers x 2 rows per tag: a shuffle of tags across all
        # rows can leave a performer with no rows under one tag, which
        # raised KeyError
        rng = np.random.default_rng(0)
        X, y, tags = [], [], []
        for tag in ("solo", "trio"):
            for p, col in (("a", 0), ("b", 1), ("c", 2)):
                for _ in range(2):
                    row = rng.normal(scale=0.1, size=4)
                    row[col] += 2.0
                    X.append(row)
                    y.append(p)
                    tags.append(tag)
        report = interpret.dataset_weight_correlation(
            np.array(X), y, tags, [0, 1, 2, 3], LRConfig(), n_perm=50,
            seed=0)
        assert set(report.p) == {"a", "b", "c"}
        assert all(1 / 51 <= p <= 1.0 for p in report.p.values())

    def test_shuffle_keeps_each_performers_tag_counts(self, monkeypatch):
        from collections import Counter
        rng = np.random.default_rng(15)
        X, y, tags = self._data(rng)
        y[0] = "b"                  # unequal tag counts within performers
        seen = []
        original = interpret._per_tag_weights

        def recording(X, y, tags, *args):
            seen.append(Counter(zip(y, tags)))
            return original(X, y, tags, *args)
        monkeypatch.setattr(interpret, "_per_tag_weights", recording)
        interpret.dataset_weight_correlation(
            X, y, tags, [0, 1, 2, 3], LRConfig(), n_perm=10, seed=0)
        assert len(seen) == 11
        assert all(counts == seen[0] for counts in seen)

    def test_requires_two_tags(self):
        with pytest.raises(ValueError):
            interpret.dataset_weight_correlation(
                np.zeros((4, 2)), ["a", "a", "b", "b"], ["solo"] * 4,
                [0, 1], LRConfig())

    def test_no_permutations_rejected(self):
        X, y, tags = self._data(np.random.default_rng(7))
        with pytest.raises(ValueError, match="n_perm must be >= 1, got 0"):
            interpret.dataset_weight_correlation(X, y, tags, [0, 1],
                                                 LRConfig(), n_perm=0)


class TestBootstrap:
    def test_shape_determinism_and_positive_sd(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 3))
        X[:15] += 1.5
        y = ["a"] * 15 + ["b"] * 15
        s1 = interpret.bootstrap_weight_sd(X, y, LRConfig(), 15, seed=0)
        s2 = interpret.bootstrap_weight_sd(X, y, LRConfig(), 15, seed=0)
        assert s1.shape == (2, 3)
        assert np.array_equal(s1, s2)
        assert (s1 > 0).all()

    def test_absent_class_sd_over_resamples_that_hold_it(self, caplog):
        # "c" has one row of 13, so about a third of the resamples miss it
        rng = np.random.default_rng(4)
        X = rng.normal(size=(13, 3))
        X[:6] += 1.0
        y = ["a"] * 6 + ["b"] * 6 + ["c"]
        config = LRConfig(C=2.0)
        with caplog.at_level("WARNING", logger="stylus"):
            sd = interpret.bootstrap_weight_sd(X, y, config, 12, seed=3)
        weights = {lab: [] for lab in "abc"}
        for i in range(12):
            draw = derive_rng(3, "bootstrap", i)
            while True:
                rows = draw.integers(0, 13, size=13)
                if len({y[r] for r in rows}) >= 2:
                    break
            model = classifier.fit(X[rows], [y[r] for r in rows], config)
            for lab, w in zip(model.class_labels, model.W):
                weights[lab].append(w)
        omitted = sum(12 - len(ws) for ws in weights.values())
        assert 0 < 12 - len(weights["c"]) < 12 and omitted > 0
        for j, lab in enumerate("abc"):
            assert np.allclose(sd[j], np.std(weights[lab], axis=0),
                               rtol=0, atol=1e-12)
        warnings = [r.getMessage() for r in caplog.records
                    if "bootstrap" in r.getMessage()]
        assert warnings == [f"bootstrap: {omitted} (resample, class) pairs "
                            "omitted, the class being absent from the "
                            "resample"]

    def test_requires_two_resamples(self):
        with pytest.raises(ValueError):
            interpret.bootstrap_weight_sd(np.zeros((4, 2)),
                                          ["a", "a", "b", "b"],
                                          LRConfig(), n_boot=1)


class TestPca:
    def test_components_match_eigendecomposition(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(40, 3)) @ np.array([[3.0, 0.5, 0.1],
                                                 [0.0, 1.0, 0.2],
                                                 [0.0, 0.0, 0.3]])
        model = interpret.pca_fit(X)
        S = interpret._preprocess(X, model.means, model.sds,
                                  model.mins, model.maxs)
        C = np.cov(S, rowvar=False)
        evals, evecs = np.linalg.eigh(C)
        order = np.argsort(evals)[::-1]
        assert np.allclose(model.explained_variance, evals[order])
        for i in range(3):
            v = evecs[:, order[i]]
            cos = abs(np.dot(v, model.components[i]))
            assert cos == pytest.approx(1.0)

    def test_components_orthonormal(self):
        rng = np.random.default_rng(11)
        model = interpret.pca_fit(rng.normal(size=(20, 4)))
        G = model.components @ model.components.T
        assert np.allclose(G, np.eye(G.shape[0]), atol=1e-10)

    def test_preprocessed_range_and_zero_variance_guard(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        model = interpret.pca_fit(X)
        S = interpret._preprocess(X, model.means, model.sds,
                                  model.mins, model.maxs)
        assert S[:, 0].min() == 0.0 and S[:, 0].max() == 1.0
        assert np.allclose(S[:, 1], 0.0)   # constant column stays put

    def test_projection_is_preprocess_then_dot(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(15, 3))
        model = interpret.pca_fit(X)
        v = rng.normal(size=3)
        S = interpret._preprocess(v[None, :], model.means, model.sds,
                                  model.mins, model.maxs)
        assert np.allclose(interpret.pca_project(model, v),
                           S @ model.components.T)

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            interpret.pca_fit(np.zeros((1, 3)))

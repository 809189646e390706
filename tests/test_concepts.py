import itertools
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from stylus import concepts, corpus
from stylus.concepts import ConceptExercise, Embedder
from stylus.corpus import (PITCH_MIN, Clip, NoteEvent, paint, paint_roll,
                           time_to_column)
from stylus.rng import derive_rng


def note(onset, pitch, offset=None, velocity=64):
    return NoteEvent(onset=onset, pitch=pitch,
                     offset=offset if offset is not None else onset + 0.2,
                     velocity=velocity)


def sum_embedder():
    return Embedder(fn=lambda roll: [float(np.asarray(roll).sum())], dim=1)


class TestInversion:
    def test_rotates_lowest_up_an_octave(self):
        assert concepts._invert((60, 64, 67), 1) == (64, 67, 72)
        assert concepts._invert((60, 64, 67), 2) == (67, 72, 76)
        assert concepts._invert((60, 64, 67), 3) == (72, 76, 79)

    def test_zero_is_identity(self):
        assert concepts._invert((60, 64, 67), 0) == (60, 64, 67)


def brute_force_variants(chords, max_shift=6, min_notes=3):
    out = []
    n_inv = max(len(ch) for ch in chords)
    for shift in range(-max_shift, max_shift + 1):
        for inv in range(n_inv):
            for rootless in (False, True):
                seq = []
                for ch in chords:
                    p = list(concepts._invert(ch, inv % len(ch)))
                    if rootless:
                        p = p[1:]
                        if len(p) < min_notes:
                            seq = None
                            break
                    p = [x + shift for x in p]
                    if any(not 21 <= x <= 108 for x in p):
                        seq = None
                        break
                    seq.append(tuple(p))
                if seq is not None:
                    out.append(tuple(seq))
    return out


class TestExerciseVariants:
    def test_four_note_chord_yields_104(self):
        e = ConceptExercise(concept_id=0, chords=((60, 64, 67, 71),))
        variants = concepts.exercise_variants(e)
        assert len(variants) == 13 * 4 * 2

    def test_triad_rootless_skipped(self):
        e = ConceptExercise(concept_id=0, chords=((60, 64, 67),))
        variants = concepts.exercise_variants(e)
        assert len(variants) == 13 * 3
        assert all(len(seq[0]) == 3 for seq in variants)

    def test_range_violations_dropped(self):
        e = ConceptExercise(concept_id=0, chords=((21, 25, 28, 31),))
        variants = concepts.exercise_variants(e)
        assert all(21 <= p <= 108 for seq in variants
                   for ch in seq for p in ch)
        assert len(variants) < 13 * 4 * 2

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            chords = tuple(
                tuple(sorted(rng.choice(range(30, 100), size=int(s),
                                        replace=False).tolist()))
                for s in rng.integers(3, 6, size=int(rng.integers(1, 4))))
            e = ConceptExercise(concept_id=0, chords=chords)
            assert concepts.exercise_variants(e) == \
                brute_force_variants(chords)


class TestRendering:
    def test_chords_rendered_through_harmony_conventions(self):
        rects = concepts.render_chord_sequence(((60, 64, 67), (62, 65, 69)))
        assert rects.dtype == corpus.RECT
        roll = paint(rects)
        # two chords: equal halves of the roll
        assert roll[60 - 21, 0:1500].all()
        assert roll[62 - 21, 1500:3000].all()
        assert set(np.unique(roll)) == {0.0, 1.0}

    def test_expand_concept_returns_rolls(self):
        e = ConceptExercise(concept_id=1, chords=((60, 64, 67),))
        rolls = concepts.expand_concept(e)
        assert len(rolls) == 39
        assert all(r.shape == (88, 3000) for r in rolls)

    def test_variant_rolls_render_each_read_like_the_eager_list(self):
        e = ConceptExercise(concept_id=2, chords=((60, 64, 67), (62, 65, 69)))
        rolls = concepts.expand_concept(e, min_chord_notes=2)
        want = [paint(concepts.render_chord_sequence(seq, 2))
                for seq in concepts.exercise_variants(e, min_chord_notes=2)]
        assert len(rolls) == len(want)
        for got in (list(rolls), [rolls[i] for i in range(len(rolls))],
                    list(rolls[:5]) + list(rolls[5:])):
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert np.array_equal(rolls[-1], want[-1])
        assert rolls[0] is not rolls[0]     # rendered on each read


class TestCav:
    def test_direction_separates_synthetic_clusters(self):
        rng = np.random.default_rng(1)
        direction = rng.normal(size=8)
        direction /= np.linalg.norm(direction)
        pos = rng.normal(size=(30, 8)) + 3 * direction
        neg = rng.normal(size=(30, 8)) - 3 * direction
        cav = concepts.train_cav(pos, neg)
        cos = np.dot(cav.y, direction) / np.linalg.norm(cav.y)
        assert cos > 0.9

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            concepts.train_cav(np.zeros((3, 4)), np.zeros((3, 5)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concepts.train_cav(np.zeros((0, 4)), np.zeros((3, 4)))

    def test_score_is_linear(self):
        cav = concepts.ConceptVector(y=np.ones(1))
        roll = np.zeros((88, 3000))
        roll[40, :100] = 1.0
        assert concepts.concept_score(roll, sum_embedder(), cav) == 100.0


class TestSignCountRatio:
    def test_strictly_positive_fraction(self):
        assert concepts.sign_count_ratio([1.0, -1.0, 0.5, 2.0]) == 0.75

    def test_zero_counts_as_non_positive(self):
        assert concepts.sign_count_ratio([0.0, 1.0]) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            concepts.sign_count_ratio([])


def brute_force_wilcoxon(a, b):
    diffs = [x - y for x, y in zip(a, b)]
    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    if n == 0:
        return Fraction(1)
    mags = sorted(abs(d) for d in diffs)
    rank2 = {}
    i = 0
    while i < n:
        j = i
        while j < n and mags[j] == mags[i]:
            j += 1
        for k in range(i, j):
            rank2[mags[k]] = (i + 1) + j
        i = j
    ranks2 = [rank2[abs(d)] for d in diffs]
    w_obs = sum(r for r, d in zip(ranks2, diffs) if d > 0)
    ge = le = 0
    for signs in itertools.product((0, 1), repeat=n):
        w = sum(r for r, s in zip(ranks2, signs) if s)
        ge += w >= w_obs
        le += w <= w_obs
    denom = 2 ** n
    return min(Fraction(1),
               2 * min(Fraction(le, denom), Fraction(ge, denom)))


class TestWilcoxon:
    def test_documented_three_pair_case(self):
        p = concepts.wilcoxon_exact_p([2.0, 3.0, 4.0], [1.0, 1.0, 1.0])
        assert p == Fraction(1, 4)

    def test_matches_enumeration_with_ties_and_zeros(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 9))
            a = rng.integers(0, 5, size=n).astype(float)
            b = rng.integers(0, 5, size=n).astype(float)
            assert concepts.wilcoxon_exact_p(a, b) == \
                brute_force_wilcoxon(a, b)

    def test_matches_scipy_exact_no_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = 10
            d = rng.normal(size=n)   # continuous: no ties, no zeros
            a = d
            b = np.zeros(n)
            want = stats.wilcoxon(a, b, mode="exact").pvalue
            assert float(concepts.wilcoxon_exact_p(a, b)) == \
                pytest.approx(want)

    def test_all_zero_diffs_warns_p_one(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="stylus"):
            p = concepts.wilcoxon_exact_p([1.0, 2.0], [1.0, 2.0])
        assert p == Fraction(1)
        assert any("zero" in r.message for r in caplog.records)

    def test_large_n_uses_normal_approximation(self):
        rng = np.random.default_rng(4)
        d = rng.normal(loc=0.3, size=60)
        p = concepts.wilcoxon_signed_rank(d, np.zeros(60))
        want = stats.wilcoxon(d, np.zeros(60),
                              mode="approx", correction=False).pvalue
        assert p == pytest.approx(want, rel=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            concepts.wilcoxon_signed_rank([1.0], [1.0, 2.0])


class TestBonferroni:
    def test_scale_and_cap(self):
        assert concepts.bonferroni(0.01, 20) == pytest.approx(0.2)
        assert concepts.bonferroni(0.2, 20) == 1.0
        assert np.allclose(concepts.bonferroni([0.001, 0.5], 4),
                           [0.004, 1.0])

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            concepts.bonferroni(0.5, 0)


class TestMaskedSensitivity:
    def _clip(self):
        return Clip(parent_id="r", performer="p", start=0.0,
                    notes=(note(10.0, 60, offset=11.0),))

    def test_heat_over_note_region_positive(self):
        heat = concepts.masked_sensitivity(self._clip(), sum_embedder(),
                                           concepts.ConceptVector(y=np.ones(1)))
        assert heat.shape == (88, 3000)
        # kernel positions covering the note remove all mass: ratio 1
        assert heat[30, 1000] == pytest.approx(1.0)
        assert heat[10, 200] == 0.0
        assert heat.min() >= 0.0

    def test_zero_score_rejected(self):
        cav = concepts.ConceptVector(y=np.zeros(1))
        with pytest.raises(ValueError):
            concepts.masked_sensitivity(self._clip(), sum_embedder(), cav)

    def test_empty_clip_rejected(self):
        c = Clip(parent_id="r", performer="p", start=0.0, notes=())
        with pytest.raises(ValueError):
            concepts.masked_sensitivity(c, sum_embedder(),
                                        concepts.ConceptVector(y=np.ones(1)))


def reference_interp_grid(values, row_centres, col_centres, height, width):
    """One np.interp per grid row, then one per image column."""
    cols = np.arange(width, dtype=float)
    rows = np.arange(height, dtype=float)
    by_row = np.vstack([np.interp(cols, col_centres, values[i])
                        for i in range(values.shape[0])])
    out = np.empty((height, width))
    for j in range(width):
        out[:, j] = np.interp(rows, row_centres, by_row[:, j])
    return out


def reference_sensitivity(clip, embedder, cav, kernel, stride):
    """Repaint and re-embed at every kernel position that removes a note.

    Returns the heat map and the number of distinct non-empty removed note
    sets.
    """
    notes = clip.notes
    max_velocity = max(n.velocity for n in notes)
    s0 = concepts.concept_score(paint(paint_roll(notes, max_velocity)),
                                embedder, cav)
    (kh, kw), (sh, sw) = kernel, stride
    row_starts = list(range(0, 88 - kh + 1, sh))
    col_starts = list(range(0, 3000 - kw + 1, sw))
    values = np.zeros((len(row_starts), len(col_starts)))
    removed_sets = set()
    for ri, r0 in enumerate(row_starts):
        for ci, c0 in enumerate(col_starts):
            keep, removed = [], []
            for i, n in enumerate(notes):
                in_time = c0 <= time_to_column(n.onset) < c0 + kw
                in_pitch = r0 <= n.pitch - PITCH_MIN < r0 + kh
                if in_time and in_pitch:
                    removed.append(i)
                else:
                    keep.append(n)
            if not removed:
                continue
            removed_sets.add(tuple(removed))
            s1 = concepts.concept_score(paint(paint_roll(keep, max_velocity)),
                                        embedder, cav)
            values[ri, ci] = (s0 - s1) / s0
    heat = reference_interp_grid(
        values, np.array(row_starts, dtype=float) + (kh - 1) / 2,
        np.array(col_starts, dtype=float) + (kw - 1) / 2, 88, 3000)
    return heat, len(removed_sets)


def squared_pool_embedder(calls):
    """Squared 8x8 pooled sums: deterministic and not linear in the roll.
    Appends to ``calls`` on every call."""
    def fn(roll):
        calls.append(1)
        pooled = np.asarray(roll, dtype=float).reshape(8, 11, 8, 375)
        return pooled.sum(axis=(1, 3)).ravel() ** 2
    return Embedder(fn=fn, dim=64)


pitches = st.integers(21, 108)
velocities = st.integers(1, 127)
# kernel edges in time fall on multiples of 50 columns
columns = st.one_of(st.integers(0, 2999),
                    st.builds(lambda k, d: max(50 * k + d, 0),
                              st.integers(0, 59), st.integers(-1, 1)))


@st.composite
def sensitivity_clips(draw):
    """Notes anywhere on the roll and on kernel edges, optionally with a
    duplicate (onset, pitch) of the first note, a second note in its column
    and a note at 29.99 s whose offset runs past the clip end."""
    notes = [note(col / 100, pitch, offset=(col + dur) / 100, velocity=vel)
             for col, pitch, dur, vel in draw(st.lists(
                 st.tuples(columns, pitches, st.integers(1, 400), velocities),
                 min_size=1, max_size=10))]
    first = notes[0]
    if draw(st.booleans()):
        notes.append(note(first.onset, first.pitch, offset=first.offset + 1,
                          velocity=draw(velocities)))
    if draw(st.booleans()):
        notes.append(note(first.onset, draw(pitches),
                          velocity=draw(velocities)))
    if draw(st.booleans()):
        notes.append(note(29.99, draw(pitches), offset=30.5,
                          velocity=draw(velocities)))
    return Clip(parent_id="r", performer="p", start=0.0, notes=tuple(notes))


class TestSensitivityOracle:
    CAV = concepts.ConceptVector(y=np.random.default_rng(0).normal(size=64))

    @settings(max_examples=60, deadline=None)
    @given(clip=sensitivity_clips(),
           kernel=st.sampled_from([(24, 250), (88, 250), (24, 3000),
                                   (88, 3000), (7, 600)]),
           stride=st.sampled_from([(2, 200), (5, 450)]))
    def test_equals_per_position_loop(self, clip, kernel, stride):
        ref_calls, calls = [], []
        want, n_sets = reference_sensitivity(
            clip, squared_pool_embedder(ref_calls), self.CAV, kernel, stride)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(concepts, "MASK_KERNEL", kernel)
            mp.setattr(concepts, "MASK_STRIDE", stride)
            got = concepts.masked_sensitivity(
                clip, squared_pool_embedder(calls), self.CAV)
        assert np.array_equal(got, want)
        assert len(calls) == 1 + n_sets


class TestInterpGridOracle:
    @settings(max_examples=60, deadline=None)
    @example(n_rows=1, n_cols=5, seed=0)
    @example(n_rows=5, n_cols=1, seed=1)
    @example(n_rows=1, n_cols=1, seed=2)
    @given(n_rows=st.integers(1, 8), n_cols=st.integers(1, 8),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_per_column_interp(self, n_rows, n_cols, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(n_rows, n_cols))
        values[rng.random(values.shape) < 0.3] = 0.0
        # centres on a half-pixel grid hit pixels exactly or fall between
        # them, and may lie beyond either edge
        row_centres = np.sort(rng.choice(np.arange(-4, 2 * 88 + 4) / 2,
                                         n_rows, replace=False))
        col_centres = np.sort(rng.choice(np.arange(-4, 2 * 3000 + 4) / 2,
                                         n_cols, replace=False))
        got = concepts._interp_grid(values, row_centres, col_centres)
        want = reference_interp_grid(values, row_centres, col_centres,
                                     88, 3000)
        assert np.array_equal(got, want)

    def test_equals_per_column_interp_on_mask_grid(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(33, 14))
        values[rng.random(values.shape) < 0.5] = 0.0
        rows = np.arange(0, 65, 2) + 11.5
        cols = np.arange(0, 2751, 200) + 124.5
        assert np.array_equal(concepts._interp_grid(values, rows, cols),
                              reference_interp_grid(values, rows, cols,
                                                    88, 3000))

    def test_mask_grid_traced_peak_below_4_mb(self):
        # the 88x3000 float64 map is 2.1 MB and the column pass 0.8 MB;
        # full-size temporaries (gathers, slopes, products) peaked at 7.5 MB
        values = np.random.default_rng(4).normal(size=(33, 14))
        rows = np.arange(0, 65, 2) + 11.5
        cols = np.arange(0, 2751, 200) + 124.5
        tracemalloc.start()
        try:
            concepts._interp_grid(values, rows, cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6


def reference_upgma(D):
    """Straightforward average-linkage reference on a distance matrix."""
    n = D.shape[0]
    active = {i: [i] for i in range(n)}
    dist = {(i, j): D[i, j] for i in range(n) for j in range(i + 1, n)}
    merges = []
    nid = n
    while len(active) > 1:
        best = min(dist, key=lambda k: (dist[k],
                                        min(min(active[k[0]]),
                                            min(active[k[1]])),
                                        max(min(active[k[0]]),
                                            min(active[k[1]]))))
        a, b = best
        h = dist[best]
        for k in list(active):
            if k in (a, b):
                continue
            da = dist[tuple(sorted((a, k)))]
            db = dist[tuple(sorted((b, k)))]
            wa, wb = len(active[a]), len(active[b])
            dist[tuple(sorted((nid, k)))] = (wa * da + wb * db) / (wa + wb)
        dist = {k: v for k, v in dist.items() if a not in k and b not in k}
        active[nid] = active.pop(a) + active.pop(b)
        merges.append((a, b, h))
        nid += 1
    return merges


class TestClustering:
    def test_hand_case(self):
        rows = np.array([[1.0, 2.0, 3.0],
                         [1.0, 2.0, 3.0],
                         [3.0, 2.0, 1.0],
                         [1.0, 3.0, 2.0]])
        d = concepts.cluster(rows, labels=("a", "b", "c", "d"))
        assert d.labels == ("a", "b", "c", "d")
        assert d.merges[0] == (0, 1, pytest.approx(0.0, abs=1e-12))
        assert d.merges[1][:2] == (3, 4)
        assert d.merges[1][2] == pytest.approx(0.5)
        assert d.merges[2][:2] == (2, 5)
        assert d.merges[2][2] == pytest.approx(5.5 / 3)

    def test_duplicate_rows_merge_first_at_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rows = rng.normal(size=(4, 6))
            rows[2] = rows[0]
            d = concepts.cluster(rows)
            assert d.merges[0][:2] == (0, 2)
            assert d.merges[0][2] == pytest.approx(0.0, abs=1e-9)

    def test_matches_reference_on_random_matrices(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            rows = rng.normal(size=(4, 8))
            D = concepts.correlation_distance(rows)
            want = reference_upgma(D)
            got = concepts.cluster(rows).merges
            assert [m[:2] for m in got] == [m[:2] for m in want]
            for g, w in zip(got, want):
                assert g[2] == pytest.approx(w[2])

    def test_zero_variance_row_rejected_by_name(self):
        rows = np.array([[1.0, 1.0, 1.0], [1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match="flatliner"):
            concepts.cluster(rows, labels=("flatliner", "ok"))

    def test_single_entity_rejected(self):
        with pytest.raises(ValueError):
            concepts.cluster(np.zeros((1, 3)))


class TestIo:
    def test_read_exercises(self, tmp_path):
        path = tmp_path / "ex.jsonl"
        path.write_text(json.dumps({"concept_id": 3,
                                    "chords": [[60, 64, 67]]}) + "\n")
        out = concepts.read_concept_exercises(path)
        assert out == [ConceptExercise(concept_id=3, chords=((60, 64, 67),))]

    def test_read_exercises_bad_line(self, tmp_path):
        path = tmp_path / "ex.jsonl"
        path.write_text('{"concept_id": 1}\n')
        with pytest.raises(ValueError, match=":1:"):
            concepts.read_concept_exercises(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                             ids=["lf", "crlf", "lone-cr"])
    def test_exercise_lines_end_at_universal_newlines(self, tmp_path,
                                                      newline):
        good = [json.dumps({"concept_id": i, "chords": [[60 + i, 64, 67]]})
                for i in range(2)]
        path = tmp_path / "ex.jsonl"
        path.write_bytes(newline.join(["", good[0], " \t", good[1], ""])
                         .encode())
        assert [e.concept_id for e in
                concepts.read_concept_exercises(path)] == [0, 1]
        path.write_bytes(newline.join([good[0], "", '{"concept_id": 2}'])
                         .encode())
        with pytest.raises(ValueError) as err:
            concepts.read_concept_exercises(path)
        assert str(err.value) == f"{path}:3: bad exercise: 'chords'"

    def test_dendrogram_json(self, tmp_path):
        d = concepts.Dendrogram(merges=((0, 1, 0.5),), labels=("a", "b"))
        path = tmp_path / "d.json"
        concepts.write_dendrogram(path, d)
        got = json.loads(path.read_text())
        assert got == {"labels": ["a", "b"], "merges": [[0, 1, 0.5]]}


class TestSignCountExperiment:
    def _setup(self):
        rng = np.random.default_rng(7)
        exercises = [ConceptExercise(concept_id=i,
                                     chords=((48 + i, 52 + i, 55 + i, 59 + i),))
                     for i in range(3)]
        variants = {e.concept_id: concepts.expand_concept(e)
                    for e in exercises}
        clips = {}
        for p in ("alice", "bob"):
            rolls = []
            for i in range(6):
                roll = np.zeros((88, 3000), dtype=np.float32)
                rows = rng.integers(0, 88, size=30)
                cols = rng.integers(0, 3000, size=30)
                roll[rows, cols] = 1.0
                rolls.append(roll)
            clips[p] = rolls
        return clips, variants

    def test_shapes_and_determinism(self):
        clips, variants = self._setup()
        emb = concepts.default_embedder()
        m1 = concepts.sign_count_experiment(clips, variants, emb,
                                            n_iter=3, seed=0)
        m2 = concepts.sign_count_experiment(clips, variants, emb,
                                            n_iter=3, seed=0)
        assert m1.performers == ("alice", "bob")
        assert m1.concepts == (0, 1, 2)
        assert m1.observed.shape == (2, 3, 3)
        assert np.array_equal(m1.observed, m2.observed)
        assert np.array_equal(m1.null, m2.null)

    def test_ratios_in_unit_interval(self):
        clips, variants = self._setup()
        m = concepts.sign_count_experiment(clips, variants,
                                           concepts.default_embedder(),
                                           n_iter=2, seed=1)
        assert ((m.observed >= 0) & (m.observed <= 1)).all()
        assert ((m.null >= 0) & (m.null <= 1)).all()

    def test_small_pool_rejected(self):
        clips, variants = self._setup()
        tiny = {0: variants[0], 1: variants[1][:10]}
        with pytest.raises(ValueError):
            concepts.sign_count_experiment(clips, tiny,
                                           concepts.default_embedder(),
                                           n_iter=1, seed=0)

    def test_generators_give_the_matrix_lists_give(self):
        clips, variants = self._setup()
        emb = concepts.default_embedder()
        want = concepts.sign_count_experiment(clips, variants, emb,
                                              n_iter=3, seed=4)
        got = concepts.sign_count_experiment(
            {p: iter(rolls) for p, rolls in clips.items()},
            {c: (roll for roll in rolls) for c, rolls in variants.items()},
            emb, n_iter=3, seed=4)
        assert (got.performers, got.concepts) == (want.performers,
                                                  want.concepts)
        assert got.observed.tobytes() == want.observed.tobytes()
        assert got.null.tobytes() == want.null.tobytes()

    def test_summary_and_io(self, tmp_path):
        clips, variants = self._setup()
        m = concepts.sign_count_experiment(clips, variants,
                                           concepts.default_embedder(),
                                           n_iter=3, seed=2)
        means, corrected = concepts.summarise_sign_counts(m, m=3)
        assert means.shape == (2, 3) and corrected.shape == (2, 3)
        assert (corrected <= 1.0).all()
        concepts.write_sign_counts(tmp_path / "sc.csv", m)
        concepts.write_tested_sign_counts(tmp_path / "sct.csv", m,
                                          means, corrected)
        assert (tmp_path / "sc.csv").read_text().count("\n") == 2 * 3 * 3 + 1


class TestDefaultEmbedder:
    def test_average_pool_values(self):
        roll = np.zeros((88, 3000))
        roll[:11, :375] = 1.0   # exactly the first pooling window
        emb = concepts.default_embedder()(roll)
        assert emb.shape == (64,)
        assert emb[0] == pytest.approx(1.0)
        assert np.allclose(emb[1:], 0.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           density=st.sampled_from([0.0, 0.01, 0.3, 1.0]),
           scale=st.sampled_from([1.0, 1 / 127, 1e-30, 3e38]),
           layout=st.sampled_from(["C", "F", "float64"]))
    def test_pool_equals_float64_copy_bit_for_bit(self, seed, density, scale,
                                                  layout):
        rng = np.random.default_rng(seed)
        roll = (rng.random((88, 3000)) * (rng.random((88, 3000)) < density)
                * scale).astype(np.float32)
        roll = {"C": roll, "F": np.asfortranarray(roll),
                "float64": roll.astype(np.float64) / 3}[layout]
        want = np.asarray(roll, dtype=float).reshape(8, 11, 8, 375) \
            .mean(axis=(1, 3)).ravel()
        got = concepts._pool_embed(roll)
        assert got.dtype == want.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    def test_dim_checked(self):
        bad = Embedder(fn=lambda roll: [1.0, 2.0], dim=3)
        with pytest.raises(ValueError):
            bad(np.zeros((88, 3000)))

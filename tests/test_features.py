import csv
import hashlib
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from stylus import features
from stylus.corpus import (PITCH_MAX, PITCH_MIN, NoteArray, NoteEvent,
                           Transcription, ValidationError)
from stylus.features import (GRID_SECONDS, KIND_HARMONY, KIND_MELODY,
                             MAX_MELODY_GAP, MAX_NGRAM_SPAN, MAX_VOICING_LEAP,
                             NGRAM_SIZES, VOICING_SIZES)


def note(onset, pitch, offset=None, velocity=64):
    return NoteEvent(onset=onset, pitch=pitch,
                     offset=offset if offset is not None else onset + 0.2,
                     velocity=velocity)


def transcription(notes):
    return Transcription("r", "p", "solo", notes=tuple(notes))


# independent reimplementation used as the extraction oracle
def brute_force_extract(notes, grid=0.1, n_values=(3, 4, 5, 6, 7)):
    frames = {}
    for n in notes:
        ms = int(round(n.onset * 1000))
        gms = int(round(grid * 1000))
        frames.setdefault((ms + gms // 2) // gms, []).append(n)
    melody = [max(ns, key=lambda n: n.pitch)
              for _, ns in sorted(frames.items())]
    ngrams = Counter()
    for size in n_values:
        for i in range(len(melody) - size + 1):
            w = melody[i:i + size]
            ps = [n.pitch for n in w]
            if max(ps) - min(ps) > 12:
                continue
            if any(w[j + 1].onset - w[j].offset > 2.0
                   for j in range(size - 1)):
                continue
            ngrams[tuple(p - ps[0] for p in ps)] += 1
    voicings = Counter()
    for _, ns in sorted(frames.items()):
        ps = sorted({n.pitch for n in ns})
        if not 3 <= len(ps) <= 7:
            continue
        if sum(b - a > 15 for a, b in zip(ps, ps[1:])) >= 2:
            continue
        voicings[tuple(p - ps[0] for p in ps)] += 1
    return ngrams, voicings


def random_transcription(rng, max_notes=20, lo=40, hi=90):
    n = int(rng.integers(1, max_notes + 1))
    notes = []
    for _ in range(n):
        onset = float(rng.uniform(0, 20))
        notes.append(note(round(onset, 3), int(rng.integers(lo, hi + 1)),
                          offset=round(onset, 3)
                          + round(float(rng.uniform(0.05, 3.0)), 3)))
    return transcription(notes)


def ngrams_of_one(melody, n_values=NGRAM_SIZES) -> Counter:
    """``extract_ngrams`` of a batch of one recording: its Counter."""
    [counts] = features.extract_ngrams(
        melody, np.zeros(len(melody), dtype=np.int64), n_values)
    return counts


def voicings_of_one(t, n_values=VOICING_SIZES) -> Counter:
    """``extract_voicings`` of a batch of one recording: its Counter."""
    [counts] = features.extract_voicings(features.quantise([t]), n_values)
    return counts


class TestQuantise:
    def test_frame_grouping_rounds_to_nearest(self):
        t = transcription([note(0.04, 60), note(0.05, 62), note(0.14, 64)])
        frames = features.quantise(t)
        # 0.04 -> frame 0; 0.05 and 0.14 round to frame 1
        assert frames.index.tolist() == [0, 1, 1]
        assert frames.starts.tolist() == [0, 1]
        assert frames.notes.pitch[frames.index == 1].tolist() == [62, 64]

    def test_tie_rounds_up(self):
        t = transcription([note(0.35, 60)])
        assert features.quantise(t).index.tolist() == [4]   # 0.4 s

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            features.quantise(transcription([note(0.0, 60)]), grid=0.0)
        with pytest.raises(ValueError):   # rounds to a 0 ms grid
            features.quantise(transcription([note(0.0, 60)]), grid=0.0004)

    @pytest.mark.parametrize("grid", [float("nan"), float("inf"),
                                      float("-inf")])
    def test_grid_not_finite_refused(self, grid):
        with pytest.raises(ValueError, match="grid must be positive and "
                                             "finite"):
            features.quantise(transcription([note(0.0, 60)]), grid=grid)


class TestSkyline:
    def test_highest_pitch_with_raw_times(self):
        t = transcription([note(0.01, 60, offset=0.5),
                           note(0.02, 72, offset=0.7), note(0.4, 65)])
        melody = features.skyline(features.quantise(t))
        assert [(m.pitch, m.onset, m.offset) for m in melody] == [
            (72, 0.02, 0.7), (65, 0.4, pytest.approx(0.6))]


class TestNgrams:
    def _melody(self, events):
        return NoteArray.from_events(note(t, p) for t, p in events)

    def test_deltas_from_first_note(self):
        m = self._melody([(0.0, 60), (0.5, 59), (1.0, 58), (1.5, 57)])
        counts = ngrams_of_one(m)
        assert counts[(0, -1, -2)] == 2
        assert counts[(0, -1, -2, -3)] == 1

    def test_span_filter(self):
        m = self._melody([(0.0, 60), (0.5, 73), (1.0, 60)])
        assert ngrams_of_one(m) == Counter()  # span 13 > 12

    def test_span_of_twelve_kept(self):
        m = self._melody([(0.0, 60), (0.5, 72), (1.0, 60)])
        assert ngrams_of_one(m)[(0, 12, 0)] == 1

    def test_gap_filter_uses_raw_times(self):
        m = NoteArray.from_events([note(0.0, 60, offset=0.2),
                                   note(2.3, 62, offset=2.5),  # 2.1 s silence
                                   note(2.6, 64, offset=2.8)])
        assert ngrams_of_one(m) == Counter()

    def test_gap_of_two_seconds_kept(self):
        m = NoteArray.from_events([note(0.0, 60, offset=0.2),
                                   note(2.2, 62, offset=2.4),
                                   note(2.5, 64, offset=2.7)])
        assert ngrams_of_one(m)[(0, 2, 4)] == 1


class TestVoicings:
    def test_offsets_above_bass(self):
        t = transcription([note(0.0, 48), note(0.0, 52), note(0.0, 55)])
        counts = voicings_of_one(t)
        assert counts[(0, 4, 7)] == 1

    def test_distinct_pitch_counting(self):
        # doubled pitch: only two distinct pitches, below minimum size
        t = transcription([note(0.0, 48), note(0.01, 48), note(0.0, 55)])
        assert voicings_of_one(t) == Counter()

    def test_size_bounds(self):
        small = transcription([note(0.0, 48), note(0.0, 52)])
        assert voicings_of_one(small) == Counter()
        big = transcription([note(0.0, 40 + 3 * i) for i in range(8)])
        assert voicings_of_one(big) == Counter()

    def test_two_large_leaps_discarded(self):
        t = transcription([note(0.0, 30), note(0.0, 46), note(0.0, 62)])
        assert voicings_of_one(t) == Counter()

    def test_one_large_leap_kept(self):
        t = transcription([note(0.0, 30), note(0.0, 46), note(0.0, 50)])
        counts = voicings_of_one(t)
        assert counts[(0, 16, 20)] == 1


class TestExtractionOracle:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            t = random_transcription(rng)
            got = features.extract_recording(t)
            ngrams, voicings = brute_force_extract(t.notes)
            want = {(features.KIND_MELODY, f): c for f, c in ngrams.items()}
            want.update({(features.KIND_HARMONY, f): c
                         for f, c in voicings.items()})
            assert got == want

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10_000), shift=st.integers(-6, 6))
    def test_transposition_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        t = random_transcription(rng)
        shifted = transcription([replace(n, pitch=n.pitch + shift)
                                 for n in t.notes])
        assert features.extract_recording(t) == \
            features.extract_recording(shifted)


@st.composite
def edge_case_notes(draw):
    """Notes that always hold the edge cases of quantisation, the skyline
    and the n-gram/voicing filters, shuffled, plus a few random notes.

    Block times are multiples of 0.25 s, so sums and differences of them
    are exact and a gap of 2.0 s is exactly 2.0.
    """
    pitch = st.integers(30, 100)
    notes = []
    t = 0.0
    # frames with 2, 3, 7 and 8 distinct pitches; one pitch doubled with
    # another offset (a duplicate (onset, pitch) pair, so the skyline's tie
    # rule picks the raw offset) and one more note 40 ms later in the frame
    for size in draw(st.permutations([2, 3, 7, 8])):
        ps = draw(st.lists(st.integers(21, 108), min_size=size,
                           max_size=size, unique=True))
        notes += [note(t, p, offset=t + 0.5) for p in ps]
        notes.append(note(t, draw(st.sampled_from(ps)),
                          offset=t + draw(st.sampled_from([0.25, 1.0, 3.0]))))
        notes.append(note(t + 0.04, draw(pitch)))
        t += draw(st.sampled_from([1.0, 2.5, 3.0]))
    # onsets on half-frame boundaries (x.x5 s), which round up a frame
    for k in range(3):
        notes.append(note(t + 0.05 + 0.1 * k, draw(pitch)))
    t += 1.0
    # runs whose pitches span exactly 12 and exactly 13 semitones
    for span in (12, 13):
        p0 = draw(st.integers(30, 80))
        inner = draw(st.lists(st.integers(0, span), min_size=2, max_size=4))
        for i, d in enumerate(draw(st.permutations([0, span] + inner))):
            notes.append(note(t + 0.25 * i, p0 + d))
        t += 3.0
    # silences of exactly 2.0 s (kept) and 2.25 s (dropped)
    for gap in (2.0, 2.25):
        p0 = draw(st.integers(40, 80))
        notes.append(note(t, p0, offset=t + 0.5))
        notes.append(note(t + 0.5 + gap, p0 + 2, offset=t + 0.75 + gap))
        notes.append(note(t + 1.0 + gap, p0 + 4, offset=t + 1.25 + gap))
        t += 5.0
    for _ in range(draw(st.integers(0, 12))):
        onset = draw(st.integers(0, int(t * 1000))) / 1000
        notes.append(note(onset, draw(pitch), offset=onset
                          + draw(st.integers(50, 3000)) / 1000))
    return draw(st.permutations(notes))


class TestColumnarOracle:
    @settings(max_examples=150, deadline=None)
    @given(notes=edge_case_notes())
    def test_extract_recording_matches_brute_force(self, notes):
        t = transcription(notes)
        # the stable column sort gives Python's (onset, pitch) order
        assert tuple(t.notes) == tuple(
            sorted(notes, key=lambda n: (n.onset, n.pitch)))
        ngrams, voicings = brute_force_extract(t.notes)
        want = {(features.KIND_MELODY, f): c for f, c in ngrams.items()}
        want.update({(features.KIND_HARMONY, f): c
                     for f, c in voicings.items()})
        assert features.extract_recording(t) == want


# The per-recording extraction that batched extraction replaced, copied
# verbatim as an oracle: one recording at a time, no batch.
# ---------------------------------------------------------------------------
def _run_starts(values: np.ndarray) -> np.ndarray:
    """Position of the first element of each run of equal values."""
    return np.flatnonzero(np.diff(values, prepend=values[:1] - 1))


@dataclass(frozen=True, eq=False)
class Frames:
    """Notes grouped by quantised onset.

    ``notes`` keeps (onset, pitch) order and the frame index is monotone in
    the onset, so each frame is one contiguous run; ``index[i]`` is the
    frame of note ``i``.
    """
    notes: NoteArray
    index: np.ndarray
    grid: float

    @property
    def starts(self) -> np.ndarray:
        """Position of each frame's first note."""
        return _run_starts(self.index)

    @property
    def time(self) -> np.ndarray:
        """Grid time of each frame."""
        return self.index[self.starts] * self.grid


def quantise(t, grid: float = GRID_SECONDS) -> Frames:
    """Group the notes of ``t`` (a Transcription or a Clip) into frames by
    snapping onsets to the nearest grid point, in integer milliseconds:
    frame = (rint(onset * 1000) + g // 2) // g with g the grid in ms. Both
    the feature and the clip path group notes here."""
    if grid <= 0:
        raise ValueError("grid must be positive")
    grid_ms = int(round(grid * 1000))
    if grid_ms == 0:
        raise ValueError("grid must be at least 1 ms")
    ms = np.rint(t.notes.onset * 1000).astype(np.int64)
    return Frames(notes=t.notes, index=(ms + grid_ms // 2) // grid_ms,
                  grid=grid)


def skyline(frames: Frames) -> NoteArray:
    """One melody note per frame: the highest pitch, raw times preserved.

    Of equal highest pitches the first in (onset, pitch) order wins.
    """
    # stable: by frame, then pitch descending, then original position
    order = np.lexsort((-frames.notes.pitch, frames.index))
    return frames.notes[order[frames.starts]]


def _count_rows(rows: np.ndarray, base: int, lo: int) -> Counter:
    """Count the distinct rows of a small-integer matrix with values in
    [lo, lo + base), as tuples of Python ints."""
    if rows.shape[0] == 0:
        return Counter()
    powers = base ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
    codes, counts = np.unique((rows - lo) @ powers, return_counts=True)
    digits = codes[:, None] // powers % base + lo
    return Counter(dict(zip(map(tuple, digits.tolist()), counts.tolist())))


def extract_ngrams(melody: NoteArray, n_values=NGRAM_SIZES) -> Counter:
    """Count transposition-invariant n-grams over the melody.

    Windows spanning more than 12 semitones, or containing a silence longer
    than 2 s between successive notes (pre-quantisation times), are skipped.
    """
    pitch = melody.pitch
    gap = melody.onset[1:] - melody.offset[:-1] > MAX_MELODY_GAP
    gaps_before = np.concatenate(([0], np.cumsum(gap)))  # gaps in [0, i)
    counts: Counter = Counter()
    for n in n_values:
        if pitch.size < n:
            continue
        windows = sliding_window_view(pitch, n)
        span = windows.max(axis=1) - windows.min(axis=1)
        no_gap = gaps_before[n - 1:] == gaps_before[:windows.shape[0]]
        kept = windows[(span <= MAX_NGRAM_SPAN) & no_gap]
        counts.update(_count_rows(kept - kept[:, :1], 2 * MAX_NGRAM_SPAN + 1,
                                  -MAX_NGRAM_SPAN))
    return counts


def frame_pitches(frames: Frames):
    """The distinct pitches of each frame, ascending, frame after frame, as
    (pitch, starts, sizes): frame k's pitches are
    ``pitch[starts[k]:starts[k] + sizes[k]]``."""
    # distinct (frame, pitch) pairs, by frame then pitch
    pairs = np.unique(frames.index * (PITCH_MAX + 1) + frames.notes.pitch)
    frame, pitch = np.divmod(pairs, PITCH_MAX + 1)
    starts = _run_starts(frame)
    return pitch, starts, np.diff(starts, append=frame.size)


def extract_voicings(frames: Frames, n_values=VOICING_SIZES) -> Counter:
    """Count chord voicings as semitone offsets above the lowest note.

    Frame size counts distinct pitches; frames with two or more adjacent
    gaps above 15 semitones are discarded as transcription errors.
    """
    pitch, starts, sizes = frame_pitches(frames)
    counts: Counter = Counter()
    for n in set(n_values):
        chords = pitch[starts[sizes == n, None] + np.arange(n)]
        leaps = (np.diff(chords, axis=1) > MAX_VOICING_LEAP).sum(axis=1)
        kept = chords[leaps < 2]
        counts.update(_count_rows(kept - kept[:, :1],
                                  PITCH_MAX - PITCH_MIN + 1, 0))
    return counts


def extract_recording(t: Transcription, grid: float = GRID_SECONDS,
                      n_values=NGRAM_SIZES) -> dict:
    """Per-recording feature counts keyed by (kind, feature tuple)."""
    frames = quantise(t, grid)
    melody = skyline(frames)
    out = {}
    for feat, c in extract_ngrams(melody, n_values).items():
        out[(KIND_MELODY, feat)] = c
    for feat, c in extract_voicings(frames, n_values).items():
        out[(KIND_HARMONY, feat)] = c
    return out
# ---------------------------------------------------------------------------


def _drawn_recording(draw, start, count, pitch, chord=False):
    """``count`` notes from ``start`` s: at one onset, or spread over 5 s."""
    onsets = ([0] * count if chord else
              draw(st.lists(st.integers(0, 5000), min_size=count,
                            max_size=count)))
    return [note(start + ms / 1000, draw(pitch), offset=start
                 + (ms + draw(st.integers(50, 2500))) / 1000)
            for ms in onsets]


@st.composite
def recording_batches(draw):
    """Recordings for batches, each always holding: recordings of one or
    two notes (fewer than most sizes), a single-frame recording, a recording
    starting within 2 s of the previous one's last offset, and one whose
    onsets lie past 10^4 s, shuffled, plus a few random ones.

    Melody pitches lie within a 12-semitone span, so a window that crossed
    a recording boundary would pass the span filter.
    """
    melodic = st.integers(55, 67)
    groups = [[_drawn_recording(draw, 0.0, draw(st.integers(1, 2)),
                                melodic)] for _ in range(2)]
    groups.append([_drawn_recording(draw, draw(st.sampled_from([0.0, 0.35])),
                                    draw(st.integers(1, 9)),
                                    st.integers(PITCH_MIN, PITCH_MAX),
                                    chord=True)])
    # the second starts at most 1 s in, the first ends at least 1 s in
    groups.append([_drawn_recording(draw, 1.0, draw(st.integers(3, 12)),
                                    melodic),
                   _drawn_recording(draw, draw(st.sampled_from([0.0, 1.0])),
                                    draw(st.integers(3, 12)), melodic)])
    # notes end at most 7.5 s after the start: within a recording's day
    groups.append([_drawn_recording(
        draw, draw(st.sampled_from([10_000.0, 86_391.789])),
        draw(st.integers(1, 20)), melodic)])
    for _ in range(draw(st.integers(0, 3))):
        groups.append([_drawn_recording(draw, 0.0, draw(st.integers(1, 30)),
                                        st.integers(30, 100))])
    return [Transcription(f"r{i}", "p", "solo", notes=tuple(notes))
            for i, notes in enumerate(
                r for g in draw(st.permutations(groups)) for r in g)]


class TestBatchOracle:
    @settings(max_examples=120, deadline=None)
    @given(recordings=recording_batches(),
           bound=st.integers(1, 80),
           grid=st.sampled_from([0.1, 0.05, 0.25]),
           n_values=st.sampled_from([NGRAM_SIZES, (1, 2), (8, 9, 10)])
           | st.sets(st.integers(1, features.MAX_FEATURE_SIZE), min_size=1,
                     max_size=4).map(sorted).map(tuple))
    def test_every_recording_matches_the_per_recording_reference(
            self, recordings, bound, grid, n_values):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(features, "EXTRACT_BATCH_NOTES", bound)
            got = list(features.extract_recordings(iter(recordings), grid,
                                                   n_values))
        assert got == [(t.recording_id, extract_recording(t, grid, n_values))
                       for t in recordings]

    def test_frame_times_are_each_recordings_own(self):
        a = transcription([note(0.0, 60), note(0.44, 62), note(5.0, 64)])
        b = transcription([note(0.06, 60), note(0.3, 62)])
        frames = features.quantise([a, b])
        # each recording's frames are its own, moved past the one before
        for r, t in enumerate((a, b)):
            own = features.quantise(t).index
            moved = frames.index[frames.recording == r]
            assert np.array_equal(moved - moved[0], own - own[0])
        assert frames.index.tolist() == [0, 4, 50, 51, 53]
        assert frames.recording.tolist() == [0, 0, 0, 1, 1]

    def test_equal_keys_are_one_object_across_batches(self, monkeypatch):
        rng = np.random.default_rng(3)
        recordings = [random_transcription(rng, 30, 55, 67)
                      for _ in range(4)] * 2
        monkeypatch.setattr(features, "EXTRACT_BATCH_NOTES", 1)
        got = list(features.extract_recordings(iter(recordings)))
        assert got == [(t.recording_id, extract_recording(t))
                       for t in recordings]
        first = {}
        for _, feats in got:
            for key in feats:
                assert first.setdefault(key, key) is key
        # each recording, its own batch, occurs twice: every key recurs
        assert 2 * len(first) <= sum(len(feats) for _, feats in got)


class TestFeatureSizeLimit:
    def test_melody_codes_past_the_limit_refused(self):
        # at size 14 the int64 code overflowed into (-12, 3, -12, 9, ...)
        m = NoteArray.from_events(note(0.5 * i, 60 + 12 * (i % 2))
                                  for i in range(14))
        with pytest.raises(ValueError, match=r"\[1, 10\], got \[11, 14\]"):
            ngrams_of_one(m, n_values=(14, 11))
        assert ngrams_of_one(m, n_values=(10,)) == {
            (0, 12) * 5: 3, (0, -12) * 5: 2}

    def test_voicing_codes_past_the_limit_refused(self):
        pitches = [21, 36, 51, 66, 81, 96, 97, 98, 99, 108]
        frames = features.quantise([transcription(note(0.0, p)
                                                  for p in pitches)])
        assert features.extract_voicings(frames, n_values=(10,)) == [{
            tuple(p - 21 for p in pitches): 1}]
        for sizes in [(11,), (0, 3)]:
            with pytest.raises(ValueError, match="feature sizes"):
                features.extract_voicings(frames, n_values=sizes)


class TestVocabulary:
    def _counts(self, rows):
        return [{k: 1 for k in row} for row in rows]

    def test_df_bounds_inclusive(self):
        m = ("melody", (0, 1, 2))
        h = ("harmony", (0, 4, 7))
        rare = ("melody", (0, 2, 4))
        rows = [[m, h]] * 3 + [[m]] * 1 + [[rare]]
        vocab = features.build_vocabulary(self._counts(rows),
                                          min_df=3, max_df=4)
        assert vocab.features == (m, h)
        assert vocab.document_frequency == (4, 3)

    def test_melody_first_then_lexicographic(self):
        rows = [[("harmony", (0, 3, 7)), ("melody", (0, 5, 3)),
                 ("harmony", (0, 4, 7)), ("melody", (0, 1, 2))]] * 2
        vocab = features.build_vocabulary(self._counts(rows),
                                          min_df=1, max_df=10)
        assert vocab.features == (("melody", (0, 1, 2)),
                                  ("melody", (0, 5, 3)),
                                  ("harmony", (0, 3, 7)),
                                  ("harmony", (0, 4, 7)))

    def test_columns_of_kind(self):
        rows = [[("harmony", (0, 4, 7)), ("melody", (0, 1, 2))]] * 2
        vocab = features.build_vocabulary(self._counts(rows), 1, 10)
        assert list(vocab.columns_of_kind("melody")) == [0]
        assert list(vocab.columns_of_kind("harmony")) == [1]

    def test_empty_vocabulary_warns(self, caplog):
        import logging
        with caplog.at_level(logging.WARNING, logger="stylus"):
            vocab = features.build_vocabulary(self._counts([[("melody", (0,))]]),
                                              min_df=5, max_df=10)
        assert len(vocab) == 0
        assert any("empty" in r.message for r in caplog.records)

    def test_round_trip(self, tmp_path):
        rows = [[("melody", (0, 1, 2)), ("harmony", (0, 4, 7))]] * 2
        vocab = features.build_vocabulary(self._counts(rows), 1, 10)
        path = tmp_path / "vocab.csv"
        features.write_vocabulary(path, vocab)
        assert features.read_vocabulary(path) == vocab


class TestMatrixAndTfidf:
    def test_count_matrix(self):
        vocab = features.FeatureVocabulary(
            features=(("melody", (0, 1)), ("harmony", (0, 4, 7))),
            document_frequency=(2, 2))
        counts = [{("melody", (0, 1)): 3},
                  {("harmony", (0, 4, 7)): 2, ("melody", (0, 9)): 5}]
        X = features.count_matrix(counts, vocab)
        assert np.array_equal(X, [[3, 0], [0, 2]])   # unknown feature dropped

    @staticmethod
    def _reference_count_matrix(per_recording_counts, vocab):
        # one item assignment per (recording, feature) pair
        index = vocab.index
        X = np.zeros((len(per_recording_counts), len(vocab)))
        for i, counts in enumerate(per_recording_counts):
            for feat, c in counts.items():
                j = index.get(feat)
                if j is not None:
                    X[i, j] = c
        return X

    FEATS = [(kind, tuple(range(start, start + size)))
             for kind in ("melody", "harmony") for start in range(3)
             for size in (2, 3)]

    @settings(max_examples=200, deadline=None)
    @given(in_vocab=st.lists(st.sampled_from(FEATS), unique=True),
           counts=st.lists(st.dictionaries(
               st.sampled_from(FEATS),
               st.integers(0, 2 ** 40) | st.floats(0, 1e6)), max_size=6))
    def test_count_matrix_equals_per_item_loop(self, in_vocab, counts):
        # recordings may be empty or hold features outside the vocabulary
        vocab = features.FeatureVocabulary(
            features=tuple(in_vocab), document_frequency=(1,) * len(in_vocab))
        X = features.count_matrix(counts, vocab)
        want = self._reference_count_matrix(counts, vocab)
        assert X.dtype == want.dtype and X.shape == want.shape
        assert X.tobytes() == want.tobytes()

    def test_tfidf_formula(self):
        counts = np.array([[2.0, 0.0], [1.0, 1.0], [3.0, 0.0]])
        X = features.tfidf(counts)
        idf = np.log((1 + 3) / (1 + np.array([3.0, 1.0]))) + 1
        raw = counts * idf
        want = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        assert np.allclose(X, want)

    def test_rows_unit_norm_and_zero_rows_kept(self):
        X = features.tfidf(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert np.linalg.norm(X[0]) == pytest.approx(1.0)
        assert np.array_equal(X[1], [0.0, 0.0])

    def test_feature_counts_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        counts = [features.extract_recording(random_transcription(rng))
                  for _ in range(5)]
        rids = [f"r{i}" for i in range(5)]
        path = tmp_path / "features.csv"
        write_dump_and_table(path, rids, counts)
        got = features.read_feature_counts(path)
        assert got.recording_ids == tuple(rids)
        assert table_to_dicts(got) == counts

    def test_feature_string_round_trip(self):
        assert features.parse_feature_string(
            features.feature_string((0, -3, 12))) == (0, -3, 12)


# reference reader and writer: the row-at-a-time versions the feature dump
# is checked against
def dictreader_feature_counts(path):
    order, by_rid = [], {}
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            rid = row["recording_id"]
            if rid not in by_rid:
                order.append(rid)
                by_rid[rid] = {}
            if not row["feature_kind"]:
                continue
            feat = tuple(int(v) for v in row["feature_string"].split(","))
            by_rid[rid][(row["feature_kind"], feat)] = int(row["count"])
    return order, [by_rid[r] for r in order]


def table_to_dicts(table):
    """Each recording's counts in a FeatureTable, keyed by (kind, feature
    tuple), as ``dictreader_feature_counts`` returns them."""
    out = [{} for _ in table.recording_ids]
    for r, k, c in zip(table.row.tolist(), table.key.tolist(),
                       table.count.tolist()):
        out[r][table.keys[k]] = c
    return out


def reference_write_feature_counts(path, recording_ids, per_recording_counts):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["recording_id", "feature_kind", "feature_string",
                         "count"])
        for rid, counts in zip(recording_ids, per_recording_counts):
            if not counts:
                writer.writerow([rid, "", "", 0])
            for (kind, feat), c in sorted(counts.items()):
                writer.writerow([rid, kind, ",".join(str(v) for v in feat), c])


def write_dump_and_table(path, rids, counts):
    """A feature dump, the vocabulary of its every feature and the table
    ``extract`` writes beside them, keyed by both."""
    table = features.FeatureTable.from_dicts(rids, counts)
    features.write_feature_counts(path, table)
    features.write_vocabulary(path.with_name("vocabulary.csv"),
                              features.build_vocabulary(counts, 1, 10 ** 6))
    features.write_feature_table(path, table)


KINDS = st.sampled_from([features.KIND_MELODY, features.KIND_HARMONY])
FEATS = st.lists(st.integers(-24, 24), min_size=1, max_size=7).map(tuple)


class TestFeatureDumpIO:
    @settings(max_examples=100, deadline=None)
    @given(counts=st.lists(st.dictionaries(st.tuples(KINDS, FEATS),
                                           st.integers(1, 99), max_size=8),
                           max_size=6))
    def test_write_read_round_trip_and_reference_bytes(self, tmp_path_factory,
                                                       counts):
        rids = [f"r{i}" for i in range(len(counts))]
        root = tmp_path_factory.mktemp("dump")
        write_dump_and_table(root / "features.csv", rids, counts)
        reference_write_feature_counts(root / "reference.csv", rids, counts)
        assert ((root / "features.csv").read_bytes()
                == (root / "reference.csv").read_bytes())
        got = features.read_feature_counts(root / "features.csv")
        assert got.recording_ids == tuple(rids)
        assert table_to_dicts(got) == counts

    @pytest.mark.parametrize("reader, text, where, what", [
        (features.read_vocabulary,
         "index,kind,feature_string\n0,melody,0\n",
         1, "document_frequency"),
        (features.read_vocabulary,
         "index,kind,feature_string,document_frequency\n"
         '0,melody,"0,1",3\n1,melody\n', 3, "too few fields"),
        (features.read_vocabulary,
         "index,kind,feature_string,document_frequency\n"
         "0,melody,0,1.5\n", 2, "'1.5'"),
        (features.read_vocabulary,
         "index,kind,feature_string,document_frequency\n"
         '0,melody,"0,1",3\n1,rhythm,"0,2",3\n', 3, "unknown kind 'rhythm'"),
        (features.read_vocabulary,
         "index,kind,feature_string,document_frequency\n"
         '0,melody,"0,1",3\n1,harmony,"0,1",3\n2,melody,"0,1",4\n', 4,
         "melody feature '0,1' repeated"),
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, reader, text,
                                                where, what):
        path = tmp_path / "dump.csv"
        path.write_text(text)
        with pytest.raises(ValidationError) as info:
            reader(path)
        assert str(info.value).startswith(f"{path}:{where}: ")
        assert what in str(info.value)


class TestFeatureTable:
    """The table ``extract`` writes holds the counts of the dump beside it,
    and is read only for the bytes it was written from."""

    # recording ids are distinct, as a manifest's are
    @settings(max_examples=100, deadline=None)
    @given(recordings=st.lists(
        st.tuples(st.sampled_from(["r0", "r1", "r2", "r3", "r4", "r5"]),
                  st.dictionaries(st.tuples(KINDS, FEATS),
                                  st.integers(0, 99), max_size=8)),
        max_size=6, unique_by=lambda r: r[0]), in_vocab=st.integers(1, 3))
    def test_table_holds_the_counts_the_dump_parses_to(
            self, tmp_path_factory, recordings, in_vocab):
        rids = [rid for rid, _ in recordings]
        counts = [c for _, c in recordings]
        path = tmp_path_factory.mktemp("dump") / "features.csv"
        write_dump_and_table(path, rids, counts)
        got = features.read_feature_counts(path)
        order, want = dictreader_feature_counts(path)
        assert got.recording_ids == tuple(order)
        assert table_to_dicts(got) == want
        # every in_vocab-th key, so some features fall outside
        vocab = features.FeatureVocabulary(
            tuple(sorted(set(got.keys))[::in_vocab]), ())
        X = features.count_matrix(got, vocab)
        assert X.tobytes() == features.count_matrix(want, vocab).tobytes()

    def test_key_is_the_dump_then_the_vocabulary(self, tmp_path):
        """The table is keyed by the SHA-256 of features.csv's bytes and
        then vocabulary.csv's, so an edited vocabulary is refused."""
        path = tmp_path / "features.csv"
        write_dump_and_table(path, ["r0", "r1"], [
            {(KIND_MELODY, (0, 2)): 1}, {(KIND_MELODY, (0, 4)): 2}])
        vocab = path.with_name("vocabulary.csv")
        key = hashlib.sha256(path.read_bytes() + vocab.read_bytes()).digest()
        assert key in path.with_suffix(".table").read_bytes()
        assert features.read_feature_counts(path).recording_ids == ("r0",
                                                                     "r1")
        vocab.write_text(vocab.read_text().replace(",1\n", ",2\n", 1))
        with pytest.raises(ValidationError, match=(
                r"was not written from \S*features\.csv and "
                r"\S*vocabulary\.csv;")):
            features.read_feature_counts(path)

    def test_repeated_recording_id_refused(self):
        with pytest.raises(ValueError, match="recording ids repeat"):
            features.FeatureTable.from_dicts(
                ["r0", "r1", "r0"], [{(KIND_MELODY, (0, 2)): 1}, {}, {}])

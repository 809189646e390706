"""Melodic n-gram and chord-voicing extraction, vocabulary and TF-IDF."""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .corpus import (PITCH_MAX, PITCH_MIN, NoteArray, Transcription,
                     open_table, write_table)

log = logging.getLogger("stylus")

GRID_SECONDS = 0.1
NGRAM_SIZES = (3, 4, 5, 6, 7)
VOICING_SIZES = (3, 4, 5, 6, 7)
MAX_NGRAM_SPAN = 12      # semitones
MAX_MELODY_GAP = 2.0     # seconds between successive offset and onset
MAX_VOICING_LEAP = 15    # adjacent-pitch gap in semitones
MIN_DF = 10
MAX_DF = 1000

KIND_MELODY = "melody"
KIND_HARMONY = "harmony"

FEATURE_COLUMNS = ("recording_id", "feature_kind", "feature_string", "count")
VOCABULARY_COLUMNS = ("index", "kind", "feature_string", "document_frequency")


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


@dataclass(frozen=True)
class FeatureVocabulary:
    features: tuple          # (kind, feature tuple), index position = column
    document_frequency: tuple

    def __len__(self):
        return len(self.features)

    @property
    def index(self) -> dict:
        return {f: i for i, f in enumerate(self.features)}

    def columns_of_kind(self, kind: str) -> np.ndarray:
        return np.array([i for i, (k, _) in enumerate(self.features)
                         if k == kind], dtype=int)


def build_vocabulary(per_recording_counts, min_df: int = MIN_DF,
                     max_df: int = MAX_DF) -> FeatureVocabulary:
    """Retain features whose document frequency lies in [min_df, max_df].

    Ordering is melody features first, then harmony, each lexicographic.
    """
    df: Counter = Counter()
    for counts in per_recording_counts:
        df.update(set(counts))
    kept = sorted((f for f, d in df.items() if min_df <= d <= max_df),
                  key=lambda f: (f[0] != KIND_MELODY, f[1]))
    if not kept:
        log.warning("vocabulary is empty after document-frequency pruning")
    return FeatureVocabulary(features=tuple(kept),
                             document_frequency=tuple(df[f] for f in kept))


def count_matrix(per_recording_counts, vocab: FeatureVocabulary) -> np.ndarray:
    """Recording x vocabulary counts; features outside the vocabulary are
    dropped. Keys map to columns in one pass and fill X in one assignment."""
    sizes = [len(counts) for counts in per_recording_counts]
    n = sum(sizes)
    cols = np.fromiter(map(vocab.index.get, chain.from_iterable(
        per_recording_counts), repeat(-1)), dtype=np.intp, count=n)
    vals = np.fromiter(chain.from_iterable(
        counts.values() for counts in per_recording_counts),
        dtype=float, count=n)
    rows = np.repeat(np.arange(len(sizes)), sizes)
    kept = cols >= 0
    X = np.zeros((len(sizes), len(vocab)))
    X[rows[kept], cols[kept]] = vals[kept]
    return X


def tfidf(counts: np.ndarray, document_frequency=None) -> np.ndarray:
    """tf * (ln((1+N)/(1+df)) + 1), rows L2-normalised (zero rows kept)."""
    counts = np.asarray(counts, dtype=float)
    n_docs = counts.shape[0]
    if document_frequency is None:
        df = (counts > 0).sum(axis=0)
    else:
        df = np.asarray(document_frequency, dtype=float)
    idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    X = counts * idf
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return X / norms


def feature_string(feat: tuple) -> str:
    return ",".join(str(v) for v in feat)


def parse_feature_string(s: str) -> tuple:
    return tuple(int(v) for v in s.split(","))


def write_feature_counts(path, recording_ids, per_recording_counts) -> None:
    text = {key: feature_string(key[1])
            for key in set().union(*per_recording_counts)}
    # a featureless recording gets a presence row so it survives a re-read
    write_table(path, FEATURE_COLUMNS, chain.from_iterable(
        [[rid, kind, text[kind, feat], c]
         for (kind, feat), c in sorted(counts.items())] or [[rid, "", "", 0]]
        for rid, counts in zip(recording_ids, per_recording_counts)))


def read_feature_counts(path):
    """Return (recording_ids, per-recording count dicts) from a feature dump.

    Recordings keep their order of first appearance and a repeated
    (recording, feature) row overwrites the earlier one. Each distinct
    (feature_kind, feature_string) pair is parsed once. A missing column,
    a short row or a field that is not an integer is a ValidationError
    naming the file and line.
    """
    by_rid: dict[str, dict] = {}
    keys: dict[tuple, tuple] = {}
    with open_table(path, FEATURE_COLUMNS) as rows:
        for rid, kind, text, count in rows:
            counts = by_rid.get(rid)
            if counts is None:
                counts = by_rid[rid] = {}
            if not kind:
                continue
            key = keys.get((kind, text))
            if key is None:
                key = keys[kind, text] = (kind, parse_feature_string(text))
            counts[key] = int(count)
    return list(by_rid), list(by_rid.values())


def write_vocabulary(path, vocab: FeatureVocabulary) -> None:
    write_table(path, VOCABULARY_COLUMNS, (
        [i, kind, feature_string(feat), df] for i, ((kind, feat), df)
        in enumerate(zip(vocab.features, vocab.document_frequency))))


def read_vocabulary(path) -> FeatureVocabulary:
    """Vocabulary from ``write_vocabulary``'s file; malformed rows are
    ValidationErrors as in ``read_feature_counts``."""
    feats, dfs = [], []
    with open_table(path, VOCABULARY_COLUMNS[1:]) as rows:
        for kind, text, df in rows:
            feats.append((kind, parse_feature_string(text)))
            dfs.append(int(df))
    return FeatureVocabulary(features=tuple(feats),
                             document_frequency=tuple(dfs))

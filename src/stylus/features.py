"""Melodic n-gram and chord-voicing extraction, vocabulary and TF-IDF."""

from __future__ import annotations

import hashlib
import json
import logging
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from .corpus import (PITCH_MAX, PITCH_MIN, BlockFile, NoteArray,
                     Transcription, open_table, write_table)

log = logging.getLogger("stylus")

GRID_SECONDS = 0.1
NGRAM_SIZES = (3, 4, 5, 6, 7)
VOICING_SIZES = (3, 4, 5, 6, 7)
MAX_NGRAM_SPAN = 12      # semitones
MAX_MELODY_GAP = 2.0     # seconds between successive offset and onset
MAX_VOICING_LEAP = 15    # adjacent-pitch gap in semitones
MIN_DF = 10
MAX_DF = 1000
# A feature is counted as one int64 code. Melody digits lie in [0, 25), the
# first 12, and 13 * 25**13 > 2**63; voicing digits lie in [0, 88), the first
# 0, and 88**10 > 2**63. Melody codes overflow from size 14 and voicing
# codes from size 11, so one limit below both serves every size.
MAX_FEATURE_SIZE = 10
# A batch of recordings closes at this many notes. Extraction runs as fast
# at 2**13 notes a batch as at 2**15, while a batch's arrays at 2**15 take
# a few MB, so the smaller bound keeps extract's peak memory near that of
# extracting one recording at a time.
EXTRACT_BATCH_NOTES = 1 << 13

KIND_MELODY = "melody"
KIND_HARMONY = "harmony"

FEATURE_COLUMNS = ("recording_id", "feature_kind", "feature_string", "count")
VOCABULARY_COLUMNS = ("index", "kind", "feature_string", "document_frequency")


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Position of the first element of each run of equal values."""
    return np.flatnonzero(np.diff(values, prepend=values[:1] - 1))


def _grid_frames(onset: np.ndarray, grid: float) -> np.ndarray:
    """Each onset's frame, (rint(onset * 1000) + g // 2) // g, g in ms."""
    if not 0 < grid < np.inf:
        raise ValueError(f"grid must be positive and finite, got {grid}")
    grid_ms = int(round(grid * 1000))
    if grid_ms == 0:
        raise ValueError("grid must be at least 1 ms")
    return (np.rint(onset * 1000).astype(np.int64) + grid_ms // 2) // grid_ms


@dataclass(frozen=True, eq=False)
class Frames:
    """Notes grouped by quantised onset.

    ``notes`` holds one recording, or a batch of recordings one after
    another with ``recording[i]`` the batch position of note ``i``'s. Each
    keeps (onset, pitch) order; ``index[i]``, the frame of note ``i``, never
    falls and no two recordings share a frame, so a frame is one run.
    """
    notes: NoteArray
    index: np.ndarray
    recording: np.ndarray | None = None

    @property
    def starts(self) -> np.ndarray:
        """Position of each frame's first note."""
        return _run_starts(self.index)


def quantise(t, grid: float = GRID_SECONDS) -> Frames:
    """Group notes into frames by snapping onsets to the nearest grid point
    in integer milliseconds. ``t`` is one recording (a Transcription or a
    Clip) or a batch (a list of Transcriptions). Both the feature and the
    clip path group notes here."""
    if hasattr(t, "notes"):
        return Frames(t.notes, _grid_frames(t.notes.onset, grid))
    notes = NoteArray.concatenate([r.notes for r in t])
    recording = np.repeat(np.arange(len(t)), [len(r.notes) for r in t])
    frame = _grid_frames(notes.onset, grid)
    # a recording's first frame follows the previous recording's last one
    first = np.flatnonzero(np.diff(recording)) + 1
    shift = np.zeros_like(frame)
    shift[first] = frame[first - 1] + 1 - frame[first]
    return Frames(notes, frame + np.cumsum(shift), recording)


def skyline(frames: Frames) -> NoteArray:
    """One melody note per frame: the highest pitch, raw times preserved.

    Of equal highest pitches the first in (onset, pitch) order wins.
    """
    # stable: by frame, then pitch descending, then original position; as
    # pitches lie in [PITCH_MIN, PITCH_MAX], each frame's keys lie below the
    # next frame's
    order = np.argsort(frames.index * (PITCH_MAX + 1) - frames.notes.pitch,
                       kind="stable")
    return frames.notes[order[frames.starts]]


def _sizes(n_values) -> set:
    """The distinct feature sizes, refused outside [1, MAX_FEATURE_SIZE]."""
    sizes = set(n_values)
    if not sizes <= set(range(1, MAX_FEATURE_SIZE + 1)):
        raise ValueError(f"feature sizes must lie in [1, {MAX_FEATURE_SIZE}]"
                         f", got {sorted(sizes)}")
    return sizes


def _count_codes(recording, codes, base: int, n: int, lo: int,
                 counts) -> None:
    """Set ``counts[r][feature]`` to the number of times each code occurs
    for recording ``r``. A code holds the feature's n values minus ``lo`` as
    base-``base`` digits; the feature is their tuple of ints."""
    order = np.lexsort((codes, recording))
    recording, codes = recording[order], codes[order]
    first = np.flatnonzero((np.diff(recording, prepend=-1) != 0)
                           | (np.diff(codes, prepend=-1) != 0))
    digits = codes[first, None] // base ** np.arange(n - 1, -1, -1) % base
    for r, feat, c in zip(recording[first].tolist(),
                          map(tuple, (digits + lo).tolist()),
                          np.diff(first, append=codes.size).tolist()):
        counts[r][feat] = c


def extract_ngrams(melody: NoteArray, recording, n_values=NGRAM_SIZES):
    """Count transposition-invariant n-grams over a batch's melody, a
    Counter per recording.

    Windows spanning more than 12 semitones, or containing a silence longer
    than 2 s between successive notes (pre-quantisation times), are skipped.
    ``recording`` holds each note's recording (nondecreasing, every
    recording present), and no window crosses from one into the next.
    """
    sizes = _sizes(n_values)
    pitch = melody.pitch
    counts = [Counter() for _ in range(recording[-1] + 1)]
    # a window breaks between notes at a silence or a recording boundary
    breaks = melody.onset[1:] - melody.offset[:-1] > MAX_MELODY_GAP
    breaks |= np.diff(recording) != 0
    base = 2 * MAX_NGRAM_SPAN + 1
    # per window: lowest and highest pitch, whether it holds no break, and
    # the code of its pitches above the first, plus 12, in base 25
    low = high = pitch
    whole = np.ones(pitch.size, dtype=bool)
    code = np.full(pitch.size, MAX_NGRAM_SPAN, dtype=np.int64)
    for n in range(1, max(sizes, default=0) + 1):
        if n > 1:    # extend each window of n - 1 notes by the next note
            last = pitch[n - 1:]
            low, high = np.minimum(low[:-1], last), np.maximum(high[:-1], last)
            whole = whole[:-1] & ~breaks[n - 2:]
            code = code[:-1] * base + (last - pitch[:last.size]
                                       + MAX_NGRAM_SPAN)
        if n in sizes:
            kept = whole & (high - low <= MAX_NGRAM_SPAN)
            _count_codes(recording[:kept.size][kept], code[kept], base, n,
                         -MAX_NGRAM_SPAN, counts)
    return counts


def frame_pitches(frames: Frames):
    """The distinct pitches of each frame, ascending, frame after frame, as
    (pitch, starts, sizes): frame k's pitches are
    ``pitch[starts[k]:starts[k] + sizes[k]]``."""
    # distinct (frame, pitch) pairs, by frame then pitch
    pairs = np.sort(frames.index * (PITCH_MAX + 1) + frames.notes.pitch)
    frame, pitch = np.divmod(pairs[_run_starts(pairs)], PITCH_MAX + 1)
    starts = _run_starts(frame)
    return pitch, starts, np.diff(starts, append=frame.size)


def extract_voicings(frames: Frames, n_values=VOICING_SIZES):
    """Count chord voicings as semitone offsets above the lowest note.

    Frame size counts distinct pitches; frames with two or more adjacent
    gaps above 15 semitones are discarded as transcription errors. Each
    recording of the batch gets a Counter.
    """
    sizes = _sizes(n_values)
    pitch, starts, widths = frame_pitches(frames)
    rec = frames.recording[frames.starts]
    counts = [Counter() for _ in range(rec[-1] + 1)]
    base = PITCH_MAX - PITCH_MIN + 1
    for n in sizes:
        chosen = widths == n
        chords = pitch[starts[chosen, None] + np.arange(n)]
        kept = (np.diff(chords, axis=1) > MAX_VOICING_LEAP).sum(axis=1) < 2
        codes = (chords[kept] - chords[kept, :1]) @ base ** np.arange(
            n - 1, -1, -1)
        _count_codes(rec[chosen][kept], codes, base, n, 0, counts)
    return counts


def extract_batch(recordings, keys: dict, grid: float = GRID_SECONDS,
                  n_values=NGRAM_SIZES) -> list[tuple]:
    """(recording_id, feature counts keyed by (kind, feature tuple)) for
    each of a non-empty list of Transcriptions, extracted as one batch.
    Equal keys are one object, also across the calls that share ``keys``,
    a dict from each key made so far to itself."""
    frames = quantise(recordings, grid)
    melody = extract_ngrams(skyline(frames), frames.recording[frames.starts],
                            n_values)
    harmony = extract_voicings(frames, n_values)
    return [(t.recording_id, {keys.setdefault(k, k): c for k, c in chain(
                zip(zip(repeat(KIND_MELODY), m), m.values()),
                zip(zip(repeat(KIND_HARMONY), h), h.values()))})
            for t, m, h in zip(recordings, melody, harmony)]


def extract_recording(t: Transcription, grid: float = GRID_SECONDS,
                      n_values=NGRAM_SIZES) -> dict:
    """Per-recording feature counts keyed by (kind, feature tuple)."""
    return extract_batch([t], {}, grid, n_values)[0][1]


def extract_recordings(recordings, grid: float = GRID_SECONDS,
                       n_values=NGRAM_SIZES):
    """Yield ``extract_batch``'s pairs for each recording, in order, batch
    by batch, every batch sharing one key object per distinct feature. A
    batch closes once it holds ``EXTRACT_BATCH_NOTES`` notes and is dropped
    once extracted, so an iterator's recordings are held at most one batch
    at a time."""
    batch, notes, keys = [], 0, {}
    for t in recordings:
        batch.append(t)
        notes += len(t.notes)
        if notes >= EXTRACT_BATCH_NOTES:
            del t       # the batch goes whole, its last recording too
            yield from extract_batch(batch, keys, grid, n_values)
            batch, notes = [], 0
    if batch:
        yield from extract_batch(batch, keys, grid, n_values)


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


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Feature counts as columns: triple ``i`` counts ``count[i]`` of
    feature ``keys[key[i]]``, a (kind, feature tuple) pair, in recording
    ``recording_ids[row[i]]``."""
    recording_ids: tuple
    keys: tuple
    row: np.ndarray
    key: np.ndarray
    count: np.ndarray

    @classmethod
    def from_dicts(cls, recording_ids, per_recording_counts) -> FeatureTable:
        """The table of per-recording dicts keyed by (kind, feature tuple);
        the recording ids must be distinct, as a manifest's are."""
        if len(set(recording_ids)) < len(recording_ids):
            raise ValueError("recording ids repeat")
        sizes = [len(counts) for counts in per_recording_counts]
        n = sum(sizes)
        # each key hashed once a triple, to the position of its first
        # triple; the rank of that position is the key's index
        first: dict = {}
        key = np.fromiter(map(first.setdefault, chain.from_iterable(
            per_recording_counts), range(n)), dtype=np.intp, count=n)
        rank = np.empty(n, dtype=np.intp)
        rank[list(first.values())] = np.arange(len(first))
        return cls(tuple(recording_ids), tuple(first),
                   np.repeat(np.arange(len(sizes)), sizes),
                   rank[key], np.fromiter(
                       chain.from_iterable(c.values() for c in
                                           per_recording_counts),
                       dtype=float, count=n))

    def to_dicts(self) -> list[dict]:
        """Each recording's counts keyed by (kind, feature tuple)."""
        out: list[dict] = [{} for _ in self.recording_ids]
        for r, k, c in zip(self.row.tolist(), self.key.tolist(),
                           self.count.tolist()):
            out[r][self.keys[k]] = c
        return out


def count_matrix(table, vocab: FeatureVocabulary) -> np.ndarray:
    """Recording x vocabulary counts of a FeatureTable, or of per-recording
    count dicts; features outside the vocabulary are dropped. Each distinct
    key is looked up once, and X is filled in one assignment."""
    if not isinstance(table, FeatureTable):
        table = FeatureTable.from_dicts(range(len(table)), table)
    cols = np.fromiter(map(vocab.index.get, table.keys, repeat(-1)),
                       dtype=np.intp, count=len(table.keys))[table.key]
    kept = cols >= 0
    X = np.zeros((len(table.recording_ids), len(vocab)))
    X[table.row[kept], cols[kept]] = table.count[kept]
    return X


def tfidf(counts: np.ndarray) -> np.ndarray:
    """tf * (ln((1+N)/(1+df)) + 1), rows L2-normalised (zero rows kept)."""
    counts = np.asarray(counts, dtype=float)
    n_docs = counts.shape[0]
    df = (counts > 0).sum(axis=0)
    idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    X = counts * idf
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return X / norms


def feature_string(feat: tuple) -> str:
    return ",".join(str(v) for v in feat)


def parse_feature_string(s: str) -> tuple:
    return tuple(int(v) for v in s.split(","))


def write_feature_counts(path, table: FeatureTable) -> None:
    """Each recording's rows in (kind, feature) order, or a presence row, one
    recording at a time: its triples must be one run, as in ``from_dicts``."""
    order = sorted(range(len(table.keys)), key=table.keys.__getitem__)
    rank = np.argsort(order, kind="stable")  # skyline's sort, already paged in
    cells = [(kind, feature_string(feat))
             for kind, feat in map(table.keys.__getitem__, order)]
    runs = np.searchsorted(table.row, np.arange(1, len(table.recording_ids)))
    write_table(path, FEATURE_COLUMNS, chain.from_iterable(
        [(rid, *cells[k], c) for k, c in sorted(zip(
            rank[ks].tolist(), cs.astype(np.int64).tolist()))]
        or [(rid, "", "", 0)] for rid, ks, cs in zip(
            table.recording_ids, np.split(table.key, runs),
            np.split(table.count, runs))))


class _TableFile(BlockFile):
    """FeatureTables by the SHA-256 of their dump's bytes: a block of the
    JSON of the ids and keys, then one of the triples, 16 bytes each."""
    magic, what, writes = b"FTB2", "feature table", "extract"
    blocks = (("u1",), ("<u4", "<u4", "<f8"))

    def get(self, key: bytes, dump) -> FeatureTable:
        """The table of the bytes of ``dump`` whose SHA-256 is ``key``."""
        blocks = self.read(key, *self.blocks)
        if blocks is None:
            raise self._error(f"was not written from {dump}")
        (names,), (row, col, counts) = blocks
        try:
            rids, keys = json.loads(names.tobytes())
            keys = tuple((kind, tuple(feat)) for kind, feat in keys)
        except (ValueError, TypeError) as exc:
            raise self._error(f"block invalid: {exc}") from None
        if not ((row < len(rids)).all() and (col < len(keys)).all()):
            raise self._error("index out of bounds")
        return FeatureTable(tuple(rids), keys, row, col, counts)


def write_feature_table(path, table: FeatureTable) -> None:
    """Write ``table``, the counts of the dump at ``path``, to the ".table"
    file beside it, keyed by the SHA-256 of the dump's bytes."""
    with open(path, "rb") as fh:
        key = hashlib.file_digest(fh, "sha256").digest()
    names = json.dumps([table.recording_ids, table.keys]).encode()
    with _TableFile.create(Path(path).with_suffix(".table")) as out:
        out.write(key, [np.frombuffer(names, np.uint8)], out.blocks[0])
        out.write(key, [table.row, table.key, table.count], out.blocks[1])


def read_feature_counts(path) -> FeatureTable:
    """The FeatureTable of a feature dump, read from the ".table" file
    beside it under the SHA-256 of the dump's bytes (``write_feature_table``).
    A dump without a table so keyed, edited or left by a failed extract, or
    a table that does not validate, is a ValidationError naming the table.
    """
    with open(path, "rb") as fh:
        key = hashlib.file_digest(fh, "sha256").digest()
    return _TableFile(Path(path).with_suffix(".table")).get(key, path)


def write_vocabulary(path, vocab: FeatureVocabulary) -> None:
    write_table(path, VOCABULARY_COLUMNS, (
        [i, kind, feature_string(feat), df] for i, ((kind, feat), df)
        in enumerate(zip(vocab.features, vocab.document_frequency))))


def read_vocabulary(path) -> FeatureVocabulary:
    """Vocabulary from ``write_vocabulary``'s file. A missing column, a short
    row, a field that is not an integer, a kind other than melody or harmony
    or a repeated (kind, feature) is a ValidationError naming the line."""
    dfs: dict = {}
    with open_table(path, VOCABULARY_COLUMNS[1:]) as rows:
        for kind, text, df in rows:
            if kind not in (KIND_MELODY, KIND_HARMONY):
                raise ValueError(f"unknown kind {kind!r}")
            feat = (kind, parse_feature_string(text))
            if feat in dfs:
                raise ValueError(f"{kind} feature {text!r} repeated")
            dfs[feat] = int(df)
    return FeatureVocabulary(features=tuple(dfs),
                             document_frequency=tuple(dfs.values()))

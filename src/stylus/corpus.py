"""Note-event ingestion, splits, clip segmentation and piano rolls."""

from __future__ import annotations

import csv
import json
import math
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np

from .rng import derive_rng

PITCH_MIN = 21
PITCH_MAX = 108
VELOCITY_MIN = 1
VELOCITY_MAX = 127

ROLL_HEIGHT = 88
ROLL_WIDTH = 3000
FRAME_MS = 10  # one roll column per 10 ms (100 fps)
CLIP_SECONDS = 30.0

ROLL_MAGIC = b"PROL"

DATASET_TAGS = ("solo", "trio")
SPLITS = ("train", "validation", "test")
MANIFEST_COLUMNS = ("recording_id", "performer", "dataset_tag", "path")
SPLIT_COLUMNS = ("recording_id", "split")


class ValidationError(ValueError):
    """Input violates a domain invariant."""


class ParseError(ValueError):
    """Input file is malformed."""


def write_table(path, header, rows) -> None:
    """Write a CSV table: UTF-8, ``"\n"`` line ends, ``header`` first, then
    each of ``rows``. Every CSV artifact is written here."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@contextmanager
def open_table(path, columns, header_error=ValidationError):
    """Yield the non-blank rows of a CSV table as tuples of their fields in
    ``columns`` (two or more). A header that does not parse or lacks a
    column raises ``header_error``; a short row, a csv error or a ValueError
    raised in the block becomes a ValidationError naming the file and line."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
        except csv.Error as exc:
            raise header_error(f"{path}:{reader.line_num}: {exc}") from None
        missing = [c for c in columns if c not in header]
        if missing:
            raise header_error(f"{path}:{reader.line_num}: header lacks "
                               f"column(s) {', '.join(missing)}")
        pick = itemgetter(*(header.index(c) for c in columns))
        try:
            yield map(pick, filter(None, reader))
        except (csv.Error, IndexError, ValueError) as exc:
            reason = ("too few fields" if isinstance(exc, IndexError)
                      else str(exc))
            raise ValidationError(
                f"{path}:{reader.line_num}: {reason}") from None


@dataclass(frozen=True, order=True)
class NoteEvent:
    """One note: the row view of a NoteArray."""
    onset: float
    pitch: int
    offset: float
    velocity: int

    def __post_init__(self):
        if not (math.isfinite(self.onset) and math.isfinite(self.offset)):
            raise ValidationError(
                f"onset {self.onset} and offset {self.offset} must be finite")
        if not self.offset > self.onset:
            raise ValidationError(
                f"offset {self.offset} must exceed onset {self.onset}")
        if self.onset < 0:
            raise ValidationError(f"onset {self.onset} is negative")
        if not PITCH_MIN <= self.pitch <= PITCH_MAX:
            raise ValidationError(
                f"pitch {self.pitch} outside [{PITCH_MIN}, {PITCH_MAX}]")
        if not VELOCITY_MIN <= self.velocity <= VELOCITY_MAX:
            raise ValidationError(
                f"velocity {self.velocity} outside "
                f"[{VELOCITY_MIN}, {VELOCITY_MAX}]")


def _valid_rows(onset, offset, pitch, velocity) -> np.ndarray:
    """Per-row mask of the NoteEvent invariants."""
    return (np.isfinite(onset) & np.isfinite(offset) & (offset > onset)
            & (onset >= 0)
            & (PITCH_MIN <= pitch) & (pitch <= PITCH_MAX)
            & (VELOCITY_MIN <= velocity) & (velocity <= VELOCITY_MAX))


def _events(onset, offset, pitch, velocity) -> list:
    """NoteEvent rows, with Python float/int fields, from aligned columns."""
    return [NoteEvent(onset=on, pitch=p, offset=off, velocity=v)
            for on, off, p, v in zip(onset.tolist(), offset.tolist(),
                                     pitch.tolist(), velocity.tolist())]


class NoteArray:
    """Validated notes as aligned columns, sorted by (onset, pitch).

    ``onset``/``offset`` are float64 seconds and ``pitch``/``velocity``
    int64. The sort is stable, so notes equal in (onset, pitch) keep their
    input order. An integer index yields a ``NoteEvent`` row, iteration
    yields every row, and a slice, mask or ascending index array yields a
    NoteArray.
    """

    __slots__ = ("onset", "offset", "pitch", "velocity")

    def __init__(self, onset, offset, pitch, velocity):
        columns = (np.asarray(onset, dtype=np.float64),
                   np.asarray(offset, dtype=np.float64),
                   np.asarray(pitch, dtype=np.int64),
                   np.asarray(velocity, dtype=np.int64))
        if any(c.ndim != 1 or c.shape != columns[0].shape for c in columns):
            raise ValidationError("note columns must be 1-D and aligned")
        valid = _valid_rows(*columns)
        if not valid.all():
            i = int(np.argmin(valid))
            _events(*(c[i:i + 1] for c in columns))  # raises the row's error
        order = np.lexsort((columns[2], columns[0]))
        self.onset, self.offset, self.pitch, self.velocity = (
            c[order] for c in columns)

    @classmethod
    def from_events(cls, events) -> NoteArray:
        """The notes of a NoteEvent sequence; a NoteArray is returned as is."""
        if isinstance(events, NoteArray):
            return events
        events = list(events)
        return cls([n.onset for n in events], [n.offset for n in events],
                   [n.pitch for n in events], [n.velocity for n in events])

    def columns(self) -> tuple:
        return self.onset, self.offset, self.pitch, self.velocity

    def __len__(self):
        return self.onset.shape[0]

    def __iter__(self):
        return iter(_events(*self.columns()))

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer)):
            return NoteEvent(onset=float(self.onset[key]),
                             pitch=int(self.pitch[key]),
                             offset=float(self.offset[key]),
                             velocity=int(self.velocity[key]))
        # a slice, mask or ascending index keeps the (onset, pitch) order
        out = object.__new__(NoteArray)
        out.onset, out.offset, out.pitch, out.velocity = (
            c[key] for c in self.columns())
        return out

    def __eq__(self, other):
        if not isinstance(other, NoteArray):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in
                   zip(self.columns(), other.columns()))

    def __repr__(self):
        return f"NoteArray({len(self)} notes)"


@dataclass(frozen=True)
class Transcription:
    """A recording's notes; built from a NoteArray or a NoteEvent sequence."""
    recording_id: str
    performer: str
    dataset_tag: str
    notes: NoteArray = ()

    def __post_init__(self):
        if self.dataset_tag not in DATASET_TAGS:
            raise ValidationError(f"unknown dataset_tag {self.dataset_tag!r}")
        object.__setattr__(self, "notes", NoteArray.from_events(self.notes))
        if not len(self.notes):
            raise ValidationError(f"{self.recording_id}: no notes")

    @property
    def duration(self) -> float:
        return float(self.notes.offset.max())


@dataclass(frozen=True)
class Clip:
    """A 30 s window of a recording, its note times re-based to ``start``;
    built from a NoteArray or a NoteEvent sequence. Every onset lies in
    [0, 30); an offset may run past the window."""
    parent_id: str
    performer: str
    start: float
    notes: NoteArray = ()

    def __post_init__(self):
        object.__setattr__(self, "notes", NoteArray.from_events(self.notes))
        outside = np.flatnonzero(self.notes.onset >= CLIP_SECONDS)
        if outside.size:
            raise ValidationError(
                f"{self.parent_id}: clip note onset "
                f"{self.notes.onset[outside[0]]} outside [0, {CLIP_SECONDS})")


@dataclass(frozen=True)
class ManifestEntry:
    recording_id: str
    performer: str
    dataset_tag: str
    path: str


def parse_note_events(path, recording_id: str = "", performer: str = "",
                      dataset_tag: str = "solo") -> Transcription:
    """Read a JSONL note-event file into a Transcription.

    Each line holds one object: {"onset", "offset", "pitch", "velocity"};
    blank lines are skipped. Fields convert as ``float()`` (times) and
    ``int()`` (pitch, velocity). The whole file is decoded at once; the
    per-line reader runs only when that decode or a row check fails, so
    errors name the offending lines.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    notes = _decode_notes(text.strip())
    if notes is None:
        lines = [(lineno, stripped) for lineno, line
                 in enumerate(text.split("\n"), start=1)
                 if (stripped := line.strip())]
        notes = NoteArray.from_events(_parse_lines(path, lines))
    return Transcription(recording_id=recording_id or path.stem,
                         performer=performer, dataset_tag=dataset_tag,
                         notes=notes)


def _decode_notes(text: str) -> NoteArray | None:
    """Decode stripped note text in one ``json.loads``, or None to fall back.

    Lines are joined with a ``null`` sentinel between them. When no line
    contains ``null`` and every sentinel decodes as a top-level element
    between two others, each line is exactly one JSON value, as a per-line
    decode would find. Anything else (a blank line, a line that is not one
    object, a missing key, a field that is not a number, an invalid note)
    returns None.
    """
    if "null" in text:
        return None
    n_lines = text.count("\n") + 1
    try:
        values = json.loads("[" + text.replace("\n", ",null,") + "]")
    except (ValueError, RecursionError):
        return None
    if (len(values) != 2 * n_lines - 1
            or values[1::2].count(None) != n_lines - 1):
        return None
    rows = values[0::2]
    try:
        onset, offset, pitch, velocity = (
            np.array([r[key] for r in rows])
            for key in ("onset", "offset", "pitch", "velocity"))
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if any(c.ndim != 1 or c.dtype.kind not in "bif"
           for c in (onset, offset, pitch, velocity)):
        return None
    # int() truncates toward zero
    pitch, velocity = (np.trunc(c) if c.dtype.kind == "f" else c
                       for c in (pitch, velocity))
    if not _valid_rows(onset, offset, pitch, velocity).all():
        return None
    return NoteArray(onset, offset, pitch, velocity)


def _parse_lines(path, lines) -> list[NoteEvent]:
    """Per-line reader: one ``json.loads`` and one NoteEvent per line."""
    notes = []
    bad = []
    for lineno, line in lines:
        try:
            obj = json.loads(line)
            onset = float(obj["onset"])
            offset = float(obj["offset"])
            pitch = int(obj["pitch"])
            velocity = int(obj["velocity"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError,
                OverflowError) as exc:
            raise ParseError(f"{path}:{lineno}: malformed note: {exc}")
        try:
            notes.append(NoteEvent(onset=onset, offset=offset,
                                   pitch=pitch, velocity=velocity))
        except ValidationError as exc:
            bad.append(f"line {lineno}: {exc}")
    if bad:
        raise ValidationError(f"{path}: invalid notes: " + "; ".join(bad))
    return notes


def write_note_events(path, notes) -> None:
    """Write a NoteArray, or a NoteEvent sequence, as JSONL in one write:
    per note, the line ``json.dumps`` writes, with times as floats and
    pitch/velocity as ints (``json`` spells them with their ``__repr__``)."""
    if isinstance(notes, NoteArray):
        rows = zip(*(c.tolist() for c in notes.columns()))
    else:
        rows = ((float(n.onset), float(n.offset), int(n.pitch),
                 int(n.velocity)) for n in notes)
    fr, ir = float.__repr__, int.__repr__
    Path(path).write_text("".join([
        f'{{"onset": {fr(on)}, "offset": {fr(off)}, "pitch": {ir(p)}, '
        f'"velocity": {ir(v)}}}\n' for on, off, p, v in rows]),
        encoding="utf-8", newline="\n")


def read_manifest(path) -> list[ManifestEntry]:
    """The manifest's entries in file order. A header lacking a column is a
    ParseError; a short row or an unknown dataset_tag a ValidationError."""
    entries = []
    with open_table(path, MANIFEST_COLUMNS, ParseError) as rows:
        for rid, performer, tag, notes_path in rows:
            if tag not in DATASET_TAGS:
                raise ValueError(f"unknown dataset_tag {tag!r} for {rid}")
            entries.append(ManifestEntry(rid, performer, tag, notes_path))
    if not entries:
        raise ValidationError(f"{path}: empty manifest")
    return entries


def assign_splits(manifest, seed: int) -> dict[str, str]:
    """Assign train/validation/test per recording, stratified by dataset_tag.

    Per stratum of size n: test and validation each get floor(n/10)
    recordings (minimum 1 when n >= 3), the remainder goes to train.
    """
    if not manifest:
        raise ValidationError("empty manifest")
    assignment: dict[str, str] = {}
    for tag in DATASET_TAGS:
        ids = sorted(e.recording_id for e in manifest if e.dataset_tag == tag)
        if not ids:
            continue
        rng = derive_rng(seed, "split", tag)
        order = list(rng.permutation(len(ids)))
        n = len(ids)
        n_held = n // 10
        if n_held == 0 and n >= 3:
            n_held = 1
        for rank, idx in enumerate(order):
            if rank < n_held:
                split = "test"
            elif rank < 2 * n_held:
                split = "validation"
            else:
                split = "train"
            assignment[ids[idx]] = split
    return assignment


def write_splits(path, assignment: dict[str, str]) -> None:
    write_table(path, SPLIT_COLUMNS, sorted(assignment.items()))


def read_splits(path) -> dict[str, str]:
    """Recording id to split; a missing column, a short row or an unknown
    split is a ValidationError naming the line."""
    out = {}
    with open_table(path, SPLIT_COLUMNS) as rows:
        for rid, split in rows:
            if split not in SPLITS:
                raise ValueError(f"unknown split {split!r}")
            out[rid] = split
    return out


def segment_clips(t: Transcription, hop: float = CLIP_SECONDS) -> list[Clip]:
    """Cut a recording into 30 s clips starting every ``hop`` seconds.

    A note belongs to the clip whose window contains its onset; its times
    are re-based to the clip start. Window starts continue until one window
    covers the end of the recording; a final partial window is kept.
    """
    if not 15.0 <= hop <= CLIP_SECONDS:
        raise ValidationError(f"hop {hop} outside [15, 30]")
    duration = t.duration
    starts = [0.0]
    k = 1
    while starts[-1] + CLIP_SECONDS < duration:
        starts.append(k * hop)
        k += 1
    notes = t.notes
    bounds = np.searchsorted(notes.onset,
                             [(s, s + CLIP_SECONDS) for s in starts])
    clips = []
    for start, (lo, hi) in zip(starts, bounds.tolist()):
        part = notes[lo:hi]
        clips.append(Clip(parent_id=t.recording_id, performer=t.performer,
                          start=start,
                          notes=NoteArray(part.onset - start,
                                          part.offset - start, part.pitch,
                                          part.velocity)))
    return clips


def time_to_column(seconds):
    """Roll column of a time, or of each time in an array, in seconds."""
    # round to integer milliseconds first so values such as 29.9 land on
    # the intended column despite binary float representation
    return np.rint(np.multiply(seconds, 1000)).astype(np.int64) // FRAME_MS


def note_columns(notes: NoteArray) -> tuple[np.ndarray, np.ndarray]:
    """First and past-the-end roll column of each note: the onset's column
    to the column of the offset cut at the clip end, at least one column,
    within the roll."""
    c0 = time_to_column(notes.onset)
    c1 = np.maximum(time_to_column(np.minimum(notes.offset, CLIP_SECONDS)),
                    c0 + 1)
    return np.minimum(c0, ROLL_WIDTH - 1), np.minimum(c1, ROLL_WIDTH)


def paint_roll(notes, max_velocity: int | None = None) -> np.ndarray:
    """Paint a NoteArray (or NoteEvent sequence) into an 88x3000 roll with
    velocity / max-velocity values; where notes overlap, the largest value
    wins.

    ``max_velocity`` overrides the normalisation ceiling; by default the
    largest velocity among the painted notes is used.
    """
    roll = np.zeros((ROLL_HEIGHT, ROLL_WIDTH), dtype=np.float32)
    notes = NoteArray.from_events(notes)
    notes = notes[notes.onset < CLIP_SECONDS]
    if not len(notes):
        return roll
    if max_velocity is None:
        max_velocity = notes.velocity.max()
    c0, c1 = note_columns(notes)
    width = c1 - c0
    first = (notes.pitch - PITCH_MIN) * ROLL_WIDTH + c0
    # flat index of every painted cell: each note's first cell plus 0..width
    cells = (np.repeat(first - np.cumsum(width) + width, width)
             + np.arange(width.sum()))
    np.maximum.at(roll.reshape(-1), cells, np.repeat(
        (notes.velocity / max_velocity).astype(np.float32), width))
    return roll


def to_piano_roll(c: Clip) -> np.ndarray:
    return paint_roll(c.notes)


def write_roll(path, roll: np.ndarray) -> None:
    # a C-ordered little-endian float32 roll is written from its own buffer
    roll = np.ascontiguousarray(roll, dtype="<f4")
    if roll.ndim != 2:
        raise ValidationError("roll must be 2-D")
    with open(path, "wb") as fh:
        fh.write(ROLL_MAGIC)
        fh.write(struct.pack("<III", roll.shape[0], roll.shape[1], 0))
        fh.write(roll)


def read_roll(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16 or header[:4] != ROLL_MAGIC:
            raise ParseError(f"{path}: bad roll header")
        height, width, _ = struct.unpack("<III", header[4:])
        data = np.frombuffer(fh.read(), dtype="<f4")
    if data.size != height * width:
        raise ParseError(f"{path}: truncated roll payload")
    return data.reshape(height, width)

"""Note-event ingestion, splits, clip segmentation and piano rolls."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from pathlib import Path

import numpy as np
import orjson

from .rng import derive_rng

PITCH_MIN = 21
PITCH_MAX = 108
VELOCITY_MIN = 1
VELOCITY_MAX = 127

ROLL_HEIGHT = 88
ROLL_WIDTH = 3000
FRAME_MS = 10  # one roll column per 10 ms (100 fps)
CLIP_SECONDS = 30.0
# Longer recordings are refused: past about 9.2e15 s a time's millisecond
# overflows int64, and a recording's clip list grows by one per 30 s.
MAX_RECORDING_SECONDS = 86_400.0

# A roll is kept as rectangles: per painted span its pitch row, first and
# past-the-end column and value, the spans of a row disjoint. A roll file is
# a header (magic, record count), then the records.
RECT = np.dtype([("row", "<i4"), ("c0", "<i4"), ("c1", "<i4"),
                 ("value", "<f4")])
_ROLL_HEADER = struct.Struct("<4sI")
ROLL_MAGIC = b"PRR1"

# A block file is a header (magic, block count, index offset), the blocks,
# then the index: per block its 32-byte content key, the CRC-32 of its bytes,
# its offset and its row count. A block is one or more columns of that many
# rows each, one after another, in dtypes its reader names; a key's blocks
# keep their order. A note store's block is a file's notes: onset and offset
# as float64, pitch and velocity as uint8, 18 bytes a note.
STORE_NAME = "notes.store"
_BLOCK_HEADER = struct.Struct("<4sQQ")
_BLOCK_INDEX = np.dtype([("key", "V32"), ("crc", "<u4"), ("start", "<u8"),
                         ("count", "<u8")])
_NOTE_BLOCK = ("<f8", "<f8", "u1", "u1")

# orjson 3.8 decodes without a nesting limit: 100k levels decode, but 200k
# overflow the C stack and kill the process. A line cannot nest deeper than
# its own length, so a longer line is left to the reference reader.
MAX_LINE_CHARS = 1 << 16

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


def read_utf8(path, error=ValidationError, data=None) -> str:
    """The text of a UTF-8 file, or of ``data``, its bytes already read, line
    ends untranslated. A byte that is not UTF-8 raises ``error`` naming the
    file and the byte's line."""
    if data is None:
        data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes.splitlines breaks at "\n", "\r\n" and a lone "\r"
        lineno = len((data[:exc.start] + b".").splitlines())
        raise error(f"{path}:{lineno}: not UTF-8: byte "
                    f"0x{data[exc.start]:02x}: {exc.reason}") from None


@contextmanager
def open_table(path, columns, header_error=ValidationError, data=None):
    """Yield the non-blank rows of a CSV table (``data``: its bytes, if read)
    as tuples of their fields in ``columns`` (two or more). A byte that is
    not UTF-8 raises a ValidationError naming the file and line, before any
    row is read. A header that does not parse or lacks a column raises
    ``header_error``; a short row, a csv error or a ValueError raised in the
    block becomes a ValidationError naming the file and line."""
    reader = csv.reader(io.StringIO(read_utf8(path, data=data), newline=""))
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
        raise ValidationError(f"{path}:{reader.line_num}: {reason}") from None


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
        onset, pitch = columns[0], columns[2]
        # the stable sort leaves columns already in order as they are, so
        # they are only copied, never kept as views of the caller's arrays
        if ((onset[:-1] < onset[1:]) | ((onset[:-1] == onset[1:])
                                        & (pitch[:-1] <= pitch[1:]))).all():
            self.onset, self.offset, self.pitch, self.velocity = (
                c.copy() for c in columns)
            return
        order = np.lexsort((pitch, onset))
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

    @classmethod
    def concatenate(cls, arrays) -> NoteArray:
        """NoteArrays' rows one after another, each keeping its order."""
        out = object.__new__(cls)
        out.onset, out.offset, out.pitch, out.velocity = map(
            np.concatenate, zip(*(a.columns() for a in arrays)))
        return out

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
        if self.duration > MAX_RECORDING_SECONDS:
            raise ValidationError(
                f"{self.recording_id}: duration {self.duration} s exceeds "
                f"{MAX_RECORDING_SECONDS} s")

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
                      dataset_tag: str = "solo",
                      store: NoteStore | None = None) -> Transcription:
    """Read a JSONL note-event file into a Transcription.

    Each line holds one object: {"onset", "offset", "pitch", "velocity"};
    lines end at universal newlines and blank lines are skipped
    (``json_lines``). Fields convert as ``float()`` (times) and ``int()``
    (pitch, velocity). Each line is decoded on its own (``_decode_notes``);
    the reference reader (``_parse_lines``) runs only when that decode or a
    row check fails, so errors name the offending lines. A file that is not
    UTF-8 is refused with the line of its first bad byte.

    With a ``store``, the SHA-256 of the file's bytes is looked up first. On
    a hit the notes are the stored columns, checked and sorted again by
    NoteArray, and nothing is decoded; on a miss the file is decoded and
    its notes go to ``store.put``. Either way the columns are the same.
    """
    path = Path(path)
    data = path.read_bytes()
    key = hashlib.sha256(data).digest() if store is not None else None
    notes = stored = store.get(key) if store is not None else None
    if stored is None:
        text = read_utf8(path, ParseError, data)
        notes = _decode_notes(text)
        if notes is None:
            notes = NoteArray.from_events(_parse_lines(path, json_lines(text)))
    t = Transcription(recording_id=recording_id or path.stem,
                      performer=performer, dataset_tag=dataset_tag,
                      notes=notes)
    if stored is None and store is not None:
        store.put(key, t.notes)
    return t


class BlockFile:
    """The blocks in the file at ``path`` by content key (none if there is
    no file); ``create`` writes a file. A subclass names its ``magic``,
    ``what`` it is and the subcommand that ``writes`` it, which the error
    for a damaged file asks to re-run."""
    magic, what, writes = b"", "", ""

    def __init__(self, path, out=None):
        self.path, self._out = Path(path), out   # out: a file being written
        self._index = {}    # key: [(CRC-32, block offset, row count), ...]
        if out is not None or not self.path.exists():
            return
        with open(self.path, "rb") as fh:
            head = fh.read(_BLOCK_HEADER.size)
            if len(head) != _BLOCK_HEADER.size or head[:4] != self.magic:
                raise self._error("bad header")
            _, n, self._end = _BLOCK_HEADER.unpack(head)
            if (os.fstat(fh.fileno()).st_size
                    != self._end + n * _BLOCK_INDEX.itemsize):
                raise self._error("truncated")
            fh.seek(self._end)
            index = np.frombuffer(fh.read(), _BLOCK_INDEX)
        for key, *block in zip(map(bytes, index["key"]), *(
                index[f].tolist() for f in ("crc", "start", "count"))):
            self._index.setdefault(key, []).append(block)

    def _error(self, reason) -> ValidationError:
        return ValidationError(
            f"{self.path}: {self.what} {reason}; re-run {self.writes}")

    @classmethod
    @contextmanager
    def create(cls, path):
        """Yield an empty file whose ``write`` appends each block to a
        temporary file. It replaces ``path`` if the block ends without an
        exception; a file already there stays otherwise."""
        tmp = Path(path).with_name(Path(path).name + ".tmp")
        try:
            with open(tmp, "wb") as fh:
                fh.write(bytes(_BLOCK_HEADER.size))
                out = cls(path, fh)
                yield out
                at = fh.tell()
                fh.write(np.array([(k, *b) for k, bs in out._index.items()
                                   for b in bs], _BLOCK_INDEX).tobytes())
                fh.seek(0)
                fh.write(_BLOCK_HEADER.pack(
                    cls.magic, sum(map(len, out._index.values())), at))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)

    def read(self, key: bytes, *blocks) -> list | None:
        """Each of ``key``'s blocks as read-only columns in the dtypes that
        ``blocks`` names, a tuple per block; None if the key has none or the
        file is being written."""
        stored = None if self._out is not None else self._index.get(key)
        if stored is None:
            return None
        if len(stored) != len(blocks):
            raise self._error("index out of bounds")
        out = []
        with open(self.path, "rb") as fh:
            for (crc, start, n), dtypes in zip(stored, blocks):
                sizes = [n * np.dtype(d).itemsize for d in dtypes]
                # each block lies between the header and the index
                if not (_BLOCK_HEADER.size <= start
                        and start + sum(sizes) <= self._end):
                    raise self._error("index out of bounds")
                fh.seek(start)
                data = fh.read(sum(sizes))
                if zlib.crc32(data) != crc:
                    raise self._error("block checksum mismatch")
                out.append([np.frombuffer(data, d, n, at) for d, at in
                            zip(dtypes, accumulate(sizes, initial=0))])
        return out

    def write(self, key: bytes, columns, dtypes) -> None:
        """Append a block of equal-length ``columns`` in ``dtypes``."""
        start, crc = self._out.tell(), 0
        for c, dtype in zip(columns, dtypes):
            data = np.asarray(c, dtype).tobytes()
            crc = zlib.crc32(data, crc)
            self._out.write(data)
        self._index.setdefault(key, []).append((crc, start, len(columns[0])))


class NoteStore(BlockFile):
    """Notes keyed by the SHA-256 of their note file's bytes, one block per
    key, from the store at ``path`` (an empty store if there is none).
    ``counts`` tallies the recordings taken from the store and the files
    decoded."""
    magic, what, writes = b"NST2", "note store", "ingest"

    def __init__(self, path, out=None):
        self.counts = {"from_store": 0, "decoded": 0}
        super().__init__(path, out)

    def get(self, key: bytes) -> NoteArray | None:
        """The notes stored under ``key``; None if there are none or the
        store is being written."""
        blocks = self.read(key, _NOTE_BLOCK)
        if blocks is None:
            return None
        try:    # an invalid note
            notes = NoteArray(*blocks[0])
        except ValueError as exc:
            raise self._error(f"block invalid: {exc}") from None
        self.counts["from_store"] += 1
        return notes

    def put(self, key: bytes, notes: NoteArray) -> None:
        """Count a decoded file; a store being written appends its notes'
        block unless it holds the key already."""
        self.counts["decoded"] += 1
        if self._out is not None and key not in self._index:
            self.write(key, notes.columns(), _NOTE_BLOCK)


def _split_lines(text: str) -> list[str]:
    """``text`` cut at universal newlines: "\n", "\r\n" or a lone "\r"."""
    return (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text
            else text).split("\n")


def json_lines(text: str) -> list[tuple[int, str]]:
    """(line number, stripped line) of each non-blank line of ``text``: the
    line rule of note and exercise files."""
    return [(i, s) for i, line in enumerate(_split_lines(text), start=1)
            if (s := line.strip())]


def _decode_notes(text: str) -> NoteArray | None:
    """Decode note text with one ``orjson.loads`` per line (JSON Lines makes
    each line a value on its own), or None to leave it to ``_parse_lines``:
    a blank line between notes, a line longer than ``MAX_LINE_CHARS``, a
    line that is not one object, a missing key, a field that is not a
    number, an invalid note, and ``NaN``, ``Infinity``, a lone surrogate or
    a double that overflows, which orjson refuses. orjson reads an integer
    past 2**64 as ``float()`` does; NoteArray truncates floats as ``int()``."""
    lines = _split_lines(text.strip())
    if len(text) > MAX_LINE_CHARS and max(map(len, lines)) > MAX_LINE_CHARS:
        return None
    try:
        rows = list(map(orjson.loads, lines))
        onset, offset, pitch, velocity = (
            np.array([r[key] for r in rows])
            for key in ("onset", "offset", "pitch", "velocity"))
    except (KeyError, TypeError, ValueError, OverflowError):
        return None
    if any(c.ndim != 1 or c.dtype.kind not in "bif"
           for c in (onset, offset, pitch, velocity)):
        return None
    if not _valid_rows(onset, offset, pitch, velocity).all():
        return None
    return NoteArray(onset, offset, pitch, velocity)


def _parse_lines(path, lines) -> list[NoteEvent]:
    """The reference reader: one ``json.loads`` and one NoteEvent per
    (line number, line). It words every refusal, and reads what
    ``_decode_notes`` leaves to it (numeric strings, say)."""
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
                OverflowError, RecursionError) as exc:
            raise ParseError(f"{path}:{lineno}: malformed note: {exc}")
        try:
            notes.append(NoteEvent(onset=onset, offset=offset,
                                   pitch=pitch, velocity=velocity))
        except ValidationError as exc:
            bad.append(f"line {lineno}: {exc}")
    if bad:
        raise ValidationError(f"{path}: invalid notes: " + "; ".join(bad))
    return notes


def write_note_events(path, notes: NoteArray) -> None:
    """Write notes as JSONL in one write: per note, the line ``json.dumps``
    writes, with times as floats and pitch/velocity as ints (``json`` spells
    them with their ``__repr__``)."""
    rows = zip(*(c.tolist() for c in notes.columns()))
    fr, ir = float.__repr__, int.__repr__
    Path(path).write_text("".join([
        f'{{"onset": {fr(on)}, "offset": {fr(off)}, "pitch": {ir(p)}, '
        f'"velocity": {ir(v)}}}\n' for on, off, p, v in rows]),
        encoding="utf-8", newline="\n")


def read_manifest(path, data=None) -> list[ManifestEntry]:
    """The manifest's entries in file order (``data``: its bytes, if read).
    A header lacking a column is a ParseError; a short row, an unknown
    dataset_tag or a repeated recording id a ValidationError naming the
    line."""
    entries = {}
    with open_table(path, MANIFEST_COLUMNS, ParseError, data) as rows:
        for rid, performer, tag, notes_path in rows:
            if tag not in DATASET_TAGS:
                raise ValueError(f"unknown dataset_tag {tag!r} for {rid}")
            if rid in entries:
                raise ValueError(f"recording id {rid!r} repeated")
            entries[rid] = ManifestEntry(rid, performer, tag, notes_path)
    if not entries:
        raise ValidationError(f"{path}: empty manifest")
    return list(entries.values())


def assign_splits(manifest, seed: int) -> dict[str, str]:
    """Assign train/validation/test per recording, stratified by dataset_tag.

    Per stratum of size n: test and validation each get floor(n/10)
    recordings (minimum 1 when n >= 3), the remainder goes to train.
    """
    assignment: dict[str, str] = {}
    for tag in DATASET_TAGS:
        ids = sorted(e.recording_id for e in manifest if e.dataset_tag == tag)
        n = len(ids)
        n_held = max(n // 10, 1) if n >= 3 else 0
        ranked = derive_rng(seed, "split", tag).permutation(n).tolist()
        assignment.update(zip((ids[i] for i in ranked), ["test"] * n_held
                              + ["validation"] * n_held
                              + ["train"] * (n - 2 * n_held)))
    return assignment


def write_splits(path, assignment: dict[str, str]) -> None:
    write_table(path, SPLIT_COLUMNS, sorted(assignment.items()))


def read_splits(path) -> dict[str, str]:
    """Recording id to split; a missing column, a short row, an unknown split
    or a repeated recording id is a ValidationError naming the line."""
    out = {}
    with open_table(path, SPLIT_COLUMNS) as rows:
        for rid, split in rows:
            if split not in SPLITS:
                raise ValueError(f"unknown split {split!r}")
            if rid in out:
                raise ValueError(f"recording id {rid!r} repeated")
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


def rects_of(row, c0, c1, value) -> np.ndarray:
    """Rectangles from aligned columns; a scalar is broadcast."""
    out = np.empty(len(c0), RECT)
    out["row"], out["c0"], out["c1"], out["value"] = row, c0, c1, value
    return out


def tangled(rects) -> np.ndarray:
    """Per rectangle, whether two spans of its row overlap."""
    order = np.lexsort((rects["c0"], rects["row"]))
    row, c0, c1 = (rects[f][order] for f in ("row", "c0", "c1"))
    clash = (row[1:] == row[:-1]) & (c0[1:] < c1[:-1])
    return np.isin(rects["row"], row[1:][clash])


def resolve(rects, last: bool = False) -> np.ndarray:
    """``rects`` with each row whose spans overlap painted on one line, where
    the largest value wins (with ``last``, the latest span's), and cut into
    runs of one value again."""
    mask = tangled(rects)
    out = [rects[~mask]]
    for row in sorted(set(rects["row"][mask].tolist())):
        line = np.zeros(ROLL_WIDTH + 1, dtype=np.float32)   # ends in a zero
        for _, c0, c1, value in rects[rects["row"] == row].tolist():
            line[c0:c1] = value if last else np.maximum(line[c0:c1], value)
        cuts = np.flatnonzero(line != np.r_[np.float32(0), line[:-1]])
        runs = line[cuts[:-1]] != 0
        out.append(rects_of(row, cuts[:-1][runs], cuts[1:][runs],
                            line[cuts[:-1]][runs]))
    return np.concatenate(out)


def paint(rects) -> np.ndarray:
    """The 88x3000 float32 roll of a roll's rectangles."""
    roll = np.zeros((ROLL_HEIGHT, ROLL_WIDTH), dtype=np.float32)
    for row, c0, c1, value in rects.tolist():
        roll[row, c0:c1] = value
    return roll


def paint_roll(notes, max_velocity: int | None = None) -> np.ndarray:
    """The rectangles of a NoteArray's (or NoteEvent sequence's) 88x3000
    roll, with velocity / max-velocity values; where notes overlap, the
    largest value wins. ``paint`` gives its pixels.

    ``max_velocity`` overrides the normalisation ceiling; by default the
    largest velocity among the painted notes is used.
    """
    notes = NoteArray.from_events(notes)
    notes = notes[notes.onset < CLIP_SECONDS]
    if max_velocity is None:
        max_velocity = notes.velocity.max(initial=1)
    return resolve(rects_of(notes.pitch - PITCH_MIN, *note_columns(notes),
                            notes.velocity / max_velocity))


def write_roll(path, rects) -> None:
    """Write a roll's rectangles (``paint_roll``'s, say)."""
    rects = np.asarray(rects, RECT)
    with open(path, "wb") as fh:
        fh.write(_ROLL_HEADER.pack(ROLL_MAGIC, len(rects)))
        fh.write(rects.tobytes())


def read_roll(path) -> np.ndarray:
    """The 88x3000 float32 roll in a roll file. A damaged file is a
    ParseError naming it: a bad header, a size other than the header's
    record count implies, or a record off the roll, empty, overlapping
    another in its row, or with a value not in (0, 1]."""
    data = Path(path).read_bytes()
    if len(data) < _ROLL_HEADER.size or data[:4] != ROLL_MAGIC:
        raise ParseError(f"{path}: bad roll header")
    n = _ROLL_HEADER.unpack_from(data)[1]
    if len(data) != _ROLL_HEADER.size + n * RECT.itemsize:
        raise ParseError(f"{path}: truncated roll: {n} records declared")
    rects = np.frombuffer(data, RECT, n, _ROLL_HEADER.size)
    row, c0, c1, value = (rects[f] for f in RECT.names)
    for bad, what in (((row < 0) | (row >= ROLL_HEIGHT), "row outside 0..87"),
                      ((c0 < 0) | (c0 >= c1) | (c1 > ROLL_WIDTH),
                       "columns not 0 <= c0 < c1 <= 3000"),
                      (~((value > 0) & (value <= 1)), "value not in (0, 1]"),
                      (tangled(rects), "span overlaps another in its row")):
        if bad.any():
            raise ParseError(f"{path}: record {int(np.argmax(bad))}: {what}")
    return paint(rects)

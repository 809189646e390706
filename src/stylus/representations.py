"""Factorised piano rolls: melody, harmony, rhythm and dynamics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (PITCH_MAX, PITCH_MIN, ROLL_HEIGHT, ROLL_WIDTH,
                     VELOCITY_MAX, Clip, note_columns, paint, rects_of,
                     resolve)
from .features import frame_pitches, quantise, skyline
from .rng import derive_rng

MIN_CHORD_NOTES = 3


@dataclass(frozen=True)
class FactorisedRolls:
    melody: np.ndarray
    harmony: np.ndarray
    rhythm: np.ndarray
    dynamics: np.ndarray


def equal_spans(total: int, parts: int) -> list[tuple[int, int]]:
    """Partition ``total`` columns into ``parts`` contiguous spans (none for
    no parts).

    Largest-remainder allocation: spans differ by at most one column and the
    earliest spans take the extra columns.
    """
    base, extra = divmod(total, max(parts, 1))
    ends = [i * base + min(i, extra) for i in range(parts + 1)]
    return list(zip(ends, ends[1:]))


def melody_roll(c: Clip, rects: bool = False) -> np.ndarray:
    """Skyline notes laid left-to-right with equal spacing, binary values;
    with ``rects``, the roll's rectangles, which the other roll functions
    here always return."""
    melody = skyline(quantise(c)).pitch
    spans = np.reshape(equal_spans(ROLL_WIDTH, melody.size), (-1, 2))
    out = rects_of(melody - PITCH_MIN, *spans.T, 1.0)
    return out if rects else paint(out)


def harmony_roll(c: Clip, min_notes: int = MIN_CHORD_NOTES) -> np.ndarray:
    """Chords (onset bins with >= min_notes distinct pitches), equal spacing,
    binary values. No upper bound on chord size."""
    pitch, _, sizes = frame_pitches(quantise(c))
    chords = sizes >= min_notes
    spans = np.repeat(equal_spans(ROLL_WIDTH, int(chords.sum())),
                      sizes[chords], axis=0).reshape(-1, 2)
    return rects_of(pitch[np.repeat(chords, sizes)] - PITCH_MIN, *spans.T, 1.0)


def _random_free_row(rng, busy):
    """Draw a uniform pitch row, re-drawing while it is one of ``busy``."""
    for _ in range(256):
        row = int(rng.integers(PITCH_MIN, PITCH_MAX + 1)) - PITCH_MIN
        if row not in busy:
            return row
    # fall back to any free row; give up on uniformity rather than loop
    free = [r for r in range(ROLL_HEIGHT) if r not in busy]
    return free[len(free) // 2] if free else row


def _random_free_rows(rng, c0, c1) -> list:
    """A ``_random_free_row`` per span [c0, c1), spans in order of c0, clear
    of the rows of the earlier spans that end after it starts."""
    rows, placed = [], []     # placed: (row, end) of spans not yet ended
    for a, b in zip(c0.tolist(), c1.tolist()):
        placed = [(r, end) for r, end in placed if end > a]
        rows.append(_random_free_row(rng, {r for r, _ in placed}))
        placed.append((rows[-1], b))
    return rows


def rhythm_roll(c: Clip, seed: int = 0) -> np.ndarray:
    """Source onset/offset columns with pitches re-drawn uniformly."""
    rng = derive_rng(seed, "rhythm", c.parent_id, repr(c.start))
    c0, c1 = note_columns(c.notes)
    return resolve(rects_of(_random_free_rows(rng, c0, c1), c0, c1, 1.0))


def dynamics_roll(c: Clip, seed: int = 0) -> np.ndarray:
    """Onset bins (no minimum size) with equal spacing, random pitches and
    velocity / 127 values; where no row is free, the later note's wins."""
    frames = quantise(c)
    starts = frames.starts
    # each note takes its frame's span; a frame's notes keep their order
    c0, c1 = np.repeat(equal_spans(ROLL_WIDTH, starts.size),
                       np.diff(starts, append=len(frames.notes)),
                       axis=0).reshape(-1, 2).T
    rng = derive_rng(seed, "dynamics", c.parent_id, repr(c.start))
    return resolve(rects_of(_random_free_rows(rng, c0, c1), c0, c1,
                            frames.notes.velocity / VELOCITY_MAX), last=True)


def factorised(c: Clip, seed: int = 0, min_chord_notes: int = MIN_CHORD_NOTES):
    """Each factorised roll's name and rectangles, made when it is read."""
    yield "melody", melody_roll(c, rects=True)
    yield "harmony", harmony_roll(c, min_chord_notes)
    yield "rhythm", rhythm_roll(c, seed)
    yield "dynamics", dynamics_roll(c, seed)


def factorise(c: Clip, seed: int = 0,
              min_chord_notes: int = MIN_CHORD_NOTES) -> FactorisedRolls:
    """The four factorised rolls, painted."""
    return FactorisedRolls(**{name: paint(r) for name, r in factorised(
        c, seed, min_chord_notes)})

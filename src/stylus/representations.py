"""Factorised piano rolls: melody, harmony, rhythm and dynamics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (PITCH_MAX, PITCH_MIN, ROLL_HEIGHT, ROLL_WIDTH, Clip,
                     note_columns)
from .features import frame_pitches, quantise, skyline
from .rng import derive_rng

MIN_CHORD_NOTES = 3
VELOCITY_CEILING = 127.0


@dataclass(frozen=True)
class FactorisedRolls:
    melody: np.ndarray
    harmony: np.ndarray
    rhythm: np.ndarray
    dynamics: np.ndarray
    parent_id: str = ""


def equal_spans(total: int, parts: int) -> list[tuple[int, int]]:
    """Partition ``total`` columns into ``parts`` contiguous spans.

    Largest-remainder allocation: spans differ by at most one column and the
    earliest spans take the extra columns.
    """
    base, extra = divmod(total, parts)
    spans = []
    pos = 0
    for i in range(parts):
        width = base + (1 if i < extra else 0)
        spans.append((pos, pos + width))
        pos += width
    return spans


def melody_roll(c: Clip) -> np.ndarray:
    """Skyline notes laid left-to-right with equal spacing, binary values."""
    roll = np.zeros((ROLL_HEIGHT, ROLL_WIDTH), dtype=np.float32)
    melody = skyline(quantise(c)).pitch
    if not melody.size:
        return roll
    for (c0, c1), pitch in zip(equal_spans(ROLL_WIDTH, melody.size),
                               melody.tolist()):
        roll[pitch - PITCH_MIN, c0:c1] = 1.0
    return roll


def harmony_roll(c: Clip, min_notes: int = MIN_CHORD_NOTES) -> np.ndarray:
    """Chords (onset bins with >= min_notes distinct pitches), equal spacing,
    binary values. No upper bound on chord size."""
    roll = np.zeros((ROLL_HEIGHT, ROLL_WIDTH), dtype=np.float32)
    pitch, starts, sizes = frame_pitches(quantise(c))
    chords = sizes >= min_notes
    if not chords.any():
        return roll
    for (c0, c1), start, size in zip(
            equal_spans(ROLL_WIDTH, int(chords.sum())),
            starts[chords].tolist(), sizes[chords].tolist()):
        roll[pitch[start:start + size] - PITCH_MIN, c0:c1] = 1.0
    return roll


def _random_free_row(rng, c0, c1, roll):
    """Draw a uniform pitch row, re-drawing on overlap with a note painted
    in ``roll`` (every painted cell is non-zero, at least 1/127)."""
    for _ in range(256):
        row = int(rng.integers(PITCH_MIN, PITCH_MAX + 1)) - PITCH_MIN
        if not roll[row, c0:c1].any():
            return row
    # fall back to any free row; give up on uniformity rather than loop
    free = [r for r in range(ROLL_HEIGHT) if not roll[r, c0:c1].any()]
    return free[len(free) // 2] if free else row


def rhythm_roll(c: Clip, seed: int = 0) -> np.ndarray:
    """Source onset/offset columns with pitches re-drawn uniformly."""
    roll = np.zeros((ROLL_HEIGHT, ROLL_WIDTH), dtype=np.float32)
    rng = derive_rng(seed, "rhythm", c.parent_id, repr(c.start))
    for c0, c1 in zip(*(col.tolist() for col in note_columns(c.notes))):
        roll[_random_free_row(rng, c0, c1, roll), c0:c1] = 1.0
    return roll


def dynamics_roll(c: Clip, seed: int = 0) -> np.ndarray:
    """Onset bins (no minimum size) with equal spacing, random pitches and
    velocity / 127 values."""
    roll = np.zeros((ROLL_HEIGHT, ROLL_WIDTH), dtype=np.float32)
    if not len(c.notes):
        return roll
    frames = quantise(c)
    starts = frames.starts
    # each note takes its frame's span; a frame's notes keep their order
    spans = np.repeat(equal_spans(ROLL_WIDTH, starts.size),
                      np.diff(starts, append=len(frames.notes)), axis=0)
    rng = derive_rng(seed, "dynamics", c.parent_id, repr(c.start))
    for (c0, c1), velocity in zip(spans.tolist(),
                                  frames.notes.velocity.tolist()):
        roll[_random_free_row(rng, c0, c1, roll), c0:c1] = (
            velocity / VELOCITY_CEILING)
    return roll


def factorised(c: Clip, seed: int = 0, min_chord_notes: int = MIN_CHORD_NOTES):
    """Each factorised roll's name and roll, made when it is read."""
    yield "melody", melody_roll(c)
    yield "harmony", harmony_roll(c, min_chord_notes)
    yield "rhythm", rhythm_roll(c, seed)
    yield "dynamics", dynamics_roll(c, seed)


def factorise(c: Clip, seed: int = 0,
              min_chord_notes: int = MIN_CHORD_NOTES) -> FactorisedRolls:
    return FactorisedRolls(**dict(factorised(c, seed, min_chord_notes)),
                           parent_id=c.parent_id)

"""Factorised piano rolls: melody, harmony, rhythm and dynamics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import (CLIP_SECONDS, PITCH_MAX, PITCH_MIN, ROLL_HEIGHT,
                     ROLL_WIDTH, Clip, time_to_column)
from .features import GRID_SECONDS, _frame_index, quantise, skyline
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


def _clip_frames(c: Clip, grid: float = GRID_SECONDS):
    """Onset bins of a clip: list of (frame index, notes)."""
    frames: dict[int, list] = {}
    for n in c.notes:
        frames.setdefault(_frame_index(n.onset, grid), []).append(n)
    return sorted(frames.items())


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
    chords = []
    for _, notes in _clip_frames(c):
        pitches = sorted({n.pitch for n in notes})
        if len(pitches) >= min_notes:
            chords.append(pitches)
    if not chords:
        return roll
    for (c0, c1), pitches in zip(equal_spans(ROLL_WIDTH, len(chords)), chords):
        for p in pitches:
            roll[p - PITCH_MIN, c0:c1] = 1.0
    return roll


def _random_free_row(rng, c0, c1, occupancy):
    """Draw a uniform pitch row, re-drawing on exact overlap with a
    previously placed note in the same rows and columns."""
    for _ in range(256):
        row = int(rng.integers(PITCH_MIN, PITCH_MAX + 1)) - PITCH_MIN
        if not occupancy[row, c0:c1].any():
            return row
    # fall back to any free row; give up on uniformity rather than loop
    free = [r for r in range(ROLL_HEIGHT) if not occupancy[r, c0:c1].any()]
    if free:
        return free[len(free) // 2]
    return row


def rhythm_roll(c: Clip, seed: int = 0) -> np.ndarray:
    """Source onset/offset columns with pitches re-drawn uniformly."""
    roll = np.zeros((ROLL_HEIGHT, ROLL_WIDTH), dtype=np.float32)
    rng = derive_rng(seed, "rhythm", c.parent_id, repr(c.start))
    occupancy = np.zeros((ROLL_HEIGHT, ROLL_WIDTH), dtype=bool)
    for n in c.notes:
        c0 = time_to_column(n.onset)
        c1 = max(time_to_column(min(n.offset, CLIP_SECONDS)), c0 + 1)
        c0 = min(c0, ROLL_WIDTH - 1)
        c1 = min(c1, ROLL_WIDTH)
        row = _random_free_row(rng, c0, c1, occupancy)
        occupancy[row, c0:c1] = True
        roll[row, c0:c1] = 1.0
    return roll


def dynamics_roll(c: Clip, seed: int = 0) -> np.ndarray:
    """Onset bins (no minimum size) with equal spacing, random pitches and
    velocity / 127 values."""
    roll = np.zeros((ROLL_HEIGHT, ROLL_WIDTH), dtype=np.float32)
    bins = _clip_frames(c)
    if not bins:
        return roll
    rng = derive_rng(seed, "dynamics", c.parent_id, repr(c.start))
    occupancy = np.zeros((ROLL_HEIGHT, ROLL_WIDTH), dtype=bool)
    for (c0, c1), (_, notes) in zip(equal_spans(ROLL_WIDTH, len(bins)), bins):
        for n in notes:
            row = _random_free_row(rng, c0, c1, occupancy)
            occupancy[row, c0:c1] = True
            roll[row, c0:c1] = n.velocity / VELOCITY_CEILING
    return roll


def factorise(c: Clip, seed: int = 0,
              min_chord_notes: int = MIN_CHORD_NOTES) -> FactorisedRolls:
    return FactorisedRolls(melody=melody_roll(c),
                           harmony=harmony_roll(c, min_chord_notes),
                           rhythm=rhythm_roll(c, seed),
                           dynamics=dynamics_roll(c, seed),
                           parent_id=c.parent_id)

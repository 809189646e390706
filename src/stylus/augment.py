"""Stochastic clip augmentation: pitch shift, time dilation, velocity jitter."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .corpus import (CLIP_SECONDS, PITCH_MAX, PITCH_MIN, VELOCITY_MAX,
                     VELOCITY_MIN, Clip, Transcription)
from .rng import derive_rng

log = logging.getLogger("stylus")

MAX_PITCH_SHIFT = 6
DILATION_RANGE = (0.8, 1.2)
VELOCITY_DELTA = 12
APPLY_PROBABILITY = 0.5


@dataclass(frozen=True)
class AugmentConfig:
    max_shift: int = MAX_PITCH_SHIFT
    dilation_range: tuple = DILATION_RANGE
    velocity_delta: int = VELOCITY_DELTA
    apply_probability: float = APPLY_PROBABILITY
    seed: int = 0

    def __post_init__(self):
        if self.max_shift < 0 or self.velocity_delta < 0:
            raise ValueError("bounds must be non-negative")
        if not 0.0 <= self.apply_probability <= 1.0:
            raise ValueError("apply_probability must be in [0, 1]")


@dataclass(frozen=True)
class AugmentResult:
    clip: Clip
    applied: bool
    pitch_shift: int = 0
    dilation: float = 1.0
    refill_missing: bool = False


def pitch_shift(c: Clip, rng, max_shift: int = MAX_PITCH_SHIFT) -> Clip:
    """Shift every pitch by one uniform integer draw, bounded so the whole
    clip stays on the keyboard. Intervals are preserved."""
    p_min = min(n.pitch for n in c.notes)
    p_max = max(n.pitch for n in c.notes)
    bound = min(max_shift, p_min - PITCH_MIN, PITCH_MAX - p_max)
    s = int(rng.integers(-bound, bound + 1)) if bound > 0 else 0
    if s == 0:
        return c
    return replace(c, notes=tuple(replace(n, pitch=n.pitch + s)
                                  for n in c.notes))


def _dilate_notes(notes, t: float):
    out = []
    for n in notes:
        onset = n.onset * t
        offset = n.offset * t
        if onset >= CLIP_SECONDS or (t > 1 and offset > CLIP_SECONDS):
            continue
        out.append(replace(n, onset=onset, offset=offset))
    return out


def time_dilate(c: Clip, rng, parent: Transcription | None = None,
                dilation_range: tuple = DILATION_RANGE) -> tuple[Clip, float, bool]:
    """Scale all note times by a uniform draw t.

    With t > 1, notes pushed past the 30 s boundary are dropped; with t < 1,
    parent notes just beyond the original clip whose scaled onset lands
    inside the window are pulled in. Returns (clip, t, refill_missing).
    """
    t = float(rng.uniform(*dilation_range))
    notes = _dilate_notes(c.notes, t)
    refill_missing = False
    if t < 1:
        if parent is None:
            refill_missing = True
            log.warning("%s: no parent context for t=%.3f refill", c.parent_id, t)
        else:
            rel = parent.notes.onset - c.start
            pulled = parent.notes[(rel >= CLIP_SECONDS)
                                  & (rel * t < CLIP_SECONDS)]
            for n in pulled:
                notes.append(replace(n, onset=(n.onset - c.start) * t,
                                     offset=(n.offset - c.start) * t))
    return replace(c, notes=tuple(notes)), t, refill_missing


def velocity_jitter(c: Clip, rng, delta: int = VELOCITY_DELTA) -> Clip:
    """Perturb every velocity independently by U(-delta, delta), clamped to
    the valid MIDI range [1, 127]."""
    draws = rng.integers(-delta, delta + 1, size=len(c.notes))
    notes = tuple(replace(n, velocity=int(np.clip(n.velocity + d,
                                                  VELOCITY_MIN, VELOCITY_MAX)))
                  for n, d in zip(c.notes, draws))
    return replace(c, notes=notes)


def augment(c: Clip, config: AugmentConfig = AugmentConfig(),
            parent: Transcription | None = None,
            clip_key=None) -> AugmentResult:
    """Apply the gated pitch -> time -> velocity pipeline to one clip.

    Fully reproducible from (clip, parent, config.seed); ``clip_key``
    extends the derivation for per-clip streams.
    """
    if not c.notes:
        return AugmentResult(clip=c, applied=False)
    key = clip_key if clip_key is not None else (c.parent_id, repr(c.start))
    rng = derive_rng(config.seed, "augment", key)
    if rng.random() >= config.apply_probability:
        return AugmentResult(clip=c, applied=False)
    out = pitch_shift(c, rng, config.max_shift)
    shift = (out.notes[0].pitch - c.notes[0].pitch) if c.notes else 0
    out, t, refill_missing = time_dilate(out, rng, parent,
                                         config.dilation_range)
    out = velocity_jitter(out, rng, config.velocity_delta)
    return AugmentResult(clip=out, applied=True, pitch_shift=shift,
                         dilation=t, refill_missing=refill_missing)

"""Stochastic clip augmentation: pitch shift, time dilation, velocity jitter."""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from .corpus import (CLIP_SECONDS, PITCH_MAX, PITCH_MIN, VELOCITY_MAX,
                     VELOCITY_MIN, Clip, NoteArray, Transcription)
from .rng import derive_rng

log = logging.getLogger("stylus")

MAX_PITCH_SHIFT = 6
DILATION_RANGE = (0.8, 1.2)
VELOCITY_DELTA = 12
APPLY_PROBABILITY = 0.5


@dataclass(frozen=True)
class AugmentConfig:
    seed: int = 0


@dataclass(frozen=True)
class AugmentResult:
    clip: Clip
    applied: bool
    pitch_shift: int = 0
    dilation: float = 1.0
    refill_missing: bool = False


def pitch_shift(c: Clip, rng) -> Clip:
    """Shift every pitch by one uniform integer draw of at most
    ``MAX_PITCH_SHIFT``, bounded so the whole clip stays on the keyboard.
    Intervals are preserved."""
    n = c.notes
    bound = min(MAX_PITCH_SHIFT, int(n.pitch.min()) - PITCH_MIN,
                PITCH_MAX - int(n.pitch.max()))
    s = int(rng.integers(-bound, bound + 1)) if bound > 0 else 0
    if s == 0:
        return c
    return replace(c, notes=NoteArray(n.onset, n.offset, n.pitch + s,
                                      n.velocity))


def time_dilate(c: Clip, rng, parent: Transcription | None = None
                ) -> tuple[Clip, float, bool]:
    """Scale all note times by a uniform draw t in ``DILATION_RANGE``.

    With t > 1, notes pushed past the 30 s boundary are dropped; with t < 1,
    parent notes just beyond the original clip whose scaled onset lands
    inside the window are pulled in. Returns (clip, t, refill_missing).
    """
    t = float(rng.uniform(*DILATION_RANGE))
    n = c.notes
    onset, offset = n.onset * t, n.offset * t
    kept = (onset < CLIP_SECONDS) & ((t <= 1) | (offset <= CLIP_SECONDS))
    parts = [(onset[kept], offset[kept], n.pitch[kept], n.velocity[kept])]
    refill_missing = False
    if t < 1:
        if parent is None:
            refill_missing = True
            log.warning("%s: no parent context for t=%.3f refill", c.parent_id, t)
        else:
            rel = parent.notes.onset - c.start
            pulled = parent.notes[(rel >= CLIP_SECONDS)
                                  & (rel * t < CLIP_SECONDS)]
            parts.append(((pulled.onset - c.start) * t,
                          (pulled.offset - c.start) * t,
                          pulled.pitch, pulled.velocity))
    notes = NoteArray(*map(np.concatenate, zip(*parts)))
    return replace(c, notes=notes), t, refill_missing


def velocity_jitter(c: Clip, rng) -> Clip:
    """Perturb every velocity independently by a uniform integer draw in
    +-``VELOCITY_DELTA``, clamped to the valid MIDI range [1, 127]."""
    n = c.notes
    draws = rng.integers(-VELOCITY_DELTA, VELOCITY_DELTA + 1, size=len(n))
    return replace(c, notes=NoteArray(
        n.onset, n.offset, n.pitch,
        np.clip(n.velocity + draws, VELOCITY_MIN, VELOCITY_MAX)))


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
    if rng.random() >= APPLY_PROBABILITY:
        return AugmentResult(clip=c, applied=False)
    out = pitch_shift(c, rng)
    shift = int(out.notes.pitch[0] - c.notes.pitch[0])
    out, t, refill_missing = time_dilate(out, rng, parent)
    out = velocity_jitter(out, rng)
    return AugmentResult(clip=out, applied=True, pitch_shift=shift,
                         dilation=t, refill_missing=refill_missing)

"""Synthetic corpus with planted performer signatures.

The real corpora are not redistributable, so this generator fabricates
performers whose recordings contain signature melodic patterns and chord
voicings at a configurable multiple of the shared base rate. It provides the
desk-scale ground truth used by the acceptance suite.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from pathlib import Path

from .corpus import (MANIFEST_COLUMNS, NoteArray, Transcription,
                     write_note_events, write_table)
from .rng import derive_rng

EVENT_SPACING = 4.0     # leaves > 2 s of silence between events, so
                        # phrases never chain into one n-gram
NOTE_SPACING = 0.25
NOTE_DURATION = 0.2
# recordings generated before their files are written; a file after each
# recording made set-up 10-15% slower (the two evict each other's caches)
WRITE_BATCH = 32


@dataclass(frozen=True)
class SyntheticConfig:
    n_performers: int = 10
    n_recordings: int = 40          # per performer, half solo / half trio
    n_signature_ngrams: int = 5
    n_signature_voicings: int = 3
    signature_rate: float = 3.0     # multiple of the base-feature rate
    n_base_ngrams: int = 20
    n_base_voicings: int = 12
    events_per_recording: int = 40
    seed: int = 0


def _random_ngram(rng):
    n = int(rng.integers(3, 6))
    while True:
        deltas = [0] + [int(rng.integers(-12, 13)) for _ in range(n - 1)]
        if max(deltas) - min(deltas) <= 12:
            return tuple(deltas)


def _random_voicing(rng):
    n = int(rng.integers(3, 5))
    while True:
        offsets = sorted(rng.choice(range(1, 25), size=n - 1, replace=False))
        voicing = (0,) + tuple(int(o) for o in offsets)
        gaps = [b - a for a, b in zip(voicing, voicing[1:])]
        if sum(g > 15 for g in gaps) < 2:
            return voicing


def _distinct(draw, rng, count, taken):
    out = []
    while len(out) < count:
        f = draw(rng)
        if f not in taken:
            taken.add(f)
            out.append(f)
    return out


def build_pools(config: SyntheticConfig):
    """Base feature pools plus per-performer signature features."""
    rng = derive_rng(config.seed, "pools")
    taken: set = set()
    base_ngrams = _distinct(_random_ngram, rng, config.n_base_ngrams, taken)
    base_voicings = _distinct(_random_voicing, rng, config.n_base_voicings,
                              taken)
    signatures = {}
    for p in range(config.n_performers):
        signatures[p] = (
            _distinct(_random_ngram, rng, config.n_signature_ngrams, taken),
            _distinct(_random_voicing, rng, config.n_signature_voicings,
                      taken))
    return base_ngrams, base_voicings, signatures


def _weighted_table(items, weights):
    """``items`` with the running sums and the total of their weights, as
    ``_weighted_choice`` takes them; built once per recording."""
    return items, list(itertools.accumulate(weights)), sum(weights)


def _weighted_choice(rng, table):
    items, cumulative, total = table
    r = rng.random() * total
    i = bisect.bisect_right(cumulative, r)
    return items[i] if i < len(items) else items[-1]


def _melody_notes(deltas, start: float, rng):
    """Onsets and pitches of one planted melodic pattern."""
    base = int(rng.integers(50, 70))
    lo, hi = min(deltas), max(deltas)
    base = max(21 - lo, min(base, 108 - hi))
    return ([start + i * NOTE_SPACING for i in range(len(deltas))],
            [base + d for d in deltas])


def _voicing_notes(offsets, start: float, rng):
    """Onsets and pitches of one planted chord voicing."""
    bass = int(rng.integers(36, 56))
    bass = min(bass, 108 - max(offsets))
    return [start] * len(offsets), [bass + o for o in offsets]


def generate_recording(performer: int, index: int, pools,
                       config: SyntheticConfig) -> Transcription:
    """One recording, built as note columns in draw order."""
    base_ngrams, base_voicings, signatures = pools
    sig_ngrams, sig_voicings = signatures[performer]
    rng = derive_rng(config.seed, "recording", performer, index)
    ngrams = _weighted_table(base_ngrams + sig_ngrams,
                             [1.0] * len(base_ngrams)
                             + [config.signature_rate] * len(sig_ngrams))
    voicings = _weighted_table(base_voicings + sig_voicings,
                               [1.0] * len(base_voicings)
                               + [config.signature_rate] * len(sig_voicings))
    onset, offset, pitch, velocity = [], [], [], []
    for e in range(config.events_per_recording):
        start = e * EVENT_SPACING
        if rng.random() < 0.6:
            pattern = _weighted_choice(rng, ngrams)
            onsets, pitches = _melody_notes(pattern, start, rng)
        else:
            voicing = _weighted_choice(rng, voicings)
            onsets, pitches = _voicing_notes(voicing, start, rng)
        onset += onsets
        offset += [on + NOTE_DURATION for on in onsets]
        pitch += pitches
        # under PCG64 one sized draw yields the values of len(pitches)
        # scalar draws, so corpora stay byte-identical per seed
        velocity += rng.integers(40, 101, size=len(pitches)).tolist()
    tag = "solo" if index < config.n_recordings // 2 else "trio"
    return Transcription(recording_id=f"p{performer:02d}r{index:03d}",
                         performer=f"performer_{performer:02d}",
                         dataset_tag=tag,
                         notes=NoteArray(onset, offset, pitch, velocity))


def _recordings(config: SyntheticConfig):
    """Each recording of the corpus, generated when asked for."""
    pools = build_pools(config)
    return (generate_recording(p, i, pools, config)
            for p in range(config.n_performers)
            for i in range(config.n_recordings))


def generate_corpus(config: SyntheticConfig = SyntheticConfig()):
    return list(_recordings(config))


def write_corpus(out_dir, config: SyntheticConfig = SyntheticConfig()):
    """Write note files plus a manifest, ``WRITE_BATCH`` recordings at a
    time, so memory holds one batch, not the corpus; returns its path."""
    out_dir = Path(out_dir)
    (out_dir / "notes").mkdir(parents=True, exist_ok=True)
    recordings = _recordings(config)

    def rows():
        while batch := list(itertools.islice(recordings, WRITE_BATCH)):
            for t in batch:
                path = out_dir / "notes" / f"{t.recording_id}.jsonl"
                write_note_events(path, t.notes)
                yield [t.recording_id, t.performer, t.dataset_tag, str(path)]
    write_table(out_dir / "manifest.csv", MANIFEST_COLUMNS, rows())
    return out_dir / "manifest.csv"

"""Synthetic corpus with planted performer signatures.

The real corpora are not redistributable, so this generator fabricates
performers whose recordings contain signature melodic patterns and chord
voicings at a configurable multiple of the shared base rate. It provides the
desk-scale ground truth used by the acceptance suite.
"""

from __future__ import annotations

import bisect
import itertools
import os
from dataclasses import dataclass
from pathlib import Path

from .corpus import (MANIFEST_COLUMNS, NoteArray, Transcription, replacing,
                     write_note_events, write_table)
from .rng import derive_rng

EVENT_SPACING = 4.0     # leaves > 2 s of silence between events, so
                        # phrases never chain into one n-gram
NOTE_SPACING = 0.25
NOTE_DURATION = 0.2
# recordings per task, generated before their files are written: a file
# after each recording made set-up 10-15% slower (they evict caches)
WRITE_BATCH = 32
# distinct features drawn for the shared pools, and for each performer
N_BASE_NGRAMS = 20
N_BASE_VOICINGS = 12
N_SIGNATURE_NGRAMS = 5
N_SIGNATURE_VOICINGS = 3


@dataclass(frozen=True)
class SyntheticConfig:
    n_performers: int = 10
    n_recordings: int = 40          # per performer, half solo / half trio
    signature_rate: float = 3.0     # multiple of the base-feature rate
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
    base_ngrams = _distinct(_random_ngram, rng, N_BASE_NGRAMS, taken)
    base_voicings = _distinct(_random_voicing, rng, N_BASE_VOICINGS, taken)
    signatures = {}
    for p in range(config.n_performers):
        signatures[p] = (
            _distinct(_random_ngram, rng, N_SIGNATURE_NGRAMS, taken),
            _distinct(_random_voicing, rng, N_SIGNATURE_VOICINGS, taken))
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


def _batches(config: SyntheticConfig):
    """Each recording's (performer, index) in order, in ``WRITE_BATCH``s."""
    keys = [(p, i) for p in range(config.n_performers)
            for i in range(config.n_recordings)]
    return [keys[k:k + WRITE_BATCH] for k in range(0, len(keys), WRITE_BATCH)]


def generate_corpus(config: SyntheticConfig = SyntheticConfig()):
    pools = build_pools(config)
    return [generate_recording(p, i, pools, config)
            for batch in _batches(config) for p, i in batch]


def write_plan(config: SyntheticConfig) -> dict:
    """``write_corpus``'s recordings, batches and worker processes: one per
    batch, up to the CPUs this process may run on."""
    batches = _batches(config)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return {"recordings": sum(map(len, batches)), "batches": len(batches),
            "workers": max(1, min(len(batches), cpus))}


def _write_batch(out_dir: Path, pools, config: SyntheticConfig, batch):
    """Write ``batch``'s note files; (recording_id, performer, tag) of each."""
    recordings = [generate_recording(p, i, pools, config) for p, i in batch]
    for t in recordings:
        write_note_events(out_dir / f"notes/{t.recording_id}.jsonl", t.notes)
    return [(t.recording_id, t.performer, t.dataset_tag) for t in recordings]


def write_corpus(out_dir, config: SyntheticConfig = SyntheticConfig()):
    """Write note files, then the manifest; returns its path. Batches run
    inline for one ``write_plan`` worker, else on a process pool, so a script
    calling this needs an ``if __name__ == "__main__":`` guard; each
    recording has its own stream, so the bytes match. No manifest on error."""
    out_dir, workers = Path(out_dir), write_plan(config)["workers"]
    (out_dir / "notes").mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.csv"
    manifest.unlink(missing_ok=True)
    fixed = [itertools.repeat(a)
             for a in (out_dir.absolute(), build_pools(config), config)]
    if workers == 1:
        done = list(map(_write_batch, *fixed, _batches(config)))
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers) as pool:
            done = list(pool.map(_write_batch, *fixed, _batches(config)))
    with replacing(manifest) as tmp:
        write_table(tmp, MANIFEST_COLUMNS, (
            [*row, str(out_dir / "notes" / f"{row[0]}.jsonl")]
            for rows in done for row in rows))
    return manifest

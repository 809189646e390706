from collections import Counter

import numpy as np
import pytest
from scipy import stats

from stylus import augment
from stylus.augment import AugmentConfig
from stylus.corpus import Clip, NoteEvent, Transcription
from stylus.rng import derive_rng


def note(onset, pitch, offset=None, velocity=64):
    return NoteEvent(onset=onset, pitch=pitch,
                     offset=offset if offset is not None else onset + 0.2,
                     velocity=velocity)


def clip(notes, parent="r", start=0.0):
    return Clip(parent_id=parent, performer="p", start=start,
                notes=tuple(notes))


def intervals(notes):
    ps = sorted(n.pitch for n in notes)
    return Counter(b - a for a in ps for b in ps if b > a)


class TestPitchShift:
    def test_bound_respects_keyboard_edges(self):
        # lowest pitch 23: 2 semitones of headroom, symmetric bound
        c = clip([note(0.0, 23), note(1.0, 60)])
        seen = set()
        for i in range(200):
            rng = derive_rng(i, "t")
            out = augment.pitch_shift(c, rng)
            s = out.notes[0].pitch - 23
            seen.add(s)
        assert seen == set(range(-2, 3))

    def test_bound_zero_keeps_clip(self):
        c = clip([note(0.0, 21), note(1.0, 108)])
        rng = derive_rng(0, "t")
        assert augment.pitch_shift(c, rng) is c

    def test_intervals_preserved(self):
        rng_data = np.random.default_rng(0)
        for i in range(50):
            pitches = rng_data.integers(30, 100, size=8)
            c = clip([note(j * 0.5, int(p)) for j, p in enumerate(pitches)])
            out = augment.pitch_shift(c, derive_rng(i, "t"))
            assert intervals(out.notes) == intervals(c.notes)


class TestTimeDilate:
    def _parent(self):
        notes = [note(t, 60 + (t % 12)) for t in range(0, 50, 2)]
        return Transcription("r", "p", "solo", notes=tuple(notes))

    def test_compression_refills_from_parent(self, monkeypatch):
        parent = self._parent()
        c = clip([note(n.onset, n.pitch) for n in parent.notes
                  if n.onset < 30], parent="r")
        rng = derive_rng(0, "compress")
        monkeypatch.setattr(augment, "DILATION_RANGE", (0.8, 0.8))
        out, t, missing = augment.time_dilate(c, rng, parent)
        assert t == 0.8
        assert not missing
        # parent notes at 30..36 s scale into the window
        assert len(out.notes) > len(c.notes)
        assert max(n.onset for n in out.notes) < 30.0

    def test_stretch_drops_notes_past_window(self, monkeypatch):
        c = clip([note(1.0, 60), note(28.0, 62, offset=29.0)])
        rng = derive_rng(0, "stretch")
        monkeypatch.setattr(augment, "DILATION_RANGE", (1.2, 1.2))
        out, t, _ = augment.time_dilate(c, rng, None)
        assert t == 1.2
        # 28 s scales to 33.6 s: dropped; 1 s note survives
        assert [n.pitch for n in out.notes] == [60]
        assert out.notes[0].onset == pytest.approx(1.2)

    def test_missing_parent_flag_and_warning(self, caplog, monkeypatch):
        import logging
        c = clip([note(1.0, 60)])
        monkeypatch.setattr(augment, "DILATION_RANGE", (0.9, 0.9))
        with caplog.at_level(logging.WARNING, logger="stylus"):
            _, t, missing = augment.time_dilate(c, derive_rng(0, "m"), None)
        assert missing
        assert any("refill" in r.message for r in caplog.records)

    def test_identity_no_refill_flag(self, monkeypatch):
        c = clip([note(1.0, 60)])
        monkeypatch.setattr(augment, "DILATION_RANGE", (1.1, 1.1))
        _, t, missing = augment.time_dilate(c, derive_rng(0, "i"), None)
        assert not missing


class TestVelocityJitter:
    def test_per_note_clamped(self):
        c = clip([note(0.0, 60, velocity=2), note(1.0, 62, velocity=126)])
        for i in range(100):
            out = augment.velocity_jitter(c, derive_rng(i, "v"))
            for n in out.notes:
                assert 1 <= n.velocity <= 127

    def test_delta_distribution_uniform(self):
        c = clip([note(0.0, 60, velocity=64)])
        deltas = [augment.velocity_jitter(c, derive_rng(i, "d")).notes[0]
                  .velocity - 64 for i in range(5000)]
        counts = Counter(deltas)
        assert set(counts) == set(range(-12, 13))
        p = stats.chisquare([counts[d] for d in range(-12, 13)]).pvalue
        assert p > 0.01


class TestAugmentPipeline:
    def _clips(self, n):
        return [clip([note(1.0, 50 + i % 20, velocity=60),
                      note(2.0, 60 + i % 10, velocity=70)],
                     parent=f"r{i}") for i in range(n)]

    def test_gate_rate_near_half(self):
        results = [augment.augment(c) for c in self._clips(4000)]
        rate = sum(r.applied for r in results) / len(results)
        assert 0.45 < rate < 0.55

    def test_not_applied_returns_identity(self):
        for c in self._clips(50):
            r = augment.augment(c)
            if not r.applied:
                assert r.clip is c
                assert r.pitch_shift == 0 and r.dilation == 1.0
                break
        else:
            pytest.fail("no gated-off clip in 50 draws")

    def test_deterministic_per_clip_key(self):
        c = self._clips(1)[0]
        r1 = augment.augment(c, AugmentConfig(seed=3))
        r2 = augment.augment(c, AugmentConfig(seed=3))
        assert r1.applied == r2.applied
        assert r1.clip.notes == r2.clip.notes

    def test_all_invariants_over_many_clips(self):
        parent_notes = tuple(note(float(t), 40 + t % 40)
                             for t in range(0, 60, 1))
        parent = Transcription("r", "p", "solo", notes=parent_notes)
        c = clip([n for n in parent_notes if n.onset < 30], parent="r")
        for seed in range(300):
            r = augment.augment(c, AugmentConfig(seed=seed), parent=parent)
            for n in r.clip.notes:
                assert 21 <= n.pitch <= 108
                assert 1 <= n.velocity <= 127
                assert 0 <= n.onset < 30.0

    def test_empty_clip_passthrough(self):
        c = clip([])
        r = augment.augment(c)
        assert not r.applied and r.clip is c

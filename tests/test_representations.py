import numpy as np
import pytest
from scipy import stats

from stylus import representations
from stylus.corpus import (PITCH_MIN, ROLL_HEIGHT, ROLL_WIDTH, Clip,
                           NoteEvent, paint, time_to_column)


def note(onset, pitch, offset=None, velocity=64):
    return NoteEvent(onset=onset, pitch=pitch,
                     offset=offset if offset is not None else onset + 0.2,
                     velocity=velocity)


def clip(notes, parent="r", start=0.0):
    return Clip(parent_id=parent, performer="p", start=start,
                notes=tuple(notes))


def random_clip(rng, max_notes=20, distinct_pitch_times=False):
    n = int(rng.integers(1, max_notes + 1))
    notes = []
    used = set()
    for _ in range(n):
        onset = round(float(rng.uniform(0, 29.0)), 2)
        pitch = int(rng.integers(21, 109))
        if distinct_pitch_times:
            while (onset, pitch) in used:
                onset = round(float(rng.uniform(0, 29.0)), 2)
                pitch = int(rng.integers(21, 109))
            used.add((onset, pitch))
        notes.append(note(onset, pitch,
                          offset=onset + round(float(rng.uniform(0.05, 2.0)), 2)))
    return clip(notes)


class TestEqualSpans:
    def test_exact_division(self):
        spans = representations.equal_spans(3000, 6)
        assert all(b - a == 500 for a, b in spans)
        assert spans[0] == (0, 500) and spans[-1] == (2500, 3000)

    def test_largest_remainder_seven_parts(self):
        spans = representations.equal_spans(3000, 7)
        widths = [b - a for a, b in spans]
        assert widths == [429, 429, 429, 429, 428, 428, 428]
        assert spans[-1][1] == 3000

    def test_contiguous_cover(self):
        for parts in (1, 3, 11, 13, 88):
            spans = representations.equal_spans(3000, parts)
            assert spans[0][0] == 0 and spans[-1][1] == 3000
            for (_, b), (a2, _) in zip(spans, spans[1:]):
                assert b == a2


class TestMelodyRoll:
    def test_equal_spacing_and_binary(self):
        c = clip([note(0.0, 60), note(1.0, 64), note(2.0, 62)])
        roll = representations.melody_roll(c)
        assert roll.shape == (ROLL_HEIGHT, ROLL_WIDTH)
        assert set(np.unique(roll)) <= {0.0, 1.0}
        assert roll[60 - PITCH_MIN, 0:1000].all()
        assert roll[64 - PITCH_MIN, 1000:2000].all()
        assert roll[62 - PITCH_MIN, 2000:3000].all()
        assert roll.sum() == 3000

    def test_skyline_highest_per_frame(self):
        c = clip([note(0.0, 60), note(0.01, 72), note(1.0, 55)])
        roll = representations.melody_roll(c)
        # 60 and 72 share an onset bin; only 72 survives
        assert roll[72 - PITCH_MIN, :1500].all()
        assert roll[60 - PITCH_MIN].sum() == 0
        assert roll[55 - PITCH_MIN, 1500:].all()

    def test_empty_clip_zero_roll(self):
        assert representations.melody_roll(clip([])).sum() == 0


class TestHarmonyRoll:
    def test_chord_threshold_distinct_pitches(self):
        c = clip([note(0.0, 48), note(0.0, 52), note(0.0, 55),     # chord
                  note(2.0, 60), note(2.0, 64),                    # dyad: out
                  note(4.0, 50), note(4.0, 54), note(4.01, 57)])   # same bin
        roll = paint(representations.harmony_roll(c))
        assert roll[48 - PITCH_MIN, 0:1500].all()
        assert roll[52 - PITCH_MIN, 0:1500].all()
        assert roll[55 - PITCH_MIN, 0:1500].all()
        assert roll[60 - PITCH_MIN].sum() == 0
        assert roll[50 - PITCH_MIN, 1500:].all()

    def test_min_notes_configurable(self):
        c = clip([note(0.0, 60), note(0.0, 64)])
        assert len(representations.harmony_roll(c, min_notes=3)) == 0
        roll = paint(representations.harmony_roll(c, min_notes=2))
        assert roll.sum() == 2 * 3000

    def test_binary_values(self):
        c = clip([note(0.0, 48, velocity=30), note(0.0, 52, velocity=90),
                  note(0.0, 55, velocity=127)])
        roll = paint(representations.harmony_roll(c))
        assert set(np.unique(roll)) == {0.0, 1.0}


class TestRhythmRoll:
    def test_column_profile_matches_source(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            c = random_clip(rng, distinct_pitch_times=True)
            roll = paint(representations.rhythm_roll(c, seed=1))
            profile = np.zeros(ROLL_WIDTH, dtype=int)
            for n in c.notes:
                c0 = time_to_column(n.onset)
                c1 = max(time_to_column(min(n.offset, 30.0)), c0 + 1)
                profile[c0:min(c1, ROLL_WIDTH)] += 1
            assert np.array_equal((roll > 0).sum(axis=0), profile)

    def test_deterministic_per_seed_and_clip(self):
        rng = np.random.default_rng(1)
        c = random_clip(rng)
        r1 = paint(representations.rhythm_roll(c, seed=5))
        r2 = paint(representations.rhythm_roll(c, seed=5))
        r3 = paint(representations.rhythm_roll(c, seed=6))
        assert np.array_equal(r1, r2)
        assert not np.array_equal(r1, r3)

    def test_pitch_rows_uniform(self):
        # one isolated note per clip: no collisions, raw uniform draws
        counts = np.zeros(ROLL_HEIGHT)
        for i in range(4000):
            c = clip([note(1.0, 60)], parent=f"r{i}")
            roll = paint(representations.rhythm_roll(c, seed=0))
            counts[np.nonzero(roll[:, 100])[0][0]] += 1
        p = stats.chisquare(counts).pvalue
        assert p > 0.01

    def test_binary_values(self):
        rng = np.random.default_rng(2)
        roll = paint(representations.rhythm_roll(random_clip(rng), seed=0))
        assert set(np.unique(roll)) <= {0.0, 1.0}


class TestDynamicsRoll:
    def test_values_are_velocity_fractions(self):
        c = clip([note(0.0, 60, velocity=127), note(5.0, 64, velocity=64)])
        roll = paint(representations.dynamics_roll(c, seed=0))
        values = sorted(set(np.unique(roll)) - {0.0})
        assert values == pytest.approx([64 / 127, 1.0])

    def test_no_minimum_bin_size(self):
        # single notes per bin still produce spans, unlike the harmony roll
        c = clip([note(0.0, 60), note(5.0, 64)])
        roll = paint(representations.dynamics_roll(c, seed=0))
        assert (roll > 0).any(axis=0).sum() == ROLL_WIDTH

    def test_equal_spacing(self):
        c = clip([note(0.0, 60), note(5.0, 64), note(9.0, 66)])
        roll = paint(representations.dynamics_roll(c, seed=0))
        occupied = (roll > 0).any(axis=0)
        assert occupied.all()
        # exactly one note per thousand-column span
        assert (roll > 0).sum() == 3000

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        c = random_clip(rng)
        assert np.array_equal(representations.dynamics_roll(c, seed=4),
                              representations.dynamics_roll(c, seed=4))


class TestFactorise:
    def test_all_four_shapes(self):
        rng = np.random.default_rng(4)
        rolls = representations.factorise(random_clip(rng), seed=0)
        for name in ("melody", "harmony", "rhythm", "dynamics"):
            assert getattr(rolls, name).shape == (ROLL_HEIGHT, ROLL_WIDTH)

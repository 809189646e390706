import json
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stylus import corpus
from stylus.corpus import (Clip, ManifestEntry, NoteArray, NoteEvent,
                           ParseError, Transcription, ValidationError)


def note(onset, pitch, offset=None, velocity=64):
    return NoteEvent(onset=onset, pitch=pitch,
                     offset=offset if offset is not None else onset + 0.2,
                     velocity=velocity)


class TestNoteEvent:
    def test_valid_note(self):
        n = note(1.0, 60)
        assert n.pitch == 60 and n.offset == 1.2

    @pytest.mark.parametrize("kwargs", [
        dict(onset=1.0, pitch=60, offset=1.0, velocity=64),   # zero length
        dict(onset=1.0, pitch=60, offset=0.5, velocity=64),   # negative length
        dict(onset=-0.1, pitch=60, offset=0.5, velocity=64),
        dict(onset=0.0, pitch=20, offset=0.5, velocity=64),   # below range
        dict(onset=0.0, pitch=109, offset=0.5, velocity=64),
        dict(onset=0.0, pitch=60, offset=0.5, velocity=0),
        dict(onset=0.0, pitch=60, offset=0.5, velocity=128),
        dict(onset=0.0, pitch=60, offset=float("inf"), velocity=64),
        dict(onset=float("inf"), pitch=60, offset=float("inf"), velocity=64),
        dict(onset=0.0, pitch=60, offset=float("nan"), velocity=64),
    ])
    def test_invalid_note(self, kwargs):
        with pytest.raises(ValidationError):
            NoteEvent(**kwargs)

    def test_range_endpoints_valid(self):
        NoteEvent(onset=0.0, pitch=21, offset=0.1, velocity=1)
        NoteEvent(onset=0.0, pitch=108, offset=0.1, velocity=127)


class TestNoteArray:
    def test_rows_are_note_events_with_python_scalars(self):
        notes = NoteArray([1.0, 0.5], [1.5, 0.75], [60, 72], [64, 90])
        assert notes[0] == note(0.5, 72, offset=0.75, velocity=90)
        assert list(notes) == [notes[0], notes[1]] == [notes[-2], notes[-1]]
        for n in notes:
            assert type(n.onset) is float and type(n.pitch) is int
            assert type(n.offset) is float and type(n.velocity) is int

    def test_slices_and_masks_keep_order(self):
        notes = NoteArray.from_events([note(2.0, 60), note(1.0, 62),
                                       note(3.0, 64)])
        assert [n.pitch for n in notes[1:]] == [60, 64]
        assert [n.pitch for n in notes[notes.pitch > 60]] == [62, 64]
        assert notes[1:] == NoteArray.from_events([note(2.0, 60),
                                                   note(3.0, 64)])

    def test_stable_sort_keeps_input_order_of_equal_keys(self):
        a = note(1.0, 60, offset=2.0)
        b = note(1.0, 60, offset=1.5)
        events = [note(3.0, 50), b, a, note(1.0, 40)]
        assert tuple(NoteArray.from_events(events)) == tuple(
            sorted(events, key=lambda n: (n.onset, n.pitch)))

    def test_invalid_row_raises_its_note_error(self):
        with pytest.raises(ValidationError, match="pitch 5 outside"):
            NoteArray([0.0, 1.0], [0.5, 1.5], [60, 5], [64, 64])

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValidationError, match="aligned"):
            NoteArray([0.0, 1.0], [0.5], [60, 61], [64, 64])


class TestTranscription:
    def test_notes_sorted_by_onset_then_pitch(self):
        t = Transcription("r", "p", "solo",
                          notes=(note(2.0, 60), note(1.0, 72), note(1.0, 50)))
        assert [(n.onset, n.pitch) for n in t.notes] == [
            (1.0, 50), (1.0, 72), (2.0, 60)]

    def test_duration_is_last_offset(self):
        t = Transcription("r", "p", "solo",
                          notes=(note(0.0, 60, offset=5.0), note(1.0, 62)))
        assert t.duration == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            Transcription("r", "p", "solo", notes=())

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValidationError):
            Transcription("r", "p", "quartet", notes=(note(0.0, 60),))


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        notes = (note(0.25, 60, velocity=80), note(1.5, 72, velocity=40))
        path = tmp_path / "r.jsonl"
        corpus.write_note_events(path, notes)
        t = corpus.parse_note_events(path, "r", "p", "trio")
        assert tuple(t.notes) == notes
        assert (t.recording_id, t.performer, t.dataset_tag) == ("r", "p", "trio")

    def test_recording_id_defaults_to_stem(self, tmp_path):
        path = tmp_path / "take7.jsonl"
        corpus.write_note_events(path, (note(0.0, 60),))
        assert corpus.parse_note_events(path).recording_id == "take7"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('{"onset": 0.0, "offset": 0.2, "pitch": 60, '
                        '"velocity": 64}\nnot json\n')
        with pytest.raises(ParseError, match=":2:"):
            corpus.parse_note_events(path)

    def test_invalid_notes_collected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            '{"onset": 0.0, "offset": 0.2, "pitch": 5, "velocity": 64}\n'
            '{"onset": 0.0, "offset": 0.2, "pitch": 60, "velocity": 200}\n')
        with pytest.raises(ValidationError) as err:
            corpus.parse_note_events(path)
        assert "line 1" in str(err.value) and "line 2" in str(err.value)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text('\n{"onset": 0.0, "offset": 0.2, "pitch": 60, '
                        '"velocity": 64}\n\n')
        assert len(corpus.parse_note_events(path).notes) == 1


AWKWARD_TIMES = (0.1 + 0.2, 1e-7, 1e16, 5e-324, -0.0)


@st.composite
def note_rows(draw):
    onset = draw(st.sampled_from(AWKWARD_TIMES)
                 | st.floats(min_value=0.0, max_value=1e17))
    offset = draw(st.floats(min_value=float(np.nextafter(onset, np.inf)),
                            max_value=2e17))
    return (onset, offset, draw(st.integers(corpus.PITCH_MIN,
                                            corpus.PITCH_MAX)),
            draw(st.integers(corpus.VELOCITY_MIN, corpus.VELOCITY_MAX)))


def json_text(rows) -> bytes:
    """The reference writer: one ``json.dumps`` line per note."""
    return "".join(json.dumps({"onset": on, "offset": off, "pitch": p,
                               "velocity": v}) + "\n"
                   for on, off, p, v in rows).encode()


class TestWriteNoteEvents:
    """The one-string writer writes what ``json.dumps`` writes per note."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(note_rows(), max_size=12))
    @example([(0.1 + 0.2, 0.5, 60, 64), (1e-7, 2e-7, 21, 1),
              (1e16, 1e16 + 2, 108, 127), (5e-324, 1e-323, 60, 64),
              (-0.0, 0.2, 60, 64)])
    def test_lines_match_json_dumps(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("w") / "r.jsonl"
        events = [NoteEvent(onset=on, offset=off, pitch=p, velocity=v)
                  for on, off, p, v in rows]
        corpus.write_note_events(path, events)
        assert path.read_bytes() == json_text(rows)
        notes = NoteArray.from_events(events)
        corpus.write_note_events(path, notes)
        assert path.read_bytes() == json_text(
            zip(*(c.tolist() for c in notes.columns())))

    def test_numpy_scalar_fields_write_plain_numbers(self, tmp_path):
        path = tmp_path / "r.jsonl"
        event = NoteEvent(onset=np.float64(0.3), offset=np.float64(0.5),
                          pitch=np.int64(60), velocity=np.int64(64))
        with pytest.raises(TypeError):   # why the writer converts
            json.dumps({"pitch": event.pitch})
        corpus.write_note_events(path, [event])
        assert path.read_text() == ('{"onset": 0.3, "offset": 0.5, '
                                    '"pitch": 60, "velocity": 64}\n')


V = '{"onset": 0.0, "offset": 0.5, "pitch": 60, "velocity": 64}'
W = '{"onset": 1.0, "offset": 1.5, "pitch": 62, "velocity": 70}'


class TestParseParity:
    """The one-decode parser accepts, converts and reports exactly as a
    per-line ``json.loads`` reader does; the messages are recorded from
    that reader."""

    def _parse(self, tmp_path, text):
        path = tmp_path / "r.jsonl"
        path.write_bytes(text.encode())
        return path, corpus.parse_note_events(path)

    @pytest.mark.parametrize("text, lineno, message", [
        (V + "\n" + V + V + "\n", 2,
         "Extra data: line 1 column 59 (char 58)"),
        (V + "\n[1, 2]\n", 2,
         "list indices must be integers or slices, not str"),
        (V + '\n{"onset": 1.0, "pitch": 62, "velocity": 64}\n', 2,
         "'offset'"),
        (V + "\nnull\n", 2, "'NoneType' object is not subscriptable"),
        (V + "\n5\n", 2, "'int' object is not subscriptable"),
        ('{"onset": 0.0, "offset": null, "pitch": 60, "velocity": 64}\n', 1,
         "float() argument must be a string or a real number, "
         "not 'NoneType'"),
        ('{"onset": 0.0, "offset": 0.5, "pitch": NaN, "velocity": 64}\n', 1,
         "cannot convert float NaN to integer"),
        ('{"onset": [0.0], "offset": 0.5, "pitch": 60, "velocity": 64}\n'
         * 2, 1, "float() argument must be a string or a real number, "
         "not 'list'"),
        # lines 1-2 decode as one object only when joined, and line 3 holds
        # two objects, so the joined document has one element per line
        ('{"onset": 0.0, "offset": 0.5, "pitch": 60, "velocity": 64, '
         '"x": [{"a": 1}\n{"b": 2}]}\n' + V + ", " + W + "\n", 1,
         "Expecting ',' delimiter: line 1 column 74 (char 73)"),
    ], ids=["two-objects", "list-line", "missing-key", "null-line",
            "number-line", "null-field", "nan-pitch", "list-field",
            "split-object"])
    def test_malformed_line_message(self, tmp_path, text, lineno, message):
        path = tmp_path / "r.jsonl"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            corpus.parse_note_events(path)
        assert type(err.value) is ParseError
        assert str(err.value) == f"{path}:{lineno}: malformed note: {message}"

    def test_infinite_pitch_is_a_parse_error(self, tmp_path):
        # int(inf) raises OverflowError, reported like the other field errors
        path = tmp_path / "r.jsonl"
        path.write_text('{"onset": 0.0, "offset": 0.5, "pitch": Infinity, '
                        '"velocity": 64}\n')
        with pytest.raises(ParseError, match="cannot convert float infinity"):
            corpus.parse_note_events(path)

    @pytest.mark.parametrize("offset", [
        "Infinity",                # decodes, so the one-decode path sees it
        '"inf"',                   # a string: only the per-line path reads it
    ])
    def test_infinite_offset_is_rejected_by_line(self, tmp_path, offset):
        path = tmp_path / "r.jsonl"
        path.write_text(V + '\n{"onset": 1.0, "offset": ' + offset
                        + ', "pitch": 60, "velocity": 64}\n')
        with pytest.raises(ValidationError) as err:
            corpus.parse_note_events(path)
        assert type(err.value) is ValidationError
        assert str(err.value) == (
            f"{path}: invalid notes: "
            "line 2: onset 1.0 and offset inf must be finite")

    def test_several_invalid_notes_reported_together(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text(
            V + '\n{"onset": 1.0, "offset": 0.5, "pitch": 60, "velocity": 64}'
            '\n \n{"onset": -1.0, "offset": 0.5, "pitch": 60, "velocity": 64}'
            '\n{"onset": 2.0, "offset": 2.5, "pitch": 200, "velocity": 0}\n')
        with pytest.raises(ValidationError) as err:
            corpus.parse_note_events(path)
        assert type(err.value) is ValidationError
        assert str(err.value) == (
            f"{path}: invalid notes: "
            "line 2: offset 0.5 must exceed onset 1.0; "
            "line 4: onset -1.0 is negative; "
            "line 5: pitch 200 outside [21, 108]")

    @pytest.mark.parametrize("field, want", [
        ('"pitch": "60"', 60), ('"pitch": 60.7', 60), ('"pitch": 60.0', 60)])
    def test_pitch_converts_like_int(self, tmp_path, field, want):
        _, t = self._parse(tmp_path, '{"onset": 0.0, "offset": 0.5, '
                                     + field + ', "velocity": 64}\n')
        assert [n.pitch for n in t.notes] == [want]
        assert type(t.notes[0].pitch) is int

    def test_velocity_true_converts_like_int(self, tmp_path):
        _, t = self._parse(tmp_path, V.replace("64", "true") + "\n")
        assert t.notes[0].velocity == 1

    def test_crlf_line_endings(self, tmp_path):
        _, t = self._parse(tmp_path, V + "\r\n" + W + "\r\n")
        assert tuple(t.notes) == (note(0.0, 60, offset=0.5),
                                  note(1.0, 62, offset=1.5, velocity=70))

    def test_whitespace_only_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("  \n" + V + "\n\t \n" + V.replace("60", "5")
                        + "\n   ")
        with pytest.raises(ValidationError) as err:
            corpus.parse_note_events(path)
        assert str(err.value) == (f"{path}: invalid notes: "
                                  "line 4: pitch 5 outside [21, 108]")

    def test_only_blank_lines_rejected(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_text("\n  \n")
        with pytest.raises(ValidationError, match="r: no notes"):
            corpus.parse_note_events(path)

    def test_columns_sorted_and_typed(self, tmp_path):
        _, t = self._parse(tmp_path, W + "\n" + V + "\n"
                           + V.replace("60", "59") + "\n")
        assert t.notes.onset.dtype == np.float64
        assert t.notes.pitch.dtype == np.int64
        assert [(n.onset, n.pitch) for n in t.notes] == [
            (0.0, 59), (0.0, 60), (1.0, 62)]
        assert type(t.duration) is float and t.duration == 1.5


# lines that decode, alone or joined, to objects with every key
OBJECT_LINES = [
    V, W, V.replace("60", "60.7"), V.replace("60", '"60"'),
    V.replace("64", "true"), V.replace("0.5", "1"), V.replace("60", "5"),
    V.replace("}", ', "extra": [1, {"k": null}]}'), V + ", " + W, "   ",
    # one object over two lines
    '{"onset": 0.0, "offset": 0.5, "pitch": 60, "velocity": 64, "x": [1\n2]}',
]
FRAGMENTS = OBJECT_LINES + [
    V.replace("0.0", "-1.0"), V.replace("64", "1e400"),
    V.replace("0.5", "Infinity"), V + " " + W, "2]}",
    "null", "[1, 2]", "5", '"text"', "", "{", "}",
    '{"onset": 2.0, "offset": 2.5, "pitch": 61}',
]


def _outcome(fn):
    try:
        return tuple(fn())
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


class TestParsePathsAgree:
    @settings(max_examples=400, deadline=None)
    # two lines make one object and one line holds two: the counts balance
    @example(picks=[OBJECT_LINES[-1], V + ", " + W], newline="\n")
    @given(picks=st.one_of(
               st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=8),
               st.lists(st.sampled_from(OBJECT_LINES), min_size=1,
                        max_size=8)),
           newline=st.sampled_from(["\n", "\r\n"]))
    def test_one_decode_equals_per_line_reader(self, tmp_path_factory, picks,
                                              newline):
        path = tmp_path_factory.mktemp("parse") / "r.jsonl"
        text = newline.join(picks)
        path.write_bytes(text.encode())
        lines = [(i, line.strip()) for i, line
                 in enumerate(text.replace("\r\n", "\n").split("\n"),
                              start=1) if line.strip()]

        def reference():
            notes = NoteArray.from_events(corpus._parse_lines(path, lines))
            return Transcription("r", "", "solo", notes).notes

        assert _outcome(lambda: corpus.parse_note_events(path).notes) == \
            _outcome(reference)


class TestManifest:
    def _write(self, tmp_path, rows, header="recording_id,performer,dataset_tag,path"):
        path = tmp_path / "manifest.csv"
        path.write_text(header + "\n" + "\n".join(rows) + "\n")
        return path

    def test_read(self, tmp_path):
        path = self._write(tmp_path, ["r1,alice,solo,notes/r1.jsonl",
                                      "r2,bob,trio,notes/r2.jsonl"])
        entries = corpus.read_manifest(path)
        assert entries[0] == ManifestEntry("r1", "alice", "solo",
                                           "notes/r1.jsonl")
        assert len(entries) == 2

    def test_missing_column_rejected(self, tmp_path):
        path = self._write(tmp_path, ["r1,alice,solo"],
                           header="recording_id,performer,dataset_tag")
        with pytest.raises(ParseError):
            corpus.read_manifest(path)

    def test_unparseable_header_rejected(self, tmp_path):
        path = self._write(tmp_path, [], header='"' + "x" * 200_000)
        with pytest.raises(ParseError, match="field larger than field limit"):
            corpus.read_manifest(path)

    def test_bad_tag_rejected(self, tmp_path):
        path = self._write(tmp_path, ["r1,alice,duet,n.jsonl"])
        with pytest.raises(ValidationError):
            corpus.read_manifest(path)

    def test_empty_rejected(self, tmp_path):
        path = self._write(tmp_path, [])
        with pytest.raises(ValidationError):
            corpus.read_manifest(path)


def _manifest(n_solo, n_trio):
    entries = [ManifestEntry(f"s{i:03d}", "p", "solo", "x") for i in range(n_solo)]
    entries += [ManifestEntry(f"t{i:03d}", "p", "trio", "x") for i in range(n_trio)]
    return entries


class TestSplits:
    def test_counts_per_stratum(self):
        assignment = corpus.assign_splits(_manifest(25, 43), seed=0)
        for prefix, n in (("s", 25), ("t", 43)):
            splits = [assignment[f"{prefix}{i:03d}"] for i in range(n)]
            held = n // 10
            assert splits.count("test") == held
            assert splits.count("validation") == held
            assert splits.count("train") == n - 2 * held

    def test_minimum_one_heldout_at_three(self):
        assignment = corpus.assign_splits(_manifest(3, 0), seed=0)
        values = sorted(assignment.values())
        assert values == ["test", "train", "validation"]

    def test_tiny_stratum_all_train(self):
        assignment = corpus.assign_splits(_manifest(2, 0), seed=0)
        assert set(assignment.values()) == {"train"}

    def test_deterministic_and_seed_sensitive(self):
        m = _manifest(40, 40)
        a = corpus.assign_splits(m, seed=7)
        assert a == corpus.assign_splits(m, seed=7)
        assert a != corpus.assign_splits(m, seed=8)

    def test_round_trip(self, tmp_path):
        a = corpus.assign_splits(_manifest(12, 12), seed=1)
        path = tmp_path / "splits.csv"
        corpus.write_splits(path, a)
        assert corpus.read_splits(path) == a

    def test_read_rejects_unknown_split(self, tmp_path):
        path = tmp_path / "splits.csv"
        path.write_text("recording_id,split\nr1,dev\n")
        with pytest.raises(ValidationError):
            corpus.read_splits(path)


class TestSegmentation:
    def _recording(self, duration, step=1.0):
        notes = []
        t = 0.0
        while t < duration - 0.2:
            notes.append(note(t, 60))
            t += step
        notes.append(note(duration - 0.2, 62, offset=duration))
        return Transcription("r", "p", "solo", notes=tuple(notes))

    def test_ninety_seconds_hop_fifteen(self):
        clips = corpus.segment_clips(self._recording(90.0), hop=15.0)
        assert [c.start for c in clips] == [0.0, 15.0, 30.0, 45.0, 60.0]

    def test_exact_multiple_no_trailing_window(self):
        clips = corpus.segment_clips(self._recording(60.0), hop=30.0)
        assert [c.start for c in clips] == [0.0, 30.0]

    def test_final_partial_window_kept(self):
        clips = corpus.segment_clips(self._recording(70.0), hop=30.0)
        assert [c.start for c in clips] == [0.0, 30.0, 60.0]

    def test_short_recording_single_clip(self):
        clips = corpus.segment_clips(self._recording(10.0), hop=30.0)
        assert len(clips) == 1 and clips[0].start == 0.0

    def test_membership_by_onset_and_rebased_times(self):
        t = Transcription("r", "p", "solo",
                          notes=(note(29.9, 60, offset=31.0), note(31.0, 62),
                                 note(65.0, 64)))
        clips = corpus.segment_clips(t, hop=30.0)
        # the note straddling 30 s belongs to the first clip only
        assert [n.pitch for n in clips[0].notes] == [60]
        assert clips[0].notes[0].onset == pytest.approx(29.9)
        assert clips[0].notes[0].offset == pytest.approx(31.0)  # may exceed 30
        assert [n.pitch for n in clips[1].notes] == [62]
        assert clips[1].notes[0].onset == pytest.approx(1.0)

    def test_hop_bounds(self):
        with pytest.raises(ValidationError):
            corpus.segment_clips(self._recording(60.0), hop=14.0)
        with pytest.raises(ValidationError):
            corpus.segment_clips(self._recording(60.0), hop=31.0)


class TestPianoRoll:
    def test_time_to_column(self):
        assert corpus.time_to_column(0.0) == 0
        assert corpus.time_to_column(0.01) == 1
        assert corpus.time_to_column(29.9) == 2990
        # binary float 0.29 * 1000 is 289.99...; integer ms fixes it
        assert corpus.time_to_column(0.29) == 29

    def test_shape_and_placement(self):
        c = Clip("r", "p", 0.0, notes=(note(1.0, 60, offset=1.5, velocity=100),))
        roll = corpus.to_piano_roll(c)
        assert roll.shape == (88, 3000)
        assert roll[60 - 21, 100:150].min() == 1.0
        assert roll[60 - 21, 99] == 0.0 and roll[60 - 21, 150] == 0.0

    def test_velocity_normalised_to_clip_max(self):
        c = Clip("r", "p", 0.0, notes=(note(0.0, 60, velocity=50),
                                       note(1.0, 62, velocity=100)))
        roll = corpus.to_piano_roll(c)
        assert roll.max() == 1.0
        assert roll[60 - 21, 0] == np.float32(0.5)

    def test_max_velocity_override(self):
        roll = corpus.paint_roll((note(0.0, 60, velocity=64),),
                                 max_velocity=127)
        assert roll[60 - 21, 0] == np.float32(64 / 127)

    def test_very_short_note_paints_one_column(self):
        roll = corpus.paint_roll((note(1.0, 60, offset=1.001),))
        assert roll[60 - 21].sum() == 1.0

    def test_overlapping_notes_keep_maximum(self):
        roll = corpus.paint_roll((note(0.0, 60, offset=1.0, velocity=100),
                                  note(0.5, 60, offset=1.5, velocity=50)),
                                 max_velocity=100)
        assert roll[60 - 21, 60] == 1.0

    def test_offset_clamped_to_clip_end(self):
        roll = corpus.paint_roll((note(29.5, 60, offset=31.0),))
        assert roll[60 - 21, 2999] == 1.0

    def test_empty_roll(self):
        assert corpus.paint_roll(()).sum() == 0.0


class TestRollFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        roll = rng.random((88, 3000)).astype(np.float32)
        path = tmp_path / "a.roll"
        corpus.write_roll(path, roll)
        assert np.array_equal(corpus.read_roll(path), roll)

    @staticmethod
    def _reference_bytes(roll):
        roll = np.asarray(roll, dtype="<f4")
        return (corpus.ROLL_MAGIC + struct.pack("<III", *roll.shape, 0)
                + roll.tobytes(order="C"))

    @pytest.mark.parametrize("layout", ["C", "F", "float64", "view"])
    def test_bytes_equal_tobytes_writer(self, tmp_path, layout):
        rng = np.random.default_rng(1)
        roll = rng.random((88, 3000))
        roll = {"C": roll.astype(np.float32),
                "F": np.asfortranarray(roll.astype(np.float32)),
                "float64": roll,
                "view": roll.astype(">f4")[:, ::2]}[layout]
        path = tmp_path / "a.roll"
        corpus.write_roll(path, roll)
        assert path.read_bytes() == self._reference_bytes(roll)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.roll"
        path.write_bytes(b"NOPE" + b"\0" * 12)
        with pytest.raises(ParseError):
            corpus.read_roll(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "a.roll"
        corpus.write_roll(path, np.ones((4, 4), dtype=np.float32))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ParseError):
            corpus.read_roll(path)

import json
import os
import re
import struct
import subprocess
import sys
import zlib
from decimal import Decimal
from pathlib import Path

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


def write_notes(path, events):
    """Write a note file of NoteEvents."""
    corpus.write_note_events(path, NoteArray.from_events(events))


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

    # onsets from a few values, so equal onsets (and equal notes) are common
    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 0.5 + 1e-12,
                                                    2.0]),
                                   st.integers(60, 63), st.integers(1, 3)),
                         max_size=12),
           order=st.sampled_from(["sorted", "reversed", "as drawn"]))
    def test_columns_equal_the_lexsort_of_the_input(self, rows, order):
        if order == "sorted":
            rows = sorted(rows, key=lambda r: r[:2])
        elif order == "reversed":
            rows = sorted(rows, key=lambda r: r[:2], reverse=True)
        onset = np.array([r[0] for r in rows], dtype=float)
        offset = onset + np.array([r[2] for r in rows], dtype=float)
        pitch = np.array([r[1] for r in rows], dtype=np.int64)
        velocity = np.arange(1, len(rows) + 1, dtype=np.int64)
        columns = (onset, offset, pitch, velocity)
        notes = NoteArray(*columns)
        lexsort = np.lexsort((pitch, onset))
        for got, given_column in zip(notes.columns(), columns):
            assert got.dtype == given_column.dtype
            assert got.tobytes() == given_column[lexsort].tobytes()
            # an owned, writable copy: never a view of the caller's array
            assert got.flags.owndata and got.flags.writeable
            assert not np.shares_memory(got, given_column)


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

    def test_longer_than_a_day_rejected(self):
        day = corpus.MAX_RECORDING_SECONDS
        assert Transcription("r", "p", "solo",
                             notes=(note(0.0, 60, offset=day),)).duration == day
        with pytest.raises(ValidationError,
                           match=r"^r: duration 86400\.5 s exceeds 86400\.0 s$"):
            Transcription("r", "p", "solo",
                          notes=(note(0.0, 60), note(day - 1, 62, day + 0.5)))

    @pytest.mark.parametrize("onset", [1e9, 1e16])
    def test_parse_refuses_a_recording_past_a_day(self, tmp_path, onset):
        """A note at 1e16 s would wrap its int64 frame; one ending past
        1e9 s would ask for 33M clips."""
        path = tmp_path / "long.jsonl"
        write_notes(path, (note(0.0, 60), note(onset, 62, offset=2 * onset)))
        with pytest.raises(ValidationError, match="^long: duration"):
            corpus.parse_note_events(path)


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        notes = (note(0.25, 60, velocity=80), note(1.5, 72, velocity=40))
        path = tmp_path / "r.jsonl"
        write_notes(path, notes)
        t = corpus.parse_note_events(path, "r", "p", "trio")
        assert tuple(t.notes) == notes
        assert (t.recording_id, t.performer, t.dataset_tag) == ("r", "p", "trio")

    def test_recording_id_defaults_to_stem(self, tmp_path):
        path = tmp_path / "take7.jsonl"
        write_notes(path, (note(0.0, 60),))
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
        corpus.write_note_events(path, NoteArray.from_events(events))
        # notes are written in NoteArray order: stable by (onset, pitch)
        assert path.read_bytes() == json_text(
            sorted(rows, key=lambda r: (r[0], r[2])))

    def test_numpy_scalar_fields_write_plain_numbers(self, tmp_path):
        path = tmp_path / "r.jsonl"
        event = NoteEvent(onset=np.float64(0.3), offset=np.float64(0.5),
                          pitch=np.int64(60), velocity=np.int64(64))
        with pytest.raises(TypeError):   # why the writer converts
            json.dumps({"pitch": event.pitch})
        write_notes(path, [event])
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

    def test_lone_cr_line_endings(self, tmp_path):
        _, t = self._parse(tmp_path, V + "\r" + W + "\r")
        assert len(t.notes) == 2

    @pytest.mark.parametrize("raw, lineno, reason", [
        (b"\xff", 1, "byte 0xff: invalid start byte"),
        (b"\r\n" + V.encode() + b"\r\n\xc3(", 3,
         "byte 0xc3: invalid continuation byte"),
        (b"\r\r" + V.encode() + b"\xe2\x82", 3,
         "byte 0xe2: invalid continuation byte"),
    ], ids=["start", "crlf", "lone-cr"])
    def test_not_utf8_names_line_of_first_bad_byte(self, tmp_path, raw,
                                                   lineno, reason):
        path = tmp_path / "r.jsonl"
        path.write_bytes(V.encode() + b"\n" + raw + b"\n" + W.encode())
        with pytest.raises(ParseError) as err:
            corpus.parse_note_events(path)
        assert str(err.value) == f"{path}:{lineno + 1}: not UTF-8: {reason}"

    @pytest.mark.parametrize("text, message", [
        ("[" * 200_000 + "]" * 200_000 + "\n",
         "maximum recursion depth exceeded while decoding a JSON array "
         "from a unicode string"),
        # only the joined document nests: "[1,null,[1,null,...1],null,1]"
        ("[1\n" * 200_000 + "1]\n" * 200_000,
         "Expecting ',' delimiter: line 1 column 3 (char 2)"),
    ], ids=["one-line", "across-lines"])
    def test_deep_nesting_is_a_parse_error(self, tmp_path, text, message):
        path = tmp_path / "r.jsonl"
        path.write_text(text)
        # in a child process: a decode without a depth limit would overflow
        # the C stack and kill it
        child = subprocess.run(
            [sys.executable, "-c", "import sys\n"
             "from stylus import corpus\n"
             "try:\n    corpus.parse_note_events(sys.argv[1])\n"
             "except corpus.ParseError as exc:\n    print(exc)",
             str(path)], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(corpus.__file__)
                                                 .parents[1])})
        assert (child.returncode, child.stdout) == (
            0, f"{path}:1: malformed note: {message}\n")

    def test_long_line_takes_the_reference_reader(self, tmp_path,
                                                  monkeypatch):
        text = V + "\n" + V.replace("}", ', "x": [[1]]}') + "\n" + W + "\n"
        path, want = self._parse(tmp_path, text)
        calls = []
        parse_lines = corpus._parse_lines

        def counted(*args):
            calls.append(args)
            return parse_lines(*args)

        # the middle line is the one longer than the limit
        monkeypatch.setattr(corpus, "MAX_LINE_CHARS", max(len(V), len(W)))
        monkeypatch.setattr(corpus, "_parse_lines", counted)
        assert corpus.parse_note_events(path).notes == want.notes
        assert len(calls) == 1

    @pytest.mark.parametrize("n_notes, extra", [
        # over 65,536 notes, and as many "{": size alone sends no file to
        # the reference reader
        (70_000, ""),
        (2, ', "x": null'),
    ], ids=["70000-notes", "null-extra-field"])
    def test_decodes_without_the_reference_reader(self, tmp_path,
                                                  monkeypatch, n_notes,
                                                  extra):
        text = "".join('{"onset": %d.0, "offset": %d.5, "pitch": %d, '
                       '"velocity": 64%s}\n' % (i, i, 21 + i % 88, extra)
                       for i in range(n_notes))
        path = tmp_path / "r.jsonl"
        path.write_text(text)
        want = _reference_notes(path, text)

        def refuse(path, lines):
            raise AssertionError(f"{path} fell back to the reference reader")

        monkeypatch.setattr(corpus, "_parse_lines", refuse)
        assert corpus.parse_note_events(path).notes == want
        assert len(want) == n_notes

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
    # json accepts these; orjson refuses them or reads a float
    V.replace("60", "NaN"), V.replace("}", ', "extra": "\\ud800"}'),
    V.replace("60", "18446744073709551616"),
]


@st.composite
def number_spellings(draw):
    """A JSON number: a sign, 1-25 significant digits with the decimal point
    anywhere, and an exponent in [-330, 310]; or an edge spelling."""
    digits = draw(st.text("0123456789", min_size=1, max_size=25))
    point = draw(st.integers(1, len(digits)))
    spelling = (draw(st.sampled_from(["", "-"]))
                + (digits[:point].lstrip("0") or "0")
                + ("." + digits[point:] if point < len(digits) else ""))
    exponent = draw(st.none() | st.integers(-330, 310))
    if exponent is not None:
        spelling += draw(st.sampled_from(["e", "E", "e+"])) + str(exponent)
    return draw(st.just(spelling) | st.sampled_from(
        ["-0", "-0.0", "5e-324", "1e400", "-1e400", str(2 ** 53 + 1),
         str(2 ** 63), str(2 ** 64 - 1), str(2 ** 64), str(2 ** 64 + 1)])
        | st.integers(2 ** 53, 2 ** 70).map(str))


def in_range_spellings(lo, hi):
    """A number in [lo, hi + 1) spelled with its point shifted by an
    exponent, e.g. 60.7 as ``0.0607e3``."""
    return st.builds(
        lambda whole, frac, shift: format(
            Decimal(f"{whole}.{frac}").scaleb(-shift), "f") + f"e{shift}",
        st.integers(lo, hi), st.text("0123456789", max_size=20),
        st.integers(-4, 4))


def field_spellings(lo, hi):
    """Mostly in range, so that many files are accepted."""
    return st.integers(0, 3).flatmap(
        lambda i: number_spellings() if i == 0 else in_range_spellings(lo, hi))


def _outcome(fn):
    try:
        return tuple(fn())
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


def _reference_notes(path, text):
    """The per-line ``json`` reader over every non-blank line of ``text``."""
    lines = [(i, line.strip()) for i, line
             in enumerate(text.replace("\r\n", "\n").split("\n"), start=1)
             if line.strip()]
    notes = NoteArray.from_events(corpus._parse_lines(path, lines))
    return Transcription("r", "", "solo", notes).notes


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
        assert _outcome(lambda: corpus.parse_note_events(path).notes) == \
            _outcome(lambda: _reference_notes(path, text))

    @settings(max_examples=300, deadline=None)
    @example(rows=[("5e-324", "1e400", "18446744073709551616", "64")])
    # either side of the midpoint between 1 and the next double
    @example(rows=[("1.000000000000000111022303", "2", "60", "64"),
                   ("1.000000000000000111022302", "2", "61", "64")])
    @example(rows=[("-0", "9007199254740993", "60", "-0"),
                   ("0.5", "18446744073709551617", "6.07e1", "1E2")])
    @given(rows=st.lists(st.tuples(*[field_spellings(lo, hi) for lo, hi in
                                     ((0, 1000), (1001, 10 ** 6),
                                      (corpus.PITCH_MIN, corpus.PITCH_MAX),
                                      (corpus.VELOCITY_MIN,
                                       corpus.VELOCITY_MAX))]),
                         min_size=1, max_size=4))
    def test_number_spellings_convert_alike(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("numbers") / "r.jsonl"
        text = "".join('{"onset": %s, "offset": %s, "pitch": %s, '
                       '"velocity": %s}\n' % row for row in rows)
        path.write_bytes(text.encode())

        def column_bytes(parse):
            return lambda: (c.tobytes() for c in parse().columns())

        assert _outcome(column_bytes(
            lambda: corpus.parse_note_events(path).notes)) == \
            _outcome(column_bytes(lambda: _reference_notes(path, text)))


def number_rows_text(rows) -> str:
    return "".join('{"onset": %s, "offset": %s, "pitch": %s, '
                   '"velocity": %s}\n' % row for row in rows)


# the files TestParsePathsAgree draws, accepted or not
PARSE_TEXTS = st.one_of(
    st.builds(str.join, st.sampled_from(["\n", "\r\n"]),
              st.lists(st.sampled_from(FRAGMENTS), min_size=1, max_size=8)
              | st.lists(st.sampled_from(OBJECT_LINES), min_size=1,
                         max_size=8)),
    st.lists(st.tuples(*[field_spellings(lo, hi) for lo, hi in
                         ((0, 1000), (1001, 10 ** 6),
                          (corpus.PITCH_MIN, corpus.PITCH_MAX),
                          (corpus.VELOCITY_MIN, corpus.VELOCITY_MAX))]),
             min_size=1, max_size=4).map(number_rows_text))


def write_store(path, *note_files):
    """The store an ingest of ``note_files`` writes at ``path``."""
    with corpus.NoteStore.create(path) as store:
        for f in note_files:
            corpus.parse_note_events(f, store=store)
    return store


def reseal(data, start, rows):
    """A block file's bytes ``data``, its index ``rows`` rows of 52 bytes
    (key, CRC-32, offset, row count), with the last row's CRC-32 made that
    of the bytes from ``start`` to the index: a damage that passes the
    checksum, so the check behind it is reached."""
    crc = zlib.crc32(data[start:len(data) - 52 * rows])
    return data[:-20] + struct.pack("<I", crc) + data[-16:]


class TestNoteStore:
    """A store hit returns exactly what decoding returns, and only for the
    bytes the store was written from."""

    @settings(max_examples=300, deadline=None)
    @example(text=number_rows_text([("5e-324", "1e-323", "21", "1"),
                                    ("0.30000000000000004", "1001", "108",
                                     "127")]))
    @given(text=PARSE_TEXTS)
    def test_hit_equals_decode(self, tmp_path_factory, text):
        root = tmp_path_factory.mktemp("store")
        path = root / "r.jsonl"
        path.write_bytes(text.encode())
        try:
            want = corpus.parse_note_events(path)
        except (ParseError, ValidationError):
            return      # refused files never reach a store
        assert write_store(root / "notes.store", path).counts == {
            "from_store": 0, "decoded": 1}
        store = corpus.NoteStore(root / "notes.store")
        got = corpus.parse_note_events(path, store=store)
        assert store.counts == {"from_store": 1, "decoded": 0}
        assert [(c.dtype, c.tobytes()) for c in got.notes.columns()] == \
            [(c.dtype, c.tobytes()) for c in want.notes.columns()]
        assert got.duration == want.duration
        # columns are copies, not views of the store's read-only block
        assert all(c.flags.owndata and c.flags.writeable
                   for c in got.notes.columns())

    def test_file_edited_after_writing_is_decoded(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_notes(path, (note(0.25, 60), note(1.5, 72)))
        write_store(tmp_path / "notes.store", path)
        edited = path.read_bytes().replace(b'"pitch": 72', b'"pitch": 73')
        assert len(edited) == path.stat().st_size
        path.write_bytes(edited)
        store = corpus.NoteStore(tmp_path / "notes.store")
        t = corpus.parse_note_events(path, store=store)
        assert store.counts == {"from_store": 0, "decoded": 1}
        assert t.notes.pitch.tolist() == [60, 73]

    def test_moved_file_still_hits(self, tmp_path):
        path = tmp_path / "a" / "r.jsonl"
        path.parent.mkdir()
        write_notes(path, (note(0.25, 60), note(1.5, 72)))
        write_store(tmp_path / "notes.store", path)
        moved = tmp_path / "b" / "s.jsonl"
        path.parent.rename(moved.parent)
        (moved.parent / "r.jsonl").rename(moved)
        store = corpus.NoteStore(tmp_path / "notes.store")
        t = corpus.parse_note_events(moved, "x", store=store)
        assert store.counts == {"from_store": 1, "decoded": 0}
        assert t.recording_id == "x" and t.notes.pitch.tolist() == [60, 72]

    def test_bytes_hold_no_path_and_one_block_per_content(self, tmp_path):
        one = (note(0.25, 60), note(1.5, 72), note(1.5, 64))
        stores = []
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            files = [tmp_path / d / f"{i}.jsonl" for i in range(3)]
            for f, notes in zip(files, (one, (note(0.0, 21),), one)):
                write_notes(f, notes)
            write_store(tmp_path / d / "notes.store", *files)
            stores.append((tmp_path / d / "notes.store").read_bytes())
        assert stores[0] == stores[1]
        # header, 18 bytes a note, 52 bytes an index row
        assert len(stores[0]) == 20 + 18 * 4 + 52 * 2

    def test_missing_store_is_empty(self, tmp_path):
        path = tmp_path / "r.jsonl"
        write_notes(path, (note(0.25, 60),))
        store = corpus.NoteStore(tmp_path / "notes.store")
        corpus.parse_note_events(path, store=store)
        assert store.counts == {"from_store": 0, "decoded": 1}
        assert not (tmp_path / "notes.store").exists()

    @pytest.mark.parametrize("damage, reason", [
        (lambda b: b[:-1], "truncated"),
        (lambda b: b"NST1" + b[4:], "bad header"),
        (lambda b: b"NST0" + b[4:], "bad header"),
        (lambda b: b[:10], "bad header"),
        # one bit of the first note's pitch byte, after header and two
        # float64 columns: 60 becomes 61, a valid note
        (lambda b: b[:52] + bytes([b[52] ^ 1]) + b[53:],
         "block checksum mismatch"),
        # that pitch byte set to 0, the block's checksum made to match
        (lambda b: reseal(b[:52] + b"\0" + b[53:], 20, 1),
         "block invalid: pitch 0 outside"),
        # the index row's note count, past the index offset
        (lambda b: b[:-8] + struct.pack("<Q", 10 ** 18),
         "index out of bounds"),
    ], ids=["truncated", "old-layout", "magic", "short-header", "payload",
            "block", "index"])
    def test_damaged_store_refused(self, tmp_path, damage, reason):
        path = tmp_path / "r.jsonl"
        write_notes(path, (note(0.25, 60), note(1.5, 72)))
        store_path = tmp_path / "notes.store"
        write_store(store_path, path)
        store_path.write_bytes(damage(store_path.read_bytes()))
        with pytest.raises(ValidationError) as err:
            corpus.parse_note_events(path,
                                     store=corpus.NoteStore(store_path))
        assert str(err.value).startswith(f"{store_path}: note store {reason}")
        assert str(err.value).endswith("; re-run ingest")

    def test_failed_write_keeps_the_earlier_store(self, tmp_path):
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        write_notes(good, (note(0.25, 60),))
        bad.write_text(V.replace('"velocity": 64', '"velocity": 0') + "\n")
        store_path = tmp_path / "notes.store"
        for earlier in (None, good):
            if earlier:
                write_store(store_path, earlier)
            before = store_path.read_bytes() if earlier else None
            with pytest.raises(ValidationError, match="velocity 0"):
                write_store(store_path, good, bad)
            assert (store_path.read_bytes() if store_path.exists()
                    else None) == before
            assert [p.name for p in tmp_path.iterdir()
                    if p.suffix == ".tmp"] == []


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

    def test_repeated_recording_id_names_the_line(self, tmp_path):
        path = self._write(tmp_path, ["r1,alice,solo,r1.jsonl", "",
                                      "r2,bob,solo,r2.jsonl",
                                      "r1,bob,trio,r3.jsonl"])
        with pytest.raises(ValidationError) as err:
            corpus.read_manifest(path)
        assert str(err.value) == f"{path}:5: recording id 'r1' repeated"


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

    def test_read_rejects_repeated_recording(self, tmp_path):
        path = tmp_path / "splits.csv"
        path.write_text("recording_id,split\nr1,train\nr2,test\nr1,test\n")
        with pytest.raises(ValidationError) as info:
            corpus.read_splits(path)
        assert str(info.value) == f"{path}:4: recording id 'r1' repeated"


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


def painted(notes, max_velocity=None):
    """The pixels of ``paint_roll``'s rectangles."""
    return corpus.paint(corpus.paint_roll(notes, max_velocity))


class TestPianoRoll:
    def test_time_to_column(self):
        assert corpus.time_to_column(0.0) == 0
        assert corpus.time_to_column(0.01) == 1
        assert corpus.time_to_column(29.9) == 2990
        # binary float 0.29 * 1000 is 289.99...; integer ms fixes it
        assert corpus.time_to_column(0.29) == 29

    def test_shape_and_placement(self):
        c = Clip("r", "p", 0.0, notes=(note(1.0, 60, offset=1.5, velocity=100),))
        roll = painted(c.notes)
        assert roll.shape == (88, 3000)
        assert roll[60 - 21, 100:150].min() == 1.0
        assert roll[60 - 21, 99] == 0.0 and roll[60 - 21, 150] == 0.0

    def test_velocity_normalised_to_clip_max(self):
        c = Clip("r", "p", 0.0, notes=(note(0.0, 60, velocity=50),
                                       note(1.0, 62, velocity=100)))
        roll = painted(c.notes)
        assert roll.max() == 1.0
        assert roll[60 - 21, 0] == np.float32(0.5)

    def test_max_velocity_override(self):
        roll = painted((note(0.0, 60, velocity=64),), max_velocity=127)
        assert roll[60 - 21, 0] == np.float32(64 / 127)

    def test_very_short_note_paints_one_column(self):
        roll = painted((note(1.0, 60, offset=1.001),))
        assert roll[60 - 21].sum() == 1.0

    def test_overlapping_notes_keep_maximum(self):
        roll = painted((note(0.0, 60, offset=1.0, velocity=100),
                        note(0.5, 60, offset=1.5, velocity=50)),
                       max_velocity=100)
        assert roll[60 - 21, 60] == 1.0

    def test_offset_clamped_to_clip_end(self):
        roll = painted((note(29.5, 60, offset=31.0),))
        assert roll[60 - 21, 2999] == 1.0

    def test_empty_roll(self):
        assert len(corpus.paint_roll(())) == 0
        assert painted(()).sum() == 0.0


class TestRollFile:
    NOTES = (note(0.0, 60, offset=1.0, velocity=100),
             note(0.5, 60, offset=1.5, velocity=50),
             note(2.0, 72, offset=29.0, velocity=127))

    @staticmethod
    def _write(path, records):
        """A roll file of (row, c0, c1, value) records, packed by hand."""
        path.write_bytes(corpus.ROLL_MAGIC + struct.pack("<I", len(records))
                         + b"".join(struct.pack("<iiif", *r)
                                    for r in records))

    def _refused(self, path, reason):
        with pytest.raises(ParseError,
                           match=f"^{re.escape(str(path))}: .*{reason}"):
            corpus.read_roll(path)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "a.roll"
        corpus.write_roll(path, corpus.paint_roll(self.NOTES))
        assert np.array_equal(corpus.read_roll(path), painted(self.NOTES))

    def test_bytes_are_the_records(self, tmp_path):
        """Notes that overlap in a row are written as the disjoint runs
        they paint, after the other notes."""
        path, want = tmp_path / "a.roll", tmp_path / "b.roll"
        corpus.write_roll(path, corpus.paint_roll(self.NOTES))
        self._write(want, [(51, 200, 2900, 1.0), (39, 0, 100, 100 / 127),
                           (39, 100, 150, 50 / 127)])
        assert path.read_bytes() == want.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "a.roll"
        path.write_bytes(b"PROL" + b"\0" * 12)
        self._refused(path, "bad roll header")

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "a.roll"
        self._write(path, [(39, 0, 100, 1.0), (40, 0, 100, 1.0)])
        path.write_bytes(path.read_bytes()[:-8])
        self._refused(path, "truncated")

    @pytest.mark.parametrize("row", [-1, 88])
    def test_row_outside_keyboard(self, tmp_path, row):
        path = tmp_path / "a.roll"
        self._write(path, [(0, 0, 10, 1.0), (row, 0, 10, 1.0)])
        self._refused(path, "record 1: row outside 0..87")

    @pytest.mark.parametrize("c0, c1", [(10, 10), (11, 10), (-1, 10),
                                        (2990, 3001)])
    def test_columns_outside_roll(self, tmp_path, c0, c1):
        path = tmp_path / "a.roll"
        self._write(path, [(5, c0, c1, 1.0)])
        self._refused(path, "record 0: columns not")

    def test_spans_overlapping_in_a_row(self, tmp_path):
        path = tmp_path / "a.roll"
        self._write(path, [(5, 50, 100, 1.0), (6, 0, 3000, 1.0),
                           (5, 0, 51, 0.5)])
        self._refused(path, "overlaps another in its row")

    @pytest.mark.parametrize("value", [float("nan"), 0.0, -0.5, 1.5])
    def test_value_outside_unit_interval(self, tmp_path, value):
        path = tmp_path / "a.roll"
        self._write(path, [(5, 0, 10, value)])
        self._refused(path, r"record 0: value not in \(0, 1\]")

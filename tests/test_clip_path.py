"""The clip path, pinned end to end and checked against per-note references.

``TestPinnedOutputs`` pins the SHA-256 of every file that ``rolls``,
``augment`` and ``concepts`` write for a small fixed-seed synthetic corpus,
and of the masked-sensitivity heat maps of one recording's clips. The
hypothesis tests compare the rectangle rolls, their embeddings and heat
maps, and augmentation with the per-note and painted implementations they
replaced, kept here as references.
"""

import csv
import functools
import hashlib
import json
import random
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stylus import augment, cli, concepts, corpus, representations, synthetic
from stylus.cli import EXIT_OK
from stylus.rng import derive_rng

CORPUS = synthetic.SyntheticConfig(n_performers=3, n_recordings=4,
                                   events_per_recording=10, seed=3)
TRIADS = ((0, 4, 7), (0, 3, 7), (0, 4, 8), (0, 3, 6))


def _exercises(seed, n_concepts=4):
    """One exercise per concept: three triads over a root in 45..75."""
    rng = random.Random(seed)
    return [{"concept_id": cid,
             "chords": [[root + rng.choice((0, 2, 5, 7)) + i
                         for i in rng.choice(TRIADS)] for _ in range(3)]}
            for cid in range(n_concepts) for root in [rng.randint(45, 75)]]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """A split, rolls, augment and concepts run over the pinned corpus."""
    root = tmp_path_factory.mktemp("clip_path")
    manifest = synthetic.write_corpus(root / "corpus", CORPUS)
    exercises = root / "exercises.jsonl"
    exercises.write_text("".join(json.dumps(e) + "\n"
                                 for e in _exercises(5)))
    cfg = root / "cfg.json"
    cfg.write_text('{"n_concept_iterations": 2, "bonferroni_m": 4}')
    out = root / "run"
    for command in ("split", "rolls", "augment", "concepts"):
        argv = [command, "--manifest", str(manifest), "--out", str(out),
                "--seed", "0", "--config", str(cfg)]
        if command == "concepts":
            argv += ["--exercises", str(exercises)]
        assert cli.main(argv) == EXIT_OK
    return root, manifest, out


def dense_bytes(roll):
    """A roll as the dense files that held rolls before rectangles: "PROL",
    height, width and 0 as little-endian uint32, then the float32 cells."""
    return (b"PROL" + struct.pack("<III", *roll.shape, 0)
            + roll.astype("<f4").tobytes())


def listing_digest(files):
    """SHA-256 of the sorted ``name digest`` lines of ``files``, a mapping of
    file name to bytes: the digest of a directory holding those files."""
    return _sha("".join(f"{name} {_sha(data)}\n"
                        for name, data in sorted(files.items())).encode())


def old_roll_files(out):
    """The ``rolls/`` directory rolls were written to one file each: per
    roll store member that ``rolls.json`` names, the roll ``read_roll``
    reads, in ``dense_bytes``."""
    index = json.loads((out / "rolls.json").read_text())
    return {Path(p).name: dense_bytes(corpus.read_roll(p))
            for paths in index.values() for p in paths.values()}


def old_preview_files(path):
    """The ``augment_preview/`` directory previews were written to: per line
    of the preview file, a ``<clip>.before.jsonl`` and a
    ``<clip>.after.jsonl`` note file, each note the line ``json.dumps``
    writes for its object."""
    files = {}
    for line in path.read_text().splitlines():
        preview = json.loads(line)
        for side in ("before", "after"):
            files[f"{preview['clip']}.{side}.jsonl"] = "".join(
                json.dumps(n) + "\n" for n in preview[side]).encode()
    return files


def output_digests(out):
    """SHA-256 of every file in ``out`` but ``run.json`` (it records the
    wall time), with the ``out`` prefix of the paths in ``rolls.json``
    removed; the roll store's and the preview file's are the
    ``listing_digest`` of the directories that held them as one file per
    roll and per preview, ``old_roll_files`` and ``old_preview_files``."""
    got = {}
    for path in sorted(out.iterdir()):
        if path.name == corpus.ROLLS_NAME:
            got["rolls/"] = listing_digest(old_roll_files(out))
        elif path.name == "augment_preview.jsonl":
            got["augment_preview/"] = listing_digest(old_preview_files(path))
        elif path.name != "run.json":
            data = path.read_bytes()
            if path.name == "rolls.json":
                data = data.replace(f"{out}/".encode(), b"")
            got[path.name] = _sha(data)
    return got


def heat_map_digests(manifest):
    """SHA-256 of the masked-sensitivity heat map of each clip of the first
    recording, scored against a fixed random concept vector."""
    entry = corpus.read_manifest(manifest)[0]
    t = corpus.parse_note_events(entry.path, entry.recording_id,
                                 entry.performer, entry.dataset_tag)
    cav = concepts.ConceptVector(y=np.random.default_rng(0).normal(size=64))
    return [_sha(concepts.masked_sensitivity(
        clip, concepts.default_embedder(), cav).tobytes())
        for clip in corpus.segment_clips(t)]


def test_concepts_records_where_its_notes_came_from(run_dir):
    """No ingest ran, so concepts decoded every recording."""
    _, _, out = run_dir
    assert json.loads((out / "run.json").read_text())["notes"] == {
        "from_store": 0,
        "decoded": CORPUS.n_performers * CORPUS.n_recordings}


class TestPinnedOutputs:
    def test_rolls_augment_and_concepts_files(self, run_dir):
        assert output_digests(run_dir[2]) == OUTPUT_SHA256

    def test_roll_files(self, run_dir):
        assert _sha((run_dir[2] / corpus.ROLLS_NAME).read_bytes()
                    ) == ROLL_STORE_SHA256

    def test_masked_sensitivity_heat_maps(self, run_dir):
        assert heat_map_digests(run_dir[1]) == HEAT_MAP_SHA256

    @pytest.mark.parametrize("name", ["sign_counts.csv",
                                      "sign_counts_tested.csv"])
    def test_sign_count_cells_are_plain_numbers(self, run_dir, name):
        with open(run_dir[2] / name, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows
        for performer, *cells in rows:
            assert performer.startswith("performer_")
            for cell in cells:
                float(cell)


# recorded from the per-note clip path
OUTPUT_SHA256 = {
    "augment_audit.json":
        "bcf90643df5f1300e2dc2c2bbf6d539bc0b51f4cdf6c5ca25eae13441e816640",
    "augment_preview/":
        "f09fa7dcc2509b4801b3d1a483ddf3eba101189a1e95dbfdb59264abb2870884",
    "dendrogram.json":
        "46cd7e50de12493be4d7139c735795988cf699f87379dc59d7648225e86e1efa",
    "rolls/":
        "755ba331348aa16ffb9e6bc78804cda9fb3119d7f3e07171c6191b22d41bcff8",
    # each entry a roll store member path
    "rolls.json":
        "79ff36f160d77eaf89810bc4d1c19c36c92976b54ddf732895df406f9535eaf2",
    # the two sign-count files as written with plain float cells
    "sign_counts.csv":
        "fda82ffab5a374152d9173ed06d36c8619019487eaa449990caf68f11a86a9c4",
    "sign_counts_tested.csv":
        "8171cde7839dcc41ff6de4002aa81af56df05caebad8c2fe215ff826e4dbd42c",
    "splits.csv":
        "594f3c2db3b4321a36c7fd3c97572ec511c7edc74dad526a1971c60c1a89e189",
}
# the roll store itself, as first written
ROLL_STORE_SHA256 = (
    "d2b726cd3b184b7a534031d9bdd2f10b651398533eae972b520fe5ad978b2fd5")
HEAT_MAP_SHA256 = [
    "1ba70cfd075cb1ae72e0c5471338d7ca1124c25f6a5b3c1ee4daf48b667c3244",
    "479b2eebd29d98cf06a6012c3abd539fbcc1403b20dcca76a642b8ea8e09c28d",
]


# --- per-note references: the clip path as it was before clips held columns

def ref_time_to_column(seconds):
    return int(round(seconds * 1000)) // corpus.FRAME_MS


def ref_note_columns(n):
    c0 = ref_time_to_column(n.onset)
    c1 = max(ref_time_to_column(min(n.offset, corpus.CLIP_SECONDS)), c0 + 1)
    return min(c0, corpus.ROLL_WIDTH - 1), min(c1, corpus.ROLL_WIDTH)


def ref_segment_clips(t, hop=corpus.CLIP_SECONDS):
    starts = [0.0]
    while starts[-1] + corpus.CLIP_SECONDS < t.duration:
        starts.append(len(starts) * hop)
    return [(s, tuple(sorted(
        (replace(n, onset=n.onset - s, offset=n.offset - s) for n in t.notes
         if s <= n.onset < s + corpus.CLIP_SECONDS),
        key=lambda n: (n.onset, n.pitch)))) for s in starts]


def ref_paint_roll(notes, max_velocity=None):
    roll = np.zeros((corpus.ROLL_HEIGHT, corpus.ROLL_WIDTH), dtype=np.float32)
    notes = [n for n in notes if n.onset < corpus.CLIP_SECONDS]
    if not notes:
        return roll
    if max_velocity is None:
        max_velocity = max(n.velocity for n in notes)
    for n in notes:
        c0, c1 = ref_note_columns(n)
        row = n.pitch - corpus.PITCH_MIN
        roll[row, c0:c1] = np.maximum(roll[row, c0:c1],
                                      n.velocity / max_velocity)
    return roll


def ref_frames(notes, grid=0.1):
    grid_ms = int(round(grid * 1000))
    frames = {}
    for n in notes:
        ms = int(round(n.onset * 1000))
        frames.setdefault((ms + grid_ms // 2) // grid_ms, []).append(n)
    return [members for _, members in sorted(frames.items())]


def ref_harmony_roll(notes, min_notes=3):
    roll = np.zeros((corpus.ROLL_HEIGHT, corpus.ROLL_WIDTH), dtype=np.float32)
    chords = [sorted({n.pitch for n in members})
              for members in ref_frames(notes)]
    chords = [ch for ch in chords if len(ch) >= min_notes]
    spans = representations.equal_spans(corpus.ROLL_WIDTH, max(len(chords), 1))
    for (c0, c1), pitches in zip(spans, chords):
        for p in pitches:
            roll[p - corpus.PITCH_MIN, c0:c1] = 1.0
    return roll


def ref_melody_roll(notes):
    roll = np.zeros((corpus.ROLL_HEIGHT, corpus.ROLL_WIDTH), dtype=np.float32)
    tops = [max(n.pitch for n in members) for members in ref_frames(notes)]
    for (c0, c1), pitch in zip(representations.equal_spans(
            corpus.ROLL_WIDTH, max(len(tops), 1)), tops):
        roll[pitch - corpus.PITCH_MIN, c0:c1] = 1.0
    return roll


def ref_random_free_row(rng, c0, c1, occupancy):
    """Draw a uniform pitch row, re-drawing on overlap with ``occupancy``;
    after 256 draws, the middle free row, or the last draw if none is."""
    for _ in range(256):
        row = int(rng.integers(corpus.PITCH_MIN, corpus.PITCH_MAX + 1)) \
            - corpus.PITCH_MIN
        if not occupancy[row, c0:c1].any():
            return row
    free = [r for r in range(corpus.ROLL_HEIGHT)
            if not occupancy[r, c0:c1].any()]
    return free[len(free) // 2] if free else row


def ref_rhythm_roll(c, notes, seed):
    roll = np.zeros((corpus.ROLL_HEIGHT, corpus.ROLL_WIDTH), dtype=np.float32)
    rng = derive_rng(seed, "rhythm", c.parent_id, repr(c.start))
    occupancy = np.zeros(roll.shape, dtype=bool)
    for n in notes:
        c0, c1 = ref_note_columns(n)
        row = ref_random_free_row(rng, c0, c1, occupancy)
        occupancy[row, c0:c1] = True
        roll[row, c0:c1] = 1.0
    return roll


def ref_dynamics_roll(c, notes, seed):
    roll = np.zeros((corpus.ROLL_HEIGHT, corpus.ROLL_WIDTH), dtype=np.float32)
    bins = ref_frames(notes)
    if not bins:
        return roll
    rng = derive_rng(seed, "dynamics", c.parent_id, repr(c.start))
    occupancy = np.zeros(roll.shape, dtype=bool)
    for (c0, c1), members in zip(
            representations.equal_spans(corpus.ROLL_WIDTH, len(bins)), bins):
        for n in members:
            row = ref_random_free_row(rng, c0, c1, occupancy)
            occupancy[row, c0:c1] = True
            roll[row, c0:c1] = n.velocity / 127.0
    return roll


def ref_time_dilate(c, notes, t, parent):
    """(sorted notes, refill_missing)."""
    out = [replace(n, onset=n.onset * t, offset=n.offset * t) for n in notes
           if not (n.onset * t >= corpus.CLIP_SECONDS
                   or (t > 1 and n.offset * t > corpus.CLIP_SECONDS))]
    if t < 1 and parent is not None:
        out += [replace(n, onset=(n.onset - c.start) * t,
                        offset=(n.offset - c.start) * t)
                for n in parent.notes
                if n.onset - c.start >= corpus.CLIP_SECONDS
                and (n.onset - c.start) * t < corpus.CLIP_SECONDS]
    out.sort(key=lambda n: (n.onset, n.pitch))
    return tuple(out), t < 1 and parent is None


def ref_augment(c, notes, config, parent):
    """(applied, notes, pitch shift, dilation, refill_missing)."""
    if not notes:
        return False, notes, 0, 1.0, False
    rng = derive_rng(config.seed, "augment", (c.parent_id, repr(c.start)))
    if rng.random() >= 0.5:
        return False, notes, 0, 1.0, False
    p_min = min(n.pitch for n in notes)
    p_max = max(n.pitch for n in notes)
    bound = min(6, p_min - corpus.PITCH_MIN, corpus.PITCH_MAX - p_max)
    s = int(rng.integers(-bound, bound + 1)) if bound > 0 else 0
    notes = [replace(n, pitch=n.pitch + s) for n in notes]
    t = float(rng.uniform(0.8, 1.2))
    out, refill_missing = ref_time_dilate(c, notes, t, parent)
    draws = rng.integers(-12, 13, size=len(out))
    out = [replace(n, velocity=int(np.clip(n.velocity + d, corpus.VELOCITY_MIN,
                                           corpus.VELOCITY_MAX)))
           for n, d in zip(out, draws)]
    return True, tuple(out), s, t, refill_missing


pitches = st.integers(21, 108)
velocities = st.integers(1, 127)
# k / 200 s lands on x.xx5 and on the x.x5 frame ties; k / 2000 s on the
# half milliseconds, where times round half to even to whole milliseconds
durations = st.one_of(st.integers(1, 600).map(lambda k: k / 200),
                      st.integers(10, 6000).map(lambda k: k / 2000),
                      st.floats(0.005, 3.0))


def onsets(limit):
    return st.one_of(
        st.integers(0, int(limit * 200) - 1).map(lambda k: k / 200),
        st.integers(0, int(limit * 2000) - 1).map(lambda k: k / 2000),
        st.floats(0.0, limit, exclude_max=True))


@st.composite
def note_sets(draw, limit=corpus.CLIP_SECONDS):
    """Notes with onsets in [0, limit) and offsets up to 3 s later (past
    30 s at the clip end), plus copies of drawn notes: equal (onset, pitch)
    ties and overlapping notes on the same row."""
    notes = [corpus.NoteEvent(onset=on, pitch=p, offset=on + d, velocity=v)
             for on, p, d, v in draw(st.lists(
                 st.tuples(onsets(limit), pitches, durations, velocities),
                 max_size=12))]
    for kind in draw(st.lists(st.sampled_from(("tie", "overlap")),
                              max_size=4 if notes else 0)):
        src = draw(st.sampled_from(notes))
        onset = src.onset if kind == "tie" else draw(
            st.floats(src.onset, src.offset).filter(lambda x: x < limit))
        notes.append(corpus.NoteEvent(onset=onset, pitch=src.pitch,
                                      offset=onset + draw(durations),
                                      velocity=draw(velocities)))
    return draw(st.permutations(notes))


def clip_of(notes, parent_id="r", start=0.0):
    return corpus.Clip(parent_id=parent_id, performer="p", start=start,
                       notes=tuple(notes))


@st.composite
def crowds(draw):
    """None, or more notes than the keyboard has rows over one span, so the
    random-row draws fall back and same-pitch notes overlap."""
    if not draw(st.booleans()):
        return []
    onset, duration = draw(onsets(corpus.CLIP_SECONDS)), draw(durations)
    return [corpus.NoteEvent(onset=onset, pitch=p, offset=onset + duration,
                             velocity=v)
            for p, v in draw(st.lists(st.tuples(pitches, velocities),
                                      min_size=89, max_size=95))]


# notes a clip cannot hold, which paint_roll leaves out
late_notes = st.lists(st.builds(
    lambda on, p, d, v: corpus.NoteEvent(onset=on, pitch=p, offset=on + d,
                                         velocity=v),
    st.floats(corpus.CLIP_SECONDS, 40.0), pitches, durations, velocities),
    max_size=3)


class TestAgainstPerNoteReferences:
    @settings(max_examples=150, deadline=None)
    @given(notes=note_sets(), crowd=crowds(), late=late_notes,
           seed=st.integers(0, 3), min_notes=st.integers(2, 3),
           max_velocity=st.none() | st.integers(127, 200))
    def test_rolls(self, tmp_path_factory, notes, crowd, late, seed,
                   min_notes, max_velocity):
        """Every roll's rectangles paint the per-note roll, survive the
        roll store, and pool to its embedding bit for bit; melody_roll also
        paints it."""
        c = clip_of(notes + crowd)
        rows = tuple(sorted(notes + crowd, key=lambda n: (n.onset, n.pitch)))
        assert tuple(c.notes) == rows
        store = tmp_path_factory.mktemp("rolls") / corpus.ROLLS_NAME
        painted = representations.melody_roll(c)
        assert painted.dtype == np.float32
        assert np.array_equal(painted, ref_melody_roll(rows))
        for rects, want in (
                (corpus.paint_roll(list(c.notes) + late, max_velocity),
                 ref_paint_roll(rows + tuple(late), max_velocity)),
                (representations.melody_roll(c, rects=True),
                 ref_melody_roll(rows)),
                (representations.harmony_roll(c, min_notes),
                 ref_harmony_roll(rows, min_notes)),
                (representations.rhythm_roll(c, seed),
                 ref_rhythm_roll(c, rows, seed)),
                (representations.dynamics_roll(c, seed),
                 ref_dynamics_roll(c, rows, seed))):
            assert rects.dtype == corpus.RECT
            assert np.array_equal(corpus.paint(rects), want)
            with corpus.RollStore.create(store) as out:
                corpus.write_roll(out, rects, "a.roll")
            assert np.array_equal(corpus.read_roll(store / "a.roll"), want)
            assert (concepts.default_embedder()(rects).tobytes()
                    == concepts._pool_embed(want).tobytes())

    @settings(max_examples=60, deadline=None)
    @given(notes=note_sets().filter(bool), crowd=crowds(),
           kernel=st.sampled_from([(24, 250), (88, 3000), (7, 600)]),
           stride=st.sampled_from([(2, 200), (5, 450)]))
    def test_masked_sensitivity(self, notes, crowd, kernel, stride):
        """The per-note window product gives the heat map of painting and
        pooling each masked roll, bit for bit."""
        c = clip_of(notes + crowd)
        cav = concepts.ConceptVector(
            y=np.random.default_rng(len(notes)).normal(size=64))
        painted = concepts.Embedder(
            fn=lambda roll: concepts._pool_embed(roll), dim=64)
        assert not painted.pools
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(concepts, "MASK_KERNEL", kernel)
            mp.setattr(concepts, "MASK_STRIDE", stride)
            want = concepts.masked_sensitivity(c, painted, cav)
            got = concepts.masked_sensitivity(
                c, concepts.default_embedder(), cav)
        assert got.tobytes() == want.tobytes()

    def test_wrapped_pool_embed_keeps_the_product_path(self, monkeypatch):
        """An embedder whose fn wraps _pool_embed with functools.wraps, as a
        tracer does, receives rectangles and takes the product path."""
        c = clip_of([corpus.NoteEvent(onset=0.5 * i, offset=0.5 * i + 0.4,
                                      pitch=40 + i, velocity=30 + i)
                     for i in range(40)])
        cav = concepts.ConceptVector(
            y=np.random.default_rng(0).normal(size=64))
        seen = []

        @functools.wraps(concepts._pool_embed)
        def traced(roll):
            seen.append(roll.dtype)
            return concepts._pool_embed(roll)

        wrapped = concepts.Embedder(fn=traced, dim=64)
        assert wrapped.pools and concepts.default_embedder().pools
        monkeypatch.setattr(concepts, "paint_roll", None)  # never painted
        got = concepts.masked_sensitivity(c, wrapped, cav)
        assert seen == [corpus.RECT]      # the whole roll, as rectangles
        want = concepts.masked_sensitivity(c, concepts.default_embedder(),
                                           cav)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(notes=note_sets(limit=60.0).filter(bool), seed=st.integers(0, 50),
           hop=st.sampled_from([15.0, 20.0, 30.0]), with_parent=st.booleans())
    def test_segment_and_augment(self, notes, seed, hop, with_parent):
        t = corpus.Transcription("r", "p", "solo", notes=notes)
        config = augment.AugmentConfig(seed=seed)
        clips = corpus.segment_clips(t, hop)
        assert [(c.start, tuple(c.notes)) for c in clips] == \
            ref_segment_clips(t, hop)
        parent = t if with_parent else None
        for c in clips:
            r = augment.augment(c, config, parent=parent)
            want = ref_augment(c, tuple(c.notes), config, parent)
            assert (r.applied, tuple(r.clip.notes), r.pitch_shift,
                    r.dilation, r.refill_missing) == want

    @settings(max_examples=150, deadline=None)
    @given(notes=note_sets(limit=45.0).filter(bool),
           t=st.sampled_from([0.8, 1.2, 1.1]) | st.floats(0.8, 1.2),
           with_parent=st.booleans())
    def test_time_dilate(self, notes, t, with_parent):
        # a note ending where its scaled offset is 30 s
        end = corpus.CLIP_SECONDS / t
        notes = notes + [corpus.NoteEvent(onset=end - 0.5, pitch=60,
                                          offset=end, velocity=64)]
        parent = corpus.Transcription("r", "p", "solo", notes=notes)
        for c in corpus.segment_clips(parent):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(augment, "DILATION_RANGE", (t, t))
                got, got_t, missing = augment.time_dilate(
                    c, derive_rng(0, "t"), parent if with_parent else None)
            assert got_t == t
            assert (tuple(got.notes), missing) == ref_time_dilate(
                c, tuple(c.notes), t, parent if with_parent else None)

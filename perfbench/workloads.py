"""Workload definitions: inputs from a seed, the operations of one pass, the
checks each operation makes on its outputs, and closed-form counts.

An operation is one ``stylus.cli.main`` subcommand call, or one library step
that no subcommand exposes, plus the checks on what it wrote.
"""

from __future__ import annotations

import csv
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

PITCH_MIN, PITCH_MAX = 21, 108
ROLL_SHAPE = (88, 3000)
CLIP_SECONDS = 30.0
MAX_TRANSPOSITION = 6
MIN_CHORD_NOTES = 3
N_CONCEPTS = 20
TRIADS = ((0, 4, 7), (0, 3, 7), (0, 3, 6), (0, 4, 8), (0, 5, 7))
MIN_TOP1 = 0.9

# The trial list of `search` depends only on its --seed. Across seeds its
# cost swings from 3 s to 34 s, because the ~7% of trials with L2, C < 0.05
# and class_weight=none need 1.4k-5k gradient-descent iterations. Every run
# therefore searches with this one seed: the smallest whose 30 trials hold
# two such configurations, the median count over search seeds 0-299. One of
# them stops at MAX_ITER without converging.
SEARCH_SEED = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: dict                 # SyntheticConfig fields besides the seed
    commands: tuple
    config: dict = field(default_factory=dict)   # RunConfig overrides
    exercises: bool = False
    sensitivity_recordings: int = 0

    @property
    def op_names(self) -> tuple:
        return self.commands + (("sensitivity",)
                                if self.sensitivity_recordings else ())


WORKLOADS = {w.name: w for w in (
    Workload(
        "extract",
        "parse and n-gram extraction do ~95% of the work; one small fit, "
        "so a corpus/features change shows and the classifier is idle",
        dict(n_performers=10, n_recordings=40, events_per_recording=200),
        ("ingest", "split", "extract", "train", "evaluate", "pca")),
    Workload(
        "resample",
        "288 fits, most reached through interpret, take ~75% of the time, so "
        "a solver or resampling change shows while features are a small share",
        dict(n_performers=20, n_recordings=40, signature_rate=1.3),
        ("split", "extract", "train", "evaluate", "importance", "correlate",
         "report", "search"),
        dict(n_permutations=50, n_bootstrap=50, search_iterations=30,
             n_importance=1000)),
    Workload(
        "render",
        "the clip path (segment, paint, rolls, embed, CAV, masked "
        "sensitivity) writes ~605 MB of rolls that the other workloads skip",
        dict(n_performers=10, n_recordings=2),
        ("split", "rolls", "augment", "concepts"),
        dict(n_concept_iterations=10), exercises=True,
        sensitivity_recordings=6),
)}


class CheckFailed(Exception):
    """An operation's output does not meet its check."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- inputs ---------------------------------------------------------------

def _invert(chord, times):
    chord = sorted(chord)
    for _ in range(times):
        chord = sorted(chord[1:] + [chord[0] + 12])
    return chord


def variant_count(chords) -> int:
    """Transposition x inversion x root/rootless variants that stay on the
    keyboard, counted from the rule the concept module documents."""
    n = 0
    for shift in range(-MAX_TRANSPOSITION, MAX_TRANSPOSITION + 1):
        for inv in range(max(len(ch) for ch in chords)):
            for rootless in (False, True):
                ok = True
                for ch in chords:
                    pitches = _invert(ch, inv % len(ch))[int(rootless):]
                    ok = ok and len(pitches) >= (MIN_CHORD_NOTES if rootless else 1)
                    ok = ok and all(PITCH_MIN <= p + shift <= PITCH_MAX
                                    for p in pitches)
                n += ok
    return n


def make_exercises(seed: int) -> list:
    """One exercise per concept: three triads over a root in 45..75."""
    rng = random.Random(seed)
    out = []
    for cid in range(N_CONCEPTS):
        root = rng.randint(45, 75)
        chords = [[root + rng.choice((0, 2, 5, 7)) + i
                   for i in rng.choice(TRIADS)] for _ in range(3)]
        out.append({"concept_id": cid, "chords": chords})
    return out


def check_pool_rule(exercises) -> None:
    """Each concept's variants must leave at least twice as many variants
    in the other concepts, as ``sign_count_experiment`` requires."""
    counts = {}
    for e in exercises:
        counts[e["concept_id"]] = (counts.get(e["concept_id"], 0)
                                   + variant_count(e["chords"]))
    total = sum(counts.values())
    for cid, own in counts.items():
        require(own > 0, f"concept {cid} has no variants")
        require(total - own >= 2 * own,
                f"concept {cid}: pool {total - own} < 2 x {own}")


def clip_starts(duration: float) -> list:
    starts = [0.0]
    while starts[-1] + CLIP_SECONDS < duration:
        starts.append(len(starts) * CLIP_SECONDS)
    return starts


def describe_corpus(manifest_path) -> list:
    """[recording_id, performer, tag, n_notes, duration] per manifest row."""
    rows = []
    with open(manifest_path, newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            n_notes, duration = 0, 0.0
            with open(row["path"], encoding="utf-8") as notes:
                for line in notes:
                    if line.strip():
                        n_notes += 1
                        duration = max(duration, json.loads(line)["offset"])
            rows.append([row["recording_id"], row["performer"],
                         row["dataset_tag"], n_notes, duration])
    return rows


# --- output checks --------------------------------------------------------

def _csv_rows(path) -> list:
    require(Path(path).is_file(), f"{Path(path).name} missing")
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _read_splits(out) -> dict:
    return {r[0]: r[1] for r in _csv_rows(out / "splits.csv")[1:]}


def _clip_keys(recordings) -> list:
    return [f"{rid}_{int(s)}" for rid, _, _, _, dur in recordings
            for s in clip_starts(dur)]


def _performers(recordings) -> list:
    return sorted({r[1] for r in recordings})


def check_ingest(ctx):
    rows = _csv_rows(ctx.out / "ingest.csv")[1:]
    want = {r[0]: r[3] for r in ctx.recordings}
    require({r[0]: int(r[3]) for r in rows} == want,
            "ingest.csv note counts differ from the input files")


def check_split(ctx):
    splits = _read_splits(ctx.out)
    require(set(splits) == {r[0] for r in ctx.recordings},
            "splits.csv does not cover every recording")
    require(set(splits.values()) == {"train", "validation", "test"},
            "splits.csv lacks a split or names an unknown one")


def check_extract(ctx):
    vocab = _csv_rows(ctx.out / "vocabulary.csv")[1:]
    require(len(vocab) > 0, "empty vocabulary")
    rids = {r[0] for r in _csv_rows(ctx.out / "features.csv")[1:]}
    require(rids == {r[0] for r in ctx.recordings},
            "features.csv does not cover every recording")


def check_train(ctx):
    model = json.loads((ctx.out / "model.json").read_text())
    n_vocab = len(_csv_rows(ctx.out / "vocabulary.csv")) - 1
    require(model["class_labels"] == _performers(ctx.recordings),
            "model classes differ from the performers")
    require(model["n_features"] == n_vocab
            and len(model["W"]) == n_vocab * len(model["class_labels"]),
            "model width differs from the vocabulary")


def check_evaluate(ctx):
    top1 = json.loads((ctx.out / "evaluation.json").read_text())["top1"]
    require(top1 >= MIN_TOP1, f"test top-1 {top1:.3f} < {MIN_TOP1}")


def check_pca(ctx):
    rows = _csv_rows(ctx.out / "pca_projection.csv")
    require(len(rows) == 1 + len(_performers(ctx.recordings)),
            "pca_projection.csv row count")


def check_importance(ctx):
    rows = _csv_rows(ctx.out / "importance.csv")[1:]
    require(len(rows) == 4, f"importance.csv has {len(rows)} groups, not 4")
    require(all(int(r[3]) == ctx.config["n_importance"] for r in rows),
            "importance iterations differ from n_importance")


def check_correlate(ctx):
    rows = _csv_rows(ctx.out / "correlations.csv")[1:]
    require(len(rows) == 2 * len(_performers(ctx.recordings)),
            f"correlations.csv has {len(rows)} rows")
    require(all(0.0 < float(r[3]) <= 1.0 for r in rows),
            "correlation p outside (0, 1]")


def check_report(ctx):
    rows = _csv_rows(ctx.out / "weights_topbottom.csv")[1:]
    require(len(rows) == 10 * len(_performers(ctx.recordings)),
            f"weights_topbottom.csv has {len(rows)} rows")


def check_search(ctx):
    rows = _csv_rows(ctx.out / "trials.csv")[1:]
    require(len(rows) == ctx.config["search_iterations"],
            f"trials.csv has {len(rows)} trials")
    require((ctx.out / "best_config.json").is_file(), "best_config.json")


def check_rolls(ctx):
    from stylus import corpus
    index = json.loads((ctx.out / "rolls.json").read_text())
    require(sorted(index) == sorted(_clip_keys(ctx.recordings)),
            "rolls.json keys differ from the expected clips")
    for paths in index.values():
        require(len(paths) == 5, "a clip lacks one of its five rolls")
        for path in paths.values():
            roll = corpus.read_roll(path)
            require(roll.shape == ROLL_SHAPE, f"{path}: shape {roll.shape}")


def check_augment(ctx):
    audit = json.loads((ctx.out / "augment_audit.json").read_text())
    require(sorted(a["clip"] for a in audit)
            == sorted(_clip_keys(ctx.recordings)),
            "augment_audit.json clips differ from the expected clips")


def _held_out(ctx) -> list:
    splits = _read_splits(ctx.out)
    return [r for r in ctx.recordings
            if splits.get(r[0]) in ("validation", "test")]


def check_concepts(ctx):
    n_perf = len(_performers(_held_out(ctx)))
    rows = _csv_rows(ctx.out / "sign_counts.csv")[1:]
    want = n_perf * N_CONCEPTS * ctx.config["n_concept_iterations"]
    require(len(rows) == want, f"sign_counts.csv has {len(rows)} rows, "
                               f"want {want}")
    tested = _csv_rows(ctx.out / "sign_counts_tested.csv")[1:]
    require(len(tested) == n_perf * N_CONCEPTS, "sign_counts_tested.csv rows")
    require((ctx.out / "dendrogram.json").is_file() == (n_perf >= 2),
            "dendrogram.json present iff two or more performers")


def check_sensitivity(ctx, maps):
    first = ctx.recordings[:ctx.workload.sensitivity_recordings]
    want = len(_clip_keys(first))
    require(len(maps) == want, f"{len(maps)} sensitivity maps, want {want}")
    require(all(tuple(shape) == ROLL_SHAPE and finite
                for shape, finite in maps),
            "a sensitivity map is not a finite 88x3000 array")


CHECKS = {"ingest": check_ingest, "split": check_split,
          "extract": check_extract, "train": check_train,
          "evaluate": check_evaluate, "pca": check_pca,
          "importance": check_importance, "correlate": check_correlate,
          "report": check_report, "search": check_search,
          "rolls": check_rolls, "augment": check_augment,
          "concepts": check_concepts}


# --- one pass -------------------------------------------------------------

@dataclass
class PassContext:
    workload: Workload
    seed: int
    manifest: Path
    out: Path
    config_path: Path
    exercises: Path
    config: dict
    recordings: list


def sensitivity_step(ctx):
    """CAV for concept 0 against an equal-size random draw from the other
    concepts' variants, then a masked-sensitivity map per clip of the
    first recordings. Returns (shape, all finite) per map."""
    import numpy as np
    from stylus import concepts, corpus
    embedder = concepts.default_embedder()
    acts: dict = {}
    for e in concepts.read_concept_exercises(ctx.exercises):
        acts.setdefault(e.concept_id, []).extend(
            embedder(r) for r in concepts.expand_concept(e))
    concept_acts = np.array(acts[0])
    pool = np.array([a for c in sorted(acts) if c != 0 for a in acts[c]])
    pick = np.random.default_rng(ctx.seed).choice(
        len(pool), size=len(concept_acts), replace=False)
    cav = concepts.train_cav(concept_acts, pool[pick], seed=ctx.seed)
    entries = corpus.read_manifest(ctx.manifest)
    maps = []
    for entry in entries[:ctx.workload.sensitivity_recordings]:
        t = corpus.parse_note_events(entry.path, entry.recording_id,
                                     entry.performer, entry.dataset_tag)
        for clip in corpus.segment_clips(t):
            heat = concepts.masked_sensitivity(clip, embedder, cav)
            maps.append((heat.shape, bool(np.isfinite(heat).all())))
    return maps


def operations(ctx) -> list:
    """(name, callable, check of the callable's result) for one pass."""
    from stylus import cli

    def command(name):
        seed = SEARCH_SEED if name == "search" else ctx.seed
        argv = [name, "--manifest", str(ctx.manifest), "--out", str(ctx.out),
                "--seed", str(seed), "--config", str(ctx.config_path)]
        if name == "concepts":
            argv += ["--exercises", str(ctx.exercises)]

        def check(code):
            require(code == 0, f"exit code {code}")
            CHECKS[name](ctx)
        return name, lambda: cli.main(argv), check

    ops = [command(name) for name in ctx.workload.commands]
    if ctx.workload.sensitivity_recordings:
        ops.append(("sensitivity", lambda: sensitivity_step(ctx),
                    lambda maps: check_sensitivity(ctx, maps)))
    return ops


def run_operation(name, fn, check) -> dict:
    """Time ``fn``, then ``check`` its result. A raised exception, a
    non-zero exit code or a failed check marks the operation failed; it
    never stops the pass."""
    op = {"name": name, "ok": False, "error": ""}
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        value = fn()
    except Exception:
        op["error"] = traceback.format_exc(limit=3)
        value = None
    op["seconds"] = time.perf_counter() - start
    op["cpu_seconds"] = time.process_time() - cpu_start
    if op["error"]:
        return op
    try:
        check(value)
    except (CheckFailed, OSError, ValueError, KeyError) as exc:
        op["error"] = f"{type(exc).__name__}: {exc}"
        return op
    op["ok"] = True
    return op


def expected_counts(ctx) -> dict:
    """Closed forms of the exact per-layer counts for this pass."""
    w, cfg, recs = ctx.workload, ctx.config, ctx.recordings
    total_notes = sum(r[3] for r in recs)
    commands = w.commands
    loads = sum(c in ("train", "evaluate", "importance", "correlate",
                      "report", "search", "pca") for c in commands)
    out = {"cli.manifest_reads": len(commands)
           + (1 if w.sensitivity_recordings else 0),
           "cli.feature_loads": loads, "features.matrix_builds": loads}
    if w.name == "extract":
        out.update({"classifier.fits": 1, "corpus.clips": 0,
                    "corpus.notes_parsed": 2 * total_notes})
    elif w.name == "resample":
        P, B, S = (cfg["n_permutations"], cfg["n_bootstrap"],
                   cfg["search_iterations"])
        out.update({"classifier.fits":
                    1 + (1 + 4 * (1 + P)) + (2 + B) + S,
                    "corpus.clips": 0, "corpus.notes_parsed": total_notes})
    elif w.name == "render":
        first = recs[:w.sensitivity_recordings]
        held = _held_out(ctx)
        exercises = make_exercises(ctx.seed)
        I = cfg["n_concept_iterations"]
        cavs = 2 * len(exercises) * I + 1
        out.update({
            "classifier.fits": cavs, "concepts.cavs": cavs,
            "corpus.clips": 2 * len(_clip_keys(recs))
            + len(_clip_keys(held)) + len(_clip_keys(first)),
            "augment.clips": len(_clip_keys(recs)),
            "concepts.variants": 2 * sum(variant_count(e["chords"])
                                         for e in exercises),
            "concepts.sensitivity_maps": len(_clip_keys(first)),
            "corpus.notes_parsed": 3 * total_notes
            + sum(r[3] for r in first)})
    return out

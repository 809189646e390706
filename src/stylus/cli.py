"""Command-line entry point orchestrating the full pipeline."""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import augment as augment_mod
from . import classifier, concepts, corpus, features, interpret
from . import representations, synthetic

log = logging.getLogger("stylus")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_USAGE = 64

COMMANDS = ("ingest", "split", "extract", "train", "search", "evaluate",
            "importance", "correlate", "pca", "rolls", "augment",
            "concepts", "report", "gen-synthetic")


@dataclass
class RunConfig:
    """Pipeline defaults; every value matches the published analysis."""
    grid: float = features.GRID_SECONDS
    n_values: tuple = features.NGRAM_SIZES
    min_df: int = features.MIN_DF
    max_df: int = features.MAX_DF
    C: float = 1.0
    class_weight: str = "balanced"
    penalty: str = "L2"
    top_k: int = 2000
    n_permutations: int = 1000
    n_importance: int = 1000
    n_concept_iterations: int = concepts.N_ITERATIONS
    bonferroni_m: int = concepts.N_CONCEPTS
    search_iterations: int = 1000
    n_bootstrap: int = 1000
    hop: float = corpus.CLIP_SECONDS
    min_chord_notes: int = representations.MIN_CHORD_NOTES


# Each --config key's type and allowed values, checked at load, before a
# subcommand reads or writes anything: a number in [low, high]; a list of
# distinct ints, each in [low, high]; or one of a str's choices. A float
# key also takes an int, and no key takes a bool. Also max_df >= min_df.
# A count that sizes an array or a loop is at most sys.maxsize, the largest
# array dimension.
CONFIG_KEYS = {
    "grid": (float, 0.001, corpus.MAX_RECORDING_SECONDS),
    "n_values": (tuple, 1, features.MAX_FEATURE_SIZE),
    "min_df": (int, 1, math.inf),
    "max_df": (int, 1, math.inf),
    "C": (float, *classifier.C_RANGE),
    "class_weight": (str, classifier.CLASS_WEIGHTS),
    "penalty": (str, classifier.PENALTIES),
    "top_k": (int, 1, math.inf),
    "n_permutations": (int, 1, sys.maxsize),
    "n_importance": (int, 1, sys.maxsize),
    "n_concept_iterations": (int, 1, sys.maxsize),
    "bonferroni_m": (int, 1, math.inf),
    "search_iterations": (int, 1, sys.maxsize),
    "n_bootstrap": (int, 2, sys.maxsize),
    "hop": (float, 15.0, corpus.CLIP_SECONDS),
    "min_chord_notes": (int, 1, corpus.ROLL_HEIGHT),
}


def _setup_logging():
    level = os.environ.get("STYLUS_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _write_run_info(out_dir: Path, command: str, args, config: RunConfig,
                    started: float, extra: dict) -> None:
    payload = {
        "command": command,
        "seed": args.seed,
        "config": asdict(config),
        "manifest": args.manifest,
        "manifest_sha256": (
            hashlib.sha256(Path(args.manifest).read_bytes()).hexdigest()
            if command in NEEDS_MANIFEST else None),
        "version": __version__,
        "wall_time_seconds": time.time() - started,
        **extra,
    }
    with open(out_dir / "run.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def _refusal(key: str, value) -> str | None:
    """What ``value`` must be to set config key ``key`` and what it is
    ("be an int, got str"), or None if it may set it."""
    kind, *allowed = CONFIG_KEYS[key]
    items = value if isinstance(value, list) else [value]
    types = {tuple: (int,), float: (int, float)}.get(kind, (kind,))
    if (kind is tuple) != isinstance(value, list) or any(
            type(v) not in types for v in items):
        name = ("a list of ints" if kind is tuple
                else f"{'an' if kind is int else 'a'} {kind.__name__}")
        return f"be {name}, got {type(value).__name__}"
    if kind is str:
        return (None if value in allowed[0]
                else f"be one of {list(allowed[0])}, got {value!r}")
    lo, hi = allowed
    if kind is tuple:
        if not value or min(value) < lo or len(set(value)) < len(value):
            return (f"be a non-empty list of distinct sizes >= {lo}, "
                    f"got {value}")
        return None if max(value) <= hi else (
            f"hold sizes <= {hi} (larger codes overflow int64), got {value}")
    if lo <= value <= hi:
        return None
    bound = f"in [{lo}, {hi}]" if hi < math.inf else f">= {lo}"
    return f"be {bound}, got {value}"


def _load_config(args) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        try:
            overrides = json.loads(corpus.read_utf8(args.config))
        except json.JSONDecodeError as exc:
            raise corpus.ValidationError(
                f"{args.config}:{exc.lineno}: not JSON: {exc.msg} "
                f"(column {exc.colno})") from None
        if not isinstance(overrides, dict):
            raise corpus.ValidationError(
                f"{args.config}: config must be a JSON object, "
                f"got {type(overrides).__name__}")
        unknown = set(overrides) - set(CONFIG_KEYS)
        if unknown:
            raise corpus.ValidationError(
                f"unknown config keys: {sorted(unknown)}")
        for key, value in overrides.items():
            if refusal := _refusal(key, value):
                raise corpus.ValidationError(
                    f"config key {key!r} must {refusal}")
        config = replace(config, **{k: tuple(v) if isinstance(v, list) else v
                                    for k, v in overrides.items()})
        if config.max_df < config.min_df:
            raise corpus.ValidationError(
                f"config key 'max_df' must be >= min_df ({config.min_df}), "
                f"got {config.max_df}")
    return config


def _lr_config(config: RunConfig) -> classifier.LRConfig:
    return classifier.LRConfig(C=config.C, class_weight=config.class_weight,
                               penalty=config.penalty)


def _note_store(args) -> corpus.NoteStore:
    """The note store ``ingest`` wrote in --out; empty if there is none."""
    return corpus.NoteStore(Path(args.out) / corpus.STORE_NAME)


def _load_transcriptions(manifest, store: corpus.NoteStore):
    """The manifest's recordings, parsed one at a time in manifest order.

    A generator, so a pass that drops each Transcription before taking the
    next holds one parsed recording at a time, and an invalid recording
    raises only when the pass reaches it: a subcommand writes its index
    file after the loop, so an invalid recording leaves none behind.
    Each is parsed through ``store`` (``corpus.parse_note_events``):
    ``ingest`` fills a new one, and the other corpus subcommands read the
    store in --out, which holds each file unchanged since ``ingest``.
    ``store.counts``, which run.json records, says where the notes came from.
    """
    return (corpus.parse_note_events(e.path, e.recording_id, e.performer,
                                     e.dataset_tag, store) for e in manifest)


def _require(path: Path, what: str):
    if not path.exists():
        raise corpus.ValidationError(
            f"{what} not found at {path}; run the producing subcommand first")
    return path


def _load_features(out_dir: Path):
    """(FeatureTable, vocabulary) in ``out_dir``: the counts come from
    features.table if it was written from features.csv's exact bytes."""
    table = features.read_feature_counts(
        _require(out_dir / "features.csv", "feature dump"))
    vocab = features.read_vocabulary(
        _require(out_dir / "vocabulary.csv", "vocabulary"))
    return table, vocab


def _vocab_hash(vocab) -> str:
    digest = hashlib.sha256()
    for (kind, feat), df in zip(vocab.features, vocab.document_frequency):
        digest.update(f"{kind}:{features.feature_string(feat)}:{df};"
                      .encode())
    return digest.hexdigest()


def _load_model(out: Path, vocab):
    """The trained model, refused if it was trained on another vocabulary
    (an empty stored hash, from older model files, is accepted)."""
    model = classifier.read_model(_require(out / "model.json", "model"))
    current = _vocab_hash(vocab)
    if model.vocabulary_hash and model.vocabulary_hash != current:
        raise corpus.ValidationError(
            f"model.json was trained on vocabulary {model.vocabulary_hash}, "
            f"but vocabulary.csv hashes to {current}; retrain the model")
    return model


def _split_rows(rids, split_map, split):
    return [i for i, r in enumerate(rids) if split_map.get(r) == split]


def cmd_gen_synthetic(args, config):
    sconfig = synthetic.SyntheticConfig(seed=args.seed)
    manifest = synthetic.write_corpus(args.out, sconfig)
    print(f"wrote synthetic corpus manifest to {manifest}")
    return {"synthetic": synthetic.write_plan(sconfig)}


def cmd_ingest(args, config):
    manifest = corpus.read_manifest(args.manifest)
    out = Path(args.out)
    with corpus.NoteStore.create(out / corpus.STORE_NAME) as store:
        rows = [[t.recording_id, t.performer, t.dataset_tag, len(t.notes),
                 repr(t.duration)]
                for t in _load_transcriptions(manifest, store)]
    corpus.write_table(out / "ingest.csv",
                       ["recording_id", "performer", "dataset_tag",
                        "n_notes", "duration"], rows)
    print(f"ingested {len(rows)} recordings")
    return {"notes": store.counts}


def cmd_split(args, config):
    manifest = corpus.read_manifest(args.manifest)
    assignment = corpus.assign_splits(manifest, args.seed)
    corpus.write_splits(Path(args.out) / "splits.csv", assignment)
    counts = {s: sum(1 for v in assignment.values() if v == s)
              for s in corpus.SPLITS}
    print(f"split {len(assignment)} recordings: {counts}")


def cmd_extract(args, config):
    manifest = corpus.read_manifest(args.manifest)
    store = _note_store(args)
    rids, counts = [], []
    for rid, feats in features.extract_recordings(
            _load_transcriptions(manifest, store), config.grid,
            config.n_values):
        rids.append(rid)
        counts.append(feats)
    vocab = features.build_vocabulary(counts, config.min_df, config.max_df)
    out = Path(args.out)
    table = features.FeatureTable.from_dicts(rids, counts)
    features.write_feature_counts(out / "features.csv", table)
    features.write_feature_table(out / "features.csv", table)
    features.write_vocabulary(out / "vocabulary.csv", vocab)
    print(f"extracted {len(vocab)} vocabulary features "
          f"from {len(rids)} recordings")
    return {"notes": store.counts}


def _labels_for(rids, manifest):
    by_id = {e.recording_id: e for e in manifest}
    missing = [r for r in rids if r not in by_id]
    if missing:
        raise corpus.ValidationError(
            f"features.csv names {len(missing)} recording(s) missing from "
            f"the manifest: {', '.join(missing)}")
    return ([by_id[r].performer for r in rids],
            [by_id[r].dataset_tag for r in rids])


def _load_inputs(args):
    """(out, rids, vocab, TF-IDF matrix, performers, dataset tags, run.json
    record) of the feature dump in --out, rows in its order, labelled from
    the manifest; the record says where the counts came from."""
    manifest = corpus.read_manifest(args.manifest)
    out = Path(args.out)
    table, vocab = _load_features(out)
    y, tags = _labels_for(table.recording_ids, manifest)
    X = features.tfidf(features.count_matrix(table, vocab))
    return (out, table.recording_ids, vocab, X, y, tags,
            {"feature_counts": table.source})


def cmd_train(args, config):
    out, rids, vocab, X, y, _, record = _load_inputs(args)
    split_map = corpus.read_splits(_require(out / "splits.csv", "splits"))
    rows = _split_rows(rids, split_map, "train")
    if not rows:
        raise corpus.ValidationError("no training recordings in split")
    model = classifier.fit(X[rows], [y[i] for i in rows], _lr_config(config))
    classifier.write_model(out / "model.json", model, _vocab_hash(vocab))
    print(f"trained on {len(rows)} recordings "
          f"({len(model.class_labels)} classes, converged={model.converged})")
    return record


def cmd_search(args, config):
    out, rids, vocab, X, y, _, record = _load_inputs(args)
    split_map = corpus.read_splits(_require(out / "splits.csv", "splits"))
    tr = _split_rows(rids, split_map, "train")
    va = _split_rows(rids, split_map, "validation")
    space = classifier.SearchSpace(iterations=config.search_iterations,
                                   seed=args.seed)
    best, acc, trials = classifier.random_search(
        space, X[tr], [y[i] for i in tr], X[va], [y[i] for i in va])
    classifier.write_trial_log(out / "trials.csv", trials)
    with open(out / "best_config.json", "w", encoding="utf-8") as fh:
        json.dump({"C": best.C, "class_weight": best.class_weight,
                   "penalty": best.penalty, "val_top1": acc}, fh)
    print(f"best config C={best.C:.3f} class_weight={best.class_weight} "
          f"penalty={best.penalty} (val top-1 {acc:.3f})")
    return record


def cmd_evaluate(args, config):
    out, rids, vocab, X, y, _, record = _load_inputs(args)
    split_map = corpus.read_splits(_require(out / "splits.csv", "splits"))
    model = _load_model(out, vocab)
    rows = _split_rows(rids, split_map, "test")
    if not rows:
        raise corpus.ValidationError("no test recordings in split")
    probs = classifier.predict_proba(model, X[rows])
    y_test = [y[i] for i in rows]
    result = {f"top{k}": classifier.top_k_accuracy(probs, y_test,
                                                   model.class_labels, k)
              for k in (1, 2, 3, 5) if k <= len(model.class_labels)}
    with open(out / "evaluation.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
    print(" ".join(f"{k}={v:.3f}" for k, v in result.items()))
    return record


def cmd_importance(args, config):
    out, rids, vocab, X, y, _, record = _load_inputs(args)
    split_map = corpus.read_splits(_require(out / "splits.csv", "splits"))
    model = _load_model(out, vocab)
    rows = _split_rows(rids, split_map, "test")
    X_test, y_test = X[rows], [y[i] for i in rows]
    reports = []
    for kind in (features.KIND_MELODY, features.KIND_HARMONY):
        cols = vocab.columns_of_kind(kind)
        reports.append(interpret.permutation_importance(
            model, X_test, y_test, cols, config.n_importance, args.seed,
            group=kind))
        k = min(config.top_k, cols.size)
        reports.append(interpret.subset_importance(
            model, X_test, y_test, cols, k, config.n_importance, args.seed,
            group=f"{kind}-subset-{k}"))
    corpus.write_table(
        out / "importance.csv",
        ["group", "mean_accuracy_loss", "sd", "iterations"],
        ([r.group, repr(r.mean_accuracy_loss), repr(r.sd), r.iterations]
         for r in reports))
    for r in reports:
        print(f"{r.group}: loss {r.mean_accuracy_loss:.3f} (sd {r.sd:.3f})")
    return record


def cmd_correlate(args, config):
    out, _, vocab, X, y, tags, record = _load_inputs(args)
    lr_config = _lr_config(config)
    full = classifier.fit(X, y, lr_config)
    rows_out = []
    for kind in (features.KIND_MELODY, features.KIND_HARMONY):
        cols = vocab.columns_of_kind(kind)
        k = min(config.top_k, cols.size)
        top = cols[interpret.top_k_features(full.W[:, cols], k)]
        report = interpret.dataset_weight_correlation(
            X, y, tags, top, lr_config, config.n_permutations, args.seed)
        for performer in sorted(report.r):
            rows_out.append([kind, performer, repr(report.r[performer]),
                             repr(report.p[performer]),
                             report.corrected_alpha_factor])
    corpus.write_table(out / "correlations.csv",
                       ["feature_kind", "performer", "r", "p",
                        "corrected_alpha_factor"], rows_out)
    print(f"wrote correlations for {len(rows_out)} performer/kind pairs")
    return record


def cmd_pca(args, config):
    out, _, vocab, X, y, _, record = _load_inputs(args)
    cols = np.array([i for i, (kind, feat) in enumerate(vocab.features)
                     if kind == features.KIND_MELODY and len(feat) == 4],
                    dtype=int)
    if cols.size < 2:
        raise corpus.ValidationError(
            "need at least two length-4 melody features for PCA")
    X = X[:, cols]      # frees the full matrix
    model = interpret.pca_fit(X)
    performers = sorted(set(y))
    means = np.vstack([
        X[[i for i, lab in enumerate(y) if lab == p]].mean(axis=0)
        for p in performers])
    coords = interpret.pca_project(model, means)
    corpus.write_table(
        out / "pca_components.csv",
        ["component", "explained_variance"]
        + [features.feature_string(vocab.features[c][1]) for c in cols],
        ([i, repr(float(var))] + [repr(float(v)) for v in comp]
         for i, (var, comp) in enumerate(zip(model.explained_variance,
                                             model.components))))
    n_dims = min(4, coords.shape[1])
    corpus.write_table(
        out / "pca_projection.csv",
        ["performer"] + [f"component_{i}" for i in range(n_dims)],
        ([p] + [repr(float(v)) for v in row[:n_dims]]
         for p, row in zip(performers, coords)))
    print(f"PCA over {cols.size} length-4 melody features, "
          f"{len(performers)} performers projected")
    return record


def cmd_rolls(args, config):
    manifest = corpus.read_manifest(args.manifest)
    out = Path(args.out)
    roll_dir = out / "rolls"
    roll_dir.mkdir(parents=True, exist_ok=True)
    index = {}
    store = _note_store(args)
    for t in _load_transcriptions(manifest, store):
        for clip in corpus.segment_clips(t, config.hop):
            key = f"{clip.parent_id}_{int(clip.start)}"
            paths = {"unified": str(roll_dir / f"{key}.roll")}
            corpus.write_roll(paths["unified"], corpus.to_piano_roll(clip))
            for name, roll in representations.factorised(
                    clip, args.seed, config.min_chord_notes):
                paths[name] = str(roll_dir / f"{key}.{name}.roll")
                corpus.write_roll(paths[name], roll)
            del roll    # free the last roll before the next clip's are made
            index[key] = paths
    with open(out / "rolls.json", "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=2)
    print(f"wrote {len(index)} clips x 5 rolls to {roll_dir}")
    return {"notes": store.counts}


def cmd_augment(args, config):
    manifest = corpus.read_manifest(args.manifest)
    out = Path(args.out)
    preview_dir = out / "augment_preview"
    preview_dir.mkdir(parents=True, exist_ok=True)
    aconfig = augment_mod.AugmentConfig(seed=args.seed)
    audit = []
    store = _note_store(args)
    for t in _load_transcriptions(manifest, store):
        for clip in corpus.segment_clips(t, config.hop):
            key = f"{clip.parent_id}_{int(clip.start)}"
            result = augment_mod.augment(clip, aconfig, parent=t)
            corpus.write_note_events(preview_dir / f"{key}.before.jsonl",
                                     clip.notes)
            corpus.write_note_events(preview_dir / f"{key}.after.jsonl",
                                     result.clip.notes)
            audit.append({"clip": key, "applied": result.applied,
                          "pitch_shift": result.pitch_shift,
                          "dilation": result.dilation,
                          "refill_missing": result.refill_missing})
    with open(out / "augment_audit.json", "w", encoding="utf-8") as fh:
        json.dump(audit, fh, indent=2)
    print(f"previewed augmentation for {len(audit)} clips")
    return {"notes": store.counts}


def cmd_concepts(args, config):
    manifest = corpus.read_manifest(args.manifest)
    out = Path(args.out)
    exercises = concepts.read_concept_exercises(
        _require(Path(args.exercises), "concept exercise file"))
    split_map = corpus.read_splits(_require(out / "splits.csv", "splits"))
    by_concept: dict = {}
    for e in exercises:
        by_concept.setdefault(e.concept_id, []).append(e)
    by_performer: dict = {}
    store = _note_store(args)
    for t in _load_transcriptions(manifest, store):
        if split_map.get(t.recording_id) in ("validation", "test"):
            by_performer.setdefault(t.performer, []).append(t)
    # each roll is rendered only when sign_count_experiment embeds it
    variants = {c: (roll for e in es for roll in concepts.expand_concept(
                        e, min_chord_notes=config.min_chord_notes))
                for c, es in by_concept.items()}
    clip_rolls = {p: (corpus.to_piano_roll(clip) for t in ts
                      for clip in corpus.segment_clips(t, config.hop))
                  for p, ts in by_performer.items()}
    matrix = concepts.sign_count_experiment(
        clip_rolls, variants, concepts.default_embedder(),
        config.n_concept_iterations, args.seed)
    # every result is computed before any file is written, so a refusal
    # leaves none behind
    means, corrected = concepts.summarise_sign_counts(
        matrix, config.bonferroni_m)
    dendrogram = None
    if len(matrix.performers) >= 2:
        flat = matrix.observed.reshape(len(matrix.performers), -1)
        for performer, row in zip(matrix.performers, flat):
            if np.ptp(row) == 0:
                raise corpus.ValidationError(
                    f"performer {performer!r}: sign counts do not vary, so "
                    f"performers cannot be clustered (are the concept "
                    f"rolls empty at min_chord_notes "
                    f"{config.min_chord_notes}?)")
        dendrogram = concepts.cluster(flat, matrix.performers)
    concepts.write_sign_counts(out / "sign_counts.csv", matrix)
    concepts.write_tested_sign_counts(out / "sign_counts_tested.csv",
                                      matrix, means, corrected)
    if dendrogram is not None:
        concepts.write_dendrogram(out / "dendrogram.json", dendrogram)
    print(f"concept analysis: {len(matrix.performers)} performers x "
          f"{len(matrix.concepts)} concepts x "
          f"{matrix.observed.shape[2]} iterations")
    return {"notes": store.counts}


def cmd_report(args, config):
    out, _, vocab, X, y, _, record = _load_inputs(args)
    lr_config = _lr_config(config)
    model = classifier.fit(X, y, lr_config)
    sds = interpret.bootstrap_weight_sd(X, y, lr_config,
                                        config.n_bootstrap, args.seed)
    melody_cols = vocab.columns_of_kind(features.KIND_MELODY)
    rows = []
    for ci, performer in enumerate(model.class_labels):
        order = np.argsort(-model.W[ci, melody_cols], kind="stable")
        for label, i in ([("top", i) for i in order[:5]]
                         + [("bottom", i) for i in order[-5:]]):
            col = melody_cols[i]
            rows.append([performer, label,
                         features.feature_string(vocab.features[col][1]),
                         repr(float(model.W[ci, col])),
                         repr(float(sds[ci, col]))])
    corpus.write_table(out / "weights_topbottom.csv",
                       ["performer", "rank", "feature_string", "weight", "sd"],
                       rows)
    print(f"wrote top/bottom melody weights for "
          f"{len(model.class_labels)} performers")
    return record


# each subcommand's handler is the cmd_ function named after it
HANDLERS = {name: globals()["cmd_" + name.replace("-", "_")]
            for name in COMMANDS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stylus",
        description="Deconstruct performance style from note-event "
                    "transcriptions")
    sub = parser.add_subparsers(dest="command")
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--manifest", help="corpus manifest CSV")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", help="JSON file with config overrides")
        if name == "concepts":
            p.add_argument("--exercises",
                           help="concept exercise JSONL file")
    return parser


NEEDS_MANIFEST = set(COMMANDS) - {"gen-synthetic"}


def main(argv=None) -> int:
    _setup_logging()
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    if not argv or argv[0] in ("-h", "--help"):
        parser.print_help()
        return EXIT_OK
    if argv[0] not in COMMANDS:
        parser.print_usage(sys.stderr)
        print(f"stylus: unknown subcommand {argv[0]!r}", file=sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    started = time.time()
    out_dir = Path(args.out)
    try:
        config = _load_config(args)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.command in NEEDS_MANIFEST and not args.manifest:
            raise corpus.ValidationError(
                f"{args.command} requires --manifest")
        if args.command == "concepts" and not args.exercises:
            raise corpus.ValidationError("concepts requires --exercises")
        extra = HANDLERS[args.command](args, config) or {}
        _write_run_info(out_dir, args.command, args, config, started, extra)
    except (corpus.ValidationError, corpus.ParseError, ValueError) as exc:
        print(f"stylus: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"stylus: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

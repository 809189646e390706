"""Command-line entry point orchestrating the full pipeline.

A subcommand's handler takes a ``Run``, the one place its inputs are read
and checked (the manifest, hashed from the bytes it parses; the note store,
splits, feature dump and model, each read once when first asked for), and
the ``RunConfig``; ``Run.record`` is what the handler adds to run.json."""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import sys
import time
from collections import namedtuple
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
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


def _key(default, *allowed):
    """A --config key: its default, whose type is the key's kind, and its
    allowed values, [low, high] for a number or each size of a list, or a
    str's choices."""
    return field(default=default, metadata={"allowed": allowed})


@dataclass
class RunConfig:
    """Pipeline defaults and the values --config may set each to, checked
    at load, before a subcommand reads or writes anything. A float key also
    takes an int, no key takes a bool, a tuple key takes a list of distinct
    ints, and max_df >= min_df. A count that sizes an array or a loop is at
    most sys.maxsize, the largest array dimension."""
    grid: float = _key(features.GRID_SECONDS, 0.001,
                       corpus.MAX_RECORDING_SECONDS)
    n_values: tuple = _key(features.NGRAM_SIZES, 1, features.MAX_FEATURE_SIZE)
    min_df: int = _key(features.MIN_DF, 1, math.inf)
    max_df: int = _key(features.MAX_DF, 1, math.inf)
    C: float = _key(1.0, *classifier.C_RANGE)
    class_weight: str = _key("balanced", *classifier.CLASS_WEIGHTS)
    top_k: int = _key(2000, 1, math.inf)
    n_permutations: int = _key(1000, 1, sys.maxsize)
    n_importance: int = _key(1000, 1, sys.maxsize)
    n_concept_iterations: int = _key(concepts.N_ITERATIONS, 1, sys.maxsize)
    bonferroni_m: int = _key(concepts.N_CONCEPTS, 1, math.inf)
    search_iterations: int = _key(1000, 1, sys.maxsize)
    n_bootstrap: int = _key(1000, 2, sys.maxsize)
    hop: float = _key(corpus.CLIP_SECONDS, 15.0, corpus.CLIP_SECONDS)
    min_chord_notes: int = _key(representations.MIN_CHORD_NOTES, 1,
                                corpus.ROLL_HEIGHT)


def _setup_logging():
    level = os.environ.get("STYLUS_LOG", "warn").lower()
    levels = {"error": logging.ERROR, "warn": logging.WARNING,
              "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=levels.get(level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _refusal(key: str, value) -> str | None:
    """What ``value`` must be to set config key ``key`` and what it is
    ("be an int, got str"), or None if it may set it."""
    spec = RunConfig.__dataclass_fields__[key]
    kind, allowed = type(spec.default), spec.metadata["allowed"]
    items = value if isinstance(value, list) else [value]
    types = {tuple: (int,), float: (int, float)}.get(kind, (kind,))
    if (kind is tuple) != isinstance(value, list) or any(
            type(v) not in types for v in items):
        name = ("a list of ints" if kind is tuple
                else f"{'an' if kind is int else 'a'} {kind.__name__}")
        return f"be {name}, got {type(value).__name__}"
    if kind is str:
        return (None if value in allowed
                else f"be one of {list(allowed)}, got {value!r}")
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
        unknown = set(overrides) - set(RunConfig.__dataclass_fields__)
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
    return classifier.LRConfig(C=config.C, class_weight=config.class_weight)


def _require(path: Path, what: str):
    if not path.exists():
        raise corpus.ValidationError(
            f"{what} not found at {path}; run the producing subcommand first")
    return path


def _load_features(out_dir: Path):
    """(FeatureTable, vocabulary) in ``out_dir``: the counts come from
    features.table, refused unless written from both files' bytes."""
    dump = _require(out_dir / "features.csv", "feature dump")
    vocab = _require(out_dir / "vocabulary.csv", "vocabulary")
    return features.read_feature_counts(dump), features.read_vocabulary(vocab)


def _vocab_hash(vocab) -> str:
    digest = hashlib.sha256()
    for (kind, feat), df in zip(vocab.features, vocab.document_frequency):
        digest.update(f"{kind}:{features.feature_string(feat)}:{df};"
                      .encode())
    return digest.hexdigest()


# the feature dump in --out, each row labelled from the manifest
Features = namedtuple("Features", "recording_ids vocab X performers tags")


class Run:
    """A subcommand's inputs and its run.json ``record``; an input in --out
    is read when first asked for, so refusals follow the handler's order."""

    def __init__(self, args):
        self.args, self.out, self.record = args, Path(args.out), {}
        self.manifest = self.manifest_sha256 = None
        if args.command in NEEDS_MANIFEST:
            data = Path(args.manifest).read_bytes()
            self.manifest_sha256 = hashlib.sha256(data).hexdigest()
            self.manifest = corpus.read_manifest(args.manifest, data)

    def recordings(self, store: corpus.NoteStore | None = None):
        """The manifest's recordings, parsed one at a time (so a pass holds
        one, and an invalid one raises when reached, before any index is
        written) through ``store``, ``ingest``'s, or else the one in --out."""
        store = store or corpus.NoteStore(self.out / corpus.STORE_NAME)
        self.record["notes"] = store.counts
        return (corpus.parse_note_events(e.path, e.recording_id, e.performer,
                                         e.dataset_tag, store)
                for e in self.manifest)

    def clips(self, hop: float):
        """(key, recording, clip) of each recording's clips in turn."""
        for t in self.recordings():
            for clip in corpus.segment_clips(t, hop):
                yield f"{clip.parent_id}_{int(clip.start)}", t, clip

    @property
    def exercises(self) -> list:
        return concepts.read_concept_exercises(
            _require(Path(self.args.exercises), "concept exercise file"))

    @cached_property
    def splits(self) -> dict:
        return corpus.read_splits(_require(self.out / "splits.csv", "splits"))

    @cached_property
    def features(self) -> Features:
        """The feature dump in --out, labelled from the manifest."""
        table, vocab = _load_features(self.out)
        by_id = {e.recording_id: e for e in self.manifest}
        rids = table.recording_ids
        missing = [r for r in rids if r not in by_id]
        if missing:
            raise corpus.ValidationError(
                f"features.csv names {len(missing)} recording(s) missing "
                f"from the manifest: {', '.join(missing)}")
        X = features.tfidf(features.count_matrix(table, vocab))
        return Features(rids, vocab, X, [by_id[r].performer for r in rids],
                        [by_id[r].dataset_tag for r in rids])

    def rows(self, split: str):
        """(X, performers) of the rows in ``split``, refused if it has none."""
        f = self.features
        rows = [i for i, r in enumerate(f.recording_ids)
                if self.splits.get(r) == split]
        if not rows:
            raise corpus.ValidationError(f"no {split} recordings in split")
        return f.X[rows], [f.performers[i] for i in rows]

    def model(self) -> classifier.LRModel:
        """The trained model, refused unless trained on this vocabulary."""
        model = classifier.read_model(_require(self.out / "model.json",
                                               "model"))
        current = _vocab_hash(self.features.vocab)
        if model.vocabulary_hash != current:
            raise corpus.ValidationError(
                f"model.json was trained on vocabulary "
                f"{model.vocabulary_hash or '(none recorded)'}, but "
                f"vocabulary.csv hashes to {current}; retrain the model")
        return model

    def write_info(self, config: RunConfig, started: float) -> None:
        a = self.args
        payload = {"command": a.command, "seed": a.seed,
                   "config": asdict(config), "manifest": a.manifest,
                   "manifest_sha256": self.manifest_sha256,
                   "version": __version__,
                   "wall_time_seconds": time.time() - started, **self.record}
        corpus.write_json(self.out / "run.json", payload, indent=2)


def cmd_gen_synthetic(run, config):
    sconfig = synthetic.SyntheticConfig(seed=run.args.seed)
    manifest = synthetic.write_corpus(run.args.out, sconfig)
    print(f"wrote synthetic corpus manifest to {manifest}")
    run.record["synthetic"] = synthetic.write_plan(sconfig)


def cmd_ingest(run, config):
    with corpus.NoteStore.create(run.out / corpus.STORE_NAME) as store:
        rows = [[t.recording_id, t.performer, t.dataset_tag, len(t.notes),
                 repr(t.duration)] for t in run.recordings(store)]
    corpus.write_table(run.out / "ingest.csv",
                       ["recording_id", "performer", "dataset_tag",
                        "n_notes", "duration"], rows)
    print(f"ingested {len(rows)} recordings")


def cmd_split(run, config):
    assignment = corpus.assign_splits(run.manifest, run.args.seed)
    corpus.write_splits(run.out / "splits.csv", assignment)
    counts = {s: sum(1 for v in assignment.values() if v == s)
              for s in corpus.SPLITS}
    print(f"split {len(assignment)} recordings: {counts}")


def cmd_extract(run, config):
    rids, counts = [], []
    for rid, feats in features.extract_recordings(
            run.recordings(), config.grid, config.n_values):
        rids.append(rid)
        counts.append(feats)
    vocab = features.build_vocabulary(counts, config.min_df, config.max_df)
    table = features.FeatureTable.from_dicts(rids, counts)
    features.write_feature_counts(run.out / "features.csv", table)
    features.write_vocabulary(run.out / "vocabulary.csv", vocab)
    features.write_feature_table(run.out / "features.csv", table)
    print(f"extracted {len(vocab)} vocabulary features "
          f"from {len(rids)} recordings")


def cmd_train(run, config):
    X, y = run.rows("train")
    model = classifier.fit(X, y, _lr_config(config))
    classifier.write_model(run.out / "model.json", model,
                           _vocab_hash(run.features.vocab))
    print(f"trained on {len(y)} recordings "
          f"({len(model.class_labels)} classes, converged={model.converged})")


def cmd_search(run, config):
    best, acc, trials = classifier.random_search(
        config.search_iterations, run.args.seed, *run.rows("train"),
        *run.rows("validation"))
    classifier.write_trial_log(run.out / "trials.csv", trials)
    # a --config file: train --config best_config.json trains this model
    corpus.write_json(run.out / "best_config.json",
                      {"C": best.C, "class_weight": best.class_weight})
    run.record["val_top1"] = acc
    run.record["fits_not_converged"] = sum(not ok for *_, ok in trials)
    print(f"best config C={best.C:.3f} class_weight={best.class_weight} "
          f"(val top-1 {acc:.3f})")


def cmd_evaluate(run, config):
    X_test, y_test = run.rows("test")
    model = run.model()
    probs = classifier.predict_proba(model, X_test)
    result = {f"top{k}": classifier.top_k_accuracy(probs, y_test,
                                                   model.class_labels, k)
              for k in (1, 2, 3, 5) if k <= len(model.class_labels)}
    corpus.write_json(run.out / "evaluation.json", result, indent=2)
    print(" ".join(f"{k}={v:.3f}" for k, v in result.items()))


def cmd_importance(run, config):
    X_test, y_test = run.rows("test")
    model = run.model()
    reports = []
    for kind in (features.KIND_MELODY, features.KIND_HARMONY):
        cols = run.features.vocab.columns_of_kind(kind)
        reports.append(interpret.permutation_importance(
            model, X_test, y_test, cols, config.n_importance, run.args.seed,
            group=kind))
        k = min(config.top_k, cols.size)
        reports.append(interpret.subset_importance(
            model, X_test, y_test, cols, k, config.n_importance,
            run.args.seed, group=f"{kind}-subset-{k}"))
    corpus.write_table(
        run.out / "importance.csv",
        ["group", "mean_accuracy_loss", "sd", "iterations"],
        ([r.group, repr(r.mean_accuracy_loss), repr(r.sd), r.iterations]
         for r in reports))
    for r in reports:
        print(f"{r.group}: loss {r.mean_accuracy_loss:.3f} (sd {r.sd:.3f})")


def cmd_correlate(run, config):
    f = run.features
    lr_config = _lr_config(config)
    full = classifier.fit(f.X, f.performers, lr_config)
    rows_out = []
    for kind in (features.KIND_MELODY, features.KIND_HARMONY):
        cols = f.vocab.columns_of_kind(kind)
        k = min(config.top_k, cols.size)
        top = cols[interpret.top_k_features(full.W[:, cols], k)]
        report = interpret.dataset_weight_correlation(
            f.X, f.performers, f.tags, top, lr_config,
            config.n_permutations, run.args.seed)
        for performer in sorted(report.r):
            rows_out.append([kind, performer, repr(report.r[performer]),
                             repr(report.p[performer]),
                             report.corrected_alpha_factor])
    corpus.write_table(run.out / "correlations.csv",
                       ["feature_kind", "performer", "r", "p",
                        "corrected_alpha_factor"], rows_out)
    print(f"wrote correlations for {len(rows_out)} performer/kind pairs")


def cmd_pca(run, config):
    vocab, y = run.features.vocab, run.features.performers
    cols = np.array([i for i, (kind, feat) in enumerate(vocab.features)
                     if kind == features.KIND_MELODY and len(feat) == 4],
                    dtype=int)
    if cols.size < 2:
        raise corpus.ValidationError(
            "need at least two length-4 melody features for PCA")
    X = run.features.X[:, cols]
    del run.features    # frees the full matrix
    model = interpret.pca_fit(X)
    performers = sorted(set(y))
    means = np.vstack([
        X[[i for i, lab in enumerate(y) if lab == p]].mean(axis=0)
        for p in performers])
    coords = interpret.pca_project(model, means)
    corpus.write_table(
        run.out / "pca_components.csv",
        ["component", "explained_variance"]
        + [features.feature_string(vocab.features[c][1]) for c in cols],
        ([i, repr(float(var))] + [repr(float(v)) for v in comp]
         for i, (var, comp) in enumerate(zip(model.explained_variance,
                                             model.components))))
    n_dims = min(4, coords.shape[1])
    corpus.write_table(
        run.out / "pca_projection.csv",
        ["performer"] + [f"component_{i}" for i in range(n_dims)],
        ([p] + [repr(float(v)) for v in row[:n_dims]]
         for p, row in zip(performers, coords)))
    print(f"PCA over {cols.size} length-4 melody features, "
          f"{len(performers)} performers projected")


def cmd_rolls(run, config):
    store_path = run.out / corpus.ROLLS_NAME
    index = {}
    with corpus.RollStore.create(store_path) as store:
        for key, _, clip in run.clips(config.hop):
            names = {"unified": f"{key}.roll"}
            corpus.write_roll(store, corpus.paint_roll(clip.notes),
                              names["unified"])
            for name, rects in representations.factorised(
                    clip, run.args.seed, config.min_chord_notes):
                names[name] = f"{key}.{name}.roll"
                corpus.write_roll(store, rects, names[name])
            del rects   # hold one clip's rolls at a time
            index[key] = {k: os.path.join(store_path, n)
                          for k, n in names.items()}
    corpus.write_json(run.out / "rolls.json", index, indent=2)
    print(f"wrote {len(index)} clips x 5 rolls to {store_path}")


def cmd_augment(run, config):
    aconfig = augment_mod.AugmentConfig(seed=run.args.seed)
    audit = []
    with (corpus.replacing(run.out / "augment_preview.jsonl") as tmp,
          open(tmp, "w", encoding="utf-8", newline="\n") as fh):
        for key, t, clip in run.clips(config.hop):
            result = augment_mod.augment(clip, aconfig, parent=t)
            before, after = (", ".join(corpus.note_objects(c.notes))
                             for c in (clip, result.clip))
            fh.write(f'{{"clip": {json.dumps(key)}, "before": [{before}], '
                     f'"after": [{after}]}}\n')
            audit.append({"clip": key, "applied": result.applied,
                          "pitch_shift": result.pitch_shift,
                          "dilation": result.dilation,
                          "refill_missing": result.refill_missing})
    corpus.write_json(run.out / "augment_audit.json", audit, indent=2)
    print(f"previewed augmentation for {len(audit)} clips")


def cmd_concepts(run, config):
    by_concept: dict = {}
    for e in run.exercises:
        by_concept.setdefault(e.concept_id, []).append(e)
    by_performer: dict = {}
    for t in run.recordings():
        if run.splits.get(t.recording_id) in ("validation", "test"):
            by_performer.setdefault(t.performer, []).append(t)
    if not by_performer:
        raise corpus.ValidationError("no validation or test recordings in "
                                     "split")
    # each roll's rectangles are made only when sign_count_experiment
    # embeds them
    variants = {c: (concepts.render_chord_sequence(
                        seq, config.min_chord_notes)
                    for e in es for seq in concepts.expand_concept(
                        e, min_chord_notes=config.min_chord_notes).sequences)
                for c, es in by_concept.items()}
    clip_rolls = {p: (corpus.paint_roll(clip.notes) for t in ts
                      for clip in corpus.segment_clips(t, config.hop))
                  for p, ts in by_performer.items()}
    matrix = concepts.sign_count_experiment(
        clip_rolls, variants, concepts.default_embedder(),
        config.n_concept_iterations, run.args.seed)
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
    concepts.write_sign_counts(run.out / "sign_counts.csv", matrix)
    concepts.write_tested_sign_counts(run.out / "sign_counts_tested.csv",
                                      matrix, means, corrected)
    if dendrogram is not None:
        concepts.write_dendrogram(run.out / "dendrogram.json", dendrogram)
    print(f"concept analysis: {len(matrix.performers)} performers x "
          f"{len(matrix.concepts)} concepts x "
          f"{matrix.observed.shape[2]} iterations")


def cmd_report(run, config):
    f = run.features
    lr_config = _lr_config(config)
    model = classifier.fit(f.X, f.performers, lr_config)
    sds = interpret.bootstrap_weight_sd(f.X, f.performers, lr_config,
                                        config.n_bootstrap, run.args.seed)
    melody_cols = f.vocab.columns_of_kind(features.KIND_MELODY)
    rows = []
    for ci, performer in enumerate(model.class_labels):
        order = np.argsort(-model.W[ci, melody_cols], kind="stable")
        for label, i in ([("top", i) for i in order[:5]]
                         + [("bottom", i) for i in order[-5:]]):
            col = melody_cols[i]
            rows.append([performer, label,
                         features.feature_string(f.vocab.features[col][1]),
                         repr(float(model.W[ci, col])),
                         repr(float(sds[ci, col]))])
    corpus.write_table(run.out / "weights_topbottom.csv",
                       ["performer", "rank", "feature_string", "weight", "sd"],
                       rows)
    print(f"wrote top/bottom melody weights for "
          f"{len(model.class_labels)} performers")


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
    try:
        config = _load_config(args)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        if args.command in NEEDS_MANIFEST and not args.manifest:
            raise corpus.ValidationError(
                f"{args.command} requires --manifest")
        if args.command == "concepts" and not args.exercises:
            raise corpus.ValidationError("concepts requires --exercises")
        run = Run(args)
        HANDLERS[args.command](run, config)
        run.write_info(config, started)
    except ValueError as exc:   # ValidationError and ParseError too
        print(f"stylus: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"stylus: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

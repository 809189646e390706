"""Which library functions are traced, and how spans become layer metrics.

The layers are the modules of the ``stylus`` package. Each traced function
gets a span named after its layer (``corpus.parse``); every binding of the
function in a ``stylus`` namespace is replaced, so calls through aliases
such as ``interpret.fit`` or ``concepts.harmony_roll`` are seen too.

Which end-to-end metric each layer should move, and on which workload
(subcommand times in brackets):

- cli: wall_s on resample (8 subcommands each reload the manifest, the
  features and the TF-IDF matrix).
- corpus: parse moves wall_s [ingest_s, extract_s] on extract; paint moves
  wall_s [sensitivity_s] on render; roll IO moves wall_s and
  bytes_written_mb on render.
- features: extraction moves wall_s [extract_s] on extract, a small share
  on resample; matrix and IO move wall_s on resample.
- classifier: wall_s [correlate_s, report_s, search_s] on resample and
  [concepts_s] on render (400 small 64-dim CAV fits); nothing on extract.
- interpret: wall_s [importance_s, correlate_s, report_s] on resample.
- representations: wall_s on render (rolls, and concept variants rendered
  through harmony_roll).
- augment: wall_s on render.
- concepts: wall_s [concepts_s, sensitivity_s] and peak_rss_mb on render.
- synthetic: setup_s.
"""

from __future__ import annotations

import dataclasses
import importlib
import math

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# (module, function, span name, counter increments from (args, kwargs, result))
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "_load_features", "cli.load_features", None),
    ("corpus", "read_manifest", "corpus.read_manifest", None),
    ("corpus", "parse_note_events", "corpus.parse",
     lambda a, k, r: {"corpus.notes_parsed": len(r.notes)}),
    ("corpus", "segment_clips", "corpus.segment",
     lambda a, k, r: {"corpus.clips": len(r)}),
    ("corpus", "paint_roll", "corpus.paint", None),
    ("corpus", "write_roll", "corpus.roll_write",
     lambda a, k, r: {"corpus.roll_bytes":
                      16 + 4 * np.asarray(_arg(a, k, 1, "roll")).size}),
    ("corpus", "write_note_events", "corpus.note_write", None),
    ("features", "quantise", "features.quantise", None),
    ("features", "skyline", "features.skyline", None),
    ("features", "extract_ngrams", "features.ngrams", None),
    ("features", "extract_voicings", "features.voicings", None),
    ("features", "build_vocabulary", "features.vocab", None),
    ("features", "count_matrix", "features.count_matrix", None),
    ("features", "tfidf", "features.tfidf", None),
    ("features", "write_feature_counts", "features.io", None),
    ("features", "read_feature_counts", "features.io", None),
    ("features", "write_vocabulary", "features.io", None),
    ("features", "read_vocabulary", "features.io", None),
    ("classifier", "fit", "classifier.fit",
     lambda a, k, r: {"classifier.fit_iters": r.n_iter,
                      "classifier.fits_not_converged": int(not r.converged)}),
    ("classifier", "predict_proba", "classifier.predict", None),
    ("interpret", "permutation_importance", "interpret.importance", None),
    ("interpret", "subset_importance", "interpret.importance", None),
    ("interpret", "dataset_weight_correlation", "interpret.correlation",
     None),
    ("interpret", "bootstrap_weight_sd", "interpret.bootstrap", None),
    ("interpret", "pca_fit", "interpret.pca", None),
    ("interpret", "pca_project", "interpret.pca", None),
    ("representations", "melody_roll", "representations.melody", None),
    ("representations", "harmony_roll", "representations.harmony", None),
    ("representations", "rhythm_roll", "representations.rhythm", None),
    ("representations", "dynamics_roll", "representations.dynamics", None),
    ("augment", "augment", "augment.augment",
     lambda a, k, r: {"augment.applied": int(r.applied),
                      "augment.refill_missing": int(r.refill_missing)}),
    ("concepts", "expand_concept", "concepts.expand",
     lambda a, k, r: {"concepts.variants": len(r)}),
    ("concepts", "train_cav", "concepts.cav", None),
    ("concepts", "sign_count_experiment", "concepts.sign_count", None),
    ("concepts", "wilcoxon_signed_rank", "concepts.wilcoxon", None),
    ("concepts", "cluster", "concepts.cluster", None),
    ("concepts", "masked_sensitivity", "concepts.sensitivity", None),
]


def install(tracer) -> None:
    """Trace every target, every subcommand handler and the embedder that
    ``concepts.default_embedder`` returns."""
    mod = {name: importlib.import_module(f"stylus.{name}")
           for name in {t[0] for t in TARGETS}}
    for module, attr, name, count in TARGETS:
        if tracer.trace(mod[module], attr, name, count) == 0:
            raise RuntimeError(f"stylus.{module}.{attr} is bound nowhere")
    for command, handler in list(mod["cli"].HANDLERS.items()):
        tracer.patch(handler, tracer.wrap(handler, f"cli.cmd.{command}"),
                     "stylus")
    original = mod["concepts"].default_embedder

    def default_embedder(*args, **kwargs):
        emb = original(*args, **kwargs)
        return dataclasses.replace(
            emb, fn=tracer.wrap(emb.fn, "concepts.embed"))
    tracer.patch(original, default_embedder, "stylus")


def _percentile_ms(durations, q):
    """Nearest-rank percentile of durations, in milliseconds (0 if none)."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return 1000.0 * ordered[rank - 1]


def _busy(*names):
    return lambda s, c: sum(s[n].busy_s for n in names if n in s)


def _self(*names):
    return lambda s, c: sum(s[n].self_s for n in names if n in s)


def _calls(name):
    return lambda s, c: s[name].calls if name in s else 0


def _counter(key):
    return lambda s, c: c.get(key, 0)


def _cli_self(s, c):
    return sum(v.self_s for n, v in s.items() if n.startswith("cli."))


def _fit_ms(q):
    return lambda s, c: _percentile_ms(
        s["classifier.fit"].durations if "classifier.fit" in s else [], q)


# (metric, unit, value from (span summary by name, counters))
METRICS = [
    ("cli.self_s", "s", _cli_self),
    ("cli.manifest_reads", "count", _calls("corpus.read_manifest")),
    ("cli.feature_loads", "count", _calls("cli.load_features")),
    ("corpus.parse_s", "s", _busy("corpus.parse")),
    ("corpus.notes_parsed", "count", _counter("corpus.notes_parsed")),
    ("corpus.segment_s", "s", _busy("corpus.segment")),
    ("corpus.clips", "count", _counter("corpus.clips")),
    ("corpus.paint_s", "s", _busy("corpus.paint")),
    ("corpus.paints", "count", _calls("corpus.paint")),
    ("corpus.roll_write_s", "s", _busy("corpus.roll_write")),
    ("corpus.roll_bytes", "bytes", _counter("corpus.roll_bytes")),
    ("corpus.note_write_s", "s", _busy("corpus.note_write")),
    ("features.quantise_s", "s", _busy("features.quantise")),
    ("features.skyline_s", "s", _busy("features.skyline")),
    ("features.ngrams_s", "s", _busy("features.ngrams")),
    ("features.voicings_s", "s", _busy("features.voicings")),
    ("features.vocab_s", "s", _busy("features.vocab")),
    ("features.matrix_s", "s",
     _busy("features.count_matrix", "features.tfidf")),
    ("features.matrix_builds", "count", _calls("features.count_matrix")),
    ("features.io_s", "s", _busy("features.io")),
    ("classifier.fit_s", "s", _busy("classifier.fit")),
    ("classifier.fits", "count", _calls("classifier.fit")),
    ("classifier.fit_iters", "count", _counter("classifier.fit_iters")),
    ("classifier.fits_not_converged", "count",
     _counter("classifier.fits_not_converged")),
    ("classifier.fit_ms_p50", "ms", _fit_ms(50)),
    ("classifier.fit_ms_p95", "ms", _fit_ms(95)),
    ("classifier.predict_s", "s", _busy("classifier.predict")),
    ("classifier.predicts", "count", _calls("classifier.predict")),
    ("interpret.importance_self_s", "s", _self("interpret.importance")),
    ("interpret.correlation_self_s", "s", _self("interpret.correlation")),
    ("interpret.bootstrap_self_s", "s", _self("interpret.bootstrap")),
    ("interpret.pca_s", "s", _busy("interpret.pca")),
    ("representations.melody_s", "s", _busy("representations.melody")),
    ("representations.harmony_s", "s", _busy("representations.harmony")),
    ("representations.rhythm_s", "s", _busy("representations.rhythm")),
    ("representations.dynamics_s", "s", _busy("representations.dynamics")),
    ("augment.augment_s", "s", _busy("augment.augment")),
    ("augment.clips", "count", _calls("augment.augment")),
    ("augment.applied", "count", _counter("augment.applied")),
    ("augment.refill_missing", "count", _counter("augment.refill_missing")),
    ("concepts.expand_s", "s", _busy("concepts.expand")),
    ("concepts.variants", "count", _counter("concepts.variants")),
    ("concepts.embed_s", "s", _busy("concepts.embed")),
    ("concepts.embeds", "count", _calls("concepts.embed")),
    ("concepts.cav_s", "s", _busy("concepts.cav")),
    ("concepts.cavs", "count", _calls("concepts.cav")),
    ("concepts.sign_count_self_s", "s", _self("concepts.sign_count")),
    ("concepts.wilcoxon_s", "s", _busy("concepts.wilcoxon")),
    ("concepts.cluster_s", "s", _busy("concepts.cluster")),
    ("concepts.sensitivity_self_s", "s", _self("concepts.sensitivity")),
    ("concepts.sensitivity_maps", "count", _calls("concepts.sensitivity")),
]


def layer_metrics(summary: dict, counters) -> dict:
    """Every metric of ``METRICS`` from a span summary and counters."""
    return {name: float(fn(summary, counters)) for name, _, fn in METRICS}

"""Concept-activation analysis: CAV training, scores, significance, masking
and clustering."""

from __future__ import annotations

import inspect
import json
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import classifier, corpus
from .corpus import (PITCH_MAX, PITCH_MIN, ROLL_HEIGHT, ROLL_WIDTH, Clip,
                     NoteArray, json_lines, paint_roll, read_utf8,
                     time_to_column, write_table)
from .representations import MIN_CHORD_NOTES, harmony_roll
from .rng import derive_rng

log = logging.getLogger("stylus")

N_CONCEPTS = 20
N_ITERATIONS = 10
MASK_KERNEL = (24, 250)
MASK_STRIDE = (2, 200)
MAX_TRANSPOSITION = 6
EXACT_WILCOXON_LIMIT = 25


@dataclass(frozen=True)
class ConceptExercise:
    concept_id: int
    chords: tuple   # tuple of pitch tuples

    def __post_init__(self):
        if not self.chords or any(not ch for ch in self.chords):
            raise ValueError("exercise must contain non-empty chords")


@dataclass(frozen=True)
class Embedder:
    """Roll -> ``dim`` values; ``fn`` must be deterministic and side-effect
    free, as ``masked_sensitivity`` calls it once per distinct masked roll.
    ``fn`` receives painted rolls, but if it ``pools`` a roll's rectangles,
    which ``masked_sensitivity`` then pools note by note."""
    fn: object      # PianoRoll -> 1-D vector
    dim: int

    @property
    def pools(self) -> bool:
        """Whether ``fn`` is ``_pool_embed`` or wraps it (functools.wraps)."""
        return inspect.unwrap(self.fn) is _pool_embed

    def __call__(self, roll) -> np.ndarray:
        if not self.pools and getattr(roll, "dtype", None) == corpus.RECT:
            roll = corpus.paint(roll)
        v = np.asarray(self.fn(roll), dtype=float).ravel()
        if v.size != self.dim:
            raise ValueError(f"embedder returned {v.size} values, "
                             f"declared dim {self.dim}")
        return v


def _window_sums(rects) -> np.ndarray:
    """(rectangles x 64) float64: each rectangle's cells x value in each
    11-row x 375-column window of the 8x8 pooling grid."""
    edges = np.arange(0, ROLL_WIDTH + 1, 375)
    cells = (np.minimum(rects["c1"][:, None], edges[1:])
             - np.maximum(rects["c0"][:, None], edges[:-1]))
    out = np.zeros((len(rects), 8, 8))
    out[np.arange(len(rects)), rects["row"] // 11] = (
        np.maximum(cells, 0) * rects["value"].astype(float)[:, None])
    return out.reshape(-1, 64)


def _pool_embed(roll) -> np.ndarray:
    """8x8 grid of average pools, windows of 11 rows x 375 columns, of a
    painted roll or of its rectangles. From rectangles, a window's sum of
    cells x value / 4125 is the painted mean bit for bit: each value is a
    multiple of 2**-30 (1, or a float32 of at least 1/127) and a window sums
    to below 2**13, so float64 adds exactly in any order."""
    if getattr(roll, "dtype", None) == corpus.RECT:
        return _window_sums(roll).sum(axis=0) / 4125
    # the float64 accumulator reads the roll in place instead of copying it
    return np.asarray(roll).reshape(8, 11, 8, 375) \
        .mean(axis=(1, 3), dtype=np.float64).ravel()


def default_embedder() -> Embedder:
    """Deterministic linear embedding: 8x8 average-pool grid, D = 64."""
    return Embedder(fn=_pool_embed, dim=64)


@dataclass(frozen=True)
class ConceptVector:
    y: np.ndarray
    random_seed: int = 0


def _invert(pitches: tuple, times: int) -> tuple:
    chord = sorted(pitches)
    for _ in range(times):
        chord = sorted(chord[1:] + [chord[0] + 12])
    return tuple(chord)


def exercise_variants(e: ConceptExercise,
                      min_chord_notes: int = MIN_CHORD_NOTES):
    """All (transposition, inversion, root/rootless) chord-sequence variants.

    Variants with any pitch off the keyboard are dropped; rootless variants
    whose chords would fall below the chord-bin threshold are skipped.
    """
    n_inversions = max(len(ch) for ch in e.chords)
    variants = []
    for shift in range(-MAX_TRANSPOSITION, MAX_TRANSPOSITION + 1):
        for inv in range(n_inversions):
            for rootless in (False, True):
                seq = []
                ok = True
                for ch in e.chords:
                    pitches = _invert(ch, inv % len(ch))
                    if rootless:
                        pitches = pitches[1:]
                        if len(pitches) < min_chord_notes:
                            ok = False
                            break
                    pitches = tuple(p + shift for p in pitches)
                    if any(not PITCH_MIN <= p <= PITCH_MAX for p in pitches):
                        ok = False
                        break
                    seq.append(pitches)
                if ok:
                    variants.append(tuple(seq))
    return variants


def render_chord_sequence(seq, min_chord_notes: int = MIN_CHORD_NOTES
                          ) -> np.ndarray:
    """The rectangles of a chord sequence's harmony roll: chord i sounds
    from i * 0.5 s for 0.4 s at velocity 64."""
    onset = np.repeat(np.arange(len(seq)) * 0.5, [len(ch) for ch in seq])
    notes = NoteArray(onset, onset + 0.4, [p for ch in seq for p in ch],
                      np.full(onset.size, 64))
    return harmony_roll(Clip(parent_id="", performer="", start=0.0,
                             notes=notes), min_notes=min_chord_notes)


@dataclass(frozen=True)
class VariantRolls(Sequence):
    """An exercise's variant rolls, each rendered and painted when it is
    read, so a reader that embeds and drops each roll holds one roll at a
    time."""
    sequences: list
    min_chord_notes: int = MIN_CHORD_NOTES

    def __len__(self):
        return len(self.sequences)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return replace(self, sequences=self.sequences[i])
        return corpus.paint(render_chord_sequence(self.sequences[i],
                                                  self.min_chord_notes))


def expand_concept(e: ConceptExercise,
                   min_chord_notes: int = MIN_CHORD_NOTES) -> VariantRolls:
    return VariantRolls(exercise_variants(e, min_chord_notes),
                        min_chord_notes)


def train_cav(concept_acts, random_acts, seed: int = 0) -> ConceptVector:
    """Direction separating concept activations from random activations.

    The vector is the decision direction of a binary logistic regression
    (concept class minus random class).
    """
    concept_acts = np.atleast_2d(np.asarray(concept_acts, dtype=float))
    random_acts = np.atleast_2d(np.asarray(random_acts, dtype=float))
    if concept_acts.size == 0 or random_acts.size == 0:
        raise ValueError("both activation sets must be non-empty")
    if concept_acts.shape[1] != random_acts.shape[1]:
        raise ValueError("activation dimensions do not match")
    X = np.vstack([concept_acts, random_acts])
    y = [1] * len(concept_acts) + [0] * len(random_acts)
    model = classifier.fit(X, y, classifier.LRConfig(C=1.0, penalty="L2"))
    # the class labels are sorted: (0, 1)
    return ConceptVector(y=model.W[1] - model.W[0], random_seed=seed)


def concept_score(roll, embedder: Embedder, cav: ConceptVector) -> float:
    emb = embedder(roll)
    if emb.size != cav.y.size:
        raise ValueError("embedding and concept vector dimensions differ")
    return float(emb @ cav.y)


def sign_count_ratio(scores) -> float:
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValueError("no scores")
    return float((scores > 0).mean())   # exact zeros count as non-positive


@dataclass
class SignCountMatrix:
    performers: tuple
    concepts: tuple
    observed: np.ndarray     # performer x concept x iteration
    null: np.ndarray         # same shape


def sign_count_experiment(clip_rolls_by_performer: dict,
                          concept_variants: dict,
                          embedder: Embedder,
                          n_iter: int = N_ITERATIONS,
                          seed: int = 0) -> SignCountMatrix:
    """Observed and null sign-count ratios per performer and concept.

    Observed: the concept dataset is fixed while a new random dataset (drawn
    from every other concept's variants) is sampled each iteration. Null:
    both sides are non-overlapping random datasets.

    Each value of both mappings is iterated exactly once, in order, and
    only each roll's embedding is kept, so a generator of rolls is valid
    input and its rolls are never held together.
    """
    performers = tuple(sorted(clip_rolls_by_performer))
    concepts = tuple(sorted(concept_variants))
    var_embs = {c: np.array([embedder(r) for r in concept_variants[c]])
                for c in concepts}
    for c in concepts:
        if not len(var_embs[c]):
            raise ValueError(f"concept {c}: no variant of its exercises lies "
                             f"on the keyboard ({PITCH_MIN}..{PITCH_MAX})")
    clip_embs = {p: np.array([embedder(r)
                              for r in clip_rolls_by_performer[p]])
                 for p in performers}
    observed = np.empty((len(performers), len(concepts), n_iter))
    null = np.empty_like(observed)
    for ci, concept in enumerate(concepts):
        concept_emb = var_embs[concept]
        pool = np.vstack([var_embs[c] for c in concepts if c != concept])
        size = len(concept_emb)
        if len(pool) < 2 * size:
            raise ValueError(
                f"concept {concept}: pool of {len(pool)} other-chapter "
                f"variants cannot supply two non-overlapping random sets "
                f"of {size}")
        for i in range(n_iter):
            rng = derive_rng(seed, "random-dataset", concept, i)
            random_emb = pool[rng.choice(len(pool), size=size,
                                         replace=False)]
            cav = train_cav(concept_emb, random_emb)
            rng_null = derive_rng(seed, "null-dataset", concept, i)
            pick = rng_null.choice(len(pool), size=2 * size, replace=False)
            cav_null = train_cav(pool[pick[:size]], pool[pick[size:]])
            for pi, p in enumerate(performers):
                scores = clip_embs[p] @ cav.y
                observed[pi, ci, i] = sign_count_ratio(scores)
                scores_null = clip_embs[p] @ cav_null.y
                null[pi, ci, i] = sign_count_ratio(scores_null)
    return SignCountMatrix(performers=performers, concepts=concepts,
                           observed=observed, null=null)


def _signed_rank_statistic(diffs):
    """(doubled mid-ranks, doubled W+ statistic) for the non-zero diffs."""
    diffs = [d for d in diffs if d != 0]
    n = len(diffs)
    mags = sorted(abs(d) for d in diffs)
    # doubled mid-ranks are integers even when ties produce half-ranks
    rank2 = {}
    i = 0
    while i < n:
        j = i
        while j < n and mags[j] == mags[i]:
            j += 1
        rank2[mags[i]] = (i + 1) + j    # 2 * average of ranks i+1 .. j
        i = j
    ranks2 = [rank2[abs(d)] for d in diffs]
    w2 = sum(r for r, d in zip(ranks2, diffs) if d > 0)
    return ranks2, w2


def wilcoxon_exact_p(a, b) -> Fraction:
    """Exact two-sided signed-rank p as a rational number.

    Zero differences are dropped, ties are mid-ranked, and the null
    distribution enumerates every sign assignment:
    p = min(1, 2 * min(P(W <= w), P(W >= w))).
    """
    diffs = [float(x) - float(y) for x, y in zip(a, b)]
    ranks2, w2 = _signed_rank_statistic(diffs)
    n = len(ranks2)
    if n == 0:
        log.warning("wilcoxon: all differences are zero; p = 1")
        return Fraction(1)
    total = sum(ranks2)
    counts = [0] * (total + 1)
    counts[0] = 1
    for r in ranks2:
        for s in range(total - r, -1, -1):
            if counts[s]:
                counts[s + r] += counts[s]
    denom = 1 << n
    p_le = Fraction(sum(counts[:w2 + 1]), denom)
    p_ge = Fraction(sum(counts[w2:]), denom)
    return min(Fraction(1), 2 * min(p_le, p_ge))


def wilcoxon_signed_rank(a, b) -> float:
    """Two-sided signed-rank p; exact for n <= 25, else normal approximation."""
    if len(a) != len(b):
        raise ValueError("paired samples must have equal length")
    diffs = [float(x) - float(y) for x, y in zip(a, b)]
    n_nonzero = sum(1 for d in diffs if d != 0)
    if n_nonzero <= EXACT_WILCOXON_LIMIT:
        return float(wilcoxon_exact_p(a, b))
    ranks2, w2 = _signed_rank_statistic(diffs)
    n = len(ranks2)
    mean2 = n * (n + 1) / 2
    # doubled ranks r2 = 2r: Var(2 W+) = sum(r^2) = sum(r2^2) / 4
    var2 = sum(r * r for r in ranks2) / 4.0
    z = (w2 - mean2) / np.sqrt(var2)
    return min(1.0, math.erfc(abs(z) / math.sqrt(2)))


def bonferroni(p, m: int = N_CONCEPTS):
    """min(1, p * m), elementwise for arrays."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return np.minimum(1.0, np.asarray(p, dtype=float) * m)


def _interp_grid(values: np.ndarray, row_centres, col_centres) -> np.ndarray:
    """Bilinear interpolation of a coarse grid onto the 88x3000 image, edges
    replicated; bit for bit ``np.interp`` along each axis in turn."""
    fp = values.T
    for xp, size in ((col_centres, ROLL_WIDTH), (row_centres, ROLL_HEIGHT)):
        x = np.arange(size, dtype=float)
        out = fp[np.clip(np.searchsorted(xp, x, "right") - 1, 0, len(xp) - 1)]
        # in place: each run strictly between knots k and k + 1 holds fp[k]
        for k, (a, b) in enumerate(zip(np.searchsorted(x, xp[:-1], "right"),
                                       np.searchsorted(x, xp[1:]))):
            run = out[a:b]
            np.subtract(fp[k + 1], run, out=run)
            run /= xp[k + 1] - xp[k]
            run *= (x[a:b] - xp[k])[:, None]
            run += fp[k]
        fp = out.T
    return fp.T


def masked_sensitivity(clip: Clip, embedder: Embedder,
                       cav: ConceptVector) -> np.ndarray:
    """Relative concept-score change when the notes whose onset cell lies
    under a sliding ``MASK_KERNEL`` (rows x columns, moved by ``MASK_STRIDE``)
    are removed, interpolated back to an 88x3000 heatmap.

    Kernel positions that remove the same notes share one score, so each
    distinct masked roll is embedded once. A pooling embedder's windows sum
    the kept notes' windows, in one product for every set, unless a set
    drops a note of a row where notes overlap (the largest value is not
    linear): such a roll is made whole.
    """
    (kh, kw), stride = MASK_KERNEL, MASK_STRIDE
    notes = clip.notes
    if not len(notes):
        raise ValueError("clip has no notes")
    max_velocity = notes.velocity.max()
    rows = notes.pitch - PITCH_MIN
    rects = corpus.rects_of(rows, *corpus.note_columns(notes),
                            notes.velocity / max_velocity)   # one per note
    whole = corpus.resolve(rects)
    s0 = concept_score(whole, embedder, cav)
    if s0 == 0:
        raise ValueError("original concept score is zero; use the "
                         "unnormalised difference instead")
    row_starts = np.arange(0, ROLL_HEIGHT - kh + 1, stride[0])
    col_starts = np.arange(0, ROLL_WIDTH - kw + 1, stride[1])
    cols = time_to_column(notes.onset)
    in_time = (col_starts[:, None] <= cols) & (cols < col_starts[:, None] + kw)
    in_pitch = (row_starts[:, None] <= rows) & (rows < row_starts[:, None] + kh)
    removed = (in_pitch[:, None] & in_time).reshape(-1, len(notes))
    sets, inverse = np.unique(removed, axis=0, return_inverse=True)
    scores = np.zeros(len(sets))    # removing no note changes nothing: 0
    todo = sets.any(axis=1)
    if embedder.pools:
        linear = todo & ~(sets & corpus.tangled(rects)).any(axis=1)
        # the kept notes' windows: all, less those dropped (exact sums), and
        # one score per set, each a dot as concept_score takes it
        embs = (_window_sums(whole).sum(axis=0)
                - sets[linear] @ _window_sums(rects)) / 4125
        for k, emb in zip(np.flatnonzero(linear).tolist(), embs):
            scores[k] = (s0 - float(emb @ cav.y)) / s0
        todo &= ~linear
    for k in np.flatnonzero(todo).tolist():
        s1 = concept_score(paint_roll(notes[~sets[k]], max_velocity),
                           embedder, cav)
        scores[k] = (s0 - s1) / s0
    return _interp_grid(scores[inverse].reshape(len(row_starts), -1),
                        row_starts + (kh - 1) / 2, col_starts + (kw - 1) / 2)


@dataclass(frozen=True)
class Dendrogram:
    merges: tuple    # (cluster_a, cluster_b, height), scipy-style ids
    labels: tuple


def correlation_distance(matrix) -> np.ndarray:
    """Pairwise 1 - Pearson r between rows; rows must have variance > 0."""
    X = np.asarray(matrix, dtype=float)
    return 1.0 - np.corrcoef(X)


def cluster(matrix, labels=None) -> Dendrogram:
    """Average-linkage (UPGMA) agglomerative clustering on 1 - r distances.

    Ties between equally distant pairs go to the pair containing the
    smallest leaf index.
    """
    X = np.asarray(matrix, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise ValueError("need at least two entities")
    if labels is None:
        labels = tuple(str(i) for i in range(n))
    for i, row in enumerate(X):
        if np.ptp(row) == 0:
            raise ValueError(f"entity {labels[i]!r} has zero variance")
    dist = {}
    D = correlation_distance(X)
    for i in range(n):
        for j in range(i + 1, n):
            dist[(i, j)] = float(D[i, j])
    members = {i: [i] for i in range(n)}
    merges = []
    next_id = n
    while len(members) > 1:
        def tie_key(pair):
            a, b = pair
            la, lb = min(members[a]), min(members[b])
            return (dist[pair], min(la, lb), max(la, lb))
        best = min(dist, key=tie_key)
        height = dist[best]
        a, b = best
        rest = [k for k in members if k not in best]
        size_a, size_b = len(members[a]), len(members[b])
        for k in rest:
            da = dist[tuple(sorted((a, k)))]
            db = dist[tuple(sorted((b, k)))]
            dist[tuple(sorted((next_id, k)))] = (
                (size_a * da + size_b * db) / (size_a + size_b))
        for key in [k for k in dist if a in k or b in k]:
            del dist[key]
        members[next_id] = members.pop(a) + members.pop(b)
        merges.append((a, b, height))
        next_id += 1
    return Dendrogram(merges=tuple(merges), labels=tuple(labels))


def read_concept_exercises(path) -> list[ConceptExercise]:
    """JSONL, one exercise per line: {"concept_id": int, "chords": [[...]]};
    lines as ``corpus.json_lines`` reads them."""
    out = []
    for lineno, line in json_lines(read_utf8(path)):
        try:
            obj = json.loads(line)
            out.append(ConceptExercise(
                concept_id=int(obj["concept_id"]),
                chords=tuple(tuple(int(p) for p in ch)
                             for ch in obj["chords"])))
        except (json.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: bad exercise: {exc}")
    return out


def write_sign_counts(path, matrix: SignCountMatrix) -> None:
    write_table(path, ["performer", "concept", "iteration", "ratio",
                       "null_ratio"],
                ([p, c, i, repr(float(matrix.observed[pi, ci, i])),
                  repr(float(matrix.null[pi, ci, i]))]
                 for pi, p in enumerate(matrix.performers)
                 for ci, c in enumerate(matrix.concepts)
                 for i in range(matrix.observed.shape[2])))


def summarise_sign_counts(matrix: SignCountMatrix, m: int):
    """Mean observed ratio and Wilcoxon p, Bonferroni-corrected for ``m``
    tests, per (performer, concept)."""
    n_p, n_c, _ = matrix.observed.shape
    means = matrix.observed.mean(axis=2)
    pvals = np.empty((n_p, n_c))
    for pi in range(n_p):
        for ci in range(n_c):
            pvals[pi, ci] = wilcoxon_signed_rank(matrix.observed[pi, ci],
                                                 matrix.null[pi, ci])
    return means, bonferroni(pvals, m)


def write_tested_sign_counts(path, matrix: SignCountMatrix, means,
                             corrected) -> None:
    write_table(path, ["performer", "concept", "mean_ratio", "corrected_p"],
                ([p, c, repr(float(means[pi, ci])),
                  repr(float(corrected[pi, ci]))]
                 for pi, p in enumerate(matrix.performers)
                 for ci, c in enumerate(matrix.concepts)))


def write_dendrogram(path, dendrogram: Dendrogram) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"labels": list(dendrogram.labels),
                   "merges": [[a, b, h] for a, b, h in dendrogram.merges]},
                  fh)

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import sys
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stylus
from stylus import (augment, cli, concepts, corpus, features,
                    representations, synthetic)
from stylus.cli import (EXIT_IO, EXIT_OK, EXIT_USAGE, EXIT_VALIDATION,
                        RunConfig)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared corpus plus a completed split/extract/train pipeline."""
    root = tmp_path_factory.mktemp("cli")
    corpus_dir = root / "corpus"
    out = root / "run"
    assert cli.main(["gen-synthetic", "--out", str(corpus_dir),
                     "--seed", "0"]) == EXIT_OK
    manifest = str(corpus_dir / "manifest.csv")
    for command in ("split", "extract", "train"):
        assert cli.main([command, "--manifest", manifest,
                         "--out", str(out), "--seed", "0"]) == EXIT_OK
    return root, manifest, out


class TestExitCodes:
    def test_unknown_subcommand_64(self, capsys):
        assert cli.main(["frobnicate"]) == EXIT_USAGE
        assert "unknown subcommand" in capsys.readouterr().err

    def test_no_args_prints_help(self, capsys):
        assert cli.main([]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: stylus")
        assert all(name in out for name in cli.HANDLERS)

    def test_missing_manifest_flag_1(self, capsys, tmp_path):
        assert cli.main(["train", "--out", str(tmp_path)]) == EXIT_VALIDATION

    def test_nonexistent_manifest_2(self, capsys, tmp_path):
        code = cli.main(["split", "--manifest", str(tmp_path / "nope.csv"),
                         "--out", str(tmp_path)])
        assert code == EXIT_IO

    def test_invalid_manifest_contents_1(self, capsys, tmp_path):
        bad = tmp_path / "manifest.csv"
        bad.write_text("recording_id,performer,dataset_tag,path\n"
                       "r1,p,duet,x.jsonl\n")
        code = cli.main(["split", "--manifest", str(bad),
                         "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION

    @pytest.mark.parametrize("command", ["ingest", "extract", "train"])
    def test_repeated_recording_id_exits_1(self, capsys, tmp_path, command):
        manifest = synthetic.write_corpus(
            tmp_path / "corpus", synthetic.SyntheticConfig(
                n_performers=2, n_recordings=2, events_per_recording=10,
                seed=5))
        lines = Path(manifest).read_text().splitlines(keepends=True)
        first_id = lines[1].split(",")[0]
        # row 2 keeps its own note file but takes row 1's id
        lines[2] = first_id + lines[2][lines[2].index(","):]
        Path(manifest).write_text("".join(lines))
        run = tmp_path / "run"
        code = cli.main([command, "--manifest", str(manifest),
                         "--out", str(run)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"stylus: {manifest}:3: recording id {first_id!r} repeated"]
        assert not any(run.iterdir())

    def test_concepts_without_exercises_1(self, capsys, tmp_path,
                                          monkeypatch):
        def unread(*args, **kwargs):
            raise AssertionError("an input was read")
        monkeypatch.setattr(corpus, "read_manifest", unread)
        code = cli.main(["concepts", "--manifest", "manifest.csv",
                         "--out", str(tmp_path)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "stylus: concepts requires --exercises"]

    def test_unknown_config_key_1(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"bogus_knob": 1}')
        code = cli.main(["gen-synthetic", "--out", str(tmp_path),
                         "--config", str(cfg)])
        assert code == EXIT_VALIDATION

    def test_mask_by_pitch_is_an_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"mask_by_pitch": false}')
        code = cli.main(["gen-synthetic", "--out", str(tmp_path),
                         "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert "unknown config keys: ['mask_by_pitch']" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("value", ["none", "L2"])
    def test_penalty_is_an_unknown_config_key(self, capsys, tmp_path,
                                              value):
        """Every fit is L2-penalised, so no --config key chooses it."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"penalty": value}))
        code = cli.main(["train", "--out", str(tmp_path),
                         "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "stylus: unknown config keys: ['penalty']"]

    def test_infinite_offset_rejected_by_ingest(self, capsys, tmp_path):
        notes = tmp_path / "r1.jsonl"
        notes.write_text(
            '{"onset": 0.0, "offset": 0.5, "pitch": 60, "velocity": 64}\n'
            '{"onset": 1.0, "offset": Infinity, "pitch": 62, '
            '"velocity": 64}\n')
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("recording_id,performer,dataset_tag,path\n"
                            f"r1,p,solo,{notes}\n")
        code = cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert f"{notes}: invalid notes: line 2: " in err
        assert "must be finite" in err and "Traceback" not in err

    def test_note_file_not_utf8_names_file_and_line(self, capsys, tmp_path):
        notes = tmp_path / "r1.jsonl"
        notes.write_bytes(
            b'{"onset": 0.0, "offset": 0.5, "pitch": 60, "velocity": 64}\n'
            b'{"onset": 1.0, "offset": 1.5, "pitch": 62, "velocity": \xff}\n')
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("recording_id,performer,dataset_tag,path\n"
                            f"r1,p,solo,{notes}\n")
        code = cli.main(["ingest", "--manifest", str(manifest),
                         "--out", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"stylus: {notes}:2: not UTF-8: byte 0xff: invalid start byte"]
        assert not (tmp_path / "run" / "ingest.csv").exists()

    # the bad byte on the first row, or 400 rows past it
    @pytest.mark.parametrize("rows_before", [1, 400])
    def test_manifest_not_utf8_names_file_and_line(self, capsys, tmp_path,
                                                   rows_before):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(
            b"recording_id,performer,dataset_tag,path\n"
            + b"".join(b"r%d,p,solo,r%d.jsonl\n" % (i, i)
                       for i in range(rows_before))
            + b"bad,p\xff,solo,bad.jsonl\n")
        code = cli.main(["split", "--manifest", str(manifest),
                         "--out", str(tmp_path / "run")])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"stylus: {manifest}:{rows_before + 2}: not UTF-8: byte 0xff: "
            "invalid start byte"]

    def test_exercises_not_utf8_names_file_and_line(self, capsys, tmp_path):
        exercises = tmp_path / "ex.jsonl"
        exercises.write_bytes(b'{"concept_id": 0, "chords": [[48, 52, 55]]}'
                              b'\r\n{"concept_id": 1, "chords": \xfe}\n')
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("recording_id,performer,dataset_tag,path\n"
                            "r1,p,solo,r1.jsonl\n")
        code = cli.main(["concepts", "--manifest", str(manifest),
                         "--out", str(tmp_path / "run"),
                         "--exercises", str(exercises)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"stylus: {exercises}:2: not UTF-8: byte 0xfe: invalid start byte"]

    def test_config_not_json_names_file_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{\n  "min_df": 3,\n}\n')
        code = cli.main(["gen-synthetic", "--out", str(tmp_path / "run"),
                         "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"stylus: {cfg}:3: not JSON: Expecting property name enclosed in "
            "double quotes (column 1)"]
        assert not (tmp_path / "run" / "manifest.csv").exists()


class TestRunInfo:
    def test_run_json_written(self, workspace):
        _, _, out = workspace
        payload = json.loads((out / "run.json").read_text())
        assert payload["command"] == "train"
        assert payload["seed"] == 0
        assert payload["config"]["top_k"] == 2000
        assert payload["wall_time_seconds"] >= 0

    def test_provenance_is_version_and_manifest_hash(self, workspace,
                                                     tmp_path, monkeypatch):
        _, manifest, _ = workspace
        monkeypatch.chdir(tmp_path)   # outside any source checkout
        assert cli.main(["split", "--manifest", manifest,
                         "--out", "run", "--seed", "0"]) == EXIT_OK
        payload = json.loads((tmp_path / "run" / "run.json").read_text())
        assert payload["version"] == stylus.__version__
        with open(manifest, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert payload["manifest_sha256"] == digest
        assert "git_describe" not in payload
        assert cli.main(["gen-synthetic", "--out", "corpus"]) == EXIT_OK
        payload = json.loads((tmp_path / "corpus" / "run.json").read_text())
        assert payload["manifest_sha256"] is None
        assert payload["version"] == stylus.__version__

    def test_config_defaults(self):
        config = RunConfig()
        assert config.grid == 0.1
        assert config.n_values == (3, 4, 5, 6, 7)
        assert (config.min_df, config.max_df) == (10, 1000)
        assert config.top_k == 2000
        assert config.n_permutations == 1000
        assert config.n_concept_iterations == 10
        assert config.bonferroni_m == 20


class TestPipeline:
    def test_gen_synthetic_deterministic(self, tmp_path):
        for sub in ("a", "b"):
            assert cli.main(["gen-synthetic", "--out",
                             str(tmp_path / sub), "--seed", "5"]) == EXIT_OK
        m1 = (tmp_path / "a" / "manifest.csv").read_text()
        m2 = (tmp_path / "b" / "manifest.csv").read_text()
        assert m1.replace(str(tmp_path / "a"), "") == \
            m2.replace(str(tmp_path / "b"), "")

    def test_gen_synthetic_relative_out_keeps_manifest_bytes(self, tmp_path,
                                                            monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["gen-synthetic", "--out", "corpus"]) == EXIT_OK
        # the default corpus (seed 0) as the single-process writer wrote it
        manifest = Path("corpus/manifest.csv").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == (
            "c6f38fa65419bfbcd29033c92fda4970a23a130741744b64c10559a4673e8f0b")
        plan = json.loads(Path("corpus/run.json").read_text())["synthetic"]
        assert plan == {"recordings": 400, "batches": 13,
                        "workers": min(13, len(os.sched_getaffinity(0)))}
        assert multiprocessing.active_children() == []

    def test_failed_gen_synthetic_leaves_no_manifest(self, tmp_path, capfd):
        (tmp_path / "notes" / "p00r003.jsonl").mkdir(parents=True)
        assert cli.main(["gen-synthetic", "--out", str(tmp_path)]) == EXIT_IO
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("stylus: I/O error: ")
        assert not (tmp_path / "manifest.csv").exists()
        assert multiprocessing.active_children() == []

    def test_artifacts_exist(self, workspace):
        _, _, out = workspace
        for name in ("splits.csv", "features.csv", "vocabulary.csv",
                     "model.json"):
            assert (out / name).exists()

    def test_evaluate_writes_accuracies(self, workspace):
        _, manifest, out = workspace
        assert cli.main(["evaluate", "--manifest", manifest,
                         "--out", str(out), "--seed", "0"]) == EXIT_OK
        result = json.loads((out / "evaluation.json").read_text())
        assert 0.0 <= result["top1"] <= 1.0
        assert result["top1"] <= result["top5"]

    def test_search_small(self, workspace, tmp_path):
        root, manifest, out = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"search_iterations": 3}')
        assert cli.main(["search", "--manifest", manifest,
                         "--out", str(out), "--seed", "0",
                         "--config", str(cfg)]) == EXIT_OK
        lines = (out / "trials.csv").read_text().strip().splitlines()
        assert len(lines) == 4   # header + 3 trials
        best = json.loads((out / "best_config.json").read_text())
        assert best["class_weight"] in ("none", "balanced")

    def test_train_takes_the_config_search_writes(self, workspace, tmp_path):
        _, manifest, out = workspace
        run = tmp_path / "run"
        run.mkdir()
        for name in ("splits.csv", "features.csv", "features.table",
                     "vocabulary.csv"):
            shutil.copy(out / name, run / name)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"search_iterations": 3}')
        argv = ["--manifest", manifest, "--out", str(run), "--seed", "0"]
        assert cli.main(["search", *argv, "--config", str(cfg)]) == EXIT_OK
        best = json.loads((run / "best_config.json").read_text())
        assert sorted(best) == ["C", "class_weight"]
        with open(run / "trials.csv") as fh:
            trials = list(csv.DictReader(fh))
        record = json.loads((run / "run.json").read_text())
        assert record["val_top1"] == max(float(t["val_top1"]) for t in trials)
        assert record["fits_not_converged"] == sum(
            t["converged"] == "False" for t in trials)
        assert all(int(t["n_iter"]) >= 1 for t in trials)
        assert cli.main(["train", *argv, "--config",
                         str(run / "best_config.json")]) == EXIT_OK
        model = json.loads((run / "model.json").read_text())
        assert model["config"] == {**best, "penalty": "L2"}

    def test_train_before_extract_fails_cleanly(self, tmp_path, workspace):
        _, manifest, _ = workspace
        code = cli.main(["train", "--manifest", manifest,
                         "--out", str(tmp_path), "--seed", "0"])
        assert code == EXIT_VALIDATION

    def test_pca_writes_components_and_projection(self, workspace):
        _, manifest, out = workspace
        assert cli.main(["pca", "--manifest", manifest,
                         "--out", str(out), "--seed", "0"]) == EXIT_OK
        header = (out / "pca_projection.csv").read_text().splitlines()[0]
        assert header.startswith("performer,component_0")
        assert (out / "pca_components.csv").exists()

    def test_rolls_written_and_readable(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{}')
        assert cli.main(["gen-synthetic", "--out", str(corpus_dir),
                         "--seed", "1"]) == EXIT_OK
        # shrink the corpus: keep 2 recordings
        manifest = corpus_dir / "manifest.csv"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:3]) + "\n")
        assert cli.main(["rolls", "--manifest", str(manifest),
                         "--out", str(out), "--seed", "0"]) == EXIT_OK
        index = json.loads((out / "rolls.json").read_text())
        key, paths = next(iter(index.items()))
        for kind in ("unified", "melody", "harmony", "rhythm", "dynamics"):
            roll = corpus.read_roll(paths[kind])
            assert roll.shape == (88, 3000)

    def test_rolls_holds_one_roll_at_a_time(self, tmp_path, monkeypatch):
        corpus_dir = tmp_path / "corpus"
        assert cli.main(["gen-synthetic", "--out", str(corpus_dir),
                         "--seed", "1"]) == EXIT_OK
        manifest = corpus_dir / "manifest.csv"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:3]) + "\n")
        made, live = [], []      # weak references; live rolls at each write
        write = corpus.write_roll

        def tracked(fn):
            def make(*args, **kwargs):
                roll = fn(*args, **kwargs)
                made.append(weakref.ref(roll))
                return roll
            return make

        def counting_write(store, roll, name):
            live.append(sum(r() is not None for r in made))
            return write(store, roll, name)

        monkeypatch.setattr(corpus, "paint_roll",
                            tracked(corpus.paint_roll))
        for name in ("melody", "harmony", "rhythm", "dynamics"):
            fn = getattr(representations, f"{name}_roll")
            monkeypatch.setattr(representations, f"{name}_roll", tracked(fn))
        monkeypatch.setattr(corpus, "write_roll", counting_write)
        assert cli.main(["rolls", "--manifest", str(manifest),
                         "--out", str(tmp_path / "run"),
                         "--seed", "0"]) == EXIT_OK
        index = json.loads((tmp_path / "run" / "rolls.json").read_text())
        assert len(live) == len(made) == 5 * len(index) > 5
        # the roll being written is the only one alive
        assert max(live) == 1

    def test_augment_preview(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        out = tmp_path / "run"
        assert cli.main(["gen-synthetic", "--out", str(corpus_dir),
                         "--seed", "2"]) == EXIT_OK
        manifest = corpus_dir / "manifest.csv"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(lines[:3]) + "\n")
        assert cli.main(["augment", "--manifest", str(manifest),
                         "--out", str(out), "--seed", "0"]) == EXIT_OK
        audit = json.loads((out / "augment_audit.json").read_text())
        assert audit and {"clip", "applied", "pitch_shift",
                          "dilation"} <= set(audit[0])
        # per clip, in audit order, its notes and augment's output
        previews = [json.loads(line) for line in
                    (out / "augment_preview.jsonl").read_text().splitlines()]
        assert [p["clip"] for p in previews] == [a["clip"] for a in audit]
        aconfig = augment.AugmentConfig(seed=0)
        clips = [(t, clip) for e in corpus.read_manifest(manifest)
                 for t in [corpus.parse_note_events(
                     e.path, e.recording_id, e.performer, e.dataset_tag)]
                 for clip in corpus.segment_clips(t)]
        assert len(clips) == len(previews)
        for (t, clip), preview in zip(clips, previews):
            after = augment.augment(clip, aconfig, parent=t).clip
            for side, notes in (("before", clip.notes),
                                ("after", after.notes)):
                assert corpus.NoteArray.from_events(
                    corpus.NoteEvent(**n) for n in preview[side]) == notes

    def test_importance_report(self, workspace, tmp_path):
        _, manifest, out = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_importance": 5, "top_k": 10}')
        assert cli.main(["importance", "--manifest", manifest,
                         "--out", str(out), "--seed", "0",
                         "--config", str(cfg)]) == EXIT_OK
        text = (out / "importance.csv").read_text()
        assert "melody" in text and "harmony" in text

    def test_report_weights(self, workspace, tmp_path):
        _, manifest, out = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_bootstrap": 3}')
        assert cli.main(["report", "--manifest", manifest,
                         "--out", str(out), "--seed", "0",
                         "--config", str(cfg)]) == EXIT_OK
        lines = (out / "weights_topbottom.csv").read_text().splitlines()
        assert lines[0] == "performer,rank,feature_string,weight,sd"
        assert len(lines) == 1 + 10 * 10   # 10 performers x top5 + bottom5

    def test_concepts_outputs(self, workspace, tmp_path):
        _, manifest, out = workspace
        exercises = tmp_path / "ex.jsonl"
        with open(exercises, "w") as fh:
            for i in range(3):
                fh.write(json.dumps(
                    {"concept_id": i,
                     "chords": [[48 + i, 52 + i, 55 + i, 59 + i],
                                [50 + i, 53 + i, 57 + i, 60 + i]]}) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_concept_iterations": 2, "bonferroni_m": 3}')
        assert cli.main(["concepts", "--manifest", manifest,
                         "--out", str(out), "--seed", "0",
                         "--config", str(cfg),
                         "--exercises", str(exercises)]) == EXIT_OK
        for name in ("sign_counts.csv", "sign_counts_tested.csv",
                     "dendrogram.json"):
            assert (out / name).exists()

    def test_concepts_refusal_writes_nothing(self, tmp_path, capsys):
        # no chord reaches min_chord_notes, so every concept roll is empty
        # and every sign count is equal
        manifest = synthetic.write_corpus(
            tmp_path / "corpus", synthetic.SyntheticConfig(
                n_performers=3, n_recordings=10, seed=0))
        exercises = tmp_path / "ex.jsonl"
        exercises.write_text("".join(json.dumps(
            {"concept_id": i, "chords": [[48 + i, 52 + i, 55 + i, 59 + i]]})
            + "\n" for i in range(3)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"min_chord_notes": 88, "n_concept_iterations": 2, '
                       '"bonferroni_m": 3}')
        out = tmp_path / "run"
        assert cli.main(["split", "--manifest", str(manifest),
                         "--out", str(out)]) == EXIT_OK
        capsys.readouterr()
        assert cli.main(["concepts", "--manifest", str(manifest),
                         "--out", str(out), "--config", str(cfg),
                         "--exercises", str(exercises)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "stylus: performer 'performer_00': sign counts do not vary, so "
            "performers cannot be clustered (are the concept rolls empty at "
            "min_chord_notes 88?)"]
        assert sorted(p.name for p in out.iterdir()) == ["run.json",
                                                         "splits.csv"]

    def test_concept_without_variant_refused(self, workspace, tmp_path,
                                             capsys):
        # every transposition of concept 9's chord lies above the keyboard
        _, manifest, out = workspace
        exercises = tmp_path / "ex.jsonl"
        exercises.write_text("".join(json.dumps(
            {"concept_id": i, "chords": [[48 + i, 52 + i, 55 + i]]}) + "\n"
            for i in range(3)) + json.dumps(
            {"concept_id": 9, "chords": [[120, 124, 127]]}) + "\n")
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(out / "splits.csv", run / "splits.csv")
        capsys.readouterr()
        assert cli.main(["concepts", "--manifest", manifest,
                         "--out", str(run), "--seed", "0",
                         "--exercises", str(exercises)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "stylus: concept 9: no variant of its exercises lies on the "
            "keyboard (21..108)"]
        assert [p.name for p in run.iterdir()] == ["splits.csv"]

    @pytest.mark.parametrize("concept_ids", [[], [0]],
                             ids=["no-exercise", "one-concept"])
    def test_exercises_it_cannot_analyse_refused(self, workspace, tmp_path,
                                                 capsys, concept_ids):
        """A file with no exercise, or with one concept, whose random sets
        would be drawn from no other concept's variants."""
        _, manifest, out = workspace
        exercises = tmp_path / "ex.jsonl"
        exercises.write_text("".join(json.dumps(
            {"concept_id": c, "chords": [[48 + i, 52 + i, 55 + i]]}) + "\n"
            for i, c in enumerate(concept_ids)))
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(out / "splits.csv", run / "splits.csv")
        capsys.readouterr()
        assert cli.main(["concepts", "--manifest", manifest,
                         "--out", str(run), "--seed", "0",
                         "--exercises", str(exercises)]) == EXIT_VALIDATION
        if concept_ids:
            size = len(concepts.exercise_variants(
                concepts.read_concept_exercises(exercises)[0]))
            message = (f"concept 0: pool of 0 other-chapter variants cannot "
                       f"supply two non-overlapping random sets of {size}")
        else:
            message = f"{exercises}: no exercises"
        assert capsys.readouterr().err.splitlines() == [f"stylus: {message}"]
        assert [p.name for p in run.iterdir()] == ["splits.csv"]

    def test_concepts_renders_rolls_as_it_embeds_them(self, workspace,
                                                      tmp_path, monkeypatch):
        # two exercises per concept
        _, manifest, out = workspace
        exercises = tmp_path / "ex.jsonl"
        with open(exercises, "w") as fh:
            for i in range(6):
                fh.write(json.dumps({"concept_id": i % 3,
                                     "chords": [[48 + i, 52 + i, 55 + i]]})
                         + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n_concept_iterations": 1, "bonferroni_m": 3}')
        variant_rolls, clip_rolls = [], []     # weak references
        live, sizes = [], []
        expand, paint = concepts.expand_concept, corpus.paint_roll
        render = concepts.render_chord_sequence

        def tracked_expand(*args, **kwargs):
            rolls = expand(*args, **kwargs)
            sizes.append(len(rolls))
            return rolls

        def tracked_render(*args, **kwargs):
            roll = render(*args, **kwargs)
            variant_rolls.append(weakref.ref(roll))
            return roll

        def tracked_paint(notes, **kwargs):
            roll = paint(notes, **kwargs)
            clip_rolls.append(weakref.ref(roll))
            return roll

        def embed(roll):
            live.append(tuple(sum(r() is not None for r in refs)
                              for refs in (variant_rolls, clip_rolls)))
            return concepts._pool_embed(roll)

        monkeypatch.setattr(concepts, "expand_concept", tracked_expand)
        monkeypatch.setattr(concepts, "render_chord_sequence", tracked_render)
        monkeypatch.setattr(corpus, "paint_roll", tracked_paint)
        monkeypatch.setattr(concepts, "default_embedder",
                            lambda: concepts.Embedder(fn=embed, dim=64))
        run = tmp_path / "run"
        run.mkdir()
        shutil.copy(out / "splits.csv", run / "splits.csv")
        assert cli.main(["concepts", "--manifest", manifest,
                         "--out", str(run), "--seed", "0",
                         "--config", str(cfg),
                         "--exercises", str(exercises)]) == EXIT_OK
        assert len(sizes) == 6 and len(live) > sum(sizes)
        assert len(variant_rolls) == sum(sizes)   # each variant rendered once
        assert max(n for n, _ in live) == 1
        assert max(n for _, n in live) == 1

    def test_ingest_summary(self, workspace, tmp_path):
        _, manifest, _ = workspace
        out = tmp_path / "ingest"
        assert cli.main(["ingest", "--manifest", manifest,
                         "--out", str(out), "--seed", "0"]) == EXIT_OK
        lines = (out / "ingest.csv").read_text().splitlines()
        assert lines[0] == "recording_id,performer,dataset_tag,n_notes,duration"
        assert len(lines) == 401


class TestStreamedRecordings:
    """Corpus subcommands parse one recording at a time and write their
    index file only after every recording is read."""
    CORPUS = synthetic.SyntheticConfig(n_performers=2, n_recordings=2,
                                       events_per_recording=5, seed=1)

    @pytest.fixture
    def manifest(self, tmp_path):
        return synthetic.write_corpus(tmp_path / "corpus", self.CORPUS)

    @pytest.mark.parametrize("command",
                             ["ingest", "extract", "rolls", "augment"])
    def test_one_earlier_recording_alive_at_each_parse(self, manifest,
                                                       tmp_path, monkeypatch,
                                                       command):
        """ingest, rolls and augment hold at most the previous recording at
        each parse. extract holds only its open batch, the recordings
        parsed since the last extracted batch: here the first two, then the
        last two, so each batch is released once extracted."""
        parsed, alive, opened = [], [], []  # weak references; per parse:
        batches = []                        # live count, open batch size
        parse, extract_batch = corpus.parse_note_events, features.extract_batch

        def tracked_parse(*args, **kwargs):
            alive.append(sum(r() is not None for r in parsed))
            opened.append(len(parsed) - sum(batches))
            t = parse(*args, **kwargs)
            parsed.append(weakref.ref(t))
            return t

        def tracked_extract_batch(batch, *args):
            batches.append(len(batch))
            return extract_batch(batch, *args)

        first = corpus.read_manifest(manifest)[0]
        monkeypatch.setattr(features, "EXTRACT_BATCH_NOTES",
                            len(parse(first.path).notes) + 1)
        monkeypatch.setattr(corpus, "parse_note_events", tracked_parse)
        monkeypatch.setattr(features, "extract_batch", tracked_extract_batch)
        assert cli.main([command, "--manifest", str(manifest),
                         "--out", str(tmp_path / "run")]) == EXIT_OK
        assert len(alive) == 4
        if command == "extract":
            assert batches == [2, 2] and opened == [0, 1, 0, 1]
            assert alive == opened
        else:
            assert max(alive) <= 1

    @pytest.mark.parametrize("command, index", [
        ("ingest", ["ingest.csv"]),
        ("extract", ["features.csv", "vocabulary.csv"]),
        ("rolls", ["rolls.json", corpus.ROLLS_NAME]),
        ("augment", ["augment_audit.json", "augment_preview.jsonl"]),
    ])
    def test_invalid_last_recording_writes_no_index(self, manifest, tmp_path,
                                                    capsys, command, index):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"onset": 1.0, "offset": 0.5, "pitch": 60, '
                       '"velocity": 64}\n')
        with open(manifest, "a") as fh:
            fh.write(f"bad,performer_00,solo,{bad}\n")
        out = tmp_path / "run"
        code = cli.main([command, "--manifest", str(manifest),
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert str(bad) in err and "Traceback" not in err
        assert not any((out / name).exists() for name in index)

    @pytest.mark.parametrize("command, files", [
        ("rolls", ["rolls.json", corpus.ROLLS_NAME]),
        ("augment", ["augment_audit.json", "augment_preview.jsonl"]),
    ])
    def test_invalid_last_recording_keeps_the_earlier_files(
            self, manifest, tmp_path, command, files):
        out = tmp_path / "run"
        argv = [command, "--manifest", str(manifest), "--out", str(out)]
        assert cli.main(argv) == EXIT_OK
        earlier = {name: (out / name).read_bytes() for name in files}
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"onset": 1.0, "offset": 0.5, "pitch": 60, '
                       '"velocity": 64}\n')
        with open(manifest, "a") as fh:
            fh.write(f"bad,performer_00,solo,{bad}\n")
        assert cli.main(argv) == EXIT_VALIDATION
        assert {name: (out / name).read_bytes() for name in files} == earlier
        assert not list(out.glob("*.tmp"))

    def test_rolls_and_augment_files_do_not_grow_with_the_corpus(
            self, tmp_path):
        """rolls and augment create the same files in --out for a 2- and a
        4-recording corpus: one roll store and one preview file, not one
        file per roll or per clip."""
        made, clips = [], []
        for n in (1, 2):
            config = dataclasses.replace(self.CORPUS, n_recordings=n)
            manifest = synthetic.write_corpus(tmp_path / f"corpus{n}", config)
            out = tmp_path / f"run{n}"
            for command in ("rolls", "augment"):
                assert cli.main([command, "--manifest", str(manifest),
                                 "--out", str(out)]) == EXIT_OK
            made.append(sorted(str(p.relative_to(out))
                               for p in out.rglob("*")))
            clips.append(len(json.loads((out / "rolls.json").read_text())))
        assert clips[0] < clips[1]
        assert made[0] == made[1]


def _notes_record(out):
    return json.loads((out / "run.json").read_text())["notes"]


def _edit_one_digit(path):
    """Change the last digit of the file's first velocity: the file keeps
    its size and stays valid (velocities lie in [40, 100])."""
    data = bytearray(path.read_bytes())
    i = data.index(b"}") - 1
    data[i] = ord("0") + (data[i] - ord("0") + 1) % 10
    path.write_bytes(bytes(data))


class TestNoteStore:
    """``ingest`` writes the note store that the other corpus subcommands
    read, and each records in run.json where its notes came from."""
    CORPUS = synthetic.SyntheticConfig(n_performers=2, n_recordings=2,
                                       events_per_recording=5, seed=1)

    @pytest.fixture
    def manifest(self, tmp_path):
        return synthetic.write_corpus(tmp_path / "corpus", self.CORPUS)

    def _run(self, command, manifest, out):
        return cli.main([command, "--manifest", str(manifest),
                         "--out", str(out)])

    def test_extract_reads_what_ingest_wrote(self, manifest, tmp_path):
        out = tmp_path / "run"
        assert self._run("ingest", manifest, out) == EXIT_OK
        assert _notes_record(out) == {"from_store": 0, "decoded": 4}
        assert self._run("ingest", manifest, out) == EXIT_OK
        assert _notes_record(out) == {"from_store": 0, "decoded": 4}
        assert self._run("extract", manifest, out) == EXIT_OK
        assert _notes_record(out) == {"from_store": 4, "decoded": 0}
        _edit_one_digit(Path(corpus.read_manifest(manifest)[2].path))
        assert self._run("extract", manifest, out) == EXIT_OK
        assert _notes_record(out) == {"from_store": 3, "decoded": 1}

    @pytest.mark.parametrize("command", ["rolls", "augment"])
    def test_clip_subcommands_read_the_store(self, manifest, tmp_path,
                                             command):
        out = tmp_path / "run"
        assert self._run(command, manifest, out) == EXIT_OK
        assert _notes_record(out) == {"from_store": 0, "decoded": 4}
        assert self._run("ingest", manifest, out) == EXIT_OK
        assert self._run(command, manifest, out) == EXIT_OK
        assert _notes_record(out) == {"from_store": 4, "decoded": 0}

    @pytest.mark.parametrize("damage", [lambda b: b[:-5],
                                        lambda b: b"XXXX" + b[4:]],
                             ids=["truncated", "bad-header"])
    def test_damaged_store_exits_1_naming_it(self, manifest, tmp_path,
                                             capsys, damage):
        out = tmp_path / "run"
        assert self._run("ingest", manifest, out) == EXIT_OK
        store = out / corpus.STORE_NAME
        store.write_bytes(damage(store.read_bytes()))
        capsys.readouterr()
        assert self._run("extract", manifest, out) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"stylus: {store}: note store ")
        assert "re-run ingest" in err and "Traceback" not in err
        assert not (out / "features.csv").exists()

    def test_failed_ingest_leaves_no_new_store(self, manifest, tmp_path):
        out = tmp_path / "run"
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"onset": 1.0, "offset": 0.5, "pitch": 60, '
                       '"velocity": 64}\n')
        with open(manifest, "a") as fh:
            fh.write(f"bad,performer_00,solo,{bad}\n")
        assert self._run("ingest", manifest, out) == EXIT_VALIDATION
        assert sorted(p.name for p in out.iterdir()) == []

    @pytest.mark.parametrize("command", ["ingest", "extract"])
    def test_recording_longer_than_a_day_exits_1(self, manifest, tmp_path,
                                                 capsys, command):
        long = tmp_path / "long.jsonl"
        long.write_text('{"onset": 0.0, "offset": 0.5, "pitch": 60, '
                        '"velocity": 64}\n{"onset": 1e16, "offset": 2e16, '
                        '"pitch": 62, "velocity": 64}\n')
        with open(manifest, "a") as fh:
            fh.write(f"long,performer_00,solo,{long}\n")
        out = tmp_path / "run"
        assert self._run(command, manifest, out) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err == ("stylus: long: duration 2e+16 s exceeds "
                       f"{corpus.MAX_RECORDING_SECONDS} s\n")


def _reseal(data, start):
    """A feature table's bytes ``data`` with its triples block's CRC-32, in
    the last of its two 52-byte index rows (key, CRC-32, offset, row
    count), made that of the bytes from ``start`` to the index."""
    crc = zlib.crc32(data[start:-104]).to_bytes(4, "little")
    return data[:-20] + crc + data[-16:]


class TestFeatureTable:
    """``extract`` writes ``features.table``, the one source of counts for
    the feature-loading subcommands, which refuse it unless it was written
    from the exact bytes of ``features.csv``."""
    CORPUS = synthetic.SyntheticConfig(n_performers=3, n_recordings=4,
                                       events_per_recording=20, seed=2)

    CONFIG = {"min_df": 2, "search_iterations": 2, "n_bootstrap": 2,
              "n_permutations": 1, "n_importance": 1}

    @pytest.fixture
    def run(self, tmp_path):
        manifest = synthetic.write_corpus(tmp_path / "corpus", self.CORPUS)
        out = tmp_path / "run"
        for command in ("split", "extract"):
            assert self._run(command, manifest, out) == EXIT_OK
        return manifest, out

    def _run(self, command, manifest, out, config=None):
        cfg = Path(manifest).parent / "cfg.json"
        cfg.write_text(json.dumps({**self.CONFIG, **(config or {})}))
        return cli.main([command, "--manifest", str(manifest),
                         "--out", str(out), "--seed", "0",
                         "--config", str(cfg)])

    @staticmethod
    def _refusal(out):
        return [f"stylus: {out / 'features.table'}: feature table was not "
                f"written from {out / 'features.csv'} and "
                f"{out / 'vocabulary.csv'}; re-run extract"]

    @staticmethod
    def _edit_first_count(out):
        path = out / "features.csv"
        data = path.read_bytes()
        # the last digit of the first count, so the file keeps its size
        end = data.index(b"\n", data.index(b"\n") + 1) - 1
        path.write_bytes(data[:end] + str((data[end] - 47) % 10).encode()
                         + data[end + 1:])
        edited = path.read_bytes()
        assert len(edited) == len(data) and edited != data

    def test_edited_dump_is_parsed(self, run, capsys):
        """An edited dump is not parsed: it is refused."""
        manifest, out = run
        self._edit_first_count(out)
        capsys.readouterr()
        assert self._run("train", manifest, out) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == self._refusal(out)
        assert not (out / "model.json").exists()

    @pytest.mark.parametrize("change", ["edit", "delete", "vocabulary"])
    def test_dump_without_its_table_refused_by_every_loader(self, run,
                                                            capsys, change):
        """The table is keyed by features.csv and vocabulary.csv, so a
        vocabulary with 20 rows deleted is refused as an edited dump is."""
        manifest, out = run
        assert self._run("train", manifest, out) == EXIT_OK
        if change == "edit":
            self._edit_first_count(out)
        elif change == "delete":
            (out / "features.table").unlink()
        else:
            vocab = out / "vocabulary.csv"
            rows = vocab.read_text().splitlines(keepends=True)
            assert len(rows) > 21
            vocab.write_text("".join(rows[:-20]))
        before = {p: p.read_bytes() for p in out.iterdir()}
        for command in ("train", "search", "evaluate", "importance",
                        "correlate", "pca", "report"):
            capsys.readouterr()
            assert self._run(command, manifest, out) == EXIT_VALIDATION
            assert capsys.readouterr().err.splitlines() == self._refusal(out)
            assert {p: p.read_bytes() for p in out.iterdir()} == before
            strict_json(out / "run.json")

    @pytest.mark.parametrize("damage, reason", [
        (lambda b, names: b[:-1], "truncated"),
        (lambda b, names: b"XXXX" + b[4:], "bad header"),
        (lambda b, names: b"FTB1" + b[4:], "bad header"),
        # one bit of the last triple's count, the last byte before the
        # two 52-byte index rows
        (lambda b, names: b[:-105] + bytes([b[-105] ^ 1]) + b[-104:],
         "block checksum mismatch"),
        # the first triple's recording index, after the header and names,
        # the triples block's checksum made to match
        (lambda b, names: _reseal(
            b[:20 + names] + b"\xff" * 4 + b[24 + names:], 20 + names),
         "index out of bounds"),
        # the triples block's row count, the index's last field
        (lambda b, names: b[:-8] + (10 ** 15).to_bytes(8, "little"),
         "index out of bounds"),
    ], ids=["truncated", "magic", "old-layout", "payload", "recording-index",
            "block"])
    def test_damaged_table_exits_1_naming_it(self, run, capsys, damage,
                                             reason):
        manifest, out = run
        table = out / "features.table"
        data = table.read_bytes()
        # the names block's length: the first index row's row count
        names = int.from_bytes(data[-60:-52], "little")
        table.write_bytes(damage(data, names))
        capsys.readouterr()
        assert self._run("train", manifest, out) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"stylus: {table}: feature table {reason}; re-run extract"]

    def test_failed_extract_leaves_no_matching_table(self, run,
                                                     monkeypatch):
        manifest, out = run
        before = (out / "features.csv").read_bytes()

        def fail(*args):
            raise ValueError("table write failed")
        # fails after features.csv is written, before the table replaces
        # the earlier one
        monkeypatch.setattr(corpus.BlockFile, "write", fail)
        assert self._run("extract", manifest, out,
                         {"n_values": [3]}) == EXIT_VALIDATION
        monkeypatch.undo()
        assert (out / "features.csv").read_bytes() != before
        assert not list(out.glob("*.tmp"))
        with pytest.raises(corpus.ValidationError) as info:
            features.read_feature_counts(out / "features.csv")
        assert [f"stylus: {info.value}"] == self._refusal(out)

    def test_extract_writes_identical_tables(self, run, tmp_path):
        manifest, out = run
        again = tmp_path / "again"
        assert self._run("extract", manifest, again) == EXIT_OK
        assert ((out / "features.table").read_bytes()
                == (again / "features.table").read_bytes())

    def test_store_and_table_refuse_each_other(self, run, capsys):
        manifest, out = run
        assert self._run("ingest", manifest, out) == EXIT_OK
        table, store = out / "features.table", out / corpus.STORE_NAME
        assert table.read_bytes()[:4] != store.read_bytes()[:4]
        table_bytes = table.read_bytes()
        shutil.copy(store, table)
        capsys.readouterr()
        assert self._run("train", manifest, out) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"stylus: {table}: feature table bad header; re-run extract\n")
        table.write_bytes(table_bytes)
        shutil.copy(table, store)
        assert self._run("extract", manifest, out) == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"stylus: {store}: note store bad header; re-run ingest\n")


def strict_json(path):
    """The JSON document at ``path``, which must hold no NaN or infinity."""
    def refuse(constant):
        raise ValueError(f"{path}: {constant} is not JSON")
    return json.loads(Path(path).read_text(), parse_constant=refuse)


class TestEmptySplit:
    """``split`` holds nothing out of a stratum of fewer than 3 recordings.
    A subcommand that reads a split holding no recording exits 1 naming it,
    before it writes a file."""
    CORPUS = synthetic.SyntheticConfig(n_performers=2, n_recordings=2,
                                       events_per_recording=20, seed=3)

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("empty_split")
        manifest = synthetic.write_corpus(root / "corpus", self.CORPUS)
        cfg = root / "cfg.json"
        cfg.write_text(json.dumps({"min_df": 1, "search_iterations": 2,
                                   "n_importance": 1,
                                   "n_concept_iterations": 1}))
        out = root / "run"
        for command in ("split", "extract"):
            assert cli.main([command, "--manifest", str(manifest),
                             "--out", str(out), "--config", str(cfg)]) == 0
            strict_json(out / "run.json")
        assert set(corpus.read_splits(out / "splits.csv").values()) == {
            "train"}
        return manifest, cfg, out

    def _refused(self, inputs, tmp_path, capsys, argv, message):
        """Run ``argv`` on a copy of the inputs; it must exit 1 with
        ``message`` and leave every file as it was."""
        manifest, cfg, out = inputs
        run = tmp_path / "run"
        shutil.copytree(out, run)
        if argv[0] == "train":   # split never holds out every recording
            ids = corpus.read_splits(run / "splits.csv")
            corpus.write_splits(run / "splits.csv", dict.fromkeys(ids, "test"))
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        assert cli.main([*argv, "--manifest", str(manifest), "--out", str(run),
                         "--config", str(cfg)]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [f"stylus: {message}"]
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before
        strict_json(run / "run.json")

    @pytest.mark.parametrize("command, split", [
        ("train", "train"), ("search", "validation"), ("evaluate", "test"),
        ("importance", "test")])
    def test_feature_subcommand_names_the_split(self, inputs, tmp_path,
                                                capsys, command, split):
        self._refused(inputs, tmp_path, capsys, [command],
                      f"no {split} recordings in split")

    def test_concepts_needs_a_held_out_recording(self, inputs, tmp_path,
                                                 capsys):
        exercises = tmp_path / "ex.jsonl"
        exercises.write_text("".join(json.dumps(
            {"concept_id": i, "chords": [[48 + i, 52 + i, 55 + i]]}) + "\n"
            for i in range(3)))
        self._refused(inputs, tmp_path, capsys,
                      ["concepts", "--exercises", str(exercises)],
                      "no validation or test recordings in split")


class TestStaleArtifacts:
    def _copy(self, workspace, tmp_path):
        _, manifest, out = workspace
        run = tmp_path / "run"
        run.mkdir()
        for name in ("splits.csv", "features.csv", "features.table",
                     "vocabulary.csv", "model.json"):
            shutil.copy(out / name, run / name)
        return manifest, run

    @pytest.mark.parametrize("command", ["evaluate", "importance"])
    def test_model_from_another_vocabulary_refused(self, workspace, tmp_path,
                                                   capsys, command):
        manifest, run = self._copy(workspace, tmp_path)
        trained = json.loads((run / "model.json").read_text())
        # another min_df: another vocabulary, and a table keyed by it
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"min_df": 50}')
        assert cli.main(["extract", "--manifest", manifest, "--out", str(run),
                         "--config", str(cfg)]) == EXIT_OK
        current = cli._vocab_hash(
            features.read_vocabulary(run / "vocabulary.csv"))
        assert current != trained["vocabulary_hash"] != ""
        capsys.readouterr()
        code = cli.main([command, "--manifest", manifest, "--out", str(run),
                         "--seed", "0"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"stylus: model.json was trained on vocabulary "
            f"{trained['vocabulary_hash']}, but vocabulary.csv hashes to "
            f"{current}; retrain the model\n")

    def test_model_without_hash_refused(self, workspace, tmp_path, capsys):
        """A model.json with an empty vocabulary hash, which no writer
        makes, is refused with one line that says to retrain."""
        manifest, run = self._copy(workspace, tmp_path)
        payload = json.loads((run / "model.json").read_text())
        payload["vocabulary_hash"] = ""
        (run / "model.json").write_text(json.dumps(payload))
        assert cli.main(["evaluate", "--manifest", manifest,
                         "--out", str(run), "--seed", "0"]) == EXIT_VALIDATION
        current = cli._vocab_hash(features.read_vocabulary(
            run / "vocabulary.csv"))
        assert capsys.readouterr().err == (
            f"stylus: model.json was trained on vocabulary (none recorded), "
            f"but vocabulary.csv hashes to {current}; retrain the model\n")
        assert not (run / "evaluation.json").exists()

    def test_recording_missing_from_manifest(self, workspace, tmp_path,
                                             capsys):
        manifest, run = self._copy(workspace, tmp_path)
        lines = Path(manifest).read_text().splitlines()
        short = tmp_path / "manifest.csv"
        short.write_text("\n".join(lines[:-1]) + "\n")
        missing = lines[-1].split(",")[0]
        code = cli.main(["train", "--manifest", str(short),
                         "--out", str(run), "--seed", "0"])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert "missing from the manifest" in err and missing in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name, line, edit, what", [
        ("features.csv", 1,
         lambda rows: ["recording_id,feature_kind,feature_string"] + rows[1:],
         "count"),
        ("features.csv", 3,
         lambda rows: rows[:2] + ["p00r000,melody"] + rows[3:],
         "too few fields"),
        ("features.csv", 3,
         lambda rows: rows[:2] + [rows[2].rsplit(",", 1)[0] + ",two"]
         + rows[3:], "'two'"),
        ("vocabulary.csv", 2,
         lambda rows: rows[:1] + ['0,melody,"0,1"'] + rows[2:],
         "too few fields"),
        ("splits.csv", 1,
         lambda rows: ["recording_id,fold"] + rows[1:], "split"),
        ("splits.csv", 3,
         lambda rows: rows[:2] + [rows[2].split(",")[0]] + rows[3:],
         "too few fields"),
    ])
    def test_malformed_feature_files_exit_1(self, workspace, tmp_path,
                                            capsys, name, line, edit, what):
        manifest, run = self._copy(workspace, tmp_path)
        path = run / name
        path.write_text("\n".join(edit(path.read_text().splitlines()))
                        + "\n")
        code = cli.main(["train", "--manifest", manifest, "--out", str(run),
                         "--seed", "0"])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        if name in ("features.csv", "vocabulary.csv"):
            # an edited features.csv or vocabulary.csv has no table, so the
            # table is refused before either is parsed
            assert err.splitlines() == [
                f"stylus: {run / 'features.table'}: feature table was not "
                f"written from {run / 'features.csv'} and "
                f"{run / 'vocabulary.csv'}; re-run extract"]
        else:
            assert f"{path}:{line}: " in err and what in err
        assert "Traceback" not in err

    def test_manifest_row_missing_fields_exits_1(self, workspace, tmp_path,
                                                 capsys):
        manifest, run = self._copy(workspace, tmp_path)
        lines = Path(manifest).read_text().splitlines()
        short = tmp_path / "manifest.csv"
        lines[2] = lines[2].rsplit(",", 1)[0]       # no path
        short.write_text("\n".join(lines) + "\n")
        code = cli.main(["train", "--manifest", str(short),
                         "--out", str(run), "--seed", "0"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"stylus: {short}:3: too few fields"]

    @pytest.mark.parametrize("key", ["n_features", "W", "config"])
    def test_model_missing_key_exits_1(self, workspace, tmp_path, capsys,
                                       key):
        manifest, run = self._copy(workspace, tmp_path)
        payload = json.loads((run / "model.json").read_text())
        del payload[key]
        (run / "model.json").write_text(json.dumps(payload))
        code = cli.main(["evaluate", "--manifest", manifest,
                         "--out", str(run), "--seed", "0"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"stylus: {run / 'model.json'}: missing key '{key}'"]

    def test_unpenalised_model_refused(self, workspace, tmp_path, capsys):
        """A model.json from a fit without the L2 penalty, which no writer
        makes any more, is refused with one line naming the file."""
        manifest, run = self._copy(workspace, tmp_path)
        payload = json.loads((run / "model.json").read_text())
        payload["config"]["penalty"] = "none"
        (run / "model.json").write_text(json.dumps(payload))
        code = cli.main(["evaluate", "--manifest", manifest,
                         "--out", str(run), "--seed", "0"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"stylus: {run / 'model.json'}: penalty must be 'L2', "
            f"got 'none'"]
        assert not (run / "evaluation.json").exists()

    @pytest.mark.parametrize("command, text, message", [
        ("train", "null", "config must be a JSON object, got NoneType"),
        ("train", '{"C": "1"}', "'C' must be a float, got str"),
        ("report", '{"n_bootstrap": "5"}',
         "'n_bootstrap' must be an int, got str"),
        ("correlate", '{"n_permutations": 2.5}',
         "'n_permutations' must be an int, got float"),
    ])
    def test_config_value_of_wrong_type_exits_1(self, workspace, tmp_path,
                                                capsys, command, text,
                                                message):
        _, manifest, out = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = cli.main([command, "--manifest", manifest, "--out", str(out),
                         "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command, key", [
        ("importance", "n_importance"), ("correlate", "n_permutations")])
    def test_count_below_one_exits_1(self, workspace, tmp_path, capsys,
                                     command, key):
        _, manifest, out = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 0}))
        code = cli.main([command, "--manifest", manifest, "--out", str(out),
                         "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"stylus: config key '{key}' must be in "
            "[1, 9223372036854775807], got 0"]

    @pytest.mark.parametrize("command, output", [
        ("importance", "importance.csv"), ("correlate", "correlations.csv")])
    @pytest.mark.parametrize("top_k", [0, -3])
    def test_top_k_below_one_exits_1(self, workspace, tmp_path, capsys,
                                     command, output, top_k):
        manifest, run = self._copy(workspace, tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"top_k": top_k}))
        code = cli.main([command, "--manifest", manifest, "--out", str(run),
                         "--config", str(cfg)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"stylus: config key 'top_k' must be >= 1, got {top_k}"]
        assert not (run / output).exists()

    @pytest.mark.parametrize("text, message", [
        ('{"min_df": -5}', "'min_df' must be >= 1, got -5"),
        ('{"n_values": []}', "'n_values' must be a non-empty list of "
                             "distinct sizes >= 1, got []"),
        ('{"max_df": 3, "min_df": 10}',
         "'max_df' must be >= min_df (10), got 3"),
        ('{"n_values": [3, 4, 3]}', "got [3, 4, 3]"),
        ('{"n_values": [3, 11]}', "'n_values' must hold sizes <= 10 (larger "
                                  "codes overflow int64), got [3, 11]"),
    ])
    def test_feature_setting_out_of_range_exits_1(self, workspace, tmp_path,
                                                  capsys, text, message):
        _, manifest, _ = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "run"
        code = cli.main(["extract", "--manifest", manifest,
                         "--out", str(out), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert message in err and "Traceback" not in err
        assert not (out / "vocabulary.csv").exists()

    @pytest.mark.parametrize("overrides, ok", [
        ({"C": 2, "grid": 0.05, "class_weight": "none"}, True),
        ({"n_values": [3, 4]}, True),
        ({"top_k": True}, False),
        ({"C": False}, False),
        ({"n_values": [3, "4"]}, False),
        ({"n_values": [3, True]}, False),
        ({"n_values": 3}, False),
        ({"class_weight": None}, False),
        ([1, 2], False),
    ])
    def test_config_types_follow_the_defaults(self, tmp_path, overrides, ok):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(overrides))
        args = argparse.Namespace(config=str(cfg))
        if ok:
            config = cli._load_config(args)
            assert all(getattr(config, k) == (tuple(v) if isinstance(v, list)
                                              else v)
                       for k, v in overrides.items())
        else:
            with pytest.raises(corpus.ValidationError, match="got "):
                cli._load_config(args)

    @pytest.mark.parametrize("flag", ["--threads", "--format"])
    def test_removed_flags_rejected(self, flag):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["split", flag, "1"])


def _boundaries(key):
    """(value, allowed) pairs at the edges of the values RunConfig allows
    ``key``, plus non-finite numbers and values of the wrong type."""
    spec = RunConfig.__dataclass_fields__[key]
    kind, allowed = type(spec.default), spec.metadata["allowed"]
    odd = [(math.nan, False), (math.inf, False), (-math.inf, False),
           (True, False), ("1", False), (None, False)]
    if kind is str:
        return [(c, True) for c in allowed] + [("bogus", False)] + odd
    lo, hi = allowed
    if kind is float:
        edges = [(lo, True), (math.nextafter(lo, -math.inf), False),
                 (hi, True), (math.nextafter(hi, math.inf), False),
                 (math.ceil(lo), True)]     # an int sets a float key
    else:
        edges = [(lo, True), (lo - 1, False), (float(lo), False)]
        if hi < math.inf:
            edges += [(hi, True), (hi + 1, False)]
    if kind is tuple:
        return ([([v], ok) for v, ok in edges + odd]
                + [([lo, hi], True), ([lo, lo], False), ([], False)]
                + [(v, False) for v, _ in edges[:1] + odd])
    return edges + odd


@st.composite
def boundary_overrides(draw):
    names = [f.name for f in dataclasses.fields(RunConfig)]
    keys = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3,
                         unique=True))
    return {k: draw(st.sampled_from(_boundaries(k))) for k in keys}


class TestPerformerWithoutTraining:
    """``split`` stratifies by dataset tag only, so a valid manifest can
    hold a performer whose one recording is held out. A subcommand that
    scores that performer exits 1 naming it, before it writes anything."""
    CORPUS = synthetic.SyntheticConfig(n_performers=3, n_recordings=10,
                                       seed=5)

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("lonely")
        manifest = synthetic.write_corpus(root / "corpus", self.CORPUS)
        _, _, tag, path = Path(manifest).read_text().splitlines()[1].split(",")
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write(f"lonely,performer_99,{tag},{path}\n")
        cfg = root / "cfg.json"
        cfg.write_text('{"min_df": 2, "search_iterations": 2, '
                       '"n_importance": 2}')
        return manifest, cfg

    # each seed puts the recording in the split the subcommand scores
    @pytest.mark.parametrize("command, seed, split", [
        ("evaluate", 20, "test"), ("importance", 20, "test"),
        ("search", 78, "validation")])
    def test_exits_1_naming_the_performer(self, inputs, tmp_path, capsys,
                                          command, seed, split):
        manifest, cfg = inputs
        out = tmp_path / "run"
        argv = ["--manifest", str(manifest), "--out", str(out),
                "--seed", str(seed), "--config", str(cfg)]
        for step in ("split", "extract", "train"):
            assert cli.main([step, *argv]) == EXIT_OK
        assert corpus.read_splits(out / "splits.csv")["lonely"] == split
        before = {p: p.read_bytes() for p in out.iterdir()}
        capsys.readouterr()
        assert cli.main([command, *argv]) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            "stylus: performer 'performer_99' has no training recording"]
        assert {p: p.read_bytes() for p in out.iterdir()} == before


class TestConfigKeys:
    """RunConfig's allowed values decide every --config key when it is
    loaded."""

    def test_kinds_and_allowed_values(self):
        """Each key's kind (its default's type) and allowed values."""
        assert {f.name: (type(f.default).__name__, f.metadata["allowed"])
                for f in dataclasses.fields(RunConfig)} == {
            "grid": ("float", (0.001, 86400.0)),
            "n_values": ("tuple", (1, 10)),
            "min_df": ("int", (1, math.inf)),
            "max_df": ("int", (1, math.inf)),
            "C": ("float", (0.001, 1000.0)),
            "class_weight": ("str", ("none", "balanced")),
            "top_k": ("int", (1, math.inf)),
            "n_permutations": ("int", (1, sys.maxsize)),
            "n_importance": ("int", (1, sys.maxsize)),
            "n_concept_iterations": ("int", (1, sys.maxsize)),
            "bonferroni_m": ("int", (1, math.inf)),
            "search_iterations": ("int", (1, sys.maxsize)),
            "n_bootstrap": ("int", (2, sys.maxsize)),
            "hop": ("float", (15.0, 30.0)),
            "min_chord_notes": ("int", (1, 88)),
        }

    def test_readme_table_names_each_key_once(self):
        """README's --config table names every RunConfig field exactly
        once, and nothing else."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("| key | allowed values |\n", 1)[1]
        rows = table[:table.index("\n\n")].splitlines()[1:]
        named = [k for row in rows
                 for k in re.findall(r"`(\w+)`", row.split("|")[1])]
        assert sorted(named) == sorted(
            f.name for f in dataclasses.fields(RunConfig))

    def test_defaults_are_allowed(self):
        defaults = dataclasses.asdict(RunConfig())
        assert all(cli._refusal(k, list(v) if isinstance(v, tuple) else v)
                   is None for k, v in defaults.items())

    @settings(max_examples=300, deadline=None)
    @given(drawn=boundary_overrides())
    def test_boundary_values_allowed_exactly_when_inside(self, drawn,
                                                         tmp_path_factory):
        cfg = tmp_path_factory.getbasetemp() / "boundary_cfg.json"
        overrides = {k: v for k, (v, _) in drawn.items()}
        cfg.write_text(json.dumps(overrides))
        args = argparse.Namespace(config=str(cfg))
        merged = {**dataclasses.asdict(RunConfig()), **overrides}
        if (all(ok for _, ok in drawn.values())
                and merged["max_df"] >= merged["min_df"]):
            config = cli._load_config(args)
            assert all(getattr(config, k) == (tuple(v) if isinstance(v, list)
                                              else v)
                       for k, v in overrides.items())
        else:
            with pytest.raises(corpus.ValidationError) as refused:
                cli._load_config(args)
            assert any(str(refused.value).startswith(f"config key {k!r} ")
                       for k in overrides)

    @pytest.mark.parametrize("command, text, message", [
        pytest.param("train", '{"C": NaN}',
                     "'C' must be in [0.001, 1000.0], got nan", id="C-NaN"),
        pytest.param("extract", '{"grid": Infinity}',
                     "'grid' must be in [0.001, 86400.0], got inf",
                     id="grid-Infinity"),
        pytest.param("concepts", '{"n_concept_iterations": 0}',
                     "'n_concept_iterations' must be in "
                     "[1, 9223372036854775807], got 0",
                     id="n_concept_iterations-0"),
        # too large for an array dimension
        pytest.param("concepts", '{"n_concept_iterations": %d}' % 10 ** 19,
                     "'n_concept_iterations' must be in "
                     "[1, 9223372036854775807], got 10000000000000000000",
                     id="n_concept_iterations-1e19"),
        pytest.param("concepts", '{"bonferroni_m": 0}',
                     "'bonferroni_m' must be >= 1, got 0",
                     id="bonferroni_m-0"),
        pytest.param("rolls", '{"min_chord_notes": -3}',
                     "'min_chord_notes' must be in [1, 88], got -3",
                     id="min_chord_notes-minus-3"),
        pytest.param("concepts", '{"hop": 3}',
                     "'hop' must be in [15.0, 30.0], got 3", id="hop-3"),
    ])
    def test_refused_before_inputs_are_read(self, workspace, tmp_path,
                                            capsys, monkeypatch, command,
                                            text, message):
        _, manifest, out = workspace
        run = tmp_path / "run"
        run.mkdir()
        for name in ("splits.csv", "features.csv", "vocabulary.csv"):
            shutil.copy(out / name, run / name)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        argv = [command, "--manifest", manifest, "--out", str(run),
                "--seed", "0", "--config", str(cfg)]
        if command == "concepts":
            exercises = tmp_path / "ex.jsonl"
            exercises.write_text("".join(json.dumps(
                {"concept_id": i, "chords": [[48 + i, 52 + i, 55 + i]]})
                + "\n" for i in range(3)))
            argv += ["--exercises", str(exercises)]

        def unread(*args, **kwargs):
            raise AssertionError("an input was read before the config")
        monkeypatch.setattr(corpus, "read_manifest", unread)
        before = sorted(run.iterdir())
        assert cli.main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.splitlines() == [
            f"stylus: config key {message}"]
        assert sorted(run.iterdir()) == before

    def test_concepts_embeds_the_clips_rolls_writes(self, tmp_path,
                                                    monkeypatch):
        manifest = synthetic.write_corpus(
            tmp_path / "corpus", synthetic.SyntheticConfig(
                n_performers=2, n_recordings=2, events_per_recording=10,
                seed=1))
        rows = corpus.read_manifest(manifest)
        run = tmp_path / "run"
        run.mkdir()
        corpus.write_splits(run / "splits.csv",
                            {e.recording_id: "test" for e in rows})
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"hop": 15, "n_concept_iterations": 1, '
                       '"bonferroni_m": 3}')
        exercises = tmp_path / "ex.jsonl"
        exercises.write_text("".join(json.dumps(
            {"concept_id": i, "chords": [[48 + i, 52 + i, 55 + i, 59 + i]]})
            + "\n" for i in range(3)))
        common = ["--manifest", str(manifest), "--out", str(run),
                  "--seed", "0", "--config", str(cfg)]
        assert cli.main(["rolls"] + common) == EXIT_OK
        embedded = {}
        experiment = concepts.sign_count_experiment

        def keep_clip_rolls(clip_rolls, *args):
            embedded.update({p: list(r) for p, r in clip_rolls.items()})
            return experiment(embedded, *args)

        monkeypatch.setattr(concepts, "sign_count_experiment",
                            keep_clip_rolls)
        assert cli.main(["concepts", "--exercises", str(exercises)]
                        + common) == EXIT_OK
        index = json.loads((run / "rolls.json").read_text())
        assert "p00r000_15" in index        # a clip only hop 15 starts
        performer = {e.recording_id: e.performer for e in rows}
        written = {}
        for key, paths in index.items():
            written.setdefault(performer[key.rsplit("_", 1)[0]], []).append(
                corpus.read_roll(paths["unified"]))
        assert embedded.keys() == written.keys()
        for p, rolls in written.items():
            assert len(embedded[p]) == len(rolls)
            assert all(np.array_equal(corpus.paint(a), b)
                       for a, b in zip(embedded[p], rolls))


class TestRunContext:
    """Every subcommand loads its inputs through ``cli.Run``: the manifest
    is read once, the feature dump once in each subcommand that needs it,
    and run.json adds exactly the records its subcommand makes."""
    CORPUS = synthetic.SyntheticConfig(n_performers=3, n_recordings=4,
                                       events_per_recording=20, seed=2)
    CONFIG = {"min_df": 1, "search_iterations": 2, "n_bootstrap": 2,
              "n_permutations": 1, "n_importance": 1,
              "n_concept_iterations": 2, "bonferroni_m": 3}
    FEATURE_COMMANDS = {"train", "search", "evaluate", "importance",
                        "correlate", "pca", "report"}
    BASE_KEYS = {"command", "seed", "config", "manifest", "manifest_sha256",
                 "version", "wall_time_seconds"}
    EXTRA_KEYS = {**{c: set() for c in FEATURE_COMMANDS},
                  **{c: {"notes"} for c in ("ingest", "extract", "rolls",
                                            "augment", "concepts")},
                  "search": {"val_top1", "fits_not_converged"},
                  "split": set(), "gen-synthetic": {"synthetic"}}

    @pytest.fixture(scope="class")
    def calls(self, tmp_path_factory):
        """Per subcommand, run in pipeline order: (manifest reads, feature
        loads, run.json keys)."""
        root = tmp_path_factory.mktemp("run-context")
        manifest = str(synthetic.write_corpus(root / "corpus", self.CORPUS))
        cfg, exercises = root / "cfg.json", root / "ex.jsonl"
        out = root / "run"
        cfg.write_text(json.dumps(self.CONFIG))
        exercises.write_text("".join(json.dumps(
            {"concept_id": i, "chords": [[48 + i, 52 + i, 55 + i, 59 + i],
                                         [50 + i, 53 + i, 57 + i, 60 + i]]})
            + "\n" for i in range(3)))
        counts, seen = {}, {}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(corpus, "read_manifest",
                       counted("manifest", corpus.read_manifest))
            mp.setattr(cli, "_load_features",
                       counted("features", cli._load_features))
            for command in ("gen-synthetic", "ingest", "split", "extract",
                            "train", "search", "evaluate", "importance",
                            "correlate", "pca", "rolls", "augment",
                            "concepts", "report"):
                counts.update(manifest=0, features=0)
                run_dir = root / "synthetic" if command == "gen-synthetic" \
                    else out
                argv = [command, "--out", str(run_dir)]
                if command != "gen-synthetic":
                    argv += ["--manifest", manifest, "--seed", "0",
                             "--config", str(cfg)]
                if command == "concepts":
                    argv += ["--exercises", str(exercises)]
                assert cli.main(argv) == EXIT_OK, command
                keys = set(json.loads((run_dir / "run.json").read_text()))
                seen[command] = (counts["manifest"], counts["features"], keys)
        return seen

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_manifest_read_once(self, calls, command):
        assert calls[command][0] == (command != "gen-synthetic")

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_features_loaded_once_where_needed(self, calls, command):
        assert calls[command][1] == (command in self.FEATURE_COMMANDS)

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_run_json_adds_only_its_records(self, calls, command):
        assert calls[command][2] == self.BASE_KEYS | self.EXTRA_KEYS[command]

    def test_manifest_hash_is_of_the_bytes_parsed(self, tmp_path,
                                                  monkeypatch):
        manifest = synthetic.write_corpus(tmp_path / "corpus", self.CORPUS)
        original = Path(manifest).read_bytes()
        read = corpus.read_manifest

        def read_then_edit(*args, **kwargs):
            entries = read(*args, **kwargs)
            # a row added once the manifest is parsed
            with open(manifest, "a") as fh:
                fh.write(f"late,performer_00,solo,{entries[0].path}\n")
            return entries
        monkeypatch.setattr(corpus, "read_manifest", read_then_edit)
        out = tmp_path / "run"
        assert cli.main(["split", "--manifest", str(manifest),
                         "--out", str(out)]) == EXIT_OK
        assert Path(manifest).read_bytes() != original
        payload = json.loads((out / "run.json").read_text())
        assert payload["manifest_sha256"] == \
            hashlib.sha256(original).hexdigest()
        assert "late" not in corpus.read_splits(out / "splits.csv")


class TestLogging:
    def test_env_level_parsed(self, monkeypatch):
        import logging
        monkeypatch.setenv("STYLUS_LOG", "debug")
        # fresh handler setup is global; just confirm no crash and level map
        cli._setup_logging()
        assert os.environ["STYLUS_LOG"] == "debug"

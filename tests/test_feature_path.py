"""The feature path, pinned end to end.

Pins the SHA-256 of what ``ingest``, ``split``, ``extract`` and ``train``
write for a small fixed-seed synthetic corpus, so a change to parsing,
extraction, the feature dump or the solver that moves a byte shows here.
The pins hold when extract takes the whole corpus as one batch, at the
default bound, and when it closes a batch every 7 notes, after each
recording; when extract reads the note store ``ingest`` wrote, and
and when it runs before ``ingest`` and decodes every note file.
"""

import hashlib
import json

import pytest

from stylus import cli, features, synthetic
from stylus.cli import EXIT_OK

CORPUS = synthetic.SyntheticConfig(n_performers=4, n_recordings=6,
                                   events_per_recording=20, seed=5)

# min_df 3 keeps a vocabulary of 148 features on this corpus
OUTPUT_SHA256 = {
    "ingest.csv":
        "88737c506a4042cb6d176ebbf5056201d805510c23d695003e3dcfc48c427d86",
    "splits.csv":
        "f8919c1cd57dadaf18e4309886d9b785b40e67dc8e3195e848b8d8fc2019bb68",
    "features.csv":
        "864292f81a7b3ceb0764c6b417a488d1840aca2573f1c65571a7bf03f9240b52",
    "vocabulary.csv":
        "9f0ed55fe663e07ebba8dd43c3e7ef2403ae09205cd91eaf5cb17b6b331d72b8",
    "model.json":
        "a3dd722c38149c0af8fb659f0f40bd4c869a7504c05d08ed8de7893ab7465a0f",
}


def _run(tmp_path_factory,
         commands=("ingest", "split", "extract", "train")):
    """A run of ``commands`` over the pinned corpus; extract's run.json
    says where its notes came from."""
    root = tmp_path_factory.mktemp("feature_path")
    manifest = synthetic.write_corpus(root / "corpus", CORPUS)
    cfg = root / "cfg.json"
    cfg.write_text('{"min_df": 3}')
    out = root / "run"
    for command in commands:
        assert cli.main([command, "--manifest", str(manifest),
                         "--out", str(out), "--seed", "0",
                         "--config", str(cfg)]) == EXIT_OK
        if command == "extract":
            notes = json.loads((out / "run.json").read_text())["notes"]
    n = CORPUS.n_performers * CORPUS.n_recordings
    assert notes == ({"from_store": n, "decoded": 0}
                     if commands.index("ingest") < commands.index("extract")
                     else {"from_store": 0, "decoded": n})
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return _run(tmp_path_factory)


@pytest.fixture(scope="module")
def decoded_run_dir(tmp_path_factory):
    """extract before ingest, so it finds no note store and decodes."""
    return _run(tmp_path_factory, ("split", "extract", "train", "ingest"))


@pytest.fixture(scope="module")
def small_batch_run_dir(tmp_path_factory):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(features, "EXTRACT_BATCH_NOTES", 7)
        return _run(tmp_path_factory)


@pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
def test_output_pinned(run_dir, name):
    data = (run_dir / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == OUTPUT_SHA256[name]


@pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
def test_output_pinned_in_small_batches(small_batch_run_dir, name):
    data = (small_batch_run_dir / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == OUTPUT_SHA256[name]


@pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
def test_output_pinned_when_extract_decodes(decoded_run_dir, name):
    data = (decoded_run_dir / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == OUTPUT_SHA256[name]

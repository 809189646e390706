"""The analysis path, pinned end to end.

Runs every analysis subcommand (``search``, ``evaluate``, ``importance``,
``correlate``, ``pca``, ``report``) over the fixed-seed corpus of
``test_feature_path`` with small counts, and pins the SHA-256 of what each
writes, so a change to a table writer, the solver or an interpretation
method that moves a byte shows here.
"""

import hashlib
import json

import pytest

from stylus import cli, synthetic
from stylus.cli import EXIT_OK

CORPUS = synthetic.SyntheticConfig(n_performers=4, n_recordings=6,
                                   events_per_recording=20, seed=5)

CONFIG = {"min_df": 3, "top_k": 20, "n_importance": 4, "n_permutations": 4,
          "search_iterations": 4, "n_bootstrap": 4}

OUTPUT_SHA256 = {
    "best_config.json":
        "e954bcb67f791fb3a5f83b9e26f05388530f2ae478944d0b1051ddbb1ba707c5",
    "correlations.csv":
        "cd88624e53beeccb0c844f1baa721f183bb5a0683d9ffb4c3af1160a8b3aeb7a",
    "evaluation.json":
        "6067eef4de80ec529da6a17874eddd7b64256c1a80c5fccc8c8e53ecfa3f55ef",
    "importance.csv":
        "4849cc6615237bb8c867784251f68051e6a74592512d193f33827cd5a7a2e98f",
    "pca_components.csv":
        "44b8f9a29fc1fed09d8c59fcd0f432a6322c97b95b7650650e0b56583b928408",
    "pca_projection.csv":
        "322fc9a1e97d25d0cd8437019aa915742e93156a76720b9b2bf5d6e9b4fec6cc",
    "trials.csv":
        "ab4ae17fb8ef26237a75b83cabdfc10c74ce84986d37153575bfe9c1b6f1e2a3",
    "weights_topbottom.csv":
        "a3cbdd256b5381dc4b05f22e92f1022d66e13a3aa6e8df715a17c86f3630bfa1",
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """Every analysis subcommand run over the pinned corpus."""
    root = tmp_path_factory.mktemp("analysis_path")
    manifest = synthetic.write_corpus(root / "corpus", CORPUS)
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps(CONFIG))
    out = root / "run"
    for command in ("split", "extract", "train", "search", "evaluate",
                    "importance", "correlate", "pca", "report"):
        assert cli.main([command, "--manifest", str(manifest),
                         "--out", str(out), "--seed", "0",
                         "--config", str(cfg)]) == EXIT_OK
    return out


@pytest.mark.parametrize("name", sorted(OUTPUT_SHA256))
def test_output_pinned(run_dir, name):
    data = (run_dir / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == OUTPUT_SHA256[name]

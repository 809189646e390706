import hashlib
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from stylus import corpus, features, synthetic
from stylus.synthetic import SyntheticConfig


SMALL = SyntheticConfig(n_performers=3, n_recordings=6,
                        events_per_recording=30, seed=0)
SIGNATURE_1_3 = SyntheticConfig(n_performers=2, n_recordings=4,
                                events_per_recording=30,
                                signature_rate=1.3, seed=7)

# SHA-256 of every file write_corpus writes, as the per-note NoteEvent and
# json.dumps writer wrote them; manifest paths are relative to the output.
SMALL_SHA256 = {
    "manifest.csv":
        "cddaf34706918f549d02d400dc7e6914b44ec068b81ab7c8aa9c0b8b7dc83cfb",
    "notes/p00r000.jsonl":
        "2c96bc4d32a7ebfafd1bb8b0238c1d6f774f4a6ed8cbbfbfc5e7acc44b8e69eb",
    "notes/p00r001.jsonl":
        "d819c8c8e2ad1b022b0e2f944fad1409d436cb8f8d527a6678e3d64670331ffa",
    "notes/p00r002.jsonl":
        "b3eda386617004b5ae8a7eaf76a8c283163e5b1d77a226aeffda17bf7f454733",
    "notes/p00r003.jsonl":
        "5d6fe33e0d365a674a8c7463c52536df3eeeea4f18a193d0b1f7c8ec42d3b9a6",
    "notes/p00r004.jsonl":
        "edb946c79bdf9a0b4aedbcfe6a6f2a4747753444def5c9772779325efe27df9a",
    "notes/p00r005.jsonl":
        "6424c6d7246f863a0ea2c06786f7efc05712b4de9443d4d65a0d337b2159e66e",
    "notes/p01r000.jsonl":
        "a2fdd0019500485bc503107c50dafebae70857716bfa6da4c358e8e2dc9571fa",
    "notes/p01r001.jsonl":
        "b168fd2266d2b2509225188b23dfc41c40aa8a6324a05522038bc8da24dd9f40",
    "notes/p01r002.jsonl":
        "d28e963424dce86d9cc4e0b2933accc6ed1879571d188ca2443db0f125d9e7c0",
    "notes/p01r003.jsonl":
        "9fbb3dc836326ff08dac0ba5aa74e81a61fdc4c486a0fc2061ab67b1a11adb29",
    "notes/p01r004.jsonl":
        "6eb8a7fa1ebaadb6d08d2c3fbeaab1b15d343e09d0a6826ba340bc357e4cf907",
    "notes/p01r005.jsonl":
        "85850883e29afb3e4c41662720534ef8cd07be46d770f2de64f0379c2dd12128",
    "notes/p02r000.jsonl":
        "f206d58e63995e5a7845e5b07e939682b6b92168c8f6ebf130a7ee6d03794d6c",
    "notes/p02r001.jsonl":
        "583cf98f9ecd3c2a288661ae220fddfafa86db9ccde2abed5a7e4dd64d6ac1b3",
    "notes/p02r002.jsonl":
        "5f0b93b49ae2b227b42c0adbe105349b8b89035db377410044cfb1e9f1bbd7cc",
    "notes/p02r003.jsonl":
        "122f223a243de272c6966f2c0f94a20c063b2f91060f343cda883321a22b1651",
    "notes/p02r004.jsonl":
        "1831f806abdb55d3521df2a90d2ca300a7611930f7b36c8ac0e3fbf126b3e7e2",
    "notes/p02r005.jsonl":
        "f399c332ed81f0a8c35f8a4763621f98bf258a40fc181cdf05e13f08f11d9f48",
}
SIGNATURE_1_3_SHA256 = {
    "manifest.csv":
        "b60562aca0bbf224bd1ee57baf868cfffb52f5adaaa66f9f4f5ce5a7db9af1bd",
    "notes/p00r000.jsonl":
        "54f0ac97d49239b47f3fecccd53dc9984a839a10d17b5b9ad8eb994805240d67",
    "notes/p00r001.jsonl":
        "9b9717ef8aa54e96f529488d63ae580cc4048e967a97296fae57d9bf3d7b4304",
    "notes/p00r002.jsonl":
        "4dee82af6b0cc8067cce7bc1a13bebdbd83d303cbefcdbf5f8fc59ce7073fc93",
    "notes/p00r003.jsonl":
        "e7dc08c95982e30b5a601ab64c80a5fc7b38d2c991a3795469230f3897cc6c3b",
    "notes/p01r000.jsonl":
        "b048653b8a0c67376130c1e410d59f79e89e6f2d6e2414f8f7d284b3909a5820",
    "notes/p01r001.jsonl":
        "387468d0bea70d92fb8bf9e5388761612169de0e6b168439ff8b3148c7756f29",
    "notes/p01r002.jsonl":
        "a5cb306b3b0d83132540c2fc0d6e0c44a3869256e6de886c9a24af53613beb69",
    "notes/p01r003.jsonl":
        "5aee0d596e2cc8f6a28d62741e284bc3a710cdaa4a2ecbd5b0811698eae8e97a",
}


class TestPools:
    def test_all_features_distinct(self):
        base_ngrams, base_voicings, signatures = synthetic.build_pools(SMALL)
        everything = list(base_ngrams) + list(base_voicings)
        for sn, sv in signatures.values():
            everything += list(sn) + list(sv)
        assert len(everything) == len(set(everything))

    def test_pool_sizes(self):
        base_ngrams, base_voicings, signatures = synthetic.build_pools(SMALL)
        assert len(base_ngrams) == SMALL.n_base_ngrams
        assert len(base_voicings) == SMALL.n_base_voicings
        assert len(signatures) == SMALL.n_performers
        assert all(len(sn) == SMALL.n_signature_ngrams
                   and len(sv) == SMALL.n_signature_voicings
                   for sn, sv in signatures.values())

    def test_ngram_constraints(self):
        base_ngrams, base_voicings, _ = synthetic.build_pools(SMALL)
        for g in base_ngrams:
            assert g[0] == 0 and 3 <= len(g) <= 5
            assert max(g) - min(g) <= 12
        for v in base_voicings:
            assert v[0] == 0 and list(v) == sorted(v)
            gaps = [b - a for a, b in zip(v, v[1:])]
            assert sum(g > 15 for g in gaps) < 2


class TestRecordings:
    def test_deterministic(self):
        a = synthetic.generate_recording(0, 0, synthetic.build_pools(SMALL),
                                         SMALL)
        b = synthetic.generate_recording(0, 0, synthetic.build_pools(SMALL),
                                         SMALL)
        assert a.notes == b.notes

    def test_tags_split_half(self):
        recs = synthetic.generate_corpus(SMALL)
        tags = Counter((t.performer, t.dataset_tag) for t in recs)
        for p in range(SMALL.n_performers):
            name = f"performer_{p:02d}"
            assert tags[(name, "solo")] == 3
            assert tags[(name, "trio")] == 3

    def test_signatures_enriched_over_base(self):
        config = SyntheticConfig(n_performers=2, n_recordings=10,
                                 events_per_recording=40, seed=1)
        pools = synthetic.build_pools(config)
        _, _, signatures = pools
        counts: Counter = Counter()
        for i in range(config.n_recordings):
            t = synthetic.generate_recording(0, i, pools, config)
            for key, c in features.extract_recording(t).items():
                counts[key] += c
        sig = signatures[0][0]
        base = pools[0]
        sig_rate = sum(counts[("melody", g)] for g in sig) / len(sig)
        base_rate = sum(counts[("melody", g)] for g in base) / len(base)
        assert sig_rate > 1.5 * base_rate

    def test_events_do_not_chain_into_ngrams(self):
        # silence between events exceeds the melodic gap filter, so every
        # extracted n-gram is a contiguous slice of one planted pattern
        config = SyntheticConfig(n_performers=1, n_recordings=1, seed=2)
        pools = synthetic.build_pools(config)
        t = synthetic.generate_recording(0, 0, pools, config)
        patterns = list(pools[0]) + list(pools[2][0][0])

        def slices(pattern):
            for size in range(3, len(pattern) + 1):
                for i in range(len(pattern) - size + 1):
                    window = pattern[i:i + size]
                    yield tuple(p - window[0] for p in window)

        allowed = {s for p in patterns for s in slices(p)}
        extracted = features.extract_ngrams(
            features.skyline(features.quantise(t)))
        assert set(extracted) <= allowed


class TestWriteCorpus:
    def test_round_trip_through_manifest(self, tmp_path):
        manifest_path = synthetic.write_corpus(tmp_path, SMALL)
        entries = corpus.read_manifest(manifest_path)
        assert len(entries) == SMALL.n_performers * SMALL.n_recordings
        t = corpus.parse_note_events(entries[0].path,
                                     entries[0].recording_id,
                                     entries[0].performer,
                                     entries[0].dataset_tag)
        assert len(t.notes) > 0

    def test_write_deterministic(self, tmp_path):
        p1 = synthetic.write_corpus(tmp_path / "a", SMALL)
        p2 = synthetic.write_corpus(tmp_path / "b", SMALL)
        e1 = corpus.read_manifest(p1)
        e2 = corpus.read_manifest(p2)
        for a, b in zip(e1, e2):
            assert Path(a.path).read_text() == Path(b.path).read_text()

    def test_at_most_two_batches_alive(self, tmp_path, monkeypatch):
        generated, alive = [], []   # weak references; live count per call
        generate = synthetic.generate_recording

        def tracked_generate(*args, **kwargs):
            alive.append(sum(r() is not None for r in generated))
            t = generate(*args, **kwargs)
            generated.append(weakref.ref(t))
            return t

        monkeypatch.setattr(synthetic, "generate_recording", tracked_generate)
        monkeypatch.setattr(synthetic, "WRITE_BATCH", 4)
        synthetic.write_corpus(tmp_path, SMALL)
        # the batch being written and the one being generated
        assert len(alive) == 18 and max(alive) < 2 * 4

    def test_files_pinned_per_seed(self, tmp_path):
        for config, want in ((SMALL, SMALL_SHA256),
                             (SIGNATURE_1_3, SIGNATURE_1_3_SHA256)):
            out = tmp_path / str(config.seed)
            manifest = synthetic.write_corpus(out, config)
            got = {}
            for path in sorted(out.rglob("*.*")):
                data = path.read_bytes()
                if path == manifest:
                    data = data.replace(f"{out}/".encode(), b"")
                got[path.relative_to(out).as_posix()] = \
                    hashlib.sha256(data).hexdigest()
            assert got == want


@settings(max_examples=200, deadline=None)
@given(weights=st.lists(st.sampled_from([0.0, 1.0, 1.3, 3.0])
                        | st.floats(0.0, 10.0), min_size=1, max_size=30),
       u=st.floats(0.0, 1.0, exclude_max=True))
@example(weights=[0.1] * 10, u=1 - 2 ** -53)
@example(weights=[0.0, 0.0], u=0.0)
def test_weighted_choice_matches_linear_scan(weights, u):
    def reference():
        r = u * sum(weights)
        acc = 0.0
        for i, w in enumerate(weights):
            acc += w
            if r < acc:
                return i
        return len(weights) - 1

    items = list(range(len(weights)))
    rng = SimpleNamespace(random=lambda: u)
    table = synthetic._weighted_table(items, weights)
    assert synthetic._weighted_choice(rng, table) == reference()

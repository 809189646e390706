"""Tests of the benchmark's own code: span arithmetic, patching and undoing
it, failure accounting, and agreement with BENCHMARK.json.

Run with: python3 -m pytest perfbench
"""

import json
import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, covered_length, self_times, summarise  # noqa: E402


class FakeClock:
    """Advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_covered_length_merges_overlaps():
    assert covered_length([]) == 0.0
    assert covered_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert covered_length([(0, 10), (2, 3)]) == 10.0


def test_self_time_of_nested_spans():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap(lambda: None, "leaf")

    def middle():
        leaf()
        leaf()
    middle = tracer.wrap(middle, "middle")
    tracer.call("root", lambda: middle())
    # readings: root 1, middle 2, leaf 3-4, leaf 5-6, middle 7, root 8
    s = summarise(tracer.spans)
    assert s["leaf"].calls == 2 and s["leaf"].busy_s == 2.0
    assert s["leaf"].self_s == 2.0
    assert s["middle"].busy_s == 5.0 and s["middle"].self_s == 3.0
    assert s["root"].busy_s == 7.0 and s["root"].self_s == 2.0


def test_self_time_subtracts_union_of_overlapping_thread_children():
    spans = [(0, "parent", None, 0.0, 10.0),
             (1, "child", 0, 1.0, 6.0),     # two threads, overlapping
             (2, "child", 0, 4.0, 8.0),
             (3, "child", 0, 9.0, 12.0)]    # clipped at the parent's end
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (7.0 + 1.0))
    s = summarise(spans)
    assert s["child"].busy_s == pytest.approx(12.0)   # summed over threads


def test_pool_spans_attach_to_submitting_span():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def work(_):
        barrier.wait()
        return threading.get_ident()
    work = tracer.wrap(work, "work")

    def submit():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(work, range(2)))
    idents = tracer.call("cmd", submit)
    assert len(set(idents)) == 2
    by_name = {}
    for sid, name, parent, _, _ in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent))
    (cmd_id, cmd_parent), = by_name["cmd"]
    assert cmd_parent is None
    assert [p for _, p in by_name["work"]] == [cmd_id, cmd_id]
    s = tracer.summary()
    assert s["cmd"].self_s <= s["cmd"].busy_s
    assert s["cmd"].self_s >= 0.0


def _fake_package(name):
    def f(x):
        return x + 1
    pkg = types.ModuleType(name)
    a = types.ModuleType(f"{name}.a")
    a.f = f
    b = types.ModuleType(f"{name}.b")
    b.f = f                         # as bound by ``from .a import f``
    b.table = {"inc": f, "other": len}
    other = types.ModuleType(f"not{name}")
    other.f = f
    return f, {m.__name__: m for m in (pkg, a, b, other)}


def test_patch_replaces_every_alias_and_restore_undoes_it(monkeypatch):
    f, modules = _fake_package("fakepkg")
    for mod_name, module in modules.items():
        monkeypatch.setitem(sys.modules, mod_name, module)
    a, b = modules["fakepkg.a"], modules["fakepkg.b"]
    tracer = Tracer()
    assert tracer.trace(a, "f", "fake.f", package="fakepkg") == 3
    assert a.f is not f and b.f is a.f and b.table["inc"] is a.f
    assert modules["notfakepkg"].f is f
    assert b.f(1) == 2 and b.table["inc"](2) == 3
    assert tracer.summary()["fake.f"].calls == 2
    tracer.restore()
    assert a.f is f and b.f is f and b.table["inc"] is f
    assert b.table["other"] is len


def _stylus_bindings():
    import stylus.cli  # noqa: F401
    return {(mod_name, key): value
            for mod_name, module in list(sys.modules.items())
            if mod_name == "stylus" or mod_name.startswith("stylus.")
            for key, value in list(vars(module).items())
            if callable(value)} | {
        ("stylus.cli.HANDLERS", k): v
        for k, v in sys.modules["stylus.cli"].HANDLERS.items()}


def test_install_traces_aliases_and_restores_stylus():
    from stylus import classifier, concepts, interpret
    before = _stylus_bindings()
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert interpret.fit is classifier.fit is not before[
            ("stylus.classifier", "fit")]
        assert concepts.harmony_roll is not before[
            ("stylus.concepts", "harmony_roll")]
        import numpy as np
        X = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, 2.0], [2.0, 0.0]])
        interpret.fit(X, ["a", "b", "a", "b"])
        concepts.default_embedder()(np.zeros((88, 3000)))
    finally:
        tracer.restore()
    assert _stylus_bindings() == before
    metrics = layers.layer_metrics(tracer.summary(), tracer.counters)
    assert metrics["classifier.fits"] == 1
    assert metrics["concepts.embeds"] == 1


def test_failed_check_is_counted_not_raised(capsys):
    def bad_check(value):
        workloads.require(value == 0, f"exit code {value}")

    failed = workloads.run_operation("train", lambda: 1, bad_check)
    assert not failed["ok"] and "exit code 1" in failed["error"]
    crashed = workloads.run_operation(
        "extract", lambda: 1 / 0, lambda value: None)
    assert not crashed["ok"] and "ZeroDivisionError" in crashed["error"]
    passed = workloads.run_operation("split", lambda: 0, bad_check)
    assert passed["ok"]
    tally = run.Tally()
    for op in (failed, crashed, passed):
        tally.record(op["name"], op["ok"], op["error"])
    tally.check("consistency", lambda: workloads.require(False, "differs"))
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.failed_frac == 0.75
    assert "consistency failed: differs" in capsys.readouterr().err


def test_benchmark_json_matches_the_metrics_the_code_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["paths"] == [HERE.name]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.per_layer_units())


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_exercises_meet_pool_rule_and_count_matches_program(seed):
    from stylus import concepts
    exercises = workloads.make_exercises(seed)
    workloads.check_pool_rule(exercises)
    for e in exercises:
        program = concepts.exercise_variants(concepts.ConceptExercise(
            e["concept_id"], tuple(tuple(c) for c in e["chords"])))
        assert workloads.variant_count(e["chords"]) == len(program)
    assert workloads.variant_count([[21, 25, 28]]) < 39


def test_pool_rule_rejects_a_dominant_concept():
    exercises = [{"concept_id": 0, "chords": [[60, 64, 67]]},
                 {"concept_id": 1, "chords": [[60, 64, 67]]}]
    with pytest.raises(workloads.CheckFailed):
        workloads.check_pool_rule(exercises)


def test_clip_starts_match_segmentation():
    from stylus import corpus
    for duration in (10.0, 30.0, 30.5, 60.0, 157.2):
        t = corpus.Transcription("r", "p", "solo", (
            corpus.NoteEvent(onset=duration - 0.5, pitch=60,
                             offset=duration, velocity=64),))
        assert workloads.clip_starts(duration) == [
            c.start for c in corpus.segment_clips(t)]

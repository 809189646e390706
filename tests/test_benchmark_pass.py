"""One render pass of the benchmark in process, untraced and then traced.

The benchmark refuses a run in which an operation fails, a traced pass
misses a closed-form count, or tracing changes what a pass writes. This
runs the render workload's operations the way ``perfbench/worker.py`` does
(about 3 s on 2 cores), so a change to the clip path that would break one
of those gates fails here.

Run with: python -m pytest tests/test_benchmark_pass.py
"""

import dataclasses
import json
import shutil
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from stylus import synthetic  # noqa: E402
from stylus.cli import RunConfig  # noqa: E402

SEED = 21001


def run_pass(ctx, tracer=None) -> list:
    """Every operation of one pass, as ``worker.run_pass`` runs them."""
    ctx.out.mkdir()
    if tracer:
        layers.install(tracer)
    try:
        return [workloads.run_operation(name, fn, check)
                for name, fn, check in workloads.operations(ctx)]
    finally:
        if tracer:
            tracer.restore()


def test_render_pass_traced_and_untraced(tmp_path):
    wl = workloads.WORKLOADS["render"]
    manifest = synthetic.write_corpus(
        tmp_path / "corpus", synthetic.SyntheticConfig(seed=SEED, **wl.corpus))
    exercises = tmp_path / "exercises.jsonl"
    exercises.write_text("".join(json.dumps(e) + "\n"
                                 for e in workloads.make_exercises(SEED)))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(wl.config))
    # both passes write to one directory, as the benchmark's do: rolls.json
    # holds absolute paths
    ctx = workloads.PassContext(
        workload=wl, seed=SEED, manifest=manifest, out=tmp_path / "out",
        config_path=config, exercises=exercises,
        config={**dataclasses.asdict(RunConfig()), **wl.config},
        recordings=workloads.describe_corpus(manifest))
    tracer, digests = Tracer(), []
    for t in (None, tracer):
        shutil.rmtree(ctx.out, ignore_errors=True)
        ops = run_pass(ctx, t)
        assert [op["name"] for op in ops] == list(wl.op_names)
        assert [op["error"] for op in ops if not op["ok"]] == []
        digests.append(worker.tree_digest(ctx.out))
    metrics = layers.layer_metrics(tracer.summary(), tracer.counters)
    expected = workloads.expected_counts(ctx)
    assert {k: metrics[k] for k in expected} == expected
    assert digests[0] == digests[1]

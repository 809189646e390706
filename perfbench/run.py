"""Benchmark of the stylus analysis pipeline.

Usage:
    python3 perfbench/run.py --workload {extract,resample,render} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout. The seed makes the synthetic corpus
(and, on render, the concept exercises); the CLI receives the same seed,
except ``search`` (see ``workloads.SEARCH_SEED``). Set-up runs in three
rounds of at least two seconds each and reports the median of the rounds'
mean set-up times. Then passes run while one more fits in ``--seconds`` (at
least one; a resample pass takes about 30 s on 2 cores, so with
``--seconds 30`` resample gets one pass per run): each pass is a fresh
process that calls ``stylus.cli.main`` for every subcommand of the workload
in turn, one client in a closed loop, and checks each operation's outputs.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` every pass is a pair, one untraced and one traced, and the
last line holds the per-layer metrics, the untraced subcommand times and
the tracing overhead. Earlier lines are a readable report: environment,
per-operation times, content hashes, every metric with its unit.

The program runs with its own defaults: no thread or format flags, and the
thread variables of the caller's environment left as they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

# On a shared 2-core VM the CPU speed switches between a fast and a slow
# state (1.7x apart) that each last several seconds, so the median of single
# set-ups taken in one short window reads one state or the other. Set-up therefore runs in
# rounds: each round repeats it for at least SETUP_ROUND_SECONDS and yields
# the mean time of one set-up, and the median over SETUP_ROUNDS rounds is
# reported. A render set-up takes about 0.06 s, so a round averages ~30.
SETUP_ROUNDS = 3
SETUP_ROUND_SECONDS = 2.0
RUN_BUDGET_S = 150.0          # every run must end within 180 s
RENDER_FREE_BYTES = 2 << 30   # a render pass writes ~0.6 GB before cleanup
MB = float(1 << 20)

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]
# untraced subcommand times, reported with the per-layer metrics because
# each exists on only some workloads
STAGES = [("ingest_s", "ingest"), ("extract_s", "extract"),
          ("importance_s", "importance"), ("correlate_s", "correlate"),
          ("report_s", "report"), ("search_s", "search"),
          ("concepts_s", "concepts"), ("sensitivity_s", "sensitivity")]
# bytes written is exact for a seed, but the seed's synthetic pattern mix
# moves it by a quarter on extract, more than any end-to-end bound allows
RUN_LEVEL = [("bytes_written_mb", "MB"), ("synthetic.write_s", "s"),
             ("trace.overhead_s", "s"), ("ops_failed_frac", "ratio")]
RATIOS = [("augment.applied", "augment.clips"),
          ("classifier.fits_not_converged", "classifier.fits"),
          ("corpus.paints", "concepts.sensitivity_maps")]


def per_layer_units() -> dict:
    units = {name: unit for name, unit, _ in layers.METRICS}
    units.update({name: "s" for name, _ in STAGES})
    units.update(dict(RUN_LEVEL))
    return units


class Tally:
    """Operations attempted and failed; a failure never aborts the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, name: str, ok: bool, error: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: {name} failed: {error}", file=sys.stderr)

    def check(self, name: str, fn) -> None:
        try:
            fn()
        except workloads.CheckFailed as exc:
            self.record(name, False, str(exc))
        else:
            self.record(name, True)

    @property
    def failed_frac(self) -> float:
        return self.failed / max(self.attempted, 1)


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas,
            "thread_env": {k: v for k, v in sorted(os.environ.items())
                           if k.endswith("_NUM_THREADS")}}


def set_up(wl, seed: int, work: Path, tally: Tally) -> dict:
    """Write corpus and exercises repeatedly, in rounds; keep the last."""
    from stylus import synthetic
    corpus_dir = work / "corpus"
    exercises_path = work / "exercises.jsonl"
    totals, writes = [], []
    for _ in range(SETUP_ROUNDS):
        n, total, write = 0, 0.0, 0.0
        while total < SETUP_ROUND_SECONDS:
            shutil.rmtree(corpus_dir, ignore_errors=True)
            start = time.perf_counter()
            manifest = synthetic.write_corpus(
                corpus_dir, synthetic.SyntheticConfig(seed=seed, **wl.corpus))
            written = time.perf_counter()
            exercises = workloads.make_exercises(seed) if wl.exercises else []
            with open(exercises_path, "w", encoding="utf-8") as fh:
                fh.writelines(json.dumps(e) + "\n" for e in exercises)
            n += 1
            total += time.perf_counter() - start
            write += written - start
        totals.append(total / n)
        writes.append(write / n)
    tally.check("setup", lambda: workloads.check_pool_rule(exercises)
                if wl.exercises else None)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(wl.config))
    from stylus.cli import RunConfig
    return {"manifest": str(manifest), "exercises": str(exercises_path),
            "config": str(config_path),
            "run_config": {**asdict(RunConfig()), **wl.config},
            "recordings": workloads.describe_corpus(manifest),
            "setup_s": statistics.median(totals),
            "write_s": statistics.median(writes)}


def run_pass(spec: dict, work: Path, deadline: float, tally: Tally):
    """One pass in a child process; None if it did not finish."""
    n = len(list(work.glob("spec-*.json")))
    spec_path = work / f"spec-{n}.json"
    spec = {**spec, "result": str(work / f"result-{n}.json")}
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
        ok = proc.returncode == 0 and Path(spec["result"]).is_file()
        error = proc.stderr[-2000:]
    except subprocess.TimeoutExpired:
        ok, error = False, "pass timed out"
    finally:
        shutil.rmtree(spec["out"], ignore_errors=True)
    if not ok:
        for name in workloads.WORKLOADS[spec["workload"]].op_names:
            tally.record(name, False, error)
        return None
    result = json.loads(Path(spec["result"]).read_text())
    for op in result["ops"]:
        tally.record(op["name"], op["ok"], op["error"])
    result["wall_s"] = sum(op["seconds"] for op in result["ops"])
    result["cpu_s"] = sum(op["cpu_seconds"] for op in result["ops"])
    return result


def consistency(results, traced, tally: Tally) -> None:
    """Passes agree on content; traced passes match the closed-form counts
    and each other, and write what the untraced pass of their pair wrote."""
    hashes = [r["info_hashes"] for r in results]
    tally.check("deterministic outputs", lambda: workloads.require(
        all(h == hashes[0] for h in hashes),
        "info hashes differ between passes"))
    if not traced:
        return
    for untraced_r, traced_r in traced:
        tally.check("tracing changes no output", lambda: workloads.require(
            untraced_r["digest"] == traced_r["digest"],
            "traced and untraced passes wrote different artifacts"))
        expected = traced_r["expected_counts"]
        tally.check("closed-form counts", lambda: workloads.require(
            all(traced_r["layers"].get(k) == v for k, v in expected.items()),
            "counts differ from closed forms: " + ", ".join(
                f"{k}={traced_r['layers'].get(k)} want {v}"
                for k, v in expected.items()
                if traced_r["layers"].get(k) != v)))
    exact = [k for k, u, _ in layers.METRICS if u in ("count", "bytes")]
    tally.check("counts repeat exactly", lambda: workloads.require(
        all(t["layers"][k] == traced[0][1]["layers"][k]
            for _, t in traced for k in exact),
        "exact counts differ between traced passes"))


def measure(args) -> tuple:
    wl = workloads.WORKLOADS[args.workload]
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    tally = Tally()
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        inputs = set_up(wl, args.seed, work, tally)
        spec = {"src": str(SRC), "workload": wl.name, "seed": args.seed,
                "out": str(work / "out"), "digest": bool(args.trace),
                **{k: inputs[k] for k in ("manifest", "exercises", "config",
                                          "run_config", "recordings")}}
        results, traced = [], []
        measure_end = time.monotonic() + args.seconds
        last = 0.0
        # another pass starts only if one like the last ends in time
        while not results or (
                time.monotonic() + last <= min(measure_end, deadline)):
            t0 = time.monotonic()
            plain = run_pass({**spec, "trace": False}, work, deadline, tally)
            pair = (run_pass({**spec, "trace": True}, work, deadline, tally)
                    if args.trace else None)
            last = time.monotonic() - t0
            if plain is None or (args.trace and pair is None):
                break
            results.append(plain)
            if args.trace:
                traced.append((plain, pair))
        if results:
            consistency(results + [t for _, t in traced], traced, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return wl, inputs, results, traced, tally


def report(args, wl, inputs, results, traced, tally) -> dict:
    print(f"perfbench workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"why: {wl.why}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for i, r in enumerate(results):
        print(f"pass {i}: " + " ".join(
            f"{op['name']}={op['seconds']:.3f}s" for op in r["ops"])
            + f" wall={r['wall_s']:.3f}s cpu={r['cpu_s']:.3f}s"
            f" rss={r['peak_rss_mb']:.1f}MB bytes={r['bytes_written']}")
    if results:
        for name, digest in sorted(results[0]["info_hashes"].items()):
            print(f"sha256 {name} {digest}")
    med = statistics.median
    values = {"setup_s": inputs["setup_s"]}
    if results:
        values.update({
            "wall_s": med(r["wall_s"] for r in results),
            "peak_rss_mb": med(r["peak_rss_mb"] for r in results),
            "bytes_written_mb": med(r["bytes_written"] for r in results) / MB})
    layer_units = per_layer_units()
    units = {**dict(END_TO_END), **layer_units}
    if traced:
        for name in layer_units:
            if name in traced[0][1]["layers"]:
                values[name] = med(t["layers"][name] for _, t in traced)
        for name, op_name in STAGES:
            values[name] = float(med(
                sum(op["seconds"] for op in r["ops"] if op["name"] == op_name)
                for r, _ in traced))
        values["synthetic.write_s"] = inputs["write_s"]
        values["trace.overhead_s"] = (med(t["wall_s"] for _, t in traced)
                                      - med(r["wall_s"] for r, _ in traced))
        for num, base in RATIOS:
            print(f"ratio {num}/{base} = {values[num]:.0f}/{values[base]:.0f}")
        print(f"classifier.fit_ms_p95 over n={values['classifier.fits']:.0f}"
              " fits")
    values["ops_failed_frac"] = tally.failed_frac
    for name, value in values.items():
        print(f"metric {name} {value!r} {units[name]}")
    print(f"ops attempted={tally.attempted} failed={tally.failed}")
    wanted = layer_units if args.trace else dict(END_TO_END)
    return {"correct": tally.failed == 0 and set(wanted) <= set(values),
            "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in wanted.items() if name in values}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "stylus" / "cli.py").is_file():
        print(f"perfbench: no stylus source tree at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "render":
        free = shutil.disk_usage(ROOT).free
        if free < RENDER_FREE_BYTES:
            print(f"perfbench: render needs {RENDER_FREE_BYTES} bytes free, "
                  f"{free} available", file=sys.stderr)
            return 3
    sys.path.insert(0, str(SRC))
    wl, inputs, results, traced, tally = measure(args)
    result = report(args, wl, inputs, results, traced, tally)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of a workload in a fresh process.

Usage: python3 worker.py SPEC.json

The spec names the source tree, the workload, its inputs and where to write
the result JSON. The pass runs every operation in order, with or without
tracing, and records op times, peak RSS, bytes written and hashes.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from pathlib import Path

INFO_FILES = ("features.csv", "vocabulary.csv", "splits.csv", "model.json")
# run.json records wall time, so it differs between identical runs
UNHASHED = {"run.json"}


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def tree_digest(root: Path) -> str:
    """SHA-256 over every file's relative path and content hash."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name in UNHASHED:
            continue
        digest.update(f"{path.relative_to(root)}\0{_sha256(path)}\n".encode())
    return digest.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def run_pass(spec: dict) -> dict:
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import layers
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[spec["workload"]]
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    ctx = workloads.PassContext(
        workload=wl, seed=spec["seed"], manifest=Path(spec["manifest"]),
        out=out, config_path=Path(spec["config"]),
        exercises=Path(spec["exercises"]), config=spec["run_config"],
        recordings=spec["recordings"])
    tracer = Tracer() if spec["trace"] else None
    if tracer:
        layers.install(tracer)
    try:
        ops = [workloads.run_operation(name, fn, check)
               for name, fn, check in workloads.operations(ctx)]
    finally:
        if tracer:
            tracer.restore()
    result = {
        "ops": ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "bytes_written": tree_bytes(out),
        "info_hashes": {name: _sha256(out / name) for name in INFO_FILES
                        if (out / name).is_file()},
        "digest": tree_digest(out) if spec["digest"] else "",
    }
    if tracer:
        result["layers"] = layers.layer_metrics(tracer.summary(),
                                                tracer.counters)
        try:
            result["expected_counts"] = workloads.expected_counts(ctx)
        except (workloads.CheckFailed, OSError) as exc:
            result["expected_counts"] = {"error": str(exc)}
    return result


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 64
    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    result = run_pass(spec)
    tmp = spec["result"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, spec["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

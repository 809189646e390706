"""Line census: the statements of ``src/stylus`` that its callers never run.

The callers are the acceptance suite (``tests/test_acceptance.py``), the
benchmark pass (``tests/test_benchmark_pass.py``) and every subcommand, run
in process on a small synthetic corpus written here. Each runs under
``sys.settrace``; the script then prints each statement of ``src/stylus``,
found with ``ast``, whose lines none of them executed, leaving out
``raise`` statements, docstrings and declarations that compile to no code.
A statement that only a worker process runs is not seen.

Run with: python3 tools/census.py   (about 30 s)
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import inspect
import io
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stylus"
TEST_FILES = ("tests/test_acceptance.py", "tests/test_benchmark_pass.py")
CONFIG = {"min_df": 2, "top_k": 20, "n_permutations": 5, "n_importance": 5,
          "n_bootstrap": 5, "search_iterations": 5,
          "n_concept_iterations": 3, "bonferroni_m": 4}
EXERCISES = [{"concept_id": i, "chords": [[48 + i, 52 + i, 55 + i, 59 + i],
                                          [50 + i, 53 + i, 57 + i, 60 + i]]}
             for i in range(4)]

hits: set = set()     # (file name, line number) executed


def _local(frame, event, arg):
    if event == "line":
        hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(str(SRC)):
        hits.add((frame.f_code.co_filename, frame.f_lineno))
        return _local
    return None


def run_tests(path: Path, tmp: Path) -> None:
    """Call each ``test_`` function of the file, a fresh directory for a
    ``tmp_path`` parameter, as pytest would."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, fn in vars(module).items():
        if name.startswith("test_") and callable(fn):
            kwargs = {}
            if "tmp_path" in inspect.signature(fn).parameters:
                kwargs["tmp_path"] = Path(tempfile.mkdtemp(dir=tmp))
            fn(**kwargs)


def run_subcommands(tmp: Path) -> dict:
    """Every subcommand on a small corpus; the exit code of each."""
    from stylus import cli, synthetic
    manifest = synthetic.write_corpus(
        tmp / "corpus", synthetic.SyntheticConfig(
            n_performers=3, n_recordings=10, events_per_recording=20, seed=1))
    config, exercises = tmp / "config.json", tmp / "exercises.jsonl"
    config.write_text(json.dumps(CONFIG))
    exercises.write_text("".join(json.dumps(e) + "\n" for e in EXERCISES))
    common = ["--manifest", str(manifest), "--out", str(tmp / "run"),
              "--seed", "1", "--config", str(config)]
    codes = {"gen-synthetic": cli.main(["gen-synthetic", "--out",
                                        str(tmp / "gen"), "--seed", "1"])}
    for name in ("ingest", "split", "extract", "train", "search", "evaluate",
                 "importance", "correlate", "pca", "rolls", "augment",
                 "concepts", "report"):
        extra = ["--exercises", str(exercises)] if name == "concepts" else []
        codes[name] = cli.main([name, *common, *extra])
    missing = set(cli.COMMANDS) - set(codes)
    if missing:
        raise SystemExit(f"census: subcommands not run: {sorted(missing)}")
    return codes


def _is_docstring(node, parent) -> bool:
    return (isinstance(node, ast.Expr) and parent.body[0] is node
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def statements(path: Path):
    """(qualified name of the enclosing def or class, first line, lines
    whose execution runs it) of each statement that compiles to code."""
    def walk(parent, scope, in_function):
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for node in getattr(parent, field, []):
                if not isinstance(node, ast.stmt):     # handler, case
                    yield from walk(node, scope, in_function)
                    continue
                skip = (isinstance(node, (ast.Raise, ast.Global,
                                          ast.Nonlocal))
                        or (field == "body" and _is_docstring(node, parent))
                        or (in_function and isinstance(node, ast.AnnAssign)
                            and node.value is None))
                first = min([node.lineno] + [d.lineno for d in getattr(
                    node, "decorator_list", [])])
                body = getattr(node, "body", None)
                last = body[0].lineno - 1 if body else node.end_lineno
                lines = set(range(first, max(last, node.lineno) + 1))
                if isinstance(node, ast.Try):    # its line may emit no event
                    lines.add(body[0].lineno)
                if not skip:
                    yield scope, node.lineno, lines
                inner = scope
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    inner = f"{scope}.{node.name}" if scope else node.name
                yield from walk(node, inner, in_function or isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)))
    yield from walk(ast.parse(path.read_text()), "", False)


def main() -> int:
    os.environ.setdefault("STYLUS_LOG", "error")
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        threading.settrace(_global)
        sys.settrace(_global)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for name in TEST_FILES:
                    run_tests(ROOT / name, Path(tmp))
                codes = run_subcommands(Path(tmp))
        finally:
            sys.settrace(None)
            threading.settrace(None)
    failed = {k: v for k, v in codes.items() if v != 0}
    if failed:
        print(f"census: subcommands failed: {failed}", file=sys.stderr)
        return 1
    total = unrun = 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text().splitlines()
        for scope, lineno, lines in statements(path):
            total += 1
            if not any((str(path), n) in hits for n in lines):
                unrun += 1
                print(f"{path.relative_to(ROOT)}:{lineno}: {scope or '-'}: "
                      f"{source[lineno - 1].strip()}")
    print(f"{unrun} of {total} statements not run")
    return 0


if __name__ == "__main__":
    sys.exit(main())

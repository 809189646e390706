"""Every third-party module the package imports is a declared dependency,
and the CLI module loads no process-pool machinery."""

import ast
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def imported_packages(src: Path) -> set[str]:
    """The top-level name of every absolute import in ``src``'s modules."""
    names = set()
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def declared_dependencies() -> set[str]:
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
            for d in deps}


def test_every_third_party_import_is_declared():
    third_party = (imported_packages(ROOT / "src" / "stylus")
                   - set(sys.stdlib_module_names) - {"stylus"})
    assert {"numpy", "orjson"} <= third_party
    assert third_party <= declared_dependencies()


def test_cli_import_loads_no_process_pool():
    # the synthetic writer imports its pool when it runs; loading it with
    # the CLI would cost every analysis process about 0.7 MB
    code = ("import sys, stylus.cli; print(sorted({'concurrent.futures', "
            "'multiprocessing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")}
                         ).stdout
    assert out == "[]\n"

"""Every third-party module the package imports is a declared dependency."""

import ast
import re
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

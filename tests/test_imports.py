"""The package depends on numpy and the standard library only."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tweetgeo"
ALLOWED = {"numpy", "tweetgeo"} | set(sys.stdlib_module_names)


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:   # relative: the package
            yield node.module


def test_every_import_is_numpy_the_package_or_the_standard_library():
    sources = sorted(SRC.glob("*.py"))
    assert sources
    foreign = {f"{p.name}: {m}" for p in sources for m in _imported_modules(p)
               if m.split(".")[0] not in ALLOWED}
    assert not foreign

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


def _package_imports(path: Path) -> set:
    """The package modules that a source file imports: `from .m import x` and `from . import m`."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found |= {node.module} if node.module else {a.name for a in node.names}
    return found


def test_the_token_layout_and_the_cnn_import_no_naive_bayes():
    # both model families read the bases that `columns` lays out; `bayes` imports them back
    from tweetgeo import bayes, columns
    for start in ("columns", "cnn"):
        reached, todo = set(), [start]       # every package module it imports, transitively
        while todo:
            reached.add(module := todo.pop())
            todo += _package_imports(SRC / f"{module}.py") - reached
        assert "bayes" not in reached, start
    assert bayes.base_tokens is columns.base_tokens
    assert bayes.BASE_FIELDS is columns.BASE_FIELDS

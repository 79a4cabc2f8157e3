"""Every imported name is used: an import that nothing reads is dead code
that still costs its import and misleads the reader about dependencies.
Names a module lists in `__all__` are re-exports and count as used."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src/bdecat", "tests", "scripts")
                 for p in (ROOT / d).glob("*.py"))


def _imported(tree) -> dict[str, int]:
    """Each name an import binds, with its line; `from __future__` binds none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree) -> set[str]:
    """Every name the module reads, and every string in its `__all__`."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return used


def unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in _imported(tree).items() if name not in used]


def test_sources_found():
    assert len(SOURCES) > 30


def test_no_unused_imports():
    offenders = [o for path in SOURCES for o in unused_imports(path)]
    assert not offenders, f"imported but never used: {offenders}"

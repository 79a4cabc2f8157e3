"""Half-integers are stored as scaled integers (K0 exponents and Alexander
gradings doubled, Maslov components times four) and printed by
`grading.ratio_str`, so only the input parser, which reads every text
that Fraction reads, may import fractions."""

import ast

from tests.test_no_assert import SOURCES

ALLOWED = {"serialize.py"}


def _imported_modules(node) -> list[str]:
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return [node.module or ""]
    return []


def test_fractions_imported_only_at_the_boundary():
    offenders = []
    for path in SOURCES:
        if path.name in ALLOWED:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if any(name.split(".")[0] == "fractions"
                             for name in _imported_modules(node))]
    assert not offenders, f"fractions imported in bdecat: {offenders}"

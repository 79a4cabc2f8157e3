"""The package reads no environment variable: behaviour is set by arguments
and inputs alone, so no hidden knob can change a verdict."""

import ast

from tests.test_no_assert import SOURCES

KNOBS = {"environ", "environb", "getenv"}


def test_no_environment_reads_in_package():
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in KNOBS \
                    and isinstance(node.value, ast.Name) and node.value.id == "os":
                offenders.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os" \
                    and any(alias.name in KNOBS for alias in node.names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"environment reads in bdecat: {offenders}"

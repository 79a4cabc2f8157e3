"""Every bdecat name the benchmark harness traces or calls still exists.

`perfbench/spans.py` resolves each "module.attr" key of
`LayerHooks.targets()` with getattr, and the workloads call bdecat modules
by attribute, so a removed or renamed function breaks `perfbench/run.py`
with an AttributeError.  This reads `perfbench/workloads.py` as source and
resolves each name in bdecat, without importing the harness.
"""

import ast
import importlib
import pathlib

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _names() -> set[tuple[str, str]]:
    """(module, attr) for every string key "module.attr" of a dict inside
    `targets` and every `<module>.<attr>` whose module came from
    `from bdecat import ...`."""
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "bdecat"
               for alias in node.names}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "targets":
            for d in ast.walk(node):
                if isinstance(d, ast.Dict):
                    names |= {tuple(k.value.rsplit(".", 1)) for k in d.keys
                              if isinstance(k, ast.Constant) and isinstance(k.value, str)}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            names.add((node.value.id, node.attr))
    return names


def test_every_traced_or_called_name_resolves():
    names = _names()
    assert {("strands", "multiply"), ("strands", "differential"), ("grading", "gr_prime"),
            ("grading", "m_of"), ("diagram", "enumerate_generators"),
            ("selfcheck", "run_selfcheck"), ("cli", "run")} <= names
    missing = sorted(f"{module}.{attr}" for module, attr in names
                     if not hasattr(importlib.import_module(f"bdecat.{module}"), attr))
    assert not missing, f"perfbench/workloads.py uses names bdecat lacks: {missing}"

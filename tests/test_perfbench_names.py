"""Every bdecat name the benchmark harness traces or calls still exists.

`perfbench/spans.py` resolves each "module.attr" key of
`LayerHooks.targets()` with getattr, and the workloads call bdecat modules
by attribute, so a removed or renamed function breaks `perfbench/run.py`
with an AttributeError; `perfbench/test_perfbench.py` imports names with
`from bdecat.<module> import ...`, which break it with an ImportError.  This
reads both files as source and resolves each name in bdecat, without
importing the harness.
"""

import ast
import importlib
import pathlib

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
WORKLOADS = PERFBENCH / "workloads.py"
TESTS = PERFBENCH / "test_perfbench.py"


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


def _missing(names) -> list[str]:
    """"module.attr" for each (module, attr) that bdecat lacks."""
    return sorted(f"{module}.{attr}" for module, attr in names
                  if not hasattr(importlib.import_module(f"bdecat.{module}"), attr))


def test_every_traced_or_called_name_resolves():
    names = _names()
    assert {("strands", "multiply"), ("strands", "differential"), ("grading", "gr_prime"),
            ("grading", "m_of"), ("diagram", "enumerate_generators"),
            ("selfcheck", "run_selfcheck"), ("cli", "run")} <= names
    missing = _missing(names)
    assert not missing, f"perfbench/workloads.py uses names bdecat lacks: {missing}"


def test_every_name_the_benchmark_tests_import_resolves():
    tree = ast.parse(TESTS.read_text(), filename=str(TESTS))
    names = {(node.module.removeprefix("bdecat."), alias.name) for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module
             and node.module.startswith("bdecat.") for alias in node.names}
    assert {("dmodules", "is_bounded"), ("diagram", "det_int"),
            ("satellite", "decompose")} <= names
    missing = _missing(names)
    assert not missing, f"perfbench/test_perfbench.py imports names bdecat lacks: {missing}"

"""No module or class body defines the same name twice.

A second `def` of a name silently replaces the first at import time, so a
test that calls it runs the later body, whatever the first one promised.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def duplicate_definitions(source: str) -> list[str]:
    """`name (lines a, b)` for each def or class name defined twice in one body."""
    tree = ast.parse(source)
    found = []
    for body in [tree.body] + [node.body for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]:
        lines = {}
        for node in body:
            if isinstance(node, DEFINITIONS):
                lines.setdefault(node.name, []).append(node.lineno)
        found += [f"{name} (lines {', '.join(map(str, at))})" for name, at in lines.items() if len(at) > 1]
    return found


def test_the_check_finds_a_shadowed_definition():
    source = "def f():\n    pass\n\nclass C:\n    def g(self):\n        pass\n\n    def g(self):\n        pass\n\ndef f():\n    pass\n"
    assert duplicate_definitions(source) == ["f (lines 1, 11)", "g (lines 5, 8)"]


def test_no_module_defines_a_name_twice():
    modules = sorted(path for top in ("src", "tests", "tools") for path in (ROOT / top).rglob("*.py"))
    assert len(modules) > 20
    found = {str(path.relative_to(ROOT)): duplicate_definitions(path.read_text()) for path in modules}
    assert {path: names for path, names in found.items() if names} == {}

"""Every name the package defines is used by the package or the benchmark.

A top-level or class-level name in src/lambda_mb that only the tests
reach belongs in tests/.  A name counts as used when src/ or bench/ reads
it (a loaded name or attribute), imports it, passes it as a keyword, or,
in bench/, spells it as a string constant: the benchmark's traced layers
name the functions they wrap that way.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lambda_mb"


def _defined(tree):
    """(qualified name, name) of every top-level and class-level definition."""
    for node in tree.body:
        yield from _names(node, "")
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                yield from _names(member, node.name + ".")


def _names(node, prefix):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        yield prefix + node.name, node.name
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    for target in targets if isinstance(node, (ast.Assign, ast.AnnAssign)) else ():
        if isinstance(target, ast.Name):
            yield prefix + target.id, target.id


def _used(tree, strings):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_package_name_is_used_outside_the_tests():
    used = set()
    for folder, strings in ((PACKAGE, False), (ROOT / "bench", True)):
        for path in folder.glob("*.py"):
            used.update(_used(ast.parse(path.read_text(encoding="utf-8")), strings))
    unused = [f"{path.stem}.{qualified}"
              for path in sorted(PACKAGE.glob("*.py"))
              for qualified, name in _defined(ast.parse(path.read_text(encoding="utf-8")))
              if not (name.startswith("__") and name.endswith("__")) and name not in used]
    assert unused == []

import ast
from collections import Counter
from pathlib import Path

import slidekick

SRC = Path(slidekick.__file__).parent
ROOT = SRC.parent.parent


def _uses(tree: ast.AST) -> Counter:
    # names read or written and attributes taken; imports, re-exports and
    # strings such as __all__ entries are not uses
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def test_every_public_name_is_reached_outside_the_tests():
    # a public function or class stays only if the package itself, a demo or
    # the benchmark uses it; code that only its own tests call is deleted
    reachers = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    total = Counter()
    for path in reachers:
        total += _uses(ast.parse(path.read_text(encoding="utf-8")))
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if total[node.name] - _uses(node)[node.name] <= 0:
                    unreached.append(f"{path.stem}.{node.name}")
    assert not unreached, f"only the tests reach {unreached}"

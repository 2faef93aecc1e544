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


def _reached_outside_the_tests() -> Counter:
    reachers = [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    total = Counter()
    for path in reachers:
        total += _uses(ast.parse(path.read_text(encoding="utf-8")))
    return total


def test_every_public_name_is_reached_outside_the_tests():
    # a public function or class stays only if the package itself, a demo or
    # the benchmark uses it; code that only its own tests call is deleted
    total = _reached_outside_the_tests()
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                if total[node.name] - _uses(node)[node.name] <= 0:
                    unreached.append(f"{path.stem}.{node.name}")
    assert not unreached, f"only the tests reach {unreached}"


def test_every_public_method_is_reached_outside_the_tests():
    # the same count for the public methods and properties of every class:
    # by name, so a name shared with another method or field counts as a use
    total = _reached_outside_the_tests()
    unreached = []
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                    if total[node.name] - _uses(node)[node.name] <= 0:
                        unreached.append(f"{path.stem}.{cls.name}.{node.name}")
    assert not unreached, f"only the tests reach {unreached}"


def _dataclass_fields(tree: ast.AST):
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
            for stmt in cls.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield f"{cls.name}.{stmt.target.id}", stmt.target.id


def test_every_result_field_is_read():
    # a dataclass field stays only if a module, a demo, the benchmark or a
    # test reads it as an attribute; the count goes by name, like the check
    # above, so a shared name (x, epsilon, profile, family) can hide a dead
    # field
    reads = Counter()
    for path in [*SRC.glob("*.py"), *(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py"),
                 *(ROOT / "tests").glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr] += 1
    unread = [qual for path in sorted(SRC.glob("*.py"))
              for qual, name in _dataclass_fields(ast.parse(path.read_text(encoding="utf-8"))) if not reads[name]]
    assert not unread, f"nothing reads {unread}"

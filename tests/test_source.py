"""Source hygiene: no module under src/ imports a name it never uses, and
only `numerics` runs backward passes or builds optimizers, so every training
loop goes through `numerics.fit`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
NUMERICS = SRC / "univid" / "numerics"


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by import statements that no expression in the module reads."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # a package __init__ imports names to re-export them
    modules = [p for p in sorted(SRC.rglob("*.py")) if p.name != "__init__.py"]
    assert modules
    found = {str(p.relative_to(SRC)): unused_imports(ast.parse(p.read_text(), str(p))) for p in modules}
    assert not {path: names for path, names in found.items() if names}


def loop_calls(tree: ast.Module) -> list[str]:
    """Calls of `.backward()` and constructions of `AdamW` in the module."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "AdamW" or (name == "backward" and isinstance(node.func, ast.Attribute)):
                found.append(f"{name} (line {node.lineno})")
    return found


def test_training_loops_go_through_fit():
    modules = [p for p in sorted(SRC.rglob("*.py")) if NUMERICS not in p.parents]
    assert modules
    found = {str(p.relative_to(SRC)): loop_calls(ast.parse(p.read_text(), str(p))) for p in modules}
    assert not {path: calls for path, calls in found.items() if calls}

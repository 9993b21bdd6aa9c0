"""Source hygiene: no module under src/ imports a name it never uses; only
`numerics` runs backward passes or builds optimizers, so every training loop
goes through `numerics.fit`; every public function, class and method in src/
has a caller; and each tensor op has one call form, the function."""

import ast
import operator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NUMERICS = SRC / "univid" / "numerics"

# public names with no caller yet, kept for the ROADMAP item that will call them
RESERVED = {
    "Embedding": "item 4: text tokens into the backbone",
    "set_trainable_by_prefix": "items 4-5: freezing modules per training stage",
    "psnr": "item 5: the edit gate inside the preserved mask",
    "probe_accuracy_on_renders": "item 5: the probe ceiling on real renders",
}


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


def public_definitions(tree: ast.Module) -> list[str]:
    """Public top-level functions and classes, and the public methods of those classes."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    return found


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read, attributes taken, and identifiers spelled as strings (names
    patched or looked up by `getattr`). A definition's own name and an import
    alias are neither, so re-exports do not count as use."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            names.add(node.value)
    return names


def test_every_public_name_has_a_caller():
    # this file spells the reserved names, so it is left out of the callers
    trees = {p: ast.parse(p.read_text(), str(p)) for root in ("src", "tests", "perfbench")
             for p in sorted((ROOT / root).rglob("*.py")) if p != Path(__file__).resolve()}
    used = set().union(*map(referenced_names, trees.values()))
    dead = [f"{p.relative_to(SRC)}: {name}" for p, tree in trees.items() if SRC in p.parents
            for name in public_definitions(tree) if name.split(".")[-1] not in used | RESERVED.keys()]
    assert not dead
    # a reserved name that gains a caller leaves RESERVED
    assert not sorted(RESERVED.keys() & used)


# the special methods behind the `operator` module's functions (in-place forms
# included), and their reflected forms
OPERATOR_METHODS = {f"__{prefix}{name.rstrip('_')}__" for name in operator.__all__ for prefix in ("", "r")}


def method_aliases(tree: ast.Module) -> list[str]:
    """Methods of `Tensor` that are a second call form of an op: an operator
    method other than `__getitem__`, or a method named like a public function
    of the module (a trailing underscore ignored, so `sum` matches `sum_`)."""
    functions = {node.name.rstrip("_") for node in tree.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    tensor = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Tensor")
    methods = [item.name for item in tensor.body if isinstance(item, ast.FunctionDef)]
    return [name for name in methods
            if (name in OPERATOR_METHODS and name != "__getitem__") or name in functions]


def test_tensor_ops_have_one_call_form():
    path = NUMERICS / "tensor.py"
    assert not method_aliases(ast.parse(path.read_text(), str(path)))

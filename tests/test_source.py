"""Source hygiene: no module under src/ or tests/ imports a name it never
uses; only `numerics` runs backward passes or builds optimizers, so every
training loop goes through `numerics.fit`; every public function, class and
method in src/ has a caller in program code; and each tensor op has one call
form, the function.

A caller is a name read or an attribute taken in program code, which is the
code under src/ and perfbench/. Tests are not callers, so code that only tests
use lives under tests/. A string never counts as a caller under src/, not even
an op's own `_from_op` tag. Under perfbench/ an identifier spelled as a string
counts, because `perfbench/spans.py` patches ops by name, so every name it
patches must exist: its tracer installs and uninstalls here as a traced
benchmark run does."""

import ast
import importlib.util
import operator
from pathlib import Path

import numpy as np

from univid import numerics as nx
from univid.numerics import tensor as tz

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NUMERICS = SRC / "univid" / "numerics"

# roots of the program code, and those of them whose identifier strings are callers
PROGRAM_ROOTS = ("src", "perfbench")
STRING_ROOTS = ("perfbench",)

# public names with no caller yet, kept for the ROADMAP item that will call them
RESERVED = {
    "Embedding": "item 6: text tokens into the backbone",
    "add_rows": "item 6: vision vectors spliced into the backbone's token rows",
    "set_trainable_by_prefix": "item 6: freezing modules per training stage",
    "decode_text": "item 6: the backbone's text answers",
    "mse": "item 5: the rectified-flow velocity loss",
    "encode_frames": "item 5: stage B's frozen-encoder clues",
    "encode_normalized": "item 5: the decoder's normalized latent targets",
    "denormalize_latent": "item 5: decoder latents back to the VAE's scale",
    "psnr": "item 4: VAE reconstruction PSNR in the eval record",
    "probe_accuracy_on_renders": "item 4: probe accuracy in the eval record",
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
    modules = [p for root in ("src", "tests") for p in sorted((ROOT / root).rglob("*.py")) if p.name != "__init__.py"]
    assert any(ROOT / "tests" in p.parents for p in modules)
    found = {str(p.relative_to(ROOT)): unused_imports(ast.parse(p.read_text(), str(p))) for p in modules}
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


def referenced_names(tree: ast.Module, strings: bool) -> set[str]:
    """Names read and attributes taken, and with `strings` the identifiers
    spelled as strings (names patched or looked up by `getattr`). A
    definition's own name and an import alias are neither, so re-exports do
    not count as use."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def dead_names(trees: dict[str, ast.Module], reserved) -> tuple[list[str], list[str]]:
    """Given modules by path relative to the repo root, the public definitions
    under src/ that have no caller and are not `reserved`, and the `reserved`
    names that have one."""
    used = set()
    for path, tree in trees.items():
        root = Path(path).parts[0]
        if root in PROGRAM_ROOTS:
            used |= referenced_names(tree, strings=root in STRING_ROOTS)
    reserved = set(reserved)
    dead = [f"{path}: {name}" for path, tree in trees.items() if Path(path).parts[0] == "src"
            for name in public_definitions(tree) if name.split(".")[-1] not in used | reserved]
    return dead, sorted(used & reserved)


def test_every_public_name_has_a_caller():
    trees = {str(p.relative_to(ROOT)): ast.parse(p.read_text(), str(p))
             for root in ("src", "tests", "perfbench") for p in sorted((ROOT / root).rglob("*.py"))}
    dead, called = dead_names(trees, RESERVED)
    assert not dead
    # a reserved name that gains a caller leaves RESERVED
    assert not called


def rule_on(sources: dict[str, str], reserved=()) -> tuple[list[str], list[str]]:
    return dead_names({path: ast.parse(text) for path, text in sources.items()}, reserved)


OP = "src/univid/ops.py"


def test_rule_a_test_is_not_a_caller():
    sources = {OP: "def helper():\n    return 1\n\nclass Op:\n    def apply(self):\n        return 2\n",
               "tests/test_ops.py": "from univid.ops import Op, helper\n\n"
                                    "def test_ops():\n    assert helper() + Op().apply() == 3\n"}
    assert rule_on(sources) == ([f"{OP}: helper", f"{OP}: Op", f"{OP}: Op.apply"], [])
    sources["perfbench/run.py"] = "from univid.ops import Op, helper\n\nprint(helper(), Op().apply())\n"
    assert rule_on(sources) == ([], [])


def test_rule_counts_strings_under_perfbench_only():
    sources = {OP: "def concat(xs):\n    return _from_op(xs, 'concat')\n",
               "tests/test_ops.py": "import univid.ops\n\ngetattr(univid.ops, 'concat')\n"}
    assert rule_on(sources) == ([f"{OP}: concat"], [])
    sources["perfbench/spans.py"] = "OPS = {'concat': 'concat'}\n"
    assert rule_on(sources) == ([], [])


def test_rule_fails_a_reserved_name_with_a_caller():
    sources = {OP: "def later():\n    pass\n"}
    assert rule_on(sources, {"later"}) == ([], [])
    sources["src/univid/user.py"] = "from .ops import later\n\nlater()\n"
    assert rule_on(sources, {"later"}) == ([], ["later"])


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


def test_benchmark_tracer_patches_existing_ops_and_restores_them():
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    ops = {attr: vars(tz).get(attr) for attr in spans.NUMERICS_OPS.values()}
    tracer = spans.Tracer()
    try:
        tracer.install()  # raises AttributeError for an op it patches by a name that is gone
        nx.gelu(nx.Tensor(np.ones(3, np.float32)))
    finally:
        tracer.uninstall()
    assert tracer.table()["numerics.gelu"]["calls"] == 1
    # every op is itself again, in the tensor module and in the package
    assert {attr: vars(tz).get(attr) for attr in ops} == ops and nx.gelu is ops["gelu"]

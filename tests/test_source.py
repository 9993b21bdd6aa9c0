"""Source hygiene: no module under src/ or tests/ imports a name it never
uses; only `numerics` runs backward passes or builds optimizers, so every
training loop goes through `numerics.fit`; every public function, class and
method in src/ has a caller in program code, and every UPPER_CASE module
constant in src/ (a private one too) a reader; every keyword-only parameter of
a function or method in src/ is passed by that keyword at some call in program
code; and each tensor op has one call form, the function.

A caller or reader is a name read or an attribute read in program code, which
is the code under src/ and perfbench/; an assignment to it does not count.
Tests are not callers, so code that only tests use lives under tests/. A
string never counts as a caller under src/, not even an op's own `_from_op`
tag. Under perfbench/ an identifier spelled as a string counts, because
`perfbench/spans.py` patches ops by name, so every name it patches must exist:
its tracer installs and uninstalls here as a traced benchmark run does.

A keyword-only option matches a call by keyword name alone, whatever the call's
callee, and a `**` splat passes no name. Calls in the function's own body do
not count, and a call that forwards the enclosing function's own keyword-only
option by its name counts only once that option is passed. So an option that
a function only forwards to itself, or that only a chain or cycle of
forwarding feeds, is flagged too.

Every graph node, each tag that `numerics/tensor.py` passes to
`Tensor._from_op`, has a finite-difference case in `tests/test_numerics.py`:
a `PRIMITIVE_CASES` key that is the tag or starts with the tag and "_".

Nothing writes a stored gradient in place: no code under src/ writes into a
`.grad` attribute by an augmented assignment, a store into its subscript or
an `out=`, and no function in `numerics/tensor.py` so writes its incoming
gradient `g`, which `Tensor._accumulate` may have adopted and may share with
other parents."""

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
    "encode_normalized": "item 5: the decoder's normalized latent targets",
    "denormalize_latent": "item 5: decoder latents back to the VAE's scale",
    "psnr": "item 4: VAE reconstruction PSNR in the eval record",
    "probe_accuracy_on_renders": "item 4: probe accuracy in the eval record",
    "TASK_IDS": "item 6: the backbone's task prefix",
}

# keyword-only options that no program call passes yet, kept for the ROADMAP
# item that will pass them
RESERVED_OPTIONS = {
    "TransformerBlock.__init__(cross_dim=)": "item 5: the decoder's cross-attention over clue tokens",
    "TransformerBlock.__call__(cond=)": "item 5: the clue tokens the decoder attends to",
    "MultiHeadAttention.__init__(kv_dim=)": "item 5: the decoder's cross-attention keys from clue tokens",
    "TransformerBlock.__call__(causal=)": "item 6: the backbone's causal self-attention",
    "MultiHeadAttention.__call__(causal=)": "item 6: the backbone's causal self-attention",
    "attention(causal=)": "item 6: the backbone's causal self-attention",
    "pretrain_frame_encoder(batch=)": "item 4: `univid pretrain` at tiny size",
    "pretrain_vae(batch=)": "item 4: `univid pretrain` at tiny size",
    "pretrain_vae(stat_videos=)": "item 4: `univid pretrain` at tiny size",
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


def definitions(tree: ast.Module) -> list[str]:
    """Public top-level functions and classes, the public methods of those
    classes, and the UPPER_CASE module constants, private ones too."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [f"{node.name}.{item.name}" for item in node.body
                          if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            found += [t.id for t in ast.walk(node) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
                      and t.id.lstrip("_").isupper()]
    return found


def referenced_names(tree: ast.Module, strings: bool) -> set[str]:
    """Names and attributes read, and with `strings` the identifiers spelled
    as strings (names patched or looked up by `getattr`). A definition's own
    name, an assignment and an import alias are none of these, so re-exports
    do not count as use."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)
    return names


def dead_names(trees: dict[str, ast.Module], reserved) -> tuple[list[str], list[str]]:
    """Given modules by path relative to the repo root, the definitions under
    src/ that have no caller and are not `reserved`, and the `reserved` names
    that have one."""
    used = set()
    for path, tree in trees.items():
        root = Path(path).parts[0]
        if root in PROGRAM_ROOTS:
            used |= referenced_names(tree, strings=root in STRING_ROOTS)
    reserved = set(reserved)
    dead = [f"{path}: {name}" for path, tree in trees.items() if Path(path).parts[0] == "src"
            for name in definitions(tree) if name.split(".")[-1] not in used | reserved]
    return dead, sorted(used & reserved)


def repo_trees() -> dict[str, ast.Module]:
    return {str(p.relative_to(ROOT)): ast.parse(p.read_text(), str(p))
            for root in ("src", "tests", "perfbench") for p in sorted((ROOT / root).rglob("*.py"))}


def test_every_public_name_has_a_caller():
    dead, called = dead_names(repo_trees(), RESERVED)
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


def test_rule_needs_a_read_of_each_constant():
    sources = {OP: "LIMIT = 3\n_TABLE = (1, 2)\nscale = 2\n\ndef clip(x):\n    return min(x, LIMIT)\n",
               "perfbench/run.py": "import univid.ops\n\nunivid.ops._TABLE = ()\nprint(univid.ops.clip(4))\n"}
    assert rule_on(sources) == ([f"{OP}: _TABLE"], [])  # an assignment is not a read
    sources["src/univid/user.py"] = "from .ops import _TABLE\n\nprint(len(_TABLE))\n"
    assert rule_on(sources) == ([], [])


def functions(node: ast.AST, prefix: str = ""):
    """(qualified name, node) of each function and method under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            if isinstance(child, ast.FunctionDef):
                yield prefix + child.name, child
            yield from functions(child, f"{prefix}{child.name}.")
        else:
            yield from functions(child, prefix)


def keyword_passes(node: ast.AST, enclosing: tuple = ()):
    """(keyword, value, enclosing functions) of each keyword passed by name at
    a call under `node`; the value is the name it reads, or None."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            for kw in child.keywords:
                if kw.arg:
                    yield kw.arg, kw.value.id if isinstance(kw.value, ast.Name) else None, enclosing
        yield from keyword_passes(child, enclosing + (child,) if isinstance(child, ast.FunctionDef) else enclosing)


def unpassed_options(trees: dict[str, ast.Module], reserved) -> tuple[list[str], list[str]]:
    """Given modules by path relative to the repo root, the keyword-only
    parameters of functions under src/ that no call in program code outside
    the function passes by name and that are not `reserved`, and the
    `reserved` options that are passed or gone. A call that passes one of its
    enclosing function's own keyword-only parameters forwards that option,
    and counts only once that option is passed, to a fixpoint."""
    options = {f"{name}({arg.arg}=)": (path, node, arg.arg) for path, tree in trees.items()
               if Path(path).parts[0] == "src" for name, node in functions(tree) for arg in node.args.kwonlyargs}
    owner = {(node, arg): option for option, (_, node, arg) in options.items()}

    def forwarded(value, enclosing):
        fn = next((fn for fn in reversed(enclosing) if any(a.arg == value for a in fn.args.kwonlyargs)), None)
        return owner.get((fn, value))

    passes = [(kw, forwarded(value, enclosing), enclosing) for path, tree in trees.items()
              if Path(path).parts[0] in PROGRAM_ROOTS for kw, value, enclosing in keyword_passes(tree)]
    unpassed, previous = set(options), None
    while unpassed != previous:
        previous = unpassed
        unpassed = {option for option in previous if not any(
            kw == options[option][2] and options[option][1] not in enclosing and source not in previous
            for kw, source, enclosing in passes)}
    return ([f"{path}: {option}" for option, (path, _, _) in options.items() if option in unpassed
             and option not in reserved], sorted(set(reserved) - unpassed))


def test_every_keyword_option_is_passed():
    unpassed, stale = unpassed_options(repo_trees(), RESERVED_OPTIONS)
    assert not unpassed
    # a reserved option that gains a caller, or is deleted, leaves RESERVED_OPTIONS
    assert not stale


def options_on(sources: dict[str, str], reserved=()) -> tuple[list[str], list[str]]:
    return unpassed_options({path: ast.parse(text) for path, text in sources.items()}, reserved)


def test_option_rule_skips_the_functions_own_calls():
    # `inner` is passed its option only by `outer` forwarding its own, which only a test
    # passes; `walk` only by itself
    sources = {OP: "def inner(x, *, bias=None):\n    return x\n\n"
                   "def outer(x, *, bias=None):\n    return inner(x, bias=bias)\n\n"
                   "def walk(x, *, depth=0):\n    return walk(x, depth=depth + 1) if depth < 3 else x\n",
               "tests/test_ops.py": "from univid.ops import outer, walk\n\nouter(1, bias=2)\nwalk(1, depth=1)\n"}
    assert options_on(sources) == ([f"{OP}: inner(bias=)", f"{OP}: outer(bias=)", f"{OP}: walk(depth=)"], [])
    sources["perfbench/run.py"] = "from univid.ops import outer, walk\n\nouter(1, bias=2)\nwalk(1, depth=1)\n"
    assert options_on(sources) == ([], [])


def test_option_rule_needs_a_pass_that_no_forwarding_cycle_makes():
    # each of three functions forwards its `causal` to the next, the last back to the first
    cycle = {OP: "def a(x, *, causal=False):\n    return b(x, causal=causal)\n\n"
                 "def b(x, *, causal=False):\n    return c(x, causal=causal)\n\n"
                 "def c(x, *, causal=False):\n    return a(x, causal=causal) if x else x\n"}
    assert options_on(cycle) == ([f"{OP}: {f}(causal=)" for f in "abc"], [])
    cycle["tests/test_ops.py"] = "from univid.ops import a\n\na(1, causal=True)\n"
    assert options_on(cycle) == ([f"{OP}: {f}(causal=)" for f in "abc"], [])  # a test is not a caller
    # an option forwarded under another keyword feeds the cycle only once it is passed itself
    cycle["src/univid/user.py"] = "from .ops import a\n\ndef mask(x, *, masked=False):\n    return a(x, causal=masked)\n"
    assert options_on(cycle) == ([f"{OP}: {f}(causal=)" for f in "abc"] + ["src/univid/user.py: mask(masked=)"], [])
    cycle["perfbench/run.py"] = "from univid.user import mask\n\nmask(1, masked=True)\n"
    assert options_on(cycle) == ([], [])


def test_option_rule_matches_keywords_by_name():
    sources = {OP: "class Block:\n    def __call__(self, x, *, causal=False):\n        return x\n",
               "perfbench/run.py": "def run(block, **opts):\n    return block(1, **opts)\n"}
    assert options_on(sources) == ([f"{OP}: Block.__call__(causal=)"], [])  # a splat names nothing
    sources["src/univid/user.py"] = "def mask(n, *, causal=True):\n    return n\n\nmask(3, causal=False)\n"
    assert options_on(sources) == ([], [])  # any call passing `causal=` counts


def test_option_rule_fails_a_reserved_option_with_a_caller_or_gone():
    sources = {OP: "def later(*, size=1):\n    return size\n"}
    assert options_on(sources, {"later(size=)"}) == ([], [])
    sources["src/univid/user.py"] = "from .ops import later\n\nlater(size=2)\n"
    assert options_on(sources, {"later(size=)"}) == ([], ["later(size=)"])
    assert options_on({OP: "def later():\n    return 1\n"}, {"later(size=)"}) == ([], ["later(size=)"])


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


def node_tags(tree: ast.Module) -> list[str]:
    """The op tags passed to `Tensor._from_op` in the module, in source
    order; a tag that is not a string literal is listed as its source."""
    tags = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_from_op":
            tag = node.args[2]
            tags.append(tag.value if isinstance(tag, ast.Constant) and isinstance(tag.value, str) else ast.unparse(tag))
    return tags


def untested_nodes(ops: ast.Module, cases: ast.Module) -> list[str]:
    """The node tags of `ops` that no key of the `PRIMITIVE_CASES` dict in `cases` covers."""
    table = next(node.value for node in cases.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "PRIMITIVE_CASES" for t in node.targets))
    keys = [key.value for key in table.keys]
    return [tag for tag in node_tags(ops) if not any(k == tag or k.startswith(tag + "_") for k in keys)]


def test_every_node_has_a_finite_difference_case():
    ops, cases = (ast.parse(p.read_text(), str(p))
                  for p in (NUMERICS / "tensor.py", ROOT / "tests" / "test_numerics.py"))
    assert "l2_normalize" in node_tags(ops)
    assert not untested_nodes(ops, cases)


def test_node_rule_matches_a_tag_or_its_prefix():
    ops = ast.parse("def cube(a):\n    return Tensor._from_op(a.data ** 3, (a,), 'cube', None)\n")
    assert untested_nodes(ops, ast.parse("PRIMITIVE_CASES = {'cube': 1}\n")) == []
    assert untested_nodes(ops, ast.parse("PRIMITIVE_CASES = {'cube_2d': 1}\n")) == []
    assert untested_nodes(ops, ast.parse("PRIMITIVE_CASES = {'cubed': 1, 'cub': 1}\n")) == ["cube"]
    dynamic = ast.parse("def any_op(a, op):\n    return Tensor._from_op(a.data, (a,), op, None)\n")
    assert untested_nodes(dynamic, ast.parse("PRIMITIVE_CASES = {'cube': 1}\n")) == ["op"]


def stored_gradient_writes(tree: ast.Module, closures: bool) -> list[str]:
    """Writes in place to a stored gradient in the module: an augmented
    assignment to a `.grad` attribute, or an assignment into its subscript
    or an `out=` naming it; with `closures`, the same writes to the incoming
    `g` of each function that takes one."""
    def writes(node: ast.AST, stored) -> list[tuple[int, str]]:
        found = []
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.AugAssign):
                targets = [stmt.target]
            elif isinstance(stmt, ast.Assign):
                targets = [t for t in stmt.targets if isinstance(t, ast.Subscript)]
            elif isinstance(stmt, ast.Call):
                targets = [kw.value for kw in stmt.keywords if kw.arg == "out"]
            else:
                continue
            for target in targets:
                root = target
                while isinstance(root, ast.Subscript):
                    root = root.value
                if stored(root):
                    found.append((stmt.lineno, ast.unparse(target)))
        return found

    found = writes(tree, lambda root: isinstance(root, ast.Attribute) and root.attr == "grad")
    if closures:
        for _, fn in functions(tree):
            if any(arg.arg == "g" for arg in fn.args.args):
                found += writes(fn, lambda root: isinstance(root, ast.Name) and root.id == "g")
    return [f"{text} (line {line})" for line, text in sorted(set(found))]


def test_no_stored_gradient_is_written_in_place():
    found = {str(p.relative_to(SRC)): stored_gradient_writes(ast.parse(p.read_text(), str(p)),
                                                             closures=p == NUMERICS / "tensor.py")
             for p in sorted(SRC.rglob("*.py"))}
    assert "univid/numerics/tensor.py" in found
    assert not {path: writes for path, writes in found.items() if writes}


def test_gradient_rule_flags_writes_to_grad_and_to_an_incoming_g():
    tree = ast.parse("class Tensor:\n    def _accumulate(self, g):\n        self.grad += g\n\n"
                     "def clip(p):\n    p.grad[0] = 0.0\n    p.grad = p.grad * 0.5\n\n"
                     "def double(a):\n    def bwd(g):\n        g *= 2\n        g[0] += 1\n"
                     "        np.negative(g, out=g[1:])\n        h = g * 2\n        h *= 3\n"
                     "        a._accumulate(h)\n    return bwd\n")
    grads = ["self.grad (line 3)", "p.grad[0] (line 6)"]
    assert stored_gradient_writes(tree, closures=False) == grads
    assert stored_gradient_writes(tree, closures=True) == grads + ["g (line 11)", "g[0] (line 12)", "g[1:] (line 13)"]

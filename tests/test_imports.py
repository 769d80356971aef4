"""Every name a gtl module imports, and every private name it defines, is used in that module;
every public function and method is called from gtl or named as library API, and every
function the benchmark tracer wraps is called from gtl; each name has one path, from the
module that defines it."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import gtl

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402

SOURCES = sorted(Path(gtl.__file__).parent.glob("*.py"))
MODULES = [p.stem for p in SOURCES if p.name != "__init__.py"]


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_sources_are_found():
    assert {"__init__.py", "stmod.py", "graded.py", "exactlin.py"} <= {p.name for p in SOURCES}


def test_package_binds_only_its_version():
    # the library is used through its submodules, each bound on the package
    # once imported; the package itself re-exports nothing
    bound = {name for name in vars(gtl) if not (name.startswith("__") and name.endswith("__"))}
    assert bound <= set(MODULES) and gtl.__version__


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    # no module relies on another having been imported first
    src = str(Path(gtl.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import gtl.{module}"
    subprocess.run([sys.executable, "-I", "-c", code], check=True, timeout=60)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def unused_private_names(tree: ast.Module) -> list[str]:
    """Module-level names starting with "_" (dunders aside), and private methods
    of module-level classes, that the module never reads."""
    defined: dict[str, int] = {}
    methods: dict[str, tuple[str, int]] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.endswith("__"):
                    methods[f"{node.name}.{item.name}"] = (item.name, item.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unused = [
        f"{name} (line {line})"
        for name, line in defined.items()
        if name.startswith("_") and not name.endswith("__") and name not in read
    ]
    return unused + [
        f"{qualified} (line {line})"
        for qualified, (name, line) in methods.items()
        if name.startswith("_") and name not in attributes
    ]


def test_unused_private_names_are_detected():
    tree = ast.parse("_A = 1\n_B, C = 2, 3\n__version__ = '1'\ndef _f():\n    return _A\nclass _K:\n    pass\n")
    assert unused_private_names(tree) == ["_B (line 2)", "_f (line 4)", "_K (line 6)"]


def test_unused_private_methods_are_detected():
    tree = ast.parse(
        "class K:\n"
        "    def __init__(self):\n        self._used()\n"
        "    def _used(self):\n        pass\n"
        "    def _unused(self):\n        pass\n"
        "    def public(self):\n        pass\n"
    )
    assert unused_private_names(tree) == ["K._unused (line 6)"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_private_name_is_used(path):
    # a helper or constant left behind by a deletion fails here
    assert unused_private_names(ast.parse(path.read_text())) == []


def uncalled_public_methods(trees: list[ast.Module]) -> list[str]:
    """Public methods of module-level classes whose name no module reads as an
    attribute; matched by name, so any ``x.name`` counts as a call."""
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{node.name}.{item.name}"
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
        and item.name not in read
    ]


def names_read(sources: dict[str, ast.Module]) -> set[str]:
    """Every name some module reads, bare or as an attribute, outside the
    module-level function of that name."""
    read: set[str] = set()
    for tree in sources.values():
        for top in tree.body:
            skip = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != skip:
                    read.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr != skip:
                    read.add(node.attr)
    return read


def uncalled_public_functions(sources: dict[str, ast.Module]) -> list[str]:
    """Public module-level functions, as ``module.name``, whose name no module
    reads outside their own definition, bare or as an attribute."""
    read = names_read(sources)
    return [
        f"{module}.{node.name}"
        for module, tree in sources.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
        and node.name not in read
    ]


# public functions and methods no gtl module calls, and every operator method
# (which no name search can see called), each with the reason it stays
LIBRARY_API = {
    "gallery.build_laurent": "a gallery example, named in README's module table",
    "graded.algebra_to_json_dict": "the writer's oracle: algebra_to_json writes the canonical JSON of this payload",
    "WindowedGradedAlgebra.__eq__": "the round-trip oracle: a ring read back from its JSON equals the ring written",
    "GradedSubspace.contains_vector": "membership of a vector of one degree in a subspace",
}

# the special methods behind Python's arithmetic, bitwise and comparison operators
_BINARY = ("add", "sub", "mul", "matmul", "truediv", "floordiv", "mod", "divmod", "pow",
           "lshift", "rshift", "and", "or", "xor")
OPERATOR_METHODS = {f"__{side}{op}__" for op in _BINARY for side in ("", "r", "i")} | {
    f"__{op}__" for op in ("neg", "pos", "abs", "invert", "eq", "ne", "lt", "le", "gt", "ge")
}


def operator_methods(trees: list[ast.Module]) -> list[str]:
    """Operator special methods defined on module-level classes, as ``Class.__op__``."""
    return [
        f"{node.name}.{item.name}"
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name in OPERATOR_METHODS
    ]


def test_uncalled_public_methods_are_detected():
    trees = [
        ast.parse(
            "class K:\n"
            "    def __init__(self):\n        pass\n"
            "    def used(self):\n        pass\n"
            "    def unused(self):\n        pass\n"
            "    def _private(self):\n        pass\n"
            "def f():\n"
            "    class Inner:\n"
            "        def hidden(self):\n            pass\n"
        ),
        ast.parse("def g(k):\n    return k.used()\n"),
    ]
    assert uncalled_public_methods(trees) == ["K.unused"]


def library_api(kind: str) -> list[str]:
    """LIBRARY_API's entries of one kind: "function", "operator" or "method"."""

    def kind_of(name: str) -> str:
        owner, attr = name.split(".")
        return "function" if owner in MODULES else "operator" if attr in OPERATOR_METHODS else "method"

    return sorted(name for name in LIBRARY_API if kind_of(name) == kind)


def test_every_public_method_is_called_or_library_api():
    # a method only tests call fails here; LIBRARY_API lists the exceptions,
    # and an entry whose method is gone or now called fails too
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    assert sorted(uncalled_public_methods(trees)) == library_api("method")


def test_operator_methods_are_detected():
    trees = [
        ast.parse(
            "class K:\n"
            "    def __init__(self):\n        pass\n"
            "    def __add__(self, other):\n        pass\n"
            "    def __rmul__(self, other):\n        pass\n"
            "    def __eq__(self, other):\n        pass\n"
            "    def __post_init__(self):\n        pass\n"
            "def f():\n"
            "    class Inner:\n"
            "        def __sub__(self, other):\n            pass\n"
        ),
    ]
    assert operator_methods(trees) == ["K.__add__", "K.__rmul__", "K.__eq__"]


def test_every_operator_method_is_library_api():
    # operators are called through syntax, which the name searches above
    # cannot see, so each one must be listed with the reason it stays
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    assert sorted(operator_methods(trees)) == library_api("operator")


def test_uncalled_public_functions_are_detected():
    sources = {
        "a": ast.parse(
            "def used():\n    pass\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "def _private():\n    pass\n"
            "class K:\n    def method(self):\n        pass\n"
        ),
        "b": ast.parse("import a\ndef caller():\n    return a.used()\nx = caller()\n"),
    }
    assert uncalled_public_functions(sources) == ["a.recursive"]


def test_every_public_function_is_called_or_library_api():
    # a function only tests call fails here, as does a LIBRARY_API entry
    # whose function is gone or now called
    sources = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    assert sorted(uncalled_public_functions(sources)) == library_api("function")


def uncalled_traced_targets(targets, sources: dict[str, ast.Module]) -> list[str]:
    """Span names of tracer targets (span, "gtl.module", attribute, note) that no
    module defines, or whose function or method no module calls; a dotted
    attribute is a method of a module-level class, matched by name."""
    defined = {
        f"gtl.{module}.{name}"
        for module, tree in sources.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        for name in [node.name] + [
            f"{node.name}.{item.name}"
            for item in (node.body if isinstance(node, ast.ClassDef) else [])
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
    }
    read = names_read(sources)
    return [
        span
        for span, module, attr, _ in targets
        if f"{module}.{attr}" not in defined or attr.split(".")[-1] not in read
    ]


def test_uncalled_traced_targets_are_detected():
    sources = {
        "a": ast.parse(
            "def called():\n    pass\n"
            "def uncalled():\n    return uncalled()\n"
            "class K:\n    def used(self):\n        return called()\n    def unused(self):\n        pass\n"
        ),
        "b": ast.parse("import a\ndef caller(k):\n    return k.used()\n"),
    }
    targets = [
        ("a.called", "gtl.a", "called", None),
        ("a.uncalled", "gtl.a", "uncalled", None),
        ("a.used", "gtl.a", "K.used", None),
        ("a.unused", "gtl.a", "K.unused", None),
        ("a.gone", "gtl.a", "gone", None),
        ("b.used", "gtl.b", "K.used", None),
    ]
    assert uncalled_traced_targets(targets, sources) == ["a.uncalled", "a.unused", "a.gone", "b.used"]


def test_every_traced_function_is_called_in_gtl():
    # a span on a function nothing calls reads 0 on every workload, and
    # measures nothing
    sources = {p.stem: ast.parse(p.read_text()) for p in SOURCES}
    assert uncalled_traced_targets(spans.TARGETS, sources) == []


def dataclasses_comparing_arrays(trees: list[ast.Module]) -> list[str]:
    """Module-level ``@dataclass`` classes with a field annotated with ``np.ndarray``
    (bare, inside a container or in a union) that do not set ``eq=False``: their
    generated ``__eq__`` compares arrays, which raises on arrays of more than one entry."""

    def mentions_ndarray(annotation: ast.expr) -> bool:
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval").body
        return any(
            isinstance(node, ast.Attribute) and node.attr == "ndarray"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            for node in ast.walk(annotation)
        )

    def is_dataclass(decorator: ast.expr) -> bool:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return isinstance(target, ast.Name) and target.id == "dataclass"

    def eq_false(decorator: ast.expr) -> bool:
        return isinstance(decorator, ast.Call) and any(
            kw.arg == "eq" and isinstance(kw.value, ast.Constant) and kw.value.value is False
            for kw in decorator.keywords
        )

    return [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and any(is_dataclass(d) and not eq_false(d) for d in node.decorator_list)
        and any(isinstance(item, ast.AnnAssign) and mentions_ndarray(item.annotation) for item in node.body)
    ]


def test_dataclasses_comparing_arrays_are_detected():
    trees = [
        ast.parse(
            "from dataclasses import dataclass\n"
            "import numpy as np\n"
            "@dataclass\nclass Bare:\n    a: np.ndarray\n"
            "@dataclass(frozen=True)\nclass Nested:\n    a: dict[int, np.ndarray]\n"
            "@dataclass\nclass Optional:\n    a: np.ndarray | None = None\n"
            "@dataclass\nclass Quoted:\n    a: 'list[np.ndarray]'\n"
            "@dataclass(eq=False)\nclass Identity:\n    a: np.ndarray\n"
            "@dataclass(frozen=True, eq=False)\nclass FrozenIdentity:\n    a: np.ndarray\n"
            "@dataclass\nclass Plain:\n    a: int\n"
            "class NotADataclass:\n    a: np.ndarray\n"
        ),
    ]
    assert dataclasses_comparing_arrays(trees) == ["Bare", "Nested", "Optional", "Quoted"]


def test_no_dataclass_compares_arrays():
    # a record holding arrays compares by identity; a field-wise == raises
    # "truth value of an array ... is ambiguous" on any array of two entries
    trees = [ast.parse(path.read_text()) for path in SOURCES]
    assert dataclasses_comparing_arrays(trees) == []


ENV_READERS = {"environ", "environb", "getenv", "getenvb"}


def environment_reads(tree: ast.Module) -> list[str]:
    """Lines where a module reads the process environment through ``os``."""
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ENV_READERS:
            if isinstance(node.value, ast.Name) and node.value.id == "os":
                hits.append(f"os.{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            hits += [f"from os import {a.name} (line {node.lineno})" for a in node.names if a.name in ENV_READERS]
    return hits


def test_environment_reads_are_detected():
    tree = ast.parse("import os\nfrom os import getenv\nos.environ.get('X')\nos.getenv('Y')\n")
    assert len(environment_reads(tree)) == 3


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_reads_environment_variables(path):
    # Behaviour is set by arguments and options only, never by a hidden env-var knob.
    assert environment_reads(ast.parse(path.read_text())) == []

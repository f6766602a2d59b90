"""Every imported name in the package and its tests is used, every
top-level function and class of the package is referenced somewhere and,
but for a known few, from outside the tests, and the active tape is the
package's only process-wide mutable state."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "abanet").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that no ``ast.Name`` reads.

    The base of an attribute chain (``np`` in ``np.zeros``) is an
    ``ast.Name`` too, so module imports count as used through it.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for imported in node.names:
                name = imported.asname or imported.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, unused


def test_detects_an_unused_import():
    source = "import os\nimport numpy as np\nfrom json import dumps, loads\nnp.zeros(loads)\n"
    assert unused_imports(source) == ["dumps (line 3)", "os (line 1)"]


def module_aliases(tree: ast.AST, package: str) -> set[str]:
    """Names that ``tree`` binds to ``package`` or one of its modules: by
    ``import package.module [as name]``, by ``from package import module``,
    or by assigning such a module to a name, as in
    ``m, enc = abanet.model, abanet.encoder``."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {imported.asname or imported.name.split(".")[0]
                        for imported in node.names
                        if imported.name.split(".")[0] == package}
        elif isinstance(node, ast.ImportFrom) and node.module == package:
            aliases |= {imported.asname or imported.name for imported in node.names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            target, value = node.targets[0], node.value
            pairs = (zip(target.elts, value.elts)
                     if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                     else [(target, value)])
            aliases |= {target.id for target, value in pairs
                        if isinstance(target, ast.Name) and is_module(value, aliases, package)}
    return aliases


def is_module(node: ast.AST, aliases: set[str], package: str) -> bool:
    """Whether ``node`` names a module of the package: an alias, or an
    attribute of the package itself (``abanet.model``)."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return node.value.id == package and package in aliases
    return isinstance(node, ast.Name) and node.id in aliases


def definitions_and_references(sources: dict[str, str], checked: set[str]
                                ) -> tuple[list[tuple[str, str]], dict[str, set[str]]]:
    """Top-level functions and classes of the ``checked`` sources, as
    (label, name), and for every source the names it references outside
    their own definition.  ``sources`` maps a label to source text.

    A name is referenced as a bare name, as an imported name, or as an
    attribute of an ``abanet`` module; numpy's ``np.exp`` or a method call
    ``a.transpose()`` references nothing of the package.
    """
    defined, referenced = [], {}
    for label, source in sources.items():
        tree = ast.parse(source)
        aliases = module_aliases(tree, "abanet")
        referenced[label] = set()
        for statement in tree.body:
            own = statement.name if isinstance(statement, DEFINITIONS) else None
            if own is not None and label in checked:
                defined.append((label, own))
            names = set()
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.ImportFrom):
                    names |= {imported.name for imported in node.names}
                elif isinstance(node, ast.Attribute) and is_module(
                        node.value, aliases, "abanet"):
                    names.add(node.attr)
            referenced[label] |= names - {own}
    return defined, referenced


def unreferenced_definitions(sources: dict[str, str], checked: set[str]) -> list[str]:
    """Definitions of the ``checked`` sources that no source references."""
    defined, referenced = definitions_and_references(sources, checked)
    anywhere = set().union(*referenced.values())
    return [f"{label}: {name}" for label, name in defined if name not in anywhere]


def only_tested_definitions(sources: dict[str, str], checked: set[str],
                            tests: set[str]) -> list[str]:
    """Definitions of the ``checked`` sources that only the ``tests``
    sources reference."""
    defined, referenced = definitions_and_references(sources, checked)
    by_tests = set().union(*(names for label, names in referenced.items()
                             if label in tests))
    elsewhere = set().union(*(names for label, names in referenced.items()
                              if label not in tests))
    return [f"{label}: {name}" for label, name in defined
            if name in by_tests and name not in elsewhere]


def package_sources() -> tuple[dict[str, str], set[str]]:
    """The package, its tests and the benchmark, by relative path, and the
    package's paths."""
    paths = [*SOURCES, *(ROOT / "perfbench").glob("*.py")]
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in paths}
    return sources, {path.relative_to(ROOT).as_posix() for path in PACKAGE}


def test_every_package_definition_is_referenced():
    unreferenced = unreferenced_definitions(*package_sources())
    assert not unreferenced, unreferenced


def test_detects_an_unreferenced_definition():
    package = ("def used():\n    pass\n\n"
               "def recursive(n):\n    return recursive(n - 1)\n\n"
               "class Orphan:\n    pass\n\n"
               "def via_attribute():\n    pass\n")
    caller = "import abanet.pkg as pkg\nused()\npkg.via_attribute()\n"
    sources = {"pkg.py": package, "caller.py": caller}
    assert unreferenced_definitions(sources, {"pkg.py"}) == [
        "pkg.py: recursive", "pkg.py: Orphan"]


def test_numpy_attributes_keep_no_definition_alive():
    """``np.exp`` and ``a.transpose()`` are attributes of numpy and of an
    array, so they keep package ``exp`` and ``transpose`` unreferenced;
    attributes of a module alias, imported or assigned, still count."""
    package = ("def exp(a):\n    pass\n\n"
               "def transpose(a):\n    pass\n\n"
               "def backward(a):\n    pass\n\n"
               "def forward(a):\n    pass\n\n"
               "def step(a):\n    pass\n")
    caller = ("import numpy as np\nimport abanet.pkg\n"
              "from abanet import pkg as module\n\n"
              "def run(a):\n"
              "    m, other = abanet.pkg, np\n"
              "    m.backward(other.exp(a.transpose()))\n"
              "    module.forward(np.exp(a))\n"
              "    return abanet.pkg.step(a)\n")
    sources = {"pkg.py": package, "caller.py": caller}
    assert unreferenced_definitions(sources, {"pkg.py"}) == [
        "pkg.py: exp", "pkg.py: transpose"]


# Package definitions that only the tests use today: file helpers and the
# training loop.
TEST_ONLY = {"load_jsonl", "save_jsonl", "load_embedding_file", "fit"}


def test_no_new_definition_serves_only_the_tests():
    sources, package = package_sources()
    tests = {label for label in sources if label.startswith("tests/")}
    found = only_tested_definitions(sources, package, tests)
    new = [entry for entry in found if entry.split(": ")[1] not in TEST_ONLY]
    assert not new, new


def test_detects_a_test_only_definition():
    package = ("def helper():\n    return shared()\n\n"
               "def shared():\n    pass\n\n"
               "def tested():\n    pass\n\n"
               "def orphan():\n    pass\n")
    test = "from pkg import helper, shared, tested\nhelper()\nshared()\ntested()\n"
    sources = {"pkg.py": package, "tests/test_pkg.py": test}
    assert only_tested_definitions(sources, {"pkg.py"}, {"tests/test_pkg.py"}) == [
        "pkg.py: helper", "pkg.py: tested"]


# The one name the package may rebind with ``global``: which tape records.
ALLOWED_GLOBALS = {"_ACTIVE_TAPE"}


def global_statements(source: str) -> list[str]:
    """Names a ``global`` statement declares, other than the allowed ones."""
    return [f"{name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Global)
            for name in node.names if name not in ALLOWED_GLOBALS]


def test_no_process_wide_state_but_the_tape():
    found = {path.name: names for path in PACKAGE
             if (names := global_statements(path.read_text(encoding="utf-8")))}
    assert not found, found


def test_detects_a_global_statement():
    source = ("_WIDTH = 8\n_ACTIVE_TAPE = None\n\n"
              "def set_width(width):\n    global _WIDTH\n    _WIDTH = width\n\n"
              "def enter(tape):\n    global _ACTIVE_TAPE\n    _ACTIVE_TAPE = tape\n")
    assert global_statements(source) == ["_WIDTH (line 5)"]


# Parameters a function may leave unread, by (function, parameter): the
# initializer protocol passes every init an rng, and a context manager's
# ``__exit__`` receives the exception it does not inspect.
ALLOWED_UNREAD = {("zeros_init", "rng"), ("ones_init", "rng"), ("__exit__", "exc")}


def unread_parameters(source: str) -> list[str]:
    """Parameters of named functions that their body never reads, other
    than the allowed ones.  A read by a nested function or lambda counts."""
    found = []
    functions = [node for node in ast.walk(ast.parse(source))
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in sorted(functions, key=lambda node: node.lineno):
        args = node.args
        params = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                  args.vararg, args.kwarg) if a is not None]
        read = {name.id for statement in node.body for name in ast.walk(statement)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        found += [f"{node.name}({param}) (line {node.lineno})" for param in params
                  if param not in read and (node.name, param) not in ALLOWED_UNREAD]
    return found


def test_every_parameter_is_read():
    found = {path.name: names for path in PACKAGE
             if (names := unread_parameters(path.read_text(encoding="utf-8")))}
    assert not found, found


def test_detects_an_unread_parameter():
    source = ("def build(store, d, heads, *, rng, **extra):\n"
              "    store.create(d, rng=rng)\n\n"
              "class Ctx:\n    def __exit__(self, *exc):\n        pass\n\n"
              "def zeros_init(rng, shape):\n    return shape\n\n"
              "def outer(a, b):\n    return lambda: a\n")
    assert unread_parameters(source) == [
        "build(heads) (line 1)", "build(extra) (line 1)", "__exit__(self) (line 5)",
        "outer(b) (line 11)"]

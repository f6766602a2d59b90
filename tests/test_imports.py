"""Every imported name in the package and its tests is used, every
top-level function and class of the package is referenced somewhere, and
the active tape is the package's only process-wide mutable state."""

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


def unreferenced_definitions(sources: dict[str, str], checked: set[str]) -> list[str]:
    """Top-level functions and classes of the ``checked`` sources that no
    ``ast.Name`` or attribute in any source references outside their own
    definition.  ``sources`` maps a label to source text.
    """
    defined, referenced = [], set()
    for label, source in sources.items():
        for statement in ast.parse(source).body:
            own = statement.name if isinstance(statement, DEFINITIONS) else None
            if own is not None and label in checked:
                defined.append((label, own))
            names = {node.id for node in ast.walk(statement)
                     if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(statement)
                      if isinstance(node, ast.Attribute)}
            referenced |= names - {own}
    return [f"{label}: {name}" for label, name in defined if name not in referenced]


def test_every_package_definition_is_referenced():
    paths = [*SOURCES, *(ROOT / "perfbench").glob("*.py")]
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in paths}
    checked = {path.relative_to(ROOT).as_posix() for path in PACKAGE}
    unreferenced = unreferenced_definitions(sources, checked)
    assert not unreferenced, unreferenced


def test_detects_an_unreferenced_definition():
    package = ("def used():\n    pass\n\n"
               "def recursive(n):\n    return recursive(n - 1)\n\n"
               "class Orphan:\n    pass\n\n"
               "def via_attribute():\n    pass\n")
    caller = "import pkg\nused()\npkg.via_attribute()\n"
    sources = {"pkg.py": package, "caller.py": caller}
    assert unreferenced_definitions(sources, {"pkg.py"}) == [
        "pkg.py: recursive", "pkg.py: Orphan"]


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

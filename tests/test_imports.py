"""Every imported name in the package and its tests is used."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "abanet").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


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

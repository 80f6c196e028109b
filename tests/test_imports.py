"""No module of the package imports a name it never reads.

``mfsim/__init__.py`` is left out: its imports are the package's exports.
An import line that carries ``noqa`` is kept on purpose and is skipped.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mfsim"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unread_imports(source):
    lines = source.splitlines()
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                isinstance(node, ast.ImportFrom) and node.module == "__future__"):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound not in read and "noqa" not in lines[alias.lineno - 1]:
                unread.append(bound)
    return unread


def test_every_module_reads_every_name_it_imports():
    unread = {p.name: unread_imports(p.read_text()) for p in MODULES}
    assert {name: names for name, names in unread.items() if names} == {}


def test_check_sees_an_unread_import():
    source = "import json\nfrom os import path, sep  # noqa\nimport numpy as np\nnp.pi\n"
    assert unread_imports(source) == ["json"]

"""No module of the package or of its tests imports a name it never reads.

``mfsim/__init__.py`` is left out: its imports are the package's exports.
An import line that carries ``noqa`` is kept on purpose and is skipped.
Only ``feedback`` reads the layout of a round's code, and only it reduces an angle mod pi.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([p for p in (ROOT / "src" / "mfsim").glob("*.py") if p.name != "__init__.py"]
                 + list((ROOT / "tests").glob("*.py")))


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
    unread = {str(p.relative_to(ROOT)): unread_imports(p.read_text()) for p in MODULES}
    assert {name: names for name, names in unread.items() if names} == {}


def test_check_sees_an_unread_import():
    source = "import json\nfrom os import path, sep  # noqa\nimport numpy as np\nnp.pi\n"
    assert unread_imports(source) == ["json"]


def names_read(source):
    """Every name a module reads, imports or reads as an attribute."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names})


def test_round_codes_are_read_in_feedback_alone():
    package = {p.name: names_read(p.read_text()) for p in (ROOT / "src" / "mfsim").glob("*.py")}
    assert {name: sorted(m for m, names in package.items() if name in names)
            for name in ("_ROW_BITS", "_ROW_MASK")} == {"_ROW_BITS": ["feedback.py"],
                                                        "_ROW_MASK": ["feedback.py"]}
    assert package["harness.py"] & {"RoundRecord", "frame_of_key"} == set()


def test_the_angle_rule_is_read_in_feedback_alone():
    package = {p.name: names_read(p.read_text()) for p in (ROOT / "src" / "mfsim").glob("*.py")}
    assert {name: sorted(m for m, names in package.items() if name in names)
            for name in ("remainder", "_ANGLE_TOL")} == {"remainder": ["feedback.py"],
                                                         "_ANGLE_TOL": ["feedback.py"]}

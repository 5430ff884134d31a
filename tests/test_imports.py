"""Every module-level import in the library is used by its module, and
only linalg and rings read which vector format the field uses."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gradedalg"
# __init__ imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_check_sees_an_unused_import():
    assert _unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == \
        [(1, "os"), (2, "dumps")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert _unused_imports(path.read_text()) == []


# linalg owns the vector format; rings builds product columns in it
FORMAT_OWNERS = {"linalg.py", "rings.py"}


def _packed_reads(source):
    """The lines that read an attribute named packed."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr == "packed"
                  and isinstance(node.ctx, ast.Load))


def test_the_check_sees_a_packed_read():
    assert _packed_reads("x = field.packed\nfield.packed = True\nif f.packed: pass\n") == [1, 3]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in FORMAT_OWNERS],
                         ids=lambda p: p.name)
def test_only_linalg_and_rings_read_the_vector_format(path):
    assert _packed_reads(path.read_text()) == []

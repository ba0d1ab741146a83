import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "germlab"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so no check in the package may be one
    modules = sorted(SRC.glob("*.py"))
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert modules and not found, found


def test_elements_are_their_own_keys():
    # balls, specs and searches key elements by == and hash, so no module
    # keeps a second identity beside them
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if (isinstance(node, ast.FunctionDef) and node.name == "canonical_key")
        or (isinstance(node, ast.Attribute) and node.attr == "canonical_key")
    ]
    assert not found, found

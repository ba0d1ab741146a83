import ast
import os
import subprocess
import sys
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


def test_cli_import_loads_no_dataclasses_or_inspect():
    # dataclasses pulls in inspect, ast and dis: about half of a fresh
    # process's `import germlab.cli` (0.017 s with them, 0.0095 s without, on
    # a 2-vCPU host with Python 3.11), which perfbench's setup_s pays on every
    # run; argparse is only needed once main() builds the parser
    code = ("import sys, germlab.cli; "
            "print(sorted({'dataclasses', 'inspect', 'argparse'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _definitions():
    """(module file, qualified name, node) for every class and function in src/."""
    def walk(path, prefix, body):
        for node in body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                name = prefix + node.name
                yield path.name, name, node
                yield from walk(path, name + ".", node.body)

    for path in sorted(SRC.glob("*.py")):
        yield from walk(path, "", ast.parse(path.read_text(), str(path)).body)


def test_only_immutable_defines_setattr():
    # the immutability guard is written once, in kernel.Immutable
    found = [(module, name) for module, name, node in _definitions()
             if isinstance(node, ast.FunctionDef) and name.endswith(".__setattr__")]
    assert found == [("kernel.py", "Immutable.__setattr__")]


def test_budget_errors_are_raised_in_two_places():
    # every count-before gate goes through kernel.check_budget; only the ball
    # walk checks inside its loop, where its message names the radius
    found = [
        (module, name)
        for module, name, node in _definitions()
        if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "BudgetError"
    ]
    assert sorted(found) == [("chabauty.py", "_walk"), ("kernel.py", "check_budget")]

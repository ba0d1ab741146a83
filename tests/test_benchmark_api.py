"""The names the benchmark in perfbench/ reads from germlab.

perfbench imports kernels, generators and helpers from src/ and reads a
few fields of their results.  Resolving them here lets a refactor that
drops or reshapes one fail in the fast tests, not only in the benchmark's
own slow run.
"""

import ast
import importlib
import inspect
import pathlib
from fractions import Fraction

from germlab import chabauty
from germlab.cantorv import Cylinders
from germlab.fullgroups import Clopen, FullGroupElement, gamma_tv
from germlab.plcircle import F_GROUP
from germlab.scalars import Dyadic, QuadExt

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _germlab_imports():
    """(file, module, name) for each `from germlab... import name`."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("germlab"):
                for alias in node.names:
                    yield path.name, node.module, alias.name


def _traced_spans():
    """The span names of layers.SPAN_METRICS, like "cantorv.PrefixMap.__mul__"."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "SPAN_METRICS":
            return [span for _, span, _ in ast.literal_eval(node.value)]
    raise AssertionError("layers.py has no SPAN_METRICS")


def _module_attributes():
    """(file, module, attr) for each `module.attr` read in perfbench, where
    module came from `from germlab import module`."""
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "germlab"
                   for alias in node.names}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in modules):
                yield path.name, node.value.id, node.attr


def _counted():
    """(owner expression, attribute) of each layers.COUNTED entry."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "COUNTED":
            return [(ast.unparse(owner), ast.literal_eval(attr)) for owner, attr, _ in
                    (entry.elts for entry in node.value.elts)]
    raise AssertionError("layers.py has no COUNTED")


def test_perfbench_imports_resolve():
    found = set()
    for source, module, name in _germlab_imports():
        if module == "germlab":  # from germlab import cantorv, ...
            importlib.import_module("germlab." + name)
        else:
            assert hasattr(importlib.import_module(module), name), (source, module, name)
        found.add("%s.%s" % (module, name))
    assert {"germlab.fullgroups.Clopen", "germlab.fullgroups.gamma_tv",
            "germlab.suites.spell"} <= found


def test_traced_spans_resolve():
    spans = _traced_spans()
    assert "fullgroups.FullGroupElement.__mul__" in spans
    for span in spans:
        module, *path = span.split(".")
        owner = importlib.import_module("germlab." + module)
        for attr in path:
            owner = getattr(owner, attr)
        assert callable(owner), span


def test_full_group_tables_are_shift_piece_pairs():
    assert Clopen is Cylinders
    g = gamma_tv(1, Clopen.of("0")) * gamma_tv(2, Clopen.of("11"))
    for element in (g, g.inverse(), FullGroupElement.identity()):
        assert element.table
        for shift, piece in element.table:
            assert type(shift) is int and isinstance(piece, Cylinders)
            assert all(isinstance(w, str) for w in piece.words)
    assert (g * g.inverse()).is_identity()


def test_perfbench_module_attributes_resolve():
    found = set()
    for source, module, attr in _module_attributes():
        assert hasattr(importlib.import_module("germlab." + module), attr), (source, module, attr)
        found.add("%s.%s" % (module, attr))
    assert {"chabauty.BudgetError", "scalars.Dyadic", "scalars.QuadExt"} <= found
    assert issubclass(chabauty.BudgetError, Exception)


def test_counted_constructors_are_defined_on_their_classes():
    counted = _counted()
    assert ("scalars.Dyadic", "__init__") in counted and ("scalars.QuadExt", "__init__") in counted
    for owner, attr in counted:
        module, name = owner.split(".")
        cls = getattr(importlib.import_module("germlab." + module), name)
        # the tracer replaces the class's own entry, so it must not be inherited
        assert attr in vars(cls), owner


def test_scalar_rows_run():
    # the fixed rows time x + y, x < y, p * q and q.sign on these inputs
    for cls, attr in ((Dyadic, "__add__"), (Dyadic, "__lt__"), (QuadExt, "__mul__"),
                      (QuadExt, "sign")):
        assert attr in vars(cls), (cls.__name__, attr)
    x, y = Dyadic(3, 5), Dyadic(7, 6)
    p, q = QuadExt(Fraction(1, 3), 2), QuadExt(5, Fraction(-7, 2))
    assert x + y == Fraction(3, 32) + Fraction(7, 64) and x < y
    assert p * q == QuadExt(Fraction(5, 3) - 14, Fraction(-7, 6) + 10)
    assert q.sign() == 1


def test_ball_takes_the_group_and_radius_first():
    # layers.ball_hook reads args[0].gens, args[1] and the result's words
    group, radius, *_ = inspect.signature(chabauty.ball).parameters.values()
    assert (group.name, radius.name) == ("group", "radius")
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in (group, radius))
    built = chabauty.ball(F_GROUP, 2)
    assert len(built) == len(built.words) == 17 and set(F_GROUP.gens) == set("abAB")

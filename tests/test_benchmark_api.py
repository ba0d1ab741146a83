"""The names the benchmark in perfbench/ reads from germlab.

perfbench imports kernels, generators and helpers from src/ and reads a
few fields of their results.  Resolving them here lets a refactor that
drops or reshapes one fail in the fast tests, not only in the benchmark's
own slow run.
"""

import ast
import importlib
import pathlib

from germlab.cantorv import Cylinders
from germlab.fullgroups import Clopen, FullGroupElement, gamma_tv

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

"""Per-layer metrics of the traced run, named after germlab's modules.

Two sources feed them.  The span aggregates of one traced pass give call
counts (``<module>.<op>_n``), self times (``<op>_self_s``) and, through
hooks on the results, element sizes (``_max``) and ball statistics.
Fixed-input rows (``_ns``/``_us``/``_ms``/``_s``) time one operation on
inputs that never change, with tracing off, as the median over repeats.
"""

import statistics
import time
from fractions import Fraction

from germlab import cantorv, chabauty, fullgroups, plcircle, projline, scalars, suites, treesgff
from germlab.cantorv import GEN_PI0, GEN_VA, GEN_VB, GEN_VC, Cylinders
from germlab.chabauty import ball, conjugate_net_probe, element_budget
from germlab.fullgroups import Clopen, FullGroupElement, gamma_tv
from germlab.plcircle import GEN_A, GEN_B, expanding_conjugator
from germlab.projline import LM_A, LM_B, LM_C
from germlab.scalars import Dyadic, QuadExt
from germlab.suites import spell
from germlab.treesgff import PermGroupPair, TreeAut, alternating_perms, cyclic_perms, halftree_permuter

from workloads import marked_groups, net_specs

TRACED_MODULES = (plcircle, cantorv, projline, treesgff, fullgroups, chabauty, suites)
# scalar constructions are counted, not spanned (see tracer.py)
COUNTED = (
    (scalars.Dyadic, "__init__", "scalars.dyadic_new"),
    (scalars.QuadExt, "__init__", "scalars.quad_new"),
)

# span-derived metrics: (metric, span name, field)
SPAN_METRICS = [
    ("plcircle.compose", "plcircle.PLMap.__mul__", ("n", "self_s")),
    ("plcircle.inverse", "plcircle.PLMap.inverse", ("n", "self_s")),
    ("plcircle.eval", "plcircle.PLMap.__call__", ("n", "self_s")),
    ("plcircle.arc_image", "plcircle.ArcSet.image", ("self_s",)),
    ("cantorv.compose", "cantorv.PrefixMap.__mul__", ("n", "self_s")),
    ("cantorv.inverse", "cantorv.PrefixMap.inverse", ("self_s",)),
    ("cantorv.eval", "cantorv.PrefixMap.__call__", ("self_s",)),
    ("cantorv.germ_class", "cantorv.germ_class", ("self_s",)),
    ("projline.compose", "projline.PPMap.__mul__", ("n", "self_s")),
    ("projline.inverse", "projline.PPMap.inverse", ("self_s",)),
    ("projline.mobius_mul", "projline.Mobius.__mul__", ("n",)),
    ("treesgff.compose", "treesgff.TreeAut.__mul__", ("n", "self_s")),
    ("treesgff.local_perm", "treesgff.TreeAut.local_perm", ("n", "self_s")),
    ("treesgff.act_on", "treesgff.TreeAut.act_on", ("n", "self_s")),
    ("fullgroups.compose", "fullgroups.FullGroupElement.__mul__", ("n", "self_s")),
    ("fullgroups.clopen_complement", "fullgroups.Clopen.complement", ("self_s",)),
    ("fullgroups.schreier", "fullgroups.schreier_patch", ("self_s",)),
    ("chabauty.ball", "chabauty.ball", ("n", "self_s")),
    ("chabauty.contains", "chabauty.SubgroupSpec.contains", ("n", "self_s")),
]
KEY_SUFFIX = ".canonical_key"

SUITE_NAMES = (
    "chabauty-net", "gff-cocycle", "gff-levels", "fullgroup-qi", "germ-ff",
    "compress", "micro-support", "v-germs", "neumann", "proj-bn",
)

# fixed-input row names, with the unit each is reported in
ROW_UNITS = {
    "scalars.dyadic_add_ns": "ns", "scalars.dyadic_cmp_ns": "ns",
    "scalars.quad_mul_ns": "ns", "scalars.quad_sign_ns": "ns",
    "cantorv.cylinders_complement_us": "us",
    "fullgroups.clopen_complement_d8_ms": "ms", "fullgroups.gamma_tv_d8_ms": "ms",
    "chabauty.ball_F5_ms": "ms", "chabauty.ball_V4_ms": "ms", "chabauty.ball_LM3_ms": "ms",
    "chabauty.net_probe_r4_s": "s",
}
ROW_UNITS.update(
    ("%s.%s_%s" % (kernel, op, size), size[-2:])
    for kernel in ("plcircle", "cantorv", "projline", "treesgff", "fullgroups")
    for op in ("compose", "inverse")
    for size in ("small_us", "large_ms")
)


def metric_units():
    """Every per-layer metric name, with its unit, in a fixed order."""
    units = {}
    for metric, _, fields in SPAN_METRICS:
        for field in fields:
            units["%s_%s" % (metric, field)] = "count" if field == "n" else "s"
    units.update({
        "scalars.dyadic_new": "count", "scalars.quad_new": "count",
        "plcircle.pieces_max": "count", "cantorv.rules_max": "count",
        "projline.breaks_max": "count", "treesgff.portrait_max": "count",
        "fullgroups.compose_cells": "count", "fullgroups.pieces_max": "count",
        "chabauty.ball_elements": "count", "chabauty.ball_new_ratio": "ratio",
        "chabauty.ball_distinct_ratio": "ratio", "chabauty.key_n": "count",
        "chabauty.key_self_s": "s", "chabauty.budget_headroom": "ratio",
        "chabauty.budget_errors": "count",
    })
    units.update(("suites.%s_s" % name, "s") for name in SUITE_NAMES)
    units.update(ROW_UNITS)
    units["cli.import_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


# -- hooks: element sizes and ball statistics ----------------------------------


class Observations:
    """Sizes seen on kernel results and balls, filled by tracer hooks."""

    def __init__(self):
        self.max = {"plcircle": 0, "cantorv": 0, "projline": 0, "treesgff": 0, "fullgroups": 0}
        self.compose_cells = 0
        self.balls = []  # (distinct key, size, new elements, candidates)
        self.budget_errors = 0

    def _grow(self, layer, size):
        if size > self.max[layer]:
            self.max[layer] = size

    def hooks(self):
        def sized(layer, size):
            def hook(args, result, exc):
                if result is not None and result is not NotImplemented:
                    self._grow(layer, size(result))
            return hook

        def full_compose(args, result, exc):
            # refinement_length() of each factor, read off the tables so
            # that no traced method runs inside the hook
            length = max(
                max((len(w) for _, piece in g.table for w in piece.words), default=0)
                for g in args[:2]
            )
            self.compose_cells += 1 << length
            if result is not None and result is not NotImplemented:
                self._grow("fullgroups", len(result.table))

        def ball_hook(args, result, exc):
            if isinstance(exc, chabauty.BudgetError):
                self.budget_errors += 1
            if result is None:
                return
            group, radius = args[0], args[1]
            labels = len(group.gens)
            # the frontier of round r holds the elements of word length r
            candidates = sum(labels for w in result.words if len(w) < radius)
            key = (frozenset(group.gens.items()), radius)
            self.balls.append((key, len(result), len(result) - 1, candidates))

        return {
            "plcircle.PLMap.__mul__": sized("plcircle", lambda r: len(r.pieces)),
            "cantorv.PrefixMap.__mul__": sized("cantorv", lambda r: len(r.rules)),
            "projline.PPMap.__mul__": sized("projline", lambda r: len(r.breaks)),
            "treesgff.TreeAut.__mul__": sized("treesgff", lambda r: len(r.portrait)),
            "fullgroups.FullGroupElement.__mul__": full_compose,
            "chabauty.ball": ball_hook,
        }


def span_metrics(stats, counts, seen):
    """Per-layer metrics from one traced pass."""
    out = {}
    for metric, span, fields in SPAN_METRICS:
        row = stats.get(span, {"n": 0, "self_s": 0.0})
        for field in fields:
            out["%s_%s" % (metric, field)] = row[field]
    keys = [row for name, row in stats.items() if name.endswith(KEY_SUFFIX)]
    out["chabauty.key_n"] = sum(row["n"] for row in keys)
    out["chabauty.key_self_s"] = sum(row["self_s"] for row in keys)
    out.update(counts)
    out["plcircle.pieces_max"] = seen.max["plcircle"]
    out["cantorv.rules_max"] = seen.max["cantorv"]
    out["projline.breaks_max"] = seen.max["projline"]
    out["treesgff.portrait_max"] = seen.max["treesgff"]
    out["fullgroups.pieces_max"] = seen.max["fullgroups"]
    out["fullgroups.compose_cells"] = seen.compose_cells
    balls = seen.balls
    candidates = sum(b[3] for b in balls)
    out["chabauty.ball_elements"] = sum(b[1] for b in balls)
    out["chabauty.ball_new_ratio"] = sum(b[2] for b in balls) / candidates if candidates else 0.0
    out["chabauty.ball_distinct_ratio"] = len({b[0] for b in balls}) / len(balls) if balls else 0.0
    out["chabauty.budget_headroom"] = max((b[1] for b in balls), default=0) / element_budget()
    out["chabauty.budget_errors"] = seen.budget_errors
    return out


# -- fixed-input rows ------------------------------------------------------------

def _per_call(fn, repeats=5, min_s=0.02):
    """Median seconds per call over ``repeats`` timings of at least ``min_s``,
    and the last result."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            result = fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_s:
            break
        number *= 2
    samples = [elapsed / number]
    for _ in range(repeats - 1):
        start = time.perf_counter()
        for _ in range(number):
            result = fn()
        samples.append((time.perf_counter() - start) / number)
    return statistics.median(samples), result


FIXED = {
    "full": {"clopen_depth": 8, "cylinder_depth": 256, "balls": (("F", 5), ("V", 4), ("LM", 3)),
             "net_radius": 4, "net": 10, "large_len": 10},
    "tiny": {"clopen_depth": 4, "cylinder_depth": 16, "balls": (("F", 3), ("V", 2), ("LM", 2)),
             "net_radius": 2, "net": 3, "large_len": 3},
}


def _kernel_inputs(large_len):
    """(small, large) element of each kernel; large is a fixed long word."""
    v = {"a": GEN_VA, "b": GEN_VB, "c": GEN_VC, "p": GEN_PI0}
    lm = {"a": LM_A, "b": LM_B, "c": LM_C}
    pair = PermGroupPair(5, cyclic_perms(5), alternating_perms(5))
    perm = (0, 2, 3, 1, 4)  # an even permutation fixing color 0
    tree_gens = [halftree_permuter(pair, (c, (c + 1) % 5), 0, perm) for c in range(5)]
    tree_large = TreeAut.identity(pair)
    for i in range(large_len):
        tree_large = tree_large * tree_gens[i % 5]
    full_gens = [gamma_tv(1, Clopen.of("0")), gamma_tv(1, Clopen.of("01")), gamma_tv(2, Clopen.of("11"))]
    full_large = FullGroupElement.identity()
    for i in range(large_len):
        full_large = full_large * full_gens[i % 3]
    word = "bcpa"
    return {
        "plcircle": ((GEN_A, GEN_B), (expanding_conjugator(large_len), GEN_A)),
        "cantorv": ((GEN_VA, GEN_VB), (spell(v, (word * large_len)[:large_len]), GEN_VC)),
        "projline": ((LM_B, LM_C), (spell(lm, ("bc" * large_len)[:large_len]), LM_B)),
        "treesgff": ((tree_gens[0], tree_gens[1]), (tree_large, tree_gens[2])),
        "fullgroups": ((full_gens[0], full_gens[1]), (full_large, full_gens[2])),
    }


def fixed_rows(size):
    """Time every fixed-input row; return (metrics, checked outputs).

    Rows keep their full-size names at the tiny size too.
    """
    cfg = FIXED[size]
    rows, outputs = {}, {}

    def row(name, scale, fn, repeats=5):
        seconds, result = _per_call(fn, repeats)
        rows[name] = seconds * scale
        return result

    x, y = Dyadic(3, 5), Dyadic(7, 6)
    p, q = QuadExt(Fraction(1, 3), 2), QuadExt(5, Fraction(-7, 2))
    row("scalars.dyadic_add_ns", 1e9, lambda: x + y)
    row("scalars.dyadic_cmp_ns", 1e9, lambda: x < y)
    row("scalars.quad_mul_ns", 1e9, lambda: p * q)
    row("scalars.quad_sign_ns", 1e9, q.sign)

    for kernel, ((f, g), (big, h)) in _kernel_inputs(cfg["large_len"]).items():
        row(kernel + ".compose_small_us", 1e6, lambda: f * g)
        row(kernel + ".inverse_small_us", 1e6, f.inverse)
        row(kernel + ".compose_large_ms", 1e3, lambda: big * h)
        row(kernel + ".inverse_large_ms", 1e3, big.inverse)

    depth = cfg["cylinder_depth"]
    row("cantorv.cylinders_complement_us", 1e6, Cylinders.of(("01" * depth)[:depth]).complement)
    clopen = Clopen.of(("01101001" * cfg["clopen_depth"])[:cfg["clopen_depth"]])
    complement = row("fullgroups.clopen_complement_d8_ms", 1e3, clopen.complement, repeats=3)
    outputs["row:clopen-complement"] = {"words": len(complement.words)}
    row("fullgroups.gamma_tv_d8_ms", 1e3, lambda: gamma_tv(1, clopen), repeats=3)

    groups = marked_groups()
    for (name, radius), (full_name, full_radius) in zip(cfg["balls"], FIXED["full"]["balls"]):
        built = row("chabauty.ball_%s%d_ms" % (full_name, full_radius), 1e3,
                    lambda: ball(groups[name], radius), repeats=3)
        outputs["row:ball:%s:%d" % (name, radius)] = {"size": len(built)}

    h_spec, limit = net_specs()
    net = [expanding_conjugator(n) for n in range(1, cfg["net"] + 1)]
    start = time.perf_counter()
    report = conjugate_net_probe(groups["F"], h_spec, net, limit, cfg["net_radius"])
    rows["chabauty.net_probe_r4_s"] = time.perf_counter() - start
    outputs["row:net-probe"] = {k: report[k] for k in ("stabilizes_at", "target_size", "matches")}
    return rows, outputs

"""The three benchmark workloads and the items one pass of each runs.

``build(name, seed, size)`` is the set-up the benchmark times as
``setup_s``: it makes every input from the seed (generator tables, marked
groups, conjugator nets, pre-drawn words) and returns the items of one
pass, in the order they run.  An item is a callable that returns a
JSON-able output and raises ``ItemFailed`` when one of the program's own
checks fails; the runner compares outputs with ``reference.json``.

An item whose output depends on the seed is marked ``seeded``: its
reference is recorded at the default seed and only checked there.  Every
other output must equal the reference at every seed.

Elements are spelled inside the pass, never in set-up, so no kernel-side
cache (``TreeAut`` memoises local permutations) carries over from one
pass to the next and every pass does the same work.
"""

import hashlib
import random
from collections import namedtuple

from germlab.cantorv import GEN_PI0, GEN_VA, GEN_VB, GEN_VC, Cylinders
from germlab.chabauty import (
    MarkedGroup,
    SubgroupSpec,
    ball,
    chabauty_agree_radius,
)
from germlab.fullgroups import Clopen, FullGroupElement, gamma_tv
from germlab.plcircle import GEN_A, GEN_B, GEN_C, ArcSet, identity, in_derived_F
from germlab.projline import LM_A, LM_B, LM_C, PPMap
from germlab.scalars import Dyadic
from germlab.suites import run_suite, spell
from germlab.treesgff import (
    PermGroupPair,
    TreeAut,
    alternating_perms,
    cyclic_perms,
    halftree_permuter,
    perm_identity,
)

# chabauty-net draws nothing at random, so it always runs at this seed
NET_SEED = 0

Item = namedtuple("Item", "id run seeded")


class ItemFailed(Exception):
    """A check inside an item failed; carries the counterexample."""

    def __init__(self, **witness):
        super().__init__("check failed: %r" % (witness,))
        self.witness = witness


def _table(**gens):
    """Generator table: lowercase letters and their uppercase inverses."""
    out = {}
    for label, g in gens.items():
        out[label] = g
        out[label.upper()] = g.inverse()
    return out


def _word(rng, letters, length):
    """A freely reduced word: no letter is followed by its inverse."""
    out = ""
    for _ in range(length):
        out += rng.choice([x for x in letters if not out or x != out[-1].swapcase()])
    return out


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _checked_suite(name, config, seed):
    report = run_suite(name, config, seed=seed)
    if not report.all_pass():
        raise ItemFailed(failed=[c["id"] for c in report.checks if c["status"] != "pass"])
    return report


# -- kernel-laws ---------------------------------------------------------------

KERNEL_LAWS = {
    # words per family; C1 runs 500, and all six families scale together
    "full": {"words": 60, "max_len": 10},
    "tiny": {"words": 3, "max_len": 4},
}

_TREE_DEGREE = 5


def _law_battery(family, elements, ident):
    """Inverse, two-sided identity and associativity on consecutive triples."""
    recent = []
    for i, g in enumerate(elements):
        if g * g.inverse() != ident:
            raise ItemFailed(family=family, word=i, law="inverse")
        if ident * g != g or g * ident != g:
            raise ItemFailed(family=family, word=i, law="identity")
        recent.append(g)
        if len(recent) == 3:
            f, h, k = recent
            if (f * h) * k != f * (h * k):
                raise ItemFailed(family=family, word=i, law="associativity")
            recent = recent[1:]
    return {"verdict": "pass", "words": len(elements)}


def _spelled_family(family, gens, words, ident):
    def run():
        return _law_battery(family, [spell(gens, w) for w in words], ident)

    return Item("laws:" + family, run, False)


def _tree_factor_spec(rng, pair, max_len):
    """A random tree generator, as data: built afresh in every pass."""
    def vertex():
        v = ()
        for _ in range(rng.randrange(max_len + 1)):
            v += (rng.choice([c for c in range(pair.degree) if not v or v[-1] != c]),)
        return v

    kind = rng.randrange(3)
    if kind == 0:
        return ("constant", rng.choice(sorted(pair.small)))
    if kind == 1:
        return ("translate", vertex())
    m = vertex()
    ident = perm_identity(pair.degree)
    for c in range(pair.degree):
        perms = [p for p in sorted(pair.large) if p[c] == c and p != ident]
        if perms:
            return ("halftree", m, c, rng.choice(perms))
    raise ValueError("large group fixes no color")


def _tree_factor(pair, spec):
    kind = spec[0]
    if kind == "constant":
        return TreeAut.constant(pair, spec[1])
    if kind == "translate":
        return TreeAut(pair, spec[1], {(): perm_identity(pair.degree)})
    return halftree_permuter(pair, *spec[1:])


def _tree_family(pair, words):
    def run():
        ident = TreeAut.identity(pair)
        elements = []
        for word in words:
            g = ident
            for spec, invert in word:
                h = _tree_factor(pair, spec)
                g = g * (h.inverse() if invert else h)
            elements.append(g)
        return _law_battery("tree", elements, ident)

    return Item("laws:tree", run, False)


def _fullgroup_pool():
    pool = []
    for v in ("0", "1", "00", "01", "10", "11"):
        for t in (1, 2, 3, -1):
            try:
                pool.append(gamma_tv(t, Clopen.of(v)))
            except ValueError:
                continue
    return pool


def _full_family(pool, words):
    def run():
        elements = []
        for word in words:
            g = FullGroupElement.identity()
            for index, exponent in word:
                g = g * pool[index] ** exponent
            elements.append(g)
        return _law_battery("full", elements, FullGroupElement.identity())

    return Item("laws:full", run, False)


def _kernel_laws(seed, size):
    cfg = KERNEL_LAWS[size]
    n, max_len = cfg["words"], cfg["max_len"]
    rng = random.Random("kernel-laws:%d" % seed)
    pl = _table(a=GEN_A, b=GEN_B, c=GEN_C)
    v = _table(a=GEN_VA, b=GEN_VB, c=GEN_VC, p=GEN_PI0)
    lm = _table(a=LM_A, b=LM_B, c=LM_C)
    pair = PermGroupPair(_TREE_DEGREE, cyclic_perms(_TREE_DEGREE), alternating_perms(_TREE_DEGREE))
    pool = _fullgroup_pool()
    # every length 1..max_len equally often: random lengths would make the
    # work of a pass (and so its time) swing widely from seed to seed
    lengths = [1 + i % max_len for i in range(n)]
    words = {
        "F": [_word(rng, "abAB", k) for k in lengths],
        "T": [_word(rng, "abcABC", k) for k in lengths],
        "V": [_word(rng, "abcpABCP", k) for k in lengths],
        "LM": [_word(rng, "abcABC", k) for k in lengths],
    }
    tree_words = [
        [(_tree_factor_spec(rng, pair, 5), rng.random() < 0.5) for _ in range(k)]
        for k in lengths
    ]
    full_words = [
        [(rng.randrange(len(pool)), rng.choice((-1, 1))) for _ in range(k)]
        for k in lengths
    ]
    return [
        _spelled_family("F", pl, words["F"], identity()),
        _spelled_family("T", pl, words["T"], identity()),
        _spelled_family("V", v, words["V"], spell(v, "aA")),
        _spelled_family("LM", lm, words["LM"], PPMap.identity()),
        _tree_family(pair, tree_words),
        _full_family(pool, full_words),
    ]


# -- chabauty-probes -----------------------------------------------------------

CHABAUTY_PROBES = {
    "full": {"net": None, "c6_radii": (3, 4), "balls": (("F", 5), ("V", 4), ("LM", 3)), "agree": 4},
    "tiny": {"net": {"radius": 2, "net": 3}, "c6_radii": (2,), "balls": (("F", 3), ("V", 2), ("LM", 2)), "agree": 2},
}


def marked_groups():
    """The three marked groups whose balls the benchmark enumerates."""
    return {
        "F": MarkedGroup({"a": GEN_A, "b": GEN_B}),
        "V": MarkedGroup({"a": GEN_VA, "b": GEN_VB, "c": GEN_VC, "p": GEN_PI0}),
        "LM": MarkedGroup({"a": LM_A, "b": LM_B, "c": LM_C}),
    }


def net_specs():
    """C6's specs: support in [1/2, 1], and its predicted limit, germ at 0."""
    half = ArcSet.of((Dyadic(1, 2), Dyadic(1, 1)))
    return SubgroupSpec.support_inside(half), SubgroupSpec.identity_germ_at(Dyadic(0))


def _chabauty_probes(seed, size):
    # every probe is deterministic, so the seed is unused here
    cfg = CHABAUTY_PROBES[size]
    groups = marked_groups()
    h_spec, limit = net_specs()

    def net_suite():
        report = _checked_suite("chabauty-net", cfg["net"], NET_SEED)
        net = {c["id"]: c["witness"] for c in report.checks}["stabilization"]
        return {
            "sha256": _sha(report.to_bytes()),
            "net": {k: net[k] for k in ("stabilizes_at", "target_size", "matches")},
        }

    def germ_vs_derived():
        checked = {}
        for radius in cfg["c6_radii"]:
            elements = ball(groups["F"], radius).elements
            for i, element in enumerate(elements):
                if limit.contains(element) != in_derived_F(element):
                    raise ItemFailed(radius=radius, element=i)
            checked[str(radius)] = len(elements)
        return {"checked": checked}

    def ball_item(name, radius):
        def run():
            return {"size": len(ball(groups[name], radius))}

        return Item("ball:%s:%d" % (name, radius), run, False)

    def agree():
        r = cfg["agree"]
        return {"agree_radius": chabauty_agree_radius(h_spec, limit, groups["F"], r)}

    return [
        Item("suite:chabauty-net", net_suite, False),
        Item("c6:germ-vs-derived", germ_vs_derived, False),
        *(ball_item(name, radius) for name, radius in cfg["balls"]),
        Item("agree:F:%d" % cfg["agree"], agree, False),
    ]


# -- region-dynamics -----------------------------------------------------------

REGION_DYNAMICS = {
    # acceptance sizes (C2-C5, C7, C8), except that the cocycle check runs
    # 100 pairs where C7 runs 500: at 500 it is over half of a pass, and a
    # pass short enough to repeat four times in a run keeps wall_s steady on
    # a shared host.  proj-bn keeps its default words so long projective
    # words stay in kernel-laws; v-germs has no criterion
    "full": {
        "suites": {
            "gff-cocycle": {"pairs": 100, "depth": 5, "elliptic": 50},
            "gff-levels": {"depth": 4, "max_dist": 4},
            "fullgroup-qi": {"radius_c0": 800, "radius_c01": 1600},
            "germ-ff": {"commutators": 200, "length": 6},
            "compress": {"instances": 50, "depth": 4},
            "micro-support": {"instances": 80, "length": 4},
            "v-germs": {},
            "neumann": {"n_max": 8, "r_max": 4},
            "proj-bn": {"n_max": 10},
        },
        "clopen_depth": 8,
        "cylinder_depth": 256,
    },
    "tiny": {
        "suites": {
            "gff-cocycle": {"pairs": 6, "elliptic": 4},
            "gff-levels": {"depth": 2},
            "fullgroup-qi": {"radius_c0": 80, "radius_c01": 160},
            "germ-ff": {"commutators": 10},
            "compress": {"instances": 8},
            "micro-support": {"instances": 4},
            "v-germs": {"samples": 20},
            "neumann": {},
            "proj-bn": {"n_max": 4, "words": 8},
        },
        "clopen_depth": 4,
        "cylinder_depth": 16,
    },
}


def _bits(rng, n):
    return "".join(rng.choice("01") for _ in range(n))


def _complement_check(name, region, complement):
    if not region.disjoint_from(complement):
        raise ItemFailed(op=name, reason="complement meets the region")
    if not region.union(complement).is_full():
        raise ItemFailed(op=name, reason="region and complement miss a point")


def _region_dynamics(seed, size):
    cfg = REGION_DYNAMICS[size]
    rng = random.Random("region-dynamics:%d" % seed)
    clopen_word = _bits(rng, cfg["clopen_depth"])
    cylinder_word = _bits(rng, cfg["cylinder_depth"])

    def suite_item(name, config):
        def run():
            return {"sha256": _sha(_checked_suite(name, config, seed).to_bytes())}

        return Item("suite:" + name, run, True)

    items = [suite_item(name, config) for name, config in cfg["suites"].items()]

    def clopen_complement():
        region = Clopen.of(clopen_word)
        complement = region.complement()
        _complement_check("Clopen.complement", region, complement)
        return {"words": len(complement.words)}

    def gamma():
        g = gamma_tv(1, Clopen.of(clopen_word))
        if not (g * g.inverse()).is_identity():
            raise ItemFailed(op="gamma_tv", reason="g * g^-1 is not the identity")
        return {"pieces": len(g.table)}

    def cylinders_complement():
        region = Cylinders.of(cylinder_word)
        complement = region.complement()
        _complement_check("Cylinders.complement", region, complement)
        return {"words": len(complement.words)}

    depth, deep = cfg["clopen_depth"], cfg["cylinder_depth"]
    return items + [
        Item("clopen-complement:d%d" % depth, clopen_complement, False),
        Item("gamma-tv:d%d" % depth, gamma, False),
        Item("cylinders-complement:d%d" % deep, cylinders_complement, False),
    ]


_BUILDERS = {
    "kernel-laws": _kernel_laws,
    "chabauty-probes": _chabauty_probes,
    "region-dynamics": _region_dynamics,
}


def build(name, seed, size):
    """Make the inputs of one workload from its seed; return its items."""
    return _BUILDERS[name](seed, size)

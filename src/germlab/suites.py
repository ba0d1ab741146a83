"""Named verification suites producing deterministic, replayable reports.

Each suite is a fixed list of checks.  A check owns a private RNG seeded
from (seed, suite, check id), so replaying one check by id regenerates
exactly the data it saw during the full run.  Reports serialize to
canonical JSON (sorted keys, no whitespace): two runs with the same suite,
seed and config produce byte-identical output.  Wall-clock timings are
kept off to the side and never enter the canonical bytes.
"""

import json
import random
import time
from functools import lru_cache

from .cantorv import (
    GERM_FIXES,
    GERM_ISOLATED,
    GERM_MOVES,
    Cylinders,
    EventuallyPeriodic,
    GEN_VA,
    V_GROUP,
    compress_v,
    germ_class,
    rigid_stabilizer_v,
    rule_fixed_point,
)
from .chabauty import (
    BudgetError,
    SubgroupSpec,
    conjugate_net_probe,
    disjoint_open_search,
    micro_support_element,
    spell,
    verify_micro_support,
)
from .cosets import cyclic_group, neumann_check, neumann_sweep
from .fullgroups import quasi_isometry_check, return_set, schreier_patch
from .plcircle import (
    ArcSet,
    GEN_A,
    GEN_B,
    GEN_C,
    F_GROUP,
    T_GROUP,
    compress,
    expanding_conjugator,
    identity,
    in_derived_F,
    rigid_stabilizer_gens,
)
from .projline import LM_GROUP, bn_image
from .scalars import Dyadic, QuadExt, _json_str
from .treesgff import (
    PermGroupPair,
    TreeAut,
    alternating_perms,
    ball as tree_ball,
    cocycle_failure,
    cyclic_perms,
    elliptic_germ_check,
    format_vertex,
    halftree_permuter,
    level_pairs,
    level_transitivity_witness,
    perm_identity,
    word_image,
)


class CheckFailure(Exception):
    """Raised inside a check body; carries the counterexample payload."""

    def __init__(self, witness):
        super().__init__("check failed")
        self.witness = witness


def _fail(**witness):
    raise CheckFailure(witness)


class SuiteReport:
    __slots__ = ("suite", "seed", "config", "checks", "elapsed_ms")

    def __init__(self, suite, seed, config, checks, elapsed_ms):
        self.suite = suite
        self.seed = seed
        self.config = config
        self.checks = checks
        self.elapsed_ms = elapsed_ms

    def all_pass(self):
        return all(c["status"] == "pass" for c in self.checks)

    def to_json(self):
        # elapsed_ms stays out: timings must not break byte-level determinism
        return {
            "schema": 1,
            "suite": self.suite,
            "seed": self.seed,
            "config": dict(self.config),
            "checks": list(self.checks),
        }

    def to_bytes(self):
        return canonical_json(self.to_json()).encode("ascii")


def canonical_json(data):
    """json.dumps(data) with sorted keys and no whitespace, except that an
    integer prints through Decimal, so one past str(int)'s limit prints in full."""
    if isinstance(data, dict):
        return "{%s}" % ",".join(json.dumps(str(k)) + ":" + canonical_json(v)
                                 for k, v in sorted(data.items()))
    if isinstance(data, (list, tuple)):
        return "[%s]" % ",".join(map(canonical_json, data))
    return _json_str(data) if type(data) is int else json.dumps(data)


# -- shared samplers ---------------------------------------------------------

def _rand_word(rng, letters, max_len):
    return "".join(rng.choice(letters) for _ in range(rng.randrange(1, max_len + 1)))


def _rand_dyadic(rng, depth):
    return Dyadic(rng.randrange(0, 1 << depth), depth)


_TREE_RAY = (0, 1, 0, 1, 0, 1, 0, 1)


# the pair's tables obey GERMLAB_BUDGET, so they are built on first use
# and a small or malformed budget cannot stop the import
@lru_cache(maxsize=None)
def _tree_pair():
    return PermGroupPair(5, cyclic_perms(5), alternating_perms(5))


def _rand_tree_vertex(rng, max_len, degree):
    v = ()
    for _ in range(rng.randrange(max_len + 1)):
        choices = [c for c in range(degree) if not v or v[-1] != c]
        v = v + (rng.choice(choices),)
    return v


def _rand_tree_element(rng, pair):
    kind = rng.randrange(3)
    if kind == 0:
        return TreeAut.constant(pair, rng.choice(sorted(pair.small)))
    if kind == 1:
        v = _rand_tree_vertex(rng, 3, pair.degree)
        return TreeAut.constant(pair, perm_identity(pair.degree), v)
    m = _rand_tree_vertex(rng, 3, pair.degree)
    colors = list(range(pair.degree))
    rng.shuffle(colors)
    # the large group is transitive, so every color has a stabilizer
    c = colors[0]
    return halftree_permuter(pair, m, c, rng.choice(pair.stabilizers[c]))


def _rand_tree_word(rng, pair, n):
    g = None
    for _ in range(n):
        h = _rand_tree_element(rng, pair)
        if rng.random() < 0.5:
            h = h.inverse()
        g = h if g is None else g * h
    return TreeAut.identity(pair) if g is None else g


# -- suite bodies ------------------------------------------------------------

def _suite_pl_axioms(config):
    words, length = config["words"], config["length"]

    def composition(rng):
        for _ in range(words):
            f = spell(T_GROUP.gens, _rand_word(rng, "abcABC", length))
            g = spell(T_GROUP.gens, _rand_word(rng, "abcABC", length))
            x = _rand_dyadic(rng, 6)
            if (f * g)(x) != f(g(x)):
                _fail(at=str(x))
        return {"checked": words}

    def laws(rng):
        ident = identity()
        for _ in range(words):
            f = spell(T_GROUP.gens, _rand_word(rng, "abcABC", length))
            g = spell(T_GROUP.gens, _rand_word(rng, "abcABC", length))
            h = spell(T_GROUP.gens, _rand_word(rng, "abcABC", length))
            if (f * g) * h != f * (g * h):
                _fail(law="associativity")
            if f * f.inverse() != ident or ident * f != f:
                _fail(law="inverse-identity")
        return {"checked": words}

    def rotation(rng):
        if not (GEN_C ** 3).is_identity() or GEN_C.is_identity():
            _fail(order="not three")
        return {"order": 3}

    return [
        ("composition-pointwise", composition),
        ("group-laws", laws),
        ("rotation-order-three", rotation),
    ]


def _suite_germ_ff(config):
    count, length = config["commutators"], config["length"]

    def commutators(rng):
        for _ in range(count):
            f = spell(T_GROUP.gens, _rand_word(rng, "abAB", length))
            g = spell(T_GROUP.gens, _rand_word(rng, "abAB", length))
            comm = f * g * f.inverse() * g.inverse()
            if not in_derived_F(comm):
                _fail(germ="nontrivial")
        return {"checked": count}

    def generators(rng):
        for name, gen in (("a", GEN_A), ("b", GEN_B)):
            if in_derived_F(gen):
                _fail(generator=name)
        return {"excluded": ["a", "b"]}

    return [
        ("commutators-inside", commutators),
        ("generators-excluded", generators),
    ]


def _suite_compress(config):
    instances, depth = config["instances"], config["depth"]

    def arc_instances(rng):
        grid = 1 << depth
        for _ in range(instances):
            n_arcs = rng.choice((1, 2))
            # endpoints below 1 keep the region a proper subset of the circle
            cuts = sorted(rng.sample(range(grid), 2 * n_arcs))
            region = ArcSet.of(
                *((Dyadic(cuts[2 * i], depth), Dyadic(cuts[2 * i + 1], depth))
                  for i in range(n_arcs))
            )
            a, b = sorted(rng.sample(range(1, grid), 2))
            alpha, beta = Dyadic(a, depth), Dyadic(b, depth)
            g = compress(region, beta, alpha)
            target = ArcSet.of((Dyadic(0), alpha), (beta, Dyadic(1)))
            if not in_derived_F(g):
                reason = "compressor outside derived group"
            elif not region.image(g).subset_of(target):
                reason = "image escapes target"
            else:
                continue
            _fail(reason=reason, region=[[str(lo), str(hi)] for lo, hi in region.arcs],
                  beta=str(beta), alpha=str(alpha))
        return {"instances": instances}

    def cylinder_instances(rng):
        for _ in range(instances):
            w = _rand_word(rng, "01", 4)
            t = _rand_word(rng, "01", 4)
            g = compress_v(w, t)
            complement = Cylinders.of(w).complement()
            if not complement.image(g).subset_of(Cylinders.of(t)):
                _fail(source=w, target=t)
        return {"instances": instances}

    def pinned(rng):
        region = ArcSet.of((Dyadic(1, 2), Dyadic(3, 2)))
        g = compress(region, Dyadic(7, 3), Dyadic(1, 3))
        target = ArcSet.of((Dyadic(0), Dyadic(1, 3)), (Dyadic(7, 3), Dyadic(1)))
        if not (in_derived_F(g) and region.image(g).subset_of(target)):
            _fail(instance="quarter-to-eighths")
        return {"pieces": len(g.pieces)}

    return [
        ("arc-instances", arc_instances),
        ("cylinder-instances", cylinder_instances),
        ("pinned-example", pinned),
    ]


def _suite_chabauty_net(config):
    radius, net_len = config["radius"], config["net"]
    half = ArcSet.of((Dyadic(1, 2), Dyadic(1, 1)))
    h_spec = SubgroupSpec.support_inside(half)
    limit = SubgroupSpec.identity_germ_at(Dyadic(0))
    # a run builds each conjugator once and probes each radius once: at
    # the default radius, stabilization reads frozen-index's probe
    net, probes = [], {}

    def conjugators(count):
        net.extend(expanding_conjugator(n) for n in range(len(net) + 1, count + 1))
        return net[:count]

    def probe(probe_radius):
        if probe_radius not in probes:
            probes[probe_radius] = conjugate_net_probe(
                F_GROUP, h_spec, conjugators(net_len), limit, probe_radius)
        return probes[probe_radius]

    def stabilization(rng):
        report = probe(radius)
        if report["stabilizes_at"] is None:
            _fail(report=report)
        return report

    def frozen_index(rng):
        report = probe(3)
        # regression constant: the radius-3 truncations agree from the start
        if report["stabilizes_at"] != 1:
            _fail(report=report)
        return {"stabilizes_at": 1, "target_size": report["target_size"]}

    def control(rng):
        report = conjugate_net_probe(
            F_GROUP, h_spec, conjugators(3), SubgroupSpec.whole_group(), radius
        )
        if report["stabilizes_at"] is not None:
            _fail(report=report)
        return {"rejected": "whole-group limit"}

    return [
        ("frozen-index", frozen_index),
        ("negative-control", control),
        ("stabilization", stabilization),
    ]


def _suite_neumann(config):
    n_max, r_max = config["n_max"], config["r_max"]

    def sweep(rng):
        return neumann_sweep(n_max, r_max)

    def example(rng):
        group = cyclic_group(6)
        evens = [0, 2, 4]
        best = neumann_check(group, [(evens, 0), (evens, 1)])
        if best != 2:
            _fail(min_index=best)
        return {"min_index": best}

    return [("index-example", example), ("sweep", sweep)]


def _suite_micro_support(config):
    instances, length = config["instances"], config["length"]

    def arc_instances(rng):
        regions, w = disjoint_open_search([GEN_A], Dyadic(7, 3))
        lo, hi = regions[0].arcs[0]
        gens = rigid_stabilizer_gens(lo, hi)
        for _ in range(instances):
            gamma = delta = F_GROUP.identity
            for _ in range(rng.randrange(1, length)):
                gamma = gamma * rng.choice(gens) ** rng.choice((-1, 1))
                delta = delta * rng.choice(gens) ** rng.choice((-1, 1))
            a = micro_support_element(gamma, delta, GEN_A, regions=regions)
            verify_micro_support(a, gamma, delta, regions[0], w)
        return {"instances": instances}

    def cancellation(rng):
        regions, w = disjoint_open_search([GEN_A], Dyadic(7, 3))
        lo, hi = regions[0].arcs[0]
        gens = rigid_stabilizer_gens(lo, hi)
        gamma = gens[0] * gens[1]
        a = micro_support_element(gamma, gamma, GEN_A, regions=regions)
        if not a.is_identity():
            _fail(reason="equal twists should cancel")
        return {"identity": True}

    def cylinder_instance(rng):
        one_seq = EventuallyPeriodic("", "1")
        regions, w = disjoint_open_search([GEN_VA], one_seq)
        word = regions[0].words[0]
        gens = rigid_stabilizer_v(word)
        gamma = gens[0] * gens[1]
        delta = gens[1]
        a = micro_support_element(gamma, delta, GEN_VA, regions=regions)
        verify_micro_support(a, gamma, delta, regions[0], w)
        return {"region": word, "window": list(w.words)}

    return [
        ("arc-instances", arc_instances),
        ("cancellation", cancellation),
        ("cylinder-instance", cylinder_instance),
    ]


def _suite_v_germs(config):
    samples = config["samples"]

    def dichotomy(rng):
        counts = {GERM_FIXES: 0, GERM_ISOLATED: 0}
        seen = 0
        for _ in range(samples * 50):
            if seen >= samples:
                break
            g = spell(V_GROUP.gens, _rand_word(rng, "abcpABCP", 5))
            if g.is_identity():
                continue
            for v, z in g.rules:
                x = rule_fixed_point(v, z)
                if x is None:
                    continue
                cls = germ_class(g, x)
                if cls == GERM_MOVES:
                    _fail(rule=[v, z], reason="fixed point classified as moved")
                counts[cls] += 1
                seen += 1
                if seen >= samples:
                    break
        if seen < samples:
            _fail(reason="sampler starved", collected=seen)
        return {"fixes": counts[GERM_FIXES], "isolated": counts[GERM_ISOLATED]}

    def moved(rng):
        checked = 0
        for _ in range(samples * 50):
            if checked >= samples:
                break
            g = spell(V_GROUP.gens, _rand_word(rng, "abcpABCP", 5))
            pre = _rand_word(rng, "01", 3)
            per = _rand_word(rng, "01", 3)
            x = EventuallyPeriodic(pre, per)
            if g(x) == x:
                continue
            if germ_class(g, x) != GERM_MOVES:
                _fail(point=[x.preperiod, x.period])
            checked += 1
        if checked < samples:
            _fail(reason="sampler starved", collected=checked)
        return {"checked": samples}

    return [("fixed-point-dichotomy", dichotomy), ("moved-points", moved)]


def _require_nonnegative(**values):
    for name, value in values.items():
        if value < 0:
            raise ValueError("%s must be nonnegative, got %d" % (name, value))


def make_cocycle_check(pair, count, depth):
    _require_nonnegative(count=count, depth=depth)

    def cocycle(rng):
        for _ in range(count):
            g = _rand_tree_word(rng, pair, 2)
            h = _rand_tree_word(rng, pair, 2)
            bad = cocycle_failure(g, h, g * h, depth)
            if bad is not None:
                _fail(vertex=format_vertex(bad))
        # the ball holds degree * (degree - 1)^(k - 1) vertices at distance
        # k > 0, a geometric sum; a pair's large group has a non-identity
        # permutation fixing a color, so degree >= 3
        d = pair.degree
        return {"pairs": count, "vertices": 1 + d * ((d - 1) ** depth - 1) // (d - 2)}

    return cocycle


def make_elliptic_check(pair, ray, count):
    _require_nonnegative(count=count)

    def elliptic_check(rng):
        for _ in range(count):
            cut = rng.randrange(1, len(ray) - 1)
            m = ray[:cut]
            protected = ray[cut]
            g = halftree_permuter(pair, m, protected, rng.choice(pair.stabilizers[protected]))
            verdict = elliptic_germ_check(g, ray, len(ray))
            if verdict[0] != "fixes_half_tree":
                _fail(at=format_vertex(m), verdict=list(verdict))
            near = tree_ball(pair.degree, 2, verdict[1][1])
            for v, image in zip(near, g.images(near)):
                if image != v:
                    _fail(at=format_vertex(m), moved=format_vertex(v))
        return {"elements": count}

    return elliptic_check


def make_level_check(pair, ray, depth, max_dist):
    _require_nonnegative(depth=depth, max_dist=max_dist)
    if depth >= len(ray):
        # the ball would hold the whole ray prefix, which has no level
        raise ValueError("depth must be below the ray length %d, got %d" % (len(ray), depth))

    def witnesses(rng):
        levels = level_pairs(tree_ball(pair.degree, depth), ray, max_dist)
        pairs_checked = 0
        memo = {}
        for pairs in levels.values():
            for v, w in pairs:
                word = level_transitivity_witness(pair, ray, v, w, memo)
                # the replay reads the images the witness kept in memo
                if word_image(word, v, memo) != w:
                    _fail(source=format_vertex(v), target=format_vertex(w))
                pairs_checked += 1
        return {"pairs": pairs_checked, "levels": len(levels)}

    return witnesses


def _suite_gff_cocycle(config):
    return [
        ("cocycle-identity",
         make_cocycle_check(_tree_pair(), config["pairs"], config["depth"])),
        ("elliptic-classification",
         make_elliptic_check(_tree_pair(), _TREE_RAY, config["elliptic"])),
    ]


def _suite_gff_levels(config):
    return [
        ("level-witnesses",
         make_level_check(_tree_pair(), _TREE_RAY, config["depth"], config["max_dist"])),
    ]


def _suite_fullgroup_qi(config):
    radius_c0, radius_c01 = config["radius_c0"], config["radius_c01"]

    def _run_patch(word, s_bound, radius, min_interior):
        u = Cylinders.of(word)
        x = EventuallyPeriodic.parse(word + ",0")
        patch = schreier_patch(u, s_bound, x, radius)
        report = quasi_isometry_check(patch)
        if report["violations"]:
            _fail(cylinder=word, violations=report["violations"][:3])
        if not report["one_dense"]:
            _fail(cylinder=word, reason="orbit not 1-dense")
        if report["interior_vertices"] < min_interior:
            _fail(cylinder=word, interior=report["interior_vertices"])
        return report

    def qi_c0(rng):
        return _run_patch("0", 1, radius_c0, radius_c0 // 8)

    def qi_c01(rng):
        return _run_patch("01", 2, radius_c01, radius_c01 // 16)

    def returns(rng):
        got = {
            "0": list(return_set(Cylinders.of("0"))),
            "01": list(return_set(Cylinders.of("01"))),
            "full": list(return_set(Cylinders.full())),
        }
        want = {"0": [0, 1], "01": [0, 1, 2, 3], "full": [0]}
        if got != want:
            _fail(got=got)
        return got

    return [("qi-c0", qi_c0), ("qi-c01", qi_c01), ("return-times", returns)]


def _suite_proj_bn(config):
    n_max, words, length = config["n_max"], config["words"], config["length"]

    def intervals(rng):
        zero = QuadExt.coerce(0)
        out = []
        for n in range(1, n_max + 1):
            lo, hi = bn_image(n)
            if lo != zero or hi != QuadExt.coerce(n + 1):
                _fail(n=n, lo=repr(lo), hi=repr(hi))
            out.append([n, 0, n + 1])
        return {"intervals": out}

    def continuity(rng):
        for _ in range(words):
            g = spell(LM_GROUP.gens, _rand_word(rng, "abcABC", length))
            for i, x in enumerate(g.breaks):
                if g.maps[i](x) != g.maps[i + 1](x):
                    _fail(at=repr(x))
        return {"words": words}

    return [("bn-intervals", intervals), ("breakpoint-continuity", continuity)]


# -- registry and runner -----------------------------------------------------

SUITES = {
    "pl-axioms": ({"words": 60, "length": 8}, _suite_pl_axioms),
    "germ-ff": ({"commutators": 50, "length": 6}, _suite_germ_ff),
    "compress": ({"instances": 25, "depth": 4}, _suite_compress),
    "chabauty-net": ({"radius": 3, "net": 10}, _suite_chabauty_net),
    "neumann": ({"n_max": 6, "r_max": 3}, _suite_neumann),
    "micro-support": ({"instances": 20, "length": 4}, _suite_micro_support),
    "v-germs": ({"samples": 80}, _suite_v_germs),
    "gff-cocycle": ({"pairs": 60, "depth": 4, "elliptic": 20}, _suite_gff_cocycle),
    "gff-levels": ({"depth": 3, "max_dist": 4}, _suite_gff_levels),
    "fullgroup-qi": ({"radius_c0": 200, "radius_c01": 400}, _suite_fullgroup_qi),
    "proj-bn": ({"n_max": 8, "words": 40, "length": 6}, _suite_proj_bn),
}


def available_suites():
    return sorted(SUITES)


def resolve_config(name, config=None):
    if name not in SUITES:
        raise ValueError(
            "unknown suite %r; available: %s" % (name, ", ".join(available_suites()))
        )
    if config is not None and not isinstance(config, dict):
        raise ValueError("config must be an object of integer overrides")
    defaults, _ = SUITES[name]
    merged = dict(defaults)
    for key, value in (config or {}).items():
        if key not in defaults:
            raise ValueError(
                "unknown config key %r for suite %r; known keys: %s"
                % (key, name, ", ".join(sorted(defaults)))
            )
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError("config key %r must be an integer" % key)
        if value < 0:
            raise ValueError("config key %r must be nonnegative" % key)
        merged[key] = value
    return merged


def check_outcome(fn, rng):
    """("pass", result) of one check body, or ("fail", witness or crash).

    A BudgetError is not a verdict on the check, so it propagates.
    """
    try:
        return "pass", fn(rng)
    except CheckFailure as exc:
        return "fail", exc.witness
    except BudgetError:
        raise
    except Exception as exc:  # noqa: BLE001 - a crash is a failing check
        return "fail", {"error": f"{type(exc).__name__}: {exc}"}


def _run_check(name, seed, check_id, fn):
    rng = random.Random(f"{seed}:{name}:{check_id}")
    start = time.monotonic()
    status, witness = check_outcome(fn, rng)
    elapsed = (time.monotonic() - start) * 1000.0
    return {"id": check_id, "status": status, "witness": witness}, elapsed


def run_suite(name, config=None, seed=0):
    merged = resolve_config(name, config)
    _, builder = SUITES[name]
    checks = []
    timings = {}
    for check_id, fn in sorted(builder(merged), key=lambda item: item[0]):
        record, elapsed = _run_check(name, seed, check_id, fn)
        checks.append(record)
        timings[check_id] = elapsed
    return SuiteReport(name, seed, merged, checks, timings)


def replay(report, check_id):
    """Re-run one check from a previously produced report dict."""
    if not isinstance(report, dict):
        raise ValueError("a report must be a JSON object")
    name = report.get("suite")
    merged = resolve_config(name, report.get("config"))
    seed = report.get("seed", 0)
    # the seed names each check's RNG, so "0" would replay as 0
    if type(seed) is not int:
        raise ValueError("a report's seed must be an integer, got %r" % (seed,))
    _, builder = SUITES[name]
    for cid, fn in builder(merged):
        if cid == check_id:
            record, _ = _run_check(name, seed, cid, fn)
            return record
    known = ", ".join(sorted(cid for cid, _ in builder(merged)))
    raise ValueError("unknown check id %r; known ids: %s" % (check_id, known))

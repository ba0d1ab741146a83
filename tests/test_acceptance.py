"""Full-scale acceptance battery, one test per release criterion.

Counts and radii here are the contract; the named suites run the same
checks at friendlier sizes.  Each test prints nothing on its own: the
terminal summary (see conftest) emits one PASS/FAIL line per criterion.
"""

import json
import random
import time
from fractions import Fraction

from germlab.cantorv import V_GROUP, Cylinders, EventuallyPeriodic, compress_v, rigid_stabilizer_v
from germlab.chabauty import (
    SubgroupSpec,
    ball,
    conjugate_net_probe,
    disjoint_open_search,
    micro_support_element,
    verify_micro_support,
)
from germlab.cosets import neumann_sweep
from germlab.fullgroups import (
    Clopen,
    FullGroupElement,
    gamma_tv,
    quasi_isometry_check,
    schreier_patch,
)
from germlab.plcircle import (
    ArcSet,
    F_GROUP,
    GEN_A,
    GEN_B,
    T_GROUP,
    compress,
    expanding_conjugator,
    identity,
    in_derived_F,
    rigid_stabilizer_gens,
)
from germlab.projline import LM_A, LM_B, LM_C, LM_GROUP, PPMap, bn_image
from germlab.scalars import Dyadic, QuadExt
from germlab.suites import (
    _tree_pair,
    available_suites,
    make_cocycle_check,
    make_elliptic_check,
    make_level_check,
    run_suite,
    spell,
)
from germlab.treesgff import TreeAut, halftree_permuter, perm_identity

F = F_GROUP
RAY = (0, 1, 0, 1, 0, 1, 0, 1)


def _word(rng, letters, max_len):
    return "".join(rng.choice(letters) for _ in range(rng.randrange(1, max_len + 1)))


def _law_battery(rng, make_word, ident, count=500):
    """Inverse, identity and associativity, exactly, over random words."""
    recent = []
    for _ in range(count):
        g = make_word(rng)
        assert g * g.inverse() == ident
        assert ident * g == g
        assert g * ident == g
        recent.append(g)
        if len(recent) >= 3:
            f, h, k = recent[-3], recent[-2], recent[-1]
            assert (f * h) * k == f * (h * k)
            recent = recent[-2:]


def _tree_vertex(rng, max_len):
    v = ()
    for _ in range(rng.randrange(max_len + 1)):
        choices = [c for c in range(5) if not v or v[-1] != c]
        v = v + (rng.choice(choices),)
    return v


def _tree_factor(rng):
    pair = _tree_pair()
    kind = rng.randrange(3)
    if kind == 0:
        return TreeAut.constant(pair, rng.choice(sorted(pair.small)))
    if kind == 1:
        return TreeAut(pair, _tree_vertex(rng, 5), {(): perm_identity(5)})
    m = _tree_vertex(rng, 5)
    ident = perm_identity(5)
    for c in range(5):
        perms = [p for p in sorted(pair.large) if p[c] == c and p != ident]
        if perms:
            return halftree_permuter(pair, m, c, rng.choice(perms))
    raise AssertionError


def _fullgroup_gens():
    pool = []
    for v in ("0", "1", "00", "01", "10", "11"):
        for t in (1, 2, 3, -1):
            try:
                pool.append(gamma_tv(t, Clopen.of(v)))
            except ValueError:
                continue
    assert len(pool) >= 6
    return pool


def test_criterion_01_group_laws():
    start = time.monotonic()
    rng = random.Random(101)

    _law_battery(rng, lambda r: spell(T_GROUP.gens, _word(r, "abAB", 10)), identity())
    _law_battery(rng, lambda r: spell(T_GROUP.gens, _word(r, "abcABC", 10)), identity())
    _law_battery(rng, lambda r: spell(V_GROUP.gens, _word(r, "abcpABCP", 10)),
                 spell(V_GROUP.gens, "aA"))
    _law_battery(rng, lambda r: spell(LM_GROUP.gens, _word(r, "abcABC", 10)),
                 PPMap.identity())

    def tree_word(r):
        g = TreeAut.identity(_tree_pair())
        for _ in range(r.randrange(1, 11)):
            h = _tree_factor(r)
            g = g * (h.inverse() if r.random() < 0.5 else h)
        return g

    _law_battery(rng, tree_word, TreeAut.identity(_tree_pair()))

    gens = _fullgroup_gens()

    def full_word(r):
        g = FullGroupElement.identity()
        for _ in range(r.randrange(1, 11)):
            g = g * r.choice(gens) ** r.choice((-1, 1))
        return g

    _law_battery(rng, full_word, FullGroupElement.identity())
    assert time.monotonic() - start < 60.0


def test_criterion_02_derived_germs():
    rng = random.Random(102)
    for _ in range(200):
        f = spell(T_GROUP.gens, _word(rng, "abAB", 6))
        g = spell(T_GROUP.gens, _word(rng, "abAB", 6))
        assert in_derived_F(f * g * f.inverse() * g.inverse())
    assert not in_derived_F(GEN_A)
    assert not in_derived_F(GEN_B)


def test_criterion_03_compressors():
    rng = random.Random(103)
    depth = 4
    grid = 1 << depth
    for _ in range(50):
        n_arcs = rng.choice((1, 2))
        cuts = sorted(rng.sample(range(grid), 2 * n_arcs))
        region = ArcSet.of(
            *((Dyadic(cuts[2 * i], depth), Dyadic(cuts[2 * i + 1], depth))
              for i in range(n_arcs))
        )
        a, b = sorted(rng.sample(range(1, grid), 2))
        alpha, beta = Dyadic(a, depth), Dyadic(b, depth)
        g = compress(region, beta, alpha)
        target = ArcSet.of((Dyadic(0), alpha), (beta, Dyadic(1)))
        assert in_derived_F(g)
        assert region.image(g).subset_of(target)
    for _ in range(50):
        w = _word(rng, "01", 4)
        t = _word(rng, "01", 4)
        g = compress_v(w, t)
        assert Cylinders.of(w).complement().image(g).subset_of(Cylinders.of(t))


def test_criterion_04_micro_support():
    rng = random.Random(104)
    done = 0
    attempts = 0
    while done < 80:
        attempts += 1
        assert attempts < 2000
        g_ell = spell(T_GROUP.gens, _word(rng, "abAB", 4))
        z = Dyadic(rng.randrange(1, 32), 5)
        if g_ell.is_identity() or g_ell(z) == z:
            continue
        try:
            regions, w = disjoint_open_search([g_ell], z)
        except ValueError:
            continue
        lo, hi = regions[0].arcs[0]
        gens = rigid_stabilizer_gens(lo, hi)
        gamma = F.identity
        delta = F.identity
        for _ in range(rng.randrange(1, 4)):
            gamma = gamma * rng.choice(gens) ** rng.choice((-1, 1))
            delta = delta * rng.choice(gens) ** rng.choice((-1, 1))
        a = micro_support_element(gamma, delta, g_ell, regions=regions)
        assert verify_micro_support(a, gamma, delta, regions[0], w)
        done += 1
    done = 0
    while done < 20:
        attempts += 1
        assert attempts < 2000
        g_ell = spell(V_GROUP.gens, _word(rng, "abcpABCP", 3))
        x = EventuallyPeriodic(_word(rng, "01", 2), _word(rng, "01", 2))
        if g_ell.is_identity() or g_ell(x) == x:
            continue
        try:
            regions, w = disjoint_open_search([g_ell], x)
        except ValueError:
            continue
        gens = rigid_stabilizer_v(regions[0].words[0])
        gamma = gens[0] * rng.choice(gens) ** rng.choice((-1, 1))
        delta = rng.choice(gens) ** rng.choice((-1, 1))
        a = micro_support_element(gamma, delta, g_ell, regions=regions)
        assert verify_micro_support(a, gamma, delta, regions[0], w)
        done += 1


def test_criterion_05_neumann():
    start = time.monotonic()
    report = neumann_sweep(8, 4)
    assert report["max_min_index"] <= 4
    assert report["covers_checked"] == 1045
    assert time.monotonic() - start < 120.0


def test_criterion_06_chabauty_net():
    half = ArcSet.of((Dyadic(1, 2), Dyadic(1, 1)))
    h_spec = SubgroupSpec.support_inside(half)
    limit = SubgroupSpec.identity_germ_at(Dyadic(0))
    # the germ kernel at 0 is the derived subgroup: cross-check on a ball
    for radius in (3, 4):
        for element in ball(F, radius).elements:
            assert limit.contains(element) == in_derived_F(element)
    net = [expanding_conjugator(n) for n in range(1, 11)]
    report = conjugate_net_probe(F, h_spec, net, limit, 3)
    assert report["stabilizes_at"] == 1  # frozen regression constant
    assert all(report["matches"])
    assert report["target_size"] == sum(map(limit.contains, ball(F, 3).elements))


def test_criterion_07_tree_cocycle():
    rng = random.Random(107)
    assert make_cocycle_check(_tree_pair(), 500, 5)(rng)["pairs"] == 500
    assert make_elliptic_check(_tree_pair(), RAY, 50)(rng)["elements"] == 50
    out = make_level_check(_tree_pair(), RAY, 4, 4)(rng)
    assert out["pairs"] > 1000


def test_criterion_08_fullgroup_qi():
    for word, s_bound, radius in (("0", 1, 800), ("01", 2, 1600)):
        patch = schreier_patch(
            Clopen.of(word), s_bound, EventuallyPeriodic.parse(word + ",0"), radius
        )
        report = quasi_isometry_check(patch)
        assert report["interior_vertices"] >= 100
        assert report["violations"] == []
        assert report["one_dense"] is True
        num, _, den = report["max_ratio"].partition("/")
        assert Fraction(int(num), int(den)) <= 3


def test_criterion_09_projective_images():
    rng = random.Random(109)
    for g in (LM_A, LM_B, LM_C):
        for i, x in enumerate(g.breaks):
            assert g.maps[i](x) == g.maps[i + 1](x)
    for _ in range(300):
        g = spell(LM_GROUP.gens, _word(rng, "abcABC", 10))
        for i, x in enumerate(g.breaks):
            assert g.maps[i](x) == g.maps[i + 1](x)
    zero = QuadExt.coerce(0)
    recorded = []
    for n in range(1, 11):
        lo, hi = bn_image(n)
        assert lo == zero and hi == QuadExt.coerce(n + 1)
        recorded.append((n, 0, n + 1))
    assert recorded[-1] == (10, 0, 11)


def test_criterion_10_determinism():
    small = {
        "pl-axioms": {"words": 10},
        "germ-ff": {"commutators": 10},
        "compress": {"instances": 8},
        "chabauty-net": {"net": 3},
        "micro-support": {"instances": 4},
        "v-germs": {"samples": 20},
        "gff-cocycle": {"pairs": 6, "elliptic": 4},
        "gff-levels": {"depth": 2},
        "fullgroup-qi": {"radius_c0": 80, "radius_c01": 160},
        "proj-bn": {"n_max": 4, "words": 8},
    }
    for name in available_suites():
        config = small.get(name)
        first = run_suite(name, config, seed=2026).to_bytes()
        second = run_suite(name, config, seed=2026).to_bytes()
        assert first == second
        assert json.loads(first)["suite"] == name

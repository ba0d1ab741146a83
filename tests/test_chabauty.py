import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import germlab.chabauty as chabauty
import germlab.cosets as cosets
from germlab.cantorv import (
    GEN_VA,
    GEN_VB,
    ONE_SEQ,
    ZERO_SEQ,
    V_GROUP,
    Cylinders,
    EventuallyPeriodic,
    PrefixMap,
    rigid_stabilizer_v,
)
from germlab.chabauty import (
    BallTruncation,
    BudgetError,
    MarkedGroup,
    SubgroupSpec,
    accumulation_probe,
    ball,
    chabauty_agree_radius,
    conjugate_net_probe,
    disjoint_open_search,
    equal_on,
    micro_support_element,
    verify_micro_support,
    walk,
)
from germlab.cosets import FiniteGroup, cyclic_group, neumann_check, neumann_sweep
from germlab.fullgroups import gamma_tv
from germlab.plcircle import (
    F_GROUP,
    GEN_A,
    GEN_B,
    T_GROUP,
    ArcSet,
    PLMap,
    conjugate_into_interval,
    expanding_conjugator,
    in_derived_F,
    rigid_stabilizer_gens,
)
from germlab.projline import LM_GROUP
from germlab.scalars import Dyadic
from test_protocol import FULL_GROUP

F = F_GROUP
QUARTER_HALF = ArcSet.of((Fraction(1, 4), Fraction(1, 2)))
SUPP_H = SubgroupSpec.support_inside(QUARTER_HALF)
GERM_LIMIT = SubgroupSpec.identity_germ_at(Dyadic(0))


def chabauty_trunc(spec, group, radius):
    """The elements of the radius ball that lie in spec, with their words."""
    full = ball(group, radius)
    kept = [(el, w) for el, w in zip(full.elements, full.words) if spec.contains(el)]
    return BallTruncation(radius, [e for e, _ in kept], [w for _, w in kept])


def test_marked_group_validation():
    with pytest.raises(ValueError):
        MarkedGroup({"a": GEN_A * GEN_A.inverse()})
    with pytest.raises(ValueError):
        MarkedGroup({"ab": GEN_A})
    with pytest.raises(ValueError):
        MarkedGroup({})
    assert F.spell("aA").is_identity()
    assert F.spell("ab") == GEN_A * GEN_B


# (marked group, ball sizes at radius 0, 1, ...)
BALL_SIZES = {
    "F": (F, [1, 5, 17, 53, 161]),
    "V": (V_GROUP, [1, 8, 44, 209, 951]),
    "LM": (LM_GROUP, [1, 7, 37, 187]),
    "full": (FULL_GROUP, [1, 4, 9, 16, 25, 37]),
}


def test_ball_sizes_and_monotonicity():
    for name, (group, sizes) in BALL_SIZES.items():
        balls = [ball(group, r) for r in range(len(sizes))]
        assert [len(b) for b in balls] == sizes, name
        for inner, outer in zip(balls, balls[1:]):
            assert frozenset(inner.elements) <= frozenset(outer.elements)


def _walk_oracle(group, radius, order):
    """The walk as it was before it skipped labels: every label after every
    frontier element, as a list of (element, word) in walk order."""
    index = {group.identity: ""}
    frontier = [(group.identity, "")]
    for _ in range(radius):
        nxt = []
        for element, base in frontier:
            for label in order:
                candidate = element * group.gens[label]
                if candidate not in index:
                    index[candidate] = base + label
                    nxt.append((candidate, base + label))
        frontier = nxt
    return list(index.items())


def test_walk_matches_the_walk_that_tries_every_label():
    walks = [(F, 5), (T_GROUP, 4), (V_GROUP, 4), (LM_GROUP, 3), (FULL_GROUP, 5)]
    for group, radius in walks:
        order = sorted(group.gens)
        for r in range(radius + 1):
            assert list(walk(group, r, order)) == _walk_oracle(group, r, order)
        assert list(ball(group, radius)._index.items()) == _walk_oracle(group, radius, order)
    # the compression witness walks Lodha-Moore in its own label order
    assert list(walk(LM_GROUP, 3, "abcABC")) == _walk_oracle(LM_GROUP, 3, "abcABC")


def _counted_products(monkeypatch, kernel):
    """A list that grows by one at each product of two kernel elements."""
    calls = []
    product = kernel.__mul__

    def counting(self, other):
        calls.append(None)
        return product(self, other)

    monkeypatch.setattr(kernel, "__mul__", counting)
    return calls


def test_ball_skips_products_that_lead_back_into_the_ball(monkeypatch):
    # trying every label takes 1,672 and 644 products
    for group, kernel, radius, most in ((V_GROUP, PrefixMap, 4, 1112), (F, PLMap, 5, 488)):
        calls = _counted_products(monkeypatch, kernel)
        ball(group, radius)
        first = len(calls)
        assert first <= most
        # nothing learned by one ball carries over to the next
        ball(group, radius)
        assert len(calls) == 2 * first


def test_ball_words_spell_their_elements():
    full = ball(F, 3)
    for element, word in zip(full.elements, full.words):
        assert F.spell(word) == element
        assert len(word) <= 3


def test_ball_budget(monkeypatch):
    monkeypatch.setenv("GERMLAB_BUDGET", "10")
    with pytest.raises(BudgetError):
        ball(F, 3)


def test_ball_budget_error_names_radius_and_size(monkeypatch):
    # F's ball has 5 elements at radius 1 and 17 at radius 2
    monkeypatch.setenv("GERMLAB_BUDGET", "10")
    with pytest.raises(BudgetError, match=r"10-element budget at radius 2 of 3, with 10 elements"):
        ball(F, 3)


def test_ball_budget_env(monkeypatch):
    monkeypatch.setenv("GERMLAB_BUDGET", "5")
    with pytest.raises(BudgetError):
        ball(F, 2)
    monkeypatch.setenv("GERMLAB_BUDGET", "500")
    assert len(ball(F, 2)) == 17


def test_trunc_basics():
    whole = chabauty_trunc(SubgroupSpec.whole_group(), F, 2)
    assert frozenset(whole.elements) == frozenset(ball(F, 2).elements)
    trivial = chabauty_trunc(SubgroupSpec.trivial(), F, 2)
    assert trivial.words == ("",)


def test_trunc_support_cross_check():
    kept = chabauty_trunc(SUPP_H, F, 3)
    assert kept.words == ("",)
    for element in chabauty_trunc(SUPP_H, F, 4).elements:
        assert element.support().subset_of(QUARTER_HALF)


def test_trunc_germ_matches_derived_subgroup():
    kept = chabauty_trunc(GERM_LIMIT, F, 4)
    assert sorted(kept.words) == [
        "",
        "ABab",
        "AbaB",
        "BAba",
        "BabA",
        "aBAb",
        "abAB",
        "bABa",
        "baBA",
    ]
    for element in kept.elements:
        assert in_derived_F(element)


def test_trunc_over_prefix_kernel():
    group = MarkedGroup({"a": GEN_VA, "b": GEN_VB})
    region = Cylinders.of("1")
    spec = SubgroupSpec.support_inside(region)
    kept = chabauty_trunc(spec, group, 2)
    assert "" in kept.words
    for element in kept.elements:
        assert element.identity_on(region.complement())
    germ_spec = SubgroupSpec.identity_germ_at(ZERO_SEQ)
    for element in chabauty_trunc(germ_spec, group, 2).elements:
        assert element(ZERO_SEQ) == ZERO_SEQ


def test_support_specs_match_the_support_on_every_kernel():
    half, eighth = Fraction(1, 2), Fraction(1, 8)
    arcs = [ArcSet.empty(), ArcSet.full(), QUARTER_HALF, WRAP_ARC, ArcSet.of((0, 0)),
            ArcSet.of((half, half)), ArcSet.of((half, 1)), ArcSet.of((0, eighth), (half, half)),
            ArcSet.of((0, Fraction(1, 4)), (Fraction(3, 4), 1))]
    pl = (list(ball(T_GROUP, 2).elements) + list(ball(F, 3).elements)
          + list(rigid_stabilizer_gens(Dyadic(1, 2), Dyadic(1)))
          + list(rigid_stabilizer_gens(Dyadic(1, 4), Dyadic(1, 2))))
    clopens = [Cylinders.empty(), Cylinders.full(), Cylinders.of("1"), Cylinders.of("01"),
               Cylinders.of("00", "11"), Cylinders.of("0", "101"), Cylinders.of("110")]
    prefix = list(ball(V_GROUP, 2).elements) + list(rigid_stabilizer_v("01"))
    full = list(ball(FULL_GROUP, 3).elements)
    full += [gamma_tv(1, Cylinders.of("110")), gamma_tv(2, Cylinders.of("000"))]
    for regions, elements in ((arcs, pl), (clopens, prefix), (clopens, full)):
        for region in regions:
            spec = SubgroupSpec.support_inside(region)
            verdicts = [g.support().subset_of(region) for g in elements]
            assert [spec.contains(g) for g in elements] == verdicts
            # specs pushed forward along an element answer alike
            h = elements[-1]
            pushed = SubgroupSpec.conjugate(spec, h)
            for g in elements:
                assert pushed.contains(g) == g.support().subset_of(region.image(h))
        held = sum(SubgroupSpec.support_inside(r).contains(g) for r in regions for g in elements)
        assert len(regions) < held < len(regions) * len(elements)


def test_conjugation_coherence():
    g = F.spell("ab")
    conj = SubgroupSpec.conjugate(SUPP_H, g)
    for element in ball(F, 3).elements:
        direct = SUPP_H.contains(g.inverse() * element * g)
        assert conj.contains(element) == direct


def _assert_pushforward_matches(group, radius, specs, conjugators, nested=True):
    """Conjugate specs against element conjugation, the reference.

    SubgroupSpec.conjugate(H, g) must hold x exactly when H holds g^-1 x g.
    With nested, each spec is pushed on along the previous conjugator too,
    so a conjugate of a conjugate is checked against h g as well.
    """
    elements = ball(group, radius).elements

    def pulled_back(g):
        inv = g.inverse()
        return [inv * x * g for x in elements]

    for i, g in enumerate(conjugators):
        h = conjugators[i - 1]
        once = pulled_back(g)
        twice = pulled_back(h * g) if nested else None
        for spec in specs:
            pushed = SubgroupSpec.conjugate(spec, g)
            assert pushed.kind == spec.kind
            got = [pushed.contains(x) for x in elements]
            assert got == [spec.contains(y) for y in once]
            if nested:
                again = SubgroupSpec.conjugate(pushed, h)
                got = [again.contains(x) for x in elements]
                assert got == [spec.contains(y) for y in twice]


F_CONJUGATORS = [
    GEN_A, GEN_B, GEN_A.inverse(), GEN_B.inverse(), expanding_conjugator(1)
]
WRAP_ARC = ArcSet.of((Fraction(7, 8), 1), (0, Fraction(1, 8)))
TWO_GERMS = SubgroupSpec.identity_germ_at(Dyadic(0), Dyadic(1, 2))


def test_pushforward_matches_element_conjugation_on_F():
    specs = [
        SubgroupSpec.whole_group(),
        SubgroupSpec.trivial(),
        SUPP_H,
        SubgroupSpec.support_inside(WRAP_ARC),
        TWO_GERMS,
    ]
    _assert_pushforward_matches(F, 3, specs, F_CONJUGATORS)
    _assert_pushforward_matches(
        F, 4, [SUPP_H, TWO_GERMS], F_CONJUGATORS, nested=False
    )


def test_pushforward_matches_element_conjugation_on_V():
    group = V_GROUP
    specs = [
        SubgroupSpec.whole_group(),
        SubgroupSpec.trivial(),
        SubgroupSpec.support_inside(Cylinders.of("01", "110")),
        SubgroupSpec.identity_germ_at(ZERO_SEQ, EventuallyPeriodic("1", "01")),
    ]
    conjugators = [group.gens[label] for label in sorted(group.gens)]
    _assert_pushforward_matches(group, 3, specs, conjugators)


def test_pushforward_keeps_the_spec_flat():
    g = F.spell("ab")
    assert SubgroupSpec.conjugate(SUPP_H, g).data == QUARTER_HALF.image(g)
    pushed = SubgroupSpec.conjugate(TWO_GERMS, g)
    assert pushed.data == (g(Dyadic(0)), g(Dyadic(1, 2)))
    whole = SubgroupSpec.whole_group()
    assert SubgroupSpec.conjugate(whole, g) is whole


def test_agree_radius_basics():
    assert chabauty_agree_radius(SUPP_H, SUPP_H, F, 3) == 3
    assert (
        chabauty_agree_radius(
            SubgroupSpec.trivial(), SubgroupSpec.whole_group(), F, 3
        )
        == 0
    )


def test_agree_radius_conjugate_instance():
    u, v = rigid_stabilizer_gens(Dyadic(1, 2), Dyadic(1, 1))
    group = MarkedGroup({"u": u, "v": v})
    mover = expanding_conjugator(1).inverse()
    assert mover(Dyadic(1, 2)) != Dyadic(1, 2)
    conj = SubgroupSpec.conjugate(SUPP_H, mover)
    assert chabauty_agree_radius(SUPP_H, conj, group, 3) == 0


def test_agree_radius_symmetric_and_ultrametric():
    specs = [
        SubgroupSpec.trivial(),
        SubgroupSpec.whole_group(),
        SUPP_H,
        GERM_LIMIT,
    ]
    for h in specs:
        for k in specs:
            left = chabauty_agree_radius(h, k, F, 3)
            assert left == chabauty_agree_radius(k, h, F, 3)
            for mid in specs:
                bound = min(
                    chabauty_agree_radius(h, mid, F, 3),
                    chabauty_agree_radius(mid, k, F, 3),
                )
                assert left >= bound


HALF_SUPPORT = SubgroupSpec.support_inside(ArcSet.of((Dyadic(1, 2), Dyadic(1, 1))))


def test_agree_radius_matches_the_full_scan():
    specs = [SUPP_H, HALF_SUPPORT, GERM_LIMIT, SubgroupSpec.identity_germ_at(Dyadic(1, 2)),
             SubgroupSpec.trivial(), SubgroupSpec.whole_group()]
    for group in (F, T_GROUP):
        for h, k in combinations(specs, 2):
            for r_max in range(5):
                words = [w for e, w in ball(group, r_max)._index.items()
                         if h.contains(e) != k.contains(e)]
                agree = min((len(w) - 1 for w in words), default=r_max)
                assert chabauty_agree_radius(h, k, group, r_max) == agree
                first = [w for w in words if len(w) == agree + 1]
                assert list(chabauty.first_disagreements(h, k, group, r_max)) == first


def test_agree_radius_stops_at_the_first_disagreement(monkeypatch):
    # C6's pair on F: element 71 of the 161 in the radius-4 ball decides it
    calls = []
    contains = SubgroupSpec.contains

    def counting(spec, element):
        calls.append(element)
        return contains(spec, element)

    monkeypatch.setattr(SubgroupSpec, "contains", counting)
    assert chabauty_agree_radius(HALF_SUPPORT, GERM_LIMIT, F, 4) == 3
    assert len(calls) == 2 * 71


def test_net_probe_radius_three_regression():
    net = [expanding_conjugator(n) for n in range(1, 11)]
    report = conjugate_net_probe(F, SUPP_H, net, GERM_LIMIT, 3)
    assert report["stabilizes_at"] == 1
    assert report["target_size"] == 1
    assert all(report["matches"])


def test_net_probe_radius_four_regression():
    net = [expanding_conjugator(n) for n in range(1, 11)]
    report = conjugate_net_probe(F, SUPP_H, net, GERM_LIMIT, 4)
    assert report["stabilizes_at"] == 2
    assert report["target_size"] == 9
    assert report["matches"][0] is False


def test_net_probe_builds_one_ball(monkeypatch):
    calls = []

    def counting_ball(*args, **kwargs):
        calls.append(args)
        return ball(*args, **kwargs)

    monkeypatch.setattr(chabauty, "ball", counting_ball)
    net = [expanding_conjugator(n) for n in range(1, 11)]
    report = conjugate_net_probe(F, SUPP_H, net, GERM_LIMIT, 3)
    assert report["stabilizes_at"] == 1
    assert len(calls) == 1


def test_net_probe_controls():
    identity = F.identity
    report = conjugate_net_probe(F, GERM_LIMIT, [identity] * 3, GERM_LIMIT, 3)
    assert report["stabilizes_at"] == 1
    bad = conjugate_net_probe(
        F, SUPP_H, [expanding_conjugator(n) for n in (1, 2, 3)],
        SubgroupSpec.whole_group(), 3,
    )
    assert bad["stabilizes_at"] is None


def test_accumulation_probe():
    report = accumulation_probe(SubgroupSpec.whole_group(), F, [GEN_A], 1)
    assert report == {"witness": None, "exhausted": True}
    report = accumulation_probe(SubgroupSpec.trivial(), F, [GEN_A], 1)
    assert report == {"witness": "", "exhausted": False}
    # conjugates of a generator keep a nontrivial germ at the fixed point
    report = accumulation_probe(GERM_LIMIT, F, [GEN_A], 2)
    assert report["witness"] == ""
    for g in ball(F, 2).elements:
        assert not GERM_LIMIT.contains(g * GEN_A * g.inverse())
    with pytest.raises(ValueError):
        accumulation_probe(GERM_LIMIT, F, [F.identity], 1)


def test_accumulation_probe_matches_element_conjugation():
    specs = [
        SUPP_H,
        GERM_LIMIT,
        SubgroupSpec.support_inside(WRAP_ARC),
        SubgroupSpec.support_inside(ArcSet.of((Fraction(1, 2), 1))),
        SubgroupSpec.identity_germ_at(Dyadic(3, 2)),
    ]
    forbidden_sets = [[GEN_A], [GEN_B], [GEN_B, GEN_A * GEN_B], [F.spell("aB")]]
    full = ball(F, 2)
    for spec in specs:
        for forbidden in forbidden_sets:
            want = None
            for g, word in zip(full.elements, full.words):
                inv = g.inverse()
                if not any(spec.contains(g * p * inv) for p in forbidden):
                    want = word
                    break
            report = accumulation_probe(spec, F, forbidden, 2)
            assert report == {"witness": want, "exhausted": want is None}


def test_finite_group_obeys_budget(monkeypatch):
    monkeypatch.setenv("GERMLAB_BUDGET", "100")
    assert len(cyclic_group(4)) == 4  # 64 associativity triples
    with pytest.raises(BudgetError, match="^125 associativity steps of a 5-element table"
                                          " exceed the 100-element budget$"):
        cyclic_group(5)

def test_finite_group_validation():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [1, 0]])


def test_neumann_spec_example():
    group = cyclic_group(6)
    cover = [
        ({0, 2, 4}, 0),
        ({0, 3}, 1),
        ({0, 3}, 2),
        ({0, 3}, 0),
    ]
    assert neumann_check(group, cover) == 2
    assert neumann_check(group, [(set(range(6)), 0)]) == 1
    with pytest.raises(ValueError):
        neumann_check(group, [({0, 3}, 0), ({0, 3}, 1)])
    with pytest.raises(ValueError):
        neumann_check(group, [({0, 2}, 0), ({0, 3}, 1)])


def test_neumann_sweep_small():
    report = neumann_sweep(6, 3)
    assert report == {
        "groups": 6,
        "r_max": 3,
        "covers_checked": 137,
        "max_min_index": 3,
    }


def test_neumann_sweep_builds_no_group_tables(monkeypatch):
    # Z/n's cosets come from the divisors of n, so no table is checked
    monkeypatch.setattr(cosets, "FiniteGroup", None)
    monkeypatch.setattr(cosets, "cyclic_group", None)
    assert neumann_sweep(6, 3)["covers_checked"] == 137


def test_neumann_sweep_counts_its_coset_sets_first(monkeypatch):
    # sum of comb(cosets, r): 424 at the default (6, 3), 3,072 at C5's (8, 4)
    for (n_max, r_max), count in (((6, 3), 424), ((8, 4), 3072)):
        monkeypatch.setenv("GERMLAB_BUDGET", str(count))
        assert neumann_sweep(n_max, r_max)["groups"] == n_max
        monkeypatch.setenv("GERMLAB_BUDGET", str(count - 1))
        with pytest.raises(BudgetError, match="^%d coset sets in groups of order up to %d"
                           % (count, n_max)):
            neumann_sweep(n_max, r_max)
    # no cover is tried before the count passes the budget
    monkeypatch.delenv("GERMLAB_BUDGET")
    monkeypatch.setattr(cosets, "_min_index", None)
    with pytest.raises(BudgetError, match="^204892 coset sets in groups of order up to 14 "):
        neumann_sweep(24, 5)


# -- oracles: the frozenset coset code before the bitmasks --------------------


def _oracle_is_subgroup(group, elements):
    subset = set(elements)
    return group.identity in subset and all(
        group.table[a][b] in subset for a in subset for b in subset)


def _oracle_subgroups(group):
    rest = [x for x in range(len(group)) if x != group.identity]
    return [frozenset((group.identity,) + extra)
            for size in range(len(rest) + 1) for extra in combinations(rest, size)
            if _oracle_is_subgroup(group, (group.identity,) + extra)]


def _oracle_coset(group, subgroup, rep):
    return frozenset(group.table[rep][s] for s in subgroup)


def _oracle_neumann_check(group, cover):
    covered, indices = set(), []
    for subgroup, rep in cover:
        elements = frozenset(subgroup)
        if not _oracle_is_subgroup(group, elements):
            raise ValueError("cover lists a non-subgroup")
        covered |= _oracle_coset(group, elements, rep)
        indices.append(len(group) // len(elements))
    if covered != set(range(len(group))):
        raise ValueError("not a cover: union misses elements")
    best = min(indices)
    if best > len(cover):
        raise RuntimeError("a cover by %d cosets has minimal index %d" % (len(cover), best))
    return best


def _oracle_neumann_sweep(n_max, r_max):
    covers_checked = max_min_index = 0
    for n in range(1, n_max + 1):
        group = cyclic_group(n)
        cosets, seen = [], set()
        for subgroup in _oracle_subgroups(group):
            for rep in range(n):
                c = _oracle_coset(group, subgroup, rep)
                if (subgroup, c) not in seen:
                    seen.add((subgroup, c))
                    cosets.append((subgroup, min(c)))
        for r in range(1, r_max + 1):
            for chosen in combinations(cosets, r):
                union = set()
                for subgroup, rep in chosen:
                    union |= _oracle_coset(group, subgroup, rep)
                if union == set(range(n)):
                    covers_checked += 1
                    max_min_index = max(max_min_index, _oracle_neumann_check(group, chosen))
    return {"groups": n_max, "r_max": r_max, "covers_checked": covers_checked,
            "max_min_index": max_min_index}


def _symmetric_group(k):
    perms = sorted(permutations(range(k)))
    return FiniteGroup([[perms.index(tuple(p[q[i]] for i in range(k))) for q in perms]
                        for p in perms])


KLEIN = FiniteGroup([[a ^ b for b in range(4)] for a in range(4)])
SMALL_GROUPS = [cyclic_group(n) for n in range(1, 9)] + [KLEIN, _symmetric_group(3)]


def test_neumann_sweep_matches_the_set_oracle():
    for n_max in range(9):
        for r_max in range(5):
            assert neumann_sweep(n_max, r_max) == _oracle_neumann_sweep(n_max, r_max)


def test_subgroups_match_the_set_oracle():
    for group in SMALL_GROUPS:
        for bits in range(1 << len(group)):
            subset = [x for x in range(len(group)) if bits >> x & 1]
            assert group._closed(bits) == _oracle_is_subgroup(group, subset)
            assert group._mask(subset) == bits


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@given(st.data())
def test_neumann_check_matches_the_set_oracle(data):
    group = data.draw(st.sampled_from(SMALL_GROUPS))
    n = len(group)
    subgroups = _oracle_subgroups(group)
    # mostly true subgroups, so that covers turn up; sometimes any subset
    subsets = st.one_of(st.sampled_from(subgroups), st.sets(st.integers(0, n - 1)))
    cover = data.draw(st.lists(st.tuples(subsets, st.integers(0, n - 1)), max_size=6))
    assert _outcome(neumann_check, group, cover) == _outcome(_oracle_neumann_check, group, cover)


def test_neumann_check_rejects_elements_outside_the_group():
    with pytest.raises(ValueError, match="not in 0..5"):
        neumann_check(cyclic_group(6), [({0, 6}, 0)])


def test_disjoint_search_single_arc():
    regions, w = disjoint_open_search([GEN_A], Dyadic(7, 3))
    assert regions == (ArcSet.of((Dyadic(1, 2), Dyadic(3, 3))),)
    assert w == ArcSet.of((Dyadic(3, 2), Dyadic(1)))
    u = regions[0]
    assert u.disjoint_from(u.image(GEN_A))
    assert w.contains_point(Dyadic(7, 3))
    assert w.disjoint_from(u)
    assert w.disjoint_from(u.preimage(GEN_A))


def test_disjoint_search_two_elements():
    g1 = conjugate_into_interval(GEN_A, Dyadic(1, 3), Dyadic(1, 2))
    g2 = conjugate_into_interval(GEN_A, Dyadic(5, 3), Dyadic(3, 2))
    regions, w = disjoint_open_search([g1, g2], Dyadic(0))
    assert len(regions) == 2
    gs = [g1, g2]
    pieces = list(regions) + [u.image(g) for u, g in zip(regions, gs)]
    for i, p in enumerate(pieces):
        for q in pieces[i + 1 :]:
            assert p.disjoint_from(q)
    for u in regions:
        assert w.disjoint_from(u)
        for g in gs:
            assert w.disjoint_from(u.preimage(g))
    assert w.contains_point(Dyadic(0))
    # deterministic: repeat run gives identical output
    assert disjoint_open_search([g1, g2], Dyadic(0)) == (regions, w)


def test_disjoint_search_rejects_identity():
    with pytest.raises(ValueError):
        disjoint_open_search([GEN_A, GEN_A * GEN_A.inverse()], Dyadic(0))


def test_disjoint_search_prefix_kernel():
    regions, w = disjoint_open_search([GEN_VA], ONE_SEQ)
    assert regions == (Cylinders.of("01"),)
    assert w == Cylinders.of("1")
    u = regions[0]
    assert u.disjoint_from(u.image(GEN_VA))
    assert w.contains_point(ONE_SEQ)
    assert w.disjoint_from(u.image(GEN_VA.inverse()))


def test_micro_support_cancellation():
    u, v = rigid_stabilizer_gens(Dyadic(1, 2), Dyadic(3, 3))
    gamma = u * v
    a = micro_support_element(gamma, gamma, GEN_A, [ArcSet.of((Dyadic(1, 2), Dyadic(3, 3)))])
    assert a.is_identity()


def test_micro_support_delta_identity():
    regions, w = disjoint_open_search([GEN_A], Dyadic(7, 3))
    lo, hi = regions[0].arcs[0]
    u1, u2 = rigid_stabilizer_gens(lo, hi)
    gamma = u1 * u2
    delta = F.identity
    a = micro_support_element(gamma, delta, GEN_A, regions=regions)
    assert verify_micro_support(a, gamma, delta, regions[0], w)
    assert equal_on(a, gamma, regions[0])


def test_micro_support_precondition():
    regions, w = disjoint_open_search([GEN_A], Dyadic(7, 3))
    with pytest.raises(ValueError):
        micro_support_element(GEN_B, GEN_B, GEN_A, regions=regions)


def test_micro_support_random_instances():
    rng = random.Random(41)
    regions, w = disjoint_open_search([GEN_A], Dyadic(7, 3))
    lo, hi = regions[0].arcs[0]
    gens = rigid_stabilizer_gens(lo, hi)
    for _ in range(10):
        gamma = F.identity
        delta = F.identity
        for _ in range(rng.randrange(1, 4)):
            gamma = gamma * rng.choice(gens) ** rng.choice([-1, 1])
            delta = delta * rng.choice(gens) ** rng.choice([-1, 1])
        a = micro_support_element(gamma, delta, GEN_A, regions=regions)
        assert verify_micro_support(a, gamma, delta, regions[0], w)
        assert a.identity_on(w)


def test_micro_support_prefix_kernel():
    regions, w = disjoint_open_search([GEN_VA], ONE_SEQ)
    word = regions[0].words[0]
    gens = rigid_stabilizer_v(word)
    gamma = gens[0] * gens[1]
    delta = gens[1]
    a = micro_support_element(gamma, delta, GEN_VA, regions=regions)
    assert verify_micro_support(a, gamma, delta, regions[0], w)


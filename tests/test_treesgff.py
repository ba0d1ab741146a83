import hashlib
import json
import os
import random
import subprocess
import sys
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from germlab.chabauty import BudgetError
from germlab.suites import _rand_tree_word
from germlab.treesgff import (
    PermGroupPair,
    TreeAut,
    alternating_perms,
    ball,
    busemann_level,
    cocycle_failure,
    common_prefix_len,
    cyclic_perms,
    direction_toward,
    elliptic_germ_check,
    format_vertex,
    halftree_permuter,
    level_pairs,
    level_transitivity_witness,
    neighbour,
    parse_vertex,
    perm_compose,
    perm_identity,
    word_image,
)

PAIR = PermGroupPair(5, cyclic_perms(5), alternating_perms(5))


def _vertices_below(v, depth, degree):
    """Reduced-word extensions of v by at most depth further edges."""
    out = [v]
    frontier = [v]
    for _ in range(depth):
        nxt = []
        for u in frontier:
            for c in range(degree):
                if u and u[-1] == c:
                    continue
                nxt.append(u + (c,))
        out.extend(nxt)
        frontier = nxt
    return out


@pytest.mark.parametrize("degree", [3, 4, 5])
def test_ball_from_a_start_matches_the_extension_loop(degree):
    for start in [(), (0,), (2,), (1, 0), (0, 1, 2), (2, 1, 0, 1)]:
        for radius in range(4):
            want = _vertices_below(start, radius, degree)
            assert ball(degree, radius, start) == want
            if not start:
                assert ball(degree, radius) == want
XI = (0, 1, 0, 1, 0, 1, 0, 1)
# the Klein four-group acts freely and transitively on four colors
KLEIN = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
PAIRS = (PAIR, PermGroupPair(4, KLEIN, alternating_perms(4)))


def rand_element(rng, pair=PAIR):
    kind = rng.randrange(3)
    if kind == 0:
        return TreeAut.constant(pair, rng.choice(sorted(pair.small)))
    if kind == 1:
        v = rand_vertex(rng, 3, pair.degree)
        return TreeAut(pair, v, {(): perm_identity(pair.degree)})
    m = rand_vertex(rng, 3, pair.degree)
    colors = list(range(pair.degree))
    rng.shuffle(colors)
    for c in colors:
        perms = [p for p in sorted(pair.large) if p[c] == c and p != perm_identity(pair.degree)]
        if perms:
            return halftree_permuter(pair, m, c, rng.choice(perms))
    raise AssertionError


def rand_vertex(rng, max_len, degree):
    v = ()
    for _ in range(rng.randrange(max_len + 1)):
        choices = [c for c in range(degree) if not v or v[-1] != c]
        v = v + (rng.choice(choices),)
    return v


def rand_word(rng, n, pair=PAIR):
    g = TreeAut.identity(pair)
    for _ in range(n):
        h = rand_element(rng, pair)
        if rng.random() < 0.5:
            h = h.inverse()
        g = g * h
    return g


def test_perm_pair_validation():
    assert PAIR.two_transitive()
    assert PAIR.taking(2, 4) == tuple((i + 2) % 5 for i in range(5))
    with pytest.raises(ValueError):
        PermGroupPair(5, alternating_perms(5), alternating_perms(5))  # not free
    with pytest.raises(ValueError):
        PermGroupPair(3, [(0, 1, 2), (1, 2, 0)], [(0, 1, 2)])  # not closed / not inside
    # in A_3 = C_3 only the identity fixes a color: no half-tree permuters
    with pytest.raises(ValueError, match="fixes a color"):
        PermGroupPair(3, cyclic_perms(3), alternating_perms(3))


def test_alternating_perms_are_the_even_half():
    for d in range(7):
        evens = alternating_perms(d)
        assert len(evens) == max(1, factorial(d) // 2)
        assert all(perm_compose(p, q) in evens for p in evens for q in evens)


def test_indexed_pair_matches_the_permutations():
    for pair in PAIRS:
        ident = perm_identity(pair.degree)
        assert list(pair.perms) == sorted(pair.large)
        for i, p in enumerate(pair.perms):
            assert pair.index[p] == i
            assert perm_compose(p, pair.perms[pair.inv[i]]) == ident
            for j, q in enumerate(pair.perms):
                assert pair.perms[pair.mul[i][j]] == perm_compose(p, q)
        for c in range(pair.degree):
            for x in range(pair.degree):
                s = pair.taking(c, x)
                assert s in pair.small and s[c] == x
            assert list(pair.stabilizers[c]) == [
                p for p in sorted(pair.large) if p[c] == c and p != ident]
        rng = random.Random(pair.degree)
        for _ in range(200):
            colors = rng.sample(range(pair.degree), rng.randrange(4))
            wanted = {c: rng.randrange(pair.degree) for c in colors}
            first = [p for p in sorted(pair.large) if all(p[c] == v for c, v in wanted.items())]
            assert pair.find_large(wanted) == (first[0] if first else None)


def test_pair_compose_table_obeys_budget(monkeypatch):
    monkeypatch.setenv("GERMLAB_BUDGET", "119")
    with pytest.raises(BudgetError, match="5! permutations"):
        alternating_perms(5)
    # |A_5|^2 = 3600 table entries
    monkeypatch.setenv("GERMLAB_BUDGET", "3599")
    with pytest.raises(BudgetError, match="budget"):
        PermGroupPair(5, cyclic_perms(5), alternating_perms(5))
    monkeypatch.setenv("GERMLAB_BUDGET", "3600")
    assert PermGroupPair(5, cyclic_perms(5), alternating_perms(5)) == PAIR


def test_neighbour_involution():
    rng = random.Random(5)
    for _ in range(50):
        v = rand_vertex(rng, 5, 5)
        c = rng.randrange(5)
        assert neighbour(neighbour(v, c), c) == v


def test_identity_and_constant():
    e = TreeAut.identity(PAIR)
    rot = TreeAut.constant(PAIR, PAIR.taking(0, 1))
    for v in ball(5, 3):
        assert e.act_on(v) == v
        assert rot.local_perm(v) == PAIR.taking(0, 1)
    assert e.is_identity()
    assert not rot.is_identity()


def test_portrait_validation():
    ident = perm_identity(5)
    with pytest.raises(ValueError):
        TreeAut(PAIR, (), {})  # missing base entry
    with pytest.raises(ValueError):
        TreeAut(PAIR, (), {(): ident, (0, 1): ident})  # not prefix-closed
    moved = PAIR.taking(0, 1)
    with pytest.raises(ValueError):
        # child disagrees with parent on the connecting color 0
        TreeAut(PAIR, (), {(): ident, (0,): moved})


def test_canonical_pruning():
    ident = perm_identity(5)
    g = TreeAut(PAIR, (), {(): ident, (2,): ident, (2, 0): ident})
    assert g.is_identity()
    assert g == TreeAut.identity(PAIR)


def test_act_inverse_roundtrip():
    rng = random.Random(17)
    for _ in range(25):
        g = rand_word(rng, rng.randrange(1, 4))
        for _ in range(8):
            v = rand_vertex(rng, 4, 5)
            assert g.act_inv(g.act_on(v)) == v
            assert g.act_on(g.act_inv(v)) == v


def test_cocycle_identity_on_ball():
    rng = random.Random(19)
    vertices = ball(5, 4)
    for _ in range(15):
        g = rand_word(rng, 2)
        h = rand_word(rng, 2)
        gh = g * h
        for v in vertices:
            expected = perm_compose(g.local_perm(h.act_on(v)), h.local_perm(v))
            assert gh.local_perm(v) == expected


def _oracle_cocycle_failure(g, h, gh, radius):
    """cocycle_failure without the stop at forced subtrees: the walk goes
    on through every vertex of the ball until a first failure is known."""
    perms, mul, degree = g.pair.perms, g.pair.mul, g.pair.degree
    first = (radius + 1, None)

    def visit(hs, ghs, gs):
        nonlocal first
        v = hs[0]
        if ghs[1] != mul[gs[1]][hs[1]]:
            first = min(first, (len(v), v))
        elif len(v) < min(radius, first[0]):
            for c in range(degree):
                if not v or v[-1] != c:
                    visit(h._step(hs, c), gh._step(ghs, c), g._step(gs, perms[hs[1]][c]))

    visit(h._root(), gh._root(), g._walk(h.base_image)[0])
    return first[1]


def _depth(g):
    return max(map(len, g.portrait))


def test_pruned_cocycle_walk_matches_the_oracle():
    # k's portrait reaches below g's and h's, so g * h * k and k * g * h are
    # wrong products that agree with g * h down to some depth
    rng = random.Random(1605)
    failures = 0
    for pair in PAIRS:
        for _ in range(40):
            g, h = rand_word(rng, 2, pair), rand_word(rng, 2, pair)
            m = ()
            while len(m) <= max(_depth(g), _depth(h)):
                m += (rng.choice([c for c in range(pair.degree) if not m or m[-1] != c]),)
            # half the time k fixes the half-tree holding the root, so the wrong
            # products differ from g * h below m only
            color = m[-1] if rng.random() < 0.5 else rng.randrange(pair.degree)
            k = halftree_permuter(pair, m, color, rng.choice(pair.stabilizers[color]))
            assert _depth(k) > max(_depth(g), _depth(h))
            for gh in (g * h, g * h * k, k * g * h):
                for radius in range(6):
                    bad = _oracle_cocycle_failure(g, h, gh, radius)
                    assert cocycle_failure(g, h, gh, radius) == bad
                    failures += bad is not None
    assert failures > 0


def test_cocycle_walk_follows_g_back_into_its_portrait():
    # h moves every vertex by the base image 0.1.2 and permutes no colors,
    # so h(2) = 0.1 sits above h(2.1) = 0: below v = 2 the walk of g climbs
    # back into g's portrait at 0 although all three states are outside
    # their portraits at v
    h = TreeAut(PAIR, (0, 1, 2), {(): perm_identity(5)})
    g = halftree_permuter(PAIR, (0,), 0, (0, 1, 3, 4, 2))
    v = (2,)
    hs, gs = h._walk(v)[0], g._walk(h.act_on(v))[0]
    assert h.act_on(v) == (0, 1) and h.act_on(v + (1,)) == (0,)
    assert h.act_on(v)[-1] != h.local_perm(v)[v[-1]]
    assert not hs[2] and not gs[2] and (0,) in g.portrait
    # a wrong product: g * h with its portrait cut at v, so constant below v
    gh = g * h
    cut = TreeAut(PAIR, gh.base_image, {u: p for u, p in gh.portrait.items() if u[:1] != v})
    assert not cut._walk(v)[0][2]
    assert cut.local_perm(v) == perm_compose(g.local_perm(h.act_on(v)), h.local_perm(v))
    for radius in range(6):
        want = (2, 1) if radius >= 2 else None
        assert _oracle_cocycle_failure(g, h, cut, radius) == want
        assert cocycle_failure(g, h, cut, radius) == want
        assert cocycle_failure(g, h, gh, radius) is None


def test_cocycle_walk_goes_on_while_a_portrait_continues_below():
    # a permuter at 1.2 that fixes the half-tree holding the root is the
    # identity at 1, so the identity holds at v = 1 with every other element
    # trivial, and only the permuter's own walk is inside its portrait there
    permuter = halftree_permuter(PAIR, (1, 2), 2, PAIR.stabilizers[2][0])
    e = TreeAut.identity(PAIR)
    assert permuter.local_perm((1,)) == perm_identity(5) and (1,) in permuter.portrait
    # the permuter stands as h, as the wrong product gh and as g in turn
    for g, h, gh in ((e, permuter, e), (e, e, permuter), (permuter, e, e)):
        for radius in range(4):
            want = (1, 2) if radius >= 2 else None
            assert _oracle_cocycle_failure(g, h, gh, radius) == want
            assert cocycle_failure(g, h, gh, radius) == want


def test_cocycle_walk_cost_stops_growing_with_the_radius(monkeypatch):
    rng = random.Random(5)
    triples = []
    for _ in range(100):
        g, h = _rand_tree_word(rng, PAIR, 2), _rand_tree_word(rng, PAIR, 2)
        triples.append((g, h, g * h))
    steps = [0]
    step = TreeAut._step

    def counting(self, state, color):
        steps[0] += 1
        return step(self, state, color)

    monkeypatch.setattr(TreeAut, "_step", counting)
    cost = {}
    for radius in (5, 20):
        steps[0] = 0
        assert all(cocycle_failure(g, h, gh, radius) is None for g, h, gh in triples)
        cost[radius] = steps[0]
    # the unpruned walk would visit ~10^12 vertices at radius 20
    assert 0 < cost[20] <= 2 * cost[5]


def test_product_pulls_the_left_factor_in_one_walk(monkeypatch):
    rng = random.Random(12)
    f, g = _rand_tree_word(rng, PAIR, 12), _rand_tree_word(rng, PAIR, 12)
    steps = [0]
    back = TreeAut._back

    def counting(self, state, color):
        steps[0] += 1
        return back(self, state, color)

    monkeypatch.setattr(TreeAut, "_back", counting)
    fg = f * g
    # pulling each of f's portrait vertices from the root separately takes 297 steps
    assert 0 < steps[0] <= len(f.portrait) + len(g.base_image)
    monkeypatch.undo()
    assert all(fg.act_on(v) == f.act_on(g.act_on(v)) for v in ball(PAIR.degree, 4))


def test_composition_keeps_portrait_finite_and_large():
    rng = random.Random(20)
    for _ in range(20):
        g = rand_word(rng, 3)
        h = rand_word(rng, 3)
        gh = g * h
        candidates = set(h.portrait)
        candidates.update(h.act_inv(v) for v in g.portrait)
        closed = set()
        for v in candidates:
            for k in range(len(v) + 1):
                closed.add(v[:k])
        assert set(gh.portrait) <= closed
        assert all(p in PAIR.large for p in gh.portrait.values())


def test_halftree_permuter_fixes_the_protected_side():
    perm = PAIR.find_large({1: 1, 0: 2, 2: 0})
    g = halftree_permuter(PAIR, (0,), 1, perm)
    assert g.local_perm((0,)) == perm
    # the half-tree through the color-1 edge at (0,) is fixed pointwise
    for v in ball(5, 4):
        if v[:2] == (0, 1):
            assert g.act_on(v) == v


def test_halftree_permuter_action():
    perm = PAIR.find_large({1: 1, 0: 2, 2: 0})
    g = halftree_permuter(PAIR, (0,), 1, perm)
    # swaps the upward direction (color 0) with the color-2 direction at (0,)
    assert g.act_on((0,)) == (0,)
    assert g.act_on((0, 2)) == ()
    assert g.act_on(()) == (0, 2)
    # below (0, 2) the forced small-group rotation takes 2 to 0, hence 1 to 4
    assert g.act_on((0, 2, 1)) == (4,)


def _checked_halftree(pair, m, fixed_color, perm):
    """halftree_permuter through the public constructor and all its checks."""
    portrait, img = {m: perm}, m
    for j in range(len(m), 0, -1):
        portrait[m[:j - 1]] = pair.taking(m[j - 1], portrait[m[:j]][m[j - 1]])
        img = neighbour(img, portrait[m[:j]][m[j - 1]])
    return TreeAut(pair, img, portrait)


@given(st.data())
def test_builders_match_the_checked_constructor(data):
    pair = data.draw(st.sampled_from(PAIRS))
    m = data.draw(_vertices(pair.degree))
    color = data.draw(st.sampled_from([c for c in range(pair.degree) if pair.stabilizers[c]]))
    perm = data.draw(st.sampled_from(pair.stabilizers[color] + (perm_identity(pair.degree),)))
    g, want = halftree_permuter(pair, m, color, perm), _checked_halftree(pair, m, color, perm)
    assert (g.base_image, g._at) == (want.base_image, want._at)
    small = data.draw(st.sampled_from(sorted(pair.small)))
    g, want = TreeAut.constant(pair, small, m), TreeAut(pair, m, {(): small})
    assert (g.base_image, g._at) == (want.base_image, want._at)


def test_builders_reject_what_the_constructor_rejects():
    perm = PAIR.stabilizers[1][0]
    with pytest.raises(ValueError, match="not a reduced word"):
        halftree_permuter(PAIR, (0, 0), 1, perm)
    with pytest.raises(ValueError, match="must fix the protected color"):
        halftree_permuter(PAIR, (0,), 2, perm)
    with pytest.raises(ValueError, match="outside the large group"):
        halftree_permuter(PAIR, (0,), 0, (0, 2, 1, 3, 4))
    with pytest.raises(ValueError, match="base image must be a reduced word"):
        TreeAut.constant(PAIR, perm_identity(5), (2, 2))
    with pytest.raises(ValueError, match="free-group value"):
        TreeAut.constant(PAIR, perm)


def test_busemann_levels_partition():
    for v in ball(5, 4):
        levels = [busemann_level(neighbour(v, c), XI) for c in range(5)]
        mine = busemann_level(v, XI)
        assert levels.count(mine - 1) == 1
        assert levels.count(mine + 1) == 4
    with pytest.raises(ValueError):
        busemann_level(XI, XI)


def _same_level_distances(vertices, xi):
    """Every same-level pair (v, w, distance), v before w: the slow way."""
    levels = {}
    for v in vertices:
        levels.setdefault(busemann_level(v, xi), []).append(v)
    return {level: [(v, w, len(v) + len(w) - 2 * common_prefix_len(v, w))
                    for i, v in enumerate(same) for w in same[i + 1:]]
            for level, same in levels.items()}


def test_level_pair_buckets_match_the_all_pairs_filter():
    # (0, 1, 0, 1) is as short as a ray prefix can be for the depth-3 ball,
    # so pushing its ray vertices 3 steps toward the end would run past it
    for xi, depths in ((XI, range(6)), (XI[:4], [3])):
        for depth in depths:
            vertices = ball(PAIR.degree, depth)
            distances = _same_level_distances(vertices, xi)
            for max_dist in range(7):
                want = {level: [(v, w) for v, w, d in pairs if d <= max_dist]
                        for level, pairs in distances.items()}
                # same levels, same pairs, in the same order
                got = level_pairs(vertices, xi, max_dist)
                assert [(level, list(pairs)) for level, pairs in got.items()] == list(want.items())


def test_direction_toward():
    assert direction_toward((), XI) == 0
    assert direction_toward((0,), XI) == 1
    assert direction_toward((2, 3), XI) == 3
    assert direction_toward((0, 2), XI) == 2


def test_elliptic_identity():
    verdict = elliptic_germ_check(TreeAut.identity(PAIR), XI, 8)
    assert verdict == ("fixes_half_tree", ((), (0,)))


def test_elliptic_after_exceptions():
    perm = PAIR.find_large({0: 0, 1: 3, 3: 1})
    g = halftree_permuter(PAIR, (1, 0), 0, perm)
    verdict = elliptic_germ_check(g, XI, 8)
    assert verdict[0] == "fixes_half_tree"
    edge = verdict[1]
    # verified pointwise on the explored ball
    far = edge[1]
    for v in ball(5, 5):
        if v[:len(far)] == far:
            assert g.act_on(v) == v


def test_elliptic_rejects_moving_defaults():
    rot = TreeAut.constant(PAIR, PAIR.taking(0, 1))
    with pytest.raises(ValueError):
        elliptic_germ_check(rot, XI, 8)


def test_elliptic_pending_when_prefix_short():
    perm = PAIR.find_large({1: 1, 2: 3, 3: 2})
    g = halftree_permuter(PAIR, (0, 1, 0, 1), 1, perm)
    assert elliptic_germ_check(g, (0, 1), 8) == ("pending",)


def test_level_witness_trivial_and_basic():
    assert level_transitivity_witness(PAIR, XI, (2,), (2,)) == []
    word = level_transitivity_witness(PAIR, XI, (2,), (3,))
    assert len(word) == 1
    assert word[0].act_on((2,)) == (3,)
    # the single exception sits at the midpoint
    nontrivial = [v for v, p in word[0].portrait.items() if p not in PAIR.small]
    assert nontrivial == [()]


def test_level_witness_distance_four():
    v, w = (2, 1), (3, 1)
    assert busemann_level(v, XI) == busemann_level(w, XI)
    word = level_transitivity_witness(PAIR, XI, v, w)
    assert len(word) == 2
    cur = v
    for step in word:
        cur = step.act_on(cur)
    assert cur == w


def test_level_witness_vertical_pair():
    v, w = (0, 2), ()
    assert busemann_level(v, XI) == busemann_level(w, XI) == 0
    word = level_transitivity_witness(PAIR, XI, v, w)
    cur = v
    for step in word:
        cur = step.act_on(cur)
    assert cur == w
    with pytest.raises(ValueError):
        level_transitivity_witness(PAIR, XI, (2,), (2, 1, 2))


def test_random_level_pairs():
    rng = random.Random(21)
    count = 0
    while count < 25:
        v = rand_vertex(rng, 4, 5)
        w = rand_vertex(rng, 4, 5)
        try:
            if busemann_level(v, XI) != busemann_level(w, XI):
                continue
        except ValueError:
            continue
        word = level_transitivity_witness(PAIR, XI, v, w)
        cur = v
        for step in word:
            cur = step.act_on(cur)
        assert cur == w
        count += 1


def test_level_witness_memo_matches_fresh_witnesses():
    memo = {}
    levels = {}
    for v in ball(PAIR.degree, 3):
        levels.setdefault(busemann_level(v, XI), []).append(v)
    pairs = [(v, w) for same in levels.values() for v in same for w in same if v != w]
    for v, w in pairs:
        assert level_transitivity_witness(PAIR, XI, v, w, memo) == \
            level_transitivity_witness(PAIR, XI, v, w)
    # the memo keeps the pushed-up pairs, as tuples that the words extended
    # from them leave alone, the permuters under (vertex, color, perm), and
    # three caches under their names
    caches = {key: memo[key] for key in ("placed", "choices", "images")}
    words = {key: word for key, word in memo.items() if len(key) == 2 and key not in caches}
    permuters = {key: g for key, g in memo.items() if len(key) == 3}
    assert len(words) + len(permuters) + len(caches) == len(memo)
    assert all(isinstance(word, tuple) for word in words.values())
    pushed = {(neighbour(v, direction_toward(v, XI)), neighbour(w, direction_toward(w, XI)))
              for v, w in pairs}
    assert set(words) == pushed
    for (v, w), word in words.items():
        assert list(word) == level_transitivity_witness(PAIR, XI, v, w)
    assert permuters
    for (pw, gamma, perm), g in permuters.items():
        assert g == halftree_permuter(PAIR, pw, gamma, perm)
    # each vertex met: its level, its push toward the end and that push's color
    for v, (level, push, color) in caches["placed"].items():
        assert level == busemann_level(v, XI)
        assert color == direction_toward(v, XI) and push == neighbour(v, color)
    # each choice fixes gamma and sends c_cur to c_w, and names a permuter
    for (gamma, c_cur, c_w), perm in caches["choices"].items():
        assert perm[gamma] == gamma and perm[c_cur] == c_w
        assert any(key[1:] == (gamma, perm) for key in permuters)
    # the images belong to permuters of the memo, and agree with act_on
    stored = {id(g) for g in permuters.values()}
    assert caches["images"] and set(caches["images"]) <= stored
    for key, (g, images) in caches["images"].items():
        assert key == id(g)
        for v, image in images.items():
            assert image == g.act_on(v)


def test_level_check_walks_each_element_once_per_vertex(monkeypatch):
    calls = []
    act_on = TreeAut.act_on

    def counting(self, v):
        calls.append((id(self), v))
        return act_on(self, v)

    monkeypatch.setattr(TreeAut, "act_on", counting)
    memo = {}
    for pairs in level_pairs(ball(PAIR.degree, 3), XI, 4).values():
        for v, w in pairs:
            assert word_image(level_transitivity_witness(PAIR, XI, v, w, memo), v, memo) == w
    # the witnesses and the replays walked each (element, vertex) once
    assert calls and len(calls) == len(set(calls))
    assert len(calls) == sum(len(images) for _, images in memo["images"].values())


def test_word_image_matches_act_on():
    rng = random.Random(23)
    memo = {}
    words = [[rand_word(rng, 2) for _ in range(rng.randrange(4))] for _ in range(8)]
    for _ in range(300):
        word = rng.choice(words)
        v = rand_vertex(rng, 5, PAIR.degree)
        want = v
        for g in word:
            want = g.act_on(want)
        assert word_image(word, v, memo) == want
    assert word_image([], (1, 2), {}) == (1, 2)


@given(st.data())
def test_images_match_act_on(data):
    pair = data.draw(st.sampled_from(PAIRS))
    g, o = data.draw(_words(pair))
    # any order, repeats, and sets that are not closed under prefixes
    vertices = data.draw(st.lists(_vertices(pair.degree, 7), max_size=12))
    assert g.images(vertices) == [g.act_on(v) for v in vertices] == [o.act_on(v) for v in vertices]
    assert g.images(iter([list(v) for v in vertices])) == g.images(vertices)


def test_vertex_formatting():
    assert parse_vertex("0.1.0") == (0, 1, 0)
    assert parse_vertex("") == ()
    assert format_vertex((2, 0, 4)) == "2.0.4"
    with pytest.raises(ValueError):
        parse_vertex("1.1")


def test_from_json_rejects_an_exception_at_the_base_vertex():
    data = {"base_image": "", "default": [0, 1, 2, 3, 4], "exceptions": {"": [1, 2, 3, 4, 0]}}
    with pytest.raises(ValueError, match="default"):
        TreeAut.from_json(PAIR, data)


# -- the recursive kernel, kept as an oracle ------------------------------------

def _perm_inverse(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


class _OracleTreeAut:
    """The tree kernel before the walk: a recursive, memoized local_perm and
    per-vertex act_on from the root, pruning leaves round after round."""

    def __init__(self, pair, base_image, portrait):
        entries = {tuple(v): tuple(p) for v, p in portrait.items()}
        assert () in entries
        for v, p in entries.items():
            assert p in pair.large and (not v or v[:-1] in entries)
            assert not v or p[v[-1]] == entries[v[:-1]][v[-1]]
        changed = True
        while changed:
            changed = False
            leaves = set(entries)
            for v in entries:
                if v:
                    leaves.discard(v[:-1])
            for v in leaves:
                if not v:
                    continue
                parent = entries[v[:-1]]
                forced = pair.taking(v[-1], parent[v[-1]])
                if entries[v] == forced:
                    del entries[v]
                    changed = True
        self.pair = pair
        self.base_image = tuple(base_image)
        self.portrait = entries
        self._cache = {}

    def local_perm(self, v):
        v = tuple(v)
        hit = self.portrait.get(v)
        if hit is not None:
            return hit
        cached = self._cache.get(v)
        if cached is not None:
            return cached
        parent = self.local_perm(v[:-1])
        forced = self.pair.taking(v[-1], parent[v[-1]])
        self._cache[v] = forced
        return forced

    def act_on(self, v):
        v = tuple(v)
        img = self.base_image
        for k in range(len(v)):
            img = neighbour(img, self.local_perm(v[:k])[v[k]])
        return img

    def act_inv(self, v):
        v = tuple(v)
        u = ()
        cur = self.base_image
        common = 0
        while common < min(len(cur), len(v)) and cur[common] == v[common]:
            common += 1
        colors = [cur[i] for i in range(len(cur) - 1, common - 1, -1)]
        colors.extend(v[common:])
        for c in colors:
            u = neighbour(u, _perm_inverse(self.local_perm(u))[c])
            cur = neighbour(cur, c)
        return u

    def __mul__(self, other):
        keys = set(other.portrait)
        keys.update(other.act_inv(v) for v in self.portrait)
        closed = {v[:k] for v in keys for k in range(len(v) + 1)}
        portrait = {
            v: perm_compose(self.local_perm(other.act_on(v)), other.local_perm(v))
            for v in closed
        }
        return _OracleTreeAut(self.pair, self.act_on(other.base_image), portrait)

    def inverse(self):
        keys = {self.act_on(v) for v in self.portrait}
        closed = {v[:k] for v in keys for k in range(len(v) + 1)}
        portrait = {v: _perm_inverse(self.local_perm(self.act_inv(v))) for v in closed}
        return _OracleTreeAut(self.pair, self.act_inv(()), portrait)

    def __eq__(self, other):
        return tree_key(self) == tree_key(other)


def tree_key(g):
    """(base image, sorted portrait) of a TreeAut or an oracle: the form the
    pinned digest was taken over."""
    return (g.base_image, tuple(sorted(g.portrait.items())))


def _twins(pair, base_image, portrait):
    return TreeAut(pair, base_image, portrait), _OracleTreeAut(pair, base_image, portrait)


@st.composite
def _vertices(draw, degree, max_len=5):
    v = ()
    for _ in range(draw(st.integers(0, max_len))):
        v += (draw(st.sampled_from([c for c in range(degree) if not v or v[-1] != c])),)
    return v


@st.composite
def _portraits(draw, pair):
    """A random valid portrait: each new child agrees with its parent on the
    connecting color, and some entries equal their forced value."""
    large = sorted(pair.large)
    portrait = {(): draw(st.sampled_from(large))}
    for _ in range(draw(st.integers(0, 8))):
        v = draw(st.sampled_from(sorted(portrait)))
        c = draw(st.sampled_from([c for c in range(pair.degree) if not v or v[-1] != c]))
        if v + (c,) in portrait:
            continue
        agree = [p for p in large if p[c] == portrait[v][c]]
        forced = pair.taking(c, portrait[v][c])
        portrait[v + (c,)] = forced if draw(st.booleans()) else draw(st.sampled_from(agree))
    return draw(_vertices(pair.degree)), portrait


@st.composite
def _words(draw, pair):
    """A product of random portraits, with its oracle twin."""
    g, o = _twins(pair, (), {(): perm_identity(pair.degree)})
    for _ in range(draw(st.integers(1, 3))):
        h, p = _twins(pair, *draw(_portraits(pair)))
        if draw(st.booleans()):
            h, p = h.inverse(), p.inverse()
        g, o = g * h, o * p
    return g, o


@given(st.data())
def test_portraits_prune_like_the_oracle(data):
    pair = data.draw(st.sampled_from(PAIRS))
    g, o = _twins(pair, *data.draw(_portraits(pair)))
    assert tree_key(g) == tree_key(o)
    for v in data.draw(st.lists(_vertices(pair.degree), max_size=6)):
        assert g.local_perm(v) == o.local_perm(v)
        assert g.act_on(v) == o.act_on(v)
        assert g.act_inv(v) == o.act_inv(v)


@given(st.data())
def test_walk_matches_the_oracle(data):
    pair = data.draw(st.sampled_from(PAIRS))
    g, o = data.draw(_words(pair))
    assert tree_key(g) == tree_key(o)
    assert tree_key(g.inverse()) == tree_key(o.inverse())
    for v in data.draw(st.lists(_vertices(pair.degree, 7), max_size=8)):
        assert g.local_perm(v) == o.local_perm(v)
        assert g.act_on(v) == o.act_on(v)
        assert g.act_inv(v) == o.act_inv(v)


@given(st.data())
def test_products_and_equality_classes_match_the_oracle(data):
    pair = data.draw(st.sampled_from(PAIRS))
    (f, o), (g, p) = data.draw(_words(pair)), data.draw(_words(pair))
    assert tree_key(f * g) == tree_key(o * p)
    assert tree_key((g * f).inverse()) == tree_key((p * o).inverse())
    # the last three rows are one element, its portrait filled in other orders
    for x, y, ox, oy in ((f, g, o, p), (f * g, g * f, o * p, p * o),
                         (f * g * f.inverse(), g, o * p * o.inverse(), p),
                         ((f * g) * f, f * (g * f), (o * p) * o, o * (p * o)),
                         (g.inverse() * f.inverse(), (f * g).inverse(),
                          p.inverse() * o.inverse(), (o * p).inverse()),
                         (f * g * g.inverse(), f, o * p * p.inverse(), o)):
        assert (x == y) == (ox == oy)
        if x == y:
            assert hash(x) == hash(y)


@given(st.data())
def test_cocycle_failure_names_the_first_bad_ball_vertex(data):
    pair = data.draw(st.sampled_from(PAIRS))
    (g, o), (h, p) = data.draw(_words(pair)), data.draw(_words(pair))
    # h * g stands in for g * h: wrong unless the two commute near the ball
    for gh, ogh in ((g * h, o * p), (h * g, p * o)):
        bad = [v for v in ball(pair.degree, 5)
               if ogh.local_perm(v) != perm_compose(o.local_perm(p.act_on(v)), p.local_perm(v))]
        assert cocycle_failure(g, h, gh, 5) == (bad[0] if bad else None)


def test_boundary_bytes_are_pinned():
    # digests of 200 seeded words taken with the recursive kernel
    rng = random.Random(1651)
    elements = [rand_word(rng, rng.randrange(0, 8)) for _ in range(200)]

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest(repr([tree_key(g) for g in elements])) == (
        "fc1899f42980103fe033c1917348bfdda9414ab767a08763c60fa424e1087cd0")
    assert digest(json.dumps([g.to_json() for g in elements], sort_keys=True)) == (
        "fbe451c898fe641886a54481f006066614b6320d1e1cc68cfb4409e1286372af")
    assert digest(repr(elements)) == (
        "a6b9c5fca222a4c603b3c20ea4a0ab55be8c4648cd99586cd3d3f618749f1f0f")


def test_invalid_portraits_raise_under_optimize():
    # each check is a ValueError, not an assert, so python -O keeps it
    code = (
        "import sys\n"
        "from germlab.treesgff import PermGroupPair, TreeAut, alternating_perms, cyclic_perms\n"
        "pair = PermGroupPair(5, cyclic_perms(5), alternating_perms(5))\n"
        "e, moved = (0, 1, 2, 3, 4), (1, 2, 3, 4, 0)\n"
        "bad = {\n"
        "    'not prefix-closed': {(): e, (0, 1): e},\n"
        "    'disagrees with its parent': {(): e, (0,): moved},\n"
        "    'outside the large group': {(): e, (2,): (1, 0, 2, 3, 4)},\n"
        "}\n"
        "for want, portrait in bad.items():\n"
        "    try:\n"
        "        TreeAut(pair, (), portrait)\n"
        "    except ValueError as exc:\n"
        "        if want not in str(exc):\n"
        "            sys.exit('wrong message: %s' % exc)\n"
        "    else:\n"
        "        sys.exit('accepted: ' + want)\n"
        "print(sys.flags.optimize)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "1"

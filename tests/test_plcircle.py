import random

import pytest

from germlab.plcircle import (
    ArcSet,
    GEN_A,
    GEN_B,
    GEN_C,
    PLMap,
    compress,
    conjugate_into_interval,
    expanding_conjugator,
    germ_data,
    identity,
    in_derived_F,
    interval_map_pieces,
    is_in_F,
    pl_map_through_points,
    rigid_stabilizer_gens,
    rotation,
    standard_subdivision,
    support_fix,
)
from germlab.chabauty import equal_on
from germlab.scalars import Dyadic

D = Dyadic


def rand_dyadic(rng, max_exp=8):
    e = rng.randrange(0, max_exp + 1)
    return D(rng.randrange(0, 1 << e), e)


def rand_word(rng, n):
    gens = [GEN_A, GEN_B, GEN_C]
    w = identity()
    for _ in range(n):
        g = rng.choice(gens)
        if rng.random() < 0.5:
            g = g.inverse()
        w = w * g
    return w


def test_generator_values():
    assert GEN_A(D(1, 1)) == D(1, 2)
    assert GEN_A(D(3, 2)) == D(1, 1)
    assert GEN_A(D(7, 3)) == D(3, 2)
    assert GEN_A(D(0)) == D(0)
    assert GEN_B(D(1, 2)) == D(1, 2)  # fixed on [0, 1/2]
    assert GEN_B(D(3, 2)) == D(5, 3)
    assert GEN_C(D(0)) == D(3, 2)
    assert GEN_C(D(1, 1)) == D(0)


def test_c_has_order_three():
    assert (GEN_C ** 3).is_identity()
    assert not (GEN_C ** 2).is_identity()


def test_presentation_relations():
    # the two defining relations of the point-0 stabilizer on A, B
    a, b = GEN_A, GEN_B

    def comm(x, y):
        return x * y * x.inverse() * y.inverse()

    r1 = comm(a * b.inverse(), a.inverse() * b * a)
    r2 = comm(a * b.inverse(), a.inverse() ** 2 * b * a ** 2)
    assert r1.is_identity()
    assert r2.is_identity()
    assert not comm(a, b).is_identity()


def test_ab_do_not_commute():
    assert GEN_A * GEN_B != GEN_B * GEN_A


def test_compose_agrees_pointwise():
    rng = random.Random(4242)
    for _ in range(60):
        f = rand_word(rng, rng.randrange(1, 7))
        g = rand_word(rng, rng.randrange(1, 7))
        h = f * g
        for _ in range(25):
            x = rand_dyadic(rng)
            assert h(x) == f(g(x))


def test_inverse_pointwise_and_group_laws():
    rng = random.Random(515)
    for _ in range(40):
        f = rand_word(rng, rng.randrange(1, 8))
        finv = f.inverse()
        assert (f * finv).is_identity()
        assert (finv * f).is_identity()
        for _ in range(10):
            x = rand_dyadic(rng)
            assert finv(f(x)) == x
    f, g, h = (rand_word(rng, 5) for _ in range(3))
    assert (f * g) * h == f * (g * h)


def test_rotation_and_membership():
    r = rotation(D(1, 1))
    assert r(D(0)) == D(1, 1)
    assert r(D(3, 2)) == D(1, 2)  # 3/4 + 1/2 wraps to 1/4
    assert (r * r).is_identity()
    assert not is_in_F(r)
    assert is_in_F(GEN_A) and is_in_F(GEN_B)
    assert not is_in_F(GEN_C)
    assert is_in_F(GEN_A * GEN_B)


def test_germ_data_at_zero():
    g = germ_data(GEN_A, D(0))
    assert g.right_slope_exp == -1 and not g.right_identity
    assert g.left_slope_exp == 1 and not g.left_identity
    g = germ_data(GEN_B, D(0))
    assert g.right_identity  # B is the identity on [0, 1/2]
    assert g.left_slope_exp == 1 and not g.left_identity
    # interior point of an identity piece
    g = germ_data(GEN_B, D(1, 2))
    assert g.left_identity and g.right_identity


def test_in_derived_subgroup():
    assert not in_derived_F(GEN_A)
    assert not in_derived_F(GEN_B)
    rng = random.Random(321)
    for _ in range(50):
        u = rand_word_f(rng, rng.randrange(1, 5))
        v = rand_word_f(rng, rng.randrange(1, 5))
        c = u * v * u.inverse() * v.inverse()
        assert in_derived_F(c)


def rand_word_f(rng, n):
    w = identity()
    for _ in range(n):
        g = rng.choice([GEN_A, GEN_B])
        if rng.random() < 0.5:
            g = g.inverse()
        w = w * g
    return w


def test_support_fix_generator():
    data = support_fix(GEN_A)
    assert data.fixed_arcs.is_empty()
    assert data.fixed_points == (0,)
    assert data.support.is_full()


def test_support_fix_partial_identity():
    data = support_fix(GEN_B)
    # fixed on [0, 1/2]; the only other fixed point is 1 == 0, inside the arc
    assert data.fixed_arcs == ArcSet.of((D(0), D(1, 1)))
    assert data.fixed_points == ()
    assert data.support == ArcSet.of((D(1, 1), D(1)))


def test_support_fix_nondyadic_point():
    # slope-4 piece crossing the diagonal at a non-dyadic rational
    f = pl_map_through_points([(D(0), D(0)), (D(1, 2), D(1, 3)), (D(1), D(1))])
    data = support_fix(f)
    assert data.fixed_arcs.is_empty()
    pts = set(data.fixed_points)
    assert 0 in pts
    assert any(p.denominator % 2 == 1 and p.denominator > 1 for p in pts if p != 0) or pts == {0}


def test_arcset_semantics():
    a = ArcSet.of((D(0), D(1, 2)), (D(3, 2), D(1)))
    b = ArcSet.of((D(13, 4), D(15, 4)))
    assert b.subset_of(a)
    assert not a.subset_of(b)
    wrap = ArcSet.of((D(7, 3), D(1)), (D(0), D(1, 3)))
    assert wrap.subset_of(a)
    assert a.glued() == ((D(3, 2), D(5, 2)),)  # [3/4, 1] u [0, 1/4] rejoined
    assert a.contains_point(D(0)) and a.contains_point(D(7, 3))
    assert not a.contains_point(D(5, 3) - D(1, 5))
    c = ArcSet.of((D(1, 2), D(1, 1)))
    assert not c.disjoint_from(a)  # closed arcs touch at 1/4
    assert ArcSet.of((D(17, 5), D(9, 4))).disjoint_from(ArcSet.of((D(1, 3), D(5, 5))))


def test_arcset_image():
    u = ArcSet.of((D(1, 2), D(1, 1)))
    assert u.image(GEN_A) == ArcSet.of((D(1, 3), D(1, 2)))
    r = rotation(D(3, 2))
    assert u.image(r) == ArcSet.of((D(0), D(1, 2)))
    v = ArcSet.of((D(1, 3), D(3, 3)))
    assert v.image(r) == ArcSet.of((D(7, 3), D(1)), (D(0), D(1, 3)))
    rng = random.Random(8)
    for _ in range(30):
        f = rand_word(rng, 4)
        assert u.image(f).image(f.inverse()) == u


def test_interval_map_pieces_bijection():
    rng = random.Random(31)
    for _ in range(40):
        p = rand_dyadic(rng, 5)
        q = p + D(rng.randrange(1, 40), 5) * D(1, 1)
        if q > D(1):
            continue
        r = rand_dyadic(rng, 5)
        s = r + D(rng.randrange(1, 40), 6)
        pieces = interval_map_pieces(p, q, r, s)
        left0, s0, c0 = pieces[0]
        assert left0 == p
        assert left0.ldexp(s0) + c0 == r
        # continuity and final value
        cur = r
        for i, (l, se, c) in enumerate(pieces):
            right = pieces[i + 1][0] if i + 1 < len(pieces) else q
            assert l.ldexp(se) + c == cur
            cur = right.ldexp(se) + c
        assert cur == s


def test_standard_subdivision_covers():
    parts = standard_subdivision(D(1, 3), D(1))
    cur = D(1, 3)
    for start, k in parts:
        assert start == cur
        assert (start.ldexp(k)).is_integer()
        cur = cur + D(1, k)
    assert cur == D(1)


def test_rigid_stabilizer_supported_and_faithful():
    a, b = D(1, 2), D(3, 2)
    g1, g2 = rigid_stabilizer_gens(a, b)
    outside = ArcSet.of((D(0), a), (b, D(1)))
    inside = ArcSet.of((a, b))
    for g in (g1, g2):
        assert is_in_F(g)
        assert g.identity_on(outside)
        assert support_fix(g).support.subset_of(inside)
        assert not g.is_identity()
    # conjugation preserves the defining relations
    def comm(x, y):
        return x * y * x.inverse() * y.inverse()

    assert comm(g1 * g2.inverse(), g1.inverse() * g2 * g1).is_identity()
    assert not comm(g1, g2).is_identity()


def test_rigid_stabilizer_general_interval():
    g1, g2 = rigid_stabilizer_gens(D(3, 3), D(5, 3))
    assert g1.identity_on(ArcSet.of((D(0), D(3, 3)), (D(5, 3), D(1))))
    assert not g1.is_identity()
    assert (g1 * g1.inverse()).is_identity()


def test_compress_basic():
    region = ArcSet.of((D(1, 2), D(3, 2)))
    g = compress(region, D(7, 3), D(1, 3))
    assert in_derived_F(g)
    image = region.image(g)
    target_low = ArcSet.of((D(0), D(1, 3)))
    target_high = ArcSet.of((D(7, 3), D(1)))
    assert image.subset_of(target_low.union(target_high))


def test_compress_point_case():
    region = ArcSet.of((D(1, 1), D(1, 1)))
    g = compress(region, D(7, 3), D(1, 3))
    assert g.is_identity() or region.image(g).subset_of(
        ArcSet.of((D(0), D(1, 3)), (D(7, 3), D(1)))
    )
    # point already inside the target arc
    region2 = ArcSet.of((D(1, 4), D(1, 4)))
    assert compress(region2, D(7, 3), D(1, 3)).is_identity()


def test_compress_nests_under_iteration():
    region = ArcSet.of((D(1, 3), D(7, 3)))
    g1 = compress(region, D(3, 2), D(1, 2))
    im1 = region.image(g1)
    g2 = compress(im1, D(7, 3), D(1, 3))
    im2 = im1.image(g2)
    assert im2.subset_of(ArcSet.of((D(0), D(1, 3)), (D(7, 3), D(1))))


def test_compress_wrapping_region():
    region = ArcSet.of((D(3, 2), D(1)), (D(0), D(1, 3)))
    g = compress(region, D(13, 4), D(1, 4))
    assert in_derived_F(g)


def test_expanding_conjugator():
    base = ArcSet.of((D(1, 2), D(1, 1)))
    for n in (1, 2, 5):
        g = expanding_conjugator(n)
        assert in_derived_F(g)
        assert base.image(g) == ArcSet.of((D(1, n + 2), D(1) - D(1, n + 2)))


def test_is_identity_on_and_equal_on():
    outside = ArcSet.of((D(0), D(1, 1)))
    assert GEN_B.identity_on(outside)
    assert not GEN_A.identity_on(outside)
    assert equal_on(GEN_B, identity(), outside)
    assert equal_on(GEN_A, GEN_A * GEN_B, outside)  # B trivial there


def test_conjugate_into_interval_pointwise():
    rng = random.Random(77)
    a, b = D(1, 2), D(7, 3)
    g = conjugate_into_interval(GEN_A, a, b)
    assert g(a) == a and g(b) == b
    seen_moved = False
    for _ in range(40):
        x = rand_dyadic(rng)
        y = g(x)
        if x < a or x > b:
            assert y == x
        else:
            assert a <= y <= b
            seen_moved |= y != x
    assert seen_moved


def test_json_roundtrip():
    rng = random.Random(12)
    for _ in range(20):
        f = rand_word(rng, 5)
        assert PLMap.from_json(f.to_json()) == f

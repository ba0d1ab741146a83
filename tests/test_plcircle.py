import bisect
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from germlab.plcircle import (
    ArcSet,
    GEN_A,
    GEN_B,
    GEN_C,
    PLMap,
    compress,
    conjugate_into_interval,
    expanding_conjugator,
    identity,
    in_derived_F,
    is_in_F,
    rigid_stabilizer_gens,
)
from germlab.cantorv import Cylinders
from germlab.chabauty import equal_on
from germlab.scalars import Dyadic

D = Dyadic


def Q(num, exp=0):
    """The dyadic num / 2**exp as a Fraction."""
    return Fraction(num, 1 << exp)


def pl_key(f):
    """The pieces of a map or an oracle map as integers,
    ((left.num, left.exp), slope_exp, (intercept.num, intercept.exp)):
    the form the pinned digests were taken over."""
    pieces = [(D.coerce(l), s, D.coerce(c)) for l, s, c in f.pieces]
    return tuple(((l.num, l.exp), s, (c.num, c.exp)) for l, s, c in pieces)


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


def test_rotation_and_membership():
    r = PLMap([(0, 0, D(1, 1))])
    assert r(D(0)) == D(1, 1)
    assert r(D(3, 2)) == D(1, 2)  # 3/4 + 1/2 wraps to 1/4
    assert (r * r).is_identity()
    assert not is_in_F(r)
    assert is_in_F(GEN_A) and is_in_F(GEN_B)
    assert not is_in_F(GEN_C)
    assert is_in_F(GEN_A * GEN_B)


def test_germ_triviality_at_zero():
    assert not GEN_A.germ_trivial_at(D(0))
    # B is the identity on [0, 1/2] but doubles just left of 0
    assert not GEN_B.germ_trivial_at(D(0))
    # interior point and right end of B's identity piece
    assert GEN_B.germ_trivial_at(D(1, 2))
    assert not GEN_B.germ_trivial_at(D(1, 1))


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
    assert GEN_A.support().is_full()
    # 0 is the only fixed point, and no arc is fixed pointwise
    assert GEN_A(D(0)) == D(0)
    for k in range(1, 64):
        x = D(k, 6)
        assert GEN_A(x) != x
        assert not GEN_A.identity_on(ArcSet.of((x, x + D(1, 6))))


def test_support_fix_partial_identity():
    # fixed on [0, 1/2]; the only other fixed point is 1 == 0, inside the arc
    assert GEN_B.identity_on(ArcSet.of((D(0), D(1, 1))))
    assert not GEN_B.identity_on(ArcSet.of((D(0), D(3, 2))))
    for k in range(33, 64):
        x = D(k, 6)
        assert GEN_B(x) != x
    assert GEN_B.support() == ArcSet.of((D(1, 1), D(1)))


def test_arcset_semantics():
    a = ArcSet.of((D(0), D(1, 2)), (D(3, 2), D(1)))
    b = ArcSet.of((D(13, 4), D(15, 4)))
    assert b.subset_of(a)
    assert not a.subset_of(b)
    # [7/8, 9/8] lies in the one arc [3/4, 5/4] that [3/4, 1] u [0, 1/4] rejoin
    wrap = ArcSet.of((D(7, 3), D(1)), (D(0), D(1, 3)))
    assert wrap.subset_of(a)
    assert a.contains_point(D(0)) and a.contains_point(D(7, 3))
    assert not a.contains_point(D(19, 5))  # 5/8 - 1/32
    c = ArcSet.of((D(1, 2), D(1, 1)))
    assert not c.disjoint_from(a)  # closed arcs touch at 1/4
    assert ArcSet.of((D(17, 5), D(9, 4))).disjoint_from(ArcSet.of((D(1, 3), D(5, 5))))


def test_arcset_image():
    u = ArcSet.of((D(1, 2), D(1, 1)))
    assert u.image(GEN_A) == ArcSet.of((D(1, 3), D(1, 2)))
    r = PLMap([(0, 0, D(3, 2))])
    assert u.image(r) == ArcSet.of((D(0), D(1, 2)))
    v = ArcSet.of((D(1, 3), D(3, 3)))
    assert v.image(r) == ArcSet.of((D(7, 3), D(1)), (D(0), D(1, 3)))
    rng = random.Random(8)
    for _ in range(30):
        f = rand_word(rng, 4)
        assert u.image(f).image(f.inverse()) == u


def test_rigid_stabilizer_supported_and_faithful():
    a, b = D(1, 2), D(3, 2)
    g1, g2 = rigid_stabilizer_gens(a, b)
    outside = ArcSet.of((D(0), a), (b, D(1)))
    inside = ArcSet.of((a, b))
    for g in (g1, g2):
        assert is_in_F(g)
        assert g.identity_on(outside)
        assert g.support().subset_of(inside)
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
        assert base.image(g) == ArcSet.of((Q(1, n + 2), 1 - Q(1, n + 2)))


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


# -- the integer kernel against the Fraction one ---------------------------------


def _fraction(value):
    """A Dyadic, int or Fraction value as a Fraction."""
    return value.as_fraction() if isinstance(value, D) else Fraction(value)


def _ldexp(x, k):
    """x * 2**k."""
    return x * Fraction(2) ** k


class _OraclePLMap:
    """The circle map as germlab stored it before the integer form: pieces
    (left, slope_exp, intercept) of exact rationals, composed by sampling a
    midpoint per cell and inverted piece by piece, in Fraction arithmetic."""

    def __init__(self, pieces):
        merged = []
        for left, s, c in pieces:
            left, c = _fraction(left), _fraction(c)
            if merged and merged[-1][1] == s and merged[-1][2] == c:
                continue
            merged.append((left, s, c))
        self.pieces = tuple(merged)
        self.lefts = [p[0] for p in merged]
        self.values = [_ldexp(left, s) + c for left, s, c in merged]
        ps = self.pieces
        if not ps:
            raise ValueError("a map needs at least one piece")
        if ps[0][0] != 0:
            raise ValueError("first piece must start at 0")
        c0 = ps[0][2]
        if not (0 <= c0 < 1):
            raise ValueError("lift offset must lie in [0, 1)")
        prev = None
        for i, (left, s, c) in enumerate(ps):
            right = ps[i + 1][0] if i + 1 < len(ps) else 1
            if not (left < right):
                raise ValueError("breakpoints must increase")
            if prev is not None and _ldexp(left, s) + c != prev:
                raise ValueError(f"discontinuity at {left}")
            prev = _ldexp(right, s) + c
        if prev != c0 + 1:
            raise ValueError("lift must satisfy F(1) = F(0) + 1")

    def piece_index(self, x):
        return bisect.bisect_right(self.lefts, x) - 1

    def eval_lift(self, t):
        k = math.floor(t)
        x = t - k
        left, s, c = self.pieces[self.piece_index(x)]
        return _ldexp(x, s) + c + k

    def eval_lift_inverse(self, y):
        c0 = self.pieces[0][2]
        shift = 0
        while not (c0 <= y - shift):
            shift -= 1
        while not (y - shift < c0 + 1):
            shift += 1
        y0 = y - shift
        i = min(max(bisect.bisect_right(self.values, y0) - 1, 0), len(self.pieces) - 1)
        left, s, c = self.pieces[i]
        return _ldexp(y0 - c, -s) + shift

    def __mul__(self, g):
        f = self
        bps = set(g.lefts)
        g0 = g.pieces[0][2]
        for ell in f.lefts:
            for k in (0, 1):
                if g0 < ell + k < g0 + 1:
                    bps.add(g.eval_lift_inverse(ell + k))
        cuts = sorted(bps)
        pieces = []
        for idx, x in enumerate(cuts):
            x_next = cuts[idx + 1] if idx + 1 < len(cuts) else 1
            gy = g.eval_lift((x + x_next) / 2)
            s = f.pieces[f.piece_index(gy % 1)][1] + g.pieces[g.piece_index(x)][1]
            pieces.append((x, s, f.eval_lift(g.eval_lift(x)) - _ldexp(x, s)))
        offset = math.floor(pieces[0][2])
        return _OraclePLMap([(l, s, c - offset) for l, s, c in pieces])

    def inverse(self):
        c0 = self.pieces[0][2]
        out = []
        ends = self.values[1:] + [c0 + 1]
        for (left, s, c), v_lo, v_hi in zip(self.pieces, self.values, ends):
            lo, hi = max(v_lo, 1) - 1, min(v_hi, c0 + 1) - 1
            if lo < hi:
                out.append((lo, -s, _ldexp(1 - c, -s)))
        for (left, s, c), v_lo, v_hi in zip(self.pieces, self.values, ends):
            lo, hi = max(v_lo, c0), min(v_hi, 1)
            if lo < hi:
                out.append((lo, -s, _ldexp(-c, -s) + 1))
        out.sort(key=lambda p: p[0])
        offset = math.floor(out[0][2]) if out[0][0] == 0 else 0
        return _OraclePLMap([(l, s, c - offset) for l, s, c in out])

    def __eq__(self, other):
        return self.pieces == other.pieces

    def germ_trivial_at(self, x):
        x = _fraction(x) % 1
        _, r_s, r_c = self.pieces[self.piece_index(x)]
        if x == 0:
            _, l_s, l_c = self.pieces[-1]
        else:
            _, l_s, l_c = self.pieces[max(bisect.bisect_left(self.lefts, x) - 1, 0)]
        return l_s == 0 and l_c.denominator == 1 and r_s == 0 and r_c.denominator == 1

    def identity_on(self, region):
        for lo, hi in region.arcs:
            lo, hi = _fraction(lo), _fraction(hi)
            for i, (left, s, c) in enumerate(self.pieces):
                right = self.pieces[i + 1][0] if i + 1 < len(self.pieces) else 1
                if max(left, lo) < min(right, hi) and not (s == 0 and c.denominator == 1):
                    return False
            if lo == hi and self.eval_lift(lo) % 1 != lo % 1:
                return False
        return True

    def support(self):
        """What the identity pieces leave of [0, 1], as closed arcs."""
        arcs, cur = [], Fraction(0)
        for i, (left, s, c) in enumerate(self.pieces):
            right = self.pieces[i + 1][0] if i + 1 < len(self.pieces) else 1
            if s == 0 and c.denominator == 1:
                if cur < left:
                    arcs.append((cur, left))
                cur = right
        if cur < 1:
            arcs.append((cur, 1))
        return ArcSet(arcs)


def _pair(g):
    """A map with its oracle twin, built from the same pieces."""
    return g, _OraclePLMap(g.pieces)


_LETTERS = {
    "a": _pair(GEN_A), "b": _pair(GEN_B), "c": _pair(GEN_C),
    "A": _pair(GEN_A.inverse()), "B": _pair(GEN_B.inverse()), "C": _pair(GEN_C.inverse()),
}
_DYADIC01 = st.builds(lambda e, k: D(k % (1 << e), e), st.integers(0, 14), st.integers(0, 1 << 14))


@st.composite
def _deep_factors(draw):
    """Factors with deep breaks: expanding conjugators, and A or B carried
    into a random dyadic interval."""
    if draw(st.booleans()):
        g = expanding_conjugator(draw(st.integers(1, 12)))
    else:
        a, b = sorted(draw(st.lists(_DYADIC01, min_size=2, max_size=2, unique=True)))
        g = conjugate_into_interval(draw(st.sampled_from([GEN_A, GEN_B])), a, b)
    return _pair(g.inverse() if draw(st.booleans()) else g)


def _words(letters):
    factor = st.one_of(st.sampled_from(letters).map(_LETTERS.get), _deep_factors())

    def product(factors):
        g, o = identity(), _OraclePLMap(identity().pieces)
        for h, p in factors:
            g, o = g * h, o * p
        return g, o

    return st.lists(factor, max_size=7).map(product)


_F_WORDS = _words("abAB")
_T_WORDS = _words("abcABC")
_ANY_WORDS = st.one_of(_F_WORDS, _T_WORDS)
_POINTS = st.builds(lambda e, k: D(k, e), st.integers(0, 40), st.integers(-(1 << 42), 1 << 42))


@given(_ANY_WORDS, _ANY_WORDS)
def test_compose_and_inverse_match_oracle(left, right):
    (f, o), (g, p) = left, right
    assert pl_key(f) == pl_key(o)
    assert pl_key(f * g) == pl_key(o * p)
    assert pl_key(f.inverse()) == pl_key(o.inverse())
    assert (f * g).inverse() == g.inverse() * f.inverse()
    assert (f * f.inverse()).is_identity()


@given(_ANY_WORDS, _ANY_WORDS)
def test_equality_classes_match_oracle(left, right):
    (f, o), (g, p) = left, right
    for x, y, ox, oy in ((f, g, o, p), (f * g, g * f, o * p, p * o), (f * g * f.inverse(), g, o * p * o.inverse(), p)):
        assert (x == y) == (ox == oy)
        if x == y:
            assert hash(x) == hash(y)


@given(_ANY_WORDS, st.lists(_POINTS, max_size=5), st.lists(_DYADIC01, max_size=4))
def test_germs_and_fixed_sets_match_oracle(word, points, arc_ends):
    f, o = word
    breaks = [left for left, _, _ in f.pieces]
    for x in points + breaks:
        assert f.germ_trivial_at(x) == o.germ_trivial_at(x)
    arc_ends = sorted(arc_ends + breaks[:2])
    region = ArcSet(list(zip(arc_ends[::2], arc_ends[1::2])))
    assert f.identity_on(region) == o.identity_on(region)
    assert f.support().arcs == o.support().arcs


def _fraction_lift(pieces, t):
    """F(t) from the pieces, in plain Fraction arithmetic."""
    k = t.numerator // t.denominator
    x = t - k
    left, s, c = [p for p in pieces if p[0].as_fraction() <= x][-1]
    return Fraction(2) ** s * x + c.as_fraction() + k


def _lifted_arc(lo, hi):
    """The closed arc from lo to hi, 0 <= hi - lo <= 1, as an ArcSet."""
    k = lo.numerator // lo.denominator
    lo, hi = lo - k, hi - k
    pairs = [(lo, hi)] if hi <= 1 else [(lo, 1), (0, hi - 1)]
    return ArcSet.of(*[(D.from_fraction(a), D.from_fraction(b)) for a, b in pairs])


@given(_ANY_WORDS, st.lists(_POINTS, min_size=1, max_size=6))
def test_evaluation_matches_fraction_arithmetic(word, points):
    f, _ = word
    pieces = list(f.pieces)
    # the breaks, their images, and the integers, where pieces and periods meet
    ends = [left for left, _, _ in pieces] + [f(left) for left, _, _ in pieces]
    for t in points + ends + [D(0), D(1), D(-1)]:
        assert f(t).as_fraction() == _fraction_lift(pieces, t.as_fraction()) % 1
    # the lift, integer part too, is where the arc between two cuts goes
    cuts = sorted({t.as_fraction() % 1 for t in points + ends} | {Fraction(0)})
    for lo, hi in zip(cuts, cuts[1:] + [Fraction(1)]):
        image = ArcSet.of((D.from_fraction(lo), D.from_fraction(hi))).image(f)
        assert image == _lifted_arc(_fraction_lift(pieces, lo), _fraction_lift(pieces, hi))


def test_random_t_word_prefixes_match_oracle():
    rng = random.Random(400)
    for _ in range(60):
        g, o = identity(), _OraclePLMap(identity().pieces)
        for _ in range(rng.randrange(1, 16)):
            h, p = _LETTERS[rng.choice("abcABC")]
            g, o = g * h, o * p
            assert pl_key(g) == pl_key(o)
            assert pl_key(g.inverse()) == pl_key(o.inverse())
            assert len(g.pieces) == len(o.pieces)


def test_t_boundary_bytes_are_pinned():
    # digests of 200 seeded words taken with the Dyadic kernel
    rng = random.Random(1605)
    elements = [
        _word("".join(rng.choice("abcABC") for _ in range(rng.randrange(0, 13))))
        for _ in range(200)
    ]

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest(repr([pl_key(g) for g in elements])) == (
        "93ac6fd17ed174caed2fa05c8eb9841ec8089e152e142de42a964ca534a1b87d")
    assert digest(json.dumps([g.to_json() for g in elements], sort_keys=True)) == (
        "e62ed0dc3a579e03385f7021d59c7bbf18ee23de66122d5bf4d5b503e0ccd88d")
    assert digest(repr(elements)) == (
        "6bf06401aef995239947f237dc13628ff83e05d39284f93a63577c5f70deb78c")


def _word(letters):
    g = identity()
    for ch in letters:
        g = g * _LETTERS[ch][0]
    return g


def test_invalid_maps_raise_under_optimize():
    # each check is a ValueError, not an assert, so python -O keeps it
    code = (
        "import sys\n"
        "from germlab.plcircle import PLMap\n"
        "from germlab.scalars import Dyadic as D\n"
        "bad = {\n"
        "    'discontinuity': [(D(0), 0, D(0)), (D(1, 1), 0, D(1, 2))],\n"
        "    'breakpoints must increase': [(D(0), 0, D(0)), (D(1, 1), 1, D(-1, 1)), (D(1, 2), 0, D(0))],\n"
        "    'lift offset': [(D(0), 0, D(1))],\n"
        "    'F(1) = F(0) + 1': [(D(0), 1, D(0))],\n"
        "}\n"
        "for want, pieces in bad.items():\n"
        "    for build in (lambda: PLMap(pieces), lambda: PLMap.from_json({'pieces': [\n"
        "            {'left': l.to_json(), 'slope_exp': s, 'intercept': c.to_json()}\n"
        "            for l, s, c in pieces]})):\n"
        "        try:\n"
        "            build()\n"
        "        except ValueError as exc:\n"
        "            if want not in str(exc):\n"
        "                sys.exit('wrong message: %s' % exc)\n"
        "        else:\n"
        "            sys.exit('accepted: ' + want)\n"
        "print(sys.flags.optimize)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "1"


def test_fractional_slope_exponents_raise_under_optimize():
    # int(...) used to truncate -1.4, 0.9 and 1.9 to GEN_A's -1, 0 and 1
    code = (
        "import sys\n"
        "from germlab.plcircle import GEN_A, PLMap\n"
        "data = GEN_A.to_json()\n"
        "if [p['slope_exp'] for p in data['pieces']] != [-1, 0, 1]:\n"
        "    sys.exit('GEN_A has other slopes: %r' % data)\n"
        "for slopes in ([-1.4, 0.9, 1.9], [-1, 0.0, 1], [-1, 0, True]):\n"
        "    for p, s in zip(data['pieces'], slopes):\n"
        "        p['slope_exp'] = s\n"
        "    try:\n"
        "        PLMap.from_json(data)\n"
        "    except ValueError as exc:\n"
        "        if 'slope exponents must be integers' not in str(exc):\n"
        "            sys.exit('wrong message: %s' % exc)\n"
        "    else:\n"
        "        sys.exit('accepted: %r' % slopes)\n"
        "print(sys.flags.optimize)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "1"


def test_compose_inverse_and_piece_count_build_no_dyadic(monkeypatch):
    g = expanding_conjugator(6) * GEN_C
    built = []
    original = D.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(D, "__init__", counting)
    h = (g * g.inverse() * GEN_A * g).inverse()
    count = len(h.pieces)
    assert built == []
    assert count == len(list(h.pieces)) > 1


# -- the integer constructions against the Fraction ones --------------------------


class _OracleSegment:
    """An increasing piecewise-affine bijection of closed dyadic intervals,
    evaluated piece by piece in Fraction arithmetic."""

    def __init__(self, pieces):
        self.pieces = list(pieces)
        self.lefts = [p[0] for p in self.pieces]
        self.values = [_ldexp(l, s) + c for l, s, c in self.pieces]

    def index_at(self, t):
        i = bisect.bisect_right(self.lefts, t) - 1
        return min(max(i, 0), len(self.pieces) - 1)

    def __call__(self, t):
        _, s, c = self.pieces[self.index_at(t)]
        return _ldexp(t, s) + c

    def slope_at(self, t):
        return self.pieces[self.index_at(t)][1]

    def inv(self, y):
        i = bisect.bisect_right(self.values, y) - 1
        i = min(max(i, 0), len(self.pieces) - 1)
        _, s, c = self.pieces[i]
        return _ldexp(y - c, -s)


def _exp(x):
    """The exponent e of a dyadic x = n / 2**e in lowest terms."""
    return x.denominator.bit_length() - 1


class _OracleBuild:
    """The constructions as germlab built them in Dyadic arithmetic, here in
    Fraction arithmetic: greedy standard subdivisions split one piece at a
    time, a conjugation that samples a midpoint per cell, and a compressor
    that searches its depth."""

    @staticmethod
    def standard_subdivision(p, q):
        out, cur = [], p
        while cur < q:
            d = q - cur
            k = max(_exp(cur), max(0, _exp(d) - d.numerator.bit_length() + 1))
            out.append((cur, k))
            cur = cur + Q(1, k)
        return out

    @staticmethod
    def equalize(a, b):
        def split_largest(lst):
            k_min = min(k for _, k in lst)
            i = next(i for i, (_, k) in enumerate(lst) if k == k_min)
            start, k = lst[i]
            lst[i : i + 1] = [(start, k + 1), (start + Q(1, k + 1), k + 1)]

        while len(a) < len(b):
            split_largest(a)
        while len(b) < len(a):
            split_largest(b)

    @classmethod
    def interval_map_pieces(cls, p, q, r, s):
        dom = cls.standard_subdivision(p, q)
        ran = cls.standard_subdivision(r, s)
        cls.equalize(dom, ran)
        return [(x, kx - ky, y - _ldexp(x, kx - ky)) for (x, kx), (y, ky) in zip(dom, ran)]

    @classmethod
    def through_points(cls, points):
        pieces = []
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            pieces.extend(cls.interval_map_pieces(x0, x1, y0, y1))
        return _OraclePLMap(pieces)

    @classmethod
    def expanding_conjugator(cls, n):
        delta = Q(1, n + 3)
        return cls.through_points([
            (Q(0), Q(0)), (delta, delta), (Q(1, 2), Q(1, n + 2)),
            (Q(1, 1), 1 - Q(1, n + 2)), (1 - delta, 1 - delta), (Q(1), Q(1))])

    @classmethod
    def conjugate_into_interval(cls, f, a, b):
        f = _OraclePLMap(f.pieces)
        a, b = _fraction(a), _fraction(b)
        phi = _OracleSegment(cls.interval_map_pieces(Q(0), Q(1), a, b))

        def f_seg(t):
            return f.eval_lift(t) if t < 1 else Q(1)

        def f_inv_seg(t):
            return f.eval_lift_inverse(t) if t < 1 else Q(1)

        cuts = {a, b}
        for left in phi.lefts:
            cuts.add(phi(left))
            cuts.add(phi(f_inv_seg(left)))
        for left in f.lefts:
            cuts.add(phi(left))
        ordered = sorted(x for x in cuts if a <= x <= b)
        pieces = [(Q(0), 0, Q(0))] if a > 0 else []
        for x, x_next in zip(ordered, ordered[1:]):
            t = phi.inv((x + x_next) / 2)
            s = phi.slope_at(f_seg(t)) + f.pieces[f.piece_index(t)][1] - phi.slope_at(t)
            pieces.append((x, s, phi(f_seg(phi.inv(x))) - _ldexp(x, s)))
        if b < 1:
            pieces.append((b, 0, Q(0)))
        return _OraclePLMap(pieces)

    @classmethod
    def compress(cls, region, beta, alpha):
        arcs = _glued(region)
        beta, alpha = _fraction(beta), _fraction(alpha)
        if cls.inside_target(arcs, beta, alpha):
            return _OraclePLMap([(Q(0), 0, Q(0))])
        a, b = cls.pick_gap(arcs)
        alpha0 = alpha if alpha <= a else a
        beta0 = beta if beta >= b else b
        alpha_p = alpha0 / 2
        beta_p = (beta0 + 1) / 2
        n = 1
        while not (_ldexp(a - alpha_p, -n) < alpha0 - alpha_p
                   and _ldexp(beta_p - b, -n) < beta_p - beta0):
            n += 1
        c1 = alpha_p - _ldexp(alpha_p, -n)
        c2 = beta_p - _ldexp(beta_p, -n)
        pieces = [(Q(0), 0, Q(0)), (alpha_p, -n, c1)]
        pieces.extend(cls.interval_map_pieces(a, b, _ldexp(a, -n) + c1, _ldexp(b, -n) + c2))
        pieces += [(b, -n, c2), (beta_p, 0, Q(0))]
        return _OraclePLMap(pieces)

    @staticmethod
    def pick_gap(arcs):
        # the gap after the first maximal arc, up to the next one (or the
        # first one again, a turn later)
        end = arcs[0][1]
        s = end % 1
        e = s + (arcs[1][0] if len(arcs) > 1 else arcs[0][0] + 1) - end
        if s < 1 < e:
            width = e - 1
            return width / 4, width / 2
        width = e - s
        return s + width / 4, s + width / 2

    @staticmethod
    def inside_target(arcs, beta, alpha):
        for s, e in arcs:
            if s == beta:
                return False
            if not (s if s > beta else s + 1) + (e - s) < alpha + 1:
                return False
        return True


def _glued(region):
    """region's maximal arcs as Fraction (start, lifted end), sorted by
    start: the arcs cut at 0, with an arc from 0 and one up to 1 rejoined."""
    arcs = [(_fraction(lo), _fraction(hi)) for lo, hi in region.arcs]
    if len(arcs) > 1 and arcs[0][0] == 0 and arcs[-1][1] == 1:
        (_, hi), (lo, _) = arcs.pop(0), arcs.pop()
        arcs.append((lo, hi + 1))
    return arcs


def _dyadic_pairs(depth, size):
    """Sorted distinct dyadics in [0, 1] on a 2**-d grid, d <= depth."""
    return st.integers(size.bit_length(), depth).flatmap(lambda d: st.lists(
        st.integers(0, 1 << d), min_size=size, max_size=size, unique=True).map(
            lambda ks: [D(k, d) for k in sorted(ks)]))


_F_LETTER_WORDS = st.one_of(
    st.sampled_from([GEN_A, GEN_B]),
    st.lists(st.sampled_from("abAB"), max_size=8).map(lambda w: _word("".join(w))))


@given(_F_LETTER_WORDS, _dyadic_pairs(14, 2))
def test_conjugate_into_interval_matches_oracle(f, interval):
    a, b = interval
    assert pl_key(conjugate_into_interval(f, a, b)) == (
        pl_key(_OracleBuild.conjugate_into_interval(f, a, b)))


def test_expanding_conjugators_match_oracle():
    for n in range(1, 41):
        assert pl_key(expanding_conjugator(n)) == (
            pl_key(_OracleBuild.expanding_conjugator(n)))


@given(_dyadic_pairs(14, 6), st.integers(1, 3), st.booleans(), _dyadic_pairs(14, 2))
def test_compress_matches_oracle(cuts, n_arcs, wrap, target):
    cuts = cuts[: 2 * n_arcs]
    pairs = list(zip(cuts[::2], cuts[1::2]))
    if wrap:
        # the same cuts paired across 0
        pairs = list(zip(cuts[1:-1:2], cuts[2::2])) + [(cuts[-1], D(1)), (D(0), cuts[0])]
    region = ArcSet(pairs)
    alpha, beta = target
    if region.is_full() or alpha == D(0) or beta == D(1):
        with pytest.raises(ValueError):
            compress(region, beta, alpha)
        return
    g = compress(region, beta, alpha)
    assert pl_key(g) == pl_key(_OracleBuild.compress(region, beta, alpha))
    assert in_derived_F(g)


def _pinned_constructions():
    """Expanding conjugators, rigid stabilizers of seeded intervals, and
    compressors of seeded regions with the arcs of each image."""
    rng = random.Random(1607)
    maps = [expanding_conjugator(n) for n in range(1, 41)]
    for _ in range(100):
        d = rng.randrange(1, 15)
        a, b = sorted(rng.sample(range((1 << d) + 1), 2))
        maps.extend(rigid_stabilizer_gens(D(a, d), D(b, d)))
    images = []
    for _ in range(200):
        d = rng.randrange(3, 11)
        grid = 1 << d
        cuts = sorted(rng.sample(range(1, grid), 2 * rng.choice((1, 2, 3))))
        pairs = [(D(lo, d), D(hi, d)) for lo, hi in zip(cuts[::2], cuts[1::2])]
        if rng.random() < 0.3:
            pairs = [(D(lo, d), D(hi, d)) for lo, hi in zip(cuts[1::2], cuts[2::2])]
            pairs += [(D(cuts[-1], d), D(1)), (D(0), D(cuts[0], d))]
        region = ArcSet.of(*pairs)
        a, b = sorted(rng.sample(range(1, grid), 2))
        g = compress(region, D(b, d), D(a, d))
        maps.append(g)
        images.append([[str(lo), str(hi)] for lo, hi in region.image(g).arcs])
    return maps, images


def test_construction_bytes_are_pinned():
    # digest taken with the Dyadic constructions
    maps, images = _pinned_constructions()
    text = json.dumps(
        [[g.to_json(), repr(g), repr(pl_key(g))] for g in maps] + images, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "feef85926df4b0459fc92485922b529bd17b3afb23609ea6168a855e6737ab42")


# -- arc sets against membership on a grid ------------------------------------------

_GRID = 4  # arcs on the 2**-4 grid, decided on the 2**-5 grid
_SPECIAL_ARCS = [
    [], [(0, 16)], [(12, 16), (0, 4)], [(0, 0)], [(16, 16)], [(16, 16), (0, 4)],
    [(0, 0), (8, 16)], [(4, 8), (8, 12)], [(3, 3), (3, 9)], [(0, 8), (8, 16)], [(5, 5), (11, 11)],
]
_ARC_LISTS = st.one_of(
    st.sampled_from(_SPECIAL_ARCS),
    st.lists(st.tuples(st.integers(0, 16), st.integers(0, 16)).map(sorted).map(tuple), max_size=4))


def _region(arcs):
    return ArcSet([(D(lo, _GRID), D(hi, _GRID)) for lo, hi in arcs])


def _members(arcs):
    """The points k / 2**5 of the circle in the union of the closed arcs
    (lo, hi) over 2**4, where the point 1 is the point 0."""
    return frozenset(k % 32 for lo, hi in arcs for k in range(2 * lo, 2 * hi + 1))


def _holds(arcs, x):
    """Does the circle point x lie in the union of the closed arcs over 2**4?"""
    x = x.as_fraction() % 1
    return any(D(lo, _GRID) <= x <= D(hi, _GRID) or x == 0 and hi == 16 for lo, hi in arcs)


def _grid_points(region):
    """The points k / 2**5 in region, read from its arcs and point by point."""
    arcs = []
    for lo, hi in region.arcs:
        assert lo.exp <= _GRID and hi.exp <= _GRID
        arcs.append((lo.num << (_GRID - lo.exp), hi.num << (_GRID - hi.exp)))
    held = frozenset(k for k in range(32) if region.contains_point(D(k, 5)))
    assert _members(arcs) == held
    return held


@given(_ARC_LISTS, _ARC_LISTS)
@example([(16, 16)], [(0, 0)])
@example([(0, 4), (16, 16)], [(0, 4)])
def test_arcset_operations_match_point_oracle(left, right):
    a, b = _region(left), _region(right)
    ma, mb = _members(left), _members(right)
    assert _grid_points(a) == ma and _grid_points(b) == mb
    assert _grid_points(a.union(b)) == ma | mb
    assert (a == b) == (ma == mb)
    if ma == mb:
        assert hash(a) == hash(b)
    assert a.subset_of(b) == (ma <= mb)
    assert a.disjoint_from(b) == (not ma & mb)
    assert a.is_empty() == (not ma) and a.is_full() == (len(ma) == 32)


@given(_ARC_LISTS, st.lists(st.sampled_from("abcABC"), max_size=3))
def test_arcset_images_match_point_oracle(arcs, letters):
    f = _word("".join(letters))
    region = _region(arcs)
    for image, back in ((region.image(f), f.inverse()), (region.preimage(f), f)):
        # the image and the true one, back's inverse of the arcs, share a grid
        ends = [v for arc in image.arcs for v in arc]
        ends += [back.inverse()(D(v, _GRID)) for arc in arcs for v in arc]
        d = max((v.exp for v in ends), default=0) + 1
        for k in range(1 << d):
            assert image.contains_point(D(k, d)) == _holds(arcs, back(D(k, d)))


@given(_ARC_LISTS)
@example([(16, 16)])
@example([(3, 3), (3, 9)])
def test_arcset_complement_matches_point_oracle(arcs):
    held = _members(arcs)
    # k / 2**5 lies in the closure of the complement unless it and both its
    # neighbours lie in the set: the open steps between grid points are
    # inside the set exactly when both of their ends are
    want = frozenset(k for k in range(32) if not {(k - 1) % 32, k, (k + 1) % 32} <= held)
    assert _grid_points(_region(arcs).complement()) == want


def test_arcset_complement_matches_cylinders_complement():
    def arcs_of(words):
        """The union of the standard arcs of binary words, first digit highest."""
        return ArcSet([(D(int(w or "0", 2), len(w)), D(int(w or "0", 2) + 1, len(w)))
                       for w in words])

    words = [format(k, "03b") for k in range(8)]
    for mask in range(1 << 8):
        clopen = Cylinders(w for k, w in enumerate(words) if mask >> k & 1)
        assert arcs_of(clopen.words).complement() == arcs_of(clopen.complement().words)


def test_arcset_equality_folds_the_point_one_onto_zero():
    assert ArcSet.of((1, 1)) == ArcSet.of((0, 0))
    assert hash(ArcSet.of((1, 1))) == hash(ArcSet.of((0, 0)))
    quarter = ArcSet.of((0, Fraction(1, 4)))
    with_one = ArcSet.of((0, Fraction(1, 4)), (1, 1))
    assert with_one == quarter and hash(with_one) == hash(quarter)
    assert with_one.subset_of(quarter) and quarter.subset_of(with_one)


def test_invalid_regions_and_targets_raise_under_optimize():
    code = (
        "import sys\n"
        "from fractions import Fraction as Q\n"
        "from germlab.plcircle import ArcSet, GEN_A, GEN_C, compress, conjugate_into_interval\n"
        "arc = ArcSet.of((Q(1, 2), Q(3, 4)))\n"
        "cases = {\n"
        "    'lo > hi': lambda: ArcSet.of((Q(1, 2), Q(1, 4))),\n"
        "    'below 0': lambda: ArcSet.of((Q(-1, 4), Q(1, 4))),\n"
        "    'above 1': lambda: ArcSet.of((Q(1, 2), Q(5, 4))),\n"
        "    'target reversed': lambda: compress(arc, Q(1, 8), Q(7, 8)),\n"
        "    'target at 0': lambda: compress(arc, Q(7, 8), 0),\n"
        "    'target at 1': lambda: compress(arc, 1, Q(1, 8)),\n"
        "    'full region': lambda: compress(ArcSet.of((0, 1)), Q(7, 8), Q(1, 8)),\n"
        "    'empty interval': lambda: conjugate_into_interval(GEN_A, Q(1, 2), Q(1, 2)),\n"
        "    'interval past 1': lambda: conjugate_into_interval(GEN_A, Q(1, 2), Q(3, 2)),\n"
        "    'moves 0': lambda: conjugate_into_interval(GEN_C, 0, 1),\n"
        "}\n"
        "for name, build in cases.items():\n"
        "    try:\n"
        "        build()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    sys.exit('accepted: ' + name)\n"
        "print(sys.flags.optimize)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "1"


def test_regions_and_constructions_build_no_dyadic(monkeypatch):
    f = expanding_conjugator(6) * GEN_C * GEN_B
    region, other = ArcSet.of((D(1, 3), D(5, 3))), ArcSet.of((D(7, 3), D(1)), (D(0), D(1, 2)))
    a, b, x = D(3, 4), D(13, 5), D(5, 3)
    beta, alpha = D(7, 3), D(1, 3)
    built = []
    original = D.__init__

    def counting(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(D, "__init__", counting)
    f.support()
    f.identity_on(region)
    f.germ_trivial_at(x)
    hash(region)
    region == other
    region.subset_of(other)
    region.disjoint_from(other)
    region.union(other).contains_point(x)
    region.image(f).preimage(f)
    list(ArcSet.cells(4))
    list(ArcSet.neighbourhoods(x, 6))
    expanding_conjugator(7)
    conjugate_into_interval(GEN_B, a, b)
    rigid_stabilizer_gens(a, b)
    compress(other, beta, alpha)
    compress(region, beta, alpha)
    assert built == []

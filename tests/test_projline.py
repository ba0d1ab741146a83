import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from germlab.chabauty import BudgetError, element_budget
from germlab.projline import (
    INF,
    LM_A,
    LM_B,
    LM_C,
    Mobius,
    PPMap,
    bn_image,
    image_interval,
    interval_compression_witness,
    interval_inside,
    lodha_moore_gens,
)
from germlab.scalars import SQRT2, QuadExt, quad_sign

_SRC_ENV = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(__file__), os.pardir, "src"))

LETTER = {
    "a": LM_A,
    "b": LM_B,
    "c": LM_C,
    "A": LM_A.inverse(),
    "B": LM_B.inverse(),
    "C": LM_C.inverse(),
}


def word_to_element(word):
    g = PPMap.identity()
    for ch in word:
        g = g * LETTER[ch]
    return g


def pp_key(g):
    """Each break, then each piece's p, q, r, s, as the integers
    (a.numerator, a.denominator, b.numerator, b.denominator) of a + b*sqrt(2):
    the form the pinned digest was taken over."""
    def quad(x):
        return (x.a.numerator, x.a.denominator, x.b.numerator, x.b.denominator)
    return (tuple(quad(b) for b in g.breaks),
            tuple((quad(m.p), quad(m.q), quad(m.r), quad(m.s)) for m in g.maps))


def rand_word(rng, n):
    return word_to_element("".join(rng.choice("abcABC") for _ in range(n)))


def rand_scalar(rng):
    return QuadExt(
        Fraction(rng.randrange(-40, 41), rng.randrange(1, 9)),
        Fraction(rng.randrange(-4, 5), rng.randrange(1, 5)),
    )


def test_mobius_normalization():
    assert Mobius(2, 0, 0, 2) == Mobius.identity()
    assert Mobius(-1, 0, 0, -1) == Mobius.identity()
    m = Mobius(SQRT2, 0, 0, 1)
    assert m(1) == SQRT2
    assert m * m == Mobius(2, 0, 0, 1)
    with pytest.raises(ValueError):
        Mobius(1, 0, 0, -1)
    with pytest.raises(ValueError):
        Mobius(1, 2, 1, 2)  # zero determinant


def test_mobius_projective_values():
    m = Mobius(3, -1, 1, 0)  # 3 - 1/t
    assert m(INF) == QuadExt.coerce(3)
    assert m(0) == INF
    assert m(Fraction(1, 2)) == QuadExt.coerce(1)
    assert m.inverse()(m(Fraction(7, 3))) == QuadExt.coerce(Fraction(7, 3))


def test_generator_formulas():
    a, b, c = lodha_moore_gens()
    assert a(5) == QuadExt.coerce(6)
    assert a(INF) == INF
    assert b(-5) == QuadExt.coerce(-5)
    assert b(0) == QuadExt.coerce(0)
    assert b(Fraction(1, 2)) == QuadExt.coerce(1)
    assert b(1) == QuadExt.coerce(2)
    assert b(7) == QuadExt.coerce(8)
    assert c(-3) == QuadExt.coerce(-3)
    assert c(2) == QuadExt.coerce(2)
    assert c(1) == QuadExt.coerce(1)
    assert c(Fraction(1, 2)) == QuadExt.coerce(Fraction(2, 3))


def test_continuity_of_b_at_half():
    inner = Mobius(1, 0, -1, 1)  # t / (1 - t)
    outer = Mobius(3, -1, 1, 0)  # 3 - 1/t
    half = Fraction(1, 2)
    assert inner(half) == outer(half) == QuadExt.coerce(1)


# (message, source of a map that PPMap must reject); source text, so that a
# python -O child builds the same maps
BAD_MAPS = [
    ("one more piece than breakpoints", "PPMap([0], [I])"),
    ("one more piece than breakpoints", "PPMap([], [I, I])"),
    ("increase strictly", "PPMap([1, 0], [I, Mobius.affine(1, 1), I])"),
    ("increase strictly", "PPMap([0, 0], [I, Mobius.affine(2, 0), I])"),
    ("unbounded pieces must fix infinity", "PPMap([], [Mobius(3, -1, 1, 0)])"),
    ("unbounded pieces must fix infinity", "PPMap([0], [I, Mobius(2, 0, 1, 1)])"),
    # the pole of 3 - 1/t at t = 0 sits on the cell [-1, 1]
    ("pole on its cell",
     "PPMap([-1, 1], [Mobius.affine(1, Fraction(-13, 3)), Mobius(3, -1, 1, 0), Mobius.affine(1, 1)])"),
    ("discontinuous at", "PPMap([0], [I, Mobius.affine(1, 1)])"),
]
BAD_MAP_NAMES = (
    "from fractions import Fraction\n"
    "from germlab.projline import Mobius, PPMap\n"
    "I = Mobius.identity()\n"
)


def test_validation_rejects_bad_maps():
    names = {}
    exec(BAD_MAP_NAMES, names)
    for want, build in BAD_MAPS:
        with pytest.raises(ValueError, match=want):
            eval(build, names)
    # each check is a ValueError, not an assert, so python -O keeps it
    code = BAD_MAP_NAMES + (
        "import sys\n"
        "for want, build in %r:\n"
        "    try:\n"
        "        eval(build)\n"
        "    except ValueError as exc:\n"
        "        if want not in str(exc):\n"
        "            sys.exit('wrong message: %%s' %% exc)\n"
        "    else:\n"
        "        sys.exit('accepted: ' + build)\n"
        "print(sys.flags.optimize)\n" % (BAD_MAPS,)
    )
    done = subprocess.run([sys.executable, "-O", "-c", code], env=_SRC_ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "1"


@pytest.mark.parametrize("want, data", [
    ("breaks and maps must be lists", {"breaks": "0", "maps": []}),
    ("breaks and maps must be lists", {"breaks": [], "maps": 5}),
    ("four scalars", {"breaks": [], "maps": [[{"a": ["1", "1"], "b": ["0", "1"]}] * 3]}),
    ("four scalars", {"breaks": [], "maps": ["pqrs"]}),
], ids=["string-breaks", "int-maps", "three-scalars", "string-map"])
def test_malformed_json_raises_under_optimize(want, data):
    code = (
        "import sys\n"
        "from germlab.projline import PPMap\n"
        "try:\n"
        "    got = PPMap.from_json(%r)\n"
        "except ValueError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
        "else:\n"
        "    sys.exit('accepted: %%r' %% (got,))\n" % (data,)
    )
    done = subprocess.run([sys.executable, "-O", "-c", code], env=_SRC_ENV, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("1 ") and want in done.stdout


def test_piece_merging():
    g = PPMap([0], [Mobius.identity(), Mobius.identity()])
    assert g.is_identity()
    assert not g.breaks


def test_a_inverse_composes_to_identity():
    assert (LM_A * LM_A.inverse()).is_identity()
    assert not (LM_A * LM_B).is_identity()


def test_preimage_point():
    assert LM_B.inverse()(1) == QuadExt.coerce(Fraction(1, 2))
    assert LM_B.inverse()(2) == QuadExt.coerce(1)
    rng = random.Random(88)
    for _ in range(20):
        g = rand_word(rng, 5)
        y = rand_scalar(rng)
        assert g(g.inverse()(y)) == y


def test_bn_image_law():
    for n in range(1, 11):
        lo, hi = bn_image(n)
        assert lo == QuadExt.coerce(0)
        assert hi == QuadExt.coerce(n + 1)


def test_witness_trivial_and_translation():
    assert interval_compression_witness((0, 1), (0, 1), 2) == ""
    word = interval_compression_witness((0, 1), (5, 9), 6)
    assert word is not None and len(word) == 5
    g = word_to_element(word)
    assert interval_inside(image_interval(g, (0, 1)), (5, 9))
    a5 = word_to_element("aaaaa")
    assert image_interval(a5, (0, 1)) == (QuadExt.coerce(5), QuadExt.coerce(6))


def test_witness_contraction():
    word = interval_compression_witness((0, 4), (0, 1), 12)
    assert word is not None and len(word) <= 3
    g = word_to_element(word)
    assert interval_inside(image_interval(g, (0, 4)), (0, 1))


def test_witness_not_found():
    assert interval_compression_witness((0, 1), (5, 9), 2) is None


@pytest.mark.parametrize("i1, i2, max_len, want", [
    ((0, 3), (0, 1), -1, "max_len must be nonnegative"),
    ((1, 0), (0, 1), 2, "empty interval"),
    ((0, 1), (2, 1), 2, "empty interval"),
], ids=["negative-max-len", "reversed-i1", "reversed-i2"])
def test_witness_rejects_bad_input(i1, i2, max_len, want):
    with pytest.raises(ValueError, match=want):
        interval_compression_witness(i1, i2, max_len)


def test_witness_is_the_first_word_in_letter_order():
    # the search tries a, b, c, A, B, C at each step: aBBa works too
    i1, i2 = (Fraction(-1, 3), Fraction(2, 3)), (1, Fraction(5, 3))
    assert interval_compression_witness(i1, i2, 6) == "aBaB"
    assert interval_inside(image_interval(word_to_element("aBBa"), i1), i2)


def _oracle_witness(i1, i2, max_len):
    """The witness search as a loop of its own: breadth first over distinct
    elements, letters a b c A B C, the budget checked before each new one."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    i1 = tuple(QuadExt.coerce(v) for v in i1)
    i2 = tuple(QuadExt.coerce(v) for v in i2)
    if i2[1] < i2[0]:
        raise ValueError("empty interval")
    ident = PPMap.identity()
    if interval_inside(image_interval(ident, i1), i2):
        return ""
    limit = element_budget()
    seen = {ident}
    frontier = [("", ident)]
    for _ in range(max_len):
        nxt = []
        for word, elem in frontier:
            for letter in "abcABC":
                cand = elem * LETTER[letter]
                if cand in seen:
                    continue
                if len(seen) >= limit:
                    raise BudgetError("search exceeds the %d-element budget" % limit)
                seen.add(cand)
                if interval_inside(image_interval(cand, i1), i2):
                    return word + letter
                nxt.append((word + letter, cand))
        frontier = nxt
    return None


def _outcome(search, i1, i2, max_len):
    try:
        return search(i1, i2, max_len)
    except BudgetError:
        return BudgetError


_ENDS = [Fraction(-1), Fraction(-1, 3), 0, Fraction(1, 2), Fraction(2, 3), 1, Fraction(5, 3), 4]
_INTERVALS = list(itertools.combinations(_ENDS, 2))
# every 19th of the 784 interval pairs, and the letter-order example; the
# whole grid takes ~20 s per search at max_len 5
_WITNESS_GRID = list(itertools.product(_INTERVALS, repeat=2))[::19] + [
    ((Fraction(-1, 3), Fraction(2, 3)), (1, Fraction(5, 3)))]


@pytest.mark.parametrize("budget", [None, "5", "20", "60"])
def test_witness_matches_the_breadth_first_oracle(budget, monkeypatch):
    if budget is None:
        monkeypatch.delenv("GERMLAB_BUDGET", raising=False)
    else:
        monkeypatch.setenv("GERMLAB_BUDGET", budget)
    for i1, i2 in _WITNESS_GRID:
        for max_len in range(6):
            want = _outcome(_oracle_witness, i1, i2, max_len)
            assert _outcome(interval_compression_witness, i1, i2, max_len) == want, (i1, i2, max_len)


# -- the integer Mobius kernel against the Fraction-normalized one ------------


class _OracleMobius:
    """The Mobius map as germlab stored it before the integer normal form:
    QuadExt entries divided by the first nonzero one."""

    def __init__(self, p, q, r, s):
        entries = [QuadExt.coerce(v) for v in (p, q, r, s)]
        pivot = next((e for e in entries if e != QuadExt(0)), None)
        if pivot is None:
            raise ValueError("zero matrix")
        self.p, self.q, self.r, self.s = (e / pivot for e in entries)
        if (self.p * self.s - self.q * self.r).sign() <= 0:
            raise ValueError("determinant must be positive")

    def pole(self):
        if self.r == QuadExt(0):
            return None
        return -self.s / self.r

    def __call__(self, x):
        if x == INF:
            if self.r == QuadExt(0):
                return INF
            return self.p / self.r
        x = QuadExt.coerce(x)
        den = self.r * x + self.s
        if den == QuadExt(0):
            return INF
        return (self.p * x + self.q) / den

    def __mul__(self, other):
        return _OracleMobius(
            self.p * other.p + self.q * other.r,
            self.p * other.q + self.q * other.s,
            self.r * other.p + self.s * other.r,
            self.r * other.q + self.s * other.s,
        )

    def inverse(self):
        return _OracleMobius(self.s, -self.q, -self.r, self.p)

    def __eq__(self, other):
        return (self.p, self.q, self.r, self.s) == (other.p, other.q, other.r, other.s)


def _entries(m):
    return (m.p, m.q, m.r, m.s)


_RATIONAL = st.fractions(min_value=-9, max_value=9, max_denominator=6)
_QUAD = st.one_of(
    st.just(QuadExt(0)),
    st.integers(-6, 6).map(QuadExt),
    _RATIONAL.map(QuadExt),
    st.builds(QuadExt, _RATIONAL, _RATIONAL),
)
# rescalings of a whole matrix: negative, irrational, and sqrt2 itself
_SCALES = st.sampled_from(
    [QuadExt(1), QuadExt(-1), QuadExt(Fraction(3, 2)), SQRT2, -SQRT2,
     QuadExt(1, 1), QuadExt(Fraction(-2, 3), 5)]
)


def _det(entries):
    p, q, r, s = entries
    return p * s - q * r


@st.composite
def _matrices(draw):
    """Four entries over Q(sqrt 2) with nonzero determinant, made positive."""
    entries = draw(st.one_of(
        st.tuples(_QUAD, _QUAD, _QUAD, _QUAD),
        # leading zeros, so the pivot is q, r or s
        st.tuples(st.just(QuadExt(0)), _QUAD, _QUAD, _QUAD),
        st.tuples(st.just(QuadExt(0)), st.just(QuadExt(0)), _QUAD, _QUAD),
        # rational matrices, as every word in a, b, c is
        st.tuples(*[_RATIONAL.map(QuadExt)] * 4),
    ))
    sign = _det(entries).sign()
    assume(sign != 0)
    p, q, r, s = entries
    if sign < 0:
        p, r = -p, -r
    scale = draw(_SCALES)
    return tuple(e * scale for e in (p, q, r, s))


_POINTS = st.one_of(_QUAD, st.just(INF))


@given(_matrices(), _SCALES)
def test_mobius_normal_form_matches_oracle(entries, scale):
    m, o = Mobius(*entries), _OracleMobius(*entries)
    assert _entries(m) == _entries(o)
    # a rescaled matrix is the same map, with the same hash
    again = Mobius(*(e * scale for e in entries))
    assert again == m and hash(again) == hash(m)
    assert repr(m) == "Mobius(%s, %s, %s, %s)" % _entries(o)


@given(_matrices(), _matrices())
def test_mobius_equality_classes_match_oracle(left, right):
    m, n = Mobius(*left), Mobius(*right)
    assert (m == n) == (_OracleMobius(*left) == _OracleMobius(*right))
    if m == n:
        assert hash(m) == hash(n)


@given(_matrices(), _matrices())
def test_mobius_compose_and_inverse_match_oracle(left, right):
    m, n = Mobius(*left), Mobius(*right)
    o, u = _OracleMobius(*left), _OracleMobius(*right)
    assert _entries(m * n) == _entries(o * u)
    assert _entries(m.inverse()) == _entries(o.inverse())
    assert m * m.inverse() == Mobius.identity()


@given(_matrices(), st.lists(_POINTS, max_size=4))
def test_mobius_evaluation_matches_oracle(entries, points):
    m, o = Mobius(*entries), _OracleMobius(*entries)
    pole = m.inverse()(INF)  # the finite point sent to infinity, if any
    assert m.is_affine() == (o.pole() is None) == (pole is INF)
    if pole is not INF:
        assert pole == o.pole()
        points.append(pole)  # sent to infinity by both
    for x in points:
        assert m(x) == o(x)


@given(_QUAD, _QUAD, _QUAD, _QUAD)
def test_mobius_nonpositive_determinant_raises_in_both(p, q, r, s):
    if _det((p, q, r, s)).sign() > 0:
        p, r = -p, -r
    for cls in (Mobius, _OracleMobius):
        with pytest.raises(ValueError):
            cls(p, q, r, s)


def test_lodha_moore_boundary_bytes_are_pinned():
    # digests of 200 seeded words taken with the Fraction-normalized kernel
    rng = random.Random(2016)
    elements = [
        word_to_element("".join(rng.choice("abcABC") for _ in range(rng.randrange(0, 9))))
        for _ in range(200)
    ]

    def digest(text):
        return hashlib.sha256(text.encode()).hexdigest()

    assert digest(repr([pp_key(g) for g in elements])) == (
        "f8b19f469939ee2f60e98bf12749d42f14097ed7b51ea5c40a087bf923a4d42f")
    assert digest(json.dumps([g.to_json() for g in elements], sort_keys=True)) == (
        "fff3a8560f7c68784e7811267703da24bdd8e41ba913ee0052888b3300d7d8b6")
    assert digest(repr(elements)) == (
        "3bf253e1b2fe885d6a29b65d3432122a28a76825cd694a0de0952b642d09ec4d")


def test_irrational_conjugates_compose_pointwise():
    # conjugating by t -> sqrt2 t moves every break off Q and makes every
    # piece irrational, so compose merges breaks through the sqrt2 order
    s = PPMap([], [Mobius.affine(SQRT2, 0)])
    rng = random.Random(1605)
    for _ in range(20):
        f = s * rand_word(rng, rng.randrange(1, 6)) * s.inverse()
        g = s * rand_word(rng, rng.randrange(1, 6)) * s.inverse()
        assert all(b.b != 0 for b in f.breaks if b != 0)
        h = f * g
        assert (h * h.inverse()).is_identity()
        for _ in range(4):
            x = rand_scalar(rng)
            assert h(x) == f(g(x))
            assert h.inverse()(h(x)) == x


# -- integer breaks against the QuadExt kernel ---------------------------------


class _OraclePPMap:
    """The piecewise-projective map as germlab stored it before integer
    breaks: QuadExt breaks and _OracleMobius pieces, ordered through
    QuadExt.  Products cut at other's breaks and the preimages of self's,
    then pick each cell's pieces at a sample point inside the cell."""

    def __init__(self, breaks, maps):
        keep = [i for i in range(len(breaks)) if maps[i] != maps[i + 1]]
        self.breaks = [QuadExt.coerce(breaks[i]) for i in keep]
        self.maps = [maps[i] for i in keep] + maps[-1:]

    def piece_at(self, x):
        x = QuadExt.coerce(x)
        return next((m for m, b in zip(self.maps, self.breaks) if x <= b), self.maps[-1])

    def __call__(self, x):
        return INF if x == INF else self.piece_at(x)(x)

    def preimage_point(self, y):
        bounds = [None] + self.breaks + [None]
        for m, lo, hi in zip(self.maps, bounds, bounds[1:]):
            x = m.inverse()(y)
            if x != INF and (lo is None or lo <= x) and (hi is None or x <= hi):
                return x
        raise AssertionError("no preimage")

    def __mul__(self, other):
        cuts = sorted(set(other.breaks) | {other.preimage_point(b) for b in self.breaks})
        if not cuts:
            samples = [QuadExt(0)]
        else:
            samples = ([cuts[0] - 1] + [(lo + hi) / 2 for lo, hi in zip(cuts, cuts[1:])]
                       + [cuts[-1] + 1])
        return _OraclePPMap(
            cuts, [self.piece_at(other(x)) * other.piece_at(x) for x in samples])

    def inverse(self):
        return _OraclePPMap([m(b) for m, b in zip(self.maps, self.breaks)],
                            [m.inverse() for m in self.maps])

    def __eq__(self, other):
        return self.breaks == other.breaks and self.maps == other.maps


def _oracle_gens():
    one = _OracleMobius(1, 0, 0, 1)
    shift = _OracleMobius(1, 1, 0, 1)
    gens = {
        "a": _OraclePPMap([], [shift]),
        "b": _OraclePPMap([0, Fraction(1, 2), 1],
                          [one, _OracleMobius(1, 0, -1, 1), _OracleMobius(3, -1, 1, 0), shift]),
        "c": _OraclePPMap([0, 1], [one, _OracleMobius(2, 0, 1, 1), one]),
    }
    gens.update({x.upper(): g.inverse() for x, g in list(gens.items())})
    return gens


_ORACLE_LETTER = _oracle_gens()
# t -> sqrt2 t, which moves every break but 0 off Q
_SCALE = PPMap([], [Mobius.affine(SQRT2, 0)])
_ORACLE_SCALE = _OraclePPMap([], [_OracleMobius(SQRT2, 0, 0, 1)])


@st.composite
def _pairs(draw):
    """One element in both kernels: a word of length 0..8, conjugated by
    t -> sqrt2 t or not."""
    word = draw(st.text("abcABC", max_size=8))
    g, o = PPMap.identity(), _OraclePPMap([], [_OracleMobius(1, 0, 0, 1)])
    for ch in word:
        g, o = g * LETTER[ch], o * _ORACLE_LETTER[ch]
    if draw(st.booleans()):
        g = _SCALE * g * _SCALE.inverse()
        o = _ORACLE_SCALE * o * _ORACLE_SCALE.inverse()
    return g, o


def _same(g, o):
    return (list(g.breaks) == o.breaks
            and [_entries(m) for m in g.maps] == [_entries(m) for m in o.maps])


def _probes(o, extra):
    """Each break, a point just off it on both sides, and the extra points."""
    near = [b + d for b in o.breaks for d in (Fraction(-1, 7), Fraction(1, 7))]
    return o.breaks + near + extra


# the oracle product samples every cell through QuadExt: fewer examples
@settings(max_examples=50)
@given(_pairs(), _pairs())
def test_ppmap_product_and_inverse_match_oracle(left, right):
    (f, o), (g, u) = left, right
    assert _same(f, o) and _same(g, u)
    assert _same(f * g, o * u)
    assert _same(f.inverse(), o.inverse())
    assert (f * g).inverse() == g.inverse() * f.inverse()


@settings(max_examples=50)
@given(_pairs(), st.lists(_QUAD, max_size=4))
def test_ppmap_evaluation_matches_oracle(pair, points):
    g, o = pair
    assert g(INF) == o(INF) == INF
    for x in _probes(o, points):
        assert g(x) == o(x)
        assert g.inverse()(x) == o.preimage_point(x)
        assert g.inverse()(g(x)) == x


@settings(max_examples=50)
@given(_pairs(), _pairs())
def test_ppmap_equality_classes_match_oracle(left, right):
    (f, o), (g, u) = left, right
    assert (f == g) == (o == u)
    if f == g:
        assert hash(f) == hash(g)
    # a respelling of f: the same element, so the same hash
    again = f * g * g.inverse()
    assert again == f and hash(again) == hash(f)


# near-cancelling a + b sqrt2: 3 - 2 sqrt2 ~ 0.17, -7 + 5 sqrt2 ~ 0.071,
# 17 - 12 sqrt2 ~ 0.029, and their negatives
@pytest.mark.parametrize("a, b, want", [(3, -2, 1), (-7, 5, 1), (17, -12, 1), (0, 0, 0)])
def test_integer_sign_of_near_cancelling_pairs(a, b, want):
    assert quad_sign(a, b) == want and quad_sign(-a, -b) == -want
    assert QuadExt(Fraction(a, 12), Fraction(b, 12)).sign() == want


@given(st.integers(-10 ** 12, 10 ** 12), st.integers(-10 ** 12, 10 ** 12))
def test_integer_sign_matches_quadext(a, b):
    assert quad_sign(a, b) == QuadExt(a, b).sign()


def test_products_inverses_and_equality_build_no_quadext(monkeypatch):
    import fractions
    rng = random.Random(14)
    f, g = (word_to_element("".join(rng.choice("abcABC") for _ in range(8))) for _ in range(2))
    built = []
    init, new = QuadExt.__init__, fractions.Fraction.__new__

    def counting_init(self, *args):
        built.append("QuadExt")
        init(self, *args)

    def counting_new(cls, *args, **kwargs):
        built.append("Fraction")
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(QuadExt, "__init__", counting_init)
    monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
    h = f * g
    inv = f.inverse()
    same = f == g
    hashes = hash(f), hash(h), hash(inv)
    monkeypatch.undo()
    assert built == []
    assert h * g.inverse() == f and (f * inv).is_identity() and not same
    assert hashes == (hash(f), hash(h), hash(inv))


def test_identity_factor_returns_the_other_mobius():
    m = Mobius(2, 0, 1, 1)
    assert Mobius.identity() * m is m
    assert m * Mobius.identity() is m

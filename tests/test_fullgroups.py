import os
import random
import subprocess
import sys
import time
from bisect import bisect_left
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

import germlab.fullgroups as fullgroups
from germlab.cantorv import ZERO_SEQ, EventuallyPeriodic, int_to_word, word_to_int
from germlab.chabauty import BudgetError, MarkedGroup, SubgroupSpec, ball, disjoint_open_search
from germlab.fullgroups import (
    Clopen,
    FullGroupElement,
    gamma_tv,
    quasi_isometry_check,
    return_set,
    schreier_patch,
)


class _OracleOdometerPoint:
    """An eventually periodic binary sequence, stored as its 2-adic value:
    the odometer is rational addition."""

    def __init__(self, value):
        value = Fraction(value)
        if value.denominator % 2 == 0:
            raise ValueError("odometer points have odd denominator")
        self.value = value

    @classmethod
    def from_digits(cls, preperiod, period="0"):
        if not period:
            raise ValueError("period must be nonempty")
        head, body = word_to_int(preperiod), word_to_int(period)
        return cls(head + Fraction((1 << len(preperiod)) * body, 1 - (1 << len(period))))

    @classmethod
    def parse(cls, text):
        """Parse "preperiod,period", e.g. "11,0" for 110^inf."""
        pre, per = text.split(",")
        return cls.from_digits(pre, per)

    def preperiod_period(self):
        seen, digits, y = {}, [], self.value
        while y not in seen:
            seen[y] = len(digits)
            digits.append(y.numerator % 2)
            y = (y - digits[-1]) / 2
        joined = "".join(map(str, digits))
        return joined[:seen[y]], joined[seen[y]:]

    def __add__(self, n):
        return _OracleOdometerPoint(self.value + n)

    def __sub__(self, n):
        return _OracleOdometerPoint(self.value - n)


def _oracle(x):
    return _OracleOdometerPoint.from_digits(x.preperiod, x.period)


def _point(oracle):
    return EventuallyPeriodic(*oracle.preperiod_period())


def rand_point(rng):
    pre = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
    per = "".join(rng.choice("01") for _ in range(rng.randrange(1, 4)))
    return EventuallyPeriodic(pre, per)


def rand_gamma(rng):
    while True:
        word = "".join(rng.choice("01") for _ in range(rng.randrange(2, 4)))
        t = rng.choice([-3, -2, -1, 1, 2, 3])
        v = Clopen.of(word)
        if v.disjoint_from(v.translate(t)):
            return gamma_tv(t, v)


def test_words():
    assert word_to_int("011") == 6
    assert int_to_word(6, 3) == "011"
    assert Clopen.of("11").translate(1) == Clopen.of("00")
    assert Clopen.of("00").translate(1) == Clopen.of("10")
    with pytest.raises(ValueError):
        word_to_int("012")


def test_carry_propagation():
    x = EventuallyPeriodic("11", "0")
    assert ((x + 1).preperiod, (x + 1).period) == ("001", "0")
    assert x + 0 == x
    assert (x + 1) + -1 == x


def test_carries_through_constant_periods():
    # (1) is -1 and (0) is 0: a carry out of the head wraps the period
    assert EventuallyPeriodic("", "1") + 1 == ZERO_SEQ
    assert ZERO_SEQ - 1 == EventuallyPeriodic("", "1")
    assert EventuallyPeriodic("1", "1") + 1 == EventuallyPeriodic("0", "0")
    assert EventuallyPeriodic("0", "1") + 1 == EventuallyPeriodic("", "1")
    assert EventuallyPeriodic("01", "0") - 3 == EventuallyPeriodic("", "1")
    # other periods absorb the carry in their next copy
    assert EventuallyPeriodic("1", "01") + 1 == EventuallyPeriodic("011", "01")
    assert EventuallyPeriodic("", "10") - 2 == EventuallyPeriodic("110", "01")
    for pre, per, n in (("", "1", 1), ("", "0", -1), ("111", "1", 5), ("000", "0", -9),
                        ("", "01", 1), ("", "10", -1), ("1", "110", 6)):
        x = EventuallyPeriodic(pre, per)
        assert _oracle(x + n).value == _oracle(x).value + n
        assert _oracle(x - n).value == _oracle(x).value - n


def test_point_encoding():
    # the 2-adic values of the digit forms
    assert _oracle(EventuallyPeriodic("", "1")).value == -1
    assert _oracle(EventuallyPeriodic("", "01")).value == Fraction(-2, 3)
    assert _oracle(EventuallyPeriodic("11", "0")).value == 3
    assert _point(_OracleOdometerPoint(Fraction(-2, 3))) == EventuallyPeriodic("", "01")
    x = EventuallyPeriodic.parse(",10")
    assert x.digits(6) == "101010"
    with pytest.raises(ValueError):
        EventuallyPeriodic("1", "2")
    with pytest.raises(ValueError):
        EventuallyPeriodic("1", "")
    with pytest.raises(ValueError):
        EventuallyPeriodic.parse("1,")


def test_digit_roundtrip():
    rng = random.Random(31)
    for _ in range(50):
        x = rand_point(rng)
        assert EventuallyPeriodic(x.preperiod, x.period) == x
        assert _point(_oracle(x)) == x
        # canonical form has a primitive period not absorbable into the tail
        assert len(x.period) >= 1


def test_odometer_matches_fraction_oracle():
    rng = random.Random(38)
    for _ in range(3000):
        x = rand_point(rng)
        n = rng.choice([rng.randrange(-70, 70), rng.randrange(-10**6, 10**6)])
        assert _point(_oracle(x) + n) == x + n
        assert _point(_oracle(x) - n) == x - n
        # both notations read the same point
        text = "%s,%s" % (x.preperiod, x.period)
        assert _point(_OracleOdometerPoint.parse(text)) == EventuallyPeriodic.parse(text)
        assert EventuallyPeriodic.parse(text) == EventuallyPeriodic.parse(str(x)) == x


def test_freeness():
    rng = random.Random(32)
    for _ in range(50):
        x = rand_point(rng)
        for n in range(1, 1025):
            assert x + n != x
            assert x - n != x


def test_clopen_canonical():
    assert Clopen.of("00", "01") == Clopen.of("0")
    assert Clopen.of("0", "01") == Clopen.of("0")
    assert Clopen.of("00", "01", "1") == Clopen.full()
    assert Clopen.of("0").complement() == Clopen.of("1")
    assert Clopen.full().complement() == Clopen.empty()
    assert Clopen.empty().complement() == Clopen.full()


def test_clopen_algebra():
    u = Clopen.of("01", "11")
    v = Clopen.of("1")
    assert u.union(v) == Clopen.of("01", "1")
    assert u.measure() == Fraction(1, 2)
    assert Clopen.of("11").subset_of(u)
    assert not u.subset_of(v)
    assert u.disjoint_from(Clopen.of("00"))
    assert not u.disjoint_from(v)
    assert u.contains_point(EventuallyPeriodic("", "1"))
    assert not u.contains_point(ZERO_SEQ)


def test_clopen_translate():
    assert Clopen.of("00").translate(1) == Clopen.of("10")
    assert Clopen.of("0").translate(2) == Clopen.of("0")
    u = Clopen.of("010", "11")
    assert u.translate(5).translate(-5) == u
    # translation preserves measure piece by piece
    assert u.translate(3).measure() == u.measure()


def test_return_sets():
    assert return_set(Clopen.of("0")) == (0, 1)
    assert return_set(Clopen.full()) == (0,)
    assert return_set(Clopen.of("01")) == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        return_set(Clopen.empty())


def test_return_set_exhaustive_reverification():
    rng = random.Random(33)
    for _ in range(20):
        words = {"".join(rng.choice("01") for _ in range(rng.randrange(1, 4)))
                 for _ in range(rng.randrange(1, 3))}
        u = Clopen(tuple(words))
        times = return_set(u)
        length = max(u.max_length(), 1)
        for r in range(1 << length):
            assert any(
                u.contains_word(int_to_word((r + t) % (1 << length), length))
                for t in times
            )
        assert max(times) < (1 << length)


def _return_set_by_walk(u, shift=0):
    """First-entry times found by stepping the odometer from each residue."""
    length = u.max_length()
    times = set()
    for r in range(1 << length):
        t = 0
        while not u.contains_word(int_to_word((r + t) % (1 << length), length)):
            t += 1
        times.add(t + shift)
    return tuple(sorted(times))


def test_return_set_closed_form_matches_walk():
    rng = random.Random(57)
    words = [int_to_word(v, n) for n in range(6) for v in range(1 << n)]
    for _ in range(200):
        u = Clopen(rng.sample(words, rng.randrange(1, 5)))
        shift = rng.randrange(-3, 4)
        assert tuple(t + shift for t in return_set(u)) == _return_set_by_walk(u, shift)


def test_return_set_deep_cylinder_is_fast():
    start = time.perf_counter()
    times = return_set(Clopen.of("0" * 14))
    assert time.perf_counter() - start < 1.0
    assert times == tuple(range(1 << 14))


def test_return_set_obeys_budget(monkeypatch):
    monkeypatch.setenv("GERMLAB_BUDGET", "100")
    with pytest.raises(BudgetError):
        return_set(Clopen.of("0" * 7))
    assert return_set(Clopen.of("0" * 6)) == tuple(range(64))


def test_gamma_is_involution():
    rng = random.Random(34)
    for _ in range(25):
        g = rand_gamma(rng)
        assert (g * g).is_identity()
        assert g.inverse() == g


def test_gamma_support_and_admissibility():
    v = Clopen.of("00")
    g = gamma_tv(1, v)
    assert g.support().subset_of(v.union(Clopen.of("10")))
    x = ZERO_SEQ
    assert g(x) == x + 1
    assert g(x + 1) == x
    with pytest.raises(ValueError):
        gamma_tv(2, Clopen.of("0"))
    with pytest.raises(ValueError):
        gamma_tv(0, v)
    with pytest.raises(ValueError):
        gamma_tv(1, Clopen.empty())


def test_element_validation():
    with pytest.raises(ValueError):
        FullGroupElement(((Clopen.of("0"), 0),))  # does not cover
    with pytest.raises(ValueError):
        FullGroupElement(((Clopen.of("0"), 0), (Clopen.of("00"), 1)))  # overlap
    with pytest.raises(ValueError):
        # covers, but both pieces land on C_1: not a bijection
        FullGroupElement(((Clopen.of("0"), 1), (Clopen.of("1"), 0)))


def test_compose_matches_pointwise_oracle():
    rng = random.Random(37)
    for _ in range(30):
        factors = [rand_gamma(rng) for _ in range(rng.randrange(2, 5))]
        prod = reduce(lambda f, g: f * g, factors)
        # one point per cell fine enough for every table decides all shifts
        depth = max(piece.max_length() for h in factors + [prod] for _, piece in h.table)
        for k in range(1 << depth):
            x = EventuallyPeriodic(int_to_word(k, depth), rng.choice(["0", "1", "01"]))
            y = x
            for f in reversed(factors):
                y = f(y)
            assert prod(x) == y


def _oracle_compose(f, g):
    """f o g by intersecting each moved piece of g with each piece of f."""
    table = []
    for first, piece in g.table:
        image = piece.translate(first)
        for second, target in f.table:
            # of two words that meet, the longer one spans the meet
            meet = Clopen([w if w.startswith(u) else u for w in image.words
                           for u in target.words if w.startswith(u) or u.startswith(w)])
            if not meet.is_empty():
                table.append((meet.translate(-first), first + second))
    return FullGroupElement(table)


def rand_product(rng):
    return reduce(lambda f, g: f * g, [rand_gamma(rng) for _ in range(rng.randrange(1, 5))])


def test_compose_matches_per_pair_oracle():
    rng = random.Random(39)
    for _ in range(400):
        f, g = rand_product(rng), rand_product(rng)
        assert f * g == _oracle_compose(f, g)
        assert g * f == _oracle_compose(g, f)


def test_deep_gamma_times_inverse_is_fast():
    v = Clopen.of("0110100110010110" * 4)
    start = time.perf_counter()
    g = gamma_tv(1, v)
    assert (g * g.inverse()).is_identity()
    assert time.perf_counter() - start < 1.0


def test_powers_and_support():
    g = gamma_tv(1, Clopen.of("00"))
    assert g ** 2 == FullGroupElement.identity()
    assert g ** -1 == g
    assert FullGroupElement.identity().support() == Clopen.empty()


# -- the region protocol ---------------------------------------------------


def _simulated_image(g, w):
    """The image of C_w cut into cells below every piece, each cell moved
    by the shift of the piece holding it, in integer digit arithmetic."""
    depth = max(len(w), max(piece.max_length() for _, piece in g.table))
    words, shifts = [], set()
    for k in range(1 << depth - len(w)):
        cell = w + int_to_word(k, depth - len(w))
        shift = next(s for s, piece in g.table if piece.contains_word(cell))
        words.append(int_to_word(word_to_int(cell) + shift, depth))
        shifts.add(shift)
    return Clopen(words), shifts


def _gamma_group():
    return MarkedGroup({
        "a": gamma_tv(1, Clopen.of("00")),
        "b": gamma_tv(2, Clopen.of("01")),
        "c": gamma_tv(-1, Clopen.of("111")),
    })


def test_region_protocol_matches_digit_simulation():
    group = _gamma_group()
    cells = [w for n in range(7) for w in (int_to_word(k, n) for k in range(1 << n))]
    for g in ball(group, 2).elements:
        for w in cells:
            image, shifts = _simulated_image(g, w)
            assert Clopen(g.image_words(w)) == image
            assert Clopen.of(w).image(g) == image
            assert g.identity_on(Clopen.of(w)) == (shifts == {0})
        for x in (ZERO_SEQ, EventuallyPeriodic("", "1"), EventuallyPeriodic("1", "01")):
            near = Clopen.of(x.digits(max(piece.max_length() for _, piece in g.table)))
            assert g.germ_trivial_at(x) == g.identity_on(near) == (g(x) == x)


def test_conjugated_specs_contain_conjugates():
    full = ball(_gamma_group(), 2).elements
    specs = [
        SubgroupSpec.support_inside(Clopen.of("0")),
        SubgroupSpec.support_inside(Clopen.of("01", "110")),
        SubgroupSpec.identity_germ_at(ZERO_SEQ),
        SubgroupSpec.identity_germ_at(EventuallyPeriodic("1", "01"), EventuallyPeriodic("", "1")),
    ]
    for spec in specs:
        verdicts = {spec.contains(h) for h in full}
        assert verdicts == {True, False}
        for g in full:
            moved = SubgroupSpec.conjugate(spec, g)
            for h in full:
                assert moved.contains(g * h * g.inverse()) == spec.contains(h)


def test_disjoint_open_search_on_full_group():
    g = gamma_tv(1, Clopen.of("00"))
    regions, w = disjoint_open_search([g], ZERO_SEQ)
    u = regions[0]
    assert u.disjoint_from(u.image(g)) and w.contains_point(ZERO_SEQ)
    assert w.disjoint_from(u) and w.disjoint_from(u.preimage(g))


def test_patch_full_space():
    x = ZERO_SEQ
    patch = schreier_patch(Clopen.full(), 1, x, 10)
    assert patch.vertices == tuple(range(-10, 11))
    assert (0, 3) in patch.edges and (0, 4) not in patch.edges
    report = quasi_isometry_check(patch)
    assert report["violations"] == []
    assert report["one_dense"]


def test_patch_even_vertices():
    x = ZERO_SEQ
    patch = schreier_patch(Clopen.of("0"), 1, x, 40)
    assert all(n % 2 == 0 for n in patch.vertices)
    # orbit identification: exactly the n with x + n in u
    expected = tuple(n for n in range(-40, 41) if (x + n).digits(1) == "0")
    assert patch.vertices == expected
    report = quasi_isometry_check(patch)
    assert report["violations"] == []
    assert report["one_dense"]
    num, den = report["max_ratio"].split("/")
    assert Fraction(int(num), int(den)) <= 3


def test_patch_mod_four():
    x = EventuallyPeriodic("01", "0")
    u = Clopen.of("01")
    patch = schreier_patch(u, 2, x, 80)
    assert all((x + n).digits(2) == "01" for n in patch.vertices)
    assert patch.vertices == tuple(range(-80, 81, 4))
    report = quasi_isometry_check(patch)
    assert report["violations"] == []
    assert report["one_dense"]


def test_patch_disconnection_without_wide_generators():
    # with unit generators the mod-4 patch has gaps of 4 > 3: no edges
    x = EventuallyPeriodic("01", "0")
    patch = schreier_patch(Clopen.of("01"), 1, x, 80)
    assert patch.edges == ()
    report = quasi_isometry_check(patch)
    assert report["violations"] != []
    assert not report["one_dense"]


def test_patch_requires_base_point_in_u():
    with pytest.raises(ValueError):
        schreier_patch(Clopen.of("1"), 1, ZERO_SEQ, 10)


def test_dot_export():
    patch = schreier_patch(Clopen.of("0"), 1, ZERO_SEQ, 6)
    dot = patch.to_dot()
    assert dot.startswith("graph schreier_patch {")
    assert '"0" -- "2";' in dot
    assert dot == patch.to_dot()


# -- oracles: the quadratic constructions the sorted sweeps replaced ----------


class _OraclePatch:
    """The Schreier patch with every vertex pair scanned for edges, one BFS
    per source and a scan of all vertices per point for 1-density."""

    def __init__(self, u, s_bound, x, radius):
        self.radius, self.s_bound = radius, s_bound
        self.vertices = tuple(n for n in range(-radius, radius + 1) if u.contains_point(x + n))
        self.edges = tuple(
            (a, b)
            for i, a in enumerate(self.vertices)
            for b in self.vertices[i + 1:]
            if 0 < b - a <= 3 * s_bound
        )

    def graph_distances(self, source):
        adjacency = {}
        for a, b in self.edges:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        dist, frontier = {source: 0}, [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adjacency.get(v, ()):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def one_density_holds(self, margin=None):
        bound = self.radius - (3 * self.radius // 4 if margin is None else margin)
        return all(
            any(abs(m - v) <= self.s_bound for v in self.vertices)
            for m in range(-bound, bound + 1)
        )

    def quasi_isometry_check(self, margin=None):
        bound = self.radius - (3 * self.radius // 4 if margin is None else margin)
        inner = tuple(n for n in self.vertices if abs(n) <= bound)
        violations, max_ratio, pairs = [], Fraction(0), 0
        for i, y in enumerate(inner):
            dist = self.graph_distances(y)
            for z in inner[i + 1:]:
                pairs += 1
                d = -(-abs(y - z) // self.s_bound)
                delta = dist.get(z)
                if delta is None:
                    violations.append({"pair": [y, z], "reason": "disconnected"})
                elif not delta <= d <= 3 * delta:
                    violations.append({"pair": [y, z], "ambient": d, "graph": delta})
                else:
                    max_ratio = max(max_ratio, Fraction(d, delta))
        return {
            "interior_vertices": len(inner),
            "pairs": pairs,
            "violations": violations,
            "max_ratio": "%d/%d" % (max_ratio.numerator, max_ratio.denominator),
            "one_dense": self.one_density_holds(margin),
        }


def _patch_cases():
    rng = random.Random(71)
    # unit generators cannot cross the gaps of 16 in C_0000: disconnected
    yield Clopen.of("0000"), 1, ZERO_SEQ, 60, None
    yield Clopen.of("0000"), 4, ZERO_SEQ, 60, 10
    yield Clopen.full(), 1, ZERO_SEQ, 12, 0
    for _ in range(120):
        words = ["".join(rng.choice("01") for _ in range(rng.randrange(6)))
                 for _ in range(rng.randrange(1, 4))]
        u = Clopen(words)
        w = rng.choice(u.words)
        x = EventuallyPeriodic(w + "".join(rng.choice("01") for _ in range(3)),
                               rng.choice(["0", "1", "01", "110"]))
        radius = rng.randrange(1, 70)
        margin = rng.choice([None, 0, rng.randrange(radius + 1)])
        yield u, rng.randrange(1, 5), x, radius, margin


def test_patch_sweep_matches_bfs_oracle():
    disconnected = 0
    for u, s_bound, x, radius, margin in _patch_cases():
        patch = schreier_patch(u, s_bound, x, radius)
        oracle = _OraclePatch(u, s_bound, x, radius)
        assert patch.vertices == oracle.vertices
        assert patch.edges == oracle.edges
        for source in patch.vertices:
            assert patch.graph_distances(source) == oracle.graph_distances(source)
        assert patch.graph_distances(radius + 1) == {radius + 1: 0}
        assert patch.one_density_holds(margin) == oracle.one_density_holds(margin)
        report = quasi_isometry_check(patch, margin)
        assert report == oracle.quasi_isometry_check(margin)
        disconnected += any("reason" in v for v in report["violations"])
    assert disconnected >= 5


def _quadratic_qi_check(patch, margin=None):
    """The quasi-isometry check before the periodic sweep: one sweep from
    every interior vertex, and 1-density by a bisection per window point."""
    inner, s = patch.interior(margin), patch.s_bound
    violations = []
    top, bottom = 0, 1
    for i, y in enumerate(inner):
        dist = fullgroups._sweep(inner[i:], 3 * s)
        for z, delta in zip(inner[i + 1:], dist[1:]):
            d = -(-(z - y) // s)
            if not delta <= d <= 3 * delta:
                violations.append({"pair": [y, z], "ambient": d, "graph": delta})
            elif d * bottom > top * delta:
                top, bottom = d, delta
        violations += ({"pair": [y, z], "reason": "disconnected"}
                       for z in inner[i + len(dist):])
    line, bound = patch.vertices, patch._bound(margin)
    one_dense = True
    for m in range(-bound, bound + 1):
        i = bisect_left(line, m - s)
        if i == len(line) or line[i] > m + s:
            one_dense = False
            break
    max_ratio = Fraction(top, bottom)
    return {
        "interior_vertices": len(inner),
        "pairs": len(inner) * (len(inner) - 1) // 2,
        "violations": violations,
        "max_ratio": "%d/%d" % (max_ratio.numerator, max_ratio.denominator),
        "one_dense": one_dense,
    }


@st.composite
def _patches(draw):
    """A random patch and margin: any cylinder set, a base point in it,
    s_bound 1 to 3, and margins that may empty the interior."""
    u = Clopen(draw(st.lists(st.text("01", max_size=5), min_size=1, max_size=4)))
    x = EventuallyPeriodic(draw(st.sampled_from(u.words)) + draw(st.text("01", max_size=3)),
                           draw(st.sampled_from(["0", "1", "01", "110"])))
    radius = draw(st.integers(1, 150))
    patch = schreier_patch(u, draw(st.integers(1, 3)), x, radius)
    return patch, draw(st.one_of(st.none(), st.integers(0, radius + 2)))


@given(_patches())
def test_periodic_qi_check_matches_the_quadratic_sweep(case):
    patch, margin = case
    # whole dicts: every violation, in the same order, and the same ratio
    assert quasi_isometry_check(patch, margin) == _quadratic_qi_check(patch, margin)


@pytest.mark.parametrize("word, s_bound, radius, margin", [
    ("0000", 1, 200, 0),  # every pair disconnected: 300 violations
    ("0000", 4, 300, 20),
    ("011", 2, 257, None),
    ("", 1, 90, 3),
])
def test_periodic_qi_check_matches_on_fixed_patches(word, s_bound, radius, margin):
    patch = schreier_patch(Clopen.of(word), s_bound, EventuallyPeriodic.parse(word + ",0"), radius)
    assert quasi_isometry_check(patch, margin) == _quadratic_qi_check(patch, margin)


def test_qi_check_sweeps_one_period(monkeypatch):
    swept = []
    sweep = fullgroups._sweep

    def counting(line, reach):
        swept.append(line[0])
        return sweep(line, reach)

    monkeypatch.setattr(fullgroups, "_sweep", counting)
    # C8's patches: one vertex per period, so one sweep each
    for word, s_bound, radius in (("0", 1, 800), ("01", 2, 1600)):
        patch = schreier_patch(Clopen.of(word), s_bound, EventuallyPeriodic.parse(word + ",0"), radius)
        swept.clear()
        report = quasi_isometry_check(patch)
        assert report["interior_vertices"] >= 100 and swept == [patch.interior()[0]]
    # C_0 | C_10 | C_110 holds seven of the eight residues mod 8
    u = Clopen(["0", "10", "110"])
    patch = schreier_patch(u, 1, EventuallyPeriodic.parse("0,0"), 100)
    swept.clear()
    quasi_isometry_check(patch)
    assert swept == list(patch.interior()[:7])


def test_patch_and_qi_check_obey_budget(monkeypatch):
    x = EventuallyPeriodic.parse("0,0")
    monkeypatch.setenv("GERMLAB_BUDGET", "100")
    with pytest.raises(BudgetError, match="^101 vertices exceed the 100-element budget$"):
        schreier_patch(Clopen.full(), 1, x, 50)
    # 99 vertices and 291 edges, each vertex joined to the next three
    monkeypatch.setenv("GERMLAB_BUDGET", "290")
    with pytest.raises(BudgetError, match="^291 edges exceed the 290-element budget$"):
        schreier_patch(Clopen.full(), 1, x, 49)
    monkeypatch.setenv("GERMLAB_BUDGET", "291")
    assert len(schreier_patch(Clopen.full(), 1, x, 49).edges) == 291
    # a vertex every 16: 25 interior vertices, and all 300 pairs disconnected
    sparse = schreier_patch(Clopen.of("0000"), 1, EventuallyPeriodic.parse("0000,0"), 200)
    monkeypatch.setenv("GERMLAB_BUDGET", "299")
    with pytest.raises(BudgetError, match="^300 violating pairs exceed the 299-element budget$"):
        quasi_isometry_check(sparse, 0)
    monkeypatch.setenv("GERMLAB_BUDGET", "300")
    assert len(quasi_isometry_check(sparse, 0)["violations"]) == 300
    # 63 of the 64 residues mod 64: 63 sweeps over 79 interior vertices
    dense = Clopen(["%06d" % int(bin(k)[2:]) for k in range(1, 64)])
    patch = schreier_patch(dense, 1, EventuallyPeriodic.parse("100000,0"), 40)
    n = len(patch.interior(1))
    with pytest.raises(BudgetError, match="^%d sweep steps exceed" % (63 * n - 63 * 62 // 2)):
        quasi_isometry_check(patch, 1)


def _oracle_table(table):
    """The full-group constructor with pairwise disjointness and Fraction
    measures: the sorted table, or the ValueError message."""
    by_shift = {}
    for piece, shift in table:
        if not isinstance(shift, int):
            return "shifts must be integers"
        by_shift.setdefault(shift, []).extend(piece.words)
    pieces = sorted((shift, Clopen(words)) for shift, words in by_shift.items() if words)
    images = [piece.translate(shift) for shift, piece in pieces]
    for i, (_, piece) in enumerate(pieces):
        for j in range(i + 1, len(pieces)):
            if not piece.disjoint_from(pieces[j][1]):
                return "domain pieces overlap"
            if not images[i].disjoint_from(images[j]):
                return "image pieces overlap"
    if (sum(piece.measure() for _, piece in pieces) != 1
            or sum(image.measure() for image in images) != 1):
        return "pieces must partition the space"
    return tuple(pieces)


def _split(rng, words):
    """The same set, with some words cut into their two children."""
    out = []
    for w in words:
        if len(w) < 5 and rng.random() < 0.4:
            out.extend(_split(rng, [w + "0", w + "1"]))
        else:
            out.append(w)
    return out


def _tables():
    rng = random.Random(72)
    for _ in range(400):
        g = reduce(lambda f, h: f * h, [rand_gamma(rng) for _ in range(rng.randrange(1, 4))])
        table = []
        for shift, piece in g.table:
            words = _split(rng, piece.words)
            rng.shuffle(words)
            cut = rng.randrange(len(words) + 1)
            # one shift may come in several entries
            table += [(Clopen(words[:cut]), shift), (Clopen(words[cut:]), shift)]
        kind = rng.randrange(4)
        if kind == 1 and len(table) > 1:
            del table[rng.randrange(len(table))]
        elif kind == 2:
            word = "".join(rng.choice("01") for _ in range(rng.randrange(1, 4)))
            table.insert(rng.randrange(len(table) + 1),
                         (Clopen.of(word), rng.randrange(-4, 5)))
        elif kind == 3:
            k = rng.randrange(len(table))
            table[k] = (table[k][0], table[k][1] + rng.choice([-2, -1, 1, 2]))
        rng.shuffle(table)
        yield table


def test_element_constructor_matches_pairwise_oracle():
    verdicts = {}
    for table in _tables():
        want = _oracle_table(table)
        try:
            got = FullGroupElement(table).table
        except ValueError as exc:
            got = str(exc)
        assert got == want
        verdicts[want if isinstance(want, str) else "valid"] = True
    assert set(verdicts) == {
        "valid", "domain pieces overlap", "image pieces overlap",
        "pieces must partition the space",
    }
    # tables overlapping on both sides: the first pair of pieces in shift
    # order that meets on either side names it, the domain first
    for want, table in (
        # shifts 0, 1 meet in the image C_0, shifts 0, 2 in the domain C_00
        ("image pieces overlap",
         ((Clopen.of("0"), 0), (Clopen.of("1"), 1), (Clopen.of("00"), 2))),
        # shifts 0, 1 meet in the domain C_00, shifts 1, 2 in the image C_10
        ("domain pieces overlap",
         ((Clopen.of("1"), 2), (Clopen.of("0"), 0), (Clopen.of("00"), 1))),
        ("shifts must be integers", ((Clopen.of("0"), 0.5),)),
    ):
        with pytest.raises(ValueError, match=want):
            FullGroupElement(table)
        assert _oracle_table(table) == want


def test_invalid_codes_and_partitions_raise_under_optimize():
    # the checks are ValueErrors, not asserts, so python -O keeps them
    code = (
        "import sys\n"
        "from germlab.cantorv import Cylinders, PrefixMap\n"
        "from germlab.fullgroups import FullGroupElement\n"
        "C = Cylinders.of\n"
        "bad = [\n"
        "    ('domain words', lambda: PrefixMap([('0', '0'), ('00', '1')])),\n"
        "    ('domain words', lambda: PrefixMap([('0', '0')])),\n"
        "    ('range words', lambda: PrefixMap([('0', '1'), ('1', '1')])),\n"
        "    ('range words', lambda: PrefixMap([('0', '1'), ('1', '10')])),\n"
        "    ('domain pieces overlap', lambda: FullGroupElement(((C('0'), 0), (C('00', '1'), 1)))),\n"
        "    ('image pieces overlap', lambda: FullGroupElement(((C('0'), 1), (C('1'), 0)))),\n"
        "    ('partition', lambda: FullGroupElement(((C('0'), 0),))),\n"
        "]\n"
        "for want, build in bad:\n"
        "    try:\n"
        "        build()\n"
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


@pytest.mark.parametrize("want, build", [
    ("shifts must be integers",
     "FullGroupElement.from_json({'pieces': [{'words': [''], 'shift': 0.9}]})"),
    ("shifts must be integers",
     "FullGroupElement.from_json({'pieces': [{'words': [''], 'shift': True}]})"),
    ("words must be a list",
     "FullGroupElement.from_json({'pieces': [{'words': '01', 'shift': 0}]})"),
    ("pair of words", "PrefixMap.from_json({'rules': ['01', '10']})"),
], ids=["float-shift", "bool-shift", "string-words", "string-rules"])
def test_malformed_json_raises_under_optimize(want, build):
    code = (
        "import sys\n"
        "from germlab.cantorv import PrefixMap\n"
        "from germlab.fullgroups import FullGroupElement\n"
        "try:\n"
        "    got = " + build + "\n"
        "except ValueError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
        "else:\n"
        "    sys.exit('accepted: %r' % (got,))\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("1 ") and want in done.stdout

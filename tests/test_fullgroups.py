import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import reduce

import pytest

from germlab.chabauty import BudgetError
from germlab.fullgroups import (
    Clopen,
    FullGroupElement,
    OdometerPoint,
    gamma_tv,
    int_to_word,
    quasi_isometry_check,
    return_set,
    schreier_patch,
    word_to_int,
)


def rand_point(rng):
    pre = "".join(rng.choice("01") for _ in range(rng.randrange(4)))
    per = "".join(rng.choice("01") for _ in range(rng.randrange(1, 4)))
    return OdometerPoint.from_digits(pre, per)


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
    x = OdometerPoint.from_digits("11", "0")
    assert (x + 1).preperiod_period() == ("001", "0")
    assert x + 0 == x
    assert (x + 1) + -1 == x


def test_point_encoding():
    assert OdometerPoint.from_digits("", "1").value == -1
    assert OdometerPoint.from_digits("", "01").value == Fraction(-2, 3)
    assert OdometerPoint.from_digits("11", "0").value == 3
    x = OdometerPoint.parse(",10")
    assert x.digits(6) == "101010"
    with pytest.raises(ValueError):
        OdometerPoint(Fraction(1, 2))
    with pytest.raises(ValueError):
        OdometerPoint.from_digits("1", "")


def test_digit_roundtrip():
    rng = random.Random(31)
    for _ in range(50):
        x = rand_point(rng)
        pre, per = x.preperiod_period()
        assert OdometerPoint.from_digits(pre, per) == x
        # canonical form has a primitive period not absorbable into the tail
        assert len(per) >= 1


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
    assert u.intersect(v) == Clopen.of("11")
    assert u.union(v) == Clopen.of("01", "1")
    assert u.measure() == Fraction(1, 2)
    assert Clopen.of("11").subset_of(u)
    assert not u.subset_of(v)
    assert u.disjoint_from(Clopen.of("00"))
    assert not u.disjoint_from(v)
    assert u.contains_point(OdometerPoint.from_digits("", "1"))
    assert not u.contains_point(OdometerPoint(0))


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
    assert return_set(Clopen.of("0"), shift=5) == (5, 6)
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
        assert return_set(u, shift) == _return_set_by_walk(u, shift)


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
    x = OdometerPoint(0)
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


def test_group_laws_pointwise():
    rng = random.Random(35)
    for _ in range(50):
        f = rand_gamma(rng)
        g = rand_gamma(rng)
        h = rand_gamma(rng)
        assert (f * g) * h == f * (g * h)
        assert (f * f.inverse()).is_identity()
        prod = f * g
        for _ in range(5):
            x = rand_point(rng)
            assert prod(x) == f(g(x))
    assert (FullGroupElement.identity() * f) == f


def test_compose_matches_pointwise_oracle():
    rng = random.Random(37)
    for _ in range(30):
        factors = [rand_gamma(rng) for _ in range(rng.randrange(2, 5))]
        prod = reduce(lambda f, g: f * g, factors)
        # one point per cell fine enough for every table decides all shifts
        depth = max(piece.max_length() for h in factors + [prod] for _, piece in h.table)
        for k in range(1 << depth):
            x = OdometerPoint.from_digits(int_to_word(k, depth), rng.choice(["0", "1", "01"]))
            y = x
            for f in reversed(factors):
                y = f(y)
            assert prod(x) == y


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


def test_element_json_roundtrip():
    rng = random.Random(36)
    for _ in range(20):
        g = rand_gamma(rng) * rand_gamma(rng)
        data = g.to_json()
        assert FullGroupElement.from_json(data) == g
        # piece words listed in another order decode to the same element
        for entry in data["pieces"]:
            entry["words"].sort(key=lambda w: (len(w), w), reverse=True)
        assert FullGroupElement.from_json(data) == g


def test_patch_full_space():
    x = OdometerPoint(0)
    patch = schreier_patch(Clopen.full(), 1, x, 10)
    assert patch.vertices == tuple(range(-10, 11))
    assert (0, 3) in patch.edges and (0, 4) not in patch.edges
    report = quasi_isometry_check(patch)
    assert report["violations"] == []
    assert report["one_dense"]


def test_patch_even_vertices():
    x = OdometerPoint(0)
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
    x = OdometerPoint.from_digits("01", "0")
    u = Clopen.of("01")
    patch = schreier_patch(u, 2, x, 80)
    assert all((x + n).digits(2) == "01" for n in patch.vertices)
    assert patch.vertices == tuple(range(-80, 81, 4))
    report = quasi_isometry_check(patch)
    assert report["violations"] == []
    assert report["one_dense"]


def test_patch_disconnection_without_wide_generators():
    # with unit generators the mod-4 patch has gaps of 4 > 3: no edges
    x = OdometerPoint.from_digits("01", "0")
    patch = schreier_patch(Clopen.of("01"), 1, x, 80)
    assert patch.edges == ()
    report = quasi_isometry_check(patch)
    assert report["violations"] != []
    assert not report["one_dense"]


def test_patch_requires_base_point_in_u():
    with pytest.raises(ValueError):
        schreier_patch(Clopen.of("1"), 1, OdometerPoint(0), 10)


def test_dot_export():
    patch = schreier_patch(Clopen.of("0"), 1, OdometerPoint(0), 6)
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
    yield Clopen.of("0000"), 1, OdometerPoint(0), 60, None
    yield Clopen.of("0000"), 4, OdometerPoint(0), 60, 10
    yield Clopen.full(), 1, OdometerPoint(0), 12, 0
    for _ in range(120):
        words = ["".join(rng.choice("01") for _ in range(rng.randrange(6)))
                 for _ in range(rng.randrange(1, 4))]
        u = Clopen(words)
        w = rng.choice(u.words)
        x = OdometerPoint.from_digits(w + "".join(rng.choice("01") for _ in range(3)),
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

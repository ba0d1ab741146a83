import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from germlab.cantorv import (
    Cylinders,
    EventuallyPeriodic,
    GEN_PI0,
    GEN_VA,
    GEN_VB,
    GEN_VC,
    GERM_FIXES,
    GERM_ISOLATED,
    GERM_MOVES,
    PrefixMap,
    SWAP,
    ZERO_SEQ,
    compress_v,
    germ_class,
    meeting,
    prefix_translate,
    rigid_stabilizer_v,
    rule_fixed_point,
)

GENS = [GEN_VA, GEN_VB, GEN_VC, GEN_PI0]


def rand_word(rng, n):
    w = PrefixMap.identity()
    for _ in range(n):
        g = rng.choice(GENS)
        if rng.random() < 0.5:
            g = g.inverse()
        w = w * g
    return w


def test_validation_rejects_bad_codes():
    with pytest.raises(ValueError):
        PrefixMap([("0", "0")])  # domain not complete
    with pytest.raises(ValueError):
        PrefixMap([("0", "0"), ("00", "1")])  # nested domains
    with pytest.raises(ValueError):
        PrefixMap([("0", "0"), ("1", "0")])  # range collision


def test_swap_is_an_involution():
    assert (SWAP * SWAP).is_identity()
    assert (GEN_PI0 * GEN_PI0).is_identity()


def test_reduction_to_canonical_form():
    f = PrefixMap([("00", "10"), ("01", "11"), ("1", "0")])
    assert f.rules == (("0", "1"), ("1", "0"))
    assert f == SWAP
    assert GEN_VA.to_json() == {"rules": [["00", "0"], ["01", "10"], ["1", "11"]]}


def test_c_cubed_is_identity():
    assert (GEN_VC ** 3).is_identity()
    assert not (GEN_VC ** 2).is_identity()


def test_presentation_relations():
    a, b = GEN_VA, GEN_VB

    def comm(x, y):
        return x * y * x.inverse() * y.inverse()

    assert comm(a.inverse() * b, a * b * a.inverse()).is_identity()
    assert comm(a.inverse() * b, a ** 2 * b * a ** -2).is_identity()
    assert not comm(a, b).is_identity()
    assert GEN_VB == prefix_translate(GEN_VA, "1")


def test_reduction_is_refinement_invariant():
    rng = random.Random(902)
    for _ in range(40):
        f = rand_word(rng, rng.randrange(1, 5))
        g = rand_word(rng, rng.randrange(1, 5))
        fr, gr = refined(rng, f), refined(rng, g)
        assert fr == f and gr == g
        assert fr * gr == f * g


def refined(rng, f):
    rules = list(f.rules)
    for _ in range(rng.randrange(1, 5)):
        i = rng.randrange(len(rules))
        v, z = rules.pop(i)
        rules.extend([(v + "0", z + "0"), (v + "1", z + "1")])
    return PrefixMap(rules)


def test_image_words_handles_coarse_cylinders():
    # a cylinder inside one rule has one image word
    assert GEN_VA.image_words("00") == ["0"]
    assert GEN_VA.image_words("001") == ["01"]
    assert GEN_VA.image_words("1") == ["11"]
    assert GEN_VA.image_words("0") == ["0", "10"]
    assert Cylinders(GEN_VA.image_words("")).is_full()
    rng = random.Random(903)
    for _ in range(30):
        f = rand_word(rng, 4)
        w = "".join(rng.choice("01") for _ in range(rng.randrange(0, 4)))
        region = Cylinders.of(w)
        assert region.image(f).image(f.inverse()) == region


def test_eventually_periodic_canonical():
    assert EventuallyPeriodic("01", "01") == EventuallyPeriodic("", "01")
    assert EventuallyPeriodic("", "0101").period == "01"
    assert EventuallyPeriodic("11", "01") == EventuallyPeriodic("1", "10")
    assert EventuallyPeriodic("0", "0").preperiod == ""


def test_eventually_periodic_basics():
    x = EventuallyPeriodic("0", "10")
    assert x.digits(7) == "0101010"
    assert x.shift(3) == EventuallyPeriodic("", "10")
    assert str(EventuallyPeriodic.parse("01(10)")) == "01(10)"
    assert EventuallyPeriodic.parse("(1)") == EventuallyPeriodic("111", "1")
    assert EventuallyPeriodic.parse(" 01,10 ") == EventuallyPeriodic.parse("01(10)")
    for text in ("0", "0(1", "0(1)(1)", "0,1,1", "0,", "0,2"):
        with pytest.raises(ValueError):
            EventuallyPeriodic.parse(text)
    with pytest.raises(ValueError):
        EventuallyPeriodic("0", "")


def test_action_on_points():
    assert GEN_VA(ZERO_SEQ) == ZERO_SEQ
    x = EventuallyPeriodic("", "01")
    assert GEN_VA(x) == EventuallyPeriodic("10", "01")
    assert SWAP(ZERO_SEQ) == EventuallyPeriodic("1", "0")


def test_germ_class_spec_examples():
    assert germ_class(PrefixMap.identity(), ZERO_SEQ) == GERM_FIXES
    assert germ_class(SWAP, ZERO_SEQ) == GERM_MOVES
    g = PrefixMap([("0", "00"), ("10", "01"), ("11", "1")])
    assert germ_class(g, ZERO_SEQ) == GERM_ISOLATED
    assert germ_class(GEN_VB, ZERO_SEQ) == GERM_FIXES  # identity on C_0
    assert germ_class(GEN_VA, ZERO_SEQ) == GERM_ISOLATED


def test_germ_dichotomy_at_fixed_points():
    rng = random.Random(904)
    seen = {GERM_FIXES: 0, GERM_ISOLATED: 0}
    count = 0
    while count < 200:
        g = rand_word(rng, rng.randrange(1, 6))
        v, z = g.rules[rng.randrange(len(g.rules))]
        x = rule_fixed_point(v, z)
        if x is None:
            continue
        assert g(x) == x
        cls = germ_class(g, x)
        assert cls in seen
        seen[cls] += 1
        count += 1
    assert seen[GERM_FIXES] > 0 and seen[GERM_ISOLATED] > 0


def test_cylinders_algebra():
    assert Cylinders.of("00", "01") == Cylinders.of("0")
    assert Cylinders.of("0").complement() == Cylinders.of("1")
    assert Cylinders.of("10").complement() == Cylinders.of("0", "11")
    assert Cylinders.of("01").union(Cylinders.of("00", "1")).is_full()
    assert Cylinders.of("010").subset_of(Cylinders.of("01"))
    assert Cylinders.of("00").disjoint_from(Cylinders.of("01", "1"))
    assert not Cylinders.of("0").disjoint_from(Cylinders.of("01"))
    assert Cylinders.of("0", "01") == Cylinders.of("0")


CELL_DEPTH = 6
CELLS = [format(k, "0%db" % CELL_DEPTH) for k in range(1 << CELL_DEPTH)]
ALL_CELLS = (1 << len(CELLS)) - 1


def cell_mask(region):
    """Bitmask of the depth-6 words lying inside the region."""
    return sum(1 << i for i, s in enumerate(CELLS) if any(s.startswith(w) for w in region.words))


def shifted_mask(mask, n):
    """Oracle for the odometer x -> x + n on depth-6 cells: a word is the
    binary expansion of a residue mod 64, lowest digit first."""
    out = 0
    for i, s in enumerate(CELLS):
        if mask >> i & 1:
            value = (int(s[::-1], 2) + n) % len(CELLS)
            out |= 1 << int(format(value, "0%db" % CELL_DEPTH)[::-1], 2)
    return out


def rand_bits(rng, lo, hi):
    return "".join(rng.choice("01") for _ in range(rng.randrange(lo, hi + 1)))


def rand_cylinders(rng):
    return Cylinders(rand_bits(rng, 1, CELL_DEPTH) for _ in range(rng.randrange(5)))


def test_cylinders_against_bitmask_oracle():
    rng = random.Random(61)
    for _ in range(300):
        a, b = rand_cylinders(rng), rand_cylinders(rng)
        ma, mb = cell_mask(a), cell_mask(b)
        words = set(a.words)
        assert not any(v != w and w.startswith(v) for v in words for w in words)
        assert not any(w.endswith("0") and w[:-1] + "1" in words for w in words)
        assert cell_mask(a.complement()) == ALL_CELLS ^ ma
        assert cell_mask(a.union(b)) == ma | mb
        n = rng.randrange(-70, 70)
        assert cell_mask(a.translate(n)) == shifted_mask(ma, n)
        assert a.measure() == Fraction(bin(ma).count("1"), len(CELLS))
        assert a.subset_of(b) == (ma & ~mb == 0)
        assert a.disjoint_from(b) == (ma & mb == 0)
        assert (a.union(b) == b) == (ma | mb == mb)
        x = EventuallyPeriodic(rand_bits(rng, 0, 4), rand_bits(rng, 1, 3))
        assert a.contains_point(x) == bool(ma >> int(x.digits(CELL_DEPTH), 2) & 1)
        # any word list spelling the same set gives the same canonical form
        spelled = [w + tail for w in a.words for tail in ("0", "1")]
        spelled += [w + rand_bits(rng, 0, 2) for w in a.words]
        rng.shuffle(spelled)
        assert Cylinders(spelled) == a


def test_rigid_stabilizer_support():
    gens = rigid_stabilizer_v("10")
    outside = Cylinders.of("10").complement()
    for g in gens:
        assert g.identity_on(outside)
    assert any(not g.is_identity() for g in gens)
    a, b = gens[0], gens[1]

    def comm(x, y):
        return x * y * x.inverse() * y.inverse()

    assert comm(a.inverse() * b, a * b * a.inverse()).is_identity()
    assert prefix_translate(SWAP, "0") == GEN_PI0


def test_compress_v_spec_example():
    g = compress_v("0", "11")
    image = Cylinders.of("1").image(g)
    assert image.subset_of(Cylinders.of("11"))
    assert compress_v("0", "").is_identity()
    with pytest.raises(ValueError):
        compress_v("", "1")


def test_compress_v_random_instances():
    rng = random.Random(905)
    for _ in range(50):
        w = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        t = "".join(rng.choice("01") for _ in range(rng.randrange(1, 5)))
        g = compress_v(w, t)
        complement = Cylinders.of(w).complement()
        assert complement.image(g).subset_of(Cylinders.of(t))
        # self-target case: complement squeezed into the removed cylinder
        h = compress_v(w, w)
        assert complement.image(h).subset_of(Cylinders.of(w))


# -- oracle: prefix maps simulated on digit strings ----------------------------


def _simulate(rules, c):
    """The image word of the cylinder C_c under a list of exchange rules,
    from the first rule whose domain word starts c; None if none does."""
    for v, z in rules:
        if c.startswith(v):
            return z + c[len(v):]
    return None


def _all_words(n):
    return [format(k, "0%db" % n) if n else "" for k in range(1 << n)]


def _depth(f):
    return max(len(v) for v, _ in f.rules)


def _refine(rng, rules):
    """The same exchange, with some rules cut along both children."""
    out = []
    for v, z in rules:
        if len(v) < 5 and rng.random() < 0.5:
            out.extend(_refine(rng, [(v + "0", z + "0"), (v + "1", z + "1")]))
        else:
            out.append((v, z))
    return out


def _oracle_map_error(rules):
    """The constructor's checks with Fraction Kraft sums and a duplicate scan."""
    table = {}
    for v, z in rules:
        if not isinstance(v, str) or any(ch not in "01" for ch in v):
            return "not a binary word: %r" % (v,)
        if not isinstance(z, str) or any(ch not in "01" for ch in z):
            return "not a binary word: %r" % (z,)
        if v in table:
            return "duplicate domain word %r" % (v,)
        table[v] = z

    def complete(words):
        ws = sorted(words)
        if any(ws[i + 1].startswith(ws[i]) for i in range(len(ws) - 1)):
            return False
        return sum(Fraction(1, 2 ** len(w)) for w in ws) == 1

    if not table:
        return "a map needs at least one rule"
    if not complete(table):
        return "domain words do not form a complete prefix code"
    if len(set(table.values())) != len(table) or not complete(table.values()):
        return "range words do not form a complete prefix code"
    return None


def test_prefix_maps_match_digit_string_simulation():
    rng = random.Random(907)
    for _ in range(60):
        f, g = rand_word(rng, rng.randrange(1, 5)), rand_word(rng, rng.randrange(1, 5))
        # reduced form: sorted, no sibling pair left, and the action of
        # any refinement of the rules
        for h in (f, g):
            domain = [v for v, _ in h.rules]
            assert domain == sorted(domain)
            assert not any(v.endswith("0") and (v[:-1] + "1", z[:-1] + "1") in h.rules
                           and z.endswith("0") for v, z in h.rules)
            refined = _refine(rng, h.rules)
            rng.shuffle(refined)
            assert PrefixMap(refined) == h
            for c in _all_words(max(len(v) for v, _ in refined)):
                assert _simulate(refined, c) == _simulate(h.rules, c)
        fg, f_inv = f * g, f.inverse()
        for c in _all_words(_depth(f) + _depth(g)):
            assert _simulate(fg.rules, c) == _simulate(f.rules, _simulate(g.rules, c))
        for c in _all_words(_depth(f) + _depth(f_inv)):
            assert _simulate(f_inv.rules, _simulate(f.rules, c)) == c


def test_prefix_map_checks_match_fraction_oracle():
    rng = random.Random(908)
    seen = set()
    for _ in range(600):
        rules = _refine(rng, rand_word(rng, rng.randrange(4)).rules)
        kind = rng.randrange(5)
        if kind == 1:
            del rules[rng.randrange(len(rules))]
        elif kind == 2:
            k = rng.randrange(len(rules))
            rules[k] = (rules[k][0], rules[k][1] + rng.choice("01"))
        elif kind == 3:
            k = rng.randrange(len(rules))
            rules.append((rules[k][0] + rng.choice(["", "0", "1"]), rules[k][1] + "1"))
        elif kind == 4:
            rules[rng.randrange(len(rules))] = rng.choice([("2", "0"), (0, "1"), ("0", "x")])
        rng.shuffle(rules)
        want = _oracle_map_error(rules)
        try:
            PrefixMap(rules)
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == want
        seen.add(want.split(":")[0].split(" ")[0] if want else None)
    assert seen == {None, "a", "not", "duplicate", "domain", "range"}
    with pytest.raises(ValueError, match="at least one rule"):
        PrefixMap([])


# -- oracle: the product as a sorted list of every meeting pair ----------------


def _product_oracle(f, g):
    """The rules of f o g as products were once computed: a rule p -> q of f
    meeting the range word w of a rule v -> w of g gives one rule, and the
    rules are sorted and then merged bottom-up."""
    out = []
    pairs = [(v + p[len(w):], q + w[len(p):]) for v, w in g.rules for p, q in meeting(f.rules, w)]
    for v, z in sorted(pairs):
        while out and v.endswith("1") and z.endswith("1") and out[-1] == (v[:-1] + "0", z[:-1] + "0"):
            out.pop()
            v, z = v[:-1], z[:-1]
        out.append((v, z))
    return tuple(out)


@st.composite
def prefix_maps(draw):
    """A complete prefix map: two complete prefix codes of one size, grown by
    splitting words, and paired by a permutation; no split is the identity."""
    splits = draw(st.integers(0, 7))
    codes = []
    for _ in range(2):
        words = [""]
        for k in draw(st.lists(st.integers(0, 63), min_size=splits, max_size=splits)):
            w = words.pop(k % len(words))
            words += [w + "0", w + "1"]
        codes.append(words)
    domain, image = codes
    order = draw(st.permutations(range(len(image))))
    return PrefixMap(zip(domain, [image[k] for k in order]))


# range words 000, 001, 01, 1 against domain words 0, 10, 110, 111
DEEP = PrefixMap([("0", "000"), ("10", "001"), ("110", "01"), ("111", "1")])


@given(prefix_maps(), prefix_maps())
@example(PrefixMap.identity(), DEEP)
@example(DEEP, PrefixMap.identity())
@example(DEEP, GEN_VA)
@example(GEN_VA, DEEP)
@example(DEEP, DEEP.inverse())
def test_product_matches_the_sorted_oracle(f, g):
    product = f * g
    assert product.rules == _product_oracle(f, g)
    assert PrefixMap(product.rules) == product


@st.composite
def _coded_tables(draw):
    """Entries (word, value) sorted by a random complete prefix code, whose
    values are all str (PrefixMap rules) or all int (full-group cells)."""
    words = [""]
    for k in draw(st.lists(st.integers(0, 63), max_size=9)):
        w = words.pop(k % len(words))
        words += [w + "0", w + "1"]
    if draw(st.booleans()):
        values = draw(st.lists(st.text("012", max_size=3), min_size=len(words), max_size=len(words)))
    else:
        values = draw(st.lists(st.integers(-3, 3), min_size=len(words), max_size=len(words)))
    return tuple(sorted(zip(words, values)))


@given(_coded_tables(), st.lists(st.text("01", max_size=6), min_size=1, max_size=8))
def test_meeting_matches_a_linear_scan(table, probes):
    for w in probes:
        want = [e for e in table if e[0].startswith(w) or w.startswith(e[0])]
        assert list(meeting(table, w)) == want

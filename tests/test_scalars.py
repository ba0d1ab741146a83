import json
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from germlab.plcircle import PLMap
from germlab.projline import Mobius, PPMap
from germlab.scalars import Dyadic, QuadExt, SQRT2, quad_sign


def bracket_sqrt2(bits: int) -> tuple[Fraction, Fraction]:
    """Rational lower/upper bounds on sqrt(2) via integer square root."""
    scale = 1 << bits
    lo = 0
    hi = 2 * scale
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * mid <= 2 * scale * scale:
            lo = mid
        else:
            hi = mid
    return Fraction(lo, scale), Fraction(hi, scale)


def oracle_sign(x: QuadExt) -> int:
    """Sign of a + b*sqrt2 by interval refinement, no case analysis."""
    if x.a == 0 and x.b == 0:
        return 0
    bits = 8
    while True:
        lo, hi = bracket_sqrt2(bits)
        vlo = min(x.a + x.b * lo, x.a + x.b * hi)
        vhi = max(x.a + x.b * lo, x.a + x.b * hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        bits *= 2
        assert bits <= 4096, "oracle failed to separate from zero"


def test_normalization_canonical():
    def form(d):
        return d.num, d.exp

    assert form(Dyadic(6, 1)) == (3, 0)
    assert form(Dyadic(4, 2)) == (1, 0)
    assert form(Dyadic(0, 7)) == (0, 0)
    assert form(Dyadic(3, 3)) == (3, 3)
    assert form(Dyadic(-8, 2)) == (-2, 0)
    # negative exponents mean multiplication by 2**k
    assert form(Dyadic(3, -2)) == (12, 0)


def test_dyadic_matches_fraction_arithmetic():
    rng = random.Random(20260816)
    for _ in range(500):
        a = Dyadic(rng.randrange(-64, 64), rng.randrange(0, 6))
        b = Dyadic(rng.randrange(-64, 64), rng.randrange(0, 6))
        assert (a + b).as_fraction() == a.as_fraction() + b.as_fraction()
        k = rng.randrange(-4, 5)
        assert (k + a).as_fraction() == k + a.as_fraction()
        assert (a < b) == (a.as_fraction() < b.as_fraction())
        assert (a == b) == (a.as_fraction() == b.as_fraction())


def test_dyadic_is_a_boundary_value():
    # the PL kernel computes in integers: a Dyadic only adds
    x = Dyadic(-5, 2)
    for op in (lambda: x - 1, lambda: 1 - x, lambda: x * x, lambda: 2 * x, lambda: -x):
        with pytest.raises(TypeError):
            op()
    for name in ("ldexp", "half", "floor", "frac", "is_integer"):
        assert not hasattr(x, name)


def test_dyadic_parse_and_json():
    assert Dyadic.parse("3/8") == Dyadic(3, 3)
    assert Dyadic.parse("-2") == Dyadic(-2)
    with pytest.raises(ValueError):
        Dyadic.parse("1/3")
    x = Dyadic(12345678901234567890123, 77)
    assert Dyadic.from_json(x.to_json()) == x
    assert x.to_json()["num"] == "12345678901234567890123"


MALFORMED_DYADICS = {
    "string": "x",
    "list": ["1", "0"],
    "missing-keys": {"a": 1},
    "missing-exponent": {"num": "1"},
    "fraction-string": {"num": "1.5", "den_exp": 0},
    "exponent-string": {"num": "1e3", "den_exp": 0},
    "hex-string": {"num": "0x10", "den_exp": 0},
    "empty-string": {"num": "", "den_exp": 0},
    "float": {"num": 1.5, "den_exp": 0},
    "bool": {"num": "1", "den_exp": True},
    "null": {"num": None, "den_exp": 0},
}

MALFORMED_QUADS = {
    "string": "x",
    "missing-keys": {"a": ["1", "1"]},
    "string-coefficient": {"a": "12", "b": ["0", "1"]},
    "three-entries": {"a": ["1", "2", "3"], "b": ["0", "1"]},
    "zero-denominator": {"a": ["1", "0"], "b": ["0", "1"]},
    "float-entry": {"a": ["1", "1"], "b": [0.5, "1"]},
    "null-entry": {"a": [None, "1"], "b": ["0", "1"]},
}


@pytest.mark.parametrize("data", MALFORMED_DYADICS.values(), ids=MALFORMED_DYADICS)
def test_malformed_dyadic_json_raises_value_error(data):
    with pytest.raises(ValueError, match="a dyadic must be"):
        Dyadic.from_json(data)
    pieces = [{"left": data, "slope_exp": 0, "intercept": {"num": "0", "den_exp": 0}}]
    with pytest.raises(ValueError, match="a dyadic must be"):
        PLMap.from_json({"pieces": pieces})


@pytest.mark.parametrize("data", MALFORMED_QUADS.values(), ids=MALFORMED_QUADS)
def test_malformed_quadext_json_raises_value_error(data):
    with pytest.raises(ValueError, match=r"a \+ b\*sqrt\(2\) must be"):
        QuadExt.from_json(data)
    one, zero = QuadExt(1).to_json(), QuadExt(0).to_json()
    for breaks, maps in (([data], [[one, zero, zero, one]] * 2),
                         ([], [[one, data, zero, one]])):
        with pytest.raises(ValueError, match=r"a \+ b\*sqrt\(2\) must be"):
            PPMap.from_json({"breaks": breaks, "maps": maps})


def test_scalar_json_accepts_integer_numbers():
    assert Dyadic.from_json({"num": 3, "den_exp": "2"}) == Dyadic(3, 2)
    assert QuadExt.from_json({"a": [1, -2], "b": ["0", 5]}) == QuadExt(Fraction(-1, 2))
    assert Dyadic.from_json({"num": " -12 ", "den_exp": "+1"}) == Dyadic(-6)


def test_json_keeps_integers_past_the_str_digit_limit():
    # str(int) and int(str) stop at 4300 digits by default
    big = 10 ** 9999 + 1
    d = Dyadic(big, big.bit_length())
    assert d.to_json()["num"] == "1" + "0" * 9998 + "1"
    assert Dyadic.from_json(json.loads(json.dumps(d.to_json()))) == d
    q = QuadExt(Fraction(big, 3), Fraction(-5, big))
    assert q.to_json()["b"][1] == d.to_json()["num"]
    assert QuadExt.from_json(json.loads(json.dumps(q.to_json()))) == q
    f = PLMap([(0, 0, d)])
    assert PLMap.from_json(json.loads(json.dumps(f.to_json()))) == f
    # the identity left of big/3, t -> 2t - big/3 right of it
    g = PPMap([q.a], [Mobius.identity(), Mobius.affine(2, -q.a)])
    assert PPMap.from_json(json.loads(json.dumps(g.to_json()))) == g


def test_repr_keeps_integers_past_the_str_digit_limit():
    big = 10 ** 9999 + 1
    digits = "1" + "0" * 9998 + "1"
    assert repr(Dyadic(big)) == "Dyadic(%s)" % digits
    assert str(Dyadic(big, 3)) == digits + "/8"
    assert repr(QuadExt(Fraction(big, 3), 1)) == "QuadExt(%s/3 + 1*sqrt2)" % digits
    # a rotation by big / 2**k, whose 2**k also passes the limit
    d = Dyadic(big, big.bit_length())
    assert repr(PLMap([(0, 0, d)])) == "PLMap([0: 2^0 t + %s/%s])" % (digits, Decimal(1 << d.exp))
    g = PPMap([Fraction(big, 3)], [Mobius.identity(), Mobius.affine(2, Fraction(-big, 3))])
    assert repr(g) == (
        "PPMap([-inf: Mobius(QuadExt(1), QuadExt(0), QuadExt(0), QuadExt(1))], "
        "[QuadExt(%s/3): Mobius(QuadExt(1), QuadExt(-%s/6), QuadExt(0), QuadExt(1/2))])"
        % (digits, digits))


def test_dyadic_hash_consistent():
    assert hash(Dyadic(6, 1)) == hash(Dyadic(3, 0))
    s = {Dyadic(1, 1), Dyadic(2, 2)}
    assert len(s) == 1


def test_hash_agrees_with_equal_numbers():
    # equal values must hash equally, or sets and dicts keep duplicates
    assert len({Dyadic(1), 1}) == 1
    assert len({QuadExt(1), 1, Fraction(1)}) == 1
    assert len({QuadExt(Fraction(-3, 4)), Fraction(-3, 4)}) == 1
    rng = random.Random(101)
    for _ in range(500):
        num = rng.choice([rng.randrange(-40, 40), rng.randrange(-(10 ** 30), 10 ** 30)])
        x = Dyadic(num, rng.randrange(0, 130))
        assert hash(x) == hash(x.as_fraction())
        if x.exp == 0:
            assert x == x.num and hash(x) == hash(x.num)
    assert hash(Dyadic(-1)) == hash(-1)


def test_quadext_ring_axioms():
    rng = random.Random(99)

    def rand_q():
        return QuadExt(
            Fraction(rng.randrange(-20, 21), rng.randrange(1, 9)),
            Fraction(rng.randrange(-20, 21), rng.randrange(1, 9)),
        )

    for _ in range(300):
        x, y, z = rand_q(), rand_q(), rand_q()
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        if x != QuadExt(0):
            assert x * x.inverse() == QuadExt(1)


def test_quadext_sign_against_interval_oracle():
    rng = random.Random(7)
    cases = [
        QuadExt(1, -1),       # 1 - sqrt2 < 0
        QuadExt(3, -2),       # 3 - 2 sqrt2 > 0  (since 9 > 8)
        QuadExt(-3, 2),
        QuadExt(0, 0),
        QuadExt(Fraction(7, 5), -1),   # 7/5 < sqrt2
        QuadExt(Fraction(17, 12), -1),  # 17/12 > sqrt2
    ]
    for _ in range(400):
        cases.append(
            QuadExt(
                Fraction(rng.randrange(-30, 31), rng.randrange(1, 12)),
                Fraction(rng.randrange(-30, 31), rng.randrange(1, 12)),
            )
        )
    for x in cases:
        assert x.sign() == oracle_sign(x), repr(x)


def test_quadext_order_total():
    xs = [QuadExt(1, -1), QuadExt(0), QuadExt(Fraction(1, 2)), SQRT2, QuadExt(2, -1)]
    xs_sorted = sorted(xs)
    for u, v in zip(xs_sorted, xs_sorted[1:]):
        assert u <= v
    assert QuadExt(1) < SQRT2 < QuadExt(Fraction(3, 2))


def test_quadext_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        QuadExt(0).inverse()


def test_quadext_json_roundtrip():
    x = QuadExt(Fraction(-3, 7), Fraction(22, 5))
    assert QuadExt.from_json(x.to_json()) == x
    assert x.to_json()["a"] == ["-3", "7"]


def test_dyadic_compares_with_fraction_by_value():
    half, third = Dyadic(1, 1), Fraction(1, 3)
    assert half == Fraction(1, 2) and Fraction(1, 2) == half
    assert half != third and third != half
    assert half < Fraction(2, 3) and Fraction(2, 3) > half
    assert third < half and half > third
    assert Dyadic(-3, 2) <= Fraction(-3, 4) and Fraction(-3, 4) >= Dyadic(-3, 2)
    assert len({half, Fraction(1, 2)}) == 1
    assert len({Dyadic(5), Fraction(5), 5}) == 1


_FRACTIONS = st.fractions(min_value=-20, max_value=20, max_denominator=24)
_DYADICS = st.builds(Dyadic, st.integers(-200, 200), st.integers(0, 6))


@given(_DYADICS, _FRACTIONS)
def test_dyadic_fraction_order_in_both_operand_orders(d, f):
    value = d.as_fraction()
    assert (d == f) == (value == f) == (f == d)
    assert (d < f) == (value < f) == (f > d)
    assert (d <= f) == (value <= f) == (f >= d)
    assert (d > f) == (value > f) == (f < d)
    if d == f:
        assert hash(d) == hash(f)


_QUADS = st.builds(
    QuadExt, _FRACTIONS, st.one_of(st.just(Fraction(0)), _FRACTIONS)
)


@given(_QUADS, _QUADS)
def test_quadext_order_against_interval_oracle(x, y):
    # rational pairs take the direct path, the rest the sign of the difference
    sign = oracle_sign(x - y)
    assert (x < y) == (sign < 0) and (x > y) == (sign > 0)
    assert (x <= y) == (sign <= 0) and (x >= y) == (sign >= 0)
    assert (x == y) == (sign == 0)


def _case_sign(a, b):
    """The sign of a + b sqrt2 by cases on the signs of a and b, as
    QuadExt.sign once computed it."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # opposite signs: |a| versus |b| sqrt2, squared
    lhs = a * a
    rhs = 2 * b * b
    if a > 0:  # b < 0
        return (lhs > rhs) - (lhs < rhs)
    return (rhs > lhs) - (rhs < lhs)


# 3 - 2 sqrt2 ~ 0.17, -7 + 5 sqrt2 ~ 0.071, 17/12 - sqrt2 ~ 0.0025
@pytest.mark.parametrize("a, b", [(3, -2), (-7, 5), (Fraction(17, 12), -1), (0, 0), (0, 1)])
def test_quad_sign_of_near_cancelling_pairs_matches_the_cases(a, b):
    for x, y in ((a, b), (-a, -b), (b, a), (a, -b)):
        assert quad_sign(x, y) == _case_sign(x, y) == QuadExt(x, y).sign()


@given(_FRACTIONS, _FRACTIONS)
def test_quad_sign_matches_the_cases(a, b):
    assert quad_sign(a, b) == _case_sign(a, b) == QuadExt(a, b).sign()


@given(_QUADS, _QUADS)
def test_quadext_order_matches_the_cases(x, y):
    want = _case_sign(x.a - y.a, x.b - y.b)
    assert ((x > y) - (x < y)) == want and (x == y) == (want == 0)


@pytest.mark.parametrize("exp", [400, 401, 1000, 20000])
def test_dyadic_deep_normal_form_matches_fraction(exp):
    # trailing zeros go in one shift, capped at exp
    for num, want in (
        (3 << 300, (3, exp - 300)),
        (-5 << (exp + 7), (-5 << 7, 0)),
        (7 << exp, (7, 0)),
        ((1 << exp) + 1, ((1 << exp) + 1, exp)),
        (0, (0, 0)),
    ):
        d = Dyadic(num, exp)
        assert (d.num, d.exp) == want
        value = Fraction(num, 1 << exp)
        assert d == value and value == d and d.as_fraction() == value
        assert hash(d) == hash(value)
        assert Dyadic.from_fraction(value) == d and Dyadic(*want) == d
    assert Dyadic(3 << 300, exp) == Dyadic(3 << 301, exp + 1)
    assert hash(Dyadic(3 << 300, exp)) == hash(Dyadic(3 << 301, exp + 1))

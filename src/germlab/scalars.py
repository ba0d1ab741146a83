"""Exact scalars: dyadic rationals, the PL kernel's boundary values, and the
quadratic field Q(sqrt 2).

Every comparison in the package bottoms out here, so both types decide order
and equality with integer arithmetic only.  No floats anywhere.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Union

from .kernel import Immutable

# Python hashes a rational p/q as hash(p * q^-1) modulo the Mersenne prime
# 2**N - 1, where 2**N == 1, so dividing by 2**exp is a shift by -exp mod N
_HASH_BITS = sys.hash_info.modulus.bit_length()

IntLike = Union[int, "Dyadic"]


# the strings int() reads in base 10; int() and str() refuse more than
# sys.get_int_max_str_digits() digits, Decimal converts any length exactly
_DECIMAL_INT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _json_int(value, shape: str) -> int:
    """An integer read from JSON, written as a number or a decimal string;
    ValueError naming shape for anything else, booleans and floats included."""
    if type(value) is int:
        return value
    if isinstance(value, str) and _DECIMAL_INT.fullmatch(value):
        return int(Decimal(value))
    raise ValueError(f"{shape}: not an integer: {value!r}")


def _json_str(n: int) -> str:
    """n as a decimal string, of any length."""
    return str(Decimal(n))


def _fraction_str(x: Fraction) -> str:
    """str(x), for numerators and denominators of any length."""
    if x.denominator == 1:
        return _json_str(x.numerator)
    return f"{_json_str(x.numerator)}/{_json_str(x.denominator)}"


def reduced(num: int, exp: int) -> tuple[int, int]:
    """num / 2**exp for exp >= 0 in lowest terms: (0, 0), exp == 0 or num odd."""
    if not num:
        return 0, 0
    # the trailing zero bits of num, at most exp of them, go in one shift
    k = (num & -num).bit_length() - 1
    if k > exp:
        k = exp
    return num >> k, exp - k


class Dyadic(Immutable):
    """A dyadic rational num / 2**exp in canonical form.

    Canonical means exp == 0, or num is odd.  Dyadics are the boundary
    values of the PL kernel, which computes in integers: they are built,
    parsed, compared, hashed, added, printed and read from JSON, and
    as_fraction gives the value to Fraction arithmetic.  Equality, order
    and hash agree with int and Fraction by value.
    """

    __slots__ = ("num", "exp")

    def __init__(self, num: int = 0, exp: int = 0):
        if exp < 0:
            # n / 2**(-k) is the integer n * 2**k
            num <<= -exp
            exp = 0
        elif exp and not num & 1:
            num, exp = reduced(num, exp)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "exp", exp)

    # -- constructors -------------------------------------------------

    @staticmethod
    def coerce(value: IntLike) -> "Dyadic":
        if isinstance(value, Dyadic):
            return value
        if isinstance(value, int):
            return Dyadic(value, 0)
        if isinstance(value, Fraction):
            return Dyadic.from_fraction(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to Dyadic")

    @staticmethod
    def from_fraction(fr: Fraction) -> "Dyadic":
        q = fr.denominator
        exp = q.bit_length() - 1
        if q != (1 << exp):
            raise ValueError(f"{fr} is not dyadic")
        return Dyadic(fr.numerator, exp)

    @staticmethod
    def parse(text: str) -> "Dyadic":
        """Parse '3/8', '-1/2' or a plain integer string."""
        text = text.strip()
        if "/" in text:
            p, q = text.split("/")
            if not int(q):
                raise ValueError(f"{text!r} has a zero denominator")
            return Dyadic.from_fraction(Fraction(int(p), int(q)))
        return Dyadic(int(text))

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: IntLike) -> "Dyadic":
        o = Dyadic.coerce(other)
        e = max(self.exp, o.exp)
        return Dyadic((self.num << (e - self.exp)) + (o.num << (e - o.exp)), e)

    __radd__ = __add__

    # -- order ---------------------------------------------------------

    def _cmp(self, other: Union[IntLike, Fraction]) -> int:
        if type(other) is Dyadic:
            lhs = self.num << other.exp
            rhs = other.num << self.exp
        elif isinstance(other, Fraction):
            # any rational, dyadic or not: cross-multiply
            lhs = self.num * other.denominator
            rhs = other.numerator << self.exp
        else:
            o = Dyadic.coerce(other)
            lhs = self.num << o.exp
            rhs = o.num << self.exp
        return (lhs > rhs) - (lhs < rhs)

    def __eq__(self, other) -> bool:
        if type(other) is Dyadic:
            # both are in canonical form
            return self.num == other.num and self.exp == other.exp
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self._cmp(other) == 0

    def __lt__(self, other: IntLike) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: IntLike) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: IntLike) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: IntLike) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self):
        """Equal to hash(int) and hash(Fraction) of the same value."""
        return hash(self.num << (-self.exp % _HASH_BITS))

    # -- misc ------------------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp)

    def __repr__(self):
        if self.exp == 0:
            return f"Dyadic({_json_str(self.num)})"
        return f"Dyadic({_json_str(self.num)}/2^{self.exp})"

    def __str__(self):
        if self.exp == 0:
            return _json_str(self.num)
        return f"{_json_str(self.num)}/{_json_str(1 << self.exp)}"

    def to_json(self) -> dict:
        # numerators are serialized as decimal strings so arbitrarily deep
        # subdivisions survive a round-trip through JSON readers that only
        # have 53-bit numbers
        return {"num": _json_str(self.num), "den_exp": self.exp}

    @staticmethod
    def from_json(obj: dict) -> "Dyadic":
        shape = 'a dyadic must be {"num": n, "den_exp": e}'
        if not isinstance(obj, dict) or not {"num", "den_exp"} <= obj.keys():
            raise ValueError(f"{shape}, not {obj!r}")
        return Dyadic(_json_int(obj["num"], shape), _json_int(obj["den_exp"], shape))


ZERO = Dyadic(0)


def quad_sign(a, b) -> int:
    """The sign of a + b sqrt2 for rational a, b: that of the larger term in
    absolute value, found by comparing a^2 with 2 b^2, which differ unless
    a = b = 0."""
    if not b:
        return (a > 0) - (a < 0)
    if a * a > 2 * b * b:
        return 1 if a > 0 else -1
    return 1 if b > 0 else -1


QuadLike = Union[int, Fraction, "QuadExt"]


class QuadExt(Immutable):
    """An element a + b*sqrt(2) of Q(sqrt 2) with a, b rational.

    The sign of a + b*sqrt(2) is decided by comparing a**2 with 2*b**2,
    so ordering never touches floating point.
    """

    __slots__ = ("a", "b")

    def __init__(self, a: QuadLike = 0, b=0):
        if isinstance(a, QuadExt):
            if b != 0:
                raise TypeError("cannot add a rational b to a QuadExt seed")
            a, b = a.a, a.b
        # Fractions are immutable, so an exact Fraction is kept, not copied
        object.__setattr__(self, "a", a if type(a) is Fraction else Fraction(a))
        object.__setattr__(self, "b", b if type(b) is Fraction else Fraction(b))

    @staticmethod
    def coerce(value: QuadLike) -> "QuadExt":
        if isinstance(value, QuadExt):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadExt(value, 0)
        raise TypeError(f"cannot coerce {type(value).__name__} to QuadExt")

    # -- ring operations ------------------------------------------------

    def __add__(self, other: QuadLike) -> "QuadExt":
        o = QuadExt.coerce(other)
        return QuadExt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: QuadLike) -> "QuadExt":
        o = QuadExt.coerce(other)
        return QuadExt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: QuadLike) -> "QuadExt":
        return QuadExt.coerce(other) - self

    def __mul__(self, other: QuadLike) -> "QuadExt":
        o = QuadExt.coerce(other)
        return QuadExt(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __neg__(self) -> "QuadExt":
        return QuadExt(-self.a, -self.b)

    def inverse(self) -> "QuadExt":
        # 1/(a + b sqrt2) = (a - b sqrt2) / (a^2 - 2 b^2); the norm vanishes
        # only at zero because sqrt(2) is irrational
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inversion of zero in Q(sqrt 2)")
        return QuadExt(self.a / norm, -self.b / norm)

    def __truediv__(self, other: QuadLike) -> "QuadExt":
        return self * QuadExt.coerce(other).inverse()

    def __rtruediv__(self, other: QuadLike) -> "QuadExt":
        return QuadExt.coerce(other) * self.inverse()

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        return quad_sign(self.a, self.b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (QuadExt, int, Fraction)):
            return NotImplemented
        o = QuadExt.coerce(other)
        return self.a == o.a and self.b == o.b

    def _cmp(self, other: QuadLike) -> int:
        o = QuadExt.coerce(other)
        if self.b or o.b:
            return quad_sign(self.a - o.a, self.b - o.b)
        a, c = self.a, o.a
        return (a > c) - (a < c)

    def __lt__(self, other: QuadLike) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: QuadLike) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: QuadLike) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: QuadLike) -> bool:
        return self._cmp(other) >= 0

    def __hash__(self):
        # a rational value equals its Fraction, so it must hash like one
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __repr__(self):
        if self.b == 0:
            return f"QuadExt({_fraction_str(self.a)})"
        return f"QuadExt({_fraction_str(self.a)} + {_fraction_str(self.b)}*sqrt2)"

    def to_json(self) -> dict:
        return {
            "a": [_json_str(self.a.numerator), _json_str(self.a.denominator)],
            "b": [_json_str(self.b.numerator), _json_str(self.b.denominator)],
        }

    @staticmethod
    def from_json(obj: dict) -> "QuadExt":
        shape = 'a + b*sqrt(2) must be {"a": [num, den], "b": [num, den]}'
        if not isinstance(obj, dict) or not all(
                isinstance(obj.get(key), (list, tuple)) and len(obj[key]) == 2 for key in "ab"):
            raise ValueError(f"{shape}, not {obj!r}")
        (an, ad), (bn, bd) = ([_json_int(x, shape) for x in obj[key]] for key in "ab")
        if not ad or not bd:
            raise ValueError(f"{shape} with nonzero denominators, not {obj!r}")
        return QuadExt(Fraction(an, ad), Fraction(bn, bd))


SQRT2 = QuadExt(0, 1)

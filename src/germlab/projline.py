"""Piecewise-projective homeomorphisms of the real projective line.

Elements are finitely many fractional-linear pieces with positive
determinant, glued continuously along exact breakpoints in Q(sqrt 2).
Both unbounded pieces are required to be affine, so every map here fixes
the point at infinity; that covers all words in the three standard
generators a, b, c below.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Union

from .chabauty import BudgetError, element_budget
from .kernel import GroupElement
from .scalars import QuadExt

Scalar = Union[QuadExt, Fraction, int]


class _Infinity:
    """The projective point at infinity (a singleton)."""

    __slots__ = ()

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("projective-infinity")


INF = _Infinity()

_ZERO = QuadExt.coerce(0)
_ONE = QuadExt.coerce(1)


class Mobius:
    """A fractional-linear map t -> (p t + q) / (r t + s) with ps - qr > 0.

    Entries live in Q(sqrt 2) and are rescaled so the first nonzero entry
    of (p, q, r, s) is 1, which makes equality structural.
    """

    __slots__ = ("p", "q", "r", "s")

    def __init__(self, p: Scalar, q: Scalar, r: Scalar, s: Scalar):
        entries = [QuadExt.coerce(v) for v in (p, q, r, s)]
        pivot = next((e for e in entries if e != _ZERO), None)
        if pivot is None:
            raise ValueError("zero matrix")
        entries = [e / pivot for e in entries]
        p, q, r, s = entries
        if (p * s - q * r).sign() <= 0:
            raise ValueError("determinant must be positive")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    def __setattr__(self, name, value):
        raise AttributeError("Mobius is immutable")

    @staticmethod
    def identity() -> "Mobius":
        return Mobius(1, 0, 0, 1)

    @staticmethod
    def affine(slope: Scalar, shift: Scalar) -> "Mobius":
        return Mobius(slope, shift, 0, 1)

    def is_affine(self) -> bool:
        return self.r == _ZERO

    def pole(self) -> Optional[QuadExt]:
        """The finite point sent to infinity, if any."""
        if self.r == _ZERO:
            return None
        return -self.s / self.r

    def __call__(self, x):
        if isinstance(x, _Infinity):
            if self.r == _ZERO:
                return INF
            return self.p / self.r
        x = QuadExt.coerce(x)
        den = self.r * x + self.s
        if den == _ZERO:
            return INF
        return (self.p * x + self.q) / den

    def __mul__(self, other: "Mobius") -> "Mobius":
        if not isinstance(other, Mobius):
            return NotImplemented
        return Mobius(
            self.p * other.p + self.q * other.r,
            self.p * other.q + self.q * other.s,
            self.r * other.p + self.s * other.r,
            self.r * other.q + self.s * other.s,
        )

    def inverse(self) -> "Mobius":
        return Mobius(self.s, -self.q, -self.r, self.p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mobius):
            return NotImplemented
        return (
            self.p == other.p
            and self.q == other.q
            and self.r == other.r
            and self.s == other.s
        )

    def __hash__(self):
        return hash((self.p.key(), self.q.key(), self.r.key(), self.s.key()))

    def __repr__(self):
        return f"Mobius({self.p}, {self.q}, {self.r}, {self.s})"


class PPMap(GroupElement):
    """An increasing piecewise fractional-linear bijection of R u {inf}.

    breaks is a strictly increasing tuple of finite breakpoints and maps
    has one more entry: maps[i] acts on [breaks[i-1], breaks[i]] with the
    unbounded cells at both ends.  Adjacent pieces agree at the shared
    breakpoint, no piece has a pole on its cell, and the two outer pieces
    are affine, so infinity is fixed.
    """

    __slots__ = ("breaks", "maps")

    def __init__(self, breaks: Iterable[Scalar], maps: Iterable[Mobius]):
        bs = [QuadExt.coerce(x) for x in breaks]
        ms = list(maps)
        if len(ms) != len(bs) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        i = 0
        while i + 1 < len(ms):
            if ms[i] == ms[i + 1]:
                del ms[i + 1]
                del bs[i]
            else:
                i += 1
        for i in range(len(bs) - 1):
            if not bs[i] < bs[i + 1]:
                raise ValueError("breakpoints must increase strictly")
        if not ms[0].is_affine() or not ms[-1].is_affine():
            raise ValueError("unbounded pieces must fix infinity")
        for i, m in enumerate(ms):
            lo = bs[i - 1] if i > 0 else None
            hi = bs[i] if i < len(bs) else None
            pole = m.pole()
            if pole is not None:
                if (lo is None or lo <= pole) and (hi is None or pole <= hi):
                    raise ValueError("piece has a pole on its cell")
        for i, x in enumerate(bs):
            if ms[i](x) != ms[i + 1](x):
                raise ValueError(f"discontinuous at {x}")
        object.__setattr__(self, "breaks", tuple(bs))
        object.__setattr__(self, "maps", tuple(ms))

    def __setattr__(self, name, value):
        raise AttributeError("PPMap is immutable")

    @staticmethod
    def identity() -> "PPMap":
        return PPMap([], [Mobius.identity()])

    def piece_at(self, x: QuadExt) -> Mobius:
        lo, hi = 0, len(self.breaks)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.breaks[mid] < x:
                lo = mid + 1
            else:
                hi = mid
        return self.maps[lo]

    def __call__(self, x):
        if isinstance(x, _Infinity):
            return INF
        x = QuadExt.coerce(x)
        return self.piece_at(x)(x)

    def preimage_point(self, y: Scalar) -> QuadExt:
        """The unique x with self(x) = y, found piece by piece."""
        y = QuadExt.coerce(y)
        for i, m in enumerate(self.maps):
            x = m.inverse()(y)
            if isinstance(x, _Infinity):
                continue
            lo = self.breaks[i - 1] if i > 0 else None
            hi = self.breaks[i] if i < len(self.breaks) else None
            if (lo is None or lo <= x) and (hi is None or x <= hi):
                return x
        raise AssertionError("increasing bijection must attain every value")

    def _sample(self, i: int, cuts: list[QuadExt]) -> QuadExt:
        """An interior point of the i-th cell of the given cut list."""
        if not cuts:
            return _ZERO
        if i == 0:
            return cuts[0] - _ONE
        if i == len(cuts):
            return cuts[-1] + _ONE
        return (cuts[i - 1] + cuts[i]) / 2

    def __mul__(self, other: "PPMap") -> "PPMap":
        """Composition self o other (apply other first)."""
        if not isinstance(other, PPMap):
            return NotImplemented
        cut_set = set(other.breaks)
        for y in self.breaks:
            cut_set.add(other.preimage_point(y))
        cuts = sorted(cut_set)
        maps = []
        for i in range(len(cuts) + 1):
            x = self._sample(i, cuts)
            maps.append(self.piece_at(other(x)) * other.piece_at(x))
        return PPMap(cuts, maps)

    def inverse(self) -> "PPMap":
        return PPMap(
            [self(x) for x in self.breaks], [m.inverse() for m in self.maps]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PPMap):
            return NotImplemented
        return self.breaks == other.breaks and self.maps == other.maps

    def __hash__(self):
        return hash((self.breaks, self.maps))

    def canonical_key(self) -> tuple:
        return (
            tuple(b.key() for b in self.breaks),
            tuple((m.p.key(), m.q.key(), m.r.key(), m.s.key()) for m in self.maps),
        )

    def is_identity(self) -> bool:
        return not self.breaks and self.maps[0] == Mobius.identity()

    def __repr__(self):
        bits = []
        for i, m in enumerate(self.maps):
            lo = self.breaks[i - 1] if i > 0 else "-inf"
            bits.append(f"[{lo}: {m}]")
        return "PPMap(" + ", ".join(bits) + ")"

    def to_json(self) -> dict:
        return {
            "breaks": [b.to_json() for b in self.breaks],
            "maps": [
                [m.p.to_json(), m.q.to_json(), m.r.to_json(), m.s.to_json()]
                for m in self.maps
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "PPMap":
        breaks = [QuadExt.from_json(b) for b in data["breaks"]]
        maps = [
            Mobius(*(QuadExt.from_json(e) for e in entry)) for entry in data["maps"]
        ]
        return PPMap(breaks, maps)


def lodha_moore_gens() -> tuple[PPMap, PPMap, PPMap]:
    """The three standard piecewise-projective generators a, b, c.

    a is the unit translation; b is supported on [0, inf) with the two
    projective pieces t/(1-t) and 3 - 1/t between 0 and 1; c is supported
    on [0, 1] where it acts as 2t/(1+t).
    """
    a = PPMap([], [Mobius.affine(1, 1)])
    b = PPMap(
        [0, Fraction(1, 2), 1],
        [
            Mobius.identity(),
            Mobius(1, 0, -1, 1),
            Mobius(3, -1, 1, 0),
            Mobius.affine(1, 1),
        ],
    )
    c = PPMap(
        [0, 1],
        [Mobius.identity(), Mobius(2, 0, 1, 1), Mobius.identity()],
    )
    return a, b, c


LM_A, LM_B, LM_C = lodha_moore_gens()


def image_interval(
    g: PPMap, interval: tuple[Scalar, Scalar]
) -> tuple[QuadExt, QuadExt]:
    """Exact image of a closed bounded interval under an increasing map."""
    lo, hi = (QuadExt.coerce(v) for v in interval)
    if hi < lo:
        raise ValueError("empty interval")
    return g(lo), g(hi)


def interval_inside(
    inner: tuple[QuadExt, QuadExt], outer: tuple[Scalar, Scalar]
) -> bool:
    lo, hi = (QuadExt.coerce(v) for v in outer)
    return lo <= inner[0] and inner[1] <= hi


def bn_image(n: int) -> tuple[QuadExt, QuadExt]:
    """The exact interval b^n([0, 1]).

    b fixes 0 and translates [1, inf) by one, so b(1) = 2 and the image
    works out to [0, n + 1]; the function computes it from scratch rather
    than trusting that law.
    """
    if n < 1:
        raise ValueError("n must be positive")
    g = LM_B ** n
    return image_interval(g, (0, 1))


_LETTERS = (
    ("a", LM_A),
    ("b", LM_B),
    ("c", LM_C),
    ("A", LM_A.inverse()),
    ("B", LM_B.inverse()),
    ("C", LM_C.inverse()),
)


def interval_compression_witness(
    i1: tuple[Scalar, Scalar],
    i2: tuple[Scalar, Scalar],
    max_len: int,
) -> Optional[str]:
    """Shortest word w in a, b, c (capitals for inverses) with w(I1) inside I2.

    Breadth-first over the canonical group elements, so words that merely
    respell an already-seen element are skipped.  Returns None when no
    word of length at most max_len works; the empty word is returned when
    I1 already sits inside I2.  Raises BudgetError once the search has seen
    more elements than GERMLAB_BUDGET allows.
    """
    i1 = tuple(QuadExt.coerce(v) for v in i1)
    i2 = tuple(QuadExt.coerce(v) for v in i2)
    ident = PPMap.identity()
    if interval_inside(image_interval(ident, i1), i2):
        return ""
    limit = element_budget()
    seen = {ident.canonical_key()}
    frontier = [("", ident)]
    for _ in range(max_len):
        nxt = []
        for word, elem in frontier:
            for letter, gen in _LETTERS:
                cand = elem * gen
                key = cand.canonical_key()
                if key in seen:
                    continue
                if len(seen) >= limit:
                    raise BudgetError("search exceeds the %d-element budget" % limit)
                seen.add(key)
                if interval_inside(image_interval(cand, i1), i2):
                    return word + letter
                nxt.append((word + letter, cand))
        frontier = nxt
    return None

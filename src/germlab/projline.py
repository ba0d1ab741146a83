"""Piecewise-projective homeomorphisms of the real projective line.

Elements are finitely many fractional-linear pieces with positive
determinant, glued continuously along exact breakpoints in Q(sqrt 2).
Both unbounded pieces are required to be affine, so every map here fixes
the point at infinity; that covers all words in the three standard
generators a, b, c below.

Everything inside is integers over Z[sqrt 2].  Each piece is a Mobius
matrix held as eight integers in projective normal form, so compose and
inverse never divide.  Each break is a primitive triple (x0, x1, d), the
point (x0 + x1 sqrt2) / d with d > 0, so equal points have equal triples;
a matrix sends a triple to a triple with one gcd (``_apply``), and two
points are ordered by the sign of an element of Z[sqrt 2]
(``scalars.quad_sign``).
Products, inverses, equality and hashing build no Fraction and no QuadExt.

QuadExt is only the public view: the constructor takes QuadExt, Fraction
or int values, and ``breaks``, evaluation, .p/.q/.r/.s, repr and to_json
give QuadExt values back.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Union

from .chabauty import MarkedGroup, walk
from .kernel import GroupElement, Immutable
from .scalars import QuadExt, quad_sign

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


def _normal(v) -> "Mobius":
    """The Mobius map of a nonzero 8-vector over Z, in normal form.

    A pivot (the first nonzero entry) with a sqrt(2) part is made rational
    by multiplying every entry by its conjugate; then the content is
    divided out and the sign fixed so that the pivot is positive.
    """
    i = 0
    while not (v[i] or v[i + 1]):
        i += 2
        if i == 8:
            raise ValueError("zero matrix")
    if v[i + 1]:
        c0, c1 = v[i], -v[i + 1]
        v = [
            x
            for j in (0, 2, 4, 6)
            for x in (v[j] * c0 + 2 * v[j + 1] * c1, v[j] * c1 + v[j + 1] * c0)
        ]
    g = gcd(*v)
    if v[i] < 0:
        g = -g
    return _mobius(tuple(v) if g == 1 else tuple([x // g for x in v]))


_IDENTITY_V = (1, 0, 0, 0, 0, 0, 1, 0)


def _mobius(v: tuple) -> "Mobius":
    m = object.__new__(Mobius)
    object.__setattr__(m, "v", v)
    return m


def _cmp(x: tuple, y: tuple) -> int:
    """The order of two points (x0 + x1 sqrt2) / d with d > 0."""
    x0, x1, d = x
    y0, y1, e = y
    return quad_sign(x0 * e - y0 * d, x1 * e - y1 * d)


def _apply(v: tuple, x: Optional[tuple]) -> Optional[tuple]:
    """The image of the point x under the matrix v.

    Points are primitive triples (x0, x1, d) for (x0 + x1 sqrt2) / d with
    d > 0, and None for infinity.  The quotient n / m is n conj(m) / N(m);
    the norm N(m) = m0^2 - 2 m1^2 vanishes only at m = 0, as sqrt(2) is
    irrational.
    """
    p0, p1, q0, q1, r0, r1, s0, s1 = v
    if x is None:
        n0, n1, m0, m1 = p0, p1, r0, r1
    else:
        x0, x1, d = x
        n0 = p0 * x0 + 2 * p1 * x1 + q0 * d
        n1 = p0 * x1 + p1 * x0 + q1 * d
        m0 = r0 * x0 + 2 * r1 * x1 + s0 * d
        m1 = r0 * x1 + r1 * x0 + s1 * d
    if m1:
        n0, n1, m0 = n0 * m0 - 2 * n1 * m1, n1 * m0 - n0 * m1, m0 * m0 - 2 * m1 * m1
    if not m0:
        return None
    if m0 < 0:
        n0, n1, m0 = -n0, -n1, -m0
    g = gcd(n0, n1, m0)
    return n0 // g, n1 // g, m0 // g


def _adjugate(v: tuple) -> tuple:
    """(s, -q, -r, p): the inverse map, with the same determinant."""
    p0, p1, q0, q1, r0, r1, s0, s1 = v
    return s0, s1, -q0, -q1, -r0, -r1, p0, p1


def _triple(x: Scalar) -> tuple:
    """The primitive triple of a finite point; lcm leaves no common factor,
    as both parts are in lowest terms."""
    x = QuadExt.coerce(x)
    a, b = x.a, x.b
    d = lcm(a.denominator, b.denominator)
    return a.numerator * (d // a.denominator), b.numerator * (d // b.denominator), d


def _quad(t: Optional[tuple]):
    """The public value of a point: a QuadExt, or INF for None."""
    if t is None:
        return INF
    x0, x1, d = t
    return QuadExt(Fraction(x0, d), Fraction(x1, d))


class Mobius(Immutable):
    """A fractional-linear map t -> (p t + q) / (r t + s) with ps - qr > 0.

    The matrix is stored as the integer tuple
    v = (p0, p1, q0, q1, r0, r1, s0, s1), entry e = e0 + e1*sqrt(2), in
    projective normal form over Z[sqrt 2]: the pivot (the first nonzero
    entry) is a positive integer and the eight integers are coprime.
    Proportional matrices share one normal form, so equality and hashing
    compare v.

    The boundary is that of the pivot-normalized matrix: the constructor
    takes QuadExt, Fraction or int entries, and .p/.q/.r/.s are the
    entries divided by the pivot, as QuadExt, built on each read.
    """

    __slots__ = ("v",)

    def __init__(self, p: Scalar, q: Scalar, r: Scalar, s: Scalar):
        parts = []
        for e in (p, q, r, s):
            e = QuadExt.coerce(e)
            parts += (e.a, e.b)
        den = lcm(*(x.denominator for x in parts))
        m = _normal([x.numerator * (den // x.denominator) for x in parts])
        p0, p1, q0, q1, r0, r1, s0, s1 = m.v
        if quad_sign(p0 * s0 + 2 * p1 * s1 - q0 * r0 - 2 * q1 * r1,
                     p0 * s1 + p1 * s0 - q0 * r1 - q1 * r0) <= 0:
            raise ValueError("determinant must be positive")
        object.__setattr__(self, "v", m.v)

    def _quads(self) -> tuple[QuadExt, QuadExt, QuadExt, QuadExt]:
        """(p, q, r, s) divided by the pivot."""
        v = self.v
        # the pivot is the first nonzero even slot: its sqrt(2) part is 0
        pivot = next(x for x in v[::2] if x)
        return tuple(QuadExt(Fraction(v[i], pivot), Fraction(v[i + 1], pivot))
                     for i in (0, 2, 4, 6))

    p = property(lambda self: self._quads()[0])
    q = property(lambda self: self._quads()[1])
    r = property(lambda self: self._quads()[2])
    s = property(lambda self: self._quads()[3])

    @staticmethod
    def identity() -> "Mobius":
        return _mobius(_IDENTITY_V)

    @staticmethod
    def affine(slope: Scalar, shift: Scalar) -> "Mobius":
        return Mobius(slope, shift, 0, 1)

    def is_affine(self) -> bool:
        return not (self.v[4] or self.v[5])

    def __call__(self, x):
        """(p x + q) / (r x + s), INF where r x + s = 0."""
        return _quad(_apply(self.v, None if isinstance(x, _Infinity) else _triple(x)))

    def __mul__(self, other: "Mobius") -> "Mobius":
        if not isinstance(other, Mobius):
            return NotImplemented
        x, y = self.v, other.v
        # an identity factor leaves the other, already in normal form
        if x == _IDENTITY_V:
            return other
        if y == _IDENTITY_V:
            return self
        p0, p1, q0, q1, r0, r1, s0, s1 = x
        a0, a1, b0, b1, c0, c1, d0, d1 = y
        return _normal((
            p0 * a0 + 2 * p1 * a1 + q0 * c0 + 2 * q1 * c1, p0 * a1 + p1 * a0 + q0 * c1 + q1 * c0,
            p0 * b0 + 2 * p1 * b1 + q0 * d0 + 2 * q1 * d1, p0 * b1 + p1 * b0 + q0 * d1 + q1 * d0,
            r0 * a0 + 2 * r1 * a1 + s0 * c0 + 2 * s1 * c1, r0 * a1 + r1 * a0 + s0 * c1 + s1 * c0,
            r0 * b0 + 2 * r1 * b1 + s0 * d0 + 2 * s1 * d1, r0 * b1 + r1 * b0 + s0 * d1 + s1 * d0,
        ))

    def inverse(self) -> "Mobius":
        return _normal(_adjugate(self.v))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mobius):
            return NotImplemented
        return self.v == other.v

    def __hash__(self):
        return hash(self.v)

    def __repr__(self):
        return "Mobius(%s, %s, %s, %s)" % self._quads()


class PPMap(GroupElement):
    """An increasing piecewise fractional-linear bijection of R u {inf}.

    breaks is a strictly increasing tuple of finite breakpoints and maps
    has one more entry: maps[i] acts on [breaks[i-1], breaks[i]] with the
    unbounded cells at both ends.  Adjacent pieces agree at the shared
    breakpoint, no piece has a pole on its cell, and the two outer pieces
    are affine, so infinity is fixed.
    ``__init__`` and ``from_json`` check all this; products and inverses,
    increasing and continuous by construction, only merge equal neighbours.
    The breaks are stored as primitive triples; ``breaks`` is their QuadExt
    view, built on each read.
    """

    __slots__ = ("_breaks", "maps")

    def __init__(self, breaks: Iterable[Scalar], maps: Iterable[Mobius]):
        bs = [_triple(x) for x in breaks]
        ms = list(maps)
        if len(ms) != len(bs) + 1:
            raise ValueError("need exactly one more piece than breakpoints")
        # the checks read the merged pieces
        self._set(bs, ms)
        bs, ms = self._breaks, self.maps
        for i in range(len(bs) - 1):
            if _cmp(bs[i], bs[i + 1]) >= 0:
                raise ValueError("breakpoints must increase strictly")
        if not ms[0].is_affine() or not ms[-1].is_affine():
            raise ValueError("unbounded pieces must fix infinity")
        for i, m in enumerate(ms):
            pole = _apply(_adjugate(m.v), None)
            if pole is not None:
                lo = bs[i - 1] if i > 0 else None
                hi = bs[i] if i < len(bs) else None
                if (lo is None or _cmp(lo, pole) <= 0) and (hi is None or _cmp(pole, hi) <= 0):
                    raise ValueError("piece has a pole on its cell")
        for i, x in enumerate(bs):
            if _apply(ms[i].v, x) != _apply(ms[i + 1].v, x):
                raise ValueError(f"discontinuous at {_quad(x)}")

    def _set(self, bs: list, ms: list) -> "PPMap":
        """Store the pieces, equal neighbours merged, without __init__'s checks."""
        keep = [i for i in range(len(bs)) if ms[i] != ms[i + 1]]
        object.__setattr__(self, "_breaks", tuple([bs[i] for i in keep]))
        object.__setattr__(self, "maps", tuple([ms[i] for i in keep] + ms[-1:]))
        return self

    @property
    def breaks(self) -> tuple[QuadExt, ...]:
        return tuple([_quad(t) for t in self._breaks])

    @staticmethod
    def identity() -> "PPMap":
        return PPMap([], [Mobius.identity()])

    def _cell(self, x: tuple) -> int:
        """The index of the piece acting at the point x: the first cell
        whose right end is not below x."""
        bs = self._breaks
        lo, hi = 0, len(bs)
        while lo < hi:
            mid = (lo + hi) // 2
            if _cmp(bs[mid], x) < 0:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def __call__(self, x):
        if isinstance(x, _Infinity):
            return INF
        t = _triple(x)
        return _quad(_apply(self.maps[self._cell(t)].v, t))

    def __mul__(self, other: "PPMap") -> "PPMap":
        """Composition self o other (apply other first).

        The cuts are other's breaks and the preimages of self's breaks.
        Both lists are increasing, and so are the images of other's
        breaks, so one merge in image order yields the cuts in order and,
        for every cell, the piece of each factor that acts on it.
        """
        if not isinstance(other, PPMap):
            return NotImplemented
        obreaks, omaps = other._breaks, other.maps
        sbreaks, smaps = self._breaks, self.maps
        images = [_apply(m.v, x) for m, x in zip(omaps, obreaks)]
        cuts, maps = [], []
        j = k = 0
        while j < len(obreaks) or k < len(sbreaks):
            maps.append(smaps[k] * omaps[j])
            if k == len(sbreaks):
                order = -1
            elif j == len(obreaks):
                order = 1
            else:
                order = _cmp(images[j], sbreaks[k])
            if order <= 0:
                cuts.append(obreaks[j])
                j += 1
            else:
                # sbreaks[k] lies inside the image of other's j-th cell
                cuts.append(_apply(_adjugate(omaps[j].v), sbreaks[k]))
            if order >= 0:
                k += 1
        maps.append(smaps[k] * omaps[j])
        return object.__new__(PPMap)._set(cuts, maps)

    def inverse(self) -> "PPMap":
        """Increasing breaks have increasing images, the inverse's breaks."""
        return object.__new__(PPMap)._set(
            [_apply(m.v, x) for m, x in zip(self.maps, self._breaks)],
            [m.inverse() for m in self.maps],
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, PPMap):
            return NotImplemented
        return self._breaks == other._breaks and self.maps == other.maps

    def __hash__(self):
        return hash((self._breaks, self.maps))

    def is_identity(self) -> bool:
        return not self._breaks and self.maps[0].v == _IDENTITY_V

    def __repr__(self):
        lows = ("-inf",) + self.breaks
        return "PPMap(" + ", ".join(f"[{lo}: {m}]" for lo, m in zip(lows, self.maps)) + ")"

    def to_json(self) -> dict:
        return {
            "breaks": [b.to_json() for b in self.breaks],
            "maps": [[x.to_json() for x in m._quads()] for m in self.maps],
        }

    @staticmethod
    def from_json(data: dict) -> "PPMap":
        if not all(isinstance(data[key], (list, tuple)) for key in ("breaks", "maps")):
            raise ValueError("breaks and maps must be lists")
        if not all(isinstance(entry, (list, tuple)) and len(entry) == 4 for entry in data["maps"]):
            raise ValueError("each map must be a [p, q, r, s] list of four scalars")
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
LM_GROUP = MarkedGroup({"a": LM_A, "b": LM_B, "c": LM_C})


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


def interval_compression_witness(
    i1: tuple[Scalar, Scalar],
    i2: tuple[Scalar, Scalar],
    max_len: int,
) -> Optional[str]:
    """Shortest word w in a, b, c (capitals for inverses) with w(I1) inside I2.

    The first word of the ball walk over LM_GROUP, letters in the order
    a b c A B C, that works, so words that merely respell an already-seen
    element are skipped.  Returns None when no word of length at most
    max_len works; the empty word is returned when I1 already sits inside
    I2.  Raises ValueError for a negative max_len or a reversed interval,
    and BudgetError once the walk would pass GERMLAB_BUDGET.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    i1 = tuple(QuadExt.coerce(v) for v in i1)
    i2 = tuple(QuadExt.coerce(v) for v in i2)
    if i2[1] < i2[0]:
        raise ValueError("empty interval")
    for element, word in walk(LM_GROUP, max_len, "abcABC"):
        if interval_inside(image_interval(element, i1), i2):
            return word
    return None

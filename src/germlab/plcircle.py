"""Piecewise-linear circle homeomorphisms with dyadic breakpoints and 2-power slopes.

The circle is R/Z with fundamental domain [0, 1).  Every object here is
integers over one power of two, the least that makes them all integers, so
equal objects have equal integers.  A map is stored through its canonical
lift F : [0, 1] -> [F(0), F(0) + 1], an increasing piecewise-affine
bijection with F(0) in [0, 1): the break points 0 = x_0 < ... < x_{m-1} < 1,
their images y_i = F(x_i) and the slope exponents s_i, with
F(t) = y_i + 2**s_i (t - x_i) on [x_i, x_{i+1}] and neighbouring pieces of
different slopes.  A closed arc set is its maximal arcs (``ArcSet``).

Every product and conjugate is one merge of two increasing piece lists
over one exponent (``_merge``), and inversion swaps the two coordinates.
The constructions (expanding conjugators, rigid stabilizers and the
compressor) build their break lists from greedy standard subdivisions in
integers (``_chain``).

Dyadics stay at the boundary.  A map reads and writes pieces (left,
slope_exp, intercept), F(t) = 2**slope_exp * t + intercept: the
constructor, ``pieces``, ``repr`` and ``to_json``/``from_json`` are those
of that form.  An arc set reads and prints (lo, hi) pairs.

Maps fixing the point 0 with this slope/breakpoint discipline form the group
usually written F; arbitrary such circle maps form T.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Sequence

from .chabauty import MarkedGroup
from .kernel import GroupElement, Immutable
from .scalars import Dyadic, ZERO, reduced

Piece = tuple[Dyadic, int, Dyadic]


def _shift(n: int, k: int) -> int:
    """n * 2**k for an n that 2**-k divides when k < 0."""
    return n << k if k >= 0 else n >> -k


def _piece_key(x: int, y: int, s: int, e: int) -> tuple:
    """((left.num, left.exp), s, (intercept.num, intercept.exp)) of the piece
    of slope 2**s through (x, y) over 2**e; the intercept y - 2**s x needs
    2**-s more when s < 0."""
    a = max(0, -s)
    return reduced(x, e), s, reduced((y << a) - (x << (s + a)), e + a)


def _ints(*values: Dyadic) -> tuple[int, list[int]]:
    """The least exponent e that makes every value an integer over 2**e,
    and those integers."""
    e = max((v.exp for v in values), default=0)
    return e, [v.num << (e - v.exp) for v in values]


class PLMap(GroupElement):
    """A circle map as integers over 2**_e: break points _x, their images _y
    under the lift, and the slope exponent _s of the piece each one starts.

    ``PLMap(pieces)`` takes (left, slope_exp, intercept) triples, merges
    equal neighbours and raises ``ValueError`` unless they form the lift of
    a circle homeomorphism.
    """

    __slots__ = ("_e", "_x", "_y", "_s")

    def __init__(self, pieces: Sequence[Piece]):
        rows: list[Piece] = []
        for left, s, c in pieces:
            left, c = Dyadic.coerce(left), Dyadic.coerce(c)
            if rows and rows[-1][1] == s and rows[-1][2] == c:
                continue
            rows.append((left, s, c))
        if not rows:
            raise ValueError("a map needs at least one piece")
        # one exponent that makes every left, intercept and piece end an integer
        w = max(max(left.exp, c.exp) for left, _, c in rows) + max(0, -min(s for _, s, _ in rows))
        one = 1 << w
        xs = [left.num << (w - left.exp) for left, _, _ in rows]
        cs = [c.num << (w - c.exp) for _, _, c in rows]
        ss = [s for _, s, _ in rows]
        if xs[0] != 0:
            raise ValueError("first piece must start at 0")
        if not 0 <= cs[0] < one:
            raise ValueError("lift offset must lie in [0, 1)")
        ys: list[int] = []
        for i, x in enumerate(xs):
            right = xs[i + 1] if i + 1 < len(xs) else one
            if not x < right:
                raise ValueError("breakpoints must increase")
            if not 0 <= x < one:
                raise ValueError("breakpoints must lie in [0, 1)")
            y = _shift(x, ss[i]) + cs[i]
            if ys and y != end:
                raise ValueError(f"discontinuity at {rows[i][0]}")
            ys.append(y)
            end = _shift(right, ss[i]) + cs[i]
        if end != cs[0] + one:
            raise ValueError("lift must satisfy F(1) = F(0) + 1")
        self._set(w, xs, ys, ss)

    def _set(self, w: int, xs: list[int], ys: list[int], ss: list[int]):
        """Store breaks xs and images ys over 2**w: the lift moves down by 1
        if F(0) >= 1, and the factors of two they all share are divided out."""
        one = 1 << w
        if ys[0] >= one:
            ys = [y - one for y in ys]
        acc = one
        for v in xs:
            acc |= v
        for v in ys:
            acc |= v
        k = (acc & -acc).bit_length() - 1
        if k:
            xs = [v >> k for v in xs]
            ys = [v >> k for v in ys]
        object.__setattr__(self, "_e", w - k)
        object.__setattr__(self, "_x", tuple(xs))
        object.__setattr__(self, "_y", tuple(ys))
        object.__setattr__(self, "_s", tuple(ss))

    @property
    def pieces(self) -> "_Pieces":
        """The (left, slope_exp, intercept) pieces; ``len`` builds no Dyadic."""
        return _Pieces(self)

    def _fixes(self, i: int) -> bool:
        """Is piece i the identity of the circle (slope 1, integer intercept)?"""
        return self._s[i] == 0 and not (self._y[i] - self._x[i]) & ((1 << self._e) - 1)

    # -- evaluation --------------------------------------------------------

    def _lift(self, n: int, e: int) -> tuple[int, int]:
        """F(n / 2**e) under the Z-periodic lift, as a numerator over 2**exp."""
        k = n >> e
        n -= k << e
        d = max(self._e, e)
        t, pe = n << (d - e), d - self._e
        i = bisect.bisect_right(self._x, t >> pe) - 1
        s = self._s[i]
        a = max(0, -s)
        y = self._y[i] + (k << self._e)
        return (y << (pe + a)) + ((t - (self._x[i] << pe)) << (s + a)), d + a

    def __call__(self, x: Dyadic) -> Dyadic:
        """Image of the circle point x, reduced into [0, 1)."""
        x = Dyadic.coerce(x)
        v, d = self._lift(x.num, x.exp)
        return Dyadic(v & ((1 << d) - 1), d)

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "PLMap") -> "PLMap":
        """Composition self o other (apply other first).

        The merge walks other's images y_i and self's breaks rotated into
        [y_0, y_0 + 1), over a 2**w that covers other's steepest slope and
        self's shallowest.
        """
        if not isinstance(other, PLMap):
            return NotImplemented
        f, g = self, other
        w = max(f._e, g._e) + max(0, max(g._s)) + max(0, -min(f._s))
        one = 1 << w
        kf, kg = w - f._e, w - g._e
        u = g._y[0] << kg
        fx = [x << kf for x in f._x] if kf else f._x
        j = bisect.bisect_right(fx, u) - 1
        # self's breaks after u, each with the slope of the piece it starts
        f_cuts = [u, *fx[j + 1:]] + [x + one for x in fx[: j + 1]]
        f_slopes = f._s[j:] + f._s[: j + 1]
        h = (f._y[j] << kf) + _shift(u - fx[j], f._s[j])
        gy = [y << kg for y in g._y] if kg else g._y
        xs, ys, ss = [], [], []
        _merge(0, h, gy, g._s, f_cuts, f_slopes, u + one, xs, ys, ss)
        return _plmap(w, xs, ys, ss)

    def inverse(self) -> "PLMap":
        """Swap breaks and images.  The inverse lift is G^{-1}(t + 1) on
        [0, y_0] and G^{-1}(t) + 1 on [y_0, 1], so the breaks whose images
        pass 1 come first, moved down by 1."""
        e, xs, ys, ss = self._e, self._x, self._y, self._s
        one = 1 << e
        p = 0
        while p < len(ys) and ys[p] < one:
            p += 1
        ts = [y - one for y in ys[p:]] + list(ys[:p])
        vs = list(xs[p:]) + [x + one for x in xs[:p]]
        slopes = [-s for s in ss[p:] + ss[:p]]
        if ts[0]:
            # 1 falls inside piece p - 1: cut the inverse at 0 there
            s = ss[p - 1]
            b = max(0, s)
            cut = (xs[p - 1] << b) + _shift((one - ys[p - 1]) << b, -s)
            ts = [0] + [t << b for t in ts]
            vs = [cut] + [v << b for v in vs]
            slopes = [-s] + slopes
            e += b
        out_t, out_v, out_s = [0], [vs[0]], [slopes[0]]
        for t, v, s in zip(ts[1:], vs[1:], slopes[1:]):
            if s != out_s[-1]:
                out_t.append(t)
                out_v.append(v)
                out_s.append(s)
        return _plmap(e, out_t, out_v, out_s)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLMap):
            return NotImplemented
        return (self._e == other._e and self._x == other._x and self._y == other._y
                and self._s == other._s)

    def __hash__(self):
        return hash((self._e, self._x, self._y, self._s))

    def is_identity(self) -> bool:
        return self._s == (0,) and self._y == (0,)

    def __repr__(self):
        bits = ", ".join(f"[{l}: 2^{s} t + {c}]" for l, s, c in self.pieces)
        return f"PLMap({bits})"

    # -- regions and germs ----------------------------------------------------

    def support(self) -> "ArcSet":
        """The closure of the moved set: the union of the closed pieces that
        are not the identity."""
        arcs, start = [], None  # runs of moving pieces
        for i, x in enumerate(self._x):
            if self._fixes(i):
                if start is not None:
                    arcs.append((start, x))
                    start = None
            elif start is None:
                start = x
        if start is not None:
            arcs.append((start, 1 << self._e))
        return _arcset(self._e, arcs)

    def identity_on(self, region: "ArcSet") -> bool:
        """Exact check that the map restricted to the closed region is the identity."""
        xs = self._x
        d = max(self._e, region._e)
        pe, pr = d - self._e, d - region._e
        for lo, hi in region._cut():
            lo, hi = lo << pr, hi << pr
            if lo == hi:
                v, dv = self._lift(lo, d)
                if v & ((1 << dv) - 1) != lo << (dv - d):
                    return False
                continue
            for i, x in enumerate(xs):
                if x << pe >= hi:
                    break
                right = xs[i + 1] if i + 1 < len(xs) else 1 << self._e
                if right << pe > lo and not self._fixes(i):
                    return False
        return True

    def germ_trivial_at(self, x: Dyadic) -> bool:
        """Is the map the identity near the circle point x?  Both one-sided
        pieces at x must fix it: at a break the left one is the previous
        piece, and at 0 the last one."""
        x = Dyadic.coerce(x)
        d = max(self._e, x.exp)
        t, pe = x.num << (d - x.exp) & ((1 << d) - 1), d - self._e
        i = bisect.bisect_right(self._x, t >> pe) - 1
        return self._fixes(i) and self._fixes(i - 1 if self._x[i] << pe == t else i)

    def to_json(self) -> dict:
        return {
            "pieces": [
                {"left": l.to_json(), "slope_exp": s, "intercept": c.to_json()}
                for l, s, c in self.pieces
            ]
        }

    @staticmethod
    def from_json(obj: dict) -> "PLMap":
        if not all(type(p["slope_exp"]) is int for p in obj["pieces"]):
            raise ValueError("slope exponents must be integers")
        return PLMap(
            [
                (Dyadic.from_json(p["left"]), p["slope_exp"], Dyadic.from_json(p["intercept"]))
                for p in obj["pieces"]
            ]
        )


def _plmap(w: int, xs: list[int], ys: list[int], ss: list[int]) -> PLMap:
    """A map from breaks and images over 2**w that already form a lift."""
    f = object.__new__(PLMap)
    f._set(w, xs, ys, ss)
    return f


def _merge(x: int, h: int, g_cuts: Sequence[int], g_slopes: Sequence[int],
           f_cuts: Sequence[int], f_slopes: Sequence[int], end: int,
           xs: list[int], ys: list[int], ss: list[int]):
    """Append to xs, ys, ss the pieces of f o g, two increasing piece lists
    over one exponent.

    g starts at the point x, and its i-th piece starts where its image
    reaches g_cuts[i], with slope exponent g_slopes[i]; f's i-th piece
    starts at f_cuts[i], with slope exponent f_slopes[i], and f(f_cuts[0])
    is h, where f_cuts[0] == g_cuts[0].  Both kinds of cut are walked in
    order up to end, where g's image stops.  The exponent must cover g's
    steepest slope and f's shallowest, so every cut and its value are
    integers.  A piece with the slope of the last one in ss extends it.
    """
    u = g_cuts[0]
    sg, sf = g_slopes[0], f_slopes[0]
    if not ss or sg + sf != ss[-1]:
        xs.append(x)
        ys.append(h)
        ss.append(sg + sf)
    gi = fi = 1
    ng, nf = len(g_cuts), len(f_cuts)
    next_g = g_cuts[1] if ng > 1 else end
    next_f = f_cuts[1] if nf > 1 else end
    while True:
        v = next_g if next_g < next_f else next_f
        if v == end:
            return
        step = v - u
        x += _shift(step, -sg)
        h += _shift(step, sf)
        if v == next_g:
            sg = g_slopes[gi]
            gi += 1
            next_g = g_cuts[gi] if gi < ng else end
        if v == next_f:
            sf = f_slopes[fi]
            fi += 1
            next_f = f_cuts[fi] if fi < nf else end
        u = v
        if sg + sf != ss[-1]:
            xs.append(x)
            ys.append(h)
            ss.append(sg + sf)


class _Pieces(Sequence):
    """A map's pieces as (left, slope_exp, intercept) Dyadics, built per index."""

    __slots__ = ("_f",)

    def __init__(self, f: PLMap):
        self._f = f

    def __len__(self) -> int:
        return len(self._f._s)

    def __getitem__(self, i: int) -> Piece:
        f = self._f
        left, s, c = _piece_key(f._x[i], f._y[i], f._s[i], f._e)
        return Dyadic(*left), s, Dyadic(*c)


def identity() -> PLMap:
    return _plmap(0, [0], [0], [0])


def _d(num: int, exp: int = 0) -> Dyadic:
    return Dyadic(num, exp)


# Standard generator pair of the point-0 stabilizer and the extra circle
# generator.  A: halve [0,1/2], translate [1/2,3/4], double [3/4,1].
GEN_A = PLMap([(ZERO, -1, ZERO), (_d(1, 1), 0, _d(-1, 2)), (_d(3, 2), 1, _d(-1))])
GEN_B = PLMap(
    [
        (ZERO, 0, ZERO),
        (_d(1, 1), -1, _d(1, 2)),
        (_d(3, 2), 0, _d(-1, 3)),
        (_d(7, 3), 1, _d(-1)),
    ]
)
GEN_C = PLMap([(ZERO, -1, _d(3, 2)), (_d(1, 1), 1, ZERO), (_d(3, 2), 0, _d(3, 2))])
F_GROUP = MarkedGroup({"a": GEN_A, "b": GEN_B})
T_GROUP = MarkedGroup({"a": GEN_A, "b": GEN_B, "c": GEN_C})


def is_in_F(f: PLMap) -> bool:
    """Point-0 stabilizer: the canonical lift fixes 0."""
    return f._y[0] == 0


def in_derived_F(f: PLMap) -> bool:
    """Maps fixing a whole circle neighbourhood of 0; equals the derived group
    of the point-0 stabilizer."""
    return is_in_F(f) and f.germ_trivial_at(ZERO)


# -- closed arc sets -------------------------------------------------------


class ArcSet(Immutable):
    """A finite union of closed arcs of the circle, stored once, canonically.

    The maximal arcs are integer pairs (lo, hi) over 2**_e, sorted by lo,
    with 0 <= lo < 2**_e and lo <= hi < lo + 2**_e: an arc through 0 runs
    past 2**_e, the point 1 is the point 0, and lo == hi is a single point.
    The full circle is ((0, 1),) over 2**0, and _e is the least exponent
    that makes every endpoint an integer, so equal point sets have equal
    fields and ``==``/``hash`` compare them.

    ``ArcSet(arcs)`` and ``of`` take (lo, hi) pairs with 0 <= lo <= hi <= 1;
    ``arcs`` gives the set back cut at 0 and sorted, as Dyadic pairs.
    """

    __slots__ = ("_e", "_a")

    def __init__(self, arcs: Iterable[tuple[Dyadic, Dyadic]]):
        ends = [Dyadic.coerce(v) for arc in arcs for v in arc]
        e, ints = _ints(*ends)
        pairs = list(zip(ints[::2], ints[1::2]))
        for (lo, hi), lo_d, hi_d in zip(pairs, ends[::2], ends[1::2]):
            if not 0 <= lo <= hi <= 1 << e:
                raise ValueError(f"arc ({lo_d}, {hi_d}) outside the fundamental domain")
        self._set(e, pairs)

    def _set(self, e: int, arcs: Iterable[tuple[int, int]]):
        """Store the union of closed arcs (lo, hi) over 2**e, any lo and
        0 <= hi - lo <= 1: each lo is reduced into [0, 1), overlapping or
        touching arcs merge, the last arc absorbs those it runs over past 1,
        and the factors of two every endpoint shares are divided out."""
        one = 1 << e
        mask = one - 1
        merged: list[list[int]] = []
        for lo, hi in sorted((lo & mask, (lo & mask) + hi - lo) for lo, hi in arcs):
            if merged and lo <= merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], hi)
            else:
                merged.append([lo, hi])
        if merged:
            last = merged[-1]
            while len(merged) > 1 and merged[0][0] + one <= last[1]:
                last[1] = max(last[1], merged.pop(0)[1] + one)
            if last[1] - last[0] >= one:
                merged = [[0, one]]
        acc = one
        for lo, hi in merged:
            acc |= lo | hi
        k = (acc & -acc).bit_length() - 1
        object.__setattr__(self, "_e", e - k)
        object.__setattr__(self, "_a", tuple((lo >> k, hi >> k) for lo, hi in merged))

    @staticmethod
    def of(*pairs) -> "ArcSet":
        return ArcSet(pairs)

    @staticmethod
    def full() -> "ArcSet":
        return _arcset(0, [(0, 1)])

    @staticmethod
    def empty() -> "ArcSet":
        return _arcset(0, [])

    @staticmethod
    def cells(max_depth: int):
        """Standard dyadic arcs of depth 2 up, coarsest first, then left to right."""
        for depth in range(2, max_depth + 1):
            for k in range(1 << depth):
                yield _arcset(depth, [(k, k + 1)])

    @staticmethod
    def neighbourhoods(z, max_depth: int):
        """Arcs around z, shrinking: at each depth from 2 the standard arc
        holding z, or both standard arcs that meet at a dyadic z."""
        z = Dyadic.coerce(z)
        for depth in range(2, max_depth + 1):
            if z.exp <= depth:
                k = z.num << (depth - z.exp)
                yield _arcset(depth, [(k - 1, k + 1)])
            else:
                k = z.num >> (z.exp - depth)
                yield _arcset(depth, [(k, k + 1)])

    def is_empty(self) -> bool:
        return not self._a

    def is_full(self) -> bool:
        return self._e == 0 and self._a == ((0, 1),)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArcSet):
            return NotImplemented
        return self._e == other._e and self._a == other._a

    def __hash__(self):
        return hash((self._e, self._a))

    def __repr__(self):
        return "ArcSet(" + ", ".join(f"[{lo}, {hi}]" for lo, hi in self.arcs) + ")"

    def _at(self, e: int) -> Sequence[tuple[int, int]]:
        """The maximal arcs over 2**e, for e >= _e."""
        k = e - self._e
        return [(lo << k, hi << k) for lo, hi in self._a] if k else self._a

    def _cut(self) -> list[tuple[int, int]]:
        """The maximal arcs over 2**_e cut at 0, sorted: an arc through 0
        gives its part from 0 first and its part up to 1 last."""
        arcs = list(self._a)
        one = 1 << self._e
        if arcs and arcs[-1][1] > one:
            lo, hi = arcs[-1]
            arcs[-1] = (lo, one)
            arcs.insert(0, (0, hi - one))
        return arcs

    def _gaps(self) -> list[tuple[int, int]]:
        """The open gaps over 2**_e as (start, lifted end), each after the
        arc that bounds it on the left."""
        one = 1 << self._e
        if not self._a:
            return [(0, one)]
        if self.is_full():
            return []
        starts = [lo for lo, _ in self._a[1:]] + [self._a[0][0] + one]
        return [(hi & (one - 1), (hi & (one - 1)) + nxt - hi)
                for (_, hi), nxt in zip(self._a, starts)]

    @property
    def arcs(self) -> tuple[tuple[Dyadic, Dyadic], ...]:
        """The arcs cut at 0 and sorted, as (lo, hi) with 0 <= lo <= hi <= 1."""
        e = self._e
        return tuple((Dyadic(lo, e), Dyadic(hi, e)) for lo, hi in self._cut())

    def contains_point(self, x: Dyadic) -> bool:
        x = Dyadic.coerce(x)
        d = max(self._e, x.exp)
        t, one = x.num << (d - x.exp) & ((1 << d) - 1), 1 << d
        return any(lo <= t <= hi or t + one <= hi for lo, hi in self._at(d))

    def subset_of(self, other: "ArcSet") -> bool:
        if other.is_full():
            return True
        d = max(self._e, other._e)
        one = 1 << d
        theirs = other._at(d)
        for s, e in self._at(d):
            for S, E in theirs:
                if (s if s >= S else s + one) + e - s <= E:
                    break
            else:
                return False
        return True

    def disjoint_from(self, other: "ArcSet") -> bool:
        if self.is_empty() or other.is_empty():
            return True
        if self.is_full() or other.is_full():
            return False
        d = max(self._e, other._e)
        mask = (1 << d) - 1
        theirs = other._at(d)
        for s, e in self._at(d):
            for S, E in theirs:
                if (s - S) & mask <= E - S or (S - s) & mask <= e - s:
                    return False
        return True

    def complement(self) -> "ArcSet":
        """The closure of the complement: the closed gaps."""
        return _arcset(self._e, self._gaps())

    def union(self, other: "ArcSet") -> "ArcSet":
        d = max(self._e, other._e)
        return _arcset(d, [*self._at(d), *other._at(d)])

    def image(self, f: PLMap) -> "ArcSet":
        if self.is_full():
            return self
        ends = [f._lift(v, self._e) for arc in self._a for v in arc]
        d = max((x for _, x in ends), default=0)
        values = [v << (d - x) for v, x in ends]
        return _arcset(d, zip(values[::2], values[1::2]))

    def preimage(self, f: PLMap) -> "ArcSet":
        return self.image(f.inverse())


def _arcset(e: int, arcs: Iterable[tuple[int, int]]) -> ArcSet:
    """The union of closed arcs (lo, hi) over 2**e, with 0 <= hi - lo <= 1."""
    region = object.__new__(ArcSet)
    region._set(e, arcs)
    return region


PLMap.region_type = ArcSet


# -- constructions -------------------------------------------------------------


def _standard(p: int, q: int, w: int) -> list[int]:
    """The greedy partition of [p, q] over 2**w into standard intervals
    [m/2^k, (m+1)/2^k], each the longest that starts at its left end and
    fits, at most 1: the exponents j of their lengths 2**j over 2**w."""
    out = []
    while p < q:
        j = min(w, (q - p).bit_length() - 1)
        if p:
            j = min(j, (p & -p).bit_length() - 1)
        out.append(j)
        p += 1 << j
    return out


def _split(cells: list[int], n: int) -> list[int]:
    """Halve the longest cells, leftmost first, until there are n."""
    while len(cells) < n:
        top, extra = max(cells), n - len(cells)
        out = []
        for j in cells:
            if j == top and extra:
                out += (j - 1, j - 1)
                extra -= 1
            else:
                out.append(j)
        cells = out
    return cells


def _chain(w: int, points: Sequence[tuple[int, int]]) -> tuple[int, list[int], list[int], list[int]]:
    """Pieces (W, breaks, images, slope exponents) over 2**W of the
    increasing map through the points (x_i, y_i) over 2**w that sends each
    [x_i, x_{i+1}] onto [y_i, y_{i+1}] cell by cell: both sides are cut
    greedily into standard intervals and the shorter list is split until
    they pair up.  Neighbours of equal slope merge, and W >= w is what the
    halved cells need."""
    cells = []
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        if not (x0 < x1 and y0 < y1):
            raise ValueError("points must be strictly increasing")
        dom, ran = _standard(x0, x1, w), _standard(y0, y1, w)
        cells += zip(_split(dom, len(ran)), _split(ran, len(dom)))
    k = max(0, -min(min(c) for c in cells))
    x, y = points[0][0] << k, points[0][1] << k
    xs, ys, ss = [], [], []
    for jx, jy in cells:
        if not ss or jy - jx != ss[-1]:
            xs.append(x)
            ys.append(y)
            ss.append(jy - jx)
        x += 1 << (jx + k)
        y += 1 << (jy + k)
    return w + k, xs, ys, ss


def expanding_conjugator(n: int) -> PLMap:
    """A map trivial near 0 sending [1/4, 1/2] onto [2^-n-2, 1 - 2^-n-2]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    one = 1 << (n + 3)
    return _plmap(*_chain(n + 3, [(0, 0), (1, 1), (one >> 2, 2), (one >> 1, one - 2),
                                  (one - 1, one - 1), (one, one)]))


def conjugate_into_interval(f: PLMap, a: Dyadic, b: Dyadic) -> PLMap:
    """Carry a point-0-stabilizing map into [a, b]: phi o f o phi^-1 on
    [a, b] and the identity outside, where phi : [0, 1] -> [a, b] is the
    standard-subdivision map and phi^-1 is phi with its coordinates swapped."""
    if not is_in_F(f):
        raise ValueError("only maps fixing 0 can be transported")
    e, (lo, hi) = _ints(Dyadic.coerce(a), Dyadic.coerce(b))
    if not 0 <= lo < hi <= 1 << e:
        raise ValueError("need 0 <= a < b <= 1")
    wp, px, _, ps = _chain(e, [(0, lo), (1 << e, hi)])
    # 2**w covers each merge's inner steepest and outer shallowest slope:
    # phi^-1 then f, and f o phi^-1, no steeper than 2**(max f - min phi),
    # then phi
    w = max(wp, f._e) + 2 * max(0, -min(ps)) + max(0, -min(f._s)) + max(0, max(f._s))
    one, a, b = 1 << w, lo << (w - e), hi << (w - e)
    px = [x << (w - wp) for x in px]
    gx, gy, gs = [], [], []
    _merge(a, 0, px, [-s for s in ps], [x << (w - f._e) for x in f._x], f._s, one, gx, gy, gs)
    # phi o f o phi^-1 after the identity on [0, a], then the identity on [b, 1]
    xs, ys, ss = ([0], [0], [0]) if a else ([], [], [])
    _merge(a, a, gy, gs, px, ps, one, xs, ys, ss)
    if b < one and ss[-1]:
        xs.append(b)
        ys.append(b)
        ss.append(0)
    return _plmap(w, xs, ys, ss)


def rigid_stabilizer_gens(a: Dyadic, b: Dyadic) -> tuple[PLMap, PLMap]:
    """Generators of the copy of the point-0 stabilizer supported in [a, b]."""
    return (
        conjugate_into_interval(GEN_A, a, b),
        conjugate_into_interval(GEN_B, a, b),
    )


# -- the compressor -----------------------------------------------------------


def compress(region: ArcSet, beta: Dyadic, alpha: Dyadic) -> PLMap:
    """A map in the derived group of the point-0 stabilizer sending the proper
    closed region into the open arc that runs from beta through 0 to alpha.

    The map is the identity near 0, contracts [alpha', a] toward alpha' and
    [b, beta'] toward beta' with slope 2**-n for the least sufficient n, where
    ]a, b[ is a gap of the region and alpha' = alpha/2, beta' = (1 + beta)/2.
    """
    e0, (al, be) = _ints(Dyadic.coerce(alpha), Dyadic.coerce(beta))
    if not 0 < al < be < 1 << e0:
        raise ValueError("target must be a proper open arc through 0")
    if region.is_full():
        raise ValueError("region must be a proper closed subset")
    # three more bits make the gap's quarter points and the halvings integers
    e = max(e0, region._e) + 3
    one = 1 << e
    al, be = al << (e - e0), be << (e - e0)
    # the closed region lies in the open target when it misses the closed
    # arc from alpha to beta
    window = _arcset(e, [(al, be)])
    if region.disjoint_from(window):
        return identity()
    # ]a, b[ is the second quarter of the first gap, or of its part above 0
    s, t = (v << (e - region._e) for v in region._gaps()[0])
    if t > one:
        s, t = 0, t - one
    a, b = s + (t - s >> 2), s + (t - s >> 1)
    a0, b0 = min(al, a), max(be, b)
    p, q = a0 >> 1, (b0 + one) >> 1  # alpha', beta'
    if not 0 < p < a < b < q < one:
        raise RuntimeError("the contraction windows must nest inside the circle")
    # the least n >= 1 with (a - p) 2**-n < a0 - p and (q - b) 2**-n < q - b0
    n = max(1, ((a - p) // (a0 - p)).bit_length(), ((q - b) // (q - b0)).bit_length())
    # a and b go to p + (a - p) 2**-n and q - (q - b) 2**-n, over 2**(e + n)
    ga, gb = (p << n) + a - p, (q << n) - q + b
    w, mx, my, ms = _chain(e + n, [(a << n, ga), (b << n, gb)])
    k = w - e
    xs, ys, ss = [0, p << k], [0, p << k], [0, -n]
    for x, y, s in zip(mx + [b << k, q << k], my + [gb << (k - n), q << k], ms + [-n, 0]):
        if s != ss[-1]:
            xs.append(x)
            ys.append(y)
            ss.append(s)
    g = _plmap(w, xs, ys, ss)
    if not in_derived_F(g):
        raise RuntimeError("compressor must lie in the derived group")
    if not region.image(g).disjoint_from(window):
        raise RuntimeError("compressed region must land inside the target")
    return g


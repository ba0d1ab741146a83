"""Piecewise-linear circle homeomorphisms with dyadic breakpoints and 2-power slopes.

The circle is R/Z with fundamental domain [0, 1).  A map is stored through its
canonical lift F : [0, 1] -> [F(0), F(0) + 1], an increasing piecewise-affine
bijection with F(0) in [0, 1).  The lift is kept as integers over one power
of two: the break points 0 = x_0 < x_1 < ... < x_{m-1} < 1, their images
y_i = F(x_i) and the slope exponents s_i, with F(t) = y_i + 2**s_i (t - x_i)
on [x_i, x_{i+1}].  Every x_i and y_i is written n / 2**e for the least e
that makes all of them integers, and neighbouring pieces have different
slopes, so equal maps have equal integers.  Continuity holds by
construction.  Composition is one linear merge of two break lists and
inversion swaps the two coordinates, both in integers.

At the boundary a map still reads and writes pieces (left, slope_exp,
intercept) of Dyadics, F(t) = 2**slope_exp * t + intercept: the constructor,
``pieces``, ``repr``, ``to_json``/``from_json`` and ``canonical_key`` are
those of that form.

Maps fixing the point 0 with this slope/breakpoint discipline form the group
usually written F; arbitrary such circle maps form T.
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction

from .kernel import GroupElement
from .scalars import Dyadic, ZERO, ONE, reduced

Piece = tuple[Dyadic, int, Dyadic]


def _shift(n: int, k: int) -> int:
    """n * 2**k for an n that 2**-k divides when k < 0."""
    return n << k if k >= 0 else n >> -k


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

    def __setattr__(self, name, value):
        raise AttributeError("PLMap is immutable")

    @property
    def pieces(self) -> "_Pieces":
        """The (left, slope_exp, intercept) pieces; ``len`` builds no Dyadic."""
        return _Pieces(self)

    def _piece_key(self, i: int) -> tuple:
        """((left.num, left.exp), slope_exp, (intercept.num, intercept.exp)) of
        piece i; the intercept y - 2**s x needs 2**-s more when s < 0."""
        x, y, s = self._x[i], self._y[i], self._s[i]
        a = max(0, -s)
        return reduced(x, self._e), s, reduced((y << a) - (x << (s + a)), self._e + a)

    def _fixes(self, i: int) -> bool:
        """Is piece i the identity of the circle (slope 1, integer intercept)?"""
        return self._s[i] == 0 and not (self._y[i] - self._x[i]) & ((1 << self._e) - 1)

    # -- basic queries ---------------------------------------------------

    def lift_at_zero(self) -> Dyadic:
        return Dyadic(self._y[0], self._e)

    def piece_index(self, x: Dyadic) -> int:
        """Rightmost piece whose left endpoint is <= x, for x in [0, 1)."""
        x = Dyadic.coerce(x)
        # x over 2**_e, floored: breaks are integers, so <= is unchanged
        return bisect.bisect_right(self._x, _shift(x.num, self._e - x.exp)) - 1

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

    def eval_lift(self, t: Dyadic) -> Dyadic:
        """The Z-periodic extension of the lift, F(t + k) = F(t) + k."""
        t = Dyadic.coerce(t)
        return Dyadic(*self._lift(t.num, t.exp))

    def __call__(self, x: Dyadic) -> Dyadic:
        """Image of the circle point x, reduced into [0, 1)."""
        x = Dyadic.coerce(x)
        v, d = self._lift(x.num, x.exp)
        return Dyadic(v & ((1 << d) - 1), d)

    def eval_lift_inverse(self, y: Dyadic) -> Dyadic:
        """Preimage of y under the periodic lift.  The inverse's canonical
        lift exceeds this one by 1 when F(0) > 0."""
        value = self.inverse().eval_lift(y)
        return value - 1 if self._y[0] else value

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "PLMap") -> "PLMap":
        """Composition self o other (apply other first).

        The cells of the product are cut where other breaks and where other
        reaches a break of self.  Both kinds of cut are walked in the order
        of their images under other: other's images y_i, and self's breaks
        rotated into [y_0, y_0 + 1).  Every cut and its value are exact over
        2**w, because w covers other's steepest slope and self's shallowest.
        """
        if not isinstance(other, PLMap):
            return NotImplemented
        f, g = self, other
        w = max(f._e, g._e) + max(0, max(g._s)) + max(0, -min(f._s))
        one = 1 << w
        kf, kg = w - f._e, w - g._e
        u = g._y[0] << kg
        end = u + one
        fx = [x << kf for x in f._x]
        j = 0
        while j + 1 < len(fx) and fx[j + 1] <= u:
            j += 1
        # self's breaks after u, each with the slope of the piece it starts
        f_cuts = fx[j + 1:] + [x + one for x in fx[: j + 1]]
        f_slopes = f._s[j + 1:] + f._s[: j + 1]
        gy, gs = g._y, g._s
        sg, sf = gs[0], f._s[j]
        x, h = 0, (f._y[j] << kf) + _shift(u - fx[j], sf)
        xs, ys, ss = [x], [h], [sg + sf]
        gi, fi = 1, 0
        next_g = gy[1] << kg if len(gy) > 1 else end
        next_f = f_cuts[0]
        while True:
            v = next_g if next_g < next_f else next_f
            step = v - u
            x += _shift(step, -sg)
            h += _shift(step, sf)
            if v == end:
                break
            if v == next_g:
                sg = gs[gi]
                gi += 1
                next_g = gy[gi] << kg if gi < len(gy) else end
            if v == next_f:
                sf = f_slopes[fi]
                fi += 1
                next_f = f_cuts[fi] if fi < len(f_cuts) else end
            u = v
            if sg + sf != ss[-1]:
                xs.append(x)
                ys.append(h)
                ss.append(sg + sf)
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

    def canonical_key(self) -> tuple:
        return tuple(self._piece_key(i) for i in range(len(self._s)))

    def is_identity(self) -> bool:
        return self._s == (0,) and self._y == (0,)

    def __repr__(self):
        bits = ", ".join(f"[{l}: 2^{s} t + {c}]" for l, s, c in self.pieces)
        return f"PLMap({bits})"

    # -- regions and germs ----------------------------------------------------

    def support(self) -> "ArcSet":
        """The closure of the moved set: the union of the closed pieces that
        are not the identity."""
        e = self._e
        arcs, start = [], None  # runs of moving pieces
        for i, x in enumerate(self._x):
            if self._fixes(i):
                if start is not None:
                    arcs.append((Dyadic(start, e), Dyadic(x, e)))
                    start = None
            elif start is None:
                start = x
        if start is not None:
            arcs.append((Dyadic(start, e), ONE))
        return ArcSet(arcs)

    def identity_on(self, region: "ArcSet") -> bool:
        """Exact check that the map restricted to the closed region is the identity."""
        xs = self._x
        for lo, hi in region.arcs:
            if lo == hi:
                if self(lo) != lo.frac():
                    return False
                continue
            d = max(self._e, lo.exp, hi.exp)
            lo_n, hi_n, pe = lo.num << (d - lo.exp), hi.num << (d - hi.exp), d - self._e
            for i, x in enumerate(xs):
                if x << pe >= hi_n:
                    break
                right = xs[i + 1] if i + 1 < len(xs) else 1 << self._e
                if right << pe > lo_n and not self._fixes(i):
                    return False
        return True

    def germ_trivial_at(self, x: Dyadic) -> bool:
        data = germ_data(self, x)
        return data.left_identity and data.right_identity

    def to_json(self) -> dict:
        return {
            "pieces": [
                {"left": l.to_json(), "slope_exp": s, "intercept": c.to_json()}
                for l, s, c in self.pieces
            ]
        }

    @staticmethod
    def from_json(obj: dict) -> "PLMap":
        return PLMap(
            [
                (Dyadic.from_json(p["left"]), int(p["slope_exp"]), Dyadic.from_json(p["intercept"]))
                for p in obj["pieces"]
            ]
        )


def _plmap(w: int, xs: list[int], ys: list[int], ss: list[int]) -> PLMap:
    """A map from breaks and images over 2**w that already form a lift."""
    f = object.__new__(PLMap)
    f._set(w, xs, ys, ss)
    return f


class _Pieces(Sequence):
    """A map's pieces as (left, slope_exp, intercept) Dyadics, built per index."""

    __slots__ = ("_f",)

    def __init__(self, f: PLMap):
        self._f = f

    def __len__(self) -> int:
        return len(self._f._s)

    def __getitem__(self, i: int) -> Piece:
        left, s, c = self._f._piece_key(i)
        return Dyadic(*left), s, Dyadic(*c)


def identity() -> PLMap:
    return PLMap([(ZERO, 0, ZERO)])


def rotation(d: Dyadic) -> PLMap:
    """Rigid rotation x -> x + d."""
    return PLMap([(ZERO, 0, Dyadic.coerce(d).frac())])


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


def is_in_F(f: PLMap) -> bool:
    """Point-0 stabilizer: the canonical lift fixes 0."""
    return f._y[0] == 0


@dataclass(frozen=True)
class GermData:
    left_slope_exp: int
    left_identity: bool
    right_slope_exp: int
    right_identity: bool


def germ_data(f: PLMap, x: Dyadic) -> GermData:
    """One-sided germs of f at the circle point x."""
    x = Dyadic.coerce(x).frac()
    i = f.piece_index(x)
    # at a break the left germ is the previous piece's (the last one's at 0)
    at_break = x.exp <= f._e and x.num << (f._e - x.exp) == f._x[i]
    li = i - 1 if at_break else i
    return GermData(f._s[li], f._fixes(li), f._s[i], f._fixes(i))


def in_derived_F(f: PLMap) -> bool:
    """Maps fixing a whole circle neighbourhood of 0; equals the derived group
    of the point-0 stabilizer."""
    if not is_in_F(f):
        return False
    g = germ_data(f, ZERO)
    return g.left_identity and g.right_identity


# -- closed arc sets -------------------------------------------------------


class ArcSet:
    """A finite union of closed arcs of the circle.

    Stored cut at 0: a sorted tuple of (lo, hi) with 0 <= lo <= hi <= 1;
    lo == hi is a single point.  Point-set semantics glue 1 back to 0.
    """

    __slots__ = ("arcs",)

    def __init__(self, arcs: Iterable[tuple[Dyadic, Dyadic]]):
        cleaned = []
        for lo, hi in arcs:
            lo, hi = Dyadic.coerce(lo), Dyadic.coerce(hi)
            if not (ZERO <= lo <= hi <= ONE):
                raise ValueError(f"arc ({lo}, {hi}) outside the fundamental domain")
            cleaned.append((lo, hi))
        cleaned.sort()
        merged: list[tuple[Dyadic, Dyadic]] = []
        for lo, hi in cleaned:
            if merged and lo <= merged[-1][1]:
                if hi > merged[-1][1]:
                    merged[-1] = (merged[-1][0], hi)
            else:
                merged.append((lo, hi))
        object.__setattr__(self, "arcs", tuple(merged))

    def __setattr__(self, name, value):
        raise AttributeError("ArcSet is immutable")

    @staticmethod
    def of(*pairs) -> "ArcSet":
        return ArcSet([(Dyadic.coerce(a), Dyadic.coerce(b)) for a, b in pairs])

    @staticmethod
    def full() -> "ArcSet":
        return ArcSet([(ZERO, ONE)])

    @staticmethod
    def empty() -> "ArcSet":
        return ArcSet([])

    @staticmethod
    def cells(max_depth: int):
        """Standard dyadic arcs of depth 2 up, coarsest first, then left to right."""
        for depth in range(2, max_depth + 1):
            for k in range(1 << depth):
                yield ArcSet.of((Fraction(k, 1 << depth), Fraction(k + 1, 1 << depth)))

    @staticmethod
    def neighbourhoods(z, max_depth: int):
        """Arcs around z, shrinking: at each depth from 2 the standard arc
        holding z, or both standard arcs that meet at a dyadic z."""
        zf = Dyadic.coerce(z).frac().as_fraction()
        for depth in range(2, max_depth + 1):
            step = Fraction(1, 1 << depth)
            scaled = zf / step
            if scaled.denominator == 1:
                lo = (zf - step) % 1
                hi = lo + 2 * step
                if hi <= 1:
                    yield ArcSet.of((lo, hi))
                else:
                    yield ArcSet.of((lo, Fraction(1)), (Fraction(0), hi - 1))
            else:
                k = scaled.numerator // scaled.denominator
                yield ArcSet.of((k * step, (k + 1) * step))

    def is_empty(self) -> bool:
        return not self.arcs

    def is_full(self) -> bool:
        return self.arcs == ((ZERO, ONE),)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ArcSet):
            return NotImplemented
        return self.glued() == other.glued()

    def __hash__(self):
        return hash(self.glued())

    def __repr__(self):
        return "ArcSet(" + ", ".join(f"[{lo}, {hi}]" for lo, hi in self.arcs) + ")"

    def glued(self) -> tuple[tuple[Dyadic, Dyadic], ...]:
        """Maximal arcs as (start, lifted_end); wraps across 0 are rejoined."""
        arcs = list(self.arcs)
        if not arcs:
            return ()
        if self.is_full():
            return ((ZERO, ONE),)
        if len(arcs) > 1 and arcs[0][0] == ZERO and arcs[-1][1] == ONE:
            first = arcs.pop(0)
            last = arcs.pop()
            arcs.append((last[0], first[1] + 1))
        elif arcs[0][0] == ZERO and arcs[0][1] == ONE:
            pass
        return tuple(arcs)

    def contains_point(self, x: Dyadic) -> bool:
        x = Dyadic.coerce(x).frac()
        for lo, hi in self.arcs:
            if lo <= x <= hi:
                return True
            if x == ZERO and hi == ONE:
                return True
        return False

    def contains_fraction(self, x: Fraction) -> bool:
        x = x - (x.numerator // x.denominator)
        for lo, hi in self.arcs:
            if lo.as_fraction() <= x <= hi.as_fraction():
                return True
            if x == 0 and hi == ONE:
                return True
        return False

    def subset_of(self, other: "ArcSet") -> bool:
        if self.is_empty():
            return True
        if other.is_full():
            return True
        if other.is_empty():
            return False
        mine = self.glued()
        theirs = other.glued()
        for s, e in mine:
            ok = False
            for S, E in theirs:
                s2 = s if s >= S else s + 1
                if s2 + (e - s) <= E:
                    ok = True
                    break
            if not ok:
                return False
        return True

    def disjoint_from(self, other: "ArcSet") -> bool:
        if self.is_empty() or other.is_empty():
            return True
        if self.is_full() or other.is_full():
            return False
        for s, e in self.glued():
            la = e - s
            for S, E in other.glued():
                lb = E - S
                if (s - S).frac() <= lb or (S - s).frac() <= la:
                    return False
        return True

    def union(self, other: "ArcSet") -> "ArcSet":
        return ArcSet(list(self.arcs) + list(other.arcs))

    def image(self, f: PLMap) -> "ArcSet":
        out: list[tuple[Dyadic, Dyadic]] = []
        for lo, hi in self.arcs:
            if lo == ZERO and hi == ONE:
                return ArcSet.full()
            v_lo = f.eval_lift(lo)
            length = f.eval_lift(hi) - v_lo
            s = v_lo.frac()
            e = s + length
            if e <= ONE:
                out.append((s, e))
            else:
                out.append((s, ONE))
                out.append((ZERO, e - 1))
        return ArcSet(out)

    def preimage(self, f: PLMap) -> "ArcSet":
        return self.image(f.inverse())

    def complement_components(self) -> list[tuple[Dyadic, Dyadic]]:
        """Open gaps as (start, lifted_end); empty set gives the full circle."""
        if self.is_empty():
            return [(ZERO, ONE)]
        if self.is_full():
            return []
        glued = sorted(self.glued(), key=lambda a: a[0])
        gaps = []
        for i, (s, e) in enumerate(glued):
            nxt = glued[(i + 1) % len(glued)][0]
            start = e.frac()
            length = (nxt - e).frac()
            if length == ZERO and len(glued) == 1:
                length = ONE  # complement of a point or of a single closed arc endpoint-touching itself
            gaps.append((start, start + length))
        # a single arc whose complement wraps entirely
        result = []
        for s, e in gaps:
            if e > s:
                result.append((s, e))
        return result


PLMap.region_type = ArcSet


# -- fixed sets and supports -------------------------------------------------


@dataclass(frozen=True)
class SupportData:
    fixed_arcs: ArcSet
    fixed_points: tuple[Fraction, ...]
    support: ArcSet


def support_fix(f: PLMap) -> SupportData:
    """Exact fixed-point data: maximal fixed arcs, isolated fixed points
    (rational, possibly non-dyadic), and the closure of the moved set."""
    e, xs = f._e, f._x
    one = 1 << e
    fixed: list[tuple[Dyadic, Dyadic]] = []
    points: set[Fraction] = set()
    for i, (x, right, y, s) in enumerate(zip(xs, xs[1:] + (one,), f._y, f._s)):
        if s == 0:
            if f._fixes(i):
                fixed.append((Dyadic(x, e), Dyadic(right, e)))
            continue
        # F(t) = t + k at t = n / 2**e: y + 2**s (n - x) = n + k 2**e, times 2**a
        a, b = max(0, -s), max(0, s)
        sign = 1 if s > 0 else -1
        den = sign * ((1 << b) - (1 << a))
        for k in (0, one):
            num = sign * (((k - y) << a) + (x << b))
            if x * den <= num <= right * den:
                points.add(Fraction(num, den << e) % 1)
    arcs = ArcSet(fixed)
    isolated = tuple(sorted(p for p in points if not arcs.contains_fraction(p)))
    return SupportData(arcs, isolated, f.support())


# -- interval machinery ------------------------------------------------------


def standard_subdivision(p: Dyadic, q: Dyadic) -> list[tuple[Dyadic, int]]:
    """Greedy partition of [p, q] into standard intervals [m/2^k, (m+1)/2^k].

    Returns (start, k) pairs; each piece has length 2**-k.
    """
    if not p < q:
        raise ValueError("empty interval")
    out = []
    cur = p
    guard = 0
    while cur < q:
        d = q - cur
        k_fit = max(0, d.exp - d.num.bit_length() + 1)
        k = max(cur.exp, k_fit)
        out.append((cur, k))
        cur = cur + Dyadic(1, k)
        guard += 1
        if guard > 10_000:
            raise RuntimeError("subdivision failed to terminate")
    return out


def _equalize(a: list[tuple[Dyadic, int]], b: list[tuple[Dyadic, int]]):
    def split_largest(lst):
        k_min = min(k for _, k in lst)
        i = next(i for i, (_, k) in enumerate(lst) if k == k_min)
        start, k = lst[i]
        lst[i : i + 1] = [(start, k + 1), (start + Dyadic(1, k + 1), k + 1)]

    while len(a) < len(b):
        split_largest(a)
    while len(b) < len(a):
        split_largest(b)


def interval_map_pieces(p: Dyadic, q: Dyadic, r: Dyadic, s: Dyadic) -> list[Piece]:
    """Pieces of an increasing 2-power-slope PL bijection [p, q] -> [r, s]."""
    dom = standard_subdivision(p, q)
    ran = standard_subdivision(r, s)
    _equalize(dom, ran)
    pieces = []
    for (x, kx), (y, ky) in zip(dom, ran):
        slope_exp = kx - ky
        pieces.append((x, slope_exp, y - x.ldexp(slope_exp)))
    return pieces


def pl_map_through_points(points: Sequence[tuple[Dyadic, Dyadic]]) -> PLMap:
    """The circle map built cellwise through (x_i, y_i), x_0 = y_0 = 0, x_m = y_m = 1."""
    pts = [(Dyadic.coerce(x), Dyadic.coerce(y)) for x, y in points]
    if pts[0] != (ZERO, ZERO) or pts[-1] != (ONE, ONE):
        raise ValueError("point chain must run from (0,0) to (1,1)")
    pieces: list[Piece] = []
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if not (x0 < x1 and y0 < y1):
            raise ValueError("points must be strictly increasing")
        pieces.extend(interval_map_pieces(x0, x1, y0, y1))
    return PLMap(pieces)


def glue_segment(a: Dyadic, b: Dyadic, segment: Sequence[Piece]) -> PLMap:
    """Extend a PL bijection of [a, b] fixing both endpoints by the identity."""
    pieces: list[Piece] = []
    if a > ZERO:
        pieces.append((ZERO, 0, ZERO))
    pieces.extend(segment)
    if b < ONE:
        pieces.append((b, 0, ZERO))
    return PLMap(pieces)


class _Segment:
    """An increasing piecewise-affine bijection of closed dyadic intervals."""

    def __init__(self, pieces: Sequence[Piece], lo: Dyadic, hi: Dyadic):
        self.pieces = list(pieces)
        self.lo, self.hi = lo, hi
        self.lefts = [p[0] for p in self.pieces]
        self.values = [l.ldexp(s) + c for l, s, c in self.pieces]

    def index_at(self, t: Dyadic) -> int:
        i = bisect.bisect_right(self.lefts, t) - 1
        return min(max(i, 0), len(self.pieces) - 1)

    def __call__(self, t: Dyadic) -> Dyadic:
        _, s, c = self.pieces[self.index_at(t)]
        return t.ldexp(s) + c

    def slope_at(self, t: Dyadic) -> int:
        return self.pieces[self.index_at(t)][1]

    def inv(self, y: Dyadic) -> Dyadic:
        i = bisect.bisect_right(self.values, y) - 1
        i = min(max(i, 0), len(self.pieces) - 1)
        _, s, c = self.pieces[i]
        return (y - c).ldexp(-s)


def conjugate_into_interval(f: PLMap, a: Dyadic, b: Dyadic) -> PLMap:
    """Carry a point-0-stabilizing map into [a, b] along a 2-power-slope
    identification phi of [0, 1] with [a, b]; identity outside."""
    if not is_in_F(f):
        raise ValueError("only maps fixing 0 can be transported")
    a, b = Dyadic.coerce(a), Dyadic.coerce(b)
    if not (ZERO <= a < b <= ONE):
        raise ValueError("need 0 <= a < b <= 1")
    phi = _Segment(interval_map_pieces(ZERO, ONE, a, b), ZERO, ONE)

    def f_seg(t: Dyadic) -> Dyadic:
        return f.eval_lift(t) if t < ONE else ONE

    def f_inv_seg(t: Dyadic) -> Dyadic:
        return f.eval_lift_inverse(t) if t < ONE else ONE

    # conj = phi o f o phi^{-1} breaks where phi^{-1} breaks, where f breaks,
    # and where the outer phi breaks
    cuts = {a, b}
    for left in phi.lefts:
        cuts.add(phi(left))
        cuts.add(phi(f_inv_seg(left)))
    for left, _, _ in f.pieces:
        cuts.add(phi(left))
    ordered = sorted(x for x in cuts if a <= x <= b)
    pieces: list[Piece] = []
    for i, x in enumerate(ordered[:-1]):
        x_next = ordered[i + 1]
        if not x < x_next:
            continue
        mid = (x + x_next).half()
        t = phi.inv(mid)
        slope_exp = phi.slope_at(f_seg(t)) + f.pieces[f.piece_index(t)][1] - phi.slope_at(t)
        val = phi(f_seg(phi.inv(x)))
        pieces.append((x, slope_exp, val - x.ldexp(slope_exp)))
    return glue_segment(a, b, pieces)


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
    alpha = Dyadic.coerce(alpha)
    beta = Dyadic.coerce(beta)
    if not (ZERO < alpha < ONE and ZERO < beta < ONE and alpha < beta):
        raise ValueError("target must be a proper open arc through 0")
    if region.is_full():
        raise ValueError("region must be a proper closed subset")
    if _inside_target(region, beta, alpha):
        return identity()

    a, b = _pick_gap(region)
    alpha0 = alpha if alpha <= a else a
    beta0 = beta if beta >= b else b
    alpha_p = alpha0.half()
    beta_p = (beta0 + 1).half()
    if not ZERO < alpha_p < a < b < beta_p < ONE:
        raise RuntimeError("the contraction windows must nest inside the circle")

    n = 1
    while True:
        lhs1 = (a - alpha_p).ldexp(-n)
        lhs2 = (beta_p - b).ldexp(-n)
        if lhs1 < alpha0 - alpha_p and lhs2 < beta_p - beta0:
            break
        n += 1
        if n > 4096:
            raise RuntimeError("no contraction depth found")

    c1 = alpha_p - alpha_p.ldexp(-n)
    c2 = beta_p - beta_p.ldexp(-n)
    ga = a.ldexp(-n) + c1
    gb = b.ldexp(-n) + c2
    pieces: list[Piece] = [(ZERO, 0, ZERO), (alpha_p, -n, c1)]
    pieces.extend(interval_map_pieces(a, b, ga, gb))
    pieces.append((b, -n, c2))
    pieces.append((beta_p, 0, ZERO))
    g = PLMap(pieces)
    if not in_derived_F(g):
        raise RuntimeError("compressor must lie in the derived group")
    if not _inside_target(region.image(g), beta, alpha):
        raise RuntimeError("compressed region must land inside the target")
    return g


def _pick_gap(region: ArcSet) -> tuple[Dyadic, Dyadic]:
    """A dyadic open arc ]a, b[ with 0 < a < b < 1 inside the complement."""
    comps = region.complement_components()
    if not comps:
        raise ValueError("region must be a proper closed subset")
    s, e = comps[0]
    if s < ONE < e:
        # the gap straddles 0: keep the part just above 0
        width = e - 1
        return width.ldexp(-2), width.half()
    if s == ZERO:
        width = e - s
        return width.ldexp(-2), width.half()
    width = e - s
    return s + width.ldexp(-2), s + width.half()


def _inside_target(region: ArcSet, beta: Dyadic, alpha: Dyadic) -> bool:
    """Is the closed region strictly inside the open arc beta -> 0 -> alpha?"""
    if region.is_empty():
        return True
    if region.is_full():
        return False
    for s, e in region.glued():
        length = e - s
        if s > beta:
            s2 = s
        elif s < beta:
            s2 = s + 1
        else:
            return False
        if not s2 + length < alpha + 1:
            return False
    return True


def expanding_conjugator(n: int) -> PLMap:
    """A map trivial near 0 sending [1/4, 1/2] onto [2^-n-2, 1 - 2^-n-2]."""
    if n < 1:
        raise ValueError("n must be >= 1")
    delta = Dyadic(1, n + 3)
    lo = Dyadic(1, n + 2)
    hi = ONE - Dyadic(1, n + 2)
    return pl_map_through_points(
        [
            (ZERO, ZERO),
            (delta, delta),
            (Dyadic(1, 2), lo),
            (Dyadic(1, 1), hi),
            (ONE - delta, ONE - delta),
            (ONE, ONE),
        ]
    )

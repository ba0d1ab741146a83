"""Piecewise-linear circle homeomorphisms with dyadic breakpoints and 2-power slopes.

The circle is R/Z with fundamental domain [0, 1).  A map is stored through its
canonical lift F : [0, 1] -> [F(0), F(0) + 1], an increasing piecewise-affine
bijection with F(0) in [0, 1).  Pieces are (left, slope_exp, intercept) with
F(t) = 2**slope_exp * t + intercept on [left, next_left].  All breakpoints and
intercepts are dyadic, so composition, inversion and equality are exact.

Maps fixing the point 0 with this slope/breakpoint discipline form the group
usually written F; arbitrary such circle maps form T.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .kernel import GroupElement
from .scalars import Dyadic, ZERO, ONE

Piece = tuple[Dyadic, int, Dyadic]


class PLMap(GroupElement):
    __slots__ = ("pieces", "lefts", "_values")

    def __init__(self, pieces: Sequence[Piece]):
        merged = _merge_pieces(pieces)
        object.__setattr__(self, "pieces", merged)
        object.__setattr__(self, "lefts", [p[0] for p in merged])
        vals = []
        for left, s, c in merged:
            vals.append(left.ldexp(s) + c)
        object.__setattr__(self, "_values", vals)
        self._validate()

    def __setattr__(self, name, value):
        raise AttributeError("PLMap is immutable")

    def _validate(self):
        ps = self.pieces
        if not ps:
            raise ValueError("a map needs at least one piece")
        if ps[0][0] != ZERO:
            raise ValueError("first piece must start at 0")
        c0 = self.lift_at_zero()
        if not (ZERO <= c0 < ONE):
            raise ValueError("lift offset must lie in [0, 1)")
        prev_right_val: Optional[Dyadic] = None
        for i, (left, s, c) in enumerate(ps):
            right = ps[i + 1][0] if i + 1 < len(ps) else ONE
            if not (left < right):
                raise ValueError("breakpoints must increase")
            if not (ZERO <= left < ONE):
                raise ValueError("breakpoints must lie in [0, 1)")
            if prev_right_val is not None and left.ldexp(s) + c != prev_right_val:
                raise ValueError(f"discontinuity at {left}")
            prev_right_val = right.ldexp(s) + c
        if prev_right_val != c0 + 1:
            raise ValueError("lift must satisfy F(1) = F(0) + 1")

    # -- basic queries ---------------------------------------------------

    def lift_at_zero(self) -> Dyadic:
        left, s, c = self.pieces[0]
        return c

    def piece_index(self, x: Dyadic) -> int:
        """Rightmost piece whose left endpoint is <= x, for x in [0, 1)."""
        return bisect.bisect_right(self.lefts, x) - 1

    def eval_lift(self, t: Dyadic) -> Dyadic:
        """The Z-periodic extension of the lift, F(t + k) = F(t) + k."""
        k = t.floor()
        x = t - k
        left, s, c = self.pieces[self.piece_index(x)]
        return x.ldexp(s) + c + k

    def __call__(self, x: Dyadic) -> Dyadic:
        """Image of the circle point x, reduced into [0, 1)."""
        return self.eval_lift(Dyadic.coerce(x).frac()).frac()

    def eval_lift_inverse(self, y: Dyadic) -> Dyadic:
        """Preimage of y under the periodic lift."""
        c0 = self.lift_at_zero()
        shift = 0
        while not (c0 <= y - shift):
            shift -= 1
        while not (y - shift < c0 + 1):
            shift += 1
        y0 = y - shift
        i = bisect.bisect_right(self._values, y0) - 1
        i = min(max(i, 0), len(self.pieces) - 1)
        left, s, c = self.pieces[i]
        return (y0 - c).ldexp(-s) + shift

    # -- group structure ---------------------------------------------------

    def __mul__(self, other: "PLMap") -> "PLMap":
        """Composition self o other (apply other first)."""
        if not isinstance(other, PLMap):
            return NotImplemented
        g, f = other, self
        bps = set(g.lefts)
        g0 = g.lift_at_zero()
        for ell in f.lefts:
            for k in (0, 1):
                y = ell + k
                if g0 < y < g0 + 1:
                    bps.add(g.eval_lift_inverse(y))
        cuts = sorted(bps)
        pieces: list[Piece] = []
        for idx, x in enumerate(cuts):
            x_next = cuts[idx + 1] if idx + 1 < len(cuts) else ONE
            mid = (x + x_next).half()
            gy = g.eval_lift(mid)
            ky = gy.floor()
            j = f.piece_index(gy - ky)
            s_f = f.pieces[j][1]
            s_g = g.pieces[g.piece_index(x)][1]
            s = s_f + s_g
            value_at_x = f.eval_lift(g.eval_lift(x))
            pieces.append((x, s, value_at_x - x.ldexp(s)))
        offset = pieces[0][2].floor()
        if offset:
            pieces = [(l, s, c - offset) for (l, s, c) in pieces]
        return PLMap(pieces)

    def inverse(self) -> "PLMap":
        c0 = self.lift_at_zero()
        out: list[Piece] = []
        # lift of the inverse: G^{-1}(t + 1) on [0, c0], G^{-1}(t) + 1 on [c0, 1]
        for i, (left, s, c) in enumerate(self.pieces):
            v_lo = self._values[i]
            v_hi = self._values[i + 1] if i + 1 < len(self.pieces) else c0 + 1
            lo = max(v_lo, ONE) - 1
            hi = min(v_hi, c0 + 1) - 1
            if lo < hi:
                out.append((lo, -s, (ONE - c).ldexp(-s)))
        for i, (left, s, c) in enumerate(self.pieces):
            v_lo = self._values[i]
            v_hi = self._values[i + 1] if i + 1 < len(self.pieces) else c0 + 1
            lo = max(v_lo, c0)
            hi = min(v_hi, ONE)
            if lo < hi:
                out.append((lo, -s, (-c).ldexp(-s) + 1))
        out.sort(key=lambda p: p[0])
        offset = out[0][2].floor() if out[0][0] == ZERO else 0
        if offset:
            out = [(l, s, c - offset) for (l, s, c) in out]
        return PLMap(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLMap):
            return NotImplemented
        return self.pieces == other.pieces

    def __hash__(self):
        return hash(tuple((l.key(), s, c.key()) for l, s, c in self.pieces))

    def canonical_key(self) -> tuple:
        return tuple((l.key(), s, c.key()) for l, s, c in self.pieces)

    def is_identity(self) -> bool:
        return self.pieces == ((ZERO, 0, ZERO),)

    def __repr__(self):
        bits = ", ".join(f"[{l}: 2^{s} t + {c}]" for l, s, c in self.pieces)
        return f"PLMap({bits})"

    # -- regions and germs ----------------------------------------------------

    def support(self) -> "ArcSet":
        """The closure of the moved set."""
        return support_fix(self).support

    def identity_on(self, region: "ArcSet") -> bool:
        """Exact check that the map restricted to the closed region is the identity."""
        for lo, hi in region.arcs:
            if lo == hi:
                if self(lo) != lo.frac():
                    return False
                continue
            i = self.piece_index(lo)
            while True:
                left, s, c = self.pieces[i]
                right = self.pieces[i + 1][0] if i + 1 < len(self.pieces) else ONE
                seg_lo = max(left, lo)
                seg_hi = min(right, hi)
                if seg_lo < seg_hi and not (s == 0 and c.is_integer()):
                    return False
                if right >= hi or i + 1 >= len(self.pieces):
                    break
                i += 1
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


def _merge_pieces(pieces: Iterable[Piece]) -> tuple[Piece, ...]:
    out: list[Piece] = []
    for left, s, c in pieces:
        left = Dyadic.coerce(left)
        c = Dyadic.coerce(c)
        if out and out[-1][1] == s and out[-1][2] == c:
            continue
        out.append((left, s, c))
    return tuple(out)


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
    return f.lift_at_zero() == ZERO


@dataclass(frozen=True)
class GermData:
    left_slope_exp: int
    left_identity: bool
    right_slope_exp: int
    right_identity: bool


def germ_data(f: PLMap, x: Dyadic) -> GermData:
    """One-sided germs of f at the circle point x."""
    x = Dyadic.coerce(x).frac()
    ri = f.piece_index(x)
    r_left, r_s, r_c = f.pieces[ri]
    right_identity = r_s == 0 and r_c.is_integer()
    if x == ZERO:
        l_left, l_s, l_c = f.pieces[-1]
    else:
        li = bisect.bisect_left(f.lefts, x) - 1
        if li < 0:
            li = 0
        l_left, l_s, l_c = f.pieces[li]
    left_identity = l_s == 0 and l_c.is_integer()
    return GermData(l_s, left_identity, r_s, right_identity)


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
    fixed: list[tuple[Dyadic, Dyadic]] = []
    points: set[Fraction] = set()
    for i, (left, s, c) in enumerate(f.pieces):
        right = f.pieces[i + 1][0] if i + 1 < len(f.pieces) else ONE
        if s == 0:
            if c.is_integer():
                fixed.append((left, right))
            continue
        slope = Fraction(2) ** s
        for k in (0, 1):
            t = (Fraction(k) - c.as_fraction()) / (slope - 1)
            if left.as_fraction() <= t <= right.as_fraction():
                points.add(t % 1)
    arcs = ArcSet(fixed)
    isolated = tuple(sorted(p for p in points if not arcs.contains_fraction(p)))
    if arcs.is_empty():
        support = ArcSet.full()
    elif arcs.is_full():
        support = ArcSet.empty()
    else:
        gaps = arcs.complement_components()
        support_arcs = []
        for s_, e_ in gaps:
            if e_ <= ONE:
                support_arcs.append((s_, e_))
            else:
                support_arcs.append((s_, ONE))
                support_arcs.append((ZERO, e_ - 1))
        support = ArcSet(support_arcs)
    return SupportData(arcs, isolated, support)


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
    for left in f.lefts:
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

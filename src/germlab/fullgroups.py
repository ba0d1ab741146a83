"""Topological full group of the dyadic odometer.

A point of the Cantor set {0,1}^N is a cantorv.EventuallyPeriodic: its
digits d0 d1 d2 ... are read as the 2-adic integer sum(d_k * 2^k), and the
odometer (add one with carry) is EventuallyPeriodic + 1.

Clopen subsets are cantorv.Cylinders: finite unions of cylinders
C_w = {x : x starts with w}; translate(n), the image under x -> x + n, adds
n to each word read as a 2-adic integer.  Elements of the full group carry
a finite table of (clopen piece, integer shift) pairs, checked by a sorted
sweep per side and an integer Kraft sum, and composed word by word.  The
Schreier patch of an orbit is a set of integers whose graph distances come
from a greedy sweep.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction

from .cantorv import Cylinders, complete_code, meeting, translate_word, word_to_int
from .kernel import GroupElement, Immutable, check_budget

# callers that import the clopen type from this module
Clopen = Cylinders


def _first_meeting(words):
    """The least pair (s, t), s < t, of pieces whose cylinders meet, from
    (word, piece name) pairs; None when the pieces are disjoint.

    In sorted order the words that start a word w are the ones left on a
    stack of prefixes, so one sweep meets every such pair.
    """
    pairs, stack = [], []
    for w, i in sorted(words):
        while stack and not w.startswith(stack[-1][0]):
            stack.pop()
        pairs += [(min(i, j), max(i, j)) for _, j in stack]
        stack.append((w, i))
    return min(pairs, default=None)


class FullGroupElement(GroupElement):
    """A homeomorphism locally equal to odometer powers.

    Built from (clopen piece, shift) pairs; the element sends x to
    x + shift on each piece, and both the pieces and their images must
    partition the space.  table keeps one (shift, piece) pair per shift,
    in shift order, and _cells the (word, shift) pairs in word order.
    ``__init__`` and ``from_json`` check the shifts and both partitions;
    products and inverses, partitions with one piece per shift by
    construction, only drop empty pieces and sort by shift.
    """

    __slots__ = ("table", "_cells")
    region_type = Cylinders

    def __init__(self, table):
        by_shift = {}
        for piece, shift in table:
            if type(shift) is not int:
                raise ValueError("shifts must be integers")
            by_shift.setdefault(shift, []).append(piece)
        # a shift's only piece is already reduced, so it is kept as it is
        self._set((shift, same[0] if len(same) == 1 else
                   Cylinders(w for p in same for w in p.words)) for shift, same in by_shift.items())
        # the pieces are in shift order, so shifts name them in the same order
        cells = self._cells
        domain = _first_meeting(cells)
        image = _first_meeting([(translate_word(w, shift), shift) for w, shift in cells])
        # the first meeting pair of pieces names the side, the domain first
        if domain is not None and (image is None or domain <= image):
            raise ValueError("domain pieces overlap")
        if image is not None:
            raise ValueError("image pieces overlap")
        # translation keeps measure, so the images cover when the pieces do
        if not complete_code(w for w, _ in cells):
            raise ValueError("pieces must partition the space")

    def _set(self, pieces):
        """Store (shift, piece) pairs of distinct shifts, empty pieces dropped,
        without __init__'s checks."""
        table = tuple(sorted((shift, piece) for shift, piece in pieces if piece.words))
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_cells", tuple(sorted(
            (w, shift) for shift, piece in table for w in piece.words)))
        return self

    @classmethod
    def identity(cls):
        return cls(((Cylinders.full(), 0),))

    def shift_at(self, point):
        return meeting(self._cells, point.digits(max(len(w) for w, _ in self._cells)))[0][1]

    def __call__(self, point):
        return point + self.shift_at(point)

    def _meets(self, w):
        """(meet, shift) for each cell meeting C_w: of two words that meet,
        the longer one spans the meet."""
        return [(v if len(v) > len(w) else w, shift) for v, shift in meeting(self._cells, w)]

    def __mul__(self, other):
        """Composition self o other: each cell of other, moved by its shift,
        is cut by self's cells and pulled back."""
        if not isinstance(other, FullGroupElement):
            return NotImplemented
        by_shift = {}
        for v, first in other._cells:
            for meet, second in self._meets(translate_word(v, first)):
                by_shift.setdefault(first + second, []).append(translate_word(meet, -first))
        return object.__new__(FullGroupElement)._set(
            (shift, object.__new__(Cylinders)._set(words)) for shift, words in by_shift.items())

    def inverse(self):
        return object.__new__(FullGroupElement)._set(
            (-shift, piece.translate(shift)) for shift, piece in self.table)

    def is_identity(self):
        return all(shift == 0 for shift, _ in self.table)

    # -- regions and germs ----------------------------------------------------

    def support(self):
        """Exact support: the action is free, so nonzero pieces never fix."""
        return Cylinders(w for shift, piece in self.table if shift for w in piece.words)

    def image_words(self, w):
        """The image of C_w as a list of cylinder words."""
        return [translate_word(meet, shift) for meet, shift in self._meets(w)]

    def identity_on(self, region):
        return all(shift == 0 for w in region.words for _, shift in meeting(self._cells, w))

    def germ_trivial_at(self, point):
        # the action is free: trivial near a point exactly when it is fixed
        return self.shift_at(point) == 0

    def __eq__(self, other):
        return isinstance(other, FullGroupElement) and self.table == other.table

    def __hash__(self):
        return hash(("FullGroupElement", self.table))

    def __repr__(self):
        return "FullGroupElement(%s)" % ", ".join(
            "%r: %+d" % (piece.words, shift) for shift, piece in self.table
        )

    def to_json(self):
        return {"pieces": [{"words": list(piece.words), "shift": shift}
                           for shift, piece in self.table]}

    @classmethod
    def from_json(cls, data):
        if not all(isinstance(entry["words"], list) for entry in data["pieces"]):
            raise ValueError("piece words must be a list of words")
        return cls(tuple((Cylinders(entry["words"]), entry["shift"]) for entry in data["pieces"]))


def gamma_tv(t, v):
    """The involution x+t on v, x-t on v+t, identity elsewhere."""
    if t == 0:
        raise ValueError("t must be nonzero")
    if v.is_empty():
        raise ValueError("v must be nonempty")
    image = v.translate(t)
    if not v.disjoint_from(image):
        raise ValueError("not admissible: v + %d meets v" % t)
    rest = v.union(image).complement()
    return FullGroupElement(((v, t), (image, -t), (rest, 0)))


def return_set(u):
    """A finite T: from any point, some t in T lands in u.

    Membership in u only depends on the first L digits, and those digits
    advance through all residues mod 2^L along the orbit, so the minimal
    first-entry times per residue class give T with max(T) < 2^L.  From
    residue r the orbit enters C_w first after (w - r) mod 2^|w| steps,
    reading w as its 2-adic integer.
    """
    if u.is_empty():
        raise ValueError("u must be nonempty")
    length = u.max_length()
    check_budget(1 << length, "2^%d residues" % length)
    targets = [(word_to_int(w), 1 << len(w)) for w in u.words]
    return tuple(sorted({min((w - r) % m for w, m in targets) for r in range(1 << length)}))


class SchreierPatch(Immutable):
    """A finite window of the graph on {n : x + n in u}.

    Distances in the acting copy of Z are word-metric distances for the
    generating set {-s, ..., -1, 1, ..., s} with s = s_bound, i.e.
    d(y, z) = ceil(|y - z| / s_bound).  Vertices at d <= 3, at most
    3 * s_bound apart, are joined: on the sorted vertices a greedy sweep,
    not a breadth-first search, gives the graph distances.
    """

    __slots__ = ("u", "x", "radius", "s_bound", "vertices", "edges")

    def __init__(self, u, s_bound, x, radius):
        if not u.contains_point(x):
            raise ValueError("base point must lie in u")
        if s_bound < 1 or radius < 1:
            raise ValueError("s_bound and radius must be positive")
        # x + n lies in C_w when n = w - x mod 2^|w|, reading the digits as
        # 2-adic integers: one arithmetic progression per word
        low = word_to_int(x.digits(u.max_length()))
        lines = [range((word_to_int(w) - low + radius) % (1 << len(w)) - radius,
                       radius + 1, 1 << len(w)) for w in u.words]
        size = sum(map(len, lines))
        check_budget(size, "%d vertices" % size)
        vertices = tuple(sorted(n for line in lines for n in line))
        # vertex i is joined to the ones after it, up to ends[i]
        ends = [bisect_right(vertices, a + 3 * s_bound) for a in vertices]
        joined = sum(ends) - size * (size + 1) // 2
        check_budget(joined, "%d edges" % joined)
        edges = tuple((a, b) for i, a in enumerate(vertices) for b in vertices[i + 1 : ends[i]])
        for name, value in zip(self.__slots__, (u, x, radius, s_bound, vertices, edges)):
            object.__setattr__(self, name, value)

    def graph_distances(self, source):
        """Graph distance from source to every vertex it reaches."""
        if source not in self.vertices:
            return {source: 0}
        i, reach = self.vertices.index(source), 3 * self.s_bound
        left, right = self.vertices[i::-1], self.vertices[i:]
        dist = dict(zip(left, _sweep([-v for v in left], reach)))
        dist.update(zip(right, _sweep(right, reach)))
        return dist

    def _bound(self, margin):
        return self.radius - (3 * self.radius // 4 if margin is None else margin)

    def interior(self, margin=None):
        bound = self._bound(margin)
        return tuple(n for n in self.vertices if abs(n) <= bound)

    def one_density_holds(self, margin=None):
        """Every group element in the window is one S-step from a vertex:
        the vertices' [v - s, v + s] leave no gap in [-bound, bound]."""
        s, bound = self.s_bound, self._bound(margin)
        # the least element of the window not yet within s of a vertex
        gap = -bound
        for v in self.vertices:
            if gap > bound or v - s > gap:
                break
            gap = max(gap, v + s + 1)
        return gap > bound

    def to_dot(self):
        lines = ["graph schreier_patch {"]
        for v in self.vertices:
            lines.append('  "%d";' % v)
        for a, b in self.edges:
            lines.append('  "%d" -- "%d";' % (a, b))
        lines.append("}")
        return "\n".join(lines) + "\n"


def _sweep(line, reach):
    """Graph distances from line[0] along sorted vertices joined when at
    most reach apart, up to the first wider gap.

    A farthest jump is a shortest path, so distance k + 1 holds the
    vertices after the last one at distance k and at most reach beyond it.
    """
    out, k = [], 0
    bound = last = line[0]
    for v in line:
        if v > bound:
            k, bound = k + 1, last + reach
            if v > bound:
                break
        out.append(k)
        last = v
    return out


def schreier_patch(u, s_bound, x, radius):
    return SchreierPatch(u, s_bound, x, radius)


def quasi_isometry_check(patch, margin=None):
    """Verify delta <= d <= 3*delta on interior vertex pairs.

    Returns a report dict with every violating pair (empty on success) and
    the maximal ratio d/delta reached, as an exact fraction string.  The
    interior is a run of consecutive vertices, so shortest paths between
    them stay inside it, and one sweep from each gives every delta.

    The vertices repeat with period P = 2^(longest word of u): with m
    interior vertices per period, vertex i + m is vertex i moved by P, and
    its sweep is vertex i's cut short at the end of the interior.  So only
    the first m vertices are swept, in O(m n) steps for n interior
    vertices, and the other rows are translated in the same order.  The
    sweep steps and then the violating pairs are counted against
    GERMLAB_BUDGET before either is made.
    """
    inner, s = patch.interior(margin), patch.s_bound
    n, period = len(inner), 1 << patch.u.max_length()
    m = bisect_left(inner, inner[0] + period) if inner else 0
    steps = m * n - m * (m - 1) // 2
    check_budget(steps, "%d sweep steps" % steps)
    top, bottom = 0, 1
    rows = []  # per swept vertex: (offset, violation) in offset order
    for i in range(m):
        y = inner[i]
        dist = _sweep(inner[i:], 3 * s)
        row = []
        for t in range(1, len(dist)):
            delta, d = dist[t], -(-(inner[i + t] - y) // s)
            if not delta <= d <= 3 * delta:
                row.append((t, {"ambient": d, "graph": delta}))
            elif d * bottom > top * delta:
                top, bottom = d, delta
        row += ((t, {"reason": "disconnected"}) for t in range(len(dist), n - i))
        rows.append(row)
    # vertex i's row is vertex i % m's, cut at its own length n - i
    offsets = [[t for t, _ in row] for row in rows]
    kept = [bisect_left(offsets[i % m], n - i) for i in range(n)]
    count = sum(kept)
    check_budget(count, "%d violating pairs" % count)
    violations = [{"pair": [y, inner[i + t]], **found}
                  for i, y in enumerate(inner) for t, found in rows[i % m][:kept[i]]]
    max_ratio = Fraction(top, bottom)
    return {
        "interior_vertices": n,
        "pairs": n * (n - 1) // 2,
        "violations": violations,
        "max_ratio": "%d/%d" % (max_ratio.numerator, max_ratio.denominator),
        "one_dense": patch.one_density_holds(margin),
    }

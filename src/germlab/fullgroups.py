"""Topological full group of the dyadic odometer.

A point of the Cantor set {0,1}^N with digits d0 d1 d2 ... is encoded as
the 2-adic value sum(d_k * 2^k).  Eventually periodic digit sequences are
exactly the rationals with odd denominator, and the odometer (add one with
carry) becomes literal rational addition, so every orbit computation here
is plain Fraction arithmetic.

Clopen subsets are cantorv.Cylinders: finite unions of cylinders
C_w = {x : x starts with w}, whose translate(n) is the image under x -> x + n.
Elements of the full group carry a finite table of (clopen piece, integer
shift) pairs.
"""

from fractions import Fraction

from .cantorv import Cylinders, int_to_word, word_to_int
from .chabauty import BudgetError, element_budget
from .kernel import GroupElement

# callers that import the clopen type from this module
Clopen = Cylinders


class OdometerPoint:
    """An eventually periodic binary sequence, stored as its 2-adic value."""

    __slots__ = ("value",)

    def __init__(self, value):
        value = Fraction(value)
        if value.denominator % 2 == 0:
            raise ValueError("odometer points have odd denominator")
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("OdometerPoint is immutable")

    @classmethod
    def from_digits(cls, preperiod, period="0"):
        if not period:
            raise ValueError("period must be nonempty")
        head = word_to_int(preperiod)
        body = word_to_int(period)
        a, b = len(preperiod), len(period)
        return cls(head + Fraction((1 << a) * body, 1 - (1 << b)))

    @classmethod
    def parse(cls, text):
        """Parse "preperiod,period", e.g. "11,0" for 110^inf."""
        if "," not in text:
            raise ValueError("point format is preperiod,period")
        pre, per = text.split(",", 1)
        return cls.from_digits(pre, per)

    def digits(self, n):
        if n == 0:
            return ""
        p, q = self.value.numerator, self.value.denominator
        r = p * pow(q, -1, 1 << n) % (1 << n)
        return int_to_word(r, n)

    def preperiod_period(self):
        seen = {}
        digits = []
        y = self.value
        while y not in seen:
            seen[y] = len(digits)
            d = y.numerator % 2
            digits.append(d)
            y = (y - d) / 2
        cut = seen[y]
        joined = "".join(str(d) for d in digits)
        return joined[:cut], joined[cut:]

    def __add__(self, n):
        return OdometerPoint(self.value + n)

    def __sub__(self, n):
        return OdometerPoint(self.value - n)

    def __eq__(self, other):
        return isinstance(other, OdometerPoint) and self.value == other.value

    def __hash__(self):
        return hash(("OdometerPoint", self.value))

    def __repr__(self):
        pre, per = self.preperiod_period()
        return "OdometerPoint(%r, %r)" % (pre, per)


class FullGroupElement(GroupElement):
    """A homeomorphism locally equal to odometer powers.

    The table lists (clopen piece, shift) pairs; the element sends x to
    x + shift on each piece.  Both the pieces and their images must
    partition the space.
    """

    __slots__ = ("table",)

    def __init__(self, table):
        by_shift = {}
        for piece, shift in table:
            if not isinstance(shift, int):
                raise ValueError("shifts must be integers")
            by_shift.setdefault(shift, []).extend(piece.words)
        pieces = sorted(
            (shift, Cylinders(words)) for shift, words in by_shift.items() if words
        )
        images = [piece.translate(shift) for shift, piece in pieces]
        for i, (_, piece) in enumerate(pieces):
            for j in range(i + 1, len(pieces)):
                if not piece.disjoint_from(pieces[j][1]):
                    raise ValueError("domain pieces overlap")
                if not images[i].disjoint_from(images[j]):
                    raise ValueError("image pieces overlap")
        if (sum(piece.measure() for _, piece in pieces) != 1
                or sum(image.measure() for image in images) != 1):
            raise ValueError("pieces must partition the space")
        object.__setattr__(self, "table", tuple((shift, piece) for shift, piece in pieces))

    def __setattr__(self, name, value):
        raise AttributeError("FullGroupElement is immutable")

    @classmethod
    def identity(cls):
        return cls(((Cylinders.full(), 0),))

    def shift_at(self, point):
        for shift, piece in self.table:
            if piece.contains_point(point):
                return shift
        raise AssertionError("pieces partition the space")

    def __call__(self, point):
        return point + self.shift_at(point)

    def __mul__(self, other):
        """Composition self o other: refine other's images by self's pieces."""
        if not isinstance(other, FullGroupElement):
            return NotImplemented
        table = []
        for first, piece in other.table:
            image = piece.translate(first)
            for second, target in self.table:
                meet = image.intersect(target)
                if not meet.is_empty():
                    table.append((meet.translate(-first), first + second))
        return FullGroupElement(table)

    def inverse(self):
        return FullGroupElement(
            tuple((piece.translate(shift), -shift) for shift, piece in self.table)
        )

    def is_identity(self):
        return all(shift == 0 for shift, _ in self.table)

    def support(self):
        """Exact support: the action is free, so nonzero pieces never fix."""
        return Cylinders(w for shift, piece in self.table if shift for w in piece.words)

    def __eq__(self, other):
        return isinstance(other, FullGroupElement) and self.table == other.table

    def __hash__(self):
        return hash(("FullGroupElement", self.table))

    def __repr__(self):
        return "FullGroupElement(%s)" % ", ".join(
            "%r: %+d" % (piece.words, shift) for shift, piece in self.table
        )

    def to_json(self):
        return {
            "pieces": [
                {"words": list(piece.words), "shift": shift}
                for shift, piece in self.table
            ]
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            tuple(
                (Cylinders(entry["words"]), int(entry["shift"]))
                for entry in data["pieces"]
            )
        )


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


def return_set(u, shift=0):
    """A finite T: from any point, some t in T (plus shift) lands in u.

    Membership in u only depends on the first L digits, and those digits
    advance through all residues mod 2^L along the orbit, so the minimal
    first-entry times per residue class give T with max(T) < 2^L.  From
    residue r the orbit enters C_w first after (w - r) mod 2^|w| steps,
    reading w as its 2-adic integer.
    """
    if u.is_empty():
        raise ValueError("u must be nonempty")
    length = u.max_length()
    limit = element_budget()
    if 1 << length > limit:
        raise BudgetError(
            "2^%d residues exceed the %d-element budget" % (length, limit))
    targets = [(word_to_int(w), 1 << len(w)) for w in u.words]
    times = {
        min((w - r) % m for w, m in targets) + shift for r in range(1 << length)
    }
    return tuple(sorted(times))


class SchreierPatch:
    """A finite window of the graph on {n : x + n in u}.

    Distances in the acting copy of Z are word-metric distances for the
    generating set {-s, ..., -1, 1, ..., s} with s = s_bound, i.e.
    d(y, z) = ceil(|y - z| / s_bound).  Vertices at d <= 3 are joined.
    """

    __slots__ = ("u", "x", "radius", "s_bound", "vertices", "edges")

    def __init__(self, u, s_bound, x, radius):
        if not u.contains_point(x):
            raise ValueError("base point must lie in u")
        if s_bound < 1 or radius < 1:
            raise ValueError("s_bound and radius must be positive")
        vertices = tuple(
            n for n in range(-radius, radius + 1) if u.contains_point(x + n)
        )
        edges = tuple(
            (a, b)
            for i, a in enumerate(vertices)
            for b in vertices[i + 1 :]
            if 0 < b - a <= 3 * s_bound
        )
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "s_bound", s_bound)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def __setattr__(self, name, value):
        raise AttributeError("SchreierPatch is immutable")

    def ambient_distance(self, y, z):
        return -(-abs(y - z) // self.s_bound)

    def graph_distances(self, source):
        dist = {source: 0}
        frontier = [source]
        adjacency = {}
        for a, b in self.edges:
            adjacency.setdefault(a, []).append(b)
            adjacency.setdefault(b, []).append(a)
        while frontier:
            nxt = []
            for v in frontier:
                for w in adjacency.get(v, ()):
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def interior(self, margin=None):
        if margin is None:
            margin = 3 * self.radius // 4
        bound = self.radius - margin
        return tuple(n for n in self.vertices if abs(n) <= bound)

    def one_density_holds(self, margin=None):
        """Every group element in the window is one S-step from a vertex."""
        if margin is None:
            margin = 3 * self.radius // 4
        bound = self.radius - margin
        for m in range(-bound, bound + 1):
            if not any(abs(m - v) <= self.s_bound for v in self.vertices):
                return False
        return True

    def to_dot(self):
        lines = ["graph schreier_patch {"]
        for v in self.vertices:
            lines.append('  "%d";' % v)
        for a, b in self.edges:
            lines.append('  "%d" -- "%d";' % (a, b))
        lines.append("}")
        return "\n".join(lines) + "\n"


def schreier_patch(u, s_bound, x, radius):
    return SchreierPatch(u, s_bound, x, radius)


def quasi_isometry_check(patch, margin=None):
    """Verify delta <= d <= 3*delta on interior vertex pairs.

    Returns a report dict with every violating pair (empty on success) and
    the maximal ratio d/delta reached, as an exact fraction string.
    """
    inner = patch.interior(margin)
    violations = []
    max_ratio = Fraction(0)
    pairs = 0
    for i, y in enumerate(inner):
        dist = patch.graph_distances(y)
        for z in inner[i + 1 :]:
            pairs += 1
            d = patch.ambient_distance(y, z)
            delta = dist.get(z)
            if delta is None:
                violations.append({"pair": [y, z], "reason": "disconnected"})
                continue
            if not delta <= d <= 3 * delta:
                violations.append(
                    {"pair": [y, z], "ambient": d, "graph": delta}
                )
                continue
            max_ratio = max(max_ratio, Fraction(d, delta))
    return {
        "interior_vertices": len(inner),
        "pairs": pairs,
        "violations": violations,
        "max_ratio": "%d/%d" % (max_ratio.numerator, max_ratio.denominator),
        "one_dense": patch.one_density_holds(margin),
    }

"""Prefix-exchange transformations of the binary Cantor space.

A map is given by a finite list of rules (w, z): every sequence starting
with w is sent to the same sequence with w replaced by z.  When the w's
and the z's each form a complete prefix code this defines a homeomorphism
of {0,1}^N.  Evaluation is exact on eventually periodic sequences, which
are also the points the odometer x -> x + 1 of fullgroups moves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Optional

from .chabauty import MarkedGroup
from .kernel import GroupElement, Immutable

GERM_FIXES = "fixes_neighbourhood"
GERM_ISOLATED = "isolated_fixed_point"
GERM_MOVES = "moves_x"


def _check_word(w: str) -> str:
    if not isinstance(w, str) or w.strip("01"):
        raise ValueError(f"not a binary word: {w!r}")
    return w


def sibling_path(w: str) -> list[str]:
    """The cylinders C_{w_1..w_{i-1} (1-w_i)} partitioning the complement of C_w."""
    return [w[:i] + ("1" if w[i] == "0" else "0") for i in range(len(w))]


def word_to_int(word: str) -> int:
    """The 2-adic integer whose low binary digits, lowest first, are word."""
    if word.strip("01"):
        raise ValueError("digit words use characters 0 and 1 only")
    return int(word[::-1], 2) if word else 0


def int_to_word(value: int, length: int) -> str:
    """The low length binary digits of value, lowest first."""
    return bin(value % (1 << length) | 1 << length)[:2:-1]


def translate_word(w: str, n: int) -> str:
    """The word of the cylinder C_w + n under the odometer power x -> x + n."""
    return int_to_word(word_to_int(w) + n, len(w))


def meeting(rules, w: str):
    r"""The entries of rules whose cylinders meet C_w, in order.

    rules is sorted by its first fields, which form a complete prefix
    code.  The one entry over w is the last one at or before w; else the
    entries under w follow it in one block, which ends before w + "2".
    No binary word sorts between w and w + "\0", nor equals w + "2", so
    the probes (w + "\0",) and (w + "2",) compare on the first field alone,
    whatever the type of the second.
    """
    k = bisect_right(rules, (w + "\0",))
    if k and w.startswith(rules[k - 1][0]):
        return rules[k - 1 : k]
    return rules[k : bisect_left(rules, (w + "2",), k)]


def complete_code(words: Iterable[str]) -> bool:
    """Prefix-free, as no word starts the next in sorted order, and
    complete, as the Kraft sum over 2^L is 2^L."""
    ws = sorted(words)
    if any(b.startswith(a) for a, b in zip(ws, ws[1:])):
        return False
    top = max(map(len, ws), default=0)
    return sum(1 << top - len(w) for w in ws) == 1 << top


class EventuallyPeriodic(Immutable):
    """A binary sequence u p p p ...; stored in a canonical form.

    The period is primitive and the preperiod does not end with the last
    letter of the (suitably rotated) period, so equal sequences compare
    equal structurally.
    """

    __slots__ = ("preperiod", "period")

    def __init__(self, preperiod: str, period: str):
        u = _check_word(preperiod)
        p = _check_word(period)
        if not p:
            raise ValueError("period must be nonempty")
        for d in range(1, len(p)):
            if len(p) % d == 0 and p == p[:d] * (len(p) // d):
                p = p[:d]
                break
        while u and u[-1] == p[-1]:
            u = u[:-1]
            p = p[-1] + p[:-1]
        object.__setattr__(self, "preperiod", u)
        object.__setattr__(self, "period", p)

    @staticmethod
    def parse(text: str) -> "EventuallyPeriodic":
        """Parse "u(p)" or "u,p", e.g. "01(10)" or "01,10" for 0 1 1 0 1 0 ..."""
        text = text.strip()
        if text.endswith(")") and text.count("(") == 1:
            u, p = text[:-1].split("(")
        elif text.count(",") == 1:
            u, p = text.split(",")
        else:
            raise ValueError(f"malformed point: {text!r}")
        return EventuallyPeriodic(u, p)

    def digits(self, n: int) -> str:
        u, p = self.preperiod, self.period
        if n <= len(u):
            return u[:n]
        reps = (n - len(u) + len(p) - 1) // len(p)
        return (u + p * reps)[:n]

    def shift(self, k: int) -> "EventuallyPeriodic":
        """Drop the first k digits."""
        u, p = self.preperiod, self.period
        if k <= len(u):
            return EventuallyPeriodic(u[k:], p)
        k = (k - len(u)) % len(p)
        return EventuallyPeriodic("", p[k:] + p[:k])

    def __add__(self, n: int) -> "EventuallyPeriodic":
        """The odometer power x -> x + n, the digits read as a 2-adic integer.

        n is added to a head u p^k long enough to hold it; the one carry
        out of the head (-1, 0 or +1) goes into the next copy of p, and
        only (0) - 1 = (1) and (1) + 1 = (0) pass it on for ever.
        """
        if not n:
            return self
        u, p = self.preperiod, self.period
        length = len(u) + len(p) * abs(n).bit_length()
        total = word_to_int(self.digits(length)) + n
        head, carry = int_to_word(total, length), total >> length
        if carry:
            value = word_to_int(p) + carry
            if value in (-1, 1 << len(p)):
                return EventuallyPeriodic(head, "1" if carry < 0 else "0")
            head += int_to_word(value, len(p))
        return EventuallyPeriodic(head, p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventuallyPeriodic):
            return NotImplemented
        return self.preperiod == other.preperiod and self.period == other.period

    def __hash__(self):
        return hash((self.preperiod, self.period))

    def __repr__(self):
        return f"EventuallyPeriodic({self.preperiod!r}, {self.period!r})"

    def __str__(self):
        return f"{self.preperiod}({self.period})"


ZERO_SEQ = EventuallyPeriodic("", "0")
ONE_SEQ = EventuallyPeriodic("", "1")


class Cylinders(Immutable):
    """A clopen subset of the Cantor space: a reduced antichain of words.

    Any finite word list is accepted: words lying under another one are
    dropped and sibling pairs u0, u1 are merged into u, so equal sets have
    equal (lexicographically sorted) words.
    """

    __slots__ = ("words",)

    def __init__(self, words: Iterable[str]):
        self._set(_check_word(w) for w in words)

    def _set(self, words: Iterable[str]) -> "Cylinders":
        """Store binary words reduced, without __init__'s word check;
        object.__new__(Cylinders)._set(words) builds from words already checked."""
        out: list[str] = []
        for w in sorted(set(words)):
            # in sorted order a covering word is the last one kept
            if out and w.startswith(out[-1]):
                continue
            out.append(w)
            # siblings are adjacent in sorted order; merge bottom-up
            while len(out) > 1 and out[-1].endswith("1") and out[-2] == out[-1][:-1] + "0":
                out.pop()
                out[-1] = out[-1][:-1]
        object.__setattr__(self, "words", tuple(out))
        return self

    @staticmethod
    def of(*words: str) -> "Cylinders":
        return Cylinders(words)

    @staticmethod
    def full() -> "Cylinders":
        return Cylinders([""])

    @staticmethod
    def empty() -> "Cylinders":
        return Cylinders([])

    @staticmethod
    def cells(max_depth: int):
        """Single cylinders, shortest first, then in word order."""
        for depth in range(1, max_depth + 1):
            for k in range(1 << depth):
                yield Cylinders.of(format(k, "0%db" % depth))

    @staticmethod
    def neighbourhoods(x, max_depth: int):
        """The cylinders around x, shrinking."""
        for depth in range(1, max_depth + 1):
            yield Cylinders.of(x.digits(depth))

    def is_empty(self) -> bool:
        return not self.words

    def is_full(self) -> bool:
        return self.words == ("",)

    def max_length(self) -> int:
        return max((len(w) for w in self.words), default=0)

    def measure(self) -> Fraction:
        return sum((Fraction(1, 1 << len(w)) for w in self.words), Fraction(0))

    def contains_word(self, w: str) -> bool:
        """Whole cylinder C_w inside this set."""
        return any(w.startswith(v) for v in self.words)

    def meets_word(self, w: str) -> bool:
        return any(w.startswith(v) or v.startswith(w) for v in self.words)

    def contains_point(self, x: EventuallyPeriodic) -> bool:
        """x lies in the set; points of PrefixMap and of fullgroups alike."""
        d = x.digits(self.max_length())
        return any(d.startswith(v) for v in self.words)

    def subset_of(self, other: "Cylinders") -> bool:
        return all(other.contains_word(w) for w in self.words)

    def disjoint_from(self, other: "Cylinders") -> bool:
        return not any(other.meets_word(w) for w in self.words)

    def union(self, other: "Cylinders") -> "Cylinders":
        return Cylinders(self.words + other.words)

    def complement(self) -> "Cylinders":
        out: list[str] = []
        stack = [""]
        while stack:
            w = stack.pop()
            if self.contains_word(w):
                continue
            if not self.meets_word(w):
                out.append(w)
                continue
            stack.append(w + "0")
            stack.append(w + "1")
        return Cylinders(out)

    def translate(self, n: int) -> "Cylinders":
        """Exact image under the odometer power x -> x + n.

        A word is read as the low binary digits of a 2-adic integer, and
        the low digits of x + n depend only on the low digits of x.
        """
        return object.__new__(Cylinders)._set(translate_word(w, n) for w in self.words)

    def image(self, f) -> "Cylinders":
        """The image under a PrefixMap or a FullGroupElement."""
        pieces: list[str] = []
        for w in self.words:
            pieces.extend(f.image_words(w))
        return Cylinders(pieces)

    def preimage(self, f) -> "Cylinders":
        return self.image(f.inverse())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cylinders):
            return NotImplemented
        return self.words == other.words

    def __hash__(self):
        return hash(self.words)

    def __repr__(self):
        return "Cylinders(" + ", ".join(repr(w) for w in self.words) + ")"


def _push_merged(out: list[tuple[str, str]], v: str, z: str) -> None:
    """Append the rule v -> z to rules out sorted by domain word, merging
    it bottom-up with its sibling: u0 -> r0 then u1 -> r1 become u -> r."""
    while (out and v.endswith("1") and z.endswith("1")
           and out[-1] == (v[:-1] + "0", z[:-1] + "0")):
        out.pop()
        v, z = v[:-1], z[:-1]
    out.append((v, z))


class PrefixMap(GroupElement):
    """A homeomorphism of the Cantor space given by prefix exchanges.

    rules is a tuple of (domain_word, range_word) pairs whose domain words
    and range words each form a complete prefix code.  Stored fully
    reduced: no sibling pair (u0 -> r0, u1 -> r1) is left unmerged, and
    rules are sorted by domain word, so equality is structural.
    ``__init__`` and ``from_json`` check the words and both codes.
    Products are complete by construction and come out in domain order,
    so they only merge siblings; inverses only sort.
    """

    __slots__ = ("rules",)
    region_type = Cylinders

    def __init__(self, rules: Iterable[tuple[str, str]]):
        table = {}
        for v, z in rules:
            v, z = _check_word(v), _check_word(z)
            if v in table:
                raise ValueError(f"duplicate domain word {v!r}")
            table[v] = z
        if not table:
            raise ValueError("a map needs at least one rule")
        if not complete_code(table.keys()):
            raise ValueError("domain words do not form a complete prefix code")
        # a repeated range word starts the next one in sorted order
        if not complete_code(table.values()):
            raise ValueError("range words do not form a complete prefix code")
        rules: list[tuple[str, str]] = []
        for v, z in sorted(table.items()):
            _push_merged(rules, v, z)
        self._set(rules)

    def _set(self, rules) -> "PrefixMap":
        """Store sorted, reduced rules without __init__'s checks."""
        object.__setattr__(self, "rules", tuple(rules))
        return self

    @staticmethod
    def identity() -> "PrefixMap":
        return PrefixMap([("", "")])

    # -- group structure ----------------------------------------------------

    def __mul__(self, other: "PrefixMap") -> "PrefixMap":
        """Composition self o other (apply other first).

        A rule p -> q over w takes v to q + the rest of w, and a rule under
        w takes v + the rest of p to q.  Taken over other's rules v -> w in
        order, these come out sorted by domain word, as the v's form a
        prefix code.
        """
        if not isinstance(other, PrefixMap):
            return NotImplemented
        rules, out = self.rules, []
        for v, w in other.rules:
            # meeting's probes: the rule over w is the last one before
            # (w + "\0",) and the block under w ends at (w + "2",)
            k = bisect_right(rules, (w + "\0",))
            if k and w.startswith(rules[k - 1][0]):
                p, q = rules[k - 1]
                _push_merged(out, v, q + w[len(p):])
            else:
                for p, q in rules[k : bisect_left(rules, (w + "2",), k)]:
                    _push_merged(out, v + p[len(w):], q)
        return object.__new__(PrefixMap)._set(out)

    def inverse(self) -> "PrefixMap":
        # a merge pair of the inverse would be one of self, swapped
        return object.__new__(PrefixMap)._set(sorted((z, v) for v, z in self.rules))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrefixMap):
            return NotImplemented
        return self.rules == other.rules

    def __hash__(self):
        return hash(self.rules)

    def is_identity(self) -> bool:
        return self.rules == (("", ""),)

    def __repr__(self):
        bits = ", ".join(f"{v or 'e'}->{z or 'e'}" for v, z in self.rules)
        return f"PrefixMap({bits})"

    # -- action -------------------------------------------------------------

    def rule_at(self, x: EventuallyPeriodic) -> tuple[str, str]:
        return meeting(self.rules, x.digits(max(len(v) for v, _ in self.rules)))[0]

    def __call__(self, x: EventuallyPeriodic) -> EventuallyPeriodic:
        v, z = self.rule_at(x)
        tail = x.shift(len(v))
        return EventuallyPeriodic(z + tail.preperiod, tail.period)

    def image_words(self, w: str) -> list[str]:
        """The image of C_w as a list of cylinder words (any coarseness)."""
        return [z + w[len(v):] for v, z in meeting(self.rules, _check_word(w))]

    # -- regions and germs ----------------------------------------------------

    def support(self) -> Cylinders:
        """The cylinders of the non-identity rules: outside them g is trivial."""
        return Cylinders(v for v, z in self.rules if v != z)

    def identity_on(self, region: Cylinders) -> bool:
        """Exact identity on every cylinder of the region."""
        return all(v == z for w in region.words for v, z in meeting(self.rules, w))

    def germ_trivial_at(self, x: EventuallyPeriodic) -> bool:
        return germ_class(self, x) == GERM_FIXES

    def to_json(self) -> dict:
        return {"rules": [[v, z] for v, z in self.rules]}

    @staticmethod
    def from_json(data: dict) -> "PrefixMap":
        if not all(isinstance(rule, (list, tuple)) and len(rule) == 2 for rule in data["rules"]):
            raise ValueError("each rule must be a [domain, range] pair of words")
        return PrefixMap([(v, z) for v, z in data["rules"]])


# -- fixed points and germs ---------------------------------------------

def rule_fixed_point(v: str, z: str) -> Optional[EventuallyPeriodic]:
    """The unique fixed sequence of the exchange v -> z inside C_v, if any.

    For v == z the whole cylinder is fixed and the point v 0^inf is
    returned as a representative.  For comparable v != z the fixed point
    is v m^inf where m is the suffix by which the words differ.
    Incomparable words give a fixed-point-free exchange.
    """
    if v == z:
        return EventuallyPeriodic(v, "0")
    if z.startswith(v):
        return EventuallyPeriodic(v, z[len(v):])
    if v.startswith(z):
        return EventuallyPeriodic(v, v[len(z):])
    return None


def germ_class(g: PrefixMap, x: EventuallyPeriodic) -> str:
    """Trichotomy at x: identity near x, isolated fixed point, or moved.

    At a fixed point the applicable rule (v, z) decides: v == z means g is
    the identity on all of C_v; otherwise the rule pins down its unique
    fixed sequence in C_v, so x is isolated in fix(g).
    """
    if g(x) != x:
        return GERM_MOVES
    v, z = g.rule_at(x)
    if v == z:
        return GERM_FIXES
    if len(v) == len(z):
        raise RuntimeError("same-length exchange cannot fix a sequence")
    return GERM_ISOLATED


# -- standard generators --------------------------------------------------

SWAP = PrefixMap([("0", "1"), ("1", "0")])
GEN_VA = PrefixMap([("00", "0"), ("01", "10"), ("1", "11")])
GEN_VB = PrefixMap([("0", "0"), ("100", "10"), ("101", "110"), ("11", "111")])
GEN_VC = PrefixMap([("0", "10"), ("10", "11"), ("11", "0")])
GEN_PI0 = PrefixMap([("00", "01"), ("01", "00"), ("1", "1")])

# GEN_VA and GEN_VB act like the two standard slope maps and GEN_VC like the
# rotation; GEN_PI0 is the cylinder transposition that leaves the order
# topology, so the four together reach the full prefix-exchange group.
STANDARD_GENERATORS = (GEN_VA, GEN_VB, GEN_VC, GEN_PI0)
V_GROUP = MarkedGroup({"a": GEN_VA, "b": GEN_VB, "c": GEN_VC, "p": GEN_PI0})


def prefix_translate(g: PrefixMap, w: str) -> PrefixMap:
    """Conjugate g into C_w by the canonical bijection x -> wx.

    The result applies g inside C_w and fixes everything else, rule by
    rule on the sibling cylinders of w.
    """
    w = _check_word(w)
    rules = [(w + v, w + z) for v, z in g.rules]
    rules.extend((s, s) for s in sibling_path(w))
    return PrefixMap(rules)


def rigid_stabilizer_v(w: str) -> tuple[PrefixMap, ...]:
    """Generators of the copy of the whole group supported in C_w."""
    return tuple(prefix_translate(g, w) for g in STANDARD_GENERATORS)


def compress_v(w: str, target: str) -> PrefixMap:
    """A prefix exchange squeezing the complement of C_w into C_target.

    The complement of C_w is the disjoint union of the |w| sibling
    cylinders D_1, ..., D_k along w; these are sent to the disjoint
    subcylinders target 1^(i-1) 0 of the target.  C_w is spread over the
    rest of the space: its pieces w 1^(j-1) 0 cover the complement of the
    target and w 1^m fills the leftover corner target 1^k.
    """
    w = _check_word(w)
    target = _check_word(target)
    if not w:
        raise ValueError("the complement of the whole space is empty")
    if not target:
        return PrefixMap.identity()
    k, m = len(w), len(target)
    rules = []
    for i, d in enumerate(sibling_path(w)):
        rules.append((d, target + "1" * i + "0"))
    for j, e in enumerate(sibling_path(target)):
        rules.append((w + "1" * j + "0", e))
    rules.append((w + "1" * m, target + "1" * k))
    g = PrefixMap(rules)
    if not Cylinders.of(w).complement().image(g).subset_of(Cylinders.of(target)):
        raise RuntimeError("compression must land inside the target")
    return g

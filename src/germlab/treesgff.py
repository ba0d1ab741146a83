"""Automorphisms of an edge-colored regular tree with prescribed local action.

Vertices are reduced words over the color set: no letter repeats twice in
a row, and the neighbour of v along color w is v with w appended, or the
parent when w is v's last letter.  An automorphism is stored as a finite
prefix-closed portrait {vertex: permutation} plus the image of the base
vertex; outside the portrait the local permutation is forced, because a
group acting freely on the colors has exactly one element with a given
value at a given point.  Portrait entries come from the large group, the
forced values always lie in the small free one, so every stored element
has all but finitely many local permutations in the small group.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Optional

from .kernel import GroupElement

Perm = tuple[int, ...]
Vertex = tuple[int, ...]


# -- permutation helpers ----------------------------------------------------

def perm_identity(d: int) -> Perm:
    return tuple(range(d))

def perm_compose(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))

def perm_inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)

def perm_closure(gens: Iterable[Perm]) -> frozenset[Perm]:
    gens = [tuple(g) for g in gens]
    d = len(gens[0])
    seen = {perm_identity(d)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm_compose(g, p)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return frozenset(seen)

def cyclic_perms(d: int) -> frozenset[Perm]:
    return frozenset(tuple((i + k) % d for i in range(d)) for k in range(d))

def alternating_perms(d: int) -> frozenset[Perm]:
    if d < 3:
        return frozenset({perm_identity(d)})
    three = []
    for c in permutations(range(d), 3):
        p = list(range(d))
        p[c[0]], p[c[1]], p[c[2]] = c[1], c[2], c[0]
        three.append(tuple(p))
    return perm_closure(three)


class PermGroupPair:
    """A free transitive group inside a bigger one on the colors 0..d-1."""

    __slots__ = ("degree", "small", "large", "_by_value")

    def __init__(self, degree: int, small: Iterable[Perm], large: Iterable[Perm]):
        small = frozenset(tuple(p) for p in small)
        large = frozenset(tuple(p) for p in large)
        ident = perm_identity(degree)
        for grp in (small, large):
            if ident not in grp:
                raise ValueError("group must contain the identity")
            for p in grp:
                if sorted(p) != list(range(degree)):
                    raise ValueError(f"not a permutation of 0..{degree - 1}: {p}")
                if perm_inverse(p) not in grp:
                    raise ValueError("group not closed under inversion")
            for p in grp:
                for q in grp:
                    if perm_compose(p, q) not in grp:
                        raise ValueError("group not closed under composition")
        if not small <= large:
            raise ValueError("free group must sit inside the large one")
        by_value = {}
        for p in small:
            for i in range(degree):
                key = (i, p[i])
                if key in by_value:
                    raise ValueError("action is not free")
                by_value[key] = p
        if len(by_value) != degree * degree:
            raise ValueError("action is not transitive")
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "small", small)
        object.__setattr__(self, "large", large)
        object.__setattr__(self, "_by_value", by_value)

    def __setattr__(self, name, value):
        raise AttributeError("PermGroupPair is immutable")

    def taking(self, color: int, image: int) -> Perm:
        """The unique free-group element sending color to image."""
        return self._by_value[(color, image)]

    def two_transitive(self) -> bool:
        d = self.degree
        if d < 2:
            return False
        base = (0, 1)
        hit = {(p[base[0]], p[base[1]]) for p in self.large}
        return len(hit) == d * (d - 1)

    def find_large(self, constraints: dict[int, int]) -> Optional[Perm]:
        """The first large-group permutation honoring color -> image pairs."""
        for p in sorted(self.large):
            if all(p[c] == v for c, v in constraints.items()):
                return p
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermGroupPair):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.small == other.small
            and self.large == other.large
        )

    def __hash__(self):
        return hash((self.degree, self.small, self.large))


# -- the tree ---------------------------------------------------------------

def neighbour(v: Vertex, color: int) -> Vertex:
    if v and v[-1] == color:
        return v[:-1]
    return v + (color,)

def is_reduced(v: Vertex) -> bool:
    return all(v[i] != v[i + 1] for i in range(len(v) - 1))

def ball(degree: int, radius: int) -> list[Vertex]:
    out = [()]
    frontier = [()]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for c in range(degree):
                if not v or v[-1] != c:
                    nxt.append(v + (c,))
        out.extend(nxt)
        frontier = nxt
    return out

def format_vertex(v: Vertex) -> str:
    return ".".join(str(c) for c in v)

def parse_vertex(text: str) -> Vertex:
    text = text.strip()
    if not text:
        return ()
    v = tuple(int(part) for part in text.split("."))
    if not is_reduced(v):
        raise ValueError(f"not a reduced color word: {text!r}")
    return v


class TreeAut(GroupElement):
    """A tree automorphism with finitely many prescribed local permutations.

    portrait maps vertices to permutations; it contains the empty word and
    is closed under prefixes.  At any other vertex v the local permutation
    is the unique free-group element agreeing with the parent's one on
    v's last color, so a finite dictionary pins down the map everywhere.
    Stored canonically: removable leaves (entries equal to their forced
    value) are pruned, making equality structural.
    """

    __slots__ = ("pair", "base_image", "portrait", "_cache")

    def __init__(self, pair: PermGroupPair, base_image: Vertex, portrait: dict):
        base_image = tuple(base_image)
        if not is_reduced(base_image):
            raise ValueError("base image must be a reduced word")
        entries = {tuple(v): tuple(p) for v, p in portrait.items()}
        if () not in entries:
            raise ValueError("portrait must prescribe the base vertex")
        for v, p in entries.items():
            if not is_reduced(v):
                raise ValueError(f"portrait key is not reduced: {v}")
            if p not in pair.large:
                raise ValueError(f"portrait value at {v} outside the large group")
            if v and v[:-1] not in entries:
                raise ValueError(f"portrait not prefix-closed at {v}")
        for v, p in entries.items():
            if v:
                parent = entries[v[:-1]]
                if p[v[-1]] != parent[v[-1]]:
                    raise ValueError(
                        f"portrait at {v} disagrees with its parent on color {v[-1]}"
                    )
        # prune leaves that carry no information beyond the forced value
        changed = True
        while changed:
            changed = False
            leaves = set(entries)
            for v in entries:
                if v:
                    leaves.discard(v[:-1])
            for v in leaves:
                if not v:
                    continue
                parent = entries[v[:-1]]
                forced = pair.taking(v[-1], parent[v[-1]])
                if entries[v] == forced:
                    del entries[v]
                    changed = True
        object.__setattr__(self, "pair", pair)
        object.__setattr__(self, "base_image", base_image)
        object.__setattr__(self, "portrait", entries)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("TreeAut is immutable")

    @staticmethod
    def identity(pair: PermGroupPair) -> "TreeAut":
        return TreeAut(pair, (), {(): perm_identity(pair.degree)})

    @staticmethod
    def constant(pair: PermGroupPair, perm: Perm, base_image: Vertex = ()) -> "TreeAut":
        """Local permutation perm everywhere; perm must act freely."""
        if tuple(perm) not in pair.small:
            raise ValueError("constant portraits need a free-group value")
        return TreeAut(pair, base_image, {(): tuple(perm)})

    def local_perm(self, v: Vertex) -> Perm:
        v = tuple(v)
        hit = self.portrait.get(v)
        if hit is not None:
            return hit
        cached = self._cache.get(v)
        if cached is not None:
            return cached
        parent = self.local_perm(v[:-1])
        forced = self.pair.taking(v[-1], parent[v[-1]])
        self._cache[v] = forced
        return forced

    def act_on(self, v: Vertex) -> Vertex:
        v = tuple(v)
        img = self.base_image
        for k in range(len(v)):
            img = neighbour(img, self.local_perm(v[:k])[v[k]])
        return img

    def act_inv(self, v: Vertex) -> Vertex:
        """The unique u with act_on(u) = v, by walking the image geodesic."""
        v = tuple(v)
        u: Vertex = ()
        cur = self.base_image
        # geodesic from base_image to v: climb to the common prefix, descend
        common = 0
        while common < min(len(cur), len(v)) and cur[common] == v[common]:
            common += 1
        colors = [cur[i] for i in range(len(cur) - 1, common - 1, -1)]
        colors.extend(v[common:])
        for c in colors:
            u = neighbour(u, perm_inverse(self.local_perm(u))[c])
            cur = neighbour(cur, c)
        return u

    # -- group structure ----------------------------------------------------

    def __mul__(self, other: "TreeAut") -> "TreeAut":
        """Composition self o other (apply other first)."""
        if not isinstance(other, TreeAut):
            return NotImplemented
        if self.pair != other.pair:
            raise ValueError("elements live over different color groups")
        keys = set(other.portrait)
        keys.update(other.act_inv(v) for v in self.portrait)
        closed = set()
        for v in keys:
            for k in range(len(v) + 1):
                closed.add(v[:k])
        portrait = {
            v: perm_compose(self.local_perm(other.act_on(v)), other.local_perm(v))
            for v in closed
        }
        return TreeAut(self.pair, self.act_on(other.base_image), portrait)

    def inverse(self) -> "TreeAut":
        keys = {self.act_on(v) for v in self.portrait}
        closed = set()
        for v in keys:
            for k in range(len(v) + 1):
                closed.add(v[:k])
        portrait = {
            v: perm_inverse(self.local_perm(self.act_inv(v))) for v in closed
        }
        return TreeAut(self.pair, self.act_inv(()), portrait)

    def canonical_key(self) -> tuple:
        return (self.base_image, tuple(sorted(self.portrait.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeAut):
            return NotImplemented
        return self.pair == other.pair and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def is_identity(self) -> bool:
        return (
            self.base_image == ()
            and self.portrait == {(): perm_identity(self.pair.degree)}
        )

    def __repr__(self):
        bits = ", ".join(
            f"{format_vertex(v) or 'o'}:{p}" for v, p in sorted(self.portrait.items())
        )
        return f"TreeAut(base->{format_vertex(self.base_image) or 'o'}, {bits})"

    def to_json(self) -> dict:
        return {
            "base_image": format_vertex(self.base_image),
            "default": list(self.portrait[()]),
            "exceptions": {
                format_vertex(v): list(p)
                for v, p in sorted(self.portrait.items())
                if v
            },
        }

    @staticmethod
    def from_json(pair: PermGroupPair, data: dict) -> "TreeAut":
        portrait = {(): tuple(data["default"])}
        for key, p in data.get("exceptions", {}).items():
            portrait[parse_vertex(key)] = tuple(p)
        return TreeAut(pair, parse_vertex(data["base_image"]), portrait)


# -- building blocks --------------------------------------------------------

def halftree_permuter(
    pair: PermGroupPair, m: Vertex, fixed_color: int, perm: Perm
) -> TreeAut:
    """The automorphism with local permutation perm at m that fixes, pointwise,
    the half-tree through the edge of color fixed_color at m.

    perm must fix fixed_color and lie in the large group.  Freeness pins
    everything else down: below m the forced values take over, and on the
    way up to the base vertex each ancestor gets the unique free-group
    element matching the child's value on the connecting color, with the
    base image recovered by walking the whole chain backwards.
    """
    m = tuple(m)
    perm = tuple(perm)
    if perm not in pair.large:
        raise ValueError("permutation outside the large group")
    if perm[fixed_color] != fixed_color:
        raise ValueError("permutation must fix the protected color")
    portrait: dict[Vertex, Perm] = {m: perm}
    for j in range(len(m) - 1, -1, -1):
        child = m[:j + 1]
        portrait[m[:j]] = pair.taking(child[-1], portrait[child][child[-1]])
    img: Vertex = m
    for j in range(len(m), 0, -1):
        child = m[:j]
        img = neighbour(img, portrait[child][child[-1]])
    return TreeAut(pair, img, portrait)


# -- Busemann bookkeeping for a fixed end -----------------------------------

def _common_prefix_len(v: Vertex, w: Vertex) -> int:
    n = 0
    while n < min(len(v), len(w)) and v[n] == w[n]:
        n += 1
    return n


def busemann_level(v: Vertex, xi_prefix: Vertex) -> int:
    """d(v, confluence with the ray) minus d(o, confluence), exactly."""
    v, xi = tuple(v), tuple(xi_prefix)
    lcp = _common_prefix_len(v, xi)
    if lcp >= len(xi):
        raise ValueError("ray prefix too short to separate the vertex from the end")
    return len(v) - 2 * lcp


def direction_toward(m: Vertex, xi_prefix: Vertex) -> int:
    """The color of the first edge on the geodesic from m to the end."""
    m, xi = tuple(m), tuple(xi_prefix)
    lcp = _common_prefix_len(m, xi)
    if lcp == len(m):
        if len(xi) <= len(m):
            raise ValueError("ray prefix too short at a ray vertex")
        return xi[len(m)]
    return m[-1]


def elliptic_germ_check(g: TreeAut, ray_prefix: Vertex, depth: int) -> tuple:
    """Hunt along the ray for an edge beyond which g must fix everything.

    Returns ("fixes_half_tree", edge) for the first ray edge whose two
    endpoints are fixed with no portrait entries beyond it: out there the
    local permutations are forced, and a forced value fixing one color is
    the identity.  Returns ("pending",) when the prefix is too short and
    raises if g fixes no tail of the prefix at all.
    """
    ray = tuple(ray_prefix)
    limit = min(len(ray), depth)
    fixed_somewhere = False
    for i in range(limit):
        u, w = ray[:i], ray[:i + 1]
        if g.act_on(u) != u or g.act_on(w) != w:
            continue
        fixed_somewhere = True
        if not any(k[:len(w)] == w for k in g.portrait):
            return ("fixes_half_tree", (u, w))
    if not fixed_somewhere:
        raise ValueError("element does not fix the explored ray prefix")
    return ("pending",)


def level_transitivity_witness(
    pair: PermGroupPair, xi_prefix: Vertex, v: Vertex, w: Vertex
) -> list[TreeAut]:
    """Elements whose product carries v to w while fixing half-trees at the end.

    Follows the even-distance induction: push each endpoint to its unique
    neighbour one level closer to the end, recurse, and finish with a
    single permuter at the shared neighbour, which swings the image onto
    w while keeping the end's direction pinned.
    """
    if not pair.two_transitive():
        raise ValueError("needs a 2-transitive large group")
    v, w, xi = tuple(v), tuple(w), tuple(xi_prefix)
    if busemann_level(v, xi) != busemann_level(w, xi):
        raise ValueError("vertices on different horospheres")
    if v == w:
        return []
    pv = neighbour(v, direction_toward(v, xi))
    pw = neighbour(w, direction_toward(w, xi))
    word = level_transitivity_witness(pair, xi, pv, pw)
    cur = v
    for step in word:
        cur = step.act_on(cur)
    if cur == w:
        return word
    # cur and w are distinct neighbours of pw one level below it
    c_cur = cur[-1] if len(cur) > len(pw) else pw[-1]
    c_w = w[-1] if len(w) > len(pw) else pw[-1]
    gamma = direction_toward(pw, xi)
    perm = pair.find_large({gamma: gamma, c_cur: c_w, c_w: c_cur})
    if perm is None:
        perm = pair.find_large({gamma: gamma, c_cur: c_w})
    if perm is None:
        raise RuntimeError("2-transitivity must provide a permuter")
    word.append(halftree_permuter(pair, pw, gamma, perm))
    return word

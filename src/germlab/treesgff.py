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

Every operation is one walk.  Below the portrait the local permutation is
constant on each hanging subtree: at a child a+(c,) of a portrait vertex a
the forced value s = taking(c, portrait[a][c]) lies in the free group, and
taking(c', s[c']) == s for every color c'.  So a walk state (vertex,
permutation, inside the portrait) moves one edge, up or down, with at most
one dictionary lookup.  Inside a walk a permutation is its number in the
pair's sorted large group, composed and inverted by table lookup.  A
product pulls the left factor's whole portrait back through the right
factor in one walk, one step per portrait vertex.  The cocycle check
stops its walk where no local permutation can change any more: below
three portraits, along an edge that h carries downward.  Level pairs
come from buckets: two vertices of one horosphere are within 2k of each
other exactly when their k-th pushes toward the end agree.  Level
witnesses share one memo, which keeps each permuter's images, so a level
check walks each (permuter, vertex) once.
"""

from __future__ import annotations

from functools import reduce
from itertools import permutations
from math import factorial
from typing import Iterable, Optional

from .kernel import GroupElement, Immutable, check_budget

Perm = tuple[int, ...]
Vertex = tuple[int, ...]


# -- permutation helpers ----------------------------------------------------

def perm_identity(d: int) -> Perm:
    return tuple(range(d))

def perm_compose(p: Perm, q: Perm) -> Perm:
    """Apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))

def cyclic_perms(d: int) -> frozenset[Perm]:
    return frozenset(tuple((i + k) % d for i in range(d)) for k in range(d))

def alternating_perms(d: int) -> frozenset[Perm]:
    """The even permutations of 0..d-1, filtered from all d! of them; raises
    BudgetError first when d! passes GERMLAB_BUDGET."""
    check_budget(factorial(max(d, 0)), f"{d}! permutations")
    return frozenset(p for p in permutations(range(d))
                     if sum(p[j] > p[i] for i in range(d) for j in range(i)) % 2 == 0)


class PermGroupPair(Immutable):
    """A free transitive group inside a bigger one on the colors 0..d-1.

    The large group is numbered once, in sorted order: perms[i] is the i-th
    permutation and index[p] its number, mul[i][j] numbers perms[i] o perms[j],
    inv[i] the inverse, take[c][x] the free-group element sending c to x,
    bit i of masks[c][x] is set when perms[i] sends c to x, and stabilizers[c]
    lists the non-identity perms fixing c (half-tree permuters need one).
    The compose table takes |large|^2 steps, so it obeys GERMLAB_BUDGET.
    """

    __slots__ = ("degree", "small", "large", "perms", "index", "mul", "inv", "take",
                 "masks", "stabilizers", "_two_transitive")

    def __init__(self, degree: int, small: Iterable[Perm], large: Iterable[Perm]):
        small = frozenset(tuple(p) for p in small)
        large = frozenset(tuple(p) for p in large)
        check_budget(len(large) ** 2, f"{len(large)}^2 compositions")
        ident = perm_identity(degree)
        for grp in (small, large):
            if ident not in grp:
                raise ValueError("group must contain the identity")
            for p in grp:
                if sorted(p) != list(range(degree)):
                    raise ValueError(f"not a permutation of 0..{degree - 1}: {p}")
        if not small <= large:
            raise ValueError("free group must sit inside the large one")
        perms = tuple(sorted(large))
        index = {p: i for i, p in enumerate(perms)}
        mul = tuple(tuple(index.get(perm_compose(p, q)) for q in perms) for p in perms)
        if any(None in row for row in mul) or any(
                perm_compose(p, q) not in small for p in small for q in small):
            raise ValueError("group not closed under composition")
        by_value = {(c, p[c]): index[p] for p in small for c in range(degree)}
        if len(by_value) != len(small) * degree:
            raise ValueError("action is not free")
        if len(by_value) != degree * degree:
            raise ValueError("action is not transitive")
        stabilizers = tuple(
            tuple(p for p in perms if p[c] == c and p != ident) for c in range(degree))
        if not any(stabilizers):
            raise ValueError("no non-identity large-group permutation fixes a color")
        for name, value in {
            "degree": degree, "small": small, "large": large, "perms": perms, "index": index,
            "mul": mul, "inv": tuple(row.index(index[ident]) for row in mul),
            "take": tuple(tuple(by_value[c, x] for x in range(degree)) for c in range(degree)),
            "masks": tuple(tuple(sum(1 << i for i, p in enumerate(perms) if p[c] == x)
                                 for x in range(degree)) for c in range(degree)),
            "stabilizers": stabilizers,
            "_two_transitive": len({p[:2] for p in perms}) == degree * (degree - 1),
        }.items():
            object.__setattr__(self, name, value)

    def taking(self, color: int, image: int) -> Perm:
        """The unique free-group element sending color to image."""
        return self.perms[self.take[color][image]]

    def two_transitive(self) -> bool:
        return self._two_transitive

    def find_large(self, constraints: dict[int, int]) -> Optional[Perm]:
        """The first large-group permutation honoring color -> image pairs."""
        hits = (1 << len(self.perms)) - 1
        for c, v in constraints.items():
            hits &= self.masks[c][v]
        return self.perms[(hits & -hits).bit_length() - 1] if hits else None

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermGroupPair):
            return NotImplemented
        return self is other or (self.degree, self.small, self.large) == (
            other.degree, other.small, other.large)

    def __hash__(self):
        return hash((self.degree, self.small, self.large))


# -- the tree ---------------------------------------------------------------

def neighbour(v: Vertex, color: int) -> Vertex:
    return v[:-1] if v and v[-1] == color else v + (color,)

def is_reduced(v: Vertex) -> bool:
    return all(v[i] != v[i + 1] for i in range(len(v) - 1))

def ball(degree: int, radius: int, start: Vertex = ()) -> list[Vertex]:
    """start and its reduced-word extensions by at most radius further
    colors, breadth first; from the root that is the radius ball."""
    out, frontier = [start], [start]
    for _ in range(radius):
        frontier = [v + (c,) for v in frontier for c in range(degree) if not v or v[-1] != c]
        out.extend(frontier)
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

    Every query walks with _step, which moves a state (vertex, permutation
    number, inside the portrait) one edge; below the portrait the number
    stays put.  Products and inverses walk the prefix tree they need.
    """

    __slots__ = ("pair", "base_image", "_at")

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
            if p not in pair.index:
                raise ValueError(f"portrait value at {v} outside the large group")
            if v and v[:-1] not in entries:
                raise ValueError(f"portrait not prefix-closed at {v}")
        for v, p in entries.items():
            if v and p[v[-1]] != entries[v[:-1]][v[-1]]:
                raise ValueError(f"portrait at {v} disagrees with its parent on color {v[-1]}")
        self._settle(pair, base_image, {v: pair.index[p] for v, p in entries.items()})

    def _settle(self, pair, base_image, at) -> "TreeAut":
        """Fill the fields from a valid numbered portrait, pruning forced leaves
        deepest first; object.__new__(TreeAut)._settle(...) skips __init__'s checks."""
        perms, take = pair.perms, pair.take
        kept_child = set()
        for v in sorted(at, key=len, reverse=True)[:-1]:  # the root sorts last
            c = v[-1]
            if v not in kept_child and at[v] == take[c][perms[at[v[:-1]]][c]]:
                del at[v]
            else:
                kept_child.add(v[:-1])
        for name, value in zip(self.__slots__, (pair, base_image, at)):
            object.__setattr__(self, name, value)
        return self

    @property
    def portrait(self) -> dict:
        """{vertex: permutation}, built from the numbered portrait on each read."""
        perms = self.pair.perms
        return {v: perms[i] for v, i in self._at.items()}

    @staticmethod
    def identity(pair: PermGroupPair) -> "TreeAut":
        return TreeAut(pair, (), {(): perm_identity(pair.degree)})

    @staticmethod
    def constant(pair: PermGroupPair, perm: Perm, base_image: Vertex = ()) -> "TreeAut":
        """Local permutation perm everywhere; perm must act freely."""
        perm, base_image = tuple(perm), tuple(base_image)
        if perm not in pair.small:
            raise ValueError("constant portraits need a free-group value")
        if not is_reduced(base_image):
            raise ValueError("base image must be a reduced word")
        # one entry is a valid portrait, with nothing to prune
        return object.__new__(TreeAut)._settle(pair, base_image, {(): pair.index[perm]})

    def _root(self) -> tuple:
        return ((), self._at[()], True)

    def _step(self, state: tuple, color: int) -> tuple:
        """The walk state one edge along color from state's vertex."""
        v, i, inside = state
        if v and v[-1] == color:
            v = v[:-1]
            j = self._at.get(v)
            return (v, i, False) if j is None else (v, j, True)
        v += (color,)
        if not inside:
            return (v, i, False)
        j = self._at.get(v)
        if j is None:
            return (v, self.pair.take[color][self.pair.perms[i][color]], False)
        return (v, j, True)

    def _carry(self, walked: tuple, color: int) -> tuple:
        """_step on (state, image of its vertex), moving the image too."""
        state, img = walked
        return self._step(state, color), neighbour(img, self.pair.perms[state[1]][color])

    def _walk(self, v: Vertex) -> tuple:
        """(walk state at v, image of v)."""
        return reduce(self._carry, v, (self._root(), self.base_image))

    def _back(self, state: tuple, color: int) -> tuple:
        """The walk state at the neighbour whose image lies along color."""
        return self._step(state, self.pair.perms[self.pair.inv[state[1]]][color])

    def _pull(self, v: Vertex) -> tuple:
        """The walk state at act_inv(v), along the image geodesic to v."""
        v = tuple(v)
        common = common_prefix_len(self.base_image, v)
        return reduce(self._back, self.base_image[common:][::-1] + v[common:], self._root())

    def local_perm(self, v: Vertex) -> Perm:
        return self.pair.perms[self._walk(tuple(v))[0][1]]

    def act_on(self, v: Vertex) -> Vertex:
        return self._walk(tuple(v))[1]

    def act_inv(self, v: Vertex) -> Vertex:
        """The unique u with act_on(u) = v, by walking the image geodesic."""
        return self._pull(v)[0]

    def images(self, vertices: Iterable[Vertex]) -> list[Vertex]:
        """act_on of each vertex, in order, from one walk over their prefixes."""
        vertices = [tuple(v) for v in vertices]
        walked = _grow({(): (self._root(), self.base_image)}, vertices, self._carry)
        return [walked[v][1] for v in vertices]

    def __mul__(self, other: "TreeAut") -> "TreeAut":
        """Composition self o other (apply other first)."""
        if not isinstance(other, TreeAut):
            return NotImplemented
        if self.pair != other.pair:
            raise ValueError("elements live over different color groups")
        perms, mul = self.pair.perms, self.pair.mul
        # other at the preimage of each vertex v of self's portrait, in one
        # walk, beside self at v itself
        pulled = _grow({(): other._pull(())}, self._at, other._back)
        states = {s[0]: (s, (v, self._at[v], True)) for v, s in pulled.items()}
        # the preimages form a subtree hanging from its shortest vertex, top,
        # so the path down to top is all their prefix closure lacks
        top = min(states, key=len)
        start, base_image = self._walk(other.base_image)
        states.setdefault((), (other._root(), start))
        # other at v and self at other's image of v, in lockstep
        states = _grow(states, [top[:-1], *other._at], lambda s, c: (
            other._step(s[0], c), self._step(s[1], perms[s[0][1]][c])))
        at = {v: mul[s[1]][o[1]] for v, (o, s) in states.items()}
        return object.__new__(TreeAut)._settle(self.pair, base_image, at)

    def inverse(self) -> "TreeAut":
        images = _grow({(): (self._root(), self.base_image)}, self._at, self._carry)
        # self at the preimage of each vertex of the inverse's portrait
        states = _grow({(): self._pull(())}, [img for _, img in images.values()], self._back)
        at = {v: self.pair.inv[s[1]] for v, s in states.items()}
        return object.__new__(TreeAut)._settle(self.pair, states[()][0], at)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeAut):
            return NotImplemented
        return (self.pair == other.pair and self.base_image == other.base_image
                and self._at == other._at)

    def __hash__(self):
        return hash((self.base_image, frozenset(self._at.items())))

    def is_identity(self) -> bool:
        return not self.base_image and self._at == {(): self.pair.index[perm_identity(self.pair.degree)]}

    def __repr__(self):
        bits = ", ".join(
            f"{format_vertex(v) or 'o'}:{p}" for v, p in sorted(self.portrait.items()))
        return f"TreeAut(base->{format_vertex(self.base_image) or 'o'}, {bits})"

    def to_json(self) -> dict:
        portrait = self.portrait
        return {
            "base_image": format_vertex(self.base_image),
            "default": list(portrait[()]),
            "exceptions": {format_vertex(v): list(p) for v, p in sorted(portrait.items()) if v},
        }

    @staticmethod
    def from_json(pair: PermGroupPair, data: dict) -> "TreeAut":
        portrait = {(): tuple(data["default"])}
        for key, perm in data.get("exceptions", {}).items():
            v = parse_vertex(key)
            if not v:
                raise ValueError("the base vertex's permutation is 'default', not an exception")
            portrait[v] = tuple(perm)
        return TreeAut(pair, parse_vertex(data["base_image"]), portrait)


def _grow(states: dict, keys: Iterable[Vertex], step) -> dict:
    """Extend states, keyed by vertex and holding the root, to every prefix
    of every key; a vertex's state is step(its parent's state, its last
    color).  A new key steps forward from its longest stored prefix, so a
    prefix-closed key set costs one step per new vertex."""
    for v in keys:
        if v in states:
            continue
        k = len(v) - 1
        while (state := states.get(v[:k])) is None:
            k -= 1
        for k in range(k, len(v)):
            state = states[v[:k + 1]] = step(state, v[k])
    return states


# -- building blocks --------------------------------------------------------

def halftree_permuter(pair: PermGroupPair, m: Vertex, fixed_color: int, perm: Perm) -> TreeAut:
    """The automorphism with local permutation perm at m that fixes, pointwise,
    the half-tree through the edge of color fixed_color at m.

    perm must fix fixed_color and lie in the large group.  Freeness pins
    everything else down: below m the forced values take over, and on the
    way up to the base vertex each ancestor gets the unique free-group
    element matching the child's value on the connecting color, with the
    base image recovered by walking the whole chain backwards.
    """
    m, perm = tuple(m), tuple(perm)
    if perm not in pair.large:
        raise ValueError("permutation outside the large group")
    if perm[fixed_color] != fixed_color:
        raise ValueError("permutation must fix the protected color")
    if not is_reduced(m):
        raise ValueError(f"not a reduced word: {m}")
    # the chain up from m is prefix-closed and agrees with each parent by
    # construction, so it is settled without the constructor's checks
    at = {m: pair.index[perm]}
    img: Vertex = m
    for j in range(len(m), 0, -1):
        c = m[j - 1]
        x = pair.perms[at[m[:j]]][c]
        at[m[:j - 1]] = pair.take[c][x]
        img = neighbour(img, x)
    return object.__new__(TreeAut)._settle(pair, img, at)


# -- Busemann bookkeeping for a fixed end -----------------------------------

def common_prefix_len(v: Vertex, w: Vertex) -> int:
    n = 0
    while n < min(len(v), len(w)) and v[n] == w[n]:
        n += 1
    return n


def busemann_level(v: Vertex, xi_prefix: Vertex) -> int:
    """d(v, confluence with the ray) minus d(o, confluence), exactly."""
    v, xi = tuple(v), tuple(xi_prefix)
    lcp = common_prefix_len(v, xi)
    if lcp >= len(xi):
        raise ValueError("ray prefix too short to separate the vertex from the end")
    return len(v) - 2 * lcp


def direction_toward(m: Vertex, xi_prefix: Vertex) -> int:
    """The color of the first edge on the geodesic from m to the end."""
    m, xi = tuple(m), tuple(xi_prefix)
    lcp = common_prefix_len(m, xi)
    if lcp == len(m):
        if len(xi) <= len(m):
            raise ValueError("ray prefix too short at a ray vertex")
        return xi[len(m)]
    return m[-1]


def level_pairs(vertices: Iterable[Vertex], xi_prefix: Vertex, max_dist: int) -> dict:
    """{level: iterator of (v, w)}: the pairs of vertices on one horosphere
    at distance at most max_dist, v before w in the order given, levels in
    the order of their first vertex; pairs are made as they are read.

    Two vertices of one level lie 2j apart, where their j-th pushes toward
    the end first agree, so a pair is kept exactly when the pushes agree
    after max_dist // 2 steps, and each level is bucketed by that push.  A
    vertex off the ray is pushed to its parent; every push that reaches the
    ray at a given level reaches the same ray vertex, so those share the
    key None, and the ray prefix need not reach past the vertices.

    A bucket of k vertices makes k(k-1)/2 pairs; when their sum passes
    GERMLAB_BUDGET, BudgetError is raised before any pair is made.
    """
    xi, half = tuple(xi_prefix), max_dist // 2
    levels: dict[int, list] = {}
    buckets: dict[tuple, list] = {}
    for v in vertices:
        v = tuple(v)
        push = v[:len(v) - half] if len(v) - half > common_prefix_len(v, xi) else None
        level = busemann_level(v, xi)
        bucket = buckets.setdefault((level, push), [])
        bucket.append(v)
        levels.setdefault(level, []).append((v, bucket))
    count = sum(len(b) * (len(b) - 1) // 2 for b in buckets.values())
    check_budget(count, f"{count} level pairs")
    return {level: _bucket_pairs(same) for level, same in levels.items()}


def _bucket_pairs(keyed: list):
    """The pairs (v, w) from [(v, v's bucket), ...], in list order, each w
    after v in v's bucket."""
    for v, later in keyed:
        later.pop(0)  # v itself, first of what is left of its bucket
        for w in later:
            yield v, w


def elliptic_germ_check(g: TreeAut, ray_prefix: Vertex, depth: int) -> tuple:
    """Hunt along the ray for an edge beyond which g must fix everything.

    Returns ("fixes_half_tree", edge) for the first ray edge whose two
    endpoints are fixed with no portrait entries beyond it: out there the
    local permutations are forced, and a forced value fixing one color is
    the identity.  Returns ("pending",) when the prefix is too short and
    raises if g fixes no tail of the prefix at all.
    """
    fixed_somewhere = False
    walked = (g._root(), g.base_image)
    for c in tuple(ray_prefix)[:max(depth, 0)]:
        (u, _, _), u_img = walked
        (w, _, inside), w_img = walked = g._carry(walked, c)
        if u_img == u and w_img == w:
            fixed_somewhere = True
            if not inside:  # outside the portrait, so no entry lies beyond w
                return ("fixes_half_tree", (u, w))
    if not fixed_somewhere:
        raise ValueError("element does not fix the explored ray prefix")
    return ("pending",)


def cocycle_failure(g: TreeAut, h: TreeAut, gh: TreeAut, radius: int) -> Optional[Vertex]:
    """The first v of ball(degree, radius), ordered by length and then word,
    where gh's local permutation is not g's at h(v) after h's at v, or None;
    h, gh and g at h(v) walk together depth first, skipping later-only subtrees.

    The walk also stops below a vertex v where the identity holds, all three
    states lie outside their portraits, and h carries v's parent edge onto
    h(v)'s parent edge.  Then h sends the subtree below v into the one below
    h(v), so all three walks only go down from there, where no local
    permutation changes: every check below v is the one that held at v.
    """
    perms, mul, colors = g.pair.perms, g.pair.mul, range(g.pair.degree)
    h_step, gh_step, g_step = h._step, gh._step, g._step
    first = (radius + 1, None)

    def visit(hs, ghs, gs):
        nonlocal first
        v, h_perm = hs[0], perms[hs[1]]
        if ghs[1] != mul[gs[1]][hs[1]]:
            first = min(first, (len(v), v))
        elif len(v) < min(radius, first[0]) and (
                hs[2] or ghs[2] or gs[2] or gs[0][-1] != h_perm[v[-1]]):
            for c in colors:
                if not v or v[-1] != c:
                    visit(h_step(hs, c), gh_step(ghs, c), g_step(gs, h_perm[c]))

    visit(h._root(), gh._root(), g._walk(h.base_image)[0])
    return first[1]


def level_transitivity_witness(pair: PermGroupPair, xi_prefix: Vertex, v: Vertex,
                               w: Vertex, memo: Optional[dict] = None) -> list[TreeAut]:
    """Elements whose product carries v to w while fixing half-trees at the end.

    Follows the even-distance induction: push each endpoint to its unique
    neighbour one level closer to the end, recurse, and finish with a
    single permuter at the shared neighbour, which swings the image onto
    w while keeping the end's direction pinned.  Calls for one pair and
    one end may share a memo dict, so that each value is computed once.
    It keeps the witness of every pushed-up pair under (pv, pw) and every
    permuter under (pw, gamma, perm); under "placed", each vertex's
    (level, push toward the end, color of that push); under "choices",
    the permutation picked for each (gamma, c_cur, c_w); and under
    "images", the permuters' images that word_image reads.
    """
    if not pair.two_transitive():
        raise ValueError("needs a 2-transitive large group")
    v, w, xi = tuple(v), tuple(w), tuple(xi_prefix)
    if memo is None:
        memo = {}
    placed = memo.setdefault("placed", {})
    level, pv, _ = placed.get(v) or _place(placed, v, xi)
    w_level, pw, _ = placed.get(w) or _place(placed, w, xi)
    if w_level != level:
        raise ValueError("vertices on different horospheres")
    if v == w:
        return []
    word = memo.get((pv, pw))
    if word is None:
        # a tuple, so that the words built from it leave it alone
        word = memo[pv, pw] = tuple(level_transitivity_witness(pair, xi, pv, pw, memo))
    cur = word_image(word, v, memo) if word else v
    if cur == w:
        return list(word)
    # cur and w are distinct neighbours of pw one level below it
    c_cur = cur[-1] if len(cur) > len(pw) else pw[-1]
    c_w = w[-1] if len(w) > len(pw) else pw[-1]
    gamma = (placed.get(pw) or _place(placed, pw, xi))[2]
    choices = memo.setdefault("choices", {})
    perm = choices.get((gamma, c_cur, c_w))
    if perm is None:
        perm = choices[gamma, c_cur, c_w] = (
            pair.find_large({gamma: gamma, c_cur: c_w, c_w: c_cur})
            or pair.find_large({gamma: gamma, c_cur: c_w}))
        if perm is None:
            raise RuntimeError("2-transitivity must provide a permuter")
    permuter = memo.get((pw, gamma, perm))
    if permuter is None:
        permuter = memo[pw, gamma, perm] = halftree_permuter(pair, pw, gamma, perm)
    return [*word, permuter]


def _place(placed: dict, v: Vertex, xi: Vertex) -> tuple:
    """Store and return v's (level, push toward the end, color of the push)."""
    level, direction = busemann_level(v, xi), direction_toward(v, xi)
    placed[v] = out = (level, neighbour(v, direction), direction)
    return out


def word_image(word: Iterable[TreeAut], v: Vertex, memo: dict) -> Vertex:
    """v carried by the elements of word in turn, the first one first.

    memo["images"] keeps each element's images by vertex, keyed by the
    element's identity, so calls that share a memo walk each (element,
    vertex) once.
    """
    v, images = tuple(v), memo.setdefault("images", {})
    for g in word:
        entry = images.get(id(g))
        if entry is None:
            # g stays beside its images, so its id names no other element
            entry = images[id(g)] = (g, {})
        image = entry[1].get(v)
        if image is None:
            image = entry[1][v] = g.act_on(v)
        v = image
    return v

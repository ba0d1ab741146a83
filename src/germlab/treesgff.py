"""Automorphisms of an edge-colored regular tree with prescribed local action.

Vertices are reduced words over the colors 0..d-1: no letter repeats twice
in a row, and the neighbour of v along color w is v with w appended, or
the parent when w is v's last letter.  An automorphism is a finite
prefix-closed portrait {vertex: permutation} plus the image of the base
vertex; outside the portrait the local permutation is forced, because a
group acting freely on the colors has exactly one element with a given
value at a given point.  Portrait entries come from the large group, the
forced values always lie in the small free one, so every stored element
has all but finitely many local permutations in the small group.

Inside the kernel a vertex is an integer code: code(()) = 0 and
code(v + (c,)) = d * code(v) + c + 1, so the parent is (code - 1) // d,
the last color (code - 1) % d, and code order is shortlex order.  A
permutation is its number in the pair's sorted large group, composed and
inverted by table lookup.  A TreeAut keeps {code: number} in descending
code order, so that reversed() meets parents first, and the base image's
code.  ``portrait`` and ``base_image`` are views built as vertex tuples on
each read, as are the vertices that act_on, images, local_perm and
elliptic_germ_check take or give.

Every operation is a walk.  Below the portrait the local permutation is
constant on each hanging subtree: at a child a+(c,) of a portrait vertex a
the forced value s = taking(c, portrait[a][c]) lies in the free group, and
taking(c', s[c']) == s for every color c'.  So a walk state (code, number)
moves one edge, up or down, with one dictionary lookup.  A product pulls
the left factor's portrait back through the right factor in one loop over
that portrait in code order, and carries the left factor over the right
one's portrait in another; an inverse carries its own portrait forward in
one loop.  The cocycle check stops its walk where no local permutation
can change any more: below three portraits, along an edge that h carries
downward.  Level pairs come from buckets: two vertices of one horosphere
are within 2k of each other exactly when their k-th pushes toward the end
agree.  Level witnesses share one memo, which keeps each permuter's
images, so a level check walks each (permuter, vertex) once.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from operator import itemgetter
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
    forced[i][c] the value forced at the child along c of a vertex whose
    value is perms[i], back[i][c] the color perms[i] sends to c, bit i of
    masks[c][x] is set when perms[i] sends c to x, and stabilizers[c] lists
    the non-identity perms fixing c (half-tree permuters need one).  The
    compose table takes |large|^2 steps, so it obeys GERMLAB_BUDGET.
    """

    __slots__ = ("degree", "small", "large", "perms", "index", "mul", "inv", "take",
                 "forced", "back", "masks", "stabilizers", "_two_transitive")

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
        # column j holds perms[i] o perms[j] for every i, as itemgetter(*q)
        # sends p to p o q; below two colors the one permutation is the
        # identity, and itemgetter of one index would return a bare item
        columns = [map(index.get, map(itemgetter(*q) if degree > 1 else tuple, perms))
                   for q in perms]
        mul = tuple(zip(*columns))
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
        inv = tuple(row.index(index[ident]) for row in mul)
        take = tuple(tuple(by_value[c, x] for x in range(degree)) for c in range(degree))
        for name, value in {
            "degree": degree, "small": small, "large": large, "perms": perms, "index": index,
            "mul": mul, "inv": inv, "take": take,
            "forced": tuple(tuple(take[c][p[c]] for c in range(degree)) for p in perms),
            "back": tuple(perms[inv[i]] for i in range(len(perms))),
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


def _code(degree: int, v: Vertex) -> int:
    """The integer code of a vertex: d * code(parent) + last color + 1."""
    x = 0
    for c in v:
        x = x * degree + c + 1
    return x

def _vertex(degree: int, x: int) -> Vertex:
    """The vertex whose code is x."""
    colors = []
    while x:
        x -= 1
        colors.append(x % degree)
        x //= degree
    colors.reverse()
    return tuple(colors)

def _neighbour(degree: int, x: int, color: int) -> int:
    """neighbour(v, color) on the code of v."""
    return (x - 1) // degree if x and (x - 1) % degree == color else x * degree + color + 1


class TreeAut(GroupElement):
    """A tree automorphism with finitely many prescribed local permutations.

    The portrait maps vertices to permutations; it contains the empty word
    and is closed under prefixes.  At any other vertex v the local
    permutation is the unique free-group element agreeing with the parent's
    one on v's last color, so a finite dictionary pins down the map
    everywhere.  Stored canonically, as {code: permutation number} in
    descending code order with the base image's code: removable leaves
    (entries equal to their forced value) are pruned, making equality
    structural.

    A walk state is (code, permutation number); _step moves it one edge,
    and below the portrait the number stays put.  Products and inverses
    loop over the portraits in code order, with the step written out.
    """

    __slots__ = ("pair", "_base", "_at")

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
        d = pair.degree
        self._settle(pair, _code(d, base_image),
                     {_code(d, v): pair.index[p] for v, p in entries.items()})

    def _settle(self, pair, base, at) -> "TreeAut":
        """Fill the fields from a valid numbered portrait keyed by code, pruning
        forced leaves deepest first, in descending code order;
        object.__new__(TreeAut)._settle(...) skips __init__'s checks."""
        d, forced = pair.degree, pair.forced
        kept, parents = {}, set()
        order = sorted(at, reverse=True)
        for x in order[:-1]:  # the root sorts last, and stays
            p = (x - 1) // d
            if x in parents or at[x] != forced[at[p]][x - 1 - p * d]:
                kept[x] = at[x]
                parents.add(p)
        kept[0] = at[0]
        for name, value in zip(self.__slots__, (pair, base, kept)):
            object.__setattr__(self, name, value)
        return self

    @property
    def base_image(self) -> Vertex:
        """The image of the base vertex, decoded on each read."""
        return _vertex(self.pair.degree, self._base)

    @property
    def portrait(self) -> dict:
        """{vertex: permutation}, in shortlex order, built on each read."""
        d, perms = self.pair.degree, self.pair.perms
        return {_vertex(d, x): perms[i] for x, i in reversed(self._at.items())}

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
        return object.__new__(TreeAut)._settle(
            pair, _code(pair.degree, base_image), {0: pair.index[perm]})

    def _step(self, state: tuple, color: int) -> tuple:
        """The walk state one edge along color from state's vertex: off the
        portrait the forced step from a free-group value keeps that value."""
        x, i = state
        d = self.pair.degree
        if x and (x - 1) % d == color:
            x = (x - 1) // d
            return (x, self._at.get(x, i))
        x = x * d + color + 1
        j = self._at.get(x)
        return (x, self.pair.forced[i][color] if j is None else j)

    def _walk(self, v: Vertex) -> tuple:
        """(walk state at v, code of the image of v)."""
        d, perms = self.pair.degree, self.pair.perms
        state, img = (0, self._at[0]), self._base
        for c in v:
            img = _neighbour(d, img, perms[state[1]][c])
            state = self._step(state, c)
        return state, img

    def local_perm(self, v: Vertex) -> Perm:
        return self.pair.perms[self._walk(tuple(v))[0][1]]

    def act_on(self, v: Vertex) -> Vertex:
        return _vertex(self.pair.degree, self._walk(tuple(v))[1])

    def images(self, vertices: Iterable[Vertex]) -> list[Vertex]:
        """act_on of each vertex, in order, from one walk over their prefixes."""
        d, perms = self.pair.degree, self.pair.perms
        walked = {0: ((0, self._at[0]), self._base)}
        out = []
        for v in vertices:
            x = 0
            for c in v:
                y = x * d + c + 1
                if y not in walked:
                    state, img = walked[x]
                    walked[y] = (self._step(state, c), _neighbour(d, img, perms[state[1]][c]))
                x = y
            out.append(_vertex(d, walked[x][1]))
        return out

    def __mul__(self, other: "TreeAut") -> "TreeAut":
        """Composition self o other (apply other first).

        The product's value at u is self's at other(u) after other's at u,
        and its portrait is the prefix closure of other's portrait and of
        the preimages of self's.  Three loops fill it: along the path to b,
        other's base image, self forward from the root and other back from
        the root, whose states meet on the geodesic from the root to
        other's preimage of the root; then self over other's portrait, and
        other back over self's portrait, each in code order from that path.
        """
        if not isinstance(other, TreeAut):
            return NotImplemented
        pair = self.pair
        if pair != other.pair:
            raise ValueError("elements live over different color groups")
        d, perms, mul, forced, back = pair.degree, pair.perms, pair.mul, pair.forced, pair.back
        f_at, g_at = self._at, other._at
        f_get, g_get = f_at.get, g_at.get
        path, b = [], other._base
        while b:
            b -= 1
            path.append(b % d)
            b //= d
        # self forward along the path, carrying the image of the base vertex
        x, i, img = 0, f_at[0], self._base
        forward = [i]
        for c in reversed(path):
            y = perms[i][c]
            img = (img - 1) // d if img and (img - 1) % d == y else img * d + y + 1
            if x and (x - 1) % d == c:
                x = (x - 1) // d
                i = f_get(x, i)
            else:
                x = x * d + c + 1
                j = f_get(x)
                i = forced[i][c] if j is None else j
            forward.append(i)
        # other back along the path, from the root: at the k-th vertex from
        # the end it stands at the preimage of the path's k-th vertex
        at, u, j = {}, 0, g_at[0]
        at[0] = mul[i][j]
        for c, i in zip(path, reversed(forward[:-1])):
            c = back[j][c]
            if u and (u - 1) % d == c:
                u = (u - 1) // d
                j = g_get(u, j)
            else:
                u = u * d + c + 1
                k = g_get(u)
                j = forced[j][c] if k is None else k
            at[u] = mul[i][j]
        # other back over self's portrait, from the preimage of the root
        pulled = {0: (u, j)}
        for v, i in reversed(f_at.items()):
            if not v:
                continue
            p = (v - 1) // d
            u, j = pulled[p]
            c = back[j][v - 1 - p * d]
            if u and (u - 1) % d == c:
                u = (u - 1) // d
                j = g_get(u, j)
            else:
                u = u * d + c + 1
                k = g_get(u)
                j = forced[j][c] if k is None else k
            pulled[v] = (u, j)
            at[u] = mul[i][j]
        # self over other's portrait, from the image of the root
        walked = {0: (x, forward[-1])}
        for u, j in reversed(g_at.items()):
            if u:
                p = (u - 1) // d
                x, i = walked[p]
                c = perms[g_at[p]][u - 1 - p * d]
                if x and (x - 1) % d == c:
                    x = (x - 1) // d
                    i = f_get(x, i)
                else:
                    x = x * d + c + 1
                    k = f_get(x)
                    i = forced[i][c] if k is None else k
                walked[u] = (x, i)
            at[u] = mul[walked[u][1]][j]
        return object.__new__(TreeAut)._settle(pair, img, at)

    def inverse(self) -> "TreeAut":
        """The inverse's value at self(u) is the inverse of self's at u, over
        the images of self's portrait, and over the path from the root to the
        base image, which self walks back from the root to its preimage."""
        pair, at = self.pair, self._at
        d, perms, inv, forced, back = pair.degree, pair.perms, pair.inv, pair.forced, pair.back
        images, out = {0: self._base}, {self._base: inv[at[0]]}
        for x, i in reversed(at.items()):
            if x:
                p = (x - 1) // d
                images[x] = y = _neighbour(d, images[p], perms[at[p]][x - 1 - p * d])
                out[y] = inv[i]
        u, j, w = 0, at[0], self._base
        while w:
            w -= 1
            c = back[j][w % d]
            w //= d
            if u and (u - 1) % d == c:
                u = (u - 1) // d
                j = at.get(u, j)
            else:
                u = u * d + c + 1
                k = at.get(u)
                j = forced[j][c] if k is None else k
            out[w] = inv[j]
        return object.__new__(TreeAut)._settle(pair, u, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TreeAut):
            return NotImplemented
        return self.pair == other.pair and self._base == other._base and self._at == other._at

    def __hash__(self):
        # _at is in descending code order, so equal elements give equal item tuples
        return hash((self._base, tuple(self._at.items())))

    def is_identity(self) -> bool:
        return not self._base and self._at == {0: self.pair.index[perm_identity(self.pair.degree)]}

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
    d = pair.degree
    x = img = _code(d, m)
    at = {x: pair.index[perm]}
    while x:
        p, c = divmod(x - 1, d)
        image = pair.perms[at[x]][c]
        at[p] = pair.take[c][image]
        img = _neighbour(d, img, image)
        x = p
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
    d, perms = g.pair.degree, g.pair.perms
    fixed_somewhere = False
    state, img = (0, g._at[0]), g._base
    for c in tuple(ray_prefix)[:max(depth, 0)]:
        u, u_img = state[0], img
        img = _neighbour(d, img, perms[state[1]][c])
        state = g._step(state, c)
        if u_img == u and img == state[0]:
            fixed_somewhere = True
            if state[0] not in g._at:  # so no entry lies beyond it
                return ("fixes_half_tree", (_vertex(d, u), _vertex(d, state[0])))
    if not fixed_somewhere:
        raise ValueError("element does not fix the explored ray prefix")
    return ("pending",)


def cocycle_failure(g: TreeAut, h: TreeAut, gh: TreeAut, radius: int) -> Optional[Vertex]:
    """The first v of ball(degree, radius), ordered by length and then word,
    where gh's local permutation is not g's at h(v) after h's at v, or None;
    h, gh and g at h(v) walk together depth first, skipping later-only
    subtrees, and the first v is the least code that fails.

    The walk also stops below a vertex v where the identity holds, all three
    states lie outside their portraits, and h carries v's parent edge onto
    h(v)'s parent edge.  Then h sends the subtree below v into the one below
    h(v), so all three walks only go down from there, where no local
    permutation changes: every check below v is the one that held at v.
    """
    d, perms, mul = g.pair.degree, g.pair.perms, g.pair.mul
    h_step, gh_step, g_step = h._step, gh._step, g._step
    h_at, gh_at, g_at = h._at, gh._at, g._at
    first, first_len = None, radius + 1

    def visit(hs, ghs, gs, depth):
        nonlocal first, first_len
        x, h_perm = hs[0], perms[hs[1]]
        if ghs[1] != mul[gs[1]][hs[1]]:
            if first is None or x < first:
                first, first_len = x, depth
        elif depth < min(radius, first_len) and (
                x in h_at or ghs[0] in gh_at or gs[0] in g_at
                or (gs[0] - 1) % d != h_perm[(x - 1) % d]):
            last = (x - 1) % d if x else None
            for c in range(d):
                if c != last:
                    visit(h_step(hs, c), gh_step(ghs, c), g_step(gs, h_perm[c]), depth + 1)

    gs = (0, g._at[0])
    for c in h.base_image:
        gs = g_step(gs, c)
    visit((0, h._at[0]), (0, gh._at[0]), gs, 0)
    return None if first is None else _vertex(d, first)


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

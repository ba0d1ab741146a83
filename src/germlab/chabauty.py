"""Balls, subgroup specs, probes and the micro-support builders.

A MarkedGroup is an exact kernel with labeled generators; its word-metric
balls are enumerated exactly, so subgroups given by decidable membership
specs can be compared radius by radius (the agree radius), and pushed
forward along conjugators.  The probes are the conjugate-net limit and the
accumulation search; the builders are the disjoint-open-set search and the
product (g f^-1 g^-1)(h f h^-1), with its three identities verified exactly.
"""

# the budget names stay importable from this module
from .kernel import DEFAULT_BUDGET, BudgetError, Immutable, element_budget


def _protocol(element, name):
    """The region-protocol member ``name`` of element (``support``,
    ``identity_on``, ``germ_trivial_at`` or ``region_type``)."""
    member = getattr(element, name, None)
    if member is None:
        raise TypeError("%s does not implement the region protocol: it has no %s"
                        % (type(element).__name__, name))
    return member


def spell(gens, word):
    """Product of generator letters, rightmost applied first; '' is the identity."""
    out = None
    for letter in word:
        if letter not in gens:
            raise ValueError("unknown generator letter %r" % letter)
        out = gens[letter] if out is None else out * gens[letter]
    if out is not None:
        return out
    some = next(iter(gens.values()))
    return some * some.inverse()


def equal_on(left, right, region):
    return (right.inverse() * left).identity_on(region)


# -- marked groups and balls -------------------------------------------------


class MarkedGroup(Immutable):
    """A kernel group with a labeled generating set.

    Lowercase letters name the generators; the matching uppercase letters
    name their inverses, so every label word spells an element (rightmost
    letter applied first).
    """

    __slots__ = ("gens", "identity")

    def __init__(self, generators):
        table = {}
        identity = None
        for label in sorted(generators):
            element = generators[label]
            if not (len(label) == 1 and label.isalpha() and label.islower()):
                raise ValueError("labels must be single lowercase letters")
            if element.is_identity():
                raise ValueError("generators must be nontrivial")
            table[label] = element
            table[label.upper()] = element.inverse()
            identity = element * element.inverse()
        if identity is None:
            raise ValueError("at least one generator required")
        object.__setattr__(self, "gens", table)
        object.__setattr__(self, "identity", identity)

    def spell(self, word):
        return spell(self.gens, word)


class BallTruncation(Immutable):
    """All distinct elements of word length <= radius, in discovery order,
    each with the first word that spells it."""

    __slots__ = ("radius", "_index")

    def __init__(self, radius, elements, words):
        self._set(radius, dict(zip(elements, words)))

    def _set(self, radius, index):
        """Store the radius and the {element: word} dict, in ball order."""
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "_index", index)
        return self

    @property
    def elements(self):
        return tuple(self._index)

    @property
    def words(self):
        return tuple(self._index.values())

    def __len__(self):
        return len(self._index)

    def __contains__(self, element):
        return element in self._index


def walk(group, radius, order):
    """Breadth-first walk of the radius ball: yields each new (element, word)
    in ball order, the identity first, trying the labels of order in turn.
    A walk that would pass GERMLAB_BUDGET raises BudgetError.

    While radius 2 is filled, the walk records each pair of a last letter M
    and a label L whose product gen(M)gen(L) is already in the ball; from
    radius 3 on it never tries L after a word ending in M.  The pairs cover
    undoing the last letter, a second label for the same element and short
    relations.  Skipping them yields the same elements and words.  Let
    e = p gen(M) be on the frontier of radius r - 1 >= 2, so that
    e gen(L) = p x with x = gen(M)gen(L), which is 1, some gen(N), or the
    product gen(M')gen(L') of a pair tried before it at radius 2.  Then p x
    is p; or p gen(N), tried while radius r - 1 was filled; or f gen(L')
    for f = p gen(M'), where f is e itself with L' before L, or lies in the
    radius r - 2 ball, or was found before e, so that f gen(L') was tried
    before e gen(L).  By induction on walk order, each of those tries either
    found p x or was skipped by the same rule, so every skipped product is
    already in the ball.  This needs the walk to start from an empty ball.
    """
    return _walk(group, radius, order, {})


def _walk(group, radius, order, index):
    """walk, growing index, which must start empty, to {element: first word}."""
    if radius < 0:
        raise ValueError("radius must be nonnegative, got %d" % radius)
    limit = element_budget()
    letters = [(label, group.gens[label]) for label in order]
    index[group.identity] = ""
    yield group.identity, ""
    frontier = [(group.identity, "")]
    # the labels still tried after each last letter, known once radius 2 is filled
    after = {}
    for filling in range(1, radius + 1):
        nxt = []
        for element, base in frontier:
            last = base[-1:]
            fresh = []
            for label, gen in after.get(last, letters):
                candidate = element * gen
                if candidate in index:
                    continue
                if len(index) >= limit:
                    raise BudgetError(
                        "ball exceeds the %d-element budget at radius %d of %d,"
                        " with %d elements" % (limit, filling, radius, len(index))
                    )
                fresh.append((label, gen))
                index[candidate] = word = base + label
                yield candidate, word
                nxt.append((candidate, word))
            if filling == 2:
                after[last] = fresh
        frontier = nxt


def ball(group, radius):
    index = {}
    for _ in _walk(group, radius, sorted(group.gens), index):
        pass
    return object.__new__(BallTruncation)._set(radius, index)


# -- subgroup predicates -------------------------------------------------------


class SubgroupSpec(Immutable):
    """A subgroup given by a decidable membership predicate, of one of four
    kinds: the whole group, the trivial group, the elements supported in a
    closed region, and the elements with trivial germs at given points.

    On the first contains call a support spec takes the closure of its
    region's complement and keeps it for every later call.
    """

    __slots__ = ("kind", "data", "_derived")

    def __init__(self, kind, data):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "_derived", None)

    @classmethod
    def whole_group(cls):
        return cls("whole", ())

    @classmethod
    def trivial(cls):
        return cls("trivial", ())

    @classmethod
    def support_inside(cls, region):
        return cls("support", region)

    @classmethod
    def identity_germ_at(cls, *points):
        return cls("germ", tuple(points))

    @classmethod
    def conjugate(cls, spec, g):
        """gHg^-1 as a spec of H's kind: its region or germ points pushed
        forward along g."""
        if spec.kind in ("whole", "trivial"):
            return spec
        if spec.kind == "support":
            return cls("support", spec.data.image(g))
        if spec.kind == "germ":
            return cls("germ", tuple(g(p) for p in spec.data))
        raise ValueError("unknown spec kind %r" % spec.kind)

    def contains(self, element):
        if self.kind == "whole":
            return True
        if self.kind == "trivial":
            return element.is_identity()
        if self.kind == "support":
            # the region R is closed, so the support of g lies in R exactly
            # when g is the identity on the closure of R's complement
            _protocol(element, "support")  # a kernel without supports is a TypeError
            if self._derived is None:
                object.__setattr__(self, "_derived", self.data.complement())
            return element.identity_on(self._derived)
        if self.kind == "germ":
            germ_trivial_at = _protocol(element, "germ_trivial_at")
            return all(germ_trivial_at(p) for p in self.data)
        raise ValueError("unknown spec kind %r" % self.kind)


def first_disagreements(h_spec, k_spec, group, radius):
    """The shortest words of the radius ball on which the two specs differ,
    in ball order; none when they agree on the whole ball.  The walk is in
    word-length order, so it stops at the end of the first shell that holds
    a disagreement, and the ball past that shell is never built."""
    length = radius + 1
    for element, word in walk(group, radius, sorted(group.gens)):
        if len(word) > length:
            return
        if h_spec.contains(element) != k_spec.contains(element):
            length = len(word)
            yield word


def chabauty_agree_radius(h_spec, k_spec, group, r_max):
    """Largest r <= r_max at which the two truncations coincide: one less
    than the length of the first disagreement."""
    return next((len(w) - 1 for w in first_disagreements(h_spec, k_spec, group, r_max)),
                r_max)


def conjugate_net_probe(group, h_spec, conjugators, predicted_limit, radius):
    """Compare conjugate truncations against a predicted limit, in net order.

    Reports the least position after which every later conjugate matches the
    predicted limit on the radius ball, or None when the net never settles.
    """
    elements = ball(group, radius).elements

    def kept(spec):
        return frozenset(el for el in elements if spec.contains(el))

    target = kept(predicted_limit)
    matches = [kept(SubgroupSpec.conjugate(h_spec, g)) == target for g in conjugators]
    stabilizes_at = None
    for n in range(len(matches), 0, -1):
        if not matches[n - 1]:
            break
        stabilizes_at = n
    return {"radius": radius, "target_size": len(target), "matches": matches,
            "stabilizes_at": stabilizes_at}


def accumulation_probe(h_spec, group, forbidden, search_radius):
    """Search for a conjugator pulling every element of P out of H.

    A witness g has gPg^-1 disjoint from H; exhausting the ball without one
    is finite-scale evidence that every conjugate of P meets H.
    """
    full = ball(group, search_radius)
    for p in forbidden:
        if p.is_identity():
            raise ValueError("the forbidden set must not contain the identity")
        if p not in full:
            raise ValueError("forbidden elements must lie in the search ball")
    for element, word in zip(full.elements, full.words):
        # gpg^-1 lies in H exactly when p lies in g^-1 H g
        pulled = SubgroupSpec.conjugate(h_spec, element.inverse())
        if not any(pulled.contains(p) for p in forbidden):
            return {"witness": word, "exhausted": False}
    return {"witness": None, "exhausted": True}


# -- disjoint open sets and the micro-support product -------------------------


# the finest cells disjoint_open_search scans
SEARCH_DEPTH = 8


def disjoint_open_search(elements, z):
    """Regions U_1..U_r and a neighbourhood W of z, all verified disjoint.

    The U_i, together with their images g_i(U_i), are pairwise disjoint, and
    W avoids every U_i and every preimage g_j^-1(U_i).  Candidates are
    scanned in the region type's cell order (coarsest first) down to
    SEARCH_DEPTH, so the outcome is deterministic.
    """
    if not elements:
        raise ValueError("need at least one element")
    if any(g.is_identity() for g in elements):
        raise ValueError("elements must be nontrivial")
    region_type = _protocol(elements[0], "region_type")
    orbit = [g(z) for g in elements] + [z]
    chosen = []
    acc = region_type.empty()
    for g in elements:
        for u in region_type.cells(SEARCH_DEPTH):
            if any(u.contains_point(p) for p in orbit):
                continue
            img = u.image(g)
            if u.disjoint_from(img) and u.disjoint_from(acc) and img.disjoint_from(acc):
                chosen.append(u)
                acc = acc.union(u).union(img)
                break
        else:
            raise ValueError("no disjoint region found among the cells down to depth %d"
                             % SEARCH_DEPTH)
    avoid = chosen + [u.preimage(g) for u in chosen for g in elements]
    for w in region_type.neighbourhoods(z, SEARCH_DEPTH):
        if all(w.disjoint_from(u) for u in avoid):
            return tuple(chosen), w
    raise ValueError("no neighbourhood of z found down to depth %d" % SEARCH_DEPTH)


def micro_support_element(gamma, delta, g_ell, regions):
    """The product (gamma g^-1 gamma^-1)(delta g delta^-1), after checking
    that gamma and delta are supported inside the union of the search
    regions and leave each region invariant.
    """
    union = regions[0]
    for region in regions[1:]:
        union = union.union(region)
    for element in (gamma, delta):
        if not element.support().subset_of(union):
            raise ValueError("conjugators must be supported in the regions")
        for region in regions:
            if region.image(element) != region:
                raise ValueError("conjugators must preserve each region")
    return (gamma * g_ell.inverse() * gamma.inverse()) * (
        delta * g_ell * delta.inverse()
    )


def verify_micro_support(a, gamma, delta, u_ell, w):
    """Exact verification of the three defining identities of the product."""
    if not a.identity_on(w):
        raise ValueError("product moves points of W")
    if u_ell.image(a) != u_ell:
        raise ValueError("product does not preserve the region")
    if not equal_on(a, gamma * delta.inverse(), u_ell):
        raise ValueError("product differs from gamma delta^-1 on the region")
    return True

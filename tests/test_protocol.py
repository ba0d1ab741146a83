"""One conformance battery over every kernel family: each check runs on the
words of a family's ball and on Hypothesis words with powers -3..3.  The
region checks run where the kernel has ``region_type``; the kernels in
NO_REGION_PROTOCOL must raise TypeError from ``chabauty._protocol`` instead.
"""

import importlib
import json
import pkgutil
from collections import deque
from fractions import Fraction
from functools import cache, reduce
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import germlab
from germlab.cantorv import ONE_SEQ, V_GROUP, ZERO_SEQ, Cylinders, EventuallyPeriodic, PrefixMap
from germlab.chabauty import MarkedGroup, SubgroupSpec, ball, disjoint_open_search
from germlab.fullgroups import FullGroupElement, gamma_tv
from germlab.kernel import GroupElement
from germlab.plcircle import F_GROUP, T_GROUP, PLMap
from germlab.projline import INF, LM_GROUP, PPMap
from germlab.scalars import Dyadic, QuadExt
from germlab.suites import _tree_pair
from germlab.treesgff import TreeAut, halftree_permuter, perm_identity

PAIR = _tree_pair()
TREE_GROUP = MarkedGroup({"a": TreeAut.constant(PAIR, sorted(PAIR.small)[1]),
                          "b": TreeAut.constant(PAIR, perm_identity(5), (0,)),
                          "c": halftree_permuter(PAIR, (1,), 0, PAIR.stabilizers[0][0])})
FULL_GROUP = MarkedGroup({"a": gamma_tv(1, Cylinders.of("00")),  # three involutions
                          "b": gamma_tv(2, Cylinders.of("01")),
                          "c": gamma_tv(-1, Cylinders.of("111"))})


def _distinct_neighbours(items):
    return all(a != b for a, b in zip(items, items[1:]))


def _tree_reduced(g):
    """No leaf holds its forced value: the free-group element that agrees
    with its parent's on its last color."""
    at = g.portrait
    return all(at[v] != next(p for p in PAIR.small if p[v[-1]] == at[v[:-1]][v[-1]])
               for v in at if v and not any(v + (c,) in at for c in range(PAIR.degree)))


class Family(NamedTuple):
    group: MarkedGroup
    radius: int  # of the ball the ball-word checks run on
    points: tuple  # acted on, and the germ points where the kernel has regions
    rebuild: Callable  # the public constructor applied to an element's fields
    reduced: Callable  # whether an element has the reduced form that constructor promises
    read: Callable = None  # the JSON reader, when it is not from_json(data)
    act: Callable = lambda g, x: g(x)
    extra: tuple = ()  # Hypothesis letters beside the generators


_PL = dict(points=tuple(Dyadic(n, e) for n, e in ((0, 0), (1, 1), (1, 2), (3, 2), (3, 3),
                                                  (5, 4), (7, 5), (13, 6))),
           rebuild=lambda g: PLMap(list(g.pieces)),
           reduced=lambda g: _distinct_neighbours([s for _, s, _ in g.pieces]))
_CANTOR_POINTS = (ZERO_SEQ, ONE_SEQ, EventuallyPeriodic("", "01"), EventuallyPeriodic("1", "0"),
                  EventuallyPeriodic("01", "1"), EventuallyPeriodic("110", "10"))
FAMILIES = {
    "F": Family(F_GROUP, 3, **_PL),
    "T": Family(T_GROUP, 2, **_PL),
    "V": Family(V_GROUP, 2, _CANTOR_POINTS, lambda f: PrefixMap(f.rules),
                # sorted, with no sibling pair u0 -> r0, u1 -> r1 left unmerged
                lambda f: list(f.rules) == sorted(f.rules) and not set(f.rules) & {
                    (v[:-1] + "0", z[:-1] + "0") for v, z in f.rules if v[-1:] == z[-1:] == "1"}),
    "LM": Family(LM_GROUP, 2, (*(QuadExt(Fraction(a)) for a in (0, "1/2", 1, "-3/2", "7/3")),
                               QuadExt(1, 1), QuadExt(0, Fraction(-1, 2)), INF),
                 # order, poles, infinity and continuity are checked here
                 lambda g: PPMap(g.breaks, g.maps), lambda g: _distinct_neighbours(g.maps)),
    "tree": Family(TREE_GROUP, 3, ((), (0,), (1, 2), (3, 0, 4), (2, 1, 2, 1), (4, 3, 0, 1, 0)),
                   lambda g: TreeAut(PAIR, g.base_image, g.portrait), _tree_reduced,
                   read=lambda data: TreeAut.from_json(PAIR, data), act=TreeAut.act_on),
    "full": Family(FULL_GROUP, 4, _CANTOR_POINTS,
                   lambda g: FullGroupElement([(piece, shift) for shift, piece in g.table]),
                   lambda g: [s for s, _ in g.table] == sorted({s for s, _ in g.table})
                   and all(p.words and Cylinders(p.words) == p for _, p in g.table)
                   and list(g._cells) == sorted((w, s) for s, p in g.table for w in p.words),
                   # the first leaves no rest piece
                   extra=tuple(gamma_tv(t, Cylinders.of(w)) for t, w in (
                       (1, "0"), (1, "00"), (2, "01"), (-1, "11"), (3, "010"), (5, "1011")))),
}
# kernels that chabauty._protocol rejects with TypeError
NO_REGION_PROTOCOL = (PPMap, TreeAut)


def _kernel(family):
    return type(family.group.identity)


def _same(x, y):
    assert x == y and hash(x) == hash(y)


def _power(family, g, n):
    """g ** n as |n| products of g or its inverse."""
    base = g if n > 0 else g.inverse()
    return reduce(lambda acc, _: acc * base, range(abs(n)), family.group.identity)


# -- the checks, each on an element f, a partner g and a power n ---------------


def check_laws(family, f, g, n):
    e = family.group.identity
    for x, y in ((e * f, f), (f * e, f), (f * f.inverse(), e), (f.inverse() * f, e),
                 (f.inverse().inverse(), f), (f ** n, _power(family, f, n)),
                 ((f ** n).inverse(), f ** -n),
                 # balls key elements by == and hash, which must not depend
                 # on how a product was bracketed or an inverse was taken
                 ((f * g) * f, f * (g * f)), ((f * g).inverse(), g.inverse() * f.inverse()),
                 (f * g * g.inverse(), f)):
        _same(x, y)
    assert (f * f.inverse()).is_identity() and (f == e) == f.is_identity()
    assert (f == g) == (f * g.inverse()).is_identity()


def check_action(family, f, g, n):
    for x in family.points:
        act = family.act
        assert act(f * g, x) == act(f, act(g, x)) and act(f.inverse(), act(f, x)) == x
        assert act(f ** n, x) == act(_power(family, f, n), x)


def check_json(family, f, g, n):
    read = family.read or _kernel(family).from_json
    for h in (f, g, f * g, f.inverse(), f ** n):
        _same(read(json.loads(json.dumps(h.to_json()))), h)


def check_rebuild(family, f, g, n):
    slots = _kernel(family).__slots__
    for h in (f, g, f * g, g * f, f.inverse(), (f * g).inverse(), f ** n, f * f.inverse()):
        rebuilt = family.rebuild(h)
        assert [getattr(rebuilt, s) for s in slots] == [getattr(h, s) for s in slots]
        assert hash(rebuilt) == hash(h) and family.reduced(h)


def check_support(family, f, g, n):
    for h in (f, f * g):
        support = h.support()
        for cell in h.region_type.cells(5):
            if cell.disjoint_from(support):
                assert h.identity_on(cell)
            elif cell.subset_of(support):
                # the support is the closure of the open set h moves
                assert not h.identity_on(cell)


@cache
def _deep(region_type, z):
    """z's neighbourhood at depth 64, finer than the pieces of any element here."""
    return deque(region_type.neighbourhoods(z, 64), maxlen=1)[0]


def check_germ(family, f, g, n):
    for h in (f, f * g):
        for z in family.points:
            assert h.germ_trivial_at(z) == h.identity_on(_deep(h.region_type, z))


def check_conjugation(family, f, g, n):
    for h in (g, *family.group.gens.values()):
        assert (h * f * h.inverse()).support() == f.support().image(h)


CHECKS = {"laws": check_laws, "action": check_action, "json": check_json,
          "rebuild": check_rebuild, "support": check_support, "germ": check_germ,
          "conjugation": check_conjugation}


def _checks(family):
    """The names of the checks that apply to family: the last three need regions."""
    return list(CHECKS)[:4 if _kernel(family) in NO_REGION_PROTOCOL else None]


@pytest.mark.parametrize("check, name", [(c, name) for name, family in FAMILIES.items()
                                         for c in _checks(family)])
def test_on_ball_words(check, name):
    family = FAMILIES[name]
    elements = ball(family.group, family.radius).elements
    # each element meets the next one as its partner, and a power in -3..3
    for i, f in enumerate(elements):
        CHECKS[check](family, f, elements[(i + 1) % len(elements)], i % 7 - 3)


def _word(letters, indices):
    return reduce(lambda g, i: g * letters[i % len(letters)], indices[1:],
                  letters[indices[0] % len(letters)])


_WORD = st.lists(st.integers(0, 11), min_size=1, max_size=7)


# one run per family, not per check: Hypothesis takes about as long per example
@pytest.mark.parametrize("name", FAMILIES)
@settings(max_examples=60)
@given(u=_WORD, w=_WORD, n=st.integers(-3, 3))
def test_on_hypothesis_words(name, u, w, n):
    family = FAMILIES[name]
    letters = tuple(family.group.gens.values()) + family.extra
    f, g = _word(letters, u), _word(letters, w)
    for check in _checks(family):
        CHECKS[check](family, f, g, n)


@pytest.mark.parametrize("kernel", NO_REGION_PROTOCOL, ids=lambda k: k.__name__)
def test_kernels_without_the_region_protocol_raise_type_error(kernel):
    element = next(f.group.gens["a"] for f in FAMILIES.values() if _kernel(f) is kernel)
    name = kernel.__name__
    with pytest.raises(TypeError, match=name + ".*germ_trivial_at"):
        SubgroupSpec.identity_germ_at(Dyadic(0)).contains(element)
    with pytest.raises(TypeError, match=name + ".*support"):
        SubgroupSpec.support_inside(Cylinders.of("0")).contains(element)
    with pytest.raises(TypeError, match=name + ".*region_type"):
        disjoint_open_search([element], Dyadic(0))
    assert SubgroupSpec.whole_group().contains(element)


def _subclasses(cls):
    return {c for sub in cls.__subclasses__() for c in (sub, *_subclasses(sub))}


def test_every_kernel_is_in_the_battery():
    for module in pkgutil.iter_modules(germlab.__path__):
        importlib.import_module("germlab." + module.name)
    kernels = {_kernel(f) for f in FAMILIES.values()}
    assert kernels | set(NO_REGION_PROTOCOL) == _subclasses(GroupElement)
    assert {k for k in kernels if not hasattr(k, "region_type")} == set(NO_REGION_PROTOCOL)

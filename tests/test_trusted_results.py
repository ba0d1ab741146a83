"""Products, inverses and powers build PrefixMap, PPMap and FullGroupElement
results without the public constructor's checks.  Each _validate helper
reruns those checks on a result and asks for exactly what the public
constructor makes of the result's own fields, plus the reduced form that
constructor promises, checked independently of it."""

from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from germlab.cantorv import STANDARD_GENERATORS, Cylinders, PrefixMap
from germlab.fullgroups import FullGroupElement, gamma_tv
from germlab.projline import LM_A, LM_B, LM_C, PPMap


def _validate_prefix(f):
    rebuilt = PrefixMap(f.rules)  # both codes are checked here
    assert rebuilt.rules == f.rules and hash(rebuilt) == hash(f)
    assert list(f.rules) == sorted(f.rules)
    rules = set(f.rules)
    for v, z in rules:
        # no sibling pair u0 -> r0, u1 -> r1 is left unmerged
        if v.endswith("1") and z.endswith("1"):
            assert (v[:-1] + "0", z[:-1] + "0") not in rules


def _validate_pp(g):
    rebuilt = PPMap(g.breaks, g.maps)  # order, poles, infinity, continuity
    assert rebuilt.breaks == g.breaks and rebuilt.maps == g.maps
    assert hash(rebuilt) == hash(g)
    assert all(m != n for m, n in zip(g.maps, g.maps[1:]))


def _validate_full(g):
    rebuilt = FullGroupElement([(piece, shift) for shift, piece in g.table])
    assert rebuilt.table == g.table and rebuilt._cells == g._cells
    assert hash(rebuilt) == hash(g)
    shifts = [shift for shift, _ in g.table]
    assert shifts == sorted(set(shifts))
    assert all(piece.words and Cylinders(piece.words) == piece for _, piece in g.table)
    assert list(g._cells) == sorted((w, s) for s, piece in g.table for w in piece.words)


def _letters(gens):
    return tuple(gens) + tuple(g.inverse() for g in gens)


# (t, word) of admissible gamma_tv(t, C_word); the first leaves no rest piece
_GAMMAS = ((1, "0"), (1, "00"), (2, "01"), (-1, "11"), (3, "010"), (5, "1011"))

FAMILIES = {
    "V": (_letters(STANDARD_GENERATORS), _validate_prefix),
    "LM": (_letters((LM_A, LM_B, LM_C)), _validate_pp),
    "full": (tuple(gamma_tv(t, Cylinders.of(w)) for t, w in _GAMMAS), _validate_full),
}


def _word(letters, indices):
    return reduce(lambda g, i: g * letters[i], indices[1:], letters[indices[0]])


_WORD = st.lists(st.integers(0, 11), min_size=1, max_size=7)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=60)
@given(u=_WORD, w=_WORD, n=st.integers(-3, 3))
def test_products_inverses_and_powers_pass_the_public_checks(family, u, w, n):
    letters, validate = FAMILIES[family]
    for g in letters:
        validate(g)
    f = _word(letters, [i % len(letters) for i in u])
    g = _word(letters, [i % len(letters) for i in w])
    for h in (f, g, f * g, g * f, f.inverse(), (f * g).inverse(), f ** n, f * f.inverse()):
        validate(h)
    assert (f * f.inverse()).is_identity()
    # balls key elements by == and hash, which must not depend on how a
    # product was bracketed
    left, right = (f * g) * f, f * (g * f)
    assert left == right and hash(left) == hash(right)

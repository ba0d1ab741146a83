"""Finite coset covers: a cover of a finite group by r cosets holds one of
index at most r (Neumann), checked for one cover and swept over Z/n."""

from itertools import combinations
from math import comb

from .kernel import Immutable, check_budget


class FiniteGroup(Immutable):
    """A finite group as a multiplication table over 0..n-1.

    A set of elements is also an n-bit mask, bit x for element x, so a
    union of cosets is an OR and a cover test compares with 2**n - 1.
    The n**3 associativity check obeys GERMLAB_BUDGET: past it, it raises
    BudgetError before looping.
    """

    __slots__ = ("table", "identity")

    def __init__(self, table):
        n = len(table)
        rows = tuple(tuple(row) for row in table)
        if any(len(row) != n for row in rows):
            raise ValueError("table must be square")
        if any(x < 0 or x >= n for row in rows for x in row):
            raise ValueError("entries must index elements")
        check_budget(n ** 3, "%d associativity steps of a %d-element table" % (n ** 3, n))
        identity = None
        for e in range(n):
            if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
                identity = e
        if identity is None:
            raise ValueError("no identity element")
        for a in range(n):
            if identity not in rows[a]:
                raise ValueError("element %d has no inverse" % a)
            for b in range(n):
                for c in range(n):
                    if rows[rows[a][b]][c] != rows[a][rows[b][c]]:
                        raise ValueError("multiplication is not associative")
        object.__setattr__(self, "table", rows)
        object.__setattr__(self, "identity", identity)

    def __len__(self):
        return len(self.table)

    def _mask(self, elements):
        """The mask of a set of elements."""
        bits = 0
        for x in elements:
            if not 0 <= x < len(self.table):
                raise ValueError("element %r is not in 0..%d" % (x, len(self.table) - 1))
            bits |= 1 << x
        return bits

    def _closed(self, bits):
        """Whether the mask holds the identity and each product of two of its
        elements."""
        members = _members(bits)
        rows = self.table
        return bits >> self.identity & 1 == 1 and all(
            bits >> rows[a][b] & 1 for a in members for b in members)

    def _coset_mask(self, bits, rep):
        row, out = self.table[rep], 0
        for s in _members(bits):
            out |= 1 << row[s]
        return out


def _members(bits):
    """The elements of a mask, in increasing order."""
    return [x for x in range(bits.bit_length()) if bits >> x & 1]


def cyclic_group(n):
    return FiniteGroup([[(a + b) % n for b in range(n)] for a in range(n)])


def neumann_check(group, cover):
    """Minimal subgroup index in a finite coset cover.

    The cover is a list of (subgroup elements, coset representative); it must
    exactly cover the group.  A minimum index above the number of cosets
    raises RuntimeError.
    """
    cosets = []
    for subgroup, rep in cover:
        bits = group._mask(subgroup)
        if not group._closed(bits):
            raise ValueError("cover lists a non-subgroup")
        cosets.append((group._coset_mask(bits, rep), len(group) // bits.bit_count()))
    return _min_index(len(group), cosets)


def _min_index(n, cosets):
    """neumann_check on (coset mask, subgroup index) pairs."""
    covered = 0
    for bits, _ in cosets:
        covered |= bits
    if covered != (1 << n) - 1:
        raise ValueError("not a cover: union misses elements")
    best = min(index for _, index in cosets)
    if best > len(cosets):
        raise RuntimeError(
            "a cover by %d cosets has minimal index %d" % (len(cosets), best)
        )
    return best


def neumann_sweep(n_max, r_max):
    """Exhaustive coset-cover check over all cyclic groups of order <= n_max.

    Every set of at most r_max distinct cosets whose union is the whole group
    is validated as neumann_check validates a cover, and the worst minimal
    index seen is reported.  Z/n has one subgroup dZ/n, of index d, for
    each d dividing n, and its cosets are its mask shifted by 0..d-1.  The
    sets are counted first: when the sum of comb(cosets, r) over every
    order and r passes GERMLAB_BUDGET, BudgetError is raised before any
    set is tried.
    """
    if n_max < 0 or r_max < 0:
        raise ValueError("n_max and r_max must be nonnegative, got %d and %d" % (n_max, r_max))
    tables, count = [], 0
    for n in range(1, n_max + 1):
        cosets = []
        for d in range(1, n + 1):
            if n % d == 0:
                bits = sum(1 << x for x in range(0, n, d))
                cosets += [(bits << k, d) for k in range(d)]
        count += sum(comb(len(cosets), r) for r in range(1, r_max + 1))
        check_budget(count, "%d coset sets in groups of order up to %d" % (count, n))
        tables.append((n, cosets))
    covers_checked = 0
    max_min_index = 0
    for n, cosets in tables:
        whole = (1 << n) - 1
        for r in range(1, r_max + 1):
            for chosen in combinations(cosets, r):
                union = 0
                for bits, _ in chosen:
                    union |= bits
                if union != whole:
                    continue
                best = _min_index(n, chosen)
                covers_checked += 1
                if best > max_min_index:
                    max_min_index = best
    return {
        "groups": n_max,
        "r_max": r_max,
        "covers_checked": covers_checked,
        "max_min_index": max_min_index,
    }

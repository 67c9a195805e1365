"""Recognition of the finite subgroups of PGL2 that show up as
automorphism groups.

Only a handful of isomorphism types occur (cyclic, dihedral, A4, S4, A5,
and in small characteristic some extras such as PGL2(F_q) itself or
p-group extensions).  The classifier works from the multiset of element
orders, which separates all the types we can name; anything else keeps a
generic "G<n>" label.

Convention: "D<n>" is the dihedral group OF ORDER n, so D4 is the Klein
four group and D6 is the symmetric group on three letters.
"""

from __future__ import annotations

from collections import Counter

from .projline import Mobius

CLOSURE_CAP = 200000


def _span(gens, pool, cap):
    """The subgroup generated by gens, walked breadth first from the
    identity by multiplying each new element by each generator; None as
    soon as a new element falls outside pool (unless pool is None)."""
    seen, frontier = set(), {Mobius.identity(gens[0].K)}
    while frontier:
        if pool is not None and not frontier <= pool:
            return None
        seen |= frontier
        if len(seen) > cap:
            raise RuntimeError("closure exceeded %d elements" % cap)
        frontier = {a.compose(g) for a in frontier for g in gens} - seen
    return seen


def is_closed(elements) -> bool:
    """Whether the list is closed under composition (and hence a group,
    being a finite set of invertible elements): generators are picked
    greedily, each outside the span of those before it, and the list is a
    group iff no span leaves it, as the last span holds every element."""
    pool = set(elements)
    gens, span = [], set()
    for s in elements:
        if s not in span and not s.is_identity():
            gens.append(s)
            span = _span(gens, pool, len(pool))
            if span is None:
                return False
    return True


def closure(elements, cap: int = CLOSURE_CAP):
    """The subgroup generated by the given elements, as a sorted list."""
    if not elements:
        raise ValueError("need at least one generator")
    return sorted(_span(elements, None, cap), key=lambda s: s.sort_key())


def group_structure(elements) -> str:
    """ASCII isomorphism-type label for a finite subgroup of PGL2.

    Raises ValueError when the input is not closed under composition.
    """
    n = len(elements)
    if n == 0:
        raise ValueError("empty element list")
    if not is_closed(elements):
        raise ValueError("element list is not closed under composition")
    orders = Counter(s.order() for s in elements)
    if orders[n]:
        return "C%d" % n
    if n == 12 and set(orders) <= {1, 2, 3}:
        return "A4"
    if n == 24 and orders == Counter({1: 1, 2: 9, 3: 8, 4: 6}):
        return "S4"
    if n == 60 and set(orders) <= {1, 2, 3, 5}:
        return "A5"
    # dihedral of order n: a rotation of order n/2 plus n/2 reflections
    if n % 2 == 0 and orders[n // 2] and orders[2] >= n // 2:
        return "D%d" % n
    return "G%d" % n

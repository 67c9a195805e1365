"""Aut and Conj solvers over Q.

For Aut at moderate degree the field-generic fixed point engine runs
unchanged over Q (the char-p step is vacuous and the multiplier lists
collapse to -1 and the quadratic cyclotomics).

The CRT engine handles everything else: reduce both maps at good primes
p >= 5 not dividing d (a wild prime p | d can leave all of PGL2(F_p) in
the fiber, and any set of good primes certifies the answer), compute
the finite fiber mod p with the finite-field dispatch of
aut_ff and conj_ff (the pinned exhaustive scan up to p = 97, invariant
sets above), CRT all combinations of residue vectors together, lift each
to the short integer vectors of its congruence lattice, and verify
candidates exactly.  For Aut the combinations stay within one stratum:
a rational element of order 2, 3, 4 or 6 reduces to a fiber element of
the same order, whose tr^2/det is 0, 1, 2 or 3 mod p, so only residues
of equal class are combined, and residues that are reductions of
elements already found are dropped.  Reduction at a good prime is
injective on the rational answer, which yields the termination tests:

  (a) the rational count matches some fiber count: nothing is missing;
  (b) group bookkeeping: the rational group order divides every fiber
      order, and each rational element of order n reduces to a fiber
      element of order n, so the fiber order statistics can certify that
      the subgroup found so far is everything;
  (c) once the combined modulus exceeds twice the squared height bound,
      the lattice enumeration provably sees every element.

An empty Conj fiber at any prime proves non-conjugacy immediately.
"""

from __future__ import annotations

import itertools
import math

from .domains import QQ
from .exact import crt_combine, l2_norm_sq, shortest_congruent_lift
from .ffsolvers import (_aut_ff_elements, _invariant_form, _sorted_mobius,
                        aut_fixed_points, conj_ff)
from .groups import closure, group_structure
from .ntheory import next_prime
from .projline import Mobius, RatMap, is_automorphism, is_conjugating
from .results import AutResult, ConjResult

PRIME_CAP = 40          # rounds before the CRT search gives up
COMBO_GUARD = 500_000   # hard cap on residue combinations per lifting pass
COMBO_BUDGET = 10_000   # lifting works on the cheapest primes within this
# tr^2/det of the rational Mobius maps of order 2, 3, 4 and 6, the only
# orders > 1 over Q; for p >= 5 each class mod p is exactly one order
ORDER_CLASSES = (0, 1, 2, 3)

FIXED_POINT_DEGREE_LIMIT = 12


def conjugacy_height_bound(phi: RatMap, psi: RatMap | None = None) -> int:
    """ceil(6 * |f_T(phi)|_2^3 * |f_T(psi)|_2^3), f_T the primitive integer
    form cutting out the invariant point set (fixed points, pulled back
    through the map until at least three points): every rational
    conjugation between the maps has height at most this."""
    a = l2_norm_sq(_invariant_form(phi)[0])
    b = a if psi is None or psi is phi else l2_norm_sq(_invariant_form(psi)[0])
    t = 36 * a**3 * b**3
    s = math.isqrt(t)
    return s if s * s == t else s + 1


def _good_primes(maps):
    """Primes p >= 5 at which every map has good reduction, p not
    dividing its resultant: each map's forms mod p keep degree d and
    stay coprime.  The resultant itself is never computed."""
    p = 3
    while True:
        p = next_prime(p)
        if all(m.is_good_prime(p) for m in maps):
            yield p


def _combinations(fibers) -> int:
    """Residue combinations of a list of (p, classes) fibers: per class,
    the product over the primes of its residue count, summed."""
    return sum(math.prod(len(classes[c]) for _, classes in fibers)
               for c in range(len(fibers[0][1])))


def _choose_fibers(class_fibers):
    """The primes whose fibers get combined this round: smallest fibers
    first (bigger prime breaking ties, for a larger combined modulus),
    each one kept if the combination count stays within budget."""
    ranked = sorted(class_fibers,
                    key=lambda t: (sum(map(len, t[1])), -t[0]))
    use = []
    for fib in ranked:
        if use and _combinations(use + [fib]) > COMBO_BUDGET:
            continue
        use.append(fib)
    return use


def _lift_candidates(class_fibers, M):
    """CRT every combination of per-prime residue vectors within one class
    and enumerate the short lifts of each, deduplicated.  Returns the
    candidates and the combined modulus actually used."""
    if _combinations(class_fibers) > COMBO_GUARD:
        raise RuntimeError("fiber combinations exceed %d" % COMBO_GUARD)
    out = []
    seen = set()
    N = math.prod(p for p, _ in class_fibers)
    for c in range(len(class_fibers[0][1])):
        for combo in itertools.product(*[classes[c] for _, classes in class_fibers]):
            pairs = [(vec, p) for vec, (p, _) in zip(combo, class_fibers)]
            r, n = crt_combine(pairs)
            for v in shortest_congruent_lift(r, n, height_bound=M):
                if v not in seen:
                    seen.add(v)
                    out.append(v)
    return out, N


def _order_classes(p: int, fib, found):
    """The residues of an Aut fiber mod p by their class tr^2/det in
    ORDER_CLASSES, leaving out the reductions of elements already found.

    A rational element of order 2, 3, 4 or 6 reduces to a fiber element
    of the same order, whose class is 0, 1, 2 or 3 respectively; these
    are distinct for p >= 5.  Everything else in the fiber (the identity
    and unipotents at 4, elements of orders no rational Mobius map has)
    is no reduction of an unfound rational element, and reduction is
    injective at a good prime, so no missing element loses its residue.
    """
    known = {s.reduce_mod_p(p) for s in found}
    classes = tuple([] for _ in ORDER_CLASSES)
    for s in fib:
        a, b, c, d = s.t
        cls = (a + d) ** 2 * pow(a * d - b * c, -1, p) % p
        if cls in ORDER_CLASSES and s not in known:
            classes[ORDER_CLASSES.index(cls)].append(s.t)
    return classes


def _order_bound(fibers, counts, g_order: int) -> int:
    """Largest group order compatible with every fiber: divides the gcd
    of the fiber sizes, is a multiple of the order found so far, and fits
    under 1 + (elements of each rational order available in every fiber),
    read from counts, the sizes of each fiber's ORDER_CLASSES."""
    G = 0
    for _, fib in fibers:
        G = math.gcd(G, len(fib))
    caps = sum(min(col) for col in zip(*counts))
    best = g_order
    for D in range(g_order, min(G, 1 + caps) + 1, g_order):
        if G % D == 0:
            best = D
    return best


def _aut_crt(phi: RatMap) -> AutResult:
    M = conjugacy_height_bound(phi)
    stream = (p for p in _good_primes([phi]) if phi.d % p)
    fibers = []
    counts = []
    found = {Mobius.identity(QQ)}
    rejected = set()
    last_used = None
    while True:
        if len(fibers) >= PRIME_CAP:
            raise RuntimeError("CRT search used %d primes without terminating"
                               % PRIME_CAP)
        p = next(stream)
        fib = _aut_ff_elements(phi.reduce_mod_p(p))[0]
        fibers.append((p, fib))
        counts.append([len(c) for c in _order_classes(p, fib, ())])
        class_fibers = [(q, _order_classes(q, fib, found)) for q, fib in fibers]
        use = _choose_fibers(class_fibers)
        used_key = tuple(p for p, _ in use)
        N = 1
        if used_key != last_used:
            last_used = used_key
            cands, N = _lift_candidates(use, M)
            for v in cands:
                if v in rejected:
                    continue
                s = Mobius(QQ, *v)
                if s not in found and not is_automorphism(s, phi):
                    rejected.add(v)
                    continue
                found.add(s)
            found = set(closure(list(found)))
        if any(len(found) == len(fib) for _, fib in fibers):
            break
        if _order_bound(fibers, counts, len(found)) == len(found):
            break
        if N > 2 * M * M:
            break
    els = _sorted_mobius(found)
    return AutResult(tuple(els), group_structure(els), "crt",
                     primes=tuple(p for p, _ in fibers),
                     fibers=tuple(len(fib) for _, fib in fibers),
                     height_bound=M)


def _conj_crt(phi: RatMap, psi: RatMap) -> ConjResult:
    if phi.d != psi.d:
        return ConjResult((), "crt", "degree mismatch")
    M = conjugacy_height_bound(phi, psi)
    stream = (p for p in _good_primes([phi, psi]) if phi.d % p)
    fibers = []
    class_fibers = []
    rejected = set()
    last_used = None
    while True:
        if len(fibers) >= PRIME_CAP:
            raise RuntimeError("CRT search used %d primes without terminating"
                               % PRIME_CAP)
        p = next(stream)
        res = conj_ff(phi.reduce_mod_p(p), psi.reduce_mod_p(p), "auto")
        if not res.elements:
            reason = res.reason or "empty conjugating set mod %d" % p
            return ConjResult((), "crt", reason,
                              primes=tuple([q for q, _ in fibers] + [p]),
                              height_bound=M)
        fib = list(res.elements)
        fibers.append((p, fib))
        class_fibers.append((p, ([s.t for s in fib],)))
        use = _choose_fibers(class_fibers)
        used_key = tuple(p for p, _ in use)
        N = 1
        if used_key != last_used:
            last_used = used_key
            cands, N = _lift_candidates(use, M)
            for v in cands:
                if v in rejected:
                    continue
                s = Mobius(QQ, *v)
                if is_conjugating(s, phi, psi):
                    # one rational conjugation s determines the rest:
                    # Conj = s . Aut(phi)
                    aut = aut_qq(phi)
                    els = _sorted_mobius(s.compose(a) for a in aut.elements)
                    return ConjResult(tuple(els), "crt", "",
                                      primes=tuple(q for q, _ in fibers),
                                      fibers=tuple(len(f) for _, f in fibers),
                                      height_bound=M)
                rejected.add(v)
        if N > 2 * M * M:
            break
    return ConjResult((), "crt", "no conjugation of height at most %d" % M,
                      primes=tuple(p for p, _ in fibers),
                      fibers=tuple(len(fib) for _, fib in fibers),
                      height_bound=M)


def aut_qq(phi: RatMap, algorithm: str = "auto") -> AutResult:
    """Automorphism group of a rational map over Q."""
    if phi.K is not QQ:
        raise TypeError("aut_qq needs a map over Q")
    if algorithm == "auto":
        algorithm = ("fixed-points" if phi.d <= FIXED_POINT_DEGREE_LIMIT
                     else "crt")
    if algorithm == "fixed-points":
        els = aut_fixed_points(phi)
        return AutResult(tuple(els), group_structure(els), "fixed-points")
    if algorithm == "crt":
        return _aut_crt(phi)
    raise ValueError("unknown algorithm %r" % algorithm)


def conj_qq(phi: RatMap, psi: RatMap, algorithm: str = "auto") -> ConjResult:
    """Conjugating set between two rational maps over Q."""
    if phi.K is not QQ or psi.K is not QQ:
        raise TypeError("conj_qq needs maps over Q")
    if algorithm == "auto":
        algorithm = "crt"
    if algorithm != "crt":
        raise ValueError("unknown algorithm %r" % algorithm)
    return _conj_crt(phi, psi)

"""Factorization toolbox.

Finite fields get the classical pipeline: Musser squarefree decomposition
(with p-th root descent), distinct-degree splitting, Cantor-Zassenhaus
equal-degree splitting (trace map in characteristic 2).  distinct_degree
is the one x^q-gcd sieve; with a degree bound it stops there and drops the
cofactor unfactored, which is how roots (bound 1) and the linear and
quadratic factors the solvers need (bound 2) are read off.  stem_root
finds a root of an irreducible h of degree k in an extension of degree k
by one norm (or trace) split whose Frobenius powers are computed over the
ground field.

Over Q we only ever need factors of degree <= 2 (fixed-point and 2-periodic
data of a rational map live in at worst quadratic extensions), so instead
of a general rational factorizer there is small_factors_qq: reduce mod a
good prime, pull out the part whose irreducible factors have degree <= 2
with one gcd against x^(p^2) - x, split it, Hensel-lift the factors in
(Z/p^(2^j))[x] with the residue-ring kernel of poly.py, and test the
symmetric lifts for exact divisibility.  Mignotte's bound says a monic
factor g with deg g <= 2 of F has |coeffs of lc(F)*g| <= 2*||F||_2, so
lifting past 4*||F||_2 identifies every candidate uniquely.  A good prime
is one where the reduction keeps its degree and stays squarefree; the
first one also certifies that the input is squarefree, so the rational
gcd runs only when none of the first 25 primes is good.  _exact_divides
is the one integer exact division (Gauss's lemma keeps the quotient
integral), which the dynatomic form over Q uses too.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .domains import QQ
from .finitefield import IntegersMod, PrimeField
from .ntheory import next_prime
from . import poly as P

_CZ_SEED = 0xC0FFEE


def pth_root(K, f):
    """Inverse of x -> x^p on polynomials with zero derivative (K finite)."""
    p = K.char
    e = K.order // p
    out = []
    for i, c in enumerate(f):
        if i % p == 0:
            out.append(K.pow(c, e))
        elif c != K.zero:
            raise ValueError("not a p-th power")
    return P.pstrip(K, out)


def squarefree_decomposition(K, f) -> dict:
    """{multiplicity: monic product of the factors with that multiplicity}."""
    f = P.pmonic(K, f)
    out: dict[int, tuple] = {}

    def merge(mult, g):
        if P.pdeg(g) > 0:
            out[mult] = P.pmul(K, out.get(mult, (K.one,)), g)

    def run(f, scale):
        if P.pdeg(f) < 1:
            return
        fp = P.pderiv(K, f)
        if not fp:
            run(pth_root(K, f), scale * K.char)
            return
        c = P.pgcd(K, f, fp)
        w = P.pquo(K, f, c)
        i = 1
        while P.pdeg(w) > 0:
            y = P.pgcd(K, w, c)
            merge(i * scale, P.pquo(K, w, y))
            w = y
            c = P.pquo(K, c, y)
            i += 1
        if P.pdeg(c) > 0:
            run(pth_root(K, c), scale * K.char)

    run(f, 1)
    return out


def squarefree_part(K, f):
    """Monic product of the distinct irreducible factors."""
    parts = squarefree_decomposition(K, f)
    out = (K.one,)
    for mult in sorted(parts):
        out = P.pmul(K, out, parts[mult])
    return out


def distinct_degree(K, f, bound=None) -> list[tuple[int, tuple]]:
    """[(d, product of irreducible factors of degree d)], f squarefree.

    With a bound, only d <= bound: the sieve stops there and the cofactor,
    whose factors all have larger degree, is dropped unfactored, so the
    cost scales with the bound, not with deg f.
    """
    q = K.order
    x = P.pmono(K, 1)
    out = []
    cur = P.pmonic(K, f)
    h = P.pmod(K, x, cur)
    d = 0
    while P.pdeg(cur) > 2 * d + 1 and (bound is None or d < bound):
        d += 1
        h = P.ppow_mod(K, h, q, cur)
        g = P.pgcd(K, P.psub(K, h, x), cur)
        if P.pdeg(g) > 0:
            out.append((d, g))
            cur = P.pquo(K, cur, g)
            h = P.pmod(K, h, cur)
    # every factor of cur has degree > d: cur is irreducible once
    # deg cur <= 2d + 1, and that is the only way it fits under the bound
    if 0 < P.pdeg(cur) and (bound is None or P.pdeg(cur) <= bound):
        out.append((P.pdeg(cur), cur))
    return out


def _split(K, f, d: int, rng):
    """A proper monic factor of f, a monic squarefree product of at least
    two degree-d irreducibles (Cantor-Zassenhaus)."""
    n = P.pdeg(f)
    q = K.order
    while True:
        a = P.pstrip(K, tuple(K.random_element(rng) for _ in range(n)))
        if P.pdeg(a) < 1:
            continue
        g = P.pgcd(K, a, f)
        if 0 < P.pdeg(g) < n:
            return g
        if q % 2 == 1:
            b = P.ppow_mod(K, a, (q**d - 1) // 2, f)
            g = P.pgcd(K, P.psub(K, b, (K.one,)), f)
        else:
            # trace map over GF(2): sum of a^(2^i), i < log2(q^d)
            md = (q**d).bit_length() - 1
            t = a
            s = a
            for _ in range(md - 1):
                s = P.pmod(K, P.pmul(K, s, s), f)
                t = P.padd(K, t, s)
            g = P.pgcd(K, t, f)
        if 0 < P.pdeg(g) < n:
            return g


def equal_degree(K, f, d: int, rng) -> list[tuple]:
    """Split a monic squarefree product of degree-d irreducibles."""
    if P.pdeg(f) == d:
        return [f]
    g = _split(K, f, d, rng)
    return equal_degree(K, g, d, rng) + equal_degree(K, P.pquo(K, f, g), d, rng)


def stem_root(E, h):
    """A root in E = K[x]/(g), k = [E : K], of h, monic and irreducible of
    degree k over the finite field K, so that h splits into distinct
    linear factors over E (von zur Gathen and Shoup's Frobenius powers).

    E[y]/(h) is a product of copies of E, one per root b, and
    pi_i = y^(q^i) mod h, computed over K, takes the value F^i(b) at each.
    For c in E, N = prod_i (pi_i + F^i(c)) takes the value N_{E/K}(b + c)
    in K at b, and N^((q-1)/2) its quadratic character over K; for even q,
    T = sum_i F^i(c) pi_i takes Tr_{E/K}(c b), and the sum of its
    2^l-th powers, l < log2 q, the trace down to F_2.  So one gcd with h
    splits off the roots of one character value, and a c outside K
    separates two roots with probability about 1/2.  A factor of degree
    >= 2 that remains is split by Cantor-Zassenhaus.
    """
    K = E.base
    k = E.k
    q = K.order
    pis = [P.pmono(K, 1)]
    for _ in range(k - 1):
        pis.append(P.ppow_mod(K, pis[-1], q, h))
    pis = [tuple(E.embed(c) for c in pi) for pi in pis]
    h = tuple(E.embed(c) for c in h)
    rng = random.Random(_CZ_SEED)
    while True:
        c = E.random_element(rng)
        conj = [c]
        for _ in range(k - 1):
            conj.append(E.frobenius(conj[-1]))
        if conj[1] == c:  # c in K: every root gives the same value
            continue
        if q % 2:
            N = P.padd(E, pis[0], (c,))
            for pi, ci in zip(pis[1:], conj[1:]):
                N = P.pmod(E, P.pmul(E, N, P.padd(E, pi, (ci,))), h)
            t = P.psub(E, P.ppow_mod(E, N, (q - 1) // 2, h), (E.one,))
        else:
            T = ()
            for pi, ci in zip(pis, conj):
                T = P.padd(E, T, P.pscale(E, pi, ci))
            t = s = T
            for _ in range(q.bit_length() - 2):
                s = P.pmod(E, P.pmul(E, s, s), h)
                t = P.padd(E, t, s)
        f = P.pgcd(E, t, h)
        if 0 < P.pdeg(f) < k:
            break
    # keep the smaller side of each split down to one root
    f = min(f, P.pquo(E, h, f), key=len)
    while P.pdeg(f) > 1:
        g = _split(E, f, 1, rng)
        f = min(g, P.pquo(E, f, g), key=len)
    return E.neg(f[0])


def factor_ff(K, f, rng=None, bound=None) -> list[tuple[tuple, int]]:
    """Monic irreducible factorization over a finite field.

    Returns [(factor, multiplicity)] sorted by degree then coefficients;
    the unit is dropped.  With a bound, only the factors of degree <= bound
    (see distinct_degree).  Deterministic for a fixed seed.
    """
    if rng is None:
        rng = random.Random(_CZ_SEED)
    if P.pdeg(f) < 1:
        return []
    out = []
    for mult, part in squarefree_decomposition(K, f).items():
        for d, prod in distinct_degree(K, part, bound):
            for g in equal_degree(K, prod, d, rng):
                out.append((g, mult))
    out.sort(key=lambda t: (P.pdeg(t[0]), [K.sort_key(c) for c in t[0]]))
    return out


def roots_ff(K, f) -> list[tuple]:
    """[(root, multiplicity)] over a finite field K, sorted."""
    out = [(K.neg(g[0]), mult) for g, mult in factor_ff(K, f, bound=1)]
    out.sort(key=lambda t: K.sort_key(t[0]))
    return out


def factorization_type(K, f) -> tuple:
    """Multiset of (degree, multiplicity) over the ground field, sorted."""
    out = []
    for mult, part in squarefree_decomposition(K, f).items():
        for d, prod in distinct_degree(K, part):
            out.extend([(d, mult)] * (P.pdeg(prod) // d))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# forms

def form_radical(K, F) -> tuple:
    """Squarefree form with the same roots in P^1, including infinity;
    over Q a primitive integer form (squarefree_part_qq)."""
    f = P.dehom(K, F)
    if K.char == 0:
        g, zero = squarefree_part_qq(f), 0
    else:
        g, zero = squarefree_part(K, f), K.zero
    if P.form_ymult(K, F) > 0:
        return tuple(g) + (zero,)
    return tuple(g)


def form_factorization_type(K, F) -> tuple:
    """factorization_type of the dehomogenization, plus a (1, ymult) entry."""
    out = list(factorization_type(K, P.dehom(K, F)))
    m = P.form_ymult(K, F)
    if m > 0:
        out.append((1, m))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# rational factors of degree <= 2 via mod-p reduction and Hensel lifting

def _sym(c, m):
    c %= m
    return c - m if 2 * c > m else c


def _hensel_pair(F, g, h, t, p, target):
    """Lift F = g*h from mod p to mod p^(2^j) >= target; g monic.

    t is the inverse of h mod (g, p).  Returns (g, h, modulus).
    """
    m = p
    while m < target:
        m *= m
        R = IntegersMod(m)
        e = P.psub(R, tuple(c % m for c in F), P.pmul(R, g, h))
        dg = P.pmod(R, P.pmul(R, t, e), g)
        g2 = P.padd(R, g, dg)
        dh, rem = P.pdivmod(R, P.psub(R, e, P.pmul(R, h, dg)), g2)
        if rem:
            raise ArithmeticError("hensel step lost divisibility")
        h = P.padd(R, h, dh)
        # newton-update the inverse: t <- t*(2 - h*t) mod (g2, m)
        ht = P.pmod(R, P.pmul(R, h, t), g2)
        t = P.pmod(R, P.pmul(R, t, P.psub(R, (2,), ht)), g2)
        g = g2
    return g, h, m


def _monic_qq(f):
    lead = Fraction(f[-1])
    return tuple(Fraction(c) / lead for c in f)


def _exact_divides(cand, F):
    """F / cand for a primitive integer cand and an integer F, or None
    when cand does not divide F in Q[x].

    By Gauss's lemma the quotient then has integer coefficients, so long
    division runs in integers and stops at the first leading coefficient
    that lc(cand) does not divide.
    """
    lead = cand[-1]
    m = len(cand) - 1
    rem = list(F)
    quo = [0] * max(len(rem) - m, 0)
    for top in range(len(rem) - 1, m - 1, -1):
        q, r = divmod(rem[top], lead)
        if r:
            return None
        if q:
            quo[top - m] = q
            for i, c in enumerate(cand, top - m):
                rem[i] -= q * c
    return None if any(rem[:m]) else tuple(quo)


def _squarefree_int(F):
    """Primitive integer squarefree part of an integer polynomial."""
    fq = tuple(Fraction(c) for c in F)
    g = P.pgcd(QQ, fq, P.pderiv(QQ, fq))
    w = P.pquo(QQ, fq, g)
    den = math.lcm(*(c.denominator for c in w))
    return P.primitive(tuple(int(c * den) for c in w))


def _good_reductions(F, cap=None):
    """(GF(p), F mod p) for the primes p >= 5, in order, at which the
    reduction of the integer polynomial F keeps its degree and stays
    squarefree; each one certifies that F is squarefree.  With a cap, gives
    up when none of the first cap primes is one."""
    p = 3
    found = False
    for tried in itertools.count():
        if tried == cap and not found:
            return
        p = next_prime(p)
        if F[-1] % p == 0:
            continue
        K = PrimeField(p)
        fbar = tuple(c % p for c in F)
        if P.pdeg(P.pgcd(K, fbar, P.pderiv(K, fbar))) == 0:
            found = True
            yield K, fbar


def _squarefree_qq(f):
    """(squarefree part of a rational polynomial as a primitive integer
    tuple, its good reductions from _good_reductions).

    A good reduction of f itself certifies that f is squarefree, which
    skips the rational gcd, whose coefficient growth is brutal at the
    degrees the dynatomic polynomials reach.
    """
    fq = P.pstrip(QQ, tuple(Fraction(c) for c in f))
    den = math.lcm(*(c.denominator for c in fq))
    fi = P.primitive(tuple(int(c * den) for c in fq))
    probes = _good_reductions(fi, cap=25)
    first = next(probes, None)
    if first is not None:
        return fi, itertools.chain((first,), probes)
    Fs = _squarefree_int(fi)
    return Fs, _good_reductions(Fs)


def squarefree_part_qq(f) -> tuple[int, ...]:
    """Squarefree part of a nonzero rational polynomial, as a primitive
    integer tuple."""
    return _squarefree_qq(f)[0]


def small_factors_qq(F) -> tuple[list, list]:
    """Monic rational factors of degree 1 and 2 of an integer polynomial.

    Returns (linears, quadratics): linears as monic (c0, 1) Fraction pairs,
    quadratics as monic irreducible (c0, c1, 1) Fraction triples.  Each
    distinct factor is reported once, without multiplicity.
    """
    fq = P.pstrip(QQ, tuple(Fraction(c) for c in F))
    if P.pdeg(fq) < 1:
        return [], []
    Fs, probes = _squarefree_qq(fq)
    n = P.pdeg(Fs)
    linears: list[tuple] = []
    quads: list[tuple] = []

    def classify(monic):
        if len(monic) == 2:
            if monic not in linears:
                linears.append(monic)
            return
        c0, c1, _ = monic
        disc = c1 * c1 - 4 * c0
        if QQ.is_square(disc):
            r = QQ.sqrt(disc)
            for root in ((-c1 + r) / 2, (-c1 - r) / 2):
                lin = (-root, Fraction(1))
                if lin not in linears:
                    linears.append(lin)
        elif monic not in quads:
            quads.append(monic)

    if n <= 2:
        classify(_monic_qq(tuple(Fraction(c) for c in Fs)))
        linears.sort()
        quads.sort()
        return linears, quads

    # among the first three good reductions prefer the smallest product of
    # the factors of degree <= 2, gcd(fbar, x^(p^2) - x), one gcd where
    # distinct_degree(K, fbar, 2) would take two
    best = None
    for K, fbar in itertools.islice(probes, 3):
        x = P.pmono(K, 1)
        part = P.pgcd(K, P.psub(K, P.ppow_mod(K, x, K.p * K.p, fbar), x), fbar)
        if best is None or P.pdeg(part) < P.pdeg(best[2]):
            best = (K, fbar, part)
        if P.pdeg(part) == 0:
            break
    K, fbar, part = best
    rng = random.Random(_CZ_SEED)
    small = [g for d, prod in distinct_degree(K, part) for g in equal_degree(K, prod, d, rng)]
    # mignotte: coefficients of lc*g are bounded by 2*||Fs||_2
    target = 4 * (math.isqrt(sum(c * c for c in Fs)) + 1) + 1
    lifted = []
    for g in small:
        h = P.pquo(K, fbar, g)
        t = P.pxgcd(K, h, g)[1]
        t = P.pmod(K, t, g)
        gl, _, m = _hensel_pair(Fs, g, h, t, K.p, target)
        lifted.append((P.pdeg(g), gl, m))

    candidates = [(g, m) for d, g, m in lifted]
    lin_lifts = [(g, m) for d, g, m in lifted if d == 1]
    for (g1, m), (g2, _) in itertools.combinations(lin_lifts, 2):
        candidates.append((P.pmul(IntegersMod(m), g1, g2), m))

    lead = Fs[-1]
    seen = set()
    for g, m in candidates:
        c = tuple(_sym(lead * coef % m, m) for coef in g)
        c = P.primitive(c)
        if c in seen:
            continue
        seen.add(c)
        if _exact_divides(c, Fs) is not None:
            classify(_monic_qq(c))
    linears.sort()
    quads.sort()
    return linears, quads

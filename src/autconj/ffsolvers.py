"""Aut and Conj solvers over finite fields.

Three engines, in increasing sophistication:

  * exhaustive search over PGL2(F_q), viable while q(q^2 - 1) stays small;
  * the invariant-set method: both maps carry a small canonical point set
    (fixed points, pulled back through the map until it has at least three
    elements), and any conjugation must carry one set onto the other, so
    moving one fixed triple onto all ordered triples of the target set
    enumerates every candidate over a splitting field;
  * the fixed-point method for Aut only: an automorphism of finite order
    has its own fixed points constrained to sit among the fixed points,
    2-periodic points and first preimages of the map, which cuts the
    search to a handful of explicitly constructible candidates.  The
    order-p search (p the characteristic) handles the unipotent elements
    the diagonalizable analysis cannot see.

Everything returns exact results; every candidate is confirmed with the
exact conjugation identity before it is reported.

aut_fixed_points is field-generic on purpose: the rational solvers reuse
it over Q, where the char-p loop simply never runs.
"""

from __future__ import annotations

import itertools
import math

from . import poly as P
from .domains import QQ
from .factor import (
    factor_ff,
    factors_up_to,
    roots_ff,
    form_factorization_type,
    form_radical,
    form_distinct_root_count,
    irreducible_poly,
    small_factors_qq,
)
from .finitefield import PrimeField, ExtensionField
from .groups import group_structure
from .projline import (
    Mobius,
    RatMap,
    infinity,
    is_infinity,
    point_key,
    mat_mul,
    map_lift,
    mobius_from_three_points,
    is_conjugating,
    is_automorphism,
    form_rational_roots,
)
from .results import AutResult, ConjResult

# exhaustive search is allowed while |PGL2(F_q)| = q(q^2-1) is below this
EXHAUSTIVE_CEILING = 1_000_000

# refuse splitting fields beyond this degree over the ground field
SPLIT_DEGREE_CAP = 24


def _sorted_mobius(elements):
    return sorted(set(elements), key=lambda s: s.sort_key())


# ---------------------------------------------------------------------------
# exhaustive search

def conj_exhaustive(phi: RatMap, psi: RatMap) -> list:
    """All of Conj_{phi,psi}(F_q) by direct enumeration of PGL2(F_q)."""
    K = phi.K
    q = K.order
    if q is None:
        raise TypeError("exhaustive search needs a finite ground field")
    if q * (q * q - 1) > EXHAUSTIVE_CEILING:
        raise ValueError("field too large for exhaustive search")
    if psi.K != K or phi.d != psi.d:
        return []

    elems = list(K.elements())
    n = len(elems)
    eidx = {e: i for i, e in enumerate(elems)}
    zi = eidx[K.zero]
    onei = eidx[K.one]
    add_t = [[eidx[K.add(x, y)] for y in elems] for x in elems]
    sub_t = [[eidx[K.sub(x, y)] for y in elems] for x in elems]
    mul_t = [[eidx[K.mul(x, y)] for y in elems] for x in elems]
    inv_t = [-1] * n
    for i, e in enumerate(elems):
        if i != zi:
            inv_t[i] = eidx[K.inv(e)]
    INF = n  # point index for (1 : 0)

    def map_table(m):
        f0 = [eidx[c] for c in m.F0]
        f1 = [eidx[c] for c in m.F1]
        tab = []
        for x in range(n):
            num = f0[-1]
            for k in range(len(f0) - 2, -1, -1):
                num = add_t[mul_t[num][x]][f0[k]]
            den = f1[-1]
            for k in range(len(f1) - 2, -1, -1):
                den = add_t[mul_t[den][x]][f1[k]]
            tab.append(mul_t[num][inv_t[den]] if den != zi else INF)
        tab.append(mul_t[f0[-1]][inv_t[f1[-1]]] if f1[-1] != zi else INF)
        return tab

    phi_tab = map_table(phi)
    psi_tab = map_table(psi)
    pts = range(n + 1)
    need_exact = (q + 1) <= 2 * phi.d  # pointwise match is then inconclusive

    def s_at(a, b, c, d, x):
        if x == INF:
            return mul_t[a][inv_t[c]] if c != zi else INF
        den = add_t[mul_t[c][x]][d]
        if den == zi:
            return INF
        return mul_t[add_t[mul_t[a][x]][b]][inv_t[den]]

    found = []
    # a = 1 covers s with a != 0; a = 0, b = 1 covers the rest
    cands = itertools.chain(
        ((onei, b, c, d) for b in range(n) for c in range(n) for d in range(n)
         if sub_t[d][mul_t[b][c]] != zi),
        ((zi, onei, c, d) for c in range(n) if c != zi for d in range(n)),
    )
    for a, b, c, d in cands:
        for x in pts:
            if s_at(a, b, c, d, phi_tab[x]) != psi_tab[s_at(a, b, c, d, x)]:
                break
        else:
            s = Mobius(K, elems[a], elems[b], elems[c], elems[d])
            if not need_exact or is_conjugating(s, phi, psi):
                found.append(s)
    return _sorted_mobius(found)


def aut_exhaustive(phi: RatMap) -> list:
    return conj_exhaustive(phi, phi)


# ---------------------------------------------------------------------------
# invariant-set method

def types_rule_out_conjugacy(phi: RatMap, psi: RatMap):
    """Cheap necessary conditions; a reason string when Conj is provably
    empty, else None.

    The factorization type of the fixed point form (and of its pullback,
    the form cutting out the first preimages of the fixed points) is a
    conjugation invariant, because conjugation acts on those forms by an
    invertible linear substitution and a scalar.
    """
    if phi.d != psi.d:
        return "degree mismatch"
    K = phi.K
    f_phi = phi.fixed_point_form()
    f_psi = psi.fixed_point_form()
    if form_factorization_type(K, f_phi) != form_factorization_type(K, f_psi):
        return "factorization type mismatch"
    pre_phi = P.form_compose(K, f_phi, phi.F0, phi.F1)
    pre_psi = P.form_compose(K, f_psi, psi.F0, psi.F1)
    if form_factorization_type(K, pre_phi) != form_factorization_type(K, pre_psi):
        return "factorization type mismatch"
    return None


def _invariant_form(phi: RatMap):
    """Radical form cutting out a conjugation-covariant point set of size
    >= 3: the fixed points, pulled back through phi until big enough.

    Returns (form, per-stage distinct point counts).
    """
    K = phi.K
    R = form_radical(K, phi.fixed_point_form())
    counts = [P.pdeg(R)]
    while P.pdeg(R) < 3:
        if len(counts) > 3:
            raise RuntimeError("invariant set did not reach three points")
        R = form_radical(K, P.form_compose(K, R, phi.F0, phi.F1))
        counts.append(P.pdeg(R))
    return R, tuple(counts)


def _splitting_field(K, forms):
    """Smallest common field where every root of the given forms lives."""
    degs = set()
    for R in forms:
        for g, _ in factor_ff(K, P.dehom(K, R)):
            degs.add(P.pdeg(g))
    L = 1
    for k in degs:
        L = L * k // math.gcd(L, k)
    if L > SPLIT_DEGREE_CAP:
        raise RuntimeError("splitting field degree %d is out of reach" % L)
    if L == 1:
        return K
    return ExtensionField(K, irreducible_poly(K, L))


def _form_points_over(K, E, R):
    """[(point over E, residue degree over K)] for all roots of R, sorted."""
    g = P.dehom(K, R)
    pts = []
    if P.pdeg(R) > P.pdeg(g):
        pts.append((infinity(E), 1))
    for q, _ in factor_ff(K, g):
        k = P.pdeg(q)
        if E is K:
            for r, _ in roots_ff(K, q):
                pts.append(((r, K.one), k))
        else:
            qe = tuple(E.embed(c) for c in q)
            for r, _ in roots_ff(E, qe):
                pts.append(((r, E.one), k))
    pts.sort(key=lambda t: (t[1], point_key(E, t[0])))
    return pts


def conj_invariant_sets(phi: RatMap, psi: RatMap):
    """(conjugating set over a splitting field E, its rational sublist,
    reason) via the invariant point sets of the two maps.

    Any conjugation carries the invariant set of phi onto that of psi and
    is pinned down by where it sends three points, so sending a fixed
    triple of the source set to every ordered triple of the target set
    enumerates all of Conj over E.  E splits both invariant sets, hence
    contains a matrix for every absolute conjugation; the rational
    sublist is exactly Conj over the ground field.
    """
    K = phi.K
    if K.order is None:
        raise TypeError("invariant-set search needs a finite ground field")
    reason = types_rule_out_conjugacy(phi, psi)
    if reason:
        return [], [], reason
    R_phi, counts_phi = _invariant_form(phi)
    R_psi, counts_psi = _invariant_form(psi)
    if counts_phi != counts_psi:
        return [], [], "invariant point set size mismatch"

    E = _splitting_field(K, (R_phi, R_psi))
    T_phi = _form_points_over(K, E, R_phi)
    T_psi = _form_points_over(K, E, R_psi)
    if E is K:
        phiE, psiE = phi, psi
    else:
        phiE, psiE = map_lift(phi, E), map_lift(psi, E)

    src = tuple(pt for pt, _ in T_phi[:3])
    rest = [pt for pt, _ in T_phi[3:]]
    targets = [pt for pt, _ in T_psi]
    target_set = set(targets)

    absolute = []
    for dst in itertools.permutations(targets, 3):
        try:
            s = mobius_from_three_points(E, src, dst)
        except ValueError:
            continue
        if any(s.apply(pt) not in target_set for pt in rest):
            continue
        if is_conjugating(s, phiE, psiE):
            absolute.append(s)

    if E is K:
        rational = list(absolute)
    else:
        rational = []
        for s in absolute:
            coords = [E.retract(c) for c in s.t]
            if all(c is not None for c in coords):
                rational.append(Mobius(K, *coords))
    return _sorted_mobius(absolute), _sorted_mobius(rational), ""


# ---------------------------------------------------------------------------
# fixed-point method

def _unity_data(K, d: int):
    """Rational roots and monic irreducible quadratic factors of
    x^(d+i) - 1 for i in {-1, 0, 1}: every possible multiplier of an
    automorphism of a degree-d map at a fixed point is a root of one of
    the three, so these lists bound the search.
    """
    if K.char == 0:
        T = [QQ.one, QQ.neg(QQ.one)]
        quads = []
        for m in (d - 1, d, d + 1):
            f = (-1,) + (0,) * (m - 1) + (1,)
            for g in small_factors_qq(f)[1]:
                if g not in quads:
                    quads.append(g)
        return T, quads
    T = set()
    quads = []
    for m in (d - 1, d, d + 1):
        f = P.padd(K, P.pmono(K, m), P.pconst(K, K.neg(K.one)))
        for g, _ in factors_up_to(K, f, 2):
            if P.pdeg(g) == 1:
                T.add(K.neg(g[0]))
            elif g not in quads:
                quads.append(g)
    return sorted(T, key=K.sort_key), quads


def _quad_factors(K, f):
    """Monic irreducible quadratic factors of a dehomogenized polynomial."""
    if K.char == 0:
        return list(small_factors_qq(f)[1])
    return [g for g, _ in factors_up_to(K, f, 2) if P.pdeg(g) == 2]


def _quad_pair_candidates(phi: RatMap, b, c, xi_quads):
    """Automorphism candidates whose fixed points are the conjugate roots
    z1, z2 of the irreducible x^2 + bx + c.

    Such an element is u^-1 diag(xi, 1) u for u = (z -> (z-z1)/(z-z2)),
    which works out to the matrix

        [ z1 - xi z2   (xi - 1) z1 z2 ]
        [   1 - xi      xi z1 - z2    ]

    It descends to the ground field exactly when N(xi) = 1; xi = -1
    always does (giving an involution), the rest are roots of the listed
    quadratics and the descent is checked by retraction.
    """
    K = phi.K
    cands = []
    if K.char != 2:
        two = K.add(K.one, K.one)
        cands.append(Mobius(K, K.neg(b), K.neg(K.mul(two, c)), two, b))
    if K.char == 0:
        # xi = xi0 + xi1*z1 in Q(z1); entries stay linear in z1 and
        # rationality is pairwise proportionality of the coefficient pairs
        Dz = b * b - 4 * c
        for C0, C1, _ in xi_quads:
            Dxi = C1 * C1 - 4 * C0
            if not QQ.is_square(Dxi / Dz):
                continue
            w = QQ.sqrt(Dxi / Dz)
            for eps in (1, -1):
                xi1 = eps * w
                xi0 = (-C1 + eps * w * b) / 2
                # each entry written as (constant, z1-coefficient)
                vec = (
                    (xi0 * b - xi1 * c, 1 + xi0),
                    ((xi0 - 1) * c, xi1 * c),
                    (1 - xi0, -xi1),
                    (b - xi1 * c, xi0 + 1 - xi1 * b),
                )
                piv = next((u for u in vec if u != (0, 0)), None)
                if piv is None or any(u[0] * piv[1] != u[1] * piv[0] for u in vec):
                    continue
                if piv[0]:
                    coords = [u[0] / piv[0] for u in vec]
                else:
                    coords = [u[1] / piv[1] for u in vec]
                cands.append(Mobius(QQ, *coords))
    else:
        E = ExtensionField(K, (c, b, K.one))
        z1 = E.gen
        z2 = E.sub(E.neg(E.embed(b)), z1)
        cE = E.embed(c)
        for m in xi_quads:
            me = tuple(E.embed(t) for t in m)
            for xi, _ in roots_ff(E, me):
                vec = (
                    E.sub(z1, E.mul(xi, z2)),
                    E.mul(E.sub(xi, E.one), cE),
                    E.sub(E.one, xi),
                    E.sub(E.mul(xi, z1), z2),
                )
                piv = next(v for v in vec if v != E.zero)
                piv_inv = E.inv(piv)
                coords = [E.retract(E.mul(v, piv_inv)) for v in vec]
                if any(t is None for t in coords):
                    continue
                cands.append(Mobius(K, *coords))
    return cands


def aut_fixed_points(phi: RatMap) -> list:
    """Aut_phi over the ground field by the fixed-point analysis.

    An automorphism s commutes with phi, so phi permutes the (at most
    two) fixed points of s.  Rational pairs of fixed points therefore sit
    inside the rational fixed points, rational 2-cycles and rational
    first preimages of fixed points of phi; conjugate quadratic pairs
    come from quadratic factors of the same data; and an s with a single
    fixed point is unipotent of order p, handled by the char-p loop.
    """
    K = phi.K
    d = phi.d
    out = {Mobius.identity(K)}
    fix = phi.fixed_point_form()
    dyn = phi.dynatomic_2()
    Z11 = form_rational_roots(K, fix)
    T, xi_quads = _unity_data(K, d)
    zetas = [z for z in T if z != K.one]

    # rational pairs {x, y} that phi can permute
    pairs = []
    seen = set()

    def push(x, y):
        key = frozenset((x, y))
        if key not in seen:
            seen.add(key)
            pairs.append((x, y))

    for x, y in itertools.combinations(Z11, 2):
        push(x, y)
    for x in form_rational_roots(K, dyn):
        y = phi.apply(x)
        if y != x:
            push(x, y)
    for x in Z11:
        for y in phi.rational_preimages(x):
            if y != x:
                push(x, y)

    for x, y in pairs:
        u = (y[1], K.neg(y[0]), x[1], K.neg(x[0]))
        uinv = (K.neg(x[0]), y[0], K.neg(x[1]), y[1])
        for zeta in zetas:
            smat = mat_mul(K, mat_mul(K, uinv, (zeta, K.zero, K.zero, K.one)), u)
            s = Mobius(K, *smat)
            if s not in out and is_automorphism(s, phi):
                out.add(s)

    # conjugate quadratic pairs: factors of the fixed point form, plus
    # factors of the 2-periodic form whose roots phi actually swaps
    p0 = P.dehom(K, phi.F0)
    p1 = P.dehom(K, phi.F1)
    quad_pairs = list(_quad_factors(K, P.dehom(K, fix)))
    for m in _quad_factors(K, P.dehom(K, dyn)):
        swapped = P.pmod(K, P.padd(K, p0, P.pmul(K, (m[1], K.one), p1)), m)
        if not swapped and m not in quad_pairs:
            quad_pairs.append(m)
    for m in quad_pairs:
        for s in _quad_pair_candidates(phi, m[1], m[0], xi_quads):
            if s not in out and is_automorphism(s, phi):
                out.add(s)

    # unipotent elements in characteristic p
    p = K.char
    if p and (d**3 - d) % p == 0:
        if isinstance(K, PrimeField):
            reps = [K.one]
        else:
            prime_sub = [K.from_int(i) for i in range(1, p)]
            covered = set()
            reps = []
            for e in K.elements():
                if e == K.zero or e in covered:
                    continue
                reps.append(e)
                covered.update(K.mul(e, t) for t in prime_sub)
        ident = (K.one, K.zero, K.zero, K.one)
        for x in Z11:
            if is_infinity(K, x):
                u = uinv = ident
            else:
                u = (K.zero, K.one, K.one, K.neg(x[0]))
                uinv = (K.neg(x[0]), K.neg(K.one), K.neg(K.one), K.zero)
            for lam in reps:
                smat = mat_mul(K, mat_mul(K, uinv, (K.one, lam, K.zero, K.one)), u)
                s = Mobius(K, *smat)
                if is_automorphism(s, phi):
                    t = s
                    for _ in range(p - 1):
                        out.add(t)
                        t = t.compose(s)
    return _sorted_mobius(out)


def aut_order_p(phi: RatMap) -> list:
    """The automorphisms of order p = char(F_q), found through their
    action on the fixed points of phi (or on the first preimages of the
    unique fixed point).

    An order-p element is unipotent: one fixed point x, necessarily a
    rational fixed point of phi, and it moves every other point of the
    invariant set in p-cycles, which forces the counting congruences
    used as entry tests.
    """
    K = phi.K
    if K.order is None:
        raise TypeError("order-p search needs a finite ground field")
    p = K.char
    d = phi.d
    if (d**3 - d) % p != 0:
        return []
    fix = phi.fixed_point_form()
    nfix = form_distinct_root_count(K, fix)
    if nfix % p != 1:
        return []
    if nfix == 1:
        pre = P.form_compose(K, fix, phi.F0, phi.F1)
        if form_distinct_root_count(K, pre) % p != 1:
            return []
        T_form = form_radical(K, pre)
    else:
        T_form = form_radical(K, fix)
    rational_fixed = form_rational_roots(K, fix)
    if not rational_fixed:
        return []

    E = _splitting_field(K, (T_form,))
    TE = _form_points_over(K, E, T_form)
    if E is K:
        emb = retract = lambda t: t
    else:
        emb, retract = E.embed, E.retract

    out = set()
    ident = (K.one, K.zero, K.zero, K.one)
    for x in rational_fixed:
        if is_infinity(K, x):
            u = uinv = ident
        else:
            u = (K.zero, K.one, K.one, K.neg(x[0]))
            uinv = (K.neg(x[0]), K.neg(K.one), K.neg(K.one), K.zero)
        uE = tuple(emb(t) for t in u)
        xE = (emb(x[0]), emb(x[1]))
        others = [(pt, k) for pt, k in TE if pt != xE]
        if len(others) < 2:
            continue
        y1, k1 = others[0]

        def u_val(pt):
            num = E.add(E.mul(uE[0], pt[0]), E.mul(uE[1], pt[1]))
            den = E.add(E.mul(uE[2], pt[0]), E.mul(uE[3], pt[1]))
            return E.div(num, den)

        v1 = u_val(y1)
        for y2, k2 in others[1:]:
            if k1 % k2 != 0:
                continue
            lam = retract(E.sub(u_val(y2), v1))
            if lam is None or lam == K.zero:
                continue
            smat = mat_mul(K, mat_mul(K, uinv, (K.one, lam, K.zero, K.one)), u)
            s = Mobius(K, *smat)
            if s not in out and is_automorphism(s, phi):
                t = s
                for _ in range(p - 1):
                    out.add(t)
                    t = t.compose(s)
    return _sorted_mobius(out)


# ---------------------------------------------------------------------------
# drivers

def _aut_ff_fixed_points(phi: RatMap) -> list:
    return _sorted_mobius(set(aut_fixed_points(phi)) | set(aut_order_p(phi)))


def aut_ff(phi: RatMap, algorithm: str = "auto") -> AutResult:
    """Automorphism group of a rational map over a finite field."""
    K = phi.K
    q = K.order
    if q is None:
        raise TypeError("aut_ff needs a finite ground field")
    if algorithm == "auto":
        algorithm = ("exhaustive" if q * (q * q - 1) <= EXHAUSTIVE_CEILING
                     else "invariant-sets")
    if algorithm == "exhaustive":
        els = aut_exhaustive(phi)
    elif algorithm == "invariant-sets":
        _, els, _ = conj_invariant_sets(phi, phi)
    elif algorithm == "fixed-points":
        els = _aut_ff_fixed_points(phi)
    else:
        raise ValueError("unknown algorithm %r" % algorithm)
    return AutResult(tuple(els), group_structure(els), algorithm)


def conj_ff(phi: RatMap, psi: RatMap, algorithm: str = "auto") -> ConjResult:
    """Conjugating set between two rational maps over a finite field."""
    K = phi.K
    q = K.order
    if q is None:
        raise TypeError("conj_ff needs a finite ground field")
    if psi.K != K:
        raise ValueError("the two maps live over different fields")
    if algorithm == "auto":
        algorithm = ("exhaustive" if q * (q * q - 1) <= EXHAUSTIVE_CEILING
                     else "invariant-sets")
    if algorithm == "invariant-sets":
        # conj_invariant_sets starts with the same type test
        absolute, rational, reason = conj_invariant_sets(phi, psi)
        return ConjResult(tuple(rational), algorithm, reason,
                          absolute_elements=tuple(absolute))
    if algorithm != "exhaustive":
        raise ValueError("unknown algorithm %r" % algorithm)
    reason = types_rule_out_conjugacy(phi, psi)
    if reason:
        return ConjResult((), algorithm, reason)
    return ConjResult(tuple(conj_exhaustive(phi, psi)), algorithm)

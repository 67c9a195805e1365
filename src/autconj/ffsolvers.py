"""Aut and Conj solvers over finite fields.

Three engines, in increasing sophistication:

  * a scan of PGL2(F_q) pinned by forward orbits: each candidate is fixed
    by the image of one point, then checked pointwise through one table
    of inverses per call, where agreement at 2d + 1 points is a proof when
    q + 1 > 2d; viable while q(q^2 - 1) stays small;
  * the invariant-set method: both maps carry a small canonical point set
    (fixed points, pulled back through the map until it has at least three
    elements), and any conjugation must carry one set onto the other and
    each Frobenius orbit of it onto an orbit of the same degree, so a
    source triple taken from the smallest orbits and its possible images
    over the stem field of one orbit, whose roots are the Frobenius images
    of its generator, pin every candidate: the rational one, if any, is the
    null line of one linear system over F_q per image triple.  The other
    map's orbits get one root each by a norm (or trace) split whose
    Frobenius powers are computed over F_q, and the costly half of the
    factorization type test only names the reason for an empty answer;
  * the fixed-point method for Aut only: an automorphism of finite order
    has its own fixed points constrained to sit among the fixed points,
    2-periodic points and first preimages of the map, which cuts the
    search to a handful of explicitly constructible candidates.  Its
    char-p step covers the unipotent elements (order p, the
    characteristic) the diagonalizable analysis cannot see: such an
    element fixes a single point, a rational fixed point of the map,
    where it is a translation z + lam; the admissible lam are the roots
    of one gcd of polynomials in lam.

Everything returns exact results: every reported element satisfies the
conjugation identity, checked by cross multiplication of the forms or, in
the scan, proved by agreement at more points than their degree.

aut_fixed_points is field-generic on purpose: the rational solvers reuse
it over Q, where the char-p step simply never runs.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

from . import poly as P
from .factor import (
    factor_ff,
    roots_ff,
    form_factorization_type,
    form_radical,
    small_factors_qq,
    stem_root,
)
from .finitefield import ExtensionField
from .groups import group_structure
from .projline import (
    Mobius,
    RatMap,
    _ring,
    conjugate_map,
    form_rational_roots,
    infinity,
    point_key,
    mat_mul,
    mobius_from_three_points,
    is_conjugating,
    is_automorphism,
)
from .results import AutResult, ConjResult

# exhaustive search is allowed while |PGL2(F_q)| = q(q^2-1) is below this
EXHAUSTIVE_CEILING = 1_000_000

# refuse stem fields beyond this degree over the ground field
SPLIT_DEGREE_CAP = 24


def _sorted_mobius(elements):
    return sorted(set(elements), key=lambda s: s.sort_key())


# ---------------------------------------------------------------------------
# exhaustive search

def _inverses(K) -> dict:
    """{a: 1/a} over the units of the finite field K by batch inversion:
    prefix products, one inverse of the full product, and a walk back."""
    units = [a for a in K.elements() if a != K.zero]
    prefix = [K.one]
    for a in units[:-1]:
        prefix.append(K.mul(prefix[-1], a))
    u = K.inv(K.mul(prefix[-1], units[-1]))
    inv = {}
    for a, before in zip(reversed(units), reversed(prefix)):
        inv[a] = K.mul(u, before)
        u = K.mul(u, a)
    return inv


def _point_map(K, F0, F1, inv):
    """The map (F0 : F1) on rational points: both forms evaluated by Horner
    on their dehomogenization, the image normalized through inv = {a: 1/a}."""
    add, mul, zero, one = K.add, K.mul, K.zero, K.one
    inf = infinity(K)
    top, *rest = zip(reversed(F0), reversed(F1))

    def image(x):
        y0, y1 = top  # the values at infinity
        if x[1] != zero:
            t = x[0]
            for c0, c1 in rest:
                y0 = add(mul(y0, t), c0)
                y1 = add(mul(y1, t), c1)
        return inf if y1 == zero else (mul(y0, inv[y1]), one)

    return image


def _orbit_table(m: RatMap, pts, inv=None):
    """m on the rational points pts, and for each point x its head (x,
    m(x), m(m(x)) cut at the first repeat) and the head's signature: the
    number of rational preimages of each of its points.  inv = {a: 1/a}
    is built here when not given."""
    image = _point_map(m.K, m.F0, m.F1, _inverses(m.K) if inv is None else inv)
    img = {x: image(x) for x in pts}
    indeg = Counter(img.values())
    heads = {}
    for x in pts:
        h = (x,)
        while len(h) < 3 and img[h[-1]] not in h:
            h += (img[h[-1]],)
        heads[x] = h
    return img, heads, {x: tuple(indeg[y] for y in h) for x, h in heads.items()}


def conj_exhaustive(phi: RatMap, psi: RatMap) -> list:
    """All of Conj_{phi,psi}(F_q) by a scan of PGL2(F_q) pinned by forward
    orbits.  A conjugation s permutes P^1(F_q), carrying the head of x
    onto the head of s(x), whose signature is the same; so a source point
    x0 with a three-point head and each target y0 of its signature pin one
    candidate, and shorter heads let the rest of the triple range over the
    points of matching signature.

    The candidate is then checked pointwise, all points normalized through
    one table of inverses built per call.  s o phi and psi o s have degree
    d, so their cross-multiplied determinant is a form of degree 2d: when
    q + 1 > 2d, agreement at 2d + 1 rational points proves s o phi = psi o
    s.  Otherwise every rational point is checked and then the exact
    identity."""
    K = phi.K
    q = K.order
    if q is None:
        raise TypeError("exhaustive search needs a finite ground field")
    if q * (q * q - 1) > EXHAUSTIVE_CEILING:
        raise ValueError("field too large for exhaustive search")
    if psi.K != K or phi.d != psi.d:
        return []

    pts = [(e, K.one) for e in K.elements()] + [infinity(K)]
    inv = _inverses(K)
    img_phi, head_phi, sig_phi = tab = _orbit_table(phi, pts, inv)
    img_psi, head_psi, sig_psi = tab if psi == phi else _orbit_table(psi, pts, inv)
    by_sig = {}
    for y in pts:
        by_sig.setdefault(sig_psi[y], []).append(y)
    targets = {x: by_sig.get(sig_phi[x], []) for x in pts}
    # the longest head, and among those the rarest signature on psi's side
    x0 = min(pts, key=lambda x: (-len(head_phi[x]), len(targets[x])))
    src = head_phi[x0]
    extra = sorted((x for x in pts if x not in src), key=lambda x: len(targets[x]))
    extra = extra[: 3 - len(src)]
    src += tuple(extra)
    need_exact = q + 1 <= 2 * phi.d
    # the triple comes last: s agrees at most of its points by construction
    checks = [x for x in pts if x not in src] + list(src)
    if not need_exact:
        checks = checks[: 2 * phi.d + 1]
    checks = [(x, img_phi[x]) for x in checks]

    found = []
    for y0 in targets[x0]:
        for rest in itertools.product(*(targets[x] for x in extra)):
            dst = head_psi[y0] + rest
            if len(set(dst)) < 3:
                continue
            s = mobius_from_three_points(K, src, dst)
            a, b, c, d = s.t  # s is the map (aX + bY : cX + dY)
            move = _point_map(K, (b, a), (d, c), inv)
            if all(move(fx) == img_psi[move(x)] for x, fx in checks) and (
                    not need_exact or is_conjugating(s, phi, psi)):
                found.append(s)
    return _sorted_mobius(found)


def aut_exhaustive(phi: RatMap) -> list:
    return conj_exhaustive(phi, phi)


# ---------------------------------------------------------------------------
# invariant-set method

def _fixed_point_types_differ(phi: RatMap, psi: RatMap):
    """The cheap half of types_rule_out_conjugacy, at degree d + 1: the
    degrees and the factorization types of the fixed point forms."""
    if phi.d != psi.d:
        return "degree mismatch"
    K = phi.K
    if (form_factorization_type(K, phi.fixed_point_form())
            != form_factorization_type(K, psi.fixed_point_form())):
        return "factorization type mismatch"
    return None


def types_rule_out_conjugacy(phi: RatMap, psi: RatMap):
    """Cheap necessary conditions; a reason string when Conj is provably
    empty, else None.

    The factorization type of the fixed point form (and of its pullback,
    the form cutting out the first preimages of the fixed points) is a
    conjugation invariant, because conjugation acts on those forms by an
    invertible linear substitution and a scalar.  The pullback has degree
    d(d + 1), so its half costs the most.
    """
    reason = _fixed_point_types_differ(phi, psi)
    if reason:
        return reason
    K = phi.K
    pre_phi = P.form_compose(K, phi.fixed_point_form(), phi.F0, phi.F1)
    pre_psi = P.form_compose(K, psi.fixed_point_form(), psi.F0, psi.F1)
    if form_factorization_type(K, pre_phi) != form_factorization_type(K, pre_psi):
        return "factorization type mismatch"
    return None


def _invariant_form(phi: RatMap):
    """Radical form cutting out a conjugation-covariant point set of size
    >= 3: the fixed points, pulled back through phi until big enough; over
    Q a primitive integer form.

    Returns (form, per-stage distinct point counts).
    """
    K = phi.K
    R = form_radical(K, phi.fixed_point_form())
    counts = [P.pdeg(R)]
    while P.pdeg(R) < 3:
        if len(counts) > 3:
            raise RuntimeError("invariant set did not reach three points")
        R = form_radical(K, P.form_compose(_ring(K), R, phi.F0, phi.F1))
        counts.append(P.pdeg(R))
    return R, tuple(counts)


def _frobenius_orbits(K, R):
    """The roots of the radical form R by Frobenius orbit: the rational
    points, infinity included, and {k: monic irreducible factors of degree
    k >= 2}, each factor's k roots making up one orbit."""
    rational = [infinity(K)] if P.form_ymult(K, R) else []
    higher = {}
    for g, _ in factor_ff(K, P.dehom(K, R)):
        if P.pdeg(g) == 1:
            rational.append((K.neg(g[0]), K.one))
        else:
            higher.setdefault(P.pdeg(g), []).append(g)
    return rational, higher


def _null_line(K, rows):
    """A spanning vector of the solutions over K of the homogeneous
    system rows (4-vectors over K) of rank 3, or None for rank 4; by
    Gauss-Jordan elimination."""
    zero = K.zero
    reduced = {}  # pivot column -> its row: 1 there, 0 at the other pivots
    for r in rows:
        for col, piv in reduced.items():
            c = r[col]
            if c != zero:
                r = [K.sub(x, K.mul(c, y)) for x, y in zip(r, piv)]
        col = next((i for i, x in enumerate(r) if x != zero), None)
        if col is None:
            continue
        if len(reduced) == 3:
            return None
        u = K.inv(r[col])
        r = [K.mul(u, x) for x in r]
        for c2, piv in list(reduced.items()):
            c = piv[col]
            if c != zero:
                reduced[c2] = [K.sub(x, K.mul(c, y)) for x, y in zip(piv, r)]
        reduced[col] = r
    free = next(i for i in range(4) if i not in reduced)
    vec = [zero] * 4
    vec[free] = K.one
    for col, piv in reduced.items():
        vec[col] = K.neg(piv[free])
    return vec


def conj_invariant_sets(phi: RatMap, psi: RatMap):
    """(the stem field E, Conj over the ground field K, reason) via the
    invariant point sets of the two maps; E is None when the sets already
    rule conjugacy out.

    A conjugation s over K carries the invariant set of phi onto that of
    psi and commutes with Frobenius F, so it sends each Frobenius orbit to
    an orbit of the same degree, and three points pin it down.  The source
    triple is taken from the smallest orbits: three rational points; a
    rational point r and a quadratic pair (a, Fa); two quadratic pairs
    (a, Fa, c); else (a, Fa, F^2 a) in an orbit of the least degree k >= 3.
    Its image is (r', b, Fb), (b, Fb, e) or (b, Fb, F^2 b) for b, e in
    orbits of psi of the same degrees, all of which split in the stem field
    E = K[x]/(g) of the source orbit's factor g; the roots of g itself are
    the Frobenius images of x, and those of psi's factor h the images of
    one root that stem_root finds.

    s = [[alpha, beta], [gamma, delta]] sends u to v iff v1 (alpha u0 +
    beta u1) - v0 (gamma u0 + delta u1) = 0, one linear equation over E,
    or k = [E : K] equations over K in its K-coordinates.  The solutions
    over E through three distinct pairs form one E-line, so a rational
    candidate is exactly a K-point of that line: the system stacked over
    the triple, solved over K, has a one-dimensional null space, or the
    triple has no rational candidate.  Candidates are confirmed with the
    exact identity.

    The degrees and the fixed point types are compared up front, at
    degree d + 1.  The pullback half of types_rule_out_conjugacy runs only
    when no candidate survives, or before a refusal, and its reason then
    takes the place of any other, with E None: so a conjugate pair never
    pays for it, and a pair it rules out is never refused.
    """
    K = phi.K
    if K.order is None:
        raise TypeError("invariant-set search needs a finite ground field")
    same = psi == phi  # for Aut the type test cannot fail; reuse phi's data
    reason = None if same else _fixed_point_types_differ(phi, psi)
    if reason:
        return None, [], reason

    def named():
        """The whole type test, run only to name the reason for an empty
        answer or before a refusal; None when it names none."""
        return None if same else types_rule_out_conjugacy(phi, psi)

    try:
        R_phi, counts_phi = _invariant_form(phi)
        R_psi, counts_psi = (R_phi, counts_phi) if same else _invariant_form(psi)
    except RuntimeError:
        reason = named()
        if reason:
            return None, [], reason
        raise
    if counts_phi != counts_psi:
        return None, [], named() or "invariant point set size mismatch"
    rat_phi, orb_phi = _frobenius_orbits(K, R_phi)
    rat_psi, orb_psi = (rat_phi, orb_phi) if same else _frobenius_orbits(K, R_psi)

    def degrees(rat, orb):
        return len(rat), {k: len(gs) for k, gs in orb.items()}

    if degrees(rat_phi, orb_phi) != degrees(rat_psi, orb_psi):
        return None, [], named() or "invariant set orbit mismatch"

    quads = len(orb_phi.get(2, ()))
    if len(rat_phi) >= 3:
        E = K
        fields = (K, K, K)
        src = tuple(rat_phi[:3])
        dsts = itertools.permutations(rat_psi, 3)
    else:
        k = 2 if quads >= 2 or (quads and rat_phi) else min(k for k in orb_phi if k > 2)
        if k > SPLIT_DEGREE_CAP:
            reason = named()
            if reason:
                return None, [], reason
            raise RuntimeError("splitting field degree %d is out of reach" % k)
        g = orb_phi[k][0]
        E = ExtensionField(K, g)
        fields = (E, E, E)

        def orbit(h):
            """The roots of h in E as points, in Frobenius order."""
            # h is irreducible of degree [E : K], so it splits into
            # distinct linear factors over E
            b = E.gen if h == g else stem_root(E, h)
            out = [b]
            while len(out) < k:
                out.append(E.frobenius(out[-1]))
            return [(b, E.one) for b in out]

        def heads(o, n):
            """(b, Fb, ..., F^(n-1) b) for each point b of the orbit o."""
            return [tuple(o[(i + j) % k] for j in range(n)) for i in range(k)]

        a = orbit(g)
        orbits = [a if h == g else orbit(h) for h in orb_psi[k]]
        if k > 2:
            src = tuple(a[:3])
            dsts = [t for o in orbits for t in heads(o, 3)]
        elif rat_phi:
            fields = (K, E, E)
            src = (rat_phi[0],) + tuple(a)
            dsts = [(r,) + t for r in rat_psi for o in orbits for t in heads(o, 2)]
        else:
            src = tuple(a) + (orbit(orb_phi[2][1])[0],)
            dsts = [t + (e,) for i, o in enumerate(orbits) for t in heads(o, 2)
                    for j, o2 in enumerate(orbits) if j != i for e in o2]

    def rows(F, u, v):
        """The K-rows of the equation over F for s(u) = v.  The points are
        normalized, so u1 and v1 are 0 or 1 and only v0 u0 is a product."""
        def times(x, bit):
            return x if bit == F.one else F.zero

        eq = (times(u[0], v[1]), times(u[1], v[1]),
              F.neg(F.mul(v[0], u[0])), F.neg(times(v[0], u[1])))
        return [eq] if F is K else list(zip(*eq))

    targets = set(rat_psi)
    rational = []
    for dst in dsts:
        vec = _null_line(K, [r for F, u, v in zip(fields, src, dst) for r in rows(F, u, v)])
        if vec is None:
            continue
        s = Mobius(K, *vec)
        # a cheap necessary test before the exact one: s carries the
        # rational points of phi's invariant set onto those of psi's
        if all(s.apply(x) in targets for x in rat_phi) and is_conjugating(s, phi, psi):
            rational.append(s)
    reason = None if rational else named()
    if reason:
        return None, [], reason
    return E, _sorted_mobius(rational), ""


# ---------------------------------------------------------------------------
# fixed-point method

def _unity_data(K, d: int):
    """Rational roots and monic irreducible quadratic factors of
    x^(d+i) - 1 for i in {-1, 0, 1}: every possible multiplier of an
    automorphism of a degree-d map at a fixed point is a root of one of
    the three, so these lists bound the search.  Over Q they are closed
    form: +-1, and the cyclotomic Phi_n of degree 2 (n = 3, 4, 6) whose n
    divides d - 1, d or d + 1.
    """
    if K.char == 0:
        cyclotomic = {3: (1, 1, 1), 4: (1, 0, 1), 6: (1, -1, 1)}
        quads = [g for n, g in cyclotomic.items()
                 if any(m % n == 0 for m in (d - 1, d, d + 1))]
        return [K.one, K.neg(K.one)], quads
    T = set()
    quads = []
    for m in (d - 1, d, d + 1):
        f = P.padd(K, P.pmono(K, m), P.pconst(K, K.neg(K.one)))
        for g, _ in factor_ff(K, f, bound=2):
            if P.pdeg(g) == 1:
                T.add(K.neg(g[0]))
            elif g not in quads:
                quads.append(g)
    return sorted(T, key=K.sort_key), quads


def _roots_and_quads(K, F):
    """Sorted rational roots of a form, and the monic irreducible quadratic
    factors of its dehomogenization, both from one factoring call:
    factor_ff up to degree 2 over F_q, small_factors_qq over Q."""
    f = P.dehom(K, F)
    if K.char != 0:
        small = [g for g, _ in factor_ff(K, f, bound=2)]
        linears = [g for g in small if P.pdeg(g) == 1]
        quads = [g for g in small if P.pdeg(g) == 2]
    else:
        linears, quads = small_factors_qq(f)
    roots = [(K.neg(c0), K.one) for c0, _ in linears]
    if P.form_ymult(K, F):
        roots.append(infinity(K))
    return sorted(roots, key=lambda pt: point_key(K, pt)), quads


def _quad_pair_candidates(phi: RatMap, b, c, xi_quads):
    """Automorphism candidates whose fixed points are the conjugate roots
    of the irreducible z^2 + bz + c.

    Up to scaling such an element is s = [[x, -c], [1, x + b]] with x in
    K, and its multiplier xi at a fixed point satisfies
    tr^2/det = xi + 1/xi + 2.  Galois swaps the fixed points, whose
    multipliers are xi and 1/xi, so xi has norm 1: xi = -1, the involution
    x = -b/2, or a root of a listed quadratic xi^2 + C1 xi + C0 with
    C0 = 1.  With t = xi + 1/xi = -C1, x runs over the K-rational roots of
    (2 - t)(x^2 + bx) + b^2 - (t + 2)c.
    """
    K = phi.K
    two = K.add(K.one, K.one)
    cands = []
    if K.char != 2:
        cands.append(Mobius(K, K.neg(b), K.neg(K.mul(two, c)), two, b))
    for C0, C1, _ in xi_quads:
        if C0 != K.one:
            continue
        t = K.neg(C1)
        u = K.sub(two, t)
        form = (K.sub(K.mul(b, b), K.mul(K.add(t, two), c)), K.mul(u, b), u)
        for x, _ in form_rational_roots(K, form):
            cands.append(Mobius(K, x, K.neg(c), K.one, K.add(x, b)))
    return cands


def _translations(psi: RatMap) -> list:
    """The nonzero lam in K for which z + lam commutes with psi = A/B, a
    map fixing infinity.  Translation keeps the leading coefficient of B,
    so that holds iff B(z + lam) = B(z) and A(z + lam) = A(z) + lam B(z):
    lam is a common root of the z^j coefficients of both differences,
    polynomials in lam (sum over k > j of f_k C(k, j) lam^(k - j), less
    lam b_j for A), hence a root of their gcd."""
    K = psi.K
    A, B = P.dehom(K, psi.F0), P.dehom(K, psi.F1)
    g = ()
    for f, h in ((B, ()), (A, B)):
        for j in range(len(f)):
            e = [K.zero] + [K.mul(K.from_int(math.comb(k, j)), f[k])
                            for k in range(j + 1, len(f))]
            if j < len(h):  # then j + 1 < len(f), as deg B < deg A
                e[1] = K.sub(e[1], h[j])
            g = P.pgcd(K, g, P.pstrip(K, e))
    return [lam for lam, _ in roots_ff(K, g) if lam != K.zero]


def aut_fixed_points(phi: RatMap) -> list:
    """Aut_phi over the ground field by the fixed-point analysis.

    An automorphism s commutes with phi, so phi permutes the (at most
    two) fixed points of s.  Rational pairs of fixed points therefore sit
    inside the rational fixed points, rational 2-cycles and rational
    first preimages of fixed points of phi; conjugate quadratic pairs
    come from quadratic factors of the same data.  An s with a single
    fixed point x is unipotent of order p = char K: x is a rational fixed
    point of phi, and moving x to infinity makes s a translation z + lam;
    the admissible lam are the roots of one gcd of polynomials in lam (see
    _translations), found without a walk over K.
    """
    K = phi.K
    d = phi.d
    out = {Mobius.identity(K)}
    fix = phi.fixed_point_form()
    dyn = phi.dynatomic_2()
    Z11, fix_quads = _roots_and_quads(K, fix)
    dyn_roots, dyn_quads = _roots_and_quads(K, dyn)
    T, xi_quads = _unity_data(K, d)
    zetas = [z for z in T if z != K.one]

    # rational pairs {x, y} that phi can permute, each taken once
    pairs = {}
    for x, y in itertools.combinations(Z11, 2):
        pairs.setdefault(frozenset((x, y)), (x, y))
    for x in dyn_roots:
        y = phi.apply(x)
        if y != x:
            pairs.setdefault(frozenset((x, y)), (x, y))
    for x in Z11:
        for y in phi.rational_preimages(x):
            if y != x:
                pairs.setdefault(frozenset((x, y)), (x, y))

    for x, y in pairs.values():
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
    quad_pairs = list(fix_quads)
    for m in dyn_quads:
        swapped = P.pmod(K, P.padd(K, p0, P.pmul(K, (m[1], K.one), p1)), m)
        if not swapped and m not in quad_pairs:
            quad_pairs.append(m)
    for m in quad_pairs:
        for s in _quad_pair_candidates(phi, m[1], m[0], xi_quads):
            if s not in out and is_automorphism(s, phi):
                out.add(s)

    # unipotents: u = [[1 - x1, x1], [x1, -x0]] sends x to infinity
    if K.char and (d**3 - d) % K.char == 0:
        for x in Z11:
            u = (K.sub(K.one, x[1]), x[1], x[1], K.neg(x[0]))
            uinv = (K.neg(x[0]), K.neg(x[1]), K.neg(x[1]), u[0])
            for lam in _translations(conjugate_map(phi, Mobius(K, *u))):
                t = mat_mul(K, (K.one, lam, K.zero, K.one), u)
                s = Mobius(K, *mat_mul(K, uinv, t))
                if is_automorphism(s, phi):
                    out.add(s)
    return _sorted_mobius(out)


# ---------------------------------------------------------------------------
# drivers

def _aut_ff_elements(phi: RatMap, algorithm: str = "auto"):
    """(elements of Aut_phi, engine after dispatch) over a finite field,
    without the group label."""
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
        els = aut_fixed_points(phi)
    else:
        raise ValueError("unknown algorithm %r" % algorithm)
    return els, algorithm


def aut_ff(phi: RatMap, algorithm: str = "auto") -> AutResult:
    """Automorphism group of a rational map over a finite field."""
    els, algorithm = _aut_ff_elements(phi, algorithm)
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
        # conj_invariant_sets runs the whole type test before any empty
        # answer or refusal, so a pair it rules out never reaches the
        # field degree cap
        _, rational, reason = conj_invariant_sets(phi, psi)
        return ConjResult(tuple(rational), algorithm, reason)
    if algorithm != "exhaustive":
        raise ValueError("unknown algorithm %r" % algorithm)
    els = conj_exhaustive(phi, psi)
    # the type test only names the reason for an empty set
    reason = "" if els else types_rule_out_conjugacy(phi, psi) or ""
    return ConjResult(tuple(els), algorithm, reason)

"""Points, Mobius transformations, and rational maps on the projective line.

Conventions used throughout:

  * a point is a normalized pair (x0, x1) of field elements: (x, 1) for
    affine x and (1, 0) for the point at infinity;
  * a homogeneous form of degree D is a tuple (c_0, ..., c_D) with c_i the
    coefficient of X^i Y^(D-i), so dehomogenizing (Y = 1) reads the tuple
    as an ordinary dense polynomial in X;
  * a Mobius transformation z -> (a z + b)/(c z + d) is stored as the
    canonically scaled 4-tuple (a, b, c, d).

Canonical scaling: over Q, clear denominators to a primitive integer vector
whose first nonzero entry is positive; over a finite field, divide by the
first nonzero entry.  With that convention tuple equality decides PGL2
equality, so Mobius objects hash and compare directly.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import poly as P
from .domains import QQ, ZZ
from .exact import canonical_proj, proj_height
from .factor import _exact_divides, roots_ff, small_factors_qq
from .finitefield import PrimeField


# ---------------------------------------------------------------------------
# points


def normalize_point(K, x0, x1):
    if x1 != K.zero:
        return (K.div(x0, x1), K.one)
    if x0 == K.zero:
        raise ValueError("(0 : 0) is not a point")
    return (K.one, K.zero)


def infinity(K):
    return (K.one, K.zero)


def point_key(K, pt):
    """Sort key putting affine points first (by coordinate), infinity last."""
    if pt[1] == K.zero:
        return (1,)
    return (0, K.sort_key(pt[0]))


# ---------------------------------------------------------------------------
# canonical scaling helpers


def _canon_vec_qq(vec) -> tuple[int, ...]:
    # rationals in, primitive ints out, first nonzero positive
    fracs = [Fraction(x) for x in vec]
    den = 1
    for x in fracs:
        den = den * x.denominator // math.gcd(den, x.denominator)
    return canonical_proj([int(x * den) for x in fracs])


def _ring(K):
    # canonical vectors over Q are integer vectors, so their products and
    # sums stay in Z; only a division needs Fractions
    return ZZ if K.char == 0 else K


def _canon_vec_field(K, vec) -> tuple:
    for x in vec:
        if x != K.zero:
            u = K.inv(x)
            return tuple(K.mul(u, y) for y in vec)
    raise ValueError("zero vector")


def mat_mul(K, m, n):
    """2x2 matrix product of 4-tuples (row major)."""
    a, b, c, d = m
    e, f, g, h = n
    return (
        K.add(K.mul(a, e), K.mul(b, g)),
        K.add(K.mul(a, f), K.mul(b, h)),
        K.add(K.mul(c, e), K.mul(d, g)),
        K.add(K.mul(c, f), K.mul(d, h)),
    )


# ---------------------------------------------------------------------------
# Mobius transformations


class Mobius:
    """An element of PGL2(K), the map z -> (a z + b)/(c z + d)."""

    __slots__ = ("K", "t")

    def __init__(self, K, a, b, c, d):
        if K.char == 0:
            t = _canon_vec_qq((a, b, c, d))
        else:
            t = _canon_vec_field(K, (a, b, c, d))
        det = K.sub(K.mul(t[0], t[3]), K.mul(t[1], t[2]))
        if det == K.zero:
            raise ValueError("singular matrix %r" % (t,))
        self.K = K
        self.t = t

    @classmethod
    def identity(cls, K) -> "Mobius":
        return cls(K, K.one, K.zero, K.zero, K.one)

    def is_identity(self) -> bool:
        K = self.K
        a, b, c, d = self.t
        return b == K.zero and c == K.zero and a == d

    def apply(self, pt):
        K = self.K
        a, b, c, d = self.t
        y0 = K.add(K.mul(a, pt[0]), K.mul(b, pt[1]))
        y1 = K.add(K.mul(c, pt[0]), K.mul(d, pt[1]))
        return normalize_point(K, y0, y1)

    def compose(self, other: "Mobius") -> "Mobius":
        """self after other."""
        return Mobius(self.K, *mat_mul(self.K, self.t, other.t))

    def order(self, cap: int = 10000) -> int:
        s = self
        n = 1
        while not s.is_identity():
            s = s.compose(self)
            n += 1
            if n > cap:
                raise RuntimeError("element order exceeds cap %d" % cap)
        return n

    def coeff_ints(self) -> tuple[int, ...]:
        # only meaningful over Q, where canonical entries are ints
        if self.K.char != 0:
            raise TypeError("coeff_ints is for maps over Q")
        return tuple(int(x) for x in self.t)

    def height(self) -> int:
        return proj_height(self.coeff_ints())

    def reduce_mod_p(self, p: int) -> "Mobius":
        t = self.coeff_ints()
        if (t[0] * t[3] - t[1] * t[2]) % p == 0:
            raise ValueError("bad reduction of %r at %d" % (t, p))
        Kp = PrimeField(p)
        return Mobius(Kp, *(x % p for x in t))

    def sort_key(self):
        K = self.K
        if K.char == 0:
            return (self.height(), self.t)
        return tuple(K.sort_key(x) for x in self.t)

    def to_str(self) -> str:
        K = self.K
        a, b, c, d = self.t
        if K.char == 0:
            # fold the denominator's sign into the numerator for display
            lead = c if c != K.zero else d
            if lead < 0:
                a, b, c, d = K.neg(a), K.neg(b), K.neg(c), K.neg(d)
        num = _lin_str(K, a, b)
        if c == K.zero and d == K.one:
            return num
        den = _lin_str(K, c, d)
        if "+" in num or "-" in num[1:]:
            num = "(%s)" % num
        if "+" in den or "-" in den[1:] or "*" in den:
            den = "(%s)" % den
        return "%s/%s" % (num, den)

    def __eq__(self, other):
        return (
            isinstance(other, Mobius) and other.K == self.K and other.t == self.t
        )

    def __hash__(self):
        return hash(("Mobius", self.t))

    def __repr__(self):
        return "Mobius(%s)" % (self.to_str(),)


def _lin_str(K, a, b) -> str:
    """Pretty a*z + b."""
    if a == K.zero:
        return str(b)
    if a == K.one:
        za = "z"
    elif K.char == 0 and a == -1:
        za = "-z"
    else:
        za = "%s*z" % str(a)
    if b == K.zero:
        return za
    bs = str(b)
    if K.char == 0 and not bs.startswith("-"):
        return "%s + %s" % (za, bs)
    if K.char == 0:
        return "%s - %s" % (za, bs[1:])
    return "%s + %s" % (za, bs)


# ---------------------------------------------------------------------------
# rational maps


class RatMap:
    """A morphism of P^1 over K, held as coprime forms of equal degree d.

    The pair (F0, F1) represents z -> F0(z, 1)/F1(z, 1).  Scaling both
    forms by a common unit gives the same morphism, so the constructor
    canonicalizes the joint coefficient vector exactly like Mobius does.
    """

    __slots__ = ("K", "F0", "F1", "d")

    def __init__(self, K, F0, F1):
        F0, F1 = tuple(F0), tuple(F1)
        if len(F0) != len(F1) or len(F0) < 2:
            raise ValueError("need two forms of equal degree >= 1")
        d = len(F0) - 1
        if K.char == 0:
            joint = _canon_vec_qq(F0 + F1)
        else:
            joint = _canon_vec_field(K, F0 + F1)
        F0, F1 = joint[: d + 1], joint[d + 1 :]
        a0 = P.pstrip(K, F0)
        a1 = P.pstrip(K, F1)
        if not a0 or not a1:
            raise ValueError("zero form")
        if len(a0) < d + 1 and len(a1) < d + 1:
            raise ValueError("forms share the factor Y")
        # over Q good reduction mod a large prime nearly always proves
        # coprimality; bad reduction there decides nothing
        coprime = K.char == 0 and _good_reduction(_PROBE, a0, a1, d)
        if not coprime and P.pdeg(P.pgcd(K, a0, a1)) > 0:
            raise ValueError("forms share a factor")
        self.K = K
        self.F0 = F0
        self.F1 = F1
        self.d = d

    @classmethod
    def from_rational_function(cls, K, num, den) -> "RatMap":
        """Build from dense coefficient lists of numerator and denominator."""
        num = P.pstrip(K, num)
        den = P.pstrip(K, den)
        if not den:
            raise ValueError("zero denominator")
        if not num:
            raise ValueError("zero map")
        g = P.pgcd(K, num, den)
        if P.pdeg(g) > 0:
            num = P.pquo(K, num, g)
            den = P.pquo(K, den, g)
        d = max(P.pdeg(num), P.pdeg(den))
        if d < 1:
            raise ValueError("constant map")
        F0 = num + (K.zero,) * (d + 1 - len(num))
        F1 = den + (K.zero,) * (d + 1 - len(den))
        return cls(K, F0, F1)

    def apply(self, pt):
        K = self.K
        return normalize_point(
            K, P.form_eval(K, self.F0, pt[0], pt[1]), P.form_eval(K, self.F1, pt[0], pt[1])
        )

    def fixed_point_form(self) -> tuple:
        """X*F1 - Y*F0, the degree d+1 form cutting out the fixed points."""
        return _fixed_point_form(_ring(self.K), self.F0, self.F1)

    def dynatomic_2(self) -> tuple:
        """The degree d^2 - d form whose roots are the points of period 2.

        phi o phi enters only through its forms G0, G1: a composite of
        morphisms is coprime, so it needs no RatMap and no gcd check.  Over
        Q the divisor is the primitive fixed point form, so by Gauss's
        lemma the quotient is an integer form.
        """
        R = _ring(self.K)
        g0 = P.form_compose(R, self.F0, self.F0, self.F1)
        g1 = P.form_compose(R, self.F1, self.F0, self.F1)
        fix = self.fixed_point_form()
        if R is ZZ:
            fix = P.primitive(fix)
        return _form_divexact(R, _fixed_point_form(R, g0, g1), fix)

    def preimage_form(self, pt) -> tuple:
        """x1*F0 - x0*F1; vanishes exactly on the preimages of pt."""
        K = self.K
        x0, x1 = pt
        return tuple(
            K.sub(K.mul(x1, u), K.mul(x0, v)) for u, v in zip(self.F0, self.F1)
        )

    def rational_preimages(self, pt) -> list:
        return form_rational_roots(self.K, self.preimage_form(pt))

    # -- reduction mod p, Q only ----------------------------------------

    def is_good_prime(self, p: int) -> bool:
        return _good_reduction(PrimeField(p), self.F0, self.F1, self.d)

    def reduce_mod_p(self, p: int) -> "RatMap":
        Kp = PrimeField(p)
        return RatMap(Kp, [x % p for x in self.F0], [x % p for x in self.F1])

    # --------------------------------------------------------------------

    def to_str(self) -> str:
        K = self.K
        num_poly = P.pstrip(K, self.F0)
        den_poly = P.pstrip(K, self.F1)
        if K.char == 0 and den_poly and den_poly[-1] < 0:
            num_poly = P.pneg(K, num_poly)
            den_poly = P.pneg(K, den_poly)
        num = _poly_str(K, num_poly)
        if P.pdeg(den_poly) == 0 and den_poly[0] == K.one:
            return num
        den = _poly_str(K, den_poly)
        return "(%s)/(%s)" % (num, den)

    def __eq__(self, other):
        return (
            isinstance(other, RatMap)
            and other.K == self.K
            and other.F0 == self.F0
            and other.F1 == self.F1
        )

    def __hash__(self):
        return hash(("RatMap", self.F0, self.F1))

    def __repr__(self):
        return "RatMap(%s)" % (self.to_str(),)


def _poly_str(K, f) -> str:
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == K.zero:
            continue
        if i == 0:
            mono = str(c)
        else:
            zp = "z" if i == 1 else "z^%d" % i
            if c == K.one:
                mono = zp
            elif K.char == 0 and c == -1:
                mono = "-" + zp
            else:
                mono = "%s*%s" % (str(c), zp)
        parts.append(mono)
    out = parts[0]
    for mono in parts[1:]:
        if K.char == 0 and mono.startswith("-"):
            out += " - " + mono[1:]
        else:
            out += " + " + mono
    return out


# reductions of integer forms modulo this prime certify coprimality over Q
_PROBE = PrimeField(2**61 - 1)


def _good_reduction(Kp, a0, a1, d) -> bool:
    """True iff p = Kp.p does not divide the resultant of the integer
    forms a0, a1 of declared degree d (dehomogenized, trailing zeros
    allowed): reduced mod p, both are nonzero, some top coefficient
    survives and the gcd is 1, which is exactly when the reduced forms
    have no common projective root."""
    p = Kp.p
    b0 = P.pstrip(Kp, [c % p for c in a0])
    b1 = P.pstrip(Kp, [c % p for c in a1])
    return (bool(b0) and bool(b1) and (len(b0) > d or len(b1) > d)
            and len(P.pgcd(Kp, b0, b1)) == 1)


def _fixed_point_form(K, F0, F1) -> tuple:
    return tuple(K.sub(a, b) for a, b in zip((K.zero,) + F1, F0 + (K.zero,)))


def _form_divexact(K, F, G) -> tuple:
    """Quotient of homogeneous forms, demanding exact division; over ZZ,
    G must be primitive and the division runs in integers."""
    fa = P.pstrip(K, F)
    ga = P.pstrip(K, G)
    ymf = len(F) - len(fa)
    ymg = len(G) - len(ga)
    if ymf < ymg:
        raise ValueError("no exact form quotient")
    if K.is_field:
        q, r = P.pdivmod(K, fa, ga)
        q = None if r else q
    else:
        q = _exact_divides(ga, fa)
    if q is None:
        raise ValueError("no exact form quotient")
    dq = len(F) - len(G)
    return tuple(q) + (K.zero,) * (dq + 1 - len(q))


def form_rational_roots(K, F) -> list:
    """Distinct K-rational projective roots of a form, sorted; no multiplicity."""
    f = P.pstrip(K, F)
    if not f:
        raise ValueError("zero form")
    pts = []
    if len(f) < len(F):  # Y divides F
        pts.append(infinity(K))
    if K.char == 0:
        pts.extend((-c0, K.one) for c0, _ in small_factors_qq(f)[0])
    else:
        pts.extend((r, K.one) for r, _ in roots_ff(K, f))
    return sorted(pts, key=lambda p: point_key(K, p))


# ---------------------------------------------------------------------------
# conjugation


def conjugate_map(phi: RatMap, f: Mobius) -> RatMap:
    """The conjugate f . phi . f^(-1)."""
    K = _ring(phi.K)
    a, b, c, d = f.t
    s0 = (K.neg(b), d)  # d X - b Y, first row of the inverse
    s1 = (a, K.neg(c))
    g0 = P.form_compose(K, phi.F0, s0, s1)
    g1 = P.form_compose(K, phi.F1, s0, s1)
    h0 = tuple(K.add(K.mul(a, u), K.mul(b, v)) for u, v in zip(g0, g1))
    h1 = tuple(K.add(K.mul(c, u), K.mul(d, v)) for u, v in zip(g0, g1))
    return RatMap(phi.K, h0, h1)


def is_conjugating(s: Mobius, phi: RatMap, psi: RatMap) -> bool:
    """Exact test of s . phi = psi . s by cross multiplication.

    Both sides are coprime form pairs of degree d, so the morphisms agree
    iff the 2x2 determinant of the pairs vanishes identically.
    """
    if phi.d != psi.d or phi.K != psi.K or s.K != phi.K:
        return False
    K = _ring(phi.K)
    a, b, c, d = s.t
    sp0 = tuple(K.add(K.mul(a, u), K.mul(b, v)) for u, v in zip(phi.F0, phi.F1))
    sp1 = tuple(K.add(K.mul(c, u), K.mul(d, v)) for u, v in zip(phi.F0, phi.F1))
    ps0 = P.form_compose(K, psi.F0, (b, a), (d, c))
    ps1 = P.form_compose(K, psi.F1, (b, a), (d, c))
    lhs = P.form_mul(K, sp0, ps1)
    rhs = P.form_mul(K, sp1, ps0)
    return all(K.sub(x, y) == K.zero for x, y in zip(lhs, rhs))


def is_automorphism(s: Mobius, phi: RatMap) -> bool:
    return is_conjugating(s, phi, phi)


def _to_frame(K, pts):
    """The matrix sending the points p1, p2, p3 to 0, infinity, 1.

    With L_p(X, Y) = y_p X - x_p Y the linear form vanishing at p, it is
    P -> (L_p1(P) L_p2(p3) : L_p2(P) L_p1(p3)); singular unless the three
    points are distinct.
    """
    (x1, y1), (x2, y2), (x3, y3) = pts
    l1 = K.sub(K.mul(y1, x3), K.mul(x1, y3))
    l2 = K.sub(K.mul(y2, x3), K.mul(x2, y3))
    return (K.mul(l2, y1), K.neg(K.mul(l2, x1)), K.mul(l1, y2), K.neg(K.mul(l1, x2)))


def mobius_from_three_points(K, src, dst) -> Mobius:
    """The unique s in PGL2(K) with s(src[i]) = dst[i] for i = 0, 1, 2:
    the frame matrix of src followed by the inverse (adjugate) of the
    frame matrix of dst."""
    a, b, c, d = _to_frame(K, dst)
    try:
        return Mobius(K, *mat_mul(K, (d, K.neg(b), K.neg(c), a), _to_frame(K, src)))
    except ValueError:
        raise ValueError("degenerate triple") from None


# ---------------------------------------------------------------------------
# random generators (bench and test harness)


def random_map_qq(d: int, height: int, rng) -> RatMap:
    """Random degree-d map with integer coefficients in [-height, height],
    redrawn until the resultant is nonzero (RatMap accepts the forms)."""
    if d < 1 or height < 1:
        raise ValueError("random maps need degree >= 1 and height >= 1")
    while True:
        f0 = [rng.randint(-height, height) for _ in range(d + 1)]
        f1 = [rng.randint(-height, height) for _ in range(d + 1)]
        try:
            return RatMap(QQ, f0, f1)
        except ValueError:
            continue


def random_map_ff(K, d: int, rng) -> RatMap:
    if d < 1:
        raise ValueError("random maps need degree >= 1")
    while True:
        f0 = [K.random_element(rng) for _ in range(d + 1)]
        f1 = [K.random_element(rng) for _ in range(d + 1)]
        try:
            return RatMap(K, f0, f1)
        except ValueError:
            continue

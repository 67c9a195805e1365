"""The correctness gate, with arithmetic of its own.

Every element a solver returns is checked against the identity
s o phi = psi o s by cross-multiplying the two form pairs.  Nothing here
calls the package's conjugation test or polynomial code: over Q the
arithmetic is plain ints and Fractions, over F_p residues mod p, and over
F_{p^k} only the field's add and mul.

Forms follow the package's layout: (c_0, ..., c_D) with c_i the
coefficient of X^i Y^(D-i).  A Mobius element is a 4-tuple (a, b, c, d).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

# Aut answers with no known set are checked for closure up to this size;
# the check is quadratic in the group order.
CLOSURE_LIMIT = 200


class CheckFailure(Exception):
    """A solver returned a wrong answer."""


class RationalRing:
    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def canon(self, t):
        fr = [Fraction(x) for x in t]
        den = 1
        for x in fr:
            den = den * x.denominator // gcd(den, x.denominator)
        ints = [int(x * den) for x in fr]
        g = 0
        for x in ints:
            g = gcd(g, x)
        if g == 0:
            raise CheckFailure("zero vector %r" % (t,))
        lead = next(x for x in ints if x)
        if lead < 0:
            g = -g
        return tuple(x // g for x in ints)


class PrimeRing:
    def __init__(self, p):
        self.p = p
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def canon(self, t):
        p = self.p
        lead = next((x for x in t if x % p), None)
        if lead is None:
            raise CheckFailure("zero vector %r" % (t,))
        u = pow(lead, -1, p)
        return tuple(x * u % p for x in t)


class ExtensionRing:
    """F_{p^k} through the field object's add and mul only."""

    def __init__(self, K):
        self.K = K
        self.zero = K.zero
        self.one = K.one
        self.q = K.order

    def add(self, a, b):
        return self.K.add(a, b)

    def mul(self, a, b):
        return self.K.mul(a, b)

    def _inv(self, a):
        # a^(q-2) by square and multiply
        out, base, e = self.one, a, self.q - 2
        while e:
            if e & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            e >>= 1
        return out

    def canon(self, t):
        lead = next((x for x in t if x != self.zero), None)
        if lead is None:
            raise CheckFailure("zero vector %r" % (t,))
        u = self._inv(lead)
        return tuple(self.mul(x, u) for x in t)


def ring_for(K):
    """The gate's arithmetic for the ground field K of a map."""
    if K.char == 0:
        return RationalRing()
    if K.order == K.char:
        return PrimeRing(K.char)
    return ExtensionRing(K)


# ---------------------------------------------------------------------------
# polynomial and matrix arithmetic

def _pmul(R, f, g):
    out = [R.zero] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        if x == R.zero:
            continue
        for j, y in enumerate(g):
            out[i + j] = R.add(out[i + j], R.mul(x, y))
    return out


def _padd(R, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, y in enumerate(g):
        out[i] = R.add(out[i], y)
    return out


def form_compose(R, G, S0, S1):
    """G(S0, S1) for linear forms S0, S1 given as (Y-coeff, X-coeff)."""
    D = len(G) - 1
    pow0 = [[R.one]]
    pow1 = [[R.one]]
    for _ in range(D):
        pow0.append(_pmul(R, pow0[-1], S0))
        pow1.append(_pmul(R, pow1[-1], S1))
    out = [R.zero] * (D + 1)
    for i, g in enumerate(G):
        if g == R.zero:
            continue
        term = _pmul(R, pow0[i], pow1[D - i])
        out = _padd(R, out, [R.mul(g, x) for x in term])
    return out


def conjugates(R, s, phi, psi) -> bool:
    """s o phi = psi o s, by cross multiplication of the form pairs."""
    a, b, c, d = s
    F0, F1 = phi
    G0, G1 = psi
    if len(F0) != len(G0):
        return False
    sp0 = [R.add(R.mul(a, u), R.mul(b, v)) for u, v in zip(F0, F1)]
    sp1 = [R.add(R.mul(c, u), R.mul(d, v)) for u, v in zip(F0, F1)]
    ps0 = form_compose(R, G0, (b, a), (d, c))
    ps1 = form_compose(R, G1, (b, a), (d, c))
    return _pmul(R, sp0, ps1) == _pmul(R, sp1, ps0)


def mat_mul(R, m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (R.add(R.mul(a, e), R.mul(b, g)), R.add(R.mul(a, f), R.mul(b, h)),
            R.add(R.mul(c, e), R.mul(d, g)), R.add(R.mul(c, f), R.mul(d, h)))


def inverse_qq(m):
    """Adjugate of an integer matrix: the inverse in PGL2(Q)."""
    a, b, c, d = m
    return (d, -b, -c, a)


# ---------------------------------------------------------------------------
# the gate

def _keys(R, elements):
    keys = [R.canon(t) for t in elements]
    if len(set(keys)) != len(keys):
        raise CheckFailure("duplicate elements")
    return set(keys)


def check_elements(R, phi, psi, elements):
    """Every element conjugates phi to psi; returns their canonical keys."""
    for t in elements:
        if not conjugates(R, t, phi, psi):
            raise CheckFailure("element %r fails s o phi = psi o s" % (t,))
    return _keys(R, elements)


def check_aut(R, phi, elements, want=None):
    """Aut answer: verified elements, identity present, closed, and equal
    to want when the answer is known."""
    got = check_elements(R, phi, phi, elements)
    if R.canon((R.one, R.zero, R.zero, R.one)) not in got:
        raise CheckFailure("identity missing")
    if want is not None:
        want_keys = {R.canon(t) for t in want}
        if got != want_keys:
            raise CheckFailure("Aut differs from the known set: %d extra, "
                               "%d missing" % (len(got - want_keys),
                                               len(want_keys - got)))
    elif len(got) <= CLOSURE_LIMIT:
        for x in got:
            for y in got:
                if R.canon(mat_mul(R, x, y)) not in got:
                    raise CheckFailure("Aut not closed under composition")
    return got


def check_conj(R, phi, psi, elements, f=None, aut=None, empty=False):
    """Conj answer: verified elements; empty when the pair is known to be
    non-conjugate; f . Aut(phi) exactly when psi = f . phi . f^-1 and
    Aut(phi) is known; otherwise a coset of Aut(phi) in size."""
    got = check_elements(R, phi, psi, elements)
    if empty and got:
        raise CheckFailure("pair with different Aut orders gave %d elements"
                           % len(got))
    if f is not None and R.canon(f) not in got:
        raise CheckFailure("conjugating set misses the twist f")
    if aut is not None:
        if f is not None:
            want = {R.canon(mat_mul(R, f, a)) for a in aut}
            if got != want:
                raise CheckFailure("Conj(phi, f.phi) != f.Aut(phi): %d extra, "
                                   "%d missing" % (len(got - want), len(want - got)))
        elif got and len(got) != len(aut):
            raise CheckFailure("Conj has %d elements, Aut(phi) has %d"
                               % (len(got), len(aut)))
    return got

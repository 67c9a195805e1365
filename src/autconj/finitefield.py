"""Residue rings, prime fields, extension towers, and the GF constructor.

IntegersMod(m) and its subclass PrimeField have plain int elements in
[0, m); poly.py runs raw-int loops for both.  ExtensionField elements are
fixed-length tuples of base-field elements (coefficients of the residue
class modulo a monic irreducible, lowest degree first) over a finite base.
Over a prime base, add, sub, neg and mul run as plain-int loops: the
product convolves raw int products, folds the coefficients of degree >= k
back in through the precomputed rows x^(k+j) mod modulus, and reduces each
coefficient once with % p.  Towers compose: the base of an ExtensionField
can itself be an ExtensionField, whose elements go through the base's own
methods.  Frobenius, the |base|-th power, is base-linear, so each field
applies it as the k x k matrix of rows F(x)^i over its base, built from
one power on first use.

Only canonical representatives exist, so == and hash are structural.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .ntheory import is_prime
from . import poly as P


class IntegersMod:
    """Z/m with int elements in [0, m); a ring, so only units invert."""

    is_field = False

    def __init__(self, m: int):
        self.m = m
        self.char = m
        self.order = m
        self.zero = 0
        self.one = 1 % m

    def from_int(self, n: int) -> int:
        return n % self.m

    def add(self, a, b):
        return (a + b) % self.m

    def sub(self, a, b):
        return (a - b) % self.m

    def mul(self, a, b):
        return a * b % self.m

    def neg(self, a):
        return -a % self.m

    def inv(self, a):
        try:
            return pow(a, -1, self.m)
        except ValueError:
            raise ZeroDivisionError("%d is not a unit in %r" % (a, self)) from None

    def __eq__(self, other):
        return type(other) is type(self) and other.m == self.m

    def __hash__(self):
        return hash((type(self).__name__, self.m))

    def __repr__(self):
        return "Z/%d" % self.m


class PrimeField(IntegersMod):
    """GF(p) with int elements."""

    is_field = True

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        super().__init__(p)
        self.p = p

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def pow(self, a, n: int):
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def is_square(self, a) -> bool:
        a %= self.p
        if a == 0 or self.p == 2:
            return True
        return pow(a, (self.p - 1) // 2, self.p) == 1

    def elements(self) -> Iterator[int]:
        return iter(range(self.p))

    def random_element(self, rng):
        return rng.randrange(self.p)

    def sort_key(self, a):
        return a

    def __repr__(self):
        return "GF(%d)" % self.p


class ExtensionField:
    """base[x] / (modulus), modulus monic of degree >= 2 over base.

    Elements are length-k tuples of base elements; embed maps the base
    field onto the constants.
    """

    is_field = True

    def __init__(self, base, modulus):
        modulus = tuple(modulus)
        k = len(modulus) - 1
        if k < 2:
            raise ValueError("extension degree must be >= 2")
        if modulus[-1] != base.one:
            raise ValueError("modulus must be monic")
        self.base = base
        self.modulus = modulus
        self.k = k
        self.char = base.char
        self.order = base.order ** k
        self.zero = (base.zero,) * k
        self.one = (base.one,) + (base.zero,) * (k - 1)
        # x^(k+j) mod modulus for j = 0..k-2, as coefficient tuples
        red = []
        cur = list(P.pmod(base, P.pmono(base, k), modulus))
        for _ in range(k - 1):
            cur = cur + [base.zero] * (k - len(cur))
            red.append(tuple(cur))
            nxt = [base.zero] + cur[: k - 1]
            top = cur[k - 1]
            if top != base.zero:
                for i in range(k):
                    nxt[i] = base.sub(nxt[i], base.mul(top, self.modulus[i]))
            cur = nxt
        self._red = red
        # the characteristic when the base is a prime field, whose int
        # elements take the plain-int loops; 0 for a tower
        self._p = base.p if isinstance(base, PrimeField) else 0
        self.gen = (base.zero, base.one) + (base.zero,) * (k - 2)
        self._frob = None  # the rows F(x)^i of frobenius, built on first use

    def from_int(self, n: int):
        return self.embed(self.base.from_int(n))

    def embed(self, a):
        return (a,) + (self.base.zero,) * (self.k - 1)

    def add(self, a, b):
        p = self._p
        if p:
            return tuple([(x + y) % p for x, y in zip(a, b)])
        B = self.base
        return tuple(B.add(x, y) for x, y in zip(a, b))

    def sub(self, a, b):
        p = self._p
        if p:
            return tuple([(x - y) % p for x, y in zip(a, b)])
        B = self.base
        return tuple(B.sub(x, y) for x, y in zip(a, b))

    def neg(self, a):
        p = self._p
        if p:
            return tuple([-x % p for x in a])
        B = self.base
        return tuple(B.neg(x) for x in a)

    def mul(self, a, b):
        k = self.k
        p = self._p
        if p:
            # raw int products, the high part folded in unreduced
            conv = [0] * (2 * k - 1)
            i = 0
            for x in a:
                if x:
                    j = i
                    for y in b:
                        conv[j] += x * y
                        j += 1
                i += 1
            for j in range(k - 1):
                c = conv[k + j]
                if c:
                    row = self._red[j]
                    for i in range(k):
                        conv[i] += c * row[i]
            return tuple([c % p for c in conv[:k]])
        B = self.base
        conv = [B.zero] * (2 * k - 1)
        for i, x in enumerate(a):
            if x == B.zero:
                continue
            for j, y in enumerate(b):
                conv[i + j] = B.add(conv[i + j], B.mul(x, y))
        out = conv[:k]
        for j in range(k - 1):
            c = conv[k + j]
            if c == B.zero:
                continue
            row = self._red[j]
            for i in range(k):
                out[i] = B.add(out[i], B.mul(c, row[i]))
        return tuple(out)

    def inv(self, a):
        B = self.base
        f = P.pstrip(B, a)
        if not f:
            raise ZeroDivisionError("inverse of zero in %r" % self)
        d, s, _ = P.pxgcd(B, f, self.modulus)
        if len(d) != 1:
            raise ZeroDivisionError("element not invertible")
        s = P.pscale(B, s, B.inv(d[0]))
        return tuple(s) + (B.zero,) * (self.k - len(s))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            n >>= 1
        return out

    def frobenius(self, a):
        """The q-power map, q = |base|; fixes exactly the base field.

        It is base-linear, F(sum a_i x^i) = sum a_i F(x)^i, so it applies
        the rows F(x)^i, built from one q-th power on first use.
        """
        rows = self._frob
        if rows is None:
            fx = self.pow(self.gen, self.base.order)
            rows = [self.one]
            for _ in range(self.k - 1):
                rows.append(self.mul(rows[-1], fx))
            self._frob = rows
        k = self.k
        p = self._p
        if p:
            out = [0] * k
            for c, row in zip(a, rows):
                if c:
                    for j in range(k):
                        out[j] += c * row[j]
            return tuple([c % p for c in out])
        B = self.base
        out = [B.zero] * k
        for c, row in zip(a, rows):
            if c != B.zero:
                for j in range(k):
                    out[j] = B.add(out[j], B.mul(c, row[j]))
        return tuple(out)

    def elements(self) -> Iterator[tuple]:
        base_elems = list(self.base.elements())
        for coeffs in itertools.product(base_elems, repeat=self.k):
            yield tuple(coeffs)

    def random_element(self, rng):
        return tuple(self.base.random_element(rng) for _ in range(self.k))

    def sort_key(self, a):
        return tuple(self.base.sort_key(c) for c in a)

    def __eq__(self, other):
        return (isinstance(other, ExtensionField)
                and other.base == self.base and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("ExtensionField", self.base, self.modulus))

    def __repr__(self):
        return "GF(%d^%d over %r)" % (self.base.order, self.k, self.base)


def _is_irreducible_over_prime(F: PrimeField, f) -> bool:
    # x^(p^k) = x mod f, and x^(p^(k/l)) - x coprime to f for prime l | k
    k = len(f) - 1
    p = F.p
    x = P.pmono(F, 1)
    if P.ppow_mod(F, x, p**k, f) != P.pmod(F, x, f):
        return False
    ell = 2
    kk = k
    checked = set()
    while ell * ell <= kk:
        if kk % ell == 0:
            checked.add(ell)
            while kk % ell == 0:
                kk //= ell
        ell += 1
    if kk > 1:
        checked.add(kk)
    for ell in checked:
        g = P.psub(F, P.ppow_mod(F, x, p ** (k // ell), f), x)
        if len(P.pgcd(F, g, f)) != 1:
            return False
    return True


def GF(p: int, k: int = 1):
    """The field with p^k elements; k = 1 gives a PrimeField.

    For k = 2 the modulus is x^2 - c (c the smallest non-square) when p is
    odd and x^2 + x + 1 for p = 2.  Larger k searches monic polynomials in
    lexicographic order, so the construction is deterministic.
    """
    base = PrimeField(p)
    if k == 1:
        return base
    if k == 2:
        if p == 2:
            return ExtensionField(base, (1, 1, 1))
        c = next(c for c in range(2, p) if not base.is_square(c))
        return ExtensionField(base, ((-c) % p, 0, 1))
    for tail in itertools.product(range(p), repeat=k):
        f = tuple(tail) + (1,)
        if _is_irreducible_over_prime(base, f):
            return ExtensionField(base, f)
    raise RuntimeError("no irreducible found")  # unreachable

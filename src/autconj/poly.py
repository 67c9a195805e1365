"""Dense univariate polynomials and binary forms over a domain context.

Polynomials are stripped tuples of coefficients, lowest degree first; the
zero polynomial is ().  Binary forms of declared degree D are full tuples
of length D + 1 with c[i] the coefficient of X^i Y^(D-i); they are never
stripped, since the declared degree carries the multiplicity of the root
at infinity (c[D] = 0 iff (1:0) is a root).

Every function takes the domain K first.  K only needs the small context
interface from domains.py, so this layer works uniformly over Q, Z, prime
fields and extension towers.  Over a residue ring Z/m (IntegersMod, prime
fields included) the products, sums and divisions run as plain-int loops
that reduce once per coefficient; division there needs a divisor whose
leading coefficient is a unit.
"""

from __future__ import annotations

import math
from typing import Sequence

from . import finitefield as FF
from .domains import ZZ

Poly = tuple
Form = tuple


def pstrip(K, f) -> Poly:
    f = tuple(f)
    n = len(f)
    while n > 0 and f[n - 1] == K.zero:
        n -= 1
    return f[:n]


def pdeg(f) -> int:
    """Degree, with deg 0 = -1 by convention."""
    return len(f) - 1


def pconst(K, c) -> Poly:
    return () if c == K.zero else (c,)


def pmono(K, n: int, c=None) -> Poly:
    """c * x^n (c defaults to 1)."""
    if c is None:
        c = K.one
    if c == K.zero:
        return ()
    return (K.zero,) * n + (c,)


def padd(K, f, g) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    if isinstance(K, FF.IntegersMod):
        m = K.m
        for i, c in enumerate(g):
            out[i] = (out[i] + c) % m
    else:
        for i, c in enumerate(g):
            out[i] = K.add(out[i], c)
    return pstrip(K, out)


def pneg(K, f) -> Poly:
    return tuple(K.neg(c) for c in f)


def psub(K, f, g) -> Poly:
    if not isinstance(K, FF.IntegersMod):
        return padd(K, f, pneg(K, g))
    m = K.m
    out = list(f) + [0] * (len(g) - len(f))
    for i, c in enumerate(g):
        out[i] = (out[i] - c) % m
    return pstrip(K, out)


def pscale(K, f, c) -> Poly:
    if c == K.zero:
        return ()
    if isinstance(K, FF.IntegersMod):
        m = K.m
        return pstrip(K, [c * a % m for a in f])
    return pstrip(K, tuple(K.mul(c, a) for a in f))


def _int_mul(f, g, m) -> list:
    """Product of int coefficient sequences mod m (over Z when m = 0),
    unstripped."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return [c % m for c in out] if m else out


def _int_strip(out: list) -> Poly:
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def pmul(K, f, g) -> Poly:
    if not f or not g:
        return ()
    if isinstance(K, FF.IntegersMod):
        return _int_strip(_int_mul(f, g, K.m))
    out = [K.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == K.zero:
            continue
        for j, b in enumerate(g):
            out[i + j] = K.add(out[i + j], K.mul(a, b))
    return pstrip(K, out)


def _int_divmod(K, f, g) -> tuple[Poly, Poly]:
    """pdivmod over Z/m; g's leading coefficient must be a unit."""
    m = K.m
    dg = len(g) - 1
    lg_inv = 1 if g[-1] == 1 else K.inv(g[-1])
    low = g[:-1]
    r = list(f)
    q = [0] * max(len(f) - dg, 0)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + dg] % m
        if c:
            if lg_inv != 1:
                c = c * lg_inv % m
            q[k] = c
            for j, b in enumerate(low, k):
                r[j] -= c * b
    return _int_strip(q), _int_strip([c % m for c in r[:dg]])


def pdivmod(K, f, g) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if isinstance(K, FF.IntegersMod):
        return _int_divmod(K, f, g)
    if not K.is_field:
        raise ValueError("division needs a field domain")
    f = list(f)
    dg = len(g) - 1
    # a monic divisor, the common case, needs no inverse
    lg_inv = None if g[-1] == K.one else K.inv(g[-1])
    q = [K.zero] * max(len(f) - dg, 0)
    for i in range(len(f) - 1, dg - 1, -1):
        c = f[i] if lg_inv is None else K.mul(f[i], lg_inv)
        if c == K.zero:
            continue
        q[i - dg] = c
        for j, b in enumerate(g):
            f[i - dg + j] = K.sub(f[i - dg + j], K.mul(c, b))
    return pstrip(K, q), pstrip(K, f)


def pquo(K, f, g) -> Poly:
    return pdivmod(K, f, g)[0]


def pmod(K, f, g) -> Poly:
    return pdivmod(K, f, g)[1]


def ppow_mod(K, f, e: int, m) -> Poly:
    if e < 0:
        raise ValueError("negative exponent")
    if isinstance(K, FF.IntegersMod):
        def mulmod(a, b):
            return _int_divmod(K, _int_mul(a, b, K.m), m)[1]
    else:
        def mulmod(a, b):
            return pmod(K, pmul(K, a, b), m)
    f = pmod(K, f, m)
    out = pmod(K, (K.one,), m)
    while e:
        if e & 1:
            out = mulmod(out, f)
        e >>= 1
        if e:
            f = mulmod(f, f)
    return out


def pmonic(K, f) -> Poly:
    if not f:
        return f
    if f[-1] == K.one:
        return tuple(f)
    return pscale(K, f, K.inv(f[-1]))


def pgcd(K, f, g) -> Poly:
    while g:
        f, g = g, pmod(K, f, g)
    return pmonic(K, f)


def pxgcd(K, f, g) -> tuple[Poly, Poly, Poly]:
    """(d, s, t) with s*f + t*g = d, d monic (or zero)."""
    r0, r1 = tuple(f), tuple(g)
    s0, s1 = (K.one,), ()
    t0, t1 = (), (K.one,)
    while r1:
        q, r = pdivmod(K, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, psub(K, s0, pmul(K, q, s1))
        t0, t1 = t1, psub(K, t0, pmul(K, q, t1))
    if r0 and r0[-1] != K.one:
        c = K.inv(r0[-1])
        r0, s0, t0 = pscale(K, r0, c), pscale(K, s0, c), pscale(K, t0, c)
    return r0, s0, t0


def pderiv(K, f) -> Poly:
    return pstrip(K, tuple(K.mul(K.from_int(i), c) for i, c in enumerate(f))[1:])


def peval(K, f, x):
    acc = K.zero
    for c in reversed(f):
        acc = K.add(K.mul(acc, x), c)
    return acc


# ---------------------------------------------------------------------------
# integer-coefficient helpers

def content(f: Sequence[int]) -> int:
    g = 0
    for c in f:
        g = math.gcd(g, c)
    return g


def primitive(f: Sequence[int]) -> tuple[int, ...]:
    """Divide by content and normalize the first nonzero coefficient > 0."""
    g = content(f)
    if g == 0:
        return tuple(f)
    out = [c // g for c in f]
    for c in out:
        if c:
            if c < 0:
                out = [-x for x in out]
            break
    return tuple(out)


# ---------------------------------------------------------------------------
# binary forms

def dehom(K, F) -> Poly:
    """F(x, 1) as a polynomial; drops the Y-multiplicity information."""
    return pstrip(K, F)


def form_ymult(K, F) -> int:
    """Multiplicity of the root at infinity, i.e. the exact power of Y in F."""
    d = pstrip(K, F)
    if not d:
        raise ValueError("zero form")
    return len(F) - len(d)


def _int_modulus(K):
    """m for Z/m, 0 for Z, both with int loops; None for other domains."""
    if isinstance(K, FF.IntegersMod):
        return K.m
    return 0 if K is ZZ else None


def form_mul(K, F, G) -> Form:
    m = _int_modulus(K)
    if m is not None:
        return tuple(_int_mul(F, G, m))
    out = [K.zero] * (len(F) + len(G) - 1)
    for i, a in enumerate(F):
        if a == K.zero:
            continue
        for j, b in enumerate(G):
            out[i + j] = K.add(out[i + j], K.mul(a, b))
    return tuple(out)


def form_eval(K, F, x0, x1):
    d = len(F) - 1
    y_pows = [K.one]
    for _ in range(d):
        y_pows.append(K.mul(y_pows[-1], x1))
    acc = K.zero
    xp = K.one
    for i, c in enumerate(F):
        if c != K.zero:
            acc = K.add(acc, K.mul(K.mul(c, xp), y_pows[d - i]))
        if i < d:
            xp = K.mul(xp, x0)
    return acc


def form_compose(K, F, S0, S1) -> Form:
    """F(S0, S1) for forms S0, S1 of the same declared degree e.

    Homogeneous Horner: acc <- acc S0 + F_i S1^(d-i) for i = d-1, ..., 0,
    so each step multiplies by S0 or S1 once, O(d^2 e^2) in all.  Over Z
    and Z/m a linear pair runs as one int loop.
    """
    if len(S0) != len(S1):
        raise ValueError("component forms must share a degree")
    e = len(S0) - 1
    if not F:
        return (K.zero,) * (1 - e)
    m = _int_modulus(K)
    if m is not None and e == 1:
        return _int_compose_linear(F, S0, S1, m)
    acc = (F[-1],)
    pw = (K.one,)  # S1^(d-i)
    for c in reversed(F[:-1]):
        acc = form_mul(K, acc, S0)
        pw = form_mul(K, pw, S1)
        if c == K.zero:
            continue
        if m is None:
            acc = tuple([K.add(x, K.mul(c, y)) for x, y in zip(acc, pw)])
        else:
            acc = tuple([(x + c * y) % m if m else x + c * y for x, y in zip(acc, pw)])
    return acc


def _int_compose_linear(F, S0, S1, m) -> Form:
    """form_compose over Z (m = 0) or Z/m for linear S0 = s Y + t X and
    S1 = u Y + v X, with ints reduced once per Horner step."""
    s, t = S0
    u, v = S1
    acc = [F[-1]]
    pw = [1]
    for c in reversed(F[:-1]):
        nxt = [0] * (len(acc) + 1)
        npw = [0] * (len(acc) + 1)
        for j, (x, y) in enumerate(zip(acc, pw)):
            nxt[j] += x * s
            nxt[j + 1] += x * t
            npw[j] += y * u
            npw[j + 1] += y * v
        if c:
            nxt = [x + c * y for x, y in zip(nxt, npw)]
        if m:
            nxt = [x % m for x in nxt]
            npw = [y % m for y in npw]
        acc, pw = nxt, npw
    return tuple(acc)

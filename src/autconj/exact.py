"""Exact integer/rational helpers: CRT, lattice lifts.

The lattice code exists for one job: given a residue vector r mod N that is
known to be the reduction of a projective point of small height, recover all
candidate lifts v with sup-norm ||v|| <= B and v = lambda * r (mod N) for a
unit lambda.  The set of integer vectors congruent to a multiple of r is the
rank-4 lattice Z*r + N*Z^4; LLL plus Fincke-Pohst enumeration of the ball
||v||_2^2 <= 4B^2 (sup <= B implies l2 <= 2B in dimension 4) is exhaustive.

Everything here is exact: GSO runs over Fraction, enumeration bounds are
derived with isqrt, no floats anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

LLL_DELTA = Fraction(99, 100)   # strong reduction; bases here are rank 4


def canonical_proj(vec: Sequence[int]) -> tuple[int, ...]:
    """Canonical integer representative of a projective point.

    Divides by the content and flips sign so the first nonzero coordinate
    is positive.
    """
    g = 0
    for x in vec:
        g = math.gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no projective class")
    out = [x // g for x in vec]
    for x in out:
        if x != 0:
            if x < 0:
                out = [-y for y in out]
            break
    return tuple(out)


def proj_height(vec: Sequence[int]) -> int:
    return max(abs(x) for x in canonical_proj(vec))


def l2_norm_sq(vec: Sequence[int]) -> int:
    return sum(x * x for x in vec)


def crt_int(pairs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Combine (residue, modulus) pairs with pairwise coprime moduli.

    Returns (x, N) with x the unique class mod N = prod(moduli).
    """
    x, n = 0, 1
    for r, m in pairs:
        if m <= 0:
            raise ValueError("modulus must be positive")
        g = math.gcd(n, m)
        if g != 1:
            raise ValueError("moduli not coprime")
        # x' = x + n * t  with  t = (r - x) / n  mod m
        t = (r - x) * pow(n, -1, m) % m
        x = x + n * t
        n *= m
    return x % n, n


def crt_combine(pairs: Sequence[tuple[Sequence[int], int]]) -> tuple[tuple[int, ...], int]:
    """CRT for projective 4-vectors given mod pairwise coprime moduli.

    Each input vector is first scaled so its first unit coordinate is 1,
    which pins down the representative; a vector with no unit coordinate
    (possible for composite moduli) is rejected.
    """
    normed = []
    for vec, m in pairs:
        vec = [x % m for x in vec]
        for x in vec:
            if math.gcd(x, m) == 1:
                inv = pow(x, -1, m)
                normed.append(([y * inv % m for y in vec], m))
                break
        else:
            raise ValueError("vector has no unit coordinate mod %d" % m)
    n = 1
    out = [0, 0, 0, 0]
    for i in range(4):
        out[i], n = crt_int([(vec[i], m) for vec, m in normed])
    return tuple(out), n


def hnf_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Row Hermite normal form; returns the nonzero rows.

    Plain gcd-elimination, adequate for the tiny matrices fed to it.
    """
    a = [list(map(int, r)) for r in rows]
    if not a:
        return []
    m, n = len(a), len(a[0])
    rank = 0
    for col in range(n):
        # pull the smallest nonzero pivot up, reduce the rest against it
        while True:
            piv, best = -1, 0
            for i in range(rank, m):
                v = abs(a[i][col])
                if v and (piv < 0 or v < best):
                    piv, best = i, v
            if piv < 0:
                break
            a[rank], a[piv] = a[piv], a[rank]
            done = True
            for i in range(rank + 1, m):
                if a[i][col]:
                    q = a[i][col] // a[rank][col]
                    a[i] = [x - q * y for x, y in zip(a[i], a[rank])]
                    if a[i][col]:
                        done = False
            if done:
                break
        if rank < m and a[rank][col]:
            if a[rank][col] < 0:
                a[rank] = [-x for x in a[rank]]
            for i in range(rank):
                q = a[i][col] // a[rank][col]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[rank])]
            rank += 1
    return a[:rank]


def _gso(basis: list[list[int]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    n = len(basis)
    mu = [[Fraction(0)] * n for _ in range(n)]
    star: list[list[Fraction]] = []
    norms: list[Fraction] = []
    for i in range(n):
        v = [Fraction(x) for x in basis[i]]
        for j in range(n):
            mu[i][j] = Fraction(0)
        mu[i][i] = Fraction(1)
        for j in range(i):
            num = sum(Fraction(x) * y for x, y in zip(basis[i], star[j]))
            mu[i][j] = num / norms[j] if norms[j] else Fraction(0)
            v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
        star.append(v)
        norms.append(sum(x * x for x in v))
    return mu, norms


def _round_nearest(x: Fraction) -> int:
    return (2 * x.numerator + x.denominator) // (2 * x.denominator)


def lll_reduce(rows: Sequence[Sequence[int]], delta: Fraction = LLL_DELTA) -> list[list[int]]:
    """LLL-reduce a full-rank integer basis.  Exact Fraction GSO.

    Size reduction updates the mu row in place (the orthogonalization does
    not move); only swaps recompute the full GSO, which keeps the Fraction
    work bearable at rank 4.
    """
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n <= 1:
        return b
    mu, norms = _gso(b)
    k = 1
    while k < n:
        for j in range(k - 1, -1, -1):
            q = _round_nearest(mu[k][j])
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
                for l in range(j + 1):
                    mu[k][l] -= q * mu[j][l]
        if norms[k] >= (delta - mu[k][k - 1] ** 2) * norms[k - 1]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            mu, norms = _gso(b)
            k = max(k - 1, 1)
    return b


def _short_vectors(basis: list[list[int]], bound_sq: int) -> list[tuple[int, ...]]:
    """All nonzero lattice vectors with ||v||_2^2 <= bound_sq, up to sign."""
    n = len(basis)
    mu, norms = _gso(basis)
    out: list[tuple[int, ...]] = []
    coeffs = [0] * n

    # enumerate half the space: topmost nonzero coefficient nonnegative
    def descend_signed(level: int, remaining: Fraction, free: bool) -> None:
        if level < 0:
            v = [0] * len(basis[0])
            for c, row in zip(coeffs, basis):
                if c:
                    v = [a + c * x for a, x in zip(v, row)]
            if any(v):
                out.append(tuple(v))
            return
        if norms[level] == 0:
            raise ValueError("basis not full rank")
        center = -sum(mu[i][level] * coeffs[i] for i in range(level + 1, n))
        t = remaining / norms[level]
        rad = math.isqrt(t.numerator // t.denominator) + 2
        base = center.numerator // center.denominator
        lo = base - rad - 1
        if free:
            lo = max(lo, 0)
        for x in range(lo, base + rad + 2):
            gap = norms[level] * (Fraction(x) - center) ** 2
            if gap <= remaining:
                coeffs[level] = x
                descend_signed(level - 1, remaining - gap, free and x == 0)
        coeffs[level] = 0

    descend_signed(n - 1, Fraction(bound_sq), True)
    return out


def shortest_congruent_lift(
    residue: Sequence[int],
    modulus: int,
    height_bound: Optional[int] = None,
) -> list[tuple[int, ...]]:
    """Projective lifts of a residue 4-vector, sorted by (height, lex).

    Returns every canonical integer point v with sup-norm <= B and
    v = lambda * residue (mod modulus), lambda a unit, where B is
    min(height_bound, isqrt((modulus - 1) // 2)).  The isqrt clamp is the
    uniqueness radius: below it at most one point exists, so the clamp
    both keeps enumeration cheap and loses nothing once the modulus has
    outgrown the a-priori height bound.
    """
    n = int(modulus)
    if n <= 1:
        raise ValueError("modulus must be > 1")
    r = [x % n for x in residue]
    if not any(r):
        raise ValueError("residue is the zero vector")
    bound = math.isqrt((n - 1) // 2)
    if height_bound is not None:
        bound = min(bound, height_bound)
    if bound <= 0:
        return []
    rows = [r] + [[n if i == j else 0 for j in range(4)] for i in range(4)]
    basis = lll_reduce(hnf_rows(rows))
    found = set()
    for v in _short_vectors(basis, 4 * bound * bound):
        if max(abs(x) for x in v) > bound:
            continue
        g = math.gcd(math.gcd(math.gcd(v[0], v[1]), math.gcd(v[2], v[3])), n)
        if g != 1:
            continue
        found.add(canonical_proj(v))
    return sorted(found, key=lambda v: (max(abs(x) for x in v), v))

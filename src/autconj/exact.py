"""Exact integer/rational helpers: CRT, lattice lifts.

The lattice code exists for one job: given a residue vector r mod N that is
known to be the reduction of a projective point of small height, recover all
candidate lifts v with sup-norm ||v|| <= B and v = lambda * r (mod N) for a
unit lambda.  The set of integer vectors congruent to a multiple of r is the
rank-4 lattice Z*r + N*Z^4, with the explicit basis r, N*e_j (j != i) once r
is scaled so that r_i = 1; LLL plus Fincke-Pohst enumeration of the ball
||v||_2^2 <= 4B^2 (sup <= B implies l2 <= 2B in dimension 4) is exhaustive.

Everything here is exact and integral: the reducer and the enumeration work
on the integer Gram-Schmidt data d_i and lambda_ij of Cohen's integral LLL
(A Course in Computational Algebraic Number Theory, Alg. 2.6.7), bounds come
from isqrt, and there are no Fractions and no floats.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence


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


def _congruence_basis(r: Sequence[int], n: int) -> Optional[list[list[int]]]:
    """A basis of the lattice Z*r + n*Z^4, or None when the coordinates of
    r share a prime with n (then no unit multiple of r lifts primitively).

    With u = sum(c_j r_j) a unit mod n for a coefficient vector c with
    c_i = 1, the rows are the multiple w of r by u^-1 mod n, adjusted at i
    so that c.w = 1 exactly, and n*(e_j - c_j e_i) for j != i: they lie in
    the lattice, and the determinant is n^3, its index.  Usually some r_i
    is a unit and c = e_i, giving r / r_i and n*e_j.  Otherwise c is built
    one coordinate at a time: with m the largest divisor of n prime to u,
    u + m*r_j is divisible by a prime of n only if u and r_j both were.
    """
    i = next((j for j, x in enumerate(r) if math.gcd(x, n) == 1), 0)
    c = [0] * 4
    c[i] = 1
    u = r[i]
    for j in range(4):
        if j == i or math.gcd(u, n) == 1:
            continue
        m = n
        g = math.gcd(m, u)
        while g > 1:
            m //= g
            g = math.gcd(m, u)
        c[j] = m
        u += m * r[j]
    if math.gcd(u, n) != 1:
        return None
    inv = pow(u, -1, n)
    w = [x * inv % n for x in r]
    w[i] -= sum(a * b for a, b in zip(c, w)) - 1
    rows = [w]
    for j in range(4):
        if j != i:
            row = [0] * 4
            row[j] = n
            row[i] = -n * c[j]
            rows.append(row)
    return rows


def _integral_gso(b: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Integral Gram-Schmidt data of a basis (Cohen, Alg. 2.6.7, step 2):
    d[k+1] = prod_{j<=k} |b*_j|^2 and lam[k][j] = d[j+1] * mu_kj, all
    integers, every division exact."""
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            if j < k:
                lam[k][j] = u
            elif u == 0:
                raise ValueError("basis not full rank")
            else:
                d[k + 1] = u
    return d, lam


def lll_reduce(rows: Sequence[Sequence[int]]
               ) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """LLL-reduce a full-rank integer basis with delta = 99/100, in integers
    only: Cohen's integral LLL (Alg. 2.6.7), which keeps d_i and
    lambda_ij = d_{j+1} mu_ij exact and updates them in place on
    size reduction and swaps.  Returns (basis, d, lam), the last two the
    integral GSO data of the reduced basis."""
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    d, lam = _integral_gso(b)

    def reduce(k: int, l: int) -> None:
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) > dl:
            q = (2 * lam[k][l] + dl) // (2 * dl)
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * dl
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = 1
    while k < n:
        reduce(k, k - 1)
        mu = lam[k][k - 1]
        if 100 * d[k + 1] * d[k - 1] < 99 * d[k] * d[k] - 100 * mu * mu:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            B = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - mu * t) // d[k]
                lam[i][k - 1] = (B * t + mu * lam[i][k]) // d[k + 1]
            d[k] = B
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return b, d, lam


def _short_vectors(basis: list[list[int]], d: list[int], lam: list[list[int]],
                   bound_sq: int) -> list[tuple[int, ...]]:
    """All nonzero lattice vectors with ||v||_2^2 <= bound_sq, up to sign.

    Fincke-Pohst over the integral GSO d, lam of the basis (as lll_reduce
    returns it): at level l the center is C/d[l+1]
    with C = -sum_{i>l} lam[i][l] x_i, a step to x costs
    (d[l+1] x - C)^2 / (d[l] d[l+1]), and the squared length left is kept
    as an exact integer fraction num/den.
    """
    n = len(basis)
    out: list[tuple[int, ...]] = []
    coeffs = [0] * n

    # enumerate half the space: topmost nonzero coefficient nonnegative
    def descend_signed(level: int, num: int, den: int, free: bool) -> None:
        if level < 0:
            v = [0] * len(basis[0])
            for c, row in zip(coeffs, basis):
                if c:
                    v = [a + c * x for a, x in zip(v, row)]
            if any(v):
                out.append(tuple(v))
            return
        dl = d[level + 1]
        scale = d[level] * dl
        center = -sum(lam[i][level] * coeffs[i] for i in range(level + 1, n))
        rad = math.isqrt(num * scale // den) + 1
        lo = (center - rad) // dl
        if free:
            lo = max(lo, 0)
        for x in range(lo, (center + rad) // dl + 1):
            e = dl * x - center
            left = num * scale - e * e * den
            if left >= 0:
                coeffs[level] = x
                descend_signed(level - 1, left, den * scale, free and x == 0)
        coeffs[level] = 0

    descend_signed(n - 1, bound_sq, 1, True)
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
    rows = _congruence_basis(r, n)
    if rows is None:
        return []
    basis, d, lam = lll_reduce(rows)
    found = set()
    for v in _short_vectors(basis, d, lam, 4 * bound * bound):
        if max(abs(x) for x in v) > bound:
            continue
        g = math.gcd(math.gcd(math.gcd(v[0], v[1]), math.gcd(v[2], v[3])), n)
        if g != 1:
            continue
        found.add(canonical_proj(v))
    return sorted(found, key=lambda v: (max(abs(x) for x in v), v))

"""Integer CRT and short-lattice-vector lifting."""

import itertools
import math
import random
from fractions import Fraction

from autconj.exact import (
    _congruence_basis,
    canonical_proj,
    crt_combine,
    crt_int,
    l2_norm_sq,
    lll_reduce,
    proj_height,
    shortest_congruent_lift,
)


def test_crt_int():
    x, n = crt_int([(2, 5), (3, 7)])
    assert n == 35 and x % 5 == 2 and x % 7 == 3
    rng = random.Random(11)
    for _ in range(300):
        m1 = rng.randrange(2, 80)
        m2 = rng.randrange(2, 80)
        if math.gcd(m1, m2) != 1:
            continue
        a1, a2 = rng.randrange(m1), rng.randrange(m2)
        x, n = crt_int([(a1, m1), (a2, m2)])
        assert n == m1 * m2 and 0 <= x < n
        assert x % m1 == a1 and x % m2 == a2


def test_crt_int_rejects_common_factor():
    try:
        crt_int([(1, 6), (1, 4)])
        assert False
    except ValueError:
        pass


def test_crt_combine_identity():
    vec, n = crt_combine([((1, 0, 0, 1), 5), ((1, 0, 0, 1), 7)])
    assert n == 35
    assert vec == (1, 0, 0, 1)


def test_crt_combine_scalar_ambiguity():
    # (1,0,0,1) mod 5 and (2,0,0,2) mod 7 name the same projective point,
    # and the combined class must too
    vec, n = crt_combine([((1, 0, 0, 1), 5), ((2, 0, 0, 2), 7)])
    assert n == 35
    # vec = lambda*(1,0,0,1) mod 35 for a unit lambda
    assert vec[1] == 0 and vec[2] == 0 and vec[0] == vec[3]
    assert math.gcd(vec[0], 35) == 1
    x, _ = crt_int([(1, 5), (2, 7)])
    assert x == 16


def test_crt_combine_antidiagonal():
    vec, n = crt_combine([((0, 1, 1, 0), 5), ((0, 1, 4, 0), 7)])
    assert n == 35
    # proportional to (0, 1, 2601, 0) mod 35: 2601 = 11 mod 35... check directly
    lam = vec[1]
    assert math.gcd(lam, 35) == 1
    assert vec[0] == 0 and vec[3] == 0
    assert (vec[2] - lam * 2601) % 35 == 0


def test_crt_combine_no_unit_coordinate():
    # every coordinate shares a factor with the composite modulus
    try:
        crt_combine([((2, 0, 3, 0), 6)])
        assert False
    except ValueError:
        pass


def test_canonical_proj_and_height():
    assert canonical_proj((2, 0, 0, 2)) == (1, 0, 0, 1)
    assert canonical_proj((0, -3, -6, 0)) == (0, 1, 2, 0)
    assert proj_height((1, 0, 0, 1)) == 1
    assert proj_height((0, 1, 2601, 0)) == 2601
    assert proj_height((2, -3, 5, 7)) == 7
    assert proj_height((4, 0, 0, 6)) == 3


def test_l2_norm_sq():
    # X^2 Y - X Y^2 as the coefficient vector (0, -1, 1, 0)
    assert l2_norm_sq((0, -1, 1, 0)) == 2
    # x^3 - 3x
    assert l2_norm_sq((0, -3, 0, 1)) == 10
    assert l2_norm_sq((0, 0, 0, 0)) == 0


def _det(rows):
    """Integer determinant by Leibniz: fine at rank 4."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def _normalized_basis(rng, n):
    """A random residue r mod n with r_i = 1, and the basis r, n*e_j
    (j != i) of the lattice Z*r + n*Z^4."""
    i = rng.randrange(4)
    r = [rng.randrange(n) for _ in range(4)]
    r[i] = 1
    return r, i, [r] + [[n if k == j else 0 for k in range(4)] for j in range(4) if j != i]


def test_lll_preserves_lattice():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.choice([35, 77, 1001, 30031])
        r, i, basis = _normalized_basis(rng, n)
        red = lll_reduce(basis)[0]
        # membership: every reduced row is v_i times r mod n; the index
        # n^3 of the lattice in Z^4 then makes the rows a basis of it
        for v in red:
            assert all((v[k] - v[i] * r[k]) % n == 0 for k in range(4))
        assert abs(_det(red)) == n**3
        # first reduced vector is never longer than the shortest input row
        m_in = min(l2_norm_sq(v) for v in basis)
        assert l2_norm_sq(red[0]) <= m_in


def test_congruence_basis_without_unit_coordinate():
    # no coordinate of r is a unit mod 105, yet gcd(r, 105) = 1
    n = 105
    for r in ([15, 35, 21, 0], [3, 5, 7, 0], [42, 0, 70, 30]):
        assert all(math.gcd(x, n) > 1 for x in r)
        rows = _congruence_basis(r, n)
        multiples = {tuple(k * x % n for x in r) for k in range(n)}
        for v in rows:
            assert tuple(x % n for x in v) in multiples
        assert abs(_det(rows)) == n**3
    # a common prime of r and n: no basis, and no lift
    assert _congruence_basis([3, 6, 0, 9], n) is None
    assert shortest_congruent_lift((3, 6, 0, 9), n) == []


def test_lll_size_reduction_property():
    # |mu_ij| <= 1/2 for i > j on the reduced basis, and the returned
    # integral GSO is that of the reduced basis
    rng = random.Random(3)
    for _ in range(25):
        n = rng.choice([101, 1009, 10007])
        _, _, basis = _normalized_basis(rng, n)
        red, d, lam = lll_reduce(basis)
        k = len(red)
        # Gram-Schmidt from scratch
        star = [[Fraction(x) for x in red[0]]]
        mu = [[Fraction(0)] * k for _ in range(k)]
        for i in range(1, k):
            v = [Fraction(x) for x in red[i]]
            for j in range(i):
                num = sum(a * b for a, b in zip(red[i], star[j]))
                den = sum(a * a for a in star[j])
                mu[i][j] = Fraction(num) / den
                v = [a - mu[i][j] * b for a, b in zip(v, star[j])]
            star.append(v)
        for i in range(k):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        # d[i+1] = prod_{j<=i} |b*_j|^2 and lam[i][j] = d[j+1] mu_ij
        prod = Fraction(1)
        for i in range(k):
            prod *= sum(a * a for a in star[i])
            assert d[i + 1] == prod
            for j in range(i):
                assert lam[i][j] == d[j + 1] * mu[i][j]


def test_shortest_congruent_lift_identity():
    out = shortest_congruent_lift((1, 0, 0, 1), 35)
    assert out and out[0] == (1, 0, 0, 1)


def test_shortest_congruent_lift_scaled_residue():
    out = shortest_congruent_lift((2, 0, 0, 2), 7)
    assert out and out[0] == (1, 0, 0, 1)


def test_shortest_congruent_lift_tall_point():
    # modulus comfortably above 2 * 2601^2 so the point is inside the
    # uniqueness radius and must come back first
    target = (0, 1, 2601, 0)
    n = 1
    for p in (101, 103, 107, 109):
        n *= p
    assert n > 2 * 2601 * 2601
    res = tuple(x % n for x in target)
    out = shortest_congruent_lift(res, n)
    assert out[0] == target


def _brute_lifts(r, n):
    """Every canonical point with sup norm <= isqrt((n-1)/2) that is a
    unit multiple of r mod n and primitive mod n, by enumeration."""
    b = math.isqrt((n - 1) // 2)
    multiples = {tuple(u * x % n for x in r) for u in range(1, n) if math.gcd(u, n) == 1}
    want = set()
    for v in itertools.product(range(-b, b + 1), repeat=4):
        if not any(v):
            continue
        g = math.gcd(math.gcd(v[0], v[1]), math.gcd(v[2], v[3]))
        if math.gcd(g, n) != 1:
            continue
        if tuple(x % n for x in v) in multiples:
            want.add(canonical_proj(v))
    return want


def test_shortest_congruent_lift_brute():
    # small-modulus brute force: enumerate all canonical points with
    # sup norm <= B and unit scalar relation to the residue
    rng = random.Random(23)
    n = 3 * 5 * 7
    for _ in range(6):
        r = tuple(rng.randrange(n) for _ in range(4))
        if not any(r):
            continue
        want = _brute_lifts(r, n)
        got = set(shortest_congruent_lift(r, n))
        assert got == want, (r, sorted(want - got), sorted(got - want))


def test_shortest_congruent_lift_no_unit_coordinate():
    # unit multiples of points whose every coordinate shares a prime with
    # the composite modulus 105, so the lattice basis needs a change of
    # coordinates before a coordinate can be scaled to 1
    n = 3 * 5 * 7
    for v, u in (((3, 5, 7, 0), 2), ((0, 3, 5, -7), 11), ((6, 5, 7, 0), 52)):
        r = tuple(u * x % n for x in v)
        assert all(math.gcd(x, n) > 1 for x in r)
        want = _brute_lifts(r, n)
        assert canonical_proj(v) in want
        assert set(shortest_congruent_lift(r, n)) == want


def test_shortest_congruent_lift_height_bound():
    # explicit cap below the point's height filters it out
    target = (0, 1, 12, 0)
    n = 10007
    out = shortest_congruent_lift(tuple(x % n for x in target), n, height_bound=5)
    assert target not in out
    out2 = shortest_congruent_lift(tuple(x % n for x in target), n, height_bound=12)
    assert target in out2
